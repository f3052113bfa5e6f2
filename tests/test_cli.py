import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adiclab.cli import load_ordering, main

from conftest import WORKED_BLOCK

WORKED_SPEC = ('{"kind":"explicit","bits":[[2,2,1],[3,2,0],[4,2,1],[2,3,1],'
             '[3,3,1],[4,3,1]],"maxLevel":7}')


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_block_command(capsys):
    code, out = run(capsys, ["block", "--ordering", WORKED_SPEC,
                             "--x", "4", "--y", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["block"] == WORKED_BLOCK
    assert doc["census_vertex"] == [4, 3]


def test_block_constant_shorthand(capsys):
    code, out = run(capsys, ["block", "--ordering", "constant0",
                             "--x", "1", "--y", "1"])
    assert code == 0
    assert json.loads(out)["block"] == "ab"
    # a row vertex: its block is the row's letter
    code, out = run(capsys, ["block", "--ordering", "constant0",
                             "--x", "3", "--y", "0"])
    assert code == 0
    assert json.loads(out)["block"] == "a"


def test_block_k_symbols(capsys):
    code, out = run(capsys, ["block", "--ordering", "constant0",
                             "--x", "2", "--y", "1", "--k", "2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["block"] == [[2, 0, 1], [2, 1, 1], [2, 1, 2]]


def test_decode_command(capsys):
    code, out = run(capsys, ["decode", "--word", WORKED_BLOCK])
    doc = json.loads(out)
    assert code == 0
    assert doc["vertex"] == [4, 3]
    assert doc["tokens"][0] == "D3" and doc["tokens"][-1] == "C4"
    assert [3, 2, 0] in doc["bits"]


@pytest.mark.parametrize("word, vertex", [("a", [1, 0]), ("b", [0, 1]),
                                          ("ab", [1, 1])])
def test_decode_blocks_without_tokens(capsys, word, vertex):
    # the level-1 and level-2 blocks decode, but have no C/D tokenization
    code, out = run(capsys, ["decode", "--word", word])
    assert code == 0
    assert json.loads(out) == {"vertex": vertex, "bits": [], "tokens": []}


def test_decode_failure_exit_code(capsys):
    code, out = run(capsys, ["decode", "--word", "ba"])
    assert code == 1
    assert "error" in json.loads(out)
    # the empty word is refused as empty, not as a segment of (1, 1)
    code, out = run(capsys, ["decode", "--word", ""])
    assert (code, json.loads(out)) == (1, {"error": "empty word (at 0)"})


def test_decode_names_a_letter_outside_ab(capsys):
    code, out = run(capsys, ["decode", "--word", "abc"])
    assert code == 1
    assert json.loads(out) == {"error": "letter 'c' is neither a nor b (at 2)"}


def test_complexity_csv(capsys):
    code, out = run(capsys, ["complexity", "--ordering", "constant0",
                             "--nmin", "1", "--nmax", "3", "--level", "12",
                             "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,count,stabilized,level"
    assert rows[1].startswith("1,2,")


def test_csv_rejected_for_non_tables(capsys):
    with pytest.raises(SystemExit) as err:
        main(["decode", "--word", "aab", "--format", "csv"])
    assert err.value.code == 2


# the least argv each command accepts, files under {tmp}
_MINIMAL_ARGV = {
    "block": ["--ordering", "constant0", "--x", "1", "--y", "1"],
    "decode": ["--word", "aab"],
    "complexity": ["--ordering", "constant0", "--nmin", "1", "--nmax", "2"],
    "odometer": ["--diagram", "{tmp}/diagram.json"],
    "montecarlo": ["--shapes", "{tmp}/shapes.json", "--trials", "5",
                   "--seed", "1"],
    "kink": ["--trials", "5", "--seed", "1"],
    "alternation": ["--max-level", "4", "--j", "3"],
    "smallshift": ["--n", "4", "--level", "6"],
}
_CAPPED = {"block", "alternation"}
_TABLES = {"complexity", "montecarlo"}
# the commands the benchmark runs, each with --threads 1 appended
_THREADED = {"complexity", "montecarlo", "kink", "alternation", "smallshift"}


@pytest.mark.parametrize("command, flag", [
    *((c, ["--max-mem", "64"]) for c in sorted(set(_MINIMAL_ARGV) - _CAPPED)),
    *((c, ["--format", "json"]) for c in sorted(set(_MINIMAL_ARGV) - _TABLES)),
    *((c, ["--format", "text"]) for c in sorted(_MINIMAL_ARGV)),
    ("kink", ["--max-level", "64"]),
    *((c, ["--threads", "1"]) for c in sorted(set(_MINIMAL_ARGV) - _THREADED)),
])
def test_commands_refuse_flags_they_do_not_honour(capsys, tmp_path, command,
                                                  flag):
    (tmp_path / "diagram.json").write_text('{"coding": [[[0]]]}')
    (tmp_path / "shapes.json").write_text('{"shapes": [[[1, 1], [1, 1]]]}')
    argv = [command] + [a.replace("{tmp}", str(tmp_path))
                        for a in _MINIMAL_ARGV[command]]
    # the argv without the flag runs
    assert main(argv) in (0, 1)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(argv + flag)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert flag[0] in captured.err


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_threads_are_bounded_by_the_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    argv = ["kink", "--trials", "40", "--seed", "2"]
    serial = run(capsys, argv + ["--threads", "1"])
    assert _SerialPool.sizes == []
    assert run(capsys, argv + ["--threads", "1000000"]) == serial
    assert _SerialPool.sizes == [3]
    assert run(capsys, argv + ["--threads", "2"]) == serial
    assert _SerialPool.sizes == [3, 2]
    code, out = run(capsys, argv + ["--threads", "0"])
    assert code == 2
    assert json.loads(out)["kind"] == "usage"
    assert _SerialPool.sizes == [3, 2]


def test_odometer_command(tmp_path, capsys):
    doc = {"levels": [1, 3, 3, 2],
           "coding": [[[0], [0], [0]],
                      [[0, 1], [1, 2], [1, 2]],
                      [[0, 1], [0, 2]]]}
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, ["odometer", "--diagram", str(path), "--depth", "3"])
    assert code == 0
    assert json.loads(out)["found"] is True


def test_montecarlo_seed_required():
    with pytest.raises(SystemExit) as err:
        main(["montecarlo", "--shapes", "x.json", "--trials", "10"])
    assert err.value.code == 2


def test_montecarlo_command(tmp_path, capsys):
    path = tmp_path / "shapes.json"
    path.write_text(json.dumps({"shapes": [[[1, 1], [1, 1]]]}))
    code, out = run(capsys, ["montecarlo", "--shapes", str(path),
                             "--trials", "400", "--seed", "5"])
    doc = json.loads(out)
    assert code == 0
    assert doc["levels"][0]["exact"] == "1/2"
    assert abs(doc["levels"][0]["frequency"] - 0.5) < 0.15
    # chunked over two worker processes, the keyed trials give equal hits
    assert run(capsys, ["montecarlo", "--shapes", str(path), "--trials",
                        "400", "--seed", "5", "--threads", "2"]) == (0, out)


def test_montecarlo_exact_past_enumeration(tmp_path, capsys):
    # ((3,3,3),(3,3,3)) has 9!^3 edge orders, yet its exact value prints
    path = tmp_path / "shapes.json"
    path.write_text(json.dumps({"shapes": [[[3, 3, 3], [3, 3, 3]],
                                           [[1, 1], [1, 1]]]}))
    code, out = run(capsys, ["montecarlo", "--shapes", str(path),
                             "--trials", "100", "--seed", "1"])
    assert code == 0
    assert '"exact": "1/400"' in out
    doc = json.loads(out)
    assert [lvl["exact"] for lvl in doc["levels"]] == ["1/400", "1/2"]
    assert doc["partial_sums"] == ["1/400", "201/400"]


def test_montecarlo_rejects_zero_trials(tmp_path, capsys):
    path = tmp_path / "shapes.json"
    path.write_text(json.dumps({"shapes": [[[1, 1], [1, 1]]]}))
    code, out = run(capsys, ["montecarlo", "--shapes", str(path),
                             "--trials", "0", "--seed", "5"])
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_kink_command(capsys):
    code, out = run(capsys, ["kink", "--trials", "40", "--seed", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["failures"] == 0


def test_kink_rejects_zero_trials(capsys):
    code, out = run(capsys, ["kink", "--trials", "0", "--seed", "3"])
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_smallshift_command(capsys):
    # at the probe scale (n = 60, L = 20) only orbit subwords can be common
    code, out = run(capsys, ["smallshift"])
    doc = json.loads(out)
    assert code == 0
    assert doc["stray_words"] == []


def test_alternation_cap_exit_code(capsys):
    code, out = run(capsys, ["alternation", "--max-level", "6", "--j", "20"])
    assert code == 2
    assert json.loads(out)["kind"] == "usage"


def test_alternation_memory_cap_exit_code(capsys):
    code, out = run(capsys, ["alternation", "--max-level", "12", "--j", "9",
                             "--max-mem", "1"])
    assert code == 3
    assert json.loads(out)["kind"] == "resource-cap"
    # a cap the search fits under leaves the verdict as it is
    assert run(capsys, ["alternation", "--max-level", "8", "--j", "9",
                        "--max-mem", "64"]) == \
        run(capsys, ["alternation", "--max-level", "8", "--j", "9"])


def test_flagged_alternation_counts_pairs_to_its_first_flag(capsys):
    # the pairs of level 7 exceed 1 MiB, but j = 3 flags at level 5
    code, out = run(capsys, ["alternation", "--j", "3", "--max-level", "12",
                             "--max-mem", "1"])
    assert code == 1
    assert '"witness_level": 5' in out
    assert json.loads(out)["verdict"] == "NOT-EXCLUDED"


def test_alternation_witness_keys(capsys):
    code, out = run(capsys, ["alternation", "--max-level", "6", "--j", "3"])
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "NOT-EXCLUDED"
    assert doc["witness_level"] == 5
    assert doc["witness_state"]["maxab"] >= 6
    assert doc["witness_state"]["maxba"] >= 6
    code, out = run(capsys, ["alternation", "--max-level", "6", "--j", "9"])
    assert code == 0
    assert "witness_level" not in json.loads(out)


def test_block_memory_cap_exit_code(capsys):
    # at (10, 10) the 184,756 symbols of the k = 3 report fit in 2 MiB only
    # when their text is not counted; at (12, 12) the 2,704,156 letters
    # fit in 4 MiB only when one copy of the report is counted, not both;
    # at (11, 11) the 16,930,368 bytes of the report's two copies fit in
    # 17 MiB, and the block memo is what the rest cannot hold
    for vertex, mib in ((["--x", "14", "--y", "14"], "1"),
                        (["--x", "11", "--y", "11", "--k", "3"], "1"),
                        (["--x", "30", "--y", "30"], "1"),
                        (["--x", "10", "--y", "10", "--k", "3"], "2"),
                        (["--x", "12", "--y", "12"], "4"),
                        (["--x", "11", "--y", "11", "--k", "3"], "17")):
        code, out = run(capsys, ["block", "--ordering", "seeded:6", *vertex,
                                 "--max-mem", mib])
        assert code == 3
        assert json.loads(out)["kind"] == "resource-cap"
    assert json.loads(out)["error"].startswith("block memo would exceed")


BOUNDED_SPEC = '{"kind":"explicit","bits":[],"maxLevel":4}'


# the error of each file written below that the JSON decoder, the UTF-8
# codec or the field checks refuse, in their own words
FILE_ERRORS = {
    "truncated.json": "Expecting ',' delimiter: line 2 column 1 (char 18)",
    "unclosed.json": "Expecting value: line 2 column 1 (char 13)",
    "latin1.json": "'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte",
    "bool_shape.json": "bad shapes field: multiplicities must be "
                       "non-negative integers",
    "bool_coding.json": "bad coding field: bad source ids [False] at level 1",
    "levels.json": "levels field disagrees with coding shape",
    "empty_levels.json": "levels field disagrees with coding shape",
    "zero_levels.json": "levels field disagrees with coding shape",
    "coding_object.json": "bad coding field: not a list",
    "shapes_object.json": "bad shapes field: not a list",
    "no_levels.json": "bad coding field: no levels",
    "no_shapes.json": "bad shapes field: no shapes",
}


@pytest.mark.parametrize("argv, kind", [
    (["block", "--ordering", "constant0", "--x", "0", "--y", "0"], "usage"),
    (["block", "--ordering", "constant0", "--x", "-1", "--y", "3"], "usage"),
    (["block", "--ordering", "constant0", "--x", "2", "--y", "2", "--k", "9"],
     "usage"),
    (["block", "--ordering", "constant0", "--x", "2", "--y", "2", "--k", "0"],
     "usage"),
    (["block", "--ordering", "seeded:6", "--x", "2", "--y", "2",
      "--max-mem", "0"], "usage"),
    (["block", "--ordering", "constant0", "--x", "1", "--y", "1", "--k", "3"],
     "input"),
    (["block", "--ordering", BOUNDED_SPEC, "--x", "3", "--y", "3"], "input"),
    (["complexity", "--ordering", "constant0", "--nmin", "0", "--nmax", "2"],
     "usage"),
    (["complexity", "--ordering", "constant0", "--nmin", "1", "--nmax", "2",
      "--level", "0"], "usage"),
    (["kink", "--trials", "5", "--seed", "1", "--max-n", "1"], "usage"),
    (["smallshift", "--n", "0"], "usage"),
    (["odometer", "--diagram", "{tmp}/shapes.json"], "input"),
    (["montecarlo", "--shapes", "{tmp}/diagram.json", "--trials", "5",
      "--seed", "1"], "input"),
    (["odometer", "--diagram", "{tmp}/wrong_type.json"], "input"),
    (["montecarlo", "--shapes", "{tmp}/ragged.json", "--trials", "5",
      "--seed", "1"], "input"),
    (["alternation", "--max-level", "0"], "usage"),
    (["alternation", "--j", "0"], "usage"),
    # the depth is refused before the (missing) diagram file is opened
    (["odometer", "--diagram", "{tmp}/missing.json", "--depth", "-3"],
     "usage"),
    (["smallshift", "--level", "0"], "usage"),
    (["complexity", "--ordering", "constant0", "--nmin", "3", "--nmax", "2"],
     "usage"),
    (["odometer", "--diagram", "{tmp}/truncated.json"], "input"),
    (["montecarlo", "--shapes", "{tmp}/unclosed.json", "--trials", "5",
      "--seed", "1"], "input"),
    (["montecarlo", "--shapes", "{tmp}/latin1.json", "--trials", "5",
      "--seed", "1"], "input"),
    (["odometer", "--diagram", "{tmp}/latin1.json"], "input"),
    (["montecarlo", "--shapes", "{tmp}/bool_shape.json", "--trials", "5",
      "--seed", "1"], "input"),
    (["odometer", "--diagram", "{tmp}/bool_coding.json"], "input"),
    # a seed is a u64, refused outside it rather than read modulo 2^64
    (["kink", "--trials", "5", "--seed", "-1"], "usage"),
    (["montecarlo", "--shapes", "{tmp}/shapes.json", "--trials", "5",
      "--seed", str(2**64)], "usage"),
    (["odometer", "--diagram", "{tmp}/levels.json"], "input"),
    # every command that takes --threads refuses 0
    (["complexity", "--ordering", "constant0", "--nmin", "1", "--nmax", "2",
      "--threads", "0"], "usage"),
    (["montecarlo", "--shapes", "{tmp}/shapes.json", "--trials", "5",
      "--seed", "1", "--threads", "0"], "usage"),
    (["alternation", "--max-level", "4", "--j", "3", "--threads", "0"],
     "usage"),
    (["smallshift", "--n", "4", "--level", "6", "--threads", "0"], "usage"),
    (["odometer", "--diagram", "{tmp}/empty_levels.json"], "input"),
    (["odometer", "--diagram", "{tmp}/zero_levels.json"], "input"),
    (["odometer", "--diagram", "{tmp}/coding_object.json"], "input"),
    (["montecarlo", "--shapes", "{tmp}/shapes_object.json", "--trials", "5",
      "--seed", "1"], "input"),
    (["odometer", "--diagram", "{tmp}/no_levels.json"], "input"),
    (["montecarlo", "--shapes", "{tmp}/no_shapes.json", "--trials", "5",
      "--seed", "1"], "input"),
])
def test_bad_input_is_a_json_error(capsys, tmp_path, argv, kind):
    # a file of each JSON kind, handed to the command that reads the other
    (tmp_path / "shapes.json").write_text('{"shapes": [[[1, 1]]]}')
    (tmp_path / "diagram.json").write_text('{"coding": [[[0]]]}')
    # fields of the wrong type and of the wrong shape
    (tmp_path / "wrong_type.json").write_text('{"coding": 5}')
    (tmp_path / "ragged.json").write_text('{"shapes": [[[1, 1], [1]]]}')
    # text that is not JSON, bytes that are not UTF-8, booleans for integers
    (tmp_path / "truncated.json").write_text('{"coding": [[[0]]\n')
    (tmp_path / "unclosed.json").write_text('{"shapes": [\n')
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{")
    (tmp_path / "bool_shape.json").write_text('{"shapes": [[[true]]]}')
    (tmp_path / "bool_coding.json").write_text('{"coding": [[[false]]]}')
    # a levels field that does not match the coding
    (tmp_path / "levels.json").write_text(
        '{"levels": [1, 2], "coding": [[[0]]]}')
    # a levels field that is falsy, and objects where a list belongs
    (tmp_path / "empty_levels.json").write_text(
        '{"levels": [], "coding": [[[0]]]}')
    (tmp_path / "zero_levels.json").write_text(
        '{"levels": 0, "coding": [[[0]]]}')
    (tmp_path / "coding_object.json").write_text('{"coding": {}}')
    (tmp_path / "shapes_object.json").write_text('{"shapes": {}}')
    # documents with nothing in them
    (tmp_path / "no_levels.json").write_text('{"coding": []}')
    (tmp_path / "no_shapes.json").write_text('{"shapes": []}')
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert doc["kind"] == kind
    assert "Traceback" not in captured.err
    name = argv[2].removeprefix("{tmp}/")
    if name in FILE_ERRORS:
        assert doc["error"] == FILE_ERRORS[name]


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, ["odometer", "--diagram", "/nonexistent.json"])
    assert code == 2


@pytest.mark.parametrize("spec", ["tree:40", '{"kind":"tree","depth":40}'])
def test_tree_depth_is_bounded(capsys, spec):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["block", "--ordering", spec, "--x", "2", "--y", "2"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "tree depth must be between 1 and 10" in err


@pytest.mark.parametrize("doc, names", [
    ("5", 'JSON object with a "kind" field'),
    ("[]", 'JSON object with a "kind" field'),
    ('{"kind":"explicit","bits":[[1]],"maxLevel":3}',
     '"bits" entry [1] is not an [x, y, b] triple'),
    # a float coordinate was truncated to an int, a string one refused
    # in int()'s words
    ('{"kind":"explicit","bits":[[1.5,2,1]],"maxLevel":3}',
     '"bits" entry [1.5, 2, 1] is not an [x, y, b] triple'),
    ('{"kind":"explicit","bits":[["a",2,1]],"maxLevel":3}',
     '"bits" entry [\'a\', 2, 1] is not an [x, y, b] triple'),
    ('{"kind":"explicit","bits":5,"maxLevel":3}',
     '"bits" is a list of [x, y, b] triples'),
    # booleans were read as the integers 1 and 0, strings refused in
    # Python's words
    ('{"kind":"constant","bit":true}', "bit must be 0 or 1, not True"),
    ('{"kind":"tree","depth":true}',
     "tree depth must be between 1 and 10, not True"),
    ('{"kind":"tree","depth":"3"}',
     "tree depth must be between 1 and 10, not '3'"),
    ('{"kind":"seeded","seed":true}', "the seed is an integer, not True"),
    # a seed outside the u64 range the bits are keyed by
    ('{"kind":"seeded","seed":-5}',
     "the seed is an integer from 0 to 2^64 - 1, not -5"),
    ('{"kind":"seeded","seed":1,"bias":"x"}',
     "the bias a probability, not 'x'"),
    ('{"kind":"seeded","seed":1,"bias":true}',
     "the bias a probability, not True"),
    ('{"kind":"explicit","bits":[],"maxLevel":true}',
     "maxLevel is an integer, not True"),
    ('{"kind":"explicit","bits":[],"maxLevel":7,"default":true}',
     "default is a bit, not True"),
])
def test_refused_ordering_document_names_the_problem(capsys, tmp_path, doc,
                                                      names):
    (tmp_path / "f.json").write_text(doc)
    with pytest.raises(SystemExit) as exc:
        main(["block", "--x", "2", "--y", "2", "--ordering",
              f"@{tmp_path / 'f.json'}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert names in err


@pytest.mark.parametrize("text, names", [
    ('{"kind":"explicit"}', "ordering lacks the 'bits' field"),
    ("seeded:x", "cannot parse ordering 'seeded:x'"),
    ('{"kind":"bogus"}', "unknown ordering kind 'bogus'"),
])
def test_refused_ordering_argument_names_the_problem(capsys, text, names):
    with pytest.raises(SystemExit) as exc:
        main(["complexity", "--ordering", text, "--nmin", "1", "--nmax", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert names in err


def test_alternation_j_above_the_cap_names_the_largest_j(capsys):
    code, out = run(capsys, ["alternation", "--j", "10"])
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "usage"
    assert "the largest j is 9" in doc["error"]


def test_load_ordering_forms():
    assert load_ordering("constant1").bit(2, 2) == 1
    assert load_ordering("seeded:4").fingerprint().startswith("seeded:4")
    assert load_ordering("tree:2").kind == "tree"
    # a refused ordering says why
    with pytest.raises(argparse.ArgumentTypeError, match="bias a probability"):
        load_ordering('{"kind":"seeded","seed":1,"bias":2}')


def test_byte_identical_reruns():
    argv = [sys.executable, "-m", "adiclab.cli", "kink", "--trials", "25",
            "--seed", "12"]
    a = subprocess.run(argv, capture_output=True, check=True)
    b = subprocess.run(argv, capture_output=True, check=True)
    c = subprocess.run(argv + ["--threads", "3"], capture_output=True,
                       check=True)
    assert a.stdout == b.stdout == c.stdout
    assert a.stdout


# Runs each argv list of sys.argv[1] through main in one interpreter and
# prints, after each, its exit code and every module loaded since the
# import of adiclab.cli began.
_IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from adiclab.cli import main
loaded = [(None, sorted(set(sys.modules) - before))]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        loaded.append((main(argv), sorted(set(sys.modules) - before)))
print(json.dumps(loaded))
"""


def test_commands_load_only_what_they_use(tmp_path):
    # hashlib loads OpenSSL's libcrypto, and fractions loads decimal: only
    # montecarlo, whose exact values are Fractions, loads fractions; no
    # command loads dataclasses or the inspect it imports, which with the
    # code dataclasses generate were most of `import adiclab.cli`'s time
    shapes = tmp_path / "shapes.json"
    shapes.write_text('{"shapes": [[[1, 1], [1, 1]]]}')
    runs = [["decode", "--word", "ab"],
            ["kink", "--trials", "5", "--seed", "1"],
            ["block", "--ordering", "seeded:6", "--x", "5", "--y", "4"],
            ["montecarlo", "--shapes", str(shapes), "--trials", "5",
             "--seed", "1"]]
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           json.dumps(runs)], env=env, capture_output=True,
                          text=True, check=True)
    imported, *loaded = json.loads(proc.stdout)
    assert [code for code, _ in loaded] == [0, 0, 0, 0]
    for _, modules in [imported, *loaded]:
        assert not {"dataclasses", "inspect"} & set(modules)
    unused = {"hashlib", "_hashlib", "fractions", "decimal"}
    assert not unused & set(loaded[2][1])
    assert "fractions" in loaded[3][1]
    assert "_hashlib" not in loaded[3][1]


@pytest.mark.parametrize("argv", [
    ["smallshift", "--n", "20", "--level", "20"],
    ["decode", "--word", "aabba"],
    ["complexity", "--ordering", "constant0", "--nmin", "1", "--nmax", "3",
     "--format", "csv"],
])
def test_closed_stdout_exits_141_quietly(argv):
    # stdout is a pipe whose read end is closed before the command starts,
    # so its first write finds no reader whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "adiclab.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _close_stdout():
    os.close(1)


@pytest.mark.parametrize("path, mode, error", [
    ("/dev/full", "wb", "[Errno 28] No space left on device"),
    # fd 1 open for reading only
    ("/dev/null", "rb", "[Errno 9] Bad file descriptor"),
    # fd 1 closed, as by `>&-`
    (None, None, "stdout is closed"),
])
def test_failed_stdout_write_exits_74(path, mode, error):
    argv = [sys.executable, "-m", "adiclab.cli", "decode", "--word", "ab"]
    if path is None:
        proc = subprocess.run(argv, stderr=subprocess.PIPE,
                              preexec_fn=_close_stdout)
    else:
        with open(path, mode) as stdout:
            proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE)
    assert proc.returncode == 74
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error, "kind": "output"}


# README commands (plus a k-coded block and a complexity table on a seeded
# ordering) with their stdout and exit code.  To re-record after an
# intended change, run `PYTHONPATH=src python tests/test_cli.py`: it
# rewrites every entry from the current code, so the diff shows which
# entries moved.
GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


def run_golden(argv, folder):
    """(exit code, stdout) of one command, with `{tmp}` read as `folder`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main([a.replace("{tmp}", str(folder)) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    for entry in golden["commands"]:
        assert run_golden(entry["argv"], tmp_path) == \
            (entry["code"], entry["stdout"]), entry["argv"]


def test_smallshift_n1(capsys):
    code, out = run(capsys, ["smallshift", "--n", "1", "--level", "4"])
    assert code == 0
    assert json.loads(out)["common"] == 2


# argv fuzzing: small, sometimes invalid values for every subcommand

_FILES = {
    "diagram.json": '{"coding": [[[0], [0]], [[0, 1]]]}',
    "shapes.json": '{"shapes": [[[1, 1], [1, 1]], [[1], [1]]]}',
    "coding_int.json": '{"coding": 5}',
    "coding_text.json": '{"coding": [[["x"]]]}',
    "coding_float.json": '{"coding": [[[0.5]]]}',
    "levels.json": '{"coding": [[[0]]], "levels": [1, 2]}',
    "ragged.json": '{"shapes": [[[1, 1], [1]]]}',
    "shape_text.json": '{"shapes": [[["x"]]]}',
    "shape_negative.json": '{"shapes": [[[-1, 1]]]}',
    "shapes_int.json": '{"shapes": 5}',
    "no_shapes.json": '{"shapes": []}',
    "list.json": "[]",
    "broken.json": "{",
}


@pytest.fixture(scope="module")
def json_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    for name, text in _FILES.items():
        (folder / name).write_text(text)
    return {name: str(folder / name) for name in _FILES}


def _small(low=-2, high=8):
    # one value in ten is no integer at all
    return st.integers(0, 9).flatmap(
        lambda pick: st.integers(low, high).map(str) if pick
        else st.sampled_from(["x", "1.5", ""]))


_ORDERINGS = st.sampled_from([
    "constant0", "constant1", "seeded:3", "tree:2", BOUNDED_SPEC,
    '{"kind":"bogus"}', "{", "seeded:x", "@/nonexistent.json",
    '{"kind":"explicit"}', '{"kind":"seeded","seed":"x"}',
    '{"kind":"seeded","seed":1,"bias":2}',
    '{"kind":"explicit","bits":[],"maxLevel":"x"}'])


_FORMATS = st.sampled_from(["json", "csv"])


@st.composite
def _argvs(draw, files):
    def some_file(valid):  # the valid one half of the time
        return st.one_of(st.just(files[valid]), st.sampled_from(
            [*files.values(), "/nonexistent.json"]))

    command = draw(st.sampled_from(["block", "decode", "complexity",
                                    "odometer", "montecarlo", "kink",
                                    "alternation", "smallshift"]))
    flags = {
        "block": [("--ordering", _ORDERINGS), ("--x", _small(-2, 4)),
                  ("--y", _small(-2, 4)), ("--k", _small(-1, 9)),
                  ("--max-mem", _small(0, 64))],
        "decode": [("--word", st.text("abc", max_size=12))],
        "complexity": [("--ordering", _ORDERINGS), ("--nmin", _small(-1, 4)),
                       ("--nmax", _small(-1, 6)), ("--level", _small()),
                       ("--format", _FORMATS)],
        "odometer": [("--diagram", some_file("diagram.json")),
                     ("--depth", _small(-1, 4))],
        "montecarlo": [("--shapes", some_file("shapes.json")),
                       ("--trials", _small(-1, 50)), ("--seed", _small(0, 9)),
                       ("--format", _FORMATS)],
        "kink": [("--trials", _small(-1, 50)), ("--seed", _small(0, 9)),
                 ("--max-n", _small())],
        "alternation": [("--max-level", _small()), ("--j", _small(-1, 10)),
                        ("--max-mem", _small(0, 64))],
        "smallshift": [("--n", _small()), ("--level", _small())],
    }[command]
    if command in _THREADED:
        flags.append(("--threads", st.sampled_from(["0", "1", "2"])))
    argv = [command]
    for flag, values in flags:
        if draw(st.integers(0, 7)):  # each flag is left out now and then
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(json_files, data):
    argv = data.draw(_argvs(json_files))
    out, err = io.StringIO(), io.StringIO()
    rejected = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code, rejected = exc.code, True
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rejected:
        return
    if code == 0 and "--format" in argv and \
            argv[argv.index("--format") + 1] == "csv":
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert len({len(row) for row in rows}) == 1
    else:
        json.loads(out.getvalue())


if __name__ == "__main__":
    import tempfile

    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as folder:
        for name, text in golden["files"].items():
            pathlib.Path(folder, name).write_text(text)
        for entry in golden["commands"]:
            entry["code"], entry["stdout"] = run_golden(entry["argv"], folder)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
