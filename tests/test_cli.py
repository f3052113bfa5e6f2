import json
import subprocess
import sys

import pytest

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


def test_decode_failure_exit_code(capsys):
    code, out = run(capsys, ["decode", "--word", "ba"])
    assert code == 1
    assert "error" in json.loads(out)


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
    assert code == 3
    assert json.loads(out)["kind"] == "resource-cap"


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
    for vertex in (["--x", "14", "--y", "14"],
                   ["--x", "11", "--y", "11", "--k", "3"]):
        code, out = run(capsys, ["block", "--ordering", "seeded:6", *vertex,
                                 "--max-mem", "1"])
        assert code == 3
        assert json.loads(out)["kind"] == "resource-cap"


BOUNDED_SPEC = '{"kind":"explicit","bits":[],"maxLevel":4}'


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
])
def test_bad_input_is_a_json_error(capsys, tmp_path, argv, kind):
    # a file of each JSON kind, handed to the command that reads the other
    (tmp_path / "shapes.json").write_text('{"shapes": [[[1, 1]]]}')
    (tmp_path / "diagram.json").write_text('{"coding": [[[0]]]}')
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["kind"] == kind
    assert "Traceback" not in captured.err


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, ["odometer", "--diagram", "/nonexistent.json"])
    assert code == 2


def test_load_ordering_forms():
    assert load_ordering("constant1").bit(2, 2) == 1
    assert load_ordering("seeded:4").fingerprint().startswith("seeded:4")
    assert load_ordering("tree:2").kind == "tree"


def test_byte_identical_reruns():
    argv = [sys.executable, "-m", "adiclab.cli", "kink", "--trials", "25",
            "--seed", "12"]
    a = subprocess.run(argv, capture_output=True, check=True)
    b = subprocess.run(argv, capture_output=True, check=True)
    c = subprocess.run(argv + ["--threads", "3"], capture_output=True,
                       check=True)
    assert a.stdout == b.stdout == c.stdout
    assert a.stdout


def test_smallshift_n1(capsys):
    code, out = run(capsys, ["smallshift", "--n", "1", "--level", "4"])
    assert code == 0
    assert json.loads(out)["common"] == 2
