"""Batch command-line front end.

Every command is deterministic: randomized commands require an explicit
seed and identical invocations produce byte-identical output.  Each
command takes only the flags it honours: `--max-mem` on `block` and
`alternation`, `--format json|csv` on the tables `complexity` and
`montecarlo`.  `--threads` is on the five commands the benchmark runs,
because it appends `--threads 1` to each; only `kink` and `montecarlo`
use it.  Exit codes: 0 when no assertion-bearing check failed, 1 when one
did, 2 for usage and input errors, 3 for resource-cap aborts, 74
(EX_IOERR) when the report cannot be written to stdout, 141 (128 +
SIGPIPE) when stdout is closed before the report is written.
"""

import argparse
import csv
import json
import os
import re
import sys
from collections import Counter

from . import bratteli, coding, factoring
from .adic import kink_trials
from .coding import (DEFAULT_MEMORY_CAP, basic_block, block_store,
                     stabilized_complexity, symbol_census)
from .core import (OrderingTable, binomial, check_seed, make_ordering,
                   seeded_ordering)
from .errors import InputError, ParseError, ResourceCap


def read_input(path: str) -> str:
    """The text of an input file; an unreadable or non-UTF-8 file is an
    InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from exc


def load_ordering(text: str) -> OrderingTable:
    """Ordering from inline JSON, an @file reference, or a shorthand like
    constant0 / seeded:7 / tree:3."""
    # argparse prints the message of an ArgumentTypeError, but only a
    # generic line for a ValueError or TypeError, so every refusal is
    # turned into the former
    try:
        if text.startswith("@"):
            return make_ordering(json.loads(read_input(text[1:])))
        if text.startswith("{"):
            return make_ordering(json.loads(text))
        if text in ("constant0", "constant1"):
            return make_ordering({"kind": "constant", "bit": int(text[-1])})
        m = re.fullmatch(r"seeded:(\d+)", text)
        if m:
            return seeded_ordering(int(m.group(1)))
        m = re.fullmatch(r"tree:(\d+)", text)
        if m:
            return make_ordering({"kind": "tree", "depth": int(m.group(1))})
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"ordering lacks the {exc} field") from exc
    except (InputError, ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"cannot parse ordering {text!r}")


class StdoutFailed(Exception):
    """A report could not be written to stdout; its cause is the OSError,
    if any.  Not an OSError, so no write failure is taken for an input error."""


def emit(doc, fmt="json", rows=None, columns=()):
    """Print a report as JSON, or as CSV: a header of `columns`, then
    those fields of each row in the list doc[rows].  The report is
    flushed at once, so a failed write raises StdoutFailed here."""
    if sys.stdout is None:  # the process started with fd 1 closed
        raise StdoutFailed("stdout is closed")
    try:
        if fmt == "json":
            print(json.dumps(doc, sort_keys=True))
        else:
            writer = csv.writer(sys.stdout)
            writer.writerow(columns)
            writer.writerows([row[c] for c in columns] for row in doc[rows])
        sys.stdout.flush()
    except OSError as exc:
        raise StdoutFailed(str(exc)) from exc


class BadValue(Exception):
    """An argument value out of its range; reported as JSON, exit code 2."""


def require_at_least(flag, value, low):
    if value < low:
        raise BadValue(f"{flag} must be at least {low}, got {value}")


def require_seed(seed):
    """Refuse a --seed outside the u64 range every keyed hash reads."""
    try:
        check_seed(seed)
    except ValueError as exc:
        raise BadValue(f"--seed: {exc}") from exc


def max_bytes(args):
    """The --max-mem cap in bytes, None when it is not given."""
    if args.max_mem is not None:
        require_at_least("--max-mem", args.max_mem, 1)
        return args.max_mem << 20


#: Bytes of report text a k-coded symbol counts against the block cap, in
#: each of its two copies: a symbol prints as at most "[8, 8, 70], "
#: (k <= 8, s <= C(8, 4)); a letter prints as 1 byte.
SYMBOL_TEXT_BYTES = len("[8, 8, 70], ")


def cmd_block(args):
    budget = max_bytes(args) or DEFAULT_MEMORY_CAP
    xi = args.ordering
    x, y = args.x, args.y
    require_at_least("--x", x, 0)
    require_at_least("--y", y, 0)
    require_at_least("--x + --y", x + y, 1)
    if args.k is not None and not 1 <= args.k <= 8:
        raise BadValue(f"--k must be between 1 and 8, got {args.k}")
    length = binomial(x + y, x)
    # the report's two copies, its JSON text and the bytes print encodes
    # from it, are reserved before the block is built; the memo and the
    # block share what is left
    text = 2 * length * (1 if args.k in (None, 1) else SYMBOL_TEXT_BYTES)
    if text > budget:
        raise ResourceCap(f"two copies of a {length}-symbol report, {text} "
                          f"bytes, would exceed {budget} bytes")
    block_store(xi, budget - text)
    doc = {"vertex": [x, y], "length": length}
    if args.k in (None, 1):
        word = basic_block(xi, x, y)
        ca, cb, vertex = symbol_census(word)
        if x and y:
            matches = vertex == (x, y)
        else:
            # a row or column block is its one letter at every level
            matches = word == ("a" if y == 0 else "b")
        doc.update(block=word, count_a=ca, count_b=cb,
                   census_vertex=list(vertex) if vertex else None,
                   census_matches=matches)
        ok = doc["census_matches"] and len(word) == doc["length"]
    else:
        syms = coding.basic_block_k(xi, args.k, x, y)
        # a CylSymbol is a NamedTuple, which json writes as a list
        doc.update(k=args.k, block=syms)
        ok = len(syms) == doc["length"]
    emit(doc)
    return 0 if ok else 1


def cmd_decode(args):
    try:
        vertex, table, tokens = factoring._decode_with_tokens(args.word)
    except ParseError as exc:
        emit({"error": str(exc)})
        return 1
    bits = sorted((x, y, table.bit(x, y)) for x in range(2, vertex.x + 1)
                  for y in range(2, vertex.y + 1))
    emit({"vertex": list(vertex), "tokens": [str(t) for t in tokens],
          "bits": [list(b) for b in bits]})
    return 0


def cmd_complexity(args):
    require_at_least("--nmin", args.nmin, 1)
    require_at_least("--nmax", args.nmax, args.nmin)
    require_at_least("--level", args.level, 1)
    xi = args.ordering
    doc = {"ordering": xi.fingerprint(), "rows": []}
    for n in range(args.nmin, args.nmax + 1):
        count, lvl, stab = stabilized_complexity(xi, n, args.level)
        doc["rows"].append({"n": n, "count": count, "stabilized": stab,
                            "level": lvl})
    emit(doc, args.format, "rows", ("n", "count", "stabilized", "level"))
    return 0


def cmd_odometer(args):
    require_at_least("--depth", args.depth, 1)
    diagram = bratteli.OrderedDiagram.from_json(read_input(args.diagram))
    cert = bratteli.odometer_certificate(diagram, args.depth)
    emit({"found": cert.found, "message": cert.message,
          "segments": [[a, b, list(base)] for a, b, base in cert.segments],
          "depth": cert.searched_depth})
    return 0


def cmd_montecarlo(args):
    require_at_least("--trials", args.trials, 1)
    require_seed(args.seed)
    shapes = bratteli.shapes_from_json(read_input(args.shapes))
    jobs = [(shapes, args.seed, lo, hi)
            for lo, hi in _chunks(args.trials, args.threads)]
    parts = _run_parallel(bratteli.uniform_hits, jobs)
    report = bratteli.monte_carlo_report(shapes, args.trials, args.seed,
                                         map(sum, zip(*parts)))
    out = {"seed": args.seed, "trials": args.trials,
           "levels": [{"level": idx, "frequency": lvl.frequency,
                       "uniform": lvl.uniform_hits, "exact": str(lvl.exact)}
                      for idx, lvl in enumerate(report.levels)],
           "partial_sums": [str(s) for s in report.partial_sums]}
    emit(out, args.format, "levels", ("level", "frequency", "exact"))
    return 0


def _chunks(total: int, threads: int):
    """At most min(threads, CPU count) trial ranges covering range(total)."""
    parts = min(threads, os.cpu_count() or 1)
    step = (total + parts - 1) // parts
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_parallel(worker, jobs):
    """worker(*job) per job, one process per job when there are several."""
    if len(jobs) <= 1:
        return [worker(*j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(worker, *zip(*jobs)))


def cmd_kink(args):
    require_at_least("--trials", args.trials, 1)
    require_at_least("--max-n", args.max_n, 2)
    require_seed(args.seed)
    jobs = [(args.seed, lo, hi, args.max_n)
            for lo, hi in _chunks(args.trials, args.threads)]
    hits, failures = Counter(), 0
    for part_hits, part_failures in _run_parallel(kink_trials, jobs):
        hits.update(part_hits)
        failures += part_failures
    emit({"trials": args.trials, "failures": failures,
          "cases": dict(sorted((str(tuple(case)), count)
                               for case, count in hits.items()))})
    return 0 if failures == 0 else 1


def cmd_alternation(args):
    cap = max_bytes(args)
    require_at_least("--max-level", args.max_level, 1)
    require_at_least("--j", args.j, 1)
    largest = (factoring.ALT_CAP - 1) // 2
    if args.j > largest:
        raise BadValue(f"--j {args.j} has runs of 2j letters past the "
                       f"saturation cap {factoring.ALT_CAP}; the largest j "
                       f"is {largest}")
    verdict = factoring.alternation_exclusion(args.max_level, args.j,
                                              max_bytes=cap)
    xi, xi_prime = factoring.small_subshift_orderings()
    doc = {
        "j": args.j,
        "verdict": "EXCLUDED" if verdict.excluded else "NOT-EXCLUDED",
        "exact_level": verdict.exact_level,
        "exact_excluded": verdict.exact_excluded,
        "dp_level": verdict.dp_level,
        "dp_excluded": verdict.dp_excluded,
        "witness_each_side": {
            "ab_power": basic_block(xi, 3, 3),
            "ba_power": basic_block(xi_prime, 3, 3),
        },
    }
    if not verdict.excluded:
        doc.update(witness_level=verdict.witness_level,
                   witness_state=verdict.witness_state._asdict())
    emit(doc)
    return 0 if verdict.excluded else 1


_SMALL_ORBITS = re.compile(r"a*|b*|a*ba*|b*ab*")


def cmd_smallshift(args):
    require_at_least("--n", args.n, 1)
    require_at_least("--level", args.level, 1)
    xi, xi_prime = factoring.small_subshift_orderings()
    common = sorted(factoring.intersection_probe(xi, xi_prime, args.n,
                                                 args.level))
    stray = [w for w in common if not _SMALL_ORBITS.fullmatch(w)]
    emit({"n": args.n, "level": args.level, "common": len(common),
          "expected_orbit_subwords": len(common) - len(stray),
          "stray_words": stray})
    return 0 if not stray else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adiclab",
        description="Batch tools for arbitrarily ordered Pascal adic systems")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1,
                        help="worker process cap for kink and montecarlo, "
                        "bounded by the CPU count")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--max-mem", type=int, metavar="MIB", default=None,
                        help="cap for the block memo and the alternation "
                        "search's pair sets, in MiB")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("block", parents=[capped],
                       help="basic block and symbol census at a vertex")
    p.add_argument("--ordering", type=load_ordering, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("decode",
                       help="vertex, tokens, and ordering bits of a block")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("complexity", parents=[common, table],
                       help="language complexity table with stabilization")
    p.add_argument("--ordering", type=load_ordering, required=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--level", type=int, default=60)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("odometer",
                       help="odometer certificate search on a diagram file")
    p.add_argument("--diagram", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=cmd_odometer)

    p = sub.add_parser("montecarlo", parents=[common, table],
                       help="uniform-ordering frequencies over a shape file")
    p.add_argument("--shapes", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("kink", parents=[common],
                       help="verify return times on sampled kink configurations")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-n", type=int, default=12)
    p.set_defaults(func=cmd_kink)

    p = sub.add_parser("alternation", parents=[common, capped],
                       help="(ab)^j / (ba)^j exclusion verdict")
    p.add_argument("--max-level", type=int, default=12)
    p.add_argument("--j", type=int, default=9)
    p.set_defaults(func=cmd_alternation)

    p = sub.add_parser("smallshift", parents=[common],
                       help="intersection probe for the two named orderings")
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--level", type=int, default=20)
    p.set_defaults(func=cmd_smallshift)
    return parser


def run(args):
    """The exit code of one parsed command, its errors reported as JSON."""
    try:
        if "threads" in args:
            require_at_least("--threads", args.threads, 1)
        return args.func(args)
    except (ResourceCap, MemoryError) as exc:
        emit({"error": str(exc), "kind": "resource-cap"})
        return 3
    except BadValue as exc:
        emit({"error": str(exc), "kind": "usage"})
        return 2
    except InputError as exc:
        emit({"error": str(exc), "kind": "input"})
        return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except StdoutFailed as exc:
        if sys.stdout is not None:
            # the interpreter's last flush at exit goes to the null device
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc.__cause__, BrokenPipeError):
            return 141
        print(json.dumps({"error": str(exc), "kind": "output"}),
              file=sys.stderr)
        return 74


if __name__ == "__main__":
    sys.exit(main())
