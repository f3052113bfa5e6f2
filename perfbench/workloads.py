"""The three benchmark workloads: seeded inputs, timed calls, output checks.

Each workload is built by ``build(name, seed, workdir)`` into a list of
jobs plus a gauge function.  A job's ``run(tracer)`` is the timed part: it
only calls names exported from ``adiclab`` or ``adiclab.cli.main``, each
through ``tracer.call("layer.function", fn, *args)`` so that a traced pass
can time it.  ``check(output)`` runs after the pass and returns failure
messages; ``work(output)`` returns the work counts the per-layer rates
divide by.  Inputs depend only on the workload name and the seed.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import adiclab as al
import adiclab.cli

# Sizes, fixed so that a pass takes a few seconds on one core.
BIT_LEVEL = 350          # bit lookups: every interior vertex up to this level
TRIP_LEVEL = 40          # rank(unrank(r)) round trips at this level
TRIPS = 1000
ORBIT_LEVEL = 30         # orbit_coding windows start at this level
ORBIT_WINDOWS = 2
ORBIT_STEPS = 4000
KINK_CLI_TRIALS = 500
KINK_DIRECT = 400
KINK_MAX_N = 12
FAITH_LEVEL, FAITH_K, FAITH_DELTA = 6, 3, 10
# Orderings are drawn until their probes sweep this many paths in total;
# one ordering's column sizes vary too much across seeds to time alone.
FAITH_PATHS = 160_000
KBLOCK_K, KBLOCK_VERTEX = 3, (10, 10)

COMPLEXITY_ARGS = ["--ordering", "constant0", "--nmin", "20", "--nmax", "40",
                   "--level", "60"]
SCAN_ORDERINGS, SCAN_N, SCAN_LEVEL = 6, range(10, 21), 60
SMALLSHIFT_ARGS = ["--n", "60", "--level", "20"]
CONTEXT_LEVEL = 16
PERIODS, PERIODIC_LEVEL = (2, 3, 4), 18
FACTOR_ORDERINGS, FACTOR_K, FACTOR_LEVELS = 20, 3, range(3, 9)
DECODES, DECODE_LEVEL = 80, 12
BLOCK_ORDERINGS, BLOCK_LEVEL = 4, 22

ALT_J, ALT_SHALLOW, ALT_DEEP = 9, 7, 10
MC_TRIALS = 3000
# Shapes small enough for an exhaustive exact uniform probability.
MC_SHAPES = (
    ((1, 1), (1, 1)),
    ((1, 1, 1), (1, 1, 1)),
    ((2, 2), (1, 1)),
)
MC_SIGMAS = 4


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable
    work: Callable = lambda out: {}


def _cli_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = adiclab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def cli(tracer, command, *argv):
    """Run one CLI command in-process with one thread; (exit code, stdout)."""
    return tracer.call("cli.main", _cli_main,
                       [command, *argv, "--threads", "1"])


def cli_doc(out, failures):
    """Parse a CLI JSON report; records a failure for a nonzero exit."""
    code, text = out
    if code != 0:
        failures.append(f"exit code {code}")
    try:
        return json.loads(text)
    except ValueError:
        failures.append(f"stdout is not JSON: {text[:80]!r}")
        return {}


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


def _fresh(rng):
    return al.seeded_ordering(rng.getrandbits(63))


# ---------------------------------------------------------------------------
# sweep: path arithmetic, kernels through adic and coding


def _kink_configuration(rng, max_n):
    """A seeded (ordering, path) pair ending in a kink configuration."""
    xi = _fresh(rng)
    n = rng.randint(2, max_n)
    i = rng.randint(1, n - 1)
    v = al.Vertex(i, n - i)
    prefix = al.unrank(xi, v, rng.randrange(al.column_size(v)))
    # the step into (i+1, j+1) that is minimal there
    steps = (0, 1) if xi.bit(i + 1, n - i + 1) == 0 else (1, 0)
    return xi, prefix.extend(steps)


def _path_symbol(xi, v, r, k):
    head = al.unrank(xi, v, r).prefix(k)
    return al.CylSymbol(k, head.terminal.y, al.rank(xi, head) + 1)


def _sweep(rng, workdir):
    jobs = []

    bits_seed = rng.getrandbits(63)
    xi_bits = al.seeded_ordering(bits_seed)
    cells = [(x, n - x) for n in range(2, BIT_LEVEL + 1) for x in range(1, n)]

    def run_bits(t):
        bit = xi_bits.bit
        return [t.call("core.OrderingTable.bit", bit, x, y) for x, y in cells]

    def check_bits(out):
        # counter-based bits: a fresh table queried in reverse order agrees
        again = al.seeded_ordering(bits_seed)
        sample = list(range(0, len(cells), 97))[::-1]
        bad = [i for i in sample if again.bit(*cells[i]) != out[i]]
        return ([f"bit mismatch at {cells[bad[0]]}"] if bad else []) + \
            ([] if set(out) <= {0, 1} else ["bit outside {0, 1}"])

    jobs.append(Job("bits", run_bits, check_bits,
                    lambda out: {"queries": len(out)}))

    xi_rank = _fresh(rng)
    trips = []
    for _ in range(TRIPS):
        x = rng.randint(1, TRIP_LEVEL - 1)
        v = al.Vertex(x, TRIP_LEVEL - x)
        trips.append((v, rng.randrange(al.column_size(v))))

    def run_trips(t):
        out = []
        for v, r in trips:
            p = t.call("core.unrank", al.unrank, xi_rank, v, r)
            out.append((p, t.call("core.rank", al.rank, xi_rank, p)))
        return out

    def check_trips(out):
        bad = [(v, r) for (v, r), (p, got) in zip(trips, out)
               if got != r or p.terminal != v]
        return [f"rank(unrank({bad[0][1]})) != id at {tuple(bad[0][0])}"] \
            if bad else []

    jobs.append(Job("rank_unrank", run_trips, check_trips,
                    lambda out: {"round_trips": len(out)}))

    xi_orbit = _fresh(rng)
    starts = []
    for _ in range(ORBIT_WINDOWS):
        x = rng.randint(10, ORBIT_LEVEL - 10)
        v = al.Vertex(x, ORBIT_LEVEL - x)
        r0 = rng.randrange(al.column_size(v) - ORBIT_STEPS)
        starts.append((v, r0, al.unrank(xi_orbit, v, r0)))

    def run_orbit(t):
        return [t.call("adic.orbit_coding", al.orbit_coding, xi_orbit, p,
                       FAITH_K, (0, ORBIT_STEPS)) for _, _, p in starts]

    def check_orbit(out):
        failures = []
        for (v, r0, _), syms in zip(starts, out):
            _expect(failures, len(syms) == ORBIT_STEPS + 1, "window length")
            for step in range(0, ORBIT_STEPS + 1, ORBIT_STEPS // 7):
                want = _path_symbol(xi_orbit, v, r0 + step, FAITH_K)
                _expect(failures, syms[step] == want,
                        f"orbit symbol {step} != unrank(rank + {step})")
        return failures

    jobs.append(Job("orbit", run_orbit, check_orbit,
                    lambda out: {"steps": sum(len(s) - 1 for s in out)}))

    kink_seed = rng.getrandbits(32)

    def check_kink_cli(out):
        failures = []
        doc = cli_doc(out, failures)
        cases = doc.get("cases", {})
        known = {str(tuple(c)) for c in al.KINK_CASES}
        _expect(failures, doc.get("failures") == 0, "kink failures != 0")
        _expect(failures, sum(cases.values()) == KINK_CLI_TRIALS,
                "kink case counts do not sum to the trials")
        _expect(failures, set(cases) <= known, "unknown kink case")
        return failures

    jobs.append(Job(
        "kink_cli",
        lambda t: cli(t, "kink", "--trials", str(KINK_CLI_TRIALS),
                      "--seed", str(kink_seed), "--max-n", str(KINK_MAX_N)),
        check_kink_cli, lambda out: {"trials": KINK_CLI_TRIALS}))

    configs = [_kink_configuration(rng, KINK_MAX_N) for _ in range(KINK_DIRECT)]
    return_steps = sum(
        al.kink_return_time(al.kink_classify(xi, p), len(p) - 2,
                            p.terminal.y - 1)
        for xi, p in configs)

    def run_kink(t):
        return [t.call("adic.kink_verify", al.kink_verify, xi, p)
                for xi, p in configs]

    jobs.append(Job("kink_verify", run_kink,
                    lambda out: [] if all(out) else ["kink_verify False"],
                    lambda out: {"return_steps": return_steps}))

    deep = FAITH_LEVEL + FAITH_DELTA
    faith, swept = [], 0
    while swept < FAITH_PATHS:
        seed = rng.getrandbits(63)
        # sized on a second table, so the probed one starts cold
        columns = {al.minimal_continuation(al.seeded_ordering(seed),
                                           al.PathPrefix(s), deep).terminal
                   for s in itertools.product((0, 1), repeat=FAITH_LEVEL)}
        swept += sum(al.column_size(v) for v in columns)
        faith.append(al.seeded_ordering(seed))

    def run_faith(t):
        return [t.call("coding.faithfulness_probe", al.faithfulness_probe,
                       xi, FAITH_LEVEL, FAITH_K, FAITH_DELTA) for xi in faith]

    def check_faith(reports):
        failures = []
        pairs = math.comb(2 ** FAITH_LEVEL, 2)
        for xi, rep in zip(faith, reports):
            _expect(failures, rep.total == pairs,
                    f"{rep.total} pairs != {pairs}")
            separated = [p for p in rep.pairs if p.coordinate is not None]
            for pair in random.Random(rep.total).sample(
                    separated, min(2, len(separated))):
                failures += _check_separation(xi, deep, pair)
        return failures

    jobs.append(Job("faithfulness", run_faith, check_faith,
                    lambda out: {"swept_paths": swept}))

    xi_k = _fresh(rng)
    kx, ky = KBLOCK_VERTEX

    def check_kblock(syms):
        failures = []
        _expect(failures, len(syms) == math.comb(kx + ky, kx),
                "k-block length != C(x+y, x)")
        # projecting each symbol to its first letter gives the 1-block
        letter = {s: "ab"[al.unrank(xi_k, al.Vertex(s.k - s.m, s.m),
                                    s.s - 1).steps[0]] for s in set(syms)}
        _expect(failures, "".join(letter[s] for s in syms)
                == al.basic_block(xi_k, kx, ky),
                "k-block does not project to the basic block")
        return failures

    jobs.append(Job(
        "kblock",
        lambda t: t.call("coding.basic_block_k", al.basic_block_k, xi_k,
                         KBLOCK_K, kx, ky),
        check_kblock, lambda out: {"symbols": len(out)}))
    return jobs, lambda: {}


def _check_separation(xi, deep, pair):
    """The probe's coordinate is the first differing time in its search
    order (0, -1, 1, -2, ...) between the two orbit_coding windows."""
    lo, hi = pair.window
    ea, eb = (al.minimal_continuation(xi, al.PathPrefix.from_word(w), deep)
              for w in (pair.path_a, pair.path_b))
    c = pair.coordinate
    span = (max(lo, -abs(c) - 1), min(hi, abs(c) + 1))
    wa = al.orbit_coding(xi, ea, FAITH_K, span)
    wb = al.orbit_coding(xi, eb, FAITH_K, span)
    order = [d for k in range(abs(c) + 1) for d in (k, -1 - k)
             if span[0] <= d <= span[1]]
    for d in order[:order.index(c)]:
        if wa[d - span[0]] != wb[d - span[0]]:
            return [f"pair {pair.path_a}/{pair.path_b} differs before {c}"]
    if wa[c - span[0]] == wb[c - span[0]]:
        return [f"pair {pair.path_a}/{pair.path_b} agrees at {c}"]
    return []


# ---------------------------------------------------------------------------
# language: block text, the language scan and block parsers


def _language(rng, workdir):
    jobs = []
    stores = []

    def check_complexity(out):
        failures = []
        rows = cli_doc(out, failures).get("rows", [])
        _expect(failures, [r["n"] for r in rows] == list(range(20, 41)),
                "complexity rows do not cover n = 20..40")
        _expect(failures, all(r["stabilized"] and r["count"] > 0
                              for r in rows), "complexity row not stabilized")
        return failures

    jobs.append(Job("complexity_cli",
                    lambda t: cli(t, "complexity", *COMPLEXITY_ARGS),
                    check_complexity, lambda out: {"rows": 21}))

    scan = [(xi, n) for xi in [_fresh(rng) for _ in range(SCAN_ORDERINGS)]
            for n in SCAN_N]
    probe = rng.randrange(len(scan))

    def run_scan(t):
        return [t.call("coding.stabilized_complexity",
                       al.stabilized_complexity, xi, n, SCAN_LEVEL)
                for xi, n in scan]

    def check_scan(out):
        xi, n = scan[probe]
        count, level, _ = out[probe]
        return [] if count == len(al.language_words(xi, n, level)) else \
            [f"stabilized count at n={n} != language_words"]

    jobs.append(Job("stabilized", run_scan, check_scan, lambda out: {
        "vertices": sum(level * (level - 1) // 2 for _, level, _ in out)}))

    def check_smallshift(out):
        failures = []
        doc = cli_doc(out, failures)
        _expect(failures, doc.get("stray_words") == [], "stray smallshift word")
        return failures

    jobs.append(Job("smallshift_cli",
                    lambda t: cli(t, "smallshift", *SMALLSHIFT_ARGS),
                    check_smallshift))

    xi_s, xi_p = al.small_subshift_orderings()
    stores += [xi_s, xi_p]
    run_len = rng.randint(7, 10)

    def run_contexts(t):
        return [t.call("factoring.run_context_report", al.run_context_report,
                       xi, run_len, CONTEXT_LEVEL) for xi in (xi_s, xi_p)]

    def check_contexts(out):
        a = "a" * run_len
        want = {f"b{a}b{a}b{a[1:]}b", f"b{a}b{a[1:]}b"}
        forms = re.compile(f"b{a}b|b{a}b{a}b{{2,}}a")
        failures = []
        _expect(failures, set(out[0].contexts) == want,
                "run contexts of the small-subshift ordering")
        _expect(failures, out[1].contexts and all(
            forms.fullmatch(w) for w in out[1].contexts),
            "run contexts of the primed ordering")
        return failures

    jobs.append(Job("run_context", run_contexts, check_contexts))

    xi_per = _fresh(rng)
    stores.append(xi_per)

    def check_periodic(out):
        failures = []
        corpus = [al.basic_block(xi_per, x, n - x) if 0 < x < n
                  else ("a" if x == n else "b")
                  for n in range(1, PERIODIC_LEVEL + 1) for x in range(n + 1)]
        for p, rep in zip(PERIODS, out):
            _expect(failures, len(rep.cases) == 2 ** p - 2,
                    f"period {p}: {len(rep.cases)} cases")
            r = p + 1
            _expect(failures, rep.window_length
                    == 3 * math.comb(4 * r, 2 * r) + 1,
                    f"period {p}: window length")
            _expect(failures, rep.all_excluded, f"period {p} not excluded")
            for case in rep.cases:
                if case.excluded:
                    failures += _check_absent(corpus, case)
        return failures

    jobs.append(Job(
        "periodic",
        lambda t: [t.call("factoring.periodic_exclusion",
                          al.periodic_exclusion, xi_per, p, PERIODIC_LEVEL)
                   for p in PERIODS],
        check_periodic))

    factor = [_fresh(rng) for _ in range(FACTOR_ORDERINGS)]

    def run_factor(t):
        return [t.call("factoring.unique_factorization_check",
                       al.unique_factorization_check, xi, FACTOR_K, n)
                for xi in factor for n in FACTOR_LEVELS]

    # one scheme count per (level-n vertex, level m) with k <= m < n
    schemes = FACTOR_ORDERINGS * sum((n + 1) * (n - FACTOR_K)
                                     for n in FACTOR_LEVELS)
    jobs.append(Job("factorization", run_factor,
                    lambda out: [] if all(out) else ["factorization not unique"],
                    lambda out: {"scheme_checks": schemes}))

    restricted = []
    for _ in range(DECODES):
        x = rng.randint(4, DECODE_LEVEL - 4)
        y = DECODE_LEVEL - x
        bits = {(u, v): rng.getrandbits(1)
                for u in range(2, x + 1) for v in range(2, y + 1)}
        restricted.append((x, y, bits,
                           al.explicit_ordering(bits, max_level=x + y)))
    stores += [xi for *_, xi in restricted]

    def run_decode(t):
        out = []
        for x, y, _, xi in restricted:
            word = t.call("coding.basic_block", al.basic_block, xi, x, y)
            out.append(t.call("factoring.decode_ordering", al.decode_ordering,
                              word))
        return out

    def check_decode(out):
        for (x, y, bits, _), (vertex, table) in zip(restricted, out):
            if vertex != (x, y) or any(table.bit(u, v) != b
                                       for (u, v), b in bits.items()):
                return [f"decode(basic_block) != id at ({x}, {y})"]
        return []

    jobs.append(Job("decode", run_decode, check_decode,
                    lambda out: {"decodes": len(out)}))

    fresh = [_fresh(rng) for _ in range(BLOCK_ORDERINGS)]
    stores += fresh
    cells = [(x, n - x) for n in range(2, BLOCK_LEVEL + 1) for x in range(1, n)]

    def run_blocks(t):
        return [[len(t.call("coding.basic_block", al.basic_block, xi, x, y))
                 for x, y in cells] for xi in fresh]

    def check_blocks(out):
        failures = []
        for xi, lengths in zip(fresh, out):
            _expect(failures, lengths == [math.comb(x + y, x)
                                          for x, y in cells],
                    "block length != C(x+y, x)")
            for x, y in cells[::23]:
                census = al.symbol_census(al.basic_block(xi, x, y))[2]
                _expect(failures, census == (x, y),
                        f"symbol_census gives {census} at ({x}, {y})")
        return failures

    jobs.append(Job("blocks", run_blocks, check_blocks,
                    lambda out: {"chars": sum(map(sum, out))}))

    def gauges():
        used = sum(al.coding.block_store(xi).bytes_used for xi in stores)
        return {"block_memo_mb": used / 2**20}

    return jobs, gauges


def _check_absent(corpus, case):
    """The reported minimal absent prefix is absent from every block up to
    the scanned level, and one letter shorter it is present."""
    def present(w):
        return any(w in blk for blk in corpus)

    m = case.minimal_absent_length
    word = case.absent_window
    if present(word[:m]) or (m > 1 and not present(word[:m - 1])):
        return [f"periodic {case.period_word}: minimal absent length {m}"]
    return []


# ---------------------------------------------------------------------------
# search: the exhaustive alternation search and Monte Carlo


def _search(rng, workdir):
    jobs = []
    for job, level in (("alternation_shallow", ALT_SHALLOW),
                       ("alternation_deep", ALT_DEEP)):
        def check(out, level=level):
            failures = []
            doc = cli_doc(out, failures)
            _expect(failures, doc.get("verdict") == "EXCLUDED",
                    f"alternation verdict {doc.get('verdict')}")
            _expect(failures, doc.get("dp_level") == level, "dp level")
            return failures

        jobs.append(Job(job, lambda t, level=level: cli(
            t, "alternation", "--max-level", str(level), "--j", str(ALT_J)),
            check))

    shapes = [al.Shape(m) for m in MC_SHAPES]
    mc_seed = rng.getrandbits(32)
    shapes_file = os.path.join(workdir, f"shapes-{mc_seed}.json")
    with open(shapes_file, "w") as fh:
        json.dump({"shapes": MC_SHAPES}, fh)
    trial_levels = {"trials": MC_TRIALS * len(MC_SHAPES)}
    state = {}

    def run_library(t):
        state["library"] = t.call("bratteli.monte_carlo_uniform", al.monte_carlo_uniform,
                      shapes, MC_TRIALS, mc_seed)
        return state["library"]

    def check_library(rep):
        failures = []
        for lvl in rep.levels:
            p = float(al.exact_uniform_probability(lvl.shape))
            sigma = math.sqrt(p * (1 - p) / lvl.trials)
            _expect(failures, abs(lvl.frequency - p) <= MC_SIGMAS * sigma,
                    f"frequency {lvl.frequency} beyond {MC_SIGMAS} sigma of {p}")
        return failures

    jobs.append(Job("mc_library", run_library, check_library,
                    lambda out: trial_levels))

    def check_cli(out):
        failures = []
        levels = cli_doc(out, failures).get("levels", [])
        exact = [str(al.exact_uniform_probability(s)) for s in shapes]
        _expect(failures, [lvl["exact"] for lvl in levels] == exact,
                "CLI exact probabilities")
        # same keyed trials as the library job
        rep = state.get("library")
        _expect(failures, rep is not None and [lvl["uniform"] for lvl in levels]
                == [lvl.uniform_hits for lvl in rep.levels],
                "CLI and library Monte Carlo hits differ")
        return failures

    jobs.append(Job(
        "mc_cli",
        lambda t: cli(t, "montecarlo", "--shapes", shapes_file, "--trials",
                      str(MC_TRIALS), "--seed", str(mc_seed)),
        check_cli, lambda out: trial_levels))

    return jobs, lambda: {}


WORKLOADS = {"sweep": _sweep, "language": _language, "search": _search}


def build(name, seed, workdir):
    """(jobs, gauges) of workload `name`, inputs drawn from `seed`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
