"""adiclab benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload sweep|language|search --seed N
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  Each
pass over a workload runs in a fresh process (``onepass.py``), so set-up,
memo warm-up and peak RSS belong to that pass alone.  Passes repeat for
about ``--seconds`` (at least three), and medians over passes are
reported.

``--trace 0`` times untraced passes of the named workload and reports its
end-to-end metrics.  ``--trace 1`` runs every workload, alternating
untraced and traced passes (the per-layer metrics live on different
workloads), and reports the per-layer metrics, each layer's self time as
a share of the traced pass's wall time, and the tracing overhead.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, per-pass data
and spans go to ``perfbench/out/``.  The exit code is 1 when any job
failed, 2 when the package source is missing.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("sweep", "language", "search")
MIN_PASSES = 3
PASS_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer rates: work count / seconds spent in the job's calls named
# (all of the job's calls when None), per traced pass.
RATES = (
    ("core.bit_queries_per_s", "sweep", "bits", None, "queries"),
    ("core.rank_unrank_per_s", "sweep", "rank_unrank", None, "round_trips"),
    ("adic.successor_steps_per_s", "sweep", "orbit", None, "steps"),
    ("adic.kink_steps_per_s", "sweep", "kink_verify", None, "return_steps"),
    ("coding.sweep_paths_per_s", "sweep", "faithfulness", None,
     "swept_paths"),
    ("coding.kblock_symbols_per_s", "sweep", "kblock", None, "symbols"),
    ("cli.kink_trials_per_s", "sweep", "kink_cli", None, "trials"),
    ("coding.block_chars_per_s", "language", "blocks", None, "chars"),
    ("coding.scan_vertices_per_s", "language", "stabilized", None,
     "vertices"),
    ("factoring.scheme_checks_per_s", "language", "factorization", None,
     "scheme_checks"),
    ("factoring.decode_per_s", "language", "decode",
     "factoring.decode_ordering", "decodes"),
    ("cli.complexity_rows_per_s", "language", "complexity_cli", None, "rows"),
    ("bratteli.mc_trials_per_s", "search", "mc_library", None, "trials"),
    ("cli.mc_trials_per_s", "search", "mc_cli", None, "trials"),
)
# Per-layer times: seconds per traced pass in one job's calls.
TIMES = (
    ("factoring.periodic_s", "language", "periodic"),
    ("factoring.run_context_s", "language", "run_context"),
    ("factoring.alternation_shallow_s", "search", "alternation_shallow"),
    ("factoring.alternation_deep_s", "search", "alternation_deep"),
)
# Per-layer sizes read at the end of a pass.
GAUGES = (("coding.block_memo_mb", "language", "block_memo_mb"),)
# Layers each workload calls into; "bench" is the benchmark's own glue.
LAYERS = {
    "sweep": ("core", "adic", "coding", "cli", "bench"),
    "language": ("coding", "factoring", "cli", "bench"),
    "search": ("bratteli", "cli", "bench"),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, *_ in RATES:
        units[name] = "1/s"
    for name, *_ in TIMES:
        units[name] = "s"
    for name, *_ in GAUGES:
        units[name] = "MB"
    for w in WORKLOADS:
        for layer in LAYERS[w]:
            units[f"{w}.self_share.{layer}"] = "share"
        units[f"{w}.trace_overhead_s"] = "s"
    return units


def child_env():
    env = dict(os.environ)
    # no disk spill of blocks across runs, and the default kernel lane
    env.pop("ADICLAB_CACHE_DIR", None)
    env.pop("ADICLAB_PURE_PYTHON", None)
    env["PYTHONPATH"] = SRC
    return env


def run_pass(workload, seed, traced, spans=None):
    """One pass in a fresh process; its JSON report, or None on a crash."""
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--workdir", OUT]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass timed out after {PASS_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: pass exited with {proc.returncode}",
              file=sys.stderr)
        return None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["first_job_at"] - spawned
    return doc


def failures_of(passes):
    """(jobs attempted, jobs failed) over the passes; a crashed pass
    counts as one failed job."""
    attempted = failed = 0
    for doc in passes:
        if doc is None:
            attempted += 1
            failed += 1
            continue
        for name, job in doc["jobs"].items():
            attempted += 1
            if job["failures"]:
                failed += 1
                print(f"FAILED {name}: {job['failures'][0]}", file=sys.stderr)
    return attempted, failed


def measure(workload, seed, seconds, traced_too, tag):
    """Passes for about `seconds`: at least MIN_PASSES untraced ones (one
    pair when `traced_too`, where each untraced pass is followed by a
    traced one), then more while the next one, as long as the last,
    still ends within `seconds`.  Stops at a crash."""
    plain, traced = [], []
    least = 1 if traced_too else MIN_PASSES
    start = time.monotonic()
    last = 0.0
    while len(plain) < least or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        plain.append(run_pass(workload, seed, False))
        if plain[-1] is None:
            break
        if traced_too:
            spans = os.path.join(OUT, f"spans-{tag}-{len(traced)}.json")
            traced.append(run_pass(workload, seed, True, spans))
            if traced[-1] is None:
                break
        last = time.monotonic() - began
    return plain, traced


def show(label, values, unit):
    """Print the median, quartiles and sample count of a metric."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    print(f"  {label:<34} {med:12.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}"
          f"  n={len(values)}")


def end_to_end(workload, passes):
    """Median over passes of each end-to-end metric; prints quartiles."""
    ok = [p for p in passes if p is not None]
    print(f"{workload}: end to end, tracing off")
    metrics = {}
    for name, unit in END_TO_END:
        values = [p[name] for p in ok]
        if values:
            show(name, values, unit)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def pass_layer_values(doc, w):
    """Per-layer metric values of one traced pass of workload `w`."""
    values = {}
    for name, workload, job, call, key in RATES:
        if workload != w:
            continue
        calls = doc["calls"].get(job, {})
        busy = calls.get(call, 0.0) if call else sum(calls.values())
        work = doc["jobs"][job]["work"].get(key, 0)
        values[name] = work / busy if busy else 0.0
    for name, workload, job in TIMES:
        if workload == w:
            values[name] = sum(doc["calls"].get(job, {}).values())
    for name, workload, key in GAUGES:
        if workload == w:
            values[name] = doc["gauges"][key]
    return values


def per_layer(results):
    """Per-layer metrics from the traced passes of every workload."""
    units = per_layer_units()
    samples = {}
    for w, (plain, traced) in results.items():
        plain = [p for p in plain if p is not None]
        traced = [p for p in traced if p is not None]
        if not plain or not traced:
            continue
        print(f"{w}: traced, {traced[0]['spans']} spans per pass")
        show("wall_s (traced)", [p["wall_s"] for p in traced], "s")
        samples[f"{w}.trace_overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain)]
        for layer in LAYERS[w]:
            samples[f"{w}.self_share.{layer}"] = [
                p["self_share"].get(layer, 0.0) for p in traced]
        for doc in traced:
            for name, value in pass_layer_values(doc, w).items():
                samples.setdefault(name, []).append(value)
    metrics = {}
    for name, unit in units.items():
        if name in samples:
            show(name, samples[name], unit)
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": unit}
    return metrics


def source_digest():
    """SHA-256 over the package's Python sources, in path order."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "adiclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, when it is a git work tree of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "adiclab", "__init__.py")):
        print(f"no adiclab package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(os.path.join(SRC, "adiclab"), quiet=1)

    if args.trace:
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        results = {w: measure(w, args.seed, args.seconds / len(order), True,
                              f"{w}-{args.seed}") for w in order}
        for w in order:
            end_to_end(w, results[w][0])
        metrics = per_layer(results)
        passes = [p for plain, traced in results.values()
                  for p in plain + traced]
    else:
        passes, _ = measure(args.workload, args.seed, args.seconds, False, "")
        metrics = end_to_end(args.workload, passes)

    attempted, failed = failures_of(passes)
    lane = next((p["lane"] for p in passes if p is not None), None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "lane": lane,
              "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
              "source_sha256": source_digest()}
    print("run: " + " ".join(f"{k}={v}" for k, v in record.items()))
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4g}")
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "metrics": metrics, "passes": passes},
                  fh, indent=1)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
