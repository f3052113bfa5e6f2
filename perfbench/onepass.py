"""One pass over one workload, in a process of its own.

    python3 perfbench/onepass.py --workload NAME --seed N --trace 0|1
        --workdir DIR [--spans FILE]

Builds the workload's inputs, runs its jobs once (timed), checks every
output, and prints one JSON object on stdout.  With ``--trace 1`` every
public call is recorded as a span (name ``layer.function``, start, end,
parent job span); the spans are written to ``--spans`` at the end and
summarised into per-job call times and per-layer self times.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import workloads


class NoTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def job(self, name):
        return nullcontext()


class Tracer:
    """Spans kept in memory as [id, parent, name, start, end] rows."""

    def __init__(self):
        self.spans = []
        self._parent = None

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([len(self.spans), self._parent, name, start,
                               time.perf_counter()])

    @contextmanager
    def job(self, name):
        row = [len(self.spans), None, f"bench.{name}",
               time.perf_counter(), None]
        self.spans.append(row)
        self._parent = row[0]
        try:
            yield
        finally:
            row[4] = time.perf_counter()
            self._parent = None

    def summary(self, wall):
        """Call seconds per job, and self seconds per layer as a share of
        the pass's wall time.  A job span's self time is the benchmark's
        own glue (layer ``bench``)."""
        names = {row[0]: row[2][len("bench."):] for row in self.spans
                 if row[1] is None}
        calls, self_s = {}, {}
        for _, parent, name, start, end in self.spans:
            took = end - start
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + took
            if parent is not None:
                self_s["bench"] -= took
                per_job = calls.setdefault(names[parent], {})
                per_job[name] = per_job.get(name, 0.0) + took
        return {"calls": calls,
                "self_share": {k: v / wall for k, v in self_s.items()},
                "spans": len(self.spans)}


PROBE_LOOPS = 100_000    # a few ms of interpreter work
PROBE_CPUS = 4


def _probe_loop():
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def move_to_quietest_cpu(allowed):
    """Pin this process to the CPU of `allowed` on which a short loop runs
    fastest right now; returns that CPU (None when there is one).

    On a shared host, load on one CPU's sibling hyperthread slows a pure
    Python loop on that CPU alone by up to 1.8x for seconds at a time.
    Picking the CPU before each job keeps most of that load out of the
    timings.
    """
    if len(allowed) == 1:
        return None
    timings = {}
    for cpu in allowed[:PROBE_CPUS]:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = _probe_loop()
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


def kernel_lane():
    try:
        from adiclab import kernels
    except ImportError:
        return "none"
    return kernels.IMPLEMENTATION


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    jobs, gauges = workloads.build(args.workload, args.seed, args.workdir)
    tracer = Tracer() if args.trace else NoTracer()
    allowed = sorted(os.sched_getaffinity(0))
    outputs, cpus = [], []
    first_job_at = time.monotonic()
    wall = 0.0
    for job in jobs:
        # the CPU probe before each job is part of neither set-up nor wall
        cpus.append(move_to_quietest_cpu(allowed))
        start = time.perf_counter()
        with tracer.job(job.name):
            try:
                outputs.append((job.run(tracer), None))
            except Exception:
                outputs.append((None, traceback.format_exc(limit=3)))
        wall += time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {"first_job_at": first_job_at, "wall_s": wall, "cpus": cpus,
           "peak_rss_mb": peak_rss_mb, "gauges": gauges(),
           "lane": kernel_lane(), "jobs": {}}

    for job, (out, error) in zip(jobs, outputs):
        if error is None:
            try:
                failures = job.check(out)
                work = job.work(out)
            except Exception:
                failures, work = [traceback.format_exc(limit=3)], {}
        else:
            failures, work = [error], {}
        doc["jobs"][job.name] = {"failures": failures, "work": work}

    if args.trace:
        doc.update(tracer.summary(wall))
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
