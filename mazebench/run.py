"""Run one benchmark workload and print its metrics as the last line.

    python3 mazebench/run.py --workload laby-compose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
A run sets up the workload several times (fresh import plus input
enumeration, ``setup_s`` is the median), then runs passes of operations
until ``--seconds`` is spent.  Every operation is timed alone and
converted to reference seconds with the kernel that runs on a timer
throughout the run (see ``reference.py``); its output is then checked,
untimed, by another route.  An operation that raises or fails
its check counts as failed; it never aborts the run.

A run is correct when no operation failed and, for a seed recorded in
``digests.json``, the outputs of pass 0 hash to the recorded digest.

With ``--trace 0`` the last line holds the end-to-end metrics, all in
reference seconds.  With ``--trace 1`` pass 1 runs traced and the last
line holds the per-layer metrics.  Lines before it give the pass-0
digest, the sample counts and the raw (unscaled) figures.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import digests  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer, metric_specs  # noqa: E402
from workloads import WORKLOADS, fresh_import  # noqa: E402

SETUP_REPEATS = 21
MIN_PASSES = 3
TRACED_PASS = 1
MAX_REPORTED_FAILURES = 3


def _require_package():
    if not os.path.isfile(os.path.join(SRC, "mazelab", "__init__.py")):
        raise SystemExit(f"no package at {SRC}/mazelab; run from the root "
                         "of a mazelab checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _tail(samples):
    """The percentile reported as ``op_p99_ms`` and the samples beyond it.

    It is the 99th when at least ten samples lie beyond that, as on the
    runs of 1000 and more operations of laby-compose and mset-translate;
    otherwise the highest whole percentile with ten beyond, and the
    median when not even that exists (verify-all, whose operation is a
    whole ``verify all`` call).
    """
    n = len(samples)
    q = max(50, min(99, int(100 * (1 - 10 / n)))) if n >= 20 else 50
    cut = _percentile(samples, q)
    return q, sum(1 for x in samples if x > cut)


def _percentile(samples, q):
    if len(samples) < 2:
        return _median(samples)
    return statistics.quantiles(samples, n=100)[q - 1]


def _median(values):
    """Median, or 0 when every operation failed (the run is then marked
    incorrect rather than aborted)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _fresh_setup(wl):
    ml = fresh_import()
    return ml, wl.setup(ml)


def run(workload, seed, seconds, trace, tiny=False, log=sys.stdout):
    """Run one workload; return the result object printed as the last line.

    ``tiny`` shrinks every pass and the set-up repeats to a smoke test.
    """
    _require_package()
    wl = WORKLOADS[workload](seed, tiny)
    record = Record(trace)
    if not tiny:
        record.expected = digests.load().get(workload, {}).get(str(seed))
    with record.sampler:
        _measure(wl, seconds, tiny, record)
    return _report(record, log)


class Record:
    """Everything a run measured, raw; times are scaled once the run is
    over, when the reference samples after every operation exist too."""

    def __init__(self, trace):
        self.sampler = reference.Sampler()
        self.tracer = Tracer(self.sampler) if trace else None
        self.setups = []            # (start, end, raw) per set-up
        # One entry per untraced operation that passed its check; kept in
        # arrays so that memory does not grow with the number of objects.
        self.start = array("d")
        self.end = array("d")
        self.raw = array("d")
        self.sampled = array("b")
        self.pass_no = array("i")
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.expected = None        # recorded digest for this seed, if any
        self.peak_rss_mb = None

    def add(self, i, timing, sampled):
        t0, t1, raw = timing
        self.start.append(t0)
        self.end.append(t1)
        self.raw.append(raw)
        self.sampled.append(sampled)
        self.pass_no.append(i)


def _measure(wl, seconds, tiny, rec):
    sampler, tracer = rec.sampler, rec.tracer
    for _ in range(1 if tiny else SETUP_REPEATS):
        (ml, inputs), timing = sampler.time(_fresh_setup, wl)
        rec.setups.append(timing)
        gc.collect()
    if tracer:
        ml = fresh_import()
        tracer.install(ml)
        try:
            inputs, timing = sampler.time(tracer.run, -1, wl.setup, ml)
        finally:
            tracer.uninstall()
        tracer.timings[-1] = timing
    if ml.labycat.__file__ != os.path.join(SRC, "mazelab", "labycat.py"):
        raise SystemExit(f"imported mazelab from {ml.labycat.__file__}, "
                         f"not from {SRC}")
    wl.plan(ml, inputs)

    min_passes = (1 if tiny else MIN_PASSES) + (1 if tracer else 0)
    clock = time.perf_counter
    deadline = clock() + seconds
    longest = 0.0
    i = 0
    while i < wl.max_passes and (i < min_passes
                                 or clock() + longest <= deadline):
        start = clock()
        traced = tracer is not None and i == TRACED_PASS
        ml_i = wl.modules_for_pass(i)
        # Installed before the operations are made, so that a function
        # they hold a reference to is the traced one too.
        if traced:
            tracer.install(ml_i)
        try:
            ops = wl.pass_ops(ml_i, i)
            gc.collect()
            for op in ops:
                rec.attempted += 1
                tag = rec.attempted
                timing = None
                try:
                    if traced:
                        result, timing = sampler.time(
                            tracer.run, tag, op.fn, *op.args)
                    else:
                        result, timing = sampler.time(op.fn, *op.args)
                    ok = op.check(result)
                except Exception:
                    ok = False
                    if rec.failed < MAX_REPORTED_FAILURES:
                        traceback.print_exc()
                if traced and timing is not None:
                    tracer.timings[tag] = timing
                if not ok:
                    rec.failed += 1
                    continue
                if not traced:
                    rec.add(i, timing, op.sampled)
                if i == 0 and op.digest is not None:
                    rec.digest.update(op.digest(result).encode())
        finally:
            if traced:
                tracer.uninstall()
        if not traced:
            longest = max(longest, clock() - start)
        i += 1
    # Taken here, so that the report's own lists do not count.
    rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _report(rec, log):
    sampler = rec.sampler
    scale = sampler.scale
    n = len(rec.raw)
    scaled = [scale((rec.start[k], rec.end[k], rec.raw[k])) for k in range(n)]
    passes_raw, passes_scaled = {}, {}
    for k in range(n):
        i = rec.pass_no[k]
        passes_raw[i] = passes_raw.get(i, 0.0) + rec.raw[k]
        passes_scaled[i] = passes_scaled.get(i, 0.0) + scaled[k]
    ops_raw = [rec.raw[k] for k in range(n) if rec.sampled[k]]
    ops_scaled = [scaled[k] for k in range(n) if rec.sampled[k]]

    digest = rec.digest.hexdigest()
    same = rec.expected in (None, digest)
    recorded = "none" if rec.expected is None else \
        "same" if same else "DIFFERS"
    print(f"pass0_digest {digest} recorded={recorded}", file=log)
    q, beyond = _tail(ops_scaled)
    print(f"samples passes={len(passes_scaled)} ops={len(ops_scaled)} "
          f"op_p99_ms=p{q} beyond={beyond} ref_samples={len(sampler.took)}",
          file=log)
    ref_us = sampler.ref_median() * 1e6
    raw_metrics = {
        "pass_s": _median(passes_raw.values()),
        "op_p50_ms": _median(ops_raw) * 1e3,
        "op_p99_ms": _percentile(ops_raw, q) * 1e3,
        "setup_s": _median(t[2] for t in rec.setups),
        "host.ref_us": ref_us,
    }
    print("raw " + json.dumps(raw_metrics), file=log)

    if rec.tracer:
        values = rec.tracer.metrics()
        values["host.ref_us"] = ref_us
        # Pass 0 can fill caches that later passes reuse; compare the
        # traced pass with the untraced passes after it where there are any.
        later = [v for i, v in passes_scaled.items() if i > TRACED_PASS]
        traced = sum(scale(t) for tag, t in rec.tracer.timings.items()
                     if tag >= 0)
        values["tracing.overhead_s"] = \
            traced - _median(later or passes_scaled.values())
        units = {name: unit for name, unit, _ in metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
    else:
        metrics = {
            "pass_s": {"value": _median(passes_scaled.values()), "unit": "s"},
            "op_p50_ms": {"value": _median(ops_scaled) * 1e3, "unit": "ms"},
            "op_p99_ms": {"value": _percentile(ops_scaled, q) * 1e3,
                          "unit": "ms"},
            "setup_s": {"value": _median(scale(t) for t in rec.setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": rec.peak_rss_mb, "unit": "MB"},
        }
    return {"correct": rec.failed == 0 and same, "attempted": rec.attempted,
            "failed": rec.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
