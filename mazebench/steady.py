"""Steadiness report: run one workload k times, at seeds 1 to k, and print
every end-to-end metric's median and quartile spread, reference-scaled
and raw side by side.

    python3 mazebench/steady.py --workload present-3 --runs 10 --seconds 20

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  It is the evidence behind the
bounds in BENCHMARK.json: a metric's spread must stay well inside its
bound, and the raw column shows what reference scaling removed.  Runs
are sequential, one process at a time, each in its own process as in a
real benchmark run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def run_once(workload, seed, seconds):
    """One benchmark process; returns (result, raw metrics, digest, wall s)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    raw = json.loads(next(x for x in lines if x.startswith("raw "))[4:])
    digest = next(x for x in lines if x.startswith("pass0_digest ")).split()[1]
    return json.loads(lines[-1]), raw, digest, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of "
                             "BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    scaled, raw, walls = {}, {}, []
    for seed in range(1, args.runs + 1):
        result, raw_metrics, digest, wall = run_once(
            args.workload, seed, seconds)
        walls.append(wall)
        values = " ".join(f"{k}={m['value']:.6g}"
                          for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={wall:.1f}s digest={digest[:16]} {values}", flush=True)
        for name, metric in result["metrics"].items():
            scaled.setdefault(name, []).append(metric["value"])
        for name, value in raw_metrics.items():
            raw.setdefault(name, []).append(value)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s, "
          f"longest process {max(walls):.1f} s")
    print(f"{'metric':<14}{'bound':>7}{'scaled median':>16}{'spread':>9}"
          f"{'raw median':>14}{'spread':>9}")
    for name, values in scaled.items():
        med, spr = spread(values)
        line = f"{name:<14}{bounds.get(name, 0):>7.2f}{med:>16.6g}{spr:>9.1%}"
        if name in raw:
            rmed, rspr = spread(raw[name])
            line += f"{rmed:>14.6g}{rspr:>9.1%}"
        print(line)
    if "host.ref_us" in raw:
        med, spr = spread(raw["host.ref_us"])
        print(f"{'host.ref_us':<14}{'':>7}{'':>16}{'':>9}{med:>14.6g}"
              f"{spr:>9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
