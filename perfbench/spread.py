#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--sets 2] [--first-seed 1] [--seconds S]

Runs each workload `--runs` times per set (trace off) through run.py, each
run with another seed. With several sets the sets are interleaved run by
run, alternating which set goes first, so host drift over the session
falls on every set alike. Prints, per set and end-to-end metric, the
median, the quartile spread as a share of the median
(statistics.quantiles(values, n=4)) and that spread against the metric's
bound in BENCHMARK.json; then how far each later set's median is worse
than the first set's, against the same bound. A benchmark is steady when
every spread except setup_s sits below a third of its bound and no set's
median is worse than the first by more than the bound. Exits 1 if any run
fails or reports a wrong result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed calls")
    return result


def spread(v):
    med = statistics.median(v)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return med, (q[2] - q[0]) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    a = p.parse_args()
    worst_spread = worst_drift = 0.0
    for workload in a.workloads.split(","):
        values = [{m["name"]: [] for m in bench["end_to_end"]} for _ in range(a.sets)]
        for i in range(a.runs):
            order = range(a.sets) if i % 2 == 0 else reversed(range(a.sets))
            for s in order:
                seed = a.first_seed + s * a.runs + i
                metrics = run(workload, seed, a.seconds)["metrics"]
                for name, v in values[s].items():
                    v.append(metrics[name]["value"])
                print(f"{workload} set {s} seed {seed}: "
                      + " ".join(f"{k}={v[-1]:.6g}" for k, v in values[s].items()), flush=True)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(a.sets):
                med, sp = spread(values[s][name])
                line = (f"  {workload:<12} {name:<16} set {s} median {med:<12.6g} spread {sp:7.2%}"
                        f"  bound {bound:.2f}  spread/bound {sp / bound:5.2f}")
                if name != "setup_s":
                    worst_spread = max(worst_spread, sp / bound)
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    worst_drift = max(worst_drift, worse / bound)
                    line += f"  worse than set 0 by {worse:+7.2%} ({worse / bound:+5.2f} of bound)"
                print(line, flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst_spread:.2f}")
    if a.sets > 1:
        print(f"worst median drift/bound between sets: {worst_drift:.2f}")


if __name__ == "__main__":
    main()
