#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workloads a,b] [--seconds 1]

Short runs of every workload (three per workload) check that:

  1. with --trace 0 every end_to_end metric of BENCHMARK.json is printed
     with its unit, positive and finite, and no call failed;
  2. with --trace 1 every per_layer metric is printed with its unit and a
     Chrome trace-event file is written;
  3. the same seed generates identical inputs (equal input digests) and
     another seed different ones;
  4. corrupting one output element before verification (--corrupt) makes
     the run report a failed call and a nonzero error_rate.

It also checks that the benchmark, copied without the library crates,
exits non-zero without printing a result. Exits 1 on the first failure.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    raise SystemExit(f"selftest FAILED: {msg}")


def run(args, cwd=ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd, capture_output=True, text=True)
    return out.returncode, out.stdout.strip().splitlines()


def bench(workload, seed, seconds, trace, corrupt=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    code, lines = run(args + (["--corrupt"] if corrupt else []))
    if code != 0 or len(lines) < 2:
        fail(f"{' '.join(args)}: exit {code}")
    fingerprint = json.loads(lines[-2])["fingerprint"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    return fingerprint, result


def check_metrics(workload, result, expected, positive):
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in expected):
        fail(f"{workload}: printed metrics differ from BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in expected})}")
    for m in expected:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{workload}: {m['name']} = {v}")
        if positive and v["value"] <= 0:
            fail(f"{workload}: {m['name']} = {v['value']} is not positive")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=1)
    a = p.parse_args()

    for workload in a.workloads.split(","):
        fp0, plain = bench(workload, 1, a.seconds, 0)
        check_metrics(workload, plain, spec["end_to_end"], positive=True)
        if not plain["correct"] or plain["failed"] or plain["attempted"] < 1:
            fail(f"{workload}: {plain['failed']} of {plain['attempted']} calls failed")
        for key in ("nproc", "llc_bytes", "ram_bytes", "rustc", "commit", "seed"):
            if key not in fp0:
                fail(f"{workload}: fingerprint lacks {key}")

        fp1, traced = bench(workload, 1, a.seconds, 1)
        check_metrics(workload, traced, spec["per_layer"], positive=False)
        trace_file = os.path.join(ROOT, "perfbench", "out", f"trace_{workload}_seed1.json")
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        if not any(e["cat"] == "call" for e in events):
            fail(f"{workload}: {trace_file} has no call spans")
        if fp0["input_digest"] != fp1["input_digest"]:
            fail(f"{workload}: seed 1 gave two different input digests")

        fp2, probed = bench(workload, 2, a.seconds, 1, corrupt=True)
        if fp2["input_digest"] == fp1["input_digest"]:
            fail(f"{workload}: seeds 1 and 2 gave the same inputs")
        if probed["correct"] or probed["failed"] < 1 or probed["metrics"]["error_rate"]["value"] <= 0:
            fail(f"{workload}: the corrupted output was not caught")
        print(f"selftest {workload}: ok ({plain['attempted']} calls, digest {fp0['input_digest']})", flush=True)

    # Without the library crates the build fails: non-zero exit, no result.
    bare = os.path.join(ROOT, "perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
                      cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        fail(f"a copy without the library crates exited {code} printing {lines[-1:] or 'nothing'}")
    print("selftest bare copy: ok (exit %d, no result)" % code)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
