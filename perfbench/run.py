#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --manifest          # prints BENCHMARK.json

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
links the repository's library crates by path. This script builds it in
release mode (into $CARGO_TARGET_DIR, default .bench_build at the
repository root), then runs it from the repository root with the same
arguments. The last line the benchmark prints on stdout is the result
object. Build output goes to stderr. Without the library crates beside it
the build fails and this script exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Hashed into the fingerprint, so a result names the code it measured
# even where the checkout is not a git repository.
SOURCE_DIRS = ("crates", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for d, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(s for s in subdirs if s not in ("out", "target"))
            paths += [os.path.join(d, f) for f in files if f.endswith((".rs", ".toml", ".lock", ".py"))]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    # git must not look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_SOURCE"] = source_digest()
    exe = os.path.join(ROOT, target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
