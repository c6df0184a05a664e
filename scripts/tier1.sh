#!/usr/bin/env bash
# Tier-1 gate: build, test, and lint the whole workspace.
#
# Note the explicit --workspace everywhere: the repo root is both a
# workspace and a package (the `sat-repro` facade), so a bare
# `cargo build` / `cargo test` / `cargo clippy` silently covers only the
# facade and its path dependencies — crates like sat-cli are skipped and
# their binaries go stale.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test --workspace -q
cargo clippy --all-targets --workspace -- -D warnings

# Scalar-vs-batched accounting parity: every bulk fast path (warp
# transactions, windowed look-back) must charge exactly what its scalar
# expansion charges, for all eight kernels under every dispatch order.
# Also part of `cargo test --workspace`; run standalone in release so a
# parity break is named directly in the tier-1 log.
cargo test --release -q --test counter_parity

# Counter-drift smoke: a quick filtered bench-json run against the
# committed baseline. Any accounting drift (or serial-vs-streamed
# divergence in the batch pipeline) makes bench-json exit nonzero via
# all_counters_match:false, failing tier-1 without running the full sweep.
# The wall-clock floors are disabled here (--reps 1 on a shared CI host is
# noise); the offline bench-compare below carries the perf gate.
./target/release/sat-cli bench-json --algs skss_lb,2r1w --sizes 1024 --reps 1 \
  --baseline BENCH_1.json --throughput --batch 16 --batch-n 32 --out /dev/null \
  --perf-floor 0 --conc-floor 0

# Multi-device smoke: a tiny 2-device sharded batch on the smallest device
# config. bench-json exits nonzero if the group's deterministic counters
# diverge from the single-device serial batch (all_counters_match:false)
# or if the best group models below serial-equivalent throughput
# (multi_device_regression:true).
./target/release/sat-cli bench-json --algs none --sizes 64 --reps 2 --warmup 1 \
  --w 8 --device tiny --throughput --batch 12 --batch-n 16 --devices 1,2 \
  --out /dev/null

# The one offline gate on committed records: the latest (BENCH_8: resident
# lane drivers, event-driven steal waits, fused tile-load/store kernels)
# against its predecessor BENCH_7. --coop-floor 1.5: every 2-device
# cooperative huge-image point must model at least 1.5x one device.
# --wall-floor 1.0: for every cooperative (alg, n) the widest BENCH_8
# point must be at least as fast on the host as the best BENCH_7 point at
# any device count. --eff-floor: best host_efficiency over device counts
# per (alg, n) must hold the ratio against BENCH_7's best. The floor is 1.4,
# not the 3x ROADMAP item 2 hoped for: host_efficiency divides modeled
# device time by host wall, and the best points' walls are within ~2x of
# the recording box's DRAM floor — tripling them is physically off the
# table (EXPERIMENTS.md, "Persistent cooperative grids" has the
# arithmetic). Measured best-vs-best ratios are 1.77-2.18x in the
# committed record and dipped to 1.68x across repeat recordings, so 1.4
# sits >=20% under the worst observed ratio. Recording command
# (identical flags to BENCH_7), for re-baselining:
#   ./target/release/sat-cli bench-json --huge 16384,32768 --devices 1,2,4 \
#     --repeat 4 --out BENCH_8.json
./target/release/sat-cli bench-compare BENCH_7.json BENCH_8.json --coop-floor 1.5 \
  --wall-floor 1.0 --eff-floor 1.4
