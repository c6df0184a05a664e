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

# Documentation: a broken intra-doc link (a deleted item, a link from public
# docs to a private one) fails here rather than going stale.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Scalar-vs-batched accounting parity: every bulk fast path (warp
# transactions, windowed look-back) must charge exactly what its scalar
# expansion charges, for all eight kernels under every dispatch order and
# for the cooperative look-back pipelines.
# The parked-wait and token-handoff races depend on timing, so they run
# at release speed too: the parking suite (with a remote wait inside a
# pool-run lane grid), the schedule-parity suite (its group batches run
# their lanes on pool threads, and its lane strategy runs every algorithm
# and the duplication baseline as the job of a one-device batch), and
# gpu-sim's unit tests (the token-balance test with its pool-run lane grid
# and its two-lane batch of one device, the pool dropped on its own
# thread, the park/wake tests in sync.rs, and in group.rs the lane thread
# tests of a group and of one device and the lane wake-rule test). All are
# also part of `cargo test --workspace`; run standalone in release so a
# break is named directly in the tier-1 log.
cargo test --release -q --test counter_parity --test parking --test scheduling_parity
cargo test --release -q -p gpu-sim --lib
# The cooperative multi-device tests pin modeled-time floors and the
# skewed-band premise, which depend on what every band kernel costs; run
# them at release speed too. The batch steal-vs-static test stays
# debug-only: in release its thief can still starve, and it fails a few
# runs in several hundred.
cargo test --release -q --test multi_device cooperative_

# The benchmark (perfbench/, described by BENCHMARK.json) is a package of
# its own, outside this workspace: build it against the library and run its
# unit tests.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# End-to-end drive of every workload. A zero-second run still makes three
# timed passes; it checks every output against reference::sat and every
# call's counters against the first call of its configuration, so the last
# stdout line reads "correct": true only if nothing failed.
for workload in roster_seq roster_conc batch_tiny coop_8k; do
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -n 1)
  case "$result" in
    *'"correct": true'*) ;;
    *) echo "perfbench $workload: not correct: $result" >&2; exit 1 ;;
  esac
done
