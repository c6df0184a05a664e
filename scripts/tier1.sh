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

# Paper artifacts: rerun every deterministic sat-cli report and diff it
# against its committed copy in results/, so a change that moves a
# paper-facing number (a counter, a modeled time, a table row) fails here
# and names the file. Left out: results/trace.txt, which prints host wall
# clock.
check_artifact() { # <file in results/> <sat-cli arguments...>
  local file=$1
  shift
  diff -u "results/$file" <(target/release/sat-cli "$@") || {
    echo "results/$file differs from sat-cli $*" >&2
    return 1
  }
}
check_artifact table3_synthetic.txt table3 --synthetic --paper
check_artifact table3_measured.txt table3 --sizes 256,512,1024
check_artifact table3_v100.txt table3 --synthetic --device v100 --sizes 8192,32768
check_artifact table1.txt table1 --n 512
for figure in fig2 fig3 fig4 fig9; do
  check_artifact "$figure.txt" "$figure"
done
check_artifact f32_error.txt f32-error
check_artifact ablations.txt ablations

cargo test --workspace -q
cargo clippy --all-targets --workspace -- -D warnings

# Documentation: a broken intra-doc link (a deleted item, a link from public
# docs to a private one) fails here rather than going stale.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Scalar-vs-batched accounting parity: every bulk fast path (warp
# transactions) must charge exactly what its scalar expansion charges, for
# all nine kernels under every dispatch order and for the cooperative
# pipelines.
# The parked-wait races depend on timing, so they run at release speed
# too: the parking suite (with a remote wait inside a pool-run lane grid),
# the concurrency suite (its caller wake-rule test, the twin of the lane
# one below), the schedule-parity suite (its group batches run their lanes
# on pool threads, and its lane strategy runs every algorithm and the
# duplication baseline as the job of a one-device batch), and gpu-sim's
# unit tests (the token-balance test with its group batch, its caller-run
# pool launch, its pool-run lane grid and its two-lane batch of one
# device, the pool dropped on its own thread, the park/wake tests in
# sync.rs, and in group.rs the lane thread tests of a group and of one
# device and the lane wake-rule test). All are also part of
# `cargo test --workspace`; run standalone in release so a break is named
# directly in the tier-1 log.
cargo test --release -q --test concurrency --test counter_parity --test parking --test scheduling_parity
cargo test --release -q -p gpu-sim --lib
# The multi-device tests pin modeled-time floors and the skewed-batch and
# skewed-band premises, which depend on what every kernel costs; run them
# at release speed too. Their makespans replay the in-order claims on
# modeled clocks, so no host schedule can move them.
cargo test --release -q --test multi_device

# The benchmark (perfbench/, described by BENCHMARK.json) is a package of
# its own, outside this workspace: build it against the library and run its
# unit tests.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# End-to-end drive of every workload. A zero-second run still makes three
# timed passes; it checks every output against reference::sat and every
# call's counters against the first call of its configuration, so the last
# stdout line reads "correct": true only if nothing failed.
#
# Each workload's modeled_ms is a function of its calls' deterministic
# counters (a look-back walk is charged one step under any schedule), so it
# is pinned exactly here: a model or counter change shows first in tier-1.
# batch_tiny and coop_8k size their device groups by the host's cores
# (nproc, capped at 2), so their pins hold only on hosts with at least 2
# cores and are skipped on a one-core host.
declare -A modeled_ms=(
  [roster_seq]=20.80009581707246
  [roster_conc]=20.80009581707246
  [batch_tiny]=1.7940472248888855
  [coop_8k]=13.867097464820578
)
for workload in roster_seq roster_conc batch_tiny coop_8k; do
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -n 1)
  case "$result" in
    *'"correct": true'*) ;;
    *) echo "perfbench $workload: not correct: $result" >&2; exit 1 ;;
  esac
  case "$workload" in
    batch_tiny | coop_8k) [ "$(nproc)" -ge 2 ] || continue ;;
  esac
  got=$(python3 -c 'import json, sys; print(repr(json.loads(sys.argv[1])["metrics"]["modeled_ms"]["value"]))' "$result")
  if [ "$got" != "${modeled_ms[$workload]}" ]; then
    echo "perfbench $workload: modeled_ms $got, pinned at ${modeled_ms[$workload]}" >&2
    exit 1
  fi
done
