//! Metrics-parity goldens: the deterministic traffic counters of every
//! SAT algorithm, pinned to the values the simulator produced *before*
//! the bulk-transfer / scratch-arena migration.
//!
//! Table III is derived from these counters, so any simulator change that
//! moves them — a bulk path charging differently than the per-element
//! loop it replaced, a migration altering an algorithm's access pattern —
//! must fail here rather than silently shifting the paper's results.
//!
//! Goldens are captured in Sequential mode, where every look-back walk
//! takes exactly the one step it is charged for. A concurrent walk may
//! step further on the host, but only its first step is charged (the rest
//! count `host_walk_steps`, which `deterministic()` masks), so these
//! counters are also what every concurrent schedule charges;
//! `tests/scheduling_parity.rs` holds that.

use gpu_sim::global::GlobalBuffer;
use gpu_sim::launch::{ExecMode, Gpu, LaunchConfig};
use gpu_sim::shared::{Arrangement, SharedTile};
use gpu_sim::prelude::DeviceConfig;
use satcore::prelude::*;

const SIZES: [usize; 2] = [256, 1024];
const W: usize = 32;

/// `(label, n, reads, writes, bytes_read, bytes_written,
/// bank_conflict_cycles)` at w = 32, Sequential, on
/// `Matrix::random(n, n, 0xBE7C4, 4)`. The n = 256 rows come from the
/// pre-migration per-element implementation; `skss_sh` at 256 is
/// `skss_lb`'s row, since the shuffle-only variant charges identical
/// global counters. The n = 1024 rows are copied from the committed sweep
/// records on the same input: the sequential rows of `BENCH_1.json`, and
/// `skss_sh` from `BENCH_5.json`, the first record that has it.
const GOLDEN: &[(&str, usize, u64, u64, u64, u64, u64)] = &[
    ("duplication", 256, 65536, 65536, 262144, 262144, 0),
    ("2r2w", 256, 131072, 131072, 1048576, 1048576, 0),
    ("2r2w_opt", 256, 132864, 135168, 531456, 540672, 0),
    ("2r1w", 256, 138865, 73856, 555460, 295424, 0),
    ("1r1w", 256, 69169, 69696, 276676, 278784, 0),
    ("hybrid", 256, 91506, 70996, 366024, 283984, 0),
    ("skss", 256, 67328, 67584, 269312, 270336, 0),
    ("skss_lb", 256, 69169, 73856, 276676, 295424, 0),
    ("skss_sh", 256, 69169, 73856, 276676, 295424, 0),
    ("duplication", 1024, 1048576, 1048576, 4194304, 4194304, 0),
    ("2r2w", 1024, 2097152, 2097152, 16777216, 16777216, 0),
    ("2r2w_opt", 1024, 2140160, 2185216, 8560640, 8740864, 0),
    ("2r1w", 1024, 2228161, 1181696, 8912644, 4726784, 0),
    ("1r1w", 1024, 1113025, 1115136, 4452100, 4460544, 0),
    ("hybrid", 1024, 1412034, 1132816, 5648136, 4531264, 0),
    ("skss", 1024, 1080320, 1081344, 4321280, 4325376, 0),
    ("skss_lb", 1024, 1113025, 1181696, 4452100, 4726784, 0),
    ("skss_sh", 1024, 1113025, 1181696, 4452100, 4726784, 0),
];

/// The golden labels, one for each entry of `all_algorithms`.
const LABELS: [&str; 8] = ["2r2w", "2r2w_opt", "2r1w", "1r1w", "hybrid", "skss", "skss_lb", "skss_sh"];

fn golden_for(label: &str, n: usize) -> (u64, u64, u64, u64, u64) {
    let g = GOLDEN
        .iter()
        .find(|g| g.0 == label && g.1 == n)
        .unwrap_or_else(|| panic!("no golden for {label} at n = {n}"));
    (g.2, g.3, g.4, g.5, g.6)
}

fn assert_golden(label: &str, n: usize, stats: &gpu_sim::metrics::BlockStats) {
    let (reads, writes, bytes_read, bytes_written, conflicts) = golden_for(label, n);
    assert_eq!(stats.global_reads, reads, "{label} n={n}: global_reads moved");
    assert_eq!(stats.global_writes, writes, "{label} n={n}: global_writes moved");
    assert_eq!(stats.bytes_read, bytes_read, "{label} n={n}: bytes_read moved");
    assert_eq!(stats.bytes_written, bytes_written, "{label} n={n}: bytes_written moved");
    assert_eq!(stats.bank_conflict_cycles, conflicts, "{label} n={n}: bank_conflict_cycles moved");
}

#[test]
fn sequential_counters_match_pre_migration_goldens() {
    let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Sequential);
    for n in SIZES {
        let a = Matrix::<u32>::random(n, n, 0xBE7C4, 4);
        let expect = satcore::reference::sat(&a);
        let input = a.to_device();
        let output = GlobalBuffer::<u32>::zeroed(n * n);

        let dup = Duplicate::new().copy(&gpu, &input, &output);
        assert_golden("duplication", n, &dup.total_stats().deterministic());

        for (label, alg) in LABELS.into_iter().zip(all_algorithms::<u32>(SatParams::paper(W))) {
            let run = alg.run(&gpu, &input, &output, n);
            assert_eq!(Matrix::from_device(&output, n, n), expect, "{label} n={n} wrong SAT");
            assert_golden(label, n, &run.total_stats().deterministic());
        }
    }
}

#[test]
fn bank_conflict_charging_is_unchanged() {
    // scan_rows is a column-wise access pattern: on a row-major 32-wide
    // tile every warp access is a 32-way conflict. Per block:
    // elems = 2 * 32 * 31 = 1984, warps = ceil(1984/32) = 62, and each
    // warp is charged degree - 1 = 31 extra cycles -> 1922.
    let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Sequential);
    let m = gpu.launch(LaunchConfig::new("conflict-golden", 4, 32), |ctx| {
        let mut t = SharedTile::<u32>::alloc(ctx, 32, Arrangement::RowMajor);
        t.scan_rows(ctx);
    });
    assert_eq!(m.stats.bank_conflict_cycles, 4 * 1922);
    assert_eq!(m.stats.shared_accesses, 4 * 1984);
}
