//! Ablation studies of the design choices DESIGN.md calls out:
//! diagonal vs. row-major shared memory, look-back vs. coupled waits,
//! block size (the `m` parameter), and dispatch-order robustness.

use gpu_sim::prelude::*;
use satcore::prelude::*;

use crate::report::{fmt_ms, Table};

/// Diagonal vs. row-major shared-memory arrangement for SKSS-LB: same
/// global traffic, very different shared-memory cycles (Section II's
/// motivation for the diagonal arrangement).
pub fn arrangement(n: usize, w: usize) -> String {
    let gpu = Gpu::new(DeviceConfig::titan_v());
    let a = Matrix::<u32>::random(n, n, 0xAB, 4);
    let expect = satcore::reference::sat(&a);
    let mut t = Table::new(&["arrangement", "bank-conflict cycles", "shared accesses", "modeled ms"]);
    for (label, arr) in [("diagonal", Arrangement::Diagonal), ("row-major", Arrangement::RowMajor)] {
        let alg = SkssLb::new(SatParams::paper(w)).with_arrangement(arr);
        let (sat, run) = compute_sat(&gpu, &alg, &a);
        assert_eq!(sat, expect);
        let s = run.total_stats();
        t.row(vec![
            label.into(),
            s.bank_conflict_cycles.to_string(),
            s.shared_accesses.to_string(),
            fmt_ms(run_millis(gpu.config(), &run)),
        ]);
    }
    format!("Ablation: shared-memory arrangement (SKSS-LB, n = {n}, W = {w})\n\n{}", t.render())
}

/// Look-back vs. coupled predecessor waits: identical results, different
/// critical path — the delta between 1R1W-SKSS and the paper's algorithm,
/// isolated inside one implementation.
pub fn lookback(n: usize, w: usize) -> String {
    let gpu = Gpu::new(DeviceConfig::titan_v());
    let a = Matrix::<u32>::random(n, n, 0xCD, 4);
    let expect = satcore::reference::sat(&a);
    let mut t = Table::new(&["look-back", "reads", "flag waits", "modeled ms"]);
    for (label, dec) in [("decoupled (paper)", true), ("coupled (ablation)", false)] {
        let alg = SkssLb::new(SatParams::paper(w)).with_decoupled(dec);
        let (sat, run) = compute_sat(&gpu, &alg, &a);
        assert_eq!(sat, expect);
        t.row(vec![
            label.into(),
            run.total_reads().to_string(),
            run.total_stats().flag_waits.to_string(),
            fmt_ms(run_millis(gpu.config(), &run)),
        ]);
    }
    format!("Ablation: look-back technique (SKSS-LB, n = {n}, W = {w})\n\n{}", t.render())
}

/// Block-size (`m`) sweep: threads per block from one warp up to the
/// device maximum, showing the parallelism term of the timing model.
pub fn block_size(n: usize, w: usize) -> String {
    let gpu = Gpu::new(DeviceConfig::titan_v());
    let a = Matrix::<u32>::random(n, n, 0xEF, 4);
    let expect = satcore::reference::sat(&a);
    let mut t = Table::new(&["threads/block", "m", "max threads", "modeled ms"]);
    let mut tpb = 32;
    while tpb <= (w * w).min(1024) {
        let params = SatParams { w, threads_per_block: tpb };
        let alg = SkssLb::new(params);
        let (sat, run) = compute_sat(&gpu, &alg, &a);
        assert_eq!(sat, expect);
        t.row(vec![
            tpb.to_string(),
            params.m().to_string(),
            run.max_threads().to_string(),
            fmt_ms(run_millis(gpu.config(), &run)),
        ]);
        tpb *= 2;
    }
    format!("Ablation: block size sweep (SKSS-LB, n = {n}, W = {w})\n\n{}", t.render())
}

/// Dispatch-order robustness: SKSS-LB must produce identical SATs and
/// identical deterministic counters under every scheduler order, running
/// with real thread-level concurrency. Reads and flag waits repeat
/// exactly: a look-back walk is charged its first step under any schedule.
pub fn dispatch(n: usize, w: usize) -> String {
    let a = Matrix::<u32>::random(n, n, 0x11, 4);
    let expect = satcore::reference::sat(&a);
    let mut t = Table::new(&["dispatch order", "correct", "reads", "flag waits"]);
    for (label, d) in [
        ("in-order", DispatchOrder::InOrder),
        ("reversed", DispatchOrder::Reversed),
        ("random(1)", DispatchOrder::Random(1)),
        ("random(2)", DispatchOrder::Random(2)),
    ] {
        let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Concurrent).with_dispatch(d);
        let alg = SkssLb::new(SatParams::paper(w));
        let (sat, run) = compute_sat(&gpu, &alg, &a);
        t.row(vec![
            label.into(),
            (sat == expect).to_string(),
            run.total_reads().to_string(),
            run.total_stats().flag_waits.to_string(),
        ]);
    }
    format!(
        "Ablation: dispatch-order robustness (SKSS-LB, concurrent execution, n = {n}, W = {w})\n\n{}",
        t.render()
    )
}

/// Run all ablations.
pub fn all(n: usize, w: usize) -> String {
    let mut out = String::new();
    out.push_str(&arrangement(n, w));
    out.push('\n');
    out.push_str(&lookback(n, w));
    out.push('\n');
    out.push_str(&block_size(n, w));
    out.push('\n');
    out.push_str(&dispatch(n, w));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_ablations_run() {
        let s = super::all(64, 16);
        assert!(s.contains("diagonal"));
        assert!(s.contains("decoupled"));
        assert!(s.contains("in-order"));
        assert!(!s.contains("false"), "all dispatch orders must be correct:\n{s}");
    }
}
