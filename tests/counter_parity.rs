//! Counter parity: scalar vs batched paths, and input values vs shape.
//!
//! The warp-transaction fast paths (bulk `GlobalBuffer` transfers and the
//! `SharedTile` whole-row and whole-tile operations) claim to be *pure
//! host-side* optimizations: every batched operation charges exactly what
//! its per-element scalar expansion would charge, through the same
//! `BlockStats` accounting-sink methods. This suite proves the claim the
//! strong way: it flips the process-global `force_scalar` switch — which
//! makes every bulk operation execute its scalar expansion — and asserts
//! outputs and `deterministic()` counters are identical to the batched
//! run, for all eight algorithms, several sizes, all dispatch orders,
//! sequential and concurrent. A look-back walk is charged its first step
//! only, however far the schedule made it walk, so concurrent runs compare
//! exactly too. Both cooperative pipelines run the same comparison:
//! SKSS-LB with walks that leave their band and cross the interconnect,
//! the eager-carry 2R1W with its carry grid's column windows.
//!
//! `force_scalar` is process-global, so everything lives in ONE `#[test]`
//! (Rust runs tests of a binary on parallel threads; a sibling test could
//! otherwise observe the switch mid-run — harmless for correctness, since
//! both paths charge identically, but it would defeat the comparison).
//!
//! The second test holds that counters are a function of shape alone: a
//! random input, an all-zero input and the counting-only element
//! [`CountOnly`] charge the same per-kernel counters. Table III's
//! paper-size cells are runs on `CountOnly`, so a charge that depended on
//! a value would skew them.

use gpu_sim::global::{force_scalar, set_force_scalar};
use gpu_sim::metrics::BlockStats;
use gpu_sim::prelude::*;
use satcore::prelude::*;

const W: usize = 8;

/// Resets the switch even if an assertion fires mid-run.
struct ScalarGuard;

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        set_force_scalar(false);
    }
}

fn run_one(
    alg: &dyn SatAlgorithm<u32>,
    mode: ExecMode,
    dispatch: DispatchOrder,
    input: &GlobalBuffer<u32>,
    n: usize,
    expect: &Matrix<u32>,
    tag: &str,
) -> BlockStats {
    let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(mode).with_dispatch(dispatch);
    let output = GlobalBuffer::<u32>::zeroed(n * n);
    let run = alg.run(&gpu, input, &output, n);
    assert_eq!(&Matrix::from_device(&output, n, n), expect, "{tag}: wrong SAT");
    run.total_stats().deterministic()
}

#[test]
fn batched_and_scalar_paths_charge_identically() {
    let _guard = ScalarGuard;
    for n in [32usize, 64, 128] {
        let a = Matrix::<u32>::random(n, n, 0xBA7C4 + n as u64, 16);
        let expect = satcore::reference::sat(&a);
        let input = a.to_device();
        for alg in all_algorithms::<u32>(SatParams { w: W, threads_per_block: 64 }) {
            for mode in [ExecMode::Sequential, ExecMode::Concurrent] {
                for dispatch in
                    [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(7)]
                {
                    let tag = format!("{} n={n} {mode:?} {dispatch:?}", alg.name());
                    set_force_scalar(false);
                    let batched =
                        run_one(alg.as_ref(), mode, dispatch, &input, n, &expect, &tag);
                    set_force_scalar(true);
                    assert!(force_scalar());
                    let scalar =
                        run_one(alg.as_ref(), mode, dispatch, &input, n, &expect, &tag);
                    set_force_scalar(false);
                    assert_eq!(scalar, batched, "{tag}: scalar expansion drifted");
                }
            }
        }
    }

    // Cooperative SKSS-LB: one device runs four bands in order, so every
    // band's first tile row walks into the band above and charges the
    // remote rows as D2D transfers, on a one-worker pool (no band grid gets
    // a helper, so the lane runs every block inline) and on a two-worker one
    // (a band grid may get a helper). Cooperative 2R1W's carry grid holds
    // its bulk column reads and writes to their scalar expansions on both
    // pools.
    let n = 64;
    let a = Matrix::<u32>::random(n, n, 0xC0B4D, 16);
    let expect = satcore::reference::sat(&a);
    let input = a.to_device();
    let params = SatParams { w: W, threads_per_block: 64 };
    let kernels = [CoopKernel::SkssLb, CoopKernel::TwoROneW];
    for (kernel, workers) in kernels.into_iter().flat_map(|k| [(k, 1), (k, 2)]) {
        let run = |scalar: bool| {
            set_force_scalar(scalar);
            let mut cfg = DeviceConfig::tiny();
            cfg.host_workers = workers;
            let group = DeviceGroup::with_member_config(cfg, 1);
            let output = GlobalBuffer::<u32>::zeroed(n * n);
            let (report, _) = sat_huge_multi_device_bands(
                &group,
                params,
                kernel,
                &input,
                &output,
                n,
                &[2, 2, 2, 2],
            );
            set_force_scalar(false);
            assert_eq!(Matrix::from_device(&output, n, n), expect, "{kernel:?} scalar={scalar}");
            report.deterministic()
        };
        let batched = run(false);
        let scalar = run(true);
        let tag = format!("{kernel:?} on {workers} worker(s)");
        assert!(batched.d2d_transfers > 0, "{tag}: nothing crossed the interconnect");
        assert_eq!(scalar, batched, "{tag}: cooperative scalar expansion drifted");
    }
}

/// Per-kernel `(label, blocks, deterministic counters)` of one run.
fn per_kernel(run: &RunMetrics) -> Vec<(String, usize, BlockStats)> {
    run.kernels.iter().map(|k| (k.label.clone(), k.blocks, k.stats.deterministic())).collect()
}

/// Kernel count, deterministic counters and per-job modeled seconds of one
/// cooperative call on `a`.
fn coop_counters<T: DeviceElem>(
    group: &DeviceGroup,
    kernel: CoopKernel,
    params: SatParams,
    a: &Matrix<T>,
) -> (usize, BlockStats, Vec<f64>) {
    let n = a.rows();
    let output = GlobalBuffer::<T>::zeroed(n * n);
    let (report, gm) = sat_huge_multi_device(group, params, kernel, &a.to_device(), &output, n);
    (report.kernels, report.deterministic(), gm.job_seconds)
}

#[test]
fn counters_are_a_function_of_shape_alone() {
    let gpu = Gpu::new(DeviceConfig::titan_v());
    for n in [256usize, 512] {
        let random = Matrix::<f32>::random(n, n, 0x5A9E + n as u64, 16);
        let zeros = Matrix::<f32>::zeros(n, n);
        let counting = Matrix::<CountOnly>::zeros(n, n);
        for w in [32usize, 64, 128] {
            let params = SatParams::paper(w);
            for (alg, counting_alg) in all_algorithms::<f32>(params).into_iter().zip(all_algorithms(params)) {
                let tag = format!("{} n={n}", alg.name());
                let expect = per_kernel(&compute_sat(&gpu, alg.as_ref(), &random).1);
                assert_eq!(per_kernel(&compute_sat(&gpu, alg.as_ref(), &zeros).1), expect, "{tag}: all-zero input");
                let counted = per_kernel(&compute_sat(&gpu, counting_alg.as_ref(), &counting).1);
                assert_eq!(counted, expect, "{tag}: counting element");
            }
        }
    }

    let n = 512;
    let params = SatParams::paper(32);
    let random = Matrix::<f32>::random(n, n, 0xC0B5, 16);
    for kernel in [CoopKernel::TwoROneW, CoopKernel::SkssLb] {
        for devices in [1, 2] {
            let group = DeviceGroup::new(DeviceConfig::titan_v(), devices);
            let tag = format!("{kernel:?} on {devices} device(s)");
            let expect = coop_counters(&group, kernel, params, &random);
            let zeros = coop_counters(&group, kernel, params, &Matrix::<f32>::zeros(n, n));
            assert_eq!(zeros, expect, "{tag}: all-zero input");
            let counted = coop_counters(&group, kernel, params, &Matrix::<CountOnly>::zeros(n, n));
            assert_eq!(counted, expect, "{tag}: counting element");
        }
    }
}
