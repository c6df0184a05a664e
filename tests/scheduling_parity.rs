//! Scheduling invariance of the accounting counters.
//!
//! The executor (persistent worker pool, resident batch lanes) must not be
//! observable in the metrics: counters are charged per block by the
//! kernels themselves, so *which* thread runs a block, in what order
//! blocks are dispatched, and whether a launch runs on its caller, on the
//! pool or on a batch lane can never change them. This suite runs every SAT
//! algorithm plus the duplication baseline under all combinations of
//!
//! * execution strategy: sequential, concurrent (worker pool), and lane
//!   (the algorithm as the one job of a one-device [`DeviceGroup`] batch,
//!   so every launch takes the lane path, inline or with pool helpers),
//! * dispatch order: `InOrder`, `Reversed`, `Random`,
//!
//! and asserts `stats.deterministic()` is identical to the sequential
//! in-order reference. That includes the look-back algorithms (`skss_lb`,
//! `skss_sh`, and `2r2w_opt`'s row and column scans): how far a walk goes
//! before it finds a published inclusive prefix depends on what other
//! blocks have finished, but a walk is charged its first step only, as the
//! paper's walk takes on the device, and the steps the host schedule adds
//! count `host_walk_steps`, which `deterministic()` masks.

use gpu_sim::global::GlobalBuffer;
use gpu_sim::metrics::BlockStats;
use gpu_sim::prelude::*;
use satcore::prelude::*;

const N: usize = 64;
const W: usize = 8;

fn roster() -> Vec<Box<dyn SatAlgorithm<u32>>> {
    all_algorithms::<u32>(SatParams { w: W, threads_per_block: 64 })
}

/// Run `alg` under one (strategy, dispatch) combination and return its
/// deterministic counters, checking the output against `expect`.
fn run_one(
    alg: &dyn SatAlgorithm<u32>,
    strategy: &str,
    dispatch: DispatchOrder,
    input: &GlobalBuffer<u32>,
    output: &GlobalBuffer<u32>,
    expect: &Matrix<u32>,
) -> BlockStats {
    output.host_fill(0);
    let stats = match strategy {
        "lane" => lane_stats(dispatch, |gpu| alg.run(gpu, input, output, N)),
        _ => {
            let mode = if strategy == "sequential" { ExecMode::Sequential } else { ExecMode::Concurrent };
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(mode).with_dispatch(dispatch);
            alg.run(&gpu, input, output, N).total_stats()
        }
    };
    assert_eq!(
        &Matrix::from_device(output, N, N),
        expect,
        "{} wrong SAT ({strategy}, {dispatch:?})",
        alg.name()
    );
    stats.deterministic()
}

/// The counters of `run` as the one job of a batch on a one-device group
/// under `dispatch`: every launch it makes runs on the batch's lane.
fn lane_stats(dispatch: DispatchOrder, run: impl Fn(&Gpu) -> RunMetrics + Sync) -> BlockStats {
    let group = DeviceGroup::new(DeviceConfig::tiny(), 1).with_dispatch(dispatch);
    group.run_batch(vec![()], |gpu, ()| run(gpu)).total_stats()
}

#[test]
fn deterministic_counters_are_schedule_invariant() {
    let a = Matrix::<u32>::random(N, N, 0x5EED, 16);
    let expect = satcore::reference::sat(&a);
    let input = a.to_device();
    let output = GlobalBuffer::<u32>::zeroed(N * N);

    for alg in roster() {
        let reference =
            run_one(alg.as_ref(), "sequential", DispatchOrder::InOrder, &input, &output, &expect);
        for strategy in ["sequential", "concurrent", "lane"] {
            for dispatch in
                [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(9)]
            {
                let got = run_one(alg.as_ref(), strategy, dispatch, &input, &output, &expect);
                let tag =
                    format!("{} ({strategy}, {dispatch:?})", alg.name());
                assert_eq!(got, reference, "{tag}: deterministic counters drifted");
            }
        }
    }
}

#[test]
fn multi_device_batch_counters_are_schedule_invariant() {
    // The aggregated GroupMetrics counters of the multi-device batch are
    // per-job sums, so they must be bit-identical for 1, 2, and 4 devices,
    // for any dispatch order inside each device, and whichever lane claims
    // which image — and equal to the single-device serial batch. The
    // replayed makespan of these identical images is a function of the
    // jobs alone, so it repeats exactly on every run.
    let params = SatParams { w: W, threads_per_block: 64 };
    let mats: Vec<Matrix<u32>> =
        (0..10).map(|i| Matrix::<u32>::random(N, N, 0x6E0 + i, 16)).collect();
    let expect: Vec<Matrix<u32>> = mats.iter().map(satcore::reference::sat).collect();
    let images: Vec<BatchImage<u32>> =
        mats.iter().map(|m| BatchImage::from_host(m.as_slice(), N)).collect();
    let serial =
        sat_batch_serial(&Gpu::new(DeviceConfig::tiny()), params, &images).deterministic();

    for devices in [1, 2, 4] {
        let mut makespan = None;
        for dispatch in [DispatchOrder::InOrder, DispatchOrder::Random(5), DispatchOrder::InOrder] {
            for img in &images {
                img.output.host_fill(0);
            }
            let group = DeviceGroup::new(DeviceConfig::tiny(), devices).with_dispatch(dispatch);
            let (report, gm) = sat_batch_multi_device(&group, params, &images);
            let tag = format!("{devices} devices, {dispatch:?}");
            for (e, img) in expect.iter().zip(&images) {
                assert_eq!(&Matrix::from_device(&img.output, N, N), e, "{tag}: wrong SAT");
            }
            assert_eq!(report.deterministic(), serial, "{tag}: batch counters drifted");
            assert_eq!(gm.deterministic(), serial, "{tag}: group counters drifted");
            assert_eq!(gm.total_jobs(), images.len(), "{tag}: lost or duplicated jobs");
            let m = gm.modeled_completion_seconds().to_bits();
            assert_eq!(*makespan.get_or_insert(m), m, "{tag}: the modeled makespan moved between runs");
        }
    }
}

#[test]
fn cooperative_huge_image_counters_are_schedule_invariant() {
    // Cooperative band decomposition of ONE image across the group: the
    // SAT must be bit-identical to the reference for every device count and
    // dispatch order, whichever lane claims which band. The eager-carry
    // 2R1W pipeline resolves inter-band dependencies with fixed-order carry
    // reductions, and a look-back walk is charged its first step however
    // far the schedule let it walk, so every kernel's full deterministic
    // counter set is schedule-invariant, and so is each band's modeled
    // time.
    let params = SatParams { w: W, threads_per_block: 64 };
    let n = 128;
    let a = Matrix::<u32>::random(n, n, 0xC0DE, 16);
    let expect = satcore::reference::sat(&a);
    let input = a.to_device();
    let output = GlobalBuffer::<u32>::zeroed(n * n);

    for kernel in [CoopKernel::TwoROneW, CoopKernel::SkssLb, CoopKernel::SkssSh] {
        let base_group = DeviceGroup::new(DeviceConfig::tiny(), 1);
        let (base, base_gm) = sat_huge_multi_device(&base_group, params, kernel, &input, &output, n);
        assert_eq!(Matrix::from_device(&output, n, n), expect, "{}: reference run", kernel.name());
        let reference = base.deterministic();

        for devices in [1, 2, 4] {
            for dispatch in [DispatchOrder::InOrder, DispatchOrder::Random(5)] {
                output.host_fill(0);
                let group = DeviceGroup::new(DeviceConfig::tiny(), devices).with_dispatch(dispatch);
                let bands = even_bands(n / W, COOP_BANDS);
                let (report, gm) = sat_huge_multi_device_bands(&group, params, kernel, &input, &output, n, &bands);
                let tag = format!("{} ({devices} devices, {dispatch:?})", kernel.name());
                assert_eq!(Matrix::from_device(&output, n, n), expect, "{tag}: wrong SAT");
                assert_eq!(report.deterministic(), reference, "{tag}: deterministic counters drifted");
                assert_eq!(gm.deterministic(), reference, "{tag}: group counters drifted");
                // Each band's counters are fixed, so is its modeled time,
                // and the replayed makespan with it.
                assert_eq!(gm.job_seconds, base_gm.job_seconds, "{tag}: band modeled seconds drifted");
                assert_eq!(gm.total_jobs(), COOP_BANDS, "{tag}: lost or duplicated bands");
            }
        }
    }
}

#[test]
fn duplication_baseline_is_schedule_invariant() {
    // The duplication baseline is not a `SatAlgorithm`; cover it directly.
    let a = Matrix::<u32>::random(N, N, 0xD0B, 16);
    let input = a.to_device();
    let output = GlobalBuffer::<u32>::zeroed(N * N);
    let seq = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
    let reference = Duplicate::new().copy(&seq, &input, &output).total_stats().deterministic();
    for dispatch in [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(9)] {
        let gpu = Gpu::new(DeviceConfig::tiny())
            .with_mode(ExecMode::Concurrent)
            .with_dispatch(dispatch);
        let conc = Duplicate::new().copy(&gpu, &input, &output).total_stats().deterministic();
        assert_eq!(conc, reference, "concurrent {dispatch:?}");
        output.host_fill(0);
        let lane = lane_stats(dispatch, |gpu| Duplicate::new().copy(gpu, &input, &output)).deterministic();
        assert_eq!(lane, reference, "lane {dispatch:?}");
        assert_eq!(output.to_vec(), a.as_slice());
    }
}
