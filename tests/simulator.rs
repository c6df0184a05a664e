//! Integration: the virtual GPU itself through the workspace façade —
//! timing monotonicity across algorithm families, tracing, and device
//! presets.

use std::sync::Arc;

use gpu_sim::prelude::*;
use satcore::prelude::*;

/// Modeled seconds of duplication and of every algorithm on an `n x n`
/// matrix of the counting element, with the paper's parameters for `w`.
fn modeled_seconds(cfg: &DeviceConfig, n: usize, w: usize) -> Vec<(String, f64)> {
    let gpu = Gpu::new(cfg.clone());
    let a = Matrix::<CountOnly>::zeros(n, n);
    let dup = Duplicate::new().copy(&gpu, &a.to_device(), &GlobalBuffer::zeroed(n * n));
    let mut out = vec![("duplication".to_string(), run_seconds(cfg, &dup))];
    for alg in all_algorithms(SatParams::paper(w)) {
        out.push((alg.name(), run_seconds(cfg, &compute_sat(&gpu, alg.as_ref(), &a).1)));
    }
    out
}

/// Modeled time is monotone in matrix size for every algorithm.
#[test]
fn modeled_time_is_monotone_in_n() {
    let cfg = DeviceConfig::titan_v();
    let mut last = modeled_seconds(&cfg, 256, 32);
    for n in [1024usize, 4096, 16384] {
        let now = modeled_seconds(&cfg, n, 32);
        for ((name, t), (_, before)) in now.iter().zip(&last) {
            assert!(t > before, "{name} at n={n}: {t} <= {before}");
        }
        last = now;
    }
}

/// The projection presets order the same algorithm by device capability.
#[test]
fn faster_devices_model_faster() {
    let a = Matrix::<CountOnly>::zeros(8192, 8192);
    let run = |cfg: DeviceConfig| {
        let (_, metrics) = compute_sat(&Gpu::new(cfg.clone()), &SkssLb::new(SatParams::paper(64)), &a);
        run_seconds(&cfg, &metrics)
    };
    let consumer = run(DeviceConfig::gtx1080());
    let titan = run(DeviceConfig::titan_v());
    let dc = run(DeviceConfig::v100());
    assert!(dc < titan && titan < consumer, "v100 {dc} < titan {titan} < gtx1080 {consumer}");
}

/// A traced full SKSS-LB run records one span per tile and as many
/// publishes as the protocol requires (6 per tile: LRS, GRS, LCS, GCS,
/// GLS, GS).
#[test]
fn traced_algorithm_run_has_expected_event_shape() {
    let tracer = Arc::new(Tracer::new());
    let gpu = Gpu::new(DeviceConfig::tiny())
        .with_mode(ExecMode::Concurrent)
        .with_tracer(tracer.clone());
    let n = 32usize;
    let w = 8usize;
    let a = Matrix::<u64>::random(n, n, 21, 10);
    let (sat, _) = compute_sat(&gpu, &SkssLb::new(SatParams { w, threads_per_block: 64 }), &a);
    assert_eq!(sat, satcore::reference::sat(&a));

    let tiles = (n / w) * (n / w);
    let events = tracer.events();
    let starts = events.iter().filter(|e| matches!(e.kind, EventKind::BlockStart)).count();
    let pubs = events.iter().filter(|e| matches!(e.kind, EventKind::FlagPublished { .. })).count();
    assert_eq!(starts, tiles, "one block span per tile");
    assert_eq!(pubs, 6 * tiles, "six status publications per tile");
    assert!(tracer.render_timeline(60).lines().count() >= tiles);
}

/// The same functional run on different devices yields identical results
/// and identical deterministic counters — the device only affects timing.
#[test]
fn functional_results_are_device_independent() {
    let a = Matrix::<u64>::random(32, 32, 22, 10);
    let params = SatParams { w: 8, threads_per_block: 64 };
    let mut outputs = Vec::new();
    for cfg in [DeviceConfig::tiny(), DeviceConfig::titan_v(), DeviceConfig::v100()] {
        let gpu = Gpu::new(cfg);
        let (sat, run) = compute_sat(&gpu, &SkssLb::new(params), &a);
        outputs.push((sat, run.total_reads(), run.total_writes()));
    }
    assert_eq!(outputs[0].0, outputs[1].0);
    assert_eq!(outputs[1].0, outputs[2].0);
    assert_eq!(outputs[0].1, outputs[1].1, "reads are device-independent");
    assert_eq!(outputs[1].2, outputs[2].2, "writes are device-independent");
}

/// Warm coverage of the whole prelude surface: the pieces compose.
#[test]
fn prelude_surface_composes() {
    let gpu = Gpu::new(DeviceConfig::tiny());
    let input = GlobalBuffer::from_slice(&[1u64, 2, 3, 4, 5]);
    let output = GlobalBuffer::<u64>::zeroed(5);
    let m = gpu.launch(LaunchConfig::new("compose", 1, 32), |ctx| {
        let mut v = vec![0u64; 5];
        input.load_row(ctx, 0, &mut v);
        warp_inclusive_scan(ctx, &mut v);
        output.store_row(ctx, 0, &v);
        ctx.syncthreads();
    });
    assert_eq!(output.to_vec(), vec![1, 3, 6, 10, 15]);
    assert_eq!(m.stats.barriers, 1);
    assert!(kernel_time(gpu.config(), &m).total() > 0.0);
}
