//! Concurrency stress: the soft-synchronization machinery under real
//! OS-thread execution, adversarial dispatch, and repeated runs. These are
//! the tests that would catch a memory-ordering bug in the SKSS protocol.

use gpu_sim::prelude::*;
use satcore::prelude::*;

/// Repeated concurrent SKSS-LB runs with different dispatch seeds: the SAT
/// and every deterministic counter are identical run to run. Only the
/// host's extra look-back steps (`host_walk_steps`, masked) may vary.
#[test]
fn skss_lb_is_schedule_deterministic() {
    let n = 48usize;
    let params = SatParams { w: 8, threads_per_block: 64 };
    let a = Matrix::<u64>::random(n, n, 7, 10);
    let expect = satcore::reference::sat(&a);

    let mut baseline = None;
    for seed in 0..12u64 {
        let gpu = Gpu::new(DeviceConfig::tiny())
            .with_mode(ExecMode::Concurrent)
            .with_dispatch(DispatchOrder::Random(seed));
        let (got, run) = compute_sat(&gpu, &SkssLb::new(params), &a);
        assert_eq!(got, expect, "seed {seed}");
        let det = run.total_stats().deterministic();
        assert_eq!(baseline.get_or_insert_with(|| det.clone()), &det, "counters diverged at seed {seed}");
    }
}

/// Sequential and concurrent execution agree on all deterministic
/// counters for every algorithm: the counters measure the algorithm, not
/// the schedule. A look-back walk is charged one step under either mode.
#[test]
fn counters_mode_independent_for_every_algorithm() {
    let n = 32usize;
    let a = Matrix::<u64>::random(n, n, 8, 10);
    for alg in all_algorithms::<u64>(SatParams { w: 8, threads_per_block: 64 }) {
        let seq = {
            let gpu = Gpu::new(DeviceConfig::tiny());
            compute_sat(&gpu, alg.as_ref(), &a).1.total_stats().deterministic()
        };
        let conc = {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
            compute_sat(&gpu, alg.as_ref(), &a).1.total_stats().deterministic()
        };
        assert_eq!(seq, conc, "{}", alg.name());
    }
}

/// Under concurrency a look-back walk may step past its first predecessor
/// (a racing block may not yet see a short-circuit), but only that first
/// step is charged: reads equal the sequential count exactly, and the
/// extra host steps stay bounded by walking all the way back every time.
#[test]
fn lookback_reads_bounded_under_concurrency() {
    let n = 64usize;
    let w = 8usize;
    let params = SatParams { w, threads_per_block: 64 };
    let a = Matrix::<u64>::random(n, n, 9, 10);
    let t = (n / w) as u64;

    let seq_reads = {
        let gpu = Gpu::new(DeviceConfig::tiny());
        compute_sat(&gpu, &SkssLb::new(params), &a).1.total_reads()
    };
    for seed in [1u64, 2, 3] {
        let gpu = Gpu::new(DeviceConfig::tiny())
            .with_mode(ExecMode::Concurrent)
            .with_dispatch(DispatchOrder::Random(seed));
        let run = compute_sat(&gpu, &SkssLb::new(params), &a).1;
        assert_eq!(run.total_reads(), seq_reads, "seed {seed}");
        // Worst case: every tile walks its full row, column, and diagonal.
        let worst = t * t * 3 * t;
        let steps = run.total_stats().host_walk_steps;
        assert!(steps <= worst, "seed {seed}: {steps} host walk steps > {worst}");
    }
}

/// A torture chain: thousands of blocks in one launch, each dependent on
/// its predecessor through a flag, under random dispatch with few workers.
#[test]
fn long_dependency_chain_under_concurrency() {
    let blocks = 3000usize;
    let gpu = Gpu::new(DeviceConfig::tiny())
        .with_mode(ExecMode::Concurrent)
        .with_dispatch(DispatchOrder::Random(4242));
    let counter = DeviceCounter::new();
    let board = StatusBoard::new(blocks);
    let acc = GlobalBuffer::<u64>::zeroed(blocks);
    gpu.launch(LaunchConfig::new("torture", blocks, 32), |ctx| {
        let vid = counter.next(ctx) as usize;
        let prev = if vid > 0 {
            board.wait_at_least(ctx, vid - 1, 1);
            acc.read(ctx, vid - 1)
        } else {
            0
        };
        acc.write(ctx, vid, prev + vid as u64);
        board.publish(ctx, vid, 1);
    });
    let expect: u64 = (0..blocks as u64).sum();
    assert_eq!(acc.host_read(blocks - 1), expect);
}

/// Two SAT computations on the *same* GPU value sharing nothing: back to
/// back launches must not interfere (fresh flags/counters per run).
#[test]
fn repeated_runs_are_independent() {
    let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
    let params = SatParams { w: 4, threads_per_block: 16 };
    let a = Matrix::<u64>::random(20, 20, 11, 10);
    let expect = satcore::reference::sat(&a);
    let alg = SkssLb::new(params);
    for _ in 0..5 {
        let (got, _) = compute_sat(&gpu, &alg, &a);
        assert_eq!(got, expect);
    }
}

/// SKSS (column-pipelined) under the most adversarial schedule: reversed
/// dispatch with a single worker thread — the worker must pick up columns
/// in virtual-ID order regardless.
#[test]
fn skss_reversed_dispatch_single_worker() {
    let mut cfg = DeviceConfig::tiny();
    cfg.host_workers = 1;
    let gpu = Gpu::new(cfg).with_mode(ExecMode::Concurrent).with_dispatch(DispatchOrder::Reversed);
    let a = Matrix::<u64>::random(24, 24, 12, 10);
    let (got, _) = compute_sat(&gpu, &Skss::new(SatParams { w: 4, threads_per_block: 16 }), &a);
    assert_eq!(got, satcore::reference::sat(&a));
}

/// A grid whose blocks outlast a helper's wake gets a helper once the pool
/// has measured its block time: four blocks of about 2 ms each, launched
/// twice on a two-worker pool, run at least one block off the calling
/// thread the second time. (A pool that never woke helpers would run
/// every block on the caller.)
#[test]
fn a_grid_that_outlasts_a_wake_gets_a_helper() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipped: a helper needs a second core, the host has {cores}");
        return;
    }
    let mut cfg = DeviceConfig::tiny();
    cfg.host_workers = 2;
    let gpu = Gpu::new(cfg).with_mode(ExecMode::Concurrent);
    let caller = std::thread::current().id();
    let mut ran_on = Vec::new();
    for _ in 0..2 {
        let ids = std::sync::Mutex::new(Vec::new());
        gpu.launch(LaunchConfig::new("busy-2ms", 4, 32), |_ctx| {
            let t = std::time::Instant::now();
            while t.elapsed() < std::time::Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            ids.lock().unwrap().push(std::thread::current().id());
        });
        ran_on = ids.into_inner().unwrap();
    }
    assert_eq!(ran_on.len(), 4);
    assert!(ran_on.iter().any(|&id| id != caller), "the second launch ran all four blocks on the caller");
}
