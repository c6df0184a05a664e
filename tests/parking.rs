//! Parked flag waits under adversarial schedules: the lost-wakeup races,
//! fast-fail guarantees, and worker-token handoff the park/wake contract
//! promises (see `gpu_sim::sync`, "Parked waits").

use gpu_sim::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// A tiny deterministic LCG for adversarial-but-reproducible sleep
/// schedules.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Publisher threads racing `wait_at_least` registration: one block
/// publishes a long flag sequence with sleeps straddling every phase
/// boundary of the wait ladder (publish-before-registration, mid-spin,
/// mid-backoff, and past the park timeout), the other waits for each flag
/// in order. A lost wakeup would strand the waiter until the deadlock
/// limit; the run completing with every wait satisfied is the assertion.
#[test]
fn racing_publishers_never_lose_a_wakeup() {
    const ROUNDS: u32 = 60;
    for seed in 0..6u64 {
        let gpu = Gpu::new(DeviceConfig::tiny())
            .with_mode(ExecMode::Concurrent)
            .with_dispatch(DispatchOrder::Random(seed));
        let board = StatusBoard::new(ROUNDS as usize);
        let counter = DeviceCounter::new();
        let mut rng = 0x9E3779B97F4A7C15 ^ seed;
        let pauses: Vec<u64> = (0..ROUNDS)
            .map(|_| match lcg(&mut rng) % 4 {
                // 0: publish immediately — races the waiter's registration.
                0 => 0,
                // 1: land mid hot-spin / backoff.
                1 => 5,
                // 2: land around the first park.
                2 => 60,
                // 3: outlast the park timeout so the waiter re-parks.
                _ => 300,
            })
            .collect();
        let km = gpu.launch(LaunchConfig::new("park-stress", 2, 32), |ctx| {
            // The deadlock discipline wants waits to target smaller
            // virtual ids, so the first-claimed block publishes.
            if counter.next(ctx) == 0 {
                for (r, &p) in pauses.iter().enumerate() {
                    if p > 0 {
                        std::thread::sleep(Duration::from_micros(p));
                    }
                    board.publish(ctx, r, 1);
                }
            } else {
                for r in 0..ROUNDS as usize {
                    assert_eq!(board.wait_at_least(ctx, r, 1), 1, "round {r} seed {seed}");
                }
            }
        });
        assert_eq!(km.stats.flag_waits, ROUNDS as u64, "seed {seed}");
        assert_eq!(km.stats.flag_publishes, ROUNDS as u64, "seed {seed}");
        // Schedule noise stays masked no matter how the race resolved.
        let det = km.stats.deterministic();
        assert_eq!((det.park_events, det.wakeups), (0, 0), "seed {seed}");
    }
}

/// A parked wait with no producer must still hit the deadlock limit and
/// fail fast: every park cycle charges its wall time in iterations, so the
/// limit bounds the wait's wall time instead of a hang (or a timeout-free
/// infinite condvar wait).
#[test]
fn parked_wait_past_the_deadlock_limit_fails_fast() {
    let mut cfg = DeviceConfig::tiny();
    cfg.deadlock_limit = 5_000;
    let gpu = Gpu::new(cfg).with_mode(ExecMode::Concurrent);
    let board = StatusBoard::new(1);
    let t0 = Instant::now();
    let err = catch_unwind(AssertUnwindSafe(|| {
        gpu.launch(LaunchConfig::new("stuck-parked", 1, 32), |ctx| {
            board.wait_at_least(ctx, 0, 1);
        });
    }))
    .expect_err("a producerless wait must panic at the deadlock limit");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("soft-sync deadlock"), "unexpected panic: {msg}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "deadlock fast-fail took {:?} — parking must not stretch the limit",
        t0.elapsed()
    );
}

/// A Concurrent GPU whose pool has a single worker, and so a single
/// execution token.
fn one_worker_gpu() -> Gpu {
    let mut cfg = DeviceConfig::tiny();
    cfg.host_workers = 1;
    Gpu::new(cfg).with_mode(ExecMode::Concurrent)
}

/// A two-block kernel whose first-claimed block waits on a flag the other
/// block publishes: on a one-token pool it finishes only if the waiter
/// hands its token off.
fn handoff_kernel() -> impl Fn(&mut BlockCtx) + Send + Sync + 'static {
    let board = StatusBoard::new(1);
    let counter = DeviceCounter::new();
    move |ctx| {
        if counter.next(ctx) == 0 {
            // First-claimed block blocks the sole token holder on purpose.
            assert_eq!(board.wait_at_least(ctx, 0, 1), 1);
        } else {
            board.publish(ctx, 0, 1);
        }
    }
}

/// The worker-token handoff: with a single host worker, a block that
/// parks on a flag hands its execution token back, which wakes an idle
/// worker or spawns a standby thread to run the publishing block. Without
/// the handoff this grid cannot finish at all — the only token holder
/// would sit inside the waiting block until the deadlock limit.
#[test]
fn token_handoff_lets_one_worker_run_dependent_blocks() {
    let km = one_worker_gpu().launch(LaunchConfig::new("handoff", 2, 32), handoff_kernel());
    assert!(
        km.stats.park_events >= 1,
        "the waiting block must have parked, got {:?}",
        km.stats
    );
    assert_eq!(km.stats.flag_waits, 1);
    assert_eq!(km.stats.flag_publishes, 1);
}

/// A multi-block Concurrent launch runs on the thread that starts it: the
/// caller holds the pool's only token, so no worker joins and every block
/// runs on the calling thread.
#[test]
fn the_caller_runs_its_own_launch() {
    let gpu = one_worker_gpu();
    let ran_on = Mutex::new(Vec::new());
    gpu.launch(LaunchConfig::new("caller-run", 4, 32), |_ctx| {
        ran_on.lock().unwrap().push(std::thread::current().id());
    });
    let ran_on = ran_on.into_inner().unwrap();
    assert_eq!(ran_on, vec![std::thread::current().id(); 4]);
}

/// A caller returns its token before re-raising a block's panic: after a
/// launch whose caller-run blocks all panic, the one-token handoff launch
/// on the same GPU still completes. A leaked token would leave its parked
/// waiter nothing to hand off to.
#[test]
fn a_panicking_launch_returns_the_callers_token() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let gpu = one_worker_gpu();
        let fault = catch_unwind(AssertUnwindSafe(|| {
            gpu.launch(LaunchConfig::new("all-panic", 4, 32), |_ctx| panic!("block fault"));
        }));
        let km = gpu.launch(LaunchConfig::new("handoff", 2, 32), handoff_kernel());
        let _ = tx.send((fault.is_err(), km.stats.flag_publishes));
    });
    let (faulted, publishes) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the handoff launch after a panicking launch wedged: the caller kept its token");
    assert!(faulted, "the panicking launch must re-raise");
    assert_eq!(publishes, 1);
}

/// Synthetic run record whose only purpose is to advance a lane's
/// simulated clock by a controlled amount: `bytes` of charged global
/// reads model to proportional device time in `run_seconds`.
fn synthetic_run(bytes: u64) -> RunMetrics {
    let mut stats = BlockStats::default();
    stats.charge_global_read(bytes / 4, bytes);
    let mut rm = RunMetrics::default();
    rm.push(KernelMetrics {
        label: "synthetic".into(),
        blocks: 1,
        threads_per_block: 32,
        stats,
        critical_path: CriticalPath::NONE,
        ilp: 1,
        host_seconds: 0.0,
    });
    rm
}

/// The resident lane driver's token handoff: a driver blocked waiting for
/// steal eligibility must hand its worker token back to its device pool,
/// or a single-worker device wedges any launch on it whose blocks need a
/// second token holder.
///
/// The constructed deadlock cycle (broken only by the handoff): device
/// 0's driver finishes its one huge job, its simulated clock is far ahead
/// of lane 1 so it cannot steal, and it blocks on the progress condvar
/// holding — without the handoff — device 0's only worker token. Lane 1's
/// job then launches, *on device 0*, the two-block handoff kernel: lane
/// 1's thread claims a token in debt and runs the waiting block, whose
/// publisher needs device 0's worker and so a free token. The driver
/// releases its token only when the batch progresses, and the batch
/// progresses only when lane 1's job (blocked in the launch) completes.
/// With the handoff the waiting block's park passes the driver's token to
/// device 0's worker, and the batch drains.
#[test]
fn blocked_resident_driver_hands_off_its_worker_token() {
    let mut cfg = DeviceConfig::tiny();
    cfg.host_workers = 1;
    // No for_group_member split: each device keeps exactly one worker.
    let group = Arc::new(DeviceGroup::with_member_config(cfg, 2));
    let cross_ran = Arc::new(AtomicBool::new(false));
    let lane0_drained = Arc::new(AtomicBool::new(false));

    let (tx, rx) = mpsc::channel();
    let g = Arc::clone(&group);
    let flag = Arc::clone(&cross_ran);
    let drained = Arc::clone(&lane0_drained);
    std::thread::spawn(move || {
        // Three jobs over two devices shard as [j0], [j1, j2].
        let gm = g.run_batch(vec![0usize, 1, 2], StealPolicy::StealOnIdle, |_gpu, j| {
            match j {
                // Lane 0's whole shard: instant on the host, enormous in
                // simulated time, so lane 0 is steal-ineligible afterwards
                // and its driver blocks until the batch ends.
                0 => {
                    drained.store(true, Ordering::SeqCst);
                    synthetic_run(1 << 36)
                }
                1 => {
                    // Wait for lane 0's shard to drain, then give its
                    // driver a beat to reach the blocked wait.
                    while !drained.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(25));
                    let km = g.device(0).launch(LaunchConfig::new("cross-device", 2, 32), handoff_kernel());
                    assert_eq!(km.blocks, 2);
                    flag.store(true, Ordering::SeqCst);
                    synthetic_run(1 << 12)
                }
                _ => synthetic_run(1 << 12),
            }
        });
        let _ = tx.send(gm);
    });

    let gm = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("batch wedged: blocked driver did not hand off its worker token");
    assert!(cross_ran.load(Ordering::SeqCst), "cross-device launch never ran");
    assert_eq!(gm.total_jobs(), 3, "lost or duplicated jobs");
    assert!(
        gm.token_handoffs() >= 1,
        "driver never recorded a token handoff: {:?} parks / {:?} handoffs",
        gm.park_events(),
        gm.token_handoffs()
    );
}

/// A job that panics on one device must release a peer that waits on its
/// flag from another device: the lanes' blocks carry the batch's abort
/// flag, so the remote wait fails within a park cycle instead of parking
/// until 64 × `deadlock_limit` iterations are spent (hours at the preset
/// limit), and the batch re-raises the first job's own panic.
#[test]
fn a_panicking_job_releases_its_peers_remote_waits() {
    let group = Arc::new(DeviceGroup::new(DeviceConfig::tiny(), 2));
    let board = Arc::new(StatusBoard::new(1));
    // Job 0 panics only once job 1's block has begun its wait.
    let waiting = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel();
    let (g, b, w) = (Arc::clone(&group), Arc::clone(&board), Arc::clone(&waiting));
    std::thread::spawn(move || {
        // Two jobs over two devices shard as [j0], [j1].
        let r = catch_unwind(AssertUnwindSafe(|| {
            g.run_batch(vec![0usize, 1], StealPolicy::Disabled, |gpu, j| {
                if j == 0 {
                    w.wait();
                    // Long enough for the wait to reach its parked phase;
                    // the abort must find it in any phase.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("band fault");
                }
                let mut rm = RunMetrics::default();
                rm.push(gpu.launch(LaunchConfig::new("remote-wait", 1, 32), |ctx| {
                    w.wait();
                    b.wait_at_least_remote(ctx, 0, 1);
                }));
                rm
            })
        }));
        let msg = r.err().and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
        let _ = tx.send(msg);
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("a peer's panic left the remote waiter parked");
    assert_eq!(msg.as_deref(), Some("band fault"), "the batch re-raises the first job's panic");
}

/// The multi-block twin of `a_panicking_job_releases_its_peers_remote_waits`:
/// the waiting blocks belong to a lane grid that runs as a pool job on a
/// two-worker device, so one of them waits on a helper thread. Job 0
/// panics only once both blocks have begun their waits, which they can
/// only do on two threads at once; both see the batch's abort flag, and
/// the batch re-raises job 0's panic.
#[test]
fn a_panicking_job_releases_remote_waits_in_a_pool_run_lane_grid() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipped: a helper needs a second core, the host has {cores}");
        return;
    }
    let mut cfg = DeviceConfig::tiny();
    cfg.host_workers = 2;
    let group = Arc::new(DeviceGroup::with_member_config(cfg, 2));
    let board = Arc::new(StatusBoard::new(1));
    let waiting = Arc::new(Barrier::new(3));
    let (tx, rx) = mpsc::channel();
    let (g, b, w) = (Arc::clone(&group), Arc::clone(&board), Arc::clone(&waiting));
    std::thread::spawn(move || {
        // Two jobs over two devices shard as [j0], [j1].
        let r = catch_unwind(AssertUnwindSafe(|| {
            g.run_batch(vec![0usize, 1], StealPolicy::Disabled, |gpu, j| {
                if j == 0 {
                    w.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("band fault");
                }
                let mut rm = RunMetrics::default();
                rm.push(gpu.launch(LaunchConfig::new("remote-wait-grid", 2, 32), |ctx| {
                    w.wait();
                    b.wait_at_least_remote(ctx, 0, 1);
                }));
                rm
            })
        }));
        let msg = r.err().and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
        let _ = tx.send(msg);
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("a peer's panic left a pool-run lane grid's remote waiters parked");
    assert_eq!(msg.as_deref(), Some("band fault"), "the batch re-raises the first job's panic");
}
