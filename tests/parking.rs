//! Parked flag waits under adversarial schedules: the lost-wakeup races
//! and fast-fail guarantees the park/wake contract promises (see
//! `gpu_sim::sync`, "Parked waits").

use gpu_sim::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// A parked wait that nothing will satisfy must still hit the deadlock
/// limit and fail fast: every park cycle charges its wall time in
/// iterations, so the limit bounds the wait's wall time instead of a hang
/// (or a timeout-free infinite condvar wait). Two such waits: one with no
/// producer at all, and one whose producer is a later block of its own
/// grid. The second breaks the deadlock discipline (a block waits only on
/// smaller virtual IDs); on a one-worker pool the grid runs inline, and a
/// parked wait keeps its token, so nothing runs the producer.
#[test]
fn parked_wait_past_the_deadlock_limit_fails_fast() {
    let stuck = |gpu: &Gpu, blocks: usize| {
        let (board, counter) = (StatusBoard::new(1), DeviceCounter::new());
        let t0 = Instant::now();
        let err = catch_unwind(AssertUnwindSafe(|| {
            gpu.launch(LaunchConfig::new("stuck-parked", blocks, 32), |ctx| {
                if counter.next(ctx) == 0 {
                    board.wait_at_least(ctx, 0, 1);
                } else {
                    board.publish(ctx, 0, 1);
                }
            });
        }))
        .expect_err("an unsatisfiable wait must panic at the deadlock limit");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("soft-sync deadlock"), "{blocks} blocks: unexpected panic: {msg}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{blocks} blocks: deadlock fast-fail took {:?} — parking must not stretch the limit",
            t0.elapsed()
        );
    };
    let mut cfg = DeviceConfig::tiny();
    cfg.deadlock_limit = 5_000;
    stuck(&Gpu::new(cfg.clone()).with_mode(ExecMode::Concurrent), 1);
    cfg.host_workers = 1;
    stuck(&Gpu::new(cfg).with_mode(ExecMode::Concurrent), 2);
}

/// A multi-block Concurrent launch that gets no helper runs inline on the
/// thread that starts it: a one-worker pool wakes no helper, so every block
/// runs on the calling thread.
#[test]
fn the_caller_runs_its_own_launch() {
    let mut cfg = DeviceConfig::tiny();
    cfg.host_workers = 1;
    let gpu = Gpu::new(cfg).with_mode(ExecMode::Concurrent);
    let ran_on = Mutex::new(Vec::new());
    gpu.launch(LaunchConfig::new("caller-run", 4, 32), |_ctx| {
        ran_on.lock().unwrap().push(std::thread::current().id());
    });
    let ran_on = ran_on.into_inner().unwrap();
    assert_eq!(ran_on, vec![std::thread::current().id(); 4]);
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
    // Job 0 panics only once job 1's block has begun its wait, so job 1
    // runs on another lane than job 0, and so on the other device.
    let waiting = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel();
    let (g, b, w) = (Arc::clone(&group), Arc::clone(&board), Arc::clone(&waiting));
    std::thread::spawn(move || {
        let r = catch_unwind(AssertUnwindSafe(|| {
            g.run_batch(vec![0usize, 1], |gpu, j| {
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
/// only do on two threads at once, and on another lane than job 0's; both
/// see the batch's abort flag, and the batch re-raises job 0's panic.
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
        let r = catch_unwind(AssertUnwindSafe(|| {
            g.run_batch(vec![0usize, 1], |gpu, j| {
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
