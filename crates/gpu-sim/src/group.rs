//! Multi-device execution: a [`DeviceGroup`] of independent simulated GPUs
//! and a work-stealing batch scheduler over them.
//!
//! A `DeviceGroup` owns N fully independent [`Gpu`] instances. Following
//! real multi-GPU systems (Zhang et al., *"A Study of Single and
//! Multi-device Synchronization Methods in Nvidia GPUs"*), the devices
//! share **nothing** on the device side by default: each has its own
//! worker pool, its own global-memory buffers, and its own streams, and
//! the scheduler in this module is host code moving whole jobs between
//! devices. Cooperative workloads (`satcore::coop`) additionally let
//! kernels on different devices exchange *boundary data* through
//! peer-visible buffers: those transfers are charged through
//! [`BlockStats::charge_d2d`](crate::metrics::BlockStats::charge_d2d) and
//! their cross-device flag waits through
//! [`StatusBoard::wait_at_least_remote`](crate::sync::StatusBoard::wait_at_least_remote),
//! pricing the interconnect (`DeviceConfig::d2d_bandwidth` /
//! `d2d_latency`) separately from local memory.
//!
//! ## The scheduler
//!
//! [`DeviceGroup::run_batch`] shards a batch of independent jobs
//! contiguously across the devices (device *d* seeds jobs
//! `[d·m/N, (d+1)·m/N)`), then drives one resident lane per device:
//!
//! * the owner pops jobs off the **front** of its own shard;
//! * under [`StealPolicy::StealOnIdle`], a device whose shard has drained
//!   **steals** from the **back** of a victim's shard — the classic deque
//!   discipline, so owner and thief rarely contend for the same job;
//! * batch completion becomes max-of-balanced instead of
//!   max-of-static-shards.
//!
//! Steals are gated on **simulated** time, not host time: each lane keeps
//! a clock that advances by the timing model's [`run_seconds`] for every
//! job it completes, and a thief may only take a victim's job while the
//! thief's clock is at or behind the victim's. On a many-core host this
//! coincides with steal-on-idle; on a single-core CI box it keeps the
//! *modeled* schedule balanced even when the OS runs one lane far ahead of
//! the others, which is what makes [`GroupMetrics`] reproducible anywhere.
//!
//! ## Resident lanes
//!
//! No thread is spawned per batch. The calling thread drives lane 0, and
//! lane *d* ≥ 1 is one job on device *d*'s pool queue, run by a warm pool
//! thread (named `gpu-sim-d{d}-…`). Each lane stays resident for the whole
//! batch and hands its jobs a lane handle: a clone of its device's [`Gpu`]
//! whose launches run on the lane's thread, against one scratch arena
//! reused from job to job. A grid runs inline there unless the device
//! pool's measurements say a helper would arrive before its blocks run
//! out; then it is a pool job that the lane runs beside the helpers it
//! wakes, the rule every caller-run launch follows. A job is just an index
//! into the sequence, so a steal moves the index, not a launch; cross-job
//! ordering is whatever the jobs enforce themselves (e.g. `StatusBoard`
//! flags). A lane holds one execution token of its device pool for the
//! batch — it executes blocks, so it takes a worker's place — and lends it
//! back whenever it blocks on something other than its own helpers (a
//! parked flag wait inside a block, or the lane waiting for steal
//! eligibility), so pool launches on the same device always make progress.
//! Idle lanes block on the event-driven `Progress` condvar, bumped on every
//! job completion, never on a fixed-period poll.
//!
//! A job that panics aborts the batch: the lanes' blocks, helper-run ones
//! included, carry the batch's abort flag, so a peer waiting on the dead
//! job's flag fails fast, and the first panic is re-raised to the caller
//! once every lane has stopped.
//!
//! ## Accounting
//!
//! Each job reports its [`RunMetrics`]; lanes aggregate them into
//! [`DeviceLane`] records and the group returns a [`GroupMetrics`]
//! snapshot. Totals over the whole batch are sums of per-job counters and
//! therefore independent of which device ran which job — bit-identical
//! across device counts, steal interleavings, and dispatch orders (the
//! scheduling-parity suite asserts this). The per-lane breakdown is
//! schedule-dependent by nature and documented as such.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use crate::device::DeviceConfig;
use crate::executor::{LaneTask, PoolShared, Token};
use crate::launch::{DispatchOrder, ExecMode, Gpu};
use crate::metrics::{BlockStats, RunMetrics};
use crate::timing::run_seconds;

/// Whether an idle device may take jobs from a peer's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// Static sharding: every device runs exactly its seeded shard and
    /// stops when it drains. Baseline for measuring what stealing buys.
    Disabled,
    /// A device whose shard has drained steals from the back of the
    /// most-loaded eligible victim (see the [module docs](self) for the
    /// simulated-time gate).
    #[default]
    StealOnIdle,
}

/// N independent simulated GPUs driven as one throughput tier.
///
/// All devices share the same [`DeviceConfig`] hardware description but
/// nothing else: memory, worker pools, and streams are per-device, and
/// only the host moves data or work between them.
pub struct DeviceGroup {
    devices: Vec<Gpu>,
}

impl std::fmt::Debug for DeviceGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceGroup").field("devices", &self.devices.len()).finish()
    }
}

impl DeviceGroup {
    /// A group of `count` identical devices in concurrent mode. The host
    /// worker budget of `cfg` is split across the members
    /// ([`DeviceConfig::for_group_member`]) so the group does not
    /// oversubscribe the host.
    ///
    /// # Panics
    /// If `count` is zero.
    pub fn new(cfg: DeviceConfig, count: usize) -> Self {
        Self::with_member_config(cfg.for_group_member(count), count)
    }

    /// A group of `count` devices each using `cfg` **exactly** — no
    /// [`DeviceConfig::for_group_member`] worker split. For tests that
    /// need a deterministic per-device worker count (e.g. a one-worker
    /// pool to exercise a resident lane's token handoff) and for
    /// callers that have already budgeted host workers themselves.
    ///
    /// # Panics
    /// If `count` is zero.
    pub fn with_member_config(cfg: DeviceConfig, count: usize) -> Self {
        assert!(count > 0, "a DeviceGroup needs at least one device");
        let devices = (0..count)
            .map(|d| Gpu::new(cfg.clone()).with_mode(ExecMode::Concurrent).with_ordinal(d))
            .collect();
        DeviceGroup { devices }
    }

    /// Set the dispatch order of every member device (builder style).
    pub fn with_dispatch(mut self, dispatch: DispatchOrder) -> Self {
        self.devices = self.devices.into_iter().map(|g| g.with_dispatch(dispatch)).collect();
        self
    }

    /// The member devices, in ordinal order.
    pub fn devices(&self) -> &[Gpu] {
        &self.devices
    }

    /// Member device `d`.
    pub fn device(&self, d: usize) -> &Gpu {
        &self.devices[d]
    }

    /// Number of devices in the group.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group has no devices (never true: construction requires
    /// at least one).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Run a batch of independent jobs on the group's resident lanes under
    /// `policy`; see the [module docs](self) for the scheduling discipline.
    ///
    /// The calling thread drives lane 0 on a token claimed from device 0's
    /// pool; lanes 1..N are queued on devices 1..N's pools and run on
    /// their threads. Lanes borrow the batch and `run`, so this waits for
    /// every lane to stop before it returns or re-raises a panic.
    ///
    /// `run` executes one job on the lane handle of whichever device the
    /// scheduler lands it on and reports its metrics; it must not assume
    /// *which* device it gets — jobs migrate. Its launches run on the lane,
    /// inline or with helpers from the lane's device pool. A panic inside a
    /// job, or inside any block it launches, aborts the whole batch and is
    /// re-raised here, like a failed launch poisoning a stream.
    pub fn run_batch<J, F>(&self, jobs: Vec<J>, policy: StealPolicy, run: F) -> GroupMetrics
    where
        J: Send,
        F: Fn(&Gpu, J) -> RunMetrics + Sync,
    {
        let nd = self.devices.len();
        let m = jobs.len();
        let started = Instant::now();
        let mut iter = jobs.into_iter();
        let batch = Batch {
            shards: (0..nd)
                .map(|d| Mutex::new(iter.by_ref().take((d + 1) * m / nd - d * m / nd).collect()))
                .collect(),
            clocks: (0..nd).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            policy,
            abort: Arc::new(AtomicBool::new(false)),
            first_panic: Mutex::new(None),
            progress: Progress::default(),
        };
        // Start every pool first: starting one can panic, which must not
        // happen once a lane borrows this frame.
        let pools: Vec<&Arc<PoolShared>> = self.devices.iter().map(Gpu::pool_shared).collect();
        let (report, reports) = mpsc::channel();
        for (d, gpu) in self.devices.iter().enumerate().skip(1) {
            let (batch, run, report) = (&batch, &run, report.clone());
            let lane = move |token| {
                let _ = report.send((d, batch.drive_caught(d, gpu, run, || token)));
            };
            // SAFETY: the lane borrows `batch`, `run` and `gpu`. Nothing from
            // here to the loop over `reports` unwinds (lane 0 runs under
            // `catch_unwind`, and `submit_lane` recovers a poisoned lock),
            // and that loop ends only once every lane has dropped its
            // `report`, which it does when it has run or been dropped.
            pools[d].submit_lane(unsafe { LaneTask::new(lane) });
        }
        drop(report);
        let mut lanes: Vec<Option<DeviceLane>> = vec![None; nd];
        lanes[0] = batch.drive_caught(0, &self.devices[0], &run, || Token::claim(pools[0]));
        for (d, lane) in reports {
            lanes[d] = lane;
        }
        if let Some(p) = batch.first_panic.into_inner().expect(POISONED) {
            resume_unwind(p);
        }
        let lanes = lanes.into_iter().map(|l| l.expect("a lane stops without a record only by panicking")).collect();
        GroupMetrics { lanes, wall_seconds: started.elapsed().as_secs_f64() }
    }
}

/// Batch progress signal: a generation counter bumped (with a broadcast
/// wake) whenever any lane completes a job or the batch aborts. Lanes
/// whose simulated clock is ahead of every victim's wait here, parked
/// like a flag wait, instead of polling.
///
/// The wait is purely **event-driven**: no timeout, no fixed-period
/// polling. That is safe because `bump` takes the same mutex the waiter
/// holds between its generation check and its sleep (no lost wakeup), and
/// because a waiting lane can only be unblocked by events that all bump:
/// a job completing (the owner of any non-empty shard never waits, so
/// jobs remaining implies some lane is running) or the batch aborting.
/// When the last job's completion bump wakes the final waiters they
/// observe every shard empty and exit.
#[derive(Default)]
struct Progress {
    generation: Mutex<u64>,
    advanced: Condvar,
}

impl Progress {
    /// Record one unit of forward progress and wake every waiting lane
    /// (each re-evaluates steal eligibility itself — clocks live outside
    /// this lock, so a targeted wake is not possible or necessary).
    fn bump(&self) {
        *self.generation.lock().unwrap() += 1;
        self.advanced.notify_all();
    }

    /// Block until the generation moves past `seen`.
    fn wait_past(&self, seen: u64) {
        let mut g = self.generation.lock().unwrap();
        while *g == seen {
            g = self.advanced.wait(g).unwrap();
        }
    }

    fn current(&self) -> u64 {
        *self.generation.lock().unwrap()
    }
}

/// Jobs run under `catch_unwind` and never while a batch lock is held, so
/// a poisoned lock means the scheduler itself panicked.
const POISONED: &str = "batch scheduler panicked while holding a batch lock";

/// The state the lanes of one batch share.
struct Batch<J> {
    /// Device `d`'s remaining seeded (and not yet stolen) jobs.
    shards: Vec<Mutex<VecDeque<J>>>,
    /// Per-lane simulated clocks (f64 seconds as bits; non-negative floats
    /// order identically to their bit patterns).
    clocks: Vec<AtomicU64>,
    policy: StealPolicy,
    /// Set by the first job to panic; every lane's blocks poll it.
    abort: Arc<AtomicBool>,
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
    progress: Progress,
}

impl<J: Send> Batch<J> {
    /// Run [`Batch::drive`] on the token `token()` returns, and catch a
    /// panic outside any job (a scheduler bug): it aborts the batch like a
    /// job's panic, so the other lanes stop and `run_batch` re-raises it,
    /// and the lane reports no record.
    fn drive_caught<F>(&self, d: usize, device: &Gpu, run: &F, token: impl FnOnce() -> Token) -> Option<DeviceLane>
    where
        F: Fn(&Gpu, J) -> RunMetrics,
    {
        catch_unwind(AssertUnwindSafe(|| self.drive(d, device, run, token()))).map_err(|p| self.fail(p)).ok()
    }

    /// Abort the batch on panic `p`, keeping the first panic to re-raise,
    /// and wake idle lanes to see the abort.
    fn fail(&self, p: Box<dyn Any + Send>) {
        self.abort.store(true, Ordering::Relaxed);
        let mut fp = self.first_panic.lock().expect(POISONED);
        if fp.is_none() {
            *fp = Some(p);
        }
        drop(fp);
        self.progress.bump();
    }

    /// The resident loop of device `d`'s lane: pop own shard from the
    /// front, steal from eligible victims' backs, block on the progress
    /// condvar when neither applies.
    ///
    /// The lane holds `token`, one of its device pool's execution tokens,
    /// for the whole batch, shares it with the lane handle its jobs launch
    /// through (a job may keep a clone of that handle, and the token with
    /// it), and lends it back to the pool for the duration of every idle
    /// wait, so pool launches submitted on the same device can always make
    /// progress even on a one-worker pool. Exactly the contract parked
    /// flag waits use.
    fn drive<F>(&self, d: usize, device: &Gpu, run: &F, token: Token) -> DeviceLane
    where
        F: Fn(&Gpu, J) -> RunMetrics,
    {
        let token = Arc::new(token);
        let gpu = device.for_lane(Arc::clone(&self.abort), Arc::clone(&token));
        let mut lane = DeviceLane {
            ordinal: d,
            jobs: 0,
            stolen: 0,
            kernel_calls: 0,
            stats: BlockStats::default(),
            modeled_seconds: 0.0,
            busy_seconds: 0.0,
        };
        loop {
            if self.abort.load(Ordering::Relaxed) {
                break;
            }
            // The pop must be a standalone statement: as a match scrutinee the
            // guard temporary would live for the whole match, so `steal`
            // would lock other shards while this lane's shard is still held —
            // two lanes stealing at once then deadlock ABBA on each other's
            // shard mutex.
            let own = self.shards[d].lock().expect(POISONED).pop_front();
            let (job, stolen) = match own {
                Some(j) => (Some(j), false),
                None if self.policy == StealPolicy::StealOnIdle => (self.steal(d), true),
                None => (None, false),
            };
            match job {
                Some(j) => {
                    let t0 = Instant::now();
                    match catch_unwind(AssertUnwindSafe(|| run(&gpu, j))) {
                        Ok(rm) => {
                            lane.busy_seconds += t0.elapsed().as_secs_f64();
                            lane.jobs += 1;
                            lane.stolen += stolen as usize;
                            lane.kernel_calls += rm.kernel_calls();
                            lane.stats.merge(&rm.total_stats());
                            lane.modeled_seconds += run_seconds(gpu.config(), &rm);
                            self.clocks[d].store(lane.modeled_seconds.to_bits(), Ordering::Release);
                            // Clock advance may make this lane a legal victim:
                            // broadcast after the store so a waiter that wakes
                            // is guaranteed to see the new clock.
                            self.progress.bump();
                            if self.policy == StealPolicy::StealOnIdle {
                                // Give the waiters just woken a scheduling
                                // window to observe eligibility and steal
                                // before this lane claims its next job: a
                                // resident lane runs inline and would
                                // otherwise drain its whole shard in one
                                // scheduler slice on a loaded single-core
                                // host, starving thieves of the window.
                                std::thread::yield_now();
                            }
                        }
                        Err(p) => {
                            self.fail(p);
                            break;
                        }
                    }
                }
                None => {
                    // Capture the generation before re-checking the shards:
                    // any progress after this point bumps it, so the wait
                    // below cannot sleep through the wake that would have
                    // made a victim eligible.
                    let seen = self.progress.current();
                    if self.shards.iter().all(|sh| sh.lock().expect(POISONED).is_empty()) {
                        break;
                    }
                    if self.policy == StealPolicy::Disabled {
                        // Static shards: remaining jobs belong to other
                        // devices; this lane is done.
                        break;
                    }
                    // Work exists but this lane's simulated clock is ahead of
                    // every victim's: wait, with the token lent, for
                    // another lane to report progress (their clocks advance
                    // and eligibility returns, or the shards empty and the
                    // loop exits).
                    let _loan = token.lend(&mut lane.stats.token_handoffs);
                    self.progress.wait_past(seen);
                }
            }
        }
        lane
    }

    /// Take a job from the back of the most-loaded victim whose simulated
    /// clock is at or ahead of the thief's, or `None` if no victim is
    /// eligible right now.
    fn steal(&self, thief: usize) -> Option<J> {
        let my_clock = f64::from_bits(self.clocks[thief].load(Ordering::Acquire));
        let mut best: Option<(usize, usize)> = None; // (victim, backlog)
        for (v, shard) in self.shards.iter().enumerate() {
            if v == thief {
                continue;
            }
            let victim_clock = f64::from_bits(self.clocks[v].load(Ordering::Acquire));
            if my_clock > victim_clock {
                continue; // stealing would unbalance the simulated schedule
            }
            let backlog = shard.lock().expect(POISONED).len();
            if backlog > 0 && best.is_none_or(|(_, b)| backlog > b) {
                best = Some((v, backlog));
            }
        }
        best.and_then(|(v, _)| self.shards[v].lock().expect(POISONED).pop_back())
    }
}

/// What one device of a group did during a batch.
///
/// `jobs`, `stolen`, `busy_seconds`, and `modeled_seconds` describe the
/// *schedule* and therefore legitimately vary run to run; `stats` summed
/// across all lanes is schedule-independent (each job's counters are
/// deterministic wherever it runs).
#[derive(Debug, Clone)]
pub struct DeviceLane {
    /// The device's position in the group.
    pub ordinal: usize,
    /// Jobs this device completed (seeded + stolen).
    pub jobs: usize,
    /// Subset of `jobs` taken from another device's shard.
    pub stolen: usize,
    /// Kernel launches performed across all jobs.
    pub kernel_calls: usize,
    /// Aggregated access counters of every job this device ran.
    pub stats: BlockStats,
    /// Simulated seconds of device time charged by the timing model.
    pub modeled_seconds: f64,
    /// Host wall-clock seconds this lane spent executing jobs.
    pub busy_seconds: f64,
}

/// Snapshot of a whole multi-device batch: per-device breakdown plus
/// schedule-independent totals.
#[derive(Debug, Clone)]
pub struct GroupMetrics {
    /// Per-device records, in ordinal order.
    pub lanes: Vec<DeviceLane>,
    /// Host wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl GroupMetrics {
    /// Total jobs completed across all devices.
    pub fn total_jobs(&self) -> usize {
        self.lanes.iter().map(|l| l.jobs).sum()
    }

    /// Total jobs that migrated off their seeded shard.
    pub fn steal_events(&self) -> usize {
        self.lanes.iter().map(|l| l.stolen).sum()
    }

    /// Total kernel launches across all devices.
    pub fn kernel_calls(&self) -> usize {
        self.lanes.iter().map(|l| l.kernel_calls).sum()
    }

    /// Aggregated counters over every job of the batch. A per-job sum, so
    /// independent of which device ran which job.
    pub fn total_stats(&self) -> BlockStats {
        let mut t = BlockStats::default();
        for l in &self.lanes {
            t.merge(&l.stats);
        }
        t
    }

    /// The schedule-independent counter subset: bit-identical across
    /// device counts, steal interleavings, and dispatch orders.
    pub fn deterministic(&self) -> BlockStats {
        self.total_stats().deterministic()
    }

    /// Total device-to-device transfers across all lanes. Like every
    /// other `stats` field this is a per-job sum, so it is deterministic;
    /// the per-lane split shows *which* device paid for each exchange.
    pub fn d2d_transfers(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.d2d_transfers).sum()
    }

    /// Total bytes moved across the device interconnect, summed over
    /// lanes.
    pub fn d2d_bytes(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.d2d_bytes).sum()
    }

    /// Total timed condvar parks across all lanes (scheduling artifact,
    /// masked from the deterministic counter set; recorded to show how
    /// often waits actually slept).
    pub fn park_events(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.park_events).sum()
    }

    /// Total publisher-initiated wakes of parked waiters across all lanes
    /// (`park_events - wakeups` parks expired on the timeout instead).
    pub fn wakeups(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.wakeups).sum()
    }

    /// Total worker-token handoffs (a blocked wait or an idle resident
    /// driver returning its execution token to the pool) across all lanes.
    pub fn token_handoffs(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.token_handoffs).sum()
    }

    /// Modeled completion time of the batch: the devices run in parallel,
    /// so the batch is done when the busiest lane's simulated clock is.
    pub fn modeled_completion_seconds(&self) -> f64 {
        self.lanes.iter().map(|l| l.modeled_seconds).fold(0.0, f64::max)
    }

    /// Total simulated device-seconds across all lanes (the serial-
    /// equivalent work; `modeled_completion_seconds` over this is the
    /// load-balance quality).
    pub fn modeled_device_seconds(&self) -> f64 {
        self.lanes.iter().map(|l| l.modeled_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalBuffer;
    use crate::launch::LaunchConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One trivial job: fill a buffer and report the launch's metrics.
    fn fill_job(gpu: &Gpu, val: u64) -> RunMetrics {
        let buf = GlobalBuffer::<u64>::zeroed(64);
        let mut rm = RunMetrics::default();
        rm.push(gpu.launch(LaunchConfig::new("fill", 4, 32), |ctx| {
            let base = ctx.block_idx() * 16;
            buf.fill(ctx, base, 16, val);
        }));
        assert_eq!(buf.to_vec(), vec![val; 64]);
        rm
    }

    #[test]
    fn group_shape_and_worker_split() {
        let g = DeviceGroup::new(DeviceConfig::titan_v(), 4);
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        for (d, gpu) in g.devices().iter().enumerate() {
            assert_eq!(gpu.ordinal(), d);
            assert_eq!(gpu.config().host_workers, 2, "8 workers split 4 ways");
            assert_eq!(gpu.mode(), ExecMode::Concurrent);
        }
        // The split never goes below two workers per member.
        let g = DeviceGroup::new(DeviceConfig::tiny(), 4);
        assert!(g.devices().iter().all(|gpu| gpu.config().host_workers == 2));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_group_rejected() {
        let _ = DeviceGroup::new(DeviceConfig::tiny(), 0);
    }

    #[test]
    fn batch_totals_are_independent_of_device_count() {
        // Reference: the same jobs one after another on a sequential device.
        let jobs = || (0..12u64).map(|i| i + 1).collect::<Vec<_>>();
        let seq = Gpu::new(DeviceConfig::tiny());
        let (mut want, mut want_seconds) = (BlockStats::default(), 0.0);
        for v in jobs() {
            let rm = fill_job(&seq, v);
            want.merge(&rm.total_stats());
            want_seconds += run_seconds(seq.config(), &rm);
        }
        let one = DeviceGroup::new(DeviceConfig::tiny(), 1).run_batch(jobs(), StealPolicy::StealOnIdle, fill_job);
        assert_eq!(one.steal_events(), 0, "one device has nobody to steal from");
        for nd in [1, 2, 4] {
            let g = DeviceGroup::new(DeviceConfig::tiny(), nd);
            for policy in [StealPolicy::Disabled, StealPolicy::StealOnIdle] {
                let got = g.run_batch(jobs(), policy, fill_job);
                assert_eq!(got.total_jobs(), 12, "{nd} devices, {policy:?}");
                assert_eq!(got.kernel_calls(), 12, "{nd} devices, {policy:?}");
                assert_eq!(
                    got.deterministic(),
                    want.deterministic(),
                    "{nd} devices, {policy:?}: totals must not depend on the schedule"
                );
                assert!(
                    (got.modeled_device_seconds() - want_seconds).abs() < 1e-12,
                    "{nd} devices, {policy:?}: modeled work is a per-job sum"
                );
            }
        }
    }

    #[test]
    fn static_sharding_splits_contiguously() {
        let g = DeviceGroup::new(DeviceConfig::tiny(), 4);
        let m = g.run_batch((0..10u64).collect(), StealPolicy::Disabled, fill_job);
        let per_lane: Vec<usize> = m.lanes.iter().map(|l| l.jobs).collect();
        // 10 jobs over 4 devices: [2, 3, 2, 3] by the [d*m/nd, (d+1)*m/nd) rule.
        assert_eq!(per_lane, vec![2, 3, 2, 3]);
        assert_eq!(m.steal_events(), 0);
    }

    #[test]
    fn empty_batch_completes() {
        let g = DeviceGroup::new(DeviceConfig::tiny(), 2);
        let m = g.run_batch(Vec::<u64>::new(), StealPolicy::StealOnIdle, fill_job);
        assert_eq!(m.total_jobs(), 0);
        assert_eq!(m.lanes.len(), 2);
        assert_eq!(m.modeled_completion_seconds(), 0.0);
    }

    #[test]
    fn job_panic_aborts_the_batch_and_reraises() {
        let g = DeviceGroup::new(DeviceConfig::tiny(), 2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            g.run_batch((0..8u64).collect(), StealPolicy::StealOnIdle, |gpu, i| {
                if i == 3 {
                    panic!("job fault");
                }
                fill_job(gpu, i)
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job fault");
    }

    #[test]
    fn all_work_on_one_shard_is_stolen_to_balance() {
        // One job over two devices seeds shards [0, 1]: device 1 owns it, so
        // lane 0 (which starts first, on the caller) runs it only by a steal.
        let g = DeviceGroup::new(DeviceConfig::tiny(), 2);
        let m = g.run_batch(vec![7u64], StealPolicy::StealOnIdle, fill_job);
        assert_eq!(m.total_jobs(), 1);
        assert_eq!(m.steal_events(), m.lanes[0].jobs, "lane 0 ran only a stolen job");
        assert_eq!(m.lanes[1].stolen, 0, "lane 1 has no victim with work");
    }

    #[test]
    fn lanes_run_on_the_caller_and_on_device_pools() {
        // No thread is spawned per batch: lane 0 is the calling thread, and
        // lane 1 a thread of device 1's pool (a worker or a standby).
        let mut cfg = DeviceConfig::tiny();
        cfg.host_workers = 2;
        let g = DeviceGroup::with_member_config(cfg, 2);
        let caller = std::thread::current().id();
        for call in 0..2 {
            let ran = Mutex::new(Vec::new());
            // Eight jobs over two devices shard as [0..4), [4..8).
            g.run_batch((0..8u64).collect(), StealPolicy::Disabled, |gpu, j| {
                let t = std::thread::current();
                ran.lock().unwrap().push((j, t.id(), t.name().map(String::from)));
                fill_job(gpu, j)
            });
            let ran = ran.into_inner().unwrap();
            assert_eq!(ran.len(), 8);
            for (j, id, name) in ran {
                if j < 4 {
                    assert_eq!(id, caller, "call {call}: lane 0 ran job {j} off the caller");
                } else {
                    let name = name.unwrap_or_default();
                    assert!(name.starts_with("gpu-sim-d1-"), "call {call}: lane 1 ran job {j} on {name:?}");
                }
            }
        }
    }

    #[test]
    fn a_lane_grid_that_outlasts_a_wake_gets_a_helper() {
        // A lane follows the wake rule of every caller-run launch: four
        // blocks of about 2 ms each, launched twice by a job on a two-worker
        // device, run at least one block off the lane's thread the second
        // time, once the pool has measured the shape. (A lane that ran
        // every grid inline would run all four on its own thread.)
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 2 {
            eprintln!("skipped: a helper needs a second core, the host has {cores}");
            return;
        }
        let mut cfg = DeviceConfig::tiny();
        cfg.host_workers = 2;
        let g = DeviceGroup::with_member_config(cfg, 1);
        let ran_on = Mutex::new(Vec::new());
        g.run_batch(vec![()], StealPolicy::Disabled, |gpu, ()| {
            let mut rm = RunMetrics::default();
            for _ in 0..2 {
                let ids = Mutex::new(Vec::new());
                rm.push(gpu.launch(LaunchConfig::new("busy-2ms", 4, 32), |_ctx| {
                    let t = Instant::now();
                    while t.elapsed() < std::time::Duration::from_millis(2) {
                        std::hint::spin_loop();
                    }
                    ids.lock().unwrap().push(std::thread::current().id());
                }));
                *ran_on.lock().unwrap() = ids.into_inner().unwrap();
            }
            rm
        });
        let lane = std::thread::current().id();
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 4);
        assert!(ran_on.iter().any(|&id| id != lane), "the second launch ran all four blocks on the lane");
    }
}
