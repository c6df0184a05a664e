//! Batches on resident lanes: a [`DeviceGroup`] of independent simulated
//! GPUs, and several lanes of one device ([`Gpu::run_batch`]), both run by
//! one lane driver that hands out jobs in order from one counter.
//!
//! A `DeviceGroup` owns N fully independent [`Gpu`] instances. Following
//! real multi-GPU systems (Zhang et al., *"A Study of Single and
//! Multi-device Synchronization Methods in Nvidia GPUs"*), the devices
//! share **nothing** on the device side by default: each has its own
//! worker pool and its own global-memory buffers, and the scheduler in
//! this module is host code handing whole jobs to devices.
//! Cooperative workloads (`satcore::coop`) additionally let kernels on
//! different devices exchange *boundary data* through peer-visible
//! buffers: those transfers are charged through
//! [`BlockStats::charge_d2d`](crate::metrics::BlockStats::charge_d2d) and
//! their cross-device flag waits through
//! [`StatusBoard::wait_at_least_remote`](crate::sync::StatusBoard::wait_at_least_remote),
//! pricing the interconnect (`DeviceConfig::d2d_bandwidth` /
//! `d2d_latency`) separately from local memory.
//!
//! ## The scheduler
//!
//! A batch is its jobs in order and one atomic counter. Each lane claims
//! the next job index with a fetch-add, runs that job, and claims again,
//! until the counter passes the end of the batch or the batch aborts; then
//! it exits. This is the paper's virtual block IDs (Section IV, Fig. 9)
//! lifted from blocks to lanes: whichever lane is free takes the batch's
//! next job, so jobs are claimed in job order. A batch whose jobs wait
//! only on jobs with smaller indices (cooperative bands do) therefore
//! cannot deadlock: the smallest unfinished job has been claimed by a
//! running lane, and every job it waits on has finished.
//!
//! Which lane runs a job is the host's choice, and the model does not
//! follow it. [`GroupMetrics`] keeps each job's modeled seconds in job
//! order and replays the same rule on modeled clocks: job *k* goes to the
//! device whose modeled clock is earliest, as devices claiming from one
//! counter would. The modeled makespan is a function of the jobs alone,
//! the same on any host.
//!
//! ## Resident lanes
//!
//! No thread is spawned per batch. The calling thread drives lane 0, and
//! lane *d* ≥ 1 is one job on device *d*'s pool queue, run by a warm pool
//! thread (named `gpu-sim-d{d}-…`; every lane of [`Gpu::run_batch`] is on
//! the one device's pool). Each lane hands its jobs a lane handle: a clone
//! of its device's [`Gpu`] whose launches run on the lane's thread, against
//! one scratch arena reused from job to job. A grid runs inline there
//! unless the device pool's measurements say a helper would arrive before
//! its blocks run out; then it is a pool job that the lane runs beside the
//! helpers it wakes, the rule every concurrent launch follows. Cross-job
//! ordering is whatever the jobs enforce themselves (e.g. `StatusBoard`
//! flags). A lane holds one execution token of its device pool while it
//! runs — it executes blocks, so it takes a worker's place — and keeps it
//! through its blocks' parked flag waits. A lane with nothing left to
//! claim exits and returns its token.
//!
//! No lane waits for a thread forever. Lanes 1.. are queued before lane 0
//! runs its first job, a pool thread takes a queued lane before any pool
//! job, and it takes the lane's token whatever the count. A pool thread
//! busy when a lane is queued is helping a grid whose blocks wait only on
//! blocks already started and on jobs with smaller indices, all claimed by
//! lanes that are running, so it returns to the queue and finds the lane.
//!
//! A job that panics aborts the batch: the lanes' blocks, helper-run ones
//! included, carry the batch's abort flag, so a peer waiting on the dead
//! job's flag fails fast, and the first panic is re-raised to the caller
//! once every lane has stopped.
//!
//! ## Several lanes of one device
//!
//! [`Gpu::run_batch`] runs the same driver with every lane on one device:
//! lane 0 on the caller, lanes 1.. on the device's own pool threads, each
//! holding one of its execution tokens, so one device overlaps as many
//! jobs as its pool has workers. Lanes claim from the same counter. A
//! job's kernels run in order on the lane that claimed it, which is all a
//! CUDA stream promises. The lanes share one simulated device, which the
//! timing model prices as one, so the call reports the batch's counters
//! and kernel count but no modeled clock: a clock per lane would claim an
//! overlap the model does not price.
//!
//! ## Accounting
//!
//! Each job reports its [`RunMetrics`]; lanes aggregate them into
//! [`DeviceLane`] records and the group returns a [`GroupMetrics`]
//! snapshot. Totals over the whole batch are sums of per-job counters and
//! therefore independent of which lane ran which job — bit-identical
//! across device counts, host schedules, and dispatch orders (the
//! scheduling-parity suite asserts this). The per-lane records describe
//! the host's schedule and vary from run to run.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use crate::device::DeviceConfig;
use crate::executor::{LaneTask, PoolShared, Token};
use crate::launch::{DispatchOrder, ExecMode, Gpu};
use crate::metrics::{BlockStats, RunMetrics};
use crate::timing::run_seconds;

/// N independent simulated GPUs driven as one throughput tier.
///
/// All devices share the same [`DeviceConfig`] hardware description but
/// nothing else: memory and worker pools are per-device, and only the host
/// moves data or work between them.
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
    /// pool, which runs every grid inline on its lane) and for callers
    /// that have already budgeted host workers themselves.
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

    /// Run a batch of jobs on the group's resident lanes, one per device;
    /// see the [module docs](self) for the scheduling discipline.
    ///
    /// The calling thread drives lane 0 on a token claimed from device 0's
    /// pool; lanes 1..N are queued on devices 1..N's pools and run on
    /// their threads. Every lane claims jobs in order from one counter, so
    /// job *k* may wait on jobs `0..k` but never on a later one. Lanes
    /// borrow the batch and `run`, so this waits for every lane to stop
    /// before it returns or re-raises a panic.
    ///
    /// `run` executes one job on the lane handle of whichever device
    /// claimed it and reports its metrics; it must not assume *which*
    /// device it gets. Its launches run on the lane, inline or with helpers
    /// from the lane's device pool. A panic inside a job, or inside any
    /// block it launches, aborts the whole batch and is re-raised here.
    pub fn run_batch<J, F>(&self, jobs: Vec<J>, run: F) -> GroupMetrics
    where
        J: Send,
        F: Fn(&Gpu, J) -> RunMetrics + Sync,
    {
        let started = Instant::now();
        let devices: Vec<&Gpu> = self.devices.iter().collect();
        // Each job's modeled seconds, stored by the lane that ran it.
        let job_seconds = Mutex::new(vec![0.0; jobs.len()]);
        let lanes = run_lanes(&devices, jobs.into_iter().enumerate().collect(), &|gpu: &Gpu, (k, job)| {
            let rm = run(gpu, job);
            job_seconds.lock().expect(POISONED)[k] = run_seconds(gpu.config(), &rm);
            rm
        });
        GroupMetrics {
            lanes,
            job_seconds: job_seconds.into_inner().expect(POISONED),
            wall_seconds: started.elapsed().as_secs_f64(),
        }
    }
}

impl Gpu {
    /// Run a batch of jobs on `lanes` resident lanes of this one device,
    /// and return the kernel count and the summed counters of every job;
    /// see the [module docs](crate::group) for the lanes.
    ///
    /// `lanes` is clamped to `1..=`[`Gpu::host_parallelism`]. Lane 0 runs
    /// on the calling thread and lanes 1.. on the device's pool threads,
    /// whatever this handle's [`ExecMode`]. Lanes claim jobs in order from
    /// one counter, so jobs on one lane never overlap and jobs on different
    /// lanes may. `run` and a panic behave as in [`DeviceGroup::run_batch`].
    pub fn run_batch<J, F>(&self, lanes: usize, jobs: Vec<J>, run: F) -> (usize, BlockStats)
    where
        J: Send,
        F: Fn(&Gpu, J) -> RunMetrics + Sync,
    {
        let handles = vec![self; lanes.clamp(1, self.host_parallelism())];
        let mut total = (0, BlockStats::default());
        for lane in run_lanes(&handles, jobs, &run) {
            total.0 += lane.kernel_calls;
            total.1.merge(&lane.stats);
        }
        total
    }
}

/// The one batch driver: run `jobs` on one resident lane per handle of
/// `devices`, and return the lanes' records in lane order.
///
/// The calling thread drives lane 0 on a token claimed from `devices[0]`'s
/// pool; lanes 1.. are queued on their handles' pools and run on their
/// threads. Lanes borrow the batch and `run`, so this waits for every lane
/// to stop before it returns or re-raises a panic.
fn run_lanes<J, F>(devices: &[&Gpu], jobs: Vec<J>, run: &F) -> Vec<DeviceLane>
where
    J: Send,
    F: Fn(&Gpu, J) -> RunMetrics + Sync,
{
    let nd = devices.len();
    let batch = Batch {
        jobs: jobs.into_iter().map(|j| Mutex::new(Some(j))).collect(),
        next: AtomicUsize::new(0),
        abort: Arc::new(AtomicBool::new(false)),
        first_panic: Mutex::new(None),
    };
    // Start every pool first: starting one can panic, which must not
    // happen once a lane borrows this frame.
    let pools: Vec<&Arc<PoolShared>> = devices.iter().map(|gpu| gpu.pool_shared()).collect();
    let (report, reports) = mpsc::channel();
    for (d, &gpu) in devices.iter().enumerate().skip(1) {
        let (batch, report) = (&batch, report.clone());
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
    lanes[0] = batch.drive_caught(0, devices[0], run, || Token::claim(pools[0]));
    for (d, lane) in reports {
        lanes[d] = lane;
    }
    if let Some(p) = batch.first_panic.into_inner().expect(POISONED) {
        resume_unwind(p);
    }
    lanes.into_iter().map(|l| l.expect("a lane stops without a record only by panicking")).collect()
}

/// Jobs run under `catch_unwind` and never while a batch lock is held, so
/// a poisoned lock means the scheduler itself panicked.
const POISONED: &str = "batch scheduler panicked while holding a batch lock";

/// The state the lanes of one batch share.
struct Batch<J> {
    /// Job *k*, until the lane that claims index *k* takes it.
    jobs: Vec<Mutex<Option<J>>>,
    /// The next unclaimed job index; it passes `jobs.len()` once every job
    /// is claimed. `Relaxed`: it publishes no data, since each job moves
    /// through its own slot's mutex.
    next: AtomicUsize,
    /// Set by the first job to panic; every lane's blocks poll it.
    abort: Arc<AtomicBool>,
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
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

    /// Abort the batch on panic `p`, keeping the first panic to re-raise.
    fn fail(&self, p: Box<dyn Any + Send>) {
        self.abort.store(true, Ordering::Relaxed);
        let mut fp = self.first_panic.lock().expect(POISONED);
        if fp.is_none() {
            *fp = Some(p);
        }
    }

    /// The resident loop of lane `d`: claim the next job index, run that
    /// job, and repeat until the counter passes the end of the batch or the
    /// batch aborts.
    ///
    /// The lane holds `token`, one of its device pool's execution tokens,
    /// while it runs, and shares it with the lane handle its jobs launch
    /// through (a job may keep a clone of that handle, and the token with
    /// it). Returning drops the lane's share, so a lane with nothing left
    /// to claim gives its token back to the pool while other lanes finish.
    fn drive<F>(&self, d: usize, device: &Gpu, run: &F, token: Token) -> DeviceLane
    where
        F: Fn(&Gpu, J) -> RunMetrics,
    {
        let gpu = device.for_lane(Arc::clone(&self.abort), Arc::new(token));
        let mut lane =
            DeviceLane { ordinal: d, jobs: 0, kernel_calls: 0, stats: BlockStats::default(), busy_seconds: 0.0 };
        while !self.abort.load(Ordering::Relaxed) {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.jobs.get(k) else { break };
            let job = slot.lock().expect(POISONED).take().expect("a job index is claimed once");
            let t0 = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| run(&gpu, job))) {
                Ok(rm) => {
                    lane.busy_seconds += t0.elapsed().as_secs_f64();
                    lane.jobs += 1;
                    lane.kernel_calls += rm.kernel_calls();
                    lane.stats.merge(&rm.total_stats());
                }
                Err(p) => {
                    self.fail(p);
                    break;
                }
            }
        }
        lane
    }
}

/// The modeled clocks of `devices` devices that claim a batch's jobs in
/// order: job *k* goes to the device whose clock is earliest (ties to the
/// lowest ordinal) and advances it by `job_seconds[k]`.
///
/// This is the rule the lanes follow on the host, replayed on modeled
/// clocks, so a batch's modeled schedule depends on its jobs alone and not
/// on which lane the host let claim what.
pub(crate) fn replay(job_seconds: &[f64], devices: usize) -> Vec<f64> {
    let mut clocks = vec![0.0; devices];
    for &s in job_seconds {
        let d = (1..devices).fold(0, |e, d| if clocks[d] < clocks[e] { d } else { e });
        clocks[d] += s;
    }
    clocks
}

/// What one lane of a batch did on the host.
///
/// `jobs`, `kernel_calls`, `stats` and `busy_seconds` describe the host's
/// schedule and therefore vary run to run; `stats` summed across all lanes
/// is schedule-independent (each job's counters are deterministic wherever
/// it runs).
#[derive(Debug, Clone)]
pub struct DeviceLane {
    /// The lane's device position in the group.
    pub ordinal: usize,
    /// Jobs this lane claimed and completed.
    pub jobs: usize,
    /// Kernel launches performed across all jobs.
    pub kernel_calls: usize,
    /// Aggregated access counters of every job this lane ran.
    pub stats: BlockStats,
    /// Host wall-clock seconds this lane spent executing jobs.
    pub busy_seconds: f64,
}

/// Snapshot of a whole multi-device batch: per-lane host records, each
/// job's modeled seconds, and schedule-independent totals.
#[derive(Debug, Clone)]
pub struct GroupMetrics {
    /// Per-lane records, in ordinal order.
    pub lanes: Vec<DeviceLane>,
    /// Each job's modeled seconds ([`run_seconds`] of its metrics), in job
    /// order, whichever lane ran it.
    pub job_seconds: Vec<f64>,
    /// Host wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl GroupMetrics {
    /// Total jobs completed across all lanes.
    pub fn total_jobs(&self) -> usize {
        self.lanes.iter().map(|l| l.jobs).sum()
    }

    /// Always 0: lanes claim jobs from one counter, and nothing is stolen.
    /// Kept only because perfbench (`perfbench/src/book.rs`) reads it for
    /// its `group.steal_events` metric; it goes with that metric.
    pub fn steal_events(&self) -> usize {
        0
    }

    /// Total kernel launches across all lanes.
    pub fn kernel_calls(&self) -> usize {
        self.lanes.iter().map(|l| l.kernel_calls).sum()
    }

    /// Aggregated counters over every job of the batch. A per-job sum, so
    /// independent of which lane ran which job.
    pub fn total_stats(&self) -> BlockStats {
        let mut t = BlockStats::default();
        for l in &self.lanes {
            t.merge(&l.stats);
        }
        t
    }

    /// The schedule-independent counter subset: bit-identical across
    /// device counts, host schedules, and dispatch orders.
    pub fn deterministic(&self) -> BlockStats {
        self.total_stats().deterministic()
    }

    /// Total device-to-device transfers across all lanes. Like every
    /// other `stats` field this is a per-job sum, so it is deterministic;
    /// the per-lane split shows which lane's jobs paid for each exchange.
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

    /// Always 0: a parked wait keeps its execution token, and nothing is
    /// handed off. Kept only because perfbench (`perfbench/src/book.rs`)
    /// reads it for its `group.token_handoffs` metric; it goes with that
    /// metric.
    pub fn token_handoffs(&self) -> u64 {
        0
    }

    /// Each device's modeled clock at the end of the batch, replaying
    /// `job_seconds` on the group's devices: job *k* runs on the device
    /// whose clock is earliest, ties to the lowest ordinal.
    pub fn device_clocks(&self) -> Vec<f64> {
        replay(&self.job_seconds, self.lanes.len())
    }

    /// Modeled completion time of the batch: the devices run in parallel,
    /// so the batch is done when the latest replayed clock is.
    pub fn modeled_completion_seconds(&self) -> f64 {
        self.device_clocks().into_iter().fold(0.0, f64::max)
    }

    /// Total simulated device-seconds, the replayed clocks' sum (the
    /// serial-equivalent work; `modeled_completion_seconds` over this is
    /// the load-balance quality).
    pub fn modeled_device_seconds(&self) -> f64 {
        self.device_clocks().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalBuffer;
    use crate::launch::LaunchConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ThreadId;
    use std::time::Duration;

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

    /// Spin until `flag` is set, failing after five seconds.
    fn until(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !flag.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "the other lane never got there");
            std::hint::spin_loop();
        }
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
        let (mut want, mut want_seconds) = (BlockStats::default(), Vec::new());
        for v in jobs() {
            let rm = fill_job(&seq, v);
            want.merge(&rm.total_stats());
            want_seconds.push(run_seconds(seq.config(), &rm));
        }
        for nd in [1, 2, 4] {
            let got = DeviceGroup::new(DeviceConfig::tiny(), nd).run_batch(jobs(), fill_job);
            assert_eq!(got.total_jobs(), 12, "{nd} devices");
            assert_eq!(got.kernel_calls(), 12, "{nd} devices");
            assert_eq!(got.deterministic(), want.deterministic(), "{nd} devices: totals follow no schedule");
            assert_eq!(got.job_seconds, want_seconds, "{nd} devices: job seconds are kept in job order");
            assert_eq!(got.device_clocks(), replay(&want_seconds, nd), "{nd} devices: the clocks are the replay");
        }
        for lanes in [1, 2, 4] {
            let (kernels, stats) = seq.run_batch(lanes, jobs(), fill_job);
            assert_eq!(kernels, 12, "{lanes} lanes of one device");
            assert_eq!(stats.deterministic(), want.deterministic(), "{lanes} lanes of one device");
        }
    }

    #[test]
    fn replay_gives_each_job_to_the_earliest_clock() {
        // Job 0 holds device 0 for 3 s while device 1 runs jobs 1 to 3.
        assert_eq!(replay(&[3.0, 1.0, 1.0, 1.0], 2), vec![3.0, 3.0]);
        // Equal clocks go to the lowest ordinal: job 0 to device 0, then
        // job 1 to device 1, and job 2 back to device 0 at 1 s.
        assert_eq!(replay(&[1.0, 2.0, 0.5], 2), vec![1.5, 2.0]);
        assert_eq!(replay(&[2.0, 2.0, 2.0], 3), vec![2.0, 2.0, 2.0]);
        assert_eq!(replay(&[2.0, 2.0], 3), vec![2.0, 2.0, 0.0]);
    }

    #[test]
    fn replay_on_one_device_is_the_sum_and_of_no_jobs_is_zero() {
        assert_eq!(replay(&[0.5, 0.25, 2.0], 1), vec![2.75]);
        assert_eq!(replay(&[], 3), vec![0.0; 3]);
    }

    #[test]
    fn empty_batch_completes() {
        let g = DeviceGroup::new(DeviceConfig::tiny(), 2);
        let m = g.run_batch(Vec::<u64>::new(), fill_job);
        assert_eq!(m.total_jobs(), 0);
        assert_eq!(m.lanes.len(), 2);
        assert_eq!(m.modeled_completion_seconds(), 0.0);
    }

    #[test]
    fn job_panic_aborts_the_batch_and_reraises() {
        let g = DeviceGroup::new(DeviceConfig::tiny(), 2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            g.run_batch((0..8u64).collect(), |gpu, i| {
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

    /// Run eight jobs through `batch` and return, per job, the id and name
    /// of the thread that ran it. Job 0 returns only once job 1 has
    /// started, so a lane other than job 0's runs job 1.
    fn threads_of(batch: impl FnOnce(&(dyn Fn(&Gpu, u64) -> RunMetrics + Sync))) -> Vec<(ThreadId, String)> {
        let started = AtomicBool::new(false);
        let ran = Mutex::new(vec![None; 8]);
        batch(&|gpu, j| {
            let t = std::thread::current();
            ran.lock().unwrap()[j as usize] = Some((t.id(), t.name().unwrap_or_default().to_string()));
            match j {
                0 => until(&started),
                1 => started.store(true, Ordering::SeqCst),
                _ => {}
            }
            fill_job(gpu, j)
        });
        ran.into_inner().unwrap().into_iter().map(|t| t.expect("every job ran")).collect()
    }

    #[test]
    fn lanes_run_on_the_caller_and_on_device_pools() {
        // No thread is spawned per batch: lane 0 is the calling thread, and
        // lane 1 a worker of device 1's pool.
        let mut cfg = DeviceConfig::tiny();
        cfg.host_workers = 2;
        let g = DeviceGroup::with_member_config(cfg, 2);
        let caller = std::thread::current().id();
        for call in 0..2 {
            let ran = threads_of(|run| {
                g.run_batch((0..8u64).collect(), run);
            });
            for (j, (id, name)) in ran.iter().enumerate() {
                assert!(
                    *id == caller || name.starts_with("gpu-sim-d1-"),
                    "call {call}: job {j} ran on {name:?}, neither the caller nor device 1's pool"
                );
            }
            assert_ne!(ran[0].0, ran[1].0, "call {call}: jobs 0 and 1 ran on one lane");
        }
    }

    #[test]
    fn one_device_lanes_run_on_the_caller_and_on_its_pool() {
        // The lanes of one device are its caller and its own pool threads,
        // whatever the handle's mode, and their number is clamped to
        // 1..=host_parallelism (here 2).
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 2 {
            eprintln!("skipped: a second lane needs a second core, the host has {cores}");
            return;
        }
        let mut cfg = DeviceConfig::tiny();
        cfg.host_workers = 2;
        let gpu = Gpu::new(cfg);
        assert_eq!(gpu.host_parallelism(), 2);
        let caller = std::thread::current().id();
        for asked in [0, 1] {
            let (kernels, _) = gpu.run_batch(asked, (0..8u64).collect(), |gpu, j| {
                assert_eq!(std::thread::current().id(), caller, "{asked} lanes asked: job {j} ran off the caller");
                fill_job(gpu, j)
            });
            assert_eq!(kernels, 8);
        }
        for asked in [2, 5, 2] {
            let ran = threads_of(|run| {
                let (kernels, _) = gpu.run_batch(asked, (0..8u64).collect(), run);
                assert_eq!(kernels, 8);
            });
            for (j, (id, name)) in ran.iter().enumerate() {
                assert!(
                    *id == caller || name.starts_with("gpu-sim-d0-"),
                    "{asked} lanes asked: job {j} ran on {name:?}, neither the caller nor the device's pool"
                );
            }
            assert_ne!(ran[0].0, ran[1].0, "{asked} lanes asked: jobs 0 and 1 ran on one lane");
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
        g.run_batch(vec![()], |gpu, ()| {
            let mut rm = RunMetrics::default();
            for _ in 0..2 {
                let ids = Mutex::new(Vec::new());
                rm.push(gpu.launch(LaunchConfig::new("busy-2ms", 4, 32), |_ctx| {
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_millis(2) {
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
