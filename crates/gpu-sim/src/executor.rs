//! The persistent worker-pool executor behind [`ExecMode::Concurrent`]
//! and batch lanes (crate-private; the public surface is
//! [`crate::launch::Gpu`] and [`crate::group::DeviceGroup`]).
//!
//! One pool of OS threads is started lazily per [`Gpu`](crate::launch::Gpu)
//! lineage and parked between launches. A launch becomes a [`LaunchJob`]
//! whose blocks are claimed off an atomic cursor (bounded residency,
//! exactly like SMs picking blocks off the hardware scheduler) by the
//! thread that starts the job and by any idle workers it wakes to help;
//! each merges its blocks' counters into the job's total once, when its
//! claim loop exits. A synchronous
//! [`Gpu::launch`](crate::launch::Gpu::launch) runs its own job
//! ([`PoolShared::join`]) and then waits only for the blocks helpers still
//! hold; so does a batch lane's launch of a grid that gets helpers, on the
//! token the lane holds for its batch. Every job is run by the thread that
//! launched it, so a worker only ever helps. The workers persist, so no
//! launch pays thread spawn/join, and each keeps a warm [`ScratchArena`]
//! across launches. A batch (`DeviceGroup::run_batch`, `Gpu::run_batch`)
//! runs its lanes 1..N as [`LaneTask`]s on their devices' pools, so no
//! batch pays thread spawn/join either.
//!
//! ## Measured helper wakes
//!
//! Waking a helper costs a wake latency before the helper runs a block, so
//! it pays only when the blocks left to the helpers outlast that latency.
//! The pool measures both sides itself, with no tuning constant: the
//! latency from a notify to the woken thread's return from its wait, and
//! the host time per block of each launch shape the last time it ran.
//! [`PoolShared::publish`] wakes helpers only when the second, times the
//! blocks left after the publisher's own, exceeds the first ([`helpers`]);
//! a shape the pool has never run wakes as many as can help. A batch lane
//! asks the same rule first ([`PoolShared::helpers_for`]) and runs a grid
//! that would wake nobody inline, recording its block time
//! ([`PoolShared::record_block_secs`]) as a completed job does; a caller
//! publishes its job either way, because a block that parks hands its
//! token only to work it finds on the queue.
//!
//! Panic discipline: the first panicking block wins; its payload is stored
//! on the job, the job's `aborted` flag stops other blocks from starting
//! (and makes soft-sync waiters of the dead producer fail fast via
//! [`BlockCtx::abort_requested`]), and the launching thread re-raises the
//! payload from [`LaunchJob::wait`], so `#[should_panic]` tests behave
//! identically in sequential and concurrent mode.
//!
//! ## Execution tokens and parked-wait handoff
//!
//! Bounded residency is enforced by **tokens**, not by the thread count:
//! the pool starts with one token per base worker, and a thread must hold
//! a [`Token`] to claim blocks off a job. Token holders are the pool's
//! workers, the caller of a synchronous launch while it runs its own job,
//! and batch lanes for their whole batch, whose pool jobs run on it too.
//! After start-up only [`Token`] changes the count: [`Token::claim`] takes
//! a token, dropping it returns it, and [`Token::lend`] hands it back while
//! its holder blocks. When a block parks inside a flag wait
//! ([`crate::sync::StatusBoard::wait_at_least`]), it lends its token so
//! the residency slot is not wasted on a sleeper: an idle thread is woken
//! — or, if none exists and unclaimed work is pending, a bounded
//! *standby* thread is spawned — to run other ready blocks. When the
//! [`Loan`] ends, the block takes its token back without blocking: the
//! token count may go transiently negative ("debt", repaid by the next
//! release), because making a woken waiter queue for a token could
//! deadlock the very chain that woke it. OS threads may therefore briefly
//! oversubscribe the base worker count (bounded by `max_threads`), but
//! *runnable* block count stays residency-bounded and parked threads burn
//! no CPU.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::device::DeviceConfig;
use crate::launch::{BlockCtx, LaunchConfig, ScratchArena};
use crate::metrics::{BlockStats, KernelMetrics};
use crate::trace::{EventKind, Tracer};

/// A caller-owned kernel body with its lifetime erased.
///
/// Lifetime contract: a `BorrowedBody` is only created by launching
/// threads that block on [`LaunchJob::wait`] before returning, and every
/// call happens while some block of the job is still unfinished — i.e.
/// strictly before `wait` can return — so the closure outlives all uses.
/// The `'static` in the field type is an erasure, not a claim.
pub(crate) struct BorrowedBody(&'static (dyn Fn(&mut BlockCtx) + Sync));

impl BorrowedBody {
    pub(crate) fn new(body: &(dyn Fn(&mut BlockCtx) + Sync)) -> Self {
        // SAFETY: lifetime erasure under the contract in the type docs.
        BorrowedBody(unsafe {
            std::mem::transmute::<&(dyn Fn(&mut BlockCtx) + Sync), &'static (dyn Fn(&mut BlockCtx) + Sync)>(
                body,
            )
        })
    }
}

#[derive(Default)]
struct JobState {
    complete: bool,
    panic: Option<Box<dyn Any + Send>>,
    /// Counters of the blocks run so far: each thread that runs blocks of
    /// the job merges its share in once, before its `finished` bump.
    stats: BlockStats,
    /// Host seconds the threads that ran blocks spent in their claim loops,
    /// merged alongside `stats`.
    busy_secs: f64,
}

/// One kernel launch in flight on the pool.
pub(crate) struct LaunchJob {
    lc: LaunchConfig,
    /// Hash of the launch shape (label, blocks, threads per block): the
    /// pool's key for this shape's block time.
    shape: u64,
    cfg: DeviceConfig,
    /// Dispatch permutation; empty means identity (in-order dispatch).
    order: Vec<usize>,
    body: BorrowedBody,
    tracer: Option<Arc<Tracer>>,
    /// Next unclaimed dispatch position.
    cursor: AtomicUsize,
    /// Number of blocks fully executed (or skipped after an abort).
    finished: AtomicUsize,
    /// Set when any block panics: remaining blocks are skipped and
    /// soft-sync waiters fail fast.
    aborted: AtomicBool,
    /// A batch lane's job uses its batch's abort flag in place of
    /// `aborted`, so its blocks also stop for a panic elsewhere in the
    /// batch, and a panic among them stops the batch. Other jobs keep the
    /// flag inline: allocating one per launch cost perfbench's
    /// `batch_tiny` about 4% of its images per second on a 2-vCPU host.
    batch_abort: Option<Arc<AtomicBool>>,
    state: Mutex<JobState>,
    done: Condvar,
    started: Instant,
}

/// The pool's key for a launch shape's block time: a hash of its label,
/// block count and threads per block.
pub(crate) fn shape_of(lc: &LaunchConfig) -> u64 {
    let mut h = DefaultHasher::new();
    (&lc.label, lc.blocks, lc.threads_per_block).hash(&mut h);
    h.finish()
}

impl LaunchJob {
    /// A job of `lc`, whose [`shape_of`] is `shape`, that aborts on its own
    /// flag, or on `batch_abort`, a group batch's, for a lane's job.
    pub(crate) fn new(
        lc: LaunchConfig,
        shape: u64,
        cfg: DeviceConfig,
        order: Vec<usize>,
        body: BorrowedBody,
        tracer: Option<Arc<Tracer>>,
        batch_abort: Option<Arc<AtomicBool>>,
    ) -> Self {
        LaunchJob {
            shape,
            lc,
            cfg,
            order,
            body,
            tracer,
            cursor: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            batch_abort,
            state: Mutex::new(JobState::default()),
            done: Condvar::new(),
            started: Instant::now(),
        }
    }

    pub(crate) fn blocks(&self) -> usize {
        self.lc.blocks
    }

    /// The flag this job's blocks abort on.
    fn aborted(&self) -> &AtomicBool {
        self.batch_abort.as_deref().unwrap_or(&self.aborted)
    }

    /// Whether every dispatch position has been claimed by some thread
    /// (the job may still be executing its last blocks).
    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.lc.blocks
    }

    /// Claim and execute blocks until none remain, on `token`.
    ///
    /// Counters and completion are batched per thread: each thread (a
    /// worker, or the launch's caller) merges its blocks' stats into a
    /// local [`BlockStats`], then merges that into the job's total under
    /// the job's lock and bumps `finished` once, when its claim loop exits.
    /// Totals do not depend on the split because field-wise addition is
    /// associative, and exactly one thread (the one whose bump brings
    /// `finished` to `blocks`) triggers completion.
    fn run_blocks(&self, token: &Token, arena: &mut ScratchArena) {
        let started = Instant::now();
        let mut local = BlockStats::default();
        let mut ran = 0usize;
        loop {
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= self.lc.blocks {
                break;
            }
            ran += 1;
            if !self.aborted().load(Ordering::Relaxed) {
                let block_idx = if self.order.is_empty() { k } else { self.order[k] };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut ctx = BlockCtx::for_worker(
                        block_idx,
                        self.lc.threads_per_block,
                        &self.cfg,
                        self.tracer.as_deref(),
                        arena,
                        self.aborted(),
                        Some(token),
                    );
                    ctx.trace(EventKind::BlockStart);
                    (self.body.0)(&mut ctx);
                    ctx.trace(EventKind::BlockEnd);
                    std::mem::take(&mut ctx.stats)
                }));
                match result {
                    Ok(stats) => local.merge(&stats),
                    Err(p) => {
                        // Keep the payload before raising the flag: a block
                        // that fails because it saw the flag then never
                        // displaces the panic that raised it.
                        let mut st = self.state.lock().unwrap();
                        if st.panic.is_none() {
                            st.panic = Some(p);
                        }
                        drop(st);
                        self.aborted().store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        if ran > 0 {
            {
                let mut st = self.state.lock().unwrap();
                st.stats.merge(&local);
                st.busy_secs += started.elapsed().as_secs_f64();
            }
            if self.finished.fetch_add(ran, Ordering::AcqRel) + ran == self.lc.blocks {
                self.complete(&token.pool);
            }
        }
    }

    /// All blocks done: record the shape's block time for the wake rule and
    /// wake the launching thread.
    fn complete(&self, pool: &PoolShared) {
        // Only a grid of two or more blocks is ever published for helpers.
        if self.lc.blocks > 1 {
            let secs = self.state.lock().unwrap().busy_secs / self.lc.blocks as f64;
            pool.record_block_secs(self.shape, secs);
        }
        self.state.lock().unwrap().complete = true;
        self.done.notify_all();
    }

    /// Block until every block has executed, then return the launch's
    /// aggregated metrics, whose `host_seconds` spans the job's creation to
    /// now; re-raises the first panic.
    pub(crate) fn wait(&self) -> KernelMetrics {
        let mut st = self.state.lock().unwrap();
        while !st.complete {
            st = self.done.wait(st).unwrap();
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
        let stats = std::mem::take(&mut st.stats);
        drop(st);
        self.lc.clone().finish(stats, self.started.elapsed().as_secs_f64())
    }
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Arc<LaunchJob>>,
    /// Batch lanes waiting for a worker ([`PoolShared::submit_lane`]).
    lanes: VecDeque<LaneTask>,
    shutdown: bool,
    /// Execution tokens available for claiming blocks. Starts at the base
    /// worker count; afterwards only [`Token`] and its [`Loan`] change it.
    /// May go *negative*: a woken waiter takes its lent token back in debt
    /// rather than blocking, so the wake chain that satisfied its flag can
    /// never deadlock on token starvation. The debt is repaid by the next
    /// release before any new block is admitted.
    tokens: isize,
    /// Threads currently blocked on `ready` (no job, or no token).
    idle: usize,
    /// Total live threads (base workers + standbys), bounding standby
    /// spawns at `PoolShared::max_threads`.
    threads: usize,
    /// When the oldest notify not yet answered by a woken sleeper was sent.
    /// Set only while some thread is idle, so each stamp pairs with a real
    /// sleeper, and taken by the first thread to return from its wait.
    wake_stamp: Option<Instant>,
    /// Wake latency: the mean over every sample since the pool started.
    /// Its history is a sum and a count, however many wakes the pool makes.
    wake_secs: Mean,
    /// Host seconds per block of each launch shape ([`shape_of`]) the last
    /// time it ran. The map holds one number per distinct shape the pool
    /// has run, so the program's kernels bound it (about 600 for the whole
    /// Table III roster at 1K²–4K²).
    block_secs: HashMap<u64, f64, BuildHasherDefault<PassThrough>>,
}

/// The hasher of `block_secs`, whose keys are already hashes: it passes a
/// key through instead of hashing it a second time, which every lookup and
/// record of a launch would pay for.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// A plain mean of samples, kept as their sum and count.
#[derive(Default)]
struct Mean {
    sum: f64,
    count: u64,
}

impl Mean {
    fn add(&mut self, sample: f64) {
        self.sum += sample;
        self.count += 1;
    }

    fn get(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// How many idle workers a job of `blocks` blocks should wake on a pool of
/// `workers` workers when one thread already runs it: none when
/// `block_secs`, the shape's measured host time per block, times the
/// `blocks - 1` blocks left to helpers is within `wake_secs`, the pool's
/// measured wake latency (a helper would arrive after the blocks are
/// gone); otherwise as many as can help, `min(blocks - 1, workers - 1)`.
/// A shape never measured, or a pool that has never timed a wake, wakes
/// as many as can help.
fn helpers(blocks: usize, workers: usize, block_secs: Option<f64>, wake_secs: Option<f64>) -> usize {
    let left = blocks - 1;
    match (block_secs, wake_secs) {
        (Some(block), Some(wake)) if left as f64 * block <= wake => 0,
        _ => left.min(workers - 1),
    }
}

/// State shared between the pool handle and its worker threads.
pub(crate) struct PoolShared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    /// Number of base worker threads (== the initial token count);
    /// lets `publish` wake only as many workers as a small job can use.
    workers: usize,
    /// Hard cap on live threads: base workers plus the standby budget.
    /// Once reached, a park stops spawning replacements — unclaimed
    /// blocks then wait for a running thread to free up, which the
    /// virtual-ID wait discipline guarantees always happens.
    max_threads: usize,
    /// Owning device's group ordinal, for standby thread names.
    ordinal: usize,
    /// Join handles of standby threads spawned by [`Token::lend`]; joined
    /// alongside the base workers at pool drop.
    standby: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolShared {
    /// Enqueue a job of at least two blocks that the calling thread runs
    /// itself, on a token it already holds, and wake idle workers to help
    /// only if they would arrive in time: [`helpers`] decides from the
    /// shape's measured block time and the pool's measured wake latency,
    /// here, before the caller runs its first block. The job goes on the
    /// queue even when none is woken, because a block that parks hands its
    /// token only to work it finds there.
    pub(crate) fn publish(&self, job: Arc<LaunchJob>) {
        debug_assert!(job.blocks() > 1, "a one-block job gives helpers nothing to do");
        let mut q = self.queue.lock().unwrap();
        let wake = self.helpers_in(&q, job.shape, job.blocks());
        q.jobs.push_back(job);
        self.wake(q, wake);
    }

    /// How many helpers a grid of `blocks` blocks of launch shape `shape`
    /// ([`shape_of`]) would wake now, when one thread already runs it:
    /// [`helpers`], from the pool's own measurements.
    pub(crate) fn helpers_for(&self, shape: u64, blocks: usize) -> usize {
        self.helpers_in(&self.queue.lock().unwrap(), shape, blocks)
    }

    fn helpers_in(&self, q: &QueueState, shape: u64, blocks: usize) -> usize {
        helpers(blocks, self.workers, q.block_secs.get(&shape).copied(), q.wake_secs.get())
    }

    /// Record `secs`, the host time per block of a grid of launch shape
    /// `shape` that just ran, for [`helpers`]: a completed pool job's, or a
    /// lane's inline run's.
    pub(crate) fn record_block_secs(&self, shape: u64, secs: f64) {
        self.queue.lock().unwrap().block_secs.insert(shape, secs);
    }

    /// Queue a batch lane ([`LaneTask`]) for one of this pool's threads and
    /// wake one. A lane waits for a thread but never for a token: the
    /// thread that takes it claims one whatever the count, as
    /// [`Token::claim`] does, so a lane cannot wait behind tokens its own
    /// batch holds. Every thread either returns to the queue, where lanes
    /// come first, or parks in a wait that lends its token, which wakes or
    /// spawns a thread for a pending lane ([`Token::lend`]).
    ///
    /// Recovers a poisoned queue lock: a batch that has queued one lane
    /// must not unwind before that lane is done with its borrows.
    pub(crate) fn submit_lane(&self, lane: LaneTask) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.lanes.push_back(lane);
        self.wake(q, 1);
    }

    /// Release the queue lock and wake `n` idle threads (all of them from
    /// `workers` up), stamping the notify when a thread is idle so the one
    /// that wakes can time the wake.
    fn wake(&self, mut q: MutexGuard<'_, QueueState>, n: usize) {
        if n > 0 && q.idle > 0 {
            q.wake_stamp.get_or_insert_with(Instant::now);
        }
        drop(q);
        if n >= self.workers {
            self.ready.notify_all();
        } else {
            for _ in 0..n {
                self.ready.notify_one();
            }
        }
    }

    /// Run a synchronous launch's job on the calling thread, on `arena` and
    /// `token`, until every block is claimed; the caller then waits
    /// ([`LaunchJob::wait`]) for the blocks helpers still hold.
    ///
    /// The caller holds `token` before the job is published, so a helper it
    /// wakes cannot take the token it is about to run on, and its blocks
    /// carry it, so a parked wait among them lends it to a helper. A plain
    /// caller passes a fresh [`Token::claim`] and drops it before waiting,
    /// because `wait` re-raises a block's panic; a batch lane passes the
    /// token it holds for its whole batch.
    pub(crate) fn join(&self, job: &Arc<LaunchJob>, arena: &mut ScratchArena, token: &Token) {
        debug_assert!(std::ptr::eq(Arc::as_ptr(&token.pool), self), "a token of another pool");
        self.publish(Arc::clone(job));
        job.run_blocks(token, arena);
    }

    /// Number of worker threads serving this pool.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    fn spawn_standby(self: &Arc<Self>) {
        let shared = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("gpu-sim-d{}-standby", self.ordinal))
            .spawn(move || worker_loop(&shared))
            .expect("spawn gpu-sim standby worker");
        self.standby.lock().unwrap().push(h);
    }
}

/// What a pool thread takes off the queue.
enum Work {
    Launch(Arc<LaunchJob>),
    Lane(LaneTask),
}

fn worker_loop(shared: &Arc<PoolShared>) {
    // The arena persists across launches: a worker that just ran kernel K
    // serves kernel K+1's scratch takes from warm buffers.
    let mut arena = ScratchArena::new();
    loop {
        let (token, work) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                // Jobs whose blocks are all claimed complete on the threads
                // still running them; drop them from the queue so a newer
                // job's helpers find it first.
                q.jobs.retain(|j| !j.exhausted());
                // A batch lane takes a token whatever the count, like
                // `Token::claim` (see `PoolShared::submit_lane`).
                if let Some(lane) = q.lanes.pop_front() {
                    break (Token::take(shared, &mut q), Work::Lane(lane));
                }
                // Claiming blocks needs both a job and an execution token —
                // a thread without a token (all handed to parked waiters'
                // debts) waits like one without work, keeping runnable
                // blocks residency-bounded.
                if q.tokens > 0 {
                    if let Some(j) = q.jobs.front().map(Arc::clone) {
                        break (Token::take(shared, &mut q), Work::Launch(j));
                    }
                }
                if q.shutdown {
                    return;
                }
                q.idle += 1;
                q = shared.ready.wait(q).unwrap();
                q.idle -= 1;
                if let Some(sent) = q.wake_stamp.take() {
                    q.wake_secs.add(sent.elapsed().as_secs_f64());
                }
            }
        };
        match work {
            Work::Launch(job) => job.run_blocks(&token, &mut arena),
            Work::Lane(lane) => (lane.0)(token),
        }
    }
}

/// A batch lane queued on its device pool ([`PoolShared::submit_lane`]):
/// the pool thread that takes it calls it once, with the token it claimed
/// for it.
pub(crate) struct LaneTask(Box<dyn FnOnce(Token) + Send + 'static>);

impl LaneTask {
    /// Erase the lifetime of a lane that borrows its batch.
    ///
    /// # Safety
    /// Whatever `lane` borrows must outlive the task: the submitter may not
    /// return or unwind until the task has been called or dropped (the
    /// batch driver in `group.rs` waits until every lane has dropped its
    /// end of a channel). The `'static` in the field type is an erasure,
    /// not a claim.
    pub(crate) unsafe fn new<'a>(lane: impl FnOnce(Token) + Send + 'a) -> Self {
        let lane: Box<dyn FnOnce(Token) + Send + 'a> = Box::new(lane);
        // SAFETY: lifetime erasure under the contract above.
        LaneTask(unsafe {
            std::mem::transmute::<Box<dyn FnOnce(Token) + Send + 'a>, Box<dyn FnOnce(Token) + Send + 'static>>(lane)
        })
    }
}

/// One of a pool's execution tokens, held by a thread while it runs blocks
/// (see the module docs). [`Token::claim`] takes it, [`Token::lend`] hands
/// it back while its holder blocks, and dropping it returns it. Its drops
/// recover a poisoned queue lock instead of panicking, because they also
/// run during unwinds; every update under that lock is a single step.
pub(crate) struct Token {
    pool: Arc<PoolShared>,
}

impl Token {
    /// Take one of `pool`'s tokens, for a thread outside the worker loop
    /// that runs blocks itself: the caller of a synchronous launch for its
    /// own job, or a group batch's caller for lane 0. Never blocks: the
    /// claimant is runnable, and should the pool already be
    /// oversubscribed, the count goes into debt, which the debt model
    /// tolerates by design.
    pub(crate) fn claim(pool: &Arc<PoolShared>) -> Token {
        Token::take(pool, &mut pool.queue.lock().unwrap())
    }

    /// [`Token::claim`] under the queue lock the caller holds.
    fn take(pool: &Arc<PoolShared>, q: &mut QueueState) -> Token {
        q.tokens -= 1;
        Token { pool: Arc::clone(pool) }
    }

    /// Lend the token back to the pool while its holder blocks, and count
    /// the handoff in `handoffs` (a `token_handoffs` counter). If a group
    /// lane is pending, or unclaimed blocks are and a token is now free, an
    /// idle thread is woken to take it — or, when every live thread is
    /// busy or parked, a standby thread is spawned, up to `max_threads`.
    pub(crate) fn lend(&self, handoffs: &mut u64) -> Loan<'_> {
        *handoffs += 1;
        let pool = &self.pool;
        let mut q = pool.queue.lock().unwrap();
        q.tokens += 1;
        if !q.lanes.is_empty() || (q.tokens > 0 && q.jobs.iter().any(|j| !j.exhausted())) {
            if q.idle > 0 {
                pool.wake(q, 1);
            } else if q.threads < pool.max_threads {
                q.threads += 1;
                drop(q);
                pool.spawn_standby();
            }
        }
        Loan(self)
    }
}

impl Drop for Token {
    /// Return the token and wake a waiting thread when claimable work is
    /// pending. Drops exhausted jobs from the queue first: a job published
    /// with no helper woken would otherwise stay there until some worker
    /// next looked.
    fn drop(&mut self) {
        let mut q = self.pool.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.tokens += 1;
        q.jobs.retain(|j| !j.exhausted());
        if q.tokens > 0 && q.idle > 0 && !q.jobs.is_empty() {
            self.pool.wake(q, 1);
        }
    }
}

/// A [`Token`] lent back to its pool ([`Token::lend`]). Dropping the loan,
/// on a satisfied wait and on an unwind alike, takes the token back
/// without blocking: the count may go negative (debt), transiently
/// oversubscribing runnable threads instead of risking a deadlock in which
/// every token is held by a thread that transitively depends on this
/// holder.
#[must_use = "the token is taken back when the loan drops"]
pub(crate) struct Loan<'a>(&'a Token);

impl Drop for Loan<'_> {
    fn drop(&mut self) {
        self.0.pool.queue.lock().unwrap_or_else(PoisonError::into_inner).tokens -= 1;
    }
}

/// The persistent worker pool: threads are spawned once, parked on a
/// condvar between launches, and joined when the owning engine drops.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn the workers. More workers than host cores cannot add
    /// throughput — the simulation is CPU-bound — but oversubscription
    /// makes soft-sync spin loops fight the producers they wait on for the
    /// same cores, so cap at the host's real parallelism.
    ///
    /// `ordinal` is the owning device's position in its
    /// [`DeviceGroup`](crate::group::DeviceGroup) (0 for standalone GPUs);
    /// it only flavors thread names so stack traces and profilers can tell
    /// the devices of a group apart.
    pub(crate) fn new(cfg: &DeviceConfig, ordinal: usize) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let workers = cfg.host_workers.max(1).min(cores);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                tokens: workers as isize,
                threads: workers,
                ..QueueState::default()
            }),
            ready: Condvar::new(),
            workers,
            // Standby budget: enough replacements that a full complement
            // of simultaneously parked workers still leaves `workers`
            // runnable threads plus headroom for parked standbys, without
            // letting a pathological park storm spawn without bound.
            max_threads: workers + workers.max(8),
            ordinal,
            standby: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpu-sim-d{ordinal}-w{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn gpu-sim pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The state the pool's threads share with launches and lanes.
    pub(crate) fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }
}

impl Drop for WorkerPool {
    /// Shut the pool down and join its threads — all but the current one,
    /// which exits through the shutdown flag once it returns to the queue:
    /// joining itself would panic. Nothing the crate runs on a pool thread
    /// owns a handle to the engine today (a block or lane borrows it from a
    /// caller that holds one), so no public path drops the last handle
    /// there; the skip keeps a future owner — a lane task that outlives its
    /// batch, say — from turning that drop into a panic, and the unit test
    /// `the_last_engine_handle_dropped_on_a_pool_thread_does_not_join_it`
    /// reaches it through a lane task that owns the last handle.
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.ready_all();
        let me = std::thread::current().id();
        // Standby threads spawned by parked-wait handoffs exit through the
        // same shutdown flag; no launch is in flight at engine drop, so
        // they are all idle by now.
        let standby = std::mem::take(&mut *self.shared.standby.lock().unwrap());
        for h in self.handles.drain(..).chain(standby) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

impl WorkerPool {
    fn ready_all(&self) {
        self.shared.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{DeviceGroup, StealPolicy};
    use crate::launch::{ExecMode, Gpu};
    use crate::metrics::RunMetrics;
    use crate::sync::{DeviceCounter, StatusBoard};
    use std::time::Duration;

    fn tokens(pool: &PoolShared) -> isize {
        pool.queue.lock().unwrap().tokens
    }

    /// Completion wakes a launch's caller before a helper drops its token,
    /// so poll, within a bound, for the count to settle at its base.
    fn assert_back_at_base(pool: &PoolShared, path: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while tokens(pool) != pool.workers as isize && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(tokens(pool), pool.workers as isize, "token count after {path}");
    }

    /// A two-block grid whose first-claimed block waits on the other's
    /// flag: on a one-token pool it finishes only through a loan.
    fn handoff_kernel() -> impl Fn(&mut BlockCtx) + Send + Sync + 'static {
        let (board, counter) = (StatusBoard::new(1), DeviceCounter::new());
        move |ctx| {
            if counter.next(ctx) == 0 {
                board.wait_at_least(ctx, 0, 1);
            } else {
                board.publish(ctx, 0, 1);
            }
        }
    }

    #[test]
    fn an_unmeasured_shape_wakes_every_helper_it_can_use() {
        assert_eq!(helpers(3, 2, None, Some(50e-6)), 1);
        assert_eq!(helpers(8, 4, None, Some(50e-6)), 3);
        assert_eq!(helpers(2, 4, None, None), 1, "a grid of two blocks uses one helper");
        assert_eq!(helpers(3, 2, Some(1e-6), None), 1, "no wake timed yet");
    }

    #[test]
    fn blocks_that_finish_within_a_wake_wake_nobody() {
        // 2R1W's three-block k2 on a one-tile image: 2 x 1 µs left against
        // a 50 µs wake.
        assert_eq!(helpers(3, 2, Some(1e-6), Some(50e-6)), 0);
        assert_eq!(helpers(6, 4, Some(10e-6), Some(50e-6)), 0, "5 x 10 µs is not past 50 µs");
    }

    #[test]
    fn a_large_grid_wakes_its_helpers() {
        assert_eq!(helpers(64, 4, Some(10e-6), Some(50e-6)), 3);
        assert_eq!(helpers(3, 2, Some(30e-6), Some(50e-6)), 1, "2 x 30 µs outlasts 50 µs");
    }

    #[test]
    fn a_one_worker_pool_wakes_nobody() {
        assert_eq!(helpers(64, 1, None, None), 0);
        assert_eq!(helpers(64, 1, Some(1e-3), Some(10e-6)), 0);
    }

    #[test]
    fn a_kept_lane_handle_keeps_its_token_claimed() {
        // A job may keep a clone of its lane handle past the batch: the
        // lane's token stays claimed, and usable, until the clone drops.
        let mut cfg = DeviceConfig::tiny();
        cfg.host_workers = 1;
        let group = DeviceGroup::with_member_config(cfg, 2);
        let kept = Mutex::new(Vec::new());
        group.run_batch(vec![0usize, 1], StealPolicy::Disabled, |gpu, _| {
            kept.lock().unwrap().push(gpu.clone());
            RunMetrics::default()
        });
        for gpu in group.devices() {
            assert_eq!(tokens(gpu.pool_shared()), 0, "a kept lane handle holds its token");
        }
        for gpu in kept.lock().unwrap().iter() {
            gpu.launch(LaunchConfig::new("late", 2, 32), |_ctx| {});
        }
        drop(kept);
        for gpu in group.devices() {
            assert_back_at_base(gpu.pool_shared(), "dropping kept lane handles");
        }
    }

    #[test]
    fn every_token_path_returns_the_pool_to_its_base_count() {
        let mut cfg = DeviceConfig::tiny();
        cfg.host_workers = 1;
        let gpu = Gpu::new(cfg.clone()).with_mode(ExecMode::Concurrent);
        let pool = Arc::clone(gpu.pool_shared());

        let km = gpu.launch(LaunchConfig::new("handoff", 2, 32), handoff_kernel());
        assert!(km.stats.token_handoffs >= 1, "the caller's waiting block lends its token");
        assert_back_at_base(&pool, "a caller-run handoff launch");

        let fault = catch_unwind(AssertUnwindSafe(|| {
            gpu.launch(LaunchConfig::new("all-panic", 4, 32), |_ctx| panic!("block fault"))
        }));
        assert!(fault.is_err());
        assert_back_at_base(&pool, "a caller-run launch whose blocks all panic");

        // Three jobs over two devices shard as [j0], [j1, j2]. Job 0 is
        // enormous in simulated time, so lane 0 cannot steal afterwards:
        // job 1 holds lane 1 until lane 0 idles with its token lent. A
        // one-worker pool never wakes a helper, so lanes run these grids
        // inline and in order, and no grid here waits on a later block.
        let group = DeviceGroup::with_member_config(cfg.clone(), 2);
        let pool0 = Arc::clone(group.device(0).pool_shared());
        for fault in [false, true] {
            let skewed = AtomicBool::new(false);
            let batch = catch_unwind(AssertUnwindSafe(|| {
                group.run_batch(vec![0usize, 1, 2], StealPolicy::StealOnIdle, |gpu, j| {
                    let bytes = if j == 0 { 1u64 << 36 } else { 1 << 12 };
                    let mut rm = RunMetrics::default();
                    rm.push(gpu.launch(LaunchConfig::new("charge", 2, 32), |ctx| {
                        if fault && j == 2 {
                            panic!("job fault");
                        }
                        ctx.stats.charge_global_read(bytes / 8, bytes / 2);
                    }));
                    if j == 0 {
                        skewed.store(true, Ordering::SeqCst);
                    } else if j == 1 {
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while !(skewed.load(Ordering::SeqCst) && tokens(&pool0) == 1) {
                            assert!(Instant::now() < deadline, "lane 0 never lent its token");
                            std::thread::yield_now();
                        }
                    }
                    rm
                })
            }));
            assert_eq!(batch.is_err(), fault, "only the faulting batch re-raises");
            if let Ok(gm) = batch {
                assert!(gm.token_handoffs() >= 1, "lane 0 idled with its token lent");
            }
            for gpu in group.devices() {
                assert_back_at_base(gpu.pool_shared(), "a skewed group batch");
            }
        }

        // A lane grid on the pool path: on a two-worker device a shape the
        // pool has never measured wakes a helper, so the lane runs the grid
        // as a pool job on its own token. Each block waits for the other to
        // start, so one runs on the lane and one on the helper. The lane
        // then waits for the helper's block with its token still claimed,
        // which the helper sees as both tokens taken. Then the same grid
        // whose helper-run block panics: the batch re-raises that panic.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            eprintln!("skipped the pool-run lane grid and the two-lane batch: both need a second core");
            return;
        }
        cfg.host_workers = 2;
        let until = |flag: &AtomicBool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !flag.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "the other thread never got there");
                std::hint::spin_loop();
            }
        };
        for fault in [false, true] {
            let group = DeviceGroup::with_member_config(cfg.clone(), 1);
            let pool = Arc::clone(group.device(0).pool_shared());
            let batch = catch_unwind(AssertUnwindSafe(|| {
                group.run_batch(vec![()], StealPolicy::Disabled, |gpu, ()| {
                    let lane = std::thread::current().id();
                    let (helper_started, lane_done) = (AtomicBool::new(false), AtomicBool::new(false));
                    let mut rm = RunMetrics::default();
                    rm.push(gpu.launch(LaunchConfig::new("lane-grid", 2, 32), |_ctx| {
                        if std::thread::current().id() == lane {
                            until(&helper_started);
                            lane_done.store(true, Ordering::SeqCst);
                            return;
                        }
                        helper_started.store(true, Ordering::SeqCst);
                        if fault {
                            panic!("helper block fault");
                        }
                        until(&lane_done);
                        let t = Instant::now();
                        while t.elapsed() < Duration::from_millis(5) {
                            assert_eq!(tokens(&pool), 0, "the lane lent its token while it waited");
                        }
                    }));
                    rm
                })
            }));
            match batch {
                Ok(gm) => assert!(!fault && gm.kernel_calls() == 1),
                Err(p) => assert_eq!(p.downcast_ref::<&str>(), Some(&"helper block fault")),
            }
            assert_back_at_base(&pool, "a pool-run lane grid");
        }

        // Two lanes of one device: eight jobs shard as [0..4) on the caller
        // and [4..8) on a pool thread. Jobs 0 and 4 meet, so both lanes are
        // running, and then both of the pool's tokens are held. Then the
        // same batch with a panicking block in lane 1's shard: the batch
        // re-raises it.
        let gpu = Gpu::new(cfg).with_mode(ExecMode::Concurrent);
        let pool = Arc::clone(gpu.pool_shared());
        for fault in [false, true] {
            let (here, checked) = (AtomicBool::new(false), AtomicBool::new(false));
            let batch = catch_unwind(AssertUnwindSafe(|| {
                gpu.run_batch(2, (0..8usize).collect(), |gpu, j| {
                    if j == 0 {
                        here.store(true, Ordering::SeqCst);
                        until(&checked);
                    } else if j == 4 {
                        until(&here);
                        assert_eq!(tokens(&pool), 0, "each lane holds one of the pool's tokens");
                        checked.store(true, Ordering::SeqCst);
                    }
                    let mut rm = RunMetrics::default();
                    rm.push(gpu.launch(LaunchConfig::new("lane-job", 2, 32), |ctx| {
                        if fault && j == 6 {
                            panic!("lane job fault");
                        }
                        ctx.stats.charge_global_read(1, 4);
                    }));
                    rm
                })
            }));
            match batch {
                Ok((kernels, stats)) => assert!(!fault && kernels == 8 && stats.global_reads == 16),
                Err(p) => assert_eq!(p.downcast_ref::<&str>(), Some(&"lane job fault")),
            }
            assert_back_at_base(&pool, "a two-lane batch of one device");
        }
    }

    #[test]
    fn the_last_engine_handle_dropped_on_a_pool_thread_does_not_join_it() {
        // No public path drops a device's last handle on one of its own pool
        // threads (see `WorkerPool::drop`), so a lane task that owns the
        // handle does: the pool then drops on the thread that runs the task,
        // which must skip joining itself. Joining would panic that thread,
        // and the task's sender would drop unsent.
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
        let pool = Arc::clone(gpu.pool_shared());
        let (done, dropped) = std::sync::mpsc::channel();
        let lane = move |_token: Token| {
            drop(gpu);
            let _ = done.send(());
        };
        // SAFETY: the task owns everything it uses.
        pool.submit_lane(unsafe { LaneTask::new(lane) });
        dropped.recv_timeout(Duration::from_secs(10)).expect("dropping the pool on its own thread failed");
    }
}
