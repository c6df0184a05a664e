//! The persistent worker-pool executor behind [`ExecMode::Concurrent`]
//! (crate-private; the public surface is [`crate::launch::Gpu`] and
//! [`crate::stream::Stream`]).
//!
//! One pool of OS threads is started lazily per [`Gpu`](crate::launch::Gpu)
//! lineage and parked between launches. A launch becomes a [`LaunchJob`]
//! whose blocks are claimed off an atomic cursor (bounded residency,
//! exactly like SMs picking blocks off the hardware scheduler) by the
//! thread that starts the job and by the idle workers it wakes to help;
//! each absorbs its blocks' counters into the job's accumulator. A
//! synchronous [`Gpu::launch`](crate::launch::Gpu::launch) runs its own
//! job ([`PoolShared::join`]) and then waits only for the blocks helpers
//! still hold. The thread that finishes a [`Stream`](crate::stream::Stream)
//! job's last block runs the stream's next job, publishing it for helpers
//! when it has more than one block. The workers persist, so no launch pays
//! thread spawn/join, and each keeps a warm [`ScratchArena`] across
//! launches.
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
//! a token to claim blocks off a job. Token holders are the pool's
//! workers, the caller of a synchronous launch while it runs its own job,
//! and resident group lane drivers for their whole batch; the last two
//! claim through [`PoolShared::driver_begin`]. When a block parks inside a
//! flag wait ([`crate::sync::StatusBoard::wait_at_least`]), it returns its
//! token through [`PoolShared::park_begin`] so the residency slot is not
//! wasted on a sleeper: an idle thread is woken — or, if none exists and
//! unclaimed work is pending, a bounded *standby* thread is spawned — to
//! run other ready blocks. On wake the block re-acquires through
//! [`PoolShared::park_end`], which never blocks: the token count may go
//! transiently negative ("debt", repaid by the next release), because
//! making a woken waiter queue for a token could deadlock the very chain
//! that woke it. OS threads may therefore briefly oversubscribe the base
//! worker count (bounded by `max_threads`), but *runnable* block count
//! stays residency-bounded and parked threads burn no CPU.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::device::DeviceConfig;
use crate::launch::{BlockCtx, LaunchConfig, ScratchArena};
use crate::metrics::{BlockStats, KernelAccumulator, KernelMetrics};
use crate::stream::StreamShared;
use crate::trace::{EventKind, Tracer};

/// A type-erased kernel body.
pub(crate) enum Body {
    /// Borrowed from a blocking caller that outlives the job (a
    /// synchronous `Gpu::launch`).
    Borrowed(BorrowedBody),
    /// Owned closure from an asynchronous `Stream::enqueue`.
    Owned(Box<dyn Fn(&mut BlockCtx) + Send + Sync + 'static>),
}

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

impl Body {
    fn call(&self, ctx: &mut BlockCtx) {
        match self {
            Body::Borrowed(b) => (b.0)(ctx),
            Body::Owned(f) => f(ctx),
        }
    }
}

#[derive(Default)]
struct JobState {
    complete: bool,
    panic: Option<Box<dyn Any + Send>>,
}

/// One kernel launch in flight on the pool.
pub(crate) struct LaunchJob {
    lc: LaunchConfig,
    cfg: DeviceConfig,
    /// Dispatch permutation; empty means identity (in-order dispatch).
    order: Vec<usize>,
    body: Body,
    tracer: Option<Arc<Tracer>>,
    /// Next unclaimed dispatch position.
    cursor: AtomicUsize,
    /// Number of blocks fully executed (or skipped after an abort).
    finished: AtomicUsize,
    /// Set when any block panics: remaining blocks are skipped and
    /// soft-sync waiters fail fast.
    aborted: AtomicBool,
    acc: KernelAccumulator,
    state: Mutex<JobState>,
    done: Condvar,
    started: Instant,
    /// Stream to notify on completion (stream-ordered submission). Weak so
    /// queued jobs do not keep their stream alive in a reference cycle.
    stream: Option<Weak<StreamShared>>,
    /// Whether the owning stream should record this job's metrics at
    /// completion (false when a blocking caller collects them instead).
    record_in_stream: bool,
}

impl LaunchJob {
    pub(crate) fn new(
        lc: LaunchConfig,
        cfg: DeviceConfig,
        order: Vec<usize>,
        body: Body,
        tracer: Option<Arc<Tracer>>,
        stream: Option<Weak<StreamShared>>,
        record_in_stream: bool,
    ) -> Self {
        LaunchJob {
            lc,
            cfg,
            order,
            body,
            tracer,
            cursor: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            acc: KernelAccumulator::default(),
            state: Mutex::new(JobState::default()),
            done: Condvar::new(),
            started: Instant::now(),
            stream,
            record_in_stream,
        }
    }

    pub(crate) fn blocks(&self) -> usize {
        self.lc.blocks
    }

    pub(crate) fn record_in_stream(&self) -> bool {
        self.record_in_stream
    }

    /// Whether every dispatch position has been claimed by some thread
    /// (the job may still be executing its last blocks).
    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.lc.blocks
    }

    /// Whether any block of this job panicked.
    pub(crate) fn panicked(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Remove and return the stored panic payload, if any.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.state.lock().unwrap().panic.take()
    }

    /// Claim and execute blocks until none remain.
    ///
    /// Counters and completion are batched per thread: each thread (a
    /// worker, or the launch's caller) merges its blocks' stats into a
    /// local [`BlockStats`] and performs a single atomic absorb plus a
    /// single `finished` bump when its claim loop exits. For small grids
    /// this removes the per-block atomic storm that used to dominate launch
    /// overhead; totals are unchanged because field-wise addition is
    /// associative, and exactly one thread (the one whose bump brings
    /// `finished` to `blocks`) triggers completion.
    ///
    /// Returns the owning stream's next job when this call completed the
    /// job (see [`StreamShared::on_job_complete`]); the worker loop runs it
    /// next without a queue round-trip.
    fn run_blocks(&self, pool: &Arc<PoolShared>, arena: &mut ScratchArena) -> Option<Arc<LaunchJob>> {
        let mut local = BlockStats::default();
        let mut ran = 0usize;
        loop {
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= self.lc.blocks {
                break;
            }
            ran += 1;
            if !self.aborted.load(Ordering::Relaxed) {
                let block_idx = if self.order.is_empty() { k } else { self.order[k] };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut ctx = BlockCtx::for_worker(
                        block_idx,
                        self.lc.threads_per_block,
                        &self.cfg,
                        self.tracer.as_deref(),
                        arena,
                        &self.aborted,
                        Some(pool),
                    );
                    ctx.trace(EventKind::BlockStart);
                    self.body.call(&mut ctx);
                    ctx.trace(EventKind::BlockEnd);
                    std::mem::take(&mut ctx.stats)
                }));
                match result {
                    Ok(stats) => local.merge(&stats),
                    Err(p) => {
                        self.aborted.store(true, Ordering::Relaxed);
                        let mut st = self.state.lock().unwrap();
                        if st.panic.is_none() {
                            st.panic = Some(p);
                        }
                    }
                }
            }
        }
        if ran > 0 {
            self.acc.absorb(&local);
            if self.finished.fetch_add(ran, Ordering::AcqRel) + ran == self.lc.blocks {
                return self.complete(pool);
            }
        }
        None
    }

    /// All blocks done: wake the launching thread and advance the owning
    /// stream. May hand back the stream's next job for direct chaining.
    fn complete(&self, pool: &PoolShared) -> Option<Arc<LaunchJob>> {
        // Asynchronous stream launches (`record_in_stream`) are never
        // handed back to a caller, so no thread can be parked in `wait`;
        // skip the completion lock and wake for them — `sync` observes
        // completion through the stream's own idle condvar instead.
        if !(self.record_in_stream && self.stream.is_some()) {
            {
                let mut st = self.state.lock().unwrap();
                st.complete = true;
            }
            self.done.notify_all();
        }
        if let Some(stream) = self.stream.as_ref().and_then(Weak::upgrade) {
            return stream.on_job_complete(pool, self);
        }
        None
    }

    /// Complete a zero-block job inline (the pool never sees it).
    pub(crate) fn finish_empty(&self) {
        let mut st = self.state.lock().unwrap();
        st.complete = true;
        drop(st);
        self.done.notify_all();
    }

    /// Complete a job that will never run because an earlier launch in its
    /// stream panicked; blocking waiters observe `msg` as a panic.
    pub(crate) fn finish_cancelled(&self, msg: &str) {
        let mut st = self.state.lock().unwrap();
        st.panic = Some(Box::new(msg.to_string()));
        st.complete = true;
        drop(st);
        self.done.notify_all();
    }

    /// Block until every block has executed; re-raises the first panic.
    pub(crate) fn wait(&self) -> KernelMetrics {
        let mut st = self.state.lock().unwrap();
        while !st.complete {
            st = self.done.wait(st).unwrap();
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
        drop(st);
        self.metrics()
    }

    /// The launch's aggregated metrics. `host_seconds` spans submission to
    /// completion, so for stream jobs it includes time queued behind
    /// earlier launches of the same stream.
    pub(crate) fn metrics(&self) -> KernelMetrics {
        self.lc.clone().finish(self.acc.snapshot(), self.started.elapsed().as_secs_f64())
    }
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Arc<LaunchJob>>,
    shutdown: bool,
    /// Execution tokens available for claiming blocks. Starts at the base
    /// worker count; goes up when a thread finishes a job chain or its own
    /// job or parks in a flag wait ([`PoolShared::park_begin`]), down when
    /// a thread claims a job or un-parks ([`PoolShared::park_end`]). May go
    /// *negative*: a woken waiter re-acquires in debt rather than
    /// blocking, so the wake chain that satisfied its flag can never
    /// deadlock on token starvation. The debt is repaid by the next
    /// release before any new block is admitted.
    tokens: isize,
    /// Threads currently blocked on `ready` (no job, or no token).
    idle: usize,
    /// Total live threads (base workers + standbys), bounding standby
    /// spawns at `PoolShared::max_threads`.
    threads: usize,
}

/// State shared between the pool handle and its worker threads.
pub(crate) struct PoolShared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    /// Number of base worker threads (== the initial token count);
    /// lets `submit` and `publish` wake only as many workers as a small
    /// job can use.
    workers: usize,
    /// Hard cap on live threads: base workers plus the standby budget.
    /// Once reached, a park stops spawning replacements — unclaimed
    /// blocks then wait for a running thread to free up, which the
    /// virtual-ID wait discipline guarantees always happens.
    max_threads: usize,
    /// Owning device's group ordinal, for standby thread names.
    ordinal: usize,
    /// Join handles of standby threads spawned by `park_begin`; joined
    /// alongside the base workers at pool drop.
    standby: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolShared {
    /// Enqueue a job that no thread runs yet (`blocks` must be non-zero;
    /// empty launches complete inline without touching the pool).
    ///
    /// Wakes `min(blocks, workers)` threads: a grid with fewer blocks than
    /// the pool has workers cannot use more, and the full `notify_all`
    /// wake storm (every worker waking, contending the queue lock, and
    /// parking again) used to cost more than the launch itself for tiny
    /// grids.
    pub(crate) fn submit(&self, job: Arc<LaunchJob>) {
        debug_assert!(job.blocks() > 0, "zero-block jobs complete inline");
        self.push(job.blocks().min(self.workers), job);
    }

    /// Enqueue a job of at least two blocks that the calling thread runs
    /// itself, on a token it already holds: wakes `min(blocks - 1,
    /// workers - 1)` idle workers to help. The job goes on the queue even
    /// when none is woken, because a block that parks hands its token only
    /// to work it finds there.
    pub(crate) fn publish(&self, job: Arc<LaunchJob>) {
        debug_assert!(job.blocks() > 1, "a one-block job gives helpers nothing to do");
        self.push((job.blocks() - 1).min(self.workers - 1), job);
    }

    fn push(&self, wake: usize, job: Arc<LaunchJob>) {
        self.queue.lock().unwrap().jobs.push_back(job);
        if wake >= self.workers {
            self.ready.notify_all();
        } else {
            for _ in 0..wake {
                self.ready.notify_one();
            }
        }
    }

    /// Run a synchronous launch's job on the calling thread, on `arena`,
    /// until every block is claimed; the caller then waits
    /// ([`LaunchJob::wait`]) for the blocks helpers still hold.
    ///
    /// The caller claims a token before publishing, so a helper it wakes
    /// cannot take the token it is about to run on, and returns it before
    /// waiting, because `wait` re-raises a block's panic. Its blocks carry
    /// this pool, so a parked wait among them hands the caller's token to
    /// a helper.
    pub(crate) fn join(self: &Arc<Self>, job: &Arc<LaunchJob>, arena: &mut ScratchArena) {
        self.driver_begin();
        self.publish(Arc::clone(job));
        // A job with no stream completes without a continuation.
        let _ = job.run_blocks(self, arena);
        self.driver_end();
    }

    /// Number of worker threads serving this pool.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// A parking flag waiter hands its execution token back to the pool
    /// (see the module docs): if unclaimed work is pending and a token is
    /// now free, an idle thread is woken to take it — or, when every live
    /// thread is busy or parked, a standby thread is spawned, up to
    /// `max_threads`. Called by
    /// [`StatusBoard`](crate::sync::StatusBoard) before the first timed
    /// park of a wait; balanced by exactly one [`PoolShared::park_end`].
    pub(crate) fn park_begin(self: &Arc<Self>) {
        let mut q = self.queue.lock().unwrap();
        q.tokens += 1;
        if q.tokens <= 0 || !q.jobs.iter().any(|j| !j.exhausted()) {
            return;
        }
        if q.idle > 0 {
            drop(q);
            self.ready.notify_one();
        } else if q.threads < self.max_threads {
            q.threads += 1;
            drop(q);
            self.spawn_standby();
        }
    }

    /// Re-acquire an execution token after a parked wait was satisfied.
    /// Never blocks: the count may go negative (debt), transiently
    /// oversubscribing runnable threads instead of risking a deadlock in
    /// which every token is held by a thread that transitively depends on
    /// this waiter.
    pub(crate) fn park_end(&self) {
        self.queue.lock().unwrap().tokens -= 1;
    }

    /// Return the token held while running a job chain; wakes a waiting
    /// thread when claimable work is pending. Drops exhausted jobs from
    /// the queue first: a job published with no helper woken would
    /// otherwise stay there until some worker next looked.
    fn release_token(&self) {
        let mut q = self.queue.lock().unwrap();
        q.tokens += 1;
        q.jobs.retain(|j| !j.exhausted());
        if q.tokens > 0 && q.idle > 0 && !q.jobs.is_empty() {
            drop(q);
            self.ready.notify_one();
        }
    }

    /// A thread outside the worker loop announces it will execute blocks
    /// on its own thread: a resident group driver for its whole batch, or
    /// the caller of a synchronous launch for its own job
    /// ([`PoolShared::join`]). Claim one execution token so the pool's
    /// concurrency budget counts it like one of its own workers. Called
    /// while the thread is runnable, so — unlike [`PoolShared::park_end`]'s
    /// debt re-acquire — going negative here would only happen if the pool
    /// were already oversubscribed, which the debt model tolerates by
    /// design. Balanced by exactly one [`PoolShared::driver_end`].
    pub(crate) fn driver_begin(&self) {
        self.queue.lock().unwrap().tokens -= 1;
    }

    /// Return the token [`PoolShared::driver_begin`] claimed; wakes a
    /// waiting thread when claimable work is pending.
    pub(crate) fn driver_end(&self) {
        self.release_token();
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

fn worker_loop(shared: &Arc<PoolShared>) {
    // The arena persists across launches: a worker that just ran kernel K
    // serves kernel K+1's scratch takes from warm buffers.
    let mut arena = ScratchArena::new();
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                // Jobs whose blocks are all claimed complete on the workers
                // still running them; drop them from the queue so newer
                // jobs (e.g. other streams) can overlap.
                q.jobs.retain(|j| !j.exhausted());
                // Claiming needs both a job and an execution token — a
                // thread without a token (all handed to parked waiters'
                // debts) waits like one without work, keeping runnable
                // blocks residency-bounded.
                if q.tokens > 0 {
                    if let Some(j) = q.jobs.front().map(Arc::clone) {
                        q.tokens -= 1;
                        break j;
                    }
                }
                if q.shutdown {
                    return;
                }
                q.idle += 1;
                q = shared.ready.wait(q).unwrap();
                q.idle -= 1;
            }
        };
        // A completing stream job hands back the stream's next launch; run
        // it on this worker's warm arena instead of waiting for a woken
        // worker to take it off the queue. The token is held across the
        // whole chain.
        let mut job = job;
        while let Some(next) = job.run_blocks(shared, &mut arena) {
            job = next;
        }
        shared.release_token();
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

    /// The submission handle shared with streams.
    pub(crate) fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.ready_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Standby threads spawned by parked-wait handoffs exit through the
        // same shutdown flag; no launch is in flight at engine drop, so
        // they are all idle by now.
        for h in self.shared.standby.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl WorkerPool {
    fn ready_all(&self) {
        self.shared.ready.notify_all();
    }
}
