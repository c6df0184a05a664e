//! Kernel launching: grids of blocks executed under a bounded-residency
//! scheduler with pluggable dispatch order.
//!
//! The CUDA contract the simulator enforces is the one the paper leans on
//! (Section I-A): "Since there is no explicit rule of CUDA block assignment
//! to streaming multiprocessors, we need to design CUDA kernel programs so
//! that they work correctly for any CUDA block assignment." A launch
//! therefore takes a [`DispatchOrder`]; SKSS-style kernels must produce the
//! same answer under all of them, which the test suites check.
//!
//! Two execution modes:
//!
//! * [`ExecMode::Sequential`] — blocks run one after another on the caller
//!   thread in dispatch order. Deterministic, fast, and it converts soft-
//!   synchronization ordering bugs into immediate panics (see
//!   [`crate::sync::StatusBoard::wait_at_least`]).
//! * [`ExecMode::Concurrent`] — blocks run with bounded residency, like
//!   SMs run them: the calling thread claims blocks off the launch's cursor
//!   alongside idle workers of the persistent pool (module `executor`)
//!   that it wakes to help — when the pool's measurements say they would
//!   arrive before the blocks run out, and inline on its own otherwise.
//!   Flag spinning, atomic ID assignment, and publication ordering are
//!   exercised for real, and back-to-back launches reuse warm threads and
//!   scratch arenas instead of paying thread spawn/join.
//!
//! Whichever thread runs blocks, it runs them through one claim loop
//! (`Grid::run`) on its own scratch arena: a Sequential launch, a grid run
//! inline on its caller or on a batch lane, and every thread of a pool job.
//!
//! [`Gpu::launch`] is the one launch entry point. The handle a batch lane
//! gives its jobs ([`DeviceGroup::run_batch`](crate::group::DeviceGroup::run_batch),
//! [`Gpu::run_batch`]) runs it on the lane's thread (the batch's caller
//! for lane 0, a pool thread of the lane's device otherwise) by the same
//! concurrent rule, on the lane's token.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::device::DeviceConfig;
use crate::elem::DeviceElem;
use crate::executor::{erase_grid, shape_of, LaunchJob, PoolShared, Token, WorkerPool};
use crate::metrics::{BlockStats, CriticalPath, KernelMetrics};
use crate::trace::{EventKind, Tracer};

/// How blocks are executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One block after another, on the caller thread.
    #[default]
    Sequential,
    /// Worker threads with bounded residency
    /// ([`DeviceConfig::host_workers`]).
    Concurrent,
}

/// The order in which the hardware scheduler starts blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchOrder {
    /// Ascending block index (what real schedulers mostly do).
    #[default]
    InOrder,
    /// Descending block index — adversarial for kernels that assume
    /// hardware order, harmless for ones using virtual IDs.
    Reversed,
    /// A seeded pseudorandom permutation.
    Random(u64),
}

impl DispatchOrder {
    /// The permutation of `0..blocks` in which blocks are started.
    pub fn permutation(&self, blocks: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..blocks).collect();
        match *self {
            DispatchOrder::InOrder => {}
            DispatchOrder::Reversed => order.reverse(),
            DispatchOrder::Random(seed) => {
                // SplitMix64-driven Fisher-Yates; self-contained so the
                // substrate crate stays dependency-free.
                let mut s = seed.wrapping_add(0x9e3779b97f4a7c15);
                let mut next = move || {
                    s = s.wrapping_add(0x9e3779b97f4a7c15);
                    let mut z = s;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                    z ^ (z >> 31)
                };
                for i in (1..blocks).rev() {
                    // Unbiased bounded sampling (Lemire's multiply-and-
                    // reject): `next() % bound` would favor small values
                    // whenever bound does not divide 2^64.
                    let bound = i as u64 + 1;
                    let threshold = bound.wrapping_neg() % bound;
                    let j = loop {
                        let m = (next() as u128) * (bound as u128);
                        if (m as u64) >= threshold {
                            break (m >> 64) as usize;
                        }
                    };
                    order.swap(i, j);
                }
            }
        }
        order
    }

    /// The order blocks start in, with in-order dispatch as an empty list
    /// (dispatch position == block index, no allocation per launch).
    pub(crate) fn launch_order(&self, blocks: usize) -> Vec<usize> {
        match self {
            DispatchOrder::InOrder => Vec::new(),
            d => d.permutation(blocks),
        }
    }
}

/// Shape and bookkeeping of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Label used in metrics and reports.
    pub label: String,
    /// Number of blocks in the grid.
    pub blocks: usize,
    /// Threads per block (must not exceed the device maximum).
    pub threads_per_block: usize,
    /// Declared cross-block serialization structure (timing model input).
    pub critical_path: CriticalPath,
    /// Memory-level parallelism per thread: how many independent memory
    /// requests each thread keeps in flight. Kernels whose threads stream
    /// long independent runs (one thread per matrix row/column, as in
    /// 2R2W) declare > 1; the timing model multiplies the thread count by
    /// this factor when computing achievable bandwidth.
    pub ilp: usize,
}

impl LaunchConfig {
    /// A launch with no declared critical path.
    pub fn new(label: impl Into<String>, blocks: usize, threads_per_block: usize) -> Self {
        LaunchConfig {
            label: label.into(),
            blocks,
            threads_per_block,
            critical_path: CriticalPath::NONE,
            ilp: 1,
        }
    }

    /// Attach a critical-path declaration (builder style).
    pub fn with_critical_path(mut self, cp: CriticalPath) -> Self {
        self.critical_path = cp;
        self
    }

    /// Declare per-thread memory-level parallelism (builder style).
    pub fn with_ilp(mut self, ilp: usize) -> Self {
        self.ilp = ilp.max(1);
        self
    }

    /// The metrics of a finished launch of this shape.
    pub(crate) fn finish(self, stats: BlockStats, host_seconds: f64) -> KernelMetrics {
        KernelMetrics {
            label: self.label,
            blocks: self.blocks,
            threads_per_block: self.threads_per_block,
            stats,
            critical_path: self.critical_path,
            ilp: self.ilp,
            host_seconds,
        }
    }
}

/// A per-thread pool of reusable scratch buffers, keyed by element type.
///
/// Block bodies that need temporary storage (a staged tile row, a look-back
/// accumulator, a shared-memory backing array) draw it through
/// [`BlockCtx::scratch`] and hand it back with [`BlockCtx::recycle`]. Each
/// thread has one (`ARENA`) for its whole life, so in steady state block
/// bodies perform **zero** heap allocations: every buffer is reused from an
/// earlier block that ran on the same thread, in this launch or an earlier
/// one, through any `Gpu` handle.
///
/// Buffers are typed `Vec<T>`s; each element type's pool is one
/// `Vec<Vec<T>>` stored behind a single `dyn Any` box, so steady-state
/// take/put moves a `Vec` header in and out of the pool without touching
/// the heap (the old design re-boxed the vec on every recycle). The pool
/// list itself is a small linear-scanned `Vec` — kernels use at most a
/// couple of element types, so this beats hashing a `TypeId` per call.
#[derive(Default)]
struct ScratchArena {
    pools: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl ScratchArena {
    fn pool_mut<T: DeviceElem>(&mut self) -> &mut Vec<Vec<T>> {
        let id = TypeId::of::<T>();
        let idx = match self.pools.iter().position(|(t, _)| *t == id) {
            Some(i) => i,
            None => {
                self.pools.push((id, Box::new(Vec::<Vec<T>>::new())));
                self.pools.len() - 1
            }
        };
        self.pools[idx].1.downcast_mut::<Vec<Vec<T>>>().expect("scratch pool holds Vec<Vec<T>>")
    }

    /// A pooled buffer resized to `len` whose contents are unspecified
    /// stale values (only growth beyond the recycled length is zeroed).
    ///
    /// Selection is best-fit by length: the smallest pooled buffer that
    /// already covers `len`, so a kernel cycling through two buffer sizes
    /// (a tile backing and a handful of border vectors, say) keeps each
    /// size in its own buffer instead of truncating the big one for a
    /// small request and then re-growing — and re-zeroing — a small one
    /// for the next tile.
    fn take_raw<T: DeviceElem>(&mut self, len: usize) -> Vec<T> {
        let pool = self.pool_mut::<T>();
        let mut pick: Option<usize> = None;
        for (i, v) in pool.iter().enumerate() {
            let better = match pick {
                None => true,
                Some(p) => {
                    let pl = pool[p].len();
                    if pl >= len { v.len() >= len && v.len() < pl } else { v.len() > pl }
                }
            };
            if better {
                pick = Some(i);
            }
        }
        let mut v = match pick {
            Some(i) => pool.swap_remove(i),
            None => Vec::new(),
        };
        if v.len() >= len {
            v.truncate(len);
        } else {
            v.resize(len, T::zero());
        }
        v
    }

    /// A pooled buffer of `len` zeros, indistinguishable from a fresh
    /// `vec![T::zero(); len]`.
    fn take<T: DeviceElem>(&mut self, len: usize) -> Vec<T> {
        let mut v = self.take_raw(len);
        v.fill(T::zero());
        v
    }

    fn put<T: DeviceElem>(&mut self, v: Vec<T>) {
        if v.capacity() == 0 {
            return;
        }
        self.pool_mut::<T>().push(v);
    }
}

thread_local! {
    /// The calling thread's scratch arena, which each block loop the
    /// thread runs takes and puts back.
    static ARENA: Cell<ScratchArena> = const { Cell::new(ScratchArena { pools: Vec::new() }) };
}

/// Per-block execution context handed to the kernel body: the block's
/// identity, its access counters, the device description, and its
/// thread's scratch arena.
pub struct BlockCtx<'a> {
    block_idx: usize,
    threads_per_block: usize,
    sequential: bool,
    cfg: &'a DeviceConfig,
    tracer: Option<&'a Tracer>,
    arena: &'a mut ScratchArena,
    /// Set when the launch (or, for a batch lane, the batch) aborts because
    /// a block or job panicked; soft-sync waits poll it so consumers of a
    /// dead producer fail fast instead of waiting out the deadlock limit.
    abort: &'a AtomicBool,
    /// The block's access counters; buffer and tile accessors charge here.
    pub stats: BlockStats,
}

impl BlockCtx<'_> {
    /// Whether the launch (or the lane's batch) was aborted because
    /// another block or job panicked.
    pub(crate) fn abort_requested(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// The block's index within the grid (CUDA `blockIdx.x`). Note this is
    /// the *logical* index — dispatch order does not change it, which is
    /// exactly why SKSS kernels must use a
    /// [`DeviceCounter`](crate::sync::DeviceCounter) instead.
    pub fn block_idx(&self) -> usize {
        self.block_idx
    }

    /// Threads per block declared at launch (CUDA `blockDim.x`).
    pub fn threads_per_block(&self) -> usize {
        self.threads_per_block
    }

    /// The device this block runs on.
    pub fn config(&self) -> &DeviceConfig {
        self.cfg
    }

    /// Whether this launch executes blocks sequentially (used by waits to
    /// turn impossible spins into panics).
    pub fn is_sequential(&self) -> bool {
        self.sequential
    }

    /// `__syncthreads()`: barrier across the block's threads. Functionally
    /// a no-op in the warp-synchronous emulation; counted because the
    /// paper counts them ("only three barrier synchronization operations
    /// are performed").
    pub fn syncthreads(&mut self) {
        self.stats.barriers += 1;
    }

    /// Effective traffic charged per element of a strided global access.
    #[inline]
    pub fn strided_bytes(&self, elem_bytes: u64) -> u64 {
        (self.cfg.strided_bytes_per_elem as u64).max(elem_bytes)
    }

    /// Record a trace event if this launch is traced (no-op otherwise).
    #[inline]
    pub fn trace(&self, kind: EventKind) {
        if let Some(t) = self.tracer {
            t.record(self.block_idx, kind);
        }
    }

    /// Take a zero-initialized scratch buffer of `len` elements from the
    /// thread's reusable pool. Semantically identical to
    /// `vec![T::zero(); len]`, but after warmup the buffer comes from an
    /// earlier block on the same thread instead of the heap. Hand it back
    /// with [`BlockCtx::recycle`] when done; dropping it instead is
    /// correct but forfeits the reuse.
    pub fn scratch<T: DeviceElem>(&mut self, len: usize) -> Vec<T> {
        self.arena.take(len)
    }

    /// Take a scratch buffer of `len` elements whose contents are
    /// **unspecified stale values** — the caller must fully overwrite it
    /// before reading. This models real CUDA shared memory (which is never
    /// zeroed on allocation) and skips the zero-fill of
    /// [`BlockCtx::scratch`], which is pure waste for buffers that are
    /// immediately loaded from global memory.
    pub fn scratch_overwrite<T: DeviceElem>(&mut self, len: usize) -> Vec<T> {
        self.arena.take_raw(len)
    }

    /// Return a scratch buffer to the thread's pool for reuse.
    pub fn recycle<T: DeviceElem>(&mut self, v: Vec<T>) {
        self.arena.put(v);
    }
}

/// One grid in flight: its blocks and what the threads that run them
/// share. It borrows its body, device and abort flag from the launching
/// `Gpu::launch`; an inline launch keeps it on its own frame, and a pool
/// job ([`LaunchJob`]) holds it with those borrows' lifetime erased.
pub(crate) struct Grid<'a> {
    pub(crate) lc: LaunchConfig,
    cfg: &'a DeviceConfig,
    /// Dispatch permutation; empty means identity (in-order dispatch).
    order: Vec<usize>,
    tracer: Option<&'a Tracer>,
    body: &'a (dyn Fn(&mut BlockCtx) + Sync),
    sequential: bool,
    /// Next unclaimed dispatch position.
    cursor: AtomicUsize,
    /// Raised when a block panics: blocks not yet started are skipped,
    /// and soft-sync waiters fail fast. A batch lane's grid uses its
    /// batch's flag, so its blocks also stop for a panic elsewhere in the
    /// batch, and a panic among them stops the batch; any other grid uses
    /// a flag on its launching frame.
    abort: &'a AtomicBool,
    /// The first panic of a block of the grid, re-raised on the thread
    /// that launched it.
    pub(crate) panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Nothing panics while it holds a grid's panic slot.
pub(crate) const PANIC_SLOT: &str = "a grid's panic slot is held only to store or take a payload";

impl Grid<'_> {
    /// Whether every dispatch position has been claimed by some thread
    /// (the grid may still be executing its last blocks).
    pub(crate) fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.lc.blocks
    }

    /// The one block loop: claim dispatch positions off the cursor until
    /// none remain, and run each claimed block on the thread's scratch
    /// arena between its `BlockStart` and `BlockEnd` trace events, unless
    /// the grid has aborted. A block's panic is caught, and its payload
    /// kept before the abort flag is raised, so a block that fails because
    /// it saw the flag never displaces the panic that raised it. Returns
    /// the summed counters of the blocks this thread ran and the number of
    /// positions it claimed.
    ///
    /// The loop takes the thread's arena and puts it back when it ends, so
    /// a launch from inside a block runs on an empty arena, and nothing
    /// here unwinds once a pool job is queued ([`erase_grid`]).
    pub(crate) fn run(&self) -> (BlockStats, usize) {
        let mut arena = ARENA.try_with(Cell::take).unwrap_or_default();
        let (mut stats, mut claimed) = (BlockStats::default(), 0);
        loop {
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= self.lc.blocks {
                break;
            }
            claimed += 1;
            if self.abort.load(Ordering::Relaxed) {
                continue;
            }
            let mut ctx = BlockCtx {
                block_idx: if self.order.is_empty() { k } else { self.order[k] },
                threads_per_block: self.lc.threads_per_block,
                sequential: self.sequential,
                cfg: self.cfg,
                tracer: self.tracer,
                arena: &mut arena,
                abort: self.abort,
                stats: BlockStats::default(),
            };
            let ran = catch_unwind(AssertUnwindSafe(|| {
                ctx.trace(EventKind::BlockStart);
                (self.body)(&mut ctx);
                ctx.trace(EventKind::BlockEnd);
            }));
            match ran {
                Ok(()) => stats.merge(&ctx.stats),
                Err(p) => {
                    self.panic.lock().expect(PANIC_SLOT).get_or_insert(p);
                    self.abort.store(true, Ordering::Relaxed);
                }
            }
        }
        let _ = ARENA.try_with(|slot| slot.set(arena));
        (stats, claimed)
    }

    /// Every block in dispatch order on the calling thread, through the
    /// block loop; re-raises a block's panic.
    fn run_inline(self) -> KernelMetrics {
        let start = Instant::now();
        let (stats, _) = self.run();
        if let Some(p) = self.panic.into_inner().expect(PANIC_SLOT) {
            resume_unwind(p);
        }
        self.lc.finish(stats, start.elapsed().as_secs_f64())
    }
}

/// What a batch lane gives the launches of its jobs: the batch's abort
/// flag, and the lane's execution token, which the lane runs their pool
/// jobs on. The token is shared by `Arc`, so it stays claimed while any
/// clone of the lane handle lives, even past the batch.
struct Lane {
    abort: Arc<AtomicBool>,
    token: Arc<Token>,
}

/// A simulated GPU: a device description plus an execution policy.
#[derive(Clone)]
pub struct Gpu {
    cfg: DeviceConfig,
    mode: ExecMode,
    dispatch: DispatchOrder,
    tracer: Option<Arc<Tracer>>,
    /// The worker pool, started on first use and shared by every clone, so
    /// builder-style clones (`with_mode`, `with_dispatch`) and lane handles
    /// all reuse the same warm workers.
    pool: Arc<OnceLock<WorkerPool>>,
    /// The batch lane whose thread runs this handle's launches in place of
    /// its [`ExecMode`] default ([`Gpu::for_lane`]).
    lane: Option<Arc<Lane>>,
    /// Position within an owning [`DeviceGroup`](crate::group::DeviceGroup)
    /// (0 for standalone devices); flavors worker-thread names only.
    ordinal: usize,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("cfg", &self.cfg)
            .field("mode", &self.mode)
            .field("dispatch", &self.dispatch)
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// A GPU in deterministic sequential mode with in-order dispatch.
    pub fn new(cfg: DeviceConfig) -> Self {
        Gpu {
            cfg,
            mode: ExecMode::Sequential,
            dispatch: DispatchOrder::InOrder,
            tracer: None,
            pool: Arc::default(),
            lane: None,
            ordinal: 0,
        }
    }

    /// Tag this GPU with its position in a multi-device group (builder
    /// style). Purely cosmetic for a standalone device: the ordinal shows
    /// up in worker-thread names (`gpu-sim-d{ordinal}-w{k}`) so the
    /// devices of a [`DeviceGroup`](crate::group::DeviceGroup) are
    /// distinguishable in stack traces and profilers.
    pub fn with_ordinal(mut self, ordinal: usize) -> Self {
        self.ordinal = ordinal;
        self
    }

    /// The device's position in its group (0 for standalone devices).
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// Attach a tracer that records every launch made through this handle
    /// (builder style): block spans and flag traffic.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Set the execution mode (builder style).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the dispatch order (builder style).
    pub fn with_dispatch(mut self, dispatch: DispatchOrder) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The device description.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The current dispatch order.
    pub fn dispatch(&self) -> DispatchOrder {
        self.dispatch
    }

    /// The shared worker pool, started on first use.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(&self.cfg, self.ordinal))
    }

    /// The pool's shared state (started on first use) — for batch lanes,
    /// which run on its threads and hold one of its execution tokens.
    pub(crate) fn pool_shared(&self) -> &Arc<PoolShared> {
        self.pool().shared()
    }

    /// Number of host worker threads serving this device's pool (started
    /// on first use), and so the number of lanes [`Gpu::run_batch`] can
    /// run at once: each lane holds one of the pool's execution tokens for
    /// its whole batch, and lanes beyond this count would share cores.
    pub fn host_parallelism(&self) -> usize {
        self.pool().shared().workers()
    }

    /// The handle a batch lane gives its jobs: every launch runs on the
    /// lane's thread and `token`, inline in dispatch order unless the
    /// device pool's measurements give the grid helpers, which then claim
    /// blocks beside the lane. Every block, the helpers' too, carries the batch's `abort`
    /// flag, so a wait on a job that panicked on another lane fails fast,
    /// and a block's panic stops the batch. `is_sequential()` stays false.
    pub(crate) fn for_lane(&self, abort: Arc<AtomicBool>, token: Arc<Token>) -> Gpu {
        let lane = Lane { abort, token };
        Gpu { lane: Some(Arc::new(lane)), ..self.clone() }
    }

    /// Launch a kernel: run `body` once per block and return the launch's
    /// aggregated metrics.
    ///
    /// Sequential mode runs the blocks inline on the calling thread, in
    /// dispatch order. Concurrent mode, and the handle a batch lane gives
    /// its jobs whatever its mode, follow one rule: a grid of at most one
    /// block, or one the pool's measurements give no helper
    /// (`executor::helpers`), runs inline on the calling thread, which
    /// records its host time per block so the rule stays current. Any other
    /// grid is a pool job that the calling thread runs on the token it
    /// holds (a lane's own, or one a caller claims for this launch) while
    /// the helpers it wakes claim blocks off the same cursor.
    ///
    /// The body must be `Fn` (not `FnMut`): blocks may run concurrently
    /// and in any order, so all cross-block state must live in
    /// [`GlobalBuffer`](crate::global::GlobalBuffer)s,
    /// [`StatusBoard`](crate::sync::StatusBoard)s, or
    /// [`DeviceCounter`](crate::sync::DeviceCounter)s — the same rule CUDA
    /// imposes.
    ///
    /// A body may itself launch, on this `Gpu` or another (CUDA's dynamic
    /// parallelism): the nested grid runs by the same rules, and the blocks
    /// it runs on the launching thread draw on an empty scratch arena.
    pub fn launch<F>(&self, lc: LaunchConfig, body: F) -> KernelMetrics
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        assert!(
            lc.threads_per_block <= self.cfg.max_threads_per_block,
            "{} threads per block exceeds the device maximum {}",
            lc.threads_per_block,
            self.cfg.max_threads_per_block
        );
        let aborted = AtomicBool::new(false);
        let grid = Grid {
            order: self.dispatch.launch_order(lc.blocks),
            lc,
            cfg: &self.cfg,
            tracer: self.tracer.as_deref(),
            body: &body,
            sequential: self.lane.is_none() && self.mode == ExecMode::Sequential,
            cursor: AtomicUsize::new(0),
            abort: self.lane.as_ref().map_or(&aborted, |lane| &lane.abort),
            panic: Mutex::new(None),
        };
        // A grid of at most one block has no cross-block concurrency to
        // exercise and gives a helper nothing to do: skip the pool.
        if grid.sequential || grid.lc.blocks <= 1 {
            return grid.run_inline();
        }
        let pool = self.pool().shared();
        let shape = shape_of(&grid.lc);
        let helpers = pool.helpers_for(shape, grid.lc.blocks);
        if helpers == 0 {
            let km = grid.run_inline();
            pool.record_block_secs(shape, km.host_seconds / km.blocks as f64);
            return km;
        }
        // The thread then waits for the blocks its helpers still hold. A
        // lane keeps its token through that wait, and a caller drops the
        // one it claimed first, because the wait re-raises a block's panic.
        // SAFETY: the grid borrows `body`, `aborted` and `self`, which
        // outlive the wait below, and nothing between the join and the wait
        // unwinds (`Grid::run` catches every block's panic).
        let job = Arc::new(LaunchJob::new(unsafe { erase_grid(grid) }, shape));
        match &self.lane {
            Some(lane) => pool.join(&job, helpers, &lane.token),
            None => pool.join(&job, helpers, &Token::claim(pool)),
        }
        job.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalBuffer;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn permutations_cover_all_blocks() {
        for d in [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(3)] {
            let mut p = d.permutation(17);
            p.sort_unstable();
            assert_eq!(p, (0..17).collect::<Vec<_>>(), "{d:?}");
        }
    }

    #[test]
    fn random_permutation_is_seeded_and_nontrivial() {
        let a = DispatchOrder::Random(1).permutation(64);
        let b = DispatchOrder::Random(1).permutation(64);
        let c = DispatchOrder::Random(2).permutation(64);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "different seeds differ");
        assert_ne!(a, (0..64).collect::<Vec<_>>(), "not the identity");
    }

    #[test]
    fn every_block_runs_once() {
        for mode in [ExecMode::Sequential, ExecMode::Concurrent] {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(mode);
            let hits = GlobalBuffer::<u32>::zeroed(100);
            let m = gpu.launch(LaunchConfig::new("count", 100, 64), |ctx| {
                hits.atomic_add(ctx, ctx.block_idx(), 1);
            });
            assert!(hits.to_vec().iter().all(|&h| h == 1), "{mode:?}");
            assert_eq!(m.blocks, 100);
            assert_eq!(m.threads(), 100 * 64);
        }
    }

    #[test]
    fn block_idx_is_logical_not_dispatch_position() {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_dispatch(DispatchOrder::Reversed);
        let out = GlobalBuffer::<u32>::zeroed(10);
        gpu.launch(LaunchConfig::new("idx", 10, 32), |ctx| {
            out.write(ctx, ctx.block_idx(), ctx.block_idx() as u32);
        });
        assert_eq!(out.to_vec(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_aggregate_across_blocks() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let buf = GlobalBuffer::<u32>::zeroed(32);
        let m = gpu.launch(LaunchConfig::new("agg", 8, 32), |ctx| {
            for k in 0..4 {
                buf.read(ctx, k);
            }
            ctx.syncthreads();
        });
        assert_eq!(m.stats.global_reads, 8 * 4);
        assert_eq!(m.stats.barriers, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds the device maximum")]
    fn oversized_block_rejected() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        gpu.launch(LaunchConfig::new("big", 1, 100_000), |_ctx| {});
    }

    #[test]
    fn zero_blocks_is_a_no_op() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let m = gpu.launch(LaunchConfig::new("empty", 0, 32), |_ctx| {
            panic!("must not run");
        });
        assert_eq!(m.stats.global_reads, 0);
        assert_eq!(m.blocks, 0);
    }

    #[test]
    fn a_panicking_launch_leaves_the_arena_warm() {
        // A 16-element take after a recycled 64-element take reuses the
        // larger buffer. Every launch a thread makes draws on that thread's
        // one arena, whichever `Gpu` makes it, and the block loop catches a
        // block's panic before it puts the arena back, so each launch below
        // gets back the very buffer the first recycled.
        let scratch_ptr = |gpu: &Gpu, len: usize| {
            let ptr = GlobalBuffer::<u64>::zeroed(1);
            gpu.launch(LaunchConfig::new("scratch-ptr", 1, 32), |ctx| {
                let v = ctx.scratch::<u64>(len);
                ptr.write(ctx, 0, v.as_ptr() as u64);
                ctx.recycle(v);
            });
            ptr.host_read(0)
        };
        let (a, b) = (Gpu::new(DeviceConfig::tiny()), Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent));
        let first = scratch_ptr(&a, 64);
        assert_eq!(scratch_ptr(&b, 16), first, "a launch of another `Gpu` on the same thread");
        let fault = catch_unwind(AssertUnwindSafe(|| {
            a.launch(LaunchConfig::new("fault", 1, 32), |_ctx| panic!("block fault"));
        }));
        assert!(fault.is_err());
        assert_eq!(scratch_ptr(&a, 16), first, "the launch after a panic");
    }

    #[test]
    fn a_block_may_launch_a_grid_of_its_own() {
        // An unmeasured shape wakes a helper wherever the host has two
        // cores, so the nested grid is a pool job, queued after the loop
        // running the outer block has taken its thread's arena.
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
        let out = GlobalBuffer::<u64>::zeroed(24);
        gpu.launch(LaunchConfig::new("outer", 3, 32), |ctx| {
            let (base, held) = (ctx.block_idx() * 8, ctx.scratch::<u64>(4));
            gpu.launch(LaunchConfig::new("inner", 8, 32), |ctx| {
                let v = ctx.scratch::<u64>(4);
                out.write(ctx, base + ctx.block_idx(), (base + ctx.block_idx() + 1) as u64);
                ctx.recycle(v);
            });
            ctx.recycle(held);
        });
        assert_eq!((0..24).map(|i| out.host_read(i)).collect::<Vec<_>>(), (1..=24).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_matches_sequential_counters() {
        // Exercises every bulk-transfer path plus the scratch arena: the
        // aggregated counters must be identical whichever schedule ran.
        let run = |mode| {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(mode);
            let buf = GlobalBuffer::<u64>::zeroed(512);
            let src = GlobalBuffer::<u64>::zeroed(512);
            let m = gpu.launch(LaunchConfig::new("sum", 16, 64), |ctx| {
                let base = ctx.block_idx() * 16;
                let mut tmp = ctx.scratch::<u64>(16);
                buf.load_row(ctx, base, &mut tmp);
                buf.store_row(ctx, base, &tmp);
                buf.load_2d(ctx, base, 4, 4, &mut tmp);
                buf.store_2d(ctx, base, 4, 4, &tmp);
                buf.fill(ctx, base, 8, 7);
                buf.copy_from(ctx, base + 8, &src, base, 8);
                buf.copy_within(ctx, base, 256 + base, 8);
                ctx.recycle(tmp);
            });
            m.stats.deterministic()
        };
        assert_eq!(run(ExecMode::Sequential), run(ExecMode::Concurrent));
    }

    #[test]
    fn scratch_buffers_are_reused_across_blocks() {
        // Sequential execution uses one arena for the whole launch, so
        // after the first block every scratch take must be pool-served:
        // capacity comes back >= what the first block recycled, and the
        // contents are freshly zeroed either way.
        let gpu = Gpu::new(DeviceConfig::tiny());
        let seen = GlobalBuffer::<u64>::zeroed(8);
        gpu.launch(LaunchConfig::new("scratch", 8, 32), |ctx| {
            let big = ctx.block_idx() == 0;
            let v = ctx.scratch::<u64>(if big { 64 } else { 16 });
            assert!(v.iter().all(|&x| x == 0), "scratch is zero-initialized");
            if !big {
                assert!(v.capacity() >= 64, "later blocks reuse the first block's buffer");
            }
            seen.write(ctx, ctx.block_idx(), v.len() as u64);
            ctx.recycle(v);
        });
        assert_eq!(seen.to_vec()[1..], [16; 7]);

        // Steady-state take/put must be allocation-free: recycling a
        // buffer and taking the same size again hands back the *same*
        // allocation (pointer identity), both within a block and from one
        // block to the next — `ScratchArena` keeps one downcast-once
        // `Vec<Vec<T>>` pool per element type, so no boxing or
        // reallocation happens on the recycle path.
        let ptrs = GlobalBuffer::<u64>::zeroed(8);
        gpu.launch(LaunchConfig::new("scratch_identity", 8, 32), |ctx| {
            let a = ctx.scratch::<u64>(48);
            let pa = a.as_ptr() as u64;
            ctx.recycle(a);
            let b = ctx.scratch::<u64>(48);
            assert_eq!(pa, b.as_ptr() as u64, "within-block recycle reuses the allocation");
            ptrs.write(ctx, ctx.block_idx(), b.as_ptr() as u64);
            ctx.recycle(b);
        });
        let p = ptrs.to_vec();
        assert_eq!(p[1..], [p[0]; 7], "every block reused one warm buffer");

        // `scratch_overwrite` draws from the same pool (same allocation),
        // skipping only the zero-fill.
        gpu.launch(LaunchConfig::new("scratch_overwrite", 1, 32), |ctx| {
            let mut a = ctx.scratch::<u64>(32);
            a.fill(7);
            let pa = a.as_ptr() as u64;
            ctx.recycle(a);
            let b = ctx.scratch_overwrite::<u64>(32);
            assert_eq!(pa, b.as_ptr() as u64);
            assert!(b.iter().all(|&x| x == 7), "overwrite variant skips the zero-fill");
            ctx.recycle(b);
        });
    }
}
