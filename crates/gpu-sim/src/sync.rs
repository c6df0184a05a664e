//! Inter-block soft synchronization — the SKSS building blocks.
//!
//! CUDA gives blocks of one kernel no synchronization primitive, so the
//! paper builds its own out of global memory:
//!
//! * a **global counter** bumped with `atomicAdd` hands out *virtual block
//!   IDs* in dispatch order ([`DeviceCounter`]), making the algorithm
//!   independent of how the hardware scheduler assigns blocks to SMs;
//! * arrays of **status flags** written after data is published
//!   ([`StatusBoard`]) let later blocks spin until a predecessor's partial
//!   result is visible (the `R`/`C` arrays of Section IV).
//!
//! Here the flags are real `AtomicU8`s: publication is a `Release` store,
//! polling is an `Acquire` load, so a block that observes a flag value also
//! observes every (relaxed) global-memory write the publisher performed
//! before it — exactly the guarantee the CUDA `__threadfence()` +
//! flag-write idiom provides on hardware.
//!
//! Deadlock discipline: a block may wait only on flags owned by blocks
//! with *smaller virtual IDs*. Because [`DeviceCounter`] hands IDs out in
//! execution order, every awaited block is already finished or resident,
//! so the wait terminates under any dispatch order and any residency
//! bound — including fully sequential execution, where a wait that would
//! block even once is reported as a deadlock instead of spinning forever.
//!
//! ## Parked waits
//!
//! Polling models what the GPU does; it is a disaster for the *host*,
//! where a spinning wait occupies the OS core its own producer needs
//! (the busy-wait-vs-blocking trade-off Zhang et al. measure on real
//! multi-GPU systems). A wait that exhausts its bounded hot-spin
//! therefore **parks**: the waiter registers `(slot, min)` in one of the
//! board's striped condvar registries and sleeps; every publication that
//! advances a flag past a registered threshold removes exactly the
//! eligible entries and wakes their stripe. Parked threads burn no CPU.
//! A parked block keeps its thread's pool execution token (module
//! `executor`), as a GPU block spinning on a flag keeps its SM slot: by
//! the deadlock discipline above it waits only on blocks that have already
//! started, so no other block needs the slot for the wait to end, and
//! admitting more look-back walkers mid-wait would only lengthen their
//! walks.
//!
//! None of this changes the memory-model exercise: publication is still
//! a single `Release` store, and a waiter only ever returns after an
//! `Acquire` load of the flag observes the target value — the condvar
//! machinery orders *scheduling*, never data. Lost wakeups are excluded
//! by a Dekker-style handshake (both sides issue a `SeqCst` fence
//! between their store and their cross-check) plus a bounded park
//! timeout that re-checks the flag regardless. `park_events` and
//! `wakeups` are masked from the deterministic counters like every other
//! scheduling artifact.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::elem::DeviceElem;
use crate::global::GlobalBuffer;
use crate::launch::BlockCtx;
use crate::trace::EventKind;

/// Polls a flag wait spends in its hot-spin phase before backing off.
const HOT_SPIN_POLLS: u64 = 64;

/// Cap of the backoff phase's pause, in `spin_loop` hints per poll; once
/// the doubling pause passes it the wait parks.
const BACKOFF_MAX_PAUSE: u32 = 512;

/// Period of one timed park. Expiry re-checks the flag, the abort flag and
/// the deadlock budget, so correctness never depends on a wake arriving;
/// publications only make it prompt.
const PARK_CYCLE: Duration = Duration::from_micros(200);

/// Deadlock-budget iterations one park cycle costs: one per 20 µs parked,
/// so `DeviceConfig::deadlock_limit` bounds the wall time of a stuck wait.
const PARK_ITERS: u64 = 10;

/// Waiter registries are striped `flag_index % stripes` so concurrent
/// parks on different flags rarely contend on one lock.
const MAX_STRIPES: usize = 64;

/// One registered parked waiter: wake when `flags[slot] >= min`.
/// The ticket identifies the registration so a timed-out waiter can tell
/// "a publisher removed (and therefore woke) me" from "I expired".
struct Waiter {
    slot: usize,
    min: u8,
    ticket: u64,
}

/// One waiter-registry stripe of a [`StatusBoard`].
struct Stripe {
    /// Registered-waiter count, readable without the lock: publishers
    /// skip the stripe entirely while it is zero.
    parked: AtomicU32,
    waiters: Mutex<Vec<Waiter>>,
    wake: Condvar,
}

/// A global-memory counter for `atomicAdd`-based virtual block IDs
/// (paper Sections III-C and IV).
#[derive(Debug, Default)]
pub struct DeviceCounter {
    value: AtomicU32,
}

impl DeviceCounter {
    /// A fresh counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// `atomicAdd(&c, 1)`: returns the pre-increment value. No two calls
    /// return the same value; values appear in execution order.
    pub fn next(&self, ctx: &mut BlockCtx) -> u32 {
        ctx.stats.atomic_ops += 1;
        self.value.fetch_add(1, Ordering::Relaxed)
    }

    /// Host-side peek (not accounted).
    pub fn peek(&self) -> u32 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One predecessor of a decoupled look-back walk
/// ([`StatusBoard::look_back`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pred {
    /// Its status flag's slot on the board.
    pub slot: usize,
    /// Where its values start, in the partial and in the full buffer alike.
    pub offset: usize,
    /// Whether another device of a [`crate::group::DeviceGroup`] publishes
    /// it (an earlier band's tile, in a cooperative pipeline).
    pub remote: bool,
}

/// An array of monotone status flags in global memory, one `u8` per tile
/// (the paper's `R[I][J]` / `C[I][J]` arrays: `2 * n^2/W^2` 8-bit integers
/// in total for SKSS-LB).
///
/// Flags must only ever increase; publication with a smaller value than
/// already present is a logic error (debug-asserted).
pub struct StatusBoard {
    flags: Box<[AtomicU8]>,
    /// Parked-waiter registries, one per stripe (`flag % stripes.len()`;
    /// always a power of two).
    stripes: Box<[Stripe]>,
    /// Monotone registration tickets (see [`Waiter`]).
    ticket: AtomicU64,
}

impl std::fmt::Debug for StatusBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusBoard").field("len", &self.flags.len()).finish_non_exhaustive()
    }
}

impl StatusBoard {
    /// `len` flags, all zero.
    pub fn new(len: usize) -> Self {
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, AtomicU8::default);
        let n_stripes = len.max(1).next_power_of_two().min(MAX_STRIPES);
        let mut s = Vec::with_capacity(n_stripes);
        s.resize_with(n_stripes, || Stripe {
            parked: AtomicU32::new(0),
            waiters: Mutex::new(Vec::new()),
            wake: Condvar::new(),
        });
        StatusBoard {
            flags: v.into_boxed_slice(),
            stripes: s.into_boxed_slice(),
            ticket: AtomicU64::new(0),
        }
    }

    #[inline]
    fn stripe(&self, i: usize) -> &Stripe {
        &self.stripes[i & (self.stripes.len() - 1)]
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the board is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Publish status `v` for slot `i` with `Release` ordering: all global
    /// writes performed by this block before the call become visible to
    /// any block that observes the flag.
    ///
    /// After the store, wakes any parked waiter the publication satisfies
    /// (see the [module docs](self)). The no-waiter fast path is one
    /// fence plus one relaxed load; the fence pairs with the one in
    /// `StatusBoard::park` so a registering waiter and a publishing
    /// producer can never miss each other.
    pub fn publish(&self, ctx: &mut BlockCtx, i: usize, v: u8) {
        ctx.stats.flag_publishes += 1;
        ctx.trace(EventKind::FlagPublished { slot: i, value: v });
        debug_assert!(
            self.flags[i].load(Ordering::Relaxed) <= v,
            "status flags are monotone: slot {i} would go from {} to {v}",
            self.flags[i].load(Ordering::Relaxed),
        );
        self.flags[i].store(v, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.stripe(i).parked.load(Ordering::Relaxed) > 0 {
            self.wake_eligible(i, v);
        }
    }

    /// Remove every registered waiter this publication satisfies and wake
    /// the stripe. Ineligible co-striped waiters that the `notify_all`
    /// rouses find their registration still present, re-check their flag,
    /// and park again — bounded spurious work, never a lost wake.
    #[cold]
    fn wake_eligible(&self, i: usize, v: u8) {
        let stripe = self.stripe(i);
        let mut g = stripe.waiters.lock().unwrap();
        let before = g.len();
        g.retain(|w| w.slot != i || w.min > v);
        if g.len() != before {
            stripe.parked.store(g.len() as u32, Ordering::Relaxed);
            stripe.wake.notify_all();
        }
    }

    /// One timed park of the calling waiter on `flags[i] >= min`.
    ///
    /// Registration and the final pre-sleep flag check happen under the
    /// stripe lock with a `SeqCst` fence in between; `publish` stores the
    /// flag, fences, and only then reads the stripe's waiter count. In
    /// every interleaving the publisher either observes the registration
    /// (and wakes us) or we observe its flag store (and never sleep).
    fn park(&self, ctx: &mut BlockCtx, i: usize, min: u8) {
        let stripe = self.stripe(i);
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
        let mut g = stripe.waiters.lock().unwrap();
        g.push(Waiter { slot: i, min, ticket });
        stripe.parked.store(g.len() as u32, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if self.flags[i].load(Ordering::Acquire) >= min {
            Self::deregister(stripe, &mut g, ticket);
            return;
        }
        ctx.stats.park_events += 1;
        let (mut g, _) =
            stripe.wake.wait_timeout(g, PARK_CYCLE).expect("no code panics while holding a stripe lock");
        if !Self::deregister(stripe, &mut g, ticket) {
            // Our entry is gone: an eligible publication removed it and
            // woke us on purpose (not a timeout, not a spurious wake).
            ctx.stats.wakeups += 1;
        }
    }

    /// Remove the caller's registration if still present; `false` means a
    /// publisher already removed it.
    fn deregister(stripe: &Stripe, g: &mut Vec<Waiter>, ticket: u64) -> bool {
        match g.iter().position(|w| w.ticket == ticket) {
            Some(p) => {
                g.swap_remove(p);
                stripe.parked.store(g.len() as u32, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Spin until slot `i` holds at least `min`, returning the observed
    /// value ("repeatedly read `R[I][J-1]` until it becomes 1 or larger").
    ///
    /// In sequential execution a wait that is not already satisfied can
    /// never be satisfied, so it panics with a deadlock diagnostic — this
    /// turns ordering bugs in soft-synchronized algorithms into crisp test
    /// failures instead of hangs.
    ///
    /// Concurrent waits back off adaptively, so flag waiters never
    /// monopolize host cores other launches (or other devices of a
    /// [`crate::group::DeviceGroup`]) need:
    ///
    /// 1. a bounded hot spin (64 polls of `spin_loop`) for the common case
    ///    where the producer publishes within microseconds;
    /// 2. exponential backoff: the pause between polls doubles from 1 to
    ///    512 `spin_loop` hints, trading poll latency for bus and core
    ///    pressure;
    /// 3. a **parked wait**: the thread registers in the board's waiter
    ///    registry and sleeps on a condvar until an eligible publication
    ///    (or a 200 µs park-cycle expiry that re-checks everything) wakes
    ///    it, keeping its pool execution token (see the
    ///    [module docs](self)). Zero CPU while blocked, prompt wake on
    ///    publish.
    ///
    /// Every phase *transition* increments the `flag_backoff_events`
    /// counter, each timed park increments `park_events`, and each
    /// publisher-initiated wake increments `wakeups`. Like
    /// `flag_poll_iterations` all three are schedule-dependent and
    /// excluded from
    /// [`BlockStats::deterministic`](crate::metrics::BlockStats::deterministic).
    pub fn wait_at_least(&self, ctx: &mut BlockCtx, i: usize, min: u8) -> u8 {
        ctx.stats.flag_waits += 1;
        self.wait_inner(ctx, i, min, false)
    }

    /// [`StatusBoard::wait_at_least`] for a flag published by *another
    /// device* of a [`crate::group::DeviceGroup`]. Identical protocol and
    /// backoff ladder, but phase transitions charge `d2d_backoff_events`
    /// instead of `flag_backoff_events`, so cross-device schedule noise is
    /// attributable separately (and, like its local mirror, masked from
    /// [`BlockStats::deterministic`](crate::metrics::BlockStats::deterministic)).
    /// The data transfer the flag guards is charged by the caller through
    /// [`BlockStats::charge_d2d`](crate::metrics::BlockStats::charge_d2d) —
    /// the wait itself moves only the one-byte flag.
    pub fn wait_at_least_remote(&self, ctx: &mut BlockCtx, i: usize, min: u8) -> u8 {
        ctx.stats.flag_waits += 1;
        self.wait_inner(ctx, i, min, true)
    }

    /// A decoupled look-back walk (Merrill & Garland; the paper's Figs. 10
    /// and 11): visit `preds`, nearest first, await each until its flag
    /// reaches `min`, and add its `acc.len()` values into `acc`, from
    /// `full` if its flag reached `done` and from `part` otherwise. The
    /// walk stops after the first predecessor whose flag reached `done`.
    /// Accumulation runs in walk order, so the sum is bit-identical under
    /// any schedule, floats included.
    ///
    /// Only the first step is charged, as the one step the paper's walk
    /// takes on the device: one flag wait and one coalesced read of
    /// `acc.len()` elements, or, for a remote predecessor, one wait on the
    /// remote ladder of [`StatusBoard::wait_at_least_remote`] and one D2D
    /// transfer of those bytes. A later step exists only because the host
    /// had not yet run the predecessor that would have ended the walk: it
    /// runs the same wait ladder but counts `host_walk_steps` in place of
    /// `flag_waits`, and reads its values unaccounted.
    pub fn look_back<T: DeviceElem>(
        &self,
        ctx: &mut BlockCtx,
        preds: impl IntoIterator<Item = Pred>,
        (part, full): (&GlobalBuffer<T>, &GlobalBuffer<T>),
        (min, done): (u8, u8),
        acc: &mut [T],
    ) {
        for (step, p) in preds.into_iter().enumerate() {
            if step == 0 {
                ctx.stats.flag_waits += 1;
            } else {
                ctx.stats.host_walk_steps += 1;
            }
            let st = self.wait_inner(ctx, p.slot, min, p.remote);
            let src = if st >= done { full } else { part };
            match (step, p.remote) {
                (0, false) => src.add_row_into(ctx, p.offset, acc),
                (0, true) => {
                    // The bytes cross the interconnect as one transfer,
                    // priced by the timing model's own d2d term, never as
                    // DRAM reads.
                    ctx.stats.charge_d2d(1, acc.len() as u64 * T::BYTES);
                    src.add_row_raw(p.offset, acc);
                }
                _ => src.add_row_raw(p.offset, acc),
            }
            if st >= done {
                return;
            }
        }
    }

    fn wait_inner(&self, ctx: &mut BlockCtx, i: usize, min: u8, remote: bool) -> u8 {
        #[inline(always)]
        fn escalate(ctx: &mut BlockCtx, remote: bool) {
            if remote {
                ctx.stats.d2d_backoff_events += 1;
            } else {
                ctx.stats.flag_backoff_events += 1;
            }
        }

        // A remote producer is a whole other device lane that may be several
        // band-sized kernels away from publishing — legitimately orders of
        // magnitude slower than any intra-launch dependency — so the
        // stuck-wait bound scales up instead of misfiring on healthy
        // cross-device latency.
        let limit = ctx.config().deadlock_limit * if remote { 64 } else { 1 };
        let mut iters: u64 = 0;
        let mut pause: u32 = 1;
        // Set once the wait enters the parked phase, which checks the abort
        // flag every cycle.
        let mut parked = false;
        loop {
            iters += 1;
            // The one load every return path goes through: `Acquire`, so
            // observing the flag also makes the producer's prior writes
            // visible — parked or spinning, the happens-before edge is
            // this load, never the condvar.
            let v = self.flags[i].load(Ordering::Acquire);
            if v >= min {
                ctx.stats.flag_poll_iterations += iters;
                ctx.trace(EventKind::FlagWaited { slot: i, seen: v });
                return v;
            }
            if !remote && ctx.is_sequential() {
                // A *remote* wait is exempt: its producer lives on another
                // device lane running concurrently on its own host thread,
                // so sequential execution of this device does not make the
                // wait unsatisfiable. The deadlock_limit below still bounds
                // a genuinely stuck remote wait.
                panic!(
                    "soft-sync deadlock: block {} waits for flag[{i}] >= {min} \
                     (currently {v}) under sequential execution — the producer \
                     has not run, so the wait can never complete",
                    ctx.block_idx()
                );
            }
            if iters >= limit {
                panic!(
                    "soft-sync deadlock: block {} spun {iters} times on flag[{i}] >= {min} \
                     (DeviceConfig::deadlock_limit = {limit})",
                    ctx.block_idx()
                );
            }
            // Park cycles are 200 µs apiece, so checking the abort flag
            // every cycle matches the responsiveness the modulo gives the
            // microsecond-scale spin phases.
            if (parked || iters.is_multiple_of(256)) && ctx.abort_requested() {
                panic!(
                    "soft-sync wait aborted: block {} was waiting on flag[{i}] >= {min} \
                     when another block or job panicked",
                    ctx.block_idx()
                );
            }
            if iters < HOT_SPIN_POLLS {
                std::hint::spin_loop();
            } else if pause <= BACKOFF_MAX_PAUSE {
                if pause == 1 {
                    escalate(ctx, remote); // hot spin -> backoff
                }
                for _ in 0..pause {
                    std::hint::spin_loop();
                }
                pause <<= 1;
                if pause > BACKOFF_MAX_PAUSE {
                    escalate(ctx, remote); // backoff -> park
                }
            } else {
                parked = true;
                self.park(ctx, i, min);
                iters += PARK_ITERS - 1;
            }
        }
    }

    /// Host-side read (not accounted), for assertions.
    pub fn peek(&self, i: usize) -> u8 {
        self.flags[i].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::global::set_force_scalar;
    use crate::launch::{DispatchOrder, ExecMode, Gpu, LaunchConfig};
    use crate::metrics::BlockStats;
    use std::sync::Mutex;

    #[test]
    fn counter_hands_out_unique_ids() {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
        let c = DeviceCounter::new();
        let seen = GlobalBuffer::<u32>::zeroed(64);
        gpu.launch(LaunchConfig::new("ids", 64, 32), |ctx| {
            let id = c.next(ctx);
            seen.atomic_add(ctx, id as usize, 1);
        });
        assert_eq!(c.peek(), 64);
        assert!(seen.to_vec().iter().all(|&v| v == 1), "each id claimed exactly once");
    }

    #[test]
    fn publish_then_wait_transfers_data() {
        // Producer block writes data with relaxed stores, then publishes a
        // flag; consumer waits on the flag and must observe the data.
        // Virtual IDs order the two roles regardless of dispatch order.
        for dispatch in [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(7)] {
            let gpu = Gpu::new(DeviceConfig::tiny())
                .with_mode(ExecMode::Concurrent)
                .with_dispatch(dispatch);
            let counter = DeviceCounter::new();
            let board = StatusBoard::new(1);
            let data = GlobalBuffer::<u32>::zeroed(4);
            let got = GlobalBuffer::<u32>::zeroed(4);
            gpu.launch(LaunchConfig::new("pubsub", 2, 32), |ctx| {
                let vid = counter.next(ctx);
                if vid == 0 {
                    for k in 0..4 {
                        data.write(ctx, k, 100 + k as u32);
                    }
                    board.publish(ctx, 0, 1);
                } else {
                    board.wait_at_least(ctx, 0, 1);
                    for k in 0..4 {
                        let v = data.read(ctx, k);
                        got.write(ctx, k, v);
                    }
                }
            });
            assert_eq!(got.to_vec(), vec![100, 101, 102, 103], "{dispatch:?}");
        }
    }

    #[test]
    fn sequential_wait_on_satisfied_flag_succeeds() {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
        let counter = DeviceCounter::new();
        let board = StatusBoard::new(1);
        let m = gpu.launch(LaunchConfig::new("seq", 2, 32), |ctx| {
            let vid = counter.next(ctx);
            if vid == 0 {
                board.publish(ctx, 0, 2);
            } else {
                let v = board.wait_at_least(ctx, 0, 1);
                assert_eq!(v, 2, "wait returns the observed value, not the minimum");
            }
        });
        assert_eq!(m.stats.flag_publishes, 1);
        assert_eq!(m.stats.flag_waits, 1);
    }

    #[test]
    #[should_panic(expected = "soft-sync deadlock")]
    fn sequential_wait_on_future_flag_is_a_deadlock() {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
        let counter = DeviceCounter::new();
        let board = StatusBoard::new(1);
        gpu.launch(LaunchConfig::new("dead", 2, 32), |ctx| {
            let vid = counter.next(ctx);
            if vid == 0 {
                // Waits on a flag only the *second* block publishes:
                // violates the smaller-virtual-ID discipline.
                board.wait_at_least(ctx, 0, 1);
            } else {
                board.publish(ctx, 0, 1);
            }
        });
    }

    #[test]
    fn flags_are_monotone() {
        let board = StatusBoard::new(8);
        assert_eq!(board.peek(3), 0);
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
        gpu.launch(LaunchConfig::new("mono", 1, 32), |ctx| {
            board.publish(ctx, 3, 1);
            board.publish(ctx, 3, 4);
        });
        assert_eq!(board.peek(3), 4);
        assert_eq!(board.peek(2), 0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    #[cfg(debug_assertions)] // the guard is a debug_assert, absent in release
    fn decreasing_flag_is_rejected_in_debug() {
        // Failure injection: publishing a smaller status than already
        // present violates the monotonicity the look-back proof needs;
        // debug builds must catch it at the publication site.
        let gpu = Gpu::new(DeviceConfig::tiny());
        let board = StatusBoard::new(1);
        gpu.launch(LaunchConfig::new("mono-violation", 1, 32), |ctx| {
            board.publish(ctx, 0, 3);
            board.publish(ctx, 0, 1);
        });
    }

    /// The counters of a one-block launch of `body` on `gpu`. A one-block
    /// grid runs inline on the calling thread, so the caller decides when
    /// the block starts.
    fn one_block(gpu: &Gpu, body: impl Fn(&mut BlockCtx) + Sync) -> BlockStats {
        gpu.launch(LaunchConfig::new("one-block", 1, 32), body).stats
    }

    /// A Concurrent device, whose waits spin, back off and park rather than
    /// panic as a Sequential one's would.
    fn concurrent() -> Gpu {
        Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent)
    }

    /// The counters of a one-block launch of `wait`, while another thread
    /// publishes `board[slot] = 1` from a one-block launch 5 ms in.
    fn wait_for_late_publish(board: &StatusBoard, slot: usize, wait: impl Fn(&mut BlockCtx) + Sync) -> BlockStats {
        let gpu = concurrent();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                one_block(&gpu, |ctx| board.publish(ctx, slot, 1));
            });
            one_block(&gpu, wait)
        })
    }

    #[test]
    fn long_waits_record_backoff_transitions() {
        // The producer publishes after several milliseconds, forcing the
        // waiter through hot spin, exponential backoff, and parking.
        let board = StatusBoard::new(1);
        let stats = wait_for_late_publish(&board, 0, |ctx| assert_eq!(board.wait_at_least(ctx, 0, 1), 1));
        assert_eq!(stats.flag_waits, 1);
        assert!(
            (1..=3).contains(&stats.flag_backoff_events),
            "a multi-ms wait escalates at least once and at most once per transition, got {}",
            stats.flag_backoff_events
        );
        assert_eq!(
            stats.deterministic().flag_backoff_events,
            0,
            "backoff events are schedule noise and masked from deterministic counters"
        );

        // An already-satisfied wait never leaves the hot path.
        let stats = one_block(&concurrent(), |ctx| assert_eq!(board.wait_at_least(ctx, 0, 1), 1));
        assert_eq!(stats.flag_backoff_events, 0);
    }

    #[test]
    fn remote_waits_charge_the_d2d_backoff_counter() {
        // Same escalation ladder as `long_waits_record_backoff_transitions`,
        // but through `wait_at_least_remote`: transitions land on
        // `d2d_backoff_events`, the local counter stays untouched, and the
        // remote counter is likewise masked from deterministic().
        let board = StatusBoard::new(1);
        let stats = wait_for_late_publish(&board, 0, |ctx| assert_eq!(board.wait_at_least_remote(ctx, 0, 1), 1));
        assert_eq!(stats.flag_waits, 1, "remote waits still count as waits");
        assert_eq!(stats.flag_backoff_events, 0, "local backoff counter untouched");
        assert!(
            (1..=3).contains(&stats.d2d_backoff_events),
            "a multi-ms remote wait escalates 1..=3 times, got {}",
            stats.d2d_backoff_events
        );
        assert_eq!(stats.deterministic().d2d_backoff_events, 0);

        // A satisfied remote wait is pure hot path on either counter.
        let stats = one_block(&concurrent(), |ctx| assert_eq!(board.wait_at_least_remote(ctx, 0, 1), 1));
        assert_eq!(stats.flag_backoff_events + stats.d2d_backoff_events, 0);
    }

    #[test]
    fn long_waits_park_and_leave_no_waiter_behind() {
        // A multi-ms wait exhausts the spin/backoff phases and parks: the
        // park counter records it, the waiter registry is empty again
        // afterwards (no leaked registration to mis-wake a later wait on
        // the same stripe), and both park counters are masked from
        // deterministic() like the backoff events they replace.
        let board = StatusBoard::new(3);
        let stats = wait_for_late_publish(&board, 2, |ctx| assert_eq!(board.wait_at_least(ctx, 2, 1), 1));
        assert!(
            stats.park_events >= 1,
            "a multi-ms wait must reach the park phase, got {} park events",
            stats.park_events
        );
        assert!(
            stats.wakeups <= stats.park_events,
            "every publisher wake corresponds to one park: {} wakeups vs {} parks",
            stats.wakeups,
            stats.park_events
        );
        let det = stats.deterministic();
        assert_eq!(det.park_events, 0, "park events are schedule noise");
        assert_eq!(det.wakeups, 0, "wakeups are schedule noise");
        for stripe in board.stripes.iter() {
            assert_eq!(stripe.parked.load(Ordering::SeqCst), 0);
            assert!(stripe.waiters.lock().unwrap().is_empty());
        }
    }

    #[test]
    fn publication_wakes_only_eligible_waiters() {
        // Two waiters on different flags that share a board: publishing
        // one flag must release exactly that waiter (the other keeps
        // parking until its own flag advances). This is the "wakes
        // exactly the eligible waiters" half of the park/wake contract;
        // the threshold half (min > v stays registered) rides along by
        // waiting for 2 while first publishing 1.
        let gpu = concurrent();
        // One flag -> one stripe: both waiters share a registry stripe,
        // exercising the retain-based selective wake.
        let board = StatusBoard::new(1);
        std::thread::scope(|s| {
            s.spawn(|| one_block(&gpu, |ctx| assert_eq!(board.wait_at_least(ctx, 0, 2), 2)));
            one_block(&gpu, |ctx| {
                std::thread::sleep(std::time::Duration::from_millis(3));
                board.publish(ctx, 0, 1); // below the waiter's threshold
                std::thread::sleep(std::time::Duration::from_millis(3));
                board.publish(ctx, 0, 2); // releases it
            });
        });
        for stripe in board.stripes.iter() {
            assert_eq!(stripe.parked.load(Ordering::SeqCst), 0);
            assert!(stripe.waiters.lock().unwrap().is_empty());
        }
    }

    #[test]
    fn look_back_charges_its_first_step_alone() {
        // Four predecessors: slots 3 and 2 hold partial values (flag 1),
        // slots 1 and 0 full ones (flag 2). A walk from slot 3 adds
        // part[3] + part[2] + full[1] and stops there; one from slot 1
        // stops at once. Either way it is charged its first step alone:
        // one wait and one `width`-element read, or one D2D transfer of
        // those bytes when that predecessor is remote.
        let gpu = Gpu::new(DeviceConfig::tiny());
        let board = StatusBoard::new(4);
        one_block(&gpu, |ctx| {
            for (slot, flag) in [(0, 2), (1, 2), (2, 1), (3, 1)] {
                board.publish(ctx, slot, flag);
            }
        });
        for width in [1, 4] {
            let part = GlobalBuffer::from_slice(&(1..=4 * width as u64).collect::<Vec<_>>());
            let full = GlobalBuffer::from_slice(&(1..=4 * width as u64).map(|v| 1000 * v).collect::<Vec<_>>());
            let at = |buf: &GlobalBuffer<u64>, slot: usize, k: usize| buf.host_read(slot * width + k);
            for (from, want, steps) in [
                (3, (0..width).map(|k| at(&part, 3, k) + at(&part, 2, k) + at(&full, 1, k)).collect::<Vec<_>>(), 2),
                (1, (0..width).map(|k| at(&full, 1, k)).collect(), 0),
            ] {
                for (remote, scalar) in [(false, false), (false, true), (true, false), (true, true)] {
                    let got = Mutex::new(Vec::new());
                    set_force_scalar(scalar);
                    let stats = one_block(&gpu, |ctx| {
                        let preds = (0..=from).rev().map(|slot| Pred { slot, offset: slot * width, remote });
                        let mut acc = vec![0; width];
                        board.look_back(ctx, preds, (&part, &full), (1, 2), &mut acc);
                        *got.lock().unwrap() = acc;
                    });
                    set_force_scalar(false);
                    let case = format!("width {width} from slot {from}, remote {remote}, force_scalar {scalar}");
                    let bytes = 8 * width as u64;
                    let (read, d2d) = if remote { ((0, 0), (1, bytes)) } else { ((width as u64, bytes), (0, 0)) };
                    assert_eq!(got.into_inner().unwrap(), want, "{case}");
                    assert_eq!((stats.flag_waits, stats.host_walk_steps), (1, steps), "{case}");
                    assert_eq!((stats.global_reads, stats.bytes_read), read, "{case}");
                    assert_eq!((stats.d2d_transfers, stats.d2d_bytes), d2d, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "soft-sync deadlock")]
    fn concurrent_wait_with_no_producer_hits_the_deadlock_limit() {
        // Nothing ever publishes the flag; the configurable limit turns
        // what used to be a billion-iteration spin into a fast failure.
        let mut cfg = DeviceConfig::tiny();
        cfg.deadlock_limit = 5_000;
        let gpu = Gpu::new(cfg).with_mode(ExecMode::Concurrent);
        let board = StatusBoard::new(1);
        gpu.launch(LaunchConfig::new("stuck", 1, 32), |ctx| {
            board.wait_at_least(ctx, 0, 1);
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn waiter_on_panicked_producer_fails_fast() {
        // The first-executed block takes virtual id 0 and dies before
        // publishing; any block already waiting must observe the launch
        // abort instead of spinning to the deadlock limit, and the
        // *original* panic is the one the host sees.
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
        let counter = DeviceCounter::new();
        let board = StatusBoard::new(1);
        gpu.launch(LaunchConfig::new("dead-producer", 2, 32), |ctx| {
            let vid = counter.next(ctx);
            if vid == 0 {
                panic!("boom");
            }
            board.wait_at_least(ctx, 0, 1);
        });
    }

    #[test]
    fn chain_of_dependent_blocks_completes_concurrently() {
        // Block with virtual id k waits for flag k-1, then publishes flag
        // k: a maximal dependency chain. Must complete with any worker
        // count and any dispatch order.
        let n = 40;
        let gpu = Gpu::new(DeviceConfig::tiny())
            .with_mode(ExecMode::Concurrent)
            .with_dispatch(DispatchOrder::Random(99));
        let counter = DeviceCounter::new();
        let board = StatusBoard::new(n);
        let order = GlobalBuffer::<u32>::zeroed(n);
        gpu.launch(LaunchConfig::new("chain", n, 32), |ctx| {
            let vid = counter.next(ctx) as usize;
            if vid > 0 {
                board.wait_at_least(ctx, vid - 1, 1);
                let prev = order.read(ctx, vid - 1);
                order.write(ctx, vid, prev + 1);
            } else {
                order.write(ctx, 0, 1);
            }
            board.publish(ctx, vid, 1);
        });
        let o = order.to_vec();
        assert_eq!(o[n - 1], n as u32, "chain carried a value through all blocks: {o:?}");
    }
}
