//! Access counters: the measured quantities behind Table I and the inputs
//! to the timing model behind Table III.
//!
//! Counting happens at two levels:
//!
//! 1. [`BlockStats`] — plain (non-atomic) per-block counters owned by a
//!    `BlockCtx`; incrementing them is free enough to do per element. A
//!    launch sums them with [`BlockStats::merge`]: each thread that runs
//!    its blocks merges them locally, then into the launch's total once.
//! 2. [`KernelMetrics`] / [`RunMetrics`] — immutable snapshots returned to
//!    the caller, one per kernel launch and one per algorithm run.
//!
//! Most counters depend only on what the algorithm does, so they are
//! identical under sequential and concurrent execution. Six record how the
//! host serviced waits and walks and vary with the schedule:
//! `flag_poll_iterations`, `flag_backoff_events`, `d2d_backoff_events`,
//! `park_events`, `wakeups` and `host_walk_steps`. A seventh,
//! `token_handoffs`, is always 0. [`BlockStats::deterministic`] masks
//! exactly those seven.
//!
//! A decoupled look-back walk
//! ([`StatusBoard::look_back`](crate::sync::StatusBoard::look_back)) is
//! charged one step, as on the GPU the paper argues for: one flag wait on
//! the nearest predecessor and one read of its value (or one D2D transfer
//! when that predecessor sits on an earlier band's device). How many more
//! predecessors the walk visits depends on which host thread ran first, on
//! a few host cores rather than 80 SMs, so each further step counts
//! `host_walk_steps`, which `crate::timing` does not price.

/// Per-block access counters. All quantities are totals over the block's
/// lifetime; `bytes_*` fields are *effective* traffic as charged by the
/// device model (strided accesses cost more bytes than they transfer
/// usefully).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BlockStats {
    /// Global-memory element reads.
    pub global_reads: u64,
    /// Global-memory element writes.
    pub global_writes: u64,
    /// Effective bytes of read traffic (coalesced: element size per
    /// element; strided: `DeviceConfig::strided_bytes_per_elem`).
    pub bytes_read: u64,
    /// Effective bytes of write traffic.
    pub bytes_written: u64,
    /// Subset of `global_reads` performed with stride access.
    pub strided_reads: u64,
    /// Subset of `global_writes` performed with stride access.
    pub strided_writes: u64,
    /// Shared-memory element accesses (reads + writes).
    pub shared_accesses: u64,
    /// Extra serialized shared-memory cycles caused by bank conflicts.
    /// A conflict-free warp access adds 0; a k-way conflict adds k-1.
    pub bank_conflict_cycles: u64,
    /// Device atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Completed waits on a status flag (one per `wait_*` call).
    pub flag_waits: u64,
    /// Spin-loop iterations spent inside flag waits. Schedule-dependent;
    /// excluded from equality comparisons of deterministic counters.
    pub flag_poll_iterations: u64,
    /// Backoff escalations inside flag waits: one per phase transition
    /// (hot spin -> exponential backoff -> park) performed by
    /// [`crate::sync::StatusBoard::wait_at_least`]. Schedule-dependent
    /// like `flag_poll_iterations`, and excluded from `deterministic()`
    /// for the same reason: how long a wait spins depends on when the
    /// producer was scheduled, not on what the algorithm did.
    pub flag_backoff_events: u64,
    /// Status-flag publications.
    pub flag_publishes: u64,
    /// `__syncthreads()` barriers executed by the block.
    pub barriers: u64,
    /// Warp shuffle operations (one per lane-exchange step).
    pub warp_shuffles: u64,
    /// Device-to-device transfers: one per peer-memory transaction
    /// (boundary publication or remote boundary read) issued by a
    /// cooperative multi-device kernel. Charged through
    /// [`BlockStats::charge_d2d`] like every other memory class.
    pub d2d_transfers: u64,
    /// Bytes moved across the device interconnect by those transfers.
    pub d2d_bytes: u64,
    /// Backoff escalations inside *cross-device* flag waits
    /// ([`crate::sync::StatusBoard::wait_at_least_remote`]). The remote
    /// mirror of `flag_backoff_events`: schedule-dependent wall-clock
    /// noise, excluded from `deterministic()` for the same reason.
    pub d2d_backoff_events: u64,
    /// Times a flag wait parked on a condvar (one per registration +
    /// timed wait, local or remote) after exhausting the bounded hot
    /// spin. Pure host-scheduling noise like `flag_backoff_events`:
    /// whether a wait parks at all depends on when the producer's OS
    /// thread ran, so it is excluded from `deterministic()`.
    pub park_events: u64,
    /// Parked waits ended by a publisher's targeted wake rather than a
    /// timeout expiry. `park_events - wakeups` parks timed out and
    /// re-checked the flag on their own. Schedule noise, masked from
    /// `deterministic()` alongside `park_events`.
    pub wakeups: u64,
    /// Look-back walk steps past the walk's first, charged predecessor:
    /// one per further predecessor a
    /// [`StatusBoard::look_back`](crate::sync::StatusBoard::look_back)
    /// walk awaits. Such a step's wait is not a `flag_waits` wait and its
    /// read charges nothing: whether a walk takes it depends on what the
    /// host had run, not on the algorithm. Masked from `deterministic()`,
    /// and not read by [`crate::timing`].
    pub host_walk_steps: u64,
    /// Always 0: a parked flag wait keeps its thread's execution token, and
    /// nothing is handed off. Kept only because perfbench
    /// (`perfbench/src/book.rs`) reads it; it goes with perfbench's
    /// `group.token_handoffs` metric. Masked from `deterministic()`.
    pub token_handoffs: u64,
}

/// The *accounting sink* (see `DESIGN.md`, "warp-transaction accounting
/// contract"): every accounted memory or shuffle operation — scalar or
/// batched — funnels its counter updates through exactly one of these
/// charge methods. A batched operation over `k` elements calls the same
/// method its scalar expansion would call `k` times, with the element and
/// byte totals pre-multiplied, so the two paths are equal by construction:
/// there is no second accounting formula that could drift.
impl BlockStats {
    /// Charge `elems` coalesced global reads moving `bytes` of traffic.
    #[inline(always)]
    pub fn charge_global_read(&mut self, elems: u64, bytes: u64) {
        self.global_reads += elems;
        self.bytes_read += bytes;
    }

    /// Charge `elems` coalesced global writes moving `bytes` of traffic.
    #[inline(always)]
    pub fn charge_global_write(&mut self, elems: u64, bytes: u64) {
        self.global_writes += elems;
        self.bytes_written += bytes;
    }

    /// Charge `elems` strided global reads with `bytes` of effective
    /// traffic (already inflated by the device's strided penalty).
    #[inline(always)]
    pub fn charge_strided_read(&mut self, elems: u64, bytes: u64) {
        self.global_reads += elems;
        self.strided_reads += elems;
        self.bytes_read += bytes;
    }

    /// Charge `elems` strided global writes with `bytes` of effective
    /// traffic.
    #[inline(always)]
    pub fn charge_strided_write(&mut self, elems: u64, bytes: u64) {
        self.global_writes += elems;
        self.strided_writes += elems;
        self.bytes_written += bytes;
    }

    /// Charge `elems` shared-memory accesses plus `conflict_cycles` extra
    /// serialized cycles from bank conflicts.
    #[inline(always)]
    pub fn charge_shared(&mut self, elems: u64, conflict_cycles: u64) {
        self.shared_accesses += elems;
        self.bank_conflict_cycles += conflict_cycles;
    }

    /// Charge `count` warp shuffle lane-exchanges.
    #[inline(always)]
    pub fn charge_shuffles(&mut self, count: u64) {
        self.warp_shuffles += count;
    }

    /// Charge `transfers` device-to-device transactions moving `bytes`
    /// across the interconnect. D2D traffic is deliberately *not* also
    /// charged as global reads/writes: the timing model prices it through
    /// its own latency/bandwidth terms (`DeviceConfig::d2d_latency`,
    /// `DeviceConfig::d2d_bandwidth`), and double-charging would count the
    /// same bytes in two pipelines.
    #[inline(always)]
    pub fn charge_d2d(&mut self, transfers: u64, bytes: u64) {
        self.d2d_transfers += transfers;
        self.d2d_bytes += bytes;
    }
}

impl BlockStats {
    /// Merge `other` into `self` by field-wise addition.
    pub fn merge(&mut self, other: &BlockStats) {
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.strided_reads += other.strided_reads;
        self.strided_writes += other.strided_writes;
        self.shared_accesses += other.shared_accesses;
        self.bank_conflict_cycles += other.bank_conflict_cycles;
        self.atomic_ops += other.atomic_ops;
        self.flag_waits += other.flag_waits;
        self.flag_poll_iterations += other.flag_poll_iterations;
        self.flag_backoff_events += other.flag_backoff_events;
        self.flag_publishes += other.flag_publishes;
        self.barriers += other.barriers;
        self.warp_shuffles += other.warp_shuffles;
        self.d2d_transfers += other.d2d_transfers;
        self.d2d_bytes += other.d2d_bytes;
        self.d2d_backoff_events += other.d2d_backoff_events;
        self.park_events += other.park_events;
        self.wakeups += other.wakeups;
        self.host_walk_steps += other.host_walk_steps;
        self.token_handoffs += other.token_handoffs;
    }

    /// The deterministic part of the counters: everything except the six
    /// that record how the host serviced waits and walks
    /// (`flag_poll_iterations`, `flag_backoff_events`, `d2d_backoff_events`,
    /// `park_events`, `wakeups`, `host_walk_steps`) and the always-zero
    /// `token_handoffs`, which are zeroed. Every look-back walk charges
    /// its first step alone, so two executions of the same algorithm
    /// agree on this under any schedule, dispatch order, worker count and
    /// device placement.
    pub fn deterministic(&self) -> BlockStats {
        let mut c = self.clone();
        c.flag_poll_iterations = 0;
        c.flag_backoff_events = 0;
        c.d2d_backoff_events = 0;
        c.park_events = 0;
        c.wakeups = 0;
        c.host_walk_steps = 0;
        c.token_handoffs = 0;
        c
    }

    /// [`deterministic`](Self::deterministic) with the read side (reads,
    /// read bytes, strided reads, flag waits and D2D traffic) also masked.
    /// Nothing in the library needs it, since a look-back walk's charges
    /// do not follow the schedule. Kept only because perfbench
    /// (`perfbench/src/book.rs`) reads it; it goes with perfbench's
    /// look-back mask.
    pub fn deterministic_lookback(&self) -> BlockStats {
        let mut c = self.deterministic();
        c.global_reads = 0;
        c.bytes_read = 0;
        c.strided_reads = 0;
        c.flag_waits = 0;
        c.d2d_transfers = 0;
        c.d2d_bytes = 0;
        c
    }
}

/// Serialization structure of a soft-synchronized kernel, declared by the
/// algorithm at launch time and consumed by the timing model.
///
/// `hops` is the length of the longest cross-block dependency chain (for
/// the SKSS algorithms, the `2n/W - 1` diagonal/column wavefront).
/// `bytes_per_hop` is the work that must complete per hop before the
/// dependent block can observe the flag: the full tile service for the
/// coupled 1R1W-SKSS pipeline, or 0 for the decoupled look-back variant
/// where a hop is just a flag publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CriticalPath {
    /// Longest chain of flag-ordered cross-block dependencies.
    pub hops: u64,
    /// Bytes of memory work serialized per hop (0 if decoupled).
    pub bytes_per_hop: u64,
}

impl CriticalPath {
    /// No cross-block serialization (classic bulk-synchronous kernel).
    pub const NONE: CriticalPath = CriticalPath { hops: 0, bytes_per_hop: 0 };
}

/// Immutable record of one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelMetrics {
    /// Kernel label for reports (e.g. `"skss_lb"`).
    pub label: String,
    /// Number of blocks in the grid.
    pub blocks: usize,
    /// Threads per block declared at launch.
    pub threads_per_block: usize,
    /// Aggregated counters over all blocks.
    pub stats: BlockStats,
    /// Declared serialization structure.
    pub critical_path: CriticalPath,
    /// Declared per-thread memory-level parallelism (see
    /// `LaunchConfig::ilp`).
    pub ilp: usize,
    /// Host wall-clock duration of the simulated execution, seconds.
    pub host_seconds: f64,
}

impl KernelMetrics {
    /// Threads the launch put in flight (`blocks * threads_per_block`),
    /// the "threads" column of Table I.
    pub fn threads(&self) -> usize {
        self.blocks * self.threads_per_block
    }
}

/// Metrics of a complete algorithm run: one entry per kernel call.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-launch records in execution order.
    pub kernels: Vec<KernelMetrics>,
}

impl RunMetrics {
    /// Record one kernel launch.
    pub fn push(&mut self, k: KernelMetrics) {
        self.kernels.push(k);
    }

    /// Total number of kernel calls, the "kernel calls" column of Table I.
    pub fn kernel_calls(&self) -> usize {
        self.kernels.len()
    }

    /// Maximum threads over all kernel calls, the "threads" column of
    /// Table I.
    pub fn max_threads(&self) -> usize {
        self.kernels.iter().map(|k| k.threads()).max().unwrap_or(0)
    }

    /// Total global-memory element reads, the "global memory reads" column
    /// of Table I.
    pub fn total_reads(&self) -> u64 {
        self.kernels.iter().map(|k| k.stats.global_reads).sum()
    }

    /// Total global-memory element writes, the "global memory writes"
    /// column of Table I.
    pub fn total_writes(&self) -> u64 {
        self.kernels.iter().map(|k| k.stats.global_writes).sum()
    }

    /// Total effective traffic in bytes (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.stats.bytes_read + k.stats.bytes_written)
            .sum()
    }

    /// Aggregate counters over all kernels.
    pub fn total_stats(&self) -> BlockStats {
        let mut t = BlockStats::default();
        for k in &self.kernels {
            t.merge(&k.stats);
        }
        t
    }

    /// Total host wall-clock time of the simulated run.
    pub fn host_seconds(&self) -> f64 {
        self.kernels.iter().map(|k| k.host_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(reads: u64, writes: u64) -> BlockStats {
        BlockStats {
            global_reads: reads,
            global_writes: writes,
            bytes_read: reads * 4,
            bytes_written: writes * 4,
            ..Default::default()
        }
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = stats(10, 5);
        a.barriers = 3;
        let mut b = stats(1, 2);
        b.barriers = 4;
        a.merge(&b);
        assert_eq!(a.global_reads, 11);
        assert_eq!(a.global_writes, 7);
        assert_eq!(a.bytes_read, 44);
        assert_eq!(a.barriers, 7);
    }

    #[test]
    fn deterministic_masks_poll_iterations() {
        let mut a = stats(1, 1);
        a.flag_poll_iterations = 999;
        a.flag_backoff_events = 2;
        a.d2d_backoff_events = 5;
        a.park_events = 7;
        a.wakeups = 4;
        a.host_walk_steps = 6;
        a.token_handoffs = 2;
        let mut b = stats(1, 1);
        b.flag_poll_iterations = 3;
        b.flag_backoff_events = 0;
        b.d2d_backoff_events = 0;
        b.park_events = 0;
        b.wakeups = 0;
        b.host_walk_steps = 0;
        b.token_handoffs = 0;
        assert_ne!(a, b);
        assert_eq!(a.deterministic(), b.deterministic());
    }

    #[test]
    fn d2d_charges_flow_through_merge() {
        // The D2D class rides the same accounting pipeline as every other
        // counter: charge -> merge.
        let mut a = BlockStats::default();
        a.charge_d2d(2, 1024);
        let mut b = BlockStats::default();
        b.charge_d2d(1, 256);
        b.d2d_backoff_events = 3;
        a.merge(&b);
        assert_eq!(a.d2d_transfers, 3);
        assert_eq!(a.d2d_bytes, 1280);
        assert_eq!(a.d2d_backoff_events, 3);
        // D2D traffic is its own class: no global read/write leakage.
        assert_eq!(a.global_reads + a.global_writes, 0);
        assert_eq!(a.bytes_read + a.bytes_written, 0);
        assert_eq!(a.deterministic().d2d_backoff_events, 0, "remote backoff is schedule noise");
        assert_eq!(a.deterministic().d2d_transfers, 3, "transfers themselves are deterministic");
    }

    #[test]
    fn run_metrics_totals() {
        let mut run = RunMetrics::default();
        run.push(KernelMetrics {
            label: "a".into(),
            blocks: 4,
            threads_per_block: 256,
            stats: stats(100, 50),
            critical_path: CriticalPath::NONE,
            ilp: 1,
            host_seconds: 0.0,
        });
        run.push(KernelMetrics {
            label: "b".into(),
            blocks: 16,
            threads_per_block: 128,
            stats: stats(10, 20),
            critical_path: CriticalPath::NONE,
            ilp: 1,
            host_seconds: 0.0,
        });
        assert_eq!(run.kernel_calls(), 2);
        assert_eq!(run.max_threads(), 16 * 128);
        assert_eq!(run.total_reads(), 110);
        assert_eq!(run.total_writes(), 70);
        assert_eq!(run.total_bytes(), (110 + 70) * 4);
    }

    #[test]
    fn critical_path_none_is_zero() {
        assert_eq!(CriticalPath::NONE.hops, 0);
        assert_eq!(CriticalPath::NONE.bytes_per_hop, 0);
    }
}
