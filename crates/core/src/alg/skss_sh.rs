//! **1R1W-SKSS-SH — shuffle-only software-systolic SKSS** (ninth
//! algorithm; not in the source paper).
//!
//! Chen et al., *"A Versatile Software Systolic Execution Model for GPU
//! Memory-Bound Kernels"* (see PAPERS.md), show memory-bound scans running
//! entirely on register-to-register warp shuffles: the working set lives
//! in each thread's registers and partial results *flow* between lanes
//! through `__shfl_sync`, with no shared-memory staging tile at all. This
//! variant applies that execution model to the paper's winning algorithm:
//!
//! * **Inter-tile propagation is byte-for-byte SKSS-LB.** Diagonal-major
//!   `atomicAdd` tile claiming, the two 8-bit status boards, and the
//!   look-back walks (one charged step each) are reused verbatim from
//!   [`super::skss_lb`] — same aux buffers, same flag protocol, same
//!   charges. Anything that differs between the two
//!   algorithms is therefore attributable to the intra-tile pipeline.
//! * **Intra-tile work is register-systolic.** The block is one warp of
//!   `W` threads; thread `j` holds column `j` of the tile in a `W`-deep
//!   register slice (loaded by `W` coalesced row reads, one element per
//!   lane per row). Column sums and column prefix sums are thread-local
//!   register arithmetic — free, like every `ctx.scratch` register
//!   operation in this simulator. Row sums are warp butterfly reductions
//!   and row prefix sums are Kogge-Stone scans over lanes — the paper's
//!   own Fig. 4 primitive — so the *only* intra-tile charges are warp
//!   shuffles: `2 W^2 ceil(log2 W)` per tile, and exactly zero
//!   shared-memory transactions, zero bank-conflict cycles, and zero
//!   `__syncthreads()` barriers (a single warp is implicitly
//!   synchronous).
//!
//! For `W > 32` a tile does not fit one warp; the implementation then
//! chunks each row over `ceil(W/32)` warp segments and charges one extra
//! shuffle round per segment boundary for the carry hand-off, plus two
//! structural barriers per tile — an idealization (real cross-warp
//! exchange needs shared memory or global traffic), flagged here so the
//! `W = 64/128` cells of Table III are read as a lower bound for this
//! variant. The paper's own sweet spot, `W = 32`, is exact.
//!
//! Register pressure is the real-hardware cost this simulator prices only
//! indirectly: `W` elements per thread (128 bytes at `W = 32`/f32) caps
//! occupancy at 2 blocks per SM on the TITAN V generation, which the
//! timing model sees through the declared per-thread ILP of `W` rather
//! than through a separate occupancy term.

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::launch::{BlockCtx, Gpu, LaunchConfig};
use gpu_sim::metrics::{CriticalPath, RunMetrics};
use gpu_sim::device::WARP;
use gpu_sim::simd;
use gpu_sim::warp::{warp_inclusive_scan, warp_reduce_sum};

use super::skss_lb::{tile_for_serial, State};
use super::{SatAlgorithm, SatParams};
use crate::tile::TileGrid;

/// The shuffle-only software-systolic variant of SKSS-LB.
#[derive(Debug, Clone, Copy)]
pub struct SkssSh {
    /// Tile width; the block size is `W` (one thread per column).
    pub params: SatParams,
}

impl SkssSh {
    /// The variant at tile width `params.w`.
    pub fn new(params: SatParams) -> Self {
        SkssSh { params }
    }
}

/// Shuffle steps of a `len`-lane Kogge-Stone scan or butterfly reduction:
/// `ceil(log2 len)`, 0 for a single lane.
fn kogge_stone_steps(len: usize) -> u64 {
    if len <= 1 {
        0
    } else {
        (usize::BITS - (len - 1).leading_zeros()) as u64
    }
}

/// Closed-form warp shuffles charged per tile: row sums plus row scans,
/// each `W` rows of `W` lanes at `ceil(log2 W)` steps — `2 W^2 log2 W`
/// for warp-sized tiles. Rows wider than a warp add one carry hand-off
/// round per extra segment: `(W - 32) per row` for sums and scans alike.
pub fn shuffles_per_tile(w: usize) -> u64 {
    let full: u64 = (0..w)
        .map(|_| {
            let mut per_row = 0u64;
            let mut off = 0usize;
            while off < w {
                let len = (w - off).min(WARP);
                per_row += kogge_stone_steps(len) * len as u64;
                if off > 0 {
                    per_row += len as u64; // carry broadcast into this segment
                }
                off += len;
            }
            per_row
        })
        .sum();
    2 * full
}

/// Warp reduction of one register row, chunked over warp segments for
/// `W > 32`; the inter-segment combine rides in registers and is charged
/// as one carry-broadcast shuffle round per extra segment.
fn row_reduce<T: DeviceElem>(ctx: &mut BlockCtx, row: &[T]) -> T {
    let mut acc = T::zero();
    for (s, seg) in row.chunks(WARP).enumerate() {
        if s > 0 {
            ctx.stats.charge_shuffles(seg.len() as u64);
        }
        acc = acc.add(warp_reduce_sum(ctx, seg));
    }
    acc
}

/// Kogge-Stone inclusive scan of one register row, chunked over warp
/// segments with a carry broadcast between segments.
fn row_scan<T: DeviceElem>(ctx: &mut BlockCtx, row: &mut [T]) {
    let mut carry = T::zero();
    for (s, seg) in row.chunks_mut(WARP).enumerate() {
        warp_inclusive_scan(ctx, seg);
        if s > 0 {
            ctx.stats.charge_shuffles(seg.len() as u64);
            simd::add_scalar(seg, carry);
        }
        carry = seg[seg.len() - 1];
    }
}

impl<T: DeviceElem> SatAlgorithm<T> for SkssSh {
    fn name(&self) -> String {
        format!("skss_sh_w{}", self.params.w)
    }

    fn run(&self, gpu: &Gpu, input: &GlobalBuffer<T>, output: &GlobalBuffer<T>, n: usize) -> RunMetrics {
        let grid = TileGrid::new(n, self.params.w);
        let t = grid.t;
        let w = grid.w;
        let tpb = w.min(gpu.config().max_threads_per_block);
        let state = State::<T>::new(grid);

        // Decoupled look-back, as SKSS-LB: one flag publication per hop.
        let cp = CriticalPath { hops: grid.diagonals() as u64, bytes_per_hop: 0 };
        // ILP = W: each thread issues its whole register column's loads
        // and stores independently (the systolic model's selling point on
        // memory-bound kernels).
        let lc = LaunchConfig::new("skss_sh", grid.tiles(), tpb).with_critical_path(cp).with_ilp(w);

        let mut run = RunMetrics::default();
        run.push(gpu.launch(lc, |ctx| {
            loop {
                let serial = state.counter.next(ctx) as usize;
                if serial >= grid.tiles() {
                    return;
                }
                let (ti, tj) = tile_for_serial(serial, t);
                process_tile_systolic(ctx, input, output, &state, ti, tj, 0);
            }
        }));
        run
    }
}

/// The register-systolic tile pipeline for one tile: load into registers,
/// shuffle-only local sums, the SKSS-LB flag/look-back protocol, and the
/// Kogge-Stone intra-tile SAT. Shared by the one-shot [`SkssSh::run`] loop
/// (`d2d_below = 0`) and the cooperative band decomposition in
/// [`crate::coop`], exactly like [`super::skss_lb::process_tile`].
pub(crate) fn process_tile_systolic<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    state: &State<T>,
    ti: usize,
    tj: usize,
    d2d_below: usize,
) {
    let grid = state.grid;
    let w = grid.w;
    let multi_warp = w > WARP;

    // Step 1: tile into registers — W coalesced row reads,
    // each lane taking its column's element. No shared tile.
    let mut regs: Vec<T> = ctx.scratch_overwrite(w * w);
    input.load_2d(ctx, grid.elem_offset(ti, tj, 0, 0), grid.n, w, &mut regs);

    // Local sums. Columns are thread-local register slices:
    // LCS is free arithmetic. Rows span the warp: LRS is one
    // butterfly reduction per row.
    let mut lcs_v: Vec<T> = ctx.scratch(w);
    for row in regs.chunks_exact(w) {
        simd::zip_add(&mut lcs_v, row);
    }
    let mut lrs_v: Vec<T> = ctx.scratch(w);
    for (s, row) in lrs_v.iter_mut().zip(regs.chunks_exact(w)) {
        *s = row_reduce(ctx, row);
    }
    if multi_warp {
        ctx.syncthreads();
    }

    // Steps 2–3: SKSS-LB's publications and look-back walks, verbatim.
    let (grs_left, gcs_top, gs_prev) = state.propagate(ctx, ti, tj, &lrs_v, lcs_v, true, d2d_below);

    // Step 4: borders folded straight into registers (free, as
    // all register arithmetic), in the same order the shared
    // tile's `apply_borders` uses: left column, top row,
    // corner.
    for (r, &g) in grs_left.iter().enumerate() {
        regs[r * w] = regs[r * w].add(g);
    }
    simd::zip_add(&mut regs[..w], &gcs_top);
    regs[0] = regs[0].add(gs_prev);

    // Intra-tile SAT, shuffle-only: Kogge-Stone row scans
    // across lanes, then thread-local column accumulation
    // (each lane adds its previous register to the next —
    // the systolic flow).
    for row in regs.chunks_exact_mut(w) {
        row_scan(ctx, row);
    }
    for i in 1..w {
        let (above, below) = regs.split_at_mut(i * w);
        let prev = &above[(i - 1) * w..];
        simd::zip_add(&mut below[..w], &prev[..w]);
    }
    if multi_warp {
        ctx.syncthreads();
    }

    // Step 5: registers straight back to global memory.
    output.store_2d(ctx, grid.elem_offset(ti, tj, 0, 0), grid.n, w, &regs);
    ctx.recycle(regs);
    ctx.recycle(lrs_v);
    ctx.recycle(grs_left);
    ctx.recycle(gcs_top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::skss_lb::SkssLb;
    use crate::alg::compute_sat;
    use crate::matrix::Matrix;
    use crate::reference;
    use gpu_sim::prelude::*;

    fn alg(w: usize) -> SkssSh {
        SkssSh::new(SatParams { w, threads_per_block: (w * w).min(256) })
    }

    #[test]
    fn matches_reference_sequential_and_concurrent() {
        for (n, w) in [(8usize, 8usize), (32, 8), (64, 8), (24, 8), (64, 16), (16, 4), (8, 1)] {
            let a = Matrix::<u64>::random(n, n, 0x55AA + n as u64, 12);
            let expect = reference::sat(&a);
            let gpu = Gpu::new(DeviceConfig::tiny());
            let (got, _) = compute_sat(&gpu, &alg(w), &a);
            assert_eq!(got, expect, "sequential n={n} w={w}");
            for dispatch in [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(3)] {
                let gpu = Gpu::new(DeviceConfig::tiny())
                    .with_mode(ExecMode::Concurrent)
                    .with_dispatch(dispatch);
                let (got, _) = compute_sat(&gpu, &alg(w), &a);
                assert_eq!(got, expect, "concurrent n={n} w={w} {dispatch:?}");
            }
        }
    }

    /// The tentpole claim: a register-systolic tile pipeline charges zero
    /// shared-memory transactions, zero bank conflicts, zero barriers —
    /// and exactly the closed-form Kogge-Stone shuffle totals.
    #[test]
    fn zero_shared_traffic_and_closed_form_shuffles() {
        let n = 32usize;
        let w = 8usize;
        let tiles = (n / w) * (n / w);
        let a = Matrix::<u64>::random(n, n, 0x5157, 9);
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (_, run) = compute_sat(&gpu, &alg(w), &a);
        let stats = run.total_stats();
        assert_eq!(stats.shared_accesses, 0, "no shared tile, no shared transactions");
        assert_eq!(stats.bank_conflict_cycles, 0, "nothing to conflict on");
        assert_eq!(stats.barriers, 0, "one warp per block is implicitly synchronous");
        assert_eq!(stats.strided_reads, 0);
        assert_eq!(stats.strided_writes, 0);
        // 2 W^2 ceil(log2 W) per tile: row reductions + row scans.
        let per_tile = 2 * (w * w) as u64 * 3; // log2(8) = 3
        assert_eq!(shuffles_per_tile(w), per_tile);
        assert_eq!(stats.warp_shuffles, tiles as u64 * per_tile);
        assert_eq!(run.kernel_calls(), 1);
    }

    /// The shuffle totals are a deterministic function of the grid — the
    /// same in every execution mode (the ISSUE's four-mode requirement;
    /// scheduling_parity covers the full deterministic() sweep).
    #[test]
    fn shuffle_counts_exact_in_all_four_modes() {
        let n = 64usize;
        let w = 8usize;
        let expect_shfl = ((n / w) * (n / w)) as u64 * shuffles_per_tile(w);
        let a = Matrix::<u64>::random(n, n, 0x4A11, 9);
        let expect = reference::sat(&a);
        let input = a.to_device();

        let mut runs: Vec<(String, BlockStats)> = Vec::new();
        // Sequential and concurrent.
        for mode in [ExecMode::Sequential, ExecMode::Concurrent] {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(mode).with_dispatch(DispatchOrder::Reversed);
            let output = GlobalBuffer::<u64>::zeroed(n * n);
            let run = SatAlgorithm::<u64>::run(&alg(w), &gpu, &input, &output, n);
            assert_eq!(Matrix::from_device(&output, n, n), expect, "{mode:?}");
            runs.push((format!("{mode:?}"), run.total_stats()));
        }
        // Lane: the run as the one job of a one-device group batch, so its
        // launch takes the lane path.
        {
            let group = DeviceGroup::new(DeviceConfig::tiny(), 1).with_dispatch(DispatchOrder::Reversed);
            let output = GlobalBuffer::<u64>::zeroed(n * n);
            let gm = group.run_batch(vec![()], |gpu, ()| {
                SatAlgorithm::<u64>::run(&alg(w), gpu, &input, &output, n)
            });
            assert_eq!(Matrix::from_device(&output, n, n), expect, "lane");
            runs.push(("lane".into(), gm.total_stats()));
        }
        // Multi-device: each device of a group runs its own instance.
        {
            let group = DeviceGroup::new(DeviceConfig::tiny(), 2);
            for d in 0..group.len() {
                let output = GlobalBuffer::<u64>::zeroed(n * n);
                let run = SatAlgorithm::<u64>::run(&alg(w), group.device(d), &input, &output, n);
                assert_eq!(Matrix::from_device(&output, n, n), expect, "device {d}");
                runs.push((format!("device{d}"), run.total_stats()));
            }
        }
        for (tag, stats) in &runs {
            assert_eq!(stats.warp_shuffles, expect_shfl, "{tag}: shuffles");
            assert_eq!(stats.shared_accesses, 0, "{tag}: shared");
            assert_eq!(stats.bank_conflict_cycles, 0, "{tag}: conflicts");
        }
    }

    /// Inter-tile propagation is SKSS-LB verbatim, so global traffic must
    /// be identical between the two variants under a sequential in-order
    /// schedule; the delta is confined to shared vs. shuffle charges.
    #[test]
    fn global_traffic_identical_to_skss_lb() {
        let n = 64usize;
        let w = 8usize;
        let params = SatParams { w, threads_per_block: 64 };
        let a = Matrix::<u64>::random(n, n, 0x90B, 11);
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (_, sh) = compute_sat(&gpu, &SkssSh::new(params), &a);
        let (_, lb) = compute_sat(&gpu, &SkssLb::new(params), &a);
        let (sh, lb) = (sh.total_stats(), lb.total_stats());
        assert_eq!(sh.global_reads, lb.global_reads);
        assert_eq!(sh.global_writes, lb.global_writes);
        assert_eq!(sh.bytes_read, lb.bytes_read);
        assert_eq!(sh.bytes_written, lb.bytes_written);
        assert_eq!(sh.flag_publishes, lb.flag_publishes);
        assert!(lb.shared_accesses > 0 && sh.shared_accesses == 0);
        assert!(sh.warp_shuffles > 0 && lb.warp_shuffles == 0);
    }

    /// Tiles wider than a warp chunk their rows over warp segments with a
    /// charged carry hand-off and two structural barriers per tile.
    #[test]
    fn multi_warp_tiles_are_correct_and_barriered() {
        let n = 128usize;
        let w = 64usize;
        let a = Matrix::<u32>::random(n, n, 0xF00, 5);
        let gpu = Gpu::new(DeviceConfig::titan_v());
        let (got, run) = compute_sat(&gpu, &SkssSh::new(SatParams::paper(w)), &a);
        assert_eq!(got, reference::sat(&a), "W=64");
        let tiles = ((n / w) * (n / w)) as u64;
        let stats = run.total_stats();
        assert_eq!(stats.barriers, 2 * tiles);
        assert_eq!(stats.warp_shuffles, tiles * shuffles_per_tile(w));
        assert_eq!(stats.shared_accesses, 0);
    }
}
