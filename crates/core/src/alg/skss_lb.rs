//! **1R1W-SKSS-LB — the paper's contribution** (Section IV).
//!
//! One kernel, one block per *tile* (high parallelism, `n^2/m` threads),
//! soft synchronization through two 8-bit status arrays, and the
//! *look-back* technique to decouple the dependency chains:
//!
//! * `R[I][J]` rises 1 → 2 → 3 → 4 as `LRS`, `GRS`, `GLS`, `GS` of tile
//!   `(I,J)` are published to global memory;
//! * `C[I][J]` rises 1 → 2 as `LCS`, `GCS` are published.
//!
//! A block needing `GRS(I, J-1)` does not wait for the whole left
//! neighbour: it walks leftwards, consuming *local* row sums (`LRS`,
//! status 1) as soon as they exist and short-circuiting the moment any
//! predecessor's *global* row sums (`GRS`, status ≥ 2) appear —
//! Fig. 10. The same walk runs upwards over `C` for `GCS(I-1, J)` and
//! diagonally over `GLS`/`GS` for `GS(I-1, J-1)` — Fig. 11.
//!
//! Blocks claim tiles through an `atomicAdd` counter in *diagonal-major*
//! serial order (Fig. 9), so every value a block can wait on is owned by a
//! block with a smaller virtual ID: deadlock-free under any dispatch
//! order and any residency bound.
//!
//! Traffic: `n^2 + O(n^2/W)` reads and writes — optimal. Exactly three
//! `__syncthreads()` barriers per tile, as the paper notes.

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::launch::{BlockCtx, Gpu, LaunchConfig};
use gpu_sim::metrics::{CriticalPath, RunMetrics};
use gpu_sim::shared::Arrangement;
use gpu_sim::sync::{DeviceCounter, StatusBoard};

use super::{SatAlgorithm, SatParams};
use crate::tile::{load_tile_with_sums, tile_gsat_store, ScalarAux, TileGrid, VecAux};

/// `R` status: `LRS(I,J)` published.
pub const R_LRS: u8 = 1;
/// `R` status: `GRS(I,J)` published.
pub const R_GRS: u8 = 2;
/// `R` status: `GLS(I,J)` published.
pub const R_GLS: u8 = 3;
/// `R` status: `GS(I,J)` published.
pub const R_GS: u8 = 4;
/// `C` status: `LCS(I,J)` published.
pub const C_LCS: u8 = 1;
/// `C` status: `GCS(I,J)` published.
pub const C_GCS: u8 = 2;

/// Diagonal-major serial number of tile `(I, J)` in a `t x t` tile grid
/// (paper Fig. 9). For `I + J < t` this is the paper's closed form
/// `(I+J)(I+J+1)/2 + I`; past the main anti-diagonal the diagonals shorten
/// and the numbering continues densely.
pub fn serial_number(ti: usize, tj: usize, t: usize) -> usize {
    debug_assert!(ti < t && tj < t);
    let d = ti + tj;
    let before = diagonal_start(d, t);
    before + ti - d.saturating_sub(t - 1)
}

/// Number of tiles on diagonals `0..d` (the serial number of the first
/// tile of diagonal `d`).
fn diagonal_start(d: usize, t: usize) -> usize {
    if d <= t {
        d * (d + 1) / 2
    } else {
        t * t - (2 * t - 1 - d) * (2 * t - d) / 2
    }
}

/// Inverse of [`serial_number`]: the tile a virtual block ID maps to.
///
/// Closed form, O(1): for serials before the main anti-diagonal the
/// diagonal index solves the triangular-number inequality
/// `d(d+1)/2 <= serial`, i.e. `d = floor((sqrt(8s+1) - 1) / 2)`; serials
/// past it map through the 180-degree symmetry of the numbering,
/// `serial_number(t-1-I, t-1-J) = t^2 - 1 - serial_number(I, J)`.
pub fn tile_for_serial(serial: usize, t: usize) -> (usize, usize) {
    debug_assert!(serial < t * t);
    if serial >= t * (t + 1) / 2 {
        // Past the main anti-diagonal: reflect into the leading triangle.
        let (ti, tj) = tile_for_serial(t * t - 1 - serial, t);
        return (t - 1 - ti, t - 1 - tj);
    }
    // The float sqrt is a guess within +-1 of the true diagonal (exact
    // below 2^52, and serial counts stay far under that); correct it.
    let mut d = ((8 * serial + 1) as f64).sqrt() as usize / 2;
    while (d + 1) * (d + 2) / 2 <= serial {
        d += 1;
    }
    while d * (d + 1) / 2 > serial {
        d -= 1;
    }
    let ti = serial - d * (d + 1) / 2;
    (ti, d - ti)
}

/// The paper's algorithm, with ablation knobs: the shared-memory
/// arrangement (diagonal vs. row-major, Section II), and whether the
/// look-back walks are decoupled (the paper's LB technique) or replaced by
/// a plain wait for the immediate predecessor's global sums (a coupled
/// wavefront, isolating the value of look-back).
#[derive(Debug, Clone, Copy)]
pub struct SkssLb {
    /// Tile width and block size.
    pub params: SatParams,
    /// Shared-memory tile layout (paper: diagonal).
    pub arrangement: Arrangement,
    /// Whether look-back is enabled (paper: true). With `false`, every
    /// dependency waits for the predecessor's *global* value, serializing
    /// the wavefront exactly like 1R1W-SKSS's column pipeline.
    pub decoupled: bool,
}

impl SkssLb {
    /// The paper's configuration: diagonal arrangement, look-back on.
    pub fn new(params: SatParams) -> Self {
        SkssLb { params, arrangement: Arrangement::Diagonal, decoupled: true }
    }

    /// Ablation: override the shared-memory arrangement.
    pub fn with_arrangement(mut self, arrangement: Arrangement) -> Self {
        self.arrangement = arrangement;
        self
    }

    /// Ablation: disable the look-back (wait for predecessors' global
    /// sums instead).
    pub fn with_decoupled(mut self, decoupled: bool) -> Self {
        self.decoupled = decoupled;
        self
    }
}

/// All the device state one SKSS-LB launch shares between blocks.
///
/// Crate-visible because the shuffle-only variant
/// ([`super::skss_sh::SkssSh`]) keeps the inter-tile propagation protocol
/// — flags, aux buffers, and look-back walks — byte-for-byte identical
/// and only replaces the intra-tile shared-memory pipeline.
pub(crate) struct State<T: DeviceElem> {
    pub(crate) grid: TileGrid,
    pub(crate) counter: DeviceCounter,
    pub(crate) r_flags: StatusBoard,
    pub(crate) c_flags: StatusBoard,
    pub(crate) lrs: VecAux<T>,
    pub(crate) grs: VecAux<T>,
    pub(crate) lcs: VecAux<T>,
    pub(crate) gcs: VecAux<T>,
    pub(crate) gls: ScalarAux<T>,
    pub(crate) gs: ScalarAux<T>,
}

impl<T: DeviceElem> State<T> {
    pub(crate) fn new(grid: TileGrid) -> Self {
        State {
            grid,
            counter: DeviceCounter::new(),
            r_flags: StatusBoard::new(grid.tiles()),
            c_flags: StatusBoard::new(grid.tiles()),
            lrs: VecAux::new(grid),
            grs: VecAux::new(grid),
            lcs: VecAux::new(grid),
            gcs: VecAux::new(grid),
            gls: ScalarAux::new(grid),
            gs: ScalarAux::new(grid),
        }
    }

    /// Steps 2–3 of the protocol for tile `(I, J)`, whose local row and
    /// column sums are `lrs_v` and `lcs_v`: publish `LRS`/`GRS`,
    /// `LCS`/`GCS` and `GLS`/`GS` around the three look-back walks.
    /// Returns the borders step 4 needs: `(GRS(I,J-1), GCS(I-1,J),
    /// GS(I-1,J-1))`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn propagate(
        &self,
        ctx: &mut BlockCtx,
        ti: usize,
        tj: usize,
        lrs_v: &[T],
        lcs_v: Vec<T>,
        decoupled: bool,
        d2d_below: usize,
    ) -> (Vec<T>, Vec<T>, T) {
        let idx = self.grid.tile_index(ti, tj);

        // Step 2.A: publish LRS, look back for GRS(I,J-1), publish GRS.
        self.lrs.write_vec(ctx, ti, tj, lrs_v);
        self.r_flags.publish(ctx, idx, R_LRS);
        let grs_left = self.look_back_grs(ctx, ti, tj, decoupled);
        let mut grs_cur: Vec<T> = ctx.scratch_overwrite(self.grid.w);
        grs_cur.copy_from_slice(lrs_v);
        gpu_sim::simd::zip_add(&mut grs_cur, &grs_left);
        self.grs.write_vec(ctx, ti, tj, &grs_cur);
        self.r_flags.publish(ctx, idx, R_GRS);
        ctx.recycle(grs_cur);

        // Step 2.B: the same for columns.
        self.lcs.write_vec(ctx, ti, tj, &lcs_v);
        self.c_flags.publish(ctx, idx, C_LCS);
        let gcs_top = self.look_back_gcs(ctx, ti, tj, decoupled, d2d_below);
        let mut gcs_cur = lcs_v;
        gpu_sim::simd::zip_add(&mut gcs_cur, &gcs_top);
        self.gcs.write_vec(ctx, ti, tj, &gcs_cur);
        self.c_flags.publish(ctx, idx, C_GCS);
        ctx.recycle(gcs_cur);

        // Step 3.1: GLS(I,J) = sum(GRS(I,J-1)) + sum(GCS(I-1,J)) +
        // sum(LRS(I,J)) — the L-shaped strip (Fig. 11). The sums
        // are warp reductions on the device.
        let sum = |v: &[T]| v.iter().fold(T::zero(), |a, &b| a.add(b));
        let gls_val = sum(&grs_left).add(sum(&gcs_top)).add(sum(lrs_v));
        self.gls.write(ctx, ti, tj, gls_val);
        self.r_flags.publish(ctx, idx, R_GLS);

        // Steps 3.2 / 3.3: look back diagonally for GS(I-1,J-1),
        // publish GS(I,J).
        let gs_prev = self.look_back_gs(ctx, ti, tj, decoupled, d2d_below);
        self.gs.write(ctx, ti, tj, gs_prev.add(gls_val));
        self.r_flags.publish(ctx, idx, R_GS);
        (grs_left, gcs_top, gs_prev)
    }

    /// Step 2.A.2 (Fig. 10): compute `GRS(I, J-1)` by walking leftwards,
    /// summing `LRS` vectors until some predecessor's `GRS` appears. The
    /// coupled ablation waits for the left neighbour's `GRS` instead.
    pub(crate) fn look_back_grs(&self, ctx: &mut BlockCtx, ti: usize, tj: usize, decoupled: bool) -> Vec<T> {
        let min = if decoupled { R_LRS } else { R_GRS };
        let preds = (0..tj).rev().map(|j| (ti, j));
        self.walk_vec(ctx, &self.r_flags, preds, (&self.lrs, &self.grs), (min, R_GRS), 0)
    }

    /// Step 2.B.2: the same walk upwards over `C`/`LCS`/`GCS` for
    /// `GCS(I-1, J)`. Unlike the row walk it *can* cross a cooperative
    /// band boundary: tile-rows below `d2d_below` live on an earlier band's
    /// device, so their flags are awaited remotely.
    pub(crate) fn look_back_gcs(
        &self,
        ctx: &mut BlockCtx,
        ti: usize,
        tj: usize,
        decoupled: bool,
        d2d_below: usize,
    ) -> Vec<T> {
        let min = if decoupled { C_LCS } else { C_GCS };
        let preds = (0..ti).rev().map(|i| (i, tj));
        self.walk_vec(ctx, &self.c_flags, preds, (&self.lcs, &self.gcs), (min, C_GCS), d2d_below)
    }

    /// One vector look-back walk over `preds`, the predecessor tiles
    /// nearest first: await each until its flag reaches `min`, sum its
    /// partial vector, and stop at the first whose flag reaches `done`
    /// (summing its full vector instead) or at the last one, where the
    /// partial sum is the full one. Accumulation runs in walk order, so
    /// the result is bit-identical under any schedule, floats included.
    ///
    /// Only the first step is charged, as the paper's walk takes one on
    /// the device: one flag wait and one coalesced `w`-vector read, or,
    /// when that predecessor's row is below `d2d_below` (an earlier
    /// band's device), one remote wait and one D2D transfer. Every
    /// further step is host scheduling: its wait counts `host_walk_steps`
    /// ([`StatusBoard::wait_walk_step`]) and keeps the remote ladder past
    /// a band edge, and its vector is read unaccounted.
    fn walk_vec(
        &self,
        ctx: &mut BlockCtx,
        board: &StatusBoard,
        preds: impl Iterator<Item = (usize, usize)>,
        (part, full): (&VecAux<T>, &VecAux<T>),
        (min, done): (u8, u8),
        d2d_below: usize,
    ) -> Vec<T> {
        let mut acc: Vec<T> = ctx.scratch(self.grid.w);
        for (step, (i, j)) in preds.enumerate() {
            let remote = i < d2d_below;
            let st = board.wait_walk_step(ctx, self.grid.tile_index(i, j), min, remote, step);
            let src = if st >= done { full } else { part };
            if step > 0 {
                gpu_sim::simd::zip_add(&mut acc, &src.peek_vec(i, j));
            } else if remote {
                // The bytes cross the interconnect as one transfer, priced
                // by the timing model's own d2d term, never as DRAM reads.
                ctx.stats.charge_d2d(1, self.grid.w as u64 * T::BYTES);
                gpu_sim::simd::zip_add(&mut acc, &src.peek_vec(i, j));
            } else {
                let mut row: Vec<T> = ctx.scratch_overwrite(self.grid.w);
                src.read_vec_into(ctx, i, j, &mut row);
                gpu_sim::simd::zip_add(&mut acc, &row);
                ctx.recycle(row);
            }
            if st >= done {
                break;
            }
        }
        acc
    }

    /// Step 3.2 (Fig. 11): compute `GS(I-1, J-1)` by walking the diagonal,
    /// summing `GLS` strips until some predecessor's `GS` appears; `GLS`
    /// on the border equals `GS` there (`GS(-1,·) = 0`). Charged like
    /// [`State::walk_vec`]: the first step is one flag wait and one scalar
    /// read (or, across a band boundary, one remote wait and one D2D
    /// transfer of `T::BYTES`), and every further step is a host step.
    pub(crate) fn look_back_gs(
        &self,
        ctx: &mut BlockCtx,
        ti: usize,
        tj: usize,
        decoupled: bool,
        d2d_below: usize,
    ) -> T {
        let min = if decoupled { R_GLS } else { R_GS };
        let mut acc = T::zero();
        for (step, k) in (1..=ti.min(tj)).enumerate() {
            let (pi, pj) = (ti - k, tj - k);
            let remote = pi < d2d_below;
            let st = self.r_flags.wait_walk_step(ctx, self.grid.tile_index(pi, pj), min, remote, step);
            let src = if st >= R_GS { &self.gs } else { &self.gls };
            let v = if step > 0 {
                src.peek(pi, pj)
            } else if remote {
                ctx.stats.charge_d2d(1, T::BYTES);
                src.peek(pi, pj)
            } else {
                src.read(ctx, pi, pj)
            };
            acc = acc.add(v);
            if st >= R_GS {
                break;
            }
        }
        acc
    }
}

impl<T: DeviceElem> SatAlgorithm<T> for SkssLb {
    fn name(&self) -> String {
        format!("skss_lb_w{}", self.params.w)
    }

    fn run(&self, gpu: &Gpu, input: &GlobalBuffer<T>, output: &GlobalBuffer<T>, n: usize) -> RunMetrics {
        let grid = TileGrid::new(n, self.params.w);
        let t = grid.t;
        let tpb = self.params.threads_per_block.min(gpu.config().max_threads_per_block);
        let state = State::<T>::new(grid);

        // Decoupled look-back: the wavefront advances one flag publication
        // per hop; no tile-sized service is serialized on the chain. The
        // coupled ablation serializes a full tile service per hop instead.
        let cp = CriticalPath {
            hops: grid.diagonals() as u64,
            bytes_per_hop: if self.decoupled { 0 } else { 2 * (grid.w * grid.w) as u64 * T::BYTES },
        };
        let lc = LaunchConfig::new("skss_lb", grid.tiles(), tpb).with_critical_path(cp);

        let mut run = RunMetrics::default();
        run.push(gpu.launch(lc, |ctx| {
            loop {
                let serial = state.counter.next(ctx) as usize;
                if serial >= grid.tiles() {
                    return;
                }
                let (ti, tj) = tile_for_serial(serial, t);
                process_tile(ctx, input, output, &state, ti, tj, self.arrangement, self.decoupled, 0);
            }
        }));
        run
    }
}

/// The full SKSS-LB protocol for one tile (paper Section IV, steps 1–4):
/// load, publish `LRS`/`LCS`, the three look-back walks, publish
/// `GRS`/`GCS`/`GLS`/`GS`, and write the tile's `GSAT`.
///
/// Shared by the one-shot [`SkssLb::run`] loop (which claims tiles in
/// diagonal-major serial order with `d2d_below = 0`) and the cooperative
/// band decomposition in [`crate::coop`] (which claims tiles in band-local
/// column-major order and passes the band's first tile-row as `d2d_below`, so
/// walks that leave the band go through the interconnect).
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_tile<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    state: &State<T>,
    ti: usize,
    tj: usize,
    arrangement: Arrangement,
    decoupled: bool,
    d2d_below: usize,
) {
    let grid = state.grid;

    // Step 1: tile into shared memory (diagonal arrangement), column and
    // row sums both computed during the copy while each row is cache-hot.
    let (mut tile, lcs_v, lrs_v) = load_tile_with_sums(ctx, input, grid, ti, tj, arrangement);
    ctx.syncthreads();

    // Steps 2–3: publish the tile's sums and look back for its borders.
    let (grs_left, gcs_top, gs_prev) = state.propagate(ctx, ti, tj, &lrs_v, lcs_v, decoupled, d2d_below);

    // Step 4: GSAT(I,J) from the borders, written out as the column
    // accumulation finalizes each row.
    let left = (tj > 0).then_some(grs_left.as_slice());
    let top = (ti > 0).then_some(gcs_top.as_slice());
    tile_gsat_store(ctx, &mut tile, left, top, gs_prev, output, grid, ti, tj);
    tile.release(ctx);
    ctx.recycle(lrs_v);
    ctx.recycle(grs_left);
    ctx.recycle(gcs_top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::compute_sat;
    use crate::matrix::Matrix;
    use crate::reference;
    use gpu_sim::prelude::*;

    fn alg(w: usize) -> SkssLb {
        SkssLb::new(SatParams { w, threads_per_block: (w * w).min(256) })
    }

    #[test]
    fn fig9_serial_numbers() {
        // The paper's Figure 9: t = 5 diagonal-major numbering.
        let expect = [
            [0, 1, 3, 6, 10],
            [2, 4, 7, 11, 15],
            [5, 8, 12, 16, 19],
            [9, 13, 17, 20, 22],
            [14, 18, 21, 23, 24],
        ];
        for (i, row) in expect.iter().enumerate() {
            for (j, &want) in row.iter().enumerate() {
                assert_eq!(serial_number(i, j, 5), want, "({i},{j})");
            }
        }
    }

    #[test]
    fn paper_closed_form_in_upper_triangle() {
        // serial = (I+J)(I+J+1)/2 + I whenever I + J < t.
        for t in [1usize, 2, 5, 9, 16] {
            for i in 0..t {
                for j in 0..t {
                    if i + j < t {
                        assert_eq!(serial_number(i, j, t), (i + j) * (i + j + 1) / 2 + i);
                    }
                }
            }
        }
    }

    #[test]
    fn serial_roundtrip_is_a_bijection() {
        for t in [1usize, 2, 3, 7, 12] {
            let mut seen = vec![false; t * t];
            for i in 0..t {
                for j in 0..t {
                    let s = serial_number(i, j, t);
                    assert!(s < t * t && !seen[s], "t={t} ({i},{j}) -> {s}");
                    seen[s] = true;
                    assert_eq!(tile_for_serial(s, t), (i, j));
                }
            }
        }
    }

    #[test]
    fn serials_increase_along_dependencies() {
        // Every value a tile waits on belongs to a smaller serial: left,
        // up, and diagonal predecessors.
        let t = 9;
        for i in 0..t {
            for j in 0..t {
                let s = serial_number(i, j, t);
                if j > 0 {
                    assert!(serial_number(i, j - 1, t) < s);
                }
                if i > 0 {
                    assert!(serial_number(i - 1, j, t) < s);
                }
                if i > 0 && j > 0 {
                    assert!(serial_number(i - 1, j - 1, t) < s);
                }
            }
        }
    }

    #[test]
    fn matches_reference_sequential() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        for (n, w) in [(4usize, 4usize), (8, 4), (16, 4), (20, 4), (16, 8), (32, 8)] {
            let a = Matrix::<u64>::random(n, n, 51, 10);
            let (got, _) = compute_sat(&gpu, &alg(w), &a);
            assert_eq!(got, reference::sat(&a), "n={n} w={w}");
        }
    }

    #[test]
    fn matches_reference_concurrent_all_dispatch_orders() {
        for d in [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(53)] {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent).with_dispatch(d);
            let a = Matrix::<u64>::random(32, 32, 54, 10);
            let (got, _) = compute_sat(&gpu, &alg(4), &a);
            assert_eq!(got, reference::sat(&a), "{d:?}");
        }
    }

    #[test]
    fn table1_row_skss_lb() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (n, w) = (64usize, 8usize);
        let a = Matrix::<u32>::random(n, n, 55, 10);
        let (_, run) = compute_sat(&gpu, &alg(w), &a);
        assert_eq!(run.kernel_calls(), 1, "single kernel");
        let n2 = (n * n) as u64;
        let aux = n2 / w as u64;
        assert!(run.total_reads() >= n2 && run.total_reads() <= n2 + 8 * aux, "1R: {}", run.total_reads());
        assert!(run.total_writes() >= n2 && run.total_writes() <= n2 + 8 * aux, "1W: {}", run.total_writes());
        // High parallelism: one block per tile, unlike SKSS's n/W.
        assert_eq!(run.kernels[0].blocks, (n / w) * (n / w));
        let s = run.total_stats();
        assert_eq!(s.strided_reads + s.strided_writes, 0, "fully coalesced");
    }

    /// Runs `publish` in one Sequential launch and `walk` in the next on a
    /// fresh 4 x 4-tile `State` (W = 4), returning the walk's counters.
    fn walk_stats(
        publish: impl Fn(&mut BlockCtx, &State<u64>) + Sync,
        walk: impl Fn(&mut BlockCtx, &State<u64>) + Sync,
    ) -> BlockStats {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let state = State::<u64>::new(TileGrid::new(16, 4));
        gpu.launch(LaunchConfig::new("publish", 1, 16), |ctx| publish(ctx, &state));
        gpu.launch(LaunchConfig::new("walk", 1, 16), |ctx| walk(ctx, &state)).stats
    }

    #[test]
    fn a_walk_past_its_first_predecessor_is_charged_one_step() {
        // Only partial sums are published, so each walk must step past its
        // first predecessor; it is charged that first step alone, and
        // counts every further one as a host step.
        let part = |ti: usize, tj: usize| -> Vec<u64> { (0..4).map(|k| (100 * ti + 10 * tj + k) as u64).collect() };
        let sum = |tiles: &[(usize, usize)]| -> Vec<u64> {
            (0..4).map(|k| tiles.iter().map(|&(i, j)| part(i, j)[k]).sum()).collect()
        };
        let gls = |k: usize| 7 * k as u64 + 1;

        // Row: LRS of tiles (0,0) and (0,1), walked from tile (0,2).
        let row = walk_stats(
            |ctx, st| {
                for tj in 0..2 {
                    st.lrs.write_vec(ctx, 0, tj, &part(0, tj));
                    st.r_flags.publish(ctx, st.grid.tile_index(0, tj), R_LRS);
                }
            },
            |ctx, st| assert_eq!(st.look_back_grs(ctx, 0, 2, true), sum(&[(0, 1), (0, 0)])),
        );
        assert_eq!((row.flag_waits, row.global_reads, row.d2d_transfers), (1, 4, 0), "row: one wait, one w-vector");
        assert_eq!(row.host_walk_steps, 1, "row");

        // Column: LCS of column 1's top three tiles, walked from tile (3,1)
        // with rows below 3 on an earlier band's device, so the first
        // predecessor is remote.
        let col = walk_stats(
            |ctx, st| {
                for ti in 0..3 {
                    st.lcs.write_vec(ctx, ti, 1, &part(ti, 1));
                    st.c_flags.publish(ctx, st.grid.tile_index(ti, 1), C_LCS);
                }
            },
            |ctx, st| assert_eq!(st.look_back_gcs(ctx, 3, 1, true, 3), sum(&[(2, 1), (1, 1), (0, 1)])),
        );
        assert_eq!((col.flag_waits, col.global_reads), (1, 0), "column: one remote wait, no DRAM read");
        assert_eq!((col.d2d_transfers, col.d2d_bytes), (1, 4 * 8), "column: one D2D row");
        assert_eq!(col.host_walk_steps, 2, "column");

        // Diagonal: GLS of tiles (0,0), (1,1) and (2,2), walked from (3,3).
        let diag = walk_stats(
            |ctx, st| {
                for k in 0..3 {
                    st.gls.write(ctx, k, k, gls(k));
                    st.r_flags.publish(ctx, st.grid.tile_index(k, k), R_GLS);
                }
            },
            |ctx, st| assert_eq!(st.look_back_gs(ctx, 3, 3, true, 0), gls(2) + gls(1) + gls(0)),
        );
        assert_eq!((diag.flag_waits, diag.global_reads, diag.d2d_transfers), (1, 1, 0), "diagonal: one scalar");
        assert_eq!(diag.host_walk_steps, 2, "diagonal");
    }

    #[test]
    fn status_boards_use_two_bytes_per_tile() {
        // The paper: "we use two 8-bit integers R and C ... 2 n^2/W^2
        // 8-bit integers are used in total." Our StatusBoards are AtomicU8
        // arrays of exactly grid.tiles() each.
        let grid = crate::tile::TileGrid::new(32, 4);
        let st = super::State::<u32>::new(grid);
        assert_eq!(st.r_flags.len(), grid.tiles());
        assert_eq!(st.c_flags.len(), grid.tiles());
    }

    #[test]
    fn ablation_variants_are_still_correct() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let a = Matrix::<u64>::random(24, 24, 57, 10);
        let expect = reference::sat(&a);
        for arrangement in [Arrangement::Diagonal, Arrangement::RowMajor] {
            for decoupled in [true, false] {
                let alg = alg(4).with_arrangement(arrangement).with_decoupled(decoupled);
                let (got, _) = compute_sat(&gpu, &alg, &a);
                assert_eq!(got, expect, "{arrangement:?} decoupled={decoupled}");
            }
        }
        // Concurrent + adversarial dispatch for the coupled variant too.
        let gpu = Gpu::new(DeviceConfig::tiny())
            .with_mode(ExecMode::Concurrent)
            .with_dispatch(DispatchOrder::Random(58));
        let (got, _) = compute_sat(&gpu, &alg(4).with_decoupled(false), &a);
        assert_eq!(got, expect);
    }

    #[test]
    fn row_major_ablation_pays_bank_conflicts() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let a = Matrix::<u64>::random(64, 64, 59, 10);
        let (_, diag) = compute_sat(&gpu, &alg(32), &a);
        let (_, rm) = compute_sat(&gpu, &alg(32).with_arrangement(Arrangement::RowMajor), &a);
        assert_eq!(diag.total_stats().bank_conflict_cycles, 0);
        assert!(rm.total_stats().bank_conflict_cycles > 0);
        assert_eq!(diag.total_reads(), rm.total_reads(), "global traffic identical");
    }

    #[test]
    fn exactly_three_barriers_per_tile() {
        // Paper Section IV: "only three barrier synchronization operations
        // are performed" per tile.
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (n, w) = (16usize, 4usize);
        let a = Matrix::<u32>::random(n, n, 56, 10);
        let (_, run) = compute_sat(&gpu, &alg(w), &a);
        let tiles = ((n / w) * (n / w)) as u64;
        // tile_gsat_in_place issues 3; plus the post-load barrier = 4
        // structural barriers in this implementation. The count must be
        // exactly proportional to the tile count.
        assert_eq!(run.total_stats().barriers % tiles, 0);
        assert!(run.total_stats().barriers / tiles <= 4);
    }
}
