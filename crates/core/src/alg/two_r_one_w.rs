//! The 2R1W algorithm of Nehab et al. (paper Section III-A, reference
//! \[13\]) — three kernels, tiles cached in shared memory.
//!
//! * **Kernel 1** reads every tile once and writes only its local sums
//!   (`LRS`, `LCS`, `LS`) — `n^2` reads, `O(n^2/W)` writes.
//! * **Kernel 2** turns local sums into global ones: per tile-row prefix
//!   sums of `LRS` into `GRS`, per tile-column prefix sums of `LCS` into
//!   `GCS`, and a 2-D prefix sum of the `LS` grid into `GS`. `O(n^2/W)`
//!   traffic.
//! * **Kernel 3** reads every tile again, folds in the carried borders,
//!   computes the tile SAT in shared memory, and writes `GSAT` — `n^2`
//!   reads, `n^2` writes.
//!
//! Total: `2n^2 + O(n^2/W)` reads, `n^2 + O(n^2/W)` writes, so the
//! overhead over duplication cannot go below ~50% (Section V).

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::launch::{BlockCtx, Gpu, LaunchConfig};
use gpu_sim::metrics::RunMetrics;
use gpu_sim::shared::Arrangement;

use super::{SatAlgorithm, SatParams};
use crate::tile::{
    load_tile, load_tile_with_sums, tile_gsat_store, ScalarAux, TileGrid, VecAux, MAX_STACK_W,
};

/// The auxiliary device arrays of one 2R1W run (local and global row /
/// column / tile sums), bundled so the kernel bodies can be shared between
/// [`TwoROneW::run`], the one per-image path (the batch calls in
/// [`crate::batch`] run it per image), the cooperative bands in
/// [`crate::coop`], and the (1+r)R1W hybrid ([`super::hybrid`]), whose
/// three phases all run on one of these.
pub struct TwoROneWAux<T: DeviceElem> {
    /// Tile decomposition the arrays are sized for.
    pub grid: TileGrid,
    pub(crate) lrs: VecAux<T>,
    pub(crate) lcs: VecAux<T>,
    pub(crate) grs: VecAux<T>,
    pub(crate) gcs: VecAux<T>,
    pub(crate) ls: ScalarAux<T>,
    pub(crate) gs: ScalarAux<T>,
}

impl<T: DeviceElem> TwoROneWAux<T> {
    /// Allocate all six auxiliary arrays for `grid`.
    pub fn new(grid: TileGrid) -> Self {
        TwoROneWAux {
            grid,
            lrs: VecAux::new(grid),
            lcs: VecAux::new(grid),
            grs: VecAux::new(grid),
            gcs: VecAux::new(grid),
            ls: ScalarAux::new(grid),
            gs: ScalarAux::new(grid),
        }
    }
}

/// Kernel 1 body: local sums (`LRS`, `LCS`, `LS`) of tile `block_idx`.
fn k1_local_sums<T: DeviceElem>(ctx: &mut BlockCtx, input: &GlobalBuffer<T>, aux: &TwoROneWAux<T>) {
    let grid = aux.grid;
    let (ti, tj) = (ctx.block_idx() / grid.t, ctx.block_idx() % grid.t);
    k1_tile(ctx, input, aux, ti, tj);
}

/// Kernel 1 for one explicit tile — the unit [`crate::coop`] dispatches
/// with band-local block indices, and the hybrid's A1 and C1 kernels over
/// their triangles.
pub(crate) fn k1_tile<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    aux: &TwoROneWAux<T>,
    ti: usize,
    tj: usize,
) {
    let grid = aux.grid;
    let (tile, lcs_v, lrs_v) = load_tile_with_sums(ctx, input, grid, ti, tj, Arrangement::Diagonal);
    tile.release(ctx);
    ctx.syncthreads();
    let total = lcs_v.iter().fold(T::zero(), |a, &b| a.add(b));
    aux.lrs.write_vec(ctx, ti, tj, &lrs_v);
    aux.lcs.write_vec(ctx, ti, tj, &lcs_v);
    aux.ls.write(ctx, ti, tj, total);
    ctx.recycle(lrs_v);
    ctx.recycle(lcs_v);
}

/// Kernel 2 body: global sums. Blocks `0..t` scan tile-rows (`GRS`),
/// blocks `t..2t` scan tile-columns (`GCS`), block `2t` computes the SAT
/// of the `LS` grid (`GS`).
fn k2_global_sums<T: DeviceElem>(ctx: &mut BlockCtx, aux: &TwoROneWAux<T>) {
    let t = aux.grid.t;
    let b = ctx.block_idx();
    if b < t {
        k2_row_scan(ctx, aux, b);
    } else if b < 2 * t {
        let sum = k2_col_scan(ctx, aux, b - t, 0, t);
        ctx.recycle(sum);
    } else {
        k2_grid(ctx, aux, 0, t);
    }
}

/// Kernel 2 row piece: prefix-sum `LRS` along tile-row `ti` into `GRS`.
/// Rows never cross a band boundary, so this is shared verbatim by the
/// cooperative path.
pub(crate) fn k2_row_scan<T: DeviceElem>(ctx: &mut BlockCtx, aux: &TwoROneWAux<T>, ti: usize) {
    let grid = aux.grid;
    let mut acc: Vec<T> = ctx.scratch(grid.w);
    let mut v: Vec<T> = ctx.scratch(grid.w);
    for tj in 0..grid.t {
        aux.lrs.read_vec_into(ctx, ti, tj, &mut v);
        for (a, &x) in acc.iter_mut().zip(&v) {
            *a = a.add(x);
        }
        aux.grs.write_vec(ctx, ti, tj, &acc);
    }
    ctx.recycle(acc);
    ctx.recycle(v);
}

/// Kernel 2 column piece over tile-rows `ti0..ti1`: prefix-sum `LCS` down
/// tile-column `tj` into `GCS`, starting from zero at `ti0`. The one-shot
/// path uses the full range `(0, t)`; a cooperative band scans only its own
/// rows and lets the carry exchange upgrade the result to global. Returns
/// the running sum, a scratch vector equal to the last `GCS` row written
/// (`GCS(ti1 - 1, tj)`), for the caller to recycle.
pub(crate) fn k2_col_scan<T: DeviceElem>(
    ctx: &mut BlockCtx,
    aux: &TwoROneWAux<T>,
    tj: usize,
    ti0: usize,
    ti1: usize,
) -> Vec<T> {
    let grid = aux.grid;
    let mut acc: Vec<T> = ctx.scratch(grid.w);
    let mut v: Vec<T> = ctx.scratch(grid.w);
    for ti in ti0..ti1 {
        aux.lcs.read_vec_into(ctx, ti, tj, &mut v);
        for (a, &x) in acc.iter_mut().zip(&v) {
            *a = a.add(x);
        }
        aux.gcs.write_vec(ctx, ti, tj, &acc);
    }
    ctx.recycle(v);
    acc
}

/// Kernel 2 grid piece over tile-rows `ti0..ti1`: SAT of the `LS` subgrid
/// into `GS`, with a zero top border at `ti0` ("we can simply use 2R2W
/// algorithm for computing the GS"). Full range for the one-shot path,
/// band range for the cooperative path.
pub(crate) fn k2_grid<T: DeviceElem>(
    ctx: &mut BlockCtx,
    aux: &TwoROneWAux<T>,
    ti0: usize,
    ti1: usize,
) {
    let t = aux.grid.t;
    let h = ti1 - ti0;
    let mut acc = vec![T::zero(); h * t];
    for r in 0..h {
        for tj in 0..t {
            let v = aux.ls.read(ctx, ti0 + r, tj);
            let up = if r > 0 { acc[(r - 1) * t + tj] } else { T::zero() };
            let left = if tj > 0 { acc[r * t + tj - 1] } else { T::zero() };
            let diag = if r > 0 && tj > 0 { acc[(r - 1) * t + tj - 1] } else { T::zero() };
            acc[r * t + tj] = v.add(up).add(left).sub(diag);
            aux.gs.write(ctx, ti0 + r, tj, acc[r * t + tj]);
        }
    }
}

/// Kernel 3 body: GSAT of tile `block_idx` from the carried borders.
fn k3_gsat<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    aux: &TwoROneWAux<T>,
) {
    let grid = aux.grid;
    let (ti, tj) = (ctx.block_idx() / grid.t, ctx.block_idx() % grid.t);
    k3_tile(ctx, input, output, aux, ti, tj);
}

/// Kernel 3 for one explicit tile. Reads whatever `GRS`/`GCS`/`GS` hold at
/// the tile's borders — the cooperative publish block and carry grid
/// rewrite those rows to global values first, and the hybrid's Kernel 2
/// and B waves leave global values there, so this body is shared
/// unchanged by [`crate::coop`] and the hybrid's A3 and C3 kernels.
pub(crate) fn k3_tile<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    aux: &TwoROneWAux<T>,
    ti: usize,
    tj: usize,
) {
    let grid = aux.grid;
    let mut tile = load_tile(ctx, input, grid, ti, tj, Arrangement::Diagonal);
    let mut lbuf = [T::zero(); MAX_STACK_W];
    let mut tbuf = [T::zero(); MAX_STACK_W];
    let left = if tj > 0 { Some(aux.grs.read_vec_stack(ctx, ti, tj - 1, &mut lbuf)) } else { None };
    let top = if ti > 0 { Some(aux.gcs.read_vec_stack(ctx, ti - 1, tj, &mut tbuf)) } else { None };
    let corner = (ti > 0 && tj > 0).then(|| aux.gs.read(ctx, ti - 1, tj - 1));
    tile_gsat_store(ctx, &mut tile, left, top, corner, output, grid, ti, tj);
    tile.release(ctx);
}

/// The three launch configurations of one 2R1W run over `grid`, in order.
fn launch_plan(grid: TileGrid, threads_per_block: usize) -> [LaunchConfig; 3] {
    [
        LaunchConfig::new("2r1w_k1", grid.tiles(), threads_per_block),
        LaunchConfig::new("2r1w_k2", 2 * grid.t + 1, grid.w.min(threads_per_block)),
        LaunchConfig::new("2r1w_k3", grid.tiles(), threads_per_block),
    ]
}

/// Three-kernel tile-based SAT.
#[derive(Debug, Clone, Copy)]
pub struct TwoROneW {
    /// Tile width and block size.
    pub params: SatParams,
}

impl TwoROneW {
    /// With the given tile/block parameters.
    pub fn new(params: SatParams) -> Self {
        TwoROneW { params }
    }
}

impl<T: DeviceElem> SatAlgorithm<T> for TwoROneW {
    fn name(&self) -> String {
        format!("2r1w_w{}", self.params.w)
    }

    fn run(&self, gpu: &Gpu, input: &GlobalBuffer<T>, output: &GlobalBuffer<T>, n: usize) -> RunMetrics {
        let grid = TileGrid::new(n, self.params.w);
        let tpb = self.params.threads_per_block.min(gpu.config().max_threads_per_block);
        let aux = TwoROneWAux::<T>::new(grid);
        let [lc1, lc2, lc3] = launch_plan(grid, tpb);
        let mut run = RunMetrics::default();
        run.push(gpu.launch(lc1, |ctx| k1_local_sums(ctx, input, &aux)));
        run.push(gpu.launch(lc2, |ctx| k2_global_sums(ctx, &aux)));
        run.push(gpu.launch(lc3, |ctx| k3_gsat(ctx, input, output, &aux)));
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::compute_sat;
    use crate::matrix::Matrix;
    use crate::reference;
    use crate::tile::TileSums;
    use gpu_sim::prelude::*;

    fn alg(w: usize) -> TwoROneW {
        TwoROneW::new(SatParams { w, threads_per_block: (w * w).min(256) })
    }

    #[test]
    fn matches_reference() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        for (n, w) in [(4usize, 4usize), (8, 4), (16, 4), (16, 8), (32, 8), (64, 16)] {
            let a = Matrix::<u64>::random(n, n, 11, 10);
            let (got, _) = compute_sat(&gpu, &alg(w), &a);
            assert_eq!(got, reference::sat(&a), "n={n} w={w}");
        }
    }

    #[test]
    fn concurrent_adversarial() {
        for d in [DispatchOrder::Reversed, DispatchOrder::Random(13)] {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent).with_dispatch(d);
            let a = Matrix::<u64>::random(32, 32, 14, 10);
            let (got, _) = compute_sat(&gpu, &alg(8), &a);
            assert_eq!(got, reference::sat(&a));
        }
    }

    #[test]
    fn single_tile_matrix() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let a = Matrix::<u64>::random(8, 8, 15, 10);
        let (got, _) = compute_sat(&gpu, &alg(8), &a);
        assert_eq!(got, reference::sat(&a));
    }

    #[test]
    fn table1_row_2r1w() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let n = 64usize;
        let w = 8usize;
        let a = Matrix::<u32>::random(n, n, 16, 10);
        let (_, run) = compute_sat(&gpu, &alg(w), &a);
        let n2 = (n * n) as u64;
        let aux = n2 / w as u64; // O(n^2 / W)
        assert_eq!(run.kernel_calls(), 3);
        assert!(run.total_reads() >= 2 * n2 && run.total_reads() <= 2 * n2 + 8 * aux);
        assert!(run.total_writes() >= n2 && run.total_writes() <= n2 + 8 * aux);
        let s = run.total_stats();
        assert_eq!(s.strided_reads + s.strided_writes, 0, "fully coalesced");
    }

    #[test]
    fn intermediate_sums_match_oracle() {
        // Run only kernels 1+2 by checking the aux arrays after a full run
        // would overwrite nothing: re-derive from a fresh run's buffers.
        let gpu = Gpu::new(DeviceConfig::tiny());
        let n = 16usize;
        let w = 4usize;
        let a = Matrix::<u64>::random(n, n, 17, 10);
        let grid = TileGrid::new(n, w);
        let sums = TileSums::new(&a, grid);
        // Reconstruct GRS/GCS/GS from the reference and validate the
        // decomposition identity the algorithm relies on:
        // GSAT corner = LS accumulated + borders.
        for ti in 0..grid.t {
            for tj in 0..grid.t {
                let gsat = sums.gsat(ti, tj);
                let grs_sum: u64 = if tj > 0 { sums.grs(ti, tj - 1).iter().sum() } else { 0 };
                let gcs_sum: u64 = if ti > 0 { sums.gcs(ti - 1, tj).iter().sum() } else { 0 };
                let corner = if ti > 0 && tj > 0 { sums.gs(ti - 1, tj - 1) } else { 0 };
                let ls = sums.ls(ti, tj);
                assert_eq!(gsat.get(w - 1, w - 1), grs_sum + gcs_sum + corner + ls);
            }
        }
        let (got, _) = compute_sat(&gpu, &alg(w), &a);
        assert_eq!(got, reference::sat(&a));
    }
}
