//! The 1R1W algorithm of Kasagi et al. (paper Section III-B, reference
//! \[14\]) — global-memory optimal, but `2n/W - 1` kernel launches.
//!
//! Kernel `K` computes `GSAT(I, J)` for every tile on anti-diagonal
//! `I + J = K`. A tile's borders (`GRS` from the left, `GCS` from above,
//! `GS` from the upper-left) were produced by the previous two waves, so
//! each wave is an ordinary bulk-synchronous kernel — the inter-tile
//! ordering is enforced by the kernel boundary, not by soft
//! synchronization. Each element is read once and written once, but early
//! and late waves hold only a handful of blocks ("the performance is
//! degraded due to overhead of many kernel calls and low parallelism").

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::launch::{Gpu, LaunchConfig};
use gpu_sim::metrics::RunMetrics;
use gpu_sim::shared::Arrangement;

use super::{SatAlgorithm, SatParams};
use crate::tile::{load_tile_with_sums, tile_gsat_store, ScalarAux, TileGrid, VecAux, MAX_STACK_W};

/// Diagonal-wave tile SAT: one kernel per anti-diagonal.
#[derive(Debug, Clone, Copy)]
pub struct OneROneW {
    /// Tile width and block size.
    pub params: SatParams,
}

impl OneROneW {
    /// With the given tile/block parameters.
    pub fn new(params: SatParams) -> Self {
        OneROneW { params }
    }
}

/// The per-tile body shared by 1R1W and the hybrid's B phase: load the
/// tile, compute and publish `GRS`/`GCS`/`GS`, fold borders, write `GSAT`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_wave_tile<T: DeviceElem>(
    ctx: &mut gpu_sim::launch::BlockCtx,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    grid: TileGrid,
    ti: usize,
    tj: usize,
    grs: &VecAux<T>,
    gcs: &VecAux<T>,
    gs: &ScalarAux<T>,
) {
    let (mut tile, lcs_v, lrs_v) = load_tile_with_sums(ctx, input, grid, ti, tj, Arrangement::Diagonal);
    ctx.syncthreads();

    let mut lbuf = [T::zero(); MAX_STACK_W];
    let mut tbuf = [T::zero(); MAX_STACK_W];
    let left = if tj > 0 { Some(grs.read_vec_stack(ctx, ti, tj - 1, &mut lbuf)) } else { None };
    let top = if ti > 0 { Some(gcs.read_vec_stack(ctx, ti - 1, tj, &mut tbuf)) } else { None };
    let corner = (ti > 0 && tj > 0).then(|| gs.read(ctx, ti - 1, tj - 1));

    // Publish this tile's global sums for the next wave: GRS(I,J) =
    // GRS(I,J-1) + LRS(I,J), GCS(I,J) = GCS(I-1,J) + LCS(I,J).
    let mut grs_cur = lrs_v;
    if let Some(l) = &left {
        for (a, b) in grs_cur.iter_mut().zip(*l) {
            *a = a.add(*b);
        }
    }
    grs.write_vec(ctx, ti, tj, &grs_cur);
    ctx.recycle(grs_cur);
    let mut gcs_cur = lcs_v;
    if let Some(t) = &top {
        for (a, b) in gcs_cur.iter_mut().zip(*t) {
            *a = a.add(*b);
        }
    }
    gcs.write_vec(ctx, ti, tj, &gcs_cur);
    ctx.recycle(gcs_cur);

    tile_gsat_store(ctx, &mut tile, left, top, corner, output, grid, ti, tj);
    // GS(I,J) is the bottom-right corner of GSAT(I,J) (paper §III-B).
    let gs_cur = tile.get(ctx, grid.w - 1, grid.w - 1);
    gs.write(ctx, ti, tj, gs_cur);
    tile.release(ctx);
}

impl<T: DeviceElem> SatAlgorithm<T> for OneROneW {
    fn name(&self) -> String {
        format!("1r1w_w{}", self.params.w)
    }

    fn run(&self, gpu: &Gpu, input: &GlobalBuffer<T>, output: &GlobalBuffer<T>, n: usize) -> RunMetrics {
        let grid = TileGrid::new(n, self.params.w);
        let tpb = self.params.threads_per_block.min(gpu.config().max_threads_per_block);
        let grs = VecAux::<T>::new(grid);
        let gcs = VecAux::<T>::new(grid);
        let gs = ScalarAux::<T>::new(grid);
        let mut run = RunMetrics::default();

        for d in 0..grid.diagonals() {
            let tiles = grid.diagonal_tiles(d);
            let label = format!("1r1w_wave{d}");
            run.push(gpu.launch(LaunchConfig::new(label, tiles.len(), tpb), |ctx| {
                let (ti, tj) = tiles[ctx.block_idx()];
                process_wave_tile(ctx, input, output, grid, ti, tj, &grs, &gcs, &gs);
            }));
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::compute_sat;
    use crate::matrix::Matrix;
    use crate::reference;
    use gpu_sim::prelude::*;

    fn alg(w: usize) -> OneROneW {
        OneROneW::new(SatParams { w, threads_per_block: (w * w).min(256) })
    }

    #[test]
    fn matches_reference() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        for (n, w) in [(4usize, 4usize), (8, 4), (12, 4), (16, 8), (32, 8)] {
            let a = Matrix::<u64>::random(n, n, 21, 10);
            let (got, _) = compute_sat(&gpu, &alg(w), &a);
            assert_eq!(got, reference::sat(&a), "n={n} w={w}");
        }
    }

    #[test]
    fn concurrent_adversarial() {
        for d in [DispatchOrder::Reversed, DispatchOrder::Random(23)] {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent).with_dispatch(d);
            let a = Matrix::<u64>::random(32, 32, 24, 10);
            let (got, _) = compute_sat(&gpu, &alg(8), &a);
            assert_eq!(got, reference::sat(&a));
        }
    }

    #[test]
    fn table1_row_1r1w() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (n, w) = (64usize, 8usize);
        let a = Matrix::<u32>::random(n, n, 25, 10);
        let (_, run) = compute_sat(&gpu, &alg(w), &a);
        let t = n / w;
        assert_eq!(run.kernel_calls(), 2 * t - 1, "2n/W - 1 kernel calls");
        let n2 = (n * n) as u64;
        let aux = n2 / w as u64;
        assert!(run.total_reads() >= n2 && run.total_reads() <= n2 + 8 * aux, "1R: {}", run.total_reads());
        assert!(run.total_writes() >= n2 && run.total_writes() <= n2 + 8 * aux, "1W: {}", run.total_writes());
        // Medium parallelism: the largest wave has n/W blocks.
        assert_eq!(run.max_threads(), t * (w * w).min(256));
    }

    #[test]
    fn float_sat_close() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let a = Matrix::<f64>::random(16, 16, 26, 8);
        let (got, _) = compute_sat(&gpu, &alg(4), &a);
        let expect = reference::sat(&a);
        for i in 0..16 {
            for j in 0..16 {
                assert!((got.get(i, j) - expect.get(i, j)).abs() < 1e-9);
            }
        }
    }
}
