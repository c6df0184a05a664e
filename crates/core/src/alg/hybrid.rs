//! The (1+r)R1W hybrid of Kasagi et al. (paper Section III-B, Fig. 8).
//!
//! 1R1W's early and late diagonal waves hold very few blocks, so the
//! hybrid carves the tile grid into three bands by anti-diagonal index
//! `d = I + J`:
//!
//! * **A** (`d < sqrt(r) * n/W`, the top-left triangle) — processed with
//!   2R1W's kernels (read twice, write once);
//! * **B** (the middle band) — processed with 1R1W diagonal waves;
//! * **C** (the bottom-right triangle, mirror of A) — 2R1W's kernels
//!   again, seeded with the `GRS`/`GCS`/`GS` values B left in global
//!   memory.
//!
//! All three phases share one [`TwoROneWAux`]. A and C run 2R1W's own
//! Kernel 1 and Kernel 3 tile bodies over their triangles, and band B runs
//! 1R1W's wave tile body. Only Kernel 2 is the hybrid's own
//! (`accumulate_globals`): its scans carry in from outside the band and its
//! `GS` pass reads band B's values back from global memory, where 2R1W's
//! pieces scan from zero.
//!
//! Tiles in A and C are read twice, so total reads are
//! `(1+r) n^2 + O(n^2/W)`; kernel calls drop to about
//! `2 (1 - sqrt(r)) n/W + 5`. `r` trades traffic for launch overhead and
//! parallelism; the paper picks it empirically (Fig. 8 shows r = 0.25).

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::launch::{BlockCtx, Gpu, LaunchConfig};
use gpu_sim::metrics::RunMetrics;

use super::one_r_one_w::process_wave_tile;
use super::two_r_one_w::{k1_tile, k3_tile, TwoROneWAux};
use super::{SatAlgorithm, SatParams};
use crate::tile::TileGrid;

/// The hybrid 2R1W / 1R1W algorithm.
#[derive(Debug, Clone, Copy)]
pub struct HybridR1W {
    /// Tile width and block size.
    pub params: SatParams,
    /// The `r` parameter in `(0, 1)`: fraction of tiles handled by the
    /// 2R1W phases.
    pub r: f64,
}

impl HybridR1W {
    /// With the given tile parameters and `r`.
    pub fn new(params: SatParams, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&r), "r must be in [0, 1]");
        HybridR1W { params, r }
    }

    /// The number of leading (and trailing) anti-diagonals handled by the
    /// 2R1W phases: `floor(sqrt(r) * n/W)`, clamped so A and C stay
    /// disjoint.
    pub fn split_diagonals(&self, t: usize) -> usize {
        let da = (self.r.sqrt() * t as f64).floor() as usize;
        da.min(t.saturating_sub(1))
    }
}

/// The `(I, J)` tiles of tile-row `ti` whose diagonal lies in `diags`.
fn row_range(grid: TileGrid, ti: usize, diags: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    let lo = diags.start.saturating_sub(ti).min(grid.t);
    let hi = (diags.end.saturating_sub(ti)).min(grid.t);
    lo..hi.max(lo)
}

/// The banded Kernel-2 body of the A and C phases over the tiles whose
/// diagonal lies in `diags`, parallelized like 2R1W's Kernel 2: blocks
/// `0..t` scan tile-rows (`GRS`), blocks `t..2t` scan tile-columns
/// (`GCS`), block `2t` runs the 2-D inclusion-exclusion over `LS`/`GS` in
/// diagonal order. Each scan starts from the value just outside the band,
/// which for the C phase the B waves wrote.
fn accumulate_globals<T: DeviceElem>(ctx: &mut BlockCtx, aux: &TwoROneWAux<T>, diags: std::ops::Range<usize>) {
    let grid = aux.grid;
    let TwoROneWAux { lrs, lcs, grs, gcs, ls, gs, .. } = aux;
    // Up to this many tile vectors per bulk transaction in the running
    // prefix below; the charges are identical to the per-tile loop (reads
    // and writes of the same `count * w` elements), only the host-side
    // round-trip count drops.
    const CHUNK: usize = 8;
    let t = grid.t;
    let b = ctx.block_idx();
    if b < t {
        let ti = b;
        let js = row_range(grid, ti, &diags);
        let mut acc: Vec<T> = ctx.scratch(grid.w);
        if js.start > 0 {
            grs.read_vec_into(ctx, ti, js.start - 1, &mut acc);
        }
        let mut buf: Vec<T> = ctx.scratch_overwrite(CHUNK * grid.w);
        let mut tj = js.start;
        while tj < js.end {
            let c = (js.end - tj).min(CHUNK);
            let win = &mut buf[..c * grid.w];
            lrs.read_row_window_into(ctx, ti, tj, c, win);
            // Turn the chunk of local sums into running prefixes in place,
            // then store the whole window back in one transaction.
            for row in win.chunks_exact_mut(grid.w) {
                for (x, a) in row.iter_mut().zip(acc.iter_mut()) {
                    *x = x.add(*a);
                    *a = *x;
                }
            }
            grs.write_row_window_from(ctx, ti, tj, c, win);
            tj += c;
        }
        ctx.recycle(acc);
        ctx.recycle(buf);
    } else if b < 2 * t {
        let tj = b - t;
        let is = row_range(grid, tj, &diags);
        let mut acc: Vec<T> = ctx.scratch(grid.w);
        if is.start > 0 {
            gcs.read_vec_into(ctx, is.start - 1, tj, &mut acc);
        }
        let mut buf: Vec<T> = ctx.scratch_overwrite(CHUNK * grid.w);
        let mut ti = is.start;
        while ti < is.end {
            let c = (is.end - ti).min(CHUNK);
            let win = &mut buf[..c * grid.w];
            lcs.read_col_window_into(ctx, ti, tj, c, win);
            for row in win.chunks_exact_mut(grid.w) {
                for (x, a) in row.iter_mut().zip(acc.iter_mut()) {
                    *x = x.add(*a);
                    *a = *x;
                }
            }
            gcs.write_col_window_from(ctx, ti, tj, c, win);
            ti += c;
        }
        ctx.recycle(acc);
        ctx.recycle(buf);
    } else {
        // GS(I,J) = LS(I,J) + GS(I-1,J) + GS(I,J-1) - GS(I-1,J-1); every
        // neighbour is either out of the grid (zero), on an earlier
        // diagonal of this band, or already in the aux array.
        for d in diags {
            for (ti, tj) in grid.diagonal_tiles(d) {
                let v = ls.read(ctx, ti, tj);
                let up = if ti > 0 { gs.read(ctx, ti - 1, tj) } else { T::zero() };
                let left = if tj > 0 { gs.read(ctx, ti, tj - 1) } else { T::zero() };
                let diag = if ti > 0 && tj > 0 { gs.read(ctx, ti - 1, tj - 1) } else { T::zero() };
                gs.write(ctx, ti, tj, v.add(up).add(left).sub(diag));
            }
        }
    }
}

impl<T: DeviceElem> SatAlgorithm<T> for HybridR1W {
    fn name(&self) -> String {
        format!("hybrid_r{:.2}_w{}", self.r, self.params.w)
    }

    fn run(&self, gpu: &Gpu, input: &GlobalBuffer<T>, output: &GlobalBuffer<T>, n: usize) -> RunMetrics {
        let grid = TileGrid::new(n, self.params.w);
        let t = grid.t;
        let tpb = self.params.threads_per_block.min(gpu.config().max_threads_per_block);
        let da = self.split_diagonals(t);
        let last = grid.diagonals(); // 2t - 1 diagonals, indices 0..last

        let aux = TwoROneWAux::<T>::new(grid);
        let mut run = RunMetrics::default();

        let band_tiles = |lo: usize, hi: usize| -> Vec<(usize, usize)> {
            (lo..hi).flat_map(|d| grid.diagonal_tiles(d)).collect()
        };

        // ---- Phase A: 2R1W over diagonals [0, da). ----
        if da > 0 {
            let a_tiles = band_tiles(0, da);
            run.push(gpu.launch(LaunchConfig::new("hybrid_a1", a_tiles.len(), tpb), |ctx| {
                let (ti, tj) = a_tiles[ctx.block_idx()];
                k1_tile(ctx, input, &aux, ti, tj);
            }));
            run.push(gpu.launch(LaunchConfig::new("hybrid_a2", 2 * t + 1, grid.w.min(tpb)), |ctx| {
                accumulate_globals(ctx, &aux, 0..da);
            }));
            run.push(gpu.launch(LaunchConfig::new("hybrid_a3", a_tiles.len(), tpb), |ctx| {
                let (ti, tj) = a_tiles[ctx.block_idx()];
                k3_tile(ctx, input, output, &aux, ti, tj);
            }));
        }

        // ---- Phase B: 1R1W waves over diagonals [da, last - da). ----
        for d in da..last - da {
            let tiles = grid.diagonal_tiles(d);
            let label = format!("hybrid_b{d}");
            run.push(gpu.launch(LaunchConfig::new(label, tiles.len(), tpb), |ctx| {
                let (ti, tj) = tiles[ctx.block_idx()];
                process_wave_tile(ctx, input, output, grid, ti, tj, &aux.grs, &aux.gcs, &aux.gs);
            }));
        }

        // ---- Phase C: 2R1W over diagonals [last - da, last). ----
        if da > 0 {
            let c_tiles = band_tiles(last - da, last);
            run.push(gpu.launch(LaunchConfig::new("hybrid_c1", c_tiles.len(), tpb), |ctx| {
                let (ti, tj) = c_tiles[ctx.block_idx()];
                k1_tile(ctx, input, &aux, ti, tj);
            }));
            run.push(gpu.launch(LaunchConfig::new("hybrid_c2", 2 * t + 1, grid.w.min(tpb)), |ctx| {
                accumulate_globals(ctx, &aux, last - da..last);
            }));
            run.push(gpu.launch(LaunchConfig::new("hybrid_c3", c_tiles.len(), tpb), |ctx| {
                let (ti, tj) = c_tiles[ctx.block_idx()];
                k3_tile(ctx, input, output, &aux, ti, tj);
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

    fn alg(w: usize, r: f64) -> HybridR1W {
        HybridR1W::new(SatParams { w, threads_per_block: (w * w).min(256) }, r)
    }

    #[test]
    fn matches_reference_various_r() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        for r in [0.0, 0.1, 0.25, 0.5, 1.0] {
            for (n, w) in [(8usize, 4usize), (16, 4), (32, 4), (32, 8)] {
                let a = Matrix::<u64>::random(n, n, 31, 10);
                let (got, _) = compute_sat(&gpu, &alg(w, r), &a);
                assert_eq!(got, reference::sat(&a), "n={n} w={w} r={r}");
            }
        }
    }

    #[test]
    fn concurrent_adversarial() {
        for d in [DispatchOrder::Reversed, DispatchOrder::Random(33)] {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent).with_dispatch(d);
            let a = Matrix::<u64>::random(32, 32, 34, 10);
            let (got, _) = compute_sat(&gpu, &alg(8, 0.25), &a);
            assert_eq!(got, reference::sat(&a));
        }
    }

    #[test]
    fn r_zero_degenerates_to_1r1w() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (n, w) = (32usize, 4usize);
        let a = Matrix::<u32>::random(n, n, 35, 10);
        let (_, run) = compute_sat(&gpu, &alg(w, 0.0), &a);
        assert_eq!(run.kernel_calls(), 2 * (n / w) - 1);
        let n2 = (n * n) as u64;
        assert!(run.total_reads() <= n2 + n2, "no doubled reads when r = 0");
    }

    #[test]
    fn reads_scale_with_r() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (n, w) = (64usize, 4usize);
        let a = Matrix::<u32>::random(n, n, 36, 10);
        let (_, run_low) = compute_sat(&gpu, &alg(w, 0.05), &a);
        let (_, run_high) = compute_sat(&gpu, &alg(w, 0.8), &a);
        assert!(run_high.total_reads() > run_low.total_reads());
        // Kernel calls shrink as r grows (the B band narrows).
        assert!(run_high.kernel_calls() < run_low.kernel_calls());
    }

    #[test]
    fn split_is_clamped_and_symmetric() {
        let h = alg(4, 1.0);
        assert_eq!(h.split_diagonals(8), 7, "A and C stay disjoint");
        assert_eq!(alg(4, 0.25).split_diagonals(8), 4);
        assert_eq!(alg(4, 0.0).split_diagonals(8), 0);
        assert_eq!(alg(4, 0.5).split_diagonals(1), 0, "single tile is pure 1R1W");
    }
}
