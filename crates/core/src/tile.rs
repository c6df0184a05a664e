//! Tile decomposition: geometry, the Table II sums taxonomy, and the
//! shared-memory tile operations every tile-based SAT algorithm is built
//! from (paper Sections II and III).
//!
//! An `n x n` matrix is partitioned into `(n/W)^2` tiles `T(I, J)` of
//! `W x W` elements. Table II of the paper names the per-tile quantities;
//! the host-side [`TileSums`] oracle computes all of them directly from
//! the input so algorithm internals can be tested piecewise:
//!
//! | name | meaning |
//! |------|---------|
//! | `LRS(I,J)` | row sums of tile `(I,J)` — `W` values |
//! | `LCS(I,J)` | column sums of tile `(I,J)` — `W` values |
//! | `LS(I,J)`  | total sum of tile `(I,J)` |
//! | `GRS(I,J)` | row sums through tiles `(I,0..=J)` — `W` values |
//! | `GCS(I,J)` | column sums through tiles `(0..=I,J)` — `W` values |
//! | `GS(I,J)`  | sum of the whole region `[0, W(I+1)) x [0, W(J+1))` |
//! | `GLS(I,J)` | `GS(I,J) - GS(I-1,J-1)` — the L-shaped strip |
//! | `GSAT(I,J)`| the `W x W` block of the global SAT at tile `(I,J)` |

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::launch::BlockCtx;
use gpu_sim::shared::{Arrangement, SharedTile};

use crate::matrix::Matrix;

/// Geometry of a square tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Matrix side length.
    pub n: usize,
    /// Tile width `W`.
    pub w: usize,
    /// Tiles per side, `n / W`.
    pub t: usize,
}

impl TileGrid {
    /// A tiling of an `n x n` matrix into `W x W` tiles. `n` must be a
    /// positive multiple of `W` (the paper's evaluation uses powers of two
    /// for both).
    pub fn new(n: usize, w: usize) -> Self {
        assert!(w > 0 && n > 0, "empty tiling");
        assert!(n.is_multiple_of(w), "matrix side {n} must be a multiple of the tile width {w}");
        TileGrid { n, w, t: n / w }
    }

    /// Total number of tiles, `(n/W)^2`.
    pub fn tiles(&self) -> usize {
        self.t * self.t
    }

    /// Row-major index of tile `(I, J)` into per-tile aux arrays.
    #[inline]
    pub fn tile_index(&self, ti: usize, tj: usize) -> usize {
        debug_assert!(ti < self.t && tj < self.t);
        ti * self.t + tj
    }

    /// Global offset of element `(i, j)` *within* tile `(I, J)`.
    #[inline]
    pub fn elem_offset(&self, ti: usize, tj: usize, i: usize, j: usize) -> usize {
        (ti * self.w + i) * self.n + tj * self.w + j
    }

    /// Number of anti-diagonals of tiles, `2 n/W - 1` — the kernel count
    /// of 1R1W and the wavefront depth of the SKSS algorithms.
    pub fn diagonals(&self) -> usize {
        2 * self.t - 1
    }

    /// The tiles on anti-diagonal `d` (those with `I + J = d`), as
    /// `(I, J)` pairs ordered by `I`.
    pub fn diagonal_tiles(&self, d: usize) -> Vec<(usize, usize)> {
        assert!(d < self.diagonals());
        let lo = d.saturating_sub(self.t - 1);
        let hi = d.min(self.t - 1);
        (lo..=hi).map(|i| (i, d - i)).collect()
    }
}

// ----------------------------------------------------------------------
// Host-side Table II oracle.
// ----------------------------------------------------------------------

/// Host-side computation of every Table II quantity, used to validate the
/// intermediate values algorithms publish through global memory.
pub struct TileSums<'a, T> {
    a: &'a Matrix<T>,
    /// The tiling these sums are taken over.
    pub grid: TileGrid,
}

impl<'a, T: DeviceElem> TileSums<'a, T> {
    /// Tile sums of `a` under `grid`.
    pub fn new(a: &'a Matrix<T>, grid: TileGrid) -> Self {
        assert!(a.is_tileable(grid.w) && a.rows() == grid.n);
        TileSums { a, grid }
    }

    /// `LRS(I,J)`: the `W` row sums of tile `(I,J)`.
    pub fn lrs(&self, ti: usize, tj: usize) -> Vec<T> {
        let w = self.grid.w;
        (0..w)
            .map(|i| {
                let mut s = T::zero();
                for j in 0..w {
                    s = s.add(self.a.get(ti * w + i, tj * w + j));
                }
                s
            })
            .collect()
    }

    /// `LCS(I,J)`: the `W` column sums of tile `(I,J)`.
    pub fn lcs(&self, ti: usize, tj: usize) -> Vec<T> {
        let w = self.grid.w;
        (0..w)
            .map(|j| {
                let mut s = T::zero();
                for i in 0..w {
                    s = s.add(self.a.get(ti * w + i, tj * w + j));
                }
                s
            })
            .collect()
    }

    /// `LS(I,J)`: the total sum of tile `(I,J)`.
    pub fn ls(&self, ti: usize, tj: usize) -> T {
        self.lrs(ti, tj).into_iter().fold(T::zero(), |a, b| a.add(b))
    }

    /// `GRS(I,J)`: row sums accumulated through tiles `(I, 0..=J)`.
    pub fn grs(&self, ti: usize, tj: usize) -> Vec<T> {
        let mut acc = vec![T::zero(); self.grid.w];
        for j in 0..=tj {
            for (a, b) in acc.iter_mut().zip(self.lrs(ti, j)) {
                *a = a.add(b);
            }
        }
        acc
    }

    /// `GCS(I,J)`: column sums accumulated through tiles `(0..=I, J)`.
    pub fn gcs(&self, ti: usize, tj: usize) -> Vec<T> {
        let mut acc = vec![T::zero(); self.grid.w];
        for i in 0..=ti {
            for (a, b) in acc.iter_mut().zip(self.lcs(i, tj)) {
                *a = a.add(b);
            }
        }
        acc
    }

    /// `GS(I,J)`: the sum of the whole prefix region through tile `(I,J)`.
    pub fn gs(&self, ti: usize, tj: usize) -> T {
        let mut acc = T::zero();
        for i in 0..=ti {
            for j in 0..=tj {
                acc = acc.add(self.ls(i, j));
            }
        }
        acc
    }

    /// `GLS(I,J) = GS(I,J) - GS(I-1,J-1)`: the L-shaped strip of tile row
    /// `I` and tile column `J` (Fig. 11).
    pub fn gls(&self, ti: usize, tj: usize) -> T {
        let prev = if ti > 0 && tj > 0 { self.gs(ti - 1, tj - 1) } else { T::zero() };
        self.gs(ti, tj).sub(prev)
    }

    /// `GSAT(I,J)`: the `W x W` block of the global SAT at tile `(I,J)`.
    pub fn gsat(&self, ti: usize, tj: usize) -> Matrix<T> {
        let full = crate::reference::sat(self.a);
        let w = self.grid.w;
        Matrix::from_fn(w, w, |i, j| full.get(ti * w + i, tj * w + j))
    }
}

// ----------------------------------------------------------------------
// Device-side aux array layouts.
// ----------------------------------------------------------------------

/// Per-tile vectors of `W` values in global memory, laid out so the `W`
/// values of one tile are consecutive (the layout the paper prescribes for
/// LRS/LCS/GRS/GCS so reads are coalesced).
pub struct VecAux<T: DeviceElem> {
    buf: GlobalBuffer<T>,
    grid: TileGrid,
}

impl<T: DeviceElem> VecAux<T> {
    /// One `W`-vector per tile, zeroed.
    pub fn new(grid: TileGrid) -> Self {
        VecAux { buf: GlobalBuffer::zeroed(grid.tiles() * grid.w), grid }
    }

    fn base(&self, ti: usize, tj: usize) -> usize {
        self.grid.tile_index(ti, tj) * self.grid.w
    }

    /// Coalesced read of tile `(I,J)`'s vector.
    pub fn read_vec(&self, ctx: &mut BlockCtx, ti: usize, tj: usize) -> Vec<T> {
        let mut v = ctx.scratch_overwrite(self.grid.w);
        self.buf.load_row(ctx, self.base(ti, tj), &mut v);
        v
    }

    /// Coalesced read of tile `(I,J)`'s vector into a caller buffer.
    pub fn read_vec_into(&self, ctx: &mut BlockCtx, ti: usize, tj: usize, dst: &mut [T]) {
        assert_eq!(dst.len(), self.grid.w);
        self.buf.load_row(ctx, self.base(ti, tj), dst);
    }

    /// Coalesced read of tile `(I,J)`'s vector into a caller-provided
    /// stack buffer, returning the filled `w`-long prefix. Accounting is
    /// identical to [`VecAux::read_vec`]; the stack storage just avoids a
    /// round-trip through the scratch arena on the per-tile hot path.
    /// Shared-memory capacity caps realistic tile widths far below
    /// [`MAX_STACK_W`].
    pub fn read_vec_stack<'b>(
        &self,
        ctx: &mut BlockCtx,
        ti: usize,
        tj: usize,
        buf: &'b mut [T; MAX_STACK_W],
    ) -> &'b [T] {
        assert!(
            self.grid.w <= MAX_STACK_W,
            "tile width {} exceeds the stack border buffer ({MAX_STACK_W})",
            self.grid.w
        );
        let dst = &mut buf[..self.grid.w];
        self.buf.load_row(ctx, self.base(ti, tj), dst);
        dst
    }

    /// Coalesced write of tile `(I,J)`'s vector.
    pub fn write_vec(&self, ctx: &mut BlockCtx, ti: usize, tj: usize, v: &[T]) {
        assert_eq!(v.len(), self.grid.w);
        self.buf.store_row(ctx, self.base(ti, tj), v);
    }

    /// Windowed bulk read along a tile row: the vectors of tiles
    /// `(ti, tj_lo), (ti, tj_lo+1), ..` — contiguous in this layout — packed
    /// into `dst` (`count * w` elements, ascending `tj`). One warp
    /// transaction accounted exactly like `count` [`VecAux::read_vec_into`]
    /// calls.
    pub fn read_row_window_into(&self, ctx: &mut BlockCtx, ti: usize, tj_lo: usize, count: usize, dst: &mut [T]) {
        assert_eq!(dst.len(), count * self.grid.w);
        self.buf.load_row(ctx, self.base(ti, tj_lo), dst);
    }

    /// Windowed bulk read along a tile column: the vectors of tiles
    /// `(ti_lo, tj), (ti_lo+1, tj), ..` — `t * w` apart in this layout —
    /// packed into `dst` (`count * w` elements, ascending `ti`). One warp
    /// transaction accounted exactly like `count` coalesced
    /// [`VecAux::read_vec_into`] calls (each tile's vector is itself
    /// consecutive, so the rows stay coalesced; only the inter-row stride
    /// differs).
    pub fn read_col_window_into(&self, ctx: &mut BlockCtx, ti_lo: usize, tj: usize, count: usize, dst: &mut [T]) {
        assert_eq!(dst.len(), count * self.grid.w);
        self.buf.load_2d(ctx, self.base(ti_lo, tj), self.grid.t * self.grid.w, self.grid.w, dst);
    }

    /// Windowed bulk write along a tile row — the store mirror of
    /// [`VecAux::read_row_window_into`], accounted exactly like `count`
    /// [`VecAux::write_vec`] calls.
    pub fn write_row_window_from(&self, ctx: &mut BlockCtx, ti: usize, tj_lo: usize, count: usize, src: &[T]) {
        assert_eq!(src.len(), count * self.grid.w);
        self.buf.store_row(ctx, self.base(ti, tj_lo), src);
    }

    /// Windowed bulk write along a tile column — the store mirror of
    /// [`VecAux::read_col_window_into`], accounted exactly like `count`
    /// [`VecAux::write_vec`] calls.
    pub fn write_col_window_from(&self, ctx: &mut BlockCtx, ti_lo: usize, tj: usize, count: usize, src: &[T]) {
        assert_eq!(src.len(), count * self.grid.w);
        self.buf.store_2d(ctx, self.base(ti_lo, tj), self.grid.t * self.grid.w, self.grid.w, src);
    }

    /// Unaccounted host-side read of tile `(I,J)`'s vector: for tests, for
    /// a look-back walk's host steps, and for a value whose D2D transfer
    /// the caller charges itself.
    pub fn peek_vec(&self, ti: usize, tj: usize) -> Vec<T> {
        let base = self.base(ti, tj);
        (0..self.grid.w).map(|k| self.buf.host_read(base + k)).collect()
    }
}

/// Capacity of the stack-allocated border vectors used on per-tile hot
/// paths. Any realistic tile is far smaller: shared-memory capacity caps
/// `W` at `sqrt(capacity / bytes)` (128 for 4-byte floats on TITAN V).
pub const MAX_STACK_W: usize = 256;

/// Per-tile scalars in global memory (LS / GLS / GS).
pub struct ScalarAux<T: DeviceElem> {
    buf: GlobalBuffer<T>,
    grid: TileGrid,
}

impl<T: DeviceElem> ScalarAux<T> {
    /// One scalar per tile, zeroed.
    pub fn new(grid: TileGrid) -> Self {
        ScalarAux { buf: GlobalBuffer::zeroed(grid.tiles()), grid }
    }

    /// Accounted read of tile `(I,J)`'s scalar.
    pub fn read(&self, ctx: &mut BlockCtx, ti: usize, tj: usize) -> T {
        self.buf.read(ctx, self.grid.tile_index(ti, tj))
    }

    /// Accounted write of tile `(I,J)`'s scalar.
    pub fn write(&self, ctx: &mut BlockCtx, ti: usize, tj: usize, v: T) {
        self.buf.write(ctx, self.grid.tile_index(ti, tj), v);
    }

    /// Unaccounted host-side read of tile `(I,J)`'s scalar, for the same
    /// callers as [`VecAux::peek_vec`].
    pub fn peek(&self, ti: usize, tj: usize) -> T {
        self.buf.host_read(self.grid.tile_index(ti, tj))
    }
}

// ----------------------------------------------------------------------
// Device-side shared-memory tile operations.
// ----------------------------------------------------------------------

/// Copy tile `(I,J)` from global memory into shared memory in the given
/// arrangement — Step 1 of the paper's shared-memory SAT algorithm. `W`
/// coalesced row reads of `W` elements each.
pub fn load_tile<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    grid: TileGrid,
    ti: usize,
    tj: usize,
    arrangement: Arrangement,
) -> SharedTile<T> {
    let mut tile = SharedTile::alloc_scratch_uninit(ctx, grid.w, arrangement);
    tile.load_from_global(ctx, input, grid.elem_offset(ti, tj, 0, 0), grid.n);
    tile
}

/// [`load_tile`] computing the tile's column sums (`LCS`) during the copy
/// — Step 1 of the shared-memory column-wise/row-wise sum algorithm, which
/// gets the column sums "for free" while the data streams past.
pub fn load_tile_with_col_sums<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    grid: TileGrid,
    ti: usize,
    tj: usize,
    arrangement: Arrangement,
) -> (SharedTile<T>, Vec<T>) {
    let mut tile = SharedTile::alloc_scratch_uninit(ctx, grid.w, arrangement);
    let mut col_sums: Vec<T> = ctx.scratch_overwrite(grid.w);
    tile.load_from_global_with_col_sums(ctx, input, grid.elem_offset(ti, tj, 0, 0), grid.n, &mut col_sums);
    (tile, col_sums)
}

/// [`load_tile_with_col_sums`] also producing the tile's row sums (`LRS`)
/// in the same streaming pass. Values and counters are bit-identical to
/// the unfused load + [`SharedTile::row_sums_into`] sequence.
pub fn load_tile_with_sums<T: DeviceElem>(
    ctx: &mut BlockCtx,
    input: &GlobalBuffer<T>,
    grid: TileGrid,
    ti: usize,
    tj: usize,
    arrangement: Arrangement,
) -> (SharedTile<T>, Vec<T>, Vec<T>) {
    let mut tile = SharedTile::alloc_scratch_uninit(ctx, grid.w, arrangement);
    let mut col_sums: Vec<T> = ctx.scratch_overwrite(grid.w);
    let mut row_sums: Vec<T> = ctx.scratch_overwrite(grid.w);
    tile.load_from_global_with_sums(
        ctx,
        input,
        grid.elem_offset(ti, tj, 0, 0),
        grid.n,
        &mut col_sums,
        &mut row_sums,
    );
    (tile, col_sums, row_sums)
}

/// Copy a shared-memory tile back to tile `(I,J)` of `output` — Step 4 of
/// the shared-memory SAT algorithm. `W` coalesced row writes.
pub fn store_tile<T: DeviceElem>(
    ctx: &mut BlockCtx,
    output: &GlobalBuffer<T>,
    grid: TileGrid,
    ti: usize,
    tj: usize,
    tile: &SharedTile<T>,
) {
    tile.store_to_global(ctx, output, grid.elem_offset(ti, tj, 0, 0), grid.n);
}

/// Fold carried borders into a tile before its local SAT: add
/// `GRS(I,J-1)` down the leftmost column, `GCS(I-1,J)` across the topmost
/// row, and `GS(I-1,J-1)` to the top-left element. After `scan_rows` +
/// `scan_cols` the tile then holds `GSAT(I,J)` (paper, 2R1W Kernel 3 and
/// 1R1W).
pub fn apply_borders<T: DeviceElem>(
    ctx: &mut BlockCtx,
    tile: &mut SharedTile<T>,
    left: Option<&[T]>,
    top: Option<&[T]>,
    corner: T,
) {
    if let Some(grs) = left {
        tile.add_to_col(ctx, 0, grs);
    }
    if let Some(gcs) = top {
        tile.add_to_row(ctx, 0, gcs);
    }
    if corner != T::zero() {
        let v = tile.get(ctx, 0, 0).add(corner);
        tile.set(ctx, 0, 0, v);
    }
}

/// Compute `GSAT(I,J)` in shared memory given the tile data and its
/// carried borders, returning the tile ready to store. This is the
/// composite the 1R1W-family algorithms run per tile.
pub fn tile_gsat_in_place<T: DeviceElem>(
    ctx: &mut BlockCtx,
    tile: &mut SharedTile<T>,
    left: Option<&[T]>,
    top: Option<&[T]>,
    corner: T,
) {
    apply_borders(ctx, tile, left, top, corner);
    ctx.syncthreads();
    tile.sat_in_place(ctx);
    // The fused scan stands in for two barrier-separated passes; charge
    // both barriers so the counters match the unfused sequence.
    ctx.syncthreads();
    ctx.syncthreads();
}

/// [`tile_gsat_in_place`] fused with the store of the finished `GSAT`
/// tile back to global memory — the column-accumulation pass writes each
/// finalized row straight out instead of staging it and copying in a
/// separate [`store_tile`] pass. Output values and counters are
/// bit-identical to `tile_gsat_in_place` followed by `store_tile`.
#[allow(clippy::too_many_arguments)]
pub fn tile_gsat_store<T: DeviceElem>(
    ctx: &mut BlockCtx,
    tile: &mut SharedTile<T>,
    left: Option<&[T]>,
    top: Option<&[T]>,
    corner: T,
    output: &GlobalBuffer<T>,
    grid: TileGrid,
    ti: usize,
    tj: usize,
) {
    apply_borders(ctx, tile, left, top, corner);
    ctx.syncthreads();
    tile.sat_store_to_global(ctx, output, grid.elem_offset(ti, tj, 0, 0), grid.n);
    ctx.syncthreads();
    ctx.syncthreads();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::prelude::*;

    fn sample(n: usize) -> Matrix<u64> {
        Matrix::random(n, n, 3, 10)
    }

    #[test]
    fn grid_geometry() {
        let g = TileGrid::new(12, 4);
        assert_eq!(g.t, 3);
        assert_eq!(g.tiles(), 9);
        assert_eq!(g.diagonals(), 5);
        assert_eq!(g.tile_index(2, 1), 7);
        assert_eq!(g.elem_offset(1, 2, 3, 0), (4 + 3) * 12 + 8);
    }

    #[test]
    fn diagonal_tiles_cover_grid_once() {
        let g = TileGrid::new(20, 4);
        let mut seen = vec![false; g.tiles()];
        for d in 0..g.diagonals() {
            for (i, j) in g.diagonal_tiles(d) {
                assert_eq!(i + j, d);
                assert!(!seen[g.tile_index(i, j)]);
                seen[g.tile_index(i, j)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "multiple of the tile width")]
    fn grid_rejects_ragged() {
        let _ = TileGrid::new(10, 4);
    }

    #[test]
    fn table2_consistency() {
        let a = sample(12);
        let sums = TileSums::new(&a, TileGrid::new(12, 4));
        // LS is the sum of LRS and also of LCS.
        for ti in 0..3 {
            for tj in 0..3 {
                let ls = sums.ls(ti, tj);
                let from_lrs: u64 = sums.lrs(ti, tj).into_iter().sum();
                let from_lcs: u64 = sums.lcs(ti, tj).into_iter().sum();
                assert_eq!(ls, from_lrs);
                assert_eq!(ls, from_lcs);
            }
        }
        // GRS(I, t-1) sums a full matrix row strip.
        let grs = sums.grs(1, 2);
        for (i, &got) in grs.iter().enumerate() {
            let mut expect = 0u64;
            for j in 0..12 {
                expect += a.get(4 + i, j);
            }
            assert_eq!(got, expect);
        }
        // GS(t-1, t-1) is the total sum.
        let total: u64 = a.as_slice().iter().sum();
        assert_eq!(sums.gs(2, 2), total);
        // GLS telescopes into GS along the diagonal.
        assert_eq!(sums.gls(2, 2) + sums.gs(1, 1), sums.gs(2, 2));
        // GSAT agrees with the full SAT corner element.
        let gsat = sums.gsat(2, 2);
        assert_eq!(gsat.get(3, 3), total);
    }

    #[test]
    fn device_tile_roundtrip_and_borders() {
        let n = 8;
        let a = sample(n);
        let grid = TileGrid::new(n, 4);
        let gpu = Gpu::new(DeviceConfig::tiny());
        let input = a.to_device();
        let output = GlobalBuffer::<u64>::zeroed(n * n);
        let sums = TileSums::new(&a, grid);

        // One block computes GSAT(1,1) from the oracle borders; the result
        // must match the oracle GSAT block.
        let grs = sums.grs(1, 0);
        let gcs = sums.gcs(0, 1);
        let gs = sums.gs(0, 0);
        gpu.launch(LaunchConfig::new("tile", 1, 16), |ctx| {
            let mut tile = load_tile(ctx, &input, grid, 1, 1, Arrangement::Diagonal);
            tile_gsat_in_place(ctx, &mut tile, Some(&grs), Some(&gcs), gs);
            store_tile(ctx, &output, grid, 1, 1, &tile);
        });
        let expect = sums.gsat(1, 1);
        let got = Matrix::from_device(&output, n, n);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(got.get(4 + i, 4 + j), expect.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn load_with_col_sums_matches_lcs() {
        let n = 8;
        let a = sample(n);
        let grid = TileGrid::new(n, 4);
        let gpu = Gpu::new(DeviceConfig::tiny());
        let input = a.to_device();
        let lcs_out = GlobalBuffer::<u64>::zeroed(4);
        let sums = TileSums::new(&a, grid);
        gpu.launch(LaunchConfig::new("lcs", 1, 16), |ctx| {
            let (_tile, lcs) = load_tile_with_col_sums(ctx, &input, grid, 1, 0, Arrangement::Diagonal);
            lcs_out.store_row(ctx, 0, &lcs);
        });
        assert_eq!(lcs_out.to_vec(), sums.lcs(1, 0));
    }

    #[test]
    fn fused_load_and_gsat_store_match_unfused_values_and_counters() {
        let n = 8;
        let a = sample(n);
        let grid = TileGrid::new(n, 4);
        let input = a.to_device();
        let sums = TileSums::new(&a, grid);
        let grs = sums.grs(1, 0);
        let gcs = sums.gcs(0, 1);
        let gs = sums.gs(0, 0);

        let run = |fused: bool| {
            let gpu = Gpu::new(DeviceConfig::tiny());
            let output = GlobalBuffer::<u64>::zeroed(n * n);
            let sums_out = GlobalBuffer::<u64>::zeroed(8);
            let m = gpu.launch(LaunchConfig::new("fuse", 1, 16), |ctx| {
                if fused {
                    let (mut tile, lcs, lrs) =
                        load_tile_with_sums(ctx, &input, grid, 1, 1, Arrangement::Diagonal);
                    sums_out.store_row(ctx, 0, &lcs);
                    sums_out.store_row(ctx, 4, &lrs);
                    tile_gsat_store(ctx, &mut tile, Some(&grs), Some(&gcs), gs, &output, grid, 1, 1);
                } else {
                    let (mut tile, lcs) =
                        load_tile_with_col_sums(ctx, &input, grid, 1, 1, Arrangement::Diagonal);
                    let mut lrs = vec![0u64; 4];
                    tile.row_sums_into(ctx, &mut lrs);
                    sums_out.store_row(ctx, 0, &lcs);
                    sums_out.store_row(ctx, 4, &lrs);
                    tile_gsat_in_place(ctx, &mut tile, Some(&grs), Some(&gcs), gs);
                    store_tile(ctx, &output, grid, 1, 1, &tile);
                }
            });
            (output.to_vec(), sums_out.to_vec(), m.stats.deterministic())
        };

        let (out_f, sums_f, det_f) = run(true);
        let (out_u, sums_u, det_u) = run(false);
        assert_eq!(out_f, out_u);
        assert_eq!(sums_f, sums_u);
        assert_eq!(det_f, det_u, "fused paths must charge exactly the unfused counters");
    }

    #[test]
    fn aux_arrays_roundtrip() {
        let grid = TileGrid::new(8, 4);
        let gpu = Gpu::new(DeviceConfig::tiny());
        let vaux = VecAux::<u64>::new(grid);
        let saux = ScalarAux::<u64>::new(grid);
        gpu.launch(LaunchConfig::new("aux", 1, 16), |ctx| {
            vaux.write_vec(ctx, 1, 0, &[1, 2, 3, 4]);
            let v = vaux.read_vec(ctx, 1, 0);
            assert_eq!(v, vec![1, 2, 3, 4]);
            saux.write(ctx, 0, 1, 99);
            assert_eq!(saux.read(ctx, 0, 1), 99);
        });
        assert_eq!(vaux.peek_vec(1, 0), vec![1, 2, 3, 4]);
        assert_eq!(vaux.peek_vec(0, 0), vec![0, 0, 0, 0]);
        assert_eq!(saux.peek(0, 1), 99);
    }
}
