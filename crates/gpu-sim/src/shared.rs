//! Simulated per-block shared memory: square tiles with bank-conflict
//! accounting and the paper's *diagonal arrangement* (Section II, Fig. 3).
//!
//! Shared memory is private to a block, so a [`SharedTile`] is plain data
//! owned by the block's closure — no atomics needed. What the simulator
//! adds is *accounting*: every access pattern is charged shared-memory
//! cycles, and column-wise warp accesses on a row-major tile are charged
//! the 32-way bank conflict a real GPU would serialize.
//!
//! The diagonal arrangement stores element `(i, j)` of a `W x W` tile at
//! offset `i*W + (i+j) mod W`. For `W` a multiple of the warp width this
//! makes both row-wise and column-wise warp accesses conflict-free, which
//! is what lets the shared-memory SAT algorithm run its row pass and its
//! column pass at full speed.
//!
//! Accounting is *batched*: each bulk operation charges its counters once
//! up front (per warp-row of the access pattern), then runs a tight inner
//! loop over plain slices. The charged totals are bit-identical to
//! per-element accounting (see `DESIGN.md`, "bulk accounting contract").
//!
//! The arrangement is *analytic*: conflict degrees are derived from the
//! arrangement's offset formula (dealing one warp's offsets into banks),
//! while the backing store itself is kept logically row-major so every
//! bulk operation is a straight slice copy or zip the compiler can
//! vectorize. Physically permuting the buffer would change no counter —
//! shared memory is private to the block and only the *model* of which
//! bank each lane hits matters — so the simulator keeps the fast layout
//! and charges the modeled one.

use crate::device::WARP;
use crate::elem::DeviceElem;
use crate::global::GlobalBuffer;
use crate::launch::BlockCtx;
use crate::simd;

/// Physical layout of a tile in shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrangement {
    /// `(i, j)` at offset `i*W + j`. Row accesses are conflict-free;
    /// column accesses by a warp all hit the same bank when `W` is a
    /// multiple of the warp width.
    RowMajor,
    /// `(i, j)` at offset `i*W + (i+j) mod W` (paper Fig. 3). Both row and
    /// column accesses are conflict-free for `W` a multiple of the warp
    /// width.
    Diagonal,
}

/// A `W x W` tile resident in the calling block's shared memory.
pub struct SharedTile<T: DeviceElem> {
    w: usize,
    arrangement: Arrangement,
    data: Vec<T>,
    row_conflict: u64,
    col_conflict: u64,
}

impl<T: DeviceElem> SharedTile<T> {
    /// Allocate a `w x w` tile. Panics if the tile exceeds the device's
    /// shared memory capacity per block — the same hard limit that caps
    /// the paper's `W` at 128 for 4-byte floats on TITAN V.
    pub fn alloc(ctx: &BlockCtx, w: usize, arrangement: Arrangement) -> Self {
        Self::check_capacity(ctx, w);
        Self::from_data(vec![T::zero(); w * w], w, arrangement)
    }

    /// Allocate like [`SharedTile::alloc`], but draw the backing store
    /// from the thread's scratch arena so repeated tile allocations across
    /// blocks reuse one heap buffer (pair with [`SharedTile::release`]),
    /// and leave whatever the recycled buffer last held in place instead of
    /// zero-filling it — the CUDA shared-memory model, where a `__shared__`
    /// array starts with undefined contents and kernels that need zeros
    /// must clear it themselves. Only sound when every element is
    /// overwritten before it is read, as in
    /// [`SharedTile::load_from_global`].
    pub fn alloc_scratch_uninit(ctx: &mut BlockCtx, w: usize, arrangement: Arrangement) -> Self {
        Self::check_capacity(ctx, w);
        let data = ctx.scratch_overwrite::<T>(w * w);
        Self::from_data(data, w, arrangement)
    }

    /// Return the tile's backing store to the thread's scratch arena.
    pub fn release(self, ctx: &mut BlockCtx) {
        ctx.recycle(self.data);
    }

    fn check_capacity(ctx: &BlockCtx, w: usize) {
        let bytes = w * w * T::BYTES as usize;
        assert!(
            bytes <= ctx.config().shared_mem_per_block,
            "tile {w}x{w} ({bytes} B) exceeds shared memory capacity ({} B)",
            ctx.config().shared_mem_per_block
        );
    }

    fn from_data(data: Vec<T>, w: usize, arrangement: Arrangement) -> Self {
        debug_assert_eq!(data.len(), w * w);
        let mut tile = SharedTile { w, arrangement, data, row_conflict: 1, col_conflict: 1 };
        tile.row_conflict = tile.measure_conflict(true);
        tile.col_conflict = tile.measure_conflict(false);
        tile
    }

    /// Tile width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// The tile's layout.
    pub fn arrangement(&self) -> Arrangement {
        self.arrangement
    }

    /// Offset of logical element `(i, j)` in the backing store (always
    /// row-major; see the module docs — the arrangement is an accounting
    /// model, not a physical permutation).
    #[inline(always)]
    fn offset(&self, i: usize, j: usize) -> usize {
        i * self.w + j
    }

    /// Offset the *modeled* arrangement would place `(i, j)` at; the bank
    /// each lane hits is derived from this, never from the backing store.
    #[inline(always)]
    fn model_offset(&self, i: usize, j: usize) -> usize {
        match self.arrangement {
            Arrangement::RowMajor => i * self.w + j,
            Arrangement::Diagonal => i * self.w + (i + j) % self.w,
        }
    }

    /// Degree of the worst bank conflict of one warp access along a row
    /// (`along_row = true`) or a column, measured by dealing the first
    /// warp's modeled offsets into banks. A result of 1 means
    /// conflict-free.
    fn measure_conflict(&self, along_row: bool) -> u64 {
        let lanes = WARP.min(self.w);
        let mut counts = [0u64; WARP];
        for lane in 0..lanes {
            let off = if along_row { self.model_offset(0, lane) } else { self.model_offset(lane, 0) };
            counts[off % WARP] += 1;
        }
        counts.iter().copied().max().unwrap_or(1).max(1)
    }

    /// Conflict degree of a row-wise warp access.
    pub fn row_conflict_degree(&self) -> u64 {
        self.row_conflict
    }

    /// Conflict degree of a column-wise warp access.
    pub fn col_conflict_degree(&self) -> u64 {
        self.col_conflict
    }

    /// Charge `elems` shared accesses performed with warp accesses of the
    /// given conflict degree. Routed through the
    /// [`BlockStats`](crate::metrics::BlockStats) accounting sink (see
    /// DESIGN.md, "Warp-transaction accounting contract").
    #[inline]
    fn account(ctx: &mut BlockCtx, elems: u64, degree: u64) {
        // Each warp access of `degree`-way conflict serializes into
        // `degree` cycles; charge the extra `degree - 1` per warp.
        let warps = elems.div_ceil(WARP as u64);
        ctx.stats.charge_shared(elems, warps * (degree - 1));
    }

    /// Charge `rows` separate warp accesses of `row_len` elements each at
    /// the given conflict degree — bit-identical to `rows` calls of
    /// [`SharedTile::account`] with `row_len` elements (the partial last
    /// warp of each row is charged per row, not amortized across rows).
    #[inline]
    fn account_rows(ctx: &mut BlockCtx, rows: u64, row_len: u64, degree: u64) {
        let warps_per_row = row_len.div_ceil(WARP as u64);
        ctx.stats.charge_shared(rows * row_len, rows * warps_per_row * (degree - 1));
    }

    /// Scalar read (accounted, assumed conflict-free).
    #[inline]
    pub fn get(&self, ctx: &mut BlockCtx, i: usize, j: usize) -> T {
        ctx.stats.charge_shared(1, 0);
        self.data[self.offset(i, j)]
    }

    /// Scalar write (accounted, assumed conflict-free).
    #[inline]
    pub fn set(&mut self, ctx: &mut BlockCtx, i: usize, j: usize, v: T) {
        ctx.stats.charge_shared(1, 0);
        let off = self.offset(i, j);
        self.data[off] = v;
    }

    /// Unaccounted read for assertions in tests.
    pub fn peek(&self, i: usize, j: usize) -> T {
        self.data[self.offset(i, j)]
    }

    /// Copy row `i` into `dst` (row-wise warp access).
    pub fn copy_row_into(&self, ctx: &mut BlockCtx, i: usize, dst: &mut [T]) {
        assert_eq!(dst.len(), self.w);
        Self::account(ctx, self.w as u64, self.row_conflict);
        dst.copy_from_slice(&self.data[i * self.w..(i + 1) * self.w]);
    }

    /// Copy column `j` into `dst` (column-wise warp access).
    pub fn copy_col_into(&self, ctx: &mut BlockCtx, j: usize, dst: &mut [T]) {
        assert_eq!(dst.len(), self.w);
        Self::account(ctx, self.w as u64, self.col_conflict);
        for (d, row) in dst.iter_mut().zip(self.data.chunks_exact(self.w)) {
            *d = row[j];
        }
    }

    /// Overwrite row `i` from `src` (row-wise warp access).
    pub fn write_row_from(&mut self, ctx: &mut BlockCtx, i: usize, src: &[T]) {
        assert_eq!(src.len(), self.w);
        Self::account(ctx, self.w as u64, self.row_conflict);
        self.data[i * self.w..(i + 1) * self.w].copy_from_slice(src);
    }

    /// Add `src[j]` to every element of row `i` (used to fold a carried
    /// top-row `GCS` into a tile).
    pub fn add_to_row(&mut self, ctx: &mut BlockCtx, i: usize, src: &[T]) {
        assert_eq!(src.len(), self.w);
        Self::account(ctx, 2 * self.w as u64, self.row_conflict);
        let row = &mut self.data[i * self.w..(i + 1) * self.w];
        simd::zip_add(row, src);
    }

    /// Add `src[i]` to every element of column `j` (used to fold a carried
    /// left-column `GRS` into a tile).
    pub fn add_to_col(&mut self, ctx: &mut BlockCtx, j: usize, src: &[T]) {
        assert_eq!(src.len(), self.w);
        Self::account(ctx, 2 * self.w as u64, self.col_conflict);
        for (s, row) in src.iter().zip(self.data.chunks_exact_mut(self.w)) {
            row[j] = row[j].add(*s);
        }
    }

    /// Copy the whole tile into `dst` in logical row-major order;
    /// accounted exactly like `w` consecutive [`SharedTile::copy_row_into`]
    /// calls.
    pub fn read_rows_into(&self, ctx: &mut BlockCtx, dst: &mut [T]) {
        assert_eq!(dst.len(), self.w * self.w);
        Self::account_rows(ctx, self.w as u64, self.w as u64, self.row_conflict);
        dst.copy_from_slice(&self.data);
    }

    /// Overwrite the whole tile from `src` in logical row-major order;
    /// accounted exactly like `w` consecutive
    /// [`SharedTile::write_row_from`] calls.
    pub fn write_rows_from(&mut self, ctx: &mut BlockCtx, src: &[T]) {
        assert_eq!(src.len(), self.w * self.w);
        Self::account_rows(ctx, self.w as u64, self.w as u64, self.row_conflict);
        self.data.copy_from_slice(src);
    }

    /// Load the whole tile straight from a 2-D window of global memory
    /// (`w` coalesced row reads with the given stride), fused with the
    /// shared-memory write: charges exactly [`GlobalBuffer::load_2d`] plus
    /// [`SharedTile::write_rows_from`], with no staging pass in between.
    pub fn load_from_global(&mut self, ctx: &mut BlockCtx, src: &GlobalBuffer<T>, offset: usize, stride: usize) {
        Self::account_rows(ctx, self.w as u64, self.w as u64, self.row_conflict);
        src.load_2d(ctx, offset, stride, self.w, &mut self.data);
    }

    /// [`SharedTile::load_from_global`], also accumulating the tile's
    /// column sums into `col_sums` as the data streams past (unaccounted,
    /// like reading the staging buffer would have been) and writing each
    /// row's sum into `row_sums` while the row is still cache-hot. Charges
    /// exactly the load followed by [`SharedTile::row_sums_into`], and the
    /// sums are accumulated in the same order as a column-by-column pass
    /// and that call, so values and counters are bit-identical to the
    /// unfused sequence.
    pub fn load_from_global_with_sums(
        &mut self,
        ctx: &mut BlockCtx,
        src: &GlobalBuffer<T>,
        offset: usize,
        stride: usize,
        col_sums: &mut [T],
        row_sums: &mut [T],
    ) {
        assert_eq!(col_sums.len(), self.w);
        assert_eq!(row_sums.len(), self.w);
        self.load_from_global(ctx, src, offset, stride);
        Self::account(ctx, (self.w * self.w) as u64, self.col_conflict);
        col_sums.fill(T::zero());
        for (s, row) in row_sums.iter_mut().zip(self.data.chunks_exact(self.w)) {
            simd::zip_add(col_sums, row);
            let mut acc = T::zero();
            for v in row {
                acc = acc.add(*v);
            }
            *s = acc;
        }
    }

    /// Store the whole tile into a 2-D window of global memory, fused with
    /// the shared-memory read: charges exactly
    /// [`SharedTile::read_rows_into`] plus [`GlobalBuffer::store_2d`].
    pub fn store_to_global(&self, ctx: &mut BlockCtx, dst: &GlobalBuffer<T>, offset: usize, stride: usize) {
        Self::account_rows(ctx, self.w as u64, self.w as u64, self.row_conflict);
        dst.store_2d(ctx, offset, stride, self.w, &self.data);
    }

    /// In-place row-wise inclusive prefix sums (paper's shared-memory SAT
    /// Step 2: `W` threads, thread `i` scans row `i` sequentially). At each
    /// time step the `W` threads touch one *column* of the tile, so the
    /// access pattern is column-wise and the conflict degree is
    /// [`SharedTile::col_conflict_degree`] — the reason the diagonal
    /// arrangement exists.
    pub fn scan_rows(&mut self, ctx: &mut BlockCtx) {
        let elems = (self.w * (self.w - 1)) as u64;
        // One read of the previous element plus one read-modify-write of
        // the current element per step.
        Self::account(ctx, 2 * elems, self.col_conflict);
        Self::prefix_rows(&mut self.data, self.w);
    }

    /// Inclusive prefix sums of every `w`-wide row of `data`, four rows
    /// interleaved so four independent add chains are in flight at once
    /// (a serial prefix sum is latency-bound on one chain). The adds
    /// within each row stay in scan order, so the result is bit-identical
    /// to scanning one row at a time.
    fn prefix_rows(data: &mut [T], w: usize) {
        if w == 0 {
            return;
        }
        let mut quads = data.chunks_exact_mut(4 * w);
        for quad in &mut quads {
            let (r0, rest) = quad.split_at_mut(w);
            let (r1, rest) = rest.split_at_mut(w);
            let (r2, r3) = rest.split_at_mut(w);
            let (mut a0, mut a1, mut a2, mut a3) = (r0[0], r1[0], r2[0], r3[0]);
            for j in 1..w {
                a0 = a0.add(r0[j]);
                r0[j] = a0;
                a1 = a1.add(r1[j]);
                r1[j] = a1;
                a2 = a2.add(r2[j]);
                r2[j] = a2;
                a3 = a3.add(r3[j]);
                r3[j] = a3;
            }
        }
        for row in quads.into_remainder().chunks_exact_mut(w) {
            let mut acc = row[0];
            for v in &mut row[1..] {
                acc = acc.add(*v);
                *v = acc;
            }
        }
    }

    /// In-place column-wise inclusive prefix sums (Step 3). The per-step
    /// access pattern is row-wise.
    pub fn scan_cols(&mut self, ctx: &mut BlockCtx) {
        let elems = (self.w * (self.w - 1)) as u64;
        Self::account(ctx, 2 * elems, self.row_conflict);
        let w = self.w;
        for i in 1..w {
            let (above, below) = self.data.split_at_mut(i * w);
            let prev = &above[(i - 1) * w..];
            let cur = &mut below[..w];
            simd::zip_add(cur, &prev[..w]);
        }
    }

    /// In-place 2-D inclusive prefix sums fused with
    /// [`SharedTile::store_to_global`]: the row scans run first
    /// (independent chains, interleaved), then row `i`'s column
    /// accumulation is finalized and the row written straight out to
    /// global memory before row `i + 1` consumes it as its carry, saving a
    /// full pass over the tile. Charges exactly [`SharedTile::scan_rows`],
    /// [`SharedTile::scan_cols`] and the store, and every add happens in
    /// the same order, so output values (floats too) and counters are
    /// bit-identical to that unfused sequence. The tile keeps the finished
    /// SAT. A strided window's cache lines are prefetched before the scan,
    /// so their misses overlap with it.
    pub fn sat_store_to_global(&mut self, ctx: &mut BlockCtx, dst: &GlobalBuffer<T>, offset: usize, stride: usize) {
        let elems = (self.w * (self.w - 1)) as u64;
        Self::account(ctx, 2 * elems, self.col_conflict);
        Self::account(ctx, 2 * elems, self.row_conflict);
        Self::account_rows(ctx, self.w as u64, self.w as u64, self.row_conflict);
        let w = self.w;
        if w == 0 {
            return;
        }
        let n = self.data.len() as u64;
        ctx.stats.charge_global_write(n, n * T::BYTES);
        dst.prefetch_window(offset, stride, w, w);
        Self::prefix_rows(&mut self.data, w);
        for i in 0..w {
            if i > 0 {
                let (above, below) = self.data.split_at_mut(i * w);
                let prev = &above[(i - 1) * w..];
                simd::zip_add(&mut below[..w], &prev[..w]);
            }
            dst.store_row_raw(offset + i * stride, &self.data[i * w..(i + 1) * w]);
        }
    }

    /// Row sums of the tile written into `sums` (one pass of column-wise
    /// warp accesses, each thread reducing its own row).
    pub fn row_sums_into(&self, ctx: &mut BlockCtx, sums: &mut [T]) {
        assert_eq!(sums.len(), self.w);
        Self::account(ctx, (self.w * self.w) as u64, self.col_conflict);
        for (s, row) in sums.iter_mut().zip(self.data.chunks_exact(self.w)) {
            let mut acc = T::zero();
            for v in row {
                acc = acc.add(*v);
            }
            *s = acc;
        }
    }
}

impl<T: DeviceElem> std::fmt::Debug for SharedTile<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedTile<{}>({}x{}, {:?})", std::any::type_name::<T>(), self.w, self.w, self.arrangement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::launch::{ExecMode, Gpu, LaunchConfig};

    fn with_ctx(f: impl Fn(&mut BlockCtx) + Sync) {
        let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Sequential);
        gpu.launch(LaunchConfig::new("test", 1, 32), f);
    }

    #[test]
    fn diagonal_is_conflict_free_both_ways() {
        with_ctx(|ctx| {
            for w in [32usize, 64, 128] {
                let t = SharedTile::<u32>::alloc(ctx, w, Arrangement::Diagonal);
                assert_eq!(t.row_conflict_degree(), 1, "w={w} row");
                assert_eq!(t.col_conflict_degree(), 1, "w={w} col");
            }
        });
    }

    #[test]
    fn row_major_columns_conflict() {
        with_ctx(|ctx| {
            for w in [32usize, 64, 128] {
                let t = SharedTile::<u32>::alloc(ctx, w, Arrangement::RowMajor);
                assert_eq!(t.row_conflict_degree(), 1, "w={w} row");
                assert_eq!(t.col_conflict_degree(), 32, "w={w} col");
            }
        });
    }

    #[test]
    fn fig3_diagonal_arrangement_w4() {
        // The paper's Figure 3 example: with w = 4, a[i][j] is *modeled* at
        // offset i*w + (i+j) mod w. The logical view is unaffected by the
        // arrangement, and the model makes a warp walking column 0 hit
        // banks 0, 1+4, 2+8, 3+12 — all distinct mod the warp width.
        with_ctx(|ctx| {
            let mut t = SharedTile::<u32>::alloc(ctx, 4, Arrangement::Diagonal);
            for i in 0..4 {
                for j in 0..4 {
                    t.set(ctx, i, j, (10 * i + j) as u32);
                }
            }
            assert_eq!(t.peek(1, 0), 10);
            assert_eq!(t.peek(1, 3), 13);
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(t.peek(i, j), (10 * i + j) as u32);
                }
            }
            for i in 0..4 {
                assert_eq!(t.model_offset(i, 0) % 4, i, "lane {i} bank");
            }
        });
    }

    #[test]
    fn get_set_roundtrip_both_arrangements() {
        with_ctx(|ctx| {
            for arr in [Arrangement::RowMajor, Arrangement::Diagonal] {
                let mut t = SharedTile::<i64>::alloc(ctx, 32, arr);
                for i in 0..32 {
                    for j in 0..32 {
                        t.set(ctx, i, j, (i * 100 + j) as i64);
                    }
                }
                for i in 0..32 {
                    for j in 0..32 {
                        assert_eq!(t.get(ctx, i, j), (i * 100 + j) as i64);
                    }
                }
            }
        });
    }

    #[test]
    fn scan_rows_then_cols_is_a_sat() {
        with_ctx(|ctx| {
            for arr in [Arrangement::RowMajor, Arrangement::Diagonal] {
                for w in [4usize, 5, 32, 33] {
                    let mut t = SharedTile::<u32>::alloc(ctx, w, arr);
                    for i in 0..w {
                        for j in 0..w {
                            t.set(ctx, i, j, 1);
                        }
                    }
                    t.scan_rows(ctx);
                    t.scan_cols(ctx);
                    for i in 0..w {
                        for j in 0..w {
                            assert_eq!(t.peek(i, j), ((i + 1) * (j + 1)) as u32, "{arr:?} w={w} ({i},{j})");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn row_and_col_copies() {
        with_ctx(|ctx| {
            for arr in [Arrangement::RowMajor, Arrangement::Diagonal] {
                let mut t = SharedTile::<u32>::alloc(ctx, 32, arr);
                let vals: Vec<u32> = (0..32).collect();
                t.write_row_from(ctx, 3, &vals);
                let mut row = vec![0u32; 32];
                t.copy_row_into(ctx, 3, &mut row);
                assert_eq!(row, vals, "{arr:?}");
                let mut col = vec![0u32; 32];
                t.copy_col_into(ctx, 5, &mut col);
                assert_eq!(col[3], vals[5], "{arr:?}");
            }
        });
    }

    #[test]
    fn add_to_col_and_row() {
        with_ctx(|ctx| {
            for arr in [Arrangement::RowMajor, Arrangement::Diagonal] {
                let mut t = SharedTile::<u32>::alloc(ctx, 4, arr);
                let ones = vec![1u32; 4];
                t.add_to_col(ctx, 0, &ones);
                t.add_to_row(ctx, 0, &ones);
                assert_eq!(t.peek(0, 0), 2, "{arr:?}");
                assert_eq!(t.peek(1, 0), 1, "{arr:?}");
                assert_eq!(t.peek(0, 1), 1, "{arr:?}");
                assert_eq!(t.peek(1, 1), 0, "{arr:?}");
            }
        });
    }

    #[test]
    fn sums() {
        // Row i holds i + 1 everywhere: every column sums to 10, row i to
        // 4(i + 1).
        let vals: Vec<u32> = (0..16).map(|k| k / 4 + 1).collect();
        let src = GlobalBuffer::from_slice(&vals);
        with_ctx(|ctx| {
            for arr in [Arrangement::RowMajor, Arrangement::Diagonal] {
                let mut t = SharedTile::<u32>::alloc(ctx, 4, arr);
                let (mut cols, mut rows) = ([0u32; 4], [0u32; 4]);
                t.load_from_global_with_sums(ctx, &src, 0, 4, &mut cols, &mut rows);
                assert_eq!(cols, [10; 4], "{arr:?}");
                assert_eq!(rows, [4, 8, 12, 16], "{arr:?}");
                let mut again = [0u32; 4];
                t.row_sums_into(ctx, &mut again);
                assert_eq!(again, rows, "{arr:?}");
            }
        });
    }

    #[test]
    fn whole_tile_ops_roundtrip_and_match_per_row_accounting() {
        // read_rows_into/write_rows_from must move the same data and
        // charge the same counters as w copy_row_into/write_row_from
        // calls — including at w = 5, where the partial warp of each row
        // is charged per row and a single account(w*w) call would differ.
        for arr in [Arrangement::RowMajor, Arrangement::Diagonal] {
            for w in [5usize, 32] {
                let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Sequential);
                let vals: Vec<u32> = (0..(w * w) as u32).collect();
                let per_row = gpu.launch(LaunchConfig::new("rows", 1, 32), |ctx| {
                    let mut t = SharedTile::<u32>::alloc(ctx, w, arr);
                    for (i, chunk) in vals.chunks_exact(w).enumerate() {
                        t.write_row_from(ctx, i, chunk);
                    }
                    let mut out = vec![0u32; w * w];
                    for (i, chunk) in out.chunks_exact_mut(w).enumerate() {
                        t.copy_row_into(ctx, i, chunk);
                    }
                    assert_eq!(out, vals);
                });
                let bulk = gpu.launch(LaunchConfig::new("bulk", 1, 32), |ctx| {
                    let mut t = SharedTile::<u32>::alloc(ctx, w, arr);
                    t.write_rows_from(ctx, &vals);
                    let mut out = vec![0u32; w * w];
                    t.read_rows_into(ctx, &mut out);
                    assert_eq!(out, vals);
                });
                assert_eq!(
                    per_row.stats.deterministic(),
                    bulk.stats.deterministic(),
                    "{arr:?} w={w}"
                );
            }
        }
    }

    #[test]
    fn fused_sat_matches_two_scans_data_and_counters() {
        // The fused SAT-and-store against scan_rows + scan_cols +
        // store_to_global, both into the same strided window of a wider
        // buffer.
        for arr in [Arrangement::RowMajor, Arrangement::Diagonal] {
            for w in [4usize, 5, 32, 33] {
                let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Sequential);
                let vals: Vec<u64> = (0..(w * w) as u64).map(|x| x % 7 + 1).collect();
                let (offset, stride) = (2, w + 3);
                let run = |fused: bool| {
                    let dst = GlobalBuffer::<u64>::zeroed(offset + w * stride);
                    let m = gpu.launch(LaunchConfig::new("sat", 1, 32), |ctx| {
                        let mut t = SharedTile::<u64>::alloc(ctx, w, arr);
                        t.write_rows_from(ctx, &vals);
                        if fused {
                            t.sat_store_to_global(ctx, &dst, offset, stride);
                        } else {
                            t.scan_rows(ctx);
                            t.scan_cols(ctx);
                            t.store_to_global(ctx, &dst, offset, stride);
                        }
                    });
                    (dst.to_vec(), m.stats.deterministic())
                };
                let (out_two, two) = run(false);
                let (out_fused, fused) = run(true);
                assert_eq!(out_fused, out_two, "{arr:?} w={w}");
                assert_eq!(fused, two, "{arr:?} w={w}");
                // The window's bottom-right element is the tile's total.
                let total: u64 = vals.iter().sum();
                assert_eq!(out_two[offset + (w - 1) * stride + w - 1], total, "{arr:?} w={w}");
            }
        }
    }

    #[test]
    fn conflict_cycles_are_charged() {
        let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Sequential);
        let row_major = gpu.launch(LaunchConfig::new("rm", 1, 32), |ctx| {
            let mut t = SharedTile::<u32>::alloc(ctx, 32, Arrangement::RowMajor);
            t.scan_rows(ctx); // column-wise pattern -> conflicts
        });
        let diagonal = gpu.launch(LaunchConfig::new("dg", 1, 32), |ctx| {
            let mut t = SharedTile::<u32>::alloc(ctx, 32, Arrangement::Diagonal);
            t.scan_rows(ctx);
        });
        assert!(row_major.stats.bank_conflict_cycles > 0);
        assert_eq!(diagonal.stats.bank_conflict_cycles, 0);
        assert_eq!(row_major.stats.shared_accesses, diagonal.stats.shared_accesses);
    }

    #[test]
    #[should_panic(expected = "exceeds shared memory")]
    fn oversized_tile_panics() {
        with_ctx(|ctx| {
            let _ = SharedTile::<f64>::alloc(ctx, 1024, Arrangement::RowMajor);
        });
    }
}
