//! Simulated global memory.
//!
//! A [`GlobalBuffer`] is the device DRAM: every block of every kernel can
//! read and write it, and data written by one block becomes visible to
//! another only through the synchronization primitives in [`crate::sync`]
//! (exactly the CUDA contract). Device-side accessors are *accounted*: they
//! take the calling block's [`launch::BlockCtx`](crate::launch::BlockCtx) and
//! charge element counts and effective traffic bytes to its counters.
//!
//! Accounting distinguishes the two patterns that matter for the paper:
//!
//! * **coalesced** — a warp touches consecutive addresses; each element
//!   costs its own width in traffic.
//! * **strided** — a warp walks a column of a row-major matrix; each
//!   element drags a wider slice of its DRAM sector through the bus
//!   ([`DeviceConfig::strided_bytes_per_elem`](crate::device::DeviceConfig::strided_bytes_per_elem)).
//!
//! Host-side accessors (`host_*`, [`GlobalBuffer::to_vec`]) are free: they
//! model `cudaMemcpy` of inputs/outputs, which the paper excludes from all
//! timings.
//!
//! ## Host memory path
//!
//! How a bulk accessor moves its data on the host is invisible to the
//! counters, so it follows the host's memory system: a stride-1 column
//! moves as one slice copy, and a strided 2-D window first prefetches every
//! cache line it covers into L2 and then copies its rows. Tiles are handed
//! out in diagonal-major order, so consecutive tiles share no cache line
//! and no hardware-prefetch stream; without the prefetch each tile row is a
//! fresh miss.

use crate::elem::{AtomBacking, DeviceElem};
use crate::launch::BlockCtx;
use std::sync::atomic::{AtomicBool, Ordering};

/// When set, every bulk global-memory operation executes its *scalar
/// expansion* — the per-element accessor calls it is documented to be
/// equivalent to — instead of the batched fast path. Data movement and
/// charged counters must come out identical either way; the counter-parity
/// test flips this switch to prove it. Process-global because it is a test
/// instrument, not a tuning knob.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force (or stop forcing) the scalar expansion of every bulk operation.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// Whether bulk operations are currently forced onto their scalar paths.
#[inline(always)]
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Ask the kernel to back a large allocation with transparent huge pages.
///
/// Multi-gigabyte simulated device buffers are walked tile by tile with a
/// 64 KiB stride between consecutive rows, so with 4 KiB pages every row of
/// every tile touches a fresh TLB entry. `MADV_HUGEPAGE` (the default THP
/// policy on most hosts is `madvise`) cuts that walk by 512x. The advice is
/// issued before first touch so the pages fault in huge; failures (other
/// platforms, tiny mappings, THP disabled) are silently ignored — this is
/// purely a performance hint and never affects results or counters.
fn advise_huge_pages(ptr: *const u8, bytes: usize) {
    #[cfg(target_os = "linux")]
    {
        const HUGE_PAGE: usize = 2 * 1024 * 1024;
        const MADV_HUGEPAGE: i32 = 14;
        extern "C" {
            fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        if bytes < 2 * HUGE_PAGE {
            return;
        }
        let lo = (ptr as usize + HUGE_PAGE - 1) & !(HUGE_PAGE - 1);
        let hi = (ptr as usize + bytes) & !(HUGE_PAGE - 1);
        if hi > lo {
            // SAFETY: [lo, hi) is a page-aligned subrange of the live
            // allocation [ptr, ptr + bytes); MADV_HUGEPAGE does not alter
            // the mapping's contents or validity.
            unsafe {
                madvise(lo as *mut core::ffi::c_void, hi - lo, MADV_HUGEPAGE);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (ptr, bytes);
}

/// Host cache-line size, the step of [`GlobalBuffer::prefetch_window`].
const LINE: usize = 64;

/// A typed allocation in simulated device global memory.
pub struct GlobalBuffer<T: DeviceElem> {
    data: Box<[T::Atom]>,
    len: usize,
}

impl<T: DeviceElem> GlobalBuffer<T> {
    /// Allocate `len` elements, zero-initialized (as `cudaMemset(0)`).
    pub fn zeroed(len: usize) -> Self {
        let mut v = Vec::with_capacity(len);
        advise_huge_pages(v.as_ptr() as *const u8, len * std::mem::size_of::<T::Atom>());
        v.resize_with(len, T::Atom::default);
        let buf = GlobalBuffer { data: v.into_boxed_slice(), len };
        // `T::Atom::default()` is the zero bit pattern, which is `T::zero()`
        // for every supported element type; make that explicit anyway.
        debug_assert!(len == 0 || buf.host_read(0) == T::zero());
        buf
    }

    /// Allocate and fill from host data (models host-to-device copy).
    pub fn from_slice(src: &[T]) -> Self {
        let buf = Self::zeroed(src.len());
        T::store_slice(&buf.data, src);
        buf
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Host-side read (not accounted).
    #[inline]
    pub fn host_read(&self, i: usize) -> T {
        T::from_bits(self.data[i].load_bits())
    }

    /// Host-side write (not accounted).
    #[inline]
    pub fn host_write(&self, i: usize, v: T) {
        self.data[i].store_bits(v.to_bits());
    }

    /// Copy the whole buffer back to the host (models device-to-host copy).
    pub fn to_vec(&self) -> Vec<T> {
        let mut v = vec![T::zero(); self.len];
        T::load_slice(&self.data, &mut v);
        v
    }

    /// Host-side bulk fill.
    pub fn host_fill(&self, v: T) {
        T::fill_slice(&self.data, v);
    }

    // ------------------------------------------------------------------
    // Device-side, accounted accessors.
    // ------------------------------------------------------------------

    /// Read one element as part of a coalesced warp access.
    #[inline]
    pub fn read(&self, ctx: &mut BlockCtx, i: usize) -> T {
        ctx.stats.charge_global_read(1, T::BYTES);
        T::from_bits(self.data[i].load_bits())
    }

    /// Write one element as part of a coalesced warp access.
    #[inline]
    pub fn write(&self, ctx: &mut BlockCtx, i: usize, v: T) {
        ctx.stats.charge_global_write(1, T::BYTES);
        self.data[i].store_bits(v.to_bits());
    }

    /// Read one element as part of a strided warp access (column walk of a
    /// row-major matrix).
    #[inline]
    pub fn read_strided(&self, ctx: &mut BlockCtx, i: usize) -> T {
        ctx.stats.charge_strided_read(1, ctx.strided_bytes(T::BYTES));
        T::from_bits(self.data[i].load_bits())
    }

    /// Write one element as part of a strided warp access.
    #[inline]
    pub fn write_strided(&self, ctx: &mut BlockCtx, i: usize, v: T) {
        ctx.stats.charge_strided_write(1, ctx.strided_bytes(T::BYTES));
        self.data[i].store_bits(v.to_bits());
    }

    /// Coalesced bulk read of `dst.len()` consecutive elements starting at
    /// `offset`. Charges counters once per call; the data moves through
    /// [`DeviceElem::load_slice`], a `memcpy` for the built-in element
    /// types (see the data-race contract in [`crate::elem`]).
    pub fn load_row(&self, ctx: &mut BlockCtx, offset: usize, dst: &mut [T]) {
        if force_scalar() {
            for (k, d) in dst.iter_mut().enumerate() {
                *d = self.read(ctx, offset + k);
            }
            return;
        }
        let n = dst.len() as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        T::load_slice(&self.data[offset..offset + dst.len()], dst);
    }

    /// [`GlobalBuffer::load_row`] that adds the `dst.len()` consecutive
    /// elements starting at `offset` into `dst` instead of overwriting it:
    /// the same charge, and no staging buffer.
    pub(crate) fn add_row_into(&self, ctx: &mut BlockCtx, offset: usize, dst: &mut [T]) {
        if force_scalar() {
            for (k, d) in dst.iter_mut().enumerate() {
                *d = d.add(self.read(ctx, offset + k));
            }
            return;
        }
        let n = dst.len() as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        self.add_row_raw(offset, dst);
    }

    /// [`GlobalBuffer::add_row_into`] with no accounting, for a caller
    /// that has charged the read otherwise or not at all.
    #[inline]
    pub(crate) fn add_row_raw(&self, offset: usize, dst: &mut [T]) {
        let src = &self.data[offset..offset + dst.len()];
        for (d, a) in dst.iter_mut().zip(src) {
            *d = d.add(T::from_bits(a.load_bits()));
        }
    }

    /// Physical write of consecutive elements with no accounting. The
    /// caller must already have charged the equivalent bulk store;
    /// crate-internal building block for fused compute+store paths.
    #[inline]
    pub(crate) fn store_row_raw(&self, offset: usize, src: &[T]) {
        T::store_slice(&self.data[offset..offset + src.len()], src);
    }

    /// Coalesced bulk write of consecutive elements starting at `offset`.
    pub fn store_row(&self, ctx: &mut BlockCtx, offset: usize, src: &[T]) {
        if force_scalar() {
            for (k, &v) in src.iter().enumerate() {
                self.write(ctx, offset + k, v);
            }
            return;
        }
        let n = src.len() as u64;
        ctx.stats.charge_global_write(n, n * T::BYTES);
        T::store_slice(&self.data[offset..offset + src.len()], src);
    }

    /// Strided bulk read: `dst.len()` elements at `start`, `start+stride`,
    /// `start+2*stride`, ... (a `stride` of 0 reads as 1). With a stride of
    /// 1 the elements are contiguous in memory and move as one slice copy,
    /// under the data-race contract of [`DeviceElem::load_slice`]; the
    /// charge is the strided one either way.
    pub fn load_col(&self, ctx: &mut BlockCtx, start: usize, stride: usize, dst: &mut [T]) {
        if force_scalar() {
            for (k, d) in dst.iter_mut().enumerate() {
                *d = self.read_strided(ctx, start + k * stride.max(1));
            }
            return;
        }
        let n = dst.len() as u64;
        ctx.stats.charge_strided_read(n, n * ctx.strided_bytes(T::BYTES));
        if dst.is_empty() {
            return;
        }
        if stride <= 1 {
            T::load_slice(&self.data[start..start + dst.len()], dst);
            return;
        }
        let src = &self.data[start..=start + (dst.len() - 1) * stride];
        for (d, a) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = T::from_bits(a.load_bits());
        }
    }

    /// Strided bulk write, the mirror of [`GlobalBuffer::load_col`].
    pub fn store_col(&self, ctx: &mut BlockCtx, start: usize, stride: usize, src: &[T]) {
        if force_scalar() {
            for (k, &v) in src.iter().enumerate() {
                self.write_strided(ctx, start + k * stride.max(1), v);
            }
            return;
        }
        let n = src.len() as u64;
        ctx.stats.charge_strided_write(n, n * ctx.strided_bytes(T::BYTES));
        if src.is_empty() {
            return;
        }
        if stride <= 1 {
            T::store_slice(&self.data[start..start + src.len()], src);
            return;
        }
        let dst = &self.data[start..=start + (src.len() - 1) * stride];
        for (a, &v) in dst.iter().step_by(stride).zip(src) {
            a.store_bits(v.to_bits());
        }
    }

    /// Coalesced 2-D bulk read: `rows` rows of `row_len` consecutive
    /// elements, starting `stride` apart, packed row-major into `dst`
    /// (`dst.len()` must equal `rows * row_len`). Accounting is exactly
    /// `rows` [`GlobalBuffer::load_row`] calls charged in one bump. A
    /// strided window has its cache lines prefetched before its rows are
    /// copied.
    pub fn load_2d(&self, ctx: &mut BlockCtx, offset: usize, stride: usize, row_len: usize, dst: &mut [T]) {
        let w = row_len.max(1);
        assert_eq!(dst.len() % w, 0, "dst must hold whole rows");
        if force_scalar() {
            for (r, chunk) in dst.chunks_exact_mut(w).enumerate() {
                for (k, d) in chunk.iter_mut().enumerate() {
                    *d = self.read(ctx, offset + r * stride + k);
                }
            }
            return;
        }
        let n = dst.len() as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        self.prefetch_window(offset, stride, w, dst.len() / w);
        for (r, chunk) in dst.chunks_exact_mut(w).enumerate() {
            let base = offset + r * stride;
            T::load_slice(&self.data[base..base + chunk.len()], chunk);
        }
    }

    /// Coalesced 2-D bulk write, the mirror of [`GlobalBuffer::load_2d`].
    pub fn store_2d(&self, ctx: &mut BlockCtx, offset: usize, stride: usize, row_len: usize, src: &[T]) {
        let w = row_len.max(1);
        assert_eq!(src.len() % w, 0, "src must hold whole rows");
        if force_scalar() {
            for (r, chunk) in src.chunks_exact(w).enumerate() {
                for (k, &v) in chunk.iter().enumerate() {
                    self.write(ctx, offset + r * stride + k, v);
                }
            }
            return;
        }
        let n = src.len() as u64;
        ctx.stats.charge_global_write(n, n * T::BYTES);
        self.prefetch_window(offset, stride, w, src.len() / w);
        for (r, chunk) in src.chunks_exact(w).enumerate() {
            let base = offset + r * stride;
            T::store_slice(&self.data[base..base + chunk.len()], chunk);
        }
    }

    /// Ask the host to pull every cache line of a 2-D window into its L2
    /// cache: `rows` rows of `row_len` elements, `stride` apart, from
    /// `offset`. Strided copies call it before moving their rows, so the
    /// misses of a whole tile overlap instead of stalling row by row. The
    /// hint targets L2, not L1: rows a multiple of 4 KB apart share one
    /// pair of L1 sets, so a tile's 64 lines would evict each other there
    /// before the copy reads them. A contiguous window
    /// (`stride == row_len`) is one sequential run, which the hardware
    /// prefetcher follows, so it gets no hints. A hint only: it moves no
    /// data and charges nothing.
    pub(crate) fn prefetch_window(&self, offset: usize, stride: usize, row_len: usize, rows: usize) {
        if rows == 0 || stride == row_len {
            return;
        }
        let end = offset + (rows - 1) * stride + row_len;
        assert!(end <= self.len, "window [{offset}, {end}) overruns a buffer of {} elements", self.len);
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
            let row_bytes = row_len * std::mem::size_of::<T::Atom>();
            for r in 0..rows {
                let row = self.data.as_ptr().wrapping_add(offset + r * stride) as *const i8;
                // Walk from the start of the line holding the row's first
                // byte, so a row that starts mid-line gets its last line
                // hinted too.
                let lead = row as usize % LINE;
                for k in (0..lead + row_bytes).step_by(LINE) {
                    // SAFETY: a prefetch never faults, reads nothing into
                    // the program and changes no memory, so any address is
                    // sound to hint. The wrapping arithmetic keeps the
                    // pointer derived from the buffer without claiming it
                    // stays inside it (a row's first line may begin before
                    // the buffer does).
                    unsafe { _mm_prefetch::<_MM_HINT_T1>(row.wrapping_sub(lead).wrapping_add(k)) };
                }
            }
        }
    }

    /// Accounted device-side `memset`: fill `len` elements starting at
    /// `offset` with `v`. Charges exactly like a `store_row` of `len`
    /// elements (each thread writes one coalesced element).
    pub fn fill(&self, ctx: &mut BlockCtx, offset: usize, len: usize, v: T) {
        if force_scalar() {
            for k in 0..len {
                self.write(ctx, offset + k, v);
            }
            return;
        }
        ctx.stats.charge_global_write(len as u64, len as u64 * T::BYTES);
        T::fill_slice(&self.data[offset..offset + len], v);
    }

    /// Accounted device-side copy between buffers: `len` elements from
    /// `src` starting at `src_offset` into `self` at `dst_offset`. Charges
    /// `len` coalesced reads plus `len` coalesced writes — bit-identical to
    /// a `load_row`/`store_row` pair — but moves raw bits without staging
    /// through a host-side `T` buffer.
    pub fn copy_from(
        &self,
        ctx: &mut BlockCtx,
        dst_offset: usize,
        src: &GlobalBuffer<T>,
        src_offset: usize,
        len: usize,
    ) {
        if force_scalar() {
            for k in 0..len {
                let v = src.read(ctx, src_offset + k);
                self.write(ctx, dst_offset + k, v);
            }
            return;
        }
        let n = len as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        ctx.stats.charge_global_write(n, n * T::BYTES);
        T::copy_slice(&self.data[dst_offset..dst_offset + len], &src.data[src_offset..src_offset + len]);
    }

    /// Accounted in-buffer copy (`cudaMemcpyDeviceToDevice` within one
    /// allocation). Source and destination ranges must not overlap — the
    /// simulated warp order of an overlapping device copy is undefined, so
    /// it is rejected instead of silently corrupting.
    pub fn copy_within(&self, ctx: &mut BlockCtx, src_offset: usize, dst_offset: usize, len: usize) {
        assert!(
            src_offset + len <= dst_offset || dst_offset + len <= src_offset || len == 0,
            "copy_within ranges [{src_offset}, +{len}) and [{dst_offset}, +{len}) overlap"
        );
        if force_scalar() {
            for k in 0..len {
                let v = self.read(ctx, src_offset + k);
                self.write(ctx, dst_offset + k, v);
            }
            return;
        }
        let n = len as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        ctx.stats.charge_global_write(n, n * T::BYTES);
        T::copy_slice(&self.data[dst_offset..dst_offset + len], &self.data[src_offset..src_offset + len]);
    }

    /// Device `atomicAdd`: atomically add `v` to element `i`, returning the
    /// previous value. Implemented as a CAS loop over the bit pattern, like
    /// CUDA's software atomics for types without hardware support.
    pub fn atomic_add(&self, ctx: &mut BlockCtx, i: usize, v: T) -> T {
        ctx.stats.atomic_ops += 1;
        let slot = &self.data[i];
        let mut cur = slot.load_bits();
        loop {
            let old = T::from_bits(cur);
            let new = old.add(v).to_bits();
            match slot.compare_exchange_bits(cur, new) {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<T: DeviceElem> std::fmt::Debug for GlobalBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalBuffer<{}>[{}]", std::any::type_name::<T>(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::elem::CountOnly;
    use crate::launch::{ExecMode, Gpu, LaunchConfig};
    use crate::metrics::BlockStats;
    use crate::shared::{Arrangement, SharedTile};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential)
    }

    #[test]
    fn zeroed_and_host_roundtrip() {
        let b = GlobalBuffer::<u32>::zeroed(16);
        assert_eq!(b.len(), 16);
        assert_eq!(b.host_read(7), 0);
        b.host_write(7, 99);
        assert_eq!(b.host_read(7), 99);
    }

    #[test]
    fn from_slice_to_vec_roundtrip() {
        let src = vec![1.5f32, -2.0, 0.0, 7.25];
        let b = GlobalBuffer::from_slice(&src);
        assert_eq!(b.to_vec(), src);
    }

    #[test]
    fn device_reads_are_counted() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&[10u32, 20, 30, 40]);
        let m = g.launch(LaunchConfig::new("t", 1, 32), |ctx| {
            let v = b.read(ctx, 2);
            assert_eq!(v, 30);
            b.write(ctx, 0, v + 1);
        });
        assert_eq!(m.stats.global_reads, 1);
        assert_eq!(m.stats.global_writes, 1);
        assert_eq!(m.stats.bytes_read, 4);
        assert_eq!(m.stats.bytes_written, 4);
        assert_eq!(b.host_read(0), 31);
    }

    #[test]
    fn strided_access_charges_more_bytes() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(64);
        let m = g.launch(LaunchConfig::new("t", 1, 32), |ctx| {
            let mut dst = vec![0u32; 8];
            b.load_col(ctx, 0, 8, &mut dst);
            b.store_col(ctx, 1, 8, &dst);
        });
        assert_eq!(m.stats.global_reads, 8);
        assert_eq!(m.stats.strided_reads, 8);
        let strided = DeviceConfig::tiny().strided_bytes_per_elem as u64;
        assert_eq!(m.stats.bytes_read, 8 * strided);
        assert_eq!(m.stats.bytes_written, 8 * strided);
    }

    #[test]
    fn bulk_row_ops_move_data() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&(0..32u32).collect::<Vec<_>>());
        let out = GlobalBuffer::<u32>::zeroed(32);
        g.launch(LaunchConfig::new("copy", 1, 32), |ctx| {
            let mut tmp = vec![0u32; 32];
            b.load_row(ctx, 0, &mut tmp);
            out.store_row(ctx, 0, &tmp);
        });
        assert_eq!(out.to_vec(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn fill_charges_like_store_row() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(64);
        let m = g.launch(LaunchConfig::new("fill", 1, 32), |ctx| {
            b.fill(ctx, 8, 16, 7);
        });
        assert_eq!(m.stats.global_writes, 16);
        assert_eq!(m.stats.bytes_written, 16 * 4);
        assert_eq!(m.stats.global_reads, 0);
        let v = b.to_vec();
        assert!(v[..8].iter().all(|&x| x == 0));
        assert!(v[8..24].iter().all(|&x| x == 7));
        assert!(v[24..].iter().all(|&x| x == 0));
    }

    #[test]
    fn copy_from_charges_one_read_one_write_per_element() {
        let g = gpu();
        let src = GlobalBuffer::from_slice(&(0..32u64).collect::<Vec<_>>());
        let dst = GlobalBuffer::<u64>::zeroed(32);
        let m = g.launch(LaunchConfig::new("copy", 1, 32), |ctx| {
            dst.copy_from(ctx, 4, &src, 0, 20);
        });
        assert_eq!(m.stats.global_reads, 20);
        assert_eq!(m.stats.global_writes, 20);
        assert_eq!(m.stats.bytes_read, 20 * 8);
        assert_eq!(m.stats.bytes_written, 20 * 8);
        assert_eq!(dst.to_vec()[4..24], (0..20u64).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn copy_within_moves_disjoint_ranges() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&(0..16u32).collect::<Vec<_>>());
        let m = g.launch(LaunchConfig::new("cw", 1, 32), |ctx| {
            b.copy_within(ctx, 0, 8, 8);
        });
        assert_eq!(m.stats.global_reads, 8);
        assert_eq!(m.stats.global_writes, 8);
        assert_eq!(b.to_vec(), vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn copy_within_rejects_overlap() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(16);
        g.launch(LaunchConfig::new("cw", 1, 32), |ctx| {
            b.copy_within(ctx, 0, 4, 8);
        });
    }

    #[test]
    fn tile_2d_ops_match_per_row_accounting() {
        let g = gpu();
        // An 8x8 matrix; read a 3x4 tile at (2, 1), write it back at (5, 4).
        let b = GlobalBuffer::from_slice(&(0..64u32).collect::<Vec<_>>());
        let m = g.launch(LaunchConfig::new("2d", 1, 32), |ctx| {
            let mut tile = vec![0u32; 12];
            b.load_2d(ctx, 2 * 8 + 1, 8, 4, &mut tile);
            assert_eq!(tile, vec![17, 18, 19, 20, 25, 26, 27, 28, 33, 34, 35, 36]);
            b.store_2d(ctx, 5 * 8 + 4, 8, 4, &tile);
        });
        // Same counters as 3 load_row + 3 store_row calls of width 4.
        assert_eq!(m.stats.global_reads, 12);
        assert_eq!(m.stats.global_writes, 12);
        assert_eq!(m.stats.bytes_read, 12 * 4);
        assert_eq!(m.stats.bytes_written, 12 * 4);
        assert_eq!(b.host_read(5 * 8 + 4), 17);
        assert_eq!(b.host_read(7 * 8 + 7), 36);
    }

    #[test]
    fn force_scalar_bulk_ops_charge_identically() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&(0..256u32).collect::<Vec<_>>());
        let dst = GlobalBuffer::<u32>::zeroed(256);
        let body = |ctx: &mut BlockCtx| {
            let mut row = vec![0u32; 24];
            b.load_row(ctx, 3, &mut row);
            dst.store_row(ctx, 10, &row);
            let mut col = vec![0u32; 7];
            b.load_col(ctx, 2, 16, &mut col);
            dst.store_col(ctx, 4, 16, &col);
            let mut tile = vec![0u32; 12];
            b.load_2d(ctx, 17, 16, 4, &mut tile);
            dst.store_2d(ctx, 33, 16, 4, &tile);
            dst.fill(ctx, 100, 9, 7);
            dst.copy_from(ctx, 120, &b, 60, 11);
            dst.copy_within(ctx, 120, 140, 11);
            // A strided window whose last row ends at the buffer's last
            // element: the prefetch's bound.
            b.load_2d(ctx, 256 - 2 * 16 - 4, 16, 4, &mut tile);
            dst.store_2d(ctx, 256 - 5 * 16 - 2, 16, 2, &tile);
            // A contiguous window (`stride == row_len`), which gets no hints.
            let mut block = vec![0u32; 24];
            b.load_2d(ctx, 160, 8, 8, &mut block);
            dst.store_2d(ctx, 200, 8, 8, &block);
            // A stride-1 column pair: one slice copy, charged as strided.
            b.load_col(ctx, 5, 1, &mut row);
            dst.store_col(ctx, 60, 1, &row);
        };
        let batched = g.launch(LaunchConfig::new("bulk", 1, 32), body);
        let snapshot = dst.to_vec();
        dst.host_fill(0);
        set_force_scalar(true);
        let scalar = g.launch(LaunchConfig::new("scalar", 1, 32), body);
        set_force_scalar(false);
        assert_eq!(batched.stats.deterministic(), scalar.stats.deterministic());
        assert_eq!(dst.to_vec(), snapshot);
    }

    /// Coalesced, strided, 2-D window, fill and shared-tile accesses charge
    /// the same on the counting element as on `f32`, on the batched paths
    /// and on their scalar expansions.
    #[test]
    fn counting_element_charges_like_f32() {
        fn stats<T: DeviceElem>() -> BlockStats {
            let n = 32;
            let src = GlobalBuffer::from_slice(&(0..(n * n) as u32).map(T::from_u32).collect::<Vec<_>>());
            let dst = GlobalBuffer::<T>::zeroed(n * n);
            let m = gpu().launch(LaunchConfig::new("mix", 1, 32), |ctx| {
                let mut line = vec![T::zero(); n];
                src.load_row(ctx, 5, &mut line);
                dst.store_row(ctx, 40, &line);
                src.load_col(ctx, 3, n, &mut line);
                dst.store_col(ctx, 7, n, &line);
                let mut window = vec![T::zero(); 8 * 8];
                src.load_2d(ctx, 2 * n + 8, n, 8, &mut window);
                dst.store_2d(ctx, 9 * n + 16, n, 8, &window);
                dst.fill(ctx, 20 * n, n, T::zero());
                let mut tile = SharedTile::<T>::alloc(ctx, 8, Arrangement::RowMajor);
                tile.load_from_global(ctx, &src, 8 * n + 8, n);
                tile.scan_rows(ctx);
                tile.sat_store_to_global(ctx, &dst, 24 * n, n);
            });
            m.stats
        }
        for scalar in [false, true] {
            set_force_scalar(scalar);
            let (counted, float) = (stats::<CountOnly>(), stats::<f32>());
            set_force_scalar(false);
            assert_eq!(counted, float, "force_scalar = {scalar}");
        }
    }

    #[test]
    fn counting_element_buffers_hold_no_bytes() {
        let b = GlobalBuffer::<CountOnly>::zeroed(1 << 24);
        assert_eq!(b.len(), 1 << 24);
        assert_eq!(std::mem::size_of_val(&*b.data), 0);
    }

    #[test]
    fn atomic_add_returns_previous() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(1);
        let m = g.launch(LaunchConfig::new("atomics", 4, 32), |ctx| {
            let prev = b.atomic_add(ctx, 0, 10);
            assert!(prev.is_multiple_of(10));
        });
        assert_eq!(b.host_read(0), 40);
        assert_eq!(m.stats.atomic_ops, 4);
    }

    #[test]
    fn atomic_add_f32() {
        let g = gpu();
        let b = GlobalBuffer::<f32>::zeroed(1);
        g.launch(LaunchConfig::new("atomics", 8, 32), |ctx| {
            b.atomic_add(ctx, 0, 0.5f32);
        });
        assert_eq!(b.host_read(0), 4.0);
    }

    #[test]
    fn host_fill() {
        let b = GlobalBuffer::<i64>::zeroed(10);
        b.host_fill(-3);
        assert!(b.to_vec().iter().all(|&v| v == -3));
    }
}
