//! Scalar element types storable in simulated device memory.
//!
//! Global memory must be readable and writable concurrently by blocks
//! running on different OS threads. To keep every access well-defined even
//! for (buggy) racy programs, each element is backed by an atomic word of
//! exactly the element's width, accessed with `Relaxed` ordering. On x86-64
//! a relaxed atomic load/store compiles to a plain `mov`, so this costs
//! nothing over raw storage. Cross-block *synchronization* never relies on
//! these relaxed accesses: it always goes through [`crate::sync`]'s
//! acquire/release status flags, exactly like a CUDA kernel publishing data
//! through a flag in global memory.
//!
//! ## Bulk transfers
//!
//! Per-element atomic accesses have one real cost: LLVM must not coalesce
//! or vectorize atomic operations, so a loop of relaxed loads runs one
//! element per instruction while the equivalent `memcpy` moves a cache
//! line per instruction. The bulk slice helpers on [`DeviceElem`]
//! (`load_slice`/`store_slice`/`copy_slice`/`fill_slice`) therefore move
//! whole ranges with plain (non-atomic) loads and stores, which the
//! built-in element types implement as `memcpy`/`memset`.
//!
//! **Data-race contract:** a bulk transfer is a plain access, so the range
//! it touches must be data-race-free for the duration of the call. Every
//! caller inside the simulator satisfies this the same way a correct CUDA
//! kernel does: a block only bulk-accesses ranges it owns for the current
//! kernel, or ranges whose publication it observed through an
//! acquire/release status flag ([`crate::sync::StatusBoard`]), which
//! establishes the happens-before edge that makes the plain access
//! race-free. Racy *scalar* accesses remain well-defined (they stay
//! atomic); only the bulk paths assume the soft-sync discipline.
//!
//! ## The counting element
//!
//! [`CountOnly`] is zero-sized and holds no value, but the traffic model
//! charges it as a 4-byte `float`. A kernel run on it executes its own
//! control flow and charges what an `f32` run of the same shape charges,
//! with no data behind it, so a 32K x 32K matrix of it occupies no memory.
//! Its SATs mean nothing. This holds only because no kernel charges by
//! value: counters are a function of shape alone, which
//! `tests/counter_parity.rs` pins for every algorithm.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// An atomic word that can back a device scalar.
///
/// Implemented for [`AtomicU32`] and [`AtomicU64`], and for the zero-sized
/// `()` behind [`CountOnly`]; selected per element type through
/// [`DeviceElem::Atom`] so that 4-byte elements occupy 4 bytes of host
/// memory (a 32K x 32K `f32` matrix is 4 GiB, not 8).
pub trait AtomBacking: Default + Send + Sync + 'static {
    /// The plain integer carrying the element's bit pattern.
    type Bits: Copy + Eq + Send + Sync + 'static;

    /// Relaxed load of the bit pattern.
    fn load_bits(&self) -> Self::Bits;
    /// Relaxed store of the bit pattern.
    fn store_bits(&self, bits: Self::Bits);
    /// Compare-exchange used to implement device `atomicAdd` generically
    /// (CAS loop over the bit pattern, as CUDA does for `double` on older
    /// architectures).
    fn compare_exchange_bits(&self, current: Self::Bits, new: Self::Bits) -> Result<Self::Bits, Self::Bits>;
}

impl AtomBacking for AtomicU32 {
    type Bits = u32;

    #[inline(always)]
    fn load_bits(&self) -> u32 {
        self.load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn store_bits(&self, bits: u32) {
        self.store(bits, Ordering::Relaxed);
    }

    #[inline(always)]
    fn compare_exchange_bits(&self, current: u32, new: u32) -> Result<u32, u32> {
        self.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed)
    }
}

impl AtomBacking for AtomicU64 {
    type Bits = u64;

    #[inline(always)]
    fn load_bits(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn store_bits(&self, bits: u64) {
        self.store(bits, Ordering::Relaxed);
    }

    #[inline(always)]
    fn compare_exchange_bits(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed)
    }
}

/// The zero-sized word behind [`CountOnly`]: nothing to load or store.
impl AtomBacking for () {
    type Bits = ();

    #[inline(always)]
    fn load_bits(&self) {}

    #[inline(always)]
    fn store_bits(&self, _bits: ()) {}

    #[inline(always)]
    fn compare_exchange_bits(&self, _current: (), _new: ()) -> Result<(), ()> {
        Ok(())
    }
}

/// A scalar that can live in simulated device memory and be summed.
///
/// This is the arithmetic the SAT algorithms need: addition (prefix sums),
/// subtraction (deriving `GRS`/`GCS` from a `GSAT` border and answering
/// rectangle queries), and a zero. The paper uses 4-byte `float`; we are
/// generic so exactness tests can run on integers where addition is
/// associative.
pub trait DeviceElem: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Atomic backing word of the same width as the element.
    type Atom: AtomBacking;

    /// Element size in bytes as seen by the memory-traffic model.
    const BYTES: u64;

    /// Convert to the raw bit pattern stored in device memory.
    fn to_bits(self) -> <Self::Atom as AtomBacking>::Bits;
    /// Convert back from the raw bit pattern.
    fn from_bits(bits: <Self::Atom as AtomBacking>::Bits) -> Self;

    /// The additive identity.
    fn zero() -> Self;
    /// Device addition (what `+` and `atomicAdd` compute).
    fn add(self, rhs: Self) -> Self;
    /// Device subtraction, the inverse of [`DeviceElem::add`].
    fn sub(self, rhs: Self) -> Self;

    /// Lossy conversion from a small integer, used by workload generators
    /// and closed-form test oracles.
    fn from_u32(v: u32) -> Self;

    /// Bulk load: `dst[k] = from_bits(src[k].load_bits())` for the whole
    /// range. Callers must guarantee the source range is data-race-free
    /// for the duration of the call (see the module docs); implementations
    /// may then use plain loads instead of atomics.
    fn load_slice(src: &[Self::Atom], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "bulk load length mismatch");
        for (d, a) in dst.iter_mut().zip(src) {
            *d = Self::from_bits(a.load_bits());
        }
    }

    /// Bulk store: `dst[k].store_bits(src[k].to_bits())` for the whole
    /// range, under the same data-race-freedom contract as
    /// [`DeviceElem::load_slice`].
    fn store_slice(dst: &[Self::Atom], src: &[Self]) {
        assert_eq!(dst.len(), src.len(), "bulk store length mismatch");
        for (a, s) in dst.iter().zip(src) {
            a.store_bits(s.to_bits());
        }
    }

    /// Bulk device-to-device copy of whole ranges (may overlap), under the
    /// data-race-freedom contract of [`DeviceElem::load_slice`].
    fn copy_slice(dst: &[Self::Atom], src: &[Self::Atom]) {
        assert_eq!(dst.len(), src.len(), "bulk copy length mismatch");
        for (d, s) in dst.iter().zip(src) {
            d.store_bits(s.load_bits());
        }
    }

    /// Bulk fill of a range with one value, under the data-race-freedom
    /// contract of [`DeviceElem::load_slice`].
    fn fill_slice(dst: &[Self::Atom], v: Self) {
        for a in dst {
            a.store_bits(v.to_bits());
        }
    }
}

/// Overrides the bulk slice helpers with `memcpy`/`memset`-style plain
/// accesses for element types whose `to_bits`/`from_bits` are bit-pattern
/// reinterpretations of an atomic word of identical size (all built-in
/// impls). Writing through a shared reference is sound because the atomic
/// words have interior mutability; race freedom is the caller's contract.
macro_rules! impl_bulk_bitcopy {
    () => {
        #[inline]
        fn load_slice(src: &[Self::Atom], dst: &mut [Self]) {
            assert_eq!(src.len(), dst.len(), "bulk load length mismatch");
            // SAFETY: `Self::Atom` is `AtomicU32`/`AtomicU64`, which std
            // documents as having the same in-memory representation as the
            // underlying integer, and `from_bits` reinterprets that bit
            // pattern into `Self` of the same size. The destination is a
            // fresh `&mut` slice, so the ranges cannot overlap. Race
            // freedom of the source range is the caller's contract.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr() as *const Self, dst.as_mut_ptr(), dst.len());
            }
        }

        #[inline]
        fn store_slice(dst: &[Self::Atom], src: &[Self]) {
            assert_eq!(dst.len(), src.len(), "bulk store length mismatch");
            // SAFETY: as in `load_slice`; the atomic words' interior
            // mutability permits writing through the shared reference, and
            // `&[Self]` cannot alias device memory.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), dst.as_ptr() as *const Self as *mut Self, src.len());
            }
        }

        #[inline]
        fn copy_slice(dst: &[Self::Atom], src: &[Self::Atom]) {
            assert_eq!(dst.len(), src.len(), "bulk copy length mismatch");
            // SAFETY: as in `store_slice`; `copy` (memmove) keeps the
            // element-wise result well-defined even for overlapping ranges.
            unsafe {
                std::ptr::copy(src.as_ptr() as *const Self, dst.as_ptr() as *const Self as *mut Self, dst.len());
            }
        }

        #[inline]
        fn fill_slice(dst: &[Self::Atom], v: Self) {
            // SAFETY: as in `store_slice`.
            unsafe {
                std::slice::from_raw_parts_mut(dst.as_ptr() as *const Self as *mut Self, dst.len()).fill(v);
            }
        }
    };
}

macro_rules! impl_device_elem {
    ($ty:ty, $atom:ty, $bytes:expr, $to:expr, $from:expr) => {
        impl DeviceElem for $ty {
            type Atom = $atom;
            const BYTES: u64 = $bytes;

            #[inline(always)]
            fn to_bits(self) -> <$atom as AtomBacking>::Bits {
                ($to)(self)
            }

            #[inline(always)]
            fn from_bits(bits: <$atom as AtomBacking>::Bits) -> Self {
                ($from)(bits)
            }

            #[inline(always)]
            fn zero() -> Self {
                0 as $ty
            }

            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }

            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }

            #[inline(always)]
            fn from_u32(v: u32) -> Self {
                v as $ty
            }

            impl_bulk_bitcopy!();
        }
    };
}

impl_device_elem!(u32, AtomicU32, 4, |v: u32| v, |b: u32| b);
impl_device_elem!(i32, AtomicU32, 4, |v: i32| v as u32, |b: u32| b as i32);
impl_device_elem!(u64, AtomicU64, 8, |v: u64| v, |b: u64| b);
impl_device_elem!(i64, AtomicU64, 8, |v: i64| v as u64, |b: u64| b as i64);

impl DeviceElem for f32 {
    type Atom = AtomicU32;
    const BYTES: u64 = 4;

    #[inline(always)]
    fn to_bits(self) -> u32 {
        self.to_bits()
    }

    #[inline(always)]
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }

    #[inline(always)]
    fn zero() -> Self {
        0.0
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }

    #[inline(always)]
    fn from_u32(v: u32) -> Self {
        v as f32
    }

    impl_bulk_bitcopy!();
}

impl DeviceElem for f64 {
    type Atom = AtomicU64;
    const BYTES: u64 = 8;

    #[inline(always)]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }

    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }

    #[inline(always)]
    fn zero() -> Self {
        0.0
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }

    #[inline(always)]
    fn from_u32(v: u32) -> Self {
        v as f64
    }

    impl_bulk_bitcopy!();
}

/// The counting-only element (see the module docs): zero-sized, charged as
/// a 4-byte `float`. Its loads, stores and bulk transfers move nothing,
/// and its arithmetic has one result, so any SAT computed on it means
/// nothing; only the counters of the run do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountOnly;

impl DeviceElem for CountOnly {
    type Atom = ();
    const BYTES: u64 = 4;

    #[inline(always)]
    fn to_bits(self) {}

    #[inline(always)]
    fn from_bits(_bits: ()) -> Self {
        CountOnly
    }

    #[inline(always)]
    fn zero() -> Self {
        CountOnly
    }

    #[inline(always)]
    fn add(self, _rhs: Self) -> Self {
        CountOnly
    }

    #[inline(always)]
    fn sub(self, _rhs: Self) -> Self {
        CountOnly
    }

    #[inline(always)]
    fn from_u32(_v: u32) -> Self {
        CountOnly
    }

    #[inline(always)]
    fn load_slice(src: &[()], dst: &mut [Self]) {
        assert_eq!(src.len(), dst.len(), "bulk load length mismatch");
    }

    #[inline(always)]
    fn store_slice(dst: &[()], src: &[Self]) {
        assert_eq!(dst.len(), src.len(), "bulk store length mismatch");
    }

    #[inline(always)]
    fn copy_slice(dst: &[()], src: &[()]) {
        assert_eq!(dst.len(), src.len(), "bulk copy length mismatch");
    }

    #[inline(always)]
    fn fill_slice(_dst: &[()], _v: Self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        for v in [0u32, 1, 7, u32::MAX, 0xdead_beef] {
            assert_eq!(u32::from_bits(v.to_bits()), v);
        }
    }

    #[test]
    fn i32_roundtrip_negative() {
        for v in [0i32, -1, i32::MIN, i32::MAX, -12345] {
            assert_eq!(i32::from_bits(DeviceElem::to_bits(v)), v);
        }
    }

    #[test]
    fn f32_roundtrip_preserves_bits() {
        for v in [0.0f32, -0.0, 1.5, f32::INFINITY, f32::MIN_POSITIVE] {
            let rt = <f32 as DeviceElem>::from_bits(DeviceElem::to_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f64_roundtrip_preserves_bits() {
        for v in [0.0f64, -0.0, 1.5e300, f64::NEG_INFINITY] {
            let rt = <f64 as DeviceElem>::from_bits(DeviceElem::to_bits(v));
            assert_eq!(rt.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn add_sub_inverse_integers() {
        assert_eq!(17u32.add(25).sub(25), 17);
        assert_eq!((-3i64).add(10).sub(10), -3);
        // Wrapping behaviour matches device integer arithmetic.
        assert_eq!(u32::MAX.add(1), 0);
    }

    #[test]
    fn zero_is_identity() {
        assert_eq!(42u64.add(u64::zero()), 42);
        assert_eq!(<f64 as DeviceElem>::zero().add(2.5), 2.5);
    }

    #[test]
    fn byte_widths() {
        assert_eq!(<u32 as DeviceElem>::BYTES, 4);
        assert_eq!(<f32 as DeviceElem>::BYTES, 4);
        assert_eq!(<u64 as DeviceElem>::BYTES, 8);
        assert_eq!(<f64 as DeviceElem>::BYTES, 8);
    }

    #[test]
    fn counting_element_is_zero_sized_and_charged_as_f32() {
        assert_eq!(std::mem::size_of::<CountOnly>(), 0);
        assert_eq!(std::mem::size_of::<<CountOnly as DeviceElem>::Atom>(), 0);
        assert_eq!(CountOnly::BYTES, 4);
    }

    #[test]
    fn bulk_slice_helpers_match_scalar_paths() {
        let atoms: Vec<AtomicU32> =
            (0..67u32).map(|v| AtomicU32::new(DeviceElem::to_bits(v as f32 * 1.5 - 3.25))).collect();
        let mut bulk = vec![0.0f32; atoms.len()];
        f32::load_slice(&atoms, &mut bulk);
        for (k, b) in bulk.iter().enumerate() {
            assert_eq!(b.to_bits(), <f32 as DeviceElem>::from_bits(atoms[k].load_bits()).to_bits());
        }
        let dst: Vec<AtomicU32> = (0..atoms.len()).map(|_| AtomicU32::new(0)).collect();
        f32::store_slice(&dst, &bulk);
        for (a, b) in dst.iter().zip(&bulk) {
            assert_eq!(a.load_bits(), b.to_bits());
        }
        f32::fill_slice(&dst, -2.5);
        for a in &dst {
            assert_eq!(<f32 as DeviceElem>::from_bits(a.load_bits()), -2.5);
        }
    }

    #[test]
    fn bulk_copy_has_memmove_semantics_on_overlap() {
        let atoms: Vec<AtomicU64> = (0..16u64).map(AtomicU64::new).collect();
        // Copy [0..8) over [4..12): overlapping ranges must behave as if
        // the source were read first (memmove), i.e. dst[k] = old src[k].
        u64::copy_slice(&atoms[4..12], &atoms[0..8]);
        let got: Vec<u64> = atoms.iter().map(|a| a.load_bits()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15]);
    }

    #[test]
    fn atomic_backing_cas() {
        let a = AtomicU32::new(5);
        assert_eq!(a.load_bits(), 5);
        a.store_bits(9);
        assert_eq!(a.load_bits(), 9);
        // CAS loop eventually succeeds even with weak semantics.
        let mut cur = a.load_bits();
        loop {
            match a.compare_exchange_bits(cur, cur + 1) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        assert_eq!(a.load_bits(), 10);
    }
}
