//! Host-side matrices: the inputs and outputs of every SAT algorithm.

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;

/// A dense row-major matrix on the host.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: DeviceElem> Matrix<T> {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![T::zero(); rows * cols] }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows * cols");
        Matrix { rows, cols, data }
    }

    /// A deterministic pseudorandom matrix (SplitMix64-based), the workload
    /// generator of the tests, the benchmark and the `sat-cli` commands.
    /// Values are small (`0..limit`) so integer SATs of large matrices
    /// cannot overflow.
    pub fn random(rows: usize, cols: usize, seed: u64, limit: u32) -> Self {
        let mut s = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            T::from_u32((z % limit.max(1) as u64) as u32)
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square with side divisible by `w` — the
    /// shape contract of the tile-based SAT algorithms.
    pub fn is_tileable(&self, w: usize) -> bool {
        self.rows == self.cols && w > 0 && self.rows.is_multiple_of(w)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        self.data[i * self.cols + j] = v;
    }

    /// The row-major backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Upload to simulated device memory (models `cudaMemcpy` H2D, which
    /// the paper excludes from timings).
    pub fn to_device(&self) -> GlobalBuffer<T> {
        GlobalBuffer::from_slice(&self.data)
    }

    /// Download a device buffer into a matrix of the given shape.
    pub fn from_device(buf: &GlobalBuffer<T>, rows: usize, cols: usize) -> Self {
        let data = buf.to_vec();
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::<u32>::zeros(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(m.get(2, 3), 0);
        m.set(2, 3, 7);
        assert_eq!(m.get(2, 3), 7);
        assert_eq!(m.as_slice()[11], 7);
    }

    #[test]
    fn from_fn_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as u32);
        assert_eq!(m.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Matrix::<u64>::random(8, 8, 42, 100);
        let b = Matrix::<u64>::random(8, 8, 42, 100);
        let c = Matrix::<u64>::random(8, 8, 43, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| v < 100));
    }

    #[test]
    fn device_roundtrip() {
        let m = Matrix::<f32>::random(5, 7, 1, 50);
        let buf = m.to_device();
        let back = Matrix::from_device(&buf, 5, 7);
        assert_eq!(m, back);
    }

    #[test]
    fn tileable() {
        assert!(Matrix::<u32>::zeros(64, 64).is_tileable(32));
        assert!(!Matrix::<u32>::zeros(64, 64).is_tileable(48));
        assert!(!Matrix::<u32>::zeros(64, 32).is_tileable(32));
        assert!(!Matrix::<u32>::zeros(64, 64).is_tileable(0));
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1u32, 2, 3]);
    }
}
