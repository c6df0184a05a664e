//! Sequential prefix-sum reference implementations.
//!
//! These are the oracles every device scan is tested against, and the
//! "clearly, by executing `p[i] <- p[i-1] + p[i]` ... in turn" baseline the
//! paper opens with. They also serve as host-side fallbacks in examples.

use gpu_sim::elem::DeviceElem;

/// In-place inclusive prefix sums of a slice.
pub fn inclusive_scan_in_place<T: DeviceElem>(v: &mut [T]) {
    let mut acc = T::zero();
    for x in v.iter_mut() {
        acc = acc.add(*x);
        *x = acc;
    }
}

/// Inclusive prefix sums, allocating.
pub fn inclusive_scan<T: DeviceElem>(v: &[T]) -> Vec<T> {
    let mut out = v.to_vec();
    inclusive_scan_in_place(&mut out);
    out
}

/// Row-wise inclusive prefix sums of a row-major `rows x cols` matrix,
/// in place.
pub fn row_scan_in_place<T: DeviceElem>(data: &mut [T], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols);
    for r in 0..rows {
        inclusive_scan_in_place(&mut data[r * cols..(r + 1) * cols]);
    }
}

/// Column-wise inclusive prefix sums of a row-major `rows x cols` matrix,
/// in place.
pub fn col_scan_in_place<T: DeviceElem>(data: &mut [T], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols);
    for r in 1..rows {
        for c in 0..cols {
            let above = data[(r - 1) * cols + c];
            let cur = &mut data[r * cols + c];
            *cur = cur.add(above);
        }
    }
}

/// The summed area table computed the textbook way: column-wise then
/// row-wise prefix sums (paper Fig. 2). The ultimate oracle for every SAT
/// algorithm in the workspace.
pub fn sat_reference<T: DeviceElem>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
    let mut out = data.to_vec();
    col_scan_in_place(&mut out, rows, cols);
    row_scan_in_place(&mut out, rows, cols);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusive_basic() {
        assert_eq!(inclusive_scan(&[1u32, 2, 3, 4]), vec![1, 3, 6, 10]);
        assert_eq!(inclusive_scan::<u32>(&[]), Vec::<u32>::new());
    }

    #[test]
    fn row_and_col_scans() {
        // 2x3 matrix [[1,2,3],[4,5,6]].
        let m = vec![1u32, 2, 3, 4, 5, 6];
        let mut r = m.clone();
        row_scan_in_place(&mut r, 2, 3);
        assert_eq!(r, vec![1, 3, 6, 4, 9, 15]);
        let mut c = m.clone();
        col_scan_in_place(&mut c, 2, 3);
        assert_eq!(c, vec![1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn sat_order_of_passes_is_irrelevant() {
        let m: Vec<u64> = (0..12 * 7).map(|i| (i * 31 + 5) % 17).collect();
        let a = sat_reference(&m, 12, 7);
        let mut b = m.clone();
        row_scan_in_place(&mut b, 12, 7);
        col_scan_in_place(&mut b, 12, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn fig2_example_matrix() {
        // The 9x9 matrix of the paper's Figure 2, with its published SAT.
        let a: Vec<u32> = vec![
            0, 0, 0, 1, 1, 1, 0, 0, 0, //
            0, 0, 1, 1, 1, 1, 1, 0, 0, //
            0, 1, 1, 1, 2, 1, 1, 1, 0, //
            1, 1, 1, 2, 2, 2, 1, 1, 1, //
            1, 1, 2, 2, 3, 2, 2, 1, 1, //
            1, 1, 1, 2, 2, 2, 1, 1, 1, //
            0, 1, 1, 1, 2, 1, 1, 1, 0, //
            0, 0, 1, 1, 1, 1, 1, 0, 0, //
            0, 0, 0, 1, 1, 1, 0, 0, 0,
        ];
        let sat = sat_reference(&a, 9, 9);
        let last_row: Vec<u32> = sat[8 * 9..].to_vec();
        assert_eq!(last_row, vec![3, 8, 16, 28, 43, 55, 63, 68, 71]);
        assert_eq!(sat[4 * 9 + 4], 26);
        assert_eq!(sat[80], 71, "total sum in the bottom-right corner");
    }
}
