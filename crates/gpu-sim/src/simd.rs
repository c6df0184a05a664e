//! Host loops over lane values.
//!
//! The accounting model charges counters *per batch* (one
//! `charge_shuffles` per shuffle step, one `charge_shared` per tile row),
//! so the host loops that move the actual lane values are pure simulation
//! overhead. The helpers here are plain elementwise loops, which the
//! autovectorizer turns into packed SIMD, plus `copy_within` for the
//! lane-shift patterns behind `shfl_up`/`shfl_down`.
//!
//! Every helper is **elementwise**: it never reassociates a reduction, so
//! results are bit-identical to a lane-by-lane loop for floats too.
//! Charges never originate here; callers route every counter through the
//! [`BlockStats`](crate::metrics::BlockStats) sink.

use crate::elem::DeviceElem;

/// `dst[i] += src[i]`, elementwise. The column-scan inner loop of
/// [`SharedTile`](crate::shared::SharedTile) and the windowed look-back
/// accumulations are this shape.
#[inline]
pub fn zip_add<T: DeviceElem>(dst: &mut [T], src: &[T]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.add(*s);
    }
}

/// `out[i] = hi[i] + lo[i]`, elementwise into a third slice — the
/// Kogge-Stone scan step (`lanes[d..] = snap[d..] + snap[..n-d]`).
#[inline]
pub fn zip_add_into<T: DeviceElem>(out: &mut [T], hi: &[T], lo: &[T]) {
    debug_assert_eq!(out.len(), hi.len());
    debug_assert_eq!(out.len(), lo.len());
    for ((o, h), l) in out.iter_mut().zip(hi).zip(lo) {
        *o = h.add(*l);
    }
}

/// `dst[i] += v` for every element — the block-scan broadcast add.
#[inline]
pub fn add_scalar<T: DeviceElem>(dst: &mut [T], v: T) {
    for d in dst {
        *d = d.add(v);
    }
}

/// The `shfl_up` lane move: `lanes[i] = lanes[i - delta]` for
/// `i >= delta`, low lanes unchanged.
#[inline]
pub fn shift_up<T: DeviceElem>(lanes: &mut [T], delta: usize) {
    debug_assert!(delta >= 1);
    let n = lanes.len();
    if delta < n {
        lanes.copy_within(0..n - delta, delta);
    }
}

/// The `shfl_down` lane move: `lanes[i] = lanes[i + delta]` for in-range
/// sources, high lanes unchanged.
#[inline]
pub fn shift_down<T: DeviceElem>(lanes: &mut [T], delta: usize) {
    debug_assert!(delta >= 1);
    let n = lanes.len();
    if delta < n {
        lanes.copy_within(delta..n, 0);
    }
}

/// Gather/scatter lane classification: is `idx` the consecutive run
/// `first, first+1, ...`?
#[inline]
pub fn is_contiguous_run(idx: &[usize]) -> bool {
    idx.first().is_none_or(|&first| idx.iter().zip(first..).all(|(&i, want)| i == want))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each helper against its closed-form result, across the lengths
    /// around vector-width boundaries and every shift distance.
    #[test]
    fn helpers_match_their_elementwise_definitions() {
        for n in [0usize, 1, 7, 8, 9, 31, 32, 100] {
            let a = |i: usize| 3 * i as u64 + 1;
            let b = |i: usize| 1000 * i as u64;
            let src_a: Vec<u64> = (0..n).map(a).collect();
            let src_b: Vec<u64> = (0..n).map(b).collect();
            let sum: Vec<u64> = (0..n).map(|i| 1003 * i as u64 + 1).collect();

            let mut got = src_a.clone();
            zip_add(&mut got, &src_b);
            assert_eq!(got, sum, "zip_add n={n}");

            let mut got = vec![0u64; n];
            zip_add_into(&mut got, &src_a, &src_b);
            assert_eq!(got, sum, "zip_add_into n={n}");

            let mut got = src_a.clone();
            add_scalar(&mut got, 5);
            assert_eq!(got, (0..n).map(|i| 3 * i as u64 + 6).collect::<Vec<_>>(), "add_scalar n={n}");

            for delta in 1..=n + 1 {
                let mut got = src_a.clone();
                shift_up(&mut got, delta);
                let want: Vec<u64> = (0..n).map(|i| if i >= delta { a(i - delta) } else { a(i) }).collect();
                assert_eq!(got, want, "shift_up n={n} delta={delta}");

                let mut got = src_a.clone();
                shift_down(&mut got, delta);
                let want: Vec<u64> = (0..n).map(|i| if i + delta < n { a(i + delta) } else { a(i) }).collect();
                assert_eq!(got, want, "shift_down n={n} delta={delta}");
            }
        }
    }

    #[test]
    fn contiguity_classification() {
        for n in [0usize, 1, 5, 8, 9, 32, 33] {
            let run: Vec<usize> = (10..10 + n).collect();
            assert!(is_contiguous_run(&run), "run n={n}");
            if n >= 2 {
                for broken_at in [0, n / 2, n - 1] {
                    let mut bad = run.clone();
                    bad[broken_at] += 1;
                    // Breaking lane 0 tears the run at lane 1 (it now
                    // repeats lane 0's value); any other break tears it at
                    // the broken lane.
                    assert!(!is_contiguous_run(&bad), "n={n} broken_at={broken_at}");
                }
            }
        }
    }
}
