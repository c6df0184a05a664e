//! Property-based tests on the core invariants: SAT algebra, rectangle
//! queries, serial numbering, scans, and the paper's algorithm against the
//! reference on randomized shapes. Randomized inputs come from a
//! self-contained SplitMix64 generator so the suite needs no external
//! crates and every failure is reproducible from the fixed seeds.

use gpu_sim::prelude::*;
use satcore::alg::skss_lb::{serial_number, tile_for_serial};
use satcore::prelude::*;

fn gpu() -> Gpu {
    Gpu::new(DeviceConfig::tiny())
}

/// SplitMix64: the same generator `Matrix::random` and `DispatchOrder`
/// use internally, reused here as the property-case driver.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` (small ranges only; bias is irrelevant for
    /// test-case generation).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn vec(&mut self, len: usize, cap: u64) -> Vec<u64> {
        (0..len).map(|_| self.next() % cap).collect()
    }
}

const CASES: usize = 48;

/// A random square matrix with side `w * t` (tileable by construction).
fn tileable_matrix(rng: &mut Rng) -> (Matrix<u64>, usize) {
    let w = rng.range(1, 9);
    let t = rng.range(1, 7);
    let n = w * t;
    (Matrix::<u64>::random(n, n, rng.next(), 16), w)
}

#[test]
fn skss_lb_matches_reference_on_random_shapes() {
    let mut rng = Rng(0xA11CE);
    for _ in 0..CASES {
        let (a, w) = tileable_matrix(&mut rng);
        let params = SatParams { w, threads_per_block: (w * w).min(64) };
        let (got, _) = compute_sat(&gpu(), &SkssLb::new(params), &a);
        assert_eq!(got, satcore::reference::sat(&a), "n={} w={w}", a.rows());
    }
}

#[test]
fn skss_matches_reference_on_random_shapes() {
    let mut rng = Rng(0xB0B);
    for _ in 0..CASES {
        let (a, w) = tileable_matrix(&mut rng);
        let params = SatParams { w, threads_per_block: (w * w).min(64) };
        let (got, _) = compute_sat(&gpu(), &Skss::new(params), &a);
        assert_eq!(got, satcore::reference::sat(&a), "n={} w={w}", a.rows());
    }
}

#[test]
fn sat_is_linear() {
    let mut rng = Rng(0x11EA4);
    for _ in 0..CASES {
        let n = rng.range(1, 24);
        let seed = rng.next();
        let a = Matrix::<u64>::random(n, n, seed, 100);
        let b = Matrix::<u64>::random(n, n, seed ^ 0xffff, 100);
        let sum = Matrix::from_fn(n, n, |i, j| a.get(i, j) + b.get(i, j));
        let sat_a = satcore::reference::sat(&a);
        let sat_b = satcore::reference::sat(&b);
        let sat_sum = satcore::reference::sat(&sum);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(sat_sum.get(i, j), sat_a.get(i, j) + sat_b.get(i, j));
            }
        }
    }
}

#[test]
fn sat_commutes_with_transpose() {
    let mut rng = Rng(0x7A45);
    for _ in 0..CASES {
        let n = rng.range(1, 20);
        let a = Matrix::<u64>::random(n, n, rng.next(), 50);
        let at = Matrix::from_fn(n, n, |i, j| a.get(j, i));
        let sat_then_t = {
            let s = satcore::reference::sat(&a);
            Matrix::from_fn(n, n, |i, j| s.get(j, i))
        };
        let t_then_sat = satcore::reference::sat(&at);
        assert_eq!(sat_then_t, t_then_sat);
    }
}

#[test]
fn region_query_equals_direct_sum() {
    let mut rng = Rng(0x4E6104);
    for _ in 0..CASES {
        let n = rng.range(2, 24);
        let a = Matrix::<u64>::random(n, n, rng.next(), 30);
        let q = RegionQuery::new(satcore::reference::sat(&a));
        let r0 = rng.range(0, n);
        let r1 = r0 + rng.range(0, n - r0);
        let c0 = rng.range(0, n);
        let c1 = c0 + rng.range(0, n - c0);
        assert_eq!(
            q.sum(r0, r1, c0, c1),
            satcore::reference::region_sum_direct(&a, r0, r1, c0, c1)
        );
    }
}

#[test]
fn sat_is_monotone_for_nonnegative_inputs() {
    // b[i][j] is non-decreasing along rows and columns when all inputs
    // are >= 0 — the property region queries rely on.
    let mut rng = Rng(0x30403);
    for _ in 0..CASES {
        let n = rng.range(1, 20);
        let a = Matrix::<u64>::random(n, n, rng.next(), 100);
        let s = satcore::reference::sat(&a);
        for i in 0..n {
            for j in 1..n {
                assert!(s.get(i, j) >= s.get(i, j - 1));
            }
        }
        for j in 0..n {
            for i in 1..n {
                assert!(s.get(i, j) >= s.get(i - 1, j));
            }
        }
    }
}

#[test]
fn serial_numbering_is_a_bijection() {
    // Full round-trip `tile_for_serial(serial_number(i, j, t)) == (i, j)`
    // for every tile of every grid up to t = 64.
    for t in 1usize..64 {
        let mut seen = vec![false; t * t];
        for i in 0..t {
            for j in 0..t {
                let s = serial_number(i, j, t);
                assert!(s < t * t);
                assert!(!seen[s], "serial {s} seen twice, t={t}");
                seen[s] = true;
                assert_eq!(tile_for_serial(s, t), (i, j), "t={t}");
            }
        }
    }
}

#[test]
fn serials_respect_dependency_order() {
    let mut rng = Rng(0xDE9);
    for _ in 0..CASES {
        let t = rng.range(2, 40);
        let i = rng.range(0, t);
        let j = rng.range(0, t);
        let s = serial_number(i, j, t);
        if j > 0 {
            assert!(serial_number(i, j - 1, t) < s);
        }
        if i > 0 {
            assert!(serial_number(i - 1, j, t) < s);
        }
        if i > 0 && j > 0 {
            assert!(serial_number(i - 1, j - 1, t) < s);
        }
    }
}

#[test]
fn device_scan_matches_sequential() {
    let mut rng = Rng(0x5CA0);
    for _ in 0..CASES {
        let len = rng.range(1, 600);
        let data = rng.vec(len, 1000);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u64>::zeroed(data.len());
        prefix::device_row_scan(
            &gpu(),
            &input,
            &output,
            1,
            len,
            prefix::ScanParams { threads_per_block: 32, items_per_thread: 2 },
        );
        assert_eq!(output.to_vec(), prefix::seq::inclusive_scan(&data));
    }
}

#[test]
fn dispatch_permutations_are_permutations() {
    let mut rng = Rng(0xD15);
    for _ in 0..CASES {
        let blocks = rng.range(0, 200);
        let seed = rng.next();
        for d in [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(seed)] {
            let mut p = d.permutation(blocks);
            p.sort_unstable();
            assert_eq!(p, (0..blocks).collect::<Vec<_>>());
        }
    }
}

#[test]
fn diagonal_arrangement_is_always_a_permutation() {
    // offset(i, j) = i*w + (i+j) mod w must hit every slot exactly once.
    for w in 1usize..=64 {
        let mut seen = vec![false; w * w];
        for i in 0..w {
            for j in 0..w {
                let off = i * w + (i + j) % w;
                assert!(!seen[off], "collision at ({i},{j}) w={w}");
                seen[off] = true;
            }
        }
    }
}
