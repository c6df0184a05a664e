//! Warp-synchronous primitives.
//!
//! A warp is 32 threads executing in lockstep; its "register file" for one
//! variable is modeled as a slice of up to 32 lanes. Lanes exchange values
//! through warp shuffles, which are charged, not simulated one by one: the
//! paper's *warp prefix-sum algorithm* (Section II, Fig. 4) is the
//! Kogge-Stone inclusive scan, `ceil(log2(w))` shuffle steps in which each
//! lane `i >= 2^j` adds the value of lane `i - 2^j`, each step charging one
//! shuffle per live lane.

use crate::device::WARP;
use crate::elem::DeviceElem;
use crate::launch::BlockCtx;
use crate::simd;

/// The paper's warp prefix-sum algorithm (Fig. 4): in-place inclusive scan
/// of up to one warp's worth of lane registers in `log2(w)` shuffle steps.
///
/// ```text
/// for j in 0..log2(w):
///     lanes with i >= 2^j do a[i] += a[i - 2^j]
/// ```
///
/// Each step charges one shuffle per live lane (per-step accounting), and
/// works from a pre-step snapshot so the inner loop is a forward slice zip
/// the compiler can vectorize. The result is bit-identical to the naive
/// in-place descending loop: that loop also only ever reads pre-step
/// values, because lane `i - 2^j` is updated after lane `i`.
pub fn warp_inclusive_scan<T: DeviceElem>(ctx: &mut BlockCtx, lanes: &mut [T]) {
    assert!(lanes.len() <= WARP, "a warp has at most {WARP} lanes");
    let n = lanes.len();
    let mut snap = [T::zero(); WARP];
    let mut d = 1;
    while d < n {
        ctx.stats.charge_shuffles(n as u64);
        snap[..n].copy_from_slice(lanes);
        simd::zip_add_into(&mut lanes[d..], &snap[d..n], &snap[..n - d]);
        d <<= 1;
    }
}

/// Warp sum reduction: after an inclusive scan the last lane holds the sum
/// (the paper uses exactly this observation), but a direct butterfly
/// reduction is cheaper when only the sum is needed.
pub fn warp_reduce_sum<T: DeviceElem>(ctx: &mut BlockCtx, lanes: &[T]) -> T {
    assert!(lanes.len() <= WARP, "a warp has at most {WARP} lanes");
    let steps = usize::BITS - (lanes.len().max(1) - 1).leading_zeros();
    ctx.stats.charge_shuffles(steps as u64 * lanes.len() as u64);
    let mut acc = T::zero();
    for &v in lanes {
        acc = acc.add(v);
    }
    acc
}

/// Inclusive scan of an arbitrary-length register array held by one block:
/// per-warp Kogge-Stone scans, a scan of the warp totals, then a broadcast
/// add. Two `__syncthreads()` barriers, as the standard block-scan does.
pub fn block_inclusive_scan<T: DeviceElem>(ctx: &mut BlockCtx, vals: &mut [T]) {
    if vals.is_empty() {
        return;
    }
    let warps = vals.len().div_ceil(WARP);
    assert!(
        warps <= WARP,
        "block scan supports up to {} elements ({} warps of {WARP})",
        WARP * WARP,
        WARP
    );
    let mut warp_totals: Vec<T> = ctx.scratch(warps);
    for (w, chunk) in vals.chunks_mut(WARP).enumerate() {
        warp_inclusive_scan(ctx, chunk);
        warp_totals[w] = chunk[chunk.len() - 1];
    }
    ctx.syncthreads();
    warp_inclusive_scan(ctx, &mut warp_totals);
    ctx.syncthreads();
    for (w, chunk) in vals.chunks_mut(WARP).enumerate().skip(1) {
        let offset = warp_totals[w - 1];
        simd::add_scalar(chunk, offset);
    }
    ctx.recycle(warp_totals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::launch::{ExecMode, Gpu, LaunchConfig};

    fn with_ctx(f: impl Fn(&mut BlockCtx) + Sync) {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
        gpu.launch(LaunchConfig::new("warp-test", 1, 32), f);
    }

    fn seq_inclusive(v: &[u64]) -> Vec<u64> {
        let mut acc = 0u64;
        v.iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect()
    }

    #[test]
    fn fig4_example_w8() {
        // Figure 4 of the paper runs the algorithm on 8 lanes; any values
        // work, use 1..=8 so the result is the triangular numbers.
        with_ctx(|ctx| {
            let mut lanes: Vec<u64> = (1..=8).collect();
            warp_inclusive_scan(ctx, &mut lanes);
            assert_eq!(lanes, vec![1, 3, 6, 10, 15, 21, 28, 36]);
        });
    }

    #[test]
    fn scan_matches_sequential_for_all_lengths() {
        with_ctx(|ctx| {
            for n in 1..=32 {
                let vals: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
                let mut lanes = vals.clone();
                warp_inclusive_scan(ctx, &mut lanes);
                assert_eq!(lanes, seq_inclusive(&vals), "n={n}");
            }
        });
    }

    #[test]
    fn scan_counts_log2_w_steps() {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
        let m = gpu.launch(LaunchConfig::new("t", 1, 32), |ctx| {
            let mut lanes = [1u32; 32];
            warp_inclusive_scan(ctx, &mut lanes);
        });
        // log2(32) = 5 steps, each touching all 32 lanes.
        assert_eq!(m.stats.warp_shuffles, 5 * 32);
    }

    #[test]
    fn kogge_stone_charges_steps_times_live_lanes() {
        // Exact charge of the scan: ceil(log2(n)) steps, each charging one
        // shuffle per live lane — nothing for n <= 1 (no steps run).
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
        for n in [0usize, 1, 2, 3, 8, 31, 32] {
            let m = gpu.launch(LaunchConfig::new("t", 1, 32), |ctx| {
                let mut lanes = vec![1u32; n];
                warp_inclusive_scan(ctx, &mut lanes);
            });
            let steps = if n <= 1 { 0 } else { (usize::BITS - (n - 1).leading_zeros()) as u64 };
            assert_eq!(m.stats.warp_shuffles, steps * n as u64, "n={n}");
        }
    }

    #[test]
    fn reduce_sum() {
        with_ctx(|ctx| {
            let lanes: Vec<u64> = (1..=32).collect();
            assert_eq!(warp_reduce_sum(ctx, &lanes), 32 * 33 / 2);
        });
    }

    #[test]
    fn last_lane_of_scan_is_the_sum() {
        // "Since the last element a[w-1] stores the sum, this algorithm can
        // also be used to compute the sum" — paper, Section II.
        with_ctx(|ctx| {
            let vals: Vec<u64> = (0..32).map(|i| i * i).collect();
            let mut lanes = vals.clone();
            warp_inclusive_scan(ctx, &mut lanes);
            assert_eq!(lanes[31], vals.iter().sum::<u64>());
        });
    }

    #[test]
    fn block_scan_spans_warps() {
        with_ctx(|ctx| {
            for n in [1usize, 31, 32, 33, 64, 100, 256, 1024] {
                let vals: Vec<u64> = (0..n as u64).map(|i| i % 13 + 1).collect();
                let mut regs = vals.clone();
                block_inclusive_scan(ctx, &mut regs);
                assert_eq!(regs, seq_inclusive(&vals), "n={n}");
            }
        });
    }

    #[test]
    fn block_scan_uses_barriers() {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential);
        let m = gpu.launch(LaunchConfig::new("t", 1, 256), |ctx| {
            let mut regs = [1u32; 256];
            block_inclusive_scan(ctx, &mut regs);
        });
        assert_eq!(m.stats.barriers, 2);
    }

    #[test]
    fn scan_works_for_floats() {
        with_ctx(|ctx| {
            let mut lanes = [0.5f32; 32];
            warp_inclusive_scan(ctx, &mut lanes);
            assert!((lanes[31] - 16.0).abs() < 1e-6);
        });
    }
}
