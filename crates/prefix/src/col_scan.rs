//! Column-wise prefix sums with coalesced access — the Tokura et al.
//! *"Almost optimal column-wise prefix-sum computation on the GPU"*
//! substrate (the paper's reference \[12\], used by its 2R2W-optimal
//! baseline).
//!
//! The naive column pass assigns one thread per column and walks rows —
//! coalesced but low-parallelism (`n` threads). This implementation tiles
//! the matrix into `(strip, band)` blocks — a strip is `S` consecutive
//! rows, a band is `B` consecutive columns, and `S x B` elements must fit
//! in shared memory — and runs a *decoupled look-back over vector
//! aggregates* down each band:
//!
//! 1. read the strip into shared memory and turn it into running column
//!    sums in place (fully parallel across all blocks — no waiting);
//! 2. publish the strip's column sums (a `B`-vector **aggregate**);
//! 3. look back up the band, summing aggregates until a published
//!    **inclusive prefix** vector short-circuits the walk;
//! 4. publish this strip's inclusive prefix, fold the exclusive prefix
//!    into the buffered strip, and write it out.
//!
//! Reads never wait on other blocks, so the device reaches full memory
//! parallelism immediately; the only serialization is flag propagation.
//! Traffic is `n^2 + O(n^2/S)` each way — "almost optimal".

use gpu_sim::prelude::*;

/// Strip status: aggregate (local column sums) published.
pub const COL_STATUS_AGGREGATE: u8 = 1;
/// Strip status: inclusive prefix published.
pub const COL_STATUS_PREFIX: u8 = 2;

/// Shape parameters for the column scan.
#[derive(Debug, Clone, Copy)]
pub struct ColScanParams {
    /// Rows per strip (`S`).
    pub strip_rows: usize,
    /// Columns per band (`B`): one block's working width.
    pub band_cols: usize,
    /// Threads per block.
    pub threads_per_block: usize,
}

impl Default for ColScanParams {
    fn default() -> Self {
        ColScanParams { strip_rows: 16, band_cols: 1024, threads_per_block: 1024 }
    }
}

/// Column-wise inclusive scan of the row-major `rows x cols` matrix in
/// `input`, written to `output`.
pub fn device_col_scan<T: DeviceElem>(
    gpu: &Gpu,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
    params: ColScanParams,
) -> KernelMetrics {
    assert_eq!(input.len(), rows * cols);
    assert_eq!(output.len(), rows * cols);
    let s = params.strip_rows.max(1);
    let b = params.band_cols.max(1);
    assert!(
        s * b.min(cols) * T::BYTES as usize <= gpu.config().shared_mem_per_block,
        "strip buffer {}x{} exceeds shared memory",
        s,
        b
    );
    let strips = rows.div_ceil(s).max(1);
    let bands = cols.div_ceil(b).max(1);
    let blocks = strips * bands;

    let counter = DeviceCounter::new();
    let status = StatusBoard::new(blocks);
    // Vector aggregates and inclusive prefixes, one `cols`-wide row per
    // strip each.
    let aggregates = GlobalBuffer::<T>::zeroed(strips * cols);
    let prefixes = GlobalBuffer::<T>::zeroed(strips * cols);

    // Decoupled: reads proceed unconditionally; the chain is only flag
    // propagation.
    let cp = CriticalPath { hops: strips as u64, bytes_per_hop: 0 };
    let lc = LaunchConfig::new("col_scan", blocks, params.threads_per_block).with_critical_path(cp);

    gpu.launch(lc, |ctx| {
        let vid = counter.next(ctx) as usize;
        // Strip-major mapping: every look-back target has a smaller vid.
        let strip = vid / bands;
        let band = vid % bands;
        let r0 = strip * s;
        let r1 = ((strip + 1) * s).min(rows);
        let c0 = band * b;
        let c1 = ((band + 1) * b).min(cols);
        let width = c1 - c0;

        // 1. Read the strip and compute running column sums in the shared
        // buffer — no dependence on any other block.
        let mut buf: Vec<T> = ctx.scratch((r1 - r0) * width);
        input.load_2d(ctx, r0 * cols + c0, cols, width, &mut buf);
        for k in 1..r1 - r0 {
            let (prev, cur) = buf.split_at_mut(k * width);
            for (c, p) in cur[..width].iter_mut().zip(&prev[(k - 1) * width..]) {
                *c = c.add(*p);
            }
        }
        ctx.stats.shared_accesses += 2 * ((r1 - r0) * width) as u64;
        let agg_base = (r1 - r0 - 1) * width;

        // 2./3./4. Publish aggregate, look back, publish prefix.
        let mut exclusive: Vec<T> = ctx.scratch(width);
        if strip == 0 {
            prefixes.store_row(ctx, c0, &buf[agg_base..agg_base + width]);
            status.publish(ctx, vid, COL_STATUS_PREFIX);
        } else {
            aggregates.store_row(ctx, strip * cols + c0, &buf[agg_base..agg_base + width]);
            status.publish(ctx, vid, COL_STATUS_AGGREGATE);

            // Only the first step is charged (one flag wait and one
            // vector read); a step past it is host scheduling, counted in
            // `host_walk_steps` and read unaccounted. Strip 0 always
            // publishes a prefix, so the walk always ends on one.
            let mut tmp: Vec<T> = ctx.scratch(width);
            for (step, p) in (0..strip).rev().enumerate() {
                let st = status.wait_walk_step(ctx, p * bands + band, COL_STATUS_AGGREGATE, false, step);
                let src = if st >= COL_STATUS_PREFIX { &prefixes } else { &aggregates };
                if step == 0 {
                    src.load_row(ctx, p * cols + c0, &mut tmp);
                } else {
                    for (k, v) in tmp.iter_mut().enumerate() {
                        *v = src.host_read(p * cols + c0 + k);
                    }
                }
                for (e, v) in exclusive.iter_mut().zip(&tmp) {
                    *e = e.add(*v);
                }
                if st >= COL_STATUS_PREFIX {
                    break;
                }
            }
            let mut inclusive = tmp;
            for (out, (e, a)) in inclusive.iter_mut().zip(exclusive.iter().zip(&buf[agg_base..agg_base + width])) {
                *out = e.add(*a);
            }
            prefixes.store_row(ctx, strip * cols + c0, &inclusive);
            status.publish(ctx, vid, COL_STATUS_PREFIX);
            ctx.recycle(inclusive);
        }

        // 5. Fold the exclusive prefix into the buffered strip and write.
        ctx.syncthreads();
        if strip > 0 {
            for row in buf.chunks_exact_mut(width) {
                for (v, e) in row.iter_mut().zip(&exclusive) {
                    *v = v.add(*e);
                }
            }
        }
        output.store_2d(ctx, r0 * cols + c0, cols, width, &buf);
        ctx.recycle(exclusive);
        ctx.recycle(buf);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    fn workload(rows: usize, cols: usize) -> Vec<u32> {
        (0..(rows * cols) as u32).map(|i| i.wrapping_mul(2654435761) % 50).collect()
    }

    fn check(gpu: &Gpu, rows: usize, cols: usize, params: ColScanParams) {
        let data = workload(rows, cols);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u32>::zeroed(data.len());
        device_col_scan(gpu, &input, &output, rows, cols, params);
        let mut expect = data;
        seq::col_scan_in_place(&mut expect, rows, cols);
        assert_eq!(output.to_vec(), expect, "rows={rows} cols={cols} {params:?}");
    }

    #[test]
    fn matches_reference_various_shapes() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let params = ColScanParams { strip_rows: 4, band_cols: 16, threads_per_block: 64 };
        for (r, c) in [(1, 1), (1, 100), (100, 1), (4, 16), (5, 17), (33, 70), (128, 128)] {
            check(&gpu, r, c, params);
        }
    }

    #[test]
    fn strip_and_band_edges() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        for s in [1usize, 3, 8] {
            for b in [1usize, 5, 32] {
                check(&gpu, 17, 23, ColScanParams { strip_rows: s, band_cols: b, threads_per_block: 32 });
            }
        }
    }

    #[test]
    fn concurrent_adversarial_dispatch() {
        for dispatch in [DispatchOrder::Reversed, DispatchOrder::Random(11)] {
            let gpu = Gpu::new(DeviceConfig::tiny())
                .with_mode(ExecMode::Concurrent)
                .with_dispatch(dispatch);
            check(&gpu, 64, 96, ColScanParams { strip_rows: 4, band_cols: 16, threads_per_block: 32 });
        }
    }

    #[test]
    fn no_strided_access_and_near_optimal_traffic() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (rows, cols) = (64, 128);
        let data = workload(rows, cols);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u32>::zeroed(data.len());
        let params = ColScanParams { strip_rows: 8, band_cols: 32, threads_per_block: 32 };
        let m = device_col_scan(&gpu, &input, &output, rows, cols, params);
        let n = (rows * cols) as u64;
        let strips = rows.div_ceil(params.strip_rows) as u64;
        let aux_rows = strips * cols as u64;
        assert_eq!(m.stats.strided_reads, 0);
        assert_eq!(m.stats.strided_writes, 0);
        // Data reads plus look-back vectors: at most one aggregate or
        // prefix row per look-back hop; in sequential in-order execution
        // every look-back short-circuits after exactly one hop.
        assert!(m.stats.global_reads >= n && m.stats.global_reads <= n + 2 * aux_rows,
            "reads = {}", m.stats.global_reads);
        // Data writes plus one aggregate and one prefix row per strip.
        assert!(m.stats.global_writes >= n && m.stats.global_writes <= n + 2 * aux_rows,
            "writes = {}", m.stats.global_writes);
    }

    #[test]
    fn reads_never_wait() {
        // The decoupling invariant: in sequential execution a correct
        // decoupled scan performs exactly one wait per non-first strip,
        // and it is already satisfied (no poll iterations beyond one).
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (rows, cols) = (32, 16);
        let data = workload(rows, cols);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u32>::zeroed(data.len());
        let params = ColScanParams { strip_rows: 4, band_cols: 16, threads_per_block: 32 };
        let m = device_col_scan(&gpu, &input, &output, rows, cols, params);
        let strips = rows.div_ceil(params.strip_rows) as u64;
        assert_eq!(m.stats.flag_waits, strips - 1);
    }

    #[test]
    #[should_panic(expected = "exceeds shared memory")]
    fn oversized_strip_rejected() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let input = GlobalBuffer::<u64>::zeroed(1 << 20);
        let output = GlobalBuffer::<u64>::zeroed(1 << 20);
        device_col_scan(
            &gpu,
            &input,
            &output,
            1024,
            1024,
            ColScanParams { strip_rows: 1024, band_cols: 1024, threads_per_block: 64 },
        );
    }
}
