//! Single-pass inclusive scan with decoupled look-back — Merrill &
//! Garland, *"Single-pass Parallel Prefix Scan with Decoupled Look-back"*
//! (NVIDIA NVR-2016-002), the paper's reference \[10\] and the engine
//! behind CUB's `DeviceScan` — applied to every row of a matrix in one
//! kernel. This is the row pass of the paper's 2R2W-optimal baseline; a
//! 1-D array is the `rows = 1` case.
//!
//! Each row is partitioned into tiles, and a block handles one
//! `(row, tile)` pair. Each block (virtual IDs from a global `atomicAdd`
//! counter, so dispatch order is irrelevant)
//!
//! 1. loads its tile and computes a local block-wide scan,
//! 2. publishes its tile **aggregate** (status `A`),
//! 3. *looks back* over the predecessor tiles of its row, summing
//!    aggregates until it meets a tile whose **inclusive prefix** is
//!    published (status `P`),
//! 4. publishes its own inclusive prefix,
//! 5. adds the exclusive prefix to its tile and stores it.
//!
//! Virtual block IDs are mapped *tile-major* (`vid = tile * rows + row`),
//! so every look-back target has a smaller virtual ID than the waiter —
//! the discipline that makes soft synchronization deadlock-free under any
//! dispatch order and any residency bound.
//!
//! Rows are contiguous in memory, so every access is fully coalesced.
//! Each element is read once and written once; the look-back adds only
//! `O(N / tile)` extra traffic. This is the same decoupling idea the SAT
//! paper imports as its "LB" technique.

use gpu_sim::prelude::*;

/// Tile status: aggregate available.
const STATUS_AGGREGATE: u8 = 1;
/// Tile status: inclusive prefix available.
const STATUS_PREFIX: u8 = 2;

/// Shape parameters of the row scan.
#[derive(Debug, Clone, Copy)]
pub struct ScanParams {
    /// Threads per block (CUB uses 128-512; we default to the device max
    /// like the paper's SAT kernels do).
    pub threads_per_block: usize,
    /// Elements each thread scans in registers.
    pub items_per_thread: usize,
}

impl Default for ScanParams {
    fn default() -> Self {
        ScanParams { threads_per_block: 1024, items_per_thread: 4 }
    }
}

impl ScanParams {
    /// Elements per tile.
    pub fn tile_elems(&self) -> usize {
        self.threads_per_block * self.items_per_thread
    }
}

/// Scan every row of the row-major `rows x cols` matrix in `input`,
/// writing to `output` (may alias shape, not storage).
pub fn device_row_scan<T: DeviceElem>(
    gpu: &Gpu,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
    params: ScanParams,
) -> KernelMetrics {
    assert_eq!(input.len(), rows * cols);
    assert_eq!(output.len(), rows * cols);
    let tile = params.tile_elems();
    let tiles_per_row = cols.div_ceil(tile).max(1);
    let blocks = tiles_per_row * rows;

    let counter = DeviceCounter::new();
    let status = StatusBoard::new(blocks);
    let aggregates = GlobalBuffer::<T>::zeroed(blocks);
    let prefixes = GlobalBuffer::<T>::zeroed(blocks);

    let cp = CriticalPath { hops: tiles_per_row as u64, bytes_per_hop: 0 };
    let lc = LaunchConfig::new("row_scan", blocks, params.threads_per_block).with_critical_path(cp);

    gpu.launch(lc, |ctx| {
        let vid = counter.next(ctx) as usize;
        let t = vid / rows; // tile index within the row
        let r = vid % rows; // row index
        let lo = t * tile;
        let hi = ((t + 1) * tile).min(cols);
        let base = r * cols;

        let mut vals: Vec<T> = ctx.scratch(hi - lo);
        input.load_row(ctx, base + lo, &mut vals);
        let mut carry = T::zero();
        for chunk in vals.chunks_mut(1024) {
            block_inclusive_scan(ctx, chunk);
            if carry != T::zero() {
                for v in chunk.iter_mut() {
                    *v = v.add(carry);
                }
            }
            carry = chunk[chunk.len() - 1];
        }
        let aggregate = carry;

        // The flag slot for (row r, tile t) is the block's own vid; the
        // predecessor tile of the same row sits `rows` slots lower.
        let exclusive = if t == 0 {
            prefixes.write(ctx, vid, aggregate);
            status.publish(ctx, vid, STATUS_PREFIX);
            T::zero()
        } else {
            aggregates.write(ctx, vid, aggregate);
            status.publish(ctx, vid, STATUS_AGGREGATE);
            // Only the first step is charged (one flag wait and one
            // read); a step past it is host scheduling, counted in
            // `host_walk_steps` and read unaccounted. Tile 0 of every row
            // publishes a prefix, so the walk always ends on one.
            let mut acc = T::zero();
            for (step, j) in (r..vid).step_by(rows).rev().enumerate() {
                let st = status.wait_walk_step(ctx, j, STATUS_AGGREGATE, false, step);
                let src = if st >= STATUS_PREFIX { &prefixes } else { &aggregates };
                acc = acc.add(if step == 0 { src.read(ctx, j) } else { src.host_read(j) });
                if st >= STATUS_PREFIX {
                    break;
                }
            }
            prefixes.write(ctx, vid, acc.add(aggregate));
            status.publish(ctx, vid, STATUS_PREFIX);
            acc
        };

        ctx.syncthreads();
        for v in vals.iter_mut() {
            *v = v.add(exclusive);
        }
        output.store_row(ctx, base + lo, &vals);
        ctx.recycle(vals);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    fn workload(rows: usize, cols: usize) -> Vec<u64> {
        (0..(rows * cols) as u64).map(|i| (i * 48271) % 100).collect()
    }

    fn check(gpu: &Gpu, rows: usize, cols: usize, params: ScanParams) {
        let data = workload(rows, cols);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u64>::zeroed(data.len());
        device_row_scan(gpu, &input, &output, rows, cols, params);
        let mut expect = data;
        seq::row_scan_in_place(&mut expect, rows, cols);
        assert_eq!(output.to_vec(), expect, "rows={rows} cols={cols}");
    }

    #[test]
    fn matches_reference_various_shapes() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let params = ScanParams { threads_per_block: 32, items_per_thread: 2 };
        // The one-row shapes are the 1-D scan: around and on the 64-element
        // tile boundary, and long enough for multi-tile look-back walks.
        let shapes = [
            (1, 1), (1, 2), (1, 63), (1, 64), (1, 65), (1, 192), (1, 500), (1, 5000),
            (500, 1), (7, 129), (16, 64), (33, 200),
        ];
        for (r, c) in shapes {
            check(&gpu, r, c, params);
        }
    }

    #[test]
    fn concurrent_adversarial_dispatch() {
        for dispatch in [DispatchOrder::InOrder, DispatchOrder::Reversed, DispatchOrder::Random(5)] {
            let gpu = Gpu::new(DeviceConfig::tiny())
                .with_mode(ExecMode::Concurrent)
                .with_dispatch(dispatch);
            let params = ScanParams { threads_per_block: 32, items_per_thread: 2 };
            check(&gpu, 24, 260, params);
            check(&gpu, 1, 10_000, params);
        }
    }

    #[test]
    fn float_scan_close_to_reference() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (rows, cols) = (3, 4096);
        let data: Vec<f64> = (0..rows * cols).map(|i| (i % 97) as f64 * 0.25).collect();
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<f64>::zeroed(data.len());
        let params = ScanParams { threads_per_block: 64, items_per_thread: 4 };
        device_row_scan(&gpu, &input, &output, rows, cols, params);
        let mut expect = data;
        seq::row_scan_in_place(&mut expect, rows, cols);
        for (a, b) in output.to_vec().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn traffic_is_one_read_one_write() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let (rows, cols) = (16, 512);
        let data = workload(rows, cols);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u64>::zeroed(data.len());
        let params = ScanParams { threads_per_block: 32, items_per_thread: 2 };
        let m = device_row_scan(&gpu, &input, &output, rows, cols, params);
        assert_eq!(m.label, "row_scan");
        let n = (rows * cols) as u64;
        let tiles = (cols.div_ceil(params.tile_elems()) * rows) as u64;
        assert!(m.stats.global_reads >= n && m.stats.global_reads <= n + 4 * tiles);
        assert!(m.stats.global_writes >= n && m.stats.global_writes <= n + 2 * tiles);
        assert_eq!(m.stats.strided_reads, 0);
        assert_eq!(m.stats.strided_writes, 0);
    }
}
