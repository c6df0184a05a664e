//! Cooperative multi-device SAT: one huge image across a [`DeviceGroup`].
//!
//! [`crate::batch`] scales *throughput* by never splitting an image; this
//! module scales a *single* SAT that is too large (or too slow) for one
//! device. The `n x n` image is cut into horizontal **row bands** — each
//! band a contiguous range of tile rows — and each band becomes one job of
//! a [`DeviceGroup::run_batch`] run, executing the existing kernels over
//! its rows on whichever device's lane claims it.
//!
//! A SAT is not row-separable: every band below the first needs the column
//! sums of everything above it. The two cooperative pipelines resolve that
//! dependency in different ways, both paying for every cross-device byte
//! through [`BlockStats::charge_d2d`] and for every cross-device wait
//! through [`StatusBoard::wait_at_least_remote`]:
//!
//! * [`CoopKernel::TwoROneW`] — an **eager carry exchange**. Each band
//!   runs k1 and a band-local k2 (full-width row scans; column and grid
//!   scans restricted to its rows). Each column-scan block also copies its
//!   segment of the band's total column sums (the last band-local `GCS`
//!   row, `n` elements in all) into a peer-visible bounds buffer. A
//!   one-block *publish* kernel then charges that row as one
//!   [`charge_d2d`] transfer and raises the band's flag. For band `d > 0`
//!   the same block remote-waits on bands `0..d`, charges one transfer per
//!   pulled boundary row, and folds the carry's column prefix into `GS`
//!   tile-row `r0 - 1`. It moves no other data. A *carry* grid, one block
//!   per tile column, then upgrades the band-local `GCS`/`GS` aux rows to
//!   global values in place: each block sums its `w`-wide segment of the
//!   landed rows, writes it to `GCS` tile-row `r0 - 1` (a local copy of
//!   the imported boundary) and adds it to the band's own rows, and adds
//!   the `GS` prefix the publish block left in row `r0 - 1` to its column.
//!   k3 then runs completely unchanged. Every counter of this pipeline is
//!   **fully deterministic**: carries sum bands in ascending order, so
//!   reads, writes, transfers, and flag waits are identical for any
//!   device count, dispatch order, and host schedule.
//!
//! * [`CoopKernel::SkssLb`] / [`CoopKernel::SkssSh`] — the paper's
//!   **look-back protocol stretched across devices**. All bands share one
//!   full-grid [`State`]; a band's blocks claim its tiles in band-local
//!   column-major order and run the unmodified per-tile protocol with
//!   `d2d_below` set to the band's first tile row. Look-back walks that
//!   step above that row wait on the remote band's flags with
//!   [`wait_at_least_remote`] and fetch its `LCS`/`GCS`/`GLS`/`GS` values
//!   over the interconnect — soft synchronization between devices with no
//!   global barrier, exactly the single-kernel spirit of the paper. A walk
//!   is charged its first step only, as on the device: a walk whose
//!   nearest predecessor is on an earlier band pays one remote wait and
//!   one D2D transfer, however far the host schedule made it walk (each
//!   further step counts `host_walk_steps`, which nothing prices). So
//!   every `deterministic()` counter, and each band's modeled seconds, is
//!   the same for any device count, dispatch order and host schedule, and
//!   the output is bit-identical (accumulation order is fixed by the walk).
//!
//! Deadlock freedom is the paper's argument (Section IV), made twice.
//! Lanes claim bands in order from one counter, and cross-band waits only
//! ever target *strictly earlier* bands, so the smallest unfinished band
//! has been claimed by a running lane and every band it waits on has
//! finished. Inside a look-back band, blocks claim tiles from the band's
//! own counter in an order in which every tile's in-band dependencies come
//! first (`BandPlan::order`), so the earliest unfinished tile can always
//! progress. On one device the one lane claims the bands in ascending
//! order, and every cross-band wait is satisfied before it is made.
//!
//! Host cost of waiting: both pipelines funnel every cross-band wait
//! through `StatusBoard`, so a band blocked on an earlier band's flag
//! parks and burns no host CPU until the publishing band wakes it. The
//! parked wait keeps its execution token, as a GPU block spinning on a
//! flag keeps its SM slot: nothing else runs on that token until the wait
//! ends. Parking changes *when* a look-back walk observes remote flags,
//! so how far it walks and the poll, backoff and park counters may shift;
//! the deterministic counters and the numeric output must not — the carry
//! sums in `TwoROneW` read bands in ascending order regardless of wake
//! order, a look-back walk is charged one step however far it walked, and
//! its sum order is fixed by the walk itself.
//!
//! ## Persistent execution
//!
//! Both pipelines run their band sequences as **persistent per-device
//! jobs**: one resident lane driver per device claims the next band, runs
//! its blocks on its own thread against a per-lane scratch arena that
//! survives from band to band, and claims again, instead of the host
//! issuing one pool launch per band. A band grid whose measured blocks
//! outlast a helper's wake also gets the device pool's idle workers, which
//! claim blocks beside the lane. Cross-band ordering needs no launch
//! boundaries — it is carried entirely by the `StatusBoard` flags above.
//! The modeled makespan replays the in-order claims on modeled clocks
//! ([`GroupMetrics::modeled_completion_seconds`]). A band that panics
//! aborts the batch, and bands on other devices waiting on its flags fail
//! fast instead of waiting out the deadlock limit.
//!
//! [`BlockStats::charge_d2d`]: gpu_sim::metrics::BlockStats::charge_d2d
//! [`charge_d2d`]: gpu_sim::metrics::BlockStats::charge_d2d
//! [`StatusBoard::wait_at_least_remote`]: gpu_sim::sync::StatusBoard::wait_at_least_remote
//! [`wait_at_least_remote`]: gpu_sim::sync::StatusBoard::wait_at_least_remote
//! [`State`]: crate::alg::skss_lb

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::group::{DeviceGroup, GroupMetrics};
use gpu_sim::launch::{Gpu, LaunchConfig};
use gpu_sim::metrics::{BlockStats, CriticalPath, RunMetrics};
use gpu_sim::shared::Arrangement;
use gpu_sim::sync::{DeviceCounter, StatusBoard};

use crate::alg::skss_lb::{self, State};
use crate::alg::skss_sh;
use crate::alg::two_r_one_w::{self, TwoROneWAux};
use crate::alg::SatParams;
use crate::tile::TileGrid;

/// Default band count of [`sat_huge_multi_device`]. Eight bands over up to
/// a handful of devices keeps every lane fed (a lane that finishes a band
/// claims the next one) while the per-band boundary exchange stays a
/// vanishing fraction of the band's own traffic.
pub const COOP_BANDS: usize = 8;

/// Which kernel family runs inside each band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoopKernel {
    /// Three-kernel 2R1W with the eager carry exchange; fully
    /// deterministic counters.
    TwoROneW,
    /// Single-kernel SKSS-LB with cross-device look-back.
    SkssLb,
    /// Shuffle-only software-systolic variant, same cross-device protocol.
    SkssSh,
}

impl CoopKernel {
    /// Stable identifier used in launch labels and test messages.
    pub fn name(self) -> &'static str {
        match self {
            CoopKernel::TwoROneW => "coop_2r1w",
            CoopKernel::SkssLb => "coop_skss_lb",
            CoopKernel::SkssSh => "coop_skss_sh",
        }
    }
}

/// Aggregate result of one cooperative run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoopReport {
    /// Image side length.
    pub n: usize,
    /// Tile width.
    pub w: usize,
    /// Tile-row height of each band, in band order.
    pub band_rows: Vec<usize>,
    /// Total kernel launches across all bands.
    pub kernels: usize,
    /// Field-wise sum of every launch's counters.
    pub stats: BlockStats,
}

impl CoopReport {
    /// The schedule-independent part of the counters, bit-identical
    /// across device counts, dispatch orders, and host schedules for every
    /// [`CoopKernel`].
    pub fn deterministic(&self) -> BlockStats {
        self.stats.deterministic()
    }
}

/// Split `t` tile rows into (at most) `bands` contiguous non-empty bands
/// of near-equal height: band `d` spans `[d*t/b, (d+1)*t/b)`.
pub fn even_bands(t: usize, bands: usize) -> Vec<usize> {
    let b = bands.clamp(1, t);
    (0..b).map(|d| (d + 1) * t / b - d * t / b).collect()
}

/// One band: tile rows `[r0, r1)` of the grid.
struct BandPlan {
    d: usize,
    r0: usize,
    r1: usize,
}

impl BandPlan {
    /// The tile `(ti, tj)` that a look-back band's `s`-th block claim
    /// takes: the band's tiles in band-local **column-major** order. Every
    /// tile's in-band dependencies, the tile above it and the tiles to its
    /// left, come earlier in this order, as in the paper's diagonal-major
    /// serial numbers (Figure 9), so the earliest unfinished claim can
    /// always progress. Column-major also reaches the band's bottom tile
    /// row early, one column at a time, and that row is what the next
    /// band's first row waits on: on two devices consecutive bands run side
    /// by side, where row-major order finished the bottom row last and left
    /// the next band waiting for all of it. Output and the deterministic
    /// counters are identical in any such order (the look-back
    /// accumulation order is fixed by the walk, not the claim order, and a
    /// walk is charged one step).
    fn order(&self, s: usize) -> (usize, usize) {
        let h = self.r1 - self.r0;
        (self.r0 + s % h, s / h)
    }
}

/// Compute the SAT of one huge `n x n` image cooperatively across every
/// device of `group`: [`COOP_BANDS`] equal row bands, claimed in order by
/// the devices' lanes. Returns the aggregate report plus the group's
/// metrics (per-lane counters, each band's modeled seconds and the
/// replayed makespan, D2D traffic).
pub fn sat_huge_multi_device<T: DeviceElem>(
    group: &DeviceGroup,
    params: SatParams,
    kernel: CoopKernel,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    n: usize,
) -> (CoopReport, GroupMetrics) {
    let grid = TileGrid::new(n, params.w);
    let rows = even_bands(grid.t, COOP_BANDS);
    sat_huge_multi_device_bands(group, params, kernel, input, output, n, &rows)
}

/// [`sat_huge_multi_device`] with an explicit band layout. `band_rows[d]`
/// is band `d`'s height in tile rows; heights must be positive and sum to
/// the grid's tile-row count. Skewed layouts are how the scheduling tests
/// provoke load imbalance.
pub fn sat_huge_multi_device_bands<T: DeviceElem>(
    group: &DeviceGroup,
    params: SatParams,
    kernel: CoopKernel,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    n: usize,
    band_rows: &[usize],
) -> (CoopReport, GroupMetrics) {
    let grid = TileGrid::new(n, params.w);
    assert_eq!(input.len(), n * n, "input is not n x n");
    assert_eq!(output.len(), n * n, "output is not n x n");
    assert!(!band_rows.is_empty(), "at least one band");
    assert!(band_rows.iter().all(|&h| h > 0), "bands must be non-empty");
    assert_eq!(band_rows.iter().sum::<usize>(), grid.t, "bands must cover the grid");

    let mut r0 = 0;
    let bands: Vec<BandPlan> = band_rows
        .iter()
        .enumerate()
        .map(|(d, &h)| {
            let plan = BandPlan { d, r0, r1: r0 + h };
            r0 += h;
            plan
        })
        .collect();

    let gm = match kernel {
        CoopKernel::TwoROneW => run_coop_2r1w(group, params, input, output, grid, &bands),
        CoopKernel::SkssLb | CoopKernel::SkssSh => run_coop_skss(group, params, kernel, input, output, grid, &bands),
    };
    let report = CoopReport {
        n,
        w: params.w,
        band_rows: band_rows.to_vec(),
        kernels: gm.kernel_calls(),
        stats: gm.total_stats(),
    };
    (report, gm)
}

/// The eager-carry 2R1W pipeline; see the module docs for the protocol and
/// its determinism argument. Disjointness of the in-place aux upgrades:
/// band `d`'s publish block overwrites `GS` tile-row `r0 - 1` and its
/// carry grid overwrites `GCS` row `r0 - 1` and adds to both arrays' rows
/// `r0 .. r1-2`, all after waiting on flag `d - 1`; its own k3 reads
/// exactly rows `r0-1 .. r1-2`. Band `d`'s k2 wrote and re-read row
/// `r1 - 1` *before* its publish raised flag `d`, and that row is the one
/// band `d + 1` overwrites *after* waiting on flag `d`. No two bands ever
/// touch the same row unordered.
fn run_coop_2r1w<T: DeviceElem>(
    group: &DeviceGroup,
    params: SatParams,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    grid: TileGrid,
    bands: &[BandPlan],
) -> GroupMetrics {
    let (n, t, w) = (grid.n, grid.t, grid.w);
    let aux = TwoROneWAux::<T>::new(grid);
    // Peer-visible boundary exchange: row `d` holds band d's total column
    // sums (its last band-local GCS row, n elements). Written and read with
    // the unaccounted host accessors and charged explicitly as one D2D
    // transfer per crossing: peer traffic must not double-charge the DRAM
    // counters. A row is landed data on every band that charged its pull.
    let bounds = GlobalBuffer::<T>::zeroed(bands.len() * n);
    let flags = StatusBoard::new(bands.len());
    let row_bytes = n as u64 * T::BYTES;
    // Carry into column `x`: band rows `0..d` of `bounds`, summed in
    // ascending band order.
    let carry = |d: usize, x: usize| (0..d).fold(T::zero(), |c, e| c.add(bounds.host_read(e * n + x)));

    let run_band = |gpu: &Gpu, band: &BandPlan| -> RunMetrics {
        let (d, r0, r1) = (band.d, band.r0, band.r1);
        let h = r1 - r0;
        let tpb = params.threads_per_block.min(gpu.config().max_threads_per_block);
        let stpb = w.min(tpb);
        let mut rm = RunMetrics::default();

        // k1 over the band's h*t tiles.
        rm.push(gpu.launch(LaunchConfig::new("coop_2r1w_k1", h * t, tpb), |ctx| {
            let b = ctx.block_idx();
            two_r_one_w::k1_tile(ctx, input, &aux, r0 + b / t, b % t);
        }));

        // Band-local k2: h full-width row scans (GRS is already global),
        // t column scans over the band's rows, one band GS grid scan. Each
        // column scan then reads its segment of the band's last GCS row
        // back (`k2_col_scan` keeps its running sum private) and copies it
        // into the band's `bounds` row.
        rm.push(gpu.launch(LaunchConfig::new("coop_2r1w_k2", h + t + 1, stpb), |ctx| {
            let b = ctx.block_idx();
            if b < h {
                two_r_one_w::k2_row_scan(ctx, &aux, r0 + b);
            } else if b < h + t {
                let tj = b - h;
                two_r_one_w::k2_col_scan(ctx, &aux, tj, r0, r1);
                let mut row: Vec<T> = ctx.scratch_overwrite(w);
                aux.gcs.read_vec_into(ctx, r1 - 1, tj, &mut row);
                for (x, &v) in row.iter().enumerate() {
                    bounds.host_write(d * n + tj * w + x, v);
                }
                ctx.recycle(row);
            } else {
                two_r_one_w::k2_grid(ctx, &aux, r0, r1);
            }
        }));

        // One block: publish the band's bounds row, then pull every earlier
        // band's. The only cross-column value of the carry, GS's column
        // prefix, is folded here from the landed rows and handed to the
        // carry grid through GS row `r0 - 1`, which is also k3's corner row.
        rm.push(gpu.launch(LaunchConfig::new("coop_publish", 1, stpb), |ctx| {
            ctx.stats.charge_d2d(1, row_bytes);
            flags.publish(ctx, d, 1);
            for e in 0..d {
                flags.wait_at_least_remote(ctx, e, 1);
                ctx.stats.charge_d2d(1, row_bytes);
            }
            if d > 0 {
                let mut acc = T::zero();
                for tj in 0..t {
                    for x in tj * w..(tj + 1) * w {
                        acc = acc.add(carry(d, x));
                    }
                    aux.gs.write(ctx, r0 - 1, tj, acc);
                }
            }
        }));

        // The carry grid, one block per tile column: upgrade the column's
        // band-local GCS and GS rows to global values in place.
        if d > 0 {
            rm.push(gpu.launch(LaunchConfig::new("coop_carry", t, stpb), |ctx| {
                let tj = ctx.block_idx();
                // GCS rows `r0 - 1` through `r1 - 2`: the landed carry
                // segment becomes row `r0 - 1` (k3's top border) and is
                // added to the rest.
                let mut col: Vec<T> = ctx.scratch_overwrite(h * w);
                let (seg, rows) = col.split_at_mut(w);
                for (x, s) in seg.iter_mut().enumerate() {
                    *s = carry(d, tj * w + x);
                }
                aux.gcs.read_col_window_into(ctx, r0, tj, h - 1, rows);
                for row in rows.chunks_exact_mut(w) {
                    gpu_sim::simd::zip_add(row, seg);
                }
                aux.gcs.write_col_window_from(ctx, r0 - 1, tj, h, &col);
                ctx.recycle(col);
                // GS rows `r0` through `r1 - 2` of this column gain the
                // column prefix.
                let acc = aux.gs.read(ctx, r0 - 1, tj);
                for ti in r0..r1 - 1 {
                    let v = aux.gs.read(ctx, ti, tj);
                    aux.gs.write(ctx, ti, tj, v.add(acc));
                }
            }));
        }

        // k3 unchanged: every border row it reads is global by now.
        rm.push(gpu.launch(LaunchConfig::new("coop_2r1w_k3", h * t, tpb), |ctx| {
            let b = ctx.block_idx();
            two_r_one_w::k3_tile(ctx, input, output, &aux, r0 + b / t, b % t);
        }));
        rm
    };

    group.run_batch(bands.iter().collect(), run_band)
}

/// The cross-device look-back pipeline: one shared [`State`], one kernel
/// per band, tiles claimed from a band-local counter in column-major order
/// (see [`BandPlan::order`] for why that is deadlock-free and lets the next
/// band start early), `d2d_below` set to the band's first row so walks
/// that leave the band go through the interconnect.
fn run_coop_skss<T: DeviceElem>(
    group: &DeviceGroup,
    params: SatParams,
    kernel: CoopKernel,
    input: &GlobalBuffer<T>,
    output: &GlobalBuffer<T>,
    grid: TileGrid,
    bands: &[BandPlan],
) -> GroupMetrics {
    let (t, w) = (grid.t, grid.w);
    let state = State::<T>::new(grid);
    let systolic = kernel == CoopKernel::SkssSh;
    let label = kernel.name();

    let run_band = |gpu: &Gpu, band: &BandPlan| -> RunMetrics {
        let h = band.r1 - band.r0;
        let tpb = if systolic { w } else { params.threads_per_block.min(gpu.config().max_threads_per_block) };
        // The band's own wavefront spans h + t - 1 anti-diagonals; the
        // cross-band dependency is priced by the remote waits and D2D
        // charges the walks themselves record.
        let cp = CriticalPath { hops: (h + t - 1) as u64, bytes_per_hop: 0 };
        let mut lc = LaunchConfig::new(label, h * t, tpb).with_critical_path(cp);
        if systolic {
            lc = lc.with_ilp(w);
        }
        let counter = DeviceCounter::new();
        let mut rm = RunMetrics::default();
        rm.push(gpu.launch(lc, |ctx| loop {
            let s = counter.next(ctx) as usize;
            if s >= h * t {
                return;
            }
            let (ti, tj) = band.order(s);
            if systolic {
                skss_sh::process_tile_systolic(ctx, input, output, &state, ti, tj, band.r0);
            } else {
                skss_lb::process_tile(ctx, input, output, &state, ti, tj, Arrangement::Diagonal, true, band.r0);
            }
        }));
        rm
    };

    group.run_batch(bands.iter().collect(), run_band)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;
    use gpu_sim::prelude::*;

    fn coop_run(
        kernel: CoopKernel,
        devices: usize,
        mat: &Matrix<u64>,
        band_rows: &[usize],
        w: usize,
    ) -> (Matrix<u64>, CoopReport, GroupMetrics) {
        let n = mat.rows();
        let group = DeviceGroup::new(DeviceConfig::tiny(), devices);
        let params = SatParams { w, threads_per_block: w * w };
        let input = GlobalBuffer::from_slice(mat.as_slice());
        let output = GlobalBuffer::<u64>::zeroed(n * n);
        let (report, gm) = sat_huge_multi_device_bands(&group, params, kernel, &input, &output, n, band_rows);
        (Matrix::from_vec(n, n, output.to_vec()), report, gm)
    }

    #[test]
    fn even_bands_cover_the_grid() {
        assert_eq!(even_bands(8, 8), vec![1; 8]);
        assert_eq!(even_bands(7, 3), vec![2, 2, 3]);
        assert_eq!(even_bands(3, 8), vec![1, 1, 1]);
        assert_eq!(even_bands(12, 1), vec![12]);
        for (t, b) in [(5, 2), (64, 8), (9, 4)] {
            let rows = even_bands(t, b);
            assert_eq!(rows.iter().sum::<usize>(), t);
            assert!(rows.iter().all(|&h| h > 0));
        }
    }

    #[test]
    fn coop_2r1w_is_exact_and_counter_deterministic() {
        let n = 64;
        let w = 8;
        let mat = Matrix::<u64>::random(n, n, 11, 100);
        let want = reference::sat(&mat);
        let bands = even_bands(n / w, COOP_BANDS);
        let (out1, rep1, gm1) = coop_run(CoopKernel::TwoROneW, 1, &mat, &bands, w);
        assert_eq!(out1, want);
        // Boundary exchange: one publish per band, d pulls for band d.
        let b = bands.len() as u64;
        assert_eq!(gm1.d2d_transfers(), b + b * (b - 1) / 2);
        assert_eq!(gm1.d2d_bytes(), gm1.d2d_transfers() * (n as u64) * 8);
        for devices in [2, 4] {
            let (out, rep, gm) = coop_run(CoopKernel::TwoROneW, devices, &mat, &bands, w);
            assert_eq!(out, want, "{devices} devices");
            assert_eq!(rep.kernels, rep1.kernels);
            assert_eq!(rep.deterministic(), rep1.deterministic(), "{devices} devices");
            assert_eq!(gm.d2d_transfers(), gm1.d2d_transfers());
        }
    }

    #[test]
    fn coop_2r1w_skewed_bands_are_exact() {
        let n = 48;
        let w = 8; // t = 6
        let mat = Matrix::<u64>::random(n, n, 23, 100);
        let want = reference::sat(&mat);
        for bands in [vec![1, 1, 4], vec![5, 1], vec![6], vec![1; 6]] {
            let (out, _, _) = coop_run(CoopKernel::TwoROneW, 2, &mat, &bands, w);
            assert_eq!(out, want, "bands {bands:?}");
        }
    }

    #[test]
    fn coop_lookback_kernels_match_reference_across_devices() {
        let n = 64;
        let w = 8;
        let mat = Matrix::<u64>::random(n, n, 37, 100);
        let want = reference::sat(&mat);
        let bands = even_bands(n / w, 4);
        for kernel in [CoopKernel::SkssLb, CoopKernel::SkssSh] {
            let (out1, rep1, _) = coop_run(kernel, 1, &mat, &bands, w);
            assert_eq!(out1, want, "{kernel:?} single device");
            for devices in [2, 4] {
                let (out, rep, _) = coop_run(kernel, devices, &mat, &bands, w);
                assert_eq!(out, want, "{kernel:?} {devices} devices");
                assert_eq!(rep.deterministic(), rep1.deterministic(), "{kernel:?} {devices} devices");
            }
        }
    }
}
