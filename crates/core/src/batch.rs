//! Batched SAT throughput pipeline.
//!
//! A server-style workload computes SATs over a queue of many (small)
//! images, where images/s matters more than single-image latency. Three
//! execution strategies over the same 2R1W kernels
//! ([`crate::alg::two_r_one_w`]):
//!
//! * [`sat_batch_serial`] — one image at a time, each kernel a blocking
//!   [`Gpu::launch`]. The calling thread runs each kernel's blocks itself,
//!   so no kernel waits on a hand-off to another thread; but each launch
//!   returns only after its last block, so kernels never overlap. The
//!   multi-block k2 wakes an idle pool worker to help only when its
//!   measured blocks outlast the pool's measured wake latency, which on
//!   one-tile images they do not.
//! * [`sat_batch_streamed`] — images split over a few resident lanes of
//!   the one device ([`Gpu::run_batch`]), as a CUDA server splits them
//!   over a few streams: lane 0 on the calling thread, the others on the
//!   device's pool threads. Each lane runs its images one after another,
//!   each image's three kernels in order (k1 → k2 → k3, the data
//!   dependency), while the other lanes run theirs beside it on the other
//!   host cores, which the serial call's short grids cannot use.
//! * [`sat_batch_multi_device`] — images sharded across the devices of a
//!   [`DeviceGroup`] with work stealing. Each image's three kernels run
//!   unchanged on whichever device the scheduler lands the image on
//!   (images never split across devices — the k1 → k2 → k3 chain stays
//!   device-local, so no cross-device synchronization is ever needed),
//!   and the group reports a per-device [`GroupMetrics`] breakdown on top
//!   of the usual [`BatchReport`].
//!
//! The last two run the same per-image job on the same lane driver. All
//! three strategies charge identical deterministic counters: the counters
//! are per-block quantities accumulated by the kernels themselves, and
//! neither overlap, the lane nor the device an image lands on changes what
//! any block does (2R1W has no inter-block flag waits, so even poll counts
//! match). [`BatchReport`] exposes the aggregate so callers — perfbench's
//! `batch_tiny` workload, the scheduling-parity tests — can assert it.

use std::sync::Arc;

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::group::{DeviceGroup, GroupMetrics, StealPolicy};
use gpu_sim::launch::Gpu;
use gpu_sim::metrics::{BlockStats, RunMetrics};

use crate::alg::two_r_one_w::{k1_local_sums, k2_global_sums, k3_gsat, launch_plan, TwoROneWAux};
use crate::alg::SatParams;
use crate::tile::TileGrid;

/// One image of a batch: device input and output buffers for an `n x n`
/// matrix, each behind an `Arc` so callers can share them.
pub struct BatchImage<T: DeviceElem> {
    /// Input matrix, row-major `n * n` elements.
    pub input: Arc<GlobalBuffer<T>>,
    /// Output SAT, same shape.
    pub output: Arc<GlobalBuffer<T>>,
    /// Matrix side length.
    pub n: usize,
}

impl<T: DeviceElem> BatchImage<T> {
    /// Allocate device buffers for `src`, an `n x n` row-major matrix.
    pub fn from_host(src: &[T], n: usize) -> Self {
        assert_eq!(src.len(), n * n, "input is not n x n");
        BatchImage {
            input: Arc::new(GlobalBuffer::from_slice(src)),
            output: Arc::new(GlobalBuffer::zeroed(n * n)),
            n,
        }
    }
}

/// Aggregate result of one batch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Number of images processed.
    pub images: usize,
    /// Total kernel launches (three per image for 2R1W).
    pub kernels: usize,
    /// Field-wise sum of every launch's counters.
    pub stats: BlockStats,
}

impl BatchReport {
    /// The schedule-independent part of the aggregate counters; identical
    /// between [`sat_batch_serial`] and [`sat_batch_streamed`] by the
    /// accounting contract.
    pub fn deterministic(&self) -> BlockStats {
        self.stats.deterministic()
    }
}

fn tpb(gpu: &Gpu, params: SatParams) -> usize {
    params.threads_per_block.min(gpu.config().max_threads_per_block)
}

/// Run 2R1W over every image, one blocking launch at a time.
pub fn sat_batch_serial<T: DeviceElem>(gpu: &Gpu, params: SatParams, images: &[BatchImage<T>]) -> BatchReport {
    let mut stats = BlockStats::default();
    let mut kernels = 0;
    for img in images {
        let grid = TileGrid::new(img.n, params.w);
        let aux = TwoROneWAux::<T>::new(grid);
        let [lc1, lc2, lc3] = launch_plan(grid, tpb(gpu, params));
        stats.merge(&gpu.launch(lc1, |ctx| k1_local_sums(ctx, &*img.input, &aux)).stats);
        stats.merge(&gpu.launch(lc2, |ctx| k2_global_sums(ctx, &aux)).stats);
        stats.merge(&gpu.launch(lc3, |ctx| k3_gsat(ctx, &*img.input, &*img.output, &aux)).stats);
        kernels += 3;
    }
    BatchReport { images: images.len(), kernels, stats }
}

/// Run 2R1W over every image on `streams` resident lanes of `gpu`
/// ([`Gpu::run_batch`]): lane *l* takes a contiguous share of the images
/// and runs each one's three kernels in order, and the lanes overlap.
/// `streams` is clamped to `1..=`[`Gpu::host_parallelism`]: each lane holds
/// one of the device pool's execution tokens, and lanes beyond its worker
/// count would share cores. Each launch runs inline on its lane unless the
/// pool's measurements give it a helper; a one-tile image's grids are too
/// short for one.
pub fn sat_batch_streamed<T: DeviceElem>(
    gpu: &Gpu,
    params: SatParams,
    images: &[BatchImage<T>],
    streams: usize,
) -> BatchReport {
    let (kernels, stats) = gpu.run_batch(streams, images.iter().collect(), |gpu, img| sat_image(gpu, params, img));
    BatchReport { images: images.len(), kernels, stats }
}

/// One job of a lane batch: `img`'s three 2R1W kernels, in order, on the
/// lane handle `gpu`.
fn sat_image<T: DeviceElem>(gpu: &Gpu, params: SatParams, img: &BatchImage<T>) -> RunMetrics {
    let grid = TileGrid::new(img.n, params.w);
    let aux = TwoROneWAux::<T>::new(grid);
    let [lc1, lc2, lc3] = launch_plan(grid, tpb(gpu, params));
    let mut rm = RunMetrics::default();
    rm.push(gpu.launch(lc1, |ctx| k1_local_sums(ctx, &*img.input, &aux)));
    rm.push(gpu.launch(lc2, |ctx| k2_global_sums(ctx, &aux)));
    rm.push(gpu.launch(lc3, |ctx| k3_gsat(ctx, &*img.input, &*img.output, &aux)));
    rm
}

/// Run 2R1W over every image, sharded across the devices of `group` with
/// work stealing ([`StealPolicy::StealOnIdle`]).
///
/// Whole images are the unit of scheduling: each image's k1 → k2 → k3
/// chain runs as three launches on one device's resident lane driver, so
/// the only cross-device interaction is the host handing out jobs. Each
/// launch runs inline on the lane unless the device pool's measurements
/// give it a helper; a one-tile image's grids are too short for one. Returns the usual [`BatchReport`] (totals are bit-identical to
/// [`sat_batch_serial`] on the deterministic subset, for any device count
/// and steal schedule) plus the group's per-device [`GroupMetrics`].
pub fn sat_batch_multi_device<T: DeviceElem>(
    group: &DeviceGroup,
    params: SatParams,
    images: &[BatchImage<T>],
) -> (BatchReport, GroupMetrics) {
    sat_batch_multi_device_policy(group, params, images, StealPolicy::StealOnIdle)
}

/// [`sat_batch_multi_device`] under an explicit [`StealPolicy`];
/// [`StealPolicy::Disabled`] is the static-shard baseline the skewed-load
/// tests compare stealing against.
pub fn sat_batch_multi_device_policy<T: DeviceElem>(
    group: &DeviceGroup,
    params: SatParams,
    images: &[BatchImage<T>],
    policy: StealPolicy,
) -> (BatchReport, GroupMetrics) {
    let gm = group.run_batch(images.iter().collect(), policy, |gpu, img| sat_image(gpu, params, img));
    let report =
        BatchReport { images: images.len(), kernels: gm.kernel_calls(), stats: gm.total_stats() };
    (report, gm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;
    use gpu_sim::prelude::*;

    fn batch(count: usize, n: usize, seed: u64) -> (Vec<Matrix<u64>>, Vec<BatchImage<u64>>) {
        let mats: Vec<_> = (0..count).map(|i| Matrix::<u64>::random(n, n, seed + i as u64, 100)).collect();
        let imgs = mats.iter().map(|m| BatchImage::from_host(m.as_slice(), n)).collect();
        (mats, imgs)
    }

    fn check_outputs(mats: &[Matrix<u64>], imgs: &[BatchImage<u64>], n: usize) {
        for (m, img) in mats.iter().zip(imgs) {
            let got = Matrix::from_vec(n, n, img.output.to_vec());
            assert_eq!(got, reference::sat(m));
        }
    }

    #[test]
    fn serial_batch_matches_reference() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let params = SatParams { w: 8, threads_per_block: 64 };
        let (mats, imgs) = batch(4, 16, 21);
        let report = sat_batch_serial(&gpu, params, &imgs);
        assert_eq!(report.images, 4);
        assert_eq!(report.kernels, 12);
        check_outputs(&mats, &imgs, 16);
    }

    #[test]
    fn streamed_batch_matches_reference_and_serial_counters() {
        for mode in [ExecMode::Sequential, ExecMode::Concurrent] {
            let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(mode);
            let params = SatParams { w: 8, threads_per_block: 64 };
            let (mats, imgs) = batch(5, 16, 33);
            let serial = sat_batch_serial(&gpu, params, &imgs);
            for img in &imgs {
                img.output.host_fill(0);
            }
            let streamed = sat_batch_streamed(&gpu, params, &imgs, 3);
            check_outputs(&mats, &imgs, 16);
            assert_eq!(streamed.images, serial.images);
            assert_eq!(streamed.kernels, serial.kernels);
            assert_eq!(streamed.deterministic(), serial.deterministic(), "mode {mode:?}");
        }
    }

    #[test]
    fn streamed_batch_single_stream_is_fully_ordered() {
        let gpu = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
        let params = SatParams { w: 4, threads_per_block: 16 };
        let (mats, imgs) = batch(3, 8, 55);
        let report = sat_batch_streamed(&gpu, params, &imgs, 1);
        assert_eq!(report.kernels, 9);
        check_outputs(&mats, &imgs, 8);
    }

    #[test]
    fn multi_device_batch_matches_reference_and_serial_counters() {
        let params = SatParams { w: 8, threads_per_block: 64 };
        let (mats, imgs) = batch(9, 16, 77);
        let serial = sat_batch_serial(&Gpu::new(DeviceConfig::tiny()), params, &imgs);
        for devices in [1, 2, 4] {
            for policy in [StealPolicy::Disabled, StealPolicy::StealOnIdle] {
                for img in &imgs {
                    img.output.host_fill(0);
                }
                let group = DeviceGroup::new(DeviceConfig::tiny(), devices);
                let (report, gm) = sat_batch_multi_device_policy(&group, params, &imgs, policy);
                check_outputs(&mats, &imgs, 16);
                assert_eq!(report.images, 9);
                assert_eq!(report.kernels, serial.kernels, "{devices} devices, {policy:?}");
                assert_eq!(
                    report.deterministic(),
                    serial.deterministic(),
                    "{devices} devices, {policy:?}"
                );
                assert_eq!(gm.lanes.len(), devices);
                assert_eq!(gm.total_jobs(), 9);
                assert_eq!(gm.deterministic(), report.deterministic());
            }
        }
    }

    #[test]
    fn empty_batch() {
        let gpu = Gpu::new(DeviceConfig::tiny());
        let params = SatParams { w: 4, threads_per_block: 16 };
        let imgs: Vec<BatchImage<u64>> = Vec::new();
        let serial = sat_batch_serial(&gpu, params, &imgs);
        let streamed = sat_batch_streamed(&gpu, params, &imgs, 4);
        assert_eq!(serial.images, 0);
        assert_eq!(streamed.kernels, 0);
        assert_eq!(serial.deterministic(), streamed.deterministic());
    }
}
