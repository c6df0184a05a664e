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
//! * [`sat_batch_multi_device`] — images spread over the devices of a
//!   [`DeviceGroup`], one resident lane per device, each lane claiming the
//!   next image from one counter. Each image's three kernels run unchanged
//!   on whichever device claimed the image (images never split across
//!   devices — the k1 → k2 → k3 chain stays device-local, so no
//!   cross-device synchronization is ever needed), and the group reports
//!   a [`GroupMetrics`] breakdown on top of the usual [`BatchReport`].
//!
//! All three run each image through [`TwoROneW`]'s own run, the one
//! per-image 2R1W path, so every batch call charges what a plain call
//! does; the last two run it on the same lane driver. All three strategies charge
//! identical deterministic counters: the counters are per-block quantities
//! accumulated by the kernels themselves, and neither overlap, the lane
//! nor the device an image lands on changes what any block does (2R1W has
//! no inter-block flag waits, so even poll counts match). [`BatchReport`]
//! exposes the aggregate so callers — perfbench's `batch_tiny` workload,
//! the scheduling-parity tests — can assert it.

use std::sync::Arc;

use gpu_sim::elem::DeviceElem;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::group::{DeviceGroup, GroupMetrics};
use gpu_sim::launch::Gpu;
use gpu_sim::metrics::BlockStats;

use crate::alg::two_r_one_w::TwoROneW;
use crate::alg::{SatAlgorithm, SatParams};

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

/// Run 2R1W over every image, one blocking launch at a time.
pub fn sat_batch_serial<T: DeviceElem>(gpu: &Gpu, params: SatParams, images: &[BatchImage<T>]) -> BatchReport {
    let alg = TwoROneW::new(params);
    let mut report = BatchReport { images: images.len(), kernels: 0, stats: BlockStats::default() };
    for img in images {
        let rm = alg.run(gpu, &*img.input, &*img.output, img.n);
        report.kernels += rm.kernel_calls();
        report.stats.merge(&rm.total_stats());
    }
    report
}

/// Run 2R1W over every image on `streams` resident lanes of `gpu`
/// ([`Gpu::run_batch`]): each lane claims the next image from one counter
/// and runs its three kernels in order, and the lanes overlap.
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
    let alg = TwoROneW::new(params);
    let (kernels, stats) =
        gpu.run_batch(streams, images.iter().collect(), |gpu, img| alg.run(gpu, &*img.input, &*img.output, img.n));
    BatchReport { images: images.len(), kernels, stats }
}

/// Run 2R1W over every image on the devices of `group`, whose lanes claim
/// the images in order from one counter ([`DeviceGroup::run_batch`]).
///
/// Whole images are the unit of scheduling: each image's k1 → k2 → k3
/// chain runs as three launches on the resident lane that claimed it, so
/// the only cross-device interaction is the host handing out jobs. Each
/// launch runs inline on the lane unless the device pool's measurements
/// give it a helper; a one-tile image's grids are too short for one.
/// Returns the usual [`BatchReport`] (totals are bit-identical to
/// [`sat_batch_serial`] on the deterministic subset, for any device count
/// and host schedule) plus the group's [`GroupMetrics`], whose modeled
/// makespan replays the in-order claims on modeled clocks.
pub fn sat_batch_multi_device<T: DeviceElem>(
    group: &DeviceGroup,
    params: SatParams,
    images: &[BatchImage<T>],
) -> (BatchReport, GroupMetrics) {
    let alg = TwoROneW::new(params);
    let gm = group.run_batch(images.iter().collect(), |gpu, img| alg.run(gpu, &*img.input, &*img.output, img.n));
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
            for img in &imgs {
                img.output.host_fill(0);
            }
            let group = DeviceGroup::new(DeviceConfig::tiny(), devices);
            let (report, gm) = sat_batch_multi_device(&group, params, &imgs);
            check_outputs(&mats, &imgs, 16);
            assert_eq!(report.images, 9);
            assert_eq!(report.kernels, serial.kernels, "{devices} devices");
            assert_eq!(report.deterministic(), serial.deterministic(), "{devices} devices");
            assert_eq!(gm.lanes.len(), devices);
            assert_eq!(gm.total_jobs(), 9);
            assert_eq!(gm.deterministic(), report.deterministic());
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
