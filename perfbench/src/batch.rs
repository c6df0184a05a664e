//! `batch_tiny`: 256 one-tile images through the three `satcore::batch`
//! entry points — serial launches and four streams on one Concurrent
//! `Gpu`, and a 2-device `DeviceGroup`.

use gpu_sim::prelude::*;
use satcore::prelude::*;

use crate::book::{Book, Group, Mask, Returned, Spec};
use crate::host::{digest, input_seed, nproc, DIGEST_INIT};
use crate::{Ctx, Workload};

pub const N: usize = 32;
pub const IMAGES: usize = 256;
pub const STREAMS: usize = 4;

pub struct Batch {
    gpu: Gpu,
    group: DeviceGroup,
    images: Vec<BatchImage<u32>>,
    expect: Vec<Matrix<u32>>,
    /// Modeled terms of one image's three 2R1W kernels. The group call
    /// returns only per-lane totals, so its terms are this times the image
    /// count (its kernels are exactly these, whichever lane runs them).
    per_image: Returned,
}

impl Batch {
    fn call(&self, ctx: &Ctx, book: &mut Book, label: &'static str, devices: usize, run: impl FnOnce() -> Returned) {
        let outputs: Vec<_> =
            self.images.iter().zip(&self.expect).map(|(img, e)| (&*img.output, e.as_slice())).collect();
        let spec = Spec { label, n: N, devices, images: IMAGES, sat: true, mask: Mask::WriteSide };
        book.call(&ctx.rec, spec, &outputs, run);
    }
}

impl Workload for Batch {
    fn setup(ctx: &Ctx, book: &mut Book) -> Self {
        let rec = &ctx.rec;
        let mats: Vec<Matrix<u32>> = rec
            .span("setup.input", &format!("input@{N}"), || {
                (0..IMAGES).map(|i| Matrix::random(N, N, input_seed(ctx.seed, N, i), 4)).collect()
            })
            .0;
        let (expect, _, id) = rec.span("setup.reference", &format!("reference@{N}"), || {
            mats.iter().map(satcore::reference::sat).collect::<Vec<_>>()
        });
        rec.annotate(id, &[("elems", (IMAGES * N * N) as f64)]);
        let images = rec
            .span("setup.upload", &format!("upload@{N}"), || {
                mats.iter().map(|m| BatchImage::from_host(m.as_slice(), N)).collect::<Vec<_>>()
            })
            .0;
        let (gpu, group) = rec
            .span("setup.devices", "gpu+group", || {
                let gpu = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Concurrent);
                (gpu, DeviceGroup::new(DeviceConfig::titan_v(), nproc().min(2)))
            })
            .0;
        let mut w = Batch { gpu, group, images, expect, per_image: Returned::default() };
        rec.span("setup.warmup", "warmup", || {
            let scratch = GlobalBuffer::<u32>::zeroed(N * N);
            let spec = Spec { label: "2r1w", n: N, devices: 1, images: 1, sat: true, mask: Mask::WriteSide };
            let mut per_image = Returned::default();
            book.call(rec, spec, &[(&scratch, w.expect[0].as_slice())], || {
                let rm = TwoROneW::new(SatParams::paper(32)).run(&w.gpu, &w.images[0].input, &scratch, N);
                per_image = Returned::of_run(w.gpu.config(), &rm);
                per_image.clone()
            });
            w.per_image = per_image;
            w.pass(ctx, book);
        });
        w
    }

    fn pass(&self, ctx: &Ctx, book: &mut Book) {
        let params = SatParams::paper(32);
        self.call(ctx, book, "serial", 1, || {
            let r = sat_batch_serial(&self.gpu, params, &self.images);
            Returned { stats: r.stats, kernels: r.kernels, ..Returned::default() }
        });
        self.call(ctx, book, "streamed", 1, || {
            let r = sat_batch_streamed(&self.gpu, params, &self.images, STREAMS);
            Returned { stats: r.stats, kernels: r.kernels, ..Returned::default() }
        });
        self.call(ctx, book, "multi_device", self.group.len(), || {
            let (r, gm) = sat_batch_multi_device(&self.group, params, &self.images);
            let group = Group::of(&gm);
            Returned {
                stats: r.stats,
                kernels: r.kernels,
                host_kernel_s: group.busy_s,
                modeled_s: group.completion_s,
                terms: self.per_image.terms.map(|t| t * IMAGES as f64),
                group: Some(group),
            }
        });
    }

    fn digest(&self) -> u64 {
        self.images.iter().fold(DIGEST_INIT, |h, img| digest(img.input.to_vec().into_iter(), h))
    }

    fn floor_sizes(&self) -> Vec<usize> {
        Vec::new()
    }
}
