//! `coop_8k`: one 8192² image through
//! `satcore::coop::sat_huge_multi_device` with the eager-carry 2R1W and
//! the look-back SKSS-LB pipelines, on groups of 1 and 2 devices (never
//! more than the host's cores).

use gpu_sim::prelude::*;
use satcore::prelude::*;

use crate::book::{terms, Book, Group, Mask, Returned, Spec};
use crate::host::{digest, input_seed, nproc, DIGEST_INIT};
use crate::{Ctx, Workload};

/// Each array is 256 MiB, about 2.4 times a 105 MiB LLC, so every call
/// streams from DRAM. At 16384² (1 GiB arrays) a 10 s run held only three
/// passes, and run medians spread by up to 28% between runs.
pub const N: usize = 8192;

pub const KERNELS: [(CoopKernel, &str); 2] =
    [(CoopKernel::TwoROneW, "coop_2r1w"), (CoopKernel::SkssLb, "coop_skss_lb")];

/// Device counts of the groups: 1 and 2, capped at the host's cores.
pub fn device_counts() -> Vec<usize> {
    let mut v = vec![1, nproc().min(2)];
    v.dedup();
    v
}

pub struct Coop {
    groups: Vec<DeviceGroup>,
    input: GlobalBuffer<u32>,
    output: GlobalBuffer<u32>,
    expect: Matrix<u32>,
}

/// Modeled terms of a cooperative call. `CoopReport` carries only the
/// call's summed counters, so the model is applied to them as one
/// full-grid kernel, with one launch charged per band kernel.
fn coop_terms(cfg: &DeviceConfig, params: SatParams, kernels: usize, stats: &BlockStats) -> crate::book::Terms {
    let k = KernelMetrics {
        label: "coop".into(),
        blocks: (N / params.w).pow(2),
        threads_per_block: params.threads_per_block,
        stats: stats.clone(),
        critical_path: CriticalPath::NONE,
        ilp: 1,
        host_seconds: 0.0,
    };
    let mut t = terms(&kernel_time(cfg, &k));
    t[0] = cfg.kernel_launch_overhead * kernels as f64;
    t
}

impl Coop {
    fn call(&self, ctx: &Ctx, book: &mut Book, kernel: CoopKernel, label: &'static str, group: &DeviceGroup) {
        let params = SatParams::paper(32);
        let mask = if kernel == CoopKernel::TwoROneW { Mask::Full } else { Mask::Lookback };
        let spec = Spec { label, n: N, devices: group.len(), images: 1, sat: true, mask };
        book.call(&ctx.rec, spec, &[(&self.output, self.expect.as_slice())], || {
            let (r, gm) = sat_huge_multi_device(group, params, kernel, &self.input, &self.output, N);
            let lanes = Group::of(&gm);
            Returned {
                terms: coop_terms(group.device(0).config(), params, r.kernels, &r.stats),
                stats: r.stats,
                kernels: r.kernels,
                host_kernel_s: lanes.busy_s,
                modeled_s: lanes.completion_s,
                group: Some(lanes),
            }
        });
    }
}

impl Workload for Coop {
    fn setup(ctx: &Ctx, book: &mut Book) -> Self {
        let rec = &ctx.rec;
        let source = rec
            .span("setup.input", &format!("input@{N}"), || Matrix::<u32>::random(N, N, input_seed(ctx.seed, N, 0), 4))
            .0;
        let (expect, _, id) =
            rec.span("setup.reference", &format!("reference@{N}"), || satcore::reference::sat(&source));
        rec.annotate(id, &[("elems", (N * N) as f64)]);
        let (input, output) = rec
            .span("setup.upload", &format!("upload@{N}"), || {
                let input = source.to_device();
                drop(source);
                (input, GlobalBuffer::zeroed(N * N))
            })
            .0;
        let groups = rec
            .span("setup.devices", "groups", || {
                device_counts().into_iter().map(|d| DeviceGroup::new(DeviceConfig::titan_v(), d)).collect()
            })
            .0;
        let w = Coop { groups, input, output, expect };
        // Every configuration once, so no timed call is a group's first.
        rec.span("setup.warmup", "warmup", || w.pass(ctx, book));
        w
    }

    fn pass(&self, ctx: &Ctx, book: &mut Book) {
        for (kernel, label) in KERNELS {
            for group in &self.groups {
                self.call(ctx, book, kernel, label, group);
            }
        }
    }

    fn digest(&self) -> u64 {
        digest((0..self.input.len()).map(|i| self.input.host_read(i)), DIGEST_INIT)
    }

    fn floor_sizes(&self) -> Vec<usize> {
        vec![N]
    }
}
