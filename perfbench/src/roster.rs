//! `roster_seq` / `roster_conc`: the Table III roster through
//! `SatAlgorithm::run` (and `Duplicate::copy` for the baseline) at three
//! sizes, on one `Gpu` in Sequential or Concurrent mode.

use gpu_sim::prelude::*;
use satcore::prelude::*;

use crate::book::{Book, Mask, Returned, Spec};
use crate::host::{digest, input_seed, DIGEST_INIT};
use crate::{Ctx, Workload};

/// Roster sizes: from L2-sized working sets to 128 MiB of input plus
/// output, above a 105 MiB LLC.
pub const SIZES: [usize; 3] = [1024, 2048, 4096];

/// Table III rows in report order; `duplication` is the copy baseline.
pub const ROSTER: [&str; 9] =
    ["duplication", "2r2w", "2r2w_opt", "2r1w", "1r1w", "hybrid", "skss", "skss_lb", "skss_sh"];

/// Roster entries in the order of [`ROSTER`]: the copy baseline, then the
/// SAT algorithms of `all_algorithms`.
fn algorithms() -> Vec<Box<dyn SatAlgorithm<u32>>> {
    all_algorithms(SatParams::paper(32))
}

struct Case {
    n: usize,
    source: Matrix<u32>,
    expect: Matrix<u32>,
    input: GlobalBuffer<u32>,
    output: GlobalBuffer<u32>,
}

pub struct Roster {
    gpu: Gpu,
    cases: Vec<Case>,
    algs: Vec<Box<dyn SatAlgorithm<u32>>>,
    mask: Mask,
}

impl Workload for Roster {
    fn setup(ctx: &Ctx, book: &mut Book) -> Self {
        let rec = &ctx.rec;
        let mut cases = Vec::new();
        for n in SIZES {
            let source = rec.span("setup.input", &format!("input@{n}"), || {
                Matrix::<u32>::random(n, n, input_seed(ctx.seed, n, 0), 4)
            });
            let source = source.0;
            let (expect, _, id) =
                rec.span("setup.reference", &format!("reference@{n}"), || satcore::reference::sat(&source));
            rec.annotate(id, &[("elems", (n * n) as f64)]);
            let (input, output) = rec
                .span("setup.upload", &format!("upload@{n}"), || (source.to_device(), GlobalBuffer::zeroed(n * n)))
                .0;
            cases.push(Case { n, source, expect, input, output });
        }
        let mode = if ctx.workload == "roster_seq" { ExecMode::Sequential } else { ExecMode::Concurrent };
        let gpu = rec.span("setup.devices", "gpu", || Gpu::new(DeviceConfig::titan_v()).with_mode(mode)).0;
        let mask = if mode == ExecMode::Sequential { Mask::Full } else { Mask::WriteSide };
        let w = Roster { gpu, cases, algs: algorithms(), mask };
        rec.span("setup.warmup", "warmup", || w.pass(ctx, book));
        w
    }

    fn pass(&self, ctx: &Ctx, book: &mut Book) {
        let cfg = self.gpu.config();
        for case in &self.cases {
            let n = case.n;
            let out = &case.output;
            let spec = Spec { label: ROSTER[0], n, devices: 1, images: 1, sat: false, mask: self.mask };
            book.call(&ctx.rec, spec, &[(out, case.source.as_slice())], || {
                Returned::of_run(cfg, &Duplicate::new().copy(&self.gpu, &case.input, out))
            });
            for (label, alg) in ROSTER[1..].iter().zip(&self.algs) {
                let spec = Spec { label, n, devices: 1, images: 1, sat: true, mask: self.mask };
                book.call(&ctx.rec, spec, &[(out, case.expect.as_slice())], || {
                    Returned::of_run(cfg, &alg.run(&self.gpu, &case.input, out, n))
                });
            }
        }
    }

    fn digest(&self) -> u64 {
        self.cases.iter().fold(DIGEST_INIT, |h, c| digest(c.source.as_slice().iter().copied(), h))
    }

    fn floor_sizes(&self) -> Vec<usize> {
        SIZES.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_labels_match_the_algorithms() {
        let names: Vec<String> = algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), ROSTER.len() - 1);
        for (label, name) in ROSTER[1..].iter().zip(&names) {
            assert!(name.starts_with(label), "{label} vs {name}");
        }
    }
}
