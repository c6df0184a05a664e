//! Call accounting: every call the benchmark makes into the library is
//! timed and its deterministic counters compared with the first call of
//! the same configuration; every call of a timed pass also has its output
//! zeroed before it and checked against the host reference after it,
//! outside the timed interval. A wrong output,
//! counter drift or a panic counts as one failed call and the run goes on.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpu_sim::device::DeviceConfig;
use gpu_sim::global::GlobalBuffer;
use gpu_sim::group::GroupMetrics;
use gpu_sim::metrics::{BlockStats, RunMetrics};
use gpu_sim::timing::{kernel_time, run_seconds, KernelTime};

use crate::trace::Recorder;

/// Which counter subset must repeat exactly across calls of one
/// configuration (the masks `sat-cli bench-json` applies).
#[derive(Clone, Copy)]
pub enum Mask {
    /// `deterministic()`: Sequential execution and the eager-carry
    /// cooperative pipeline.
    Full,
    /// Writes, written bytes and bank conflicts: Concurrent execution,
    /// where look-back walk lengths follow the thread schedule.
    WriteSide,
    /// `deterministic_lookback()`: cooperative look-back.
    Lookback,
}

impl Mask {
    fn key(self, s: &BlockStats) -> BlockStats {
        match self {
            Mask::Full => s.deterministic(),
            Mask::WriteSide => BlockStats {
                global_writes: s.global_writes,
                bytes_written: s.bytes_written,
                bank_conflict_cycles: s.bank_conflict_cycles,
                ..BlockStats::default()
            },
            Mask::Lookback => s.deterministic_lookback(),
        }
    }
}

/// The modeled terms of [`KernelTime`] in a fixed order: launch, traffic,
/// shared, critical path, drain, d2d (seconds).
pub type Terms = [f64; 6];

pub fn terms(t: &KernelTime) -> Terms {
    [t.launch, t.traffic, t.shared, t.critical_path, t.drain, t.d2d]
}

/// Per-lane summary of a [`GroupMetrics`].
#[derive(Clone, Copy, Default)]
pub struct Group {
    pub lanes: usize,
    pub busy_s: f64,
    pub wall_s: f64,
    pub device_s: f64,
    pub completion_s: f64,
    pub steals: usize,
    pub handoffs: u64,
}

impl Group {
    pub fn of(gm: &GroupMetrics) -> Self {
        Group {
            lanes: gm.lanes.len(),
            busy_s: gm.lanes.iter().map(|l| l.busy_seconds).sum(),
            wall_s: gm.wall_seconds,
            device_s: gm.modeled_device_seconds(),
            completion_s: gm.modeled_completion_seconds(),
            steals: gm.steal_events(),
            handoffs: gm.token_handoffs(),
        }
    }
}

/// What one call returned, reduced to the numbers the metrics use.
#[derive(Clone, Default)]
pub struct Returned {
    pub stats: BlockStats,
    pub kernels: usize,
    /// Host seconds the library attributes to kernels: the sum of
    /// `KernelMetrics::host_seconds`, or the lanes' busy seconds for a
    /// group call; 0 when the call reports none.
    pub host_kernel_s: f64,
    /// Modeled seconds of the call; 0 when the call is not modeled.
    pub modeled_s: f64,
    pub terms: Terms,
    pub group: Option<Group>,
}

impl Returned {
    pub fn of_run(cfg: &DeviceConfig, rm: &RunMetrics) -> Self {
        let mut t = [0.0; 6];
        for k in &rm.kernels {
            for (acc, x) in t.iter_mut().zip(terms(&kernel_time(cfg, k))) {
                *acc += x;
            }
        }
        Returned {
            stats: rm.total_stats(),
            kernels: rm.kernel_calls(),
            host_kernel_s: rm.host_seconds(),
            modeled_s: run_seconds(cfg, rm),
            terms: t,
            group: None,
        }
    }

    pub fn bytes(&self) -> u64 {
        self.stats.bytes_read + self.stats.bytes_written
    }
}

/// One call into the library.
pub struct Call {
    /// Timed pass the call belongs to; `None` for set-up warm-up calls.
    pub pass: Option<usize>,
    pub label: &'static str,
    pub n: usize,
    pub devices: usize,
    pub images: usize,
    /// Counts towards the SAT end-to-end metrics (false for duplication).
    pub sat: bool,
    pub wall: f64,
    pub ret: Returned,
}

impl Call {
    pub fn elems(&self) -> f64 {
        (self.images * self.n * self.n) as f64
    }

    /// Span name of the call's configuration, e.g. `skss_lb@4096` or
    /// `coop_2r1w@8192x2`.
    pub fn name(label: &str, n: usize, devices: usize) -> String {
        if devices > 1 || label.starts_with("coop") {
            format!("{label}@{n}x{devices}")
        } else {
            format!("{label}@{n}")
        }
    }
}

/// Description of a call about to be made.
pub struct Spec {
    pub label: &'static str,
    pub n: usize,
    pub devices: usize,
    pub images: usize,
    pub sat: bool,
    pub mask: Mask,
}

/// The device buffers a call writes, each with what it must hold after the
/// call.
pub type Outputs<'a> = [(&'a GlobalBuffer<u32>, &'a [u32])];

#[derive(Default)]
pub struct Book {
    pub calls: Vec<Call>,
    /// Wall seconds of each timed pass, and whether it was traced.
    pub passes: Vec<(f64, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Current timed pass; `None` during set-up.
    pub pass: Option<usize>,
    /// Corrupt one output element of the next timed call before it is
    /// verified (the self-test's probe).
    pub corrupt_next: bool,
    refs: BTreeMap<String, BlockStats>,
}

impl Book {
    /// Time `run` and compare its counters under `spec.mask`. In a timed
    /// pass, also zero `outputs` before the call and verify them after it.
    /// Set-up calls only warm up: checking their outputs is the benchmark's
    /// work, which set-up time leaves out, and every configuration is
    /// checked again in each timed pass.
    pub fn call(&mut self, rec: &Recorder, spec: Spec, outputs: &Outputs, run: impl FnOnce() -> Returned) {
        let name = Call::name(spec.label, spec.n, spec.devices);
        let timed = self.pass.is_some();
        self.attempted += 1;
        if timed {
            rec.span("check", &format!("reset:{name}"), || {
                for (out, _) in outputs {
                    out.host_fill(0);
                }
            });
        }
        // Warm-up calls get a span category of their own, so per-layer host
        // times come from timed passes only.
        let call_cat = if timed { "call" } else { "setup.call" };
        let Ok((ret, wall, id)) = catch_unwind(AssertUnwindSafe(|| rec.span(call_cat, &name, run))) else {
            eprintln!("perfbench: {name} panicked");
            self.failed += 1;
            return;
        };
        if self.corrupt_next && timed {
            self.corrupt_next = false;
            let out = outputs[0].0;
            out.host_write(0, out.host_read(0).wrapping_add(1));
        }
        let output_ok =
            !timed || rec.span("check", &format!("verify:{name}"), || outputs.iter().all(|(o, want)| holds(o, want))).0;
        let key = spec.mask.key(&ret.stats);
        let counters_ok = *self.refs.entry(name.clone()).or_insert_with(|| key.clone()) == key;
        if !output_ok {
            eprintln!("perfbench: {name} produced a wrong output");
        }
        if !counters_ok {
            eprintln!("perfbench: {name} counter drift against its first call");
        }
        if !(output_ok && counters_ok) {
            self.failed += 1;
        }
        rec.annotate(
            id,
            &[
                ("n", spec.n as f64),
                ("devices", spec.devices as f64),
                ("images", spec.images as f64),
                ("kernels", ret.kernels as f64),
                ("bytes", ret.bytes() as f64),
                ("modeled_ms", ret.modeled_s * 1e3),
                ("flag_waits", ret.stats.flag_waits as f64),
                ("park_events", ret.stats.park_events as f64),
                ("wakeups", ret.stats.wakeups as f64),
                ("token_handoffs", ret.stats.token_handoffs as f64),
                ("d2d_transfers", ret.stats.d2d_transfers as f64),
            ],
        );
        self.calls.push(Call {
            pass: self.pass,
            label: spec.label,
            n: spec.n,
            devices: spec.devices,
            images: spec.images,
            sat: spec.sat,
            wall,
            ret,
        });
    }

    /// Calls made in timed passes (set-up warm-ups excluded).
    pub fn timed(&self) -> impl Iterator<Item = &Call> {
        self.calls.iter().filter(|c| c.pass.is_some())
    }

    /// Calls made in traced timed passes.
    pub fn traced(&self) -> impl Iterator<Item = &Call> {
        self.timed().filter(|c| c.pass.is_some_and(|p| self.passes[p].1))
    }
}

/// Whether device buffer `out` holds exactly `want`.
fn holds(out: &GlobalBuffer<u32>, want: &[u32]) -> bool {
    out.len() == want.len() && want.iter().enumerate().all(|(i, &w)| out.host_read(i) == w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec { label: "x", n: 4, devices: 1, images: 1, sat: true, mask: Mask::Full }
    }

    fn returned(writes: u64, polls: u64) -> Returned {
        let stats = BlockStats { global_writes: writes, flag_poll_iterations: polls, ..BlockStats::default() };
        Returned { stats, ..Returned::default() }
    }

    #[test]
    fn wrong_output_drift_and_panics_each_count_once() {
        let rec = Recorder::new(false);
        let mut book = Book::default();
        let out = GlobalBuffer::<u32>::zeroed(2);
        let (zeros, ones) = ([0u32; 2], [1u32; 2]);
        book.pass = Some(0);
        book.call(&rec, spec(), &[(&out, &zeros)], || returned(16, 1));
        book.call(&rec, spec(), &[(&out, &zeros)], || returned(16, 9));
        assert_eq!((book.attempted, book.failed), (2, 0), "poll counts are masked");
        book.call(&rec, spec(), &[(&out, &zeros)], || returned(17, 1));
        book.call(&rec, spec(), &[(&out, &ones)], || returned(16, 1));
        book.call(&rec, spec(), &[(&out, &zeros)], || panic!("expected"));
        assert_eq!((book.attempted, book.failed), (5, 3));
        assert_eq!(book.calls.len(), 4);
    }

    #[test]
    fn timed_outputs_are_zeroed_and_set_up_outputs_are_not_checked() {
        let rec = Recorder::new(false);
        let mut book = Book::default();
        let out = GlobalBuffer::<u32>::from_slice(&[7, 7]);
        book.call(&rec, spec(), &[(&out, &[1, 1])], Returned::default);
        assert_eq!((book.failed, out.host_read(0)), (0, 7), "set-up calls only warm up");
        book.pass = Some(0);
        book.call(&rec, spec(), &[(&out, &[7, 7])], Returned::default);
        assert_eq!(book.failed, 1, "a stale output does not pass for a fresh one");
    }

    #[test]
    fn corruption_probe_hits_the_first_timed_call_only() {
        let rec = Recorder::new(false);
        let out = GlobalBuffer::<u32>::zeroed(3);
        let want = [1u32, 2, 3];
        let write = || {
            for (i, &v) in want.iter().enumerate() {
                out.host_write(i, v);
            }
            Returned::default()
        };
        let mut book = Book { corrupt_next: true, ..Book::default() };
        book.call(&rec, spec(), &[(&out, &want)], write);
        assert_eq!(book.failed, 0, "set-up calls are not probed");
        book.pass = Some(0);
        for _ in 0..2 {
            book.call(&rec, spec(), &[(&out, &want)], write);
        }
        assert_eq!(book.failed, 1);
    }

    #[test]
    fn write_side_mask_ignores_reads() {
        let a = BlockStats { global_reads: 5, global_writes: 3, ..BlockStats::default() };
        let b = BlockStats { global_reads: 6, global_writes: 3, ..BlockStats::default() };
        assert!(Mask::WriteSide.key(&a) == Mask::WriteSide.key(&b));
        assert!(Mask::Full.key(&a) != Mask::Full.key(&b));
    }
}
