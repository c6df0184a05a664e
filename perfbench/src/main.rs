//! `perfbench`: the repository's benchmark.
//!
//! Four closed-loop workloads, each driven from one caller thread through
//! the library's public entry points; the next call starts only when the
//! previous one returned. A run sets its workload up [`SETUP_REPS`] times
//! or more (inputs from `--seed`, host reference SATs, uploads, devices,
//! warm-up calls), then runs timed passes over the workload's fixed mix for
//! `--seconds`. Every timed call's output is checked against
//! `satcore::reference::sat` and every call's counters against the first
//! call of its configuration, outside the timed interval.
//!
//! With `--trace 0` the run prints the end-to-end metrics, on the host
//! wall clock and on the modeled TITAN V clock; with `--trace 1` it prints
//! the per-layer metrics, taken from
//! spans around the benchmark's own calls and from the metric structs the
//! calls return, and writes the spans as a Chrome trace. The last line of
//! stdout is the result object; `--manifest` prints `BENCHMARK.json`.

mod batch;
mod book;
mod coop;
mod host;
mod roster;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use book::{Book, Call};
use roster::{ROSTER, SIZES};
use stats::{median, percentile, spearman};
use trace::{Recorder, Span};

/// Set-ups per run, at least; `setup_s` is their median. Set-ups cheaper
/// than [`SETUP_BUDGET_S`] in total repeat up to [`SETUP_REPS_MAX`] times,
/// so a millisecond set-up is not a median of a few noisy samples (at 9,
/// `batch_tiny` medians still spread by 27% between runs).
const SETUP_REPS: usize = 3;
const SETUP_REPS_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Timed passes per run, however short `--seconds` is: a median of three
/// passes sets one slow pass aside.
const MIN_PASSES: usize = 3;
/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u32 = 10;

/// Workloads and why each was chosen.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "roster_seq",
        "Table III roster (9 entries, 1K/2K/4K^2) on a Sequential Gpu: L2- to DRAM-sized working sets, no worker pool or flag waits",
    ),
    (
        "roster_conc",
        "the same calls on a Concurrent Gpu: identical kernel work, so a difference from roster_seq is the executor and look-back waits",
    ),
    (
        "batch_tiny",
        "256 one-tile 32^2 images via serial, 4-stream and 2-device batch calls: launch, stream and group dispatch dominate",
    ),
    (
        "coop_8k",
        "one 8192^2 image via cooperative 2R1W and SKSS-LB on 1 and 2 devices: resident drivers, cross-device waits, D2D; DRAM-bound",
    ),
];

/// End-to-end metrics: (name, unit, better, bound). On a shared 2-core
/// host, host wall times drift by 10-30% between runs minutes apart, so
/// every wall-clock metric takes the widest bound allowed (0.25). Modeled
/// times move only where the thread schedule changes counters (look-back
/// walks, steals): over five seeds by 0.4% (`modeled_ms`) and 2.3%
/// (`modeled_scaling`, on `coop_8k`) at most. The peak resident set
/// of `batch_tiny` is 9 MiB, of
/// which thread stacks and arenas move about 4% from run to run. Per-call
/// latency percentiles spread further than any allowed bound (a median over
/// a mix of configurations lands between them, and p90 follows host
/// stalls), so they are per-layer metrics.
const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("melem_s", "Melem/s", "higher", 0.25),
    ("images_s", "images/s", "higher", 0.25),
    ("modeled_ms", "model_ms", "lower", 0.05),
    ("modeled_scaling", "x", "higher", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
];

/// `KernelTime` terms in the order of `book::Terms`.
const TERMS: [&str; 6] = ["launch", "traffic", "shared", "critical_path", "drain", "d2d"];

/// Per-layer metrics: (name, unit, better).
fn per_layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    for a in ROSTER {
        for n in SIZES {
            add(format!("alg.{a}.{n}.melem_s"), "Melem/s", "higher");
        }
    }
    for a in ROSTER {
        add(format!("alg.{a}.bytes_per_elem"), "B/elem", "lower");
    }
    for t in TERMS {
        add(format!("timing.{t}_ms"), "model_ms", "lower");
    }
    add("launch.kernels".into(), "count", "lower");
    add("launch.host_us_per_kernel".into(), "us", "lower");
    for b in ["serial", "streamed", "multi_device"] {
        add(format!("batch.{b}.images_s"), "images/s", "higher");
    }
    add("batch.streamed_over_serial".into(), "x", "higher");
    add("group.busy_frac".into(), "fraction", "higher");
    add("group.balance".into(), "fraction", "higher");
    add("group.steal_events".into(), "count", "lower");
    add("group.token_handoffs".into(), "count", "lower");
    for s in ["flag_waits", "park_events", "wakeups"] {
        add(format!("sync.{s}"), "count", "lower");
    }
    add("sync.wake_ratio".into(), "fraction", "higher");
    add("sync.poll_iterations".into(), "count", "lower");
    add("sync.backoff_events".into(), "count", "lower");
    for (_, label) in coop::KERNELS {
        let k = label.trim_start_matches("coop_");
        for d in ["1dev", "2dev"] {
            add(format!("coop.{k}.{d}.melem_s"), "Melem/s", "higher");
            add(format!("coop.{k}.{d}.modeled_ms"), "model_ms", "lower");
            add(format!("coop.{k}.{d}.host_efficiency"), "x", "higher");
            add(format!("coop.{k}.{d}.floor_ratio"), "x", "lower");
        }
        add(format!("coop.{k}.d2d_transfers"), "count", "lower");
        add(format!("coop.{k}.d2d_bytes"), "B", "lower");
    }
    for n in [SIZES[0], SIZES[1], SIZES[2], coop::N] {
        add(format!("floor.{n}.copy_gb_s"), "GB/s", "higher");
    }
    for n in SIZES {
        add(format!("alg.skss_lb.{n}.floor_ratio"), "x", "lower");
    }
    for p in ["input", "reference", "upload", "devices", "warmup"] {
        add(format!("setup.{p}_s"), "s", "lower");
    }
    for n in [batch::N, SIZES[0], SIZES[1], SIZES[2], coop::N] {
        add(format!("reference.{n}.melem_s"), "Melem/s", "higher");
    }
    for n in SIZES {
        add(format!("model.{n}.rank_corr"), "rho", "higher");
    }
    add("trace.overhead_frac".into(), "fraction", "lower");
    add("ns_per_elem_p50".into(), "ns", "lower");
    add("ns_per_elem_p90".into(), "ns", "lower");
    add("error_rate".into(), "fraction", "lower");
    v
}

/// `BENCHMARK.json`.
fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    let _ = writeln!(s, "  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{sep}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer_catalogue();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// What [`drive`] shares with the workload it runs.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub rec: Recorder,
}

/// One workload: set-up, one timed pass over its fixed mix, and what the
/// run records about its inputs.
pub trait Workload: Sized {
    /// Inputs, reference SATs, uploads, devices, and warm-up calls, each
    /// under its own `setup.*` span.
    fn setup(ctx: &Ctx, book: &mut Book) -> Self;
    fn pass(&self, ctx: &Ctx, book: &mut Book);
    /// Digest of every input image.
    fn digest(&self) -> u64;
    /// Image sides whose host copy floor the traced run measures.
    fn floor_sizes(&self) -> Vec<usize>;
}

struct Outcome {
    setups: Vec<f64>,
    digest: u64,
    floors: BTreeMap<usize, f64>,
}

fn drive<W: Workload>(ctx: &Ctx, book: &mut Book, seconds: f64, trace: bool) -> Outcome {
    let rec = &ctx.rec;
    let mut setups = Vec::new();
    let mut state: Option<W> = None;
    while setups.len() < SETUP_REPS || (setups.len() < SETUP_REPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S) {
        // Free the previous set-up first: the cooperative arrays are 256 MiB each.
        drop(state.take());
        let (w, secs, _) = rec.span("setup", "setup", || W::setup(ctx, book));
        setups.push(secs);
        state = Some(w);
    }
    let w = state.expect("at least one set-up");
    // With tracing on, every other pass runs untraced so the run measures
    // what tracing costs.
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut p = 0;
    while p < MIN_PASSES || Instant::now() < end {
        let traced = trace && p % 2 == 0;
        rec.set(traced);
        book.pass = Some(p);
        let wall = rec.span("pass", &format!("pass{p}"), || w.pass(ctx, book)).1;
        book.passes.push((wall, traced));
        p += 1;
    }
    book.pass = None;
    rec.set(trace);
    let digest = w.digest();
    let sizes = w.floor_sizes();
    drop(w);
    let floors = if trace {
        sizes.into_iter().map(|n| (n, rec.span("floor", &format!("copy@{n}"), || host::copy_gb_s(n * n)).0)).collect()
    } else {
        BTreeMap::new()
    };
    Outcome { setups, digest, floors }
}

/// Median over timed passes of the per-pass sum of `f` over the calls
/// `keep` selects.
fn per_pass(book: &Book, f: impl Fn(&Call) -> f64, keep: impl Fn(&Call) -> bool) -> f64 {
    let sums: Vec<f64> =
        (0..book.passes.len()).map(|p| book.timed().filter(|c| c.pass == Some(p) && keep(c)).map(&f).sum()).collect();
    median(&sums)
}

/// SAT calls that return a modeled time.
fn modeled(c: &Call) -> bool {
    c.sat && c.ret.modeled_s > 0.0
}

/// Worst case over the multi-device configurations of 1-device modeled
/// time ÷ N-device modeled completion, each a median over its calls.
/// Without a 1-device call of the same label, the per-job sum (device-count
/// independent) stands in for the 1-device time. 1 when no call spans
/// several devices.
fn modeled_scaling(book: &Book) -> f64 {
    let med = |label: &str, n: usize, devices: usize, f: fn(&Call) -> f64| {
        median(
            &book.timed().filter(|c| c.label == label && c.n == n && c.devices == devices).map(f).collect::<Vec<_>>(),
        )
    };
    let mut seen = Vec::new();
    let mut worst = f64::INFINITY;
    for c in book.timed().filter(|c| c.devices > 1 && c.ret.group.is_some()) {
        if seen.contains(&(c.label, c.n, c.devices)) {
            continue;
        }
        seen.push((c.label, c.n, c.devices));
        let single = med(c.label, c.n, 1, |c| c.ret.modeled_s);
        let base = if single > 0.0 {
            single
        } else {
            med(c.label, c.n, c.devices, |c| c.ret.group.map_or(0.0, |g| g.device_s))
        };
        worst = worst.min(base / med(c.label, c.n, c.devices, |c| c.ret.modeled_s));
    }
    if worst.is_finite() {
        worst
    } else {
        1.0
    }
}

fn end_to_end(book: &Book, out: &Outcome) -> BTreeMap<String, f64> {
    let sat: Vec<&Call> = book.timed().filter(|c| c.sat).collect();
    // Whole passes: work per wall second of each pass's SAT calls.
    let rate = |work: fn(&Call) -> f64| -> Vec<f64> {
        (0..book.passes.len())
            .filter_map(|p| {
                let cs = || sat.iter().filter(move |c| c.pass == Some(p));
                let wall: f64 = cs().map(|c| c.wall).sum();
                (wall > 0.0).then(|| cs().map(|c| work(c)).sum::<f64>() / wall)
            })
            .collect()
    };
    BTreeMap::from([
        ("melem_s".into(), median(&rate(|c| c.elems())) / 1e6),
        ("images_s".into(), median(&rate(|c| c.images as f64))),
        ("modeled_ms".into(), per_pass(book, |c| c.ret.modeled_s * 1e3, modeled)),
        ("modeled_scaling".into(), modeled_scaling(book)),
        ("setup_s".into(), median(&out.setups)),
        ("peak_rss_mib".into(), host::peak_rss_mib()),
    ])
}

/// The Table III algorithm a call's kernels belong to.
fn alg_of(label: &str) -> &str {
    match label {
        "serial" | "streamed" | "multi_device" | "coop_2r1w" => "2r1w",
        "coop_skss_lb" => "skss_lb",
        l => l,
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn per_layer(ctx: &Ctx, book: &Book, out: &Outcome) -> BTreeMap<String, f64> {
    let rec = &ctx.rec;
    let timed: Vec<&Call> = book.timed().collect();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let calls = |label: &str, n: usize, devices: usize| -> Vec<&Call> {
        timed.iter().copied().filter(|c| c.label == label && c.n == n && c.devices == devices).collect()
    };
    // Host seconds of one configuration's calls in the traced passes.
    let traced: Vec<&Call> = book.traced().collect();
    let walls = |label: &str, n: usize, devices: usize| -> Vec<f64> {
        traced.iter().filter(|c| c.label == label && c.n == n && c.devices == devices).map(|c| c.wall).collect()
    };
    let med = |cs: &[&Call], f: fn(&Call) -> f64| median(&cs.iter().map(|c| f(c)).collect::<Vec<_>>());

    // satcore::alg kernel bodies, and their traffic computed from counters
    // at the largest size each algorithm ran.
    for a in ROSTER {
        for n in SIZES {
            let w = walls(a, n, 1);
            if !w.is_empty() {
                m.insert(format!("alg.{a}.{n}.melem_s"), (n * n * w.len()) as f64 / w.iter().sum::<f64>() / 1e6);
            }
        }
        let of_alg: Vec<&Call> = timed.iter().copied().filter(|c| alg_of(c.label) == a).collect();
        if let Some(top) = of_alg.iter().map(|c| c.n).max() {
            let per_elem: Vec<f64> =
                of_alg.iter().filter(|c| c.n == top).map(|c| c.ret.bytes() as f64 / c.elems()).collect();
            m.insert(format!("alg.{a}.bytes_per_elem"), mean(&per_elem));
        }
    }

    // gpu-sim::timing: the modeled clock, per pass of SAT calls.
    for (i, t) in TERMS.iter().enumerate() {
        m.insert(format!("timing.{t}_ms"), per_pass(book, |c| c.ret.terms[i] * 1e3, modeled));
    }

    // gpu-sim::launch and its executor.
    let all = |_: &Call| true;
    m.insert("launch.kernels".into(), per_pass(book, |c| c.ret.kernels as f64, all));
    // Calls that report no host time per kernel are charged their wall.
    let host_s: f64 = timed.iter().map(|c| if c.ret.host_kernel_s > 0.0 { c.ret.host_kernel_s } else { c.wall }).sum();
    let kernels: usize = timed.iter().map(|c| c.ret.kernels).sum();
    if kernels > 0 {
        m.insert("launch.host_us_per_kernel".into(), host_s * 1e6 / kernels as f64);
    }

    // gpu-sim::stream + satcore::batch.
    for label in ["serial", "streamed", "multi_device"] {
        let Some(devices) = timed.iter().find(|c| c.label == label).map(|c| c.devices) else { continue };
        let w = walls(label, batch::N, devices);
        if !w.is_empty() {
            m.insert(format!("batch.{label}.images_s"), (batch::IMAGES * w.len()) as f64 / w.iter().sum::<f64>());
        }
    }
    if let (Some(s), Some(t)) = (m.get("batch.serial.images_s"), m.get("batch.streamed.images_s")) {
        m.insert("batch.streamed_over_serial".into(), t / s);
    }

    // gpu-sim::group.
    let grouped: Vec<(&Call, book::Group)> = timed.iter().filter_map(|c| c.ret.group.map(|g| (*c, g))).collect();
    if !grouped.is_empty() {
        let sum = |f: fn(&book::Group) -> f64| grouped.iter().map(|(_, g)| f(g)).sum::<f64>();
        m.insert("group.busy_frac".into(), sum(|g| g.busy_s) / sum(|g| g.lanes as f64 * g.wall_s));
        m.insert("group.balance".into(), sum(|g| g.device_s) / sum(|g| g.lanes as f64 * g.completion_s));
        let is_group = |c: &Call| c.ret.group.is_some();
        m.insert(
            "group.steal_events".into(),
            per_pass(book, |c| c.ret.group.map_or(0.0, |g| g.steals as f64), is_group),
        );
        m.insert(
            "group.token_handoffs".into(),
            per_pass(book, |c| c.ret.group.map_or(0.0, |g| g.handoffs as f64), is_group),
        );
    }
    // gpu-sim::sync.
    m.insert("sync.flag_waits".into(), per_pass(book, |c| c.ret.stats.flag_waits as f64, all));
    m.insert("sync.park_events".into(), per_pass(book, |c| c.ret.stats.park_events as f64, all));
    m.insert("sync.wakeups".into(), per_pass(book, |c| c.ret.stats.wakeups as f64, all));
    m.insert("sync.poll_iterations".into(), per_pass(book, |c| c.ret.stats.flag_poll_iterations as f64, all));
    m.insert(
        "sync.backoff_events".into(),
        per_pass(book, |c| (c.ret.stats.flag_backoff_events + c.ret.stats.d2d_backoff_events) as f64, all),
    );
    let parks: u64 = timed.iter().map(|c| c.ret.stats.park_events).sum();
    if parks > 0 {
        let wakeups: u64 = timed.iter().map(|c| c.ret.stats.wakeups).sum();
        m.insert("sync.wake_ratio".into(), wakeups as f64 / parks as f64);
    }

    // satcore::coop, read against the host floor at the same size.
    let floor_s = |n: usize, bytes: f64| out.floors.get(&n).map(|gbs| bytes / (gbs * 1e9));
    for (_, label) in coop::KERNELS {
        let k = label.trim_start_matches("coop_");
        for d in coop::device_counts() {
            let w = walls(label, coop::N, d);
            let cs = calls(label, coop::N, d);
            if w.is_empty() || cs.is_empty() {
                continue;
            }
            let (wall, modeled) = (median(&w), med(&cs, |c| c.ret.modeled_s));
            m.insert(format!("coop.{k}.{d}dev.melem_s"), (coop::N * coop::N) as f64 / wall / 1e6);
            m.insert(format!("coop.{k}.{d}dev.modeled_ms"), modeled * 1e3);
            m.insert(format!("coop.{k}.{d}dev.host_efficiency"), modeled / wall);
            if let Some(f) = floor_s(coop::N, med(&cs, |c| c.ret.bytes() as f64)) {
                m.insert(format!("coop.{k}.{d}dev.floor_ratio"), wall / f);
            }
        }
        let cs: Vec<&Call> = timed.iter().copied().filter(|c| c.label == label).collect();
        if !cs.is_empty() {
            m.insert(format!("coop.{k}.d2d_transfers"), med(&cs, |c| c.ret.stats.d2d_transfers as f64));
            m.insert(format!("coop.{k}.d2d_bytes"), med(&cs, |c| c.ret.stats.d2d_bytes as f64));
        }
    }

    // Host floors, and the paper's algorithm read against them.
    for (n, gbs) in &out.floors {
        m.insert(format!("floor.{n}.copy_gb_s"), *gbs);
    }
    for n in SIZES {
        let w = walls("skss_lb", n, 1);
        if let Some(f) = floor_s(n, med(&calls("skss_lb", n, 1), |c| c.ret.bytes() as f64)) {
            if !w.is_empty() {
                m.insert(format!("alg.skss_lb.{n}.floor_ratio"), median(&w) / f);
            }
        }
    }

    // Set-up, per set-up, and the single-threaded reference SAT.
    let reps = out.setups.len().max(1) as f64;
    let phase_s = |cat: &str| rec.with_cat(cat, Span::dur).iter().sum::<f64>() / reps;
    for p in ["input", "reference", "upload", "devices", "warmup"] {
        m.insert(format!("setup.{p}_s"), phase_s(&format!("setup.{p}")));
    }
    let mut refs: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (name, dur, elems) in rec.with_cat("setup.reference", |s| {
        (s.name.clone(), s.dur(), s.args.iter().find(|(k, _)| *k == "elems").map_or(0.0, |(_, v)| *v))
    }) {
        let e = refs.entry(name.trim_start_matches("reference@").to_string()).or_default();
        e.0 += elems;
        e.1 += dur;
    }
    for (n, (elems, dur)) in refs {
        m.insert(format!("reference.{n}.melem_s"), elems / dur / 1e6);
    }

    // Model fidelity: do modeled and host times rank the roster alike?
    for n in SIZES {
        let pts: Vec<(f64, f64)> = ROSTER
            .iter()
            .filter_map(|a| {
                let w = walls(a, n, 1);
                let cs = calls(a, n, 1);
                (!w.is_empty() && !cs.is_empty()).then(|| (med(&cs, |c| c.ret.modeled_s), median(&w)))
            })
            .collect();
        if pts.len() == ROSTER.len() {
            let (x, y): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
            m.insert(format!("model.{n}.rank_corr"), spearman(&x, &y));
        }
    }

    // Call latency per element over every timed SAT call.
    let ns: Vec<f64> = timed.iter().filter(|c| c.sat).map(|c| c.wall * 1e9 / c.elems()).collect();
    m.insert("ns_per_elem_p50".into(), percentile(&ns, 50.0));
    m.insert("ns_per_elem_p90".into(), percentile(&ns, 90.0));

    // Tracing: traced passes against the untraced passes of the same run.
    let pass_walls =
        |traced: bool| median(&book.passes.iter().filter(|p| p.1 == traced).map(|p| p.0).collect::<Vec<_>>());
    m.insert("trace.overhead_frac".into(), pass_walls(true) / pass_walls(false) - 1.0);
    m.insert("error_rate".into(), book.failed as f64 / book.attempted.max(1) as f64);
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    manifest: bool,
}

const USAGE: &str = "usage: perfbench --workload <roster_seq|roster_conc|batch_tiny|coop_8k> \
                     --seed <n> --seconds <s> --trace <0|1> [--corrupt]\n       perfbench --manifest";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, corrupt: false, manifest: false };
    let (mut have_seed, mut have_seconds) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                have_seed = true;
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                have_seconds = a.seconds.is_finite() && a.seconds >= 0.0;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--corrupt" => a.corrupt = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.manifest {
        return Ok(a);
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == a.workload) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    if !have_seed || !have_seconds {
        return Err("--seed and a non-negative --seconds are required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let ctx = Ctx { workload: args.workload.clone(), seed: args.seed, rec: Recorder::new(args.trace) };
    let mut book = Book::default();
    book.corrupt_next = args.corrupt;
    let (outcome, _, _) = ctx.rec.span("workload", &args.workload, || match args.workload.as_str() {
        "roster_seq" | "roster_conc" => drive::<roster::Roster>(&ctx, &mut book, args.seconds, args.trace),
        "batch_tiny" => drive::<batch::Batch>(&ctx, &mut book, args.seconds, args.trace),
        _ => drive::<coop::Coop>(&ctx, &mut book, args.seconds, args.trace),
    });
    let fingerprint = host::fingerprint(&args.workload, args.seed, outcome.digest);
    // Sample counts behind the medians and percentiles.
    let sat_calls = book.timed().filter(|c| c.sat).count();
    println!(
        "{{\"fingerprint\":{fingerprint},\"samples\":{{\"setups\":{},\"passes\":{},\"sat_calls\":{sat_calls}}}}}",
        outcome.setups.len(),
        book.passes.len()
    );

    let (values, catalogue): (BTreeMap<String, f64>, Vec<(String, &str)>) = if args.trace {
        let layers = per_layer_catalogue();
        (per_layer(&ctx, &book, &outcome), layers.into_iter().map(|(n, u, _)| (n, u)).collect())
    } else {
        (end_to_end(&book, &outcome), END_TO_END.iter().map(|(n, u, _, _)| (n.to_string(), *u)).collect())
    };
    for name in values.keys() {
        assert!(catalogue.iter().any(|(n, _)| n == name), "metric {name} is missing from the catalogue");
    }
    if args.trace {
        let path = format!("perfbench/out/trace_{}_seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|_| std::fs::write(&path, ctx.rec.chrome_json(&fingerprint)));
        match written {
            Ok(()) => eprintln!("perfbench: wrote {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
        for (cat, secs) in ctx.rec.self_time_by_cat() {
            eprintln!("perfbench: self time {cat:<16} {secs:>10.4} s");
        }
    }
    // Metrics a workload does not exercise read 0.
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        book.failed == 0,
        book.attempted,
        book.failed
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        eprintln!("perfbench: {name:<36} {v:>16.6} {unit}");
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let layers = per_layer_catalogue();
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).chain(layers.iter().map(|m| m.0.as_str())).collect();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200, "{why}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv("--workload coop_8k --seed 3 --seconds 10 --trace 1")).unwrap();
        assert!(a.trace && a.seed == 3 && a.seconds == 10.0);
        assert!(parse(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&argv("--workload coop_8k --seconds 10 --trace 0")).is_err());
        assert!(parse(&argv("--workload coop_8k --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse(&argv("--manifest")).unwrap().manifest);
    }
}
