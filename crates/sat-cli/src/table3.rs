//! Regeneration of Table III: running time (modeled ms) and overhead over
//! matrix duplication, per algorithm, matrix size, and tile width.

use gpu_sim::prelude::*;
use satcore::prelude::*;

use crate::paper;
use crate::report::{fmt_ms, fmt_pct, size_label, Table};

/// How Table III entries are produced. Both modes execute every kernel;
/// they differ in the element the kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Run on a `u32` matrix, verify every SAT against the sequential
    /// reference, and model time from the run's counters.
    Measured,
    /// Execute the same kernels on the counting-only element
    /// [`CountOnly`], which charges what an `f32` run charges and holds no
    /// data, and model time from the executed counters: the full 256..32K
    /// size sweep in seconds, at no memory cost.
    Synthetic,
}

/// One regenerated Table III cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Algorithm label.
    pub algorithm: String,
    /// Tile width, 0 for untiled algorithms.
    pub w: usize,
    /// Matrix side.
    pub n: usize,
    /// Modeled milliseconds.
    pub ms: f64,
}

/// Configuration of a Table III run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Matrix sides to evaluate.
    pub sizes: Vec<usize>,
    /// Tile widths to sweep (the paper: 32, 64, 128).
    pub widths: Vec<usize>,
    /// Cell production mode.
    pub mode: Mode,
    /// Include the paper's published numbers for comparison.
    pub paper_compare: bool,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

/// The algorithm rows in paper order, `(label, tiled)`, one for each entry
/// of [`all_algorithms`].
const ROWS: [(&str, bool); 8] = [
    ("2R2W", false),
    ("2R2W-optimal", false),
    ("2R1W", true),
    ("1R1W", true),
    ("(1+r)R1W", true),
    ("1R1W-SKSS", true),
    ("1R1W-SKSS-LB", true),
    ("1R1W-SKSS-SH", true),
];

/// Every cell of one matrix size, run on `a`: the duplication baseline,
/// each untiled row at the first tile width's block size, and each tiled
/// row at every tile width up to the side. `check` sees each SAT.
fn size_cells<T: DeviceElem>(cfg: &Config, gpu: &Gpu, a: &Matrix<T>, check: impl Fn(&str, &Matrix<T>)) -> Vec<Cell> {
    let n = a.rows();
    let millis = |run: &RunMetrics| run_millis(gpu.config(), run);
    let dup = Duplicate::new().copy(gpu, &a.to_device(), &GlobalBuffer::zeroed(n * n));
    let mut out = vec![Cell { algorithm: "duplication".into(), w: 0, n, ms: millis(&dup) }];
    let mut run_rows = |w: usize, tiled: bool| {
        for (&(label, is_tiled), alg) in ROWS.iter().zip(all_algorithms::<T>(SatParams::paper(w))) {
            if is_tiled == tiled {
                let (sat, run) = compute_sat(gpu, alg.as_ref(), a);
                check(label, &sat);
                out.push(Cell { algorithm: label.into(), w: if tiled { w } else { 0 }, n, ms: millis(&run) });
            }
        }
    };
    run_rows(cfg.widths[0].min(n), false);
    for &w in cfg.widths.iter().filter(|&&w| w <= n) {
        run_rows(w, true);
    }
    out
}

/// Produce every cell of the configured Table III slice, including the
/// duplication baseline (w = 0 rows).
pub fn cells(cfg: &Config, gpu: &Gpu) -> Vec<Cell> {
    let mut out = Vec::new();
    for &n in &cfg.sizes {
        out.extend(match cfg.mode {
            Mode::Measured => {
                let a = Matrix::<u32>::random(n, n, 0xA5, 4);
                let expect = satcore::reference::sat(&a);
                size_cells(cfg, gpu, &a, |label, sat| assert_eq!(sat, &expect, "{label} produced a wrong SAT at n={n}"))
            }
            Mode::Synthetic => size_cells(cfg, gpu, &Matrix::<CountOnly>::zeros(n, n), |_, _| {}),
        });
    }
    out
}

/// Best time per (algorithm, n) over tile widths — the highlighted
/// entries of Table III.
pub fn best_ms(cells: &[Cell], algorithm: &str, n: usize) -> Option<f64> {
    cells
        .iter()
        .filter(|c| c.algorithm == algorithm && c.n == n)
        .map(|c| c.ms)
        .fold(None, |best, ms| Some(best.map_or(ms, |b: f64| b.min(ms))))
}

/// Render the report.
pub fn render(cfg: &Config, gpu: &Gpu) -> String {
    render_cells(cfg, gpu.config().name, &cells(cfg, gpu))
}

/// Render the report from the cells of `cfg` on the device named `device`.
fn render_cells(cfg: &Config, device: &str, data: &[Cell]) -> String {
    let mut header: Vec<String> = vec!["algorithm".into(), "W".into()];
    for &n in &cfg.sizes {
        header.push(size_label(n));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    fn push_series(table: &mut Table, data: &[Cell], sizes: &[usize], label: &str, w: usize) {
        let mut row = vec![label.to_string(), if w == 0 { "-".into() } else { format!("{w}^2") }];
        for &n in sizes {
            let ms = data.iter().find(|c| c.algorithm == label && c.n == n && c.w == w).map(|c| c.ms);
            row.push(ms.map_or("-".into(), fmt_ms));
        }
        table.row(row);
    }

    push_series(&mut table, data, &cfg.sizes, "duplication", 0);
    for (label, tiled) in ROWS {
        if tiled {
            for &w in &cfg.widths {
                push_series(&mut table, data, &cfg.sizes, label, w);
            }
        } else {
            push_series(&mut table, data, &cfg.sizes, label, 0);
        }
        // Overhead row for the best configuration, as in the paper.
        let mut row = vec![format!("{label} overhead"), "best".into()];
        for &n in &cfg.sizes {
            let dup = best_ms(data, "duplication", n).unwrap();
            let best = best_ms(data, label, n);
            row.push(best.map_or("-".into(), |b| fmt_pct(overhead_percent(b, dup))));
        }
        table.row(row);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Table III — modeled running time (ms), {}, device: {}\n\n",
        match cfg.mode {
            Mode::Measured => "measured-counters mode",
            Mode::Synthetic => "synthetic mode (counters of kernels executed on a zero-sized counting element)",
        },
        device
    ));
    out.push_str(&if cfg.csv { table.render_csv() } else { table.render() });

    if cfg.paper_compare {
        out.push('\n');
        out.push_str(&render_paper_comparison(cfg, data));
    }
    out
}

/// Side-by-side with the paper's published best times (only for sizes the
/// paper evaluated): ratio of modeled to published, and agreement of the
/// two headline shape claims.
fn render_paper_comparison(cfg: &Config, data: &[Cell]) -> String {
    let mut t = Table::new(&["algorithm", "n", "model ms", "paper ms", "model/paper", "overhead model", "overhead paper"]);
    let paper_rows: Vec<(&str, &paper::PaperRow)> =
        paper::ALGORITHMS.iter().map(|r| (r.name, r)).collect();
    for &n in &cfg.sizes {
        let Some(si) = paper::size_index(n) else { continue };
        let dup_model = best_ms(data, "duplication", n).unwrap();
        let dup_paper = paper::DUPLICATION.times[0][si];
        t.row(vec![
            "duplication".into(),
            size_label(n),
            fmt_ms(dup_model),
            fmt_ms(dup_paper),
            format!("{:.2}", dup_model / dup_paper),
            "-".into(),
            "-".into(),
        ]);
        for (label, prow) in &paper_rows {
            if let Some(model) = best_ms(data, label, n) {
                let pms = prow.best_ms(si);
                t.row(vec![
                    label.to_string(),
                    size_label(n),
                    fmt_ms(model),
                    fmt_ms(pms),
                    format!("{:.2}", model / pms),
                    fmt_pct(overhead_percent(model, dup_model)),
                    fmt_pct(paper::paper_overhead(prow, si)),
                ]);
            }
        }
    }
    let mut out = String::from("Comparison with the paper's published Table III (best-W entries):\n\n");
    out.push_str(&if cfg.csv { t.render_csv() } else { t.render() });
    out
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    fn quick_cfg(mode: Mode) -> Config {
        Config { sizes: vec![64, 128], widths: vec![8, 16], mode, paper_compare: false, csv: false }
    }

    #[test]
    fn measured_table_renders_and_verifies() {
        let gpu = Gpu::new(DeviceConfig::titan_v());
        let s = render(&quick_cfg(Mode::Measured), &gpu);
        assert!(s.contains("1R1W-SKSS-LB"));
        assert!(s.contains("overhead"));
    }

    /// The synthetic table at every paper size and width, computed once for
    /// the two tests that read it.
    fn paper_table() -> &'static (Config, Vec<Cell>) {
        static TABLE: OnceLock<(Config, Vec<Cell>)> = OnceLock::new();
        TABLE.get_or_init(|| {
            let cfg = Config {
                sizes: paper::SIZES.to_vec(),
                widths: vec![32, 64, 128],
                mode: Mode::Synthetic,
                paper_compare: true,
                csv: false,
            };
            let data = cells(&cfg, &Gpu::new(DeviceConfig::titan_v()));
            (cfg, data)
        })
    }

    #[test]
    fn synthetic_table_covers_paper_sizes() {
        let (cfg, data) = paper_table();
        let s = render_cells(cfg, DeviceConfig::titan_v().name, data);
        assert!(s.contains("32K^2"));
        assert!(s.contains("model/paper"));
    }

    #[test]
    fn skss_lb_wins_in_synthetic_mode() {
        // The paper's headline: SKSS-LB fastest at every size among the
        // paper's own Table III rows. The shuffle-only follow-on variant
        // (not a paper row) is allowed to — and at large sizes should —
        // edge it out, since its shared-memory term vanishes entirely.
        let (cfg, data) = paper_table();
        for &n in &cfg.sizes {
            let lb = best_ms(data, "1R1W-SKSS-LB", n).unwrap();
            for (label, _) in ROWS {
                if label != "1R1W-SKSS-LB" && label != "1R1W-SKSS-SH" {
                    let other = best_ms(data, label, n).unwrap();
                    assert!(lb <= other, "n={n}: SKSS-LB {lb} vs {label} {other}");
                }
            }
            // The shuffle-only variant never models slower than SKSS-LB.
            let sh = best_ms(data, "1R1W-SKSS-SH", n).unwrap();
            assert!(sh <= lb, "n={n}: SKSS-SH {sh} vs SKSS-LB {lb}");
        }
    }

    #[test]
    fn a_width_above_the_side_prints_no_time() {
        // At 64² only W = 32 and W = 64 run; the W = 128 row prints "-"
        // there and its own time at 256².
        let cfg = Config { sizes: vec![64, 256], widths: vec![32, 64, 128], ..quick_cfg(Mode::Synthetic) };
        let data = cells(&cfg, &Gpu::new(DeviceConfig::titan_v()));
        let s = render_cells(&cfg, DeviceConfig::titan_v().name, &data);
        let row = |w: &str| -> Vec<String> {
            let line = s.lines().find(|l| l.split_whitespace().take(2).eq(["2R1W", w])).expect("a 2R1W row");
            line.split_whitespace().skip(2).map(String::from).collect()
        };
        let ms = |w: usize, n: usize| {
            fmt_ms(data.iter().find(|c| c.algorithm == "2R1W" && c.w == w && c.n == n).expect("a 2R1W cell").ms)
        };
        assert_eq!(row("32^2"), [ms(32, 64), ms(32, 256)]);
        assert_eq!(row("128^2"), ["-".to_string(), ms(128, 256)]);
    }

    #[test]
    fn csv_mode() {
        let gpu = Gpu::new(DeviceConfig::titan_v());
        let mut cfg = quick_cfg(Mode::Synthetic);
        cfg.csv = true;
        let s = render(&cfg, &gpu);
        assert!(s.contains("algorithm,W"));
    }
}
