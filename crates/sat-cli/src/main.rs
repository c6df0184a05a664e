//! sat-cli: regenerate every table and figure of the paper.
//!
//! ```text
//! sat-cli table1 [--n N] [--w W] [--csv]
//! sat-cli table3 [--sizes a,b,c] [--widths a,b,c] [--synthetic] [--paper] [--csv]
//! sat-cli fig2 | fig3 [--w W] | fig4 [--w W] | fig9 [--t T]
//! sat-cli ablations [--n N] [--w W]
//! sat-cli all          # everything, as used to produce EXPERIMENTS.md
//! ```

mod ablations;
mod figures;
mod paper;
mod report;
mod table1;
mod table3;
mod trace_cmd;

use gpu_sim::prelude::*;

use std::process::ExitCode;

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_opt(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse_usize(args: &[String], name: &str, default: usize) -> usize {
    parse_opt(args, name).map_or(default, |v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v}")))
}

fn parse_list(args: &[String], name: &str, default: &[usize]) -> Vec<usize> {
    parse_opt(args, name).map_or_else(
        || default.to_vec(),
        |v| v.split(',').map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad {name} entry: {s}"))).collect(),
    )
}

fn table3_config(args: &[String]) -> table3::Config {
    let synthetic = parse_flag(args, "--synthetic");
    let default_sizes: Vec<usize> =
        if synthetic { paper::SIZES.to_vec() } else { vec![256, 512, 1024, 2048, 4096, 8192] };
    table3::Config {
        sizes: parse_list(args, "--sizes", &default_sizes),
        widths: parse_list(args, "--widths", &paper::TILE_WIDTHS),
        mode: if synthetic { table3::Mode::Synthetic } else { table3::Mode::Measured },
        paper_compare: parse_flag(args, "--paper"),
        csv: parse_flag(args, "--csv"),
    }
}

fn usage() -> &'static str {
    "usage: sat-cli <command> [options]
commands:
  table1     Table I: kernel calls / threads / reads / writes, theory vs measured
             options: --n N (default 256), --w W (default 32), --csv
  table3     Table III: modeled running times and overhead vs duplication
             options: --sizes a,b,c  --widths a,b,c  --synthetic  --paper  --csv
                      --device titan-v|v100|gtx1080 (projection presets)
             --synthetic runs every kernel on a zero-sized counting element
             (no data, no SAT check); its default sizes are 256..32K
  fig2       the 9x9 SAT example of Figure 2
  fig3       shared-memory bank maps of Figure 3 (--w, default 8)
  fig4       warp prefix-sum trace of Figure 4 (--w, default 8)
  fig9       diagonal-major serial numbers of Figure 9 (--t, default 5)
  ablations  arrangement / look-back / block-size / dispatch studies
             options: --n N (default 512), --w W (default 32)
  f32-error  single-precision SAT error profile vs the f64 oracle
             options: --sizes a,b,c (default 64,256,512,1024)
  trace      concurrent SKSS-LB run with a block timeline
             options: --n N (default 256), --w W (default 32), --seed S
  all        every report above, in order"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let device = parse_opt(&args, "--device").unwrap_or_else(|| "titan-v".into());
    let cfg = DeviceConfig::by_name(&device).unwrap_or_else(|| panic!("unknown device: {device}"));
    let gpu = Gpu::new(cfg);
    match cmd {
        "table1" => {
            let n = parse_usize(&args, "--n", 256);
            let w = parse_usize(&args, "--w", 32);
            print!("{}", table1::render(n, w, parse_flag(&args, "--csv")));
        }
        "table3" => {
            print!("{}", table3::render(&table3_config(&args), &gpu));
        }
        "fig2" => print!("{}", figures::fig2()),
        "fig3" => print!("{}", figures::fig3(parse_usize(&args, "--w", 8))),
        "fig4" => print!("{}", figures::fig4(parse_usize(&args, "--w", 8))),
        "fig9" => print!("{}", figures::fig9(parse_usize(&args, "--t", 5))),
        "trace" => {
            let n = parse_usize(&args, "--n", 256);
            let w = parse_usize(&args, "--w", 32);
            let seed = parse_usize(&args, "--seed", 1) as u64;
            print!("{}", trace_cmd::render(n, w, seed));
        }
        "f32-error" => {
            let sizes = parse_list(&args, "--sizes", &[64, 256, 512, 1024]);
            let mut t = report::Table::new(&["n", "max abs error", "max rel error", "rms rel error"]);
            for n in sizes {
                let r = satcore::numerics::f32_error_profile(n, 7);
                t.row(vec![
                    n.to_string(),
                    format!("{:.3e}", r.max_abs),
                    format!("{:.3e}", r.max_rel),
                    format!("{:.3e}", r.rms_rel),
                ]);
            }
            println!("f32 SAT error vs f64 oracle (uniform random values 0..256):\n");
            print!("{}", t.render());
        }
        "ablations" => {
            let n = parse_usize(&args, "--n", 512);
            let w = parse_usize(&args, "--w", 32);
            print!("{}", ablations::all(n, w));
        }
        "all" => {
            println!("{}", figures::fig2());
            println!("{}", figures::fig3(8));
            println!("{}", figures::fig4(8));
            println!("{}", figures::fig9(5));
            println!("{}", table1::render(256, 32, false));
            let mut cfg = table3_config(&args);
            println!("{}", table3::render(&cfg, &gpu));
            cfg.mode = table3::Mode::Synthetic;
            cfg.sizes = paper::SIZES.to_vec();
            cfg.paper_compare = true;
            println!("{}", table3::render(&cfg, &gpu));
            println!("{}", ablations::all(512, 32));
        }
        other => {
            eprintln!("unknown command: {other}\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::usage;

    #[test]
    fn usage_keeps_its_layout() {
        let lines: Vec<&str> = usage().lines().collect();
        assert!(lines.contains(&"  table1     Table I: kernel calls / threads / reads / writes, theory vs measured"));
        assert!(lines.contains(&"             options: --n N (default 256), --w W (default 32), --csv"));
    }
}
