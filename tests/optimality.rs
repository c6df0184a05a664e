//! The paper's optimality claims, checked as machine-verified invariants:
//! lower bounds on traffic, upper bounds for the 1R1W family, and the
//! modeled-time dominance of duplication.

use gpu_sim::prelude::*;
use satcore::prelude::*;

/// "any SAT algorithm must issue n^2 read and n^2 write requests": every
/// implementation respects the information-theoretic lower bound.
#[test]
fn every_algorithm_meets_the_traffic_lower_bound() {
    let gpu = Gpu::new(DeviceConfig::tiny());
    let n = 64usize;
    let params = SatParams { w: 8, threads_per_block: 64 };
    let a = Matrix::<u64>::random(n, n, 13, 10);
    let n2 = (n * n) as u64;
    for alg in all_algorithms::<u64>(params) {
        let (_, run) = compute_sat(&gpu, alg.as_ref(), &a);
        assert!(run.total_reads() >= n2, "{} reads {}", alg.name(), run.total_reads());
        assert!(run.total_writes() >= n2, "{} writes {}", alg.name(), run.total_writes());
    }
}

/// The 1R1W family (1R1W, SKSS, SKSS-LB) stays within `n^2 + O(n^2/W)` on
/// both sides — the optimality that gives the paper its title.
#[test]
fn one_read_one_write_family_is_within_lower_order_terms() {
    let gpu = Gpu::new(DeviceConfig::tiny());
    let n = 64usize;
    let w = 8usize;
    let params = SatParams { w, threads_per_block: 64 };
    let a = Matrix::<u64>::random(n, n, 14, 10);
    let n2 = (n * n) as u64;
    let allowance = 16 * n2 / w as u64;
    let algs: Vec<(Box<dyn SatAlgorithm<u64>>, &str)> = vec![
        (Box::new(OneROneW::new(params)), "1r1w"),
        (Box::new(Skss::new(params)), "skss"),
        (Box::new(SkssLb::new(params)), "skss_lb"),
    ];
    for (alg, name) in algs {
        let (_, run) = compute_sat(&gpu, alg.as_ref(), &a);
        assert!(run.total_reads() <= n2 + allowance, "{name}: {}", run.total_reads());
        assert!(run.total_writes() <= n2 + allowance, "{name}: {}", run.total_writes());
    }
}

/// The duplication baseline's run on `a`, a matrix of the counting element.
fn duplicate(gpu: &Gpu, a: &Matrix<CountOnly>) -> RunMetrics {
    Duplicate::new().copy(gpu, &a.to_device(), &GlobalBuffer::zeroed(a.rows() * a.cols()))
}

/// Modeled duplication time lower-bounds every algorithm's modeled time at
/// every paper size and tile width — the definition of "overhead" cannot
/// go negative.
#[test]
fn duplication_lower_bounds_all_modeled_times() {
    let cfg = DeviceConfig::titan_v();
    let gpu = Gpu::new(cfg.clone());
    for n in [256usize, 1024, 4096, 16384, 32768] {
        let a = Matrix::<CountOnly>::zeros(n, n);
        let dup = run_seconds(&cfg, &duplicate(&gpu, &a));
        for w in [32usize, 64, 128] {
            for alg in all_algorithms(SatParams::paper(w)) {
                let t = run_seconds(&cfg, &compute_sat(&gpu, alg.as_ref(), &a).1);
                assert!(t >= dup * 0.999, "{} n={n}: modeled {t} < duplication {dup}", alg.name());
            }
        }
    }
}

/// The headline claim of the abstract, in the model: SKSS-LB's best
/// overhead over duplication dips into single digits at 8K^2 and beyond.
#[test]
fn skss_lb_overhead_reaches_single_digits() {
    let cfg = DeviceConfig::titan_v();
    let gpu = Gpu::new(cfg.clone());
    for n in [8192usize, 16384, 32768] {
        let a = Matrix::<CountOnly>::zeros(n, n);
        let dup = run_millis(&cfg, &duplicate(&gpu, &a));
        let best = [32, 64, 128]
            .iter()
            .map(|&w| run_millis(&cfg, &compute_sat(&gpu, &SkssLb::new(SatParams::paper(w)), &a).1))
            .fold(f64::INFINITY, f64::min);
        let overhead = overhead_percent(best, dup);
        assert!(overhead < 10.0, "n={n}: overhead {overhead:.1}%");
        assert!(overhead > 0.0, "n={n}: overhead {overhead:.1}%");
    }
}

/// Table I's parallelism ordering (threads: 2R2W <= SKSS <= SKSS-LB) holds
/// in measured runs.
#[test]
fn parallelism_classes_are_ordered() {
    let gpu = Gpu::new(DeviceConfig::tiny());
    let n = 64usize;
    let params = SatParams { w: 8, threads_per_block: 64 };
    let a = Matrix::<u64>::random(n, n, 15, 10);
    let low = compute_sat(&gpu, &TwoRTwoW::new(64), &a).1.max_threads();
    let medium = compute_sat(&gpu, &Skss::new(params), &a).1.max_threads();
    let high = compute_sat(&gpu, &SkssLb::new(params), &a).1.max_threads();
    assert!(low <= medium, "low {low} vs medium {medium}");
    assert!(medium <= high, "medium {medium} vs high {high}");
}

/// Kernel-call counts follow Table I exactly.
#[test]
fn kernel_call_counts_match_table_one() {
    let gpu = Gpu::new(DeviceConfig::tiny());
    let n = 64usize;
    let w = 8usize;
    let params = SatParams { w, threads_per_block: 64 };
    let a = Matrix::<u64>::random(n, n, 16, 10);
    let t = n / w;
    assert_eq!(compute_sat(&gpu, &TwoRTwoW::new(64), &a).1.kernel_calls(), 2);
    assert_eq!(compute_sat(&gpu, &TwoRTwoWOpt::new(params), &a).1.kernel_calls(), 2);
    assert_eq!(compute_sat(&gpu, &TwoROneW::new(params), &a).1.kernel_calls(), 3);
    assert_eq!(compute_sat(&gpu, &OneROneW::new(params), &a).1.kernel_calls(), 2 * t - 1);
    assert_eq!(compute_sat(&gpu, &Skss::new(params), &a).1.kernel_calls(), 1);
    assert_eq!(compute_sat(&gpu, &SkssLb::new(params), &a).1.kernel_calls(), 1);
    // Hybrid: 2(1 - sqrt r) n/W + 5-ish.
    let hybrid_calls = compute_sat(&gpu, &HybridR1W::new(params, 0.25), &a).1.kernel_calls();
    let expect = 2 * t - 1 - 2 * (t / 2) + 6; // B waves + 3 A kernels + 3 C kernels
    assert_eq!(hybrid_calls, expect);
}
