//! Integration: the application layer end to end — SAT built by the
//! paper's algorithm, consumed by the device-side filters, cross-checked
//! against the host-side query API.

use gpu_sim::prelude::*;
use satcore::filters::{device_box_filter, device_window_variance};
use satcore::prelude::*;

#[test]
fn device_box_filter_agrees_with_host_query() {
    let gpu = Gpu::new(DeviceConfig::tiny());
    let n = 32usize;
    let img = Matrix::<f64>::random(n, n, 5, 100);
    let (sat, _) = compute_sat(&gpu, &SkssLb::new(SatParams { w: 8, threads_per_block: 64 }), &img);

    // Device path.
    let sat_dev = sat.to_device();
    let out = GlobalBuffer::<f64>::zeroed(n * n);
    device_box_filter(&gpu, &sat_dev, &out, n, 3);
    let device = out.to_vec();

    // Host path through RegionQuery.
    let q = RegionQuery::new(sat);
    for i in 0..n {
        for j in 0..n {
            let (r0, r1) = (i.saturating_sub(3), (i + 3).min(n - 1));
            let (c0, c1) = (j.saturating_sub(3), (j + 3).min(n - 1));
            let host = q.mean_f64(r0, r1, c0, c1);
            assert!((device[i * n + j] - host).abs() < 1e-9, "({i},{j})");
        }
    }
}

#[test]
fn variance_pipeline_end_to_end() {
    // depth + depth^2 SATs -> windowed variance, the variance-shadow-map
    // pipeline, fully on the virtual GPU, checked against direct math.
    let gpu = Gpu::new(DeviceConfig::tiny());
    let n = 24usize;
    let img = Matrix::<f64>::random(n, n, 6, 10);
    let sq = Matrix::from_fn(n, n, |i, j| img.get(i, j) * img.get(i, j));
    let alg = SkssLb::new(SatParams { w: 8, threads_per_block: 64 });
    let (sat, _) = compute_sat(&gpu, &alg, &img);
    let (sat_sq, _) = compute_sat(&gpu, &alg, &sq);

    let mean = GlobalBuffer::<f64>::zeroed(n * n);
    let var = GlobalBuffer::<f64>::zeroed(n * n);
    device_window_variance(&gpu, &sat.to_device(), &sat_sq.to_device(), &mean, &var, n, 2);

    // Direct check at a handful of pixels.
    for &(i, j) in &[(0usize, 0usize), (5, 7), (12, 12), (23, 23)] {
        let (r0, r1) = (i.saturating_sub(2), (i + 2).min(n - 1));
        let (c0, c1) = (j.saturating_sub(2), (j + 2).min(n - 1));
        let mut vals = Vec::new();
        for y in r0..=r1 {
            for x in c0..=c1 {
                vals.push(img.get(y, x));
            }
        }
        let m = vals.iter().sum::<f64>() / vals.len() as f64;
        let v = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
        assert!((mean.host_read(i * n + j) - m).abs() < 1e-9, "mean ({i},{j})");
        assert!((var.host_read(i * n + j) - v).abs() < 1e-8, "var ({i},{j})");
    }
}

#[test]
fn padded_api_supports_rectangles_everywhere() {
    let gpu = Gpu::new(DeviceConfig::tiny());
    let alg = SkssLb::new(SatParams { w: 8, threads_per_block: 64 });
    let a = Matrix::<u64>::random(13, 29, 9, 20);
    let (sat, _) = compute_sat_padded(&gpu, &alg, &a, 8);
    let q = RegionQuery::new(sat);
    assert_eq!(q.sum(2, 11, 3, 27), satcore::reference::region_sum_direct(&a, 2, 11, 3, 27));
}

#[test]
fn f32_error_profile_is_sane_at_bench_sizes() {
    let r = satcore::numerics::f32_error_profile(256, 11);
    assert!(r.max_rel < 1e-4, "{r:?}");
}
