//! The host the numbers were measured on: its fingerprint, its memory
//! floor, and this process's peak memory.

use std::time::Instant;

use crate::stats::median;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `key:  <n> kB` from a `/proc` status-style file, in bytes.
fn proc_kib(path: &str, key: &str) -> f64 {
    read(path)
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:") / (1024.0 * 1024.0)
}

/// Size of the highest cache level of CPU 0, bytes (0 if unknown).
fn llc_bytes() -> u64 {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let level = read(&format!("{dir}/index{i}/level")).trim().parse().unwrap_or(0);
        let size = read(&format!("{dir}/index{i}/size"));
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => size.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).unwrap_or(0) << 20,
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fingerprint every result records, as a JSON object. The toolchain,
/// commit and source digest are handed in by `run.py` through the
/// environment; they read `unknown` when the binary is run directly.
pub fn fingerprint(workload: &str, seed: u64, input_digest: u64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into()).replace('"', "'");
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"input_digest\":\"{input_digest:016x}\",\
         \"nproc\":{},\"llc_bytes\":{},\"ram_bytes\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"source_digest\":\"{}\"}}",
        nproc(),
        llc_bytes(),
        proc_kib("/proc/meminfo", "MemTotal:") as u64,
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE"),
    )
}

/// Host memory floor for an image of `elems` u32 elements: a plain
/// single-threaded copy of its bytes, reported as GB/s of bytes read plus
/// bytes written (the same accounting as `RunMetrics::total_bytes`).
/// Median of repeated copies; the first copy only faults the pages in.
pub fn copy_gb_s(elems: usize) -> f64 {
    let src = vec![1u32; elems];
    let mut dst = vec![0u32; elems];
    dst.copy_from_slice(&src);
    let reps = ((1usize << 30) / (elems * 4)).clamp(3, 64);
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    (2 * elems * 4) as f64 / median(&secs) / 1e9
}

/// Order-sensitive digest of the benchmark's inputs (FNV-1a over words),
/// so two runs can show they saw the same inputs.
pub fn digest(words: impl Iterator<Item = u32>, mut h: u64) -> u64 {
    for w in words {
        h = (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Initial value of [`digest`].
pub const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Input seed of image `index` of size `n` in a run seeded with `seed`.
pub fn input_seed(seed: u64, n: usize, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((n as u64) << 20) ^ index as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(copy_gb_s(1 << 16) > 0.0);
        let fp = fingerprint("w", 3, 0xab);
        assert!(fp.contains("\"seed\":3") && fp.contains("00000000000000ab"), "{fp}");
    }

    #[test]
    fn digest_and_seeds_separate_inputs() {
        let a = digest([1u32, 2].into_iter(), DIGEST_INIT);
        assert_eq!(a, digest([1u32, 2].into_iter(), DIGEST_INIT));
        assert_ne!(a, digest([2u32, 1].into_iter(), DIGEST_INIT));
        assert_ne!(input_seed(1, 32, 0), input_seed(2, 32, 0));
        assert_ne!(input_seed(1, 32, 0), input_seed(1, 32, 1));
        assert_ne!(input_seed(1, 1024, 0), input_seed(1, 2048, 0));
    }
}
