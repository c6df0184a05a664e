//! Device description: the hardware quantities the execution engine and the
//! timing model consume.
//!
//! The preset mirrors the paper's evaluation machine, an NVIDIA TITAN V
//! (80 streaming multiprocessors with 64 cores each, HBM2 global memory,
//! up to 96 KiB of shared memory per block). Empirical constants of the
//! timing model are calibrated in [`crate::timing`] against the paper's
//! measured `cudaMemcpy` row of Table III.

/// Number of threads in a warp. Fixed at 32 on every CUDA architecture the
/// paper considers; the simulator hard-codes it as well because the warp
/// register-file type is a `[T; WARP]` array.
pub const WARP: usize = 32;

/// Static description of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name, used in reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Maximum resident threads per SM (CUDA: 2048 on Volta).
    pub max_threads_per_sm: usize,
    /// Maximum threads per block (CUDA: 1024).
    pub max_threads_per_block: usize,
    /// Shared memory capacity per block in bytes (TITAN V: up to 96 KiB).
    pub shared_mem_per_block: usize,
    /// Saturated DRAM bandwidth in bytes/second at full occupancy. This is
    /// the *effective* `cudaMemcpy` bandwidth, not the theoretical HBM2
    /// peak; Table III's duplication row at 16K-32K implies ~584 GB/s
    /// after the occupancy cap below is applied.
    pub saturated_bandwidth: f64,
    /// L2 cache capacity in bytes (TITAN V: 4.5 MiB). Working sets that
    /// fit are served at [`DeviceConfig::l2_bandwidth`]; Table III's
    /// duplication times for 256^2..1K^2 are only explainable this way.
    pub l2_capacity: u64,
    /// L2 cache bandwidth in bytes/second at full occupancy.
    pub l2_bandwidth: f64,
    /// Number of resident threads at which the effective bandwidth reaches
    /// half of [`DeviceConfig::saturated_bandwidth`]. Models the
    /// latency-hiding requirement: few threads cannot keep HBM2 busy.
    pub bandwidth_half_occupancy: f64,
    /// Fixed host-side cost of one kernel launch, in seconds.
    pub kernel_launch_overhead: f64,
    /// Effective bytes charged per element of a fully strided (column-major
    /// walk of a row-major array) 4-byte access. A naive sector model would
    /// charge a whole 32-byte sector; measured hardware does better thanks
    /// to L2 residency, so this is calibrated from the paper's 2R2W row
    /// instead.
    pub strided_bytes_per_elem: f64,
    /// One-way latency of publishing a status flag in global memory and
    /// having a polling block observe it, in seconds. Drives the
    /// critical-path term of soft-synchronized kernels.
    pub flag_latency: f64,
    /// Bandwidth a single resident block can draw on its own, in
    /// bytes/second. Used for critical-path tile service times.
    pub per_block_bandwidth: f64,
    /// Core clock in Hz, used for shared-memory throughput (each SM
    /// services one conflict-free warp access per cycle).
    pub core_clock_hz: f64,
    /// Number of worker OS threads used to execute resident blocks in
    /// [`crate::launch::ExecMode::Concurrent`] mode.
    pub host_workers: usize,
    /// Number of poll iterations after which a concurrent soft-sync wait
    /// ([`crate::sync::StatusBoard::wait_at_least`]) panics with a
    /// deadlock diagnostic. Waits spin, back off, then park, and each
    /// 200 µs park cycle counts as ten iterations, so the limit bounds
    /// wall-clock hang time; legitimate waits complete within a few
    /// thousand iterations. Stress tests lower this to trigger the panic
    /// quickly.
    pub deadlock_limit: u64,
    /// Sustained device-to-device interconnect bandwidth in bytes/second
    /// (peer copies over NVLink/PCIe, not DRAM). Zhang et al.'s single- vs
    /// multi-device synchronization study measures peer traffic at a small
    /// fraction of local HBM2 bandwidth; cooperative band decompositions
    /// pay this rate on every boundary exchange
    /// ([`crate::metrics::BlockStats::charge_d2d`]).
    pub d2d_bandwidth: f64,
    /// Fixed one-way latency of a device-to-device transaction, in
    /// seconds. An order of magnitude above [`DeviceConfig::flag_latency`]:
    /// a cross-device flag or boundary row crosses the interconnect and
    /// the remote copy engine, not just the local L2.
    pub d2d_latency: f64,
}

impl DeviceConfig {
    /// The paper's evaluation GPU.
    pub fn titan_v() -> Self {
        DeviceConfig {
            name: "NVIDIA TITAN V (simulated)",
            sm_count: 80,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            shared_mem_per_block: 96 * 1024,
            saturated_bandwidth: 726.0e9,
            l2_capacity: 4_718_592,
            l2_bandwidth: 1.5e12,
            bandwidth_half_occupancy: 40_000.0,
            kernel_launch_overhead: 4.3e-6,
            strided_bytes_per_elem: 12.0,
            flag_latency: 0.3e-6,
            per_block_bandwidth: 20.0e9,
            core_clock_hz: 1.455e9,
            host_workers: 8,
            deadlock_limit: 5_000_000,
            d2d_bandwidth: 12.0e9,
            d2d_latency: 1.5e-6,
        }
    }

    /// A Tesla V100-class data-center part: same Volta SM as TITAN V but
    /// with the full 900 GB/s HBM2 stack and 6 MiB of L2. Projection
    /// preset — not calibrated against published SAT numbers.
    pub fn v100() -> Self {
        DeviceConfig {
            name: "Tesla V100 (projected)",
            saturated_bandwidth: 900.0e9,
            l2_capacity: 6 * 1024 * 1024,
            l2_bandwidth: 1.8e12,
            ..Self::titan_v()
        }
    }

    /// A Pascal-era consumer card (GTX 1080-class): fewer SMs, GDDR5X
    /// bandwidth, 2 MiB L2, larger strided penalty (no HBM). Projection
    /// preset.
    pub fn gtx1080() -> Self {
        DeviceConfig {
            name: "GTX 1080 (projected)",
            sm_count: 20,
            shared_mem_per_block: 48 * 1024,
            saturated_bandwidth: 280.0e9,
            l2_capacity: 2 * 1024 * 1024,
            l2_bandwidth: 0.9e12,
            bandwidth_half_occupancy: 20_000.0,
            strided_bytes_per_elem: 20.0,
            per_block_bandwidth: 12.0e9,
            core_clock_hz: 1.733e9,
            ..Self::titan_v()
        }
    }

    /// Look up a preset by name (`titan-v`, `v100`, `gtx1080`, `tiny`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "titan-v" | "titanv" => Some(Self::titan_v()),
            "v100" => Some(Self::v100()),
            "gtx1080" | "1080" => Some(Self::gtx1080()),
            "tiny" => Some(Self::tiny()),
            _ => None,
        }
    }

    /// A deliberately tiny device for tests: 4 SMs, small shared memory,
    /// few workers. Functional results must be identical on any device.
    pub fn tiny() -> Self {
        DeviceConfig {
            name: "tiny test device",
            sm_count: 4,
            max_threads_per_sm: 256,
            max_threads_per_block: 256,
            shared_mem_per_block: 48 * 1024,
            saturated_bandwidth: 100.0e9,
            l2_capacity: 1 << 20,
            l2_bandwidth: 400.0e9,
            bandwidth_half_occupancy: 4_000.0,
            kernel_launch_overhead: 2.0e-6,
            strided_bytes_per_elem: 16.0,
            flag_latency: 0.5e-6,
            per_block_bandwidth: 10.0e9,
            core_clock_hz: 1.0e9,
            host_workers: 3,
            deadlock_limit: 5_000_000,
            d2d_bandwidth: 4.0e9,
            d2d_latency: 2.0e-6,
        }
    }

    /// The configuration each member of a `devices`-wide
    /// [`DeviceGroup`](crate::group::DeviceGroup) runs with: identical
    /// simulated hardware, but `host_workers` divided across the members
    /// (minimum 2 each) so an N-device group does not oversubscribe the
    /// host with N full worker pools. The *modeled* device is unchanged —
    /// timing-model outputs never depend on host worker counts.
    pub fn for_group_member(&self, devices: usize) -> Self {
        let devices = devices.max(1);
        DeviceConfig { host_workers: (self.host_workers / devices).max(2), ..self.clone() }
    }

    /// Maximum number of threads resident on the whole device at once.
    pub fn max_resident_threads(&self) -> usize {
        self.sm_count * self.max_threads_per_sm
    }

    /// Effective global-memory bandwidth (bytes/s) at a given number of
    /// useful resident threads.
    ///
    /// Uses a saturating `p / (p + p_half)` curve: with few threads the
    /// device is latency-bound and bandwidth grows nearly linearly in the
    /// thread count (Little's law); with many threads it plateaus at the
    /// copy-saturated bandwidth. The paper's Section V discussion ("at
    /// least 80 CUDA blocks should be invoked ... to fully utilize hardware
    /// resources") is exactly this effect.
    pub fn effective_bandwidth(&self, threads: usize) -> f64 {
        self.saturated_bandwidth * self.occupancy_factor(threads)
    }

    /// The fraction of peak memory throughput achievable with `threads`
    /// resident threads, in `(0, 1)`. Applied to both the DRAM and the L2
    /// service rates: an under-occupied device cannot keep either busy.
    pub fn occupancy_factor(&self, threads: usize) -> f64 {
        let p = threads.min(self.max_resident_threads()) as f64;
        p / (p + self.bandwidth_half_occupancy)
    }

    /// Seconds to move `bytes` of effective traffic with `threads` resident
    /// threads, blending L2 and DRAM service: the fraction of the moved
    /// bytes that fits in L2 is served at L2 bandwidth, the rest at DRAM
    /// bandwidth, both scaled by the occupancy factor.
    pub fn traffic_seconds(&self, threads: usize, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let occ = self.occupancy_factor(threads.max(1));
        let l2_frac = (self.l2_capacity as f64 / bytes as f64).min(1.0);
        let inv_bw = l2_frac / (self.l2_bandwidth * occ)
            + (1.0 - l2_frac) / (self.saturated_bandwidth * occ);
        bytes as f64 * inv_bw
    }

    /// How many elements of width `elem_bytes` fit in one shared-memory
    /// allocation, i.e. the largest square tile width usable on this
    /// device. The paper uses W in {32, 64, 128}; W = 128 with 4-byte
    /// floats needs 64 KiB, within TITAN V's 96 KiB.
    pub fn max_tile_width(&self, elem_bytes: usize) -> usize {
        let elems = self.shared_mem_per_block / elem_bytes;
        let mut w = 1usize;
        while (w * 2) * (w * 2) <= elems {
            w *= 2;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_shape() {
        let d = DeviceConfig::titan_v();
        assert_eq!(d.sm_count, 80);
        assert_eq!(d.max_resident_threads(), 80 * 2048);
        assert_eq!(d.max_threads_per_block, 1024);
    }

    #[test]
    fn bandwidth_is_monotone_and_saturating() {
        let d = DeviceConfig::titan_v();
        let few = d.effective_bandwidth(1024);
        let some = d.effective_bandwidth(32 * 1024);
        let many = d.effective_bandwidth(1 << 20);
        assert!(few < some && some < many);
        assert!(many <= d.saturated_bandwidth);
        // Saturation: doubling threads beyond residency changes nothing.
        assert_eq!(d.effective_bandwidth(1 << 20), d.effective_bandwidth(1 << 21));
    }

    #[test]
    fn low_occupancy_penalty_is_severe() {
        // 16K threads (the paper's 1R1W-SKSS at n=1K, W=64) must see a
        // multi-x bandwidth penalty vs. saturation; this is the effect that
        // separates medium- from high-parallelism algorithms in Table III.
        let d = DeviceConfig::titan_v();
        let ratio = d.effective_bandwidth(16 * 1024) / d.saturated_bandwidth;
        assert!(ratio < 0.4, "ratio = {ratio}");
    }

    #[test]
    fn titan_v_supports_w128_float_tiles() {
        let d = DeviceConfig::titan_v();
        assert!(d.max_tile_width(4) >= 128);
    }

    #[test]
    fn tiny_device_is_small() {
        let d = DeviceConfig::tiny();
        assert!(d.max_resident_threads() < DeviceConfig::titan_v().max_resident_threads());
    }

    #[test]
    fn presets_by_name() {
        assert_eq!(DeviceConfig::by_name("titan-v").unwrap().sm_count, 80);
        assert_eq!(DeviceConfig::by_name("v100").unwrap().name, "Tesla V100 (projected)");
        assert_eq!(DeviceConfig::by_name("gtx1080").unwrap().sm_count, 20);
        assert!(DeviceConfig::by_name("nope").is_none());
    }

    #[test]
    fn d2d_link_is_much_slower_than_local_memory() {
        // The whole point of modeling the interconnect separately: peer
        // traffic must be priced far below local DRAM, and a cross-device
        // flag far above a local one, on every preset.
        for d in [DeviceConfig::titan_v(), DeviceConfig::v100(), DeviceConfig::gtx1080(), DeviceConfig::tiny()] {
            assert!(d.d2d_bandwidth < d.saturated_bandwidth / 5.0, "{}", d.name);
            assert!(d.d2d_latency > d.flag_latency, "{}", d.name);
        }
    }

    #[test]
    fn projection_presets_are_ordered_by_bandwidth() {
        let consumer = DeviceConfig::gtx1080();
        let titan = DeviceConfig::titan_v();
        let dc = DeviceConfig::v100();
        assert!(consumer.saturated_bandwidth < titan.saturated_bandwidth);
        assert!(titan.saturated_bandwidth < dc.saturated_bandwidth);
        // W = 128 float tiles do not fit the consumer card's 48 KiB.
        assert!(consumer.max_tile_width(4) < titan.max_tile_width(4));
    }
}
