//! # gpu-sim: a virtual CUDA-like GPU for algorithm reproduction
//!
//! This crate is the substrate for reproducing Emoto et al., *"An Optimal
//! Parallel Algorithm for Computing the Summed Area Table on the GPU"*
//! (IPPS Workshops 2018), in pure Rust. The paper's contribution lives in
//! mechanisms CUDA exposes and Rust GPU toolchains do not (grid-wide soft
//! synchronization via global-memory flags, `atomicAdd` virtual block IDs,
//! acquire/release publication between resident blocks), so the substrate
//! recreates the CUDA *execution contract* on the host:
//!
//! * [`launch::Gpu::launch`] runs a grid of blocks under a scheduler the
//!   program cannot control ([`launch::DispatchOrder`]), with real OS-thread
//!   concurrency on a persistent worker pool in
//!   [`launch::ExecMode::Concurrent`]; batches of jobs run on resident
//!   lanes, several of one device ([`launch::Gpu::run_batch`]) or one per
//!   device of a [`group::DeviceGroup`], which scales out to N independent
//!   devices; lanes claim a batch's jobs in order from one counter;
//! * [`global::GlobalBuffer`] is device DRAM: shared by all blocks,
//!   accounted for coalesced vs. strided traffic;
//! * [`shared::SharedTile`] is per-block shared memory with bank-conflict
//!   accounting and the paper's diagonal arrangement;
//! * [`warp`] provides the warp shuffle scan of the paper's Section II;
//! * [`sync`] provides `atomicAdd` counters and acquire/release status
//!   flags — the single-kernel soft synchronization (SKSS) primitives;
//! * [`metrics`] records exactly the quantities of the paper's Table I;
//! * [`timing`] converts measured counters into modeled milliseconds,
//!   calibrated against the paper's `cudaMemcpy` baseline.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::prelude::*;
//!
//! let gpu = Gpu::new(DeviceConfig::titan_v());
//! let input = GlobalBuffer::from_slice(&[1u32, 2, 3, 4]);
//! let output = GlobalBuffer::<u32>::zeroed(4);
//! let metrics = gpu.launch(LaunchConfig::new("double", 1, 32), |ctx| {
//!     let mut vals = vec![0u32; 4];
//!     input.load_row(ctx, 0, &mut vals);
//!     for v in &mut vals {
//!         *v *= 2;
//!     }
//!     output.store_row(ctx, 0, &vals);
//! });
//! assert_eq!(output.to_vec(), vec![2, 4, 6, 8]);
//! assert_eq!(metrics.stats.global_reads, 4);
//! assert_eq!(metrics.stats.global_writes, 4);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod elem;
mod executor;
pub mod global;
pub mod group;
pub mod launch;
pub mod metrics;
pub mod shared;
pub mod simd;
pub mod sync;
pub mod timing;
pub mod trace;
pub mod warp;

/// The handful of names nearly every consumer wants.
pub mod prelude {
    pub use crate::device::{DeviceConfig, WARP};
    pub use crate::elem::DeviceElem;
    pub use crate::global::GlobalBuffer;
    pub use crate::group::{DeviceGroup, DeviceLane, GroupMetrics};
    pub use crate::launch::{BlockCtx, DispatchOrder, ExecMode, Gpu, LaunchConfig};
    pub use crate::metrics::{BlockStats, CriticalPath, KernelMetrics, RunMetrics};
    pub use crate::shared::{Arrangement, SharedTile};
    pub use crate::sync::{DeviceCounter, StatusBoard};
    pub use crate::timing::{kernel_time, overhead_percent, run_millis, run_seconds};
    pub use crate::trace::{Event, EventKind, Tracer};
    pub use crate::warp::{block_inclusive_scan, warp_inclusive_scan, warp_reduce_sum};
}
