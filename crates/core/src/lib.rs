//! # satcore: summed area tables on the virtual GPU
//!
//! Reproduction of Emoto, Funasaka, Tokura, Honda, Nakano, Ito — *"An
//! Optimal Parallel Algorithm for Computing the Summed Area Table on the
//! GPU"* (IPPS Workshops 2018).
//!
//! The summed area table (SAT) of an `n x n` matrix `a` is the matrix `b`
//! with `b[i][j] = sum of a[0..=i][0..=j]`; once built, any rectangular
//! sum costs four lookups. The paper's contribution is **1R1W-SKSS-LB**
//! ([`alg::skss_lb`]): a *single-kernel* SAT that reads and writes each
//! element approximately once — the information-theoretic optimum, since
//! no SAT computation can beat duplicating the matrix — by combining
//! single-kernel soft synchronization (global-memory status flags +
//! `atomicAdd` virtual block IDs) with the decoupled look-back technique.
//!
//! This crate implements that algorithm **and every baseline of the
//! paper's Table I** on the [`gpu_sim`] virtual GPU:
//!
//! * [`alg::duplicate`] — the `cudaMemcpy` lower bound;
//! * [`alg::two_r_two_w`] — the naive two-pass SAT (strided row pass);
//! * [`alg::two_r_two_w_opt`] — coalesced scans (Merrill-Garland +
//!   Tokura);
//! * [`alg::two_r_one_w`] — Nehab et al.'s three-kernel tile SAT;
//! * [`alg::one_r_one_w`] — Kasagi et al.'s diagonal waves;
//! * [`alg::hybrid`] — the (1+r)R1W hybrid;
//! * [`alg::skss`] — Funasaka et al.'s column-pipelined single kernel;
//! * [`alg::skss_lb`] — **the paper's algorithm**;
//! * [`alg::skss_sh`] — a shuffle-only software-systolic variant of it
//!   that keeps the whole tile in registers (zero shared-memory traffic).
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::prelude::*;
//! use satcore::prelude::*;
//!
//! let gpu = Gpu::new(DeviceConfig::titan_v());
//! let a = Matrix::<u64>::random(256, 256, 7, 100);
//! let alg = SkssLb::new(SatParams::paper(32));
//! let (sat, metrics) = compute_sat(&gpu, &alg, &a);
//!
//! // The SAT answers rectangle sums in O(1).
//! let q = RegionQuery::new(sat);
//! assert_eq!(q.sum(10, 20, 30, 40), satcore::reference::region_sum_direct(&a, 10, 20, 30, 40));
//!
//! // And the run was ~1 read + ~1 write per element, in one kernel.
//! assert_eq!(metrics.kernel_calls(), 1);
//! assert!(metrics.total_reads() < 256 * 256 + 40 * 256 * 256 / 32);
//! ```

#![warn(missing_docs)]

pub mod alg;
pub mod analysis;
pub mod batch;
pub mod coop;
pub mod filters;
pub mod matrix;
pub mod model;
pub mod numerics;
pub mod reference;
pub mod tile;

/// The names most consumers want.
pub mod prelude {
    pub use crate::alg::duplicate::Duplicate;
    pub use crate::alg::hybrid::HybridR1W;
    pub use crate::alg::one_r_one_w::OneROneW;
    pub use crate::alg::skss::Skss;
    pub use crate::alg::skss_lb::SkssLb;
    pub use crate::alg::skss_sh::SkssSh;
    pub use crate::alg::two_r_one_w::TwoROneW;
    pub use crate::alg::two_r_two_w::TwoRTwoW;
    pub use crate::alg::two_r_two_w_opt::TwoRTwoWOpt;
    pub use crate::alg::{all_algorithms, compute_sat, compute_sat_padded, SatAlgorithm, SatParams};
    pub use crate::batch::{sat_batch_multi_device, sat_batch_serial, sat_batch_streamed, BatchImage, BatchReport};
    pub use crate::coop::{
        even_bands, sat_huge_multi_device, sat_huge_multi_device_bands, CoopKernel, CoopReport,
        COOP_BANDS,
    };
    pub use crate::matrix::Matrix;
    pub use crate::reference::RegionQuery;
    pub use crate::tile::{TileGrid, TileSums};
}
