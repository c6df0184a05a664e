//! # prefix: prefix-sum substrates for the SAT reproduction
//!
//! The SAT paper's baselines lean on two published prefix-sum engines:
//! Merrill & Garland's single-pass decoupled look-back scan (reference
//! \[10\], CUB's `DeviceScan`) for row-wise passes, and Tokura et al.'s
//! almost-optimal column-wise scan (reference \[12\]). This crate implements
//! both on the virtual GPU, plus the sequential references they are tested
//! against.
//!
//! * [`seq`] — host-side scans and the textbook SAT oracle;
//! * [`row_scan`] — Merrill-Garland decoupled look-back over every row of
//!   a matrix in one launch, one read and one write per element (a 1-D
//!   array is one row);
//! * [`col_scan`] — chained column-wise scan with fully coalesced access.

#![warn(missing_docs)]

pub mod col_scan;
pub mod row_scan;
pub mod seq;

pub use col_scan::{device_col_scan, ColScanParams};
pub use row_scan::{device_row_scan, ScanParams};
