//! The GZKP reproduction's benchmark: four long host-clock workloads,
//! end-to-end metrics measured with tracing off, and a per-layer ledger
//! from a separate traced run. See `README.md` beside this crate.
//!
//! Everything here times the workspace from outside, through public
//! items only; no crate under `crates/` knows the benchmark exists.

#![warn(missing_docs)]

pub mod engines;
pub mod micro;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
