//! # gzkp-ntt — the POLY stage
//!
//! Number-theoretic transforms over the paper's scalar fields, in three
//! engine families (all bit-identical, cross-validated):
//!
//! * [`cpu::CpuNtt`] — the sequential CPU reference with precomputed
//!   twiddles (the paper's Best-CPU columns are `gzkp_bench::cpu_ntt_ms`'s
//!   analytic model, not this engine);
//! * [`gpu::BaselineGpuNtt`] — the shuffle-based GPU baseline
//!   (bellperson-like, "BG" in Figure 8);
//! * [`gpu::GzkpNtt`] — the paper's §3 shuffle-less, cache-friendly design
//!   with internal shuffling and flexible block assignment.
//!
//! GPU engines return [`gzkp_gpu_sim::StageReport`]s with simulated times
//! (see DESIGN.md for the hardware substitution).
//!
//! ## Example
//!
//! ```
//! use gzkp_ntt::domain::Radix2Domain;
//! use gzkp_ntt::cpu::{CpuNtt, Direction};
//! use gzkp_ff::fields::Fr254;
//! use gzkp_ff::Field;
//!
//! let domain = Radix2Domain::<Fr254>::new(8).unwrap();
//! let mut data: Vec<Fr254> = (0..8).map(Fr254::from_u64).collect();
//! let original = data.clone();
//! let ntt = CpuNtt::reference();
//! ntt.transform(&domain, &mut data, Direction::Forward);
//! ntt.transform(&domain, &mut data, Direction::Inverse);
//! assert_eq!(data, original);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod batched;
pub mod cpu;
pub mod domain;
pub mod gpu;

pub use batched::BatchedNtt;
pub use cpu::{CpuNtt, Direction};
pub use domain::Radix2Domain;
pub use gpu::{BaselineGpuNtt, GpuNttEngine, GzkpNtt};
