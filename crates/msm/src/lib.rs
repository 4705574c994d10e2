//! # gzkp-msm — the MSM stage
//!
//! Multi-scalar multiplication `Σ sᵢ ⊗ Pᵢ`, the dominant cost of zkSNARK
//! proof generation (>70% on CPU systems, §2.3), in four engine families
//! that all compute the identical inner product (cross-validated against a
//! naive double-and-add oracle):
//!
//! * [`cpu::CpuMsm`] — serial/parallel Pippenger ("Best-CPU");
//! * [`submsm::SubMsmPippenger`] — window-parallel sub-MSM GPU baseline
//!   (bellperson-like, "BG");
//! * [`straus::StrausMsm`] — per-point precompute tables (MINA-like), with
//!   the memory blow-up that OOMs past 2²² at 753-bit (Table 7, Fig. 9);
//! * [`gzkp::GzkpMsm`] — the paper's §4 design: cross-window consolidation,
//!   checkpoint preprocessing (Algorithm 1), load-balanced bucket tasks,
//!   parallel-prefix bucket reduction.
//!
//! ## Example
//!
//! ```
//! use gzkp_msm::{GzkpMsm, MsmEngine, ScalarVec};
//! use gzkp_curves::bn254::{Fr, G1Config};
//! use gzkp_curves::random_points;
//! use gzkp_ff::Field;
//! use gzkp_gpu_sim::v100;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let points = random_points::<G1Config, _>(64, &mut rng);
//! let scalars: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
//! let run = GzkpMsm::new(v100()).msm(&points, &ScalarVec::from_field(&scalars));
//! println!("simulated MSM time: {:.3} ms", run.report.total_ms());
//! ```

#![warn(missing_docs)]

pub mod batch_affine;
pub mod cpu;
pub mod engine;
pub mod gzkp;
pub mod scalars;
pub mod store;
pub mod straus;
pub mod submsm;

pub use batch_affine::{accumulate_batch_affine, reduce_segments, BatchAffineStats, ReduceScratch};
pub use cpu::CpuMsm;
pub use engine::{naive_msm, CurveCost, MsmEngine, MsmRun, MsmStats};
pub use gzkp::{profile_window_size, GzkpMsm, ShardTask};
pub use scalars::{bucket_histogram, default_window_size, host_window_size, PIndex, ScalarVec};
pub use store::{PreprocessStore, Tables};
pub use straus::StrausMsm;
pub use submsm::SubMsmPippenger;
