//! # gzkp-groth16 — the zkSNARK protocol layer
//!
//! A complete Groth16 implementation over the workspace's pairing curves,
//! structured exactly as the paper's Figure 1 workflow:
//!
//! * [`r1cs`] — constraint systems and the [`r1cs::Circuit`] trait;
//! * [`gadgets`] — booleans, range checks, MiMC hashing, Merkle paths;
//! * [`qap`] — the R1CS → QAP reduction and the seven-NTT POLY stage;
//! * [`mod@setup`] — trusted setup producing proving/verification keys;
//! * [`mod@prove`] — the two-stage prover (POLY then five MSMs) with
//!   pluggable NTT/MSM engines, reporting per-stage simulated times;
//! * [`mod@verify`] — the pairing-equation verifier.
//!
//! ## End-to-end example
//!
//! ```
//! use gzkp_groth16::r1cs::{ConstraintSystem, LinearCombination};
//! use gzkp_groth16::{prove::{prove, ProverEngines}, setup::setup, verify::verify};
//! use gzkp_curves::bn254::{Bn254, Fr};
//! use gzkp_ff::Field;
//! use gzkp_msm::GzkpMsm;
//! use gzkp_ntt::GzkpNtt;
//! use gzkp_gpu_sim::v100;
//! use rand::SeedableRng;
//!
//! // Prove knowledge of factors of 35.
//! let mut cs = ConstraintSystem::<Fr>::new();
//! let n = cs.alloc_input(Fr::from_u64(35));
//! let p = cs.alloc(Fr::from_u64(5));
//! let q = cs.alloc(Fr::from_u64(7));
//! cs.enforce(
//!     LinearCombination::from_var(p),
//!     LinearCombination::from_var(q),
//!     LinearCombination::from_var(n),
//! );
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
//! let ntt = GzkpNtt::auto::<Fr>(v100());
//! let msm_g1 = GzkpMsm::new(v100());
//! let msm_g2 = GzkpMsm::new(v100());
//! let engines = ProverEngines::<Bn254> { ntt: &ntt, msm_g1: &msm_g1, msm_g2: &msm_g2 };
//! let (proof, report) = prove(&cs, &pk, &engines, &mut rng).unwrap();
//! assert!(verify::<Bn254>(&vk, &proof, &[Fr::from_u64(35)]));
//! assert!(report.total_ms() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod gadgets;
pub mod prove;
pub mod qap;
pub mod r1cs;
pub mod setup;
pub mod system;
pub mod verify;

pub use batch::{proof_from_bytes, proof_to_bytes};
pub use checkpoint::{ProofCheckpoint, MSM_STEPS};
pub use gzkp_proof_system::MsmSteps;
pub use prove::{
    prove, prove_msm, prove_poly, prove_with_telemetry, PolyArtifacts, Proof, ProveReport,
    ProverEngines,
};
pub use r1cs::{Circuit, ConstraintSystem, LinearCombination, SynthesisError, Variable};
pub use setup::{setup, ProvingKey, VerifyingKey};
pub use system::Groth16System;
pub use verify::verify;
