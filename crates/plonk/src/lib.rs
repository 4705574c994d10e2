//! # gzkp-plonk — KZG-committed PLONK on the GZKP engine stack
//!
//! The second proof system served by the GZKP pipeline. Where Groth16
//! reduces R1CS to a QAP and runs five query MSMs against a per-circuit
//! trusted setup, PLONK arithmetizes into gate + copy constraints over
//! three wire columns and commits to witness polynomials under a
//! *universal* powers-of-tau KZG setup — but both backends decompose into
//! the same two stages the engine stack schedules:
//!
//! * **POLY** — a batch of NTTs ([`prove_poly`] interpolates the wire
//!   columns; the quotient step later extends the four witness
//!   polynomials to the 4n coset, the key holding the rest there);
//! * **MSM** — a sequence of checkpointable steps, each one or more MSMs
//!   through the shared [`gzkp_msm::MsmEngine`] (shard plan,
//!   preprocess cache, cross-device merging included).
//!
//! [`PlonkSystem`] packages the backend behind the
//! [`gzkp_proof_system::ProofSystem`] trait, so the proving service,
//! fleet placement, checkpointed cluster jobs, and telemetry all serve
//! mixed Groth16 + PLONK streams through one front door.
//!
//! Modules:
//!
//! * [`kzg`] — the polynomial-commitment scheme: SRS, commit (an engine
//!   MSM), open, verify, batch-verify.
//! * [`circuit`] — PLONK gates plus the R1CS → PLONK lowering (one fused
//!   gate per single-term constraint) so every existing workload circuit
//!   runs under both backends.
//! * [`setup`](mod@setup) — per-circuit preprocessing (selectors, permutation,
//!   the Lagrange-basis SRS and the quotient's coset constants).
//! * [`prove`](mod@prove) — the four-step prover and its portable checkpoint.
//! * [`verify`](mod@verify) — constant-time verification (two identities, two
//!   pairings).
//! * [`transcript`] — the deterministic Fiat–Shamir transcript.

#![warn(missing_docs)]

pub mod circuit;
pub mod kzg;
pub mod proof;
pub mod prove;
pub mod setup;
pub mod system;
pub mod transcript;
pub mod verify;

#[cfg(test)]
mod equivalence;

pub use circuit::{PlonkCircuit, PlonkGate, MIN_DOMAIN};
pub use gzkp_proof_system::MsmSteps;
pub use kzg::{KzgOpening, KzgSrs};
pub use proof::{PlonkEvals, PlonkProof};
pub use prove::{prove, prove_bytes, prove_poly, PlonkCheckpoint, PlonkPolyArtifacts, MSM_STEPS};
pub use setup::{setup, PlonkProvingKey, PlonkVerifyingKey};
pub use system::PlonkSystem;
pub use verify::{verify, verify_bytes};

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_curves::bn254::{Bn254, Fr};
    use gzkp_ff::Field;
    use gzkp_gpu_sim::v100;
    use gzkp_msm::GzkpMsm;
    use gzkp_ntt::gpu::GzkpNtt;
    use gzkp_proof_system::Engines;
    use gzkp_telemetry::NoopSink;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn squares_circuit() -> PlonkCircuit<Fr> {
        // Public x₀ = 3; enforce xᵢ₊₁ = xᵢ² for a few rounds.
        let mut circuit = PlonkCircuit::new(&[Fr::from_u64(3)]);
        let mut cur = Fr::from_u64(3);
        let mut var = 1; // the public input's variable
        for _ in 0..6 {
            let next = cur * cur;
            let next_var = circuit.alloc(next);
            circuit.push_gate(PlonkGate {
                q_m: Fr::one(),
                q_o: -Fr::one(),
                a: var,
                b: var,
                c: next_var,
                ..PlonkGate::empty()
            });
            cur = next;
            var = next_var;
        }
        circuit
    }

    fn engines_for(dev: gzkp_gpu_sim::device::DeviceConfig) -> (GzkpNtt, GzkpMsm, GzkpMsm) {
        (
            GzkpNtt::auto::<Fr>(dev.clone()),
            GzkpMsm::new(dev.clone()),
            GzkpMsm::new(dev),
        )
    }

    #[test]
    fn prove_verify_round_trip() {
        let circuit = squares_circuit();
        let mut rng = StdRng::seed_from_u64(11);
        let (pk, vk) = setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let engines = Engines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (proof, report) = prove(&circuit, &pk, &engines, 42, &NoopSink).unwrap();
        assert!(verify(&vk, circuit.public_inputs(), &proof));
        assert!(report.total_ms() > 0.0);

        // Serialization round-trips and verifies.
        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), PlonkProof::<Bn254>::encoded_len());
        assert!(verify_bytes(&vk, circuit.public_inputs(), &bytes));
    }

    #[test]
    fn wrong_public_input_rejected() {
        let circuit = squares_circuit();
        let mut rng = StdRng::seed_from_u64(12);
        let (pk, vk) = setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let engines = Engines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (proof, _) = prove(&circuit, &pk, &engines, 1, &NoopSink).unwrap();
        assert!(!verify(&vk, &[Fr::from_u64(4)], &proof));
        assert!(!verify(&vk, &[], &proof));
    }

    #[test]
    fn tampered_proof_bytes_rejected() {
        let circuit = squares_circuit();
        let mut rng = StdRng::seed_from_u64(13);
        let (pk, vk) = setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let engines = Engines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (bytes, _) = prove_bytes(&circuit, &pk, &engines, 7, &NoopSink).unwrap();
        // Flip one bit in each region (a point early on, a scalar at the
        // end): decoding either fails or the proof no longer verifies.
        for pos in [1, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(
                !verify_bytes(&vk, circuit.public_inputs(), &bad),
                "tampered byte {pos} must not verify"
            );
        }
        assert!(!verify_bytes(&vk, circuit.public_inputs(), &bytes[1..]));
    }

    #[test]
    fn checkpoint_resume_matches_monolithic() {
        let circuit = squares_circuit();
        let mut rng = StdRng::seed_from_u64(14);
        let (pk, vk) = setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let engines = Engines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (expected, _) = prove_bytes(&circuit, &pk, &engines, 9, &NoopSink).unwrap();

        for interrupt_after in 0..=MSM_STEPS {
            let poly = prove_poly::<Bn254>(&circuit, &pk, &ntt, &NoopSink).unwrap();
            let mut ckpt = PlonkCheckpoint::from_poly(9, poly);
            for step in 0..interrupt_after {
                ckpt.run_step(&pk, &engines, step, &NoopSink).unwrap();
            }
            // Serialize mid-flight, "move hosts", resume on fresh engines.
            let bytes = ckpt.to_bytes();
            let mut resumed = PlonkCheckpoint::<Bn254>::from_bytes(&bytes).unwrap();
            assert_eq!(resumed.steps_done(), interrupt_after);
            assert_eq!(resumed.seed, 9);
            let (ntt2, g1b, g2b) = engines_for(v100());
            let engines2 = Engines::<Bn254> {
                ntt: &ntt2,
                msm_g1: &g1b,
                msm_g2: &g2b,
            };
            while let Some(step) = resumed.next_step() {
                resumed.run_step(&pk, &engines2, step, &NoopSink).unwrap();
            }
            let (proof, report) = resumed.finish().unwrap();
            assert_eq!(
                proof.to_bytes(),
                expected,
                "interrupted after {interrupt_after} plonk steps"
            );
            assert!(report.total_ms() > 0.0);
            assert!(verify(&vk, circuit.public_inputs(), &proof));
        }
    }

    #[test]
    fn corrupt_checkpoints_rejected() {
        let circuit = squares_circuit();
        let mut rng = StdRng::seed_from_u64(15);
        let (pk, _vk) = setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let (ntt, _, _) = engines_for(v100());
        let poly = prove_poly::<Bn254>(&circuit, &pk, &ntt, &NoopSink).unwrap();
        let bytes = PlonkCheckpoint::from_poly(0, poly).to_bytes();

        let err = PlonkCheckpoint::<gzkp_curves::bls12_381::Bls12_381>::from_bytes(&bytes)
            .err()
            .expect("wrong-curve decode must fail");
        assert!(err.contains("curve shape"), "{err}");

        assert!(PlonkCheckpoint::<Bn254>::from_bytes(&[]).is_err());
        assert!(PlonkCheckpoint::<Bn254>::from_bytes(b"GZKPPLKx").is_err());
        for cut in [8, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                PlonkCheckpoint::<Bn254>::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(PlonkCheckpoint::<Bn254>::from_bytes(&trailing).is_err());
    }

    #[test]
    fn r1cs_migrated_circuit_proves() {
        use gzkp_groth16::r1cs::{ConstraintSystem, LinearCombination};
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_input(Fr::from_u64(45));
        let x = cs.alloc(Fr::from_u64(3));
        let y = cs.alloc(Fr::from_u64(9));
        cs.enforce(
            LinearCombination::from_var(x).add_term(gzkp_groth16::Variable::ONE, Fr::from_u64(2)),
            LinearCombination::from_var(y),
            LinearCombination::from_var(out),
        );
        let circuit = PlonkCircuit::from_r1cs(&cs);
        let mut rng = StdRng::seed_from_u64(16);
        let (pk, vk) = setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let engines = Engines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let (proof, _) = prove(&circuit, &pk, &engines, 3, &NoopSink).unwrap();
        assert!(verify(&vk, circuit.public_inputs(), &proof));
    }
}
