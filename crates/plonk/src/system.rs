//! [`ProofSystem`] implementation for KZG-committed PLONK: a thin static
//! adapter over [`crate::prove::prove_poly`], the
//! [`crate::prove::PlonkCheckpoint`] state machine and the verifier, so
//! the service's generic `SystemTask<S>` schedules PLONK jobs through
//! exactly the code path it uses for Groth16.
//!
//! The MSM stage is the trait's provided `prove_msm` — the checkpoint
//! stepped to completion, as [`crate::prove::prove`] does — so direct,
//! served and resumed proofs are byte-identical by construction.

use crate::circuit::PlonkCircuit;
use crate::prove::{prove_poly, PlonkCheckpoint, PlonkPolyArtifacts};
use crate::setup::{PlonkProvingKey, PlonkVerifyingKey};
use crate::verify::verify_bytes;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{CoordField, CurveParams};
use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_proof_system::{ProofSystem, ProofSystemKind, ProveReport};
use gzkp_telemetry::TelemetrySink;
use std::marker::PhantomData;

/// Marker type selecting the KZG/PLONK backend over curve family `P`.
pub struct PlonkSystem<P: PairingConfig>(PhantomData<P>);

impl<P: PairingConfig> ProofSystem for PlonkSystem<P>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    type Pairing = P;
    type Circuit = PlonkCircuit<P::Fr>;
    type ProvingKey = PlonkProvingKey<P>;
    type VerifyingKey = PlonkVerifyingKey<P>;
    type PolyArtifacts = PlonkPolyArtifacts<P>;
    type Checkpoint = PlonkCheckpoint<P>;

    const KIND: ProofSystemKind = ProofSystemKind::Plonk;

    fn prove_poly(
        circuit: &Self::Circuit,
        pk: &Self::ProvingKey,
        ntt: &dyn GpuNttEngine<P::Fr>,
        sink: &dyn TelemetrySink,
    ) -> Result<Self::PolyArtifacts, String> {
        prove_poly::<P>(circuit, pk, ntt, sink)
    }

    fn verify_bytes(vk: &Self::VerifyingKey, circuit: &Self::Circuit, proof: &[u8]) -> bool {
        verify_bytes::<P>(vk, circuit.public_inputs(), proof)
    }

    fn witness_elems(circuit: &Self::Circuit) -> usize {
        circuit.num_variables()
    }

    fn poly_d2h_elems(pk: &Self::ProvingKey) -> usize {
        // Three wire polynomials come back from the POLY-stage INTTs.
        3 * pk.n
    }

    fn g1_msm_sizes(pk: &Self::ProvingKey) -> Vec<usize> {
        // The nine commitment MSMs: three wires (n+2), z (n+3), three
        // quotient chunks (n+2), and the two opening witnesses (≤ n+2).
        vec![
            pk.n + 2,
            pk.n + 2,
            pk.n + 2,
            pk.n + 3,
            pk.n + 2,
            pk.n + 2,
            pk.n + 2,
            pk.n + 2,
            pk.n + 2,
        ]
    }

    fn g2_msm_sizes(_pk: &Self::ProvingKey) -> Vec<usize> {
        // KZG commitments are G1-only; G2 appears only in verification.
        Vec::new()
    }

    fn checkpoint_from_poly(seed: u64, poly: Self::PolyArtifacts) -> Self::Checkpoint {
        PlonkCheckpoint::from_poly(seed, poly)
    }

    fn checkpoint_to_bytes(ckpt: &Self::Checkpoint) -> Vec<u8> {
        ckpt.to_bytes()
    }

    fn checkpoint_from_bytes(bytes: &[u8]) -> Result<Self::Checkpoint, String> {
        PlonkCheckpoint::from_bytes(bytes)
    }

    fn checkpoint_finish(
        ckpt: Self::Checkpoint,
        pk: &Self::ProvingKey,
    ) -> Result<(Vec<u8>, ProveReport), String> {
        let _ = pk;
        let (proof, report) = ckpt.finish()?;
        Ok((proof.to_bytes(), report))
    }
}
