//! [`ProofSystem`] implementation for Groth16: a thin static adapter
//! over [`crate::prove::prove_poly`] and
//! [`crate::checkpoint::ProofCheckpoint`], so the service's generic
//! `SystemTask<S>` can schedule Groth16 jobs without knowing anything
//! Groth16-specific.
//!
//! The adapter adds no computation of its own: the MSM stage is the
//! trait's provided `prove_msm` — the checkpoint stepped to completion —
//! and its proofs are byte-identical to [`crate::prove::prove`] with
//! `StdRng::seed_from_u64(seed)`, which runs the same steps.

use crate::batch::proof_to_bytes;
use crate::checkpoint::ProofCheckpoint;
use crate::prove::{prove_poly, PolyArtifacts};
use crate::r1cs::ConstraintSystem;
use crate::setup::{ProvingKey, VerifyingKey};
use crate::verify::verify_proof_bytes;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{CoordField, CurveParams};
use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_proof_system::{ProofSystem, ProofSystemKind, ProveReport};
use gzkp_telemetry::TelemetrySink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::marker::PhantomData;

/// Marker type selecting the Groth16 backend over curve family `P`.
pub struct Groth16System<P: PairingConfig>(PhantomData<P>);

impl<P: PairingConfig> ProofSystem for Groth16System<P>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    type Pairing = P;
    type Circuit = ConstraintSystem<P::Fr>;
    type ProvingKey = ProvingKey<P>;
    type VerifyingKey = VerifyingKey<P>;
    type PolyArtifacts = PolyArtifacts<P>;
    type Checkpoint = ProofCheckpoint<P>;

    const KIND: ProofSystemKind = ProofSystemKind::Groth16;

    fn prove_poly(
        circuit: &Self::Circuit,
        pk: &Self::ProvingKey,
        ntt: &dyn GpuNttEngine<P::Fr>,
        sink: &dyn TelemetrySink,
    ) -> Result<Self::PolyArtifacts, String> {
        prove_poly::<P>(circuit, pk, ntt, sink).map_err(|e| format!("poly stage failed: {e:?}"))
    }

    fn verify_bytes(vk: &Self::VerifyingKey, circuit: &Self::Circuit, proof: &[u8]) -> bool {
        verify_proof_bytes::<P>(vk, proof, &circuit.input_assignment)
    }

    fn witness_elems(circuit: &Self::Circuit) -> usize {
        circuit.num_variables()
    }

    fn poly_d2h_elems(pk: &Self::ProvingKey) -> usize {
        pk.h_query.len()
    }

    fn g1_msm_sizes(pk: &Self::ProvingKey) -> Vec<usize> {
        vec![
            pk.a_query.len(),
            pk.b_g1_query.len(),
            pk.h_query.len(),
            pk.l_query.len(),
        ]
    }

    fn g2_msm_sizes(pk: &Self::ProvingKey) -> Vec<usize> {
        vec![pk.b_g2_query.len()]
    }

    fn checkpoint_from_poly(seed: u64, poly: Self::PolyArtifacts) -> Self::Checkpoint {
        ProofCheckpoint::from_poly(seed, poly)
    }

    fn checkpoint_to_bytes(ckpt: &Self::Checkpoint) -> Vec<u8> {
        ckpt.to_bytes()
    }

    fn checkpoint_from_bytes(bytes: &[u8]) -> Result<Self::Checkpoint, String> {
        ProofCheckpoint::from_bytes(bytes)
    }

    fn checkpoint_finish(
        ckpt: Self::Checkpoint,
        pk: &Self::ProvingKey,
    ) -> Result<(Vec<u8>, ProveReport), String> {
        let mut rng = StdRng::seed_from_u64(ckpt.seed);
        let (proof, report) = ckpt.finish(pk, &mut rng)?;
        Ok((proof_to_bytes(&proof), report))
    }
}
