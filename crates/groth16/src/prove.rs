//! The Groth16 prover: the paper's two-stage pipeline — POLY (seven NTTs)
//! followed by five MSMs (a-query G1, b-query G1, h-query G1, l-query G1,
//! b-query G2; the steps of [`crate::checkpoint::ProofCheckpoint`]) —
//! with pluggable NTT and MSM engines so every paper configuration
//! (Best-CPU, BG, GZKP, ablations) runs through the same code path.

use crate::checkpoint::ProofCheckpoint;
use crate::qap::{poly_stage_traced, QapWitness};
use crate::r1cs::{ConstraintSystem, SynthesisError};
use crate::setup::ProvingKey;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::Affine;
use gzkp_gpu_sim::StageReport;
use gzkp_msm::ScalarVec;
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_proof_system::run_msm_steps;
use gzkp_telemetry::{self as telemetry, NoopSink, TelemetrySink};
use rand::Rng;
use std::marker::PhantomData;

/// A Groth16 proof: two G1 points and one G2 point (<1 KB — the
/// succinctness property of §2.1).
#[derive(Debug, Clone)]
pub struct Proof<P: PairingConfig> {
    /// The `A` element.
    pub a: Affine<P::G1>,
    /// The `B` element.
    pub b: Affine<P::G2>,
    /// The `C` element.
    pub c: Affine<P::G1>,
}

impl<P: PairingConfig> PartialEq for Proof<P> {
    fn eq(&self, other: &Self) -> bool {
        self.a == other.a && self.b == other.b && self.c == other.c
    }
}
impl<P: PairingConfig> Eq for Proof<P> {}

/// Engine selection for the prover — the shared, backend-agnostic
/// [`gzkp_proof_system::Engines`] under its historical Groth16 name.
///
/// Single-device engines and the multi-device
/// `gzkp_runtime::CrossDeviceMsm` slot in interchangeably; because the
/// blinding factors `r, s` are drawn from the caller's RNG *after* the
/// five MSMs complete, identical engine results mean byte-identical
/// proofs regardless of placement. The `fleet_single_proof` bench and
/// the `cross_device_msm` proptests hold every engine to that contract.
pub use gzkp_proof_system::Engines as ProverEngines;

/// Timing record of one proof generation, split by the paper's two
/// stages (shared with every other backend through
/// `gzkp_proof_system`).
pub use gzkp_proof_system::ProveReport;

/// Generates a proof for the (satisfied, synthesized) constraint system.
///
/// # Errors
///
/// Fails when the system is unsatisfied or exceeds the NTT domain.
///
/// # Panics
///
/// Panics if the proving key does not match the constraint system shape.
pub fn prove<P: PairingConfig, R: Rng + ?Sized>(
    cs: &ConstraintSystem<P::Fr>,
    pk: &ProvingKey<P>,
    engines: &ProverEngines<'_, P>,
    rng: &mut R,
) -> Result<(Proof<P>, ProveReport), SynthesisError> {
    prove_with_telemetry(cs, pk, engines, rng, &NoopSink)
}

/// [`prove`] with structured telemetry: the run is wrapped in a `prove`
/// span containing a `poly` span (seven `ntt[i]` children) and an `msm`
/// span (`a`, `b_g1`, `b_g2`, `h`, `l` children), each carrying kernel
/// reports, counter rollups, and — for engines that expose them — bucket
/// statistics. With the default [`NoopSink`] every hook is a single
/// branch, so [`prove`] simply delegates here.
///
/// # Errors
///
/// Fails when the system is unsatisfied or exceeds the NTT domain.
///
/// # Panics
///
/// Panics if the proving key does not match the constraint system shape.
pub fn prove_with_telemetry<P: PairingConfig, R: Rng + ?Sized>(
    cs: &ConstraintSystem<P::Fr>,
    pk: &ProvingKey<P>,
    engines: &ProverEngines<'_, P>,
    rng: &mut R,
    sink: &dyn TelemetrySink,
) -> Result<(Proof<P>, ProveReport), SynthesisError> {
    let _prove_span = telemetry::span(sink, telemetry::names::SPAN_PROVE);
    let poly = prove_poly(cs, pk, engines.ntt, sink)?;
    Ok(prove_msm(pk, engines, poly, rng, sink))
}

/// Output of the POLY stage, ready to feed the MSM stage: the simulated
/// POLY report plus the three packed scalar vectors (`z⃗`, aux, `h⃗`) the
/// five MSMs consume. Produced by [`prove_poly`], consumed by
/// [`prove_msm`] — splitting the prover at this boundary lets a scheduler
/// overlap proof *i+1*'s POLY with proof *i*'s MSM phase (the software
/// analogue of GZKP's GPU streams).
pub struct PolyArtifacts<P: PairingConfig> {
    /// POLY-stage simulated report (7 NTTs + pointwise kernels).
    pub report: StageReport,
    pub(crate) z_scalars: ScalarVec,
    pub(crate) aux_scalars: ScalarVec,
    pub(crate) h_scalars: ScalarVec,
    _curve: PhantomData<P>,
}

/// Stage 1 of the prover: checks satisfiability, reduces R1CS → QAP, runs
/// the seven-NTT POLY stage (inside a `poly` span on `sink`), and packs
/// the MSM scalar vectors.
///
/// # Errors
///
/// Fails when the system is unsatisfied or exceeds the NTT domain.
///
/// # Panics
///
/// Panics if the proving key does not match the constraint system shape.
pub fn prove_poly<P: PairingConfig>(
    cs: &ConstraintSystem<P::Fr>,
    pk: &ProvingKey<P>,
    ntt: &dyn GpuNttEngine<P::Fr>,
    sink: &dyn TelemetrySink,
) -> Result<PolyArtifacts<P>, SynthesisError> {
    cs.is_satisfied()?;
    assert_eq!(pk.a_query.len(), cs.num_variables(), "key/circuit mismatch");

    // --- POLY stage: h = (A·B − C)/Z through seven NTTs (§5.2). ---
    let qap = QapWitness::from_r1cs(cs)?;
    assert_eq!(pk.domain_size, qap.domain.size, "key domain mismatch");
    let poly = {
        let _poly_span = telemetry::span(sink, telemetry::names::SPAN_POLY);
        poly_stage_traced(&qap, ntt, sink)
    };

    let z = cs.full_assignment();
    Ok(PolyArtifacts {
        z_scalars: ScalarVec::from_field(&z),
        aux_scalars: ScalarVec::from_field(&cs.aux_assignment),
        h_scalars: ScalarVec::from_field(&poly.h[..pk.h_query.len()]),
        report: poly.report,
        _curve: PhantomData,
    })
}

/// Stage 2 of the prover: the five MSMs (inside an `msm` span on `sink`),
/// blinding, and proof assembly — a fresh [`ProofCheckpoint`] stepped to
/// completion and finished, the same state machine a resumed job runs.
/// The blinding factors `r`, `s` are drawn from `rng` *after* the MSMs,
/// so a fixed seed yields bit-identical proofs however the stage was
/// scheduled.
///
/// # Panics
///
/// Panics if `poly` was not produced under `pk`.
pub fn prove_msm<P: PairingConfig, R: Rng + ?Sized>(
    pk: &ProvingKey<P>,
    engines: &ProverEngines<'_, P>,
    poly: PolyArtifacts<P>,
    rng: &mut R,
    sink: &dyn TelemetrySink,
) -> (Proof<P>, ProveReport) {
    // The seed only matters to a serialized checkpoint's resumer; this
    // one is finished here, from `rng`.
    let mut ckpt = ProofCheckpoint::from_poly(0, poly);
    run_msm_steps(&mut ckpt, pk, engines, sink, |_, _| Ok(()))
        .expect("POLY artifacts match the proving key");
    ckpt.finish(pk, rng).expect("every MSM step has run")
}
