//! The Groth16 prover: the paper's two-stage pipeline — POLY (seven NTTs)
//! followed by five MSMs (a-query G1, b-query G1, b-query G2, h-query G1,
//! l-query G1) — with pluggable NTT and MSM engines so every paper
//! configuration (Best-CPU, BG, GZKP, ablations) runs through the same
//! code path.

use crate::qap::{poly_stage, poly_stage_traced, QapWitness};
use crate::r1cs::{ConstraintSystem, SynthesisError};
use crate::setup::ProvingKey;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::Affine;
use gzkp_ff::Field;
use gzkp_gpu_sim::StageReport;
use gzkp_msm::ScalarVec;
use gzkp_ntt::gpu::GpuNttEngine;
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
    let _prove_span = telemetry::span(sink, telemetry::counters::SPAN_PROVE);
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
    z_scalars: ScalarVec,
    aux_scalars: ScalarVec,
    h_scalars: ScalarVec,
    _curve: PhantomData<P>,
}

impl<P: PairingConfig> PolyArtifacts<P> {
    /// Bytes of packed scalars the MSM stage uploads to the device (the
    /// three vectors feeding the five MSMs; `z⃗` is consumed by three of
    /// them but transferred once). This is the stage's H2D footprint for
    /// transfer-pipelining schedulers.
    pub fn scalar_bytes(&self) -> u64 {
        [&self.z_scalars, &self.aux_scalars, &self.h_scalars]
            .iter()
            .map(|v| (v.len() * v.limbs_per_scalar() * 8) as u64)
            .sum()
    }

    /// Decomposes into `(report, z⃗, aux, h⃗)` — the checkpoint-extraction
    /// surface: [`crate::checkpoint::ProofCheckpoint`] serializes these
    /// parts so an interrupted job can resume its MSM stage on a
    /// different host. Inverse of [`PolyArtifacts::from_parts`].
    pub fn into_parts(self) -> (StageReport, ScalarVec, ScalarVec, ScalarVec) {
        (
            self.report,
            self.z_scalars,
            self.aux_scalars,
            self.h_scalars,
        )
    }

    /// Rebuilds artifacts from checkpointed parts. The caller is
    /// responsible for the vectors matching the proving key the MSM
    /// stage will run under ([`prove_msm`] asserts the shapes).
    pub fn from_parts(
        report: StageReport,
        z_scalars: ScalarVec,
        aux_scalars: ScalarVec,
        h_scalars: ScalarVec,
    ) -> Self {
        Self {
            report,
            z_scalars,
            aux_scalars,
            h_scalars,
            _curve: PhantomData,
        }
    }
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
        let _poly_span = telemetry::span(sink, telemetry::counters::SPAN_POLY);
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
/// blinding, and proof assembly. The blinding factors `r`, `s` are drawn
/// from `rng` *after* the MSMs — the same order as the monolithic
/// [`prove`] — so a fixed seed yields bit-identical proofs through either
/// path.
pub fn prove_msm<P: PairingConfig, R: Rng + ?Sized>(
    pk: &ProvingKey<P>,
    engines: &ProverEngines<'_, P>,
    poly: PolyArtifacts<P>,
    rng: &mut R,
    sink: &dyn TelemetrySink,
) -> (Proof<P>, ProveReport) {
    let PolyArtifacts {
        report: poly_report,
        z_scalars,
        aux_scalars,
        h_scalars,
        _curve,
    } = poly;

    let _msm_span = telemetry::span(sink, telemetry::counters::SPAN_MSM);
    let mut msm_report = StageReport::new("MSM");

    // The five MSMs run back to back: each is one flat parallel region
    // over its bucket tasks, so every core works on the current MSM
    // until it is done, whatever the G1/G2 cost mix. A scalar vector is
    // dropped (with its memoised `p_index`) after its last MSM. Span
    // names come from the telemetry registry's per-backend stage table;
    // kernel-report labels keep the historical query names.
    let stage_spans = telemetry::counters::GROTH16_MSM_STAGES;
    let mut msm_g1 = |stage: usize, label: &str, points: &[Affine<P::G1>], scalars: &ScalarVec| {
        let _span = telemetry::span(sink, stage_spans[stage]);
        let run = engines.msm_g1.msm_traced(points, scalars, sink);
        take(&mut msm_report, run.report, label);
        run.result
    };
    let a_sum = msm_g1(0, "a_query", &pk.a_query, &z_scalars);
    let b_g1_sum = msm_g1(1, "b_g1", &pk.b_g1_query, &z_scalars);
    let h_sum = msm_g1(2, "h_query", &pk.h_query, &h_scalars);
    drop(h_scalars);
    let l_sum = msm_g1(3, "l_query", &pk.l_query, &aux_scalars);
    drop(aux_scalars);
    let b_g2_sum = {
        let _span = telemetry::span(sink, stage_spans[4]);
        let run = engines.msm_g2.msm_traced(&pk.b_g2_query, &z_scalars, sink);
        take(&mut msm_report, run.report, "b_g2");
        run.result
    };
    drop(_msm_span);

    // Blinding factors (zero-knowledge).
    let r = P::Fr::random(rng);
    let s = P::Fr::random(rng);

    // A = α + Σ z·a_query + r·δ
    let a = a_sum.add_mixed(&pk.alpha_g1).add(&pk.delta_g1.mul(&r));
    // B = β + Σ z·b_query + s·δ (in G2; and its G1 shadow for C)
    let b_g2 = b_g2_sum.add_mixed(&pk.beta_g2).add(&pk.delta_g2.mul(&s));
    let b_g1 = b_g1_sum.add_mixed(&pk.beta_g1).add(&pk.delta_g1.mul(&s));
    // C = Σ_aux z·l_query + Σ h·h_query + s·A + r·B₁ − r·s·δ
    let c = l_sum
        .add(&h_sum)
        .add(&a.mul(&s))
        .add(&b_g1.mul(&r))
        .add(&pk.delta_g1.mul(&(r * s)).neg());

    (
        Proof {
            a: a.to_affine(),
            b: b_g2.to_affine(),
            c: c.to_affine(),
        },
        ProveReport {
            poly: poly_report,
            msm: msm_report,
        },
    )
}

/// Moves one MSM's kernel reports, `label`-prefixed, into the stage report.
fn take(stage: &mut StageReport, msm: StageReport, label: &str) {
    for mut k in msm.kernels {
        k.name = format!("{label}.{}", k.name);
        stage.kernels.push(k);
    }
}

/// Cost-only proof-generation plan: runs the POLY stage functionally (it
/// is cheap) but prices the five MSMs from the actual scalar digit
/// distributions without performing curve arithmetic. This is what the
/// Table 2/3/4 harnesses use at paper-scale vector sizes.
pub fn prove_plan<P: PairingConfig>(
    cs: &ConstraintSystem<P::Fr>,
    engines: &ProverEngines<'_, P>,
) -> Result<ProveReport, SynthesisError> {
    let qap = QapWitness::from_r1cs(cs)?;
    let poly = poly_stage(&qap, engines.ntt);

    let z = cs.full_assignment();
    let z_scalars = ScalarVec::from_field(&z);
    let aux_scalars = ScalarVec::from_field(&cs.aux_assignment);
    let h_scalars = ScalarVec::from_field(&poly.h[..qap.domain.size - 1]);

    let mut msm_report = StageReport::new("MSM");
    take(&mut msm_report, engines.msm_g1.plan(&z_scalars), "a_query");
    take(&mut msm_report, engines.msm_g1.plan(&z_scalars), "b_g1");
    take(&mut msm_report, engines.msm_g1.plan(&h_scalars), "h_query");
    take(
        &mut msm_report,
        engines.msm_g1.plan(&aux_scalars),
        "l_query",
    );
    take(&mut msm_report, engines.msm_g2.plan(&z_scalars), "b_g2");

    Ok(ProveReport {
        poly: poly.report,
        msm: msm_report,
    })
}
