//! The Groth16 MSM stage as a resumable state machine with a versioned
//! byte encoding: a [`ProofCheckpoint`] is opened from the POLY
//! artifacts, stepped through the five MSMs, and finished into a proof —
//! which is how [`crate::prove::prove_msm`] runs the stage, and why a job
//! interrupted between any two MSMs can resume *on a different host* and
//! still produce a proof byte-identical to the uninterrupted run. A
//! checkpoint holds:
//!
//! * the POLY artifacts (the three packed scalar vectors and the POLY
//!   stage report), and
//! * the partial result of every MSM step already executed (each MSM's
//!   full group-element sum, stored as a compressed affine point), plus
//!   the accumulated MSM kernel reports.
//!
//! Byte-identity across interruption holds by construction: every MSM is
//! an exact group computation (the same on any device or host), the
//! blinding factors `r, s` are drawn only in [`ProofCheckpoint::finish`]
//! — after the last MSM — and the final proof points are normalized by
//! `to_affine`, so round-tripping a partial sum through its compressed
//! affine form cannot change the proof bytes.
//!
//! ## Wire format (version 1)
//!
//! The shared header of [`gzkp_proof_system::codec`] under magic
//! `"GZKPCKP"`, then:
//!
//! ```text
//! z⃗, aux, h⃗: per_scalar:u32 bits:u32 n:u64 ++ n·per_scalar little-endian u64 limbs
//! for each set bit of `done`, ascending: len:u64 ++ compressed affine point
//! ```
//!
//! On top of the header's checks, decoding requires every scalar vector
//! to have the scalar field's limb count and bit width.

use crate::prove::{PolyArtifacts, Proof, ProveReport, ProverEngines};
use crate::setup::ProvingKey;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::serialize::CoordField;
use gzkp_curves::{Affine, CurveParams, Projective};
use gzkp_ff::{Field, PrimeField};
use gzkp_gpu_sim::StageReport;
use gzkp_msm::{MsmEngine, ScalarVec};
use gzkp_proof_system::codec::{self, Reader};
use gzkp_proof_system::MsmSteps;
use gzkp_telemetry::{self as telemetry, TelemetrySink};
use rand::Rng;

/// Number of MSM steps a checkpoint tracks (`a`, `b_g1`, `h`, `l`,
/// `b_g2`, in execution order).
pub const MSM_STEPS: usize = 5;

const MAGIC: &[u8; 7] = b"GZKPCKP";

/// Span names of the five MSM steps: the registry's Groth16 stage table.
const STEP_SPANS: [&str; MSM_STEPS] = telemetry::names::GROTH16_MSM_STAGES;
/// Kernel-report label prefixes (the historical query names).
const STEP_LABELS: [&str; MSM_STEPS] = ["a_query", "b_g1", "h_query", "l_query", "b_g2"];

/// The scalar vector (`z⃗`, aux, `h⃗`: indices 0, 1, 2) each step consumes.
const STEP_SCALARS: [usize; MSM_STEPS] = [0, 0, 2, 1, 0];

/// Resumable mid-proof state: POLY artifacts plus zero or more completed
/// MSM partial sums. See the module docs for the serialized form.
pub struct ProofCheckpoint<P: PairingConfig> {
    /// Seed of the job's blinding-factor RNG. Carried in the checkpoint
    /// so the resuming host draws the same `r, s` — the resumer passes
    /// `StdRng::seed_from_u64(seed)` (or equivalent) to
    /// [`ProofCheckpoint::finish`].
    pub seed: u64,
    poly_report: StageReport,
    /// `z⃗`, aux, `h⃗`.
    scalars: [ScalarVec; 3],
    msm_report: StageReport,
    g1_partials: [Option<Projective<P::G1>>; 4],
    g2_partial: Option<Projective<P::G2>>,
}

/// Moves step `step`'s kernel reports, label-prefixed, into the stage
/// report.
fn take(msm_report: &mut StageReport, step: usize, report: StageReport) {
    for mut k in report.kernels {
        k.name = format!("{}.{}", STEP_LABELS[step], k.name);
        msm_report.kernels.push(k);
    }
}

/// Runs one step's MSM under its span.
fn step_msm<C: CurveParams>(
    engine: &dyn MsmEngine<C>,
    points: &[Affine<C>],
    scalars: &ScalarVec,
    step: usize,
    msm_report: &mut StageReport,
    sink: &dyn TelemetrySink,
) -> Result<Projective<C>, String> {
    let label = STEP_LABELS[step];
    if scalars.len() != points.len() {
        return Err(format!(
            "msm step {step} ({label}): {} scalars do not match the key's {} points",
            scalars.len(),
            points.len()
        ));
    }
    let run = {
        let _span = telemetry::span(sink, STEP_SPANS[step]);
        engine.msm_traced(points, scalars, sink)
    };
    take(msm_report, step, run.report);
    Ok(run.result)
}

impl<P: PairingConfig> MsmSteps for ProofCheckpoint<P> {
    type Pairing = P;
    type ProvingKey = ProvingKey<P>;

    const STEPS: usize = MSM_STEPS;

    fn seed(&self) -> u64 {
        self.seed
    }

    fn done_mask(&self) -> u8 {
        let g1 = self.g1_partials.iter().map(Option::is_some);
        g1.chain([self.g2_partial.is_some()])
            .enumerate()
            .fold(0, |mask, (step, done)| mask | u8::from(done) << step)
    }

    fn poly_report(&self) -> &StageReport {
        &self.poly_report
    }

    /// The three vectors feeding the five MSMs; `z⃗` is consumed by three
    /// of them but transferred once.
    fn scalar_bytes(&self) -> u64 {
        self.scalars
            .iter()
            .map(|v| (v.len() * v.limbs_per_scalar() * 8) as u64)
            .sum()
    }

    /// Executes MSM step `step` (one of the five inner products, one flat
    /// parallel region over its bucket tasks). Also fails if the step's
    /// scalar vector and `pk`'s query differ in length (a checkpoint
    /// taken under another key).
    fn run_step(
        &mut self,
        pk: &ProvingKey<P>,
        engines: &ProverEngines<'_, P>,
        step: usize,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String> {
        if step >= MSM_STEPS {
            return Err(format!("msm step {step} out of range (0..{MSM_STEPS})"));
        }
        if self.done_mask() & (1 << step) != 0 {
            return Ok(());
        }
        let scalars = &self.scalars[STEP_SCALARS[step]];
        if step < 4 {
            let points = [&pk.a_query, &pk.b_g1_query, &pk.h_query, &pk.l_query][step];
            let report = &mut self.msm_report;
            let sum = step_msm(engines.msm_g1, points, scalars, step, report, sink)?;
            self.g1_partials[step] = Some(sum);
        } else {
            let report = &mut self.msm_report;
            let sum = step_msm(engines.msm_g2, &pk.b_g2_query, scalars, step, report, sink)?;
            self.g2_partial = Some(sum);
        }
        // A vector's memoised `p_index` is dead weight once no remaining
        // step reads the vector.
        let done = self.done_mask();
        let reads_again = |s: usize| done & (1 << s) == 0 && STEP_SCALARS[s] == STEP_SCALARS[step];
        if !(0..MSM_STEPS).any(reads_again) {
            scalars.release_p_indexes();
        }
        Ok(())
    }
}

impl<P: PairingConfig> ProofCheckpoint<P> {
    /// Opens a checkpoint right after the POLY stage: no MSM steps done.
    pub fn from_poly(seed: u64, poly: PolyArtifacts<P>) -> Self {
        Self {
            seed,
            poly_report: poly.report,
            scalars: [poly.z_scalars, poly.aux_scalars, poly.h_scalars],
            msm_report: StageReport::new("MSM"),
            g1_partials: [None, None, None, None],
            g2_partial: None,
        }
    }

    /// Blinding and proof assembly: draws `r, s` from `rng` (seed it from
    /// [`ProofCheckpoint::seed`] for byte-identity across a resume) and
    /// combines the five partial sums with the key elements.
    ///
    /// # Errors
    ///
    /// Fails if any MSM step has not run yet.
    pub fn finish<R: Rng + ?Sized>(
        self,
        pk: &ProvingKey<P>,
        rng: &mut R,
    ) -> Result<(Proof<P>, ProveReport), String> {
        if let Some(step) = self.next_step() {
            return Err(format!(
                "cannot finish: msm step {step} ({}) not yet run",
                STEP_LABELS[step]
            ));
        }
        let [a_sum, b_g1_sum, h_sum, l_sum] =
            self.g1_partials.map(|p| p.expect("all g1 steps done"));
        let b_g2_sum = self.g2_partial.expect("g2 step done");

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

        Ok((
            Proof {
                a: a.to_affine(),
                b: b_g2.to_affine(),
                c: c.to_affine(),
            },
            ProveReport {
                poly: self.poly_report,
                msm: self.msm_report,
            },
        ))
    }
}

fn put_scalars(out: &mut Vec<u8>, v: &ScalarVec) {
    out.extend((v.limbs_per_scalar() as u32).to_le_bytes());
    out.extend(v.bits().to_le_bytes());
    out.extend((v.len() as u64).to_le_bytes());
    for limb in v.raw_limbs() {
        out.extend(limb.to_le_bytes());
    }
}

/// Reads one scalar vector of field `F`. The limb count and bit width
/// are part of the format but not free: anything other than `F`'s would
/// reach the MSM engines as a window count of the attacker's choosing.
/// Every scalar must be canonical (below `F`'s modulus), as every field
/// element PLONK's checkpoint reads is.
fn read_scalars<F: PrimeField>(r: &mut Reader<'_>, which: &str) -> Result<ScalarVec, String> {
    let per_scalar = r.u32()? as usize;
    let bits = r.u32()?;
    if per_scalar != F::NUM_LIMBS {
        return Err(format!(
            "{which} scalars: limbs-per-scalar {per_scalar} is not the scalar field's {}",
            F::NUM_LIMBS
        ));
    }
    if bits != F::MODULUS_BITS {
        return Err(format!(
            "{which} scalars: bits {bits} is not the scalar field's {}",
            F::MODULUS_BITS
        ));
    }
    let total = r
        .count()?
        .checked_mul(per_scalar * 8)
        .ok_or_else(|| format!("{which} scalars: buffer overflow"))?;
    let limbs: Vec<u64> = r
        .take(total)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("eight-byte chunk")))
        .collect();
    let modulus = F::characteristic();
    for (i, scalar) in limbs.chunks_exact(per_scalar).enumerate() {
        if scalar.iter().rev().ge(modulus.iter().rev()) {
            return Err(format!(
                "{which} scalars: scalar {i} is not below the modulus"
            ));
        }
    }
    Ok(ScalarVec::from_raw(limbs, per_scalar, bits))
}

impl<P: PairingConfig> ProofCheckpoint<P>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
{
    /// Serializes to the versioned byte format (module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = codec::begin::<P>(
            MAGIC,
            self.seed,
            self.done_mask(),
            &self.poly_report,
            &self.msm_report,
            self.scalar_bytes() as usize,
        );
        for v in &self.scalars {
            put_scalars(&mut out, v);
        }
        for partial in self.g1_partials.iter().flatten() {
            codec::put_point(&mut out, &partial.to_affine());
        }
        if let Some(partial) = &self.g2_partial {
            codec::put_point(&mut out, &partial.to_affine());
        }
        out
    }

    /// Decodes a checkpoint, validating the header, the shape of every
    /// scalar vector, and every stored point against the curve equation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field; never panics
    /// on attacker-controlled input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::open::<P>(bytes, MAGIC, MSM_STEPS)?;
        let (seed, done) = (r.seed, r.done);
        let scalars = [
            read_scalars::<P::Fr>(&mut r, "z")?,
            read_scalars::<P::Fr>(&mut r, "aux")?,
            read_scalars::<P::Fr>(&mut r, "h")?,
        ];
        let mut g1_partials = [None, None, None, None];
        for (step, partial) in g1_partials.iter_mut().enumerate() {
            if done & (1 << step) != 0 {
                let which = format!("msm step {step} partial");
                *partial = Some(r.point::<P::G1>(&which)?.to_projective());
            }
        }
        let g2_partial = if done & (1 << 4) != 0 {
            Some(r.point::<P::G2>("msm step 4 partial")?.to_projective())
        } else {
            None
        };
        let [poly_report, msm_report] = r.finish()?;
        Ok(Self {
            seed,
            poly_report,
            scalars,
            msm_report,
            g1_partials,
            g2_partial,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::proof_to_bytes;
    use crate::prove::{prove, prove_poly};
    use crate::r1cs::{ConstraintSystem, LinearCombination};
    use crate::setup::setup;
    use gzkp_curves::bls12_381::Bls12_381;
    use gzkp_curves::bn254::{Bn254, Fr};
    use gzkp_gpu_sim::v100;
    use gzkp_msm::GzkpMsm;
    use gzkp_ntt::gpu::GzkpNtt;
    use gzkp_telemetry::NoopSink;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cs<F: gzkp_ff::PrimeField>() -> ConstraintSystem<F> {
        squaring_cs(6)
    }

    /// `depth` multiplicative constraints: x_{i+1} = x_i · x_i.
    fn squaring_cs<F: gzkp_ff::PrimeField>(depth: usize) -> ConstraintSystem<F> {
        let mut cs = ConstraintSystem::<F>::new();
        let mut cur = F::from_u64(3);
        let mut var = cs.alloc_input(cur);
        for _ in 0..depth {
            let next = cur * cur;
            let next_var = cs.alloc(next);
            cs.enforce(
                LinearCombination::from_var(var),
                LinearCombination::from_var(var),
                LinearCombination::from_var(next_var),
            );
            cur = next;
            var = next_var;
        }
        cs
    }

    fn engines_for(dev: gzkp_gpu_sim::device::DeviceConfig) -> (GzkpNtt, GzkpMsm, GzkpMsm) {
        (
            GzkpNtt::auto::<Fr>(dev.clone()),
            GzkpMsm::new(dev.clone()),
            GzkpMsm::new(dev),
        )
    }

    #[test]
    fn stepwise_checkpointing_matches_monolithic_prove() {
        let cs = small_cs::<Fr>();
        let mut rng = StdRng::seed_from_u64(1);
        let (pk, _vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let engines = ProverEngines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };

        let (expected, _) = prove(&cs, &pk, &engines, &mut StdRng::seed_from_u64(9)).unwrap();
        let expected = proof_to_bytes(&expected);

        for interrupt_after in 0..=MSM_STEPS {
            let poly = prove_poly::<Bn254>(&cs, &pk, &ntt, &NoopSink).unwrap();
            let mut ckpt = ProofCheckpoint::from_poly(9, poly);
            for step in 0..interrupt_after {
                ckpt.run_step(&pk, &engines, step, &NoopSink).unwrap();
            }
            // Serialize mid-flight, "move hosts", resume on fresh engines.
            let bytes = ckpt.to_bytes();
            let mut resumed = ProofCheckpoint::<Bn254>::from_bytes(&bytes).unwrap();
            assert_eq!(resumed.steps_done(), interrupt_after);
            assert_eq!(resumed.seed, 9);
            let (ntt2, g1b, g2b) = engines_for(v100());
            let engines2 = ProverEngines::<Bn254> {
                ntt: &ntt2,
                msm_g1: &g1b,
                msm_g2: &g2b,
            };
            while let Some(step) = resumed.next_step() {
                resumed.run_step(&pk, &engines2, step, &NoopSink).unwrap();
            }
            let (proof, report) = resumed.finish(&pk, &mut StdRng::seed_from_u64(9)).unwrap();
            assert_eq!(
                proof_to_bytes(&proof),
                expected,
                "interrupted after {interrupt_after} msm steps"
            );
            assert!(report.total_ms() > 0.0);
        }
    }

    #[test]
    fn finish_requires_all_steps() {
        let cs = small_cs::<Fr>();
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, _vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        let (ntt, _, _) = engines_for(v100());
        let poly = prove_poly::<Bn254>(&cs, &pk, &ntt, &NoopSink).unwrap();
        let ckpt = ProofCheckpoint::<Bn254>::from_poly(3, poly);
        let err = ckpt.finish(&pk, &mut StdRng::seed_from_u64(3)).unwrap_err();
        assert!(err.contains("step 0"), "{err}");
    }

    #[test]
    fn wrong_curve_and_corrupt_bytes_are_rejected() {
        let cs = small_cs::<Fr>();
        let mut rng = StdRng::seed_from_u64(4);
        let (pk, _vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        let (ntt, _, _) = engines_for(v100());
        let poly = prove_poly::<Bn254>(&cs, &pk, &ntt, &NoopSink).unwrap();
        let bytes = ProofCheckpoint::<Bn254>::from_poly(0, poly).to_bytes();

        let err = ProofCheckpoint::<Bls12_381>::from_bytes(&bytes)
            .err()
            .expect("wrong-curve decode must fail");
        assert!(err.contains("curve shape"), "{err}");

        assert!(ProofCheckpoint::<Bn254>::from_bytes(&[]).is_err());
        assert!(ProofCheckpoint::<Bn254>::from_bytes(b"GZKPCKPx").is_err());
        for cut in [8, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ProofCheckpoint::<Bn254>::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ProofCheckpoint::<Bn254>::from_bytes(&trailing).is_err());
    }

    #[test]
    fn forged_scalar_vectors_are_rejected_by_name() {
        let cs = small_cs::<Fr>();
        let mut rng = StdRng::seed_from_u64(6);
        let (pk, _vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let poly = prove_poly::<Bn254>(&cs, &pk, &ntt, &NoopSink).unwrap();
        let bytes = ProofCheckpoint::<Bn254>::from_poly(0, poly).to_bytes();

        // z⃗'s `per_scalar:u32 bits:u32` sit right after the two
        // length-prefixed report sections that follow the 33-byte header.
        let section_len =
            |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let msm_report_at = 33 + 8 + section_len(33);
        let z_at = msm_report_at + 8 + section_len(msm_report_at);
        let forge = |at: usize, value: u32| {
            let mut forged = bytes.clone();
            forged[at..at + 4].copy_from_slice(&value.to_le_bytes());
            ProofCheckpoint::<Bn254>::from_bytes(&forged)
                .err()
                .expect("forged field must be rejected")
        };
        for per_scalar in [0, 1, 5, 64] {
            let err = forge(z_at, per_scalar);
            assert!(err.contains("z scalars: limbs-per-scalar"), "{err}");
        }
        for bits in [8, 253, 256, u32::MAX] {
            let err = forge(z_at + 4, bits);
            assert!(err.contains("z scalars: bits"), "{err}");
        }
        // z⃗[0]'s limbs follow its `count:u64`; 2²⁵⁶ − 1 and r itself are
        // not canonical scalars.
        let r_bytes: Vec<u8> = Fr::characteristic()
            .iter()
            .flat_map(|l| l.to_le_bytes())
            .collect();
        for value in [vec![0xff; 32], r_bytes] {
            let mut forged = bytes.clone();
            forged[z_at + 16..z_at + 48].copy_from_slice(&value);
            let err = ProofCheckpoint::<Bn254>::from_bytes(&forged)
                .err()
                .expect("a non-canonical scalar must be rejected");
            assert!(err.contains("z scalars: scalar 0"), "{err}");
        }

        // A well-formed checkpoint of a *different* circuit: its vectors
        // do not fit this key's queries, which is an error, not a panic
        // inside the engine.
        let other = squaring_cs::<Fr>(3);
        let (other_pk, _) = setup::<Bn254, _>(&other, &mut rng).unwrap();
        let poly = prove_poly::<Bn254>(&other, &other_pk, &ntt, &NoopSink).unwrap();
        let mut ckpt = ProofCheckpoint::<Bn254>::from_poly(0, poly);
        let engines = ProverEngines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let err = ckpt.run_step(&pk, &engines, 0, &NoopSink).unwrap_err();
        assert!(
            err.contains("a_query") && err.contains("scalars do not match the key's"),
            "{err}"
        );
        assert_eq!(ckpt.steps_done(), 0);
    }

    #[test]
    fn replayed_steps_are_idempotent() {
        let cs = small_cs::<Fr>();
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, _vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        let (ntt, msm_g1, msm_g2) = engines_for(v100());
        let engines = ProverEngines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        let poly = prove_poly::<Bn254>(&cs, &pk, &ntt, &NoopSink).unwrap();
        let mut ckpt = ProofCheckpoint::from_poly(7, poly);
        ckpt.run_step(&pk, &engines, 0, &NoopSink).unwrap();
        let kernels = ckpt.msm_report.kernels.len();
        ckpt.run_step(&pk, &engines, 0, &NoopSink).unwrap();
        assert_eq!(
            ckpt.msm_report.kernels.len(),
            kernels,
            "re-running a done step must not duplicate reports"
        );
        assert!(ckpt.run_step(&pk, &engines, MSM_STEPS, &NoopSink).is_err());
    }
}
