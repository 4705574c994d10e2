//! The PLONK prover, structured as the same POLY → MSM pipeline the
//! service schedules for Groth16, with a step-granular checkpoint the
//! cluster can migrate between hosts.
//!
//! * **POLY stage** ([`prove_poly`]): satisfiability check, wire column
//!   extraction, and three interpolation NTTs through the pluggable
//!   [`GpuNttEngine`].
//! * **MSM stage**: four checkpointable commit steps, every commitment an
//!   MSM through the pluggable [`gzkp_msm::MsmEngine`] (so the shard
//!   plan, preprocess cache, and cross-device merging all apply):
//!
//!   0. `wires` — blind the three wire polynomials and commit each from
//!      its *values* and two blinds against the key's Lagrange-basis SRS
//!      (the same group element as its blinded coefficients against the
//!      powers of τ, over scalars that are mostly 0 and 1);
//!   1. `perm_z` — derive β, γ, build and commit the permutation
//!      accumulator (one more engine NTT);
//!   2. `quotient` — derive α, extend `a, b, c, z` to the 4n coset (four
//!      engine NTTs), read σ, the selectors and `L₁` there from the key,
//!      evaluate `PI` from its non-zero Lagrange terms and `Z_H` from its
//!      four coset values, divide, and commit the three quotient chunks
//!      (one inverse engine NTT);
//!   3. `open` — derive ζ, evaluate, batch with v, commit the two KZG
//!      opening witnesses.
//!
//! Steps 1–3 commit against the powers of τ. Their per-index loops — the
//! accumulator's row ratios, the quotient numerator, the opening batch —
//! run in index shares across cores, each share starting its running
//! powers from the power of its first index, so every entry is the same
//! field element at every thread count.
//!
//! Determinism: all blinding comes from `StdRng` generators seeded as a
//! fixed function of the job seed and the step index, drawn at fixed
//! points — so proofs are byte-identical across `GZKP_THREADS`, device
//! counts, and checkpoint/resume boundaries ([`prove`] steps the same
//! state machine a resumed job does). Fiat–Shamir challenges are
//! re-derived on every step by replaying the transcript over the
//! commitments riding in the checkpoint, so a resuming host needs no
//! hidden state.
//!
//! ## Checkpoint wire format (version 1)
//!
//! The shared header of [`gzkp_proof_system::codec`] under magic
//! `"GZKPPLK"` (bit i of `done` ⇒ commit step i complete), then:
//!
//! ```text
//! public_inputs, wire_values ×3, wire_coeffs ×3, z_coeffs, t_parts ×3:
//!     n:u64 ++ n·NUM_LIMBS little-endian u64 limbs each
//! if done₀: 3 point sections (len:u64 ++ compressed affine)
//! if done₁: 1 point section
//! if done₂: 3 point sections
//! if done₃: evals (14-scalar field vector) ++ 2 point sections
//! ```
//!
//! On top of the header's checks, decoding requires `done` to be a
//! prefix of the steps and every scalar to be in canonical range.

use crate::circuit::PlonkCircuit;
use crate::kzg::{commit_in, divide_at_point, evaluate_poly};
use crate::proof::{PlonkEvals, PlonkProof};
use crate::setup::{PlonkProvingKey, PlonkVerifyingKey};
use crate::transcript::Transcript;
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::serialize::CoordField;
use gzkp_curves::{Affine, CurveParams};
use gzkp_ff::{batch_inverse, Field, PrimeField};
use gzkp_gpu_sim::StageReport;
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{Direction, Radix2Domain};
use gzkp_proof_system::codec::{self, Reader};
use gzkp_proof_system::{run_msm_steps, Engines, MsmSteps, ProveReport};
use gzkp_telemetry::{self as telemetry, TelemetrySink};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of checkpointable commit steps.
pub const MSM_STEPS: usize = 4;

const MAGIC: &[u8; 7] = b"GZKPPLK";

/// Span names of the nine commitment MSMs, from the telemetry registry's
/// per-backend stage table (so `zkprof` labels PLONK stages as PLONK).
const STAGES: [&str; 9] = telemetry::names::PLONK_MSM_STAGES;

/// Human-readable labels of the four commit steps (logs and errors).
const STEP_LABELS: [&str; MSM_STEPS] = ["wires", "perm_z", "quotient", "open"];

/// The per-step blinding RNG: a fixed function of the job seed and the
/// step index, so a resuming host re-derives exactly the generator the
/// original host would have used for the steps it replays.
fn step_rng(seed: u64, step: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (step as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Output of the PLONK POLY stage: the wire columns in value and
/// coefficient form, ready for the commit steps.
pub struct PlonkPolyArtifacts<P: PairingConfig> {
    /// POLY-stage simulated report (three interpolation NTTs).
    pub report: StageReport,
    wire_values: [Vec<P::Fr>; 3],
    wire_coeffs: [Vec<P::Fr>; 3],
    public_inputs: Vec<P::Fr>,
}

/// Stage 1 of the prover: checks satisfiability, extracts the wire
/// columns, and interpolates them through three engine NTTs inside a
/// `poly` span.
///
/// # Errors
///
/// Fails when the circuit is unsatisfied or does not match `pk`.
pub fn prove_poly<P: PairingConfig>(
    circuit: &PlonkCircuit<P::Fr>,
    pk: &PlonkProvingKey<P>,
    ntt: &dyn GpuNttEngine<P::Fr>,
    sink: &dyn TelemetrySink,
) -> Result<PlonkPolyArtifacts<P>, String> {
    circuit.is_satisfied()?;
    if circuit.domain_size() != pk.n {
        return Err(format!(
            "circuit domain {} does not match key domain {}",
            circuit.domain_size(),
            pk.n
        ));
    }
    if circuit.num_public != pk.num_public {
        return Err("public-input count does not match key".to_string());
    }
    let domain = Radix2Domain::<P::Fr>::new(pk.n).ok_or("domain exceeds two-adicity")?;

    let wire_values: [Vec<P::Fr>; 3] = std::array::from_fn(|col| {
        pk.wires[col]
            .iter()
            .map(|&var| circuit.values[var])
            .collect()
    });

    let mut report = StageReport::new("POLY");
    let mut wire_coeffs: [Vec<P::Fr>; 3] = std::array::from_fn(|_| Vec::new());
    {
        let _poly_span = telemetry::span(sink, telemetry::names::SPAN_POLY);
        for (col, values) in wire_values.iter().enumerate() {
            let label = format!("ntt[{col}]");
            let mut coeffs = values.clone();
            let r = {
                let _ntt_span = telemetry::span(sink, &label);
                ntt.transform_traced(&domain, &mut coeffs, Direction::Inverse, sink)
            };
            report.kernels.extend(r.kernels);
            wire_coeffs[col] = coeffs;
        }
    }

    Ok(PlonkPolyArtifacts {
        report,
        wire_values,
        wire_coeffs,
        public_inputs: circuit.public_inputs().to_vec(),
    })
}

/// Adds `(Σ bᵢ·Xⁱ)·Z_H` to a length-`n` coefficient vector: blinding
/// that vanishes on the domain, so the quotient numerator stays an exact
/// multiple of `Z_H`.
pub(crate) fn blind<F: Field>(coeffs: &mut Vec<F>, n: usize, blinds: &[F]) {
    coeffs.resize(n + blinds.len(), F::zero());
    for (i, b) in blinds.iter().enumerate() {
        coeffs[n + i] += *b;
        coeffs[i] -= *b;
    }
}

/// `Σₖ weightsₖ·polysₖ`, coefficient-wise over the longest polynomial, in
/// index shares.
fn combine<F: PrimeField, S: AsRef<[F]> + Sync>(polys: &[S], weights: &[F]) -> Vec<F> {
    let len = polys.iter().map(|p| p.as_ref().len()).max().unwrap_or(0);
    let share = rayon::share_len(len);
    let mut out = vec![F::zero(); len];
    rayon::for_each(out.chunks_mut(share).enumerate(), |(c, out)| {
        let first = c * share;
        for (poly, &w) in polys.iter().zip(weights) {
            let poly = poly.as_ref();
            for (o, coeff) in out.iter_mut().zip(poly.iter().skip(first)) {
                *o += w * *coeff;
            }
        }
    });
    out
}

/// `Z_H(X) = Xⁿ − 1` on the `big` (4n) domain's coset: at `g·ω₄ₙⁱ` it is
/// `gⁿ·ω₄^{i mod 4} − 1`, entry `i mod 4` of the result. None of the four
/// is zero: the coset misses the domain.
pub(crate) fn coset_vanishing<F: PrimeField>(big: &Radix2Domain<F>, n: usize) -> [F; 4] {
    let omega_4 = big.omega.pow(&[n as u64]);
    let mut power = big.coset_gen.pow(&[n as u64]);
    [(); 4].map(|()| {
        let v = power - F::one();
        power *= omega_4;
        v
    })
}

/// The public-input polynomial `PI(X) = −Σⱼ piⱼ·Lⱼ(X)` on the `big` (4n)
/// domain's coset, from its non-zero Lagrange terms: at `x`,
/// `Lⱼ(x) = ωʲ·(xⁿ − 1) / (n·(x − ωʲ))`. Index shares each batch-invert
/// their own `x − ωʲ`.
pub(crate) fn coset_pi<F: PrimeField>(
    big: &Radix2Domain<F>,
    n: usize,
    public_inputs: &[F],
) -> Vec<F> {
    let mut pi = vec![F::zero(); big.size];
    if public_inputs.is_empty() {
        return pi;
    }
    // (−piⱼ·ωʲ/n, ωʲ), ω = ω₄ₙ⁴ and 1/n = 4/(4n).
    let n_inv = F::from_u64(4) * big.size_inv;
    let terms: Vec<(F, F)> = public_inputs
        .iter()
        .zip(Radix2Domain::powers(
            big.omega.pow(&[4]),
            public_inputs.len(),
        ))
        .map(|(pi, w)| (-*pi * w * n_inv, w))
        .collect();
    let zh = coset_vanishing(big, n);
    let share = rayon::share_len(big.size);
    rayon::for_each(pi.chunks_mut(share).enumerate(), |(c, out)| {
        let first = c * share;
        let mut x = big.coset_gen * big.omega.pow(&[first as u64]);
        let mut dens = Vec::with_capacity(out.len() * terms.len());
        for _ in 0..out.len() {
            dens.extend(terms.iter().map(|&(_, w)| x - w));
            x *= big.omega;
        }
        batch_inverse(&mut dens);
        for ((i, v), den) in (first..).zip(out).zip(dens.chunks_exact(terms.len())) {
            let sum = terms
                .iter()
                .zip(den)
                .fold(F::zero(), |acc, (&(t, _), &d)| acc + t * d);
            *v = sum * zh[i % 4];
        }
    });
    pi
}

/// Rebuilds the transcript to the state right after the verifying key
/// and public inputs are bound. Prover and verifier both start here.
pub(crate) fn base_transcript<P: PairingConfig>(
    vk: &PlonkVerifyingKey<P>,
    public_inputs: &[P::Fr],
) -> Transcript
where
    <P::G1 as CurveParams>::Base: CoordField,
{
    let mut t = Transcript::new("gzkp-plonk-v1");
    t.absorb_bytes("n", &(vk.n as u64).to_le_bytes());
    t.absorb_scalar("k1", &vk.k1);
    t.absorb_scalar("k2", &vk.k2);
    for comm in &vk.selector_comms {
        t.absorb_point("q", comm);
    }
    for comm in &vk.sigma_comms {
        t.absorb_point("sigma", comm);
    }
    for pi in public_inputs {
        t.absorb_scalar("pi", pi);
    }
    t
}

/// Commits each `(span, scalars)` job against `bases` through the G1
/// engine, one after the other — an MSM is one flat parallel region over
/// its bucket tasks, so every core works on the current commitment —
/// emitting each job's telemetry under its span and folding its kernels,
/// span-prefixed, into `msm_report`.
fn commit_batch<P: PairingConfig, S: AsRef<[P::Fr]>>(
    bases: &[Affine<P::G1>],
    engines: &Engines<'_, P>,
    jobs: &[(&'static str, S)],
    msm_report: &mut StageReport,
    sink: &dyn TelemetrySink,
) -> Vec<Affine<P::G1>> {
    jobs.iter()
        .map(|(label, scalars)| {
            let scalars = scalars.as_ref();
            let run = {
                let _span = (!scalars.is_empty()).then(|| telemetry::span(sink, label));
                commit_in::<P>(bases, scalars, engines.msm_g1, sink)
            };
            for mut k in run.report.kernels {
                k.name = format!("{label}.{}", k.name);
                msm_report.kernels.push(k);
            }
            run.result.to_affine()
        })
        .collect()
}

/// A challenge [`PlonkCheckpoint::transcript_through`] was asked to
/// replay; it sets every challenge of the steps it replays, so a missing
/// one is a step reading past its own replay.
fn replayed<F>(challenge: Option<F>, name: &str) -> Result<F, String> {
    challenge.ok_or_else(|| format!("challenge {name} not replayed"))
}

/// Fiat–Shamir challenges recovered by replaying a checkpoint's
/// transcript; each is present once the step that derives it has its
/// prerequisite commitments recorded.
#[derive(Default)]
struct ReplayedChallenges<F> {
    beta: Option<F>,
    gamma: Option<F>,
    alpha: Option<F>,
    zeta: Option<F>,
}

/// Resumable mid-proof PLONK state: the POLY artifacts plus the output
/// of every commit step already executed. See the module docs for the
/// serialized form.
pub struct PlonkCheckpoint<P: PairingConfig> {
    /// Seed of the job's blinding RNG family (see the module docs).
    pub seed: u64,
    poly_report: StageReport,
    msm_report: StageReport,
    public_inputs: Vec<P::Fr>,
    wire_values: [Vec<P::Fr>; 3],
    /// Blinded after step 0 (length n+2 each).
    wire_coeffs: [Vec<P::Fr>; 3],
    wire_comms: Option<[Affine<P::G1>; 3]>,
    /// Blinded accumulator coefficients after step 1 (length n+3).
    z_coeffs: Vec<P::Fr>,
    z_comm: Option<Affine<P::G1>>,
    /// Quotient chunks after step 2 (length n+2 each).
    t_parts: [Vec<P::Fr>; 3],
    t_comms: Option<[Affine<P::G1>; 3]>,
    evals: Option<PlonkEvals<P::Fr>>,
    w_z_comm: Option<Affine<P::G1>>,
    w_zw_comm: Option<Affine<P::G1>>,
}

impl<P: PairingConfig> PlonkCheckpoint<P> {
    /// Opens a checkpoint right after the POLY stage: no steps done.
    pub fn from_poly(seed: u64, poly: PlonkPolyArtifacts<P>) -> Self {
        Self {
            seed,
            poly_report: poly.report,
            msm_report: StageReport::new("MSM"),
            public_inputs: poly.public_inputs,
            wire_values: poly.wire_values,
            wire_coeffs: poly.wire_coeffs,
            wire_comms: None,
            z_coeffs: Vec::new(),
            z_comm: None,
            t_parts: std::array::from_fn(|_| Vec::new()),
            t_comms: None,
            evals: None,
            w_z_comm: None,
            w_zw_comm: None,
        }
    }

    /// Replays the transcript across the first `steps` steps' recorded
    /// commitments — every challenge is a pure function of the verifying
    /// key, public inputs, and commitments riding in the checkpoint, so
    /// any host derives the same values. Absorbs and squeezes interleave
    /// in exactly the live protocol's order (the sponge is stateful, so
    /// a challenge squeezed at a different point is a different value).
    ///
    /// # Errors
    ///
    /// Fails if a commitment of the first `steps` steps is missing — which
    /// [`MsmSteps::run_step`] rules out, as it runs step `s` only after
    /// steps `0..s`.
    fn transcript_through(
        &self,
        pk: &PlonkProvingKey<P>,
        steps: usize,
    ) -> Result<(Transcript, ReplayedChallenges<P::Fr>), String>
    where
        <P::G1 as CurveParams>::Base: CoordField,
    {
        let missing = |what: &str| format!("transcript replay: {what} not committed");
        let mut t = base_transcript(&pk.vk, &self.public_inputs);
        let mut ch = ReplayedChallenges::default();
        if steps >= 1 {
            for comm in self.wire_comms.as_ref().ok_or_else(|| missing("wires"))? {
                t.absorb_point("wire", comm);
            }
            ch.beta = Some(t.challenge("beta"));
            ch.gamma = Some(t.challenge("gamma"));
        }
        if steps >= 2 {
            t.absorb_point("z", self.z_comm.as_ref().ok_or_else(|| missing("z"))?);
            ch.alpha = Some(t.challenge("alpha"));
        }
        if steps >= 3 {
            for comm in self.t_comms.as_ref().ok_or_else(|| missing("t"))? {
                t.absorb_point("t", comm);
            }
            ch.zeta = Some(t.challenge("zeta"));
        }
        Ok((t, ch))
    }

    /// Step 0: blind the three wire polynomials, and commit each from its
    /// values and blinds against the Lagrange-basis SRS: `A(X) + (b₀ +
    /// b₁X)·Z_H(X)` is `Σ aᵢ·L_i(τ) + b₀·(τⁿ − 1) + b₁·(τⁿ⁺¹ − τ)` at τ, the
    /// blinded coefficients' commitment.
    fn step_wires(
        &mut self,
        pk: &PlonkProvingKey<P>,
        engines: &Engines<'_, P>,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String>
    where
        <P::G1 as CurveParams>::Base: CoordField,
    {
        let mut rng = step_rng(self.seed, 0);
        let jobs: Vec<(&'static str, Vec<P::Fr>)> = (0..3)
            .map(|col| {
                let blinds = [P::Fr::random(&mut rng), P::Fr::random(&mut rng)];
                blind(&mut self.wire_coeffs[col], pk.n, &blinds);
                let scalars = [self.wire_values[col].as_slice(), &blinds].concat();
                (STAGES[col], scalars)
            })
            .collect();
        let comms = commit_batch(&pk.lagrange_g1, engines, &jobs, &mut self.msm_report, sink);
        self.wire_comms = Some([comms[0], comms[1], comms[2]]);
        Ok(())
    }

    /// Step 1: derive β, γ; build, blind, and commit the permutation
    /// accumulator `z`.
    fn step_perm_z(
        &mut self,
        pk: &PlonkProvingKey<P>,
        engines: &Engines<'_, P>,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String>
    where
        <P::G1 as CurveParams>::Base: CoordField,
    {
        let (_, ch) = self.transcript_through(pk, 1)?;
        let beta = replayed(ch.beta, "beta")?;
        let gamma = replayed(ch.gamma, "gamma")?;

        let n = pk.n;
        let domain = Radix2Domain::<P::Fr>::new(n).ok_or("domain exceeds two-adicity")?;
        let shifts = [P::Fr::one(), pk.k1, pk.k2].map(|k| beta * k);

        // Row ratios Π (w + β·id + γ) / (w + β·σ + γ) in row shares, each
        // batch-inverting its own denominators.
        let share = rayon::share_len(n);
        let mut ratios = vec![P::Fr::zero(); n];
        rayon::for_each(ratios.chunks_mut(share).enumerate(), |(c, out)| {
            let first = c * share;
            let mut omega = domain.omega.pow(&[first as u64]);
            let mut dens = Vec::with_capacity(out.len());
            for (row, num) in (first..).zip(out.iter_mut()) {
                let (mut top, mut den) = (P::Fr::one(), P::Fr::one());
                for (col, shift) in shifts.iter().enumerate() {
                    let w = self.wire_values[col][row] + gamma;
                    top *= w + *shift * omega;
                    den *= w + beta * pk.sigma_evals[col][row];
                }
                *num = top;
                dens.push(den);
                omega *= domain.omega;
            }
            batch_inverse(&mut dens);
            out.iter_mut().zip(dens).for_each(|(r, den)| *r *= den);
        });
        let mut z_vals = Vec::with_capacity(n);
        let mut acc = P::Fr::one();
        for ratio in ratios {
            z_vals.push(acc);
            acc *= ratio;
        }

        // Interpolate through the engine, then blind with a degree-2
        // masker (z is opened at two points, ζ and ζω).
        let mut z_coeffs = z_vals;
        {
            let _span = telemetry::span(sink, "perm_z_ntt");
            let r = engines
                .ntt
                .transform_traced(&domain, &mut z_coeffs, Direction::Inverse, sink);
            for mut k in r.kernels {
                k.name = format!("{}.{}", STAGES[3], k.name);
                self.msm_report.kernels.push(k);
            }
        }
        let mut rng = step_rng(self.seed, 1);
        let blinds = [
            P::Fr::random(&mut rng),
            P::Fr::random(&mut rng),
            P::Fr::random(&mut rng),
        ];
        blind(&mut z_coeffs, n, &blinds);
        self.z_coeffs = z_coeffs;

        let jobs = [(STAGES[3], &self.z_coeffs)];
        let comms = commit_batch(
            &pk.srs.g1_powers,
            engines,
            &jobs,
            &mut self.msm_report,
            sink,
        );
        self.z_comm = Some(comms[0]);
        Ok(())
    }

    /// Step 2: derive α, evaluate the full constraint identity on the 4n
    /// coset, divide by `Z_H` pointwise (exact: the numerator is a
    /// multiple of `Z_H` and `deg t = 3n+5 < 4n`), and commit the three
    /// quotient chunks. Only `a, b, c, z` are extended here; σ, the
    /// selectors and `L₁` come with the key.
    fn step_quotient(
        &mut self,
        pk: &PlonkProvingKey<P>,
        engines: &Engines<'_, P>,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String>
    where
        <P::G1 as CurveParams>::Base: CoordField,
    {
        let (_, ch) = self.transcript_through(pk, 2)?;
        let beta = replayed(ch.beta, "beta")?;
        let gamma = replayed(ch.gamma, "gamma")?;
        let alpha = replayed(ch.alpha, "alpha")?;

        let n = pk.n;
        let big = Radix2Domain::<P::Fr>::new(4 * n).ok_or("4n domain exceeds two-adicity")?;

        // The witness polynomials on the 4n coset, through the engine.
        let mut coset_kernels = Vec::new();
        let mut coset_evals = |coeffs: &[P::Fr], label: &str| -> Vec<P::Fr> {
            // Scaled before padding: the zeros need no coset power.
            let mut data = Vec::with_capacity(4 * n);
            data.extend_from_slice(coeffs);
            big.coset_scale(&mut data);
            data.resize(4 * n, P::Fr::zero());
            let r = {
                let _span = telemetry::span(sink, label);
                engines
                    .ntt
                    .transform_traced(&big, &mut data, Direction::Forward, sink)
            };
            coset_kernels.extend(r.kernels);
            data
        };
        let a_ev = coset_evals(&self.wire_coeffs[0], "coset[a]");
        let b_ev = coset_evals(&self.wire_coeffs[1], "coset[b]");
        let c_ev = coset_evals(&self.wire_coeffs[2], "coset[c]");
        let z_ev = coset_evals(&self.z_coeffs, "coset[z]");
        let (s_ev, q_ev, l1_ev) = (&pk.sigma_coset, &pk.selector_coset, &pk.l1_coset);
        let pi_ev = coset_pi(&big, n, &self.public_inputs);
        let mut zh_inv = coset_vanishing(&big, n);
        batch_inverse(&mut zh_inv);

        // Pointwise numerator / Z_H in index shares. `z(ωX)` on the coset
        // is a rotation by 4 positions (the domain's ω is ω₄ₙ⁴).
        let shifts = [P::Fr::one(), pk.k1, pk.k2].map(|k| beta * k);
        let alpha_sq = alpha * alpha;
        let share = rayon::share_len(4 * n);
        let mut t_evals = vec![P::Fr::zero(); 4 * n];
        rayon::for_each(t_evals.chunks_mut(share).enumerate(), |(at, out)| {
            let first = at * share;
            let mut x = big.coset_gen * big.omega.pow(&[first as u64]);
            for (i, t) in (first..).zip(out) {
                let (a, b, c) = (a_ev[i], b_ev[i], c_ev[i]);
                let gate = q_ev[0][i] * a
                    + q_ev[1][i] * b
                    + q_ev[2][i] * c
                    + q_ev[3][i] * a * b
                    + q_ev[4][i]
                    + pi_ev[i];
                let (ag, bg, cg) = (a + gamma, b + gamma, c + gamma);
                let perm1 =
                    (ag + shifts[0] * x) * (bg + shifts[1] * x) * (cg + shifts[2] * x) * z_ev[i];
                let perm2 = (ag + beta * s_ev[0][i])
                    * (bg + beta * s_ev[1][i])
                    * (cg + beta * s_ev[2][i])
                    * z_ev[(i + 4) % (4 * n)];
                let boundary = l1_ev[i] * (z_ev[i] - P::Fr::one());
                *t = (gate + alpha * (perm1 - perm2) + alpha_sq * boundary) * zh_inv[i % 4];
                x *= big.omega;
            }
        });

        // Back to coefficients and split into three chunks of n+2.
        {
            let r = {
                let _span = telemetry::span(sink, "coset[t_inv]");
                engines
                    .ntt
                    .transform_traced(&big, &mut t_evals, Direction::Inverse, sink)
            };
            coset_kernels.extend(r.kernels);
        }
        // deg t < 3(n + 2): only the three chunks' coefficients are read.
        let chunk = n + 2;
        big.coset_unscale(&mut t_evals[..3 * chunk]);
        for mut k in coset_kernels {
            k.name = format!("quotient.{}", k.name);
            self.msm_report.kernels.push(k);
        }
        self.t_parts = std::array::from_fn(|i| t_evals[i * chunk..(i + 1) * chunk].to_vec());

        let jobs = [
            (STAGES[4], &self.t_parts[0]),
            (STAGES[5], &self.t_parts[1]),
            (STAGES[6], &self.t_parts[2]),
        ];
        let comms = commit_batch(
            &pk.srs.g1_powers,
            engines,
            &jobs,
            &mut self.msm_report,
            sink,
        );
        self.t_comms = Some([comms[0], comms[1], comms[2]]);
        Ok(())
    }

    /// Step 3: derive ζ and v, evaluate every committed polynomial, and
    /// commit the two KZG opening witnesses.
    fn step_open(
        &mut self,
        pk: &PlonkProvingKey<P>,
        engines: &Engines<'_, P>,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String>
    where
        <P::G1 as CurveParams>::Base: CoordField,
    {
        let (mut t, ch) = self.transcript_through(pk, 3)?;
        let zeta = replayed(ch.zeta, "zeta")?;

        let n = pk.n;
        let domain = Radix2Domain::<P::Fr>::new(n).ok_or("domain exceeds two-adicity")?;
        let zeta_omega = zeta * domain.omega;

        // Combined quotient T = t_lo + ζⁿ⁺²·t_mid + ζ²⁽ⁿ⁺²⁾·t_hi.
        let zeta_chunk = zeta.pow(&[(n + 2) as u64]);
        let t_combined = combine(
            &self.t_parts,
            &[P::Fr::one(), zeta_chunk, zeta_chunk * zeta_chunk],
        );

        // The batched polynomials, in canonical order.
        let batch: [&[P::Fr]; 13] = [
            &self.wire_coeffs[0],
            &self.wire_coeffs[1],
            &self.wire_coeffs[2],
            &self.z_coeffs,
            &pk.sigma_coeffs[0],
            &pk.sigma_coeffs[1],
            &pk.sigma_coeffs[2],
            &pk.selectors[0],
            &pk.selectors[1],
            &pk.selectors[2],
            &pk.selectors[3],
            &pk.selectors[4],
            &t_combined,
        ];
        // One evaluation per item across cores: the batch at ζ, then z at ζω.
        let points = batch.iter().map(|&c| (c, zeta));
        let evaluated = rayon::map(
            points.chain([(self.z_coeffs.as_slice(), zeta_omega)]),
            |(c, x)| evaluate_poly(c, x),
        );
        let evals = PlonkEvals::from_order(
            evaluated
                .try_into()
                .map_err(|_| "fourteen evaluations".to_string())?,
        );
        for e in evals.in_order() {
            t.absorb_scalar("eval", &e);
        }
        let v: P::Fr = t.challenge("v");

        // W_ζ = (Σ vⁱ·Pᵢ − Σ vⁱ·ȳᵢ)/(X − ζ): combine coefficients first,
        // then one synthetic division covers the whole batch.
        let combined = combine(&batch, &Radix2Domain::powers(v, batch.len()));
        let divided = rayon::map(
            [
                (combined.as_slice(), zeta),
                (self.z_coeffs.as_slice(), zeta_omega),
            ],
            |(c, x)| divide_at_point(c, x).0,
        );
        let [w_z, w_zw]: [Vec<P::Fr>; 2] = divided
            .try_into()
            .map_err(|_| "two opening witnesses".to_string())?;

        let jobs = [(STAGES[7], w_z), (STAGES[8], w_zw)];
        let comms = commit_batch(
            &pk.srs.g1_powers,
            engines,
            &jobs,
            &mut self.msm_report,
            sink,
        );
        self.evals = Some(evals);
        self.w_z_comm = Some(comms[0]);
        self.w_zw_comm = Some(comms[1]);
        Ok(())
    }

    /// Assembles the proof and report from a fully-stepped checkpoint.
    ///
    /// # Errors
    ///
    /// Fails if any step has not run yet.
    pub fn finish(self) -> Result<(PlonkProof<P>, ProveReport), String>
    where
        <P::G1 as CurveParams>::Base: CoordField,
    {
        if let Some(step) = self.next_step() {
            return Err(format!(
                "cannot finish: plonk step {step} ({}) not yet run",
                STEP_LABELS[step]
            ));
        }
        Ok((
            PlonkProof {
                wire_comms: self.wire_comms.expect("wires committed"),
                z_comm: self.z_comm.expect("z committed"),
                t_comms: self.t_comms.expect("t committed"),
                w_z: self.w_z_comm.expect("opening committed"),
                w_zw: self.w_zw_comm.expect("shifted opening committed"),
                evals: self.evals.expect("evaluations recorded"),
            },
            ProveReport {
                poly: self.poly_report,
                msm: self.msm_report,
            },
        ))
    }
}

impl<P: PairingConfig> MsmSteps for PlonkCheckpoint<P>
where
    <P::G1 as CurveParams>::Base: CoordField,
{
    type Pairing = P;
    type ProvingKey = PlonkProvingKey<P>;

    const STEPS: usize = MSM_STEPS;

    fn seed(&self) -> u64 {
        self.seed
    }

    fn done_mask(&self) -> u8 {
        let done = [
            self.wire_comms.is_some(),
            self.z_comm.is_some(),
            self.t_comms.is_some(),
            self.w_z_comm.is_some(),
        ];
        (0..MSM_STEPS).fold(0, |mask, step| mask | u8::from(done[step]) << step)
    }

    fn poly_report(&self) -> &StageReport {
        &self.poly_report
    }

    fn scalar_bytes(&self) -> u64 {
        let per = (P::Fr::NUM_LIMBS * 8) as u64;
        let elems: usize = self
            .wire_values
            .iter()
            .chain(self.wire_coeffs.iter())
            .chain(self.t_parts.iter())
            .map(Vec::len)
            .sum::<usize>()
            + self.z_coeffs.len()
            + self.public_inputs.len();
        elems as u64 * per
    }

    /// Executes commit step `step`. Steps must run in order (each
    /// consumes the previous step's transcript state), so a missing
    /// prerequisite is an error too.
    fn run_step(
        &mut self,
        pk: &PlonkProvingKey<P>,
        engines: &Engines<'_, P>,
        step: usize,
        sink: &dyn TelemetrySink,
    ) -> Result<(), String> {
        if step >= MSM_STEPS {
            return Err(format!("plonk step {step} out of range (0..{MSM_STEPS})"));
        }
        if self.done_mask() & (1 << step) != 0 {
            return Ok(());
        }
        if self.next_step() != Some(step) {
            return Err(format!(
                "plonk step {step} ({}) scheduled before step {}",
                STEP_LABELS[step],
                step - 1
            ));
        }
        match step {
            0 => self.step_wires(pk, engines, sink),
            1 => self.step_perm_z(pk, engines, sink),
            2 => self.step_quotient(pk, engines, sink),
            _ => self.step_open(pk, engines, sink),
        }
    }
}

fn put_fvec<F: PrimeField>(out: &mut Vec<u8>, v: &[F]) {
    out.extend((v.len() as u64).to_le_bytes());
    for e in v {
        for limb in e.to_limbs() {
            out.extend(limb.to_le_bytes());
        }
    }
}

fn read_fvec<F: PrimeField>(r: &mut Reader<'_>) -> Result<Vec<F>, String> {
    let n = r.count()?;
    let total = n
        .checked_mul(F::NUM_LIMBS * 8)
        .ok_or_else(|| "field vec overflow".to_string())?;
    let raw = r.take(total)?;
    let mut out = Vec::with_capacity(n);
    for (i, elem) in raw.chunks_exact(F::NUM_LIMBS * 8).enumerate() {
        let limbs: Vec<u64> = elem
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("eight-byte chunk")))
            .collect();
        out.push(F::from_limbs(&limbs).ok_or_else(|| format!("field element {i}: non-canonical"))?);
    }
    Ok(out)
}

impl<P: PairingConfig> PlonkCheckpoint<P>
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
        put_fvec(&mut out, &self.public_inputs);
        for v in &self.wire_values {
            put_fvec(&mut out, v);
        }
        for v in &self.wire_coeffs {
            put_fvec(&mut out, v);
        }
        put_fvec(&mut out, &self.z_coeffs);
        for v in &self.t_parts {
            put_fvec(&mut out, v);
        }
        let wire_comms = self.wire_comms.iter().flatten();
        let t_comms = self.t_comms.iter().flatten();
        for c in wire_comms.chain(&self.z_comm).chain(t_comms) {
            codec::put_point(&mut out, c);
        }
        if let Some(evals) = &self.evals {
            put_fvec(&mut out, &evals.in_order());
            codec::put_point(&mut out, &self.w_z_comm.expect("open done"));
            codec::put_point(&mut out, &self.w_zw_comm.expect("open done"));
        }
        out
    }

    /// Decodes a checkpoint, validating the header, every scalar
    /// (canonical range), and every point (curve equation).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field; never panics
    /// on attacker-controlled input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut reader = Reader::open::<P>(bytes, MAGIC, MSM_STEPS)?;
        let (seed, done) = (reader.seed, reader.done);
        let r = &mut reader;
        let public_inputs = read_fvec::<P::Fr>(r)?;
        let wire_values = [read_fvec(r)?, read_fvec(r)?, read_fvec(r)?];
        let wire_coeffs = [read_fvec(r)?, read_fvec(r)?, read_fvec(r)?];
        let z_coeffs = read_fvec(r)?;
        let t_parts = [read_fvec(r)?, read_fvec(r)?, read_fvec(r)?];
        let wire_comms = if done & 1 != 0 {
            Some([
                r.point::<P::G1>("wire a commitment")?,
                r.point::<P::G1>("wire b commitment")?,
                r.point::<P::G1>("wire c commitment")?,
            ])
        } else {
            None
        };
        let z_comm = if done & 2 != 0 {
            Some(r.point::<P::G1>("z commitment")?)
        } else {
            None
        };
        let t_comms = if done & 4 != 0 {
            Some([
                r.point::<P::G1>("t_lo commitment")?,
                r.point::<P::G1>("t_mid commitment")?,
                r.point::<P::G1>("t_hi commitment")?,
            ])
        } else {
            None
        };
        let (evals, w_z_comm, w_zw_comm) = if done & 8 != 0 {
            let ev: [P::Fr; 14] = read_fvec::<P::Fr>(r)?
                .try_into()
                .map_err(|_| "evaluation list must have 14 entries".to_string())?;
            (
                Some(PlonkEvals::from_order(ev)),
                Some(r.point::<P::G1>("w_z commitment")?),
                Some(r.point::<P::G1>("w_zw commitment")?),
            )
        } else {
            (None, None, None)
        };
        let [poly_report, msm_report] = reader.finish()?;
        Ok(Self {
            seed,
            poly_report,
            msm_report,
            public_inputs,
            wire_values,
            wire_coeffs,
            wire_comms,
            z_coeffs,
            z_comm,
            t_parts,
            t_comms,
            evals,
            w_z_comm,
            w_zw_comm,
        })
    }
}

/// Generates a PLONK proof end to end, inside a `prove` span: POLY stage,
/// then a fresh [`PlonkCheckpoint`] stepped through the four commit steps
/// and finished — the same state machine a resumed job runs.
///
/// # Errors
///
/// Fails when the circuit is unsatisfied or does not match `pk`.
pub fn prove<P: PairingConfig>(
    circuit: &PlonkCircuit<P::Fr>,
    pk: &PlonkProvingKey<P>,
    engines: &Engines<'_, P>,
    seed: u64,
    sink: &dyn TelemetrySink,
) -> Result<(PlonkProof<P>, ProveReport), String>
where
    <P::G1 as CurveParams>::Base: CoordField,
{
    let _prove_span = telemetry::span(sink, telemetry::names::SPAN_PROVE);
    let poly = prove_poly(circuit, pk, engines.ntt, sink)?;
    let mut ckpt = PlonkCheckpoint::from_poly(seed, poly);
    run_msm_steps(&mut ckpt, pk, engines, sink, |_, _| Ok(()))?;
    ckpt.finish()
}

/// [`prove`], returning the serialized proof bytes.
///
/// # Errors
///
/// Same conditions as [`prove`].
pub fn prove_bytes<P: PairingConfig>(
    circuit: &PlonkCircuit<P::Fr>,
    pk: &PlonkProvingKey<P>,
    engines: &Engines<'_, P>,
    seed: u64,
    sink: &dyn TelemetrySink,
) -> Result<(Vec<u8>, ProveReport), String>
where
    <P::G1 as CurveParams>::Base: CoordField,
{
    let (proof, report) = prove(circuit, pk, engines, seed, sink)?;
    Ok((proof.to_bytes(), report))
}
