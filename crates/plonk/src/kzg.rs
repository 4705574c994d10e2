//! KZG polynomial commitments over the workspace pairing curves.
//!
//! A trusted setup samples τ and publishes the powers-of-tau SRS
//! `{τ^i·G1}` plus `[1]₂, [τ]₂`. Committing to a polynomial is then one
//! MSM of its coefficients against the SRS — which this module runs
//! through the *existing* [`MsmEngine`] abstraction, so KZG commitments
//! get the same bucket-sorted Pippenger kernels, shard plan, cache,
//! and cross-device merging as the Groth16 query MSMs, and show up in
//! `zkprof render --timeline` identically.
//!
//! A basis other than the powers commits the same way: [`lagrange_basis_at`]
//! gives the domain's Lagrange polynomials at τ, whose `[L_i(τ)]₁` commit a
//! polynomial from its *values* on the domain ([`commit_in`]). Values are
//! sparse where coefficients are dense (a wire column is mostly 0 and 1),
//! and the MSM prices what it is given.
//!
//! Openings use the standard witness polynomial
//! `q(X) = (p(X) − p(z)) / (X − z)` (synthetic division — exact because
//! `z` is a root of the numerator) and verify through the pairing check
//! `e(C + z·W − y·G1, G2) · e(−W, τ·G2) = 1`.

use gzkp_curves::pairing::{multi_pairing, Gt, PairingConfig};
use gzkp_curves::{Affine, CoordField, CurveParams, FixedBaseTable, Projective};
use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_ff::{batch_inverse, Field, PrimeField};
use gzkp_msm::{MsmEngine, MsmRun, ScalarVec};
use gzkp_ntt::Radix2Domain;
use rand::Rng;

/// The powers-of-tau structured reference string, prover side plus the
/// two G2 elements the verifier needs.
pub struct KzgSrs<P: PairingConfig> {
    /// `τ^i · G1` for `i = 0..max_powers`.
    pub g1_powers: Vec<Affine<P::G1>>,
    /// The G2 generator (`[1]₂`).
    pub g2: Affine<P::G2>,
    /// `τ · G2`.
    pub tau_g2: Affine<P::G2>,
}

impl<P: PairingConfig> KzgSrs<P> {
    /// Runs the trusted setup: samples τ from `rng` and computes the
    /// powers. τ is dropped on return ("toxic waste").
    pub fn setup<R: Rng + ?Sized>(max_powers: usize, rng: &mut R) -> Self {
        let tau = P::Fr::random(rng);
        Self::setup_with_tau(tau, max_powers)
    }

    /// Setup from an explicit τ — used by the PLONK circuit setup, which
    /// also needs τ to commit to its selector/permutation polynomials
    /// cheaply (one scalar multiplication each) before discarding it.
    pub fn setup_with_tau(tau: P::Fr, max_powers: usize) -> Self {
        Self {
            g1_powers: g1_multiples::<P>(&Radix2Domain::powers(tau, max_powers)),
            g2: Affine::generator(),
            tau_g2: Affine::<P::G2>::generator().mul(&tau).to_affine(),
        }
    }

    /// The G1 generator (`τ⁰ · G1`, whatever the SRS length).
    pub fn g1(&self) -> Affine<P::G1> {
        Affine::generator()
    }

    /// Commits to `coeffs` (coefficient form, low degree first) as one
    /// MSM through `msm` — the engine decides windows, shards, and
    /// placement exactly as for a Groth16 query MSM.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` exceeds the SRS size.
    pub fn commit(&self, coeffs: &[P::Fr], msm: &dyn MsmEngine<P::G1>) -> MsmRun<P::G1> {
        self.commit_traced(coeffs, msm, &gzkp_telemetry::NoopSink)
    }

    /// [`Self::commit`] that also emits the MSM's telemetry into `sink`
    /// (nothing for the empty polynomial).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` exceeds the SRS size.
    pub fn commit_traced(
        &self,
        coeffs: &[P::Fr],
        msm: &dyn MsmEngine<P::G1>,
        sink: &dyn gzkp_telemetry::TelemetrySink,
    ) -> MsmRun<P::G1> {
        commit_in::<P>(&self.g1_powers, coeffs, msm, sink)
    }
}

/// `sᵢ · G1` for every scalar: one fixed-base table, shares of the
/// scalars across cores.
pub fn g1_multiples<P: PairingConfig>(scalars: &[P::Fr]) -> Vec<Affine<P::G1>> {
    let table = FixedBaseTable::<P::G1>::new(scalars.len());
    let shares = scalars.chunks(rayon::share_len(scalars.len()));
    rayon::map(shares, |share| table.mul_many(share)).concat()
}

/// Commits `Σ scalarsᵢ · basesᵢ` as one MSM through `msm` — the engine
/// decides windows, shards and placement exactly as for a Groth16 query
/// MSM — emitting its telemetry into `sink`. The bases are a committed
/// basis at τ: the powers for coefficients, the Lagrange basis for values.
///
/// # Panics
///
/// Panics if there are more scalars than bases.
pub fn commit_in<P: PairingConfig>(
    bases: &[Affine<P::G1>],
    scalars: &[P::Fr],
    msm: &dyn MsmEngine<P::G1>,
    sink: &dyn gzkp_telemetry::TelemetrySink,
) -> MsmRun<P::G1> {
    assert!(
        scalars.len() <= bases.len(),
        "{} scalars exceed the {} bases",
        scalars.len(),
        bases.len()
    );
    if scalars.is_empty() {
        // An empty polynomial commits to the identity; synthesize a
        // zero-cost run rather than asking the engine for a 0-MSM.
        return MsmRun {
            result: Projective::identity(),
            report: gzkp_gpu_sim::StageReport::new("MSM"),
            stats: Default::default(),
        };
    }
    msm.msm_traced(
        &bases[..scalars.len()],
        &ScalarVec::from_field(scalars),
        sink,
    )
}

/// The domain's Lagrange basis at `x`: `L_i(x) = ωⁱ·(xⁿ − 1) / (n·(x − ωⁱ))`
/// for `i < n`, one batch inversion — or, at a point of the domain, the
/// indicator of that point.
pub fn lagrange_basis_at<F: PrimeField>(domain: &Radix2Domain<F>, x: F) -> Vec<F> {
    let omegas = Radix2Domain::powers(domain.omega, domain.size);
    let vanishing = domain.eval_vanishing(x);
    if vanishing.is_zero() {
        return omegas
            .iter()
            .map(|&w| if w == x { F::one() } else { F::zero() })
            .collect();
    }
    let n = F::from_u64(domain.size as u64);
    let mut dens: Vec<F> = omegas.iter().map(|&w| n * (x - w)).collect();
    batch_inverse(&mut dens);
    omegas
        .iter()
        .zip(dens)
        .map(|(&w, den)| w * vanishing * den)
        .collect()
}

/// An opening of a committed polynomial at one point.
#[derive(Debug, Clone)]
pub struct KzgOpening<P: PairingConfig> {
    /// The claimed evaluation `p(z)`.
    pub value: P::Fr,
    /// Commitment to the witness polynomial `(p(X) − p(z))/(X − z)`.
    pub witness: Affine<P::G1>,
}

/// Evaluates `coeffs` at `point` (Horner).
pub fn evaluate_poly<F: Field>(coeffs: &[F], point: F) -> F {
    let mut acc = F::zero();
    for c in coeffs.iter().rev() {
        acc = acc * point + *c;
    }
    acc
}

/// Divides `p(X) − p(z)` by `(X − z)`: returns `(quotient, p(z))`. The
/// division is exact by construction (synthetic division at a root).
pub fn divide_at_point<F: Field>(coeffs: &[F], z: F) -> (Vec<F>, F) {
    if coeffs.is_empty() {
        return (Vec::new(), F::zero());
    }
    let mut quotient = vec![F::zero(); coeffs.len() - 1];
    let mut carry = F::zero();
    for (i, c) in coeffs.iter().enumerate().rev() {
        let next = *c + carry * z;
        if i == 0 {
            return (quotient, next);
        }
        quotient[i - 1] = next;
        carry = next;
    }
    unreachable!("loop returns at i == 0");
}

/// Opens `coeffs` at `point`: evaluates and commits the witness
/// polynomial through `msm`.
pub fn open<P: PairingConfig>(
    srs: &KzgSrs<P>,
    coeffs: &[P::Fr],
    point: P::Fr,
    msm: &dyn MsmEngine<P::G1>,
) -> KzgOpening<P> {
    let (quotient, value) = divide_at_point(coeffs, point);
    KzgOpening {
        value,
        witness: srs.commit(&quotient, msm).result.to_affine(),
    }
}

/// Verifies one opening: `e(C + z·W − y·G1, G2) · e(−W, τ·G2) = 1`.
pub fn verify<P: PairingConfig>(
    srs: &KzgSrs<P>,
    commitment: &Affine<P::G1>,
    point: P::Fr,
    opening: &KzgOpening<P>,
) -> bool
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    let lhs = commitment
        .to_projective()
        .add(&opening.witness.mul(&point))
        .add(&srs.g1().mul(&opening.value).neg())
        .to_affine();
    multi_pairing::<P>(&[(lhs, srs.g2), (opening.witness.neg(), srs.tau_g2)]) == Gt::<P>::one()
}

/// One claim for [`batch_verify`]: (commitment, point, opening).
pub type KzgClaim<P> = (
    Affine<<P as PairingConfig>::G1>,
    <P as PairingConfig>::Fr,
    KzgOpening<P>,
);

/// Batch-verifies openings of several commitments at (possibly distinct)
/// points with one random linear combination — two pairings total
/// instead of two per opening. `rng` supplies the combination
/// coefficients; a cheating batch passes with probability ≤ |batch|/2¹²⁶.
pub fn batch_verify<P: PairingConfig, R: Rng + ?Sized>(
    srs: &KzgSrs<P>,
    claims: &[KzgClaim<P>],
    rng: &mut R,
) -> bool
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    if claims.is_empty() {
        return true;
    }
    // Σ rᵢ·(Cᵢ + zᵢ·Wᵢ − yᵢ·G1) paired with G2, plus Σ rᵢ·Wᵢ paired with
    // −τ·G2, must cancel.
    let mut acc = Projective::<P::G1>::identity();
    let mut wit = Projective::<P::G1>::identity();
    for (commitment, point, opening) in claims {
        let r =
            P::Fr::from_limbs(&[rng.gen(), rng.gen::<u64>() >> 2, 0, 0][..P::Fr::NUM_LIMBS.min(4)])
                .unwrap_or_else(P::Fr::one);
        let term = commitment
            .to_projective()
            .add(&opening.witness.mul(point))
            .add(&srs.g1().mul(&opening.value).neg());
        acc = acc.add(&term.mul(&r));
        wit = wit.add(&opening.witness.mul(&r));
    }
    multi_pairing::<P>(&[
        (acc.to_affine(), srs.g2),
        (wit.to_affine().neg(), srs.tau_g2),
    ]) == Gt::<P>::one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_curves::bn254::{Bn254, Fr, G1Affine};

    #[test]
    fn g1_does_not_index_the_powers() {
        let tau = Fr::from_u64(5);
        let empty = KzgSrs::<Bn254>::setup_with_tau(tau, 0);
        assert!(empty.g1_powers.is_empty());
        assert_eq!(empty.g1(), G1Affine::generator());

        let srs = KzgSrs::<Bn254>::setup_with_tau(tau, 3);
        let expect = [1u64, 5, 25].map(|p| G1Affine::generator().mul(&Fr::from_u64(p)).to_affine());
        assert_eq!(srs.g1_powers, expect);
        assert_eq!(srs.g1(), srs.g1_powers[0]);
    }
}
