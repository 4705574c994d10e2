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
//! A basis other than the powers commits the same way: `lagrange_basis_at`
//! gives the domain's Lagrange polynomials at τ, whose `[L_i(τ)]₁` commit a
//! polynomial from its *values* on the domain ([`commit_in`]). Values are
//! sparse where coefficients are dense (a wire column is mostly 0 and 1),
//! and the MSM prices what it is given.
//!
//! An opening's witness polynomial `q(X) = (p(X) − p(z)) / (X − z)` comes
//! from [`divide_at_point`] (synthetic division — exact because `z` is a
//! root of the numerator). PLONK's prover commits its witnesses here, and
//! its verifier checks them in its own batched pairing equation.

use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{Affine, FixedBaseTable, Projective};
use gzkp_ff::{batch_inverse, Field, PrimeField};
use gzkp_msm::{MsmEngine, MsmRun, ScalarVec};
use gzkp_ntt::Radix2Domain;

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
}

/// `sᵢ · G1` for every scalar: one fixed-base table, shares of the
/// scalars across cores.
pub(crate) fn g1_multiples<P: PairingConfig>(scalars: &[P::Fr]) -> Vec<Affine<P::G1>> {
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
pub(crate) fn lagrange_basis_at<F: PrimeField>(domain: &Radix2Domain<F>, x: F) -> Vec<F> {
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
