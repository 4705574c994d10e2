//! Groth16 trusted setup: samples the toxic waste `(τ, α, β, γ, δ)` and
//! produces the proving key (the point vectors `M⃗, Q⃗` of the paper's
//! Figure 1) and the short verification key.

use crate::r1cs::{ConstraintSystem, SynthesisError};
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{Affine, CurveParams, FixedBaseTable};
use gzkp_ff::{batch_inverse, Field, PrimeField};
use gzkp_ntt::Radix2Domain;
use rand::Rng;

/// The Groth16 proving key for pairing config `P`.
#[derive(Debug, Clone)]
pub struct ProvingKey<P: PairingConfig> {
    /// `α` in G1.
    pub alpha_g1: Affine<P::G1>,
    /// `β` in G1 and G2.
    pub beta_g1: Affine<P::G1>,
    /// `β` in G2.
    pub beta_g2: Affine<P::G2>,
    /// `δ` in G1 and G2.
    pub delta_g1: Affine<P::G1>,
    /// `δ` in G2.
    pub delta_g2: Affine<P::G2>,
    /// `A_j(τ)·G1` for every variable `j` (the a-query MSM basis).
    pub a_query: Vec<Affine<P::G1>>,
    /// `B_j(τ)·G1`.
    pub b_g1_query: Vec<Affine<P::G1>>,
    /// `B_j(τ)·G2`.
    pub b_g2_query: Vec<Affine<P::G2>>,
    /// `(β·A_j(τ) + α·B_j(τ) + C_j(τ))/δ · G1` for private variables.
    pub l_query: Vec<Affine<P::G1>>,
    /// `τ^i·Z(τ)/δ · G1` for `i < N − 1` (the h-query MSM basis).
    pub h_query: Vec<Affine<P::G1>>,
    /// Domain size used at setup (the prover must match it).
    pub domain_size: usize,
}

/// The Groth16 verification key.
#[derive(Debug, Clone)]
pub struct VerifyingKey<P: PairingConfig> {
    /// `α` in G1.
    pub alpha_g1: Affine<P::G1>,
    /// `β` in G2.
    pub beta_g2: Affine<P::G2>,
    /// `γ` in G2.
    pub gamma_g2: Affine<P::G2>,
    /// `δ` in G2.
    pub delta_g2: Affine<P::G2>,
    /// `(β·A_j(τ) + α·B_j(τ) + C_j(τ))/γ · G1` for the constant one and
    /// each public input.
    pub ic: Vec<Affine<P::G1>>,
}

/// Evaluates all Lagrange basis polynomials of the domain at `τ`:
/// `L_i(τ) = Z(τ)·ωⁱ / (N·(τ − ωⁱ))`.
fn lagrange_at_tau<F: PrimeField>(domain: &Radix2Domain<F>, tau: F) -> Vec<F> {
    let z_tau = domain.eval_vanishing(tau);
    let mut omega_i = F::one();
    let mut denoms: Vec<F> = (0..domain.size)
        .map(|_| {
            let d = tau - omega_i;
            omega_i *= domain.omega;
            d
        })
        .collect();
    batch_inverse(&mut denoms);
    let n_inv = domain.size_inv;
    let mut omega_i = F::one();
    denoms
        .into_iter()
        .map(|dinv| {
            let l = z_tau * omega_i * n_inv * dinv;
            omega_i *= domain.omega;
            l
        })
        .collect()
}

/// A uniform non-zero field element (γ and δ are divided by): redraws on
/// zero.
fn random_nonzero<F: Field, R: Rng + ?Sized>(rng: &mut R) -> F {
    loop {
        let value = F::random(rng);
        if !value.is_zero() {
            return value;
        }
    }
}

/// `s · G` for every scalar through the generator's `table`, shares of
/// the list across cores.
fn mul_shares<C: CurveParams>(table: &FixedBaseTable<C>, scalars: &[C::Scalar]) -> Vec<Affine<C>> {
    let shares = scalars.chunks(rayon::share_len(scalars.len()));
    rayon::map(shares, |share| table.mul_many(share)).concat()
}

/// Runs the trusted setup over a synthesized constraint system.
///
/// # Errors
///
/// Fails if the constraint count exceeds the scalar field's NTT capacity.
pub fn setup<P: PairingConfig, R: Rng + ?Sized>(
    cs: &ConstraintSystem<P::Fr>,
    rng: &mut R,
) -> Result<(ProvingKey<P>, VerifyingKey<P>), SynthesisError> {
    let domain = Radix2Domain::<P::Fr>::at_least(cs.num_constraints().max(2))
        .ok_or(SynthesisError::DomainTooLarge)?;
    let tau = P::Fr::random(rng);
    let alpha = P::Fr::random(rng);
    let beta = P::Fr::random(rng);
    let gamma = random_nonzero::<P::Fr, _>(rng);
    let delta = random_nonzero::<P::Fr, _>(rng);

    // Per-variable QAP polynomial evaluations at τ via the Lagrange basis.
    let lag = lagrange_at_tau(&domain, tau);
    let nvars = cs.num_variables();
    let mut a_tau = vec![P::Fr::zero(); nvars];
    let mut b_tau = vec![P::Fr::zero(); nvars];
    let mut c_tau = vec![P::Fr::zero(); nvars];
    for (i, (la, lb, lc)) in cs.constraints.iter().enumerate() {
        for (j, coeff) in &la.terms {
            a_tau[*j] += *coeff * lag[i];
        }
        for (j, coeff) in &lb.terms {
            b_tau[*j] += *coeff * lag[i];
        }
        for (j, coeff) in &lc.terms {
            c_tau[*j] += *coeff * lag[i];
        }
    }

    let gamma_inv = gamma.inverse().expect("drawn non-zero");
    let delta_inv = delta.inverse().expect("drawn non-zero");

    // (β·A_j + α·B_j + C_j)(τ) over γ for the public variables (`ic`),
    // over δ for the private ones (`l`).
    let num_public = 1 + cs.num_inputs;
    let mut kc_tau: Vec<P::Fr> = (0..nvars)
        .map(|j| {
            let divisor_inv = if j < num_public { gamma_inv } else { delta_inv };
            (beta * a_tau[j] + alpha * b_tau[j] + c_tau[j]) * divisor_inv
        })
        .collect();
    let l_tau = kc_tau.split_off(num_public);

    // h-query: τ^i · Z(τ) / δ, for i < N − 1.
    let h_first = domain.eval_vanishing(tau) * delta_inv;
    let h_tau: Vec<P::Fr> = std::iter::successors(Some(h_first), |h| Some(*h * tau))
        .take(domain.size - 1)
        .collect();

    // Every key element is a multiple of one of the two generators.
    let g1 = FixedBaseTable::<P::G1>::new(3 * nvars + domain.size + 2);
    let g2 = FixedBaseTable::<P::G2>::new(nvars + 3);
    let in_g1 = g1.mul_many(&[alpha, beta, delta]);
    let in_g2 = g2.mul_many(&[beta, gamma, delta]);

    let pk = ProvingKey {
        alpha_g1: in_g1[0],
        beta_g1: in_g1[1],
        beta_g2: in_g2[0],
        delta_g1: in_g1[2],
        delta_g2: in_g2[2],
        a_query: mul_shares(&g1, &a_tau),
        b_g1_query: mul_shares(&g1, &b_tau),
        b_g2_query: mul_shares(&g2, &b_tau),
        l_query: mul_shares(&g1, &l_tau),
        h_query: mul_shares(&g1, &h_tau),
        domain_size: domain.size,
    };
    let vk = VerifyingKey {
        alpha_g1: pk.alpha_g1,
        beta_g2: pk.beta_g2,
        gamma_g2: in_g2[1],
        delta_g2: pk.delta_g2,
        ic: mul_shares(&g1, &kc_tau),
    };
    Ok((pk, vk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::LinearCombination;
    use gzkp_curves::bn254::{Bn254, Fr};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Draws zeros first, then a seeded stream.
    struct ZerosThen(usize, StdRng);
    impl RngCore for ZerosThen {
        fn next_u64(&mut self) -> u64 {
            match self.0.checked_sub(1) {
                Some(left) => {
                    self.0 = left;
                    0
                }
                None => self.1.next_u64(),
            }
        }
    }

    #[test]
    fn a_zero_gamma_or_delta_is_redrawn() {
        let mut rng = ZerosThen(2 * Fr::NUM_LIMBS, StdRng::seed_from_u64(6));
        assert!(!random_nonzero::<Fr, _>(&mut rng).is_zero());
        assert_eq!(rng.0, 0);

        // τ, α, β and the first γ all drawn zero: setup still returns keys.
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc(Fr::from_u64(2));
        let out = cs.alloc_input(Fr::from_u64(4));
        cs.enforce(
            LinearCombination::from_var(x),
            LinearCombination::from_var(x),
            LinearCombination::from_var(out),
        );
        let mut rng = ZerosThen(4 * Fr::NUM_LIMBS, StdRng::seed_from_u64(6));
        let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        assert!(pk.alpha_g1.infinity && pk.beta_g2.infinity);
        assert!(!vk.gamma_g2.infinity && !vk.delta_g2.infinity);
    }

    #[test]
    fn lagrange_partition_of_unity() {
        // Σ L_i(τ) = 1 and L_i(ω^j) = δ_ij.
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let tau = Fr::random(&mut rng);
        let lag = lagrange_at_tau(&d, tau);
        let sum: Fr = lag.iter().copied().sum();
        assert_eq!(sum, Fr::one());
    }

    #[test]
    fn lagrange_interpolates() {
        // Σ f(ωⁱ)·L_i(τ) must equal f(τ) for a low-degree f.
        let d = Radix2Domain::<Fr>::new(8).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let tau = Fr::random(&mut rng);
        let lag = lagrange_at_tau(&d, tau);
        // f(x) = 3x² + 2x + 5
        let f = |x: Fr| Fr::from_u64(3) * x.square() + Fr::from_u64(2) * x + Fr::from_u64(5);
        let mut w = Fr::one();
        let mut acc = Fr::zero();
        for l in &lag {
            acc += f(w) * *l;
            w *= d.omega;
        }
        assert_eq!(acc, f(tau));
    }

    #[test]
    fn setup_produces_consistent_sizes() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let out = cs.alloc_input(Fr::from_u64(6));
        let x = cs.alloc(Fr::from_u64(2));
        let y = cs.alloc(Fr::from_u64(3));
        cs.enforce(
            LinearCombination::from_var(x),
            LinearCombination::from_var(y),
            LinearCombination::from_var(out),
        );
        let mut rng = StdRng::seed_from_u64(9);
        let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).unwrap();
        assert_eq!(pk.a_query.len(), cs.num_variables());
        assert_eq!(pk.b_g2_query.len(), cs.num_variables());
        assert_eq!(pk.l_query.len(), cs.num_aux);
        assert_eq!(pk.h_query.len(), pk.domain_size - 1);
        assert_eq!(vk.ic.len(), 1 + cs.num_inputs);
    }
}
