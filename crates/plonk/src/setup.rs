//! PLONK circuit setup: the universal powers-of-tau SRS plus per-circuit
//! preprocessing (selector polynomials, the copy-constraint permutation
//! σ, and their commitments), and what the prover would otherwise derive
//! from the key on every proof.
//!
//! Setup is host-side and engine-independent: polynomial interpolation
//! and the coset extensions run through the host's tiled NTT (bit-identical
//! to the CPU reference, whatever the batch plan), and every
//! point is a multiple of G1 computed while τ is still known — the eight
//! preprocessing commitments as `p(τ)·G1`, and the Lagrange-basis SRS as
//! `L_i(τ)·G1` plus the two blinding bases `(τⁿ − 1)·G1`, `(τⁿ⁺¹ − τ)·G1`,
//! against which the prover commits its wires from their values. The
//! σ, selector and `L₁` evaluations on the 4n coset are held with the key
//! for the quotient step. The *prover's* commitments — wires, permutation
//! accumulator, quotient chunks, openings — are the ones that run through
//! the shared [`gzkp_msm::MsmEngine`] stack.

use crate::circuit::PlonkCircuit;
use crate::kzg::{evaluate_poly, g1_multiples, lagrange_basis_at, KzgSrs};
use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::Affine;
use gzkp_ff::{Field, PrimeField};
use gzkp_gpu_sim::v100;
use gzkp_ntt::batch::batched_transform;
use gzkp_ntt::{Direction, GzkpNtt, Radix2Domain};
use rand::Rng;

/// Degree headroom the SRS needs beyond the domain size: the blinded
/// permutation accumulator has `n + 3` coefficients (degree `n + 2`),
/// the largest polynomial any stage commits.
pub(crate) const SRS_HEADROOM: usize = 3;

/// Verifier-side key material for one circuit shape.
#[derive(Clone)]
pub struct PlonkVerifyingKey<P: PairingConfig> {
    /// Domain size (number of gate rows, a power of two).
    pub n: usize,
    /// Number of public inputs.
    pub num_public: usize,
    /// Coset shift of the second wire column's identity permutation.
    pub k1: P::Fr,
    /// Coset shift of the third wire column's identity permutation.
    pub k2: P::Fr,
    /// Commitments to `q_L, q_R, q_O, q_M, q_C`.
    pub selector_comms: [Affine<P::G1>; 5],
    /// Commitments to `σ₁, σ₂, σ₃`.
    pub sigma_comms: [Affine<P::G1>; 3],
    /// The G1 generator.
    pub g1: Affine<P::G1>,
    /// The G2 generator.
    pub g2: Affine<P::G2>,
    /// `τ·G2` — the verifier's half of the KZG pairing check.
    pub tau_g2: Affine<P::G2>,
}

/// Prover-side key material: the SRS in the monomial and the Lagrange
/// basis, plus the preprocessed circuit polynomials in coefficient form
/// (the opening step), on the domain (the accumulator) and on the 4n
/// coset (the quotient step).
pub struct PlonkProvingKey<P: PairingConfig> {
    /// Domain size.
    pub n: usize,
    /// Number of public inputs.
    pub num_public: usize,
    /// The powers-of-tau SRS (length `n + SRS_HEADROOM`).
    pub srs: KzgSrs<P>,
    /// `L_i(τ)·G1` for the domain's Lagrange basis (`i < n`), then
    /// `(τⁿ − 1)·G1` and `(τⁿ⁺¹ − τ)·G1`: a wire blinded as
    /// `A(X) + (b₀ + b₁X)·Z_H(X)` commits as one MSM over its `n` values
    /// and `b₀, b₁`.
    pub lagrange_g1: Vec<Affine<P::G1>>,
    /// Coset shifts `k1`, `k2` (column identities are `X`, `k1·X`,
    /// `k2·X`).
    pub k1: P::Fr,
    /// See [`PlonkProvingKey::k1`].
    pub k2: P::Fr,
    /// Selector polynomials `q_L, q_R, q_O, q_M, q_C`, coefficient form.
    pub selectors: [Vec<P::Fr>; 5],
    /// Permutation polynomials `σ₁, σ₂, σ₃`, coefficient form.
    pub sigma_coeffs: [Vec<P::Fr>; 3],
    /// Permutation values on the domain: `σ_col(ωʳᵒʷ)`.
    pub sigma_evals: [Vec<P::Fr>; 3],
    /// `σ₁, σ₂, σ₃` on the 4n coset (`g·ω₄ₙⁱ`, `g` the 4n domain's coset
    /// generator).
    pub sigma_coset: [Vec<P::Fr>; 3],
    /// The five selectors on the 4n coset.
    pub selector_coset: [Vec<P::Fr>; 5],
    /// `L₁`, the Lagrange polynomial of `ω⁰`, on the 4n coset.
    pub l1_coset: Vec<P::Fr>,
    /// Wire variable indices per row (padded to `n` with the zero var).
    pub wires: [Vec<usize>; 3],
    /// Embedded verifying key (the prover's transcript absorbs it so
    /// both sides derive identical challenges).
    pub vk: PlonkVerifyingKey<P>,
}

/// Finds the coset shifts: `k1` with `k1ⁿ ≠ 1` (so `k1·H` misses `H`)
/// and `k2` with `k2ⁿ ≠ 1` and `(k2/k1)ⁿ ≠ 1` (so the three cosets are
/// pairwise disjoint). Small integers are searched deterministically.
fn coset_shifts<F: PrimeField>(n: usize) -> (F, F) {
    let in_coset = |a: &F, b: &F| -> bool {
        // a/b lands in H iff (a/b)^n == 1.
        (*a * b.inverse().expect("nonzero shift")).pow(&[n as u64]) == F::one()
    };
    let one = F::one();
    let mut k1 = F::from_u64(2);
    while in_coset(&k1, &one) {
        k1 += one;
    }
    let mut k2 = k1 + one;
    while in_coset(&k2, &one) || in_coset(&k2, &k1) {
        k2 += one;
    }
    (k1, k2)
}

/// The host's tiled NTT with [`GzkpNtt::auto`]'s batch plan: the tiles
/// fan out over all cores and the butterflies are lazy where the field
/// allows.
fn transform<F: PrimeField>(domain: &Radix2Domain<F>, data: &mut [F], dir: Direction) {
    let batches = GzkpNtt::auto::<F>(v100()).batches(domain.log_n);
    batched_transform(domain, data, dir, &batches);
}

/// Interpolates evaluation-form `values` (length `n`) into coefficient
/// form.
fn interpolate<F: PrimeField>(domain: &Radix2Domain<F>, values: &[F]) -> Vec<F> {
    let mut coeffs = values.to_vec();
    transform(domain, &mut coeffs, Direction::Inverse);
    coeffs
}

/// Evaluates a polynomial of at most `big.size` coefficients on the `big`
/// domain's coset.
fn coset_evals<F: PrimeField>(big: &Radix2Domain<F>, coeffs: &[F]) -> Vec<F> {
    let mut evals = Vec::with_capacity(big.size);
    evals.extend_from_slice(coeffs);
    big.coset_scale(&mut evals);
    evals.resize(big.size, F::zero());
    transform(big, &mut evals, Direction::Forward);
    evals
}

/// Runs per-circuit setup: samples τ, builds the SRS, preprocesses the
/// selectors and the copy-constraint permutation, and commits to them.
///
/// # Errors
///
/// Fails when the domain size exceeds the field's two-adicity.
#[allow(clippy::type_complexity)]
pub fn setup<P: PairingConfig, R: Rng + ?Sized>(
    circuit: &PlonkCircuit<P::Fr>,
    rng: &mut R,
) -> Result<(PlonkProvingKey<P>, PlonkVerifyingKey<P>), String> {
    let n = circuit.domain_size();
    let domain = Radix2Domain::<P::Fr>::new(n)
        .ok_or_else(|| format!("domain size {n} exceeds the field's two-adicity"))?;
    let big = Radix2Domain::<P::Fr>::new(4 * n)
        .ok_or_else(|| format!("quotient domain {} exceeds the field's two-adicity", 4 * n))?;

    // Padded selector evaluation vectors and wire index columns.
    let mut selector_evals: [Vec<P::Fr>; 5] = std::array::from_fn(|_| vec![P::Fr::zero(); n]);
    let mut wires: [Vec<usize>; 3] = std::array::from_fn(|_| vec![0usize; n]);
    for (row, gate) in circuit.gates.iter().enumerate() {
        selector_evals[0][row] = gate.q_l;
        selector_evals[1][row] = gate.q_r;
        selector_evals[2][row] = gate.q_o;
        selector_evals[3][row] = gate.q_m;
        selector_evals[4][row] = gate.q_c;
        wires[0][row] = gate.a;
        wires[1][row] = gate.b;
        wires[2][row] = gate.c;
    }

    let (k1, k2) = coset_shifts::<P::Fr>(n);
    let shifts = [P::Fr::one(), k1, k2];
    let omegas = Radix2Domain::powers(domain.omega, n);

    // Copy-constraint permutation: collect each variable's slot
    // positions and rotate within the cycle; σ_col(row) is the identity
    // value (k_col·ω^row) of the *next* slot holding the same variable.
    let mut positions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); circuit.num_variables()];
    for col in 0..3 {
        for row in 0..n {
            positions[wires[col][row]].push((col, row));
        }
    }
    let mut sigma_evals: [Vec<P::Fr>; 3] = std::array::from_fn(|_| vec![P::Fr::zero(); n]);
    for cycle in &positions {
        for (i, &(col, row)) in cycle.iter().enumerate() {
            let (ncol, nrow) = cycle[(i + 1) % cycle.len()];
            sigma_evals[col][row] = shifts[ncol] * omegas[nrow];
        }
    }

    let selectors: [Vec<P::Fr>; 5] =
        std::array::from_fn(|i| interpolate(&domain, &selector_evals[i]));
    let sigma_coeffs: [Vec<P::Fr>; 3] =
        std::array::from_fn(|i| interpolate(&domain, &sigma_evals[i]));

    // The quotient step's key constants: σ, the selectors and L₁ = (1/n)·Σ Xⁱ
    // on the 4n coset.
    let n_inv = P::Fr::from_u64(n as u64)
        .inverse()
        .ok_or("domain size not invertible")?;
    let l1_coeffs = vec![n_inv; n];
    let on_coset: Vec<&[P::Fr]> = sigma_coeffs
        .iter()
        .chain(&selectors)
        .map(Vec::as_slice)
        .chain([l1_coeffs.as_slice()])
        .collect();
    let mut on_coset = rayon::map(on_coset, |coeffs| coset_evals(&big, coeffs)).into_iter();
    let sigma_coset: [Vec<P::Fr>; 3] = std::array::from_fn(|_| on_coset.next().expect("σ"));
    let selector_coset: [Vec<P::Fr>; 5] = std::array::from_fn(|_| on_coset.next().expect("q"));
    let l1_coset = on_coset.next().expect("L₁");

    // SRS, Lagrange-basis SRS and preprocessing commitments (setup-side:
    // evaluate at τ, one fixed-base multiplication per point).
    let tau = P::Fr::random(rng);
    let srs = KzgSrs::<P>::setup_with_tau(tau, n + SRS_HEADROOM);
    let vanishing = domain.eval_vanishing(tau);
    let mut at_tau = lagrange_basis_at(&domain, tau);
    at_tau.extend([vanishing, vanishing * tau]);
    at_tau.extend(
        selectors
            .iter()
            .chain(&sigma_coeffs)
            .map(|coeffs| evaluate_poly(coeffs, tau)),
    );
    let mut lagrange_g1 = g1_multiples::<P>(&at_tau);
    let comms = lagrange_g1.split_off(n + 2);

    let vk = PlonkVerifyingKey {
        n,
        num_public: circuit.num_public,
        k1,
        k2,
        selector_comms: std::array::from_fn(|i| comms[i]),
        sigma_comms: std::array::from_fn(|i| comms[5 + i]),
        g1: srs.g1(),
        g2: srs.g2,
        tau_g2: srs.tau_g2,
    };
    let pk = PlonkProvingKey {
        n,
        num_public: circuit.num_public,
        srs,
        lagrange_g1,
        k1,
        k2,
        selectors,
        sigma_coeffs,
        sigma_evals,
        sigma_coset,
        selector_coset,
        l1_coset,
        wires,
        vk: vk.clone(),
    };
    Ok((pk, vk))
}
