//! The key material the prover reads in place of per-proof work equals
//! what it replaces: the coset constants held with the key are the
//! engine's coset extension of the key polynomials, the sparse `PI` and
//! the four-value `Z_H` are the NTT-derived vectors, and a wire committed
//! from its values against the Lagrange-basis SRS is the commitment to
//! its blinded coefficients against the powers of τ.

use crate::circuit::{PlonkCircuit, PlonkGate};
use crate::kzg::commit_in;
use crate::prove::{blind, coset_pi, coset_vanishing};
use crate::setup::{setup, PlonkProvingKey};
use gzkp_curves::bls12_381::Bls12_381;
use gzkp_curves::bn254::Bn254;
use gzkp_curves::pairing::PairingConfig;
use gzkp_ff::{Field, PrimeField};
use gzkp_gpu_sim::v100;
use gzkp_msm::GzkpMsm;
use gzkp_ntt::gpu::{GpuNttEngine, GzkpNtt};
use gzkp_ntt::{Direction, Radix2Domain};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Public inputs `3, 5, 7`, each squared `rounds` times.
fn squares<F: PrimeField>(rounds: usize) -> PlonkCircuit<F> {
    let publics = [3, 5, 7].map(F::from_u64);
    let mut circuit = PlonkCircuit::new(&publics);
    for (j, &start) in publics.iter().enumerate() {
        let (mut cur, mut var) = (start, 1 + j);
        for _ in 0..rounds {
            let next = cur * cur;
            let next_var = circuit.alloc(next);
            circuit.push_gate(PlonkGate {
                q_m: F::one(),
                q_o: -F::one(),
                a: var,
                b: var,
                c: next_var,
                ..PlonkGate::empty()
            });
            (cur, var) = (next, next_var);
        }
    }
    circuit
}

fn keyed<P: PairingConfig>(rounds: usize, seed: u64) -> (PlonkCircuit<P::Fr>, PlonkProvingKey<P>) {
    let circuit = squares::<P::Fr>(rounds);
    let (pk, _) = setup::<P, _>(&circuit, &mut StdRng::seed_from_u64(seed)).expect("setup");
    (circuit, pk)
}

/// What the quotient step ran per proof before the key held it: pad to
/// 4n, enter the coset, one forward engine NTT.
fn engine_coset<F: PrimeField>(big: &Radix2Domain<F>, coeffs: &[F]) -> Vec<F> {
    let mut data = coeffs.to_vec();
    data.resize(big.size, F::zero());
    big.coset_scale(&mut data);
    GzkpNtt::auto::<F>(v100()).transform(big, &mut data, Direction::Forward);
    data
}

#[test]
fn coset_constants_equal_the_per_proof_extension() {
    let (_, pk) = keyed::<Bn254>(5, 31);
    let n = pk.n;
    let big = Radix2Domain::new(4 * n).expect("4n domain");
    for (held, coeffs) in pk.sigma_coset.iter().zip(&pk.sigma_coeffs) {
        assert_eq!(*held, engine_coset(&big, coeffs), "σ");
    }
    for (held, coeffs) in pk.selector_coset.iter().zip(&pk.selectors) {
        assert_eq!(*held, engine_coset(&big, coeffs), "selector");
    }
    let n_inv = <Bn254 as PairingConfig>::Fr::from_u64(n as u64)
        .inverse()
        .expect("n invertible");
    assert_eq!(pk.l1_coset, engine_coset(&big, &vec![n_inv; n]), "L₁");
}

#[test]
fn sparse_pi_and_four_value_vanishing_equal_their_ntt_vectors() {
    type Fr = <Bn254 as PairingConfig>::Fr;
    let n = 16;
    let (domain, big) = (
        Radix2Domain::<Fr>::new(n).expect("domain"),
        Radix2Domain::<Fr>::new(4 * n).expect("4n domain"),
    );
    let mut rng = StdRng::seed_from_u64(32);
    for count in [0, 1, 3, n] {
        let publics: Vec<Fr> = (0..count).map(|_| Fr::random(&mut rng)).collect();
        let mut pi_coeffs = vec![Fr::zero(); n];
        for (c, pi) in pi_coeffs.iter_mut().zip(&publics) {
            *c = -*pi;
        }
        GzkpNtt::auto::<Fr>(v100()).transform(&domain, &mut pi_coeffs, Direction::Inverse);
        assert_eq!(
            coset_pi(&big, n, &publics),
            engine_coset(&big, &pi_coeffs),
            "{count} public inputs"
        );
    }

    // Z_H = Xⁿ − 1 has degree n, inside the 4n coset's reach.
    let mut zh_coeffs = vec![Fr::zero(); n + 1];
    zh_coeffs[0] = -Fr::one();
    zh_coeffs[n] = Fr::one();
    let four = coset_vanishing(&big, n);
    let expanded: Vec<Fr> = (0..4 * n).map(|i| four[i % 4]).collect();
    assert_eq!(expanded, engine_coset(&big, &zh_coeffs));
}

/// Commits `values` blinded by `blinds` both ways and compares.
fn lagrange_matches_coefficients<P: PairingConfig>(
    pk: &PlonkProvingKey<P>,
    values: &[P::Fr],
    blinds: [P::Fr; 2],
) {
    let domain = Radix2Domain::new(pk.n).expect("domain");
    let mut coeffs = values.to_vec();
    GzkpNtt::auto::<P::Fr>(v100()).transform(&domain, &mut coeffs, Direction::Inverse);
    blind(&mut coeffs, pk.n, &blinds);
    let msm = GzkpMsm::new(v100());
    let sink = gzkp_telemetry::NoopSink;
    let from_coeffs = commit_in::<P>(&pk.srs.g1_powers, &coeffs, &msm, &sink)
        .result
        .to_affine();
    let scalars = [values, &blinds].concat();
    let from_values = commit_in::<P>(&pk.lagrange_g1, &scalars, &msm, &sink)
        .result
        .to_affine();
    assert_eq!(from_values, from_coeffs);
}

fn lagrange_commitments<P: PairingConfig>(seed: u64) {
    let (circuit, pk) = keyed::<P>(3, seed);
    assert_eq!(pk.lagrange_g1.len(), pk.n + 2);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let random = |rng: &mut StdRng| [P::Fr::random(rng), P::Fr::random(rng)];
    // A real wire column (mostly 0, 1 and padding), random values, and an
    // all-zero column, each under random and zero blinds.
    let wire: Vec<P::Fr> = (0..pk.n)
        .map(|row| circuit.values[pk.wires[2][row]])
        .collect();
    let dense: Vec<P::Fr> = (0..pk.n).map(|_| P::Fr::random(&mut rng)).collect();
    let zeros = vec![P::Fr::zero(); pk.n];
    for values in [&wire, &dense, &zeros] {
        lagrange_matches_coefficients(&pk, values, random(&mut rng));
        lagrange_matches_coefficients(&pk, values, [P::Fr::zero(); 2]);
    }
}

#[test]
fn lagrange_commitments_equal_coefficient_commitments_bn254() {
    lagrange_commitments::<Bn254>(33);
}

#[test]
fn lagrange_commitments_equal_coefficient_commitments_bls12_381() {
    lagrange_commitments::<Bls12_381>(35);
}
