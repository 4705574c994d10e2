//! Property-based round-trip of the KZG commitment scheme through the
//! shared MSM engine: commit/open/verify must succeed on honest claims
//! and reject tampered ones, on both pairing curves, and the commitment
//! bytes must be identical at every worker-thread count (the SRS MSM
//! rides the same bucket-sorted Pippenger kernels as Groth16, so KZG
//! inherits its bit-determinism guarantees). The single-point opening and
//! its pairing check are this file's oracle: PLONK opens and verifies its
//! own batched way.
//!
//! Everything lives in ONE test function: the thread count is driven by
//! the `GZKP_THREADS` env override, and env mutation must stay
//! sequential within the test binary (see `parallel_determinism.rs`).

use gzkp_curves::pairing::{multi_pairing, Gt, PairingConfig};
use gzkp_curves::{bls12_381, bn254, compress, Affine, CoordField, CurveParams};
use gzkp_ff::ext::{Fp12Config, Fp2Config, Fp6Config};
use gzkp_ff::Field;
use gzkp_gpu_sim::v100;
use gzkp_msm::{GzkpMsm, MsmEngine};
use gzkp_plonk::kzg::{self, KzgSrs};
use gzkp_telemetry::NoopSink;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An opening of a committed polynomial at one point.
#[derive(Debug, Clone)]
struct KzgOpening<P: PairingConfig> {
    /// The claimed evaluation `p(z)`.
    value: P::Fr,
    /// Commitment to the witness polynomial `(p(X) − p(z))/(X − z)`.
    witness: Affine<P::G1>,
}

/// Commits `coeffs` (coefficient form) against the SRS powers.
fn commit<P: PairingConfig>(
    srs: &KzgSrs<P>,
    coeffs: &[P::Fr],
    msm: &dyn MsmEngine<P::G1>,
) -> Affine<P::G1> {
    kzg::commit_in::<P>(&srs.g1_powers, coeffs, msm, &NoopSink)
        .result
        .to_affine()
}

/// Opens `coeffs` at `point`: evaluates and commits the witness
/// polynomial through `msm`.
fn open<P: PairingConfig>(
    srs: &KzgSrs<P>,
    coeffs: &[P::Fr],
    point: P::Fr,
    msm: &dyn MsmEngine<P::G1>,
) -> KzgOpening<P> {
    let (quotient, value) = kzg::divide_at_point(coeffs, point);
    KzgOpening {
        value,
        witness: commit(srs, &quotient, msm),
    }
}

/// Verifies one opening: `e(C + z·W − y·G1, G2) · e(−W, τ·G2) = 1`.
fn verify<P: PairingConfig>(
    srs: &KzgSrs<P>,
    commitment: &Affine<P::G1>,
    point: P::Fr,
    opening: &KzgOpening<P>,
) -> bool
where
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

/// One property check on curve `P`: random polynomial of `n` coefficients,
/// SRS from a seeded trusted setup, commit + open at a random point, then
/// verify the honest opening and reject two tampered variants. Runs under
/// GZKP_THREADS ∈ {1, 4} and asserts the commitment bytes never change.
fn check<P: PairingConfig>(seed: u64, n: usize) -> Result<(), String>
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::Fq12C as Fp12Config>::Fp6C: Fp6Config<Fp2C = P::Fq2C>,
    P::Fq2C: Fp2Config,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let srs = KzgSrs::<P>::setup_with_tau(P::Fr::random(&mut rng), n);
    let coeffs: Vec<P::Fr> = (0..n).map(|_| P::Fr::random(&mut rng)).collect();
    let point = P::Fr::random(&mut rng);
    let msm = GzkpMsm::new(v100());

    let mut reference_bytes = None;
    for threads in ["1", "4"] {
        std::env::set_var("GZKP_THREADS", threads);
        let commitment = commit(&srs, &coeffs, &msm);
        let bytes = compress(&commitment);
        match &reference_bytes {
            None => reference_bytes = Some(bytes),
            Some(reference) => prop_assert_eq!(
                &bytes,
                reference,
                "KZG commitment bytes diverged at GZKP_THREADS={}",
                threads
            ),
        }

        let opening = open(&srs, &coeffs, point, &msm);
        prop_assert_eq!(
            opening.value,
            kzg::evaluate_poly(&coeffs, point),
            "opening value disagrees with direct evaluation"
        );
        prop_assert!(
            verify(&srs, &commitment, point, &opening),
            "honest opening rejected at GZKP_THREADS={}",
            threads
        );

        // Tampered evaluation: claim p(z) + 1.
        let mut bad_value = opening.clone();
        bad_value.value += P::Fr::one();
        prop_assert!(
            !verify(&srs, &commitment, point, &bad_value),
            "tampered evaluation accepted"
        );

        // Tampered witness: substitute the SRS generator.
        let mut bad_witness = opening.clone();
        bad_witness.witness = srs.g1();
        prop_assert!(
            !verify(&srs, &commitment, point, &bad_witness),
            "tampered witness accepted"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn kzg_round_trips_and_rejects_tampering(seed in 0u64..1000, n in 2usize..48) {
        check::<bn254::Bn254>(seed, n)?;
        check::<bls12_381::Bls12_381>(seed ^ 0xa5a5, n)?;
        std::env::remove_var("GZKP_THREADS");
    }
}
