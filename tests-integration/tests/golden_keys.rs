//! Key generation is pinned by golden digests: the Groth16 proving and
//! verifying keys and the PLONK proving key, verifying key and SRS for
//! fixed seeds, recorded from the per-element double-and-add setup that
//! preceded the fixed-base tables, must come out byte for byte at every
//! host thread count.
//!
//! Everything lives in ONE test function: the thread count is driven by
//! the `GZKP_THREADS` env override, and env mutation must stay
//! sequential within the test binary (see `parallel_determinism.rs`).

use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::{bls12_381::Bls12_381, bn254::Bn254, Affine, CoordField, CurveParams};
use gzkp_ff::PrimeField;
use gzkp_groth16::{ConstraintSystem, LinearCombination};
use gzkp_plonk::PlonkCircuit;
use gzkp_workloads::synthetic::synthetic_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 24;

/// FNV-1a over a key's serialized form, fed piecewise.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn len(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    /// Uncompressed: flag byte, then both coordinates (zero at infinity).
    fn point<C: CurveParams>(&mut self, p: &Affine<C>)
    where
        C::Base: CoordField,
    {
        self.bytes(&[u8::from(p.infinity)]);
        self.bytes(&p.x.to_coord_bytes());
        self.bytes(&p.y.to_coord_bytes());
    }

    fn points<C: CurveParams>(&mut self, ps: &[Affine<C>])
    where
        C::Base: CoordField,
    {
        self.len(ps.len());
        ps.iter().for_each(|p| self.point(p));
    }

    fn scalar<F: PrimeField>(&mut self, s: &F) {
        s.to_limbs()
            .iter()
            .for_each(|l| self.bytes(&l.to_le_bytes()));
    }

    fn scalars<F: PrimeField>(&mut self, ss: &[F]) {
        self.len(ss.len());
        ss.iter().for_each(|s| self.scalar(s));
    }
}

/// `n` constraints `x_{i+1} = x_i · x_i` from a public `x_0 = 3`. The
/// constant-one variable appears nowhere and the last variable only on
/// the `C` side, so the queries hold identity entries as real keys do.
fn squaring_chain<F: PrimeField>(n: usize) -> ConstraintSystem<F> {
    let mut cs = ConstraintSystem::<F>::new();
    let mut cur = F::from_u64(3);
    let mut var = cs.alloc_input(cur);
    for _ in 0..n {
        let next = cur * cur;
        let next_var = cs.alloc(next);
        cs.enforce(
            LinearCombination::from_var(var),
            LinearCombination::from_var(var),
            LinearCombination::from_var(next_var),
        );
        (cur, var) = (next, next_var);
    }
    cs
}

/// The 2⁴-constraint chain or the 2¹⁰-constraint synthetic gate mix.
fn circuit<F: PrimeField>(log_constraints: u32, rng: &mut StdRng) -> ConstraintSystem<F> {
    match log_constraints {
        4 => squaring_chain(16),
        _ => synthetic_circuit(1 << log_constraints, rng),
    }
}

/// Digests of the Groth16 `[proving key, verifying key]`.
fn groth16_keys<P: PairingConfig>(log_constraints: u32) -> [u64; 2]
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
{
    let mut rng = StdRng::seed_from_u64(SEED);
    let cs = circuit::<P::Fr>(log_constraints, &mut rng);
    let (pk, vk) = gzkp_groth16::setup::<P, _>(&cs, &mut rng).expect("setup");
    assert!(
        pk.a_query.iter().any(|p| p.infinity),
        "the pinned key has identity entries"
    );

    let mut d = Digest::new();
    d.point(&pk.alpha_g1);
    d.point(&pk.beta_g1);
    d.point(&pk.beta_g2);
    d.point(&pk.delta_g1);
    d.point(&pk.delta_g2);
    d.points(&pk.a_query);
    d.points(&pk.b_g1_query);
    d.points(&pk.b_g2_query);
    d.points(&pk.l_query);
    d.points(&pk.h_query);
    d.len(pk.domain_size);

    let mut v = Digest::new();
    v.point(&vk.alpha_g1);
    v.point(&vk.beta_g2);
    v.point(&vk.gamma_g2);
    v.point(&vk.delta_g2);
    v.points(&vk.ic);
    [d.0, v.0]
}

/// Digests of the PLONK `[proving key, verifying key, SRS]`, and of the
/// key material the prover reads in place of per-proof work: the
/// Lagrange-basis SRS and the σ, selector and `L₁` coset evaluations.
fn plonk_keys<P: PairingConfig>(log_constraints: u32) -> ([u64; 3], u64)
where
    <P::G1 as CurveParams>::Base: CoordField,
    <P::G2 as CurveParams>::Base: CoordField,
{
    let mut rng = StdRng::seed_from_u64(SEED);
    let circuit = PlonkCircuit::from_r1cs(&circuit::<P::Fr>(log_constraints, &mut rng));
    let (pk, vk) = gzkp_plonk::setup::<P, _>(&circuit, &mut rng).expect("setup");

    let mut s = Digest::new();
    s.points(&pk.srs.g1_powers);
    s.point(&pk.srs.g2);
    s.point(&pk.srs.tau_g2);

    let mut v = Digest::new();
    v.len(vk.n);
    v.len(vk.num_public);
    v.scalar(&vk.k1);
    v.scalar(&vk.k2);
    v.points(&vk.selector_comms);
    v.points(&vk.sigma_comms);
    v.point(&vk.g1);
    v.point(&vk.g2);
    v.point(&vk.tau_g2);

    let mut d = Digest::new();
    d.len(pk.n);
    d.len(pk.num_public);
    d.bytes(&s.0.to_le_bytes());
    d.scalar(&pk.k1);
    d.scalar(&pk.k2);
    for poly in pk
        .selectors
        .iter()
        .chain(&pk.sigma_coeffs)
        .chain(&pk.sigma_evals)
    {
        d.scalars(poly);
    }
    for column in &pk.wires {
        d.len(column.len());
        column.iter().for_each(|&w| d.len(w));
    }
    d.bytes(&v.0.to_le_bytes());

    let mut c = Digest::new();
    c.points(&pk.lagrange_g1);
    for evals in pk
        .sigma_coset
        .iter()
        .chain(&pk.selector_coset)
        .chain([&pk.l1_coset])
    {
        c.scalars(evals);
    }
    ([d.0, v.0, s.0], c.0)
}

#[test]
fn keys_match_golden_digests_at_every_thread_count() {
    for threads in ["1", "2", "3", "4", "8"] {
        std::env::set_var("GZKP_THREADS", threads);
        let (plonk_bn254, constants) = plonk_keys::<Bn254>(4);
        let got = [
            format!("groth16 bn254 2^4 {:x?}", groth16_keys::<Bn254>(4)),
            format!("groth16 bn254 2^10 {:x?}", groth16_keys::<Bn254>(10)),
            format!("groth16 bls12-381 2^4 {:x?}", groth16_keys::<Bls12_381>(4)),
            format!(
                "groth16 bls12-381 2^10 {:x?}",
                groth16_keys::<Bls12_381>(10)
            ),
            format!("plonk bn254 2^4 {plonk_bn254:x?}"),
            format!("plonk bn254 2^10 {:x?}", plonk_keys::<Bn254>(10).0),
            format!("plonk bls12-381 2^4 {:x?}", plonk_keys::<Bls12_381>(4).0),
            format!("plonk bn254 2^4 lagrange srs + coset constants {constants:x}"),
        ];
        assert_eq!(got, GOLDEN, "keys moved at GZKP_THREADS={threads}");
    }
    std::env::remove_var("GZKP_THREADS");
}

/// Recorded at the parent of the fixed-base change (commit e8cab08); the
/// last line when the key began holding the Lagrange-basis SRS and the
/// coset constants, which the `equivalence` tests of `gzkp-plonk` tie to
/// the per-proof work they replace. The four PLONK lines were recomputed
/// when `PlonkCircuit::from_r1cs` began fusing each constraint into one
/// gate and pinning the zero wire (the SRS digests at 2⁴ did not move:
/// the squaring chain keeps its 32-row domain); the Groth16 lines did not
/// move.
const GOLDEN: [&str; 8] = [
    "groth16 bn254 2^4 [943a9b9b526b8d27, ca85f1195439233f]",
    "groth16 bn254 2^10 [3500110084642a16, 84c2a5e3f7e60cd]",
    "groth16 bls12-381 2^4 [38fa18402c6d35a, dd1f3dbc01470818]",
    "groth16 bls12-381 2^10 [4e7c274abb490749, 6a2a6788fcfc855a]",
    "plonk bn254 2^4 [1b7a570d2ddac268, 554be63624c34f18, c5ad47ca790cf682]",
    "plonk bn254 2^10 [4051f6281026f80, 9b8aa09867f24ee5, 550dc25b3f1f0ebd]",
    "plonk bls12-381 2^4 [cdd006ebb93446f8, 2f346edb0d4d1853, 91f8289611190eb1]",
    "plonk bn254 2^4 lagrange srs + coset constants 67c55f054bf6650",
];
