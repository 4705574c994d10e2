//! The checkpoint tables against their definition,
//! `pre[c][i] = 2^{c·M·k} · Pᵢ`, computed per point by double-and-add —
//! the compact levels (`x`, `y` and one identity bit per point) read back
//! point by point, identities included — at
//! the level count of the recoded scalars (`⌈(bound + 1)/k⌉` windows: the
//! GLV half bound on BN254 G1 and G2, the full width on a curve without a
//! split) — on G1, on G2, and on a curve with `a ≠ 0` (none of the
//! workspace's curves has one, and the tangent slope carries the `a`),
//! over vectors that hold identity entries the way a real `a_query` does.
//! The same vectors then go through an MSM whose windows are mostly
//! streamed (`M = 3`), which doubles the weight vector in place between
//! passes.

use gzkp_curves::bn254::{Fq, Fr, G1Config, G2Config};
use gzkp_curves::{random_points, Affine, CurveParams};
use gzkp_ff::Field;
use gzkp_gpu_sim::device::v100;
use gzkp_msm::{naive_msm, GzkpMsm, MsmEngine, ScalarVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `y² = x³ + x + 2` over the BN254 base field, base point `(1, 2)`
/// (on-curve by construction: `4 = 1 + 1 + 2`). A test group only: its
/// order is unknown, which exact group arithmetic does not care about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct NonZeroA;
impl CurveParams for NonZeroA {
    type Base = Fq;
    type Scalar = Fr;
    const NAME: &'static str = "test.a=1";
    fn coeff_a() -> Fq {
        Fq::one()
    }
    fn coeff_b() -> Fq {
        Fq::from_u64(2)
    }
    fn generator() -> (Fq, Fq) {
        (Fq::one(), Fq::from_u64(2))
    }
}

/// `n` random points with the identity at both ends and in the middle.
fn points_with_identities<C: CurveParams>(n: usize, rng: &mut StdRng) -> Vec<Affine<C>> {
    let mut points = random_points::<C, _>(n, rng);
    assert!(points.iter().all(Affine::is_on_curve));
    for i in [0, n / 2, n - 1] {
        points[i] = Affine::identity();
    }
    points
}

fn check<C: CurveParams>(seed: u64, windows: usize) {
    const K: u32 = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    // Several shares at any thread count above one.
    let points = points_with_identities::<C>(19, &mut rng);
    let engine = GzkpMsm::new(v100());
    let bound = C::glv().map_or(<C::Scalar as gzkp_ff::PrimeField>::MODULUS_BITS, |g| {
        g.split().bound()
    });
    assert_eq!((bound + 1).div_ceil(K) as usize, windows, "{}", C::NAME);
    for m in [1u32, 3] {
        let pre = engine.preprocess(&points, K, m);
        assert_eq!(
            pre.levels(),
            windows.div_ceil(m as usize),
            "{} M={m}",
            C::NAME
        );
        assert!(
            pre.holds(&points),
            "{} M={m}: level 0 is the input",
            C::NAME
        );
        for c in 0..pre.levels() {
            // 2^{c·M·k} as little-endian limbs.
            let bit = c * (m * K) as usize;
            let mut weight = vec![0u64; bit / 64 + 1];
            weight[bit / 64] = 1 << (bit % 64);
            let expect: Vec<Affine<C>> = points
                .iter()
                .map(|p| p.to_projective().mul_limbs(&weight).to_affine())
                .collect();
            let level: Vec<Affine<C>> = pre.level(c).collect();
            assert_eq!(level, expect, "{} M={m} level {c}", C::NAME);
            // The compact entries keep the identity apart from x and y.
            for (i, p) in expect.iter().enumerate() {
                assert_eq!(pre.point(c, i), (!p.infinity).then_some(*p));
            }
            assert!(pre.point(c, 0).is_none() && pre.point(c, points.len() - 1).is_none());
        }
        let entry = std::mem::size_of::<[C::Base; 2]>();
        assert!(entry < std::mem::size_of::<Affine<C>>());
        assert_eq!(pre.bytes(), (pre.levels() * points.len() * entry) as u64);
    }

    let scalars: Vec<C::Scalar> = points.iter().map(|_| C::Scalar::random(&mut rng)).collect();
    let scalars = ScalarVec::from_field(&scalars);
    let streamed = GzkpMsm {
        checkpoint_interval: Some(3),
        window: Some(K),
        ..engine
    };
    assert_eq!(
        streamed.msm(&points, &scalars).result,
        naive_msm(&points, &scalars),
        "{}",
        C::NAME
    );
}

// BN254's halves are below 2^126: 16 windows of 8 bits against the 32
// Algorithm 1 stores for 254-bit scalars. The a ≠ 0 curve has no split.

#[test]
fn checkpoint_tables_match_their_definition_g1() {
    check::<G1Config>(61, 16);
}

#[test]
fn checkpoint_tables_match_their_definition_g2() {
    check::<G2Config>(62, 16);
}

#[test]
fn checkpoint_tables_match_their_definition_nonzero_a() {
    check::<NonZeroA>(63, 32);
}
