//! The checkpoint tables against their definition,
//! `pre[c][i] = 2^{c·M·k} · Pᵢ`, computed per point by double-and-add —
//! the compact levels (`x` and `y` of the non-identity points only, one
//! position index for every level) read back point by point, identities
//! included — at
//! the level count of the recoded scalars (`⌈(bound + 1)/k⌉` windows: the
//! GLV half bound on BN254 G1 and G2, the full width on a curve without a
//! split) — on G1, on G2, and on a curve with `a ≠ 0` (none of the
//! workspace's curves has one, and the tangent slope carries the `a`),
//! over vectors that hold identity entries the way a real `a_query` does,
//! none at all, only identities, and every other one. The tables charge
//! `levels × non-identity points × entry` bytes, and serve every prefix
//! of their vector, identities inside it included. The same vectors then
//! go through an MSM whose windows are mostly streamed (`M = 3`), which
//! doubles the weight vector in place between passes.

use gzkp_curves::bn254::{Fq, Fr, G1Config, G2Config};
use gzkp_curves::{random_points, Affine, CurveParams};
use gzkp_ff::Field;
use gzkp_gpu_sim::device::v100;
use gzkp_msm::{naive_msm, GzkpMsm, MsmEngine, ScalarVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `y² = x³ + x + 2` over the BN254 base field, base point `(3, √32)`
/// (on-curve by construction: `32 = 27 + 3 + 2`). A test group only: its
/// order is unknown, which exact group arithmetic does not care about —
/// but the tables need `2^j·P ≠ O`, which holds unless the order of `P` is
/// a power of two. `(1, 2)` lies on the curve too, and has order 4.
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
        let y = gzkp_ff::PrimeField::sqrt(&Fq::from_u64(32)).expect("32 is a square mod q");
        (Fq::from_u64(3), y)
    }
}

/// Vectors of `n` random points with the identity at both ends and in
/// the middle (unused key columns), nowhere, everywhere, and at every
/// other position.
fn identity_patterns<C: CurveParams>(n: usize, rng: &mut StdRng) -> Vec<Vec<Affine<C>>> {
    let points = random_points::<C, _>(n, rng);
    assert!(points.iter().all(|p| p.is_on_curve() && !p.infinity));
    let with = |identity: &dyn Fn(usize) -> bool| -> Vec<Affine<C>> {
        (0..n)
            .map(|i| {
                if identity(i) {
                    Affine::identity()
                } else {
                    points[i]
                }
            })
            .collect()
    };
    vec![
        with(&|i| [0, n / 2, n - 1].contains(&i)),
        points.clone(),
        with(&|_| true),
        with(&|i| i % 2 == 0),
    ]
}

fn check<C: CurveParams>(seed: u64, windows: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Several shares at any thread count above one, and more than 64
    // positions: the position index spans two words.
    for points in identity_patterns::<C>(70, &mut rng) {
        check_vector(&points, windows, &mut rng);
    }
}

fn check_vector<C: CurveParams>(points: &[Affine<C>], windows: usize, rng: &mut StdRng) {
    const K: u32 = 8;
    let stored = points.iter().filter(|p| !p.infinity).count();
    let other = random_points::<C, _>(1, rng)[0];
    let engine = GzkpMsm::new(v100());
    let bound = C::glv().map_or(<C::Scalar as gzkp_ff::PrimeField>::MODULUS_BITS, |g| {
        g.split().bound()
    });
    assert_eq!((bound + 1).div_ceil(K) as usize, windows, "{}", C::NAME);
    for m in [1u32, 3] {
        let pre = engine.preprocess(points, K, m);
        // One level per `M` windows; the byte count below pins that no
        // more are held.
        let levels = windows.div_ceil(m as usize);
        // Every prefix is held — identities inside it included — and
        // nothing longer, nor a prefix whose identity pattern differs.
        for len in 0..=points.len() {
            assert!(pre.holds(&points[..len]), "{} M={m} prefix {len}", C::NAME);
        }
        let mut longer = points.to_vec();
        longer.push(Affine::identity());
        assert!(!pre.holds(&longer), "{} M={m}", C::NAME);
        for i in [0, 1, points.len() / 2, points.len() - 1] {
            let mut flipped = points[..=i].to_vec();
            flipped[i] = match flipped[i].infinity {
                true => other,
                false => Affine::identity(),
            };
            assert!(
                !pre.holds(&flipped),
                "{} M={m}: position {i} flipped",
                C::NAME
            );
        }
        for c in 0..levels {
            // 2^{c·M·k} as little-endian limbs.
            let bit = c * (m * K) as usize;
            let mut weight = vec![0u64; bit / 64 + 1];
            weight[bit / 64] = 1 << (bit % 64);
            let expect: Vec<Affine<C>> = points
                .iter()
                .map(|p| p.to_projective().mul_limbs(&weight).to_affine())
                .collect();
            // Every position reads back its level-`c` point where the
            // input has one (a doubled point is never the identity), and
            // nothing where it has the identity.
            for (i, (p, input)) in expect.iter().zip(points).enumerate() {
                assert_eq!(p.infinity, input.infinity, "{} M={m} level {c}", C::NAME);
                assert_eq!(pre.point(c, i), (!p.infinity).then_some(*p));
            }
        }
        // Levels × non-identity points × entry: the identity is stored at
        // no level.
        let entry = std::mem::size_of::<[C::Base; 2]>();
        assert!(entry < std::mem::size_of::<Affine<C>>());
        assert_eq!(pre.bytes(), (levels * stored * entry) as u64);
    }

    let scalars: Vec<C::Scalar> = points.iter().map(|_| C::Scalar::random(rng)).collect();
    let scalars = ScalarVec::from_field(&scalars);
    let streamed = GzkpMsm {
        checkpoint_interval: Some(3),
        window: Some(K),
        ..engine
    };
    assert_eq!(
        streamed.msm(points, &scalars).result,
        naive_msm(points, &scalars),
        "{} with {stored} of {} points stored",
        C::NAME,
        points.len()
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
