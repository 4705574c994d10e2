//! Fixed-base scalar multiplication: a windowed table of multiples of the
//! curve's generator, for callers that multiply one base by many scalars
//! (key generation: every proving-key element is `sᵢ · G`).
//!
//! Cutting a `b`-bit scalar into `⌈b/w⌉` digits of `w` bits and storing
//! `d · 2^{t·w} · G` for every window `t` and digit `d > 0` turns one
//! multiplication into at most one addition per window, against `b`
//! doublings and `b/2` additions for double-and-add. The width is the
//! table's own business: it is derived from the number of
//! multiplications the table is built for.

use crate::group::{
    affine_add_denominator, affine_add_with_inverse, batch_to_affine, Affine, CurveParams,
};
use gzkp_ff::{batch_inverse_scratch, PrimeField};

/// Widest window considered: bounds the table at `2¹⁶` points per window
/// however many multiplications are asked for.
const MAX_WIDTH: u32 = 16;

/// Multiples of the generator of `C`, `d · 2^{t·w} · G` for every window
/// `t` of a scalar and every non-zero `w`-bit digit `d`, in affine form.
pub struct FixedBaseTable<C: CurveParams> {
    /// Window width `w` in bits.
    width: u32,
    /// Row `t` starts at `t · (2^w − 1)`; entry `d − 1` of it holds
    /// `d · 2^{t·w} · G`. The last row stops at the largest digit the
    /// scalar field's top window can hold.
    multiples: Vec<Affine<C>>,
}

impl<C: CurveParams> FixedBaseTable<C> {
    /// Builds the table for about `n` multiplications, which decide the
    /// window width: three multiplications do not pay for a table sized
    /// for thousands.
    pub fn new(n: usize) -> Self {
        let bits = <C::Scalar as PrimeField>::MODULUS_BITS;
        let width = window_width(bits, n);
        let windows = bits.div_ceil(width);
        let top_bits = bits - width * (windows - 1);

        let mut multiples = Vec::with_capacity(windows as usize * ((1 << width) - 1));
        let mut base = Affine::<C>::generator();
        for t in 0..windows {
            let digits = if t + 1 == windows { top_bits } else { width };
            // base, 2·base, …, 2^digits·base, normalised together; the
            // last one is the next window's base.
            let mut row = vec![base.to_projective()];
            for d in 1..1usize << digits {
                row.push(row[d - 1].add_mixed(&base));
            }
            let mut row = batch_to_affine(&row);
            base = row.pop().expect("a window has at least one digit");
            multiples.extend(row);
        }
        Self { width, multiples }
    }

    /// `scalars[i] · G` for every scalar, normalised; a zero scalar gives
    /// [`Affine::identity`]. All scalars advance together, one window at a
    /// time, so each window costs one shared inversion.
    pub fn mul_many(&self, scalars: &[C::Scalar]) -> Vec<Affine<C>> {
        let limbs: Vec<u64> = scalars.iter().flat_map(PrimeField::to_limbs).collect();
        let per_scalar = <C::Scalar as PrimeField>::NUM_LIMBS;
        let row_len = (1usize << self.width) - 1;
        let mut sums = vec![Affine::<C>::identity(); scalars.len()];
        let mut dens = Vec::with_capacity(scalars.len());
        let mut prod = Vec::with_capacity(scalars.len());
        for (t, row) in self.multiples.chunks(row_len).enumerate() {
            let addend = |limbs: &[u64]| match digit(limbs, t as u32 * self.width, self.width) {
                0 => Affine::identity(),
                d => row[d - 1],
            };
            let scalars = || limbs.chunks(per_scalar);
            dens.clear();
            dens.extend(
                sums.iter()
                    .zip(scalars())
                    .map(|(s, l)| affine_add_denominator(s, &addend(l))),
            );
            batch_inverse_scratch(&mut dens, &mut prod);
            for ((s, l), dinv) in sums.iter_mut().zip(scalars()).zip(&dens) {
                *s = affine_add_with_inverse(s, &addend(l), dinv);
            }
        }
        sums
    }
}

/// The window width that minimises the additions of building a table for
/// `bits`-bit scalars (`2^w` per window) plus those of `n` multiplications
/// through it (one per window each).
fn window_width(bits: u32, n: usize) -> u32 {
    (1..=MAX_WIDTH)
        .min_by_key(|&w| u128::from(bits.div_ceil(w)) * ((1u128 << w) + n as u128))
        .expect("non-empty width range")
}

/// Bits `lo .. lo + width` of a little-endian limb scalar (`width ≤ 16`;
/// bits past the last limb read as zero).
fn digit(limbs: &[u64], lo: u32, width: u32) -> usize {
    let (limb, shift) = ((lo / 64) as usize, lo % 64);
    let mut bits = limbs.get(limb).map_or(0, |l| l >> shift);
    if shift + width > 64 {
        bits |= limbs.get(limb + 1).map_or(0, |l| l << (64 - shift));
    }
    (bits & ((1 << width) - 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Projective;
    use crate::{bls12_381, bn254, t753};
    use gzkp_ff::Field;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Multiplication counts a table is built for; the derived widths are
    /// 2, 4, 4 and 9 or 10 bits on every curve here.
    const BUILT_FOR: [usize; 4] = [1, 31, 32, 5000];

    fn tables<C: CurveParams>() -> Vec<FixedBaseTable<C>> {
        BUILT_FOR.map(FixedBaseTable::new).into()
    }

    /// 0, 1, r − 1 and `2^j − 1, 2^j, 2^j + 1` at every window boundary
    /// `j` of the table — all-ones digits below a boundary, a lone one
    /// above it, digits that straddle limbs when `w ∤ 64` — against a
    /// doubling chain from the generator (and double-and-add for r − 1:
    /// T753's group order is not r).
    fn check_edges<C: CurveParams>(table: &FixedBaseTable<C>) {
        let one = C::Scalar::one();
        let g = Projective::<C>::generator();
        let mut scalars = vec![C::Scalar::zero(), one, -one];
        let mut expect = vec![Projective::identity(), g, g.mul(&-one)];
        let (mut pow, mut point) = (one, g);
        for j in 1..<C::Scalar as PrimeField>::MODULUS_BITS - 1 {
            (pow, point) = (pow.double(), point.double());
            if j % table.width == 0 {
                scalars.extend([pow - one, pow, pow + one]);
                expect.extend([point.sub(&g), point, point.add(&g)]);
            }
        }
        assert_eq!(
            table.mul_many(&scalars),
            batch_to_affine(&expect),
            "{} w={}",
            C::NAME,
            table.width
        );
    }

    /// Random scalars, a repeated one and a zero, as one share, against
    /// double-and-add.
    fn check_random<C: CurveParams>(table: &FixedBaseTable<C>, seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scalars: Vec<C::Scalar> = (0..n).map(|_| C::Scalar::random(&mut rng)).collect();
        scalars.push(scalars[0]);
        scalars.push(C::Scalar::zero());
        let g = Projective::<C>::generator();
        let expect: Vec<_> = scalars.iter().map(|s| g.mul(s).to_affine()).collect();
        assert_eq!(table.mul_many(&scalars), expect, "{}", C::NAME);
    }

    /// The edge and random-scalar properties on one curve, over one set
    /// of tables built once.
    macro_rules! fixed_base_props {
        ($curve:ident, $config:ty) => {
            mod $curve {
                use super::*;

                fn tables() -> &'static [FixedBaseTable<$config>] {
                    static TABLES: OnceLock<Vec<FixedBaseTable<$config>>> = OnceLock::new();
                    TABLES.get_or_init(super::tables)
                }

                #[test]
                fn edge_scalars_match_a_doubling_chain() {
                    tables().iter().for_each(check_edges);
                    assert!(tables()[0].mul_many(&[]).is_empty());
                }

                proptest! {
                    #![proptest_config(ProptestConfig::with_cases(8))]

                    #[test]
                    fn random_scalars_match_double_and_add(
                        seed in any::<u64>(),
                        n in 1usize..6,
                        table in 0usize..BUILT_FOR.len(),
                    ) {
                        check_random(&tables()[table], seed, n);
                    }
                }
            }
        };
    }

    fixed_base_props!(bn254_g1, bn254::G1Config);
    fixed_base_props!(bn254_g2, bn254::G2Config);
    fixed_base_props!(bls12_381_g1, bls12_381::G1Config);
    fixed_base_props!(t753_g1, t753::G1Config);

    #[test]
    fn width_grows_with_the_multiplication_count() {
        let widths = [1usize, 31, 5000, 30_000, 1 << 17, usize::MAX].map(|n| window_width(254, n));
        assert!(widths.windows(2).all(|w| w[0] < w[1]), "{widths:?}");
        assert_eq!((widths[0], widths[5]), (2, MAX_WIDTH));
        assert_eq!(BUILT_FOR.map(|n| window_width(254, n))[..3], [2, 4, 4]);
    }

    #[test]
    fn digits_straddle_limbs() {
        let limbs = [0xf000_0000_0000_0000u64, 0x0000_0000_0000_00a5];
        assert_eq!(digit(&limbs, 60, 12), 0xa5f);
        assert_eq!(digit(&limbs, 64, 8), 0xa5);
        assert_eq!(digit(&limbs, 120, 16), 0);
        assert_eq!(digit(&limbs, 128, 16), 0);
    }
}
