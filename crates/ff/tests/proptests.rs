//! Property-based tests of the finite-field substrate: bigint arithmetic
//! against the dynamic-width reference, field axioms under random
//! operation sequences and Montgomery-domain consistency. (The Dekker
//! floating-point multiplier's properties sit in its test-only module,
//! `src/dfp.rs`.)

use gzkp_ff::bigint::BigInt;
use gzkp_ff::dynmont;
use gzkp_ff::fields::{Fq381, Fq753, Fr254};
use gzkp_ff::{Field, PrimeField};
use proptest::prelude::*;

fn arb_bigint4() -> impl Strategy<Value = BigInt<4>> {
    prop::array::uniform4(any::<u64>()).prop_map(BigInt)
}

fn arb_fr254() -> impl Strategy<Value = Fr254> {
    prop::array::uniform4(any::<u64>()).prop_map(|mut limbs| {
        limbs[3] &= (1 << 62) - 1; // below 2^254 < p·4, then reduce by retry
        loop {
            if let Some(f) = Fr254::from_limbs(&limbs) {
                return f;
            }
            limbs[3] >>= 1;
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bigint_add_matches_dynmont(a in arb_bigint4(), b in arb_bigint4()) {
        let (sum, carry) = a.const_add(&b);
        let mut expect = dynmont::add(&a.0, &b.0);
        expect.resize(5, 0);
        prop_assert_eq!(&sum.0[..], &expect[..4]);
        prop_assert_eq!(carry, expect[4]);
    }

    #[test]
    fn bigint_mul_matches_dynmont(a in arb_bigint4(), b in arb_bigint4()) {
        let (lo, hi) = a.widening_mul(&b);
        let mut expect = dynmont::mul(&a.0, &b.0);
        expect.resize(8, 0);
        prop_assert_eq!(&lo.0[..], &expect[..4]);
        prop_assert_eq!(&hi.0[..], &expect[4..]);
    }

    #[test]
    fn bigint_shift_roundtrip(a in arb_bigint4(), s in 0u32..255) {
        let shifted = dynmont::shl(&a.0, s);
        let back = dynmont::shr(&shifted, s);
        let mut orig = a.0.to_vec();
        dynmont::normalize(&mut orig);
        prop_assert_eq!(back, orig);
    }

    #[test]
    fn bigint_divrem_reconstructs(a in arb_bigint4(), d in arb_bigint4()) {
        prop_assume!(!d.is_zero());
        let (q, r) = dynmont::div_rem(&a.0, &d.0);
        prop_assert_eq!(dynmont::cmp_slices(&r, &d.0), std::cmp::Ordering::Less);
        let back = dynmont::add(&dynmont::mul(&q, &d.0), &r);
        let mut orig = a.0.to_vec();
        dynmont::normalize(&mut orig);
        prop_assert_eq!(back, orig);
    }

    #[test]
    fn field_ring_axioms(a in arb_fr254(), b in arb_fr254(), c in arb_fr254()) {
        prop_assert_eq!((a + b) * c, a * c + b * c);
        prop_assert_eq!(a * (b * c), (a * b) * c);
        prop_assert_eq!(a - b, -(b - a));
        prop_assert_eq!(a.double(), a + a);
        prop_assert_eq!(a.square(), a * a);
    }

    #[test]
    fn field_inverse_and_pow(a in arb_fr254()) {
        if let Some(inv) = a.inverse() {
            prop_assert_eq!(a * inv, Fr254::one());
            // a^(p-2) == a^{-1}
            let p = Fr254::characteristic();
            let mut pm2 = BigInt::<4>::new([p[0], p[1], p[2], p[3]]);
            pm2.sub_with_borrow(&BigInt::from_u64(2));
            prop_assert_eq!(a.pow(&pm2.0), inv);
        } else {
            prop_assert!(a.is_zero());
        }
    }

    #[test]
    fn canonical_roundtrip(a in arb_fr254()) {
        let limbs = a.to_limbs();
        prop_assert_eq!(Fr254::from_limbs(&limbs).unwrap(), a);
        // Canonical representation is strictly below the modulus.
        let canon = BigInt::<4>::new([limbs[0], limbs[1], limbs[2], limbs[3]]);
        let p = Fr254::characteristic();
        prop_assert!(canon < BigInt::<4>::new([p[0], p[1], p[2], p[3]]));
    }

    #[test]
    fn sqrt_of_square_exists(a in arb_fr254()) {
        let sq = a.square();
        let r = sq.sqrt().expect("square must have a root");
        prop_assert!(r == a || r == -a);
    }

    #[test]
    fn batch_inverse_matches_elementwise(seed in any::<u64>(), n in 0usize..40) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let vals: Vec<Fr254> = (0..n).map(|_| Fr254::random(&mut rng)).collect();
        let mut batched = vals.clone();
        let count = gzkp_ff::batch_inverse_count(&mut batched);
        prop_assert_eq!(count, vals.iter().filter(|v| !v.is_zero()).count());
        for (orig, inv) in vals.iter().zip(&batched) {
            match orig.inverse() {
                Some(expect) => prop_assert_eq!(*inv, expect),
                None => prop_assert!(inv.is_zero()),
            }
        }
    }

    #[test]
    fn batch_inverse_leaves_zeros(seed in any::<u64>(), mask in any::<u32>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // Zero out a random subset of 32 entries; they must stay zero and
        // must not perturb their neighbours.
        let vals: Vec<Fr254> = (0..32)
            .map(|i| if mask >> i & 1 == 1 { Fr254::zero() } else { Fr254::random(&mut rng) })
            .collect();
        let mut batched = vals.clone();
        let count = gzkp_ff::batch_inverse_count(&mut batched);
        prop_assert_eq!(count, vals.iter().filter(|v| !v.is_zero()).count());
        for (orig, inv) in vals.iter().zip(&batched) {
            if orig.is_zero() {
                prop_assert!(inv.is_zero());
            } else {
                prop_assert_eq!(*orig * *inv, Fr254::one());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn wide_field_axioms_381(seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Fq381::random(&mut rng);
        let b = Fq381::random(&mut rng);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b).square(), a.square() + a * b + a * b + b.square());
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Fq381::one());
        }
    }

    #[test]
    fn wide_field_axioms_753(seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Fq753::random(&mut rng);
        let b = Fq753::random(&mut rng);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a + b - b, a);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Fq753::one());
        }
    }
}
