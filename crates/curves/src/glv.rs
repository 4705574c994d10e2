//! The GLV endomorphism of the `j = 0` pairing curves (BN254 and
//! BLS12-381, G1 and G2 alike).
//!
//! On `y² = x³ + b` the map `φ(x, y) = (β·x, y)`, with β a primitive cube
//! root of unity in `Fq`, is a group automorphism, and on a prime-order
//! group it is multiplication by a scalar λ with `λ² + λ + 1 ≡ 0 (mod r)`.
//! So `s·P = s₁·P + s₂·φ(P)` for any `s ≡ s₁ + λ·s₂`, and a short basis of
//! the lattice `{(a, b) : a + b·λ ≡ 0}` yields halves of about `√r` — half
//! the bits of `s` — while `φ(P)` costs one multiplication by β. The host
//! MSM recodes its scalars with [`ScalarSplit::split`] and forms `φ(P)`
//! from the stored `P` with [`Glv::phi`].
//!
//! Every constant is derived here from the field moduli and the curve's
//! generator: β = `g^{(q−1)/3}` and λ = `h^{(r−1)/3}` for the smallest
//! `g`, `h` ≥ 2 that give a root other than one, the basis by extended
//! Euclid on `(r, λ)` (Hankerson–Menezes–Vanstone, Algorithm 3.74), and
//! the bound on the halves from the basis norms.

use crate::group::{Affine, CurveParams};
use core::cmp::Ordering;
use gzkp_ff::{Field, PrimeField};

/// A curve's GLV endomorphism `φ(x, y) = (β·x, y)`, with β chosen so that
/// `φ` acts on the group as its scalar field split's λ.
#[derive(Debug)]
pub struct Glv<C: CurveParams> {
    beta: C::Base,
    split: &'static ScalarSplit,
}

impl<C: CurveParams> Glv<C> {
    /// The scalar field's decomposition. G1 and G2 over one scalar field
    /// share it, so a scalar vector is recoded once for both.
    pub fn split(&self) -> &'static ScalarSplit {
        self.split
    }

    /// Picks β for `C` against `split`'s λ: of the two non-trivial cube
    /// roots of unity in the base field, the one with `φ(G) = λ·G` on the
    /// generator (the other gives `λ²·G`, since `φ` acts as a cube root
    /// of unity on a prime-order group).
    ///
    /// # Panics
    ///
    /// Panics if neither root satisfies `φ(G) = λ·G`: `C` is then not a
    /// `j = 0` curve of prime order `r`, and has no GLV split.
    pub(crate) fn derive(split: &'static ScalarSplit) -> Self {
        let g = Affine::<C>::generator();
        let lambda_g = g.to_projective().mul_limbs(split.lambda());
        let beta = cube_root_of_unity::<C::Base>();
        let acts_as_lambda =
            |beta: C::Base| Affine::<C>::new_unchecked(g.x * beta, g.y).to_projective() == lambda_g;
        let beta = if acts_as_lambda(beta) {
            beta
        } else {
            beta.square()
        };
        assert!(acts_as_lambda(beta), "{}: φ is not λ on G", C::NAME);
        Self { beta, split }
    }

    /// `φ(p) = (β·x, y)`, which equals `λ·p`.
    #[inline]
    pub fn phi(&self, p: &Affine<C>) -> Affine<C> {
        if p.infinity {
            *p
        } else {
            Affine::new_unchecked(p.x * self.beta, p.y)
        }
    }
}

/// `g^{(p−1)/3}` for the smallest `g ≥ 2` where that is not one: a
/// primitive cube root of unity of the prime subfield of `F`, embedded in
/// `F`.
///
/// # Panics
///
/// Panics unless the characteristic `p` is `1 (mod 3)`.
pub fn cube_root_of_unity<F: Field>() -> F {
    let mut e = F::characteristic();
    assert!(e[0] != 0, "characteristic is odd and > 1");
    e[0] -= 1;
    let mut rem = 0u128;
    for limb in e.iter_mut().rev() {
        let cur = rem << 64 | u128::from(*limb);
        *limb = (cur / 3) as u64;
        rem = cur % 3;
    }
    assert_eq!(rem, 0, "no cube root of unity: p ≢ 1 (mod 3)");
    (2u64..)
        .map(|g| F::from_u64(g).pow(&e))
        .find(|root| !root.is_one())
        .expect("half the elements of F* are not cubes")
}

/// The GLV decomposition of one scalar field: `s ↦ (s₁, s₂)` with
/// `s ≡ s₁ + λ·s₂ (mod r)` and `|s₁|, |s₂| < 2^bound`.
///
/// **The bound.** The basis `v₁ = (a₁, b₁)`, `v₂ = (a₂, b₂)` spans the
/// lattice of `(a, b)` with `a + b·λ ≡ 0`, with determinant `r`. Write
/// `(s, 0) = β₁v₁ + β₂v₂` over the rationals (`β₁ = s·b₂/r`,
/// `β₂ = −s·b₁/r`); [`Self::split`] rounds `βᵢ` to `cᵢ` and returns
/// `(s, 0) − c₁v₁ − c₂v₂ = (β₁ − c₁)v₁ + (β₂ − c₂)v₂`. It computes
/// `cᵢ = round(s·gᵢ / 2^shift)` with `gᵢ` the nearest integers to
/// `2^shift·b₂/r` and `−2^shift·b₁/r` — both non-negative, since the
/// Euclid basis ordered to determinant `r` has `b₂ > 0 > b₁` (its `a`s
/// are remainders, positive, and its `b`s alternate in sign) — so
/// `|cᵢ − βᵢ| ≤ ½ + ε` with
/// `ε = s / 2^{shift+1}`. With `A = max(|a₁| + |a₂|, |b₁| + |b₂|)` both
/// halves are at most `(½ + ε)·A`, and `shift` is chosen so that
/// `ε·A < ½` for every `s` of the field's limb width: so `|sᵢ| < (A + 1)/2`,
/// i.e. `|sᵢ| ≤ ⌊A/2⌋ < 2^bound`. Scalars already below `2^bound` are
/// returned whole, `(s, 0)`.
///
/// Since `bound ≤ 127`, each half is fixed by its value modulo `2^128`,
/// which is all [`Self::split`] computes after the two roundings.
#[derive(Debug)]
pub struct ScalarSplit {
    lambda: Vec<u64>,
    limbs: usize,
    /// `[[a₁, b₁], [a₂, b₂]]`, each modulo `2^128`.
    basis: [[u128; 2]; 2],
    /// `g₁`, `g₂`, little-endian limbs.
    g: [Vec<u64>; 2],
    shift: usize,
    bound: u32,
}

/// Limbs of the product `s·gᵢ` (plus a carry limb).
const PRODUCT: usize = 16;

impl ScalarSplit {
    /// Derives λ = `h^{(r−1)/3}` in `F` and the short basis, rounding
    /// constants and bound of its split.
    ///
    /// # Panics
    ///
    /// Panics unless `r ≡ 1 (mod 3)` and the halves fit 127 bits, which
    /// holds for every field of at most 254 bits with a cube root of unity
    /// and for BLS12-381's.
    pub(crate) fn new<F: PrimeField>() -> Self {
        let lambda = cube_root_of_unity::<F>().to_limbs();
        let r = Int::from_limbs(&F::characteristic());
        // Extended Euclid on (r, λ): the remainders rᵢ = sᵢ·r + tᵢ·λ, of
        // which only (rᵢ, tᵢ) are needed — each gives (rᵢ, −tᵢ) in the
        // lattice, since rᵢ − tᵢ·λ ≡ 0.
        let mut seq = vec![(r, Int::ZERO), (Int::from_limbs(&lambda), Int::ONE)];
        while !seq[seq.len() - 1].0.is_zero() {
            let ((ri, ti), (rj, tj)) = (seq[seq.len() - 2], seq[seq.len() - 1]);
            let (q, rem) = ri.divrem(&rj);
            seq.push((rem, ti.sub(&q.mul(&tj))));
        }
        // l: the last index with rₗ ≥ √r. rₗ₊₁ < √r is then non-zero (the
        // last non-zero remainder is gcd(r, λ) = 1), so rₗ₊₂ exists.
        let l = seq
            .iter()
            .rposition(|(ri, _)| ri.mul(ri).cmp_mag(&r) != Ordering::Less)
            .expect("r₀ = r is at least √r");
        let vector = |i: usize| (seq[i].0, seq[i].1.neg());
        let norm = |(a, b): (Int, Int)| a.mul(&a).add(&b.mul(&b));
        let v1 = vector(l + 1);
        let v2 = if norm(vector(l)).cmp_mag(&norm(vector(l + 2))) != Ordering::Greater {
            vector(l)
        } else {
            vector(l + 2)
        };
        let det = v1.0.mul(&v2.1).sub(&v2.0.mul(&v1.1));
        let (v1, v2) = if det.neg { (v2, v1) } else { (v1, v2) };
        assert_eq!(det.abs(), r, "the basis spans the lattice");
        assert!(!v2.1.neg && v1.1.neg, "the ordered basis has b₂ > 0 > b₁");

        let a = v1.0.abs().add(&v2.0.abs());
        let b = v1.1.abs().add(&v2.1.abs());
        let big = if a.cmp_mag(&b) == Ordering::Less {
            b
        } else {
            a
        };
        let bound = big.half().bits();
        assert!(bound <= 127, "halves exceed 127 bits");
        let limbs = F::NUM_LIMBS;
        let shift = (64 * limbs + big.bits() as usize).next_multiple_of(64);
        // round(2^shift · |x| / r).
        let rounded = |x: &Int| {
            let (q, _) = Int::pow2(shift).mul(&x.abs()).add(&r.half()).divrem(&r);
            q.mag[..q.len()].to_vec()
        };
        let g = [rounded(&v2.1), rounded(&v1.1)];
        assert!(g.iter().all(|g| limbs + g.len() < PRODUCT));
        Self {
            lambda,
            limbs,
            basis: [v1, v2].map(|(a, b)| [a.wrapping_u128(), b.wrapping_u128()]),
            g,
            shift,
            bound,
        }
    }

    /// λ, canonical little-endian limbs.
    pub fn lambda(&self) -> &[u64] {
        &self.lambda
    }

    /// Bit bound of the halves: `|s₁|, |s₂| < 2^bound`.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Splits `s` (little-endian limbs, at most the field's width) into
    /// `[(negative, |s₁|), (negative, |s₂|)]` with `s ≡ s₁ + λ·s₂ (mod r)`.
    /// A scalar below `2^bound` comes back as `(s, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is wider than the field.
    pub fn split(&self, s: &[u64]) -> [(bool, u128); 2] {
        assert!(s.len() <= self.limbs, "scalar wider than its field");
        let limb = |i: usize| u128::from(s.get(i).copied().unwrap_or(0));
        let low = limb(1) << 64 | limb(0);
        if s.iter().skip(2).all(|&l| l == 0) && low >> self.bound == 0 {
            return [(false, low), (false, 0)];
        }
        // cᵢ = round(s·gᵢ / 2^shift), mod 2^128.
        let [c1, c2] = self.g.each_ref().map(|g| {
            let mut prod = [0u64; PRODUCT];
            for (i, &si) in s.iter().enumerate() {
                let mut carry = 0u128;
                for (j, &gj) in g.iter().enumerate() {
                    let t = u128::from(prod[i + j]) + u128::from(si) * u128::from(gj) + carry;
                    prod[i + j] = t as u64;
                    carry = t >> 64;
                }
                prod[i + g.len()] = carry as u64;
            }
            let top = self.shift / 64;
            let (sum, mut carry) = prod[top - 1].overflowing_add(1 << 63);
            prod[top - 1] = sum;
            for p in &mut prod[top..] {
                (*p, carry) = p.overflowing_add(u64::from(carry));
            }
            u128::from(prod[top + 1]) << 64 | u128::from(prod[top])
        });
        let [[a1, b1], [a2, b2]] = self.basis;
        let s1 = low
            .wrapping_sub(c1.wrapping_mul(a1))
            .wrapping_sub(c2.wrapping_mul(a2)) as i128;
        let s2 = 0u128
            .wrapping_sub(c1.wrapping_mul(b1))
            .wrapping_sub(c2.wrapping_mul(b2)) as i128;
        [s1, s2].map(|h| {
            assert!(
                h.unsigned_abs() >> self.bound == 0,
                "GLV half exceeds its proven bound"
            );
            (h < 0, h.unsigned_abs())
        })
    }
}

/// Limbs of [`Int`]: room for `2^shift · b` (≤ 9 limbs for a 256-bit
/// field).
const L: usize = 12;

/// A sign-magnitude integer of up to `64·L` bits — the arithmetic that
/// derives the split. Zero is never negative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Int {
    neg: bool,
    mag: [u64; L],
}

impl Int {
    const ZERO: Int = Int {
        neg: false,
        mag: [0; L],
    };
    const ONE: Int = {
        let mut mag = [0; L];
        mag[0] = 1;
        Int { neg: false, mag }
    };

    fn new(neg: bool, mag: [u64; L]) -> Self {
        Int {
            neg: neg && mag != [0; L],
            mag,
        }
    }

    fn from_limbs(limbs: &[u64]) -> Self {
        let mut mag = [0; L];
        mag[..limbs.len()].copy_from_slice(limbs);
        Int::new(false, mag)
    }

    fn pow2(bits: usize) -> Self {
        let mut mag = [0; L];
        mag[bits / 64] = 1 << (bits % 64);
        Int::new(false, mag)
    }

    fn is_zero(&self) -> bool {
        self.mag == [0; L]
    }

    /// Limbs up to the highest non-zero one.
    fn len(&self) -> usize {
        L - self.mag.iter().rev().take_while(|&&l| l == 0).count()
    }

    fn bits(&self) -> u32 {
        match self.len() {
            0 => 0,
            n => 64 * n as u32 - self.mag[n - 1].leading_zeros(),
        }
    }

    /// The value modulo `2^128`, two's complement.
    fn wrapping_u128(&self) -> u128 {
        let low = u128::from(self.mag[1]) << 64 | u128::from(self.mag[0]);
        if self.neg {
            low.wrapping_neg()
        } else {
            low
        }
    }

    fn abs(&self) -> Self {
        Int::new(false, self.mag)
    }

    fn neg(&self) -> Self {
        Int::new(!self.neg, self.mag)
    }

    fn cmp_mag(&self, o: &Int) -> Ordering {
        self.mag.iter().rev().cmp(o.mag.iter().rev())
    }

    fn add(&self, o: &Int) -> Int {
        if self.neg == o.neg {
            let mut mag = [0; L];
            let mut carry = false;
            for (m, (a, b)) in mag.iter_mut().zip(self.mag.iter().zip(&o.mag)) {
                let (s, c1) = a.overflowing_add(*b);
                let (s, c2) = s.overflowing_add(u64::from(carry));
                *m = s;
                carry = c1 || c2;
            }
            assert!(!carry, "Int overflow");
            return Int::new(self.neg, mag);
        }
        let (big, small) = match self.cmp_mag(o) {
            Ordering::Less => (o, self),
            _ => (self, o),
        };
        let mut mag = [0; L];
        let mut borrow = false;
        for (m, (a, b)) in mag.iter_mut().zip(big.mag.iter().zip(&small.mag)) {
            let (d, b1) = a.overflowing_sub(*b);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *m = d;
            borrow = b1 || b2;
        }
        Int::new(big.neg, mag)
    }

    fn sub(&self, o: &Int) -> Int {
        self.add(&o.neg())
    }

    fn mul(&self, o: &Int) -> Int {
        let (la, lb) = (self.len(), o.len());
        assert!(la + lb <= L, "Int overflow");
        let mut mag = [0; L];
        for i in 0..la {
            let mut carry = 0u128;
            for j in 0..lb {
                let t =
                    u128::from(mag[i + j]) + u128::from(self.mag[i]) * u128::from(o.mag[j]) + carry;
                mag[i + j] = t as u64;
                carry = t >> 64;
            }
            mag[i + lb] = carry as u64;
        }
        Int::new(self.neg != o.neg, mag)
    }

    /// `⌊|self| / 2⌋`.
    fn half(&self) -> Int {
        let mut mag = [0; L];
        for (i, m) in mag.iter_mut().enumerate() {
            let next = self.mag.get(i + 1).copied().unwrap_or(0);
            *m = self.mag[i] >> 1 | next << 63;
        }
        Int::new(false, mag)
    }

    /// Quotient and remainder of non-negative values, bit by bit (set-up
    /// only).
    fn divrem(&self, d: &Int) -> (Int, Int) {
        assert!(!d.is_zero() && !self.neg && !d.neg);
        let (mut q, mut rem) = (Int::ZERO, Int::ZERO);
        for i in (0..self.bits() as usize).rev() {
            rem = rem.add(&rem);
            rem.mag[0] |= self.mag[i / 64] >> (i % 64) & 1;
            if rem.cmp_mag(d) != Ordering::Less {
                rem = rem.sub(d);
                q.mag[i / 64] |= 1 << (i % 64);
            }
        }
        (q, rem)
    }
}
