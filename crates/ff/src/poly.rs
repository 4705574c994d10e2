//! Dense univariate polynomials over a prime field.
//!
//! The Groth16 QAP machinery works in evaluation form for speed, but the
//! protocol's correctness arguments are statements about polynomials;
//! this module provides the coefficient-form arithmetic used by tests,
//! examples and the setup's consistency checks: addition, multiplication,
//! evaluation, exact division, and division by the domain's vanishing
//! polynomial `x^N − 1`.

use crate::traits::PrimeField;
use core::fmt;
use core::ops::{Add, Mul, Neg, Sub};

/// A dense polynomial, little-endian coefficients (index = degree).
///
/// The representation is kept normalized: no trailing zero coefficients
/// (the zero polynomial is an empty vector).
///
/// # Examples
///
/// ```
/// use gzkp_ff::poly::DensePolynomial;
/// use gzkp_ff::fields::Fr254;
/// use gzkp_ff::Field;
///
/// // (x + 1)(x - 1) = x² - 1
/// let a = DensePolynomial::new(vec![Fr254::one(), Fr254::one()]);
/// let b = DensePolynomial::new(vec![-Fr254::one(), Fr254::one()]);
/// let p = &a * &b;
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.evaluate(Fr254::from_u64(3)), Fr254::from_u64(8));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct DensePolynomial<F: PrimeField> {
    coeffs: Vec<F>,
}

impl<F: PrimeField> fmt::Debug for DensePolynomial<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Poly(deg={:?})", self.degree())
    }
}

impl<F: PrimeField> DensePolynomial<F> {
    /// Builds a polynomial from coefficients (normalizing trailing zeros).
    pub fn new(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Self { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Self::new(vec![c])
    }

    /// The vanishing polynomial `x^n − 1` of a radix-2 domain.
    pub fn vanishing(n: usize) -> Self {
        let mut coeffs = vec![F::zero(); n + 1];
        coeffs[0] = -F::one();
        coeffs[n] = F::one();
        Self { coeffs }
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Borrow of the coefficient slice (little-endian).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Horner evaluation at `x`.
    pub fn evaluate(&self, x: F) -> F {
        let mut acc = F::zero();
        for c in self.coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    /// Schoolbook multiplication (tests and setup-scale inputs; use the
    /// NTT engines for anything large).
    pub fn mul_naive(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![F::zero(); self.coeffs.len() + other.coeffs.len() - 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, b) in other.coeffs.iter().enumerate() {
                out[i + j] += *a * *b;
            }
        }
        Self::new(out)
    }

    /// Polynomial long division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero polynomial");
        if self.coeffs.len() < divisor.coeffs.len() {
            return (Self::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let d_lead_inv = divisor
            .coeffs
            .last()
            .unwrap()
            .inverse()
            .expect("nonzero leading coefficient");
        let d_deg = divisor.coeffs.len() - 1;
        let mut quot = vec![F::zero(); rem.len() - d_deg];
        for i in (d_deg..rem.len()).rev() {
            let q = rem[i] * d_lead_inv;
            if q.is_zero() {
                continue;
            }
            quot[i - d_deg] = q;
            for (j, dc) in divisor.coeffs.iter().enumerate() {
                let idx = i - d_deg + j;
                rem[idx] -= q * *dc;
            }
        }
        (Self::new(quot), Self::new(rem))
    }

    /// Lagrange interpolation through `(x_i, y_i)` pairs with distinct
    /// `x_i`. O(n²); test/setup scale only.
    ///
    /// # Panics
    ///
    /// Panics if two `x` values coincide.
    pub fn interpolate(points: &[(F, F)]) -> Self {
        let mut acc = Self::zero();
        for (i, (xi, yi)) in points.iter().enumerate() {
            // basis_i(x) = Π_{j≠i} (x − x_j)/(x_i − x_j)
            let mut basis = Self::constant(F::one());
            let mut denom = F::one();
            for (j, (xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                basis = basis.mul_naive(&Self::new(vec![-*xj, F::one()]));
                denom *= *xi - *xj;
            }
            let scale = *yi * denom.inverse().expect("distinct interpolation points");
            let scaled = Self::new(basis.coeffs.iter().map(|c| *c * scale).collect());
            acc = &acc + &scaled;
        }
        acc
    }
}

impl<F: PrimeField> Add for &DensePolynomial<F> {
    type Output = DensePolynomial<F>;
    fn add(self, other: Self) -> DensePolynomial<F> {
        let n = self.coeffs.len().max(other.coeffs.len());
        let coeffs = (0..n)
            .map(|i| {
                self.coeffs.get(i).copied().unwrap_or_else(F::zero)
                    + other.coeffs.get(i).copied().unwrap_or_else(F::zero)
            })
            .collect();
        DensePolynomial::new(coeffs)
    }
}

impl<F: PrimeField> Sub for &DensePolynomial<F> {
    type Output = DensePolynomial<F>;
    fn sub(self, other: Self) -> DensePolynomial<F> {
        let n = self.coeffs.len().max(other.coeffs.len());
        let coeffs = (0..n)
            .map(|i| {
                self.coeffs.get(i).copied().unwrap_or_else(F::zero)
                    - other.coeffs.get(i).copied().unwrap_or_else(F::zero)
            })
            .collect();
        DensePolynomial::new(coeffs)
    }
}

impl<F: PrimeField> Mul for &DensePolynomial<F> {
    type Output = DensePolynomial<F>;
    fn mul(self, other: Self) -> DensePolynomial<F> {
        self.mul_naive(other)
    }
}

impl<F: PrimeField> Neg for &DensePolynomial<F> {
    type Output = DensePolynomial<F>;
    fn neg(self) -> DensePolynomial<F> {
        DensePolynomial::new(self.coeffs.iter().map(|c| -*c).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::Fr254;
    use crate::traits::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type P = DensePolynomial<Fr254>;

    fn random_poly(deg: usize, seed: u64) -> P {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coeffs: Vec<Fr254> = (0..=deg).map(|_| Fr254::random(&mut rng)).collect();
        // ensure exact degree
        if coeffs[deg].is_zero() {
            coeffs[deg] = Fr254::one();
        }
        P::new(coeffs)
    }

    #[test]
    fn normalization() {
        let p = P::new(vec![Fr254::one(), Fr254::zero(), Fr254::zero()]);
        assert_eq!(p.degree(), Some(0));
        assert!(P::new(vec![Fr254::zero()]).is_zero());
        assert_eq!(P::zero().degree(), None);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = random_poly(7, 1);
        let b = random_poly(4, 2);
        let s = &a + &b;
        assert_eq!(&s - &b, a);
    }

    #[test]
    fn mul_degree_and_eval() {
        let a = random_poly(5, 3);
        let b = random_poly(3, 4);
        let p = &a * &b;
        assert_eq!(p.degree(), Some(8));
        let x = Fr254::from_u64(11);
        assert_eq!(p.evaluate(x), a.evaluate(x) * b.evaluate(x));
    }

    #[test]
    fn div_rem_identity() {
        let a = random_poly(9, 5);
        let d = random_poly(4, 6);
        let (q, r) = a.div_rem(&d);
        assert!(r.degree() < d.degree());
        let back = &(&q * &d) + &r;
        assert_eq!(back, a);
    }

    #[test]
    fn vanishing_division_exact() {
        let n = 8;
        let q = random_poly(5, 7);
        let prod = &q * &P::vanishing(n);
        let (q2, r) = prod.div_rem(&P::vanishing(n));
        assert_eq!(q2, q);
        assert!(r.is_zero());
    }

    #[test]
    fn vanishing_division_detects_nonexact() {
        // The Groth16 soundness condition: `A·B − C` divides by `Z` iff
        // the witness satisfies every constraint.
        let n = 8;
        let q = random_poly(5, 8);
        let mut prod = &q * &P::vanishing(n);
        // Corrupt one low coefficient.
        let mut coeffs = prod.coeffs().to_vec();
        coeffs[2] += Fr254::one();
        prod = P::new(coeffs);
        assert!(!prod.div_rem(&P::vanishing(n)).1.is_zero());
    }

    #[test]
    fn interpolation_roundtrip() {
        let p = random_poly(6, 10);
        let points: Vec<(Fr254, Fr254)> = (0..7)
            .map(|i| {
                let x = Fr254::from_u64(100 + i);
                (x, p.evaluate(x))
            })
            .collect();
        assert_eq!(P::interpolate(&points), p);
    }

    #[test]
    fn interpolation_constant() {
        let pts = [(Fr254::from_u64(1), Fr254::from_u64(9))];
        let p = P::interpolate(&pts);
        assert_eq!(p, P::constant(Fr254::from_u64(9)));
    }
}
