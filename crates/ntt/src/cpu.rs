//! The CPU reference NTT: sequential, iterative radix-2 Cooley–Tukey over
//! one precomputed table of `N/2` roots. Every other engine is checked
//! against it, and the Groth16 CPU POLY oracle runs on it. The paper's
//! Best-CPU columns are not measured here: they come from
//! `gzkp_bench::cpu_ntt_ms`'s analytic model.

use crate::domain::{bit_reverse_permute, reverse_for_inverse, Radix2Domain};
use gzkp_ff::PrimeField;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Coefficients → evaluations.
    Forward,
    /// Evaluations → coefficients (includes the `1/N` scaling).
    Inverse,
}

/// The CPU reference NTT engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuNtt;

impl CpuNtt {
    /// The reference engine.
    pub fn reference() -> Self {
        Self
    }

    /// In-place NTT over the domain.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != domain.size`.
    pub fn transform<F: PrimeField>(
        &self,
        domain: &Radix2Domain<F>,
        data: &mut [F],
        dir: Direction,
    ) {
        assert_eq!(data.len(), domain.size, "data length must match domain");
        if data.len() == 1 {
            return;
        }
        if dir == Direction::Inverse {
            reverse_for_inverse(data);
        }
        bit_reverse_permute(data);
        iterations(data, &domain.twiddles());
        if dir == Direction::Inverse {
            let s = domain.size_inv;
            data.iter_mut().for_each(|v| *v *= s);
        }
    }

    /// Forward NTT on a multiplicative coset.
    pub fn coset_forward<F: PrimeField>(&self, domain: &Radix2Domain<F>, data: &mut [F]) {
        domain.coset_scale(data);
        self.transform(domain, data, Direction::Forward);
    }

    /// Inverse NTT from a multiplicative coset.
    pub fn coset_inverse<F: PrimeField>(&self, domain: &Radix2Domain<F>, data: &mut [F]) {
        self.transform(domain, data, Direction::Inverse);
        domain.coset_unscale(data);
    }
}

/// The `log N` butterfly levels over bit-reversed `data`, by the forward
/// table `tw`.
fn iterations<F: PrimeField>(data: &mut [F], tw: &[F]) {
    let n = data.len();
    let log_n = n.trailing_zeros();
    for i in 0..log_n {
        let half = 1usize << i; // butterfly distance
        let step = n / (2 * half); // twiddle index stride
        for block in data.chunks_mut(2 * half) {
            for j in 0..half {
                let w = tw[j * step];
                let t = block[j + half] * w;
                block[j + half] = block[j] - t;
                block[j] += t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::naive_dft;
    use gzkp_ff::fields::{Fr254, Fr381, Fr753};
    use gzkp_ff::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vec<F: PrimeField>(n: usize, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| F::random(&mut rng)).collect()
    }

    #[test]
    fn matches_naive_dft() {
        let d = Radix2Domain::<Fr254>::new(32).unwrap();
        let coeffs = random_vec::<Fr254>(32, 1);
        let expect = naive_dft(&coeffs, d.omega);
        let mut got = coeffs.clone();
        CpuNtt::reference().transform(&d, &mut got, Direction::Forward);
        assert_eq!(got, expect);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for size in [2usize, 8, 64, 1024] {
            let d = Radix2Domain::<Fr381>::new(size).unwrap();
            let coeffs = random_vec::<Fr381>(size, size as u64);
            let mut v = coeffs.clone();
            let ntt = CpuNtt::reference();
            ntt.transform(&d, &mut v, Direction::Forward);
            ntt.transform(&d, &mut v, Direction::Inverse);
            assert_eq!(v, coeffs);
        }
    }

    #[test]
    fn roundtrip_753_bit_field() {
        let d = Radix2Domain::<Fr753>::new(128).unwrap();
        let coeffs = random_vec::<Fr753>(128, 9);
        let mut v = coeffs.clone();
        let ntt = CpuNtt::reference();
        ntt.transform(&d, &mut v, Direction::Forward);
        ntt.transform(&d, &mut v, Direction::Inverse);
        assert_eq!(v, coeffs);
    }

    #[test]
    fn coset_roundtrip() {
        let d = Radix2Domain::<Fr254>::new(64).unwrap();
        let coeffs = random_vec::<Fr254>(64, 4);
        let mut v = coeffs.clone();
        let ntt = CpuNtt::reference();
        ntt.coset_forward(&d, &mut v);
        ntt.coset_inverse(&d, &mut v);
        assert_eq!(v, coeffs);
    }

    #[test]
    fn coset_evaluations_avoid_vanishing_zeros() {
        // Z(x) = x^N - 1 vanishes on the domain but not on the coset, so
        // coset evaluations of Z must all be nonzero (the property Groth16's
        // division step relies on).
        let d = Radix2Domain::<Fr254>::new(16).unwrap();
        // Z has coefficients [-1, 0, ..., 0, 1] of degree N => use 2N domain.
        let d2 = Radix2Domain::<Fr254>::new(32).unwrap();
        let mut z = vec![Fr254::zero(); 32];
        z[0] = -Fr254::one();
        z[16] = Fr254::one();
        CpuNtt::reference().coset_forward(&d2, &mut z);
        assert!(z.iter().all(|v| !v.is_zero()));
        let _ = d;
    }

    #[test]
    fn convolution_theorem() {
        // NTT(a) ∘ NTT(b) == NTT(a * b) for polynomial product a*b.
        let d = Radix2Domain::<Fr254>::new(16).unwrap();
        let a = random_vec::<Fr254>(8, 5);
        let b = random_vec::<Fr254>(8, 6);
        // Naive product (degree < 15 fits in 16).
        let mut prod = vec![Fr254::zero(); 16];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                prod[i + j] += ai * bj;
            }
        }
        let ntt = CpuNtt::reference();
        let mut ea = a.clone();
        ea.resize(16, Fr254::zero());
        let mut eb = b.clone();
        eb.resize(16, Fr254::zero());
        ntt.transform(&d, &mut ea, Direction::Forward);
        ntt.transform(&d, &mut eb, Direction::Forward);
        let mut ep: Vec<Fr254> = ea.iter().zip(&eb).map(|(x, y)| *x * *y).collect();
        ntt.transform(&d, &mut ep, Direction::Inverse);
        assert_eq!(ep, prod);
    }
}
