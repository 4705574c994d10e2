//! CPU NTT engines — the paper's "Best-CPU" baselines and the workspace's
//! functional reference.
//!
//! Two modes model the two CPU systems the paper compares against:
//!
//! * **Precomputed twiddles** (bellman-like): one table of `N/2` roots,
//!   classic iterative Cooley–Tukey. Scales as `N log N`.
//! * **Recomputed twiddles** (libsnark-like): the per-butterfly `ω^j`
//!   recomputation the paper identifies as libsnark's redundant work
//!   ("GZKP avoids this cost by preprocessing … libsnark fails to scale
//!   linearly", §5.3). Each butterfly pays an extra multiplication chain.

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

/// Twiddle-factor strategy of the CPU engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwiddleMode {
    /// Single precomputed table of `N/2` roots (bellman-like; also the
    /// strategy GZKP's GPU preprocessing uses).
    Precomputed,
    /// Recompute `ω^j` by a running product per (iteration, sub-block) —
    /// the libsnark behaviour whose cost the paper calls out.
    Recompute,
}

/// The CPU NTT engine.
#[derive(Debug, Clone, Copy)]
pub struct CpuNtt {
    /// Twiddle strategy.
    pub mode: TwiddleMode,
    /// Use all cores (the paper's CPU baselines are parallel).
    pub parallel: bool,
}

impl Default for CpuNtt {
    fn default() -> Self {
        Self {
            mode: TwiddleMode::Precomputed,
            parallel: false,
        }
    }
}

impl CpuNtt {
    /// Reference sequential engine with precomputed twiddles.
    pub fn reference() -> Self {
        Self::default()
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
        let n = data.len();
        if n == 1 {
            return;
        }
        if dir == Direction::Inverse && self.mode == TwiddleMode::Precomputed {
            reverse_for_inverse(data);
        }
        bit_reverse_permute(data);
        match self.mode {
            TwiddleMode::Precomputed => self.iterations_precomputed(data, &domain.twiddles()),
            TwiddleMode::Recompute => {
                let omega = match dir {
                    Direction::Forward => domain.omega,
                    Direction::Inverse => domain.omega_inv,
                };
                self.iterations_recompute(data, omega);
            }
        }
        if dir == Direction::Inverse {
            let s = domain.size_inv;
            rayon::for_each(data.chunks_mut(self.share(n, 1)), |vals| {
                vals.iter_mut().for_each(|v| *v *= s)
            });
        }
    }

    /// Elements per fan-out item when a size-`n` vector is cut at multiples
    /// of `unit`: shares of units across cores, or the whole vector as one
    /// item (serial, in place) for the sequential engine and small `n`.
    fn share(&self, n: usize, unit: usize) -> usize {
        if self.parallel && n >= 1 << 14 {
            rayon::share_len(n / unit) * unit
        } else {
            n
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

    fn iterations_precomputed<F: PrimeField>(&self, data: &mut [F], tw: &[F]) {
        let n = data.len();
        let log_n = n.trailing_zeros();
        for i in 0..log_n {
            let half = 1usize << i; // butterfly distance
            let step = n / (2 * half); // twiddle index stride
            let chunk = 2 * half;
            let work = |block: &mut [F]| {
                for j in 0..half {
                    let w = tw[j * step];
                    let t = block[j + half] * w;
                    block[j + half] = block[j] - t;
                    block[j] += t;
                }
            };
            rayon::for_each(data.chunks_mut(self.share(n, chunk)), |blocks| {
                blocks.chunks_mut(chunk).for_each(work)
            });
        }
    }

    fn iterations_recompute<F: PrimeField>(&self, data: &mut [F], omega: F) {
        let n = data.len();
        let log_n = n.trailing_zeros();
        for i in 0..log_n {
            let half = 1usize << i;
            // ω for this iteration: primitive 2^{i+1}-th root.
            let w_len = omega.pow(&[(n / (2 * half)) as u64]);
            let chunk = 2 * half;
            let work = |block: &mut [F]| {
                // libsnark-style: running product recomputed per sub-block.
                let mut w = F::one();
                for j in 0..half {
                    let t = block[j + half] * w;
                    block[j + half] = block[j] - t;
                    block[j] += t;
                    w *= w_len;
                }
            };
            rayon::for_each(data.chunks_mut(self.share(n, chunk)), |blocks| {
                blocks.chunks_mut(chunk).for_each(work)
            });
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
    fn recompute_mode_matches_precomputed() {
        // The inverse too: `Precomputed` reads it off the stored forward
        // table, `Recompute` multiplies by `ω⁻¹` itself.
        let d = Radix2Domain::<Fr254>::new(256).unwrap();
        let coeffs = random_vec::<Fr254>(256, 2);
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut a = coeffs.clone();
            let mut b = coeffs.clone();
            CpuNtt {
                mode: TwiddleMode::Precomputed,
                parallel: false,
            }
            .transform(&d, &mut a, dir);
            CpuNtt {
                mode: TwiddleMode::Recompute,
                parallel: false,
            }
            .transform(&d, &mut b, dir);
            assert_eq!(a, b, "{dir:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = Radix2Domain::<Fr254>::new(1 << 14).unwrap();
        let coeffs = random_vec::<Fr254>(1 << 14, 3);
        let mut a = coeffs.clone();
        let mut b = coeffs;
        CpuNtt {
            mode: TwiddleMode::Precomputed,
            parallel: false,
        }
        .transform(&d, &mut a, Direction::Forward);
        CpuNtt {
            mode: TwiddleMode::Precomputed,
            parallel: true,
        }
        .transform(&d, &mut b, Direction::Forward);
        assert_eq!(a, b);
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
