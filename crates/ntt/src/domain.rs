//! Radix-2 evaluation domains over NTT-friendly prime fields.
//!
//! A [`Radix2Domain`] bundles the primitive root of unity, its inverse, the
//! `1/N` scaling factor and the coset generator used by the Groth16 POLY
//! stage (the `H(x) = (A·B − C)/Z` division happens on a multiplicative
//! coset so `Z` never vanishes).

use gzkp_ff::PrimeField;
use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Vectors below this size are processed single-threaded: their work
/// would not cover the fork/join overhead.
pub(crate) const PAR_MIN_LEN: usize = 1 << 12;

/// Units per fan-out item when `len` units (elements, blocks, tiles) of a
/// size-`n` vector are handed out: the fan-out's shares, or everything in
/// one item (serial, in place) below [`PAR_MIN_LEN`].
pub(crate) fn par_share(len: usize, n: usize) -> usize {
    if n < PAR_MIN_LEN {
        return len.max(1);
    }
    rayon::share_len(len)
}

/// The process-wide twiddle store (§5.3: twiddles are preprocessed once).
/// Keyed by content — the field type and `log_n` fix ω, hence the whole
/// table — so every domain of one size shares one table.
type TwiddleStore = BTreeMap<(TypeId, u32), Arc<dyn Any + Send + Sync>>;
static TWIDDLES: Mutex<TwiddleStore> = Mutex::new(BTreeMap::new());

/// The stored twiddle table of the size-`2^log_n` domain over `F`, if a
/// transform has built it. Never builds one.
pub fn stored_twiddles<F: PrimeField>(log_n: u32) -> Option<Arc<Vec<F>>> {
    let store = TWIDDLES.lock().expect("no panic while the store is held");
    let table = store.get(&(TypeId::of::<F>(), log_n))?.clone();
    Some(table.downcast().expect("the key names the element type"))
}

/// A power-of-two evaluation domain in a prime field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Radix2Domain<F: PrimeField> {
    /// Domain size `N = 2^log_n`.
    pub size: usize,
    /// `log2(N)`.
    pub log_n: u32,
    /// Primitive `N`-th root of unity ω.
    pub omega: F,
    /// `ω⁻¹`.
    pub omega_inv: F,
    /// `N⁻¹` (inverse-NTT scaling).
    pub size_inv: F,
    /// Multiplicative-coset generator `g` (the field's generator).
    pub coset_gen: F,
    /// `g⁻¹`.
    pub coset_gen_inv: F,
}

impl<F: PrimeField> Radix2Domain<F> {
    /// Creates a domain of the given size.
    ///
    /// Returns `None` if `size` is not a power of two or exceeds the field's
    /// two-adicity.
    pub fn new(size: usize) -> Option<Self> {
        if !size.is_power_of_two() || size == 0 {
            return None;
        }
        let log_n = size.trailing_zeros();
        let omega = F::root_of_unity(size as u64)?;
        let coset_gen = F::multiplicative_generator();
        Some(Self {
            size,
            log_n,
            omega,
            omega_inv: omega.inverse().expect("root nonzero"),
            size_inv: F::from_u64(size as u64).inverse().expect("N < p"),
            coset_gen,
            coset_gen_inv: coset_gen.inverse().expect("generator nonzero"),
        })
    }

    /// Smallest domain that can hold `n` values.
    pub fn at_least(n: usize) -> Option<Self> {
        Self::new(n.next_power_of_two())
    }

    /// The half-size twiddle table `[ω⁰, ω¹, …, ω^{N/2−1}]`, built on first
    /// use and then read from the process-wide store.
    ///
    /// Iteration `i` of the Cooley–Tukey loop uses `tw[j · N / 2^{i+1}]`,
    /// so one table serves every iteration — the layout GZKP's
    /// preprocessing stores once, without redundancy (§5.3). It serves the
    /// inverse direction too: `Σ x_i ω^{−ik} = Σ x_{−i mod N} ω^{ik}`, so an
    /// inverse transform is a forward one over the input with `x_i ↔ x_{N−i}`.
    pub fn twiddles(&self) -> Arc<Vec<F>> {
        if let Some(table) = stored_twiddles(self.log_n) {
            return table;
        }
        // Built outside the lock so a first use never stalls transforms of
        // other sizes; of racing builders the first insert is kept.
        let built = Arc::new(Self::powers(self.omega, self.size / 2));
        let mut store = TWIDDLES.lock().expect("no panic while the store is held");
        let kept = store
            .entry((TypeId::of::<F>(), self.log_n))
            .or_insert(built)
            .clone();
        kept.downcast().expect("the key names the element type")
    }

    /// `[base⁰, …, base^{n−1}]`.
    pub fn powers(base: F, n: usize) -> Vec<F> {
        let mut out = Vec::with_capacity(n);
        let mut acc = F::one();
        for _ in 0..n {
            out.push(acc);
            acc *= base;
        }
        out
    }

    /// Evaluates the vanishing polynomial `Z(x) = x^N − 1` at `x`.
    pub fn eval_vanishing(&self, x: F) -> F {
        x.pow(&[self.size as u64]) - F::one()
    }

    /// Scales a vector by successive coset-generator powers in place
    /// (entering the coset before a forward NTT).
    pub fn coset_scale(&self, data: &mut [F]) {
        scale_by_powers(data, self.coset_gen);
    }

    /// Undoes [`Self::coset_scale`] (after an inverse NTT on the coset).
    pub fn coset_unscale(&self, data: &mut [F]) {
        scale_by_powers(data, self.coset_gen_inv);
    }
}

/// `data[i] *= g^i`. The running product is a dependent multiply chain, so
/// large vectors are cut into shares that each start from `g^{first index}`
/// (one `pow` per share) — the same field elements, share-parallel.
fn scale_by_powers<F: PrimeField>(data: &mut [F], g: F) {
    let share = par_share(data.len(), data.len());
    rayon::for_each(data.chunks_mut(share).enumerate(), |(c, vals)| {
        let mut p = g.pow(&[(c * share) as u64]);
        for v in vals {
            *v *= p;
            p *= g;
        }
    });
}

/// Reorders the input of an inverse transform so that the forward twiddle
/// table computes it: `x_i ↔ x_{N−i}` for `0 < i < N`.
pub(crate) fn reverse_for_inverse<T>(data: &mut [T]) {
    data[1..].reverse();
}

/// In-place bit-reversal permutation (the standard pre-pass of the
/// iterative Cooley–Tukey schedule in Figure 2 of the paper).
pub(crate) fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let log_n = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits().wrapping_shr(64 - log_n) as usize;
        if j > i {
            data.swap(i, j);
        }
    }
}

/// Naive O(N²) DFT used as the ground-truth oracle in tests.
#[cfg(test)]
pub(crate) fn naive_dft<F: PrimeField>(coeffs: &[F], omega: F) -> Vec<F> {
    let n = coeffs.len();
    (0..n)
        .map(|k| {
            let wk = omega.pow(&[k as u64]);
            let mut acc = F::zero();
            let mut x = F::one();
            for c in coeffs {
                acc += *c * x;
                x *= wk;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gzkp_ff::fields::Fr254;
    use gzkp_ff::Field;

    #[test]
    fn domain_creation() {
        let d = Radix2Domain::<Fr254>::new(1024).unwrap();
        assert_eq!(d.log_n, 10);
        assert_eq!(d.omega.pow(&[1024]), Fr254::one());
        assert_ne!(d.omega.pow(&[512]), Fr254::one());
        assert!(Radix2Domain::<Fr254>::new(1000).is_none());
        assert!(Radix2Domain::<Fr254>::new(1 << 40).is_none());
    }

    #[test]
    fn at_least_rounds_up() {
        let d = Radix2Domain::<Fr254>::at_least(1000).unwrap();
        assert_eq!(d.size, 1024);
    }

    #[test]
    fn twiddle_table_consistent() {
        let d = Radix2Domain::<Fr254>::new(64).unwrap();
        let tw = d.twiddles();
        assert_eq!(tw.len(), 32);
        assert_eq!(tw[0], Fr254::one());
        for j in 1..32 {
            assert_eq!(tw[j], tw[j - 1] * d.omega);
        }
    }

    #[test]
    fn bit_reverse_involution() {
        let mut v: Vec<u32> = (0..64).collect();
        let orig = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn coset_scale_roundtrip() {
        let d = Radix2Domain::<Fr254>::new(16).unwrap();
        let mut v: Vec<Fr254> = (1..17).map(Fr254::from_u64).collect();
        let orig = v.clone();
        d.coset_scale(&mut v);
        assert_ne!(v, orig);
        d.coset_unscale(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn coset_scale_in_shares_matches_the_serial_chain() {
        // Above PAR_MIN_LEN each share starts from its own `g^k`.
        let d = Radix2Domain::<Fr254>::new(1 << 13).unwrap();
        let mut v = vec![Fr254::one(); d.size];
        d.coset_scale(&mut v);
        assert_eq!(v, Radix2Domain::powers(d.coset_gen, d.size));
        d.coset_unscale(&mut v);
        assert!(v.iter().all(|x| *x == Fr254::one()));
    }

    #[test]
    fn vanishing_poly_zero_on_domain() {
        let d = Radix2Domain::<Fr254>::new(8).unwrap();
        for k in 0..8u64 {
            assert!(d.eval_vanishing(d.omega.pow(&[k])).is_zero());
        }
        assert!(!d.eval_vanishing(d.coset_gen).is_zero());
    }
}
