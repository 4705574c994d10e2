//! Deterministic Fiat–Shamir transcript.
//!
//! The workspace has no external hash dependency (the build environment
//! is offline), so challenges are squeezed from a small deterministic
//! 64-bit mixing sponge over the absorbed bytes — the same splitmix-style
//! permutation the scalar engines use for test data. This is *not* a
//! cryptographic hash and the simulated system makes no soundness claim
//! from it; what matters here is the protocol shape (absorb commitments →
//! squeeze challenge, in a fixed order) and bit-for-bit determinism
//! across platforms, thread counts, and hosts, which the sponge provides
//! by construction (little-endian byte chunks, no floats, no
//! pointer-dependent state).

use gzkp_curves::serialize::{compress, CoordField};
use gzkp_curves::{Affine, CurveParams};
use gzkp_ff::PrimeField;

/// splitmix64's finalizer: the sponge's mixing permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A running Fiat–Shamir state. Every absorb folds the label and payload
/// into four 64-bit lanes; every challenge squeezes two lanes (under a
/// fresh label) into a 126-bit field element.
#[derive(Debug, Clone)]
pub(crate) struct Transcript {
    state: [u64; 4],
    counter: u64,
}

impl Transcript {
    /// Fresh transcript bound to a protocol label.
    pub fn new(label: &str) -> Self {
        let mut t = Self {
            state: [
                0x6a09_e667_f3bc_c908,
                0xbb67_ae85_84ca_a73b,
                0x3c6e_f372_fe94_f82b,
                0xa54f_f53a_5f1d_36f1,
            ],
            counter: 0,
        };
        t.absorb_bytes("protocol", label.as_bytes());
        t
    }

    /// Folds `bytes` (with its domain-separating `label`) into the state.
    pub(crate) fn absorb_bytes(&mut self, label: &str, bytes: &[u8]) {
        for (i, chunk) in label
            .as_bytes()
            .chunks(8)
            .chain(bytes.chunks(8))
            .enumerate()
        {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let lane = i % 4;
            self.state[lane] =
                mix(self.state[lane] ^ u64::from_le_bytes(word).wrapping_add(self.counter));
            self.counter = self.counter.wrapping_add(1);
        }
        // Cross-lane diffusion so absorb order matters across lanes too.
        let folded = mix(self.state[0] ^ self.state[1] ^ self.state[2] ^ self.state[3]);
        self.state[0] ^= folded;
    }

    /// Absorbs a scalar field element via its canonical limbs.
    pub(crate) fn absorb_scalar<F: PrimeField>(&mut self, label: &str, value: &F) {
        let mut bytes = Vec::with_capacity(F::NUM_LIMBS * 8);
        for limb in value.to_limbs() {
            bytes.extend(limb.to_le_bytes());
        }
        self.absorb_bytes(label, &bytes);
    }

    /// Absorbs a curve point via its compressed encoding.
    pub(crate) fn absorb_point<C: CurveParams>(&mut self, label: &str, point: &Affine<C>)
    where
        C::Base: CoordField,
    {
        self.absorb_bytes(label, &compress(point));
    }

    /// Squeezes a challenge: a uniform-ish 126-bit field element, never
    /// zero (zero challenges would degenerate the permutation argument).
    pub(crate) fn challenge<F: PrimeField>(&mut self, label: &str) -> F {
        self.absorb_bytes(label, b"");
        let lo = mix(self.state[0].wrapping_add(self.counter));
        let hi = mix(self.state[1] ^ lo);
        self.counter = self.counter.wrapping_add(1);
        self.state[2] ^= lo;
        self.state[3] ^= hi;
        // 126 bits fits every workspace scalar field without reduction
        // bias concerns mattering for the simulation.
        let c = F::from_limbs(&[lo, hi >> 2, 0, 0][..F::NUM_LIMBS.min(4)]).unwrap_or_else(F::one);
        if c.is_zero() {
            F::one()
        } else {
            c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Transcript;
    use gzkp_curves::bn254::Fr;

    #[test]
    fn deterministic_and_order_sensitive() {
        let run = |order: &[&[u8]]| {
            let mut t = Transcript::new("test");
            for (i, bytes) in order.iter().enumerate() {
                t.absorb_bytes(if i == 0 { "x" } else { "y" }, bytes);
            }
            t.challenge::<Fr>("c")
        };
        assert_eq!(run(&[b"aa", b"bb"]), run(&[b"aa", b"bb"]));
        assert_ne!(run(&[b"aa", b"bb"]), run(&[b"bb", b"aa"]));
    }

    #[test]
    fn successive_challenges_differ() {
        let mut t = Transcript::new("test");
        t.absorb_bytes("seed", b"payload");
        let a = t.challenge::<Fr>("c");
        let b = t.challenge::<Fr>("c");
        assert_ne!(a, b);
    }
}
