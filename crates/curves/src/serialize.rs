//! Compressed point serialization: `x`-coordinate plus a sign/infinity
//! flag byte, with square-root decompression — the wire format proving
//! keys and proofs ship in (a Groth16 proof compresses to under 1 KB on
//! every supported curve, the succinctness property of §2.1).

use crate::group::{Affine, CurveParams};
use gzkp_ff::ext::{Fp2, Fp2Config};
use gzkp_ff::{Field, PrimeField};

/// A coordinate field that supports the compression round-trip: raw byte
/// encoding plus square roots with a canonical sign bit.
pub trait CoordField: Field {
    /// Fixed encoded size in bytes.
    fn encoded_len() -> usize;
    /// Canonical little-endian byte encoding.
    fn to_coord_bytes(&self) -> Vec<u8>;
    /// Inverse of [`Self::to_coord_bytes`]; `None` on malformed input.
    fn from_coord_bytes(bytes: &[u8]) -> Option<Self>;
    /// A square root, if one exists.
    fn coord_sqrt(&self) -> Option<Self>;
    /// Canonical "sign" used to disambiguate the two roots.
    fn sign_bit(&self) -> bool;
}

impl<P: gzkp_ff::FpParams<N>, const N: usize> CoordField for gzkp_ff::Fp<P, N> {
    fn encoded_len() -> usize {
        N * 8
    }
    fn to_coord_bytes(&self) -> Vec<u8> {
        self.to_limbs()
            .iter()
            .flat_map(|l| l.to_le_bytes())
            .collect()
    }
    fn from_coord_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != N * 8 {
            return None;
        }
        let limbs: Vec<u64> = bytes
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        Self::from_limbs(&limbs)
    }
    fn coord_sqrt(&self) -> Option<Self> {
        self.sqrt()
    }
    fn sign_bit(&self) -> bool {
        self.is_odd_repr()
    }
}

impl<C: Fp2Config> CoordField for Fp2<C>
where
    C::Fp: PrimeField,
{
    fn encoded_len() -> usize {
        2 * C::Fp::NUM_LIMBS * 8
    }
    fn to_coord_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self
            .c0
            .to_limbs()
            .iter()
            .flat_map(|l| l.to_le_bytes())
            .collect();
        out.extend(self.c1.to_limbs().iter().flat_map(|l| l.to_le_bytes()));
        out
    }
    fn from_coord_bytes(bytes: &[u8]) -> Option<Self> {
        let half = C::Fp::NUM_LIMBS * 8;
        if bytes.len() != 2 * half {
            return None;
        }
        let parse = |b: &[u8]| {
            let limbs: Vec<u64> = b
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            C::Fp::from_limbs(&limbs)
        };
        Some(Self::new(parse(&bytes[..half])?, parse(&bytes[half..])?))
    }
    fn coord_sqrt(&self) -> Option<Self> {
        self.sqrt()
    }
    fn sign_bit(&self) -> bool {
        // Lexicographic on (c1, c0) parities: c1's parity unless c1 = 0.
        if self.c1.is_zero() {
            self.c0.is_odd_repr()
        } else {
            self.c1.is_odd_repr()
        }
    }
}

/// Flag byte values of the compressed encoding.
const FLAG_INFINITY: u8 = 0b01;
const FLAG_Y_SIGN: u8 = 0b10;

/// Compresses an affine point to `1 + encoded_len` bytes.
pub fn compress<C: CurveParams>(p: &Affine<C>) -> Vec<u8>
where
    C::Base: CoordField,
{
    let mut out = Vec::with_capacity(1 + C::Base::encoded_len());
    if p.infinity {
        out.push(FLAG_INFINITY);
        out.extend(std::iter::repeat_n(0u8, C::Base::encoded_len()));
    } else {
        out.push(if p.y.sign_bit() { FLAG_Y_SIGN } else { 0 });
        out.extend(p.x.to_coord_bytes());
    }
    out
}

/// Decompresses a point, validating the curve equation.
///
/// Returns `None` on malformed bytes, non-residue `x³ + ax + b`, or bad
/// flags — never panics on attacker-controlled input.
pub fn decompress<C: CurveParams>(bytes: &[u8]) -> Option<Affine<C>>
where
    C::Base: CoordField,
{
    if bytes.len() != 1 + C::Base::encoded_len() {
        return None;
    }
    let flags = bytes[0];
    if flags & !(FLAG_INFINITY | FLAG_Y_SIGN) != 0 {
        return None;
    }
    if flags & FLAG_INFINITY != 0 {
        if bytes[1..].iter().any(|&b| b != 0) || flags & FLAG_Y_SIGN != 0 {
            return None;
        }
        return Some(Affine::identity());
    }
    let x = C::Base::from_coord_bytes(&bytes[1..])?;
    let rhs = x.square() * x + C::coeff_a() * x + C::coeff_b();
    let mut y = rhs.coord_sqrt()?;
    if y.sign_bit() != (flags & FLAG_Y_SIGN != 0) {
        y = -y;
    }
    // Re-check sign (handles y = 0 and cosets where both roots share parity).
    if y.sign_bit() != (flags & FLAG_Y_SIGN != 0) {
        return None;
    }
    Affine::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::random_points;
    use crate::{bls12_381, bn254, t753};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip_many<C: CurveParams>(seed: u64)
    where
        C::Base: CoordField,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        for p in random_points::<C, _>(20, &mut rng) {
            let bytes = compress(&p);
            assert_eq!(bytes.len(), 1 + C::Base::encoded_len());
            let back = decompress::<C>(&bytes).expect("roundtrip");
            assert_eq!(back, p, "{}", C::NAME);
        }
        // Identity.
        let id = Affine::<C>::identity();
        assert_eq!(decompress::<C>(&compress(&id)).unwrap(), id);
    }

    #[test]
    fn roundtrip_g1_all_curves() {
        roundtrip_many::<bn254::G1Config>(1);
        roundtrip_many::<bls12_381::G1Config>(2);
        roundtrip_many::<t753::G1Config>(3);
    }

    #[test]
    fn roundtrip_g2_pairing_curves() {
        roundtrip_many::<bn254::G2Config>(4);
        roundtrip_many::<bls12_381::G2Config>(5);
    }

    #[test]
    fn rejects_malformed() {
        // Wrong length.
        assert!(decompress::<bn254::G1Config>(&[0u8; 10]).is_none());
        // Bad flags.
        let p = Affine::<bn254::G1Config>::generator();
        let mut bytes = compress(&p);
        bytes[0] |= 0x80;
        assert!(decompress::<bn254::G1Config>(&bytes).is_none());
        // Non-residue x (x = 0 gives rhs = 3, a QR? flip bytes until fail):
        // easiest guaranteed-malformed: infinity flag with nonzero payload.
        let mut inf = compress(&Affine::<bn254::G1Config>::identity());
        inf[5] = 1;
        assert!(decompress::<bn254::G1Config>(&inf).is_none());
    }

    #[test]
    fn x_overflow_rejected() {
        // x bytes encoding a value >= p must be rejected.
        let p = Affine::<bn254::G1Config>::generator();
        let mut bytes = compress(&p);
        for b in bytes[1..].iter_mut() {
            *b = 0xff;
        }
        assert!(decompress::<bn254::G1Config>(&bytes).is_none());
    }

    #[test]
    fn groth16_proof_fits_in_1kb() {
        // The §2.1 succinctness property: two compressed G1 points and one
        // compressed G2 point.
        fn proof_len<G1: CurveParams, G2: CurveParams>() -> usize
        where
            G1::Base: CoordField,
            G2::Base: CoordField,
        {
            2 * compress(&Affine::<G1>::generator()).len()
                + compress(&Affine::<G2>::generator()).len()
        }
        assert!(proof_len::<bn254::G1Config, bn254::G2Config>() < 1024);
        assert!(proof_len::<bls12_381::G1Config, bls12_381::G2Config>() < 1024);
        assert_eq!(proof_len::<bn254::G1Config, bn254::G2Config>(), 2 * 33 + 65);
    }

    #[test]
    fn fp2_sqrt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let v = bn254::Fq2::random(&mut rng);
            let sq = v.square();
            let r = sq.sqrt().expect("square has root");
            assert!(r == v || r == -v);
        }
    }
}
