//! The PLONK proof object and its portable byte encoding.

use gzkp_curves::pairing::PairingConfig;
use gzkp_curves::serialize::{compress, decompress, CoordField};
use gzkp_curves::{Affine, CurveParams};
use gzkp_ff::{Field, PrimeField};

/// The 13 polynomial evaluations at the opening point ζ (in batch
/// order), plus the permutation accumulator's evaluation at ζω.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlonkEvals<F: PrimeField> {
    /// `a(ζ)` — left wire.
    pub a: F,
    /// `b(ζ)` — right wire.
    pub b: F,
    /// `c(ζ)` — output wire.
    pub c: F,
    /// `z(ζ)` — permutation accumulator.
    pub z: F,
    /// `σ₁(ζ)`.
    pub s1: F,
    /// `σ₂(ζ)`.
    pub s2: F,
    /// `σ₃(ζ)`.
    pub s3: F,
    /// `q_L(ζ)`.
    pub q_l: F,
    /// `q_R(ζ)`.
    pub q_r: F,
    /// `q_O(ζ)`.
    pub q_o: F,
    /// `q_M(ζ)`.
    pub q_m: F,
    /// `q_C(ζ)`.
    pub q_c: F,
    /// `T(ζ)` where `T = t_lo + ζⁿ⁺²·t_mid + ζ²⁽ⁿ⁺²⁾·t_hi`.
    pub t: F,
    /// `z(ζω)` — the shifted opening.
    pub z_omega: F,
}

impl<F: PrimeField> PlonkEvals<F> {
    /// The evaluations in their canonical (batch/transcript) order, the
    /// shifted opening last.
    pub(crate) fn in_order(&self) -> [F; 14] {
        [
            self.a,
            self.b,
            self.c,
            self.z,
            self.s1,
            self.s2,
            self.s3,
            self.q_l,
            self.q_r,
            self.q_o,
            self.q_m,
            self.q_c,
            self.t,
            self.z_omega,
        ]
    }

    /// Rebuilds from the canonical order (inverse of
    /// [`PlonkEvals::in_order`]).
    pub(crate) fn from_order(v: [F; 14]) -> Self {
        Self {
            a: v[0],
            b: v[1],
            c: v[2],
            z: v[3],
            s1: v[4],
            s2: v[5],
            s3: v[6],
            q_l: v[7],
            q_r: v[8],
            q_o: v[9],
            q_m: v[10],
            q_c: v[11],
            t: v[12],
            z_omega: v[13],
        }
    }
}

/// A PLONK proof: nine G1 commitments plus fourteen scalars — constant
/// size regardless of circuit size, like the Groth16 proof it rides the
/// same service queues with.
#[derive(Debug, Clone)]
pub struct PlonkProof<P: PairingConfig> {
    /// Commitments to the three blinded wire polynomials.
    pub wire_comms: [Affine<P::G1>; 3],
    /// Commitment to the blinded permutation accumulator.
    pub z_comm: Affine<P::G1>,
    /// Commitments to the three quotient chunks.
    pub t_comms: [Affine<P::G1>; 3],
    /// KZG witness for the batched opening at ζ.
    pub w_z: Affine<P::G1>,
    /// KZG witness for the opening of `z` at ζω.
    pub w_zw: Affine<P::G1>,
    /// The claimed evaluations.
    pub evals: PlonkEvals<P::Fr>,
}

impl<P: PairingConfig> PartialEq for PlonkProof<P> {
    fn eq(&self, other: &Self) -> bool {
        self.wire_comms == other.wire_comms
            && self.z_comm == other.z_comm
            && self.t_comms == other.t_comms
            && self.w_z == other.w_z
            && self.w_zw == other.w_zw
            && self.evals == other.evals
    }
}
impl<P: PairingConfig> Eq for PlonkProof<P> {}

impl<P: PairingConfig> PlonkProof<P>
where
    <P::G1 as CurveParams>::Base: CoordField,
{
    /// The points in serialization order.
    fn points(&self) -> [Affine<P::G1>; 9] {
        [
            self.wire_comms[0],
            self.wire_comms[1],
            self.wire_comms[2],
            self.z_comm,
            self.t_comms[0],
            self.t_comms[1],
            self.t_comms[2],
            self.w_z,
            self.w_zw,
        ]
    }

    /// Serialized length for curve family `P`.
    pub fn encoded_len() -> usize {
        let point = <P::G1 as CurveParams>::Base::encoded_len() + 1;
        9 * point + 14 * P::Fr::NUM_LIMBS * 8
    }

    /// Serializes: nine compressed G1 points then fourteen little-endian
    /// limb-encoded scalars.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::encoded_len());
        for p in self.points() {
            out.extend(compress(&p));
        }
        for e in self.evals.in_order() {
            for limb in e.to_limbs() {
                out.extend(limb.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes, validating length, every point (curve equation),
    /// and every scalar (canonical range).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != Self::encoded_len() {
            return Err(format!(
                "plonk proof length {} != expected {}",
                bytes.len(),
                Self::encoded_len()
            ));
        }
        let point_len = <P::G1 as CurveParams>::Base::encoded_len() + 1;
        let mut points = [Affine::<P::G1>::identity(); 9];
        let mut pos = 0;
        for (i, slot) in points.iter_mut().enumerate() {
            *slot = decompress::<P::G1>(&bytes[pos..pos + point_len])
                .ok_or_else(|| format!("plonk proof point {i}: invalid encoding"))?;
            pos += point_len;
        }
        let mut evals = [P::Fr::zero(); 14];
        let per = P::Fr::NUM_LIMBS;
        for (i, slot) in evals.iter_mut().enumerate() {
            let limbs: Vec<u64> = bytes[pos..pos + per * 8]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            *slot = P::Fr::from_limbs(&limbs)
                .ok_or_else(|| format!("plonk proof eval {i}: non-canonical scalar"))?;
            pos += per * 8;
        }
        Ok(Self {
            wire_comms: [points[0], points[1], points[2]],
            z_comm: points[3],
            t_comms: [points[4], points[5], points[6]],
            w_z: points[7],
            w_zw: points[8],
            evals: PlonkEvals::from_order(evals),
        })
    }
}
