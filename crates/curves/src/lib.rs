//! # gzkp-curves — elliptic-curve substrate
//!
//! The curve groups the GZKP reproduction computes over (see DESIGN.md):
//!
//! * [`bn254`] — ALT-BN128 (256-bit columns of the paper's tables), with
//!   optimal-ate pairing;
//! * [`bls12_381`] — BLS12-381 (Zcash workloads, 381-bit columns), with
//!   ate pairing;
//! * [`t753`] — the synthetic 753-bit stand-in for MNT4753 (no pairing;
//!   see the module docs for the substitution rationale).
//!
//! [`group`] provides the generic affine/Jacobian machinery (PADD, PMUL,
//! batch normalization) the MSM crate builds on; [`glv`] the
//! endomorphism and scalar split of the `j = 0` pairing curves, with
//! which the MSM halves its scalars; [`fixed_base`] the
//! windowed generator table key generation multiplies through;
//! [`pairing`] the generic Miller loop / final exponentiation used by the
//! Groth16 verifier.
//!
//! ## Quickstart
//!
//! ```
//! use gzkp_curves::bn254::{pairing, G1Affine, G2Affine, Fr};
//! use gzkp_ff::Field;
//!
//! // e(2P, Q) == e(P, Q)²
//! let p = G1Affine::generator();
//! let q = G2Affine::generator();
//! let p2 = p.mul(&Fr::from_u64(2)).to_affine();
//! assert_eq!(pairing(&p2, &q), pairing(&p, &q).square());
//! ```

#![warn(missing_docs)]

pub mod bls12_381;
pub mod bn254;
pub mod fixed_base;
pub mod glv;
pub mod group;
pub mod pairing;
pub mod serialize;
pub mod t753;

pub use fixed_base::FixedBaseTable;
pub use glv::{Glv, ScalarSplit};
pub use group::{batch_to_affine, random_points, Affine, CurveParams, Projective};
pub use pairing::{multi_pairing, PairingConfig};
pub use serialize::{compress, decompress, CoordField};
