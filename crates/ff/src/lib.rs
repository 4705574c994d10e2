//! # gzkp-ff — finite-field substrate
//!
//! Large-prime-field arithmetic for the GZKP reproduction (see the
//! workspace `DESIGN.md`). The paper's proof generation is dominated by
//! modular multiplications and additions of 256-/381-/753-bit integers
//! (§1, §4.3); this crate provides:
//!
//! * [`bigint`] — fixed-width `[u64; N]` big integers;
//! * [`fp`] — static Montgomery prime fields with compile-time derived
//!   constants, instantiated for all paper fields in [`fields`];
//! * [`dynmont`] — dynamic-modulus arithmetic (parameter generation,
//!   pairing exponents);
//! * [`ext`] — the `Fp2`/`Fp6`/`Fp12` towers pairings are built on.
//!
//! The paper's §4.3 floating-point multiplier (Dekker/FMA error-free
//! transforms) is a test-only module here, property-tested bit-equal to
//! the integer path; the simulator prices it by
//! `gzkp_gpu_sim::Backend::speedup`.
//!
//! ## Quickstart
//!
//! ```
//! use gzkp_ff::{Field, PrimeField};
//! use gzkp_ff::fields::Fr254;
//!
//! let a = Fr254::from_u64(6);
//! let b = Fr254::from_u64(7);
//! assert_eq!((a * b).to_limbs()[0], 42);
//!
//! // NTT-friendliness: a primitive 2^10-th root of unity.
//! let w = Fr254::root_of_unity(1 << 10).unwrap();
//! assert_eq!(w.pow(&[1 << 10]), Fr254::one());
//! ```

#![warn(missing_docs)]

pub mod bigint;
#[cfg(test)]
mod dfp;
pub mod dynmont;
pub mod ext;
pub mod fields;
pub mod fp;
pub mod traits;

pub use bigint::BigInt;
pub use fp::{Fp, FpParams};
pub use traits::{batch_inverse, batch_inverse_count, batch_inverse_scratch, Field, PrimeField};
