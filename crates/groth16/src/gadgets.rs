//! Reusable circuit gadgets: booleans, range checks, a MiMC-style hash and
//! Merkle-path membership — enough to build the honest end-to-end example
//! workloads (the paper's applications are heavy with exactly these
//! bound-check / range-constraint gadgets, which is where the sparse 0/1
//! scalars of §4.2 come from).

use crate::r1cs::{ConstraintSystem, LinearCombination, SynthesisError, Variable};
use gzkp_ff::PrimeField;

/// Allocates a boolean witness: enforces `b · (1 − b) = 0`.
pub fn alloc_boolean<F: PrimeField>(cs: &mut ConstraintSystem<F>, value: bool) -> Variable {
    let v = cs.alloc(if value { F::one() } else { F::zero() });
    let lc_b = LinearCombination::from_var(v);
    let one_minus_b = LinearCombination::from_const(F::one()).add_term(v, -F::one());
    cs.enforce(lc_b, one_minus_b, LinearCombination::zero());
    v
}

/// Range-checks a witness to `bits` bits by full bit decomposition;
/// returns the bit variables (LSB first). This is the gadget responsible
/// for most of the 0/1 witness values in real workloads.
pub fn alloc_ranged<F: PrimeField>(
    cs: &mut ConstraintSystem<F>,
    value: u64,
    bits: u32,
) -> (Variable, Vec<Variable>) {
    assert!(bits <= 64);
    let v = cs.alloc(F::from_u64(value));
    let mut bit_vars = Vec::with_capacity(bits as usize);
    let mut recompose = LinearCombination::zero();
    for i in 0..bits {
        let bit = (value >> i) & 1 == 1;
        let b = alloc_boolean(cs, bit);
        recompose = recompose.add_term(b, F::from_u64(1u64 << i));
        bit_vars.push(b);
    }
    // Σ bᵢ·2ⁱ = v
    cs.enforce(
        recompose,
        LinearCombination::from_const(F::one()),
        LinearCombination::from_var(v),
    );
    (v, bit_vars)
}

/// Number of rounds of the MiMC permutation gadget.
pub(crate) const MIMC_ROUNDS: usize = 91;

/// Deterministic round constants (a fixed LCG keyed by the round index —
/// nothing-up-my-sleeve is not required for a reproduction workload).
pub fn mimc_constants<F: PrimeField>() -> Vec<F> {
    let mut state = 0x5f3759df_u64;
    (0..MIMC_ROUNDS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            F::from_u64(state)
        })
        .collect()
}

/// Plain (out-of-circuit) MiMC-like permutation `x ↦ (((x+c₀)³+c₁)³…)`,
/// used to compute witnesses and expected public values.
pub fn mimc_hash<F: PrimeField>(mut x: F, key: F, constants: &[F]) -> F {
    for c in constants {
        let t = x + key + *c;
        x = t.square() * t;
    }
    x + key
}

/// In-circuit MiMC: two constraints per round (square, then cube).
/// Returns the output variable.
pub fn mimc_gadget<F: PrimeField>(
    cs: &mut ConstraintSystem<F>,
    mut x_var: Variable,
    mut x_val: F,
    key_var: Variable,
    key_val: F,
    constants: &[F],
) -> (Variable, F) {
    for c in constants {
        let t_val = x_val + key_val + *c;
        // t = x + key + c (linear, folded into the enforcement LCs)
        let t_lc = LinearCombination::from_var(x_var)
            .add_term(key_var, F::one())
            .add_term(Variable::ONE, *c);
        // s = t²
        let s_val = t_val.square();
        let s_var = cs.alloc(s_val);
        cs.enforce(
            t_lc.clone(),
            t_lc.clone(),
            LinearCombination::from_var(s_var),
        );
        // y = s·t
        let y_val = s_val * t_val;
        let y_var = cs.alloc(y_val);
        cs.enforce(
            LinearCombination::from_var(s_var),
            t_lc,
            LinearCombination::from_var(y_var),
        );
        x_var = y_var;
        x_val = y_val;
    }
    // output = x + key
    let out_val = x_val + key_val;
    let out_var = cs.alloc(out_val);
    cs.enforce(
        LinearCombination::from_var(x_var).add_term(key_var, F::one()),
        LinearCombination::from_const(F::one()),
        LinearCombination::from_var(out_var),
    );
    (out_var, out_val)
}

/// Two-to-one compression for Merkle trees: `H(l, r) = MiMC(l + 3r; key=0)`.
/// A toy binding (documented as such) — sufficient for a reproduction
/// workload; swap in a sponge for production use.
pub(crate) fn mimc_compress<F: PrimeField>(l: F, r: F, constants: &[F]) -> F {
    mimc_hash(l + r.double() + r, F::zero(), constants)
}

/// In-circuit counterpart of [`mimc_compress`].
pub(crate) fn mimc_compress_gadget<F: PrimeField>(
    cs: &mut ConstraintSystem<F>,
    l: (Variable, F),
    r: (Variable, F),
    constants: &[F],
) -> (Variable, F) {
    let in_val = l.1 + r.1.double() + r.1;
    let in_var = cs.alloc(in_val);
    cs.enforce(
        LinearCombination::from_var(l.0).add_term(r.0, F::from_u64(3)),
        LinearCombination::from_const(F::one()),
        LinearCombination::from_var(in_var),
    );
    let zero_key = cs.alloc(F::zero());
    cs.enforce(
        LinearCombination::from_var(zero_key),
        LinearCombination::from_const(F::one()),
        LinearCombination::zero(),
    );
    mimc_gadget(cs, in_var, in_val, zero_key, F::zero(), constants)
}

/// A Merkle membership circuit: proves knowledge of a leaf and
/// authentication path hashing to a public root.
#[derive(Debug, Clone)]
pub struct MerkleMembership<F: PrimeField> {
    /// The secret leaf value.
    pub leaf: F,
    /// Sibling hashes from leaf level to the root.
    pub path: Vec<F>,
    /// Direction bits: true = current node is the right child.
    pub directions: Vec<bool>,
    /// The public root.
    pub root: F,
}

impl<F: PrimeField> MerkleMembership<F> {
    /// Computes the root for a leaf/path outside the circuit.
    pub fn compute_root(leaf: F, path: &[F], directions: &[bool], constants: &[F]) -> F {
        let mut acc = leaf;
        for (sib, dir) in path.iter().zip(directions) {
            acc = if *dir {
                mimc_compress(*sib, acc, constants)
            } else {
                mimc_compress(acc, *sib, constants)
            };
        }
        acc
    }
}

impl<F: PrimeField> crate::r1cs::Circuit<F> for MerkleMembership<F> {
    fn synthesize(&self, cs: &mut ConstraintSystem<F>) -> Result<(), SynthesisError> {
        let constants = mimc_constants::<F>();
        let root_var = cs.alloc_input(self.root);
        let mut acc = (cs.alloc(self.leaf), self.leaf);
        for (sib, dir) in self.path.iter().zip(&self.directions) {
            let sib_var = cs.alloc(*sib);
            let d = alloc_boolean(cs, *dir);
            // left = dir ? sib : acc; right = dir ? acc : sib — selected with
            // one multiplexer constraint each: left = acc + d·(sib − acc).
            let left_val = if *dir { *sib } else { acc.1 };
            let right_val = if *dir { acc.1 } else { *sib };
            let left_var = cs.alloc(left_val);
            let right_var = cs.alloc(right_val);
            // d·(sib − acc) = left − acc
            cs.enforce(
                LinearCombination::from_var(d),
                LinearCombination::from_var(sib_var).add_term(acc.0, -F::one()),
                LinearCombination::from_var(left_var).add_term(acc.0, -F::one()),
            );
            // d·(acc − sib) = right − sib
            cs.enforce(
                LinearCombination::from_var(d),
                LinearCombination::from_var(acc.0).add_term(sib_var, -F::one()),
                LinearCombination::from_var(right_var).add_term(sib_var, -F::one()),
            );
            acc =
                mimc_compress_gadget(cs, (left_var, left_val), (right_var, right_val), &constants);
        }
        // acc == root
        cs.enforce(
            LinearCombination::from_var(acc.0),
            LinearCombination::from_const(F::one()),
            LinearCombination::from_var(root_var),
        );
        cs.is_satisfied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::Circuit;
    use gzkp_ff::fields::Fr254;
    use gzkp_ff::Field;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn boolean_gadget() {
        let mut cs = ConstraintSystem::<Fr254>::new();
        alloc_boolean(&mut cs, true);
        alloc_boolean(&mut cs, false);
        assert!(cs.is_satisfied().is_ok());
        // Force a non-boolean value: constraint must fail.
        let mut cs2 = ConstraintSystem::<Fr254>::new();
        let v = cs2.alloc(Fr254::from_u64(2));
        let lc_b = LinearCombination::from_var(v);
        let one_minus = LinearCombination::from_const(Fr254::one()).add_term(v, -Fr254::one());
        cs2.enforce(lc_b, one_minus, LinearCombination::zero());
        assert!(cs2.is_satisfied().is_err());
    }

    #[test]
    fn range_gadget() {
        let mut cs = ConstraintSystem::<Fr254>::new();
        let (_, bits) = alloc_ranged(&mut cs, 0b1011_0101, 8);
        assert_eq!(bits.len(), 8);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn mimc_gadget_matches_plain() {
        let constants = mimc_constants::<Fr254>();
        let x = Fr254::from_u64(123456);
        let key = Fr254::from_u64(777);
        let expect = mimc_hash(x, key, &constants);
        let mut cs = ConstraintSystem::<Fr254>::new();
        let x_var = cs.alloc(x);
        let key_var = cs.alloc(key);
        let (_, out) = mimc_gadget(&mut cs, x_var, x, key_var, key, &constants);
        assert_eq!(out, expect);
        assert!(cs.is_satisfied().is_ok());
        // 2 constraints per round + final add.
        assert!(cs.num_constraints() >= 2 * MIMC_ROUNDS);
    }

    #[test]
    fn merkle_membership_satisfied() {
        let constants = mimc_constants::<Fr254>();
        let mut rng = StdRng::seed_from_u64(99);
        let leaf = Fr254::random(&mut rng);
        let path: Vec<Fr254> = (0..8).map(|_| Fr254::random(&mut rng)).collect();
        let directions: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let root = MerkleMembership::compute_root(leaf, &path, &directions, &constants);
        let circuit = MerkleMembership {
            leaf,
            path,
            directions,
            root,
        };
        let mut cs = ConstraintSystem::new();
        assert!(circuit.synthesize(&mut cs).is_ok());
    }

    #[test]
    fn merkle_membership_wrong_root_fails() {
        let constants = mimc_constants::<Fr254>();
        let mut rng = StdRng::seed_from_u64(100);
        let leaf = Fr254::random(&mut rng);
        let path: Vec<Fr254> = (0..4).map(|_| Fr254::random(&mut rng)).collect();
        let directions = vec![false; 4];
        let root = MerkleMembership::compute_root(leaf, &path, &directions, &constants);
        let circuit = MerkleMembership {
            leaf,
            path,
            directions,
            root: root + Fr254::one(),
        };
        let mut cs = ConstraintSystem::new();
        assert!(circuit.synthesize(&mut cs).is_err());
    }
}
