//! PLONK arithmetization: gates over three wire columns, plus the
//! R1CS → PLONK lowering the workloads use so one circuit definition
//! drives both backends.
//!
//! Row semantics (standard PLONK gate):
//!
//! ```text
//! q_L·a + q_R·b + q_O·c + q_M·a·b + q_C + PI = 0
//! ```
//!
//! where `a`, `b`, `c` are the row's three wire values and `PI` is the
//! public-input polynomial, `PI(ωʲ) = −pubⱼ` on the first `ℓ` rows and 0
//! elsewhere. Copy constraints (the same variable appearing in several
//! wire slots) are enforced by the permutation argument in the prover —
//! the circuit only records *which variable* sits in each slot.
//!
//! [`PlonkCircuit::from_r1cs`] fuses each R1CS constraint into one gate
//! when its three combinations each hold at most one variable, which is
//! every plain product, boolean and scaled copy the workloads emit, so
//! the domain is about twice the R1CS constraint count.

use gzkp_ff::PrimeField;
use gzkp_groth16::r1cs::{ConstraintSystem, LinearCombination};
use std::collections::{BTreeMap, HashMap};

/// Selector values and wire variable indices of one gate row.
#[derive(Debug, Clone)]
pub struct PlonkGate<F: PrimeField> {
    /// Left-wire selector.
    pub q_l: F,
    /// Right-wire selector.
    pub q_r: F,
    /// Output-wire selector.
    pub q_o: F,
    /// Multiplication selector.
    pub q_m: F,
    /// Constant selector.
    pub q_c: F,
    /// Variable in the left wire slot.
    pub a: usize,
    /// Variable in the right wire slot.
    pub b: usize,
    /// Variable in the output wire slot.
    pub c: usize,
}

impl<F: PrimeField> PlonkGate<F> {
    /// An all-zero gate wired to the zero variable (domain padding).
    pub fn empty() -> Self {
        Self {
            q_l: F::zero(),
            q_r: F::zero(),
            q_o: F::zero(),
            q_m: F::zero(),
            q_c: F::zero(),
            a: 0,
            b: 0,
            c: 0,
        }
    }
}

/// A witnessed PLONK circuit: variable values plus the gate list.
///
/// Variable 0 is the dedicated constant-zero wire: every unused slot
/// points at it, and the row right after the PI rows (`q_L = 1` on it)
/// pins its value, so the copy constraints tie every padding slot to 0.
/// Public-input variables occupy indices `1..=num_public` and the first
/// `num_public` gate rows, one PI gate each.
#[derive(Debug, Clone)]
pub struct PlonkCircuit<F: PrimeField> {
    /// Number of public inputs.
    pub num_public: usize,
    /// Value of every variable (index 0 is the zero wire).
    pub values: Vec<F>,
    /// The gate rows: PI gates, the zero-wire pin, then the circuit.
    pub gates: Vec<PlonkGate<F>>,
}

/// Smallest domain the quotient construction supports: the coset
/// division needs `deg t = 3n + 5 < 4n`, i.e. `n > 5`, and domains are
/// powers of two.
pub(crate) const MIN_DOMAIN: usize = 8;

/// Combinations of two or more variables already accumulated by one
/// lowering — `(merged variable terms, constant)` — and the variable
/// holding each.
type Built<F> = HashMap<(Vec<(usize, F)>, F), usize>;

impl<F: PrimeField> PlonkCircuit<F> {
    /// Creates a circuit with `num_public` public inputs already
    /// allocated (variables `1..=num_public`, one PI gate row each),
    /// followed by the row pinning the zero wire.
    pub fn new(public_inputs: &[F]) -> Self {
        let mut circuit = Self {
            num_public: public_inputs.len(),
            values: Vec::with_capacity(1 + public_inputs.len()),
            gates: Vec::new(),
        };
        circuit.values.push(F::zero());
        for (j, value) in public_inputs.iter().enumerate() {
            circuit.values.push(*value);
            circuit.gates.push(PlonkGate {
                q_l: F::one(),
                a: 1 + j,
                ..PlonkGate::empty()
            });
        }
        circuit.gates.push(PlonkGate {
            q_l: F::one(),
            ..PlonkGate::empty()
        });
        circuit
    }

    /// Allocates a new witness variable with `value`.
    pub fn alloc(&mut self, value: F) -> usize {
        self.values.push(value);
        self.values.len() - 1
    }

    /// Appends a gate row.
    pub fn push_gate(&mut self, gate: PlonkGate<F>) {
        self.gates.push(gate);
    }

    /// The public-input values, in allocation order.
    pub fn public_inputs(&self) -> &[F] {
        &self.values[1..1 + self.num_public]
    }

    /// Domain size: gate count rounded up to a power of two, at least
    /// `MIN_DOMAIN`. Padding rows are all-zero gates wired to the zero
    /// variable.
    pub fn domain_size(&self) -> usize {
        self.gates.len().max(MIN_DOMAIN).next_power_of_two()
    }

    /// Number of variables (witness upload size for H2D modeling).
    pub fn num_variables(&self) -> usize {
        self.values.len()
    }

    /// The PI contribution on row `row`: `−pub_row` on PI rows, zero
    /// elsewhere.
    pub(crate) fn pi_at(&self, row: usize) -> F {
        if row < self.num_public {
            -self.values[1 + row]
        } else {
            F::zero()
        }
    }

    /// Checks every gate equation against the witness.
    ///
    /// # Errors
    ///
    /// Reports the first violated row.
    pub fn is_satisfied(&self) -> Result<(), String> {
        for (row, gate) in self.gates.iter().enumerate() {
            let a = self.values[gate.a];
            let b = self.values[gate.b];
            let c = self.values[gate.c];
            let acc = gate.q_l * a
                + gate.q_r * b
                + gate.q_o * c
                + gate.q_m * a * b
                + gate.q_c
                + self.pi_at(row);
            if !acc.is_zero() {
                return Err(format!("gate {row} unsatisfied"));
            }
        }
        Ok(())
    }

    /// Lowers a witnessed R1CS constraint system to PLONK gates — the
    /// plonkit-style transpilation that lets every workload circuit run
    /// under both backends.
    ///
    /// R1CS variable `j ≥ 1` is PLONK variable `j` (the inputs keep
    /// `1..=ℓ` and their PI rows); R1CS's constant-one variable has no
    /// wire — its terms become selector constants. Each combination is
    /// first written as `coeff·var + constant`, and the constraint
    /// `(αx + a₀)(βy + b₀) = γz + c₀` becomes the one gate
    ///
    /// ```text
    /// q_M = αβ, q_L = αb₀, q_R = βa₀, q_O = −γ, q_C = a₀b₀ − c₀
    /// ```
    ///
    /// A combination of `k ≥ 2` variables costs `k − 1` addition gates
    /// first, built once per lowering however often it recurs.
    pub fn from_r1cs(cs: &ConstraintSystem<F>) -> Self {
        let mut circuit = Self::new(&cs.input_assignment);
        circuit.values.extend_from_slice(&cs.aux_assignment);
        let mut built = HashMap::new();
        for (lc_a, lc_b, lc_c) in &cs.constraints {
            let (x, alpha, a0) = circuit.wire(&mut built, lc_a);
            let (y, beta, b0) = circuit.wire(&mut built, lc_b);
            let (z, gamma, c0) = circuit.wire(&mut built, lc_c);
            circuit.push_gate(PlonkGate {
                q_l: alpha * b0,
                q_r: beta * a0,
                q_o: -gamma,
                q_m: alpha * beta,
                q_c: a0 * b0 - c0,
                a: x,
                b: y,
                c: z,
            });
        }
        circuit
    }

    /// Lowers `lc` to one wire `(var, coeff, constant)`, standing for
    /// `coeff·values[var] + constant`. Terms on the same variable merge
    /// and the constant-one variable's terms form the constant; a
    /// combination left with at most one variable is that variable (the
    /// zero wire when none), and one of `k ≥ 2` variables is accumulated
    /// into a new variable by `k − 1` addition gates, the first carrying
    /// the constant in `q_C`. `built` maps each accumulated combination
    /// to its variable, so a repeat costs no gate.
    fn wire(&mut self, built: &mut Built<F>, lc: &LinearCombination<F>) -> (usize, F, F) {
        let mut merged = BTreeMap::new();
        for &(j, coeff) in &lc.terms {
            *merged.entry(j).or_insert_with(F::zero) += coeff;
        }
        let constant = merged.remove(&0).unwrap_or_else(F::zero);
        let terms: Vec<(usize, F)> = merged.into_iter().filter(|(_, c)| !c.is_zero()).collect();
        let (first, second) = match terms.as_slice() {
            [] => return (0, F::zero(), constant),
            [(j, coeff)] => return (*j, *coeff, constant),
            [first, second, ..] => (*first, *second),
        };
        let key = (terms, constant);
        if let Some(&var) = built.get(&key) {
            return (var, F::one(), F::zero());
        }
        // acc₁ = α₁x₁ + α₂x₂ + constant; accᵢ = accᵢ₋₁ + αᵢ₊₁xᵢ₊₁.
        let mut acc = self
            .alloc(first.1 * self.values[first.0] + second.1 * self.values[second.0] + constant);
        self.push_gate(PlonkGate {
            q_l: first.1,
            q_r: second.1,
            q_o: -F::one(),
            q_c: constant,
            a: first.0,
            b: second.0,
            c: acc,
            ..PlonkGate::empty()
        });
        for &(j, coeff) in &key.0[2..] {
            let next = self.alloc(self.values[acc] + coeff * self.values[j]);
            self.push_gate(PlonkGate {
                q_l: F::one(),
                q_r: coeff,
                q_o: -F::one(),
                a: acc,
                b: j,
                c: next,
                ..PlonkGate::empty()
            });
            acc = next;
        }
        built.insert(key, acc);
        (acc, F::one(), F::zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kzg::evaluate_poly;
    use crate::{prove, setup, verify};
    use gzkp_curves::bn254::{Bn254, Fr};
    use gzkp_ff::Field;
    use gzkp_gpu_sim::v100;
    use gzkp_groth16::gadgets::{alloc_boolean, alloc_ranged, mimc_constants, mimc_gadget};
    use gzkp_groth16::r1cs::{Circuit, ConstraintSystem, LinearCombination};
    use gzkp_groth16::{gadgets::MerkleMembership, Variable};
    use gzkp_msm::GzkpMsm;
    use gzkp_ntt::gpu::GzkpNtt;
    use gzkp_ntt::Radix2Domain;
    use gzkp_proof_system::Engines;
    use gzkp_telemetry::NoopSink;
    use gzkp_workloads::synthetic::synthetic_circuit;
    use gzkp_workloads::{apps::zksnark_apps, zcash::zcash_workloads};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    fn var(v: Variable) -> LinearCombination<Fr> {
        LinearCombination::from_var(v)
    }

    fn constant(c: u64) -> LinearCombination<Fr> {
        LinearCombination::from_const(Fr::from_u64(c))
    }

    /// Lowers `cs`, checks the lowering is satisfied and returns its gate
    /// count past the PI rows and the zero-wire pin.
    fn lowered_gates(cs: &ConstraintSystem<Fr>) -> usize {
        cs.is_satisfied().unwrap();
        let circuit = PlonkCircuit::from_r1cs(cs);
        circuit.is_satisfied().unwrap();
        circuit.gates.len() - cs.num_inputs - 1
    }

    #[test]
    fn r1cs_migration_satisfies() {
        // A multiplication with a linear combination thrown in:
        // (x + 2)·y = 45 with x = 3, y = 9.
        let mut cs = ConstraintSystem::<Fr>::new();
        let n = cs.alloc_input(Fr::from_u64(45));
        let x = cs.alloc(Fr::from_u64(3));
        let y = cs.alloc(Fr::from_u64(9));
        cs.enforce(
            var(x).add_term(Variable::ONE, Fr::from_u64(2)),
            var(y),
            var(n),
        );
        assert_eq!(lowered_gates(&cs), 1);
        let circuit = PlonkCircuit::from_r1cs(&cs);
        assert_eq!(circuit.public_inputs(), &[Fr::from_u64(45)]);
        assert!(circuit.domain_size() >= MIN_DOMAIN);
    }

    #[test]
    fn unsatisfied_gate_is_reported() {
        let mut circuit = PlonkCircuit::new(&[Fr::from_u64(3)]);
        let v = circuit.alloc(Fr::from_u64(9));
        circuit.push_gate(PlonkGate {
            q_l: Fr::one(),
            q_c: Fr::one(),
            a: v,
            ..PlonkGate::empty()
        });
        let err = circuit.is_satisfied().unwrap_err();
        assert!(err.contains("unsatisfied"), "{err}");
    }

    #[test]
    fn plain_product_is_one_gate() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc(Fr::from_u64(6));
        let y = cs.alloc(Fr::from_u64(7));
        let z = cs.alloc(Fr::from_u64(42));
        cs.enforce(var(x), var(y), var(z));
        assert_eq!(lowered_gates(&cs), 1);
    }

    #[test]
    fn boolean_is_one_gate() {
        let mut cs = ConstraintSystem::<Fr>::new();
        alloc_boolean(&mut cs, true);
        alloc_boolean(&mut cs, false);
        assert_eq!(lowered_gates(&cs), 2);
    }

    #[test]
    fn public_times_one_equals_constant_is_one_gate() {
        let mut cs = ConstraintSystem::<Fr>::new();
        let p = cs.alloc_input(Fr::from_u64(4242));
        cs.enforce(var(p), constant(1), constant(4242));
        assert_eq!(lowered_gates(&cs), 1);
    }

    #[test]
    fn scaled_and_shifted_single_terms_fuse_into_one_gate() {
        // (3x + 1)·(2y − 5) = 4z + 7, with repeated terms merging: x = 2,
        // y = 4, so the left side is 7·3 = 21 and z = 14 / 4.
        let mut cs = ConstraintSystem::<Fr>::new();
        let x = cs.alloc(Fr::from_u64(2));
        let y = cs.alloc(Fr::from_u64(4));
        let z_val = Fr::from_u64(14) * Fr::from_u64(4).inverse().unwrap();
        let z = cs.alloc(z_val);
        cs.enforce(
            var(x)
                .add_term(x, Fr::from_u64(2))
                .add_term(Variable::ONE, Fr::one()),
            LinearCombination::zero()
                .add_term(y, Fr::from_u64(2))
                .add_term(Variable::ONE, -Fr::from_u64(5)),
            LinearCombination::zero()
                .add_term(z, Fr::from_u64(4))
                .add_term(Variable::ONE, Fr::from_u64(7)),
        );
        assert_eq!(lowered_gates(&cs), 1);
    }

    #[test]
    fn mimc_round_shares_its_sum_three_gates_a_round() {
        // Per round `t = x + key + c` (one addition gate, built once),
        // `t·t = s` and `s·t = y`; the output `(x + key)·1 = out` costs
        // one addition gate and one fused gate.
        let constants = mimc_constants::<Fr>();
        for rounds in [1, constants.len()] {
            let mut cs = ConstraintSystem::<Fr>::new();
            let (x0, k0) = (Fr::from_u64(5), Fr::from_u64(11));
            let (x, k) = (cs.alloc(x0), cs.alloc(k0));
            mimc_gadget(&mut cs, x, x0, k, k0, &constants[..rounds]);
            assert_eq!(lowered_gates(&cs), 3 * rounds + 2, "{rounds} rounds");
        }
    }

    #[test]
    fn k_term_recomposition_is_k_gates() {
        for k in [2u32, 8, 64] {
            // Σ bᵢ·2ⁱ · 1 = v alone: k − 1 additions and the fused gate.
            let mut cs = ConstraintSystem::<Fr>::new();
            let value = u64::MAX >> (64 - k);
            let v = cs.alloc(Fr::from_u64(value));
            let mut sum = LinearCombination::zero();
            for i in 0..k {
                sum = sum.add_term(cs.alloc(Fr::one()), Fr::from_u64(1 << i));
            }
            cs.enforce(sum, constant(1), var(v));
            assert_eq!(lowered_gates(&cs), k as usize, "k = {k}");

            // The range gadget adds one boolean gate per bit.
            let mut cs = ConstraintSystem::<Fr>::new();
            alloc_ranged(&mut cs, value / 3, k);
            assert_eq!(lowered_gates(&cs), 2 * k as usize, "ranged k = {k}");
        }
    }

    #[test]
    fn synthetic_circuits_lower_to_half_the_domain() {
        // `(log constraints, gates, domain)` at the smoke size,
        // `service_mixed`'s PLONK class, `plonk_warm` and the next size up:
        // the PI row, the zero-wire pin, the public-input constraint, 275
        // gates for the MiMC block and one gate per filler constraint.
        for seed in [1, 42] {
            for (log_constraints, gates, domain) in [
                (5, 278, 512),
                (8, 350, 512),
                (10, 1118, 2048),
                (12, 4190, 8192),
            ] {
                let mut rng = StdRng::seed_from_u64(seed);
                let cs = synthetic_circuit::<Fr, _>(1 << log_constraints, &mut rng);
                let circuit = PlonkCircuit::from_r1cs(&cs);
                circuit.is_satisfied().unwrap();
                let at = format!("seed {seed}, 2^{log_constraints}");
                assert_eq!(circuit.gates.len(), gates, "{at}");
                assert_eq!(circuit.domain_size(), domain, "{at}");
            }
        }
    }

    #[test]
    fn new_pins_the_zero_wire_after_the_pi_rows() {
        let publics = [Fr::from_u64(3), Fr::from_u64(5)];
        let circuit = PlonkCircuit::new(&publics);
        let pin = &circuit.gates[publics.len()];
        assert_eq!((pin.q_l, pin.a), (Fr::one(), 0));
        assert!([pin.q_r, pin.q_o, pin.q_m, pin.q_c]
            .iter()
            .all(|q| q.is_zero()));
        circuit.is_satisfied().unwrap();

        let mut moved = circuit.clone();
        moved.values[0] = Fr::one();
        assert!(moved.is_satisfied().is_err(), "a nonzero zero wire");
    }

    fn engines() -> (GzkpNtt, GzkpMsm, GzkpMsm) {
        (
            GzkpNtt::auto::<Fr>(v100()),
            GzkpMsm::new(v100()),
            GzkpMsm::new(v100()),
        )
    }

    /// Proves `forged` under `honest`'s key and asserts the prover refuses
    /// or the verifier rejects the forged statement.
    fn assert_forgery_fails(honest: &PlonkCircuit<Fr>, forged: &PlonkCircuit<Fr>) {
        let (pk, vk) = setup::<Bn254, _>(honest, &mut StdRng::seed_from_u64(17)).unwrap();
        let (ntt, msm_g1, msm_g2) = engines();
        let engines = Engines::<Bn254> {
            ntt: &ntt,
            msm_g1: &msm_g1,
            msm_g2: &msm_g2,
        };
        if let Ok((proof, _)) = prove(forged, &pk, &engines, 5, &NoopSink) {
            assert!(
                !verify(&vk, forged.public_inputs(), &proof),
                "a proof of {:?} verified",
                forged.public_inputs()
            );
        }
    }

    #[test]
    fn moved_zero_wire_cannot_prove_a_non_boolean() {
        // x·(1 − x) = 0 with public x: the honest key is for x = 1; the
        // forgery claims x = 2 and sets the zero wire to −2.
        let boolean = |x: u64| {
            let mut cs = ConstraintSystem::<Fr>::new();
            let v = cs.alloc_input(Fr::from_u64(x));
            cs.enforce(
                var(v),
                constant(1).add_term(v, -Fr::one()),
                LinearCombination::zero(),
            );
            cs
        };
        let honest = PlonkCircuit::from_r1cs(&boolean(1));
        let mut forged = PlonkCircuit::from_r1cs(&boolean(2));
        forged.values[0] = -Fr::from_u64(2);
        assert_forgery_fails(&honest, &forged);
    }

    #[test]
    fn moved_zero_wire_cannot_prove_a_false_square() {
        // One gate x·x − c = 0 with `c` the zero wire: the honest key is
        // for x = 0; the forgery claims x = 3 with the zero wire at 9.
        let square = |x: u64, zero_wire: u64| {
            let mut circuit = PlonkCircuit::new(&[Fr::from_u64(x)]);
            circuit.values[0] = Fr::from_u64(zero_wire);
            circuit.push_gate(PlonkGate {
                q_m: Fr::one(),
                q_o: -Fr::one(),
                a: 1,
                b: 1,
                ..PlonkGate::empty()
            });
            circuit
        };
        assert_forgery_fails(&square(0, 0), &square(3, 9));
    }

    #[test]
    fn setup_key_holds_the_zero_wire_pin() {
        let mut rng = StdRng::seed_from_u64(3);
        let circuit = PlonkCircuit::from_r1cs(&synthetic_circuit::<Fr, _>(1 << 5, &mut rng));
        let (pk, _) = setup::<Bn254, _>(&circuit, &mut rng).unwrap();
        let row = circuit.num_public;
        let omega = Radix2Domain::<Fr>::new(pk.n).unwrap().omega;
        let at_row = omega.pow(&[row as u64]);
        let selectors: Vec<Fr> = pk
            .selectors
            .iter()
            .map(|q| evaluate_poly(q, at_row))
            .collect();
        assert_eq!(
            selectors,
            [Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(), Fr::zero()]
        );
        assert_eq!(pk.wires.each_ref().map(|w| w[row]), [0, 0, 0]);
    }

    /// A satisfied random R1CS system over a handful of variables: every
    /// combination draws up to four terms (repeats, the constant-one
    /// variable and zero coefficients included) or reuses an earlier one,
    /// and each constraint is a product into a fresh variable, a product
    /// equal to a random combination balanced by its constant, or a
    /// boolean.
    fn random_r1cs(seed: u64) -> ConstraintSystem<Fr> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cs = ConstraintSystem::<Fr>::new();
        for _ in 0..rng.gen_range(0..3) {
            cs.alloc_input(Fr::random(&mut rng));
        }
        for _ in 0..rng.gen_range(1..4) {
            cs.alloc(Fr::random(&mut rng));
        }
        let mut pool: Vec<LinearCombination<Fr>> = Vec::new();
        for _ in 0..rng.gen_range(1..10) {
            let mut lc = || {
                if !pool.is_empty() && rng.gen_range(0..4) == 0 {
                    return pool[rng.gen_range(0..pool.len())].clone();
                }
                let mut lc = LinearCombination::zero();
                for _ in 0..rng.gen_range(0..5) {
                    let coeff = match rng.gen_range(0..4) {
                        0 => Fr::one(),
                        1 => -Fr::one(),
                        2 => Fr::zero(),
                        _ => Fr::random(&mut rng),
                    };
                    lc = lc.add_term(Variable(rng.gen_range(0..cs.num_variables())), coeff);
                }
                pool.push(lc.clone());
                lc
            };
            let (a, b, c) = (lc(), lc(), lc());
            let z = cs.full_assignment();
            let product = a.eval(&z) * b.eval(&z);
            match rng.gen_range(0..3) {
                0 => {
                    let out = cs.alloc(product);
                    cs.enforce(a, b, var(out));
                }
                1 => {
                    let balance = product - c.eval(&z);
                    cs.enforce(a, b, c.add_term(Variable::ONE, balance));
                }
                _ => {
                    alloc_boolean(&mut cs, rng.gen());
                }
            }
        }
        cs.is_satisfied().unwrap();
        cs
    }

    /// Every circuit shape the workloads build: the synthetic gate mix at
    /// the smoke, `service_mixed` and `plonk_warm` sizes and at the
    /// smallest Zcash and application vector sizes (those workloads are
    /// scalar profiles over the same shapes), plus the gadget circuits
    /// the examples prove (range checks, Merkle membership).
    fn workload_circuits() -> &'static [ConstraintSystem<Fr>] {
        static CIRCUITS: OnceLock<Vec<ConstraintSystem<Fr>>> = OnceLock::new();
        CIRCUITS.get_or_init(|| {
            let smallest = |specs: Vec<gzkp_workloads::WorkloadSpec>| {
                specs.iter().map(|w| w.vector_size).min().unwrap()
            };
            let mut sizes = vec![1 << 5, 1 << 8, 1 << 10];
            sizes.push(smallest(zcash_workloads()));
            sizes.push(smallest(zksnark_apps()));
            let mut circuits: Vec<ConstraintSystem<Fr>> = [1, 42]
                .iter()
                .flat_map(|&seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    sizes
                        .iter()
                        .map(|&n| synthetic_circuit(n, &mut rng))
                        .collect::<Vec<_>>()
                })
                .collect();

            let mut ranged = ConstraintSystem::new();
            alloc_ranged(&mut ranged, 0xdead_beef_cafe, 64);
            circuits.push(ranged);

            let constants = mimc_constants::<Fr>();
            let leaf = Fr::from_u64(77);
            let path: Vec<Fr> = (1..=3).map(Fr::from_u64).collect();
            let directions = vec![true, false, true];
            let root = MerkleMembership::compute_root(leaf, &path, &directions, &constants);
            let mut merkle = ConstraintSystem::new();
            MerkleMembership {
                leaf,
                path,
                directions,
                root,
            }
            .synthesize(&mut merkle)
            .unwrap();
            circuits.push(merkle);
            circuits
        })
    }

    #[test]
    fn every_workload_circuit_lowers_to_a_satisfied_circuit() {
        for (i, cs) in workload_circuits().iter().enumerate() {
            cs.is_satisfied().unwrap();
            let circuit = PlonkCircuit::from_r1cs(cs);
            assert!(circuit.is_satisfied().is_ok(), "workload circuit {i}");
            assert_eq!(circuit.public_inputs(), cs.input_assignment.as_slice());
        }
    }

    /// The lowering and the R1CS agree on satisfaction after `aux[index]`
    /// moves by `delta` (no move when the system has no aux variable).
    fn check_perturbed(cs: &ConstraintSystem<Fr>, index: usize, delta: u64) -> Result<(), String> {
        let mut cs = cs.clone();
        if !cs.aux_assignment.is_empty() {
            let k = index % cs.aux_assignment.len();
            cs.aux_assignment[k] += Fr::from_u64(delta);
        }
        let r1cs = cs.is_satisfied().is_ok();
        let plonk = PlonkCircuit::from_r1cs(&cs).is_satisfied().is_ok();
        prop_assert_eq!(r1cs, plonk);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lowering_is_equisatisfiable_on_random_r1cs(
            seed in any::<u64>(),
            index in any::<usize>(),
            delta in 1u64..1_000,
        ) {
            let cs = random_r1cs(seed);
            prop_assert!(PlonkCircuit::from_r1cs(&cs).is_satisfied().is_ok());
            check_perturbed(&cs, index, delta)?;
        }

        #[test]
        fn lowering_is_equisatisfiable_on_workload_circuits(
            which in any::<usize>(),
            index in any::<usize>(),
            delta in 1u64..1_000,
        ) {
            let circuits = workload_circuits();
            check_perturbed(&circuits[which % circuits.len()], index, delta)?;
        }
    }
}
