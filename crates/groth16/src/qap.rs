//! R1CS → QAP reduction and the POLY-stage pipeline.
//!
//! This implements exactly the paper's accounting: "the actual zkSNARK
//! execution contains seven NTT operations in the POLY stage" (§5.2) —
//! three inverse NTTs (a, b, c evaluation vectors → coefficients), three
//! coset forward NTTs, a pointwise `(A·B − C)·Z⁻¹` on the coset, and one
//! coset inverse NTT producing the `h` coefficient vector.

use crate::r1cs::{ConstraintSystem, SynthesisError};
use gzkp_ff::PrimeField;
use gzkp_gpu_sim::StageReport;
use gzkp_ntt::gpu::GpuNttEngine;
use gzkp_ntt::{CpuNtt, Direction, Radix2Domain};
use gzkp_telemetry::{self as telemetry, TelemetrySink};

/// The constraint-matrix evaluations `⟨A_i, z⟩, ⟨B_i, z⟩, ⟨C_i, z⟩` padded
/// to the evaluation domain.
#[derive(Debug, Clone)]
pub struct QapWitness<F: PrimeField> {
    /// The evaluation domain (size ≥ number of constraints).
    pub domain: Radix2Domain<F>,
    /// ⟨A_i, z⟩ per domain point.
    pub a: Vec<F>,
    /// ⟨B_i, z⟩ per domain point.
    pub b: Vec<F>,
    /// ⟨C_i, z⟩ per domain point.
    pub c: Vec<F>,
}

impl<F: PrimeField> QapWitness<F> {
    /// Evaluates the constraint matrices against the assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::DomainTooLarge`] if the constraint count
    /// exceeds the field's two-adic NTT capacity.
    pub fn from_r1cs(cs: &ConstraintSystem<F>) -> Result<Self, SynthesisError> {
        let z = cs.full_assignment();
        let domain = Radix2Domain::at_least(cs.num_constraints().max(2))
            .ok_or(SynthesisError::DomainTooLarge)?;
        let mut a = vec![F::zero(); domain.size];
        let mut b = vec![F::zero(); domain.size];
        let mut c = vec![F::zero(); domain.size];
        for (i, (la, lb, lc)) in cs.constraints.iter().enumerate() {
            a[i] = la.eval(&z);
            b[i] = lb.eval(&z);
            c[i] = lc.eval(&z);
        }
        Ok(Self { domain, a, b, c })
    }
}

/// Output of the POLY stage: the coefficients of
/// `H(x) = (A(x)·B(x) − C(x)) / Z(x)` plus the simulated stage report.
#[derive(Debug)]
pub struct PolyOutput<F: PrimeField> {
    /// Coefficients of `H` (degree < N − 1).
    pub h: Vec<F>,
    /// Simulated time of the seven NTTs + pointwise kernel.
    pub report: StageReport,
}

/// Runs the POLY stage with a GPU NTT engine (functional + simulated
/// cost). Each of the seven NTTs runs inside its own `ntt[i]` span on
/// `sink`, carrying the kernel reports and counters the engine emits.
pub fn poly_stage_traced<F: PrimeField>(
    qap: &QapWitness<F>,
    engine: &dyn GpuNttEngine<F>,
    sink: &dyn TelemetrySink,
) -> PolyOutput<F> {
    let d = &qap.domain;
    let mut report = StageReport::new("POLY");
    let mut a = qap.a.clone();
    let mut b = qap.b.clone();
    let mut c = qap.c.clone();

    let mut ntt_index = 0u32;
    let mut run = |data: &mut [F], dir: Direction, coset: bool, into: bool| {
        // Coset entry/exit scaling is a cheap pointwise kernel; fold its
        // cost into the NTT report as fixed work.
        if coset && into {
            d.coset_scale(data);
        }
        let name = format!("ntt[{ntt_index}]");
        ntt_index += 1;
        let guard = telemetry::span(sink, &name);
        let r = engine.transform_traced(d, data, dir, sink);
        drop(guard);
        for k in r.kernels {
            report.kernels.push(k);
        }
        if coset && !into {
            d.coset_unscale(data);
        }
    };

    // 1–3: INTT of a, b, c (evaluations on H → coefficients).
    run(&mut a, Direction::Inverse, false, false);
    run(&mut b, Direction::Inverse, false, false);
    run(&mut c, Direction::Inverse, false, false);
    // 4–6: coset NTT of a, b, c.
    run(&mut a, Direction::Forward, true, true);
    run(&mut b, Direction::Forward, true, true);
    run(&mut c, Direction::Forward, true, true);
    // Pointwise h_evals = (a·b − c) / Z on the coset: Z(g·ωⁱ) = gᴺ − 1
    // (ωⁱᴺ = 1) is one constant there, inverted once.
    let zg_inv = d
        .eval_vanishing(d.coset_gen)
        .inverse()
        .expect("nonzero off domain");
    let mut h: Vec<F> = a
        .iter()
        .zip(&b)
        .zip(&c)
        .map(|((ai, bi), ci)| (*ai * *bi - *ci) * zg_inv)
        .collect();
    // 7: coset INTT of h.
    run(&mut h, Direction::Inverse, true, false);
    report.add_fixed("pointwise(ab-c)/Z", d.size as f64 * 0.5);

    PolyOutput { h, report }
}

/// CPU reference of the POLY stage (no cost model), for cross-validation.
pub fn poly_stage_cpu<F: PrimeField>(qap: &QapWitness<F>) -> Vec<F> {
    let d = &qap.domain;
    let ntt = CpuNtt::reference();
    let mut a = qap.a.clone();
    let mut b = qap.b.clone();
    let mut c = qap.c.clone();
    ntt.transform(d, &mut a, Direction::Inverse);
    ntt.transform(d, &mut b, Direction::Inverse);
    ntt.transform(d, &mut c, Direction::Inverse);
    ntt.coset_forward(d, &mut a);
    ntt.coset_forward(d, &mut b);
    ntt.coset_forward(d, &mut c);
    let zg_inv = d
        .eval_vanishing(d.coset_gen)
        .inverse()
        .expect("nonzero off domain");
    let mut h: Vec<F> = a
        .iter()
        .zip(&b)
        .zip(&c)
        .map(|((ai, bi), ci)| (*ai * *bi - *ci) * zg_inv)
        .collect();
    ntt.coset_inverse(d, &mut h);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::LinearCombination;
    use gzkp_ff::fields::Fr254;
    use gzkp_ff::Field;
    use gzkp_gpu_sim::v100;
    use gzkp_ntt::GzkpNtt;
    use gzkp_telemetry::NoopSink;

    fn sample_cs() -> ConstraintSystem<Fr254> {
        // A few multiplication constraints.
        let mut cs = ConstraintSystem::new();
        let out = cs.alloc_input(Fr254::from_u64(720));
        let a = cs.alloc(Fr254::from_u64(6));
        let b = cs.alloc(Fr254::from_u64(8));
        let c = cs.alloc(Fr254::from_u64(15));
        let ab = cs.alloc(Fr254::from_u64(48));
        cs.enforce(
            LinearCombination::from_var(a),
            LinearCombination::from_var(b),
            LinearCombination::from_var(ab),
        );
        cs.enforce(
            LinearCombination::from_var(ab),
            LinearCombination::from_var(c),
            LinearCombination::from_var(out),
        );
        cs.is_satisfied().unwrap();
        cs
    }

    #[test]
    fn h_is_a_polynomial_division() {
        // For a satisfied system, (AB − C) vanishes on the domain, so the
        // division is exact: check A·B − C == H·Z as polynomials by
        // evaluating at a random off-domain point.
        let cs = sample_cs();
        let qap = QapWitness::from_r1cs(&cs).unwrap();
        let h = poly_stage_cpu(&qap);
        let d = &qap.domain;
        // Interpolate a, b, c to coefficient form.
        let ntt = CpuNtt::reference();
        let mut ac = qap.a.clone();
        let mut bc = qap.b.clone();
        let mut cc = qap.c.clone();
        ntt.transform(d, &mut ac, Direction::Inverse);
        ntt.transform(d, &mut bc, Direction::Inverse);
        ntt.transform(d, &mut cc, Direction::Inverse);
        let x = Fr254::from_u64(0xdeadbeef);
        let eval = |coeffs: &[Fr254]| {
            let mut acc = Fr254::zero();
            let mut p = Fr254::one();
            for c in coeffs {
                acc += *c * p;
                p *= x;
            }
            acc
        };
        let lhs = eval(&ac) * eval(&bc) - eval(&cc);
        let rhs = eval(&h) * d.eval_vanishing(x);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn gpu_poly_matches_cpu() {
        let cs = sample_cs();
        let qap = QapWitness::from_r1cs(&cs).unwrap();
        let expect = poly_stage_cpu(&qap);
        let engine = GzkpNtt::auto::<Fr254>(v100());
        let out = poly_stage_traced(&qap, &engine, &NoopSink);
        assert_eq!(out.h, expect);
        // Seven NTT kernel groups must appear in the report.
        assert!(out.report.kernels.len() >= 7);
    }

    #[test]
    fn unsatisfied_system_breaks_divisibility() {
        let mut cs = sample_cs();
        cs.aux_assignment[0] = Fr254::from_u64(7); // corrupt witness
        assert!(cs.is_satisfied().is_err());
        let qap = QapWitness::from_r1cs(&cs).unwrap();
        let h = poly_stage_cpu(&qap);
        // The "division" is no longer exact; verify A·B − C != H·Z off domain.
        let d = &qap.domain;
        let ntt = CpuNtt::reference();
        let mut ac = qap.a.clone();
        let mut bc = qap.b.clone();
        let mut cc = qap.c.clone();
        ntt.transform(d, &mut ac, Direction::Inverse);
        ntt.transform(d, &mut bc, Direction::Inverse);
        ntt.transform(d, &mut cc, Direction::Inverse);
        let x = Fr254::from_u64(0x1234567);
        let eval = |coeffs: &[Fr254]| {
            let mut acc = Fr254::zero();
            let mut p = Fr254::one();
            for c in coeffs {
                acc += *c * p;
                p *= x;
            }
            acc
        };
        assert_ne!(
            eval(&ac) * eval(&bc) - eval(&cc),
            eval(&h) * d.eval_vanishing(x)
        );
    }
}
