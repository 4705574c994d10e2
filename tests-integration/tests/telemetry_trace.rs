//! Cross-crate telemetry tests: the prover's span tree must match the
//! paper's pipeline shape (7 NTTs in POLY, 5 MSMs), counters must be
//! populated, the JSON trace must round-trip, and the no-op sink path
//! must be bit-identical to the plain prover.

use gzkp_curves::bn254::{Bn254, Fr};
use gzkp_ff::Field;
use gzkp_gpu_sim::v100;
use gzkp_groth16::r1cs::{ConstraintSystem, LinearCombination};
use gzkp_groth16::{prove, prove_with_telemetry, setup, verify, ProveReport, ProverEngines};
use gzkp_msm::GzkpMsm;
use gzkp_ntt::GzkpNtt;
use gzkp_telemetry::{names, NoopSink, Trace, TraceNode, TraceRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small multiplication circuit with a few constraints and witnesses.
fn sample_cs() -> ConstraintSystem<Fr> {
    let mut cs = ConstraintSystem::new();
    let out = cs.alloc_input(Fr::from_u64(720));
    let a = cs.alloc(Fr::from_u64(6));
    let b = cs.alloc(Fr::from_u64(8));
    let c = cs.alloc(Fr::from_u64(15));
    let ab = cs.alloc(Fr::from_u64(48));
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

fn traced_prove() -> Trace {
    let mut rng = StdRng::seed_from_u64(7);
    let cs = sample_cs();
    let (pk, vk) = setup::<Bn254, _>(&cs, &mut rng).expect("setup");
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let msm = GzkpMsm::new(v100());
    let msm_g2 = GzkpMsm::new(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm,
        msm_g2: &msm_g2,
    };
    let recorder = TraceRecorder::new(v100().name);
    let (proof, _) = prove_with_telemetry(&cs, &pk, &engines, &mut rng, &recorder).expect("prove");
    assert!(verify::<Bn254>(&vk, &proof, &[Fr::from_u64(720)]));
    recorder.finish()
}

/// Sums a counter over `node` and all its descendants.
fn counter_deep(node: &TraceNode, name: &str) -> f64 {
    let below: f64 = node.children.iter().map(|c| counter_deep(c, name)).sum();
    node.counter(name).unwrap_or(0.0) + below
}

#[test]
fn span_tree_matches_paper_pipeline() {
    let trace = traced_prove();

    // POLY: exactly the paper's seven NTTs, in order.
    let poly = trace.find(&["prove", "poly"]).expect("poly span");
    let ntt_names: Vec<&str> = poly.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        ntt_names,
        ["ntt[0]", "ntt[1]", "ntt[2]", "ntt[3]", "ntt[4]", "ntt[5]", "ntt[6]"]
    );
    for ntt in &poly.children {
        assert!(
            ntt.counter(names::NTT_FIELD_MULS).unwrap_or(0.0) > 0.0,
            "{} must count field muls",
            ntt.name
        );
        assert!(
            ntt.counter(names::MAC_OPS).unwrap_or(0.0) > 0.0,
            "{} must roll up kernel MACs",
            ntt.name
        );
        assert!(
            !ntt.kernels.is_empty(),
            "{} must carry kernel reports",
            ntt.name
        );
        assert!(ntt.time_ns > 0.0);
    }

    // MSM: the five inner products of §5.2.
    let msm = trace.find(&["prove", "msm"]).expect("msm span");
    let msm_names: Vec<&str> = msm.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(msm_names, ["a", "b_g1", "h", "l", "b_g2"]);
    for child in &msm.children {
        assert!(
            child.counter(names::MSM_PADD).unwrap_or(0.0) > 0.0,
            "{} must count PADDs",
            child.name
        );
        assert!(
            child.value(names::PEAK_DEVICE_BYTES).unwrap_or(0.0) > 0.0,
            "{} must report peak device memory",
            child.name
        );
        assert!(!child.kernels.is_empty());
        assert!(
            child
                .histograms
                .iter()
                .any(|h| h.name == "bucket_occupancy"),
            "{} must carry a bucket-occupancy histogram",
            child.name
        );
    }

    // Rollups visible from the root.
    let prove_span = trace.find(&["prove"]).expect("prove span");
    assert!(counter_deep(prove_span, names::MAC_OPS) > 0.0);
    assert!(counter_deep(prove_span, names::DRAM_SECTORS) > 0.0);
    assert!(prove_span.time_ns >= poly.time_ns + msm.time_ns);
}

#[test]
fn plonk_span_tree_uses_per_backend_stage_labels() {
    use gzkp_plonk::PlonkCircuit;
    use gzkp_proof_system::Engines;

    let mut rng = StdRng::seed_from_u64(21);
    let cs = sample_cs();
    let circuit = PlonkCircuit::from_r1cs(&cs);
    let (pk, vk) = gzkp_plonk::setup::<Bn254, _>(&circuit, &mut rng).expect("setup");
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let msm = GzkpMsm::new(v100());
    let engines = Engines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm,
        msm_g2: &msm,
    };
    let recorder = TraceRecorder::new(v100().name);
    let (bytes, _) = gzkp_plonk::prove_bytes(&circuit, &pk, &engines, 9, &recorder).expect("prove");
    assert!(gzkp_plonk::verify_bytes::<Bn254>(
        &vk,
        circuit.public_inputs(),
        &bytes
    ));
    let trace = recorder.finish();

    // The MSM stage carries PLONK's nine commitment/opening MSMs under
    // PLONK's own labels, not Groth16's five (the stage also nests its
    // coset-NTT helper spans, which we skip here).
    let stages = names::PLONK_MSM_STAGES;
    let msm_span = trace.find(&["prove", "msm"]).expect("msm span");
    let commits: Vec<_> = msm_span
        .children
        .iter()
        .filter(|c| stages.contains(&c.name.as_str()))
        .collect();
    let names: Vec<&str> = commits.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names.as_slice(), stages);
    for child in commits {
        assert!(
            child.counter(names::MSM_PADD).unwrap_or(0.0) > 0.0,
            "{} must count PADDs through the shared engine",
            child.name
        );
        assert!(!child.kernels.is_empty());
    }

    // And the rendered view labels the PLONK stages.
    let rendered = gzkp_telemetry::render_trace(&trace);
    assert!(rendered.contains("wires_a"));
    assert!(rendered.contains("open_zw"));
}

#[test]
fn trace_json_roundtrips_through_disk_format() {
    let trace = traced_prove();
    let json = trace.to_json();
    let back = Trace::from_json(&json).expect("parse");
    assert_eq!(back.schema_version, gzkp_telemetry::SCHEMA_VERSION);
    assert_eq!(trace, back);
    // And the rendered view still contains the pipeline stages.
    let rendered = gzkp_telemetry::render_trace(&back);
    assert!(rendered.contains("prove"));
    assert!(rendered.contains("ntt[6]"));
    assert!(rendered.contains("b_g2"));
}

#[test]
fn prove_report_roundtrips_as_json() {
    let mut rng = StdRng::seed_from_u64(11);
    let cs = sample_cs();
    let (pk, _) = setup::<Bn254, _>(&cs, &mut rng).expect("setup");
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let msm = GzkpMsm::new(v100());
    let msm_g2 = GzkpMsm::new(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm,
        msm_g2: &msm_g2,
    };
    let (_, report) = prove(&cs, &pk, &engines, &mut rng).expect("prove");

    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let back: ProveReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(report.poly.kernels.len(), back.poly.kernels.len());
    assert_eq!(report.msm.kernels.len(), back.msm.kernels.len());
    assert!((report.total_ms() - back.total_ms()).abs() < 1e-12);
    for (k, kb) in report.msm.kernels.iter().zip(&back.msm.kernels) {
        assert_eq!(k.name, kb.name);
        assert!((k.time_ns - kb.time_ns).abs() < 1e-9);
    }
}

#[test]
fn noop_sink_path_is_identical_to_plain_prove() {
    // `prove` delegates to `prove_with_telemetry(&NoopSink)`; verify the
    // explicit no-op path produces the exact same proof and report as a
    // recorded run with the same RNG seed (telemetry must not perturb
    // the computation).
    let cs = sample_cs();
    let mut rng = StdRng::seed_from_u64(3);
    let (pk, _) = setup::<Bn254, _>(&cs, &mut rng).expect("setup");
    let ntt = GzkpNtt::auto::<Fr>(v100());
    let msm = GzkpMsm::new(v100());
    let msm_g2 = GzkpMsm::new(v100());
    let engines = ProverEngines::<Bn254> {
        ntt: &ntt,
        msm_g1: &msm,
        msm_g2: &msm_g2,
    };

    let mut rng1 = StdRng::seed_from_u64(99);
    let (proof1, report1) = prove(&cs, &pk, &engines, &mut rng1).expect("prove");
    let mut rng2 = StdRng::seed_from_u64(99);
    let (proof2, report2) =
        prove_with_telemetry(&cs, &pk, &engines, &mut rng2, &NoopSink).expect("prove");
    let mut rng3 = StdRng::seed_from_u64(99);
    let recorder = TraceRecorder::new("V100");
    let (proof3, report3) =
        prove_with_telemetry(&cs, &pk, &engines, &mut rng3, &recorder).expect("prove");

    assert_eq!(proof1, proof2);
    assert_eq!(proof1, proof3);
    assert_eq!(report1.total_ms(), report2.total_ms());
    assert_eq!(report1.total_ms(), report3.total_ms());
}
