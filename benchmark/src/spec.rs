//! The benchmark's vocabulary: workload names, metric names and units.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two equal.

use serde::Value;

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["groth16_warm", "plonk_warm", "ntt_2p18", "service_mixed"];

/// End-to-end metrics `(name, unit)`: host wall-clock, tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. Layer = crate
/// name = the prefix before the first dot.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("ff.fr254_mul_ns", "ns"),
    ("ff.fq254_mul_ns", "ns"),
    ("ff.fq381_mul_ns", "ns"),
    ("ff.fq254_inv_ns", "ns"),
    ("ff.batch_inverse_ns_per_elem", "ns"),
    ("curves.bn254_g1_add_mixed_ns", "ns"),
    ("curves.bn254_g1_double_ns", "ns"),
    ("curves.bn254_g2_add_mixed_ns", "ns"),
    ("curves.bls12_381_g1_add_mixed_ns", "ns"),
    ("curves.batch_add_affine_ns_per_pair", "ns"),
    ("curves.bn254_pairing_ms", "ms"),
    ("ntt.calls_per_op", "count"),
    ("ntt.busy_ms_per_op", "ms"),
    ("ntt.ns_per_butterfly", "ns"),
    ("ntt.par_speedup", "ratio"),
    ("msm.g1_calls_per_op", "count"),
    ("msm.g2_calls_per_op", "count"),
    ("msm.g1_busy_ms_per_op", "ms"),
    ("msm.g2_busy_ms_per_op", "ms"),
    ("msm.g1_ns_per_point", "ns"),
    ("msm.g2_ns_per_point", "ns"),
    ("msm.overlap_ratio", "ratio"),
    ("msm.batch_padds_per_op", "count"),
    ("msm.batch_inversions_per_op", "count"),
    ("msm.par_speedup", "ratio"),
    ("msm.preprocess_ms", "ms"),
    ("msm.store_hits", "count"),
    ("msm.store_misses", "count"),
    ("msm.store_evictions", "count"),
    ("msm.store_mib", "MiB"),
    ("gpu-sim.sim_proof_ms", "ms"),
    ("gpu-sim.sim_poly_ms", "ms"),
    ("gpu-sim.sim_msm_ms", "ms"),
    ("groth16.keygen_s", "s"),
    ("groth16.poly_ms", "ms"),
    ("groth16.poly_self_ms", "ms"),
    ("groth16.msm_stage_ms", "ms"),
    ("groth16.msm_self_ms", "ms"),
    ("groth16.verify_ms", "ms"),
    ("plonk.keygen_s", "s"),
    ("plonk.poly_ms", "ms"),
    ("plonk.step_ms.wires", "ms"),
    ("plonk.step_ms.perm_z", "ms"),
    ("plonk.step_ms.quotient", "ms"),
    ("plonk.step_ms.open", "ms"),
    ("plonk.finish_ms", "ms"),
    ("plonk.self_ms", "ms"),
    ("plonk.verify_ms", "ms"),
    ("proof-system.checkpoint_bytes", "bytes"),
    ("proof-system.checkpoint_encode_ms", "ms"),
    ("proof-system.checkpoint_decode_ms", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.execute_ms_p50", "ms"),
    ("service.overhead_ms_p50", "ms"),
    ("service.req_ms_p90", "ms"),
    ("service.rejected", "count"),
    ("service.deadline_missed", "count"),
    ("service.retries", "count"),
    ("telemetry.sink_overhead_frac", "ratio"),
    ("workloads.synth_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.op_ms_p50_untraced", "ms"),
    ("bench.op_ms_tail", "ms"),
    ("bench.ops_per_s_window", "1/s"),
    ("bench.failed_frac", "ratio"),
    ("bench.loadavg_start", "load"),
    ("bench.loadavg_end", "load"),
];

/// A full set of values for one of the tables above. Every name of the
/// table is always present (0 where a layer does no work on a workload),
/// so what a run emits is exactly what `BENCHMARK.json` lists.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// All-zero values for `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list: emitting it would break
    /// the contract with `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's table"));
        self.values[slot] = value;
    }

    /// Reads `name`; 0 for an unknown name.
    pub fn get(&self, name: &str) -> f64 {
        self.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2)
    }

    /// `(name, unit, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| (*name, *unit, *v))
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the result line's shape.
    pub fn to_json(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(name, unit, value)| {
                    (
                        name.to_string(),
                        Value::Map(vec![
                            ("value".into(), Value::F64(value)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The repo-root `BENCHMARK.json`, compiled in so `repeat` reads the
/// bounds the driver will apply.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Direction and bound of an end-to-end metric, as `BENCHMARK.json` has them.
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the median by which the metric may get worse.
    pub bound: f64,
}

impl Bound {
    /// By what share of `before` the metric got worse in `after`
    /// (negative: better).
    pub fn worsening(&self, before: f64, after: f64) -> f64 {
        let change = (after - before) / before;
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }

    /// Whether two sets of runs of the same code agree: neither is worse
    /// than the other by more than the bound. A second set that is much
    /// better is as much a disagreement as one that is much worse.
    pub fn agree(&self, first: f64, second: f64) -> bool {
        self.worsening(first, second).abs() <= self.bound
    }
}

/// The end-to-end metrics' bounds in `BENCHMARK.json`.
pub fn bounds() -> Vec<Bound> {
    let doc = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Some(Value::Seq(list)) = doc.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    list.iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Value::as_str).expect("metric field");
            Bound {
                name: text("name").to_string(),
                higher_is_better: text("better") == "higher",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .expect("metric bound"),
            }
        })
        .collect()
}

/// `run_seconds` of `BENCHMARK.json`: the default measuring window.
pub fn run_seconds() -> f64 {
    serde_json::parse_value(BENCHMARK_JSON)
        .expect("BENCHMARK.json parses")
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Seq(list)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        list.iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_names_and_units_equal_benchmark_json() {
        let doc = serde_json::parse_value(BENCHMARK_JSON).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        // What a run emits is the table, whatever was set.
        let mut m = Metrics::new(&END_TO_END);
        m.set("op_ms_p50", 1.5);
        let emitted: Vec<(String, String)> = m
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(emitted, owned(&END_TO_END));
        assert_eq!(m.get("op_ms_p50"), 1.5);
    }

    #[test]
    fn names_and_units_use_the_contract_alphabet() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "bad workload name {w}");
        }
        for b in bounds() {
            // ISSUE 13's floor, the driver's cap.
            assert!((0.10..=0.25).contains(&b.bound), "{} bound", b.name);
        }
        let throughput = &bounds()[2];
        assert!(throughput.higher_is_better);
        assert_eq!(throughput.worsening(10.0, 9.0), 0.1);
        assert_eq!(bounds()[1].worsening(10.0, 9.0), -0.1);
        // 30 % apart is a disagreement whichever half is the better one.
        assert!(throughput.agree(10.0, 9.0) && throughput.agree(9.0, 10.0));
        assert!(!throughput.agree(10.0, 7.0) && !throughput.agree(7.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's table")]
    fn unknown_metric_is_refused() {
        Metrics::new(&END_TO_END).set("made_up", 1.0);
    }
}
