//! Shared machinery for the simulated-clock benchmark harnesses.
//!
//! Every `benches/tableN_*.rs` / `benches/figN_*.rs` target prints a
//! human-readable table mirroring the paper's layout and appends a
//! machine-readable JSON record under `target/paper-results/` so
//! `EXPERIMENTS.md` can be regenerated reproducibly; the `fleet_*` and
//! `cluster_throughput` targets do the same for the simulated scaling
//! numbers CI gates.
//!
//! Every recorded value is priced by `gpu-sim`'s cost model or counted;
//! none is host time. The host clock has its own harness, `benchmark/`
//! at the repo root, and `tests/one_clock.rs` keeps it out of this crate.
//!
//! Scale policy: simulated sweeps (driven by the analytic cost models) run
//! the paper's full ranges; anything requiring per-element scalar synthesis
//! defaults to CI-friendly sizes and extends to the paper's maxima under
//! `GZKP_BENCH_FULL=1`.

#![warn(missing_docs)]

use gzkp_gpu_sim::device::{cpu_xeon, field_add_macs, field_mul_macs, DeviceConfig};
use gzkp_telemetry::{Trace, TraceNode};
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;

/// True when the full paper-scale sweep was requested.
pub fn full_mode() -> bool {
    std::env::var("GZKP_BENCH_FULL")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// One printed/recorded result row.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct ResultRow {
    /// Experiment id, e.g. `"table5"`.
    pub experiment: String,
    /// Row label, e.g. `"2^20"` or `"Sprout"`.
    pub label: String,
    /// Named measurements in milliseconds (or the unit in `unit`).
    pub values: Vec<(String, f64)>,
    /// Unit of the values.
    pub unit: String,
}

/// Collects rows and writes them as one JSON document per experiment.
#[derive(Debug)]
pub struct Recorder {
    experiment: String,
    rows: Vec<ResultRow>,
}

impl Recorder {
    /// Starts a recorder for the given experiment id.
    pub fn new(experiment: &str) -> Self {
        println!("\n=== {experiment} ===");
        Self {
            experiment: experiment.into(),
            rows: Vec::new(),
        }
    }

    /// Records and prints one row.
    pub fn row(&mut self, label: impl Into<String>, unit: &str, values: Vec<(String, f64)>) {
        let label = label.into();
        let rendered: Vec<String> = values
            .iter()
            .map(|(k, v)| format!("{k}={}", fmt_val(*v)))
            .collect();
        println!("{label:<16} {}", rendered.join("  "));
        self.rows.push(ResultRow {
            experiment: self.experiment.clone(),
            label,
            values,
            unit: unit.into(),
        });
    }

    /// Flushes JSON to `<workspace>/target/paper-results/<experiment>.json`
    /// plus a versioned telemetry trace (`BENCH_<experiment>.json`, one
    /// span per row) that `zkprof render`/`zkprof diff` consume — run a
    /// bench on two commits and diff the two `BENCH_*` files to gate on
    /// regressions.
    pub fn finish(self) {
        // Bench binaries run with the package dir as CWD; anchor at the
        // workspace target directory instead.
        let target = std::env::var("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
        let dir = target.join("paper-results");
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}.json", self.experiment));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = writeln!(f, "{}", serde_json::to_string_pretty(&self.rows).unwrap());
            println!("[written {}]", path.display());
        }
        let trace = self.to_trace();
        let trace_path = dir.join(format!("BENCH_{}.json", trace.root.name));
        if trace.write_to(&trace_path).is_ok() {
            println!("[written {}]", trace_path.display());
        }
    }

    /// Converts the recorded rows into a telemetry [`Trace`]: the root
    /// span is the experiment, each row becomes a child span whose
    /// counters are the row's measurements. When the rows are in
    /// milliseconds the first measurement doubles as the span time, so
    /// `zkprof diff` can gate per-row regressions.
    fn to_trace(&self) -> Trace {
        let mut root = TraceNode::new(self.experiment.clone());
        for row in &self.rows {
            let mut node = TraceNode::new(row.label.clone());
            for (name, v) in &row.values {
                node.counters.push((format!("{name} [{}]", row.unit), *v));
            }
            if row.unit == "ms" {
                if let Some((_, v)) = row.values.first() {
                    node.time_ns = v * 1e6;
                }
            }
            root.time_ns += node.time_ns;
            root.children.push(node);
        }
        // True of every row because `tests/one_clock.rs` lets no host time in.
        Trace::new("gzkp-bench", "simulated", root)
    }
}

fn fmt_val(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Formats a speedup column.
pub fn speedup(base: f64, ours: f64) -> f64 {
    if ours > 0.0 {
        base / ours
    } else {
        f64::INFINITY
    }
}

/// Simulated CPU (libsnark-class) NTT time in milliseconds.
///
/// Model: a fixed domain-setup overhead (libsnark recomputes and allocates
/// ω-power structures per call — the reason its small-scale times are flat
/// around ~0.1 s in Table 5) plus `N/2·log N` butterflies at two
/// multiplications each (the per-butterfly ω recomputation of §5.3),
/// parallel over the paper's 28-core host.
pub fn cpu_ntt_ms(log_n: u32, limbs: usize) -> f64 {
    let dev: DeviceConfig = cpu_xeon();
    let n = (1u64 << log_n) as f64;
    let butterflies = n / 2.0 * log_n as f64;
    let macs = butterflies * (2.0 * field_mul_macs(limbs) + 2.0 * field_add_macs(limbs));
    let thr = dev.mac64_per_ns_per_sm * dev.num_sms as f64 * 0.85; // parallel efficiency
    let fixed_ms = 95.0 * (limbs as f64 / 12.0); // domain setup, scaled by element width
    fixed_ms + macs / thr / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ntt_model_matches_paper_anchors() {
        // Table 5 Best-CPU, 753-bit: 2^14 ≈ 102 ms, 2^20 ≈ 2110 ms,
        // 2^26 ≈ 131441 ms. Accept the right order of magnitude.
        let t14 = cpu_ntt_ms(14, 12);
        let t20 = cpu_ntt_ms(20, 12);
        let t26 = cpu_ntt_ms(26, 12);
        assert!(t14 > 50.0 && t14 < 250.0, "2^14: {t14}");
        assert!(t20 > 700.0 && t20 < 5000.0, "2^20: {t20}");
        assert!(t26 > 50_000.0 && t26 < 300_000.0, "2^26: {t26}");
    }

    #[test]
    fn speedup_helper() {
        assert_eq!(speedup(10.0, 2.0), 5.0);
    }
}
