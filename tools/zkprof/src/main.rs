//! `zkprof` — render and diff GZKP prover traces.
//!
//! ```text
//! zkprof render <trace.json> [--timeline]
//! zkprof diff <base.json> <new.json> [--threshold <fraction>]
//! zkprof flame <trace.json> [-o <out.folded>]
//! zkprof slo <metrics.json> [--max-miss-rate F] [--max-queue-p99-ms F]
//!                           [--max-quarantine-frac F]
//! ```
//!
//! `render` pretty-prints the span tree of a `gzkp-trace.json` with the
//! same per-stage kernel tables the benches print. `render --timeline`
//! instead draws a fleet trace's per-device command streams (`runtime →
//! dev{n} → {h2d,kernel,d2h,p2p}`, as written by `zkserve --fleet-trace`)
//! as aligned ASCII rows on one time axis, making transfer/compute
//! overlap across devices visible at a glance. Lane glyphs: `=` H2D
//! uploads, `#` kernels, `-` D2H downloads, `^` device↔device P2P
//! transfers (the cross-device MSM's partial-sum merges; the lane only
//! appears when a run used it), `!` health events. `diff` compares two traces
//! span-by-span and exits with status 1 when any stage slowed down by
//! more than the threshold (default 5%) or the span trees no longer line
//! up — so it can gate CI on performance regressions.
//!
//! `flame` exports a trace's span tree in the flamegraph "folded" stack
//! format (`frame;frame count` per line, counts in self-time
//! nanoseconds), ready for `flamegraph.pl`, inferno, or speedscope;
//! `-o PATH` writes to a file instead of stdout. `slo` evaluates a
//! metrics snapshot (as written by `zkserve run --metrics`) against SLO
//! thresholds and exits with status 1 on any burn-rate alert — the CI
//! gate for chaos smoke runs. Flags override the default policy; pass
//! `--max-miss-rate 0` to require a run with zero deadline misses.

use std::process::ExitCode;

use gzkp_telemetry::{
    diff_traces, folded_stacks, render_timeline, render_trace, DeltaKind, MetricsSnapshot,
    SloPolicy, Trace, TraceError,
};

const DEFAULT_THRESHOLD: f64 = 0.05;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  zkprof render <trace.json> [--timeline]\n  \
         zkprof diff <base.json> <new.json> [--threshold <fraction>]\n  \
         zkprof flame <trace.json> [-o <out.folded>]\n  \
         zkprof slo <metrics.json> [--max-miss-rate F] [--max-queue-p99-ms F] \
         [--max-quarantine-frac F] [--max-cluster-lost N]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Trace, ExitCode> {
    match Trace::read_from(path) {
        Ok(t) => Ok(t),
        Err(TraceError::SchemaVersion { found, expected }) => {
            eprintln!("zkprof: {path}: trace schema v{found}, this tool reads v{expected}");
            Err(ExitCode::from(2))
        }
        Err(e) => {
            eprintln!("zkprof: {path}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("render") => {
            let Some((path, timeline)) = parse_render_args(&args[1..]) else {
                return usage();
            };
            let trace = match load(&path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            if timeline {
                match render_timeline(&trace) {
                    Some(text) => print!("{text}"),
                    None => {
                        eprintln!(
                            "zkprof: {path}: no `runtime` device lanes — not a fleet trace \
                             (produce one with `zkserve run … --devices N --fleet-trace …`)"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                print!("{}", render_trace(&trace));
            }
            ExitCode::SUCCESS
        }
        Some("diff") => {
            let (paths, threshold) = match parse_diff_args(&args[1..]) {
                Some(v) => v,
                None => return usage(),
            };
            let base = match load(&paths.0) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let new = match load(&paths.1) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let diff = diff_traces(&base, &new, threshold);
            print!("{}", diff.render());
            if diff.is_regression() {
                eprintln!(
                    "zkprof: regression: {} stage(s), {} counter(s), {} histogram(s) \
                     beyond {:.1}% and/or shape mismatch",
                    diff.regressions(DeltaKind::Span).count(),
                    diff.regressions(DeltaKind::Counter).count(),
                    diff.regressions(DeltaKind::Histogram).count(),
                    threshold * 100.0
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("flame") => {
            let Some((path, out)) = parse_flame_args(&args[1..]) else {
                return usage();
            };
            let trace = match load(&path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let folded = folded_stacks(&trace);
            match out {
                Some(out_path) => {
                    if let Err(e) = std::fs::write(&out_path, &folded) {
                        eprintln!("zkprof: {out_path}: {e}");
                        return ExitCode::from(2);
                    }
                    eprintln!("zkprof: folded stacks written to {out_path}");
                }
                None => print!("{folded}"),
            }
            ExitCode::SUCCESS
        }
        Some("slo") => {
            let Some((path, policy)) = parse_slo_args(&args[1..]) else {
                return usage();
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("zkprof: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let snapshot = match MetricsSnapshot::from_json(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("zkprof: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let report = policy.evaluate(&snapshot);
            println!("{}", report.render());
            if report.healthy {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// Parses `<trace.json> [-o <out.folded>]`.
fn parse_flame_args(rest: &[String]) -> Option<(String, Option<String>)> {
    let mut path = None;
    let mut out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" => out = Some(it.next()?.to_string()),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return None,
        }
    }
    Some((path?, out))
}

/// Parses `<metrics.json>` plus SLO threshold overrides.
fn parse_slo_args(rest: &[String]) -> Option<(String, SloPolicy)> {
    let mut path = None;
    let mut policy = SloPolicy::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-miss-rate" => {
                let v: f64 = it.next()?.parse().ok()?;
                if !v.is_finite() || v < 0.0 {
                    return None;
                }
                policy.max_deadline_miss_rate = v;
            }
            "--max-queue-p99-ms" => {
                let v: f64 = it.next()?.parse().ok()?;
                if !v.is_finite() || v < 0.0 {
                    return None;
                }
                policy.max_queue_wait_p99_ns = (v * 1e6) as u64;
            }
            "--max-quarantine-frac" => {
                let v: f64 = it.next()?.parse().ok()?;
                if !v.is_finite() || v < 0.0 {
                    return None;
                }
                policy.max_quarantine_frac = v;
            }
            "--max-cluster-lost" => {
                policy.max_cluster_lost_jobs = it.next()?.parse().ok()?;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return None,
        }
    }
    Some((path?, policy))
}

/// Parses `<trace.json> [--timeline]`.
fn parse_render_args(rest: &[String]) -> Option<(String, bool)> {
    let mut path = None;
    let mut timeline = false;
    for arg in rest {
        match arg.as_str() {
            "--timeline" => timeline = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return None,
        }
    }
    Some((path?, timeline))
}

/// Parses `<base> <new> [--threshold <fraction>]`.
fn parse_diff_args(rest: &[String]) -> Option<((String, String), f64)> {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--threshold" {
            threshold = it.next()?.parse().ok()?;
            if !threshold.is_finite() || threshold < 0.0 {
                return None;
            }
        } else if arg.starts_with("--") {
            return None;
        } else {
            paths.push(arg);
        }
    }
    let [base, new] = paths.as_slice() else {
        return None;
    };
    Some((((*base).clone(), (*new).clone()), threshold))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn render_args_parse() {
        assert_eq!(
            parse_render_args(&s(&["t.json"])),
            Some(("t.json".into(), false))
        );
        assert_eq!(
            parse_render_args(&s(&["t.json", "--timeline"])),
            Some(("t.json".into(), true))
        );
        assert_eq!(
            parse_render_args(&s(&["--timeline", "t.json"])),
            Some(("t.json".into(), true))
        );
        assert!(parse_render_args(&s(&[])).is_none());
        assert!(parse_render_args(&s(&["t.json", "--bogus"])).is_none());
        assert!(parse_render_args(&s(&["a.json", "b.json"])).is_none());
    }

    #[test]
    fn diff_args_default_threshold() {
        let ((b, n), t) = parse_diff_args(&s(&["a.json", "b.json"])).unwrap();
        assert_eq!(b, "a.json");
        assert_eq!(n, "b.json");
        assert_eq!(t, DEFAULT_THRESHOLD);
    }

    #[test]
    fn diff_args_explicit_threshold() {
        let (_, t) = parse_diff_args(&s(&["a.json", "b.json", "--threshold", "0.25"])).unwrap();
        assert_eq!(t, 0.25);
    }

    #[test]
    fn flame_args_parse() {
        assert_eq!(
            parse_flame_args(&s(&["t.json"])),
            Some(("t.json".into(), None))
        );
        assert_eq!(
            parse_flame_args(&s(&["t.json", "-o", "out.folded"])),
            Some(("t.json".into(), Some("out.folded".into())))
        );
        assert!(parse_flame_args(&s(&[])).is_none());
        assert!(parse_flame_args(&s(&["t.json", "--bogus"])).is_none());
    }

    #[test]
    fn slo_args_parse_and_override() {
        let (path, policy) = parse_slo_args(&s(&["m.json"])).unwrap();
        assert_eq!(path, "m.json");
        assert_eq!(policy, SloPolicy::default());
        let (_, policy) = parse_slo_args(&s(&[
            "m.json",
            "--max-miss-rate",
            "0",
            "--max-queue-p99-ms",
            "250",
            "--max-quarantine-frac",
            "0.5",
        ]))
        .unwrap();
        assert_eq!(policy.max_deadline_miss_rate, 0.0);
        assert_eq!(policy.max_queue_wait_p99_ns, 250_000_000);
        assert_eq!(policy.max_quarantine_frac, 0.5);
        assert!(parse_slo_args(&s(&["m.json", "--max-miss-rate", "-1"])).is_none());
        assert!(parse_slo_args(&s(&["m.json", "--max-miss-rate", "nan"])).is_none());
        assert!(parse_slo_args(&s(&["a.json", "b.json"])).is_none());
    }

    #[test]
    fn diff_args_rejects_bad_input() {
        assert!(parse_diff_args(&s(&["a.json"])).is_none());
        assert!(parse_diff_args(&s(&["a.json", "b.json", "c.json"])).is_none());
        assert!(parse_diff_args(&s(&["a.json", "b.json", "--bogus"])).is_none());
        assert!(parse_diff_args(&s(&["a.json", "b.json", "--threshold", "-1"])).is_none());
        assert!(parse_diff_args(&s(&["a.json", "b.json", "--threshold", "nan"])).is_none());
    }
}
