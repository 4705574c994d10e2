//! The one-clock rule, checked: `gzkp-bench` records only the simulated
//! clock, and `benchmark/` is the only code that times the host.
//!
//! `Recorder` labels every trace it writes `"device": "simulated"`, and
//! `zkprof diff` gates every row of those traces against baselines
//! committed from another machine. Both are only right while no host
//! time can get into a row, so this test reads the crate's own sources
//! and fails on anything that could put one there: a host clock
//! (`Instant`, `.elapsed()`, `SystemTime`), the wall-clock readings of a
//! `ReplayOutcome` (`.total`, `percentile_ms`, `throughput_per_s` — with
//! no reader in the crate, none can reach a `Recorder::row`), or a
//! dependency outside the workspace's own crates and the three data
//! crates the harness needs, which is how a timing harness would arrive.

use std::fs;
use std::path::Path;

/// Names whose presence in code (not comments) means host time.
const HOST_CLOCK: [&str; 6] = [
    "Instant",
    ".elapsed()",
    "SystemTime",
    ".total",
    "percentile_ms",
    "throughput_per_s",
];

/// External crates the harness may depend on; everything else must be a
/// `gzkp-*` workspace crate.
const DATA_CRATES: [&str; 3] = ["rand", "serde", "serde_json"];

/// Whether `code` contains `name` as a whole name: `throughput_per_s`
/// matches, `BatchedNtt::throughput_per_sec` (a simulated figure) and
/// `.total_ns()` do not.
fn names(code: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + name.len()..].chars().next();
        let starts_clean = !name.starts_with(ident) || !before.is_some_and(ident);
        starts_clean && !after.is_some_and(ident)
    })
}

fn scan_sources(dir: &Path, found: &mut Vec<String>) {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{}: no sources to scan", dir.display());
    for path in files {
        let text = fs::read_to_string(&path).expect("source file");
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            for name in HOST_CLOCK {
                if names(code, name) {
                    found.push(format!("{}:{}: `{name}`", path.display(), i + 1));
                }
            }
        }
    }
}

fn scan_manifest(path: &Path, found: &mut Vec<String>) {
    let text = fs::read_to_string(path).expect("manifest");
    let mut in_deps = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line.contains("dependencies");
            continue;
        }
        let Some((name, _)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        if in_deps && !name.starts_with("gzkp-") && !DATA_CRATES.contains(&name) {
            found.push(format!("{}:{}: dependency `{name}`", path.display(), i + 1));
        }
    }
}

#[test]
fn bench_crate_records_only_the_simulated_clock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    scan_sources(&root.join("src"), &mut found);
    scan_sources(&root.join("benches"), &mut found);
    scan_manifest(&root.join("Cargo.toml"), &mut found);
    assert!(
        found.is_empty(),
        "host time can reach a trace labelled \"simulated\" — time the host in benchmark/ instead:\n{}",
        found.join("\n")
    );
}

#[test]
fn whole_name_matching() {
    assert!(names("let t0 = Instant::now();", "Instant"));
    assert!(names("outcome.total.as_secs_f64()", ".total"));
    assert!(names("service.throughput_per_s(),", "throughput_per_s"));
    assert!(!names("ntt.throughput_per_sec(n)", "throughput_per_s"));
    assert!(!names("report.total_ns()", ".total"));
    assert!(!names("tl.elapsed_ns()", ".elapsed()"));
}
