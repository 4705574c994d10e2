//! `gzkp-benchmark run | repeat | setup` — see `README.md` beside this crate.

use gzkp_benchmark::run::{self, Args, Outcome};
use gzkp_benchmark::spec::{self, WORKLOADS};
use gzkp_benchmark::stats::{median, quartile_spread};
use gzkp_benchmark::workloads::{Sizes, Window};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage:
  gzkp-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
  gzkp-benchmark repeat [--runs N] [--seed S] [--seconds N]
  gzkp-benchmark setup --workload W [--seed S]

run     one workload in this process (--workload), or all four, each
        untraced then traced in a child process of its own
repeat  the whole untraced benchmark N times (default 5), run i with
        seed S+i; prints the calibration table and fails when the two
        halves of the runs disagree by more than a metric's bound, either way
setup   (what `run` spawns for its set-up samples) sets one workload up
        once and prints how many seconds that took";

/// Parsed command line.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                cli.seconds = Some(s);
            }
            "--runs" => {
                cli.runs = value.parse().map_err(|_| bad())?;
                if !(2..=100).contains(&cli.runs) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

impl Cli {
    /// The measuring window, seconds: `run_seconds` of `BENCHMARK.json`
    /// unless `--seconds` says otherwise.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or_else(spec::run_seconds)
    }
}

/// The benchmark's own directory: results and traces go to `out/` in it.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out")
}

fn write_out(name: &str, text: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

/// Commit of the checkout the benchmark runs in, read from `.git` in the
/// working directory only (the driver's checkout has none).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".into(),
        c => c.into(),
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Set-up samples are taken until there are this many ...
const SETUP_SAMPLES_MIN: usize = 3;
/// ... and they add up to this long, or there are [`SETUP_SAMPLES_MAX`]:
/// a set-up of half a second needs more samples than one of seven to
/// give a steady median.
const SETUP_SAMPLES_TOTAL: Duration = Duration::from_secs(4);
const SETUP_SAMPLES_MAX: usize = 9;

fn args_of<'a>(cli: &Cli, workload: &'a str) -> Args<'a> {
    Args {
        workload,
        seed: cli.seed,
        window: Window::Seconds(cli.seconds()),
        traced: cli.traced,
        sizes: Sizes::FULL,
    }
}

/// `setup`: one set-up in this process, its duration on standard output.
fn setup_probe(cli: &Cli, workload: &str) -> Result<bool, String> {
    println!("{}", run::setup_only(&args_of(cli, workload))?);
    Ok(true)
}

/// Times set-up in child processes of their own, one after another, so
/// that every sample starts cold and none of them counts towards this
/// process's peak RSS. Leaves room for the caller's own set-up as the
/// last sample.
fn probe_setups(cli: &Cli, workload: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    while samples.len() + 1 < SETUP_SAMPLES_MIN
        || (samples.len() + 1 < SETUP_SAMPLES_MAX
            && samples.iter().sum::<f64>() < SETUP_SAMPLES_TOTAL.as_secs_f64())
    {
        // `output` waits for the child to end.
        let out = Command::new(&exe)
            .args(["setup", "--workload", workload])
            .args(["--seed", &cli.seed.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        let seconds = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        samples.push(seconds.map_err(|_| {
            format!(
                "set-up probe failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?);
    }
    Ok(samples)
}

/// Runs one workload in this process and prints its report; the result
/// line is the last thing on standard output.
fn run_one(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = args_of(cli, workload);
    let mut setup_s = if cli.traced {
        Vec::new()
    } else {
        probe_setups(cli, workload)?
    };
    let mut outcome = run::run(&args)?;
    if !cli.traced {
        setup_s.push(outcome.metrics.get("setup_s"));
        outcome.metrics.set("setup_s", median(&setup_s));
        outcome.conditions.push((
            "setup_s_each".into(),
            Value::Seq(setup_s.into_iter().map(Value::F64).collect()),
        ));
    }
    outcome
        .conditions
        .push(("commit".into(), Value::Str(git_commit())));
    outcome
        .conditions
        .push(("rustc".into(), Value::Str(rustc_version())));
    report(workload, cli.traced, &outcome);
    Ok(outcome.correct())
}

fn report(workload: &str, traced: bool, outcome: &Outcome) {
    let clock = if traced {
        "per-layer, traced run"
    } else {
        "end to end, host wall-clock, tracing off"
    };
    println!("# {workload} ({clock})");
    for (name, unit, value) in outcome.metrics.iter() {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "checks: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for e in &outcome.errors {
        println!("failure: {e}");
    }
    let kind = if traced { "traced" } else { "untraced" };
    if let Some(trace) = &outcome.trace {
        let text = serde_json::to_string(&trace.to_json()).expect("a value tree always prints");
        write_out(&format!("trace_{workload}.json"), &text);
    }
    let conditions = outcome.conditions_line();
    let result = outcome.result_line();
    write_out(
        &format!("result_{workload}_{kind}.json"),
        &format!("{conditions}\n{result}\n"),
    );
    println!("conditions {conditions}");
    println!("{result}");
}

/// What a child run printed: its conditions record and its result line.
struct ChildRun {
    conditions: Value,
    result: Value,
}

impl ChildRun {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }
    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Value::Bool(true))
    }
    fn digest(&self) -> &str {
        self.conditions
            .get("output_digest")
            .and_then(Value::as_str)
            .unwrap_or("")
    }
}

/// Runs one workload in a child process of its own, so its peak RSS and
/// its set-up are its own. `echo` passes the child's report through.
fn child(
    cli: &Cli,
    workload: &str,
    seed: u64,
    traced: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    cmd.args(["--seconds", &cli.seconds().to_string()]);
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| serde_json::parse_value(l).ok());
    let conditions = lines
        .next()
        .and_then(|l| l.strip_prefix("conditions "))
        .and_then(|l| serde_json::parse_value(l).ok());
    match (result, conditions) {
        (Some(result), Some(conditions)) => Ok(ChildRun { conditions, result }),
        _ => Err(format!(
            "{workload} (seed {seed}, traced {traced}) printed no result ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Limits on the benchmark's own health that `run` over all workloads
/// enforces on every traced child. A single-workload run only prints the
/// two values: its exit code speaks of the outputs, and on `service_mixed`
/// one window's overhead ratio moves by ±0.03 with the host alone.
const HEALTH_LIMITS: [(&str, f64); 2] = [
    ("bench.trace_overhead_frac", 0.05),
    ("bench.unattributed_frac", 0.10),
];

/// All four workloads, each untraced then traced.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for workload in WORKLOADS {
        let untraced = child(cli, workload, cli.seed, false, true)?;
        let traced = child(cli, workload, cli.seed, true, true)?;
        ok &= untraced.correct() && traced.correct();
        for (name, limit) in HEALTH_LIMITS {
            let value = traced.metric(name);
            if value > limit {
                println!("failure: {workload}: {name} is {value:.4}, over its limit of {limit}");
                ok = false;
            }
        }
        if untraced.digest() != traced.digest() {
            println!(
                "failure: {workload}: traced and untraced runs disagree on outputs or simulated times ({} vs {})",
                traced.digest(),
                untraced.digest()
            );
            ok = false;
        }
    }
    Ok(ok)
}

/// The calibration: N untraced runs of everything, as markdown.
fn repeat(cli: &Cli) -> Result<bool, String> {
    let bounds = spec::bounds();
    let mut runs: Vec<Vec<ChildRun>> = Vec::new();
    for i in 0..cli.runs {
        let seed = cli.seed + i as u64;
        eprintln!("run {} of {} (seed {seed})", i + 1, cli.runs);
        let mut row = Vec::new();
        for workload in WORKLOADS {
            row.push(child(cli, workload, seed, false, false)?);
        }
        runs.push(row);
    }
    let first = &runs[0][0].conditions;
    let text = |key| first.get(key).and_then(Value::as_str).unwrap_or("unknown");
    println!("# Calibration\n");
    println!(
        "{} untraced runs of every workload, run *i* with seed {}+*i*, window {} s, \
         on {} cores, {}, commit {}. Load average at the start of the first run {}, \
         at the end of the last {}.\n",
        cli.runs,
        cli.seed,
        cli.seconds(),
        first.get("nproc").and_then(Value::as_u64).unwrap_or(0),
        text("rustc"),
        text("commit"),
        first
            .get("loadavg_start")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        runs[cli.runs - 1][WORKLOADS.len() - 1]
            .conditions
            .get("loadavg_end")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    );
    println!(
        "`range` is (max − min) ÷ median. `iqr` is the distance between the first and third \
         quartile ÷ median, as Python's `statistics.quantiles(n=4)` gives them: the driver's \
         measure of spread. `halves` is how much worse the median of the second half of the \
         runs is than the first's (negative: better); a run set fails when the halves disagree by \
         more than `bound` in either direction.\n"
    );
    println!("| workload | metric | median | min | max | range | iqr | halves | bound | ok |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        ok &= runs.iter().all(|row| row[w].correct());
        for metric in &bounds {
            let (name, bound) = (&metric.name, metric.bound);
            let values: Vec<f64> = runs.iter().map(|row| row[w].metric(name)).collect();
            let (lo, hi) = values.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
            let mid = median(&values);
            let half = values.len() / 2;
            let (first, second) = (median(&values[..half]), median(&values[half..]));
            let worse = metric.worsening(first, second);
            let fine = metric.agree(first, second);
            ok &= fine;
            println!(
                "| {workload} | {name} | {mid:.4} | {lo:.4} | {hi:.4} | {:.4} | {:.4} | {worse:+.4} | {bound} | {} |",
                (hi - lo) / mid,
                quartile_spread(&values),
                if fine { "yes" } else { "NO" },
            );
        }
    }
    let failed: u64 = runs
        .iter()
        .flatten()
        .map(|r| r.result.get("failed").and_then(Value::as_u64).unwrap_or(1))
        .sum();
    println!("\nFailed ops over all runs: {failed}.");
    Ok(ok && failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!("refusing to measure on {nproc} core: the workloads need two");
        return ExitCode::from(2);
    }
    let done = parse(flags).and_then(|cli| match (command.as_str(), &cli.workload) {
        ("run", Some(workload)) => run_one(&cli, workload),
        ("run", None) => run_all(&cli),
        ("setup", Some(workload)) => setup_probe(&cli, workload),
        ("repeat", _) => repeat(&cli),
        _ => Err(format!("unknown command {command}\n{USAGE}")),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
