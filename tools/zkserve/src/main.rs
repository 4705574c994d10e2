//! `zkserve` — workload driver for the proving service.
//!
//! ```text
//! zkserve run <workload.json> [--workers N] [--queue N] [--cache-mb N]
//!                             [--deadline-ms N] [--compare]
//!                             [--devices N[,spec]] [--fleet-trace PATH]
//!                             [--chaos SPEC] [--metrics PATH] [--prom PATH]
//! zkserve top <metrics.json> [--watch SECS]
//! zkserve example [--mixed]
//! ```
//!
//! `run` parses a proof-request workload file (see
//! `gzkp_workloads::requests` for the format — each request class may
//! carry a `"system"` of `"groth16"` or `"plonk"`, so one stream mixes
//! both backends), prepares every request class (circuit synthesis +
//! trusted setup, outside the timed region), replays the stream through
//! the [`gzkp_service::ProvingService`], and reports throughput plus
//! p50/p95/p99 latency. With `--compare` it first replays the same
//! stream as a sequential prove-in-a-loop baseline and prints the
//! speedup; the two runs must produce byte-identical proofs — for
//! Groth16 and PLONK requests alike — which `zkserve` asserts.
//!
//! The service always runs on a device fleet, `--workers` V100s unless
//! `--devices` names one: the value is a device-fleet spec (`2` = two
//! V100s, `2,1080ti` = two 1080 Tis, `v100,1080ti` = one of each; see
//! `gzkp_runtime::parse_devices`). The run reports per-device utilization
//! (jobs, shards, H2D bytes, kernel occupancy), and
//! `--fleet-trace PATH` additionally writes the fleet's
//! `runtime → dev{n} → {h2d,kernel,d2h}` span trace as JSON for
//! `zkprof render --timeline`.
//!
//! On a fleet of two or more devices, a near-deadline job's MSM stage
//! claims several devices at once and runs as bucket-range shards with
//! partial sums merged over the device↔device P2P path — see `DESIGN.md`
//! §15. A job escalates when its deadline slack drops under
//! `gzkp_runtime::URGENCY_MARGIN`× its modeled remaining MSM cost, so a
//! tight `--deadline-ms` provokes it. Proof bytes are identical either
//! way; the P2P traffic shows up in the fleet report and as a `p2p` lane
//! in `zkprof render --timeline`.
//!
//! `--chaos` arms the seeded fault injector for the service replay. The
//! spec is `seed[,rate=X][,kernel=X][,transfer=X][,hang=X][,corrupt=X]`
//! `[,dead=I+J]` (see `gzkp_gpu_sim::FaultPlan::parse`): e.g.
//! `--chaos 7,rate=0.1,dead=1` injects every fault kind at 10% per stage
//! with device 1 permanently dead. Chaos implies verify-before-return —
//! every proof is checked against its verifying key before it is
//! surfaced — and the run prints an injected/recovery report. Combined
//! with `--compare`, the byte-identical assertion demonstrates that
//! recovery never changes a proof.
//!
//! `--metrics PATH` arms the live observability layer: the service and
//! fleet register their counters, gauges, and latency histograms in a
//! [`gzkp_telemetry::MetricsRegistry`], a background exporter rewrites
//! `PATH` as a JSON [`gzkp_telemetry::MetricsSnapshot`] every 500 ms
//! while the replay runs (so `zkserve top PATH --watch 1` in another
//! terminal is a live dashboard), and the final snapshot is written on
//! completion, followed by its [`gzkp_telemetry::SloPolicy::default`]
//! verdict as `slo:` lines. `--prom PATH`
//! additionally writes the snapshot in Prometheus text exposition
//! format on the same cadence.
//!
//! `--cluster hosts=N` replays the workload through the multi-host
//! cluster layer instead of a plain service: one proving service whose
//! fleet is N simulated hosts (each a failure domain holding the
//! `--devices` fleet) behind the fair-share front door, with every job
//! running as a checkpointing task. `--chaos` applies whole: its stage
//! faults and dead devices (indices over every host's devices) as in a
//! plain run, and `hostkill=X` kills hosts — a killed host's jobs move to
//! a survivor and resume from their persisted checkpoints, and
//! `--compare` asserts the final proofs are byte-identical to direct
//! sequential proves anyway. The run prints per-host accounting,
//! front-door tenant stats, a JSON summary, and the injected-fault counts
//! with the same recovery line as a plain run;
//! `--metrics` and `--prom` export as in a plain run, and the snapshot
//! gains cluster rows in `zkserve top` and a cluster lost-jobs section in
//! the SLO report; `--fleet-trace PATH` writes the trace of the
//! cluster's one fleet.
//!
//! `top` renders a metrics snapshot file as an ASCII dashboard (job
//! counts, queue/stage/e2e latency percentiles, SLO status, per-device
//! utilization bars; cluster and per-host rows when the snapshot has
//! them). `--watch SECS` clears the screen and re-renders every
//! interval until interrupted.
//!
//! `example` prints a starter workload file to stdout; `example --mixed`
//! prints one that interleaves Groth16 and PLONK request classes.

use gzkp_cluster::{Cluster, ClusterConfig, HostConfig, TenantSpec};
use gzkp_gpu_sim::{v100, FaultSummary};
use gzkp_service::{
    prepare, run_sequential, run_service, PreparedWorkload, ReplayOutcome, ServiceConfig,
    ServiceStats,
};
use gzkp_telemetry::{render_top, MetricsRegistry, MetricsSnapshot, SloPolicy, SnapshotExporter};
use gzkp_workloads::requests::RequestWorkload;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  zkserve run <workload.json> [--workers N] [--queue N] [--cache-mb N] \
         [--deadline-ms N] [--compare] [--devices N[,spec]] [--fleet-trace PATH] \
         [--chaos seed[,rate=X][,kernel=X][,transfer=X][,hang=X][,corrupt=X][,hostkill=X][,dead=I+J]] \
         [--cluster hosts=N] [--metrics PATH] [--prom PATH]\n  \
         zkserve top <metrics.json> [--watch SECS]\n  \
         zkserve example [--mixed]"
    );
    ExitCode::from(2)
}

struct RunArgs {
    path: String,
    cfg: ServiceConfig,
    compare: bool,
    fleet_trace: Option<String>,
    metrics: Option<String>,
    prom: Option<String>,
    cluster_hosts: Option<usize>,
}

/// Parses a `--cluster` spec: `hosts=N` (or bare `N`).
fn parse_cluster_spec(spec: &str) -> Option<usize> {
    let n: usize = spec.strip_prefix("hosts=").unwrap_or(spec).parse().ok()?;
    (n >= 1).then_some(n)
}

fn parse_run_args(args: &[String]) -> Option<RunArgs> {
    let mut path = None;
    let mut cfg = ServiceConfig::default();
    let mut compare = false;
    let mut fleet_trace = None;
    let mut metrics = None;
    let mut prom = None;
    let mut cluster_hosts = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => cfg.workers = it.next()?.parse().ok()?,
            "--queue" => cfg.queue_capacity = it.next()?.parse().ok()?,
            "--cache-mb" => cfg.prep_cache_bytes = it.next()?.parse::<u64>().ok()? << 20,
            "--deadline-ms" => {
                cfg.default_deadline = Some(Duration::from_millis(it.next()?.parse().ok()?))
            }
            "--devices" => {
                cfg.devices = match gzkp_runtime::parse_devices(it.next()?) {
                    Ok(devices) => devices,
                    Err(e) => {
                        eprintln!("zkserve: --devices: {e}");
                        return None;
                    }
                }
            }
            "--fleet-trace" => fleet_trace = Some(it.next()?.to_string()),
            "--metrics" => metrics = Some(it.next()?.to_string()),
            "--prom" => prom = Some(it.next()?.to_string()),
            "--chaos" => {
                cfg.chaos = match gzkp_gpu_sim::FaultPlan::parse(it.next()?) {
                    Ok(plan) => Some(plan),
                    Err(e) => {
                        eprintln!("zkserve: --chaos: {e}");
                        return None;
                    }
                }
            }
            "--cluster" => {
                cluster_hosts = Some(match parse_cluster_spec(it.next()?) {
                    Some(n) => n,
                    None => {
                        eprintln!("zkserve: --cluster: expected hosts=N with N >= 1");
                        return None;
                    }
                })
            }
            "--compare" => compare = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return None,
        }
    }
    if prom.is_some() && metrics.is_none() {
        eprintln!("zkserve: --prom requires --metrics");
        return None;
    }
    Some(RunArgs {
        path: path?,
        cfg,
        compare,
        fleet_trace,
        metrics,
        prom,
        cluster_hosts,
    })
}

/// Writes `trace` to `--fleet-trace PATH`, when one was given. `Some`
/// carries the exit code of a failed write.
fn write_fleet_trace(run: &RunArgs, trace: &gzkp_telemetry::Trace) -> Option<ExitCode> {
    let path = run.fleet_trace.as_ref()?;
    if let Err(e) = std::fs::write(path, trace.to_json()) {
        eprintln!("zkserve: {path}: {e}");
        return Some(ExitCode::from(2));
    }
    println!("{:>10}: fleet trace written to {path}", "trace");
    None
}

/// Starts the `--metrics` export, when one was asked for: the registry the
/// run counts into and the exporter rewriting the snapshot (and the
/// `--prom` exposition) every 500 ms.
fn start_export(run: &RunArgs) -> Option<(Arc<MetricsRegistry>, SnapshotExporter)> {
    let path = run.metrics.as_ref()?;
    let registry = Arc::new(MetricsRegistry::new());
    let exporter = SnapshotExporter::start(
        registry.clone(),
        path,
        run.prom.as_ref().map(Into::into),
        Duration::from_millis(500),
    );
    Some((registry, exporter))
}

/// Writes the final snapshot and prints the default policy's SLO verdict
/// on it and where each file went. `Some` carries the exit code of a
/// failed write.
fn finish_export(run: &RunArgs, exporter: SnapshotExporter) -> Option<ExitCode> {
    let path = run.metrics.as_deref().unwrap_or("");
    match exporter.stop() {
        Ok(snapshot) => {
            // `render()` carries its own `slo:` prefix on every line.
            for line in SloPolicy::default().evaluate(&snapshot).render().lines() {
                println!("{:>10}: {}", "slo", line.trim_start_matches("slo: "));
            }
            println!("{:>10}: metrics snapshot written to {path}", "metrics");
            if let Some(prom) = &run.prom {
                println!("{:>10}: prometheus exposition written to {prom}", "metrics");
            }
            None
        }
        Err(e) => {
            eprintln!("zkserve: {path}: {e}");
            Some(ExitCode::from(2))
        }
    }
}

/// Prints the injected-fault counts of a chaos run.
fn print_chaos(chaos: &FaultSummary) {
    println!(
        "{:>10}: injected {} (kernel {} transfer {} hang {} corrupt {} host-kill {})  \
         dead-hits {}",
        "chaos",
        chaos.injected(),
        chaos.kernel,
        chaos.transfer,
        chaos.hang,
        chaos.corrupt,
        chaos.host_kill,
        chaos.dead_hits,
    );
}

/// Prints how a chaos run's faults were absorbed.
fn print_recovery(stats: &ServiceStats) {
    println!(
        "{:>10}: retries {}  verify-rejects {}  quarantines {}  \
         cpu-fallbacks {}  drained {}",
        "recovery",
        stats.retries,
        stats.verify_rejects,
        stats.quarantines,
        stats.cpu_fallbacks,
        stats.drained,
    );
}

/// Replays the prepared workload through the multi-host cluster layer
/// (`--cluster hosts=N`): every request is submitted as a checkpointing
/// task through the front door, `--chaos` injects its stage faults and
/// dead devices and kills hosts per `hostkill=X`, and the run reports
/// per-host accounting plus a JSON summary.
fn run_cluster(run: &RunArgs, prepared: &PreparedWorkload, hosts: usize) -> ExitCode {
    let jobs = prepared.len();
    // Chaos implies verify-before-return, matching single-host `run`.
    let verify = run.cfg.chaos.is_some();
    let export = start_export(run);
    let devices = if run.cfg.devices.is_empty() {
        vec![v100()]
    } else {
        run.cfg.devices.clone()
    };
    let task_device = devices[0].clone();
    let mut cluster = Cluster::start(ClusterConfig {
        hosts,
        host: HostConfig {
            devices,
            queue_capacity: run.cfg.queue_capacity.max(1),
            prep_cache_bytes: run.cfg.prep_cache_bytes,
        },
        tenants: vec![TenantSpec::new("default", 1.0)],
        pending_capacity: jobs.max(256),
        chaos: run.cfg.chaos.clone(),
        metrics: export.as_ref().map(|(registry, _)| registry.clone()),
        ..ClusterConfig::default()
    });
    let mut ids = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let mut opts = prepared.request_options(i);
        opts.deadline = opts.deadline.or(run.cfg.default_deadline);
        let task = prepared.checkpoint_task(i, &task_device, verify);
        match cluster.submit("default", task, opts) {
            Ok(id) => ids.push(id),
            Err(e) => {
                eprintln!("zkserve: request {i} rejected: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = cluster.drain(Duration::from_secs(600));

    let stats = outcome.stats;
    println!(
        "{:>10}: {hosts} host(s)  {jobs} job(s)  completed {}  failed {}  resumes {}  \
         host-kills {}  leaked-claims {}",
        "cluster",
        stats.completed,
        stats.failed,
        stats.resumes,
        stats.host_kills,
        outcome.leaked_claims,
    );
    println!(
        "{:>10}: makespan {:8.1} ms (simulated)  \u{2192} {:6.2} proofs/s",
        "cluster",
        outcome.fleet.elapsed_ns / 1e6,
        stats.completed as f64 / (outcome.fleet.elapsed_ns / 1e9).max(1e-12),
    );
    for h in &outcome.hosts {
        println!(
            "{:>10}: h{}  completed {:>4}  failed {:>3}{}",
            "host",
            h.id,
            h.completed,
            h.failed,
            if h.killed { "  [killed]" } else { "" },
        );
    }
    for (tenant, ts) in &outcome.tenants {
        println!(
            "{:>10}: {tenant}  admitted {}  rate-limited {}  released {}",
            "tenant", ts.admitted, ts.rate_limited, ts.released,
        );
    }
    println!("{}", outcome.report_json());
    if let Some(chaos) = &outcome.chaos {
        print_chaos(chaos);
        print_recovery(&outcome.service);
    }
    if let Some(code) = write_fleet_trace(run, &outcome.fleet_trace) {
        return code;
    }
    if let Some(code) = export.and_then(|(_, exporter)| finish_export(run, exporter)) {
        return code;
    }

    if run.compare {
        let device = v100();
        for (i, &id) in ids.iter().enumerate() {
            let direct = prepared.prove_direct(i, &device);
            let result = outcome
                .results
                .iter()
                .find(|r| r.id == id)
                .expect("every submitted job resolves");
            match &result.outcome {
                Ok(proof) => assert_eq!(
                    proof, &direct,
                    "request {i}: cluster proof diverged from direct prove"
                ),
                Err(e) => {
                    eprintln!("zkserve: request {i} failed in cluster mode: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "{:>10}: {} proof(s) byte-identical to direct proves",
            "compare",
            ids.len()
        );
    }

    if stats.failed > 0 || outcome.leaked_claims > 0 {
        eprintln!(
            "zkserve: cluster run unhealthy: {} failed, {} leaked claim(s)",
            stats.failed, outcome.leaked_claims
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Parses `top <metrics.json> [--watch SECS]`.
fn parse_top_args(args: &[String]) -> Option<(String, Option<u64>)> {
    let mut path = None;
    let mut watch = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--watch" => {
                let secs: u64 = it.next()?.parse().ok()?;
                watch = Some(secs.max(1));
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return None,
        }
    }
    Some((path?, watch))
}

/// Reads and renders one dashboard frame from a metrics snapshot file.
fn top_frame(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snap = MetricsSnapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(render_top(&snap))
}

fn report(label: &str, outcome: &ReplayOutcome) {
    println!(
        "{label:>10}: {:\u{2007}>4} proofs in {:8.1} ms  \u{2192} {:6.2} proofs/s   \
         p50 {:7.1} ms  p95 {:7.1} ms  p99 {:7.1} ms",
        outcome.latencies_ms.len(),
        outcome.total.as_secs_f64() * 1e3,
        outcome.throughput_per_s(),
        outcome.percentile_ms(50.0),
        outcome.percentile_ms(95.0),
        outcome.percentile_ms(99.0),
    );
    if outcome.rejected + outcome.deadline_missed + outcome.failed > 0 {
        println!(
            "{:>10}  rejected {}  deadline-missed {}  failed {}",
            "", outcome.rejected, outcome.deadline_missed, outcome.failed
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example") => match args.get(1).map(String::as_str) {
            None => {
                println!("{}", RequestWorkload::example().to_json());
                ExitCode::SUCCESS
            }
            Some("--mixed") => {
                println!("{}", RequestWorkload::mixed_example().to_json());
                ExitCode::SUCCESS
            }
            Some(_) => usage(),
        },
        Some("top") => {
            let Some((path, watch)) = parse_top_args(&args[1..]) else {
                return usage();
            };
            match watch {
                None => match top_frame(&path) {
                    Ok(frame) => {
                        print!("{frame}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("zkserve: {e}");
                        ExitCode::from(2)
                    }
                },
                Some(secs) => loop {
                    // Clear the screen and home the cursor between frames;
                    // a transiently unreadable file (the exporter may be
                    // mid-rewrite) just skips one refresh.
                    match top_frame(&path) {
                        Ok(frame) => print!("\x1b[2J\x1b[H{frame}"),
                        Err(e) => eprintln!("zkserve: {e}"),
                    }
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                    std::thread::sleep(Duration::from_secs(secs));
                },
            }
        }
        Some("run") => {
            let Some(run) = parse_run_args(&args[1..]) else {
                return usage();
            };
            let text = match std::fs::read_to_string(&run.path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("zkserve: {}: {e}", run.path);
                    return ExitCode::from(2);
                }
            };
            let workload = match RequestWorkload::from_json(&text) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("zkserve: {}: {e}", run.path);
                    return ExitCode::from(2);
                }
            };
            let device = v100();
            println!(
                "preparing {} request(s) across {} class(es)...",
                workload.total_requests(),
                workload.requests.len()
            );
            let prepared = prepare(&workload);

            if let Some(hosts) = run.cluster_hosts {
                return run_cluster(&run, &prepared, hosts);
            }

            let baseline = run.compare.then(|| {
                let b = run_sequential(&prepared, &device);
                report("sequential", &b);
                b
            });
            let export = start_export(&run);
            let cfg = ServiceConfig {
                metrics: export.as_ref().map(|(registry, _)| registry.clone()),
                ..run.cfg.clone()
            };
            let outcome = run_service(&prepared, cfg, &device);
            report("service", &outcome);
            if let Some(code) = export.and_then(|(_, exporter)| finish_export(&run, exporter)) {
                return code;
            }
            if let Some(chaos) = &outcome.chaos {
                print_chaos(chaos);
                if let Some(stats) = &outcome.stats {
                    print_recovery(stats);
                }
            }
            if let Some(fleet) = &outcome.fleet {
                print!("{}", fleet.render());
            }
            if let Some(trace) = &outcome.fleet_trace {
                if let Some(code) = write_fleet_trace(&run, trace) {
                    return code;
                }
            }

            if let Some(baseline) = baseline {
                for (i, (s, b)) in outcome.proofs.iter().zip(&baseline.proofs).enumerate() {
                    if let (Some(s), Some(b)) = (s, b) {
                        assert_eq!(s, b, "request {i}: service proof diverged from baseline");
                    }
                }
                println!(
                    "{:>10}: {:.2}x throughput vs sequential (proofs byte-identical)",
                    "speedup",
                    outcome.throughput_per_s() / baseline.throughput_per_s().max(1e-12)
                );
            }
            if outcome.failed > 0 {
                eprintln!("zkserve: {} request(s) failed", outcome.failed);
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn run_args_parse_metrics_flags() {
        let run = parse_run_args(&s(&["w.json", "--metrics", "m.json"])).unwrap();
        assert_eq!(run.metrics.as_deref(), Some("m.json"));
        assert!(run.prom.is_none());
        let run =
            parse_run_args(&s(&["w.json", "--metrics", "m.json", "--prom", "m.prom"])).unwrap();
        assert_eq!(run.prom.as_deref(), Some("m.prom"));
        assert!(
            parse_run_args(&s(&["w.json", "--prom", "m.prom"])).is_none(),
            "--prom without --metrics is rejected"
        );
        let run = parse_run_args(&s(&["w.json"])).unwrap();
        assert!(run.metrics.is_none());
    }

    #[test]
    fn run_args_parse_cross_device() {
        // Cross-device escalation is the fleet's own behaviour: a device
        // count is all it takes, and the old opt-in flag is unknown.
        let run = parse_run_args(&s(&["w.json", "--devices", "2"])).unwrap();
        assert_eq!(run.cfg.devices.len(), 2);
        assert!(
            parse_run_args(&s(&["w.json", "--devices", "2", "--cross-device"])).is_none(),
            "--cross-device is not a zkserve flag"
        );
    }

    #[test]
    fn run_args_parse_cluster() {
        let run = parse_run_args(&s(&["w.json", "--cluster", "hosts=4"])).unwrap();
        assert_eq!(run.cluster_hosts, Some(4));
        let run = parse_run_args(&s(&["w.json", "--cluster", "2"])).unwrap();
        assert_eq!(run.cluster_hosts, Some(2));
        assert!(
            parse_run_args(&s(&["w.json", "--cluster", "hosts=0"])).is_none(),
            "a cluster needs at least one host"
        );
        let run = parse_run_args(&s(&["w.json", "--cluster", "2", "--fleet-trace", "t.json"]));
        assert_eq!(
            run.and_then(|r| r.fleet_trace).as_deref(),
            Some("t.json"),
            "a cluster is one service whose fleet trace can be written"
        );
        let run = parse_run_args(&s(&["w.json"])).unwrap();
        assert!(run.cluster_hosts.is_none());
    }

    #[test]
    fn top_args_parse() {
        assert_eq!(
            parse_top_args(&s(&["m.json"])),
            Some(("m.json".into(), None))
        );
        assert_eq!(
            parse_top_args(&s(&["m.json", "--watch", "2"])),
            Some(("m.json".into(), Some(2)))
        );
        assert_eq!(
            parse_top_args(&s(&["--watch", "0", "m.json"])),
            Some(("m.json".into(), Some(1))),
            "watch interval is clamped to at least 1s"
        );
        assert!(parse_top_args(&s(&[])).is_none());
        assert!(parse_top_args(&s(&["m.json", "--bogus"])).is_none());
        assert!(parse_top_args(&s(&["m.json", "--watch", "x"])).is_none());
    }
}
