//! One workload, one process: set-up, the measuring window, the checks,
//! and the metrics.
//!
//! An untraced run yields the end-to-end metrics and nothing else runs in
//! its process. A traced run yields the per-layer ledger: it interleaves
//! plain and traced ops over the same inputs, so the tracing overhead is
//! measured inside one window.

use crate::micro;
use crate::spec::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{
    median, median_inside_cluster, percentile, segment_median_throughput, tail_percentile,
    window_throughput,
};
use crate::trace::{union_ns, Trace, Tracer};
use crate::workloads::{
    Groth16Warm, Mode, NttRoundTrip, PlonkWarm, Request, ServiceMixed, SetupTimes, SingleClient,
    Sizes, Window, PLONK_STEPS, SERVICE_CLIENTS,
};
use gzkp_msm::PreprocessStore;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops run at the other `GZKP_THREADS` value in a traced run: they must
/// reproduce the reference output and give the parallel speed-ups.
const OTHER_THREADS_OPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Args<'a> {
    /// One of [`WORKLOADS`].
    pub workload: &'a str,
    /// Seed of circuit synthesis, key generation, NTT data and blinding.
    pub seed: u64,
    /// The measuring window.
    pub window: Window,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub traced: bool,
    /// Problem sizes.
    pub sizes: Sizes,
}

/// What a run found.
pub struct Outcome {
    /// Ops attempted in the measuring window.
    pub attempted: u64,
    /// Ops that errored, were refused, or produced a wrong output.
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The run-conditions record.
    pub conditions: Vec<(String, Value)>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Whether every output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), self.metrics.to_json()),
        ]);
        serde_json::to_string(&line).expect("a value tree always prints")
    }

    /// The run-conditions record as one JSON line.
    pub fn conditions_line(&self) -> String {
        serde_json::to_string(&Value::Map(self.conditions.clone()))
            .expect("a value tree always prints")
    }
}

/// `GZKP_THREADS` for a workload: two kernel threads for the
/// single-client loops, one for the service, whose parallelism is
/// between proofs.
pub fn threads_for(workload: &str) -> usize {
    if workload == "service_mixed" {
        1
    } else {
        2
    }
}

fn set_threads(n: usize) {
    // The pool re-reads the variable on every parallel call. It is only
    // changed between ops, while no other thread of this process runs.
    std::env::set_var("GZKP_THREADS", n.to_string());
}

/// 1-minute load average, 0 where `/proc` has none.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over a run's reference output and simulated times: equal
/// digests mean byte-identical proofs and bit-equal `gpu-sim.*` values.
fn digest(bytes: &[u8], sim_ms: [f64; 2]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let sim = sim_ms.iter().flat_map(|v| v.to_bits().to_le_bytes());
    for b in bytes.iter().copied().chain(sim) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn check_workload(workload: &str) -> Result<(), String> {
    if WORKLOADS.contains(&workload) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ))
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Fails when set-up fails: an unknown workload, a warm-up op that errors
/// or whose output does not verify.
pub fn run(args: &Args) -> Result<Outcome, String> {
    check_workload(args.workload)?;
    let load_start = loadavg();
    set_threads(threads_for(args.workload));
    let mut outcome = if args.workload == "service_mixed" {
        run_service(args)?
    } else {
        run_single(args)?
    };
    let load_end = loadavg();
    if args.traced {
        outcome.metrics.set("bench.loadavg_start", load_start);
        outcome.metrics.set("bench.loadavg_end", load_end);
        outcome.metrics.set(
            "bench.failed_frac",
            outcome.failed as f64 / outcome.attempted as f64,
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut conditions: Vec<(String, Value)> = vec![
        ("workload".into(), Value::Str(args.workload.into())),
        ("traced".into(), Value::Bool(args.traced)),
        ("seed".into(), Value::U64(args.seed)),
        ("nproc".into(), Value::U64(nproc as u64)),
        (
            "gzkp_threads".into(),
            Value::U64(threads_for(args.workload) as u64),
        ),
        ("ops".into(), Value::U64(outcome.attempted)),
        ("loadavg_start".into(), Value::F64(load_start)),
        ("loadavg_end".into(), Value::F64(load_end)),
    ];
    conditions.append(&mut outcome.conditions);
    outcome.conditions = conditions;
    Ok(outcome)
}

/// Sets the workload up, tears it down, and returns how long set-up took:
/// one more `setup_s` sample, from a process that does nothing else.
///
/// # Errors
///
/// As [`run`].
pub fn setup_only(args: &Args) -> Result<f64, String> {
    check_workload(args.workload)?;
    set_threads(threads_for(args.workload));
    let t0 = Instant::now();
    if args.workload == "service_mixed" {
        ServiceMixed::setup(args.sizes.service, args.seed)?;
    } else {
        setup_single(args)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Single-client workloads
// ---------------------------------------------------------------------------

/// A single-client workload, set up and warm.
struct Ready {
    workload: Box<dyn SingleClient>,
    times: SetupTimes,
    /// Output and simulated times of the warm-up op; every later op must
    /// reproduce both.
    reference: (Vec<u8>, [f64; 2]),
    /// The warm-up op: the one that builds the checkpoint tables.
    cold_op_ms: f64,
}

fn setup_single(args: &Args) -> Result<Ready, String> {
    let (mut workload, times): (Box<dyn SingleClient>, SetupTimes) = match args.workload {
        "groth16_warm" => {
            let (w, t) = Groth16Warm::setup(args.sizes.groth16, args.seed);
            (Box::new(w), t)
        }
        "plonk_warm" => {
            let (w, t) = PlonkWarm::setup(args.sizes.plonk, args.seed);
            (Box::new(w), t)
        }
        _ => (
            Box::new(NttRoundTrip::setup(args.sizes.ntt, args.seed)?),
            SetupTimes::default(),
        ),
    };
    let warm = workload.op(Mode::Plain, &Tracer::new())?;
    if !workload.verify(&warm.bytes) {
        return Err("the warm-up op's output does not verify".into());
    }
    Ok(Ready {
        workload,
        times,
        reference: (warm.bytes, warm.sim_ms),
        cold_op_ms: warm.ms,
    })
}

/// One op of the measuring window.
struct Sample {
    mode: Mode,
    ms: f64,
    batch: [u64; 2],
}

/// The window's samples (failed ops left out) and its failure count.
#[derive(Default)]
struct Measured {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Measured {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn ms_of(&self, mode: Mode) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.mode == mode)
            .map(|s| s.ms)
            .collect()
    }
}

/// Runs ops until the window closes, cycling through `modes`; an op
/// fails when it errors or does not reproduce `ready.reference`.
fn run_ops(ready: &mut Ready, window: Window, modes: &[Mode], tracer: &Tracer) -> Measured {
    let mut measured = Measured::default();
    let opened = Instant::now();
    for index in 0.. {
        if !window.admits(index, opened) {
            break;
        }
        let mode = modes[index % modes.len()];
        tracer.set_on(mode == Mode::Traced);
        let out = ready.workload.op(mode, tracer);
        tracer.set_on(false);
        measured.attempted += 1;
        match out {
            Err(e) => measured.fail(e),
            Ok(out) if out.bytes != ready.reference.0 => {
                measured.fail("output differs from the run's first op".into())
            }
            Ok(out) if out.sim_ms.map(f64::to_bits) != ready.reference.1.map(f64::to_bits) => {
                measured.fail("simulated times differ from the run's first op".into())
            }
            Ok(out) => measured.samples.push(Sample {
                mode,
                ms: out.ms,
                batch: out.batch,
            }),
        }
    }
    measured
}

/// The end-to-end metrics of an untraced run, from this process's set-up
/// time, its ops' latencies and their completion times.
fn end_to_end_metrics(setup_s: f64, op_ms: &[f64], done_at_s: &[f64]) -> Metrics {
    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("op_ms_p50", median(op_ms));
    metrics.set("ops_per_s", segment_median_throughput(0.0, done_at_s));
    metrics.set("peak_rss_mib", peak_rss_mib());
    metrics
}

/// Completion times of a single client's ops, in seconds: its timeline
/// with the harness's checks between ops cut out.
fn timeline_s(op_ms: &[f64]) -> Vec<f64> {
    op_ms
        .iter()
        .scan(0.0, |t, ms| {
            *t += ms / 1e3;
            Some(*t)
        })
        .collect()
}

fn run_single(args: &Args) -> Result<Outcome, String> {
    if args.traced {
        return trace_single(args);
    }
    let t0 = Instant::now();
    let mut ready = setup_single(args)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let measured = run_ops(&mut ready, args.window, &[Mode::Plain], &Tracer::new());

    let ms = measured.ms_of(Mode::Plain);
    let done_at_s = timeline_s(&ms);
    let metrics = end_to_end_metrics(setup_s, &ms, &done_at_s);
    Ok(Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        conditions: vec![
            ("clients".into(), Value::U64(1)),
            ("samples".into(), Value::U64(ms.len() as u64)),
            (
                "ops_per_s_window".into(),
                Value::F64(window_throughput(0.0, &done_at_s)),
            ),
            (
                "output_digest".into(),
                Value::Str(digest(&ready.reference.0, ready.reference.1)),
            ),
        ],
        errors: measured.errors,
        metrics,
        trace: None,
    })
}

/// Per-op sums over one traced op's spans.
#[derive(Default)]
struct OpLayers {
    op_ms: f64,
    op_self_ms: f64,
    /// `[ntt, msm.g1, msm.g2]`: calls, busy ms, work.
    calls: [f64; 3],
    busy_ms: [f64; 3],
    work: [f64; 3],
    /// Wall-clock during which at least one NTT / one MSM ran.
    ntt_wall_ms: f64,
    msm_wall_ms: f64,
    /// Stage spans by name: `(ms, self ms)`.
    stages: BTreeMap<&'static str, (f64, f64)>,
}

const ENGINE_SPANS: [&str; 3] = ["ntt", "msm.g1", "msm.g2"];

fn op_layers(trace: &Trace, root: usize) -> OpLayers {
    let mut op = OpLayers {
        op_ms: trace.spans[root].ms(),
        op_self_ms: trace.self_ms(root),
        ..OpLayers::default()
    };
    let (mut ntt, mut msm) = (Vec::new(), Vec::new());
    for id in trace.subtree(root).into_iter().skip(1) {
        let span = &trace.spans[id];
        if let Some(engine) = ENGINE_SPANS.iter().position(|n| *n == span.name) {
            op.calls[engine] += 1.0;
            op.busy_ms[engine] += span.ms();
            op.work[engine] += span.work as f64;
            let interval = (span.start_ns, span.end_ns);
            if engine == 0 {
                ntt.push(interval);
            } else {
                msm.push(interval);
            }
        } else {
            let stage = op.stages.entry(span.name).or_default();
            stage.0 += span.ms();
            stage.1 += trace.self_ms(id);
        }
    }
    op.ntt_wall_ms = union_ns(ntt) as f64 / 1e6;
    op.msm_wall_ms = union_ns(msm) as f64 / 1e6;
    op
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics every workload's traced run starts from: where
/// set-up time went, the simulated clock, and the primitive loops.
fn base_layer_metrics(times: &SetupTimes, sim_ms: [f64; 2], seed: u64) -> Metrics {
    let mut metrics = Metrics::new(&PER_LAYER);
    metrics.set("workloads.synth_s", times.synth_s);
    metrics.set("groth16.keygen_s", times.groth16_keygen_s);
    metrics.set("plonk.keygen_s", times.plonk_keygen_s);
    metrics.set("gpu-sim.sim_poly_ms", sim_ms[0]);
    metrics.set("gpu-sim.sim_msm_ms", sim_ms[1]);
    metrics.set("gpu-sim.sim_proof_ms", sim_ms[0] + sim_ms[1]);
    micro::field_and_curve_ops(seed, &mut metrics);
    metrics
}

fn store_metrics(store: &PreprocessStore, metrics: &mut Metrics) {
    metrics.set("msm.store_hits", store.hits() as f64);
    metrics.set("msm.store_misses", store.misses() as f64);
    metrics.set("msm.store_evictions", store.evictions() as f64);
    metrics.set(
        "msm.store_mib",
        store.bytes_used() as f64 / f64::from(1 << 20),
    );
}

fn tail_metric(ms: &[f64], metrics: &mut Metrics, conditions: &mut Vec<(String, Value)>) {
    let tail = tail_percentile(ms.len());
    metrics.set("bench.op_ms_tail", tail.map_or(0.0, |p| percentile(ms, p)));
    conditions.push((
        "tail_percentile".into(),
        tail.map_or(Value::Null, Value::F64),
    ));
}

fn trace_single(args: &Args) -> Result<Outcome, String> {
    let mut ready = setup_single(args)?;
    let mut metrics = base_layer_metrics(&ready.times, ready.reference.1, args.seed);

    let verify_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(ready.workload.verify(&ready.reference.0));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    if let Some([bytes, encode_ms, decode_ms]) = ready.workload.checkpoint_codec()? {
        metrics.set("proof-system.checkpoint_bytes", bytes);
        metrics.set("proof-system.checkpoint_encode_ms", encode_ms);
        metrics.set("proof-system.checkpoint_decode_ms", decode_ms);
    }

    let tracer = Tracer::new();
    // The other thread count first: same bytes, and the engines' wall at
    // one thread for the speed-up ratios.
    let threads = threads_for(args.workload);
    set_threads(if threads == 1 { 2 } else { 1 });
    let serial = run_ops(
        &mut ready,
        Window::Ops(OTHER_THREADS_OPS),
        &[Mode::Traced],
        &tracer,
    );
    set_threads(threads);
    let serial_ops = serial.samples.len();

    let modes = ready.workload.modes();
    let mut measured = run_ops(&mut ready, args.window, modes, &tracer);
    measured.attempted += serial.attempted;
    measured.failed += serial.failed;
    measured.errors.extend(serial.errors);

    let trace = tracer.finish();
    let roots = trace.roots();
    let ops: Vec<OpLayers> = roots.iter().map(|r| op_layers(&trace, *r)).collect();
    let (serial_ops, ops) = ops.split_at(serial_ops.min(ops.len()));
    let med = |f: &dyn Fn(&OpLayers) -> f64| median(&ops.iter().map(f).collect::<Vec<f64>>());
    let serial_med =
        |f: &dyn Fn(&OpLayers) -> f64| median(&serial_ops.iter().map(f).collect::<Vec<f64>>());
    let stage = |name: &'static str, which: usize| {
        med(&|o: &OpLayers| {
            let s = o.stages.get(name).copied().unwrap_or_default();
            [s.0, s.1][which]
        })
    };

    metrics.set("ntt.calls_per_op", med(&|o| o.calls[0]));
    metrics.set("ntt.busy_ms_per_op", med(&|o| o.busy_ms[0]));
    metrics.set(
        "ntt.ns_per_butterfly",
        med(&|o| ratio(o.busy_ms[0] * 1e6, o.work[0])),
    );
    metrics.set(
        "ntt.par_speedup",
        ratio(serial_med(&|o| o.ntt_wall_ms), med(&|o| o.ntt_wall_ms)),
    );
    for (engine, group) in [(1, "g1"), (2, "g2")] {
        metrics.set(
            &format!("msm.{group}_calls_per_op"),
            med(&|o| o.calls[engine]),
        );
        metrics.set(
            &format!("msm.{group}_busy_ms_per_op"),
            med(&|o| o.busy_ms[engine]),
        );
        metrics.set(
            &format!("msm.{group}_ns_per_point"),
            med(&|o| ratio(o.busy_ms[engine] * 1e6, o.work[engine])),
        );
    }
    metrics.set(
        "msm.overlap_ratio",
        med(&|o| ratio(o.busy_ms[1] + o.busy_ms[2], o.msm_wall_ms)),
    );
    metrics.set(
        "msm.par_speedup",
        ratio(serial_med(&|o| o.msm_wall_ms), med(&|o| o.msm_wall_ms)),
    );
    let traced: Vec<&Sample> = measured
        .samples
        .iter()
        .filter(|s| s.mode == Mode::Traced)
        .collect();
    let batch = |which: usize| {
        median(
            &traced
                .iter()
                .map(|s| s.batch[which] as f64)
                .collect::<Vec<f64>>(),
        )
    };
    metrics.set("msm.batch_padds_per_op", batch(0));
    metrics.set("msm.batch_inversions_per_op", batch(1));

    let plain_ms = measured.ms_of(Mode::Plain);
    let plain_p50 = median(&plain_ms);
    if let Some(store) = ready.workload.store() {
        store_metrics(store, &mut metrics);
        // Only a workload with tables builds them on its first op.
        metrics.set("msm.preprocess_ms", ready.cold_op_ms - plain_p50);
    }
    match args.workload {
        "groth16_warm" => {
            metrics.set("groth16.poly_ms", stage("poly", 0));
            metrics.set("groth16.poly_self_ms", stage("poly", 1));
            metrics.set("groth16.msm_stage_ms", stage("msm_stage", 0));
            metrics.set("groth16.msm_self_ms", stage("msm_stage", 1));
            metrics.set("groth16.verify_ms", median(&verify_ms));
        }
        "plonk_warm" => {
            metrics.set("plonk.poly_ms", stage("poly", 0));
            let mut self_ms = stage("poly", 1) + stage("finish", 1);
            for name in PLONK_STEPS {
                metrics.set(
                    &format!("plonk.step_ms.{}", &name["step.".len()..]),
                    stage(name, 0),
                );
                self_ms += stage(name, 1);
            }
            metrics.set("plonk.finish_ms", stage("finish", 0));
            metrics.set("plonk.self_ms", self_ms);
            metrics.set("plonk.verify_ms", median(&verify_ms));
        }
        _ => {}
    }

    let traced_p50 = median(&measured.ms_of(Mode::Traced));
    metrics.set("bench.op_ms_p50_untraced", plain_p50);
    metrics.set(
        "bench.trace_overhead_frac",
        ratio(traced_p50, plain_p50) - 1.0,
    );
    metrics.set(
        "bench.unattributed_frac",
        med(&|o| ratio(o.op_self_ms, o.op_ms)),
    );
    let sink_ms = measured.ms_of(Mode::Sink);
    if !sink_ms.is_empty() {
        metrics.set(
            "telemetry.sink_overhead_frac",
            ratio(median(&sink_ms), plain_p50) - 1.0,
        );
    }
    metrics.set(
        "bench.ops_per_s_window",
        window_throughput(0.0, &timeline_s(&plain_ms)),
    );
    let mut conditions = vec![
        ("clients".into(), Value::U64(1)),
        ("samples".into(), Value::U64(plain_ms.len() as u64)),
        ("traced_samples".into(), Value::U64(traced.len() as u64)),
        (
            "output_digest".into(),
            Value::Str(digest(&ready.reference.0, ready.reference.1)),
        ),
    ];
    tail_metric(&plain_ms, &mut metrics, &mut conditions);
    Ok(Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        errors: measured.errors,
        metrics,
        conditions,
        trace: Some(trace),
    })
}

// ---------------------------------------------------------------------------
// service_mixed
// ---------------------------------------------------------------------------

fn run_service(args: &Args) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let (service, times) = ServiceMixed::setup(args.sizes.service, args.seed)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let tracer = Tracer::new();
    // Every second request traced: with three classes round-robin, each
    // class gets traced and plain requests alike.
    let requests = service.run(args.window, if args.traced { 2 } else { 0 }, &tracer);
    let trace = args.traced.then(|| tracer.finish());
    let attempted = requests.len() as u64;
    let errors: Vec<String> = requests.iter().filter_map(|r| r.error.clone()).collect();
    let failed = errors.len() as u64;
    let good: Vec<&Request> = requests.iter().filter(|r| r.error.is_none()).collect();
    let plain: Vec<&Request> = good.iter().copied().filter(|r| !r.traced).collect();
    let plain_ms: Vec<f64> = plain.iter().map(|r| r.ms).collect();
    let done_at_s: Vec<f64> = plain.iter().map(|r| r.done_at_s).collect();
    let inside = median_inside_cluster(
        &plain
            .iter()
            .map(|r| (r.class, r.ms))
            .collect::<Vec<(usize, f64)>>(),
    );
    let sim_ms = service.reference_sim_ms();
    let mut conditions = vec![
        ("clients".into(), Value::U64(SERVICE_CLIENTS as u64)),
        ("samples".into(), Value::U64(plain_ms.len() as u64)),
        ("p50_inside_cluster".into(), Value::Bool(inside)),
        (
            "output_digest".into(),
            Value::Str(digest(&service.reference_bytes(), sim_ms)),
        ),
    ];

    let metrics = if let Some(trace) = &trace {
        let mut metrics = base_layer_metrics(&times, sim_ms, args.seed);
        let traced: Vec<&Request> = good.iter().copied().filter(|r| r.traced).collect();
        let med = |f: &dyn Fn(&Request) -> f64| {
            median(&traced.iter().map(|r| f(r)).collect::<Vec<f64>>())
        };
        metrics.set("service.queue_wait_ms_p50", med(&|r| r.queue_wait_ms));
        metrics.set("service.execute_ms_p50", med(&|r| r.execute_ms));
        metrics.set(
            "service.overhead_ms_p50",
            med(&|r| r.ms - r.queue_wait_ms - r.execute_ms),
        );
        metrics.set("service.req_ms_p90", percentile(&plain_ms, 90.0));
        let stats = service.stats();
        metrics.set("service.rejected", stats.rejected as f64);
        metrics.set("service.deadline_missed", stats.deadline_missed as f64);
        metrics.set("service.retries", stats.retries as f64);
        store_metrics(&service.store(), &mut metrics);
        let plain_p50 = median(&plain_ms);
        metrics.set("bench.op_ms_p50_untraced", plain_p50);
        metrics.set(
            "bench.trace_overhead_frac",
            ratio(med(&|r| r.ms), plain_p50) - 1.0,
        );
        let shares: Vec<f64> = trace
            .roots()
            .into_iter()
            .map(|r| ratio(trace.self_ms(r), trace.spans[r].ms()))
            .collect();
        metrics.set("bench.unattributed_frac", median(&shares));
        metrics.set(
            "bench.ops_per_s_window",
            window_throughput(
                0.0,
                &requests.iter().map(|r| r.done_at_s).collect::<Vec<f64>>(),
            ),
        );
        tail_metric(&plain_ms, &mut metrics, &mut conditions);
        conditions.push(("traced_samples".into(), Value::U64(traced.len() as u64)));
        metrics
    } else {
        conditions.push((
            "ops_per_s_window".into(),
            Value::F64(window_throughput(0.0, &done_at_s)),
        ));
        end_to_end_metrics(setup_s, &plain_ms, &done_at_s)
    };
    Ok(Outcome {
        attempted,
        failed,
        errors: errors.into_iter().take(5).collect(),
        metrics,
        conditions,
        trace,
    })
}
