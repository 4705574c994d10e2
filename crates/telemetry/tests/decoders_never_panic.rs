//! The two JSON decoders a run's artifacts are read back with —
//! [`Trace::from_json`] and [`MetricsSnapshot::from_json`] — answer
//! `Ok` or `Err` on any text and never panic: on every UTF-8 prefix of a
//! real trace and a real snapshot, and on a fixed-seed budget of
//! single-byte substitutions of each.

use gzkp_gpu_sim::device::{v100, Backend};
use gzkp_gpu_sim::kernel::{BlockCost, KernelSpec, StageReport};
use gzkp_telemetry::{
    emit_stage, log2_histogram, names, span, MetricsRegistry, MetricsSnapshot, TelemetrySink,
    Trace, TraceRecorder,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Substituted bytes per document.
const SUBSTITUTIONS: u32 = 3000;

/// What a substituted byte becomes: JSON's structural characters, digits
/// and the letters of its literals, so most mutants stay close to JSON.
const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \ntrufalsn\\";

/// A prover-shaped trace: spans, a simulated kernel, counters, a peak
/// gauge and a histogram.
fn real_trace() -> String {
    let rec = TraceRecorder::new("V100");
    {
        let _prove = span(&rec, names::SPAN_PROVE);
        {
            let _poly = span(&rec, names::SPAN_POLY);
            let mut stage = StageReport::new("POLY");
            let cost = BlockCost {
                mac_ops: 5e4,
                dram_sectors: 128,
                shared_bytes: 1024,
            };
            let spec = KernelSpec::uniform("butterfly.0", 256, 0, Backend::FpLib, 4, 160, cost);
            stage.run(&v100(), &spec);
            emit_stage(&rec, &stage);
            rec.counter(names::NTT_FIELD_MULS, 1e6);
        }
        let _msm = span(&rec, names::SPAN_MSM);
        let _a = span(&rec, "a");
        rec.value(names::PEAK_DEVICE_BYTES, 2.5e9);
        let loads = log2_histogram([0, 3, 17, 17, 900, u64::MAX].into_iter());
        rec.histogram("bucket_occupancy", &loads);
    }
    rec.finish().to_json()
}

/// A service-shaped snapshot: labeled and unlabeled counters, gauges and
/// histograms, including a sample in the top bucket.
fn real_snapshot() -> String {
    let reg = MetricsRegistry::new();
    reg.counter(names::SERVICE_ACCEPTED).add(12);
    reg.counter_with(names::DEVICE_STAGES, "device", "dev0")
        .add(7);
    reg.gauge(names::SERVICE_QUEUE_DEPTH).set(2.5);
    reg.gauge_with(names::HOST_INFLIGHT, names::LABEL_HOST, "h0")
        .set(1.0);
    let wait = reg.histogram(names::SERVICE_QUEUE_WAIT_NS);
    for ns in [0, 1_500, 2_000_000, u64::MAX] {
        wait.record(ns);
    }
    reg.histogram_with(names::STAGE_LATENCY_NS, "stage", "msm")
        .record(9_000_000);
    reg.snapshot().to_json()
}

/// Decodes `text`, failing with `what` if the decoder panics.
fn survives(decode: fn(&str) -> bool, text: &str, what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(text)));
    assert!(outcome.is_ok(), "{what}: the decoder panicked");
}

fn every_prefix(decode: fn(&str) -> bool, text: &str) {
    assert!(decode(text), "the whole document decodes");
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        survives(decode, &text[..end], &format!("prefix of {end} bytes"));
    }
}

fn substitutions(decode: fn(&str) -> bool, text: &str, seed: u64) {
    let mut state = seed;
    let mut next = |bound: usize| {
        // xorshift64: a fixed sequence per seed.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut bytes = text.as_bytes().to_vec();
    for case in 0..SUBSTITUTIONS {
        let at = next(bytes.len());
        let was = bytes[at];
        bytes[at] = ALPHABET[next(ALPHABET.len())];
        if let Ok(mutant) = std::str::from_utf8(&bytes) {
            survives(
                decode,
                mutant,
                &format!("case {case}: byte {at} → {}", bytes[at]),
            );
        }
        bytes[at] = was;
    }
}

fn trace_decodes(text: &str) -> bool {
    Trace::from_json(text).is_ok()
}

fn snapshot_decodes(text: &str) -> bool {
    MetricsSnapshot::from_json(text).is_ok()
}

#[test]
fn trace_decoder_never_panics_on_prefixes() {
    every_prefix(trace_decodes, &real_trace());
}

#[test]
fn trace_decoder_never_panics_on_substitutions() {
    substitutions(trace_decodes, &real_trace(), 0x9e37_79b9_7f4a_7c15);
}

#[test]
fn snapshot_decoder_never_panics_on_prefixes() {
    every_prefix(snapshot_decodes, &real_snapshot());
}

#[test]
fn snapshot_decoder_never_panics_on_substitutions() {
    substitutions(snapshot_decodes, &real_snapshot(), 0x2545_f491_4f6c_dd1d);
}
