//! The versioned machine-readable trace: the span tree a
//! [`crate::TraceRecorder`] produces, its JSON form (`gzkp-trace.json`),
//! and the text rendering `zkprof render` prints.

use gzkp_gpu_sim::kernel::{KernelReport, StageReport};
use gzkp_gpu_sim::report::{render_stage, utilization};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Version of the on-disk trace schema. Bump when [`Trace`]/[`TraceNode`]
/// change shape; [`Trace::from_json`] rejects mismatches so stale traces
/// fail loudly instead of mis-parsing.
pub const SCHEMA_VERSION: u32 = 1;

/// A named histogram attached to a span (e.g. MSM bucket occupancy:
/// label = log2 bucket-size class, count = buckets in that class).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Histogram name.
    pub name: String,
    /// `(bucket_label, count)` pairs, sparse.
    pub buckets: Vec<(u64, u64)>,
}

/// One span in the trace tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceNode {
    /// Span name (`"prove"`, `"poly"`, `"ntt[3]"`, `"b_g2"`, …).
    pub name: String,
    /// Simulated nanoseconds covered by this span (own kernels plus all
    /// children; filled by [`crate::TraceRecorder::finish`]).
    pub time_ns: f64,
    /// Kernel executions recorded directly on this span.
    pub kernels: Vec<KernelReport>,
    /// Additive counters (`mac_ops`, `msm.padd`, …).
    pub counters: Vec<(String, f64)>,
    /// Max-kept gauges (`device.peak_bytes`, …).
    pub values: Vec<(String, f64)>,
    /// Histograms attached to this span.
    pub histograms: Vec<Histogram>,
    /// Nested spans, in open order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Fresh empty span.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            time_ns: 0.0,
            kernels: Vec::new(),
            counters: Vec::new(),
            values: Vec::new(),
            histograms: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Looks up an additive counter by name.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// First child with the given name.
    pub fn child(&self, name: &str) -> Option<&TraceNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// This span's kernels as a [`StageReport`] (for the text tables).
    pub(crate) fn as_stage(&self) -> StageReport {
        StageReport {
            name: self.name.clone(),
            kernels: self.kernels.clone(),
        }
    }
}

/// Errors loading a trace from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The JSON did not parse or did not match the trace shape.
    Parse(String),
    /// The trace was written by a different schema version.
    SchemaVersion {
        /// Version found in the file.
        found: u64,
        /// Version this build expects.
        expected: u32,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Parse(e) => write!(f, "trace parse error: {e}"),
            TraceError::SchemaVersion { found, expected } => write!(
                f,
                "trace schema version {found} is not supported (expected {expected}); \
                 re-generate the trace with this build"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A complete prover trace: the versioned envelope around the span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// On-disk schema version; see [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Producing tool (`"gzkp"`).
    pub tool: String,
    /// Device label the run simulated (e.g. `"V100"`).
    pub device: String,
    /// The span tree. The root itself is synthetic; real spans start at
    /// its children.
    pub root: TraceNode,
}

impl Trace {
    /// Wraps a finished span tree in the current-schema envelope.
    pub fn new(tool: impl Into<String>, device: impl Into<String>, root: TraceNode) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            tool: tool.into(),
            device: device.into(),
            root,
        }
    }

    /// Walks the span tree by child names from the root.
    pub fn find(&self, path: &[&str]) -> Option<&TraceNode> {
        let mut node = &self.root;
        for name in path {
            node = node.child(name)?;
        }
        Some(node)
    }

    /// Pretty JSON for `gzkp-trace.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization is infallible")
    }

    /// Parses and version-checks a trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::SchemaVersion`] when the file was written by another
    /// schema version; [`TraceError::Parse`] for malformed input. The
    /// version is checked *before* full decoding so a future schema fails
    /// with the right message rather than a field error.
    pub fn from_json(text: &str) -> Result<Self, TraceError> {
        let value = serde_json::parse_value(text).map_err(|e| TraceError::Parse(e.to_string()))?;
        let found = value
            .get("schema_version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| TraceError::Parse("missing schema_version".into()))?;
        if found != SCHEMA_VERSION as u64 {
            return Err(TraceError::SchemaVersion {
                found,
                expected: SCHEMA_VERSION,
            });
        }
        serde::from_value(value).map_err(|e| TraceError::Parse(e.0))
    }

    /// Writes `self` as pretty JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a trace file.
    ///
    /// # Errors
    ///
    /// I/O errors are reported as [`TraceError::Parse`].
    pub fn read_from(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| TraceError::Parse(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_json(&text)
    }
}

/// Renders a trace as indented span lines plus, for spans that executed
/// kernels, the existing per-kernel text tables of
/// [`gzkp_gpu_sim::report::render_stage`].
pub fn render_trace(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: tool={} device={} schema=v{}",
        trace.tool, trace.device, trace.schema_version
    );
    for (child, label) in trace
        .root
        .children
        .iter()
        .zip(sibling_labels(&trace.root.children))
    {
        render_node(&mut out, child, &label, 0);
    }
    out
}

/// Renders the per-device stream lanes of a fleet trace (`runtime →
/// dev{n} → {h2d,kernel,d2h}`) as ASCII timeline rows on one shared time
/// axis: every lane is a fixed-width row whose filled cells mark when its
/// ops ran in simulated time, so upload/compute/download overlap — and
/// gaps — line up visually across devices. Lane glyphs: `=` for H2D
/// copies, `#` for kernels, `-` for D2H copies, `^` for device↔device
/// P2P copies (NVLink or host-staged partial-sum merges) on the `p2p`
/// lane, and `!` for health events (faults, quarantines, recoveries) on
/// the `health` marker lane the fleet emits when a device degraded
/// during the run.
///
/// Returns `None` when the trace has no `runtime` node with device lanes
/// (i.e. it is not a fleet trace).
pub fn render_timeline(trace: &Trace) -> Option<String> {
    const COLS: usize = 64;
    let runtime = trace.root.child(crate::names::SPAN_RUNTIME)?;
    let devices: Vec<&TraceNode> = runtime
        .children
        .iter()
        .filter(|c| c.name.starts_with("dev"))
        .collect();
    let op_window = |op: &TraceNode| {
        let start = op.value(crate::names::SPAN_START_NS).unwrap_or(0.0);
        (start, start + op.time_ns)
    };
    let end = devices
        .iter()
        .flat_map(|d| &d.children)
        .flat_map(|lane| &lane.children)
        .map(|op| op_window(op).1)
        .fold(0.0f64, f64::max);
    if devices.is_empty() || end <= 0.0 {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: device={} 0 .. {:.3} ms  (1 col = {:.3} ms)",
        trace.device,
        end / 1e6,
        end / 1e6 / COLS as f64
    );
    for dev in devices {
        for (li, lane) in dev.children.iter().enumerate() {
            let glyph = match lane.name.as_str() {
                crate::names::LANE_H2D => '=',
                crate::names::LANE_D2H => '-',
                crate::names::LANE_P2P => '^',
                crate::names::SPAN_HEALTH => '!',
                _ => '#',
            };
            let mut row = [' '; COLS];
            for op in &lane.children {
                let (start, stop) = op_window(op);
                let lo = ((start / end) * COLS as f64).floor() as usize;
                let hi = ((stop / end) * COLS as f64).ceil() as usize;
                let lo = lo.min(COLS - 1);
                let hi = hi.clamp(lo + 1, COLS);
                for cell in &mut row[lo..hi] {
                    *cell = glyph;
                }
            }
            let label = if li == 0 { dev.name.as_str() } else { "" };
            let _ = writeln!(
                out,
                "{label:>6} {:>6} |{}| {:>3} op(s) {:>10.3} ms busy",
                lane.name,
                row.iter().collect::<String>(),
                lane.children.len(),
                lane.time_ns / 1e6
            );
        }
    }
    Some(out)
}

/// Display labels for one sibling list, in recorded order. A name that
/// repeats among siblings (five concurrent MSM spans, per-job spans in a
/// service trace) gets a stable 1-based `#k` occurrence ordinal, so the
/// rendering identifies each span by position rather than relying on
/// emit order alone; unique names render unchanged.
fn sibling_labels(children: &[TraceNode]) -> Vec<String> {
    let count = |among: &[TraceNode], name: &str| among.iter().filter(|c| c.name == name).count();
    (children.iter().enumerate())
        .map(|(i, c)| match count(children, &c.name) {
            1 => c.name.clone(),
            _ => format!("{} #{}", c.name, count(&children[..=i], &c.name)),
        })
        .collect()
}

fn render_node(out: &mut String, node: &TraceNode, label: &str, depth: usize) {
    let indent = "  ".repeat(depth);
    let _ = writeln!(out, "{indent}{label:<24} {:>12.3} ms", node.time_ns / 1e6);
    for (name, v) in &node.counters {
        let _ = writeln!(out, "{indent}  · {name} = {v:.0}");
    }
    for (name, v) in &node.values {
        let _ = writeln!(out, "{indent}  · {name} = {v:.0} (peak)");
    }
    for h in &node.histograms {
        let total: u64 = h.buckets.iter().map(|(_, c)| c).sum();
        let _ = writeln!(out, "{indent}  · histogram {} ({total} items):", h.name);
        for (bucket, count) in &h.buckets {
            let _ = writeln!(out, "{indent}      2^{bucket:<2} {count:>8}");
        }
    }
    if !node.kernels.is_empty() {
        let stage = node.as_stage();
        let u = utilization(&stage);
        for line in render_stage(&stage).lines() {
            let _ = writeln!(out, "{indent}  {line}");
        }
        let _ = writeln!(
            out,
            "{indent}  bound: compute {:.0}%  dram {:.0}%  shared {:.0}%  overhead {:.0}%",
            u.compute * 100.0,
            u.dram * 100.0,
            u.shared * 100.0,
            u.overhead * 100.0
        );
    }
    for (child, label) in node.children.iter().zip(sibling_labels(&node.children)) {
        render_node(out, child, &label, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit_stage, names, span, TelemetrySink, TraceRecorder};
    use gzkp_gpu_sim::device::{v100, Backend};
    use gzkp_gpu_sim::kernel::{BlockCost, KernelSpec};

    fn sample_trace() -> Trace {
        let rec = TraceRecorder::new("V100");
        let dev = v100();
        let _p = span(&rec, "prove");
        {
            let _poly = span(&rec, "poly");
            let mut stage = StageReport::new("POLY");
            stage.run(
                &dev,
                &KernelSpec::uniform(
                    "butterfly.0",
                    256,
                    0,
                    Backend::FpLib,
                    4,
                    160,
                    BlockCost {
                        mac_ops: 5e4,
                        dram_sectors: 128,
                        shared_bytes: 1024,
                    },
                ),
            );
            emit_stage(&rec, &stage);
            rec.counter(names::NTT_FIELD_MULS, 1e6);
        }
        {
            let _msm = span(&rec, "msm");
            rec.histogram("bucket_occupancy", &[(0, 7), (4, 2)]);
            rec.value(names::PEAK_DEVICE_BYTES, 2.5e9);
        }
        drop(_p);
        rec.finish()
    }

    #[test]
    fn json_roundtrip_preserves_trace() {
        let t = sample_trace();
        let json = t.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.device, t.device);
        let (a, b) = (
            t.find(&["prove", "poly"]).unwrap(),
            back.find(&["prove", "poly"]).unwrap(),
        );
        assert_eq!(a.kernels.len(), b.kernels.len());
        assert_eq!(a.kernels[0].name, b.kernels[0].name);
        assert_eq!(a.kernels[0].time_ns, b.kernels[0].time_ns);
        assert_eq!(a.kernels[0].dram_sectors, b.kernels[0].dram_sectors);
        assert_eq!(a.counters, b.counters);
        let (ma, mb) = (
            t.find(&["prove", "msm"]).unwrap(),
            back.find(&["prove", "msm"]).unwrap(),
        );
        assert_eq!(ma.histograms, mb.histograms);
        assert_eq!(ma.values, mb.values);
        assert_eq!(ma.time_ns, mb.time_ns);
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let t = sample_trace();
        let json = t.to_json();
        let future = json.replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
            1,
        );
        assert_ne!(json, future, "version field must be present in the JSON");
        match Trace::from_json(&future) {
            Err(TraceError::SchemaVersion {
                found: 999,
                expected,
            }) => {
                assert_eq!(expected, SCHEMA_VERSION);
            }
            other => panic!("expected schema-version error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(matches!(Trace::from_json("{"), Err(TraceError::Parse(_))));
        assert!(matches!(
            Trace::from_json("{\"no_version\": true}"),
            Err(TraceError::Parse(_))
        ));
    }

    #[test]
    fn render_shows_spans_and_tables() {
        let t = sample_trace();
        let text = render_trace(&t);
        assert!(text.contains("prove"));
        assert!(text.contains("poly"));
        assert!(text.contains("butterfly.0"));
        assert!(text.contains("bucket_occupancy"));
        assert!(text.contains("ntt.field_muls"));
        assert!(text.contains("bound:"));
    }

    #[test]
    fn render_repeated_sibling_spans_in_recorded_order() {
        // Five same-named sibling spans (the concurrent-MSM shape) each
        // carrying a distinguishing counter and a child span: the render
        // must keep recorded order, number the repeats, and indent every
        // child exactly one level under its own parent.
        let rec = TraceRecorder::new("V100");
        {
            let _m = span(&rec, "msm");
            for i in 0..5 {
                let _j = span(&rec, "part");
                rec.counter("ordinal", i as f64);
                let _inner = span(&rec, "kernels");
                rec.counter("inner", 10.0 + i as f64);
            }
        }
        let text = render_trace(&rec.finish());
        let lines: Vec<&str> = text.lines().collect();
        // Recorded order: part #1 .. part #5, each followed by its own
        // counter and its child before the next sibling starts.
        let starts: Vec<usize> = (1..=5)
            .map(|k| {
                lines
                    .iter()
                    .position(|l| l.trim_start().starts_with(&format!("part #{k}")))
                    .unwrap_or_else(|| panic!("part #{k} missing in:\n{text}"))
            })
            .collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "order: {starts:?}");
        for (k, &s) in starts.iter().enumerate() {
            let end = *starts.get(k + 1).unwrap_or(&lines.len());
            let block = &lines[s..end];
            assert!(
                block.iter().any(|l| l.contains(&format!("ordinal = {k}"))),
                "part #{} lost its counter:\n{text}",
                k + 1
            );
            // Child indentation is stable: "part" sits at depth 1
            // (2 spaces), its "kernels" child at depth 2 (4 spaces).
            let child = block
                .iter()
                .find(|l| l.trim_start().starts_with("kernels"))
                .unwrap_or_else(|| panic!("part #{} lost its child:\n{text}", k + 1));
            assert!(
                lines[s].starts_with("  part"),
                "parent indent: {:?}",
                lines[s]
            );
            assert!(child.starts_with("    kernels"), "child indent: {child:?}");
        }
        // Unique names stay unadorned.
        assert!(text.contains("msm "));
        assert!(!text.contains("msm #"));
    }

    #[test]
    fn span_time_feeds_span_without_kernels() {
        let rec = TraceRecorder::new("svc");
        {
            let _s = span(&rec, "service");
            {
                let _w = span(&rec, "queue_wait");
                rec.span_time(2.5e6);
            }
        }
        let t = rec.finish();
        let wait = t.find(&["service", "queue_wait"]).unwrap();
        assert_eq!(wait.time_ns, 2.5e6);
        // The parent aggregates the directly-recorded child time.
        assert_eq!(t.find(&["service"]).unwrap().time_ns, 2.5e6);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("gzkp-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        t.write_to(&path).unwrap();
        let back = Trace::read_from(&path).unwrap();
        assert_eq!(back.root.children.len(), t.root.children.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn timeline_renders_device_lanes_on_shared_axis() {
        // Hand-build a fleet-shaped trace: two devices, ops placed via the
        // start_ns gauge so the rows expose (or refute) overlap visually.
        let op = |name: &str, start: f64, dur: f64| {
            let mut n = TraceNode::new(name);
            n.time_ns = dur;
            n.values
                .push((crate::names::SPAN_START_NS.to_string(), start));
            n
        };
        let lane = |name: &str, ops: Vec<TraceNode>| {
            let mut n = TraceNode::new(name);
            n.time_ns = ops.iter().map(|o| o.time_ns).sum();
            n.children = ops;
            n
        };
        let mut dev0 = TraceNode::new("dev0");
        dev0.children = vec![
            lane("h2d", vec![op("a.h2d", 0.0, 1e6), op("b.h2d", 2e6, 1e6)]),
            lane("kernel", vec![op("a.kernel", 1e6, 2e6)]),
            lane("d2h", vec![op("a.d2h", 3e6, 1e6)]),
        ];
        let mut dev1 = TraceNode::new("dev1");
        dev1.children = vec![
            lane("h2d", Vec::new()),
            lane("kernel", vec![op("c.kernel", 0.0, 4e6)]),
            lane("d2h", Vec::new()),
        ];
        let mut runtime = TraceNode::new("runtime");
        runtime.time_ns = 4e6;
        runtime.children = vec![dev0, dev1];
        let mut root = TraceNode::new("root");
        root.children = vec![runtime];
        let trace = Trace::new("gzkp", "2xV100", root);

        let text = render_timeline(&trace).expect("fleet trace renders");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("timeline: device=2xV100 0 .. 4.000 ms"));
        // 6 lane rows after the header, all with axis bars in one column.
        assert_eq!(lines.len(), 7);
        let bars: Vec<usize> = lines[1..].iter().map(|l| l.find('|').unwrap()).collect();
        assert!(
            bars.iter().all(|b| *b == bars[0]),
            "lanes misaligned: {text}"
        );
        // dev0 h2d fills the first quarter, is empty in the second, and
        // dev1's kernel spans the full axis.
        assert!(lines[1].contains("h2d"));
        assert!(lines[1].contains('='));
        assert!(lines[5].contains("kernel") && lines[5].matches('#').count() == 64);

        // A non-fleet trace has no timeline.
        assert!(render_timeline(&sample_trace()).is_none());
    }
}
