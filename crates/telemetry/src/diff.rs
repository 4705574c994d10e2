//! Trace comparison: walks two span trees in parallel and flags stages
//! whose simulated time regressed beyond a threshold — and, on matched
//! spans, gates the recorded work counters (PADD counts, batch-inversion
//! savings, …) and histograms (bucket occupancy) the same way. Every
//! comparison is one [`Delta`] judged by one rule. Counters measure work
//! performed, so an *increase* is a regression; a counter that vanishes
//! from the new trace is flagged too (lost instrumentation must not read
//! as a win), while a brand-new counter is informational — except the
//! *recovery* counters (`STRICT_COUNTERS`): retries and verify rejects
//! appearing in a trace whose baseline had none mean the system started
//! failing and recovering where it used to run clean, so they gate as
//! regressions even though the baseline never emitted them. This is the
//! logic behind `zkprof diff`; it lives here so it is unit-testable
//! without the CLI.

use crate::names;
use crate::trace::{Histogram, Trace, TraceNode};
use std::fmt::Write as _;

/// Counters gated strictly: a non-zero value appearing on the new side of
/// a matched span regresses even when the baseline never emitted the
/// counter (`base` is taken as 0, so any occurrence is infinite growth).
pub(crate) const STRICT_COUNTERS: &[&str] = &[names::SERVICE_RETRIES, names::VERIFY_REJECTS];

/// What a [`Delta`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// A span's simulated time (ns).
    Span,
    /// A work counter of a matched span.
    Counter,
    /// A histogram of a matched span, through its bucket whose count grew
    /// the most (a label missing on one side counts as zero there).
    Histogram,
}

/// One comparison between the baseline and the candidate trace.
#[derive(Debug, Clone)]
pub struct Delta {
    /// What is compared.
    pub kind: DeltaKind,
    /// Slash-joined span path (`"prove/msm/b_g2"`).
    pub path: String,
    /// Counter or histogram name; empty for a span.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
}

impl Delta {
    /// `new / base`. A zero baseline is the one place kinds differ: a
    /// zero-time span reads 1.0 (nothing to slow down), while work
    /// appearing on a zero counter or bucket reads `+inf` (1.0 if it
    /// stayed zero).
    pub fn ratio(&self) -> f64 {
        match self.kind {
            DeltaKind::Span if self.base <= 0.0 => 1.0,
            _ if self.base == 0.0 && self.new == 0.0 => 1.0,
            _ if self.base == 0.0 => f64::INFINITY,
            _ => self.new / self.base,
        }
    }

    /// Whether the value grew by more than `threshold` (fractional: 0.05
    /// = 5%). Time and work both only count against a change when they
    /// grow.
    pub(crate) fn regressed(&self, threshold: f64) -> bool {
        self.ratio() > 1.0 + threshold
    }

    /// The table's status column at `threshold`.
    fn status(&self, threshold: f64) -> &'static str {
        if self.regressed(threshold) {
            "REGRESSED"
        } else if self.ratio() < 1.0 - threshold {
            "improved"
        } else {
            "ok"
        }
    }
}

/// Full comparison of two traces.
#[derive(Debug)]
pub struct TraceDiff {
    /// Every delta of matched spans, pre-order; a span's counter and
    /// histogram deltas follow its own.
    pub deltas: Vec<Delta>,
    /// Span paths present in exactly one trace (path, in_baseline).
    pub unmatched: Vec<(String, bool)>,
    /// Counters/histograms present on exactly one side of a matched
    /// span (`"path: name"`, in_baseline). `in_baseline == true` means
    /// instrumentation vanished — gated as a regression.
    pub counter_unmatched: Vec<(String, bool)>,
    /// The regression threshold the diff was taken at.
    pub threshold: f64,
}

impl TraceDiff {
    /// The deltas of `kind`.
    fn of(&self, kind: DeltaKind) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(move |d| d.kind == kind)
    }

    /// The deltas of `kind` that grew beyond the threshold.
    pub fn regressions(&self, kind: DeltaKind) -> impl Iterator<Item = &Delta> {
        self.of(kind).filter(|d| d.regressed(self.threshold))
    }

    /// True when any span, counter or histogram regressed, the trees have
    /// different shapes, or instrumentation vanished (neither must read
    /// as a win).
    pub fn is_regression(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed(self.threshold))
            || !self.unmatched.is_empty()
            || self.counter_unmatched.iter().any(|(_, in_base)| *in_base)
    }

    /// Human-readable table, one line per span.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let t = self.threshold;
        let _ = writeln!(
            out,
            "{:<32} {:>12} {:>12} {:>8}  status",
            "span", "base(ms)", "new(ms)", "ratio"
        );
        for d in self.of(DeltaKind::Span) {
            let _ = writeln!(
                out,
                "{:<32} {:>12.3} {:>12.3} {:>8.3}  {}",
                d.path,
                d.base / 1e6,
                d.new / 1e6,
                d.ratio(),
                d.status(t)
            );
        }
        for (path, in_base) in &self.unmatched {
            let what = if *in_base {
                "MISSING in new trace"
            } else {
                "ONLY in new trace"
            };
            let _ = writeln!(out, "{path:<32} {what:>47}");
        }
        // Counters/histograms: print only the interesting ones (the
        // prover emits hundreds that stay flat).
        for d in self.of(DeltaKind::Counter) {
            let status = d.status(t);
            if status == "ok" {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<32} {:>12.0} {:>12.0} {:>8.3}  {} [counter {}]",
                d.path,
                d.base,
                d.new,
                d.ratio(),
                status,
                d.name
            );
        }
        for d in self.regressions(DeltaKind::Histogram) {
            let _ = writeln!(
                out,
                "{:<32} {:>26} {:>8.3}  REGRESSED [histogram {}]",
                d.path,
                "",
                d.ratio(),
                d.name
            );
        }
        for (what, in_base) in &self.counter_unmatched {
            let side = if *in_base {
                "counter MISSING in new trace"
            } else {
                "counter ONLY in new trace"
            };
            let _ = writeln!(out, "{what:<32} {side:>47}");
        }
        let spans = self.of(DeltaKind::Span).count();
        let work = self.deltas.len() - spans;
        let regressed = self.deltas.iter().filter(|d| d.regressed(t)).count();
        let span_regs = self.regressions(DeltaKind::Span).count();
        let _ = writeln!(
            out,
            "{spans} spans compared, {span_regs} regressed; {work} counters compared, {} regressed \
             (threshold {:.1}%)",
            regressed - span_regs,
            t * 100.0
        );
        out
    }
}

/// Compares two traces with a fractional regression `threshold`
/// (0.05 = a span may be up to 5% slower before it counts).
pub fn diff_traces(base: &Trace, new: &Trace, threshold: f64) -> TraceDiff {
    let mut diff = TraceDiff {
        deltas: Vec::new(),
        unmatched: Vec::new(),
        counter_unmatched: Vec::new(),
        threshold,
    };
    walk(&base.root, &new.root, "", &mut diff);
    diff
}

fn walk(base: &TraceNode, new: &TraceNode, prefix: &str, out: &mut TraceDiff) {
    let path_of = |name: &str| {
        if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        }
    };
    for b_child in &base.children {
        let path = path_of(&b_child.name);
        match new.child(&b_child.name) {
            Some(n_child) => {
                let (base, new) = (b_child.time_ns, n_child.time_ns);
                out.deltas
                    .push(delta(DeltaKind::Span, &path, "", base, new));
                compare_metrics(b_child, n_child, &path, out);
                walk(b_child, n_child, &path, out);
            }
            None => out.unmatched.push((path, true)),
        }
    }
    for n_child in &new.children {
        if new
            .children
            .iter()
            .filter(|c| c.name == n_child.name)
            .count()
            > 1
        {
            continue; // duplicate names matched positionally above is out of scope
        }
        if base.child(&n_child.name).is_none() {
            out.unmatched.push((path_of(&n_child.name), false));
        }
    }
}

fn delta(kind: DeltaKind, path: &str, name: &str, base: f64, new: f64) -> Delta {
    Delta {
        kind,
        path: path.to_string(),
        name: name.to_string(),
        base,
        new,
    }
}

/// Compares the counters and histograms of one matched span pair.
fn compare_metrics(base: &TraceNode, new: &TraceNode, path: &str, out: &mut TraceDiff) {
    let counter =
        |name: &str, base: f64, new: f64| delta(DeltaKind::Counter, path, name, base, new);
    let unmatched = |name: &str, in_base: bool| (format!("{path}: {name}"), in_base);
    for (name, base_v) in &base.counters {
        match new.counter(name) {
            Some(new_v) => out.deltas.push(counter(name, *base_v, new_v)),
            None => out.counter_unmatched.push(unmatched(name, true)),
        }
    }
    for (name, new_v) in &new.counters {
        if new.counters.iter().filter(|(k, _)| k == name).count() > 1 {
            continue;
        }
        if base.counter(name).is_none() {
            if STRICT_COUNTERS.contains(&name.as_str()) && *new_v > 0.0 {
                // Recovery work appeared where the baseline had none:
                // treat the absent baseline as 0 so it gates.
                out.deltas.push(counter(name, 0.0, *new_v));
            } else {
                out.counter_unmatched.push(unmatched(name, false));
            }
        }
    }
    for b_hist in &base.histograms {
        match new.histograms.iter().find(|h| h.name == b_hist.name) {
            Some(n_hist) => out.deltas.push(worst_bucket(b_hist, n_hist, path)),
            None => out.counter_unmatched.push(unmatched(&b_hist.name, true)),
        }
    }
    for n_hist in &new.histograms {
        if !base.histograms.iter().any(|h| h.name == n_hist.name) {
            out.counter_unmatched.push(unmatched(&n_hist.name, false));
        }
    }
}

/// The histogram delta of one matched pair: the counts of the bucket
/// whose count grew the most, by [`Delta::ratio`] (two empty histograms
/// compare as one empty bucket).
fn worst_bucket(base: &Histogram, new: &Histogram, path: &str) -> Delta {
    let count = |h: &Histogram, label: u64| {
        let bucket = h.buckets.iter().find(|(l, _)| *l == label);
        bucket.map_or(0.0, |(_, c)| *c as f64)
    };
    let labels = base.buckets.iter().chain(&new.buckets).map(|(l, _)| *l);
    let histogram = |b, n| delta(DeltaKind::Histogram, path, &base.name, b, n);
    labels
        .map(|l| histogram(count(base, l), count(new, l)))
        .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
        .unwrap_or_else(|| histogram(0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SCHEMA_VERSION;

    fn leaf(name: &str, ns: f64) -> TraceNode {
        TraceNode {
            time_ns: ns,
            ..TraceNode::new(name)
        }
    }

    fn trace_with(times: &[(&str, f64)]) -> Trace {
        let mut root = TraceNode::new("root");
        let mut prove = TraceNode::new("prove");
        for (name, ns) in times {
            prove.children.push(leaf(name, *ns));
        }
        prove.time_ns = times.iter().map(|(_, ns)| ns).sum();
        root.time_ns = prove.time_ns;
        root.children.push(prove);
        Trace {
            schema_version: SCHEMA_VERSION,
            tool: "gzkp".into(),
            device: "V100".into(),
            root,
        }
    }

    #[test]
    fn identical_traces_have_no_regressions() {
        let t = trace_with(&[("poly", 1e6), ("msm", 5e6)]);
        let d = diff_traces(&t, &t, 0.05);
        assert!(!d.is_regression());
        assert_eq!(d.deltas.len(), 3); // prove, poly, msm
        assert!(d.deltas.iter().all(|x| (x.ratio() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn slowdown_beyond_threshold_regresses() {
        let base = trace_with(&[("poly", 1e6), ("msm", 5e6)]);
        let slow = trace_with(&[("poly", 1e6), ("msm", 5.6e6)]);
        let d = diff_traces(&base, &slow, 0.05);
        assert!(d.is_regression());
        let regs: Vec<_> = d.regressions(DeltaKind::Span).collect();
        // Both "prove" (aggregate) and "msm" regressed.
        assert!(regs.iter().any(|r| r.path == "prove/msm"));
        assert!(d.render().contains("REGRESSED"));
    }

    #[test]
    fn slowdown_within_threshold_passes() {
        let base = trace_with(&[("msm", 5e6)]);
        let slow = trace_with(&[("msm", 5.2e6)]);
        assert!(!diff_traces(&base, &slow, 0.05).is_regression());
        // The same delta fails a tighter threshold.
        assert!(diff_traces(&base, &slow, 0.01).is_regression());
    }

    #[test]
    fn shape_mismatch_is_flagged() {
        let base = trace_with(&[("poly", 1e6), ("msm", 5e6)]);
        let missing = trace_with(&[("poly", 1e6)]);
        let d = diff_traces(&base, &missing, 0.5);
        assert!(d.is_regression());
        assert!(d
            .unmatched
            .iter()
            .any(|(p, in_base)| p == "prove/msm" && *in_base));
        let d2 = diff_traces(&missing, &base, 0.5);
        assert!(d2
            .unmatched
            .iter()
            .any(|(p, in_base)| p == "prove/msm" && !in_base));
    }

    fn trace_with_counter(ns: f64, counters: &[(&str, f64)]) -> Trace {
        let mut t = trace_with(&[("msm", ns)]);
        t.root.children[0].children[0].counters =
            counters.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        t
    }

    #[test]
    fn counter_growth_beyond_threshold_regresses() {
        let base = trace_with_counter(5e6, &[("msm.padd", 1000.0)]);
        let grown = trace_with_counter(5e6, &[("msm.padd", 1300.0)]);
        let d = diff_traces(&base, &grown, 0.25);
        assert!(d.is_regression());
        assert_eq!(d.regressions(DeltaKind::Counter).count(), 1);
        assert!(d.render().contains("counter msm.padd"));
        // Within threshold passes; shrinking work is an improvement.
        assert!(!diff_traces(&base, &grown, 0.5).is_regression());
        assert!(!diff_traces(&grown, &base, 0.25).is_regression());
    }

    #[test]
    fn vanished_counter_regresses_new_counter_is_informational() {
        let base = trace_with_counter(5e6, &[("msm.padd", 1000.0)]);
        let bare = trace_with_counter(5e6, &[]);
        let d = diff_traces(&base, &bare, 0.25);
        assert!(d.is_regression(), "lost instrumentation must not pass");
        assert!(d.render().contains("counter MISSING"));
        let d2 = diff_traces(&bare, &base, 0.25);
        assert!(!d2.is_regression(), "a brand-new counter is fine");
        assert!(d2.render().contains("counter ONLY in new trace"));
    }

    #[test]
    fn recovery_counters_gate_even_when_new() {
        use crate::names;
        let base = trace_with_counter(5e6, &[]);
        // Retries appearing where the baseline ran clean is a regression…
        let retried = trace_with_counter(5e6, &[(names::SERVICE_RETRIES, 2.0)]);
        let d = diff_traces(&base, &retried, 0.25);
        assert!(d.is_regression(), "new retry.count must gate");
        assert!(d
            .regressions(DeltaKind::Counter)
            .any(|c| c.name == names::SERVICE_RETRIES && c.ratio() == f64::INFINITY));
        // …and so are verify rejects.
        let rejected = trace_with_counter(5e6, &[(names::VERIFY_REJECTS, 1.0)]);
        assert!(diff_traces(&base, &rejected, 0.25).is_regression());
        // A zero-valued strict counter stays informational.
        let clean = trace_with_counter(5e6, &[(names::SERVICE_RETRIES, 0.0)]);
        assert!(!diff_traces(&base, &clean, 0.25).is_regression());
        // Matched on both sides, the normal growth threshold applies.
        let b2 = trace_with_counter(5e6, &[(names::SERVICE_RETRIES, 4.0)]);
        let n2 = trace_with_counter(5e6, &[(names::SERVICE_RETRIES, 4.0)]);
        assert!(!diff_traces(&b2, &n2, 0.25).is_regression());
    }

    #[test]
    fn histogram_bucket_growth_regresses() {
        use crate::trace::Histogram;
        let mut base = trace_with(&[("msm", 5e6)]);
        let mut grown = trace_with(&[("msm", 5e6)]);
        base.root.children[0].children[0].histograms = vec![Histogram {
            name: "bucket_occupancy".into(),
            buckets: vec![(1, 100), (2, 50)],
        }];
        grown.root.children[0].children[0].histograms = vec![Histogram {
            name: "bucket_occupancy".into(),
            buckets: vec![(1, 100), (2, 80)],
        }];
        let d = diff_traces(&base, &grown, 0.25);
        assert!(d.is_regression());
        assert_eq!(d.regressions(DeltaKind::Histogram).count(), 1);
        // Identical histograms pass.
        assert!(!diff_traces(&base, &base, 0.25).is_regression());
        // A count appearing in a previously empty bucket is flagged too.
        grown.root.children[0].children[0].histograms[0]
            .buckets
            .push((7, 1));
        let d3 = diff_traces(&base, &grown, 10.0);
        assert!(d3.is_regression());
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let base = trace_with(&[("msm", 5e6)]);
        let fast = trace_with(&[("msm", 2e6)]);
        let d = diff_traces(&base, &fast, 0.05);
        assert!(!d.is_regression());
        assert!(d.render().contains("improved"));
    }
}
