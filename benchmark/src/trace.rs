//! Benchmark-side spans: recorded around the calls into each layer, kept
//! in memory, written out when the run ends.
//!
//! A span is `(name, start, end, parent, op)`; spans of one op share the
//! op id. A span's *self time* is its duration minus the union of its
//! children — the union, not the sum, because a Groth16 proof's five MSMs
//! overlap on the thread pool.

use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span that caused this one; `None` for an op's root.
    pub parent: Option<usize>,
    /// Id shared by all spans of one op (request).
    pub op: u64,
    /// Span name, e.g. `poly`, `ntt`, `msm.g1`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Work the call did, in the layer's own unit (NTT: butterflies,
    /// MSM: points); 0 for stage spans.
    pub work: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the one op in flight on the driving thread,
    /// innermost last.
    open: Vec<usize>,
    op: u64,
}

/// Span recorder. Off by default; [`Tracer::set_on`] toggles it per op,
/// so one run can interleave traced and untraced ops.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until switched on.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            state: Mutex::new(State::default()),
        }
    }

    /// Switches recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one (a new op's root when
    /// none is open); it closes when the guard drops. Driving thread only.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard { tracer: None };
        }
        let now = self.ns(Instant::now());
        let mut st = self.state();
        if st.open.is_empty() {
            st.op += 1;
        }
        let span = Span {
            parent: st.open.last().copied(),
            op: st.op,
            name,
            start_ns: now,
            end_ns: now,
            work: 0,
        };
        let id = st.spans.len();
        st.spans.push(span);
        st.open.push(id);
        SpanGuard { tracer: Some(self) }
    }

    /// Records a finished call (from any thread) under the innermost
    /// open span.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant, work: u64) {
        if !self.is_on() {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut st = self.state();
        let span = Span {
            parent: st.open.last().copied(),
            op: st.op,
            name,
            start_ns,
            end_ns,
            work,
        };
        st.spans.push(span);
    }

    /// Records a span with an explicit parent and op id — for requests
    /// in flight concurrently, whose spans are assembled once they
    /// resolve. Returns the span's id.
    pub fn record(
        &self,
        parent: Option<usize>,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut st = self.state();
        st.spans.push(Span {
            parent,
            op,
            name,
            start_ns,
            end_ns,
            work: 0,
        });
        st.spans.len() - 1
    }

    /// Takes the recorded spans.
    pub fn finish(self) -> Trace {
        let st = self
            .state
            .into_inner()
            .expect("a thread panicked while recording a span");
        Trace::new(st.spans)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            let now = tracer.ns(Instant::now());
            let mut st = tracer.state();
            if let Some(id) = st.open.pop() {
                st.spans[id].end_ns = now;
            }
        }
    }
}

/// The finished span list with its child index.
pub struct Trace {
    /// All spans, in recording order; a span's id is its index.
    pub spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl Trace {
    /// Indexes `spans` by parent.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (id, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        Self { spans, children }
    }

    /// Ids of the op roots, in recording order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].parent.is_none())
            .collect()
    }

    /// Direct children of `id`.
    pub fn children(&self, id: usize) -> &[usize] {
        &self.children[id]
    }

    /// `id` and everything below it.
    pub fn subtree(&self, id: usize) -> Vec<usize> {
        let mut out = vec![id];
        let mut next = 0;
        while next < out.len() {
            out.extend_from_slice(&self.children[out[next]]);
            next += 1;
        }
        out
    }

    /// Self time of `id` in ms: its duration minus the union of its
    /// children's intervals, each clipped to the span.
    pub fn self_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let kids: Vec<(u64, u64)> = self.children[id]
            .iter()
            .map(|&c| {
                let c = &self.spans[c];
                (
                    c.start_ns.clamp(s.start_ns, s.end_ns),
                    c.end_ns.clamp(s.start_ns, s.end_ns),
                )
            })
            .collect();
        ((s.end_ns - s.start_ns) - union_ns(kids)) as f64 / 1e6
    }

    /// The trace as JSON: one object per span.
    pub fn to_json(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Map(vec![
                        ("id".into(), Value::U64(id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("op".into(), Value::U64(s.op)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        ("self_ms".into(), Value::F64(self.self_ms(id))),
                        ("work".into(), Value::U64(s.work)),
                    ])
                })
                .collect(),
        )
    }
}

/// Total length covered by `intervals` (overlaps counted once).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut covered_to = 0;
    for (lo, hi) in intervals {
        let lo = lo.max(covered_to);
        if hi > lo {
            total += hi - lo;
            covered_to = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            op: 1,
            name: "s",
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![(5, 6), (0, 10)]), 10);
    }

    #[test]
    fn self_time_with_overlapping_children_and_grandchildren() {
        // op 0..100 ms
        //   stage 10..90          (child of op)
        //     a 10..60, b 40..80  (overlapping children of stage)
        //       inner 45..50      (grandchild: child of b only)
        //   late 95..120          (child of op, clipped at 100)
        let ms = 1_000_000;
        let trace = Trace::new(vec![
            span(None, 0, 100 * ms),
            span(Some(0), 10 * ms, 90 * ms),
            span(Some(1), 10 * ms, 60 * ms),
            span(Some(1), 40 * ms, 80 * ms),
            span(Some(3), 45 * ms, 50 * ms),
            span(Some(0), 95 * ms, 120 * ms),
        ]);
        // op: 100 − (stage 80 + late clipped 5)
        assert_eq!(trace.self_ms(0), 15.0);
        // stage: 80 − union(10..60, 40..80) = 80 − 70; the grandchild
        // does not count against the stage.
        assert_eq!(trace.self_ms(1), 10.0);
        assert_eq!(trace.self_ms(2), 50.0);
        assert_eq!(trace.self_ms(3), 35.0);
        assert_eq!(trace.self_ms(4), 5.0);
        assert_eq!(trace.roots(), vec![0]);
        assert_eq!(trace.subtree(1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn guards_nest_and_leaves_attach_to_the_innermost_span() {
        let tracer = Tracer::new();
        {
            let _off = tracer.enter("ignored");
        }
        tracer.set_on(true);
        for _ in 0..2 {
            let _op = tracer.enter("op");
            let _stage = tracer.enter("stage");
            let t = Instant::now();
            tracer.leaf("call", t, t, 7);
        }
        let trace = tracer.finish();
        assert_eq!(trace.spans.len(), 6);
        assert_eq!(trace.roots(), vec![0, 3]);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[2].work, 7);
        assert_eq!(trace.spans[0].op, 1);
        assert_eq!(trace.spans[5].op, 2);
        assert_eq!(trace.spans[5].parent, Some(4));
    }
}
