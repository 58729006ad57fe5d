//! The benchmark's own span recorder: one span around every public
//! call it makes into the program, held in memory and written out as
//! Chrome-trace JSON when the run ends.
//!
//! A span's *self time* is its duration minus the part of its
//! interval that its children cover (overlapping children count
//! once). Spans never come from inside the program: the layer of a
//! span is the prefix of its name (`core.prepare` → `core`), naming
//! the crate whose public call it wraps; `bench` spans are the
//! benchmark's own set-up and iteration frames.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted name; the layer is the part before the first dot.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (navigation or traffic pass) the span belongs to.
    pub iter: u64,
    /// Request step within a traffic pass, for per-request spans.
    pub request: Option<u64>,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// The layer this span charges: the name's first segment.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle of an open span; close it with [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// In-memory span recorder. Timing is always measured (the workloads
/// need the durations); spans are only *kept* while recording is on.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), recording: false, spans: Vec::new(), stack: Vec::new() }
    }

    /// Turns span keeping on or off.
    pub fn record(&mut self, on: bool) {
        self.recording = on;
    }

    /// µs since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, iter: u64, request: Option<u64>) -> Open {
        let started = Instant::now();
        if !self.recording {
            return Open { index: None, started };
        }
        let start_us = started.duration_since(self.origin).as_secs_f64() * 1e6;
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            iter,
            request,
            start_us,
            end_us: start_us,
        });
        self.stack.push(index);
        Open { index: Some(index), started }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_us = now.duration_since(self.origin).as_secs_f64() * 1e6;
            debug_assert_eq!(self.stack.last(), Some(&index), "spans close innermost first");
            self.stack.retain(|&i| i != index);
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, iter: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, iter, None);
        let out = f();
        let secs = self.end(open);
        (out, secs)
    }

    /// Every kept span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of kept spans named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us() / 1e6).collect()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| b > a).collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Self time (µs) of every span: its duration minus what its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.dur_us() - covered(s.start_us, s.end_us, kids))
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Spans charged to the layer.
    pub spans: usize,
    /// Σ inclusive time (s) of the layer's outermost spans (a span
    /// nested in a span of the same layer is not counted twice).
    pub inclusive_s: f64,
    /// Σ self time (s).
    pub self_s: f64,
}

/// Per-layer inclusive and self time over `spans`.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let layer = s.layer();
        let row = rows.entry(layer).or_insert(LayerRow {
            layer,
            spans: 0,
            inclusive_s: 0.0,
            self_s: 0.0,
        });
        row.spans += 1;
        row.self_s += self_us / 1e6;
        let mut ancestor = s.parent;
        let mut nested_in_same = false;
        while let Some(a) = ancestor {
            if spans[a].layer() == layer {
                nested_in_same = true;
                break;
            }
            ancestor = spans[a].parent;
        }
        if !nested_in_same {
            row.inclusive_s += s.dur_us() / 1e6;
        }
    }
    rows.into_values().collect()
}

/// Wall time (s) inside `[lo_us, hi_us]` that no top-level span
/// covers: the part of the run missing from the ledger.
pub fn uncovered_s(spans: &[Span], lo_us: f64, hi_us: f64) -> f64 {
    let roots: Vec<(f64, f64)> =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.start_us, s.end_us)).collect();
    ((hi_us - lo_us) - covered(lo_us, hi_us, &roots)) / 1e6
}

/// Chrome trace-event JSON of `spans` (complete `X` events on one
/// track; `args` carry the span id, parent id, iteration and request).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let request = s.request.map_or("null".to_string(), |r| r.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"iter\":{},\"request\":{request}}}}}",
            s.name,
            s.layer(),
            s.start_us,
            s.dur_us(),
            s.iter,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name, parent, iter: 0, request: None, start_us: start, end_us: end }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 3.0), (2.0, 5.0)]), 4.0);
        assert_eq!(covered(0.0, 10.0, &[(6.0, 7.0), (1.0, 2.0)]), 2.0);
        assert_eq!(covered(0.0, 10.0, &[(-5.0, 2.0), (9.0, 20.0)]), 3.0);
        assert_eq!(covered(0.0, 10.0, &[(3.0, 3.0), (12.0, 14.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench.iteration", None, 0.0, 100.0),
            span("core.prepare", Some(0), 10.0, 40.0),
            span("core.explore", Some(0), 40.0, 50.0),
            // Overlaps its sibling: the union, not the sum, is covered.
            span("core.apply", Some(0), 45.0, 70.0),
            // A grandchild is charged to its parent only.
            span("store.open", Some(1), 10.0, 15.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![40.0, 25.0, 10.0, 25.0, 5.0]);
        let table = layer_table(&spans);
        let bench = table.iter().find(|r| r.layer == "bench").unwrap();
        assert_eq!((bench.inclusive_s, bench.self_s), (100e-6, 40e-6));
        let core = table.iter().find(|r| r.layer == "core").unwrap();
        assert_eq!(core.spans, 3);
        assert!((core.self_s - 60e-6).abs() < 1e-15);
        assert!((core.inclusive_s - 65e-6).abs() < 1e-15);
    }

    #[test]
    fn same_layer_nesting_is_not_double_counted() {
        let spans =
            vec![span("serve.pass", None, 0.0, 10.0), span("serve.drain", Some(0), 2.0, 6.0)];
        let row = &layer_table(&spans)[0];
        assert_eq!(row.inclusive_s, 10e-6);
        assert!((row.self_s - 10e-6).abs() < 1e-15);
    }

    #[test]
    fn uncovered_time_is_outside_every_root() {
        let spans = vec![
            span("bench.setup", None, 0.0, 10.0),
            span("graph.load", Some(0), 0.0, 4.0),
            span("bench.iteration", None, 15.0, 25.0),
        ];
        assert_eq!(uncovered_s(&spans, 0.0, 30.0), 10e-6);
    }

    #[test]
    fn tracer_keeps_spans_only_while_recording() {
        let mut t = Tracer::new();
        let ((), _) = t.time("core.prepare", 0, || ());
        assert!(t.spans().is_empty());
        t.record(true);
        let outer = t.begin("bench.iteration", 3, None);
        let inner = t.begin("serve.submit", 3, Some(7));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, Some(7));
        let json = chrome_trace(t.spans());
        assert!(json.contains("\"name\":\"serve.submit\",\"cat\":\"serve\""));
        assert!(json.contains("\"parent\":0,\"iter\":3,\"request\":7"));
    }
}
