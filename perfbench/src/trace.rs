//! Outside-in span recording: the benchmark wraps its calls into the BDSM
//! crates in spans (the program itself is not instrumented). Spans stay in
//! memory until the run ends, then aggregate into per-name self times and
//! a Chrome-trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The build, session or request id the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for a single-threaded client. A tracer built
/// disabled records nothing; an enabled one can pause recording so that
/// traced and untraced operations alternate within one run.
pub struct Tracer {
    enabled: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when nothing is being recorded.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans begun now are recorded.
    pub fn recording(&self) -> bool {
        self.enabled && !self.paused
    }

    /// Pauses (`false`) or resumes (`true`) recording of new spans.
    pub fn set_recording(&mut self, on: bool) {
        self.paused = !on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span named `name` belonging to operation `op`; spans
    /// opened before it is ended become its children.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.recording() {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`begin`](Self::begin). Spans must close
    /// innermost first.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with its wall time
    /// in milliseconds (measured whether or not the span is recorded).
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.begin(name, op);
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.end(span);
        (out, ms)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self times in milliseconds grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(span.name).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, with its parent and operation id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.op,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Self time of every span in `spans` (see [`Tracer::self_times_ns`]).
/// Child intervals are merged before subtraction, so overlapping children
/// are not subtracted twice, and clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            // Clipped to the parent's interval.
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn tracer_nests_and_groups_by_name() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 7);
        let (two, _) = t.time("call", 7, || std::hint::black_box(1 + 1));
        let (four, ms) = t.time("call", 7, || std::hint::black_box(2 + 2));
        t.end(op);
        assert_eq!((two, four), (2, 4));
        assert!(ms >= 0.0);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.self_ms_by_name()["call"].len(), 2);
        assert!(t.to_chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("op", 1, || 5).0, 5);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        t.set_recording(false);
        let s = t.begin("paused", 1);
        t.end(s);
        t.set_recording(true);
        let s = t.begin("recorded", 2);
        t.end(s);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].name, "recorded");
    }
}
