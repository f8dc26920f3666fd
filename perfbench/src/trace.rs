//! In-memory span recorder for the traced replay.
//!
//! Spans are kept in a flat arena (name, start, end, parent, request id)
//! and written out once, at the end, as Chrome trace-event JSON. A
//! disabled recorder takes no timestamps at all, so the untraced replay
//! runs the same code without the recording cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Turns recording on or off (set-up work is replayed unrecorded).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.on = on;
    }

    /// Tags the spans that follow with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` under a (possibly new) name: a check's layer is only
    /// known once its verdict says which engine decided it.
    pub fn end_as(&mut self, id: SpanId, name: &'static str) {
        let Some(idx) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans closed out of order");
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end = end;
        span.name = name;
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let name = self.spans[idx].name;
            self.end_as(id, name);
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| self_time((s.start, s.end), kids))
            .collect()
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Chrome trace-event JSON (complete events, microseconds), which
    /// Perfetto and `chrome://tracing` open directly.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (k, s) in self.spans.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"parent\":{}}}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.request,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// A span's self time: its duration minus the part of it that the union
/// of its children covers. Children may overlap each other and may
/// stick out of the parent; only the covered part inside counts.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // Two disjoint children cover 10 + 5 of the 100.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 55)]), 85);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // [10,30) and [20,40) overlap on [20,30): the union is [10,40).
        assert_eq!(self_time((0, 100), &[(20, 40), (10, 30)]), 70);
        // A child contained in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn recorder_nests_and_attributes_by_name() {
        let mut tr = Tracer::new(true);
        tr.set_request(7);
        let root = tr.begin("request");
        let child = tr.begin("check");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end_as(child, "mc.leadsto");
        tr.end(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].name, "mc.leadsto");
        assert_eq!(spans[1].request, 7);
        let by_name = tr.self_time_by_name();
        let total = spans[0].end - spans[0].start;
        assert_eq!(by_name["request"] + by_name["mc.leadsto"], total);
        assert!(tr.chrome_json().contains("\"name\":\"mc.leadsto\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("spec", || 41 + 1);
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
    }
}
