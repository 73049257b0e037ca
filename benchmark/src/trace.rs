//! Benchmark-owned tracing: a span around every call into a layer.
//!
//! Spans are recorded from the benchmark's own code (nothing inside the
//! system under test is instrumented), kept in memory, and written out
//! as a Chrome trace when the run ends. A layer's *self time* is its
//! span minus the part its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Switched off it runs the wrapped call and nothing
/// else, so the untraced pass and the traced pass share one code path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Tags spans recorded from now on with operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[idx as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Adds an already-timed span (stamped against [`Tracer::epoch`])
    /// under the span that is open now. For layers reached through a
    /// `&self` callback that cannot borrow the tracer.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                op: self.op,
                name,
                parent: self.open.last().copied(),
                start_ns,
                end_ns,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Summed self time of the spans whose name is in `names`.
pub fn self_time_of(spans: &[Span], own: &[u64], names: &[&str]) -> u64 {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| names.contains(&s.name))
        .map(|(_, &t)| t)
        .sum()
}

/// Chrome trace-event JSON for the first `limit` spans.
pub fn chrome_json(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("parse", Some(0), 5, 25),
            span("execute", Some(0), 30, 90),
            span("merge", Some(2), 70, 85),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 20, 45, 15]);
        // Self times of one op add up to the op span exactly.
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
        assert_eq!(self_time_of(&spans, &own, &["parse", "merge"]), 35);
        assert_eq!(durations(&spans, "execute"), vec![60]);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_op(3);
        let v = tr.span("op", |tr| {
            tr.span("inner", |_| 1) + tr.span("inner", |tr| tr.span("leaf", |_| 1))
        });
        assert_eq!(v, 2);
        let s = tr.spans();
        let names: Vec<_> = s.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None, 3),
                ("inner", Some(0), 3),
                ("inner", Some(0), 3),
                ("leaf", Some(2), 3)
            ]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("op", |_| 5), 5);
        off.record("x", 0, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_export_is_json_and_honours_the_limit() {
        let spans = vec![
            span("a", None, 1_000, 3_500),
            span("b", Some(0), 1_500, 2_000),
        ];
        let json = chrome_json(&spans, 1);
        assert!(crate::json::is_valid(&json));
        assert!(json.contains("\"name\":\"a\"") && !json.contains("\"name\":\"b\""));
        assert!(json.contains("\"ts\":1.000") && json.contains("\"dur\":2.500"));
    }
}
