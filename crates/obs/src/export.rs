//! Exporters: Chrome/Perfetto `trace_event` JSON for the span recorder,
//! and a TSV serialization of a metrics snapshot.
//!
//! Exports are pure functions of recorded data, which is keyed entirely
//! to virtual time — so two runs with the same seed produce byte-for-byte
//! identical output (asserted by `trace_export_is_deterministic` in the
//! workspace tests). Nothing wall-clock-derived is allowed in here.
//!
//! Each exporter is one rendering body; the trace exporter hands its
//! output piecewise to an `emit` closure, so the `String` form and the
//! [`std::io::Write`] form (what `repro --trace-out` streams to a file)
//! cannot drift apart.

use std::fmt::Write as _;
use std::io;

use crate::metrics::MetricsSnapshot;
use crate::recorder::{ArgValue, TraceEvent};

/// The synthetic process id used for all trace events.
const PID: u32 = 1;
/// Counter samples and process metadata live on tid 0; span tracks start at 1.
const COUNTER_TID: u32 = 0;

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (finite values only; non-finite
/// values become 0 since JSON has no representation for them).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn write_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape_json(k));
        match v {
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(x) => out.push_str(&json_f64(*x)),
            ArgValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escape_json(s));
            }
        }
    }
    out.push('}');
}

/// Renders one event as `",\n{...}"`: every event follows a metadata
/// record, so the separator always leads.
fn write_event(out: &mut String, e: &TraceEvent) {
    out.push_str(",\n");
    match e {
        TraceEvent::Span {
            cat,
            name,
            track,
            start,
            dur,
            args,
        } => {
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"{}\",\"args\":",
                track.0 + 1,
                start.as_micros(),
                dur.as_micros(),
                escape_json(cat),
                escape_json(name)
            );
            write_args(out, args);
            out.push('}');
        }
        TraceEvent::Instant {
            cat,
            name,
            track,
            ts,
            args,
        } => {
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"s\":\"t\",\"cat\":\"{}\",\"name\":\"{}\",\"args\":",
                track.0 + 1,
                ts.as_micros(),
                escape_json(cat),
                escape_json(name)
            );
            write_args(out, args);
            out.push('}');
        }
        TraceEvent::Counter { name, ts, value } => {
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{COUNTER_TID},\"ts\":{},\"name\":\"{}\",\"args\":{{\"value\":{}}}}}",
                ts.as_micros(),
                escape_json(name),
                json_f64(*value)
            );
        }
    }
}

/// The fixed trace header: opening brace plus the process/thread
/// metadata records (one per track).
fn write_trace_header(out: &mut String, tracks: &[String]) {
    out.push_str("{\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{COUNTER_TID},\"name\":\"process_name\",\"args\":{{\"name\":\"ids-sim\"}}}}"
    );
    let _ = write!(
        out,
        ",\n{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{COUNTER_TID},\"name\":\"thread_name\",\"args\":{{\"name\":\"counters\"}}}}"
    );
    for (i, name) in tracks.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            i as u32 + 1,
            escape_json(name)
        );
    }
}

/// The fixed trace trailer.
const TRACE_TRAILER: &str = "\n],\"displayTimeUnit\":\"ms\"}\n";

/// The one trace-rendering body: header, each event, trailer, handed to
/// `emit` in order through one reused buffer.
fn render_trace(
    events: &[TraceEvent],
    tracks: &[String],
    mut emit: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<()> {
    let mut buf = String::with_capacity(128 + tracks.len() * 64);
    write_trace_header(&mut buf, tracks);
    emit(&buf)?;
    for e in events {
        buf.clear();
        write_event(&mut buf, e);
        emit(&buf)?;
    }
    emit(TRACE_TRAILER)
}

/// Serializes recorded events as Chrome `trace_event` JSON (the format
/// read by `chrome://tracing` and <https://ui.perfetto.dev>). `tracks`
/// is the recorder's track-name table; track `i` renders as thread
/// `i + 1` of process 1, with counters on thread 0. Timestamps are
/// **virtual** microseconds, which the trace viewer happily treats as
/// wall micros — the timeline shape is what matters.
pub fn chrome_trace_json(events: &[TraceEvent], tracks: &[String]) -> String {
    let mut out = String::with_capacity(256 + events.len() * 96);
    render_trace(events, tracks, |piece| {
        out.push_str(piece);
        Ok(())
    })
    .expect("appending to a String cannot fail");
    out
}

/// Writes the bytes of [`chrome_trace_json`] to `writer` one event at a
/// time, so a large trace is never resident as one string. Returns the
/// writer's first error; flushing is the caller's job.
pub fn chrome_trace_write(
    events: &[TraceEvent],
    tracks: &[String],
    writer: &mut impl io::Write,
) -> io::Result<()> {
    render_trace(events, tracks, |piece| writer.write_all(piece.as_bytes()))
}

/// Serializes a metrics snapshot as tab-separated text: one section per
/// metric kind, `#`-prefixed headers, rows sorted by metric name.
pub fn metrics_tsv(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("# counters\nname\tvalue\n");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "{name}\t{v}");
    }
    out.push_str("# gauges\nname\tvalue\thigh_watermark\n");
    for (name, v, hwm) in &snap.gauges {
        let _ = writeln!(out, "{name}\t{v}\t{hwm}");
    }
    out.push_str("# histograms\nname\tcount\tsum\tmin\tmax\tmean\tp50\tp90\tp99\n");
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{name}\t{}\t{}\t{}\t{}\t{:.3}\t{}\t{}\t{}",
            h.count, h.sum, h.min, h.max, h.mean, h.p50, h.p90, h.p99
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;
    use crate::recorder::TrackId;
    use ids_simclock::{SimDuration, SimTime};

    fn sample_events() -> (Vec<TraceEvent>, Vec<String>) {
        let events = vec![
            TraceEvent::Span {
                cat: "exec",
                name: "count \"q\"".to_string(),
                track: TrackId(0),
                start: SimTime::from_micros(100),
                dur: SimDuration::from_micros(50),
                args: vec![
                    ("rows", ArgValue::U64(42)),
                    ("kind", ArgValue::Str("range".into())),
                ],
            },
            TraceEvent::Instant {
                cat: "opt",
                name: "kl.drop".to_string(),
                track: TrackId(1),
                ts: SimTime::from_micros(160),
                args: vec![("divergence", ArgValue::F64(0.25))],
            },
            TraceEvent::Counter {
                name: "engine.buffer.hits",
                ts: SimTime::from_micros(170),
                value: 3.0,
            },
        ];
        (events, vec!["worker/0".to_string(), "opt".to_string()])
    }

    /// Minimal structural JSON check: balanced delimiters outside strings.
    fn assert_balanced_json(s: &str) {
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {s}");
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let (events, tracks) = sample_events();
        let json = chrome_trace_json(&events, &tracks);
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("worker/0"));
        // The span name's embedded quotes must be escaped.
        assert!(json.contains("count \\\"q\\\""));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"dur\":50"));
        assert!(json.contains("\"value\":3"));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let (events, tracks) = sample_events();
        assert_eq!(
            chrome_trace_json(&events, &tracks),
            chrome_trace_json(&events, &tracks)
        );
    }

    #[test]
    fn trace_handles_empty_and_single_event() {
        let empty = chrome_trace_json(&[], &[]);
        assert_balanced_json(&empty);
        assert!(empty.starts_with("{\"traceEvents\":[\n"));
        assert!(empty.ends_with(TRACE_TRAILER));

        let (events, tracks) = sample_events();
        assert_balanced_json(&chrome_trace_json(&events[..1], &tracks));
    }

    #[test]
    fn writer_gets_the_same_bytes() {
        let (events, tracks) = sample_events();
        let mut written = Vec::<u8>::new();
        chrome_trace_write(&events, &tracks, &mut written).expect("vec writer");
        assert_eq!(written, chrome_trace_json(&events, &tracks).as_bytes());
    }

    /// A writer that accepts `remaining` writes and then fails.
    struct FailingWriter {
        remaining: usize,
    }

    impl io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.remaining == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.remaining -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Wherever the writer fails — header, an event, the trailer — the
    /// export returns that error instead of panicking or dropping it.
    #[test]
    fn writer_errors_propagate() {
        let (events, tracks) = sample_events();
        for remaining in 0..events.len() + 2 {
            let err = chrome_trace_write(&events, &tracks, &mut FailingWriter { remaining })
                .expect_err("writer failed");
            assert_eq!(err.to_string(), "disk full", "after {remaining} writes");
        }
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("a.hits".to_string(), 12)],
            gauges: vec![("q.depth".to_string(), 2, 9)],
            histograms: vec![(
                "lat_us".to_string(),
                HistogramSummary {
                    count: 3,
                    sum: 60,
                    min: 10,
                    max: 30,
                    mean: 20.0,
                    p50: 20,
                    p90: 30,
                    p99: 30,
                },
            )],
        }
    }

    #[test]
    fn tsv_contains_all_sections() {
        let tsv = metrics_tsv(&sample_snapshot());
        assert!(tsv.contains("# counters\n"));
        assert!(tsv.contains("a.hits\t12\n"));
        assert!(tsv.contains("q.depth\t2\t9\n"));
        assert!(tsv.contains("lat_us\t3\t60\t10\t30\t20.000\t20\t30\t30\n"));
    }
}
