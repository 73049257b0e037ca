//! Exporters: Chrome/Perfetto `trace_event` JSON for the span recorder,
//! and TSV/JSON serializations of a metrics snapshot.
//!
//! Exports are pure functions of recorded data, which is keyed entirely
//! to virtual time — so two runs with the same seed produce byte-for-byte
//! identical output (asserted by `trace_export_is_deterministic` in the
//! workspace tests). Nothing wall-clock-derived is allowed in here.
//!
//! ## Streaming chunked emission
//!
//! The exporters are structured around a [`ChunkSink`]: output is
//! produced as a sequence of independently-rendered chunks handed to the
//! sink in a fixed order, so a trace never has to be resident as one
//! `String` — an [`IoSink`] streams it straight to a file. Event chunks
//! cover fixed ranges of [`EXPORT_CHUNK_EVENTS`] events (the same
//! fixed-boundary discipline as the engine's `PAR_CHUNK_ROWS` parallel
//! kernels), so chunk contents are independent of the thread count used
//! to render them; [`chrome_trace_chunked`] renders chunks on worker
//! threads and emits them in chunk-index order, making the bytes
//! identical at any thread count — and identical to the former
//! monolithic builder (asserted by the parity tests in
//! `tests/observability.rs`).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::metrics::MetricsSnapshot;
use crate::recorder::{ArgValue, TraceEvent};

/// The synthetic process id used for all trace events.
const PID: u32 = 1;
/// Counter samples and process metadata live on tid 0; span tracks start at 1.
const COUNTER_TID: u32 = 0;

/// Events rendered per chunk. Fixed — never derived from the thread
/// count — so chunk boundaries (and therefore output bytes) are
/// invariant across 1/2/4/8 export threads, mirroring the engine's
/// `PAR_CHUNK_ROWS` discipline.
pub const EXPORT_CHUNK_EVENTS: usize = 4096;

/// Error from a chunked export: the only failure source is the sink
/// (in-memory sinks are infallible; IO sinks surface their error here).
#[derive(Debug)]
pub enum ExportError {
    /// The sink failed to accept a chunk.
    Io(std::io::Error),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "export sink error: {e}"),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<std::io::Error> for ExportError {
    fn from(e: std::io::Error) -> ExportError {
        ExportError::Io(e)
    }
}

/// Receives rendered chunks in emission order.
pub trait ChunkSink {
    /// Accepts the next chunk. Chunks arrive in fixed (deterministic)
    /// order regardless of how many threads rendered them.
    fn emit(&mut self, chunk: &str) -> Result<(), ExportError>;
}

/// In-memory sink: concatenates chunks. Infallible.
impl ChunkSink for String {
    fn emit(&mut self, chunk: &str) -> Result<(), ExportError> {
        self.push_str(chunk);
        Ok(())
    }
}

/// Streams chunks to any [`std::io::Write`] — the path `repro
/// --trace-out` uses, so a large trace is never resident as one string.
pub struct IoSink<W: std::io::Write> {
    writer: W,
}

impl<W: std::io::Write> IoSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> IoSink<W> {
        IoSink { writer }
    }

    /// Unwraps the inner writer (e.g. to flush or sync it).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write> ChunkSink for IoSink<W> {
    fn emit(&mut self, chunk: &str) -> Result<(), ExportError> {
        self.writer.write_all(chunk.as_bytes())?;
        Ok(())
    }
}

/// Export thread count from `IDS_EXPORT_THREADS`, default 1, clamped to
/// `[1, 64]`. Output bytes are identical at any setting.
pub fn export_threads() -> usize {
    std::env::var("IDS_EXPORT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .clamp(1, 64)
}

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

/// Renders one event as `",\n{...}"` — the exact bytes the monolithic
/// builder used, so chunk concatenation reproduces it.
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
fn render_trace_header(tracks: &[String]) -> String {
    let mut out = String::with_capacity(128 + tracks.len() * 64);
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
    out
}

/// The fixed trace trailer.
const TRACE_TRAILER: &str = "\n],\"displayTimeUnit\":\"ms\"}\n";

/// Renders one fixed-range chunk of events.
fn render_event_chunk(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        write_event(&mut out, e);
    }
    out
}

/// Streaming chunked Chrome-trace export: the header, each
/// [`EXPORT_CHUNK_EVENTS`]-event chunk, and the trailer are handed to
/// `sink` in fixed order. With `threads > 1` the event chunks are
/// rendered in parallel (a shared atomic cursor hands out chunk
/// indices) and re-sequenced before emission, so the bytes are
/// identical to a single-threaded run — and to [`chrome_trace_json`].
pub fn chrome_trace_chunked(
    events: &[TraceEvent],
    tracks: &[String],
    threads: usize,
    sink: &mut dyn ChunkSink,
) -> Result<(), ExportError> {
    sink.emit(&render_trace_header(tracks))?;
    let chunks: Vec<&[TraceEvent]> = events.chunks(EXPORT_CHUNK_EVENTS).collect();
    let workers = threads.clamp(1, 64).min(chunks.len().max(1));
    if workers <= 1 || chunks.len() <= 1 {
        // Truly streaming: one chunk resident at a time.
        for chunk in &chunks {
            sink.emit(&render_event_chunk(chunk))?;
        }
    } else {
        parallel_chunks(&chunks, workers, sink)?;
    }
    sink.emit(TRACE_TRAILER)
}

/// Renders `chunks` on `workers` threads and emits them to `sink` in
/// chunk-index order. Out-of-order completions are buffered (bounded by
/// the scheduling skew between workers), then released as soon as the
/// next-in-order chunk lands — the whole trace is never resident.
///
/// Not a caller of `ids_engine::parallel::ordered_map`, the fan-out
/// every other threaded path uses: that one *collects* all results
/// before returning, this one streams them to the sink as they become
/// contiguous; and `ids-obs` sits below `ids-engine` in the crate DAG.
fn parallel_chunks(
    chunks: &[&[TraceEvent]],
    workers: usize,
    sink: &mut dyn ChunkSink,
) -> Result<(), ExportError> {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunks.len() {
                    break;
                }
                // A send failure means the receiver bailed on a sink
                // error; stop rendering.
                if tx.send((i, render_event_chunk(chunks[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut pending: std::collections::BTreeMap<usize, String> = Default::default();
        let mut want = 0usize;
        for (i, rendered) in rx {
            pending.insert(i, rendered);
            while let Some(ready) = pending.remove(&want) {
                sink.emit(&ready)?;
                want += 1;
            }
        }
        debug_assert!(pending.is_empty(), "all chunks emitted in order");
        Ok(())
    })
}

/// Serializes recorded events as Chrome `trace_event` JSON (the format
/// read by `chrome://tracing` and <https://ui.perfetto.dev>). `tracks`
/// is the recorder's track-name table; track `i` renders as thread
/// `i + 1` of process 1, with counters on thread 0. Timestamps are
/// **virtual** microseconds, which the trace viewer happily treats as
/// wall micros — the timeline shape is what matters.
///
/// Thin wrapper over [`chrome_trace_chunked`] with a `String` sink.
pub fn chrome_trace_json(events: &[TraceEvent], tracks: &[String]) -> String {
    let mut out = String::with_capacity(256 + events.len() * 96);
    // The String sink is infallible, so the Result is vacuous here.
    let _ = chrome_trace_chunked(events, tracks, 1, &mut out);
    out
}

/// Streaming chunked TSV export of a metrics snapshot: one chunk per
/// section header, then row chunks of at most [`EXPORT_CHUNK_EVENTS`]
/// rows. Byte-identical to [`metrics_tsv`].
pub fn metrics_tsv_chunked(
    snap: &MetricsSnapshot,
    sink: &mut dyn ChunkSink,
) -> Result<(), ExportError> {
    sink.emit("# counters\nname\tvalue\n")?;
    for rows in snap.counters.chunks(EXPORT_CHUNK_EVENTS) {
        let mut chunk = String::new();
        for (name, v) in rows {
            let _ = writeln!(chunk, "{name}\t{v}");
        }
        sink.emit(&chunk)?;
    }
    sink.emit("# gauges\nname\tvalue\thigh_watermark\n")?;
    for rows in snap.gauges.chunks(EXPORT_CHUNK_EVENTS) {
        let mut chunk = String::new();
        for (name, v, hwm) in rows {
            let _ = writeln!(chunk, "{name}\t{v}\t{hwm}");
        }
        sink.emit(&chunk)?;
    }
    sink.emit("# histograms\nname\tcount\tsum\tmin\tmax\tmean\tp50\tp90\tp99\n")?;
    for rows in snap.histograms.chunks(EXPORT_CHUNK_EVENTS) {
        let mut chunk = String::new();
        for (name, h) in rows {
            let _ = writeln!(
                chunk,
                "{name}\t{}\t{}\t{}\t{}\t{:.3}\t{}\t{}\t{}",
                h.count, h.sum, h.min, h.max, h.mean, h.p50, h.p90, h.p99
            );
        }
        sink.emit(&chunk)?;
    }
    Ok(())
}

/// Serializes a metrics snapshot as tab-separated text: one section per
/// metric kind, `#`-prefixed headers, rows sorted by metric name.
///
/// Thin wrapper over [`metrics_tsv_chunked`] with a `String` sink.
pub fn metrics_tsv(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = metrics_tsv_chunked(snap, &mut out);
    out
}

/// Streaming chunked JSON export of a metrics snapshot. Byte-identical
/// to [`metrics_json`].
pub fn metrics_json_chunked(
    snap: &MetricsSnapshot,
    sink: &mut dyn ChunkSink,
) -> Result<(), ExportError> {
    let mut chunk = String::from("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            chunk.push(',');
        }
        let _ = write!(chunk, "\"{}\":{v}", escape_json(name));
        if chunk.len() >= 64 * 1024 {
            sink.emit(&chunk)?;
            chunk.clear();
        }
    }
    chunk.push_str("},\"gauges\":{");
    for (i, (name, v, hwm)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            chunk.push(',');
        }
        let _ = write!(
            chunk,
            "\"{}\":{{\"value\":{v},\"high_watermark\":{hwm}}}",
            escape_json(name)
        );
        if chunk.len() >= 64 * 1024 {
            sink.emit(&chunk)?;
            chunk.clear();
        }
    }
    chunk.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            chunk.push(',');
        }
        let _ = write!(
            chunk,
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            escape_json(name),
            h.count,
            h.sum,
            h.min,
            h.max,
            json_f64(h.mean),
            h.p50,
            h.p90,
            h.p99
        );
        if chunk.len() >= 64 * 1024 {
            sink.emit(&chunk)?;
            chunk.clear();
        }
    }
    chunk.push_str("}}\n");
    sink.emit(&chunk)
}

/// Serializes a metrics snapshot as JSON.
///
/// Thin wrapper over [`metrics_json_chunked`] with a `String` sink.
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = metrics_json_chunked(snap, &mut out);
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

    /// A synthetic trace long enough to span several export chunks.
    fn long_events(n: usize) -> (Vec<TraceEvent>, Vec<String>) {
        let events = (0..n)
            .map(|i| match i % 3 {
                0 => TraceEvent::Span {
                    cat: "exec",
                    name: format!("q{i}"),
                    track: TrackId((i % 4) as u32),
                    start: SimTime::from_micros(i as u64 * 10),
                    dur: SimDuration::from_micros(7),
                    args: vec![("i", ArgValue::U64(i as u64))],
                },
                1 => TraceEvent::Instant {
                    cat: "opt",
                    name: format!("m{i}"),
                    track: TrackId((i % 4) as u32),
                    ts: SimTime::from_micros(i as u64 * 10 + 1),
                    args: vec![],
                },
                _ => TraceEvent::Counter {
                    name: "c",
                    ts: SimTime::from_micros(i as u64 * 10 + 2),
                    value: i as f64 * 0.5,
                },
            })
            .collect();
        let tracks = (0..4).map(|t| format!("w/{t}")).collect();
        (events, tracks)
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
    fn chunked_trace_matches_monolithic_at_any_thread_count() {
        let (events, tracks) = long_events(3 * EXPORT_CHUNK_EVENTS + 17);
        let reference = chrome_trace_json(&events, &tracks);
        assert_balanced_json(&reference);
        for threads in [1usize, 2, 4, 8] {
            let mut out = String::new();
            chrome_trace_chunked(&events, &tracks, threads, &mut out).expect("string sink");
            assert_eq!(out, reference, "thread count {threads} changed the bytes");
        }
    }

    #[test]
    fn chunked_trace_handles_empty_and_single_event() {
        let empty = chrome_trace_json(&[], &[]);
        assert_balanced_json(&empty);
        assert!(empty.starts_with("{\"traceEvents\":[\n"));
        assert!(empty.ends_with(TRACE_TRAILER));

        let (events, tracks) = sample_events();
        let one = chrome_trace_json(&events[..1], &tracks);
        assert_balanced_json(&one);
        let mut chunked = String::new();
        chrome_trace_chunked(&events[..1], &tracks, 8, &mut chunked).expect("string sink");
        assert_eq!(one, chunked);
    }

    #[test]
    fn io_sink_streams_the_same_bytes() {
        let (events, tracks) = long_events(EXPORT_CHUNK_EVENTS + 5);
        let reference = chrome_trace_json(&events, &tracks);
        let mut sink = IoSink::new(Vec::<u8>::new());
        chrome_trace_chunked(&events, &tracks, 4, &mut sink).expect("vec sink");
        assert_eq!(sink.into_inner(), reference.as_bytes());
    }

    /// A sink that fails after N chunks — the export must surface the
    /// error instead of panicking, on both serial and parallel paths.
    struct FailingSink {
        remaining: usize,
    }

    impl ChunkSink for FailingSink {
        fn emit(&mut self, _chunk: &str) -> Result<(), ExportError> {
            if self.remaining == 0 {
                return Err(ExportError::Io(std::io::Error::other("sink full")));
            }
            self.remaining -= 1;
            Ok(())
        }
    }

    #[test]
    fn sink_errors_propagate() {
        let (events, tracks) = long_events(2 * EXPORT_CHUNK_EVENTS);
        for threads in [1usize, 4] {
            let mut sink = FailingSink { remaining: 1 };
            let err = chrome_trace_chunked(&events, &tracks, threads, &mut sink);
            assert!(err.is_err(), "threads={threads}");
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

    #[test]
    fn chunked_tsv_and_json_match_monolithic() {
        let snap = sample_snapshot();
        let mut tsv = String::new();
        metrics_tsv_chunked(&snap, &mut tsv).expect("string sink");
        assert_eq!(tsv, metrics_tsv(&snap));
        let mut json = String::new();
        metrics_json_chunked(&snap, &mut json).expect("string sink");
        assert_eq!(json, metrics_json(&snap));

        // Empty-snapshot edge.
        let empty = MetricsSnapshot::default();
        let mut tsv = String::new();
        metrics_tsv_chunked(&empty, &mut tsv).expect("string sink");
        assert_eq!(tsv, metrics_tsv(&empty));
    }

    #[test]
    fn json_snapshot_is_valid_and_complete() {
        let json = metrics_json(&sample_snapshot());
        assert_balanced_json(&json);
        assert!(json.contains("\"a.hits\":12"));
        assert!(json.contains("\"high_watermark\":9"));
        assert!(json.contains("\"p99\":30"));
    }
}
