//! # ids-obs — observability for the interactive-data-systems testbed
//!
//! Three layers, all keyed to **virtual time** ([`ids_simclock::SimTime`]):
//!
//! 1. [`recorder`](mod@recorder) — a span/event recorder with a zero-cost disabled
//!    path (one thread-local load). Spans cover query execution,
//!    queueing, and prefetch decisions; instants mark filter drops and
//!    throttle actions; counter samples plot buffer-pool behavior over
//!    the run.
//! 2. [`metrics`](mod@metrics) — a registry of named counters, gauges, and log-linear
//!    histograms fed by hot paths, mergeable across threads and
//!    attachable from per-instance stats holders.
//! 3. [`export`] — Chrome/Perfetto `trace_event` JSON plus TSV/JSON
//!    metrics snapshots, byte-identical for same-seed runs; the trace
//!    also streams to any [`std::io::Write`] without being resident as
//!    one `String`.
//!
//! Recorder and registry state is owned by the thread that drives a run;
//! no thread sees another's (the contract is in [`recorder`](mod@recorder)'s module
//! docs).
//!
//! Telemetry is observation-only: enabling or disabling the recorder
//! must never change a `QueryOutcome` or a report number (asserted by
//! the workspace parity tests).

pub mod export;
pub mod metrics;
pub mod recorder;

pub use export::{chrome_trace_json, chrome_trace_write, metrics_json, metrics_tsv};
pub use metrics::{
    metrics, Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry,
};
pub use recorder::{recorder, ArgValue, PhaseGuard, PhaseRecord, Recorder, TraceEvent, TrackId};

/// Enables trace recording.
pub fn enable() {
    recorder().enable();
}

/// Disables trace recording (metrics counters keep accumulating —
/// they are always-on and nearly free).
pub fn disable() {
    recorder().disable();
}

/// `true` when the trace recorder is capturing.
#[inline]
pub fn enabled() -> bool {
    recorder().is_enabled()
}

/// Clears the calling thread's recorded events, phases, and registered
/// metrics — call between independent runs on one thread to start from
/// a clean slate.
pub fn reset_all() {
    recorder().clear();
    metrics().clear();
}

/// Records the current virtual time so deeper layers can timestamp
/// events; the replay scheduler calls this as it advances.
#[inline]
pub fn set_vnow(t: ids_simclock::SimTime) {
    recorder().set_vnow(t);
}

/// The most recently published virtual time.
#[inline]
pub fn vnow() -> ids_simclock::SimTime {
    recorder().vnow()
}

/// Opens a named phase scope; the returned guard records wall-clock and
/// virtual-time extent when dropped. Works whether or not the recorder
/// is enabled.
pub fn phase(name: impl Into<String>) -> PhaseGuard {
    recorder().phase(name)
}
