//! Virtual-time span/event recorder.
//!
//! Every timestamp is a [`SimTime`] — microseconds of *virtual* time, not
//! wall clock — so same-seed simulation runs produce byte-identical
//! traces. Recording is off by default; the hot-path cost of the disabled
//! recorder is one thread-local load and a branch (asserted by
//! `disabled_recorder_is_nearly_free` in the workspace tests).
//!
//! Wall-clock data exists in exactly one place: [`PhaseRecord`]s, which
//! feed the end-of-run phase summary table and are deliberately **not**
//! part of the exported trace, keeping exports deterministic.
//!
//! # Ownership
//!
//! Recorder state — the enabled flag, the published virtual clock, the
//! events, tracks and phases — belongs to the thread that drives a run.
//! Nothing is shared between threads: a spawned thread starts with a
//! disabled recorder, `vnow` 0 and no events, and what it records stays
//! on it. To capture telemetry from a run, enable, drive and read back
//! on one thread. The single inheritance is the clock:
//! `engine::parallel::ordered_map`'s per-call workers publish the
//! caller's `vnow` before they run a task, because fault injection keys
//! its windows on it. `ids-shard`'s scatter-gather helper threads
//! inherit nothing: a shard fragment reads no obs state, and `gather`
//! stamps shard spans on the caller.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use ids_simclock::{SimDuration, SimTime};

/// Identifies one horizontal track (a "thread" row in Perfetto).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub u32);

/// A value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// Text argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// One recorded trace event, keyed to virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A complete span (`ph: "X"` in Chrome trace terms).
    Span {
        /// Category, e.g. `"exec"`, `"queue"`, `"opt"`.
        cat: &'static str,
        /// Event name, e.g. the query kind.
        name: String,
        /// Track the span renders on.
        track: TrackId,
        /// Virtual start time.
        start: SimTime,
        /// Virtual duration.
        dur: SimDuration,
        /// Attached arguments.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A zero-duration marker (`ph: "i"`).
    Instant {
        /// Category.
        cat: &'static str,
        /// Event name.
        name: String,
        /// Track the marker renders on.
        track: TrackId,
        /// Virtual timestamp.
        ts: SimTime,
        /// Attached arguments.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// A counter sample (`ph: "C"`), plotted as a stacked area chart.
    Counter {
        /// Counter name, e.g. `"engine.buffer.hit_rate"`.
        name: &'static str,
        /// Virtual timestamp of the sample.
        ts: SimTime,
        /// Sampled value.
        value: f64,
    },
}

/// Wall + virtual timing of one named run phase (setup/simulate/…).
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    /// Phase name.
    pub name: String,
    /// Wall-clock time spent in the phase.
    pub wall: Duration,
    /// Span of virtual time covered by events recorded during the phase
    /// (zero when the recorder was disabled or no events fired).
    pub virtual_span: SimDuration,
    /// Number of trace events recorded during the phase.
    pub events: usize,
}

struct RecorderInner {
    events: Vec<TraceEvent>,
    /// Track names in id order.
    tracks: Vec<String>,
    phases: Vec<PhaseRecord>,
}

thread_local! {
    // Const-initialised and destructor-free, so the disabled path of
    // every `record_*` call is one load and a branch.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Current virtual time, published by whoever drives the simulation
    /// (the scheduler) so deeper layers (buffer pool) can timestamp
    /// events without threading a clock through every call.
    static VNOW: Cell<u64> = const { Cell::new(0) };
    static INNER: RefCell<RecorderInner> = const {
        RefCell::new(RecorderInner {
            events: Vec::new(),
            tracks: Vec::new(),
            phases: Vec::new(),
        })
    };
}

/// A handle to the calling thread's trace recorder. Obtain it with
/// [`recorder()`]. It is not `Send`: it names the state of the thread
/// that asked for it.
#[derive(Clone, Copy)]
pub struct Recorder {
    _thread_owned: PhantomData<*const ()>,
}

/// The calling thread's recorder.
#[inline]
pub fn recorder() -> Recorder {
    Recorder {
        _thread_owned: PhantomData,
    }
}

fn push(event: TraceEvent) {
    INNER.with_borrow_mut(|inner| inner.events.push(event));
}

impl Recorder {
    /// `true` when events are being captured. The disabled fast path of
    /// every `record_*` call is this load plus a branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        ENABLED.get()
    }

    /// Starts capturing events.
    pub fn enable(&self) {
        ENABLED.set(true);
    }

    /// Stops capturing events (already-captured events are kept).
    pub fn disable(&self) {
        ENABLED.set(false);
    }

    /// Drops all captured events, tracks, and phases.
    pub fn clear(&self) {
        INNER.with_borrow_mut(|inner| {
            inner.events.clear();
            inner.tracks.clear();
            inner.phases.clear();
        });
        VNOW.set(0);
    }

    /// Publishes the current virtual time (the scheduler calls this as
    /// it advances through a replay).
    ///
    /// Always tracked, even while the recorder is disabled: beyond
    /// timestamping trace samples, the published time is the clock bus
    /// that fault injection keys its windows on, and fault behavior must
    /// not change with observability on or off.
    #[inline]
    pub fn set_vnow(&self, t: SimTime) {
        VNOW.set(t.as_micros());
    }

    /// The most recently published virtual time.
    #[inline]
    pub fn vnow(&self) -> SimTime {
        SimTime::from_micros(VNOW.get())
    }

    /// Interns a track by name, returning a stable id. Repeated calls
    /// with the same name return the same id.
    pub fn track(&self, name: &str) -> TrackId {
        INNER.with_borrow_mut(|inner| {
            if let Some(pos) = inner.tracks.iter().position(|t| t == name) {
                return TrackId(pos as u32);
            }
            inner.tracks.push(name.to_string());
            TrackId((inner.tracks.len() - 1) as u32)
        })
    }

    /// Records a complete span; no-op while disabled.
    #[inline]
    pub fn record_span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        track: TrackId,
        start: SimTime,
        dur: SimDuration,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        push(TraceEvent::Span {
            cat,
            name: name.into(),
            track,
            start,
            dur,
            args,
        });
    }

    /// Records an instant marker; no-op while disabled.
    #[inline]
    pub fn record_instant(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        track: TrackId,
        ts: SimTime,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        push(TraceEvent::Instant {
            cat,
            name: name.into(),
            track,
            ts,
            args,
        });
    }

    /// Records a counter sample; no-op while disabled.
    #[inline]
    pub fn record_counter(&self, name: &'static str, ts: SimTime, value: f64) {
        if !self.is_enabled() {
            return;
        }
        push(TraceEvent::Counter { name, ts, value });
    }

    /// A snapshot of all captured events.
    pub fn events(&self) -> Vec<TraceEvent> {
        INNER.with_borrow(|inner| inner.events.clone())
    }

    /// Number of captured events.
    pub fn event_count(&self) -> usize {
        INNER.with_borrow(|inner| inner.events.len())
    }

    /// The events captured after the first `mark` (a prior
    /// [`event_count`](Recorder::event_count) value), used for delta
    /// capture: mark, run a section, then collect just that section's
    /// events. Returns an empty vec if the mark is past the end.
    pub fn events_since(&self, mark: usize) -> Vec<TraceEvent> {
        INNER.with_borrow(|inner| inner.events[mark.min(inner.events.len())..].to_vec())
    }

    /// Track names in id order.
    pub fn tracks(&self) -> Vec<String> {
        INNER.with_borrow(|inner| inner.tracks.clone())
    }

    /// All completed phase records, in completion order.
    pub fn phases(&self) -> Vec<PhaseRecord> {
        INNER.with_borrow(|inner| inner.phases.clone())
    }

    /// Starts a named phase; the returned guard completes it on drop.
    /// Phases time wall clock unconditionally and attribute whatever
    /// trace events fire while they are open, so the phase table works
    /// with the recorder on or off.
    pub fn phase(&self, name: impl Into<String>) -> PhaseGuard {
        PhaseGuard {
            name: name.into(),
            started: Instant::now(),
            events_at_start: self.event_count(),
            _thread_owned: PhantomData,
        }
    }
}

/// Completes a phase on drop, on the thread that opened it. Created by
/// [`Recorder::phase`].
pub struct PhaseGuard {
    name: String,
    started: Instant,
    events_at_start: usize,
    _thread_owned: PhantomData<*const ()>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let wall = self.started.elapsed();
        INNER.with_borrow_mut(|inner| {
            let new_events = &inner.events[self.events_at_start.min(inner.events.len())..];
            let mut lo = SimTime::MAX;
            let mut hi = SimTime::ZERO;
            for e in new_events {
                let (start, end) = match e {
                    TraceEvent::Span { start, dur, .. } => (*start, *start + *dur),
                    TraceEvent::Instant { ts, .. } | TraceEvent::Counter { ts, .. } => (*ts, *ts),
                };
                lo = lo.min(start);
                hi = hi.max(end);
            }
            let virtual_span = if lo > hi {
                SimDuration::ZERO
            } else {
                hi.saturating_since(lo)
            };
            let events = new_events.len();
            inner.phases.push(PhaseRecord {
                name: std::mem::take(&mut self.name),
                wall,
                virtual_span,
                events,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let r = recorder();
        let t = r.track("t");
        r.record_span("cat", "s", t, us(0), SimDuration::from_micros(5), vec![]);
        r.record_instant("cat", "i", t, us(1), vec![]);
        r.record_counter("c", us(2), 1.0);
        assert_eq!(r.event_count(), 0);
    }

    #[test]
    fn enabled_recorder_captures_in_order() {
        let r = recorder();
        r.enable();
        let t = r.track("worker/0");
        r.record_span(
            "exec",
            "count",
            t,
            us(10),
            SimDuration::from_micros(5),
            vec![("tag", ArgValue::U64(1))],
        );
        r.record_counter("hits", us(15), 3.0);
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], TraceEvent::Span { name, .. } if name == "count"));
        assert!(matches!(&events[1], TraceEvent::Counter { value, .. } if *value == 3.0));
    }

    #[test]
    fn tracks_are_interned() {
        let r = recorder();
        let a = r.track("alpha");
        let b = r.track("beta");
        let a2 = r.track("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.tracks(), vec!["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn vnow_round_trips_when_enabled() {
        let r = recorder();
        r.enable();
        r.set_vnow(us(1234));
        assert_eq!(r.vnow(), us(1234));
    }

    #[test]
    fn spawned_thread_starts_disabled_at_time_zero_and_empty() {
        let r = recorder();
        r.enable();
        r.set_vnow(us(77));
        r.record_counter("c", us(77), 1.0);
        crate::metrics().counter("spawner.only").inc();
        std::thread::spawn(|| {
            let r = recorder();
            assert!(!r.is_enabled());
            assert_eq!(r.vnow(), SimTime::ZERO);
            assert_eq!(r.event_count(), 0);
            assert!(r.tracks().is_empty() && r.phases().is_empty());
            assert!(crate::metrics().snapshot().counters.is_empty());
            r.enable();
            r.set_vnow(us(5));
            r.record_counter("c", us(5), 2.0);
        })
        .join()
        .expect("fresh thread");
        // What the spawned thread did stayed on it.
        assert_eq!((r.vnow(), r.event_count()), (us(77), 1));
    }

    #[test]
    fn phase_guard_attributes_events_and_virtual_span() {
        let r = recorder();
        r.enable();
        {
            let _p = r.phase("execute");
            let t = r.track("w");
            r.record_span(
                "exec",
                "q",
                t,
                us(100),
                SimDuration::from_micros(50),
                vec![],
            );
            r.record_instant("exec", "m", t, us(400), vec![]);
        }
        let phases = r.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "execute");
        assert_eq!(phases[0].events, 2);
        // Virtual span covers 100 → 400.
        assert_eq!(phases[0].virtual_span, SimDuration::from_micros(300));
    }

    #[test]
    fn phase_guard_with_recorder_disabled_still_times_wall() {
        let r = recorder();
        {
            let _p = r.phase("setup");
        }
        let phases = r.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].virtual_span, SimDuration::ZERO);
        assert_eq!(phases[0].events, 0);
    }
}
