//! The load loop shared by every workload: closed loop, one client,
//! seeded op order, each op timed on its own, answers digested and
//! checked outside the timed region.
//!
//! A run is `SETUP_REPEATS` set-ups (the median is `setup_s`), one
//! untraced pass that lasts `--seconds`, and the checks. With `--trace 1`
//! the untraced pass gets half the time and a traced pass then repeats
//! exactly the same ops, so the two are comparable op for op.
//!
//! **Calibrated time.** The boxes this runs on are shared: the same code
//! runs 10–50 % slower for seconds at a stretch when a neighbour is busy.
//! So every pass interleaves calibration scans with its ops, and every
//! end-to-end duration is reported in *calibrated* seconds — the measured
//! time scaled by `REFERENCE_SCAN_NS` over the typical scan time of the
//! same stretch of the run: the mean scan where op times are averaged,
//! the median scan where a percentile is taken (a pre-empted scan, like a
//! pre-empted op, moves a mean and leaves a median alone). On a quiet
//! machine whose scan takes the reference time the two clocks agree. Raw
//! wall-clock figures are printed beside the calibrated ones and are what
//! the per-layer metrics use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ids_engine::scheduler::WorkerPool;
use ids_metrics::lcv::{cascade_violations, LcvReport, QuerySpan};
use ids_simclock::rng::SimRng;
use ids_simclock::{SimDuration, SimTime};

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{mean, median_f64, p50_p95, samples_beyond, tail_supported, MIN_TAIL_SAMPLES};
use crate::trace::{chrome_json, durations, self_time_of, self_times, Span, Tracer};

/// Times the whole set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
/// Untimed ops after each set-up, so lazy state (zone maps) exists
/// before anything is timed. Part of `setup_s`.
const WARMUP_OPS: usize = 4;
/// Elements of the calibration vector (512 KiB of `f64`, cache-resident).
pub const CALIB_LEN: usize = 1 << 16;
/// What one calibration scan takes on the reference machine: 4 ns per
/// element, this box when nothing else runs on it.
pub const REFERENCE_SCAN_NS: f64 = 4.0 * CALIB_LEN as f64;
/// Reference scan time owed per unit of op time: after every
/// `REFERENCE_SCAN_NS / CALIB_SHARE` of op time a scan is due, so the
/// scans see the machine the ops see.
const CALIB_SHARE: f64 = 0.08;
/// Scans that calibrate one stretch of a pass.
const SCANS_PER_STRETCH: usize = 16;
/// Scans each thread of a multi-threaded calibration runs per spawn.
const SCANS_PER_SPAWN: usize = 4;
/// Scans timed before and after each set-up, to calibrate `setup_s`.
const SETUP_SCANS: usize = 32;
/// Most ops one pass records. The latency buffer is this long and
/// touched up front, so `peak_rss_mb` does not grow with the op count.
const LATENCY_CAP: usize = 1 << 20;
/// Spans written to the Chrome trace file (the in-memory list is whole).
const TRACE_FILE_SPANS: usize = 20_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Divisor on every input size. 1 outside the package's own tests.
    pub scale: usize,
}

/// Where an op sits in its user session, for the wall-clock LCV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    pub session: u32,
    pub at_us: u64,
}

/// Per-layer metrics a workload reports: name → (value, samples).
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer catalog"
        );
        self.0.insert(name, (value, samples));
    }

    /// `p50` and optionally `p95` of a duration sample, in `unit_ns`
    /// nanoseconds per unit.
    pub fn percentiles(
        &mut self,
        p50: &'static str,
        p95: Option<&'static str>,
        samples_ns: &[u64],
        unit_ns: f64,
    ) {
        let (lo, hi) = p50_p95(samples_ns);
        self.set(p50, lo as f64 / unit_ns, samples_ns.len());
        if let Some(name) = p95 {
            self.set(name, hi as f64 / unit_ns, samples_ns.len());
        }
    }
}

/// What the traced pass hands a workload to derive its layer metrics.
pub struct LayerInput<'a> {
    pub spans: &'a [Span],
    /// Self time of each span, index-aligned with `spans`.
    pub own_ns: &'a [u64],
    /// Ops the traced pass ran.
    pub ops: usize,
    /// Median calibration scan, nanoseconds per element.
    pub scan_ns_per_row: f64,
}

/// One workload: seeded inputs built by its constructor, then ops.
pub trait Workload {
    /// Threads an op keeps busy; calibration scans use as many, so a
    /// core lost to a neighbour shows in both.
    fn threads(&self) -> usize {
        1
    }

    /// Length of the op stream, after which it starts over; `None` when
    /// every op index is new work.
    fn period(&self) -> Option<usize>;

    /// Runs op `i` through the system and keeps its answer. This call,
    /// and nothing else, is what the harness times.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;

    /// Untimed: takes the answer of the op that just ran, checks what can
    /// be checked on the spot, and returns its digest; `None` for a
    /// missing or wrong answer.
    fn answer(&mut self) -> Option<u64>;

    /// Session position of op `i`, where ops replay a user session.
    fn issue(&self, _i: usize) -> Option<Issue> {
        None
    }

    /// Untimed: re-derives a stride of the answers (`answers[p]` is the
    /// digest of stream position `p`) and returns how many are wrong.
    fn verify(&mut self, answers: &[u64]) -> u64;

    /// Layer metrics from the traced pass plus out-of-band probes.
    fn layers(&mut self, input: &LayerInput<'_>, out: &mut Layers);
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// See [`MetricDef::exact`].
    pub exact: bool,
}

/// Outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every metric by name, with unit and sample count; an exact one
    /// ends in ` exact` (`repeat.sh` reads that).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<32} {:>18.6} {:<8} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.exact { " exact" } else { "" }
            );
        }
        out
    }

    /// The result object the driver reads off the last line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Latencies and calibration scans of one pass over the op stream.
struct Pass {
    lat_ns: Vec<u64>,
    /// `(ops completed before it, nanoseconds)` of every scan.
    scans: Vec<(usize, u64)>,
    failed: u64,
}

impl Pass {
    fn scan_ns(&self) -> Vec<u64> {
        self.scans.iter().map(|&(_, ns)| ns).collect()
    }

    /// Every op latency in calibrated nanoseconds: scaled by the
    /// reference scan time over the `typical` scan time of the op's
    /// stretch of the pass. A stretch ends with its [`SCANS_PER_STRETCH`]th
    /// scan — some tens of milliseconds, which is how fast the machine's
    /// speed moves. Leftover scans calibrate the tail; a tail without any
    /// keeps the last factor (1 when the pass has no scans at all).
    fn calibrated_ns(&self, typical: fn(&[u64]) -> f64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.lat_ns.len());
        let mut factor = 1.0;
        for stretch in self.scans.chunks(SCANS_PER_STRETCH) {
            let scans_ns: Vec<u64> = stretch.iter().map(|&(_, ns)| ns).collect();
            factor = REFERENCE_SCAN_NS / typical(&scans_ns);
            let to = match stretch {
                [.., (at, _)] if stretch.len() == SCANS_PER_STRETCH => *at,
                _ => self.lat_ns.len(),
            };
            let from = out.len();
            out.extend(
                self.lat_ns[from..to]
                    .iter()
                    .map(|&ns| (ns as f64 * factor) as u64),
            );
        }
        let from = out.len();
        out.extend(
            self.lat_ns[from..]
                .iter()
                .map(|&ns| (ns as f64 * factor) as u64),
        );
        out
    }
}

fn median_ns(samples: &[u64]) -> f64 {
    p50_p95(samples).0 as f64
}

enum Stop {
    After(Duration),
    Ops(usize),
}

const CALIB_LO: f64 = 0.1;
const CALIB_HI: f64 = 0.9;
const CALIB_BINS: usize = 32;

/// The calibration input: uniform values in `[0, 1)` from a fixed seed
/// (it calibrates the machine, not the workload).
fn calibration_vector() -> Vec<f64> {
    let mut rng = SimRng::seed(0).split("bench/calibration");
    (0..CALIB_LEN).map(|_| rng.unit()).collect()
}

/// One calibration scan: a bare scalar range-filter-and-bin loop over a
/// cache-resident vector, the least a histogram pass over one column can
/// cost. It uses the machine the way the ops do (branches, stores,
/// integer and float units), so when a neighbour slows the ops down it
/// slows down with them.
///
/// With `threads > 1`, that many threads are spawned and each scans
/// [`SCANS_PER_SPAWN`] times; the result is the time per scan of the
/// slowest. Several scans per spawn, because a multi-threaded op pays one
/// spawn per millisecond or so of work and a lone scan is a quarter of
/// that: spawn latency would weigh four times as much in the scan as in
/// the op, and calibration would over-correct.
fn scan(calib: &[f64], threads: usize) -> u64 {
    fn one(calib: &[f64]) {
        let mut bins = [0u32; CALIB_BINS];
        let scale = CALIB_BINS as f64 / (CALIB_HI - CALIB_LO);
        for &x in black_box(calib) {
            if (CALIB_LO..CALIB_HI).contains(&x) {
                bins[((x - CALIB_LO) * scale) as usize] += 1;
            }
        }
        black_box(bins);
    }
    let t = Instant::now();
    if threads <= 1 {
        one(calib);
        return t.elapsed().as_nanos() as u64;
    }
    let several = || (0..SCANS_PER_SPAWN).for_each(|_| one(calib));
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(several);
        }
        several();
    });
    t.elapsed().as_nanos() as u64 / SCANS_PER_SPAWN as u64
}

/// Runs ops `0, 1, 2, …` until `stop`. `answers[p]` holds the digest
/// first seen at stream position `p`; any later run of that position
/// must reproduce it.
fn pass(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    answers: &mut Vec<u64>,
    calib: &[f64],
    stop: Stop,
) -> Pass {
    // Touched now, so the buffer is resident whatever the op count.
    let mut lat_ns = vec![1u64; LATENCY_CAP];
    lat_ns.clear();
    let mut out = Pass {
        lat_ns,
        scans: Vec::new(),
        failed: 0,
    };
    let period = w.period();
    let threads = w.threads();
    // Reference scan time the ops so far have earned and no scan has
    // used. A scan is charged the reference time, not its own: one that a
    // neighbour held up would otherwise pay for a long stretch of ops
    // that no scan looks at.
    let mut owed_ns = 0.0;
    let charge_ns = REFERENCE_SCAN_NS * if threads > 1 { SCANS_PER_SPAWN } else { 1 } as f64;
    let began = Instant::now();
    for i in 0..LATENCY_CAP {
        let done = match stop {
            Stop::After(limit) => i > 0 && began.elapsed() >= limit,
            Stop::Ops(n) => i >= n,
        };
        if done {
            break;
        }
        tr.set_op(i as u32);
        let t = Instant::now();
        let result = tr.span("op", |tr| w.op(i, tr));
        let ns = t.elapsed().as_nanos() as u64;
        out.lat_ns.push(ns);
        owed_ns += CALIB_SHARE * ns as f64;
        let answer = result.and_then(|()| w.answer().ok_or_else(|| "wrong answer".to_string()));
        let position = period.map_or(i, |p| i % p);
        let ok = match answer {
            Ok(digest) if position < answers.len() => answers[position] == digest,
            Ok(digest) => {
                answers.push(digest);
                true
            }
            Err(e) => {
                eprintln!("op {i} failed: {e}");
                if position == answers.len() {
                    // Keep later positions aligned with the stream.
                    answers.push(0);
                }
                false
            }
        };
        out.failed += !ok as u64;
        while owed_ns >= charge_ns {
            owed_ns -= charge_ns;
            out.scans.push((i + 1, scan(calib, threads)));
        }
    }
    out
}

/// The paper's cascade LCV in the wall-clock domain: every session's
/// slider events are replayed at their own issue instants through one
/// worker slot with the measured latencies as execution times; an event
/// violates when the next event is issued before its last query returns.
pub fn wall_lcv(issues: &[Issue], lat_ns: &[u64]) -> LcvReport {
    let mut report = LcvReport::default();
    let mut i = 0;
    while i < issues.len() {
        let session = issues[i].session;
        let mut pool = WorkerPool::new(1);
        let mut events: Vec<QuerySpan> = Vec::new();
        while i < issues.len() && issues[i].session == session {
            let at = SimTime::from_micros(issues[i].at_us);
            let cost = SimDuration::from_micros(lat_ns[i].div_ceil(1_000));
            let (_, _, finished_at) = pool.assign(at, cost);
            match events.last_mut() {
                Some(e) if e.issued_at == at => e.finished_at = finished_at,
                _ => events.push(QuerySpan {
                    issued_at: at,
                    finished_at,
                }),
            }
            i += 1;
        }
        report.absorb(&cascade_violations(&events));
    }
    report
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(catalog: &[MetricDef], name: &str, value: f64, samples: usize) -> Metric {
    let def = catalog
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the catalog"));
    Metric {
        name: def.name,
        value,
        unit: def.unit,
        samples,
        exact: def.exact,
    }
}

fn end_to_end_metrics(setup_s: &[f64], untraced: &Pass, rss_mib: f64) -> Vec<Metric> {
    let ops = untraced.lat_ns.len();
    let (p50, p95) = p50_p95(&untraced.calibrated_ns(median_ns));
    if !tail_supported(ops, 0.95) {
        eprintln!(
            "note: op_p95_cal_us has {} samples beyond it, fewer than {MIN_TAIL_SAMPLES}",
            samples_beyond(ops, 0.95)
        );
    }
    [
        ("setup_s", median_f64(setup_s), setup_s.len()),
        // One closed-loop client: throughput is ops over the time spent
        // in ops, which leaves the harness's own checking out.
        (
            "ops_per_cal_s",
            1e9 / mean(&untraced.calibrated_ns(mean)),
            ops,
        ),
        ("op_p50_cal_us", p50 as f64 / 1e3, ops),
        ("op_p95_cal_us", p95 as f64 / 1e3, ops),
        ("peak_rss_mb", rss_mib, 1),
    ]
    .into_iter()
    .map(|(name, value, samples)| metric(END_TO_END, name, value, samples))
    .collect()
}

/// The uncalibrated figures of a pass, for a reader who wants to know
/// what the clock on the wall said.
fn wall_clock_note(pass: &Pass) -> String {
    let (p50, p95) = p50_p95(&pass.lat_ns);
    let scan = mean(&pass.scan_ns());
    format!(
        "wall clock: {:.1} ops/s, p50 {:.1} us, p95 {:.1} us over {} ops; \
         scan {:.3} ns/element over {} scans, {:.2}x the reference",
        1e9 / mean(&pass.lat_ns),
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        pass.lat_ns.len(),
        scan / CALIB_LEN as f64,
        pass.scans.len(),
        scan / REFERENCE_SCAN_NS,
    )
}

fn layer_metrics(
    name: &str,
    w: &mut dyn Workload,
    tr: &Tracer,
    untraced: &Pass,
    traced: &Pass,
    failed_frac: f64,
) -> Vec<Metric> {
    let ops = untraced.lat_ns.len();
    let spans = tr.spans();
    let own_ns = self_times(spans);
    let scans_ns = untraced.scan_ns();
    let scan_ns_per_row = median_ns(&scans_ns) / CALIB_LEN as f64;
    let mut layers = Layers::default();
    layers.set("op.failed_frac", failed_frac, ops + traced.lat_ns.len());
    layers.set("calib.scan_ns_per_row", scan_ns_per_row, scans_ns.len());
    let (p50, p95) = p50_p95(&untraced.lat_ns);
    layers.set("wall.ops_per_s", 1e9 / mean(&untraced.lat_ns), ops);
    layers.set("wall.op_p50_us", p50 as f64 / 1e3, ops);
    layers.set("wall.op_p95_us", p95 as f64 / 1e3, ops);
    // The passes run seconds apart on a machine that drifts: compare
    // them in calibrated time.
    layers.set(
        "trace.overhead_frac",
        mean(&traced.calibrated_ns(mean)) / mean(&untraced.calibrated_ns(mean)) - 1.0,
        ops,
    );
    let op_total: u64 = durations(spans, "op").iter().sum();
    layers.set(
        "trace.unattributed_frac",
        self_time_of(spans, &own_ns, &["op"]) as f64 / op_total as f64,
        ops,
    );
    let issues: Vec<Issue> = (0..ops).map_while(|i| w.issue(i)).collect();
    if issues.len() == ops {
        let lcv = wall_lcv(&issues, &untraced.calibrated_ns(median_ns));
        layers.set("lcv.frac_wall", lcv.fraction(), lcv.total);
    }
    w.layers(
        &LayerInput {
            spans,
            own_ns: &own_ns,
            ops,
            scan_ns_per_row,
        },
        &mut layers,
    );

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("{name}.trace.json")),
            chrome_json(spans, TRACE_FILE_SPANS),
        )
    });
    if let Err(e) = written {
        eprintln!("could not write the trace under {}: {e}", out_dir.display());
    }

    PER_LAYER
        .iter()
        .map(|def| {
            let (value, samples) = layers.0.get(def.name).copied().unwrap_or((0.0, 0));
            metric(PER_LAYER, def.name, value, samples)
        })
        .collect()
}

/// Runs one workload as `config` says. `build` is the workload's
/// constructor, `(seed, scale)` to workload; it is timed as set-up.
pub fn run(
    name: &str,
    config: RunConfig,
    build: &dyn Fn(u64, usize) -> Box<dyn Workload>,
) -> Report {
    let calib = calibration_vector();
    let setup_scans =
        |scans_ns: &mut Vec<u64>| scans_ns.extend((0..SETUP_SCANS).map(|_| scan(&calib, 1)));
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        // One instance alive at a time, or peak memory counts two.
        drop(workload.take());
        // A set-up is one long call and `setup_s` a median over a few of
        // them, so the scans around it are read by their median too.
        let mut scans_ns = Vec::with_capacity(2 * SETUP_SCANS);
        setup_scans(&mut scans_ns);
        let t = Instant::now();
        let mut w = build(config.seed, config.scale);
        let mut warm = Tracer::new(false);
        for i in 0..WARMUP_OPS {
            let _ = w.op(i, &mut warm).map(|()| w.answer());
        }
        let wall_s = t.elapsed().as_secs_f64();
        setup_scans(&mut scans_ns);
        setup_s.push(wall_s * REFERENCE_SCAN_NS / median_ns(&scans_ns));
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPEATS is at least one");

    let share = if config.trace { 0.5 } else { 1.0 };
    let mut answers = Vec::new();
    let untraced = pass(
        w.as_mut(),
        &mut Tracer::new(false),
        &mut answers,
        &calib,
        Stop::After(Duration::from_secs_f64(config.seconds * share)),
    );
    let rss_mib = peak_rss_mib();
    let mut attempted = untraced.lat_ns.len() as u64;
    let mut failed = untraced.failed;

    let mut metrics = if config.trace {
        let mut tr = Tracer::new(true);
        let same_ops = Stop::Ops(untraced.lat_ns.len());
        let traced = pass(w.as_mut(), &mut tr, &mut answers, &calib, same_ops);
        attempted += traced.lat_ns.len() as u64;
        failed = (failed + traced.failed + w.verify(&answers)).min(attempted);
        let failed_frac = failed as f64 / attempted as f64;
        layer_metrics(name, w.as_mut(), &tr, &untraced, &traced, failed_frac)
    } else {
        failed = (failed + w.verify(&answers)).min(attempted);
        println!("{}", wall_clock_note(&untraced));
        end_to_end_metrics(&setup_s, &untraced, rss_mib)
    };
    failed = (failed + reject_non_finite(&mut metrics)).min(attempted);
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// A metric that came out as NaN or infinite (a ratio over nothing) is a
/// failure of the run, not a layer the workload never enters: it is
/// counted as one, named on stderr, and printed as 0 to keep the result
/// line valid JSON.
fn reject_non_finite(metrics: &mut [Metric]) -> u64 {
    let mut rejected = 0;
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        eprintln!("{} is {}, not a measurement", m.name, m.value);
        m.value = 0.0;
        rejected += 1;
    }
    rejected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(session: u32, at_ms: u64) -> Issue {
        Issue {
            session,
            at_us: at_ms * 1_000,
        }
    }

    #[test]
    fn wall_lcv_replays_latencies_through_one_slot() {
        const MS: u64 = 1_000_000;
        // Session 0: three slider events of two queries each, 20 ms
        // apart. Event 0 takes 5+5 ms (done at 10, before 20: fine);
        // event 1 takes 15+15 ms (done at 50, after 40: violates);
        // event 2 queues behind it and has no successor.
        // Session 1 starts from an idle slot: one fast event, one last.
        let issues = [
            issue(0, 0),
            issue(0, 0),
            issue(0, 20),
            issue(0, 20),
            issue(0, 40),
            issue(0, 40),
            issue(1, 0),
            issue(1, 30),
        ];
        let lat = [5 * MS, 5 * MS, 15 * MS, 15 * MS, MS, MS, 10 * MS, 50 * MS];
        let report = wall_lcv(&issues, &lat);
        assert_eq!((report.total, report.violations), (5, 1));

        // The same events written out as spans by hand.
        let t = SimTime::from_millis;
        let by_hand = [
            QuerySpan {
                issued_at: t(0),
                finished_at: t(10),
            },
            QuerySpan {
                issued_at: t(20),
                finished_at: t(50),
            },
            QuerySpan {
                issued_at: t(40),
                finished_at: t(52),
            },
        ];
        assert_eq!(cascade_violations(&by_hand).violations, 1);

        // Slow enough and every event with a successor violates.
        let slow = wall_lcv(&issues[..6], &[30 * MS; 6]);
        assert_eq!((slow.total, slow.violations), (3, 2));
        assert_eq!(wall_lcv(&[], &[]).total, 0);
    }

    #[test]
    fn calibration_scales_each_stretch_by_its_own_scans() {
        let slow = (2.0 * REFERENCE_SCAN_NS) as u64;
        let quiet = REFERENCE_SCAN_NS as u64;
        // Ten ops of 1000 ns; the machine runs at half speed for the
        // first four (16 slow scans close the first stretch after op 4),
        // at full speed after. The last two ops have no scans after them
        // and reuse the last factor.
        let mut scans = vec![(2, slow); 8];
        scans.extend(vec![(4, slow); 8]);
        scans.extend(vec![(8, quiet); 16]);
        let pass = Pass {
            lat_ns: vec![1_000; 10],
            scans,
            failed: 0,
        };
        assert_eq!(
            pass.calibrated_ns(mean),
            vec![500, 500, 500, 500, 1_000, 1_000, 1_000, 1_000, 1_000, 1_000]
        );
        // No scans at all: wall-clock time stands.
        let bare = Pass {
            lat_ns: vec![7, 9],
            scans: Vec::new(),
            failed: 0,
        };
        assert_eq!(bare.calibrated_ns(mean), vec![7, 9]);
    }

    #[test]
    fn a_pre_empted_scan_moves_the_mean_factor_and_not_the_median_one() {
        let quiet = REFERENCE_SCAN_NS as u64;
        let mut scans = vec![(1, quiet); SCANS_PER_STRETCH];
        scans[3].1 = 17 * quiet;
        let pass = Pass {
            lat_ns: vec![1_000],
            scans,
            failed: 0,
        };
        assert_eq!(pass.calibrated_ns(median_ns), vec![1_000]);
        assert_eq!(pass.calibrated_ns(mean), vec![500]);
    }

    #[test]
    fn a_metric_that_is_not_a_number_fails_the_run() {
        let of = |value| Metric {
            name: "shard.parallel_efficiency",
            value,
            unit: "ratio",
            samples: 0,
            exact: false,
        };
        let mut metrics = vec![of(0.7), of(f64::NAN), of(0.0), of(f64::INFINITY)];
        assert_eq!(reject_non_finite(&mut metrics), 2);
        let values: Vec<f64> = metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, vec![0.7, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn report_renders_the_result_line() {
        let report = Report {
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
                samples: 3,
                exact: false,
            }],
        };
        let line = report.json_line();
        assert!(crate::json::is_valid(&line));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            report.table().trim_end(),
            format!("{:<32} {:>18.6} s        n=3", "setup_s", 0.8127)
        );
        assert_eq!(report.value("setup_s"), Some(0.8127));
    }
}
