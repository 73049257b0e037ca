//! # ids-lakehouse — the engine dogfoods its own telemetry
//!
//! The paper's core demand is that interactive data systems be judged
//! on continuously-measured, user-visible metrics (latency-constraint
//! violations, tail latency per tenant) — which only works when the
//! telemetry itself is cheap, queryable data rather than a side channel
//! of flat snapshots. Following the telemetry-lakehouse architecture
//! (Micromegas), this crate lands `ids-obs` [`TraceEvent`]s and
//! [`MetricsSnapshot`]s in ids columnar [`Table`]s with fixed schemas,
//! so fleet telemetry is queryable with the engine's own vectorized
//! kernels: zone-map pruning on virtual-time ranges, fused filter+bin
//! over span start times, dictionary-encoded component/tenant names.
//!
//! ## Schemas
//!
//! | table                | columns |
//! |----------------------|---------|
//! | `telemetry_spans`    | `start_us` Int, `dur_us` Int, `cat` Str, `name` Str, `track` Str, `tenant` Str, `violated` Int, `cost_us` Int |
//! | `telemetry_counters` | `ts_us` Int, `name` Str, `value` Float |
//! | `telemetry_buckets`  | `name` Str, `bucket_lo` Int, `count` Int |
//!
//! All timestamps are **virtual** microseconds ([`SimTime`]), so the
//! tables — and every query over them — are byte-deterministic across
//! runs (the `lakehouse-determinism` simtest oracle replays a scenario
//! twice and asserts identical table bytes).
//!
//! ## Ingestion
//!
//! [`Lakehouse`] is a ring buffer of fixed-size row blocks
//! ([`BLOCK_ROWS`] = the engine's zone-map block size): ingestion
//! appends block-at-a-time and evicts whole blocks from the front once
//! [`Lakehouse::with_capacity_blocks`] is exceeded, bounding memory for
//! long-running fleets while keeping table construction a streaming
//! fold over blocks. [`Lakehouse::ingest_events`] folds recorder
//! events; [`Lakehouse::ingest_snapshot`] and
//! [`Lakehouse::ingest_histogram_buckets`] fold the metrics registry.
//!
//! ## Queries
//!
//! [`TelemetryQueries`] is the canned API over the spans table —
//! [`TelemetryQueries::p99_by_tenant`],
//! [`TelemetryQueries::lcv_over_window`], and
//! [`TelemetryQueries::slowest_spans`] — used by `repro --fleet` to
//! print its telemetry tables *from the lakehouse*. A row-at-a-time
//! [`reference_p99_by_tenant`] interpreter backs the differential
//! oracle.

use std::collections::VecDeque;

use ids_engine::{ColumnBuilder, EngineError, Table, TableBuilder, ZONE_BLOCK_ROWS};
use ids_obs::{ArgValue, MetricsSnapshot, TraceEvent};
use ids_simclock::SimTime;

mod queries;

pub use queries::{
    reference_p99_by_tenant, render_table, LcvPoint, SlowSpan, TelemetryQueries, TenantLatency,
    TimeWindow,
};

/// Rows per ingestion block — the engine's zone-map block size, so each
/// full block maps onto exactly one zone and time-range queries prune
/// evicted-adjacent history block-at-a-time.
pub const BLOCK_ROWS: usize = ZONE_BLOCK_ROWS;

/// Default ring capacity in blocks (1024 blocks × 1024 rows ≈ 1M rows
/// per table), plenty for a fleet sweep while still bounding a
/// long-running ingest.
pub const DEFAULT_CAPACITY_BLOCKS: usize = 1024;

/// Errors from lakehouse table construction or queries.
#[derive(Debug)]
pub enum LakehouseError {
    /// The underlying engine rejected a table or query.
    Engine(EngineError),
}

impl std::fmt::Display for LakehouseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LakehouseError::Engine(e) => write!(f, "lakehouse engine error: {e}"),
        }
    }
}

impl std::error::Error for LakehouseError {}

impl From<EngineError> for LakehouseError {
    fn from(e: EngineError) -> LakehouseError {
        LakehouseError::Engine(e)
    }
}

/// Result alias for lakehouse operations.
pub type LakehouseResult<T> = Result<T, LakehouseError>;

/// One span row (a `TraceEvent::Span` flattened onto the fixed schema).
#[derive(Debug, Clone)]
struct SpanRow {
    start_us: i64,
    dur_us: i64,
    cat: &'static str,
    name: String,
    track: String,
    tenant: String,
    violated: i64,
    cost_us: i64,
}

/// One counter sample row.
#[derive(Debug, Clone)]
struct CounterRow {
    ts_us: i64,
    name: String,
    value: f64,
}

/// One histogram bucket row.
#[derive(Debug, Clone)]
struct BucketRow {
    name: String,
    bucket_lo: i64,
    count: i64,
}

/// A bounded ring of fixed-size row blocks: appends go block-at-a-time,
/// eviction drops whole blocks from the front.
struct Ring<R> {
    cap_blocks: usize,
    blocks: VecDeque<Vec<R>>,
    evicted: u64,
}

impl<R> Ring<R> {
    fn new(cap_blocks: usize) -> Ring<R> {
        Ring {
            cap_blocks: cap_blocks.max(1),
            blocks: VecDeque::new(),
            evicted: 0,
        }
    }

    fn push(&mut self, row: R) {
        let needs_block = match self.blocks.back() {
            Some(b) => b.len() >= BLOCK_ROWS,
            None => true,
        };
        if needs_block {
            if self.blocks.len() >= self.cap_blocks {
                if let Some(old) = self.blocks.pop_front() {
                    self.evicted += old.len() as u64;
                }
            }
            self.blocks.push_back(Vec::with_capacity(BLOCK_ROWS));
        }
        if let Some(back) = self.blocks.back_mut() {
            back.push(row);
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = &R> {
        self.blocks.iter().flat_map(|b| b.iter())
    }
}

/// What one [`Lakehouse::ingest_events`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Span rows appended.
    pub spans: usize,
    /// Counter-sample rows appended.
    pub counters: usize,
    /// Events with no lakehouse schema (instant markers), skipped.
    pub skipped: usize,
}

/// Ring-buffered columnar telemetry store. See the crate docs for the
/// schemas and the ingestion/eviction discipline.
pub struct Lakehouse {
    spans: Ring<SpanRow>,
    counters: Ring<CounterRow>,
    buckets: Ring<BucketRow>,
}

impl Default for Lakehouse {
    fn default() -> Lakehouse {
        Lakehouse::new()
    }
}

impl Lakehouse {
    /// A lakehouse with the default per-table capacity.
    pub fn new() -> Lakehouse {
        Lakehouse::with_capacity_blocks(DEFAULT_CAPACITY_BLOCKS)
    }

    /// A lakehouse whose per-table rings hold at most `cap_blocks`
    /// blocks of [`BLOCK_ROWS`] rows; the oldest block is evicted when
    /// a table outgrows that.
    pub fn with_capacity_blocks(cap_blocks: usize) -> Lakehouse {
        Lakehouse {
            spans: Ring::new(cap_blocks),
            counters: Ring::new(cap_blocks),
            buckets: Ring::new(cap_blocks),
        }
    }

    /// Folds recorder events into the spans and counters tables.
    /// `tracks` is the recorder's track-name table (so span rows carry
    /// the human-readable track name, dictionary-encoded). Spans whose
    /// args carry `tenant`/`violated`/`cost_us` (the serve layer's
    /// convention) land those in dedicated columns; spans without them
    /// get `tenant = "-"`, `violated = 0`, `cost_us = dur_us`.
    pub fn ingest_events(&mut self, events: &[TraceEvent], tracks: &[String]) -> IngestStats {
        let mut stats = IngestStats::default();
        for e in events {
            match e {
                TraceEvent::Span {
                    cat,
                    name,
                    track,
                    start,
                    dur,
                    args,
                } => {
                    let arg_str = |key: &str| {
                        args.iter().find_map(|(k, v)| match v {
                            ArgValue::Str(s) if *k == key => Some(s.clone()),
                            _ => None,
                        })
                    };
                    let arg_u64 = |key: &str| {
                        args.iter().find_map(|(k, v)| match v {
                            ArgValue::U64(n) if *k == key => Some(*n),
                            _ => None,
                        })
                    };
                    let dur_us = dur.as_micros() as i64;
                    self.spans.push(SpanRow {
                        start_us: start.as_micros() as i64,
                        dur_us,
                        cat,
                        name: name.clone(),
                        track: tracks
                            .get(track.0 as usize)
                            .cloned()
                            .unwrap_or_else(|| "-".to_string()),
                        tenant: arg_str("tenant").unwrap_or_else(|| "-".to_string()),
                        violated: arg_u64("violated").map_or(0, |v| (v != 0) as i64),
                        cost_us: arg_u64("cost_us").map_or(dur_us, |v| v as i64),
                    });
                    stats.spans += 1;
                }
                TraceEvent::Counter { name, ts, value } => {
                    self.counters.push(CounterRow {
                        ts_us: ts.as_micros() as i64,
                        name: (*name).to_string(),
                        value: *value,
                    });
                    stats.counters += 1;
                }
                TraceEvent::Instant { .. } => stats.skipped += 1,
            }
        }
        stats
    }

    /// Folds a metrics snapshot into the counters table as samples at
    /// virtual time `at`: counter totals under their own names, gauge
    /// levels under `<name>`, gauge high watermarks under `<name>.hwm`.
    /// (Histogram detail lands via
    /// [`ingest_histogram_buckets`](Lakehouse::ingest_histogram_buckets),
    /// which wants raw buckets rather than pre-digested quantiles.)
    pub fn ingest_snapshot(&mut self, at: SimTime, snap: &MetricsSnapshot) -> usize {
        let ts_us = at.as_micros() as i64;
        let mut rows = 0usize;
        for (name, v) in &snap.counters {
            self.counters.push(CounterRow {
                ts_us,
                name: name.clone(),
                value: *v as f64,
            });
            rows += 1;
        }
        for (name, v, hwm) in &snap.gauges {
            self.counters.push(CounterRow {
                ts_us,
                name: name.clone(),
                value: *v as f64,
            });
            self.counters.push(CounterRow {
                ts_us,
                name: format!("{name}.hwm"),
                value: *hwm as f64,
            });
            rows += 2;
        }
        rows
    }

    /// Folds raw histogram buckets (`ids_obs::metrics::Registry::
    /// histogram_buckets`) into the buckets table.
    pub fn ingest_histogram_buckets(&mut self, buckets: &[(String, Vec<(u64, u64)>)]) -> usize {
        let mut rows = 0usize;
        for (name, bs) in buckets {
            for &(lo, n) in bs {
                self.buckets.push(BucketRow {
                    name: name.clone(),
                    bucket_lo: lo as i64,
                    count: n as i64,
                });
                rows += 1;
            }
        }
        rows
    }

    /// Row counts `(spans, counters, buckets)` currently resident.
    pub fn row_counts(&self) -> (usize, usize, usize) {
        (self.spans.len(), self.counters.len(), self.buckets.len())
    }

    /// Rows evicted so far from the spans ring (oldest-first).
    pub fn evicted_span_rows(&self) -> u64 {
        self.spans.evicted
    }

    /// Builds the `telemetry_spans` table from the resident blocks.
    pub fn spans_table(&self) -> LakehouseResult<Table> {
        let mut start_us = ColumnBuilder::int([]);
        let mut dur_us = ColumnBuilder::int([]);
        let mut cat = ColumnBuilder::str::<_, &str>([]);
        let mut name = ColumnBuilder::str::<_, &str>([]);
        let mut track = ColumnBuilder::str::<_, &str>([]);
        let mut tenant = ColumnBuilder::str::<_, &str>([]);
        let mut violated = ColumnBuilder::int([]);
        let mut cost_us = ColumnBuilder::int([]);
        for r in self.spans.iter() {
            start_us.push_int(r.start_us);
            dur_us.push_int(r.dur_us);
            cat.push_str(r.cat);
            name.push_str(&r.name);
            track.push_str(&r.track);
            tenant.push_str(&r.tenant);
            violated.push_int(r.violated);
            cost_us.push_int(r.cost_us);
        }
        Ok(TableBuilder::new("telemetry_spans")
            .column("start_us", start_us)
            .column("dur_us", dur_us)
            .column("cat", cat)
            .column("name", name)
            .column("track", track)
            .column("tenant", tenant)
            .column("violated", violated)
            .column("cost_us", cost_us)
            .build()?)
    }

    /// Builds the `telemetry_counters` table from the resident blocks.
    pub fn counters_table(&self) -> LakehouseResult<Table> {
        let mut ts_us = ColumnBuilder::int([]);
        let mut name = ColumnBuilder::str::<_, &str>([]);
        let mut value = ColumnBuilder::float([]);
        for r in self.counters.iter() {
            ts_us.push_int(r.ts_us);
            name.push_str(&r.name);
            value.push_float(r.value);
        }
        Ok(TableBuilder::new("telemetry_counters")
            .column("ts_us", ts_us)
            .column("name", name)
            .column("value", value)
            .build()?)
    }

    /// Builds the `telemetry_buckets` table from the resident blocks.
    pub fn buckets_table(&self) -> LakehouseResult<Table> {
        let mut name = ColumnBuilder::str::<_, &str>([]);
        let mut bucket_lo = ColumnBuilder::int([]);
        let mut count = ColumnBuilder::int([]);
        for r in self.buckets.iter() {
            name.push_str(&r.name);
            bucket_lo.push_int(r.bucket_lo);
            count.push_int(r.count);
        }
        Ok(TableBuilder::new("telemetry_buckets")
            .column("name", name)
            .column("bucket_lo", bucket_lo)
            .column("count", count)
            .build()?)
    }

    /// The canned query API over a freshly-built spans table.
    pub fn queries(&self) -> LakehouseResult<TelemetryQueries> {
        Ok(TelemetryQueries::new(self.spans_table()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_obs::TrackId;
    use ids_simclock::SimDuration;

    fn span(tenant: &str, start: u64, dur: u64, violated: u64) -> TraceEvent {
        TraceEvent::Span {
            cat: "serve",
            name: "count".to_string(),
            track: TrackId(0),
            start: SimTime::from_micros(start),
            dur: SimDuration::from_micros(dur),
            args: vec![
                ("tenant", ArgValue::Str(tenant.to_string())),
                ("violated", ArgValue::U64(violated)),
                ("cost_us", ArgValue::U64(dur)),
            ],
        }
    }

    #[test]
    fn ingest_builds_tables_with_expected_schema() {
        let mut lake = Lakehouse::new();
        let events = vec![
            span("tenant/0", 100, 50, 0),
            span("tenant/1", 200, 2_000, 1),
            TraceEvent::Counter {
                name: "serve.admitted",
                ts: SimTime::from_micros(250),
                value: 2.0,
            },
            TraceEvent::Instant {
                cat: "opt",
                name: "drop".to_string(),
                track: TrackId(0),
                ts: SimTime::from_micros(300),
                args: vec![],
            },
        ];
        let stats = lake.ingest_events(&events, &["tenant/0".to_string()]);
        assert_eq!(
            stats,
            IngestStats {
                spans: 2,
                counters: 1,
                skipped: 1
            }
        );
        let spans = lake.spans_table().expect("spans table");
        assert_eq!(spans.rows(), 2);
        assert_eq!(spans.width(), 8);
        let counters = lake.counters_table().expect("counters table");
        assert_eq!(counters.rows(), 1);
        // Dictionary encoding: tenant column stores codes over a dict.
        let (codes, dict) = spans
            .column("tenant")
            .expect("tenant column")
            .as_str_parts()
            .expect("str column");
        assert_eq!(codes.len(), 2);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn empty_lakehouse_builds_empty_tables_and_queries() {
        let lake = Lakehouse::new();
        let spans = lake.spans_table().expect("empty spans table");
        assert_eq!(spans.rows(), 0);
        let mut q = lake.queries().expect("queries over empty table");
        assert!(q
            .p99_by_tenant(TimeWindow::all())
            .expect("empty p99")
            .is_empty());
        assert!(q.slowest_spans(5).expect("empty slowest").is_empty());
    }

    #[test]
    fn ring_evicts_whole_blocks_from_the_front() {
        let mut lake = Lakehouse::with_capacity_blocks(2);
        let total = 3 * BLOCK_ROWS + 7;
        for i in 0..total {
            let e = span("t", i as u64, 1, 0);
            lake.ingest_events(std::slice::from_ref(&e), &[]);
        }
        // Two full blocks were evicted; at most 2 blocks remain resident.
        assert_eq!(lake.evicted_span_rows(), 2 * BLOCK_ROWS as u64);
        let resident = lake.row_counts().0;
        assert!(resident <= 2 * BLOCK_ROWS);
        assert_eq!(resident as u64 + lake.evicted_span_rows(), total as u64);
        // The resident rows are the *newest* ones.
        let t = lake.spans_table().expect("table");
        let starts = t
            .column("start_us")
            .expect("start_us")
            .as_int()
            .expect("int column")
            .to_vec();
        assert_eq!(starts.first().copied(), Some((total - resident) as i64));
        assert_eq!(starts.last().copied(), Some(total as i64 - 1));
    }

    #[test]
    fn snapshot_and_buckets_ingest() {
        let mut lake = Lakehouse::new();
        let snap = MetricsSnapshot {
            counters: vec![("serve.admitted".to_string(), 12)],
            gauges: vec![("pool.depth".to_string(), 3, 9)],
            histograms: vec![],
        };
        let rows = lake.ingest_snapshot(SimTime::from_micros(1_000), &snap);
        assert_eq!(rows, 3);
        let buckets = vec![("serve.latency_us".to_string(), vec![(8u64, 2u64), (16, 1)])];
        assert_eq!(lake.ingest_histogram_buckets(&buckets), 2);
        let ct = lake.counters_table().expect("counters");
        assert_eq!(ct.rows(), 3);
        let bt = lake.buckets_table().expect("buckets");
        assert_eq!(bt.rows(), 2);
        let lows = bt
            .column("bucket_lo")
            .expect("bucket_lo")
            .as_int()
            .expect("int")
            .to_vec();
        assert_eq!(lows, vec![8, 16]);
    }

    #[test]
    fn ingestion_is_deterministic() {
        let events: Vec<TraceEvent> = (0..500)
            .map(|i| {
                span(
                    &format!("tenant/{}", i % 3),
                    i * 10,
                    5 + i % 7,
                    (i % 5 == 0) as u64,
                )
            })
            .collect();
        let tracks = vec!["w".to_string()];
        let render = |events: &[TraceEvent]| {
            let mut lake = Lakehouse::new();
            lake.ingest_events(events, &tracks);
            render_table(&lake.spans_table().expect("table"), usize::MAX)
        };
        assert_eq!(render(&events), render(&events));
    }
}
