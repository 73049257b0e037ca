//! Canned telemetry queries over the `telemetry_spans` table, executed
//! with the engine's vectorized kernels — plus the row-at-a-time
//! reference interpreter the differential oracle compares against, and
//! a deterministic table renderer.

use ids_engine::{kernels, BinSpec, KernelOptions, KernelStats, Predicate, SelectionVector, Table};
use ids_simclock::SimTime;

use crate::{LakehouseError, LakehouseResult};

/// An inclusive virtual-time window `[start, end]` over span starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWindow {
    /// First span start included.
    pub start: SimTime,
    /// Last span start included.
    pub end: SimTime,
}

impl TimeWindow {
    /// The whole timeline.
    pub fn all() -> TimeWindow {
        TimeWindow {
            start: SimTime::ZERO,
            end: SimTime::MAX,
        }
    }

    /// The window covering `[start, end]`.
    pub fn new(start: SimTime, end: SimTime) -> TimeWindow {
        TimeWindow { start, end }
    }
}

/// Per-tenant tail latency over a window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLatency {
    /// Tenant name (dictionary entry, first-seen order).
    pub tenant: String,
    /// Spans in the window.
    pub spans: usize,
    /// Spans whose latency violated the budget.
    pub violated: usize,
    /// Exact p99 span duration in virtual microseconds (`ceil(0.99 n)`
    /// rank of the sorted durations).
    pub p99_us: i64,
}

/// Latency-constraint violations in one time bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcvPoint {
    /// Bucket center in virtual microseconds (`ROUND` binning: the
    /// bucket covers `t_us ± window/2`).
    pub t_us: u64,
    /// Spans starting in the bucket.
    pub total: u64,
    /// Violating spans starting in the bucket.
    pub violations: u64,
}

impl LcvPoint {
    /// Violation fraction, 0 when the bucket is empty.
    pub fn lcv(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.violations as f64 / self.total as f64
        }
    }
}

/// One row of the slowest-spans leaderboard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSpan {
    /// Span name (the query kind for serve spans).
    pub name: String,
    /// Tenant name.
    pub tenant: String,
    /// Virtual start time in microseconds.
    pub start_us: i64,
    /// Virtual duration in microseconds.
    pub dur_us: i64,
}

/// The rank-`ceil(0.99 n)` element of an ascending-sorted slice (exact,
/// not bucketed — both the kernel path and the row-at-a-time reference
/// share this convention so they can be compared for equality).
fn p99_of_sorted(sorted: &[i64]) -> i64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tenant dictionary of a spans table, in code (first-seen) order.
fn tenant_dict(spans: &Table) -> LakehouseResult<Vec<String>> {
    let col = spans.column("tenant")?;
    Ok(col
        .as_str_parts()
        .map(|(_, dict)| dict.iter().map(|s| s.to_string()).collect())
        .unwrap_or_default())
}

fn window_pred(tenant: &str, window: TimeWindow) -> Predicate {
    Predicate::and([
        Predicate::eq("tenant", tenant),
        Predicate::between(
            "start_us",
            window.start.as_micros() as f64,
            window.end.as_micros() as f64,
        ),
    ])
}

/// Canned queries over a `telemetry_spans` table (built by
/// [`Lakehouse::queries`](crate::Lakehouse::queries)). Every method runs
/// on the vectorized kernel path — selection masks, zone-map pruning on
/// the virtual-time axis, fused filter+bin — and accumulates the work
/// counters in [`kernel_stats`](TelemetryQueries::kernel_stats).
pub struct TelemetryQueries {
    spans: Table,
    opts: KernelOptions,
    stats: KernelStats,
}

impl TelemetryQueries {
    /// Wraps a spans table.
    pub fn new(spans: Table) -> TelemetryQueries {
        TelemetryQueries {
            spans,
            opts: KernelOptions::default(),
            stats: KernelStats::default(),
        }
    }

    /// The underlying spans table.
    pub fn spans(&self) -> &Table {
        &self.spans
    }

    /// Accumulated kernel work counters across all queries so far.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// Exact p99 span duration per tenant over `window`, with span and
    /// violation counts. Tenants are reported in dictionary (first-seen)
    /// order; tenants with no spans in the window are omitted.
    pub fn p99_by_tenant(&mut self, window: TimeWindow) -> LakehouseResult<Vec<TenantLatency>> {
        let durs = self
            .spans
            .column("dur_us")?
            .as_int()
            .ok_or_else(type_err("dur_us"))?
            .to_vec();
        let viol = self
            .spans
            .column("violated")?
            .as_int()
            .ok_or_else(type_err("violated"))?
            .to_vec();
        let mut out = Vec::new();
        for tenant in tenant_dict(&self.spans)? {
            let pred = window_pred(&tenant, window);
            let sel: SelectionVector =
                kernels::select_vector_with(&self.spans, &pred, &self.opts, &mut self.stats)?;
            if sel.count() == 0 {
                continue;
            }
            let mut tenant_durs: Vec<i64> = Vec::with_capacity(sel.count());
            let mut violated = 0usize;
            for row in sel.iter() {
                tenant_durs.push(durs[row]);
                violated += (viol[row] != 0) as usize;
            }
            tenant_durs.sort_unstable();
            out.push(TenantLatency {
                tenant,
                spans: tenant_durs.len(),
                violated,
                p99_us: p99_of_sorted(&tenant_durs),
            });
        }
        Ok(out)
    }

    /// Latency-constraint violations over time, bucketed by
    /// `window_us`: two fused filter+bin passes over `start_us` (one
    /// masked to violating spans, one over everything), so the LCV
    /// trajectory is a pair of histograms off the raw column. Buckets
    /// use the engine's `ROUND` binning: bucket `k` is centered on
    /// `k · window_us`.
    pub fn lcv_over_window(&mut self, window_us: u64) -> LakehouseResult<Vec<LcvPoint>> {
        let window_us = window_us.max(1);
        let idx = self.spans.column_index("start_us")?;
        let col = self.spans.column_at(idx);
        let starts = col.as_int().ok_or_else(type_err("start_us"))?;
        let Some(&horizon) = starts.iter().max() else {
            return Ok(Vec::new());
        };
        let nbins = ((horizon.max(0) as u64).div_ceil(window_us) as usize).max(1);
        let bins = BinSpec::new("start_us", 0.0, (nbins as u64 * window_us) as f64, nbins);
        let zone = self.spans.zone_map_at(idx);
        let violated_sel = kernels::select_vector_with(
            &self.spans,
            &Predicate::eq("violated", 1i64),
            &self.opts,
            &mut self.stats,
        )?;
        let all_sel = SelectionVector::all(self.spans.rows());
        let violations =
            kernels::fused_filter_bin(col, zone, &violated_sel, &bins, &self.opts, &mut self.stats);
        let totals =
            kernels::fused_filter_bin(col, zone, &all_sel, &bins, &self.opts, &mut self.stats);
        Ok(totals
            .counts()
            .iter()
            .zip(violations.counts())
            .enumerate()
            .map(|(k, (&total, &violations))| LcvPoint {
                t_us: k as u64 * window_us,
                total,
                violations,
            })
            .collect())
    }

    /// The `k` slowest spans, longest first (start time, then ingestion
    /// order break ties, so the leaderboard is deterministic).
    pub fn slowest_spans(&mut self, k: usize) -> LakehouseResult<Vec<SlowSpan>> {
        let durs = self
            .spans
            .column("dur_us")?
            .as_int()
            .ok_or_else(type_err("dur_us"))?;
        let mut order: Vec<usize> = (0..durs.len()).collect();
        order.sort_by_key(|&row| (std::cmp::Reverse(durs[row]), row));
        order.truncate(k);
        let starts = self
            .spans
            .column("start_us")?
            .as_int()
            .ok_or_else(type_err("start_us"))?;
        let (name_codes, name_dict) = self
            .spans
            .column("name")?
            .as_str_parts()
            .ok_or_else(type_err("name"))?;
        let (tenant_codes, tenant_dict) = self
            .spans
            .column("tenant")?
            .as_str_parts()
            .ok_or_else(type_err("tenant"))?;
        Ok(order
            .into_iter()
            .map(|row| SlowSpan {
                name: name_dict[name_codes[row] as usize].to_string(),
                tenant: tenant_dict[tenant_codes[row] as usize].to_string(),
                start_us: starts[row],
                dur_us: durs[row],
            })
            .collect())
    }
}

/// Builds the "column has unexpected type" error lazily.
fn type_err(column: &'static str) -> impl Fn() -> LakehouseError {
    move || {
        LakehouseError::Engine(ids_engine::EngineError::TypeMismatch {
            column: column.to_string(),
            expected: "telemetry column type",
        })
    }
}

/// Row-at-a-time reference for
/// [`TelemetryQueries::p99_by_tenant`]: evaluates the same predicate
/// with [`Predicate::matches`] per row instead of the vectorized
/// kernels. The `lakehouse-determinism` simtest oracle asserts both
/// paths agree exactly.
pub fn reference_p99_by_tenant(
    spans: &Table,
    window: TimeWindow,
) -> LakehouseResult<Vec<TenantLatency>> {
    let durs = spans
        .column("dur_us")?
        .as_int()
        .ok_or_else(type_err("dur_us"))?
        .to_vec();
    let viol = spans
        .column("violated")?
        .as_int()
        .ok_or_else(type_err("violated"))?
        .to_vec();
    let mut out = Vec::new();
    for tenant in tenant_dict(spans)? {
        let pred = window_pred(&tenant, window);
        let mut tenant_durs = Vec::new();
        let mut violated = 0usize;
        for row in 0..spans.rows() {
            if pred.matches(spans, row)? {
                tenant_durs.push(durs[row]);
                violated += (viol[row] != 0) as usize;
            }
        }
        if tenant_durs.is_empty() {
            continue;
        }
        tenant_durs.sort_unstable();
        out.push(TenantLatency {
            tenant,
            spans: tenant_durs.len(),
            violated,
            p99_us: p99_of_sorted(&tenant_durs),
        });
    }
    Ok(out)
}

/// Renders a table as deterministic TSV: a `#`-prefixed title line,
/// a header row, then at most `max_rows` data rows (floats at three
/// decimals). Used by the determinism oracle to byte-compare telemetry
/// tables across replays.
pub fn render_table(t: &Table, max_rows: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {} ({} rows)", t.name(), t.rows());
    let names: Vec<&str> = t.column_names().collect();
    let _ = writeln!(out, "{}", names.join("\t"));
    let shown = t.rows().min(max_rows);
    for row in 0..shown {
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            match t.value(row, name) {
                Ok(ids_engine::Value::Int(v)) => {
                    let _ = write!(out, "{v}");
                }
                Ok(ids_engine::Value::Float(v)) => {
                    let _ = write!(out, "{v:.3}");
                }
                Ok(ids_engine::Value::Str(s)) => out.push_str(&s),
                Err(_) => out.push('?'),
            }
        }
        out.push('\n');
    }
    if shown < t.rows() {
        let _ = writeln!(out, "… ({} more rows)", t.rows() - shown);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lakehouse;
    use ids_obs::{ArgValue, TraceEvent, TrackId};
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

    fn sample_queries() -> TelemetryQueries {
        let mut lake = Lakehouse::new();
        let mut events = Vec::new();
        for i in 0..4000u64 {
            let tenant = format!("tenant/{}", i % 3);
            let dur = 10 + (i * 37) % 900;
            events.push(span(&tenant, i * 25, dur, (dur > 800) as u64));
        }
        lake.ingest_events(&events, &["w".to_string()]);
        lake.queries().expect("queries")
    }

    #[test]
    fn p99_matches_reference_interpreter() {
        let mut q = sample_queries();
        for window in [
            TimeWindow::all(),
            TimeWindow::new(SimTime::from_micros(10_000), SimTime::from_micros(60_000)),
            // Empty window.
            TimeWindow::new(SimTime::from_micros(1), SimTime::from_micros(2)),
        ] {
            let kernel = q.p99_by_tenant(window).expect("kernel path");
            let reference = reference_p99_by_tenant(q.spans(), window).expect("reference path");
            assert_eq!(kernel, reference);
        }
        // The time-range scans actually exercised the kernels.
        assert!(q.kernel_stats().blocks_scanned > 0);
    }

    #[test]
    fn narrow_time_windows_prune_blocks_via_zone_maps() {
        let mut q = sample_queries();
        let narrow = TimeWindow::new(SimTime::ZERO, SimTime::from_micros(100));
        q.p99_by_tenant(narrow).expect("narrow window");
        let stats = q.kernel_stats();
        assert!(
            stats.blocks_pruned > 0,
            "a narrow time range must prune blocks, got {stats:?}"
        );
    }

    #[test]
    fn lcv_counts_match_direct_binning() {
        let mut q = sample_queries();
        let points = q.lcv_over_window(10_000).expect("lcv");
        let total: u64 = points.iter().map(|p| p.total).sum();
        let violations: u64 = points.iter().map(|p| p.violations).sum();
        assert_eq!(
            total,
            q.spans().rows() as u64,
            "every span lands in a bucket"
        );
        let viol_rows = q
            .spans()
            .column("violated")
            .expect("violated")
            .as_int()
            .expect("int")
            .iter()
            .filter(|&&v| v != 0)
            .count() as u64;
        assert_eq!(violations, viol_rows);
        for p in &points {
            assert!(p.violations <= p.total);
            assert!((0.0..=1.0).contains(&p.lcv()));
        }
    }

    #[test]
    fn slowest_spans_are_sorted_and_tie_broken() {
        let mut q = sample_queries();
        let top = q.slowest_spans(10).expect("slowest");
        assert_eq!(top.len(), 10);
        for w in top.windows(2) {
            assert!(
                w[0].dur_us > w[1].dur_us
                    || (w[0].dur_us == w[1].dur_us && w[0].start_us < w[1].start_us),
                "leaderboard must be sorted with deterministic ties"
            );
        }
    }

    #[test]
    fn render_table_truncates_deterministically() {
        let q = sample_queries();
        let full = render_table(q.spans(), usize::MAX);
        assert!(full.starts_with("# telemetry_spans (4000 rows)\n"));
        assert_eq!(full, render_table(q.spans(), usize::MAX));
        let short = render_table(q.spans(), 5);
        assert!(short.contains("… (3995 more rows)"));
    }

    #[test]
    fn p99_of_sorted_ranks() {
        assert_eq!(p99_of_sorted(&[]), 0);
        assert_eq!(p99_of_sorted(&[7]), 7);
        let v: Vec<i64> = (1..=100).collect();
        assert_eq!(p99_of_sorted(&v), 99);
        let v: Vec<i64> = (1..=1000).collect();
        assert_eq!(p99_of_sorted(&v), 990);
    }
}
