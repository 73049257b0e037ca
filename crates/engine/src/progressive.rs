//! Progressive (online-aggregation-style) query execution.
//!
//! Section 3.1.1 of the paper singles out progressive rendering — "online
//! aggregation, where approximate results with increasing accuracy over
//! time are presented to the user" and Incvisage's incrementally refining
//! visualizations — as the payoff of measuring latency at fine
//! granularity. This module executes histogram and count queries by
//! block-sampled online aggregation over the vectorized kernels: a
//! seeded deterministic permutation of the table's zone-map blocks is
//! consumed batch by batch, and each refinement step carries a
//! full-population estimate, per-bin confidence intervals, and a sound
//! absolute error bound. At 100% of blocks the accumulated answer is
//! byte-identical to the exact kernel answer (per-block `u64` adds
//! commute, so permutation order is invisible).
//!
//! Two error figures ride on every [`Refinement`]:
//!
//! * [`Refinement::intervals`] — per-bin confidence intervals at
//!   [`CONFIDENCE`] coverage, half-width `min(serfling, unseen_rows)` where
//!   `serfling` is a Serfling/Hoeffding-style without-replacement bound
//!   over the sampled blocks. These are *probabilistic*: the oracle
//!   checks they bracket the truth at that coverage rate.
//! * [`Refinement::error_bound`] — a *deterministic* absolute bound:
//!   with `r` of `n` rows covered, every estimated value is within
//!   `n - r` of the truth before rounding (the estimate inflates the
//!   seen count by at most the unseen mass, and can miss at most the
//!   unseen mass), plus `0.5` for integer rounding of the estimate.
//!   It is exactly `0.0` on the final refinement.

use std::sync::Arc;

use ids_simclock::rng::SimRng;
use ids_simclock::SimDuration;

use crate::backend::Database;
use crate::column::ZONE_BLOCK_ROWS;
use crate::cost::{CostModel, CostParams, LinearCostModel, QueryFootprint};
use crate::error::{EngineError, EngineResult};
use crate::kernels::{self, KernelOptions, KernelStats, SelectionVector};
use crate::query::{BinSpec, Query};
use crate::result::{Histogram, ResultSet};
use crate::table::Table;

/// Selection-vector words per zone-map block (1024 rows / 64 bits).
const WORDS_PER_BLOCK: usize = ZONE_BLOCK_ROWS / 64;

/// Default seed for the deterministic block permutation.
const DEFAULT_SEED: u64 = 0x5EED_B10C;

/// Coverage of the per-bin confidence intervals.
pub const CONFIDENCE: f64 = 0.95;

/// A closed interval `[lo, hi]` around one estimated value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint (clamped at zero for counts).
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// A zero-width interval pinned at `v` (an exact answer).
    pub fn exact(v: f64) -> ConfidenceInterval {
        ConfidenceInterval { lo: v, hi: v }
    }

    /// `true` if `x` lies inside the interval (endpoints included).
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// One refinement step of a progressive execution.
#[derive(Debug, Clone)]
pub struct Refinement {
    /// Fraction of the table's rows covered so far, in `(0, 1]`.
    pub fraction: f64,
    /// Estimated result, scaled to the full population (rounded).
    pub estimate: ResultSet,
    /// One confidence interval per estimated value (per histogram bin,
    /// or a single interval for a count), centered on the unrounded
    /// estimate.
    pub intervals: Vec<ConfidenceInterval>,
    /// Deterministic absolute error bound: every reported value is
    /// within this many rows of the exact answer. `0.0` on the final
    /// refinement.
    pub error_bound: f64,
    /// Cumulative virtual time spent up to (and including) this step.
    pub elapsed: SimDuration,
}

/// A prepared progressive run: validated query shape, the full
/// selection mask (cheap vectorized work; virtual cost is charged per
/// block as the scan progresses), and the seeded block permutation.
struct Prepared {
    table: Table,
    selected: Arc<SelectionVector>,
    /// Bin spec plus its column index, for histogram queries.
    binned: Option<(BinSpec, usize)>,
    condition_count: usize,
    blocks: Vec<usize>,
    n: usize,
    total_blocks: usize,
}

/// Progressive executor over a database.
#[derive(Debug)]
pub struct ProgressiveExecutor {
    db: Database,
    model: LinearCostModel,
    /// Seed for the deterministic block permutation.
    seed: u64,
}

impl ProgressiveExecutor {
    /// Creates an executor with memory-regime costs and the default
    /// permutation seed.
    pub fn new(db: Database) -> ProgressiveExecutor {
        ProgressiveExecutor {
            db,
            model: LinearCostModel::new(CostParams::mem_default()),
            seed: DEFAULT_SEED,
        }
    }

    /// Overrides the block-permutation seed. The seed changes which
    /// blocks feed early estimates but never the final answer.
    pub fn with_seed(mut self, seed: u64) -> ProgressiveExecutor {
        self.seed = seed;
        self
    }

    /// Executes `query` progressively, returning one refinement step at
    /// each fraction of the doubling schedule 1% → 2% → 4% → … → 64% →
    /// 100%, quantized up to whole zone-map blocks (nearby steps
    /// collapse into one on small tables).
    ///
    /// Blocks are consumed in a seeded deterministic permutation; the
    /// step at 100% of blocks is byte-identical to the exact kernel
    /// answer regardless of seed.
    pub fn run(&self, query: &Query) -> EngineResult<Vec<Refinement>> {
        let prep = self.prepare(query)?;
        if prep.total_blocks == 0 {
            return Ok(vec![self.empty_refinement(&prep)]);
        }
        let mut steps: Vec<usize> = std::iter::successors(Some(0.01), |f| Some(f * 2.0))
            .take_while(|f| *f < 1.0)
            .chain([1.0])
            .map(|f| (((prep.total_blocks as f64) * f).ceil() as usize).clamp(1, prep.total_blocks))
            .collect();
        steps.dedup();
        Ok(self.refine(&prep, &steps))
    }

    /// Executes `query` under a latency budget: consumes as many
    /// permuted blocks as `budget / exact_cost` pays for (at least one)
    /// and returns that single best-so-far refinement. `elapsed` is
    /// `exact_cost` scaled by the covered row fraction, so a charged
    /// deadline answer always fits the budget whenever at least one
    /// block's worth of budget was available.
    pub fn run_bounded(
        &self,
        query: &Query,
        exact_cost: SimDuration,
        budget: SimDuration,
    ) -> EngineResult<Refinement> {
        let prep = self.prepare(query)?;
        if prep.total_blocks == 0 {
            return Ok(self.empty_refinement(&prep));
        }
        let budget_frac = if exact_cost.is_zero() {
            1.0
        } else {
            budget.as_secs_f64() / exact_cost.as_secs_f64()
        };
        let paid_rows = budget_frac * prep.n as f64;
        let m = ((paid_rows / ZONE_BLOCK_ROWS as f64).floor() as usize).clamp(1, prep.total_blocks);
        let mut out = self.refine(&prep, &[m]);
        let mut refinement = match out.pop() {
            Some(r) => r,
            None => self.empty_refinement(&prep),
        };
        refinement.elapsed = exact_cost.mul_f64(refinement.fraction);
        Ok(refinement)
    }

    /// Validates the query shape (mirroring the exact executor's
    /// checks) and builds the selection mask and block permutation.
    fn prepare(&self, query: &Query) -> EngineResult<Prepared> {
        let (table_name, filter, bins) = match query {
            Query::Count { table, filter } => (table, filter, None),
            Query::Histogram {
                table,
                bins,
                filter,
            } => (table, filter, Some(bins.clone())),
            _ => {
                return Err(EngineError::TypeMismatch {
                    column: query.table().to_string(),
                    expected: "a COUNT or histogram query for progressive execution",
                })
            }
        };
        let table = self.db.table(table_name)?;
        let mut binned = None;
        if let Some(b) = bins {
            b.validate()?;
            let idx = b.column_in(&table)?;
            binned = Some((b, idx));
        }
        let (selected, _) = crate::exec::filter_rows(&table, filter)?;
        let n = table.rows();
        let total_blocks = n.div_ceil(ZONE_BLOCK_ROWS);
        let mut blocks: Vec<usize> = (0..total_blocks).collect();
        SimRng::seed(self.seed)
            .split("progressive/blocks")
            .shuffle(&mut blocks);
        let condition_count = filter.condition_count();
        Ok(Prepared {
            table,
            selected,
            binned,
            condition_count,
            blocks,
            n,
            total_blocks,
        })
    }

    /// The exact (and only possible) answer over an empty table.
    fn empty_refinement(&self, prep: &Prepared) -> Refinement {
        let (estimate, intervals, groups) = match &prep.binned {
            Some((bins, _)) => {
                let buckets = bins.bucket_count();
                (
                    ResultSet::Histogram(Histogram::zeros(buckets)),
                    vec![ConfidenceInterval::exact(0.0); buckets],
                    buckets as u64,
                )
            }
            None => (ResultSet::Count(0), vec![ConfidenceInterval::exact(0.0)], 1),
        };
        let footprint = QueryFootprint {
            groups,
            rows_output: groups,
            ..QueryFootprint::default()
        };
        Refinement {
            fraction: 1.0,
            estimate,
            intervals,
            error_bound: 0.0,
            elapsed: self.model.price(&footprint),
        }
    }

    /// Consumes permuted blocks up to each cumulative block count in
    /// `steps` (ascending, deduplicated, last ≤ `total_blocks`),
    /// emitting one refinement per step.
    fn refine(&self, prep: &Prepared, steps: &[usize]) -> Vec<Refinement> {
        let opts = KernelOptions::default();
        let mut stats = KernelStats::default();
        let mut hist = prep
            .binned
            .as_ref()
            .map(|(bins, _)| Histogram::zeros(bins.bucket_count()));
        let mut matched = 0u64;
        let mut covered_rows = 0usize;
        let mut cursor = 0usize;
        let mut elapsed = SimDuration::ZERO;
        let mut out = Vec::with_capacity(steps.len());
        for (step, &m) in steps.iter().enumerate() {
            let new_blocks = m.saturating_sub(cursor) as u64;
            let mut new_rows = 0usize;
            let mut new_matched = 0u64;
            while cursor < m {
                let b = prep.blocks[cursor];
                let start = b * ZONE_BLOCK_ROWS;
                let end = (start + ZONE_BLOCK_ROWS).min(prep.n);
                if let (Some(h), Some((bins, idx))) = (hist.as_mut(), prep.binned.as_ref()) {
                    kernels::fused_filter_bin_range(
                        prep.table.column_at(*idx),
                        prep.table.zone_map_at(*idx),
                        None,
                        &prep.selected,
                        bins,
                        &opts,
                        &mut stats,
                        start,
                        end,
                        h,
                    );
                }
                new_matched += block_popcount(&prep.selected, b);
                new_rows += end - start;
                cursor += 1;
            }
            matched += new_matched;
            covered_rows += new_rows;

            let fraction = covered_rows as f64 / prep.n as f64;
            let scale = prep.n as f64 / covered_rows as f64;
            let raw = match &hist {
                Some(h) => ResultSet::Histogram(h.clone()),
                None => ResultSet::Count(matched),
            };
            let half = self.half_width(m, prep.total_blocks, prep.n, covered_rows);
            let unseen = (prep.n - covered_rows) as f64;
            let error_bound = if m >= prep.total_blocks {
                0.0
            } else {
                unseen + 0.5
            };
            let centers: Vec<f64> = match &raw {
                ResultSet::Histogram(h) => h.counts().iter().map(|&c| c as f64 * scale).collect(),
                ResultSet::Count(c) => vec![*c as f64 * scale],
                ResultSet::Rows(_) => Vec::new(),
            };
            let intervals = centers
                .iter()
                .map(|&c| ConfidenceInterval {
                    lo: (c - half).max(0.0),
                    hi: c + half,
                })
                .collect();

            let groups = match &prep.binned {
                Some((bins, _)) => bins.bucket_count() as u64,
                None => 1,
            };
            let footprint = QueryFootprint {
                rows_scanned: new_rows as u64,
                rows_matched: new_matched,
                rows_aggregated: new_matched,
                groups,
                rows_output: groups,
                predicate_evals: new_rows as u64 * prep.condition_count as u64,
                blocks_scanned: new_blocks,
                ..QueryFootprint::default()
            };
            let mut step_cost = self.model.price(&footprint);
            if step > 0 {
                // One cursor, one query: startup is paid once, not per
                // refinement.
                step_cost = step_cost.saturating_sub(SimDuration::from_micros(
                    self.model.params.startup_ns / 1_000,
                ));
            }
            elapsed += step_cost;

            out.push(Refinement {
                fraction,
                estimate: scale_result(raw, scale),
                intervals,
                error_bound,
                elapsed,
            });
        }
        out
    }

    /// Confidence-interval half-width after `m` of `total` blocks: the
    /// tighter of a Serfling/Hoeffding without-replacement bound (each
    /// block contributes at most [`ZONE_BLOCK_ROWS`] rows to any bin)
    /// and the deterministic unseen-rows bound.
    fn half_width(&self, m: usize, total: usize, n: usize, covered: usize) -> f64 {
        if m >= total {
            return 0.0;
        }
        let unseen = (n - covered) as f64;
        let delta = 1.0 - CONFIDENCE;
        let mf = m as f64;
        let tf = total as f64;
        let serfling = tf
            * ZONE_BLOCK_ROWS as f64
            * ((1.0 - (mf - 1.0) / tf) * (2.0 / delta).ln() / (2.0 * mf)).sqrt();
        serfling.min(unseen)
    }
}

/// Popcount of the selection mask restricted to one zone-map block
/// (the tail word is already masked, so no edge handling is needed).
fn block_popcount(sel: &SelectionVector, block: usize) -> u64 {
    let words = sel.words();
    let start = (block * WORDS_PER_BLOCK).min(words.len());
    let end = (start + WORDS_PER_BLOCK).min(words.len());
    words[start..end]
        .iter()
        .map(|w| w.count_ones() as u64)
        .sum()
}

/// Scales a count or histogram result by `scale`, rounding each value.
/// This is how a partial aggregate over `fraction` of the rows becomes
/// a full-population estimate (`scale = 1 / fraction`). Row results
/// are *truncated* when scaling down (a cut-off scan saw a prefix) and
/// never inflated when scaling up — rows, unlike counts, cannot be
/// extrapolated.
pub fn scale_result(partial: ResultSet, scale: f64) -> ResultSet {
    if scale == 1.0 {
        return partial;
    }
    match partial {
        ResultSet::Count(c) => ResultSet::Count((c as f64 * scale).round() as u64),
        ResultSet::Histogram(h) => ResultSet::Histogram(Histogram::from_counts(
            h.counts()
                .iter()
                .map(|&c| (c as f64 * scale).round() as u64)
                .collect(),
        )),
        ResultSet::Rows(rows) => {
            if scale < 1.0 {
                let keep = (rows.len() as f64 * scale).round() as usize;
                ResultSet::Rows(rows.into_iter().take(keep).collect())
            } else {
                ResultSet::Rows(rows)
            }
        }
    }
}

/// Simulates answering from only `fraction` of the data: the exact
/// result is scaled down to the sample a truncated scan would have seen
/// (with integer rounding), then extrapolated back up. The round trip
/// reintroduces the estimation error a real progressive cutoff pays, so
/// degraded answers are approximately — not suspiciously exactly — right.
pub fn degrade_result(exact: ResultSet, fraction: f64) -> ResultSet {
    let fraction = fraction.clamp(f64::MIN_POSITIVE, 1.0);
    if fraction >= 1.0 {
        return exact;
    }
    scale_result(scale_result(exact, fraction), 1.0 / fraction)
}

/// Mean squared error of a refinement's estimate against the exact
/// result, normalized per bin (for histograms) or absolute (for counts).
pub fn refinement_error(estimate: &ResultSet, exact: &ResultSet) -> f64 {
    match (estimate, exact) {
        (ResultSet::Count(a), ResultSet::Count(b)) => {
            let d = *a as f64 - *b as f64;
            d * d
        }
        (ResultSet::Histogram(a), ResultSet::Histogram(b)) if a.bins() == b.bins() => {
            a.counts()
                .iter()
                .zip(b.counts())
                .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                .sum::<f64>()
                / a.bins().max(1) as f64
        }
        _ => f64::INFINITY,
    }
}

/// `true` if a progressive run honors the anytime contract: the final
/// refinement covers the whole table, reports a zero error bound, and
/// equals the exact answer bit-for-bit; and across the sequence the
/// elapsed cost and covered fraction never decrease while the reported
/// error bound never increases. The bound — not the empirical error —
/// is what must shrink: empirical error is not monotone under sampling.
pub fn is_anytime_consistent(refinements: &[Refinement], exact: &ResultSet) -> bool {
    let Some(last) = refinements.last() else {
        return false;
    };
    if last.fraction != 1.0 || last.error_bound != 0.0 || last.estimate != *exact {
        return false;
    }
    refinements.windows(2).all(|w| {
        w[0].elapsed <= w[1].elapsed
            && w[0].fraction <= w[1].fraction
            && w[0].error_bound >= w[1].error_bound
    })
}

/// Fraction of (refinement, value) pairs whose confidence interval
/// brackets the true value. `1.0` when there is nothing to check,
/// `0.0` on a shape mismatch.
pub fn interval_coverage(refinements: &[Refinement], exact: &ResultSet) -> f64 {
    let truth: Vec<f64> = match exact {
        ResultSet::Count(c) => vec![*c as f64],
        ResultSet::Histogram(h) => h.counts().iter().map(|&c| c as f64).collect(),
        ResultSet::Rows(_) => return 1.0,
    };
    let mut total = 0usize;
    let mut covered = 0usize;
    for r in refinements {
        if r.intervals.len() != truth.len() {
            return 0.0;
        }
        for (iv, &t) in r.intervals.iter().zip(&truth) {
            total += 1;
            if iv.contains(t) {
                covered += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::predicate::Predicate;
    use crate::query::BinSpec;
    use crate::result::Row;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use crate::{Backend, MemBackend};

    fn shuffled_db(rows: usize, seed: u64) -> Database {
        // Shuffled values so block samples are unbiased.
        let mut values: Vec<f64> = (0..rows).map(|i| (i % 500) as f64).collect();
        SimRng::seed(seed).shuffle(&mut values);
        let db = Database::new();
        db.register(
            TableBuilder::new("pts")
                .column("x", ColumnBuilder::float(values))
                .build()
                .unwrap(),
        );
        db
    }

    fn query() -> Query {
        Query::histogram(
            "pts",
            BinSpec::new("x", 0.0, 500.0, 10),
            Predicate::between("x", 50.0, 450.0),
        )
    }

    #[test]
    fn final_refinement_is_exact() {
        let db = shuffled_db(20_000, 1);
        let exact = MemBackend::over(db.clone())
            .execute(&query())
            .unwrap()
            .result;
        let refinements = ProgressiveExecutor::new(db).run(&query()).unwrap();
        let last = refinements.last().unwrap();
        assert_eq!(last.fraction, 1.0);
        assert_eq!(last.estimate, exact);
        assert_eq!(last.error_bound, 0.0);
        assert!(is_anytime_consistent(&refinements, &exact));
    }

    #[test]
    fn early_estimates_are_cheap_and_close() {
        let db = shuffled_db(50_000, 2);
        let exact = MemBackend::over(db.clone())
            .execute(&query())
            .unwrap()
            .result;
        let refinements = ProgressiveExecutor::new(db).run(&query()).unwrap();
        let first = &refinements[0];
        let last = refinements.last().unwrap();
        // The first estimate (one block) costs a small fraction of the
        // full run (the fixed startup keeps it from being strictly
        // proportional).
        assert!(first.elapsed.as_secs_f64() < last.elapsed.as_secs_f64() * 0.15);
        // And its relative error per bin is modest on shuffled data.
        let total = exact.histogram().unwrap().total() as f64;
        let rmse = refinement_error(&first.estimate, &exact).sqrt();
        assert!(
            rmse / (total / 11.0) < 0.35,
            "one-block sample rmse {rmse:.0} vs mean bin {:.0}",
            total / 11.0
        );
    }

    #[test]
    fn error_decreases_broadly_over_refinements() {
        let db = shuffled_db(50_000, 3);
        let exact = MemBackend::over(db.clone())
            .execute(&query())
            .unwrap()
            .result;
        let refinements = ProgressiveExecutor::new(db).run(&query()).unwrap();
        let errors: Vec<f64> = refinements
            .iter()
            .map(|r| refinement_error(&r.estimate, &exact))
            .collect();
        // Compare first to last quartile averages (sampling noise makes
        // strict monotonicity of the *empirical* error too strong).
        let q = errors.len() / 4;
        let head: f64 = errors[..q.max(1)].iter().sum::<f64>() / q.max(1) as f64;
        let tail: f64 = errors[errors.len() - q.max(1)..].iter().sum::<f64>() / q.max(1) as f64;
        assert!(tail < head, "errors {errors:?}");
        assert_eq!(*errors.last().unwrap(), 0.0);
        // The *reported* bound, by contrast, is strictly monotone.
        for w in refinements.windows(2) {
            assert!(w[0].error_bound >= w[1].error_bound);
        }
    }

    #[test]
    fn progressive_count_scales() {
        let db = shuffled_db(10_240, 4);
        let q = Query::count("pts", Predicate::between("x", 0.0, 249.0));
        let exact = MemBackend::over(db.clone()).execute(&q).unwrap().result;
        let refinements = ProgressiveExecutor::new(db).run(&q).unwrap();
        let last = refinements.last().unwrap();
        assert_eq!(last.estimate, exact);
        // Mid refinement is within 10% of the truth.
        let mid = &refinements[refinements.len() / 2];
        let est = mid.estimate.scalar_count().unwrap() as f64;
        let truth = exact.scalar_count().unwrap() as f64;
        assert!((est - truth).abs() / truth < 0.1, "est {est} truth {truth}");
    }

    #[test]
    fn unsupported_shapes_rejected() {
        let db = shuffled_db(100, 6);
        let exec = ProgressiveExecutor::new(db);
        let select = Query::select("pts", vec![], Predicate::True, Some(5), 0);
        assert!(exec.run(&select).is_err());
    }

    #[test]
    fn intervals_bracket_truth_and_tighten() {
        let db = shuffled_db(64 * ZONE_BLOCK_ROWS, 7);
        let exact = MemBackend::over(db.clone())
            .execute(&query())
            .unwrap()
            .result;
        let refinements = ProgressiveExecutor::new(db).run(&query()).unwrap();
        let coverage = interval_coverage(&refinements, &exact);
        assert!(coverage >= 0.95, "coverage {coverage}");
        // Interval widths shrink as blocks accumulate.
        let widths: Vec<f64> = refinements.iter().map(|r| r.intervals[0].width()).collect();
        for w in widths.windows(2) {
            assert!(w[0] >= w[1], "widths {widths:?}");
        }
        assert_eq!(*widths.last().unwrap(), 0.0);
    }

    #[test]
    fn seed_changes_estimates_not_final_answer() {
        let rows = 32 * ZONE_BLOCK_ROWS;
        let a = ProgressiveExecutor::new(shuffled_db(rows, 8))
            .with_seed(1)
            .run(&query())
            .unwrap();
        let b = ProgressiveExecutor::new(shuffled_db(rows, 8))
            .with_seed(2)
            .run(&query())
            .unwrap();
        assert_eq!(
            a.last().unwrap().estimate,
            b.last().unwrap().estimate,
            "final answer is seed-independent"
        );
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.estimate != y.estimate || x.fraction != y.fraction),
            "different permutations produce different intermediate estimates"
        );
    }

    #[test]
    fn bounded_run_fits_budget_and_reports_bound() {
        let db = shuffled_db(64 * ZONE_BLOCK_ROWS, 9);
        let q = query();
        let exact = MemBackend::over(db.clone()).execute(&q).unwrap();
        let exact_cost = SimDuration::from_millis(100);
        let budget = SimDuration::from_millis(50);
        let r = ProgressiveExecutor::new(db)
            .run_bounded(&q, exact_cost, budget)
            .unwrap();
        assert!(r.elapsed <= budget, "elapsed {:?}", r.elapsed);
        assert!(r.fraction > 0.0 && r.fraction < 1.0);
        assert!(r.error_bound > 0.0 && r.error_bound.is_finite());
        // The deterministic bound really does bound the per-bin error.
        let exact_hist = exact.result.histogram().unwrap();
        let est_hist = r.estimate.histogram().unwrap();
        for (e, t) in est_hist.counts().iter().zip(exact_hist.counts()) {
            assert!((*e as f64 - *t as f64).abs() <= r.error_bound);
        }
    }

    #[test]
    fn bounded_run_with_generous_budget_is_exact() {
        let db = shuffled_db(4 * ZONE_BLOCK_ROWS, 10);
        let q = query();
        let exact = MemBackend::over(db.clone()).execute(&q).unwrap().result;
        let cost = SimDuration::from_millis(10);
        let r = ProgressiveExecutor::new(db)
            .run_bounded(&q, cost, cost)
            .unwrap();
        assert_eq!(r.fraction, 1.0);
        assert_eq!(r.estimate, exact);
        assert_eq!(r.error_bound, 0.0);
    }

    #[test]
    fn empty_table_yields_single_exact_refinement() {
        let db = Database::new();
        db.register(
            TableBuilder::new("pts")
                .column("x", ColumnBuilder::float(Vec::<f64>::new()))
                .build()
                .unwrap(),
        );
        let exact = MemBackend::over(db.clone())
            .execute(&query())
            .unwrap()
            .result;
        let refinements = ProgressiveExecutor::new(db).run(&query()).unwrap();
        assert_eq!(refinements.len(), 1);
        assert!(is_anytime_consistent(&refinements, &exact));
    }

    #[test]
    fn all_nan_column_is_exact_at_full_coverage() {
        let db = Database::new();
        db.register(
            TableBuilder::new("pts")
                .column("x", ColumnBuilder::float((0..3000).map(|_| f64::NAN)))
                .build()
                .unwrap(),
        );
        let exact = MemBackend::over(db.clone())
            .execute(&query())
            .unwrap()
            .result;
        let refinements = ProgressiveExecutor::new(db).run(&query()).unwrap();
        assert!(is_anytime_consistent(&refinements, &exact));
        assert_eq!(interval_coverage(&refinements, &exact), 1.0);
    }

    #[test]
    fn block_boundary_straddler_is_exact() {
        // 1025 rows: one full block plus a single-row tail block.
        let db = shuffled_db(ZONE_BLOCK_ROWS + 1, 11);
        let exact = MemBackend::over(db.clone())
            .execute(&query())
            .unwrap()
            .result;
        let refinements = ProgressiveExecutor::new(db).run(&query()).unwrap();
        assert!(is_anytime_consistent(&refinements, &exact));
    }

    #[test]
    fn scale_result_truncates_rows_instead_of_scaling() {
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Int(i as i64)]).collect();
        // Scaling down truncates to the prefix a cut-off scan saw.
        let down = scale_result(ResultSet::Rows(rows.clone()), 0.4);
        assert_eq!(down.rows().unwrap().len(), 4);
        // Scaling up never invents rows.
        let up = scale_result(ResultSet::Rows(rows.clone()), 2.5);
        assert_eq!(up.rows().unwrap().len(), 10);
        // The degrade round trip therefore net-truncates.
        let degraded = degrade_result(ResultSet::Rows(rows), 0.4);
        assert_eq!(degraded.rows().unwrap().len(), 4);
    }
}
