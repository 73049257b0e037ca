//! Selectivity estimates and byte-stable `EXPLAIN` text for one query.
//!
//! A [`Plan`] does not choose how a query runs: [`crate::exec`] is the
//! only executor and [`Plan::execute`] forwards the plan's logical
//! query to it, so planned and direct execution are the same
//! instructions. What a plan adds is what [`crate::exec`] never
//! computes — estimates from the statistics the engine already keeps
//! ([`TableStats`] min/max/distinct, zone-block geometry):
//!
//! - **Conjunct ranking**: the conjuncts of an `AND` filter ranked
//!   most-selective-first with a selectivity estimate each. The ranking
//!   is informational: block counters are zone verdicts per (conjunct,
//!   block), so order cannot change a result or a footprint, and can
//!   change the time only on clustered data, which no workload has.
//! - **Estimated rows and blocks** surviving the filter, next to the
//!   actual counters in [`Plan::explain_analyzed`].
//!
//! Plan text is deterministic: [`Plan::explain`] is byte-identical
//! across runs.
//!
//! A [`PlanNode`] that makes execution differ from `exec`'s fixed
//! strategy must arrive with a benchmark workload on each side of its
//! choice, and turns [`crate::exec::run_query`] into
//! `plan().execute()`. Two earlier forks (an unfused bin path for
//! needle filters, a build-on-right join) measured 0.98–1.00× and were
//! removed; see `docs/SQL.md`.

use crate::backend::Database;
use crate::column::ZONE_BLOCK_ROWS;
use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::exec;
use crate::predicate::{CmpOp, Predicate};
use crate::query::{page_window, Query};
use crate::result::ResultSet;
use crate::stats::TableStats;

/// Selectivity estimates for a filter predicate.
#[derive(Debug, Clone)]
pub struct PlannedPredicate {
    /// `(source conjunct index, estimated selectivity)`, most selective
    /// first. Empty for a `TRUE` filter; one entry for a filter that is
    /// not an `AND`.
    pub conjuncts: Vec<(usize, f64)>,
    /// Estimated overall selectivity in `[0, 1]`.
    pub selectivity: f64,
    /// Whether the ranking differs from the source conjunct order.
    pub reordered: bool,
}

/// What the planner estimated for one query shape.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Fused filter+count: selection popcount.
    Count {
        /// Filter estimates.
        pred: PlannedPredicate,
    },
    /// Filtered, projected, paginated scan.
    Scan {
        /// Filter estimates.
        pred: PlannedPredicate,
        /// `TRUE` filter: the scan stops after `offset + limit` rows.
        early_stop: bool,
    },
    /// Filtered equi-width histogram.
    Histogram {
        /// Filter estimates.
        pred: PlannedPredicate,
        /// Estimated rows surviving the filter.
        est_rows: u64,
    },
    /// Paginated hash join, built over the left page.
    Join {
        /// Left-page rows (the `build_rows` footprint counter).
        page_rows: u64,
        /// Right-table rows (the `probe_rows` footprint counter).
        right_rows: u64,
    },
}

/// Result of executing a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlannedExecution {
    /// The query answer.
    pub result: ResultSet,
    /// Work counters.
    pub footprint: QueryFootprint,
}

/// Estimates and `EXPLAIN` text for one logical query.
#[derive(Debug, Clone)]
pub struct Plan {
    query: Query,
    node: PlanNode,
    table_rows: u64,
    est_blocks_total: u64,
    est_blocks_scanned: u64,
}

/// Plans `query` against the catalog and statistics in `db`.
///
/// Fails with the same error [`crate::exec::run_query`] would raise for
/// an unknown table; all other validation errors surface at
/// [`Plan::execute`].
pub fn plan(db: &Database, query: &Query) -> EngineResult<Plan> {
    let (rows, selectivity, node) = match query {
        Query::Count { table, filter } => {
            let t = db.table(table)?;
            let pred = plan_predicate(filter, t.stats());
            (t.rows(), pred.selectivity, PlanNode::Count { pred })
        }
        Query::Histogram { table, filter, .. } => {
            let t = db.table(table)?;
            let pred = plan_predicate(filter, t.stats());
            let est_rows = est_rows(t.rows() as u64, pred.selectivity);
            (
                t.rows(),
                pred.selectivity,
                PlanNode::Histogram { pred, est_rows },
            )
        }
        Query::Select(spec) => {
            let t = db.table(&spec.table)?;
            let pred = plan_predicate(&spec.filter, t.stats());
            let early_stop = matches!(spec.filter, Predicate::True);
            (
                t.rows(),
                pred.selectivity,
                PlanNode::Scan { pred, early_stop },
            )
        }
        Query::Join(spec) => {
            let left = db.table(&spec.left)?;
            let right = db.table(&spec.right)?;
            let node = PlanNode::Join {
                page_rows: page_window(spec.limit, spec.offset, left.rows()).len() as u64,
                right_rows: right.rows() as u64,
            };
            (right.rows(), 1.0, node)
        }
    };
    let total = rows.div_ceil(ZONE_BLOCK_ROWS) as u64;
    Ok(Plan {
        query: query.clone(),
        node,
        table_rows: rows as u64,
        est_blocks_total: total,
        est_blocks_scanned: (total as f64 * selectivity).ceil().min(total as f64) as u64,
    })
}

fn est_rows(rows: u64, selectivity: f64) -> u64 {
    (rows as f64 * selectivity).round() as u64
}

impl Plan {
    /// The logical query this plan executes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The planner's estimates.
    pub fn node(&self) -> &PlanNode {
        &self.node
    }

    /// Executes the plan's query through [`exec::run_query`].
    pub fn execute(&self, db: &Database) -> EngineResult<PlannedExecution> {
        let (result, footprint) = exec::run_query(db, &self.query)?;
        Ok(PlannedExecution { result, footprint })
    }

    /// [`Plan::execute`] under its old name; a query runs on one thread.
    /// Kept only because the frozen `benchmark/` crate calls it.
    #[doc(hidden)]
    pub fn execute_with_threads(
        &self,
        db: &Database,
        _threads: usize,
    ) -> EngineResult<PlannedExecution> {
        self.execute(db)
    }

    /// Renders the plan as a stable text tree: kernel, conjunct ranking
    /// with per-conjunct selectivity estimates, and estimated block
    /// counts. Byte-identical across runs.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        match (&self.query, &self.node) {
            (Query::Count { filter, .. }, PlanNode::Count { pred }) => {
                out.push_str(&format!(
                    "Count(table={} rows={})\n",
                    self.query.table(),
                    self.table_rows
                ));
                explain_predicate(&mut out, filter, pred, self.table_rows);
                out.push_str("  kernel: filter+count (selection popcount)\n");
            }
            (Query::Histogram { bins, filter, .. }, PlanNode::Histogram { pred, est_rows }) => {
                out.push_str(&format!(
                    "Histogram(table={} rows={})\n",
                    self.query.table(),
                    self.table_rows
                ));
                out.push_str(&format!(
                    "  bins: {} over [{}, {}] n={}\n",
                    bins.column, bins.min, bins.max, bins.bins
                ));
                explain_predicate(&mut out, filter, pred, self.table_rows);
                out.push_str(&format!(
                    "  kernel: fused filter+bin (est_rows={} {} block {})\n",
                    est_rows,
                    if *est_rows >= ZONE_BLOCK_ROWS as u64 {
                        ">="
                    } else {
                        "<"
                    },
                    ZONE_BLOCK_ROWS
                ));
            }
            (Query::Select(spec), PlanNode::Scan { pred, early_stop }) => {
                out.push_str(&format!(
                    "Scan(table={} rows={} limit={} offset={})\n",
                    spec.table,
                    self.table_rows,
                    spec.limit
                        .map_or_else(|| "ALL".to_string(), |l| l.to_string()),
                    spec.offset
                ));
                explain_predicate(&mut out, &spec.filter, pred, self.table_rows);
                if *early_stop {
                    out.push_str("  kernel: early-stop scan (TRUE filter ends at offset+limit)\n");
                } else {
                    out.push_str("  kernel: filtered scan (selection mask, page materialized)\n");
                }
            }
            (
                Query::Join(spec),
                PlanNode::Join {
                    page_rows,
                    right_rows,
                },
            ) => {
                out.push_str(&format!(
                    "Join(left={} right={} on {} = {})\n",
                    spec.left, spec.right, spec.left_key, spec.right_key
                ));
                out.push_str(&format!(
                    "  page: left rows={} right rows={}\n",
                    page_rows, right_rows
                ));
                out.push_str(&format!(
                    "  build side: left page (page {} {} right {})\n",
                    page_rows,
                    if page_rows <= right_rows { "<=" } else { ">" },
                    right_rows
                ));
                out.push_str("  kernel: hash build + zone-pruned probe\n");
            }
            // `plan` pairs each query shape with its own node and both
            // fields are private.
            _ => unreachable!("plan node does not match query shape"),
        }
        out.push_str(&format!(
            "  est blocks: total={} scan={} prune={}\n",
            self.est_blocks_total,
            self.est_blocks_scanned,
            self.est_blocks_total - self.est_blocks_scanned
        ));
        out
    }

    /// [`Plan::explain`] plus the actual counters from a finished run —
    /// the "estimated vs. actual" view.
    pub fn explain_analyzed(&self, footprint: &QueryFootprint) -> String {
        let mut out = self.explain();
        out.push_str(&format!(
            "  actual: rows_matched={} blocks_scanned={} blocks_pruned={}\n",
            footprint.rows_matched, footprint.blocks_scanned, footprint.blocks_pruned
        ));
        out
    }
}

fn explain_predicate(out: &mut String, filter: &Predicate, pred: &PlannedPredicate, rows: u64) {
    if pred.conjuncts.is_empty() {
        out.push_str("  filter: TRUE (no conditions)\n");
        return;
    }
    out.push_str(&format!(
        "  filter: est_sel={:.4} est_rows={} conjuncts={} reordered={}\n",
        pred.selectivity,
        est_rows(rows, pred.selectivity),
        pred.conjuncts.len(),
        if pred.reordered { "yes" } else { "no" }
    ));
    for (i, &(src, sel)) in pred.conjuncts.iter().enumerate() {
        let conjunct = match filter {
            Predicate::And(ps) => &ps[src],
            other => other,
        };
        out.push_str(&format!(
            "    [{}] est_sel={:.4}  {}\n",
            i + 1,
            sel,
            conjunct
        ));
    }
}

// ---------------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------------

/// Estimated fraction of rows `pred` keeps, from table statistics under
/// a uniform-distribution assumption. Always in `[0, 1]`; unknown
/// columns and shapes fall back to `1.0` (the conservative choice).
fn estimate_selectivity(pred: &Predicate, stats: &TableStats) -> f64 {
    match pred {
        Predicate::True => 1.0,
        Predicate::Between { column, lo, hi } => stats.range_selectivity(column, *lo, *hi),
        Predicate::Cmp { column, op, value } => {
            let eq_sel = stats.column(column).map_or(1.0, |c| {
                if c.distinct > 0 {
                    1.0 / c.distinct as f64
                } else {
                    1.0
                }
            });
            match (op, value.as_f64()) {
                (CmpOp::Eq, _) => eq_sel,
                (CmpOp::Ne, _) => 1.0 - eq_sel,
                (CmpOp::Lt | CmpOp::Le, Some(v)) => {
                    stats.range_selectivity(column, f64::NEG_INFINITY, v)
                }
                (CmpOp::Gt | CmpOp::Ge, Some(v)) => {
                    stats.range_selectivity(column, v, f64::INFINITY)
                }
                _ => 1.0,
            }
        }
        Predicate::And(ps) => ps
            .iter()
            .map(|p| estimate_selectivity(p, stats))
            .product::<f64>()
            .clamp(0.0, 1.0),
        Predicate::Or(ps) => ps
            .iter()
            .map(|p| estimate_selectivity(p, stats))
            .sum::<f64>()
            .clamp(0.0, 1.0),
        Predicate::Not(p) => (1.0 - estimate_selectivity(p, stats)).clamp(0.0, 1.0),
    }
}

/// Ranks the conjuncts of an `AND` most-selective-first. Stable: ties
/// keep source order, so plans are deterministic.
fn plan_predicate(filter: &Predicate, stats: &TableStats) -> PlannedPredicate {
    let mut conjuncts: Vec<(usize, f64)> = match filter {
        Predicate::True => Vec::new(),
        Predicate::And(ps) => ps
            .iter()
            .enumerate()
            .map(|(i, p)| (i, estimate_selectivity(p, stats)))
            .collect(),
        other => vec![(0, estimate_selectivity(other, stats))],
    };
    // Source-order product, as `estimate_selectivity` computes an `AND`.
    let selectivity = conjuncts
        .iter()
        .map(|&(_, sel)| sel)
        .product::<f64>()
        .clamp(0.0, 1.0);
    conjuncts.sort_by(|a, b| a.1.total_cmp(&b.1));
    let reordered = conjuncts
        .iter()
        .enumerate()
        .any(|(pos, (src, _))| pos != *src);
    PlannedPredicate {
        conjuncts,
        selectivity,
        reordered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::query::BinSpec;
    use crate::table::TableBuilder;
    use crate::{Backend, MemBackend};

    fn db(rows: usize) -> MemBackend {
        let b = MemBackend::new();
        b.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .column("k", ColumnBuilder::int((0..rows).map(|i| i as i64 % 7)))
                .build()
                .unwrap(),
        );
        b
    }

    #[test]
    fn ranking_puts_selective_conjunct_first() {
        let b = db(4000);
        let database = b.database();
        // x BETWEEN selects ~2.5%, k >= 0 selects everything.
        let q = Query::count(
            "t",
            Predicate::and([Predicate::ge("k", 0.0), Predicate::between("x", 0.0, 100.0)]),
        );
        let p = plan(&database, &q).unwrap();
        let PlanNode::Count { pred } = p.node() else {
            panic!("count plan");
        };
        assert!(pred.reordered);
        assert_eq!(pred.conjuncts[0].0, 1, "the BETWEEN is source conjunct 1");
        assert!(pred.conjuncts[0].1 < pred.conjuncts[1].1);
        let text = p.explain();
        assert!(text.contains("reordered=yes"), "{text}");
        assert!(text.contains("[1] est_sel=0.0250  x BETWEEN"), "{text}");
    }

    #[test]
    fn unknown_table_fails_at_plan_time_with_the_executor_error() {
        let b = db(100);
        let database = b.database();
        let q = Query::count("missing", Predicate::True);
        assert_eq!(
            plan(&database, &q).unwrap_err(),
            exec::run_query(&database, &q).unwrap_err()
        );
    }

    #[test]
    fn explain_is_deterministic_and_complete() {
        let b = db(5000);
        let database = b.database();
        let q = Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 5000.0, 20),
            Predicate::and([Predicate::ge("k", 0.0), Predicate::between("x", 0.0, 500.0)]),
        );
        let p = plan(&database, &q).unwrap();
        let text = p.explain();
        assert_eq!(text, plan(&database, &q).unwrap().explain());
        assert!(text.contains("Histogram(table=t rows=5000)"), "{text}");
        assert!(text.contains("reordered=yes"), "{text}");
        assert!(text.contains("(est_rows=500 < block 1024)"), "{text}");
        assert!(text.contains("est blocks:"), "{text}");
        let out = p.execute(&database).unwrap();
        let analyzed = p.explain_analyzed(&out.footprint);
        assert!(analyzed.starts_with(&text));
        assert!(analyzed.contains("actual: rows_matched="), "{analyzed}");
    }
}
