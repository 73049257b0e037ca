//! Byte-stable `EXPLAIN` text for one query: the shape of what runs.
//!
//! A [`Plan`] does not choose how a query runs: [`crate::exec`] is the
//! only executor and [`Plan::execute`] forwards the plan's logical
//! query to it, so planned and direct execution are the same
//! instructions. A plan estimates nothing. It holds the query and the
//! row counts its text prints; [`Plan::explain`] renders the operator,
//! the histogram's bins, the filter's conjuncts in source order and the
//! kernel `exec` runs, and [`Plan::explain_analyzed`] appends what ran:
//! rows matched and the zone verdicts, one per (conjunct, block).
//!
//! Plan text is deterministic: [`Plan::explain`] is byte-identical
//! across runs and reads none of a table's derived state (zone maps,
//! value orders, the memo, bucket codes), so a statement that builds
//! some cannot change it.
//!
//! A choice that makes execution differ from `exec`'s fixed strategy
//! must arrive with a benchmark workload on each side of it, read exact
//! counts the engine keeps (value-order spans, zone verdicts) rather
//! than a uniform-distribution guess, and turns
//! [`crate::exec::run_query`] into `plan().execute()`. Two earlier forks
//! (an unfused bin path for needle filters, a build-on-right join)
//! measured 0.98–1.00× and were removed; see `docs/SQL.md`.

use crate::backend::Database;
use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::exec;
use crate::predicate::Predicate;
use crate::query::{page_window, Query};
use crate::result::ResultSet;

/// Result of executing a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlannedExecution {
    /// The query answer.
    pub result: ResultSet,
    /// Work counters.
    pub footprint: QueryFootprint,
}

/// One logical query and the row counts its `EXPLAIN` prints.
#[derive(Debug, Clone)]
pub struct Plan {
    query: Query,
    /// The table's rows; for a join, the left page's.
    rows: usize,
    /// A join's right-table rows; 0 for every other shape.
    right_rows: usize,
}

/// Plans `query` against the catalog in `db`.
///
/// Fails with the same error [`crate::exec::run_query`] would raise for
/// an unknown table; all other validation errors surface at
/// [`Plan::execute`].
pub fn plan(db: &Database, query: &Query) -> EngineResult<Plan> {
    let (rows, right_rows) = match query {
        Query::Join(spec) => {
            let left = db.table(&spec.left)?;
            let right = db.table(&spec.right)?;
            let page = page_window(spec.limit, spec.offset, left.rows());
            (page.len(), right.rows())
        }
        other => (db.table(other.table())?.rows(), 0),
    };
    Ok(Plan {
        query: query.clone(),
        rows,
        right_rows,
    })
}

impl Plan {
    /// The logical query this plan executes.
    pub fn query(&self) -> &Query {
        &self.query
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

    /// Renders the plan as a stable text tree: the operator and its row
    /// counts, a histogram's bins, the filter's conjuncts in source
    /// order, and the kernel. Byte-identical across runs.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let rows = self.rows;
        match &self.query {
            Query::Count { table, filter } => {
                out.push_str(&format!("Count(table={table} rows={rows})\n"));
                explain_filter(&mut out, filter);
                out.push_str("  kernel: filter+count (selection popcount)\n");
            }
            Query::Histogram {
                table,
                bins,
                filter,
            } => {
                out.push_str(&format!("Histogram(table={table} rows={rows})\n"));
                out.push_str(&format!(
                    "  bins: {} over [{}, {}] n={}\n",
                    bins.column, bins.min, bins.max, bins.bins
                ));
                explain_filter(&mut out, filter);
                out.push_str("  kernel: fused filter+bin\n");
            }
            Query::Select(spec) => {
                out.push_str(&format!(
                    "Scan(table={} rows={rows} limit={} offset={})\n",
                    spec.table,
                    spec.limit
                        .map_or_else(|| "ALL".to_string(), |l| l.to_string()),
                    spec.offset
                ));
                explain_filter(&mut out, &spec.filter);
                if matches!(spec.filter, Predicate::True) {
                    out.push_str("  kernel: early-stop scan (TRUE filter ends at offset+limit)\n");
                } else {
                    out.push_str("  kernel: filtered scan (selection mask, page materialized)\n");
                }
            }
            Query::Join(spec) => {
                out.push_str(&format!(
                    "Join(left={} right={} on {} = {})\n",
                    spec.left, spec.right, spec.left_key, spec.right_key
                ));
                out.push_str(&format!(
                    "  page: left rows={rows} right rows={}\n",
                    self.right_rows
                ));
                out.push_str("  kernel: hash build + zone-pruned probe\n");
            }
        }
        out
    }

    /// [`Plan::explain`] plus what a finished run did: rows matched, and
    /// the zone verdicts, one per (conjunct, block) of each phase.
    pub fn explain_analyzed(&self, footprint: &QueryFootprint) -> String {
        let mut out = self.explain();
        out.push_str(&format!(
            "  actual: rows_matched={} zone verdicts: scanned={} pruned={}\n",
            footprint.rows_matched, footprint.blocks_scanned, footprint.blocks_pruned
        ));
        out
    }
}

fn explain_filter(out: &mut String, filter: &Predicate) {
    let conjuncts = match filter {
        Predicate::True => {
            out.push_str("  filter: TRUE (no conditions)\n");
            return;
        }
        Predicate::And(ps) => ps.as_slice(),
        other => std::slice::from_ref(other),
    };
    out.push_str(&format!("  filter: conjuncts={}\n", conjuncts.len()));
    for (i, conjunct) in conjuncts.iter().enumerate() {
        out.push_str(&format!("    [{}] {conjunct}\n", i + 1));
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
    fn unknown_table_fails_at_plan_time_with_the_executor_error() {
        let b = db(100);
        let database = b.database();
        let q = Query::count("missing", Predicate::True);
        assert_eq!(
            plan(&database, &q).unwrap_err(),
            exec::run_query(&database, &q).unwrap_err()
        );
    }

    /// The text is the plan's shape, and no derived state reaches it: a
    /// drag that builds the memo, value orders and bucket codes leaves
    /// `explain` and the analyzed text byte-identical.
    #[test]
    fn explain_is_deterministic_and_complete() {
        let b = db(5000);
        let database = b.database();
        let bins = BinSpec::new("x", 0.0, 5000.0, 20);
        let q = Query::histogram(
            "t",
            bins.clone(),
            Predicate::and([Predicate::ge("k", 0.0), Predicate::between("x", 0.0, 500.0)]),
        );
        let p = plan(&database, &q).unwrap();
        let text = p.explain();
        assert_eq!(text, plan(&database, &q).unwrap().explain());
        assert_eq!(
            text,
            "Histogram(table=t rows=5000)\n\
             \x20 bins: x over [0, 5000] n=20\n\
             \x20 filter: conjuncts=2\n\
             \x20   [1] k >= 0\n\
             \x20   [2] x BETWEEN 0 AND 500\n\
             \x20 kernel: fused filter+bin\n"
        );
        let analyzed = p.explain_analyzed(&p.execute(&database).unwrap().footprint);
        assert!(analyzed.starts_with(&text));
        assert!(
            analyzed.ends_with("  actual: rows_matched=501 zone verdicts: scanned=2 pruned=13\n"),
            "{analyzed}"
        );

        // A drag over the same bins: cold, moved twice, repeated. The
        // orders are forced built, as a long drag would build them; the
        // cold histogram selects every row, which builds the codes.
        let t = database.table("t").unwrap();
        for i in 0..t.width() {
            t.value_order_at(i, usize::MAX);
        }
        for hi in [4999.0, 3000.0, 2000.0, 2000.0] {
            let drag = Query::histogram("t", bins.clone(), Predicate::between("x", 0.0, hi));
            exec::run_query(&database, &drag).unwrap();
        }
        let x = t.column_index("x").unwrap();
        assert!(t.built_order_at(x).is_some());
        assert!(t.memo().filter.is_some());
        assert!(matches!(&t.memo().codes[x], Some((_, _, Some(_)))));

        let again = plan(&database, &q).unwrap();
        assert_eq!(again.explain(), text);
        let out = again.execute(&database).unwrap();
        assert_eq!(again.explain_analyzed(&out.footprint), analyzed);
    }
}
