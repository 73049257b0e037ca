//! Physical execution of logical queries over in-memory tables.
//!
//! Execution is backend-agnostic: each operator returns the
//! [`ResultSet`] *and* a [`QueryFootprint`]
//! recording how much work was done (tuples scanned, matched, grouped,
//! joined, rows emitted). Backends convert the footprint into virtual
//! time with their [`CostModel`](crate::cost::CostModel).
//!
//! This module is the only place a query is executed: every backend,
//! the shard layer, and [`Plan::execute`](crate::planner::Plan::execute)
//! dispatch to the same four operator bodies. [`run_query`] builds no
//! [`Plan`](crate::planner::Plan) — a plan today only estimates and
//! explains; the first access path that changes execution turns
//! `run_query` into `plan().execute()`.
//!
//! A query runs on the thread that calls it. Parallelism is between
//! queries and sessions, through
//! [`ordered_map`](crate::parallel::ordered_map), and between shard
//! fragments, on the scatter-gather executor's helper threads
//! (`ids-shard`).

mod aggregate;
mod join;
mod scan;

pub use aggregate::{run_count, run_histogram};
pub use join::run_join;
pub use scan::run_select;

use std::sync::Arc;

use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::kernels::{self, KernelOptions, KernelStats, SelectionVector};
use crate::predicate::Predicate;
use crate::query::Query;
use crate::result::ResultSet;
use crate::table::Table;
use crate::Database;

/// The filter phase of every operator: validates `filter` and returns
/// the rows it selects with the footprint fields the filter alone
/// determines (`rows_scanned`, `rows_matched`, `predicate_evals`, its
/// share of `blocks_pruned` / `blocks_scanned`).
///
/// A crossfilter event re-queries every other histogram under one
/// `WHERE` clause, so the table remembers the last filter it answered
/// (`Table::memo`) and a repeat gets that very answer back. A drag
/// re-issues that filter with one range moved
/// (`Predicate::moved_range`), and the walk starts from the
/// remembered selection, reading only the moved column where that reads
/// less. The counters are stored with the selection and both walks
/// count every block verdict the cold walk counts: no footprint, and no
/// virtual cost priced from one, can tell a remembered or moved answer
/// from a cold one, and nothing records which it was. `TRUE` (already
/// O(words) to answer) and errors are never remembered.
pub fn filter_rows(
    table: &Table,
    filter: &Predicate,
) -> EngineResult<(Arc<SelectionVector>, QueryFootprint)> {
    let last = table.memo().filter.clone();
    let mut from = None;
    if let Some((key, selected, footprint)) = last.as_deref() {
        if key.same_filter(filter) {
            return Ok((Arc::clone(selected), *footprint));
        }
        from = key.moved_range(filter).map(|moved| (&**selected, moved));
    }
    // Evaluated with the lock released: two workers racing on one table
    // both miss, each moves (or skips) a consistent remembered pair to
    // the cold walk's answer, and the later one's stays.
    let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
    filter.validate(table)?;
    let selected = Arc::new(kernels::eval_pred(table, filter, from, &opts, &mut stats)?);
    let footprint = QueryFootprint {
        rows_scanned: table.rows() as u64,
        rows_matched: selected.count() as u64,
        predicate_evals: table.rows() as u64 * filter.condition_count() as u64,
        blocks_pruned: stats.blocks_pruned,
        blocks_scanned: stats.blocks_scanned,
        ..QueryFootprint::default()
    };
    if !matches!(filter, Predicate::True) {
        let entry = (filter.clone(), Arc::clone(&selected), footprint);
        table.memo().filter = Some(Arc::new(entry));
    }
    Ok((selected, footprint))
}

/// Executes a logical query against the tables registered in `db`.
pub fn run_query(db: &Database, query: &Query) -> EngineResult<(ResultSet, QueryFootprint)> {
    match query {
        Query::Select(spec) => {
            let table = db.table(&spec.table)?;
            run_select(&table, spec)
        }
        Query::Join(spec) => {
            let left = db.table(&spec.left)?;
            let right = db.table(&spec.right)?;
            run_join(&left, &right, spec)
        }
        Query::Histogram {
            table,
            bins,
            filter,
        } => {
            let table = db.table(table)?;
            run_histogram(&table, bins, filter)
        }
        Query::Count { table, filter } => {
            let table = db.table(table)?;
            run_count(&table, filter)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::table::TableBuilder;
    use ids_simclock::rng::{check, SimRng};

    fn pick<T: Copy>(rng: &mut SimRng, from: &[T]) -> T {
        from[rng.uniform_usize(0, from.len())]
    }

    /// Values on a coarse grid, so bounds land on rows and rows tie, NaN
    /// and -0.0 among them; sorted (zone maps decide blocks) or shuffled.
    fn floats(rng: &mut SimRng, rows: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..rows)
            .map(|_| match rng.uniform_usize(0, 16) {
                0 => f64::NAN,
                1 => -0.0,
                _ => rng.uniform_usize(0, 41) as f64 - 20.0,
            })
            .collect();
        if rng.chance(0.5) {
            v.sort_by(f64::total_cmp);
        }
        v
    }

    /// A bound: on the grid, between grid points, infinite, a signed
    /// zero, or (rarely) NaN, which must send the walk cold.
    fn bound(rng: &mut SimRng) -> f64 {
        match rng.uniform_usize(0, 24) {
            0 => f64::NAN,
            1 => pick(rng, &[f64::INFINITY, f64::NEG_INFINITY]),
            2 => pick(rng, &[0.0, -0.0]),
            3..=6 => rng.uniform_usize(0, 45) as f64 - 22.5,
            _ => rng.uniform_usize(0, 45) as f64 - 22.0,
        }
    }

    #[test]
    fn a_moved_filter_answers_exactly_like_a_cold_walk() {
        check("exec/moved-walk", 0..300, |rng| {
            let rows = pick(rng, &[1, 63, 64, 65, 1023, 1024, 1025, 3000]);
            let (x, y) = (floats(rng, rows), floats(rng, rows));
            let mut n: Vec<i64> = (0..rows)
                .map(|_| rng.uniform_usize(0, 41) as i64 - 20)
                .collect();
            if rng.chance(0.5) {
                n.sort_unstable();
            }
            let s = (0..rows).map(|i| ["a", "b", "c"][(i * 7 + rows) % 3]);
            let table = TableBuilder::new("t")
                .column("x", ColumnBuilder::float(x))
                .column("y", ColumnBuilder::float(y))
                .column("n", ColumnBuilder::int(n))
                .column("s", ColumnBuilder::str(s))
                .build()
                .expect("static schema");
            // Ranges on two `Float` columns and an `Int` one (and, rarely,
            // on a string column, which never moves), plus other leaves.
            let mut conjuncts: Vec<Predicate> = ["x", "n", "y"]
                .into_iter()
                .chain(rng.chance(0.1).then_some("s"))
                .map(|c| Predicate::between(c, bound(rng), bound(rng)))
                .collect();
            if rng.chance(0.5) {
                conjuncts.push(Predicate::eq("s", "b"));
            }
            if rng.chance(0.5) {
                conjuncts.push(Predicate::ge("y", bound(rng)));
            }
            rng.shuffle(&mut conjuncts);
            for step in 0..16 {
                // Move one range: a bound, both, inverted, or a nudge;
                // now and then two at once, which the walk answers cold.
                for _ in 0..1 + usize::from(step > 0 && rng.chance(0.1)) {
                    let at = rng.uniform_usize(0, conjuncts.len());
                    if let Predicate::Between { lo, hi, .. } = &mut conjuncts[at] {
                        match rng.uniform_usize(0, 5) {
                            0 => *lo = bound(rng),
                            1 => *hi = bound(rng),
                            2 => (*lo, *hi) = (bound(rng), bound(rng)),
                            3 => (*lo, *hi) = (*hi, *lo),
                            _ => *hi += pick(rng, &[-1.0, 1.0]),
                        }
                    }
                }
                let filter = Predicate::And(conjuncts.clone());
                let (got, fp) = filter_rows(&table, &filter).expect("valid");
                let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
                let cold = kernels::select_vector_with(&table, &filter, &opts, &mut stats);
                let cold = cold.expect("valid");
                assert_eq!(*got, cold, "{rows} rows, step {step}: {filter}");
                assert_eq!(
                    (fp.rows_matched, fp.blocks_pruned, fp.blocks_scanned),
                    (
                        cold.count() as u64,
                        stats.blocks_pruned,
                        stats.blocks_scanned
                    ),
                    "{rows} rows, step {step}: {filter}"
                );
            }
        });
    }
}
