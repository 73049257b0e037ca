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
//! queries, shard fragments and sessions, through
//! [`ordered_map`](crate::parallel::ordered_map).

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
/// (`Table::memo`) and a repeat gets that very answer back. The
/// counters are stored with the selection: no footprint, and no virtual
/// cost priced from one, can tell a remembered answer from an evaluated
/// one, and nothing records which it was. `TRUE` (already O(words) to
/// answer) and errors are never remembered.
pub fn filter_rows(
    table: &Table,
    filter: &Predicate,
) -> EngineResult<(Arc<SelectionVector>, QueryFootprint)> {
    let last = table.memo().filter.clone();
    if let Some((key, selected, footprint)) = last.as_deref() {
        if key.same_filter(filter) {
            return Ok((Arc::clone(selected), *footprint));
        }
    }
    // Evaluated with the lock released: two workers racing on one table
    // both miss, compute the same answer, and the later one's stays.
    let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
    let selected = Arc::new(kernels::select_vector_with(
        table, filter, &opts, &mut stats,
    )?);
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
