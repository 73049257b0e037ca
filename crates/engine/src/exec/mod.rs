//! Physical execution of logical queries over in-memory tables.
//!
//! Execution is backend-agnostic: each operator returns the
//! [`ResultSet`](crate::ResultSet) *and* a [`QueryFootprint`](crate::cost::QueryFootprint)
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

mod aggregate;
mod join;
mod scan;

pub use aggregate::{run_count, run_histogram, PAR_CHUNK_ROWS};
pub use join::run_join;
pub use scan::run_select;

use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::query::Query;
use crate::result::ResultSet;
use crate::Database;

/// Executes a logical query against the tables registered in `db`,
/// single-threaded.
pub fn run_query(db: &Database, query: &Query) -> EngineResult<(ResultSet, QueryFootprint)> {
    run_query_with_threads(db, query, 1)
}

/// [`run_query`] with up to `threads` workers for the histogram bin
/// phase of tables larger than [`PAR_CHUNK_ROWS`]. Results and
/// footprints are identical at every thread count.
pub fn run_query_with_threads(
    db: &Database,
    query: &Query,
    threads: usize,
) -> EngineResult<(ResultSet, QueryFootprint)> {
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
            run_histogram(&table, bins, filter, threads)
        }
        Query::Count { table, filter } => {
            let table = db.table(table)?;
            run_count(&table, filter)
        }
    }
}
