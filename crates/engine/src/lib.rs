//! A from-scratch columnar query engine with *simulated* disk-based and
//! in-memory backends.
//!
//! The case studies in *Evaluating Interactive Data Systems* run their
//! interactive workloads against PostgreSQL (disk-based) and MemSQL
//! (in-memory). This crate plays both roles: one logical query layer, two
//! execution backends behind the [`Backend`] trait, each with a calibrated
//! [`CostModel`] that charges *virtual* time (per page read, per tuple
//! scanned, per group aggregated) as [`ids_simclock`] durations, so the
//! latency regimes of the paper reproduce deterministically.
//!
//! # Layers
//!
//! - **Storage** — [`Table`] of typed [`Column`]s (`i64`, `f64`,
//!   dictionary-encoded strings); the disk backend additionally pages rows
//!   through a [`BufferPool`] of resident [`PageId`]s.
//! - **Logical queries** — the [`Query`] AST covers the SQL shapes the
//!   paper's workloads issue: projected + filtered scans with
//!   `LIMIT`/`OFFSET` (inertial scrolling), an inner join over a paginated
//!   subquery (streaming-join variant), filtered `GROUP BY`-bin histograms
//!   (crossfiltering), and counts.
//! - **Execution** — [`execute`](Backend::execute) returns both the
//!   [`ResultSet`] and the *simulated* execution cost; the
//!   [`scheduler`] module turns a stream of issued queries into per-query
//!   queueing timelines (the substrate for latency-constraint-violation
//!   analysis). A query runs on the thread that calls it; [`parallel`]
//!   is the ordered fan-out other crates use to run many at once.
//!
//! # Example
//!
//! ```
//! use ids_engine::{
//!     Backend, ColumnBuilder, MemBackend, Predicate, Query, TableBuilder, Value,
//! };
//!
//! let table = TableBuilder::new("points")
//!     .column("x", ColumnBuilder::float((0..100).map(|i| i as f64 / 10.0)))
//!     .column("label", ColumnBuilder::int(0..100))
//!     .build()
//!     .unwrap();
//!
//! let backend = MemBackend::new();
//! let db = backend.database();
//! db.register(table);
//!
//! let q = Query::count("points", Predicate::between("x", 1.0, 2.0));
//! let outcome = backend.execute(&q).unwrap();
//! assert_eq!(outcome.result.scalar_count(), Some(11));
//! assert!(outcome.cost.as_micros() > 0, "virtual time must be charged");
//! ```

#![warn(missing_docs)]

mod backend;
mod buffer;
mod column;
mod cost;
pub mod distributed;
mod error;
pub mod exec;
pub mod kernels;
mod page;
pub mod parallel;
pub mod planner;
mod predicate;
pub mod progressive;
mod query;
mod result;
pub mod scheduler;
pub mod sql;
mod table;
mod value;

pub use backend::{
    Backend, Database, DiskBackend, MemBackend, QueryOutcome, ResultQuality, RetryingBackend,
};
pub use buffer::{BufferPool, BufferPoolStats, EvictionPolicy};
pub use column::{Column, ColumnBuilder, Zone, ZoneMap, ZONE_BLOCK_ROWS};
pub use cost::{CostModel, CostParams, LinearCostModel, QueryFootprint};
pub use error::{EngineError, EngineResult};
pub use kernels::{KernelOptions, KernelStats, SelectionVector};
pub use page::{PageId, Pager, PAGE_SIZE};
pub use planner::{plan, Plan, PlannedExecution};
pub use predicate::{CmpOp, Predicate};
pub use query::{BinSpec, JoinSpec, Projection, Query, SelectSpec};
pub use result::{Histogram, ResultSet, Row};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
