//! `ids` — a toolkit for **evaluating interactive data systems**, a full
//! reproduction of *Evaluating Interactive Data Systems: Survey and Case
//! Studies* (Rahman, Jiang & Nandi; the journal version of the SIGMOD
//! 2018 tutorial *Workloads, Metrics, and Guidelines*).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`simclock`] — virtual time values and a deterministic RNG;
//! - [`engine`] — a columnar query engine with disk- and memory-regime
//!   backends and calibrated virtual-time cost models;
//! - [`devices`] — input-device models (sensing rates, jitter, inertial
//!   scroll physics, Fitts/KLM timing);
//! - [`workload`] — user-behavior simulation and the paper's trace
//!   schemas and datasets;
//! - [`metrics`] — the metric taxonomy, including the paper's novel
//!   Latency Constraint Violation and Query Issuing Frequency metrics;
//! - [`obs`] — observability: a virtual-time span recorder, hot-path
//!   metric counters, and Chrome/Perfetto trace export;
//! - [`lakehouse`] — the telemetry lakehouse: obs events folded into the
//!   engine's own columnar tables and queried with its vectorized
//!   kernels (p99 by tenant, LCV over time, slowest spans);
//! - [`study`] — user-study design: settings, counterbalancing, biases,
//!   validity, and the survey tables;
//! - [`opt`] — behavior-driven optimizations (loading strategies, skip,
//!   KL filtering, Markov prefetching);
//! - [`chaos`] — deterministic fault injection: seeded fault plans
//!   (latency spikes, stalls, transient failures, buffer pressure, node
//!   loss) applied on the virtual clock;
//! - [`serve`] — multi-tenant serving: seeded session fleets,
//!   token-bucket admission with priority lanes, and mergeable
//!   fleet-scale tail-latency aggregation;
//! - [`shard`] — sharded scatter-gather execution for million-session
//!   fleets: hash/range partitioning with per-shard zone maps and a
//!   deterministic merge of mergeable partials;
//! - [`simtest`] — deterministic simulation testing: seeded end-to-end
//!   scenarios, invariant and differential oracles, and automatic
//!   scenario shrinking into checked-in repro files;
//! - [`experiments`] — the case studies as deterministic experiments
//!   regenerating every table and figure.
//!
//! ```
//! use ids::metrics::selection::{recommend, SystemTraits};
//! use ids::metrics::Metric;
//!
//! // Table 3 in action: what should a crossfiltering system measure?
//! let metrics = recommend(&SystemTraits {
//!     bursty_queries: true,
//!     high_frame_rate_device: true,
//!     large_data: true,
//!     ..SystemTraits::default()
//! });
//! assert!(metrics.contains(&Metric::LatencyConstraintViolation));
//! assert!(metrics.contains(&Metric::QueryIssuingFrequency));
//! ```

#![warn(missing_docs)]

pub use ids_chaos as chaos;
pub use ids_core::experiments;
pub use ids_core::registry;
pub use ids_core::report;
pub use ids_devices as devices;
pub use ids_engine as engine;
pub use ids_lakehouse as lakehouse;
pub use ids_metrics as metrics;
pub use ids_obs as obs;
pub use ids_opt as opt;
pub use ids_serve as serve;
pub use ids_shard as shard;
pub use ids_simclock as simclock;
pub use ids_simtest as simtest;
pub use ids_study as study;
pub use ids_workload as workload;

/// The README's code blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
