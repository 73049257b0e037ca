//! Scenario grammar: everything a simulation run depends on, generated
//! from a single seed and round-trippable through a small hand-rolled
//! TOML dialect (the workspace deliberately carries no TOML crate).
//!
//! A [`Scenario`] fixes the whole (workload × device × fault plan ×
//! admission policy × thread count) point in one value: the fleet shape
//! served by `ids-serve`, the single-session replay trace, the fault
//! plan intensity, the resilience/admission policies, and the small
//! differential tables the reference interpreter checks `engine::exec`
//! against. Because every downstream stage is a pure function of the
//! scenario on the virtual clock, a scenario file *is* a repro.

use ids_devices::DeviceKind;
use ids_engine::{BinSpec, CmpOp, JoinSpec, Predicate, Query, Value};
use ids_simclock::rng::{splitmix64, SimRng};

/// String vocabulary for the differential fact table's `s` column.
pub const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Session arrival process, mirroring `ids_serve::ArrivalProcess` in
/// plain serializable fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Exponential inter-arrival gaps with the given mean.
    Poisson {
        /// Mean gap, milliseconds.
        gap_ms: u64,
    },
    /// Rush-hour bursts.
    Bursts {
        /// Number of bursts.
        count: usize,
        /// Start-to-start burst spacing, milliseconds.
        spacing_ms: u64,
        /// Jitter window within a burst, milliseconds.
        width_ms: u64,
    },
}

/// Which workload family drives the single-session replay stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionShape {
    /// Crossfilter slider drags compiled to histogram query groups.
    Crossfilter,
    /// Infinite-scroll feed compiled to paginated selects.
    Scrolling,
    /// Composite search-and-browse compiled to viewport counts.
    Composite,
    /// Closed-loop adaptive session: the behavior model reacts to each
    /// answer (zoom / drill / backtrack / abandon).
    Adaptive,
    /// Interface mined from a crossfilter trace and re-synthesized as a
    /// novel composite (slider + brush + dropdown) session.
    Mined,
}

impl SessionShape {
    /// Stable TOML token.
    pub fn token(self) -> &'static str {
        match self {
            SessionShape::Crossfilter => "crossfilter",
            SessionShape::Scrolling => "scrolling",
            SessionShape::Composite => "composite",
            SessionShape::Adaptive => "adaptive",
            SessionShape::Mined => "mined",
        }
    }
}

/// Shape of the small differential tables (`fact` and `dim`).
///
/// `fact` has columns `k: Int = i % key_mod`, `v: Float` (uniform in
/// `[0, 100)`, every `nan_every`-th row replaced by NaN when nonzero),
/// and `s: Str` cycling through [`VOCAB`]. `dim` has `dk: Int` drawn
/// from `[0, 2·key_mod)` — guaranteeing join hits, misses, and
/// duplicate keys — and `w: Float`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Rows in the fact table (zero is legal: empty-table edge case).
    pub rows: usize,
    /// Modulus for the integer key column (≥ 1).
    pub key_mod: usize,
    /// Every n-th `v` value is NaN; 0 disables, 1 makes the column
    /// all-NaN (the engine's stand-in for an all-null column).
    pub nan_every: usize,
    /// Rows in the dim table (zero is legal).
    pub dim_rows: usize,
}

/// Comparison operator token for [`FilterSpec::KCmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpToken {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpToken {
    const ALL: [CmpToken; 6] = [
        CmpToken::Eq,
        CmpToken::Ne,
        CmpToken::Lt,
        CmpToken::Le,
        CmpToken::Gt,
        CmpToken::Ge,
    ];

    /// Stable TOML token.
    pub fn token(self) -> &'static str {
        match self {
            CmpToken::Eq => "eq",
            CmpToken::Ne => "ne",
            CmpToken::Lt => "lt",
            CmpToken::Le => "le",
            CmpToken::Gt => "gt",
            CmpToken::Ge => "ge",
        }
    }

    /// The engine operator this token denotes.
    pub fn op(self) -> CmpOp {
        match self {
            CmpToken::Eq => CmpOp::Eq,
            CmpToken::Ne => CmpOp::Ne,
            CmpToken::Lt => CmpOp::Lt,
            CmpToken::Le => CmpOp::Le,
            CmpToken::Gt => CmpOp::Gt,
            CmpToken::Ge => CmpOp::Ge,
        }
    }
}

/// Filter over the differential fact table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterSpec {
    /// No filter.
    True,
    /// `v BETWEEN lo AND hi`.
    VBetween {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// `k <op> value` on the integer key column.
    KCmp {
        /// Operator.
        op: CmpToken,
        /// Right-hand side.
        value: i64,
    },
    /// `s = VOCAB[word]` on the string column.
    SEq {
        /// Index into [`VOCAB`].
        word: usize,
    },
    /// `v BETWEEN vlo AND vhi AND k BETWEEN klo AND khi`.
    VkAnd {
        /// `v` lower bound.
        vlo: f64,
        /// `v` upper bound.
        vhi: f64,
        /// `k` lower bound.
        klo: f64,
        /// `k` upper bound.
        khi: f64,
    },
    /// `NOT (v BETWEEN lo AND hi)`.
    NotV {
        /// Negated range lower bound.
        lo: f64,
        /// Negated range upper bound.
        hi: f64,
    },
}

impl FilterSpec {
    /// Compiles to the engine predicate the differential oracle feeds
    /// `engine::exec`.
    pub fn predicate(&self) -> Predicate {
        match *self {
            FilterSpec::True => Predicate::True,
            FilterSpec::VBetween { lo, hi } => Predicate::between("v", lo, hi),
            FilterSpec::KCmp { op, value } => Predicate::Cmp {
                column: "k".into(),
                op: op.op(),
                value: Value::Int(value),
            },
            FilterSpec::SEq { word } => Predicate::Cmp {
                column: "s".into(),
                op: CmpOp::Eq,
                value: Value::Str(VOCAB[word % VOCAB.len()].into()),
            },
            FilterSpec::VkAnd { vlo, vhi, klo, khi } => Predicate::and([
                Predicate::between("v", vlo, vhi),
                Predicate::between("k", klo, khi),
            ]),
            FilterSpec::NotV { lo, hi } => {
                Predicate::Not(Box::new(Predicate::between("v", lo, hi)))
            }
        }
    }
}

/// One differential query against the fact (and possibly dim) table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySpec {
    /// `SELECT COUNT(*) FROM fact WHERE filter`.
    Count {
        /// Row filter.
        filter: FilterSpec,
    },
    /// Paginated scan: `SELECT * FROM fact WHERE filter LIMIT .. OFFSET ..`.
    Select {
        /// Row filter.
        filter: FilterSpec,
        /// Page size; 0 means unlimited.
        limit: usize,
        /// Page start within the filtered rows.
        offset: usize,
    },
    /// `SELECT bin, COUNT(*) ... GROUP BY ROUND((v - lo)/width)`.
    Histogram {
        /// Bucket count (≥ 1).
        bins: usize,
        /// Domain lower bound.
        lo: f64,
        /// Domain upper bound.
        hi: f64,
        /// Row filter.
        filter: FilterSpec,
    },
    /// `fact JOIN dim ON fact.k = dim.dk`, paginated over left rows.
    Join {
        /// Page size over matching left rows; 0 means unlimited.
        limit: usize,
        /// Page start over left rows.
        offset: usize,
    },
}

impl QuerySpec {
    /// Compiles to the engine query the differential oracle executes.
    pub fn query(&self) -> Query {
        match *self {
            QuerySpec::Count { filter } => Query::count("fact", filter.predicate()),
            QuerySpec::Select {
                filter,
                limit,
                offset,
            } => Query::select(
                "fact",
                vec![],
                filter.predicate(),
                if limit == 0 { None } else { Some(limit) },
                offset,
            ),
            QuerySpec::Histogram {
                bins,
                lo,
                hi,
                filter,
            } => Query::histogram("fact", BinSpec::new("v", lo, hi, bins), filter.predicate()),
            QuerySpec::Join { limit, offset } => Query::Join(JoinSpec {
                left: "fact".into(),
                right: "dim".into(),
                left_key: "k".into(),
                right_key: "dk".into(),
                projection: vec![],
                limit: if limit == 0 { None } else { Some(limit) },
                offset,
            }),
        }
    }
}

/// One fully-specified end-to-end simulation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Master seed: fleet synthesis, datasets, fault plans, and the
    /// single-session trace all derive from it.
    pub seed: u64,
    /// Concurrent sessions in the serving fleet.
    pub sessions: usize,
    /// Tenants the fleet is striped across (≥ 1).
    pub tenants: usize,
    /// Rows in each tenant's road-network table.
    pub rows: usize,
    /// Cap on slider-move groups kept per fleet session.
    pub max_groups: usize,
    /// Fraction of fleet queries offered on the prefetch lane.
    pub prefetch_rate: f64,
    /// Session arrival process.
    pub arrival: ArrivalShape,
    /// Fault-plan intensity in `[0, 1]`; zero serves calm.
    pub chaos_intensity: f64,
    /// Whether the storm also takes worker nodes down mid-run.
    pub node_loss: bool,
    /// Shared engine worker slots.
    pub workers: usize,
    /// Host threads used for fleet synthesis (output-invariant).
    pub threads: usize,
    /// Per-query latency budget, milliseconds.
    pub latency_budget_ms: u64,
    /// Sustained per-tenant admission rate, queries/second.
    pub tenant_rate: f64,
    /// Per-tenant burst allowance.
    pub tenant_burst: f64,
    /// Bounded-queue depth for the admission condition.
    pub queue_limit: usize,
    /// Shared buffer-pool size, pages.
    pub pool_pages: usize,
    /// Workload family for the single-session replay stage.
    pub shape: SessionShape,
    /// Input device driving the replay session's behavioral model.
    pub device: DeviceKind,
    /// Resilience budget for the replay stage, milliseconds; 0 replays
    /// rigidly (no degraded answers).
    pub resilience_budget_ms: u64,
    /// Closed-loop abandon threshold, milliseconds: a query group
    /// slower than this reads as a slow answer to the behavior model.
    pub abandon_ms: u64,
    /// Closed-loop session length, actions.
    pub adaptive_steps: usize,
    /// Differential table shape.
    pub table: TableSpec,
    /// Differential queries checked against the reference interpreter.
    pub queries: Vec<QuerySpec>,
}

/// splitmix64 — the standard seed spreader; used to derive per-scenario
/// seeds from a master seed without consuming the scenario's own RNG.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    splitmix64(master.wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9)))
}

fn gen_filter(r: &mut SimRng, key_mod: usize) -> FilterSpec {
    match r.uniform_usize(0, 6) {
        0 => FilterSpec::True,
        1 => {
            let lo = r.uniform(0.0, 80.0);
            FilterSpec::VBetween {
                lo,
                hi: lo + r.uniform(0.0, 40.0),
            }
        }
        2 => FilterSpec::KCmp {
            op: CmpToken::ALL[r.uniform_usize(0, CmpToken::ALL.len())],
            value: r.uniform_usize(0, key_mod * 2) as i64,
        },
        3 => FilterSpec::SEq {
            word: r.uniform_usize(0, VOCAB.len()),
        },
        4 => {
            let vlo = r.uniform(0.0, 70.0);
            let klo = r.uniform(0.0, key_mod as f64);
            FilterSpec::VkAnd {
                vlo,
                vhi: vlo + r.uniform(5.0, 50.0),
                klo,
                khi: klo + r.uniform(0.0, key_mod as f64),
            }
        }
        _ => {
            let lo = r.uniform(10.0, 60.0);
            FilterSpec::NotV {
                lo,
                hi: lo + r.uniform(0.0, 30.0),
            }
        }
    }
}

fn gen_query(r: &mut SimRng, table: &TableSpec) -> QuerySpec {
    match r.uniform_usize(0, 4) {
        0 => QuerySpec::Count {
            filter: gen_filter(r, table.key_mod),
        },
        1 => QuerySpec::Select {
            filter: gen_filter(r, table.key_mod),
            limit: r.uniform_usize(0, 24),
            offset: r.uniform_usize(0, table.rows + 4),
        },
        2 => {
            let lo = r.uniform(-10.0, 50.0);
            QuerySpec::Histogram {
                bins: r.uniform_usize(1, 24),
                lo,
                hi: lo + r.uniform(1.0, 80.0),
                filter: gen_filter(r, table.key_mod),
            }
        }
        _ => QuerySpec::Join {
            limit: r.uniform_usize(0, 24),
            offset: r.uniform_usize(0, table.rows + 4),
        },
    }
}

impl Scenario {
    /// Generates the scenario a seed denotes. Pure: the same seed always
    /// yields the same scenario, on any host and any thread count.
    pub fn generate(seed: u64) -> Scenario {
        let mut r = SimRng::seed(seed).split("simtest/scenario");
        let key_mod = r.uniform_usize(1, 9);
        let table = TableSpec {
            rows: r.uniform_usize(0, 65),
            key_mod,
            nan_every: [0, 0, 0, 1, 2, 3][r.uniform_usize(0, 6)],
            dim_rows: r.uniform_usize(0, 25),
        };
        let n_queries = r.uniform_usize(3, 9);
        let queries = (0..n_queries).map(|_| gen_query(&mut r, &table)).collect();
        let chaos_intensity = if r.chance(0.5) {
            r.uniform(0.2, 0.9)
        } else {
            0.0
        };
        Scenario {
            seed,
            sessions: r.uniform_usize(2, 9),
            tenants: r.uniform_usize(1, 4),
            rows: 200 + r.uniform_usize(0, 9) * 100,
            max_groups: r.uniform_usize(2, 7),
            prefetch_rate: r.uniform(0.0, 0.4),
            arrival: if r.chance(0.3) {
                ArrivalShape::Bursts {
                    count: 1 + r.uniform_usize(0, 3),
                    spacing_ms: 2_000 + r.uniform_usize(0, 4) as u64 * 1_000,
                    width_ms: 200 + r.uniform_usize(0, 8) as u64 * 100,
                }
            } else {
                ArrivalShape::Poisson {
                    gap_ms: 200 + r.uniform_usize(0, 9) as u64 * 100,
                }
            },
            chaos_intensity,
            node_loss: chaos_intensity > 0.0 && r.chance(0.5),
            workers: r.uniform_usize(1, 7),
            threads: [1, 2, 4, 8][r.uniform_usize(0, 4)],
            latency_budget_ms: 250 + r.uniform_usize(0, 8) as u64 * 250,
            tenant_rate: r.uniform(1.0, 8.0),
            tenant_burst: r.uniform(4.0, 40.0),
            queue_limit: r.uniform_usize(1, 17),
            pool_pages: 256 + r.uniform_usize(0, 4) * 128,
            shape: [
                SessionShape::Crossfilter,
                SessionShape::Scrolling,
                SessionShape::Composite,
                SessionShape::Adaptive,
                SessionShape::Mined,
            ][r.uniform_usize(0, 5)],
            device: DeviceKind::ALL[r.uniform_usize(0, DeviceKind::ALL.len())],
            resilience_budget_ms: if r.chance(0.5) {
                20 + r.uniform_usize(0, 10) as u64 * 20
            } else {
                0
            },
            abandon_ms: 100 + r.uniform_usize(0, 8) as u64 * 100,
            adaptive_steps: r.uniform_usize(6, 21),
            table,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
    }

    #[test]
    fn generation_covers_the_grammar() {
        let mut shapes = std::collections::BTreeSet::new();
        let mut stormy = 0;
        let mut empty_tables = 0;
        for seed in 0..200u64 {
            let s = Scenario::generate(derive_seed(7, seed));
            assert!(s.tenants >= 1 && s.workers >= 1 && s.table.key_mod >= 1);
            assert!(!s.queries.is_empty());
            shapes.insert(s.shape.token());
            if s.chaos_intensity > 0.0 {
                stormy += 1;
            }
            if s.table.rows == 0 {
                empty_tables += 1;
            }
        }
        assert_eq!(shapes.len(), 5, "all session shapes reachable");
        assert!(stormy > 20, "storms reachable");
        assert!(empty_tables > 0, "empty differential tables reachable");
    }

    #[test]
    fn derive_seed_spreads() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0));
    }
}
