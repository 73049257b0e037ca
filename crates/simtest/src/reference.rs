//! The differential oracle's reference interpreter.
//!
//! A deliberately naive row-at-a-time evaluator for the scenario
//! grammar's scan/filter/histogram/join queries, computed straight off
//! plain `Vec`s — no columnar layout, no fast paths, no pagination
//! tricks. It shares *semantics* with `engine::exec` (same pagination
//! windows, same `ROUND` binning, same NaN comparison rules) but no
//! code, so a divergence between the two is a genuine engine bug rather
//! than a shared one.

use std::sync::Arc;

use ids_engine::{
    Backend, ColumnBuilder, EngineError, MemBackend, ResultSet, Table, TableBuilder, Value,
};
use ids_simclock::rng::SimRng;

use crate::scenario::{FilterSpec, QuerySpec, TableSpec, VOCAB};

/// The raw data behind the differential tables, kept as plain vectors
/// so the reference interpreter never touches engine storage.
#[derive(Debug, Clone)]
pub struct RawTables {
    /// Fact-table integer key (`i % key_mod`).
    pub k: Vec<i64>,
    /// Fact-table float measure; may contain NaN (the all-null stand-in).
    pub v: Vec<f64>,
    /// Fact-table category, cycling through [`VOCAB`].
    pub s: Vec<&'static str>,
    /// Dim-table join key, drawn from `[0, 2·key_mod)`.
    pub dk: Vec<i64>,
    /// Dim-table float payload.
    pub w: Vec<f64>,
}

/// Generates the raw differential data for `(seed, spec)`.
pub fn raw_tables(seed: u64, spec: &TableSpec) -> RawTables {
    let mut fact_rng = SimRng::seed(seed).split("simtest/table/fact");
    let mut dim_rng = SimRng::seed(seed).split("simtest/table/dim");
    let key_mod = spec.key_mod.max(1);
    let mut raw = RawTables {
        k: Vec::with_capacity(spec.rows),
        v: Vec::with_capacity(spec.rows),
        s: Vec::with_capacity(spec.rows),
        dk: Vec::with_capacity(spec.dim_rows),
        w: Vec::with_capacity(spec.dim_rows),
    };
    for i in 0..spec.rows {
        raw.k.push((i % key_mod) as i64);
        let x = fact_rng.uniform(0.0, 100.0);
        raw.v
            .push(if spec.nan_every > 0 && i % spec.nan_every == 0 {
                f64::NAN
            } else {
                x
            });
        raw.s.push(VOCAB[i % VOCAB.len()]);
    }
    for _ in 0..spec.dim_rows {
        raw.dk.push(dim_rng.uniform_usize(0, key_mod * 2) as i64);
        raw.w.push(dim_rng.uniform(0.0, 10.0));
    }
    raw
}

/// Materializes the engine-side `fact` and `dim` tables from the raw
/// data (identical values, columnar layout).
fn build_tables(raw: &RawTables) -> (Table, Table) {
    let mut k = ColumnBuilder::int([]);
    let mut v = ColumnBuilder::float([]);
    let mut s = ColumnBuilder::str(Vec::<&str>::new());
    for i in 0..raw.k.len() {
        k.push_int(raw.k[i]);
        v.push_float(raw.v[i]);
        s.push_str(raw.s[i]);
    }
    let fact = TableBuilder::new("fact")
        .column("k", k)
        .column("v", v)
        .column("s", s)
        .build()
        .expect("fact schema is static");
    let mut dk = ColumnBuilder::int([]);
    let mut w = ColumnBuilder::float([]);
    for i in 0..raw.dk.len() {
        dk.push_int(raw.dk[i]);
        w.push_float(raw.w[i]);
    }
    let dim = TableBuilder::new("dim")
        .column("dk", dk)
        .column("w", w)
        .build()
        .expect("dim schema is static");
    (fact, dim)
}

/// Row-at-a-time filter evaluation on the raw fact data, mirroring
/// `Predicate::matches` (NaN fails every ordered comparison and range).
fn eval_filter(f: &FilterSpec, k: i64, v: f64, s: &str) -> bool {
    match *f {
        FilterSpec::True => true,
        FilterSpec::VBetween { lo, hi } => v >= lo && v <= hi,
        FilterSpec::KCmp { op, value } => {
            let (a, b) = (k as f64, value as f64);
            match op.op() {
                ids_engine::CmpOp::Eq => a == b,
                ids_engine::CmpOp::Ne => a != b,
                ids_engine::CmpOp::Lt => a < b,
                ids_engine::CmpOp::Le => a <= b,
                ids_engine::CmpOp::Gt => a > b,
                ids_engine::CmpOp::Ge => a >= b,
            }
        }
        FilterSpec::SEq { word } => s == VOCAB[word % VOCAB.len()],
        FilterSpec::VkAnd { vlo, vhi, klo, khi } => {
            let kf = k as f64;
            v >= vlo && v <= vhi && kf >= klo && kf <= khi
        }
        FilterSpec::NotV { lo, hi } => !(v >= lo && v <= hi),
    }
}

fn fact_row(raw: &RawTables, i: usize) -> Vec<Value> {
    vec![
        Value::Int(raw.k[i]),
        Value::Float(raw.v[i]),
        Value::Str(Arc::from(raw.s[i])),
    ]
}

/// Applies the engine's pagination rule: `end = min(offset + limit, n)`
/// (or `n` without a limit), window `offset.min(end)..end`.
fn page(n: usize, limit: usize, offset: usize) -> std::ops::Range<usize> {
    let end = if limit == 0 {
        n
    } else {
        offset.saturating_add(limit).min(n)
    };
    offset.min(end)..end
}

/// Recomputes a differential query's exact answer row-at-a-time.
///
/// Returns `Err` exactly when the engine rejects the query (the only
/// reachable case in the grammar is a non-positive histogram bin
/// width), so error behavior is differential-tested too.
pub fn reference_execute(raw: &RawTables, spec: &QuerySpec) -> Result<ResultSet, String> {
    match *spec {
        QuerySpec::Count { filter } => {
            let n = (0..raw.k.len())
                .filter(|&i| eval_filter(&filter, raw.k[i], raw.v[i], raw.s[i]))
                .count();
            Ok(ResultSet::Count(n as u64))
        }
        QuerySpec::Select {
            filter,
            limit,
            offset,
        } => {
            let matching: Vec<usize> = (0..raw.k.len())
                .filter(|&i| eval_filter(&filter, raw.k[i], raw.v[i], raw.s[i]))
                .collect();
            let rows = matching[page(matching.len(), limit, offset)]
                .iter()
                .map(|&i| fact_row(raw, i))
                .collect();
            Ok(ResultSet::Rows(rows))
        }
        QuerySpec::Histogram {
            bins,
            lo,
            hi,
            filter,
        } => {
            let width = (hi - lo) / bins.max(1) as f64;
            if bins == 0 || width <= 0.0 || width.is_nan() {
                return Err("invalid bin spec".into());
            }
            let mut counts = vec![0u64; bins + 1];
            for i in 0..raw.k.len() {
                if !eval_filter(&filter, raw.k[i], raw.v[i], raw.s[i]) {
                    continue;
                }
                let x = raw.v[i];
                if x.is_nan() || x < lo || x > hi {
                    continue;
                }
                let bin = (((x - lo) / width).round() as usize).min(bins);
                counts[bin] += 1;
            }
            Ok(ResultSet::Histogram(ids_engine::Histogram::from_counts(
                counts,
            )))
        }
        QuerySpec::Join { limit, offset } => {
            let mut rows = Vec::new();
            for l in page(raw.k.len(), limit, offset) {
                for r in 0..raw.dk.len() {
                    if raw.dk[r] == raw.k[l] {
                        let mut row = fact_row(raw, l);
                        row.push(Value::Int(raw.dk[r]));
                        row.push(Value::Float(raw.w[r]));
                        rows.push(row);
                    }
                }
            }
            Ok(ResultSet::Rows(rows))
        }
    }
}

/// One scenario's differential tables and reference answers, built
/// once and read by every oracle that compares an engine path with the
/// reference interpreter. Those oracles share one backend, so whatever
/// state an earlier one leaves in its tables (the filter memo, value
/// orders) must not change a later one's answer.
pub(crate) struct Fixture<'q> {
    /// The engine-side `fact` table, as registered in `backend`.
    pub fact: Table,
    /// A `MemBackend` with `fact` and `dim` registered.
    pub backend: MemBackend,
    /// The differential queries.
    pub queries: &'q [QuerySpec],
    /// Each query's reference answer, in query order.
    pub reference: Vec<Result<ResultSet, String>>,
}

impl<'q> Fixture<'q> {
    /// Builds the tables for `(seed, table)` and answers every query with
    /// the reference interpreter.
    pub fn new(seed: u64, table: &TableSpec, queries: &'q [QuerySpec]) -> Fixture<'q> {
        let raw = raw_tables(seed, table);
        let (fact, dim) = build_tables(&raw);
        let backend = MemBackend::new();
        let db = backend.database();
        db.register(fact.clone());
        db.register(dim);
        let reference = queries.iter().map(|q| reference_execute(&raw, q)).collect();
        Fixture {
            fact,
            backend,
            queries,
            reference,
        }
    }

    /// The counts and histograms — the queries a progressive run or a
    /// scatter-gather merges — with their index and reference answer.
    pub fn mergeable(
        &self,
    ) -> impl Iterator<Item = (usize, &'q QuerySpec, &Result<ResultSet, String>)> {
        self.queries
            .iter()
            .zip(&self.reference)
            .enumerate()
            .filter(|(_, (spec, _))| {
                matches!(spec, QuerySpec::Count { .. } | QuerySpec::Histogram { .. })
            })
            .map(|(i, (spec, reference))| (i, spec, reference))
    }

    /// Runs every query through the engine and demands [`agree`]ment
    /// with the reference. Returns the first divergence, described.
    pub fn differential(&self) -> Result<(), String> {
        for (i, (spec, reference)) in self.queries.iter().zip(&self.reference).enumerate() {
            let engine = self.backend.execute(&spec.query()).map(|o| o.result);
            agree(reference, engine.as_ref().map(Some))
                .map_err(|e| format!("query {i} {spec:?}: engine {e}"))?;
        }
        Ok(())
    }
}

/// The one agreement rule between an engine path and the reference
/// interpreter: both answer and the answers are equal, or both reject
/// and the engine's rejection is [`EngineError::InvalidBinSpec`], the
/// only error the grammar reaches. `answer` is the path's final answer,
/// `None` when it accepted the query yet gave none.
pub(crate) fn agree(
    reference: &Result<ResultSet, String>,
    answer: Result<Option<&ResultSet>, &EngineError>,
) -> Result<(), String> {
    match (reference, answer) {
        (Ok(r), Ok(Some(a))) if a == r => Ok(()),
        (Ok(r), Ok(Some(a))) => Err(format!("answered {a:?} != reference {r:?}")),
        (Ok(_), Ok(None)) => Err("accepted but gave no answer".into()),
        (Err(_), Err(EngineError::InvalidBinSpec(_))) => Ok(()),
        (Err(_), Err(e)) => Err(format!("rejected with unexpected {e}")),
        (Ok(_), Err(e)) => Err(format!("rejected ({e}) but reference accepted")),
        (Err(r), Ok(_)) => Err(format!("accepted but reference rejected ({r})")),
    }
}

/// Runs every differential query of a scenario through both the engine
/// and the reference interpreter and demands they agree: equal answers,
/// or both reject with `InvalidBinSpec`. Returns the first divergence,
/// described.
pub fn differential_check(
    seed: u64,
    table: &TableSpec,
    queries: &[QuerySpec],
) -> Result<(), String> {
    Fixture::new(seed, table, queries).differential()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{derive_seed, CmpToken, Scenario};

    #[test]
    fn generated_scenarios_agree_with_the_engine() {
        for i in 0..60u64 {
            let s = Scenario::generate(derive_seed(23, i));
            differential_check(s.seed, &s.table, &s.queries)
                .unwrap_or_else(|e| panic!("scenario {i}: {e}"));
        }
    }

    #[test]
    fn empty_table_agrees() {
        let table = TableSpec {
            rows: 0,
            key_mod: 3,
            nan_every: 0,
            dim_rows: 0,
        };
        let queries = vec![
            QuerySpec::Count {
                filter: FilterSpec::True,
            },
            QuerySpec::Select {
                filter: FilterSpec::VBetween { lo: 0.0, hi: 50.0 },
                limit: 5,
                offset: 0,
            },
            QuerySpec::Histogram {
                bins: 4,
                lo: 0.0,
                hi: 100.0,
                filter: FilterSpec::True,
            },
            QuerySpec::Join {
                limit: 0,
                offset: 0,
            },
        ];
        differential_check(5, &table, &queries).unwrap();
    }

    #[test]
    fn all_nan_column_agrees_and_bins_nothing() {
        let table = TableSpec {
            rows: 40,
            key_mod: 4,
            nan_every: 1,
            dim_rows: 8,
        };
        let spec = QuerySpec::Histogram {
            bins: 8,
            lo: 0.0,
            hi: 100.0,
            filter: FilterSpec::True,
        };
        differential_check(9, &table, &[spec]).unwrap();
        let raw = raw_tables(9, &table);
        let hist = match reference_execute(&raw, &spec).unwrap() {
            ResultSet::Histogram(h) => h,
            other => panic!("expected histogram, got {other:?}"),
        };
        assert_eq!(hist.total(), 0, "an all-NaN column must bin zero rows");
    }

    #[test]
    fn duplicate_join_keys_cross_product() {
        let table = TableSpec {
            rows: 12,
            key_mod: 1, // every fact key is 0 → heavy duplication
            nan_every: 0,
            dim_rows: 10,
        };
        differential_check(
            13,
            &table,
            &[QuerySpec::Join {
                limit: 0,
                offset: 0,
            }],
        )
        .unwrap();
        let raw = raw_tables(13, &table);
        let rows = match reference_execute(
            &raw,
            &QuerySpec::Join {
                limit: 0,
                offset: 0,
            },
        )
        .unwrap()
        {
            ResultSet::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        };
        let zero_dk = raw.dk.iter().filter(|&&d| d == 0).count();
        assert_eq!(rows.len(), 12 * zero_dk, "cross product of duplicate keys");
    }

    #[test]
    fn kcmp_operators_agree() {
        let table = TableSpec {
            rows: 30,
            key_mod: 5,
            nan_every: 2,
            dim_rows: 0,
        };
        for op in [
            CmpToken::Eq,
            CmpToken::Ne,
            CmpToken::Lt,
            CmpToken::Le,
            CmpToken::Gt,
            CmpToken::Ge,
        ] {
            differential_check(
                17,
                &table,
                &[QuerySpec::Count {
                    filter: FilterSpec::KCmp { op, value: 2 },
                }],
            )
            .unwrap();
        }
    }
}
