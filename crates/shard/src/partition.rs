//! Deterministic horizontal partitioning of columnar tables.
//!
//! Three schemes, all pure functions of `(scheme, seed, cell value |
//! row index, shard count)` — never of thread count, table registration
//! order, or dictionary encoding:
//!
//! - [`PartitionScheme::HashRows`] — round-robin on the row index (a
//!   hash partition on a synthetic key, what the scalability
//!   experiment sweeps); exactly balanced, the default when no key
//!   column is natural.
//! - [`PartitionScheme::HashKey`] — SplitMix64 over the canonical
//!   `cell_key` of one column; co-locates equal keys, so per-key
//!   aggregates shard cleanly. String keys hash their *bytes* — the
//!   dictionary code is partition-local and never leaks into routing.
//! - [`PartitionScheme::Range`] — equal-width ranges over the column's
//!   finite min/max; preserves clustering, so per-shard zone maps stay
//!   tight on range predicates. NaN rows, `-inf` and degenerate domains
//!   route to shard 0, `+inf` to the last shard.
//!
//! Every scheme is **total** (each row lands on exactly one shard) and
//! the shards are **disjoint** — the property tests in
//! `tests/properties.rs` fuzz both, plus same-seed repartition
//! stability.

use std::sync::Arc;

use ids_engine::{Column, Database, EngineError, EngineResult, Table};
use ids_simclock::rng::{fnv1a, splitmix64};

/// How a table's rows are assigned to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Round-robin on row index: balanced, clustering-destroying.
    HashRows,
    /// Hash of the named column's canonical cell key: equal keys
    /// co-locate.
    HashKey(Arc<str>),
    /// Equal-width ranges of the named numeric column: clustering (and
    /// zone-map tightness) preserved.
    Range(Arc<str>),
}

impl PartitionScheme {
    /// Hash-key scheme over `column`.
    pub fn hash_key(column: impl Into<Arc<str>>) -> PartitionScheme {
        PartitionScheme::HashKey(column.into())
    }

    /// Range scheme over `column`.
    pub fn range(column: impl Into<Arc<str>>) -> PartitionScheme {
        PartitionScheme::Range(column.into())
    }

    /// Short label for reports and span args.
    pub fn describe(&self) -> String {
        match self {
            PartitionScheme::HashRows => "hash-rows".to_string(),
            PartitionScheme::HashKey(c) => format!("hash-key({c})"),
            PartitionScheme::Range(c) => format!("range({c})"),
        }
    }
}

/// Canonical 64-bit key of one cell, identical across partitions:
///
/// - `Int` → the value's two's-complement bits;
/// - `Float` → the IEEE bits with `-0.0` folded into `0.0` and every
///   NaN folded into the canonical quiet NaN (so equal-comparing floats
///   always co-locate);
/// - `Str` → FNV-1a of the string bytes (dictionary codes are
///   partition-local and must not leak into the key).
fn cell_key(col: &Column, row: usize) -> u64 {
    match col {
        Column::Int(v) => v[row] as u64,
        Column::Float(v) => {
            let x = v[row];
            if x.is_nan() {
                f64::NAN.to_bits()
            } else if x == 0.0 {
                0.0f64.to_bits()
            } else {
                x.to_bits()
            }
        }
        Column::Str { codes, dict } => fnv1a(dict[codes[row] as usize].bytes()),
    }
}

/// Per-shard row selections for one table: `out[s]` holds the source
/// row indices (ascending) that land on shard `s`. Total and disjoint
/// by construction.
pub fn shard_assignments(
    table: &Table,
    scheme: &PartitionScheme,
    seed: u64,
    shards: usize,
) -> EngineResult<Vec<Vec<usize>>> {
    let shards = shards.max(1);
    let mut selections: Vec<Vec<usize>> = vec![Vec::new(); shards];
    match scheme {
        PartitionScheme::HashRows => {
            for row in 0..table.rows() {
                selections[row % shards].push(row);
            }
        }
        PartitionScheme::HashKey(column) => {
            let col = table.column(column)?;
            for row in 0..table.rows() {
                // One more mixing round, so weak keys (sequential
                // integers, duplicate-heavy dimensions) still spread.
                let hash = splitmix64(seed ^ cell_key(col, row));
                selections[(hash % shards as u64) as usize].push(row);
            }
        }
        PartitionScheme::Range(column) => {
            let col = table.column(column)?;
            if matches!(col, Column::Str { .. }) {
                return Err(EngineError::TypeMismatch {
                    column: column.to_string(),
                    expected: "a numeric column for range partitioning",
                });
            }
            // Bounds over the finite values only: one ±inf would make
            // the width infinite or NaN and collapse every row onto
            // shard 0.
            let (min, max) = (0..table.rows())
                .filter_map(|row| col.f64_at(row))
                .filter(|x| x.is_finite())
                .fold(None, |bounds, x| match bounds {
                    None => Some((x, x)),
                    Some((lo, hi)) => Some((x.min(lo), x.max(hi))),
                })
                .unwrap_or((0.0, 0.0));
            let width = (max - min) / shards as f64;
            for row in 0..table.rows() {
                let shard = match col.f64_at(row) {
                    // NaN (the engine's null) and degenerate domains
                    // route to shard 0 — deterministic, never dropped.
                    // `as` saturates, so -inf lands on shard 0 and +inf
                    // on the last.
                    Some(x) if !x.is_nan() && width > 0.0 => {
                        (((x - min) / width) as usize).min(shards - 1)
                    }
                    _ => 0,
                };
                selections[shard].push(row);
            }
        }
    }
    Ok(selections)
}

/// Partitions one table into `shards` shard tables (same name and
/// schema; per-shard stats and lazy zone maps are rebuilt from the
/// shard's own rows, so range predicates prune per shard).
pub fn partition_table(
    table: &Table,
    scheme: &PartitionScheme,
    seed: u64,
    shards: usize,
) -> EngineResult<Vec<Table>> {
    Ok(shard_assignments(table, scheme, seed, shards)?
        .iter()
        .map(|rows| table.take(rows))
        .collect())
}

/// Partitions every table of `db` under one scheme, returning one
/// database per shard. Tables are processed in sorted-name order so
/// shard-local table ids are reproducible.
pub fn partition_database(
    db: &Database,
    scheme: &PartitionScheme,
    seed: u64,
    shards: usize,
) -> EngineResult<Vec<Database>> {
    let shards = shards.max(1);
    let out: Vec<Database> = (0..shards).map(|_| Database::new()).collect();
    let mut names = db.table_names();
    names.sort();
    for name in names {
        let table = db.table(&name)?;
        for (shard, part) in partition_table(&table, scheme, seed, shards)?
            .into_iter()
            .enumerate()
        {
            out[shard].register(part);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::{ColumnBuilder, TableBuilder};

    fn table(rows: usize) -> Table {
        TableBuilder::new("t")
            .column("k", ColumnBuilder::int((0..rows).map(|i| (i % 7) as i64)))
            .column("v", ColumnBuilder::float((0..rows).map(|i| i as f64)))
            .column(
                "s",
                ColumnBuilder::str((0..rows).map(|i| if i % 2 == 0 { "a" } else { "b" })),
            )
            .build()
            .unwrap()
    }

    fn assert_total_and_disjoint(selections: &[Vec<usize>], rows: usize) {
        let mut seen = vec![false; rows];
        for sel in selections {
            for &row in sel {
                assert!(!seen[row], "row {row} assigned twice");
                seen[row] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every row must land on a shard");
    }

    #[test]
    fn cell_keys_are_canonical() {
        let f = ColumnBuilder::float([0.0, -0.0, f64::NAN, 1.5]).build();
        assert_eq!(cell_key(&f, 0), cell_key(&f, 1), "-0.0 folds into 0.0");
        assert_eq!(cell_key(&f, 2), f64::NAN.to_bits());
        let s = ColumnBuilder::str(["a", "b", "a"]).build();
        assert_eq!(cell_key(&s, 0), cell_key(&s, 2));
        assert_ne!(cell_key(&s, 0), cell_key(&s, 1));
        // The string key survives re-encoding under a different dict.
        let s2 = ColumnBuilder::str(["b", "a"]).build();
        assert_eq!(cell_key(&s, 0), cell_key(&s2, 1));
    }

    #[test]
    fn all_schemes_are_total_and_disjoint() {
        let t = table(1_000);
        for scheme in [
            PartitionScheme::HashRows,
            PartitionScheme::hash_key("k"),
            PartitionScheme::hash_key("s"),
            PartitionScheme::range("v"),
        ] {
            for shards in [1usize, 4, 16] {
                let sel = shard_assignments(&t, &scheme, 42, shards).unwrap();
                assert_eq!(sel.len(), shards);
                assert_total_and_disjoint(&sel, 1_000);
            }
        }
    }

    #[test]
    fn hash_key_colocates_equal_keys() {
        let t = table(700);
        let sel = shard_assignments(&t, &PartitionScheme::hash_key("k"), 7, 4).unwrap();
        let col = t.column("k").unwrap();
        for (shard, rows) in sel.iter().enumerate() {
            for &row in rows {
                let key = col.as_int().unwrap()[row];
                // Every row with this key value must be on this shard.
                let home = sel
                    .iter()
                    .position(|s| s.iter().any(|&r| col.as_int().unwrap()[r] == key))
                    .unwrap();
                assert_eq!(home, shard, "key {key} split across shards");
            }
        }
    }

    #[test]
    fn range_preserves_clustering() {
        let t = table(1_024);
        let sel = shard_assignments(&t, &PartitionScheme::range("v"), 0, 4).unwrap();
        // v is the row index: shard s must hold a contiguous run.
        for rows in &sel {
            assert!(rows.windows(2).all(|w| w[1] == w[0] + 1));
        }
        assert_eq!(sel[0][0], 0);
        assert_eq!(*sel[3].last().unwrap(), 1_023);
    }

    #[test]
    fn range_routes_nan_to_shard_zero() {
        let t = TableBuilder::new("n")
            .column(
                "v",
                ColumnBuilder::float([f64::NAN, 5.0, f64::NAN, 9.0, 1.0]),
            )
            .build()
            .unwrap();
        let sel = shard_assignments(&t, &PartitionScheme::range("v"), 0, 2).unwrap();
        assert_total_and_disjoint(&sel, 5);
        assert!(sel[0].contains(&0) && sel[0].contains(&2), "NaN → shard 0");
    }

    #[test]
    fn range_bounds_ignore_infinities() {
        let t = TableBuilder::new("inf")
            .column(
                "v",
                ColumnBuilder::float(
                    (0..1_000)
                        .map(f64::from)
                        .chain([f64::INFINITY, f64::NEG_INFINITY]),
                ),
            )
            .build()
            .unwrap();
        let sel = shard_assignments(&t, &PartitionScheme::range("v"), 0, 4).unwrap();
        assert_total_and_disjoint(&sel, 1_002);
        let finite: Vec<usize> = sel
            .iter()
            .map(|rows| rows.iter().filter(|&&r| r < 1_000).count())
            .collect();
        assert_eq!(finite, [250, 250, 250, 250]);
        assert!(sel[0].contains(&1_001), "-inf → shard 0");
        assert!(sel[3].contains(&1_000), "+inf → the last shard");
    }

    #[test]
    fn range_on_strings_is_a_type_error() {
        let t = table(10);
        let err = shard_assignments(&t, &PartitionScheme::range("s"), 0, 2).unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }));
    }

    #[test]
    fn more_shards_than_rows_leaves_empty_shards() {
        let t = table(3);
        for scheme in [
            PartitionScheme::HashRows,
            PartitionScheme::hash_key("k"),
            PartitionScheme::range("v"),
        ] {
            let parts = partition_table(&t, &scheme, 1, 16).unwrap();
            assert_eq!(parts.len(), 16);
            assert_eq!(parts.iter().map(Table::rows).sum::<usize>(), 3);
            assert!(parts.iter().any(|p| p.rows() == 0));
            // Empty shard tables keep the schema.
            for p in &parts {
                assert_eq!(p.width(), 3);
            }
        }
    }

    #[test]
    fn same_seed_repartition_is_stable() {
        let t = table(500);
        let scheme = PartitionScheme::hash_key("v");
        let a = shard_assignments(&t, &scheme, 99, 8).unwrap();
        let b = shard_assignments(&t, &scheme, 99, 8).unwrap();
        assert_eq!(a, b);
        let c = shard_assignments(&t, &scheme, 100, 8).unwrap();
        assert_ne!(a, c, "a different seed reshuffles hash-key routing");
    }
}
