//! Property tests over the sharding invariants: every partition scheme
//! is total and disjoint, same-seed repartitioning is stable, and
//! scatter-gather merges equal the single-table reference interpreter —
//! including on empty, all-NaN, and duplicate-key tables.

use ids_engine::exec::run_query;
use ids_engine::{BinSpec, ColumnBuilder, Database, Predicate, Query, Table, TableBuilder};
use ids_shard::{partition_database, shard_assignments, PartitionScheme, ScatterGather};
use ids_simclock::rng::{check, SimRng};

fn table(keys: &[i64], xs: &[f64]) -> Table {
    TableBuilder::new("t")
        .column("k", ColumnBuilder::int(keys.iter().copied()))
        .column("x", ColumnBuilder::float(xs.iter().copied()))
        .build()
        .expect("table")
}

fn database(keys: &[i64], xs: &[f64]) -> Database {
    let db = Database::new();
    db.register(table(keys, xs));
    db
}

fn schemes() -> Vec<PartitionScheme> {
    vec![
        PartitionScheme::HashRows,
        PartitionScheme::hash_key("k"),
        PartitionScheme::hash_key("x"),
        PartitionScheme::range("x"),
    ]
}

/// `len` keys in `-span..span`, with `len` drawn from `lens`.
fn keys(rng: &mut SimRng, span: i64, lens: std::ops::Range<usize>) -> Vec<i64> {
    (0..rng.uniform_usize(lens.start, lens.end))
        .map(|_| rng.uniform_u64(0, 2 * span as u64) as i64 - span)
        .collect()
}

/// Every scheme assigns each row to exactly one shard (total) and
/// no row to two shards (disjoint), for any shard count and seed.
#[test]
fn partitioning_is_total_and_disjoint() {
    check("partitioning_is_total_and_disjoint", 0..48, |rng| {
        let keys = keys(rng, 50, 0..400);
        let seed = rng.uniform_u64(0, 100_000);
        let shards = rng.uniform_usize(1, 20);
        let xs: Vec<f64> = keys.iter().map(|&k| k as f64 * 1.5).collect();
        let t = table(&keys, &xs);
        for scheme in schemes() {
            let sel = shard_assignments(&t, &scheme, seed, shards).expect("assign");
            assert_eq!(sel.len(), shards);
            let mut seen = vec![false; keys.len()];
            for shard in &sel {
                for &row in shard {
                    assert!(!seen[row], "row {} assigned twice", row);
                    seen[row] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "unassigned row under {:?}", scheme);
        }
    });
}

/// Repartitioning with the same seed reproduces the same assignment
/// bit for bit.
#[test]
fn same_seed_repartition_is_stable() {
    check("same_seed_repartition_is_stable", 0..48, |rng| {
        let keys = keys(rng, 50, 1..300);
        let seed = rng.uniform_u64(0, 100_000);
        let shards = rng.uniform_usize(1, 17);
        let xs: Vec<f64> = keys.iter().map(|&k| (k % 13) as f64).collect();
        let t = table(&keys, &xs);
        for scheme in schemes() {
            let a = shard_assignments(&t, &scheme, seed, shards).expect("assign");
            let b = shard_assignments(&t, &scheme, seed, shards).expect("assign");
            assert_eq!(a, b);
        }
    });
}

/// Scatter-gather over any scheme, shard count, and thread count
/// merges to exactly the single-table reference answer.
#[test]
fn scatter_gather_equals_reference() {
    check("scatter_gather_equals_reference", 0..48, |rng| {
        let keys = keys(rng, 20, 0..500);
        let seed = rng.uniform_u64(0, 100_000);
        let shards = rng.uniform_usize(1, 17);
        let threads = rng.uniform_usize(1, 5);
        let lo = rng.uniform(-30.0, 30.0);
        let width = rng.uniform(0.0, 40.0);
        let xs: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        let db = database(&keys, &xs);
        let queries = [
            Query::count("t", Predicate::between("x", lo, lo + width)),
            Query::histogram("t", BinSpec::new("x", -20.0, 20.0, 8), Predicate::True),
        ];
        for scheme in schemes() {
            let parts = partition_database(&db, &scheme, seed, shards).expect("partition");
            let sg = ScatterGather::over(parts).with_threads(threads);
            for q in &queries {
                let (expected, _) = run_query(&db, q).expect("reference");
                let out = sg.execute(q).expect("scatter-gather");
                assert_eq!(&out.result, &expected, "{:?} x{}", scheme, shards);
            }
        }
    });
}

/// Degenerate tables — empty, all-NaN, or a single duplicated key —
/// shard and merge exactly like the reference.
#[test]
fn degenerate_tables_match_reference() {
    check("degenerate_tables_match_reference", 0..48, |rng| {
        let rows = rng.uniform_usize(0, 200);
        let (keys, xs): (Vec<i64>, Vec<f64>) = match rng.uniform_usize(0, 3) {
            0 => (Vec::new(), Vec::new()),              // empty
            1 => (vec![7; rows], vec![f64::NAN; rows]), // all-NaN values
            _ => (vec![-3; rows], vec![1.25; rows]),    // one duplicated key
        };
        let seed = rng.uniform_u64(0, 100_000);
        let shards = rng.uniform_usize(1, 10);
        let db = database(&keys, &xs);
        let q = Query::histogram("t", BinSpec::new("x", 0.0, 10.0, 4), Predicate::True);
        let (expected, _) = run_query(&db, &q).expect("reference");
        for scheme in [PartitionScheme::HashRows, PartitionScheme::hash_key("k")] {
            let parts = partition_database(&db, &scheme, seed, shards).expect("partition");
            let out = ScatterGather::over(parts)
                .execute(&q)
                .expect("scatter-gather");
            assert_eq!(&out.result, &expected);
        }
    });
}
