//! SQL-to-answer differential tests: generated `(table, SQL)` pairs
//! parsed, planned and executed, where the answer must match an
//! independent row-at-a-time reference interpreter and the plan text
//! must be replay-stable — including empty, all-NaN, and
//! 1023/1024/1025-row block-boundary tables.

use ids::engine::{plan, sql, ColumnBuilder, Database, ResultSet, TableBuilder};
use ids::simclock::rng::{check, SimRng};

const WORDS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Raw generated data (the reference interpreter reads this, never the
/// engine's columns).
#[derive(Debug, Clone)]
struct Raw {
    x: Vec<f64>,
    k: Vec<i64>,
    s: Vec<usize>,
}

fn register(db: &Database, raw: &Raw) {
    db.register(
        TableBuilder::new("t")
            .column("x", ColumnBuilder::float(raw.x.iter().copied()))
            .column("k", ColumnBuilder::int(raw.k.iter().copied()))
            .column("s", ColumnBuilder::str(raw.s.iter().map(|&w| WORDS[w])))
            .build()
            .expect("static schema"),
    );
}

/// One generated conjunct: its SQL spelling and its row-at-a-time
/// meaning over `(x, k, s)`.
#[derive(Debug, Clone)]
enum Conjunct {
    XCmp(usize, f64),
    XBetween(f64, f64),
    KCmp(usize, i64),
    SEq(usize),
}

const OPS: [&str; 6] = [">=", "<=", ">", "<", "=", "<>"];

impl Conjunct {
    fn sql(&self) -> String {
        match self {
            Conjunct::XCmp(op, v) => format!("x {} {}", OPS[*op], v),
            Conjunct::XBetween(lo, hi) => format!("x BETWEEN {lo} AND {hi}"),
            Conjunct::KCmp(op, v) => format!("k {} {}", OPS[*op], v),
            Conjunct::SEq(w) => format!("s = '{}'", WORDS[*w]),
        }
    }

    fn eval(&self, x: f64, k: i64, s: usize) -> bool {
        fn cmp(a: f64, op: usize, b: f64) -> bool {
            match op {
                0 => a >= b,
                1 => a <= b,
                2 => a > b,
                3 => a < b,
                4 => a == b,
                _ => a != b,
            }
        }
        match self {
            Conjunct::XCmp(op, v) => cmp(x, *op, *v),
            Conjunct::XBetween(lo, hi) => x >= *lo && x <= *hi,
            Conjunct::KCmp(op, v) => cmp(k as f64, *op, *v as f64),
            Conjunct::SEq(w) => s == *w,
        }
    }
}

fn where_clause(conjuncts: &[Conjunct]) -> String {
    if conjuncts.is_empty() {
        String::new()
    } else {
        format!(
            " WHERE {}",
            conjuncts
                .iter()
                .map(Conjunct::sql)
                .collect::<Vec<_>>()
                .join(" AND ")
        )
    }
}

fn matching(raw: &Raw, conjuncts: &[Conjunct]) -> Vec<usize> {
    (0..raw.x.len())
        .filter(|&i| {
            conjuncts
                .iter()
                .all(|c| c.eval(raw.x[i], raw.k[i], raw.s[i]))
        })
        .collect()
}

/// Reference histogram: ROUND binning with the top-bin clamp, NaN and
/// out-of-domain rows skipped — mirroring `BinSpec::bin_of`.
fn reference_histogram(raw: &Raw, keep: &[usize], lo: f64, hi: f64, bins: usize) -> Vec<u64> {
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0u64; bins + 1];
    for &i in keep {
        let x = raw.x[i];
        if x.is_nan() || x < lo || x > hi {
            continue;
        }
        counts[(((x - lo) / width).round() as usize).min(bins)] += 1;
    }
    counts
}

/// Parses, plans and executes one SQL statement and demands exact
/// agreement with a supplied reference result, plus plan
/// replay-stability.
fn assert_agrees(raw: &Raw, statement: &str, reference: ResultSet) {
    let db = Database::new();
    register(&db, raw);
    let rows = raw.x.len();
    let query =
        sql::parse(statement).unwrap_or_else(|e| panic!("`{statement}` failed to parse: {e}"));
    let p = plan(&db, &query).unwrap_or_else(|e| panic!("`{statement}` failed to plan: {e}"));
    let planned = p
        .execute(&db)
        .unwrap_or_else(|e| panic!("`{statement}` failed to execute over {rows} rows: {e}"));
    assert_eq!(
        planned.result, reference,
        "planned != reference over {rows} rows: {statement}"
    );
    assert_eq!(p.explain(), plan(&db, &query).unwrap().explain());
}

/// A random table of fewer than `max_rows` rows: `x` is NaN one time in
/// five, exercising NaN comparison semantics.
fn raw(rng: &mut SimRng, max_rows: usize) -> Raw {
    let rows = rng.uniform_usize(0, max_rows);
    Raw {
        x: (0..rows)
            .map(|_| {
                if rng.chance(0.2) {
                    f64::NAN
                } else {
                    rng.uniform(-100.0, 100.0)
                }
            })
            .collect(),
        k: (0..rows).map(|_| rng.uniform_u64(0, 12) as i64).collect(),
        s: (0..rows)
            .map(|_| rng.uniform_usize(0, WORDS.len()))
            .collect(),
    }
}

/// Up to three random conjuncts.
fn conjuncts(rng: &mut SimRng) -> Vec<Conjunct> {
    (0..rng.uniform_usize(0, 4))
        .map(|_| match rng.uniform_usize(0, 4) {
            0 => Conjunct::XCmp(rng.uniform_usize(0, OPS.len()), rng.uniform(-60.0, 60.0)),
            1 => Conjunct::XBetween(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)),
            2 => Conjunct::KCmp(
                rng.uniform_usize(0, OPS.len()),
                rng.uniform_u64(0, 16) as i64 - 2,
            ),
            _ => Conjunct::SEq(rng.uniform_usize(0, WORDS.len())),
        })
        .collect()
}

/// COUNT(*) with a generated WHERE: planned == row-at-a-time
/// reference.
#[test]
fn planned_count_matches_reference() {
    check("planned_count_matches_reference", 0..256, |rng| {
        let raw = raw(rng, 600);
        let conjuncts = conjuncts(rng);
        let statement = format!("SELECT COUNT(*) FROM t{}", where_clause(&conjuncts));
        let expected = ResultSet::Count(matching(&raw, &conjuncts).len() as u64);
        assert_agrees(&raw, &statement, expected);
    });
}

/// Paginated SELECT * with a generated WHERE: planned row ids equal
/// the reference's page of matching rows, in order.
#[test]
fn planned_select_matches_reference() {
    check("planned_select_matches_reference", 0..256, |rng| {
        let raw = raw(rng, 400);
        let conjuncts = conjuncts(rng);
        let limit = rng.uniform_usize(1, 50);
        let offset = rng.uniform_usize(0, 60);
        let statement = format!(
            "SELECT k FROM t{} LIMIT {limit} OFFSET {offset}",
            where_clause(&conjuncts)
        );
        let keep = matching(&raw, &conjuncts);
        let end = (offset + limit).min(keep.len());
        let rows = keep[offset.min(end)..end]
            .iter()
            .map(|&i| vec![ids::engine::Value::Int(raw.k[i])])
            .collect();
        assert_agrees(&raw, &statement, ResultSet::Rows(rows));
    });
}

/// Filtered HISTOGRAM with generated bins: planned counts equal the
/// reference binning (ROUND semantics, NaN skipped).
#[test]
fn planned_histogram_matches_reference() {
    check("planned_histogram_matches_reference", 0..256, |rng| {
        let raw = raw(rng, 1400);
        let conjuncts = conjuncts(rng);
        let bins = rng.uniform_usize(1, 24);
        let lo = rng.uniform(-80.0, 0.0);
        let width = rng.uniform(1.0, 160.0);
        let hi = lo + width;
        let statement = format!(
            "SELECT HISTOGRAM(x, {lo}, {hi}, {bins}), COUNT(*) FROM t{} GROUP BY 1 ORDER BY 1",
            where_clause(&conjuncts)
        );
        let keep = matching(&raw, &conjuncts);
        let expected = ResultSet::Histogram(ids::engine::Histogram::from_counts(
            reference_histogram(&raw, &keep, lo, hi, bins),
        ));
        assert_agrees(&raw, &statement, expected);
    });
}

/// Deterministic block-boundary battery: 0, 1, 1023, 1024, 1025 rows and
/// an all-NaN table, across every query shape the SQL dialect spells,
/// each against the row-at-a-time reference.
#[test]
fn block_boundary_and_all_nan_tables() {
    for rows in [0usize, 1, 1023, 1024, 1025] {
        for nan in [false, true] {
            let raw = Raw {
                x: (0..rows)
                    .map(|i| if nan { f64::NAN } else { (i % 700) as f64 })
                    .collect(),
                k: (0..rows).map(|i| (i % 9) as i64).collect(),
                s: (0..rows).map(|i| i % WORDS.len()).collect(),
            };
            let run =
                |statement: &str, expected: ResultSet| assert_agrees(&raw, statement, expected);

            let between = [Conjunct::XBetween(100.0, 500.0)];
            run(
                &format!("SELECT COUNT(*) FROM t{}", where_clause(&between)),
                ResultSet::Count(matching(&raw, &between).len() as u64),
            );
            run("SELECT COUNT(*) FROM t", ResultSet::Count(rows as u64));

            let tail = [Conjunct::XCmp(0, 650.0)];
            let page = matching(&raw, &tail)
                .into_iter()
                .skip(3)
                .take(7)
                .map(|i| vec![ids::engine::Value::Int(raw.k[i])])
                .collect();
            run(
                &format!("SELECT k FROM t{} LIMIT 7 OFFSET 3", where_clause(&tail)),
                ResultSet::Rows(page),
            );

            let both = [Conjunct::KCmp(1, 5), Conjunct::XCmp(0, 50.0)];
            run(
                &format!(
                    "SELECT HISTOGRAM(x, 0, 700, 14), COUNT(*) FROM t{} GROUP BY 1 ORDER BY 1",
                    where_clause(&both)
                ),
                ResultSet::Histogram(ids::engine::Histogram::from_counts(reference_histogram(
                    &raw,
                    &matching(&raw, &both),
                    0.0,
                    700.0,
                    14,
                ))),
            );
        }
    }
}

/// The paper's case-study SQL executes byte-identically at 1, 2, 4, and
/// 8 threads, with thread-invariant EXPLAIN text.
#[test]
fn case_study_sql_is_thread_stable() {
    use ids::workload::datasets;
    let db = Database::new();
    db.register(datasets::road_network_sized(1, 50_000));
    let q = sql::parse(
        "SELECT HISTOGRAM(y, 56.582, 57.774, 20), COUNT(*) FROM dataroad \
         WHERE x >= 8.146 AND x <= 11.2616367163 \
           AND y >= 56.582 AND y <= 57.774 \
           AND z >= -8.608 AND z <= 137.361 \
         GROUP BY 1 ORDER BY 1",
    )
    .expect("case-study SQL parses");
    let p = plan(&db, &q).expect("plans");
    let text = p.explain();
    let base = p.execute_with_threads(&db, 1).expect("executes");
    for threads in [2usize, 4, 8] {
        let out = p.execute_with_threads(&db, threads).expect("executes");
        assert_eq!(out.result, base.result, "{threads} threads");
        assert_eq!(out.footprint, base.footprint, "{threads} threads");
        assert_eq!(p.explain(), text, "plan text after {threads}-thread run");
    }
}
