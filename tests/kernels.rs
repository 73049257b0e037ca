//! Kernel-equivalence test tier.
//!
//! The vectorized kernels (`ids::engine::kernels`: selection-vector
//! predicate evaluation, zone-map pruning, fused filter+bin) must agree
//! **bucket-for-bucket** with row-at-a-time evaluation on adversarial
//! tables: empty, single-row, all-NaN measures, all-filtered ranges,
//! duplicate dictionary codes, and sizes straddling the 1024-row
//! zone-map block boundary.
//!
//! Two layers of checking:
//! - `differential_check` pits the full engine (now kernel-backed)
//!   against `ids::simtest::reference`'s independent row-at-a-time
//!   interpreter over a query battery covering every filter shape.
//! - Direct tests compare `kernels::select_vector` with a per-row
//!   `Predicate::matches` loop on hand-built tables with infinities,
//!   NaNs, and block-boundary values.

use std::sync::Arc;

use ids::engine::kernels::{self, KernelOptions, KernelStats};
use ids::engine::{
    exec, BinSpec, CmpOp, ColumnBuilder, Database, EngineError, Predicate, Projection, Query,
    QueryFootprint, ResultSet, SelectSpec, Table, TableBuilder, Value,
};
use ids::simclock::rng::SimRng;
use ids::simtest::reference::differential_check;
use ids::simtest::scenario::{CmpToken, FilterSpec, QuerySpec, TableSpec};

/// Every filter shape the differential grammar knows, including an
/// empty range (all rows filtered) and duplicate-heavy comparisons,
/// crossed with counts, histograms, paginated selects, and joins.
fn query_battery() -> Vec<QuerySpec> {
    let filters = [
        FilterSpec::True,
        FilterSpec::VBetween { lo: 20.0, hi: 80.0 },
        // Inverted bounds: an empty range — every row filtered out.
        FilterSpec::VBetween { lo: 60.0, hi: 40.0 },
        FilterSpec::KCmp {
            op: CmpToken::Eq,
            value: 3,
        },
        FilterSpec::KCmp {
            op: CmpToken::Ne,
            value: 0,
        },
        FilterSpec::KCmp {
            op: CmpToken::Lt,
            value: 5,
        },
        FilterSpec::KCmp {
            op: CmpToken::Le,
            value: 2,
        },
        FilterSpec::KCmp {
            op: CmpToken::Gt,
            value: 6,
        },
        FilterSpec::KCmp {
            op: CmpToken::Ge,
            value: 7,
        },
        FilterSpec::SEq { word: 2 },
        FilterSpec::VkAnd {
            vlo: 10.0,
            vhi: 90.0,
            klo: 1.0,
            khi: 6.0,
        },
        FilterSpec::NotV { lo: 25.0, hi: 75.0 },
    ];
    let mut qs = Vec::new();
    for f in filters {
        qs.push(QuerySpec::Count { filter: f });
        qs.push(QuerySpec::Histogram {
            bins: 16,
            lo: 0.0,
            hi: 100.0,
            filter: f,
        });
        qs.push(QuerySpec::Select {
            filter: f,
            limit: 7,
            offset: 3,
        });
    }
    qs.push(QuerySpec::Join {
        limit: 0,
        offset: 0,
    });
    qs.push(QuerySpec::Join {
        limit: 5,
        offset: 2,
    });
    qs
}

fn check(seed: u64, spec: TableSpec) {
    differential_check(seed, &spec, &query_battery()).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
}

#[test]
fn kernels_match_reference_on_block_boundary_sizes() {
    // Sizes straddling the selection-word (64) and zone-block (1024)
    // boundaries, plus empty and single-row tables.
    for rows in [0, 1, 2, 63, 64, 65, 1023, 1024, 1025, 2500] {
        check(
            11,
            TableSpec {
                rows,
                key_mod: 8,
                nan_every: 7,
                dim_rows: 16,
            },
        );
    }
}

#[test]
fn kernels_match_reference_on_all_nan_measure() {
    // nan_every = 1 makes the whole `v` column NaN — the all-null
    // stand-in. Every ordered comparison must fail, `!=` must pass.
    for rows in [1, 64, 1024, 1500] {
        check(
            13,
            TableSpec {
                rows,
                key_mod: 4,
                nan_every: 1,
                dim_rows: 8,
            },
        );
    }
}

#[test]
fn kernels_match_reference_on_duplicate_dictionary_codes() {
    // key_mod = 1 collapses the key column to a single value, and 2500
    // rows cycle the small string vocabulary many times over — heavy
    // duplication in both the int keys and the dictionary codes.
    for key_mod in [1, 2] {
        check(
            17,
            TableSpec {
                rows: 2500,
                key_mod,
                nan_every: 0,
                dim_rows: 32,
            },
        );
    }
}

#[test]
fn kernels_match_reference_across_seeds() {
    for seed in 0..8u64 {
        check(
            seed,
            TableSpec {
                rows: 1025,
                key_mod: 5,
                nan_every: 11,
                dim_rows: 12,
            },
        );
    }
}

// ---- direct selection-vector vs `Predicate::matches` comparisons ----

/// A table whose float column exercises infinities, NaN, and values
/// sitting exactly on bin and block boundaries.
fn adversarial_table(rows: usize) -> Table {
    let xs = (0..rows).map(|i| match i % 7 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => (i % 1024) as f64,
        5 => -((i % 100) as f64) / 3.0,
        _ => (i as f64) / 10.0,
    });
    let strs = (0..rows).map(|i| ["alpha", "beta", "gamma"][i % 3]);
    TableBuilder::new("adv")
        .column("x", ColumnBuilder::float(xs))
        // Clustered (the row id), so zone verdicts differ block to block.
        .column("t", ColumnBuilder::float((0..rows).map(|i| i as f64)))
        .column("n", ColumnBuilder::int((0..rows).map(|i| (i % 5) as i64)))
        .column("s", ColumnBuilder::str(strs))
        .build()
        .expect("static schema")
}

fn cmp(column: &str, op: CmpOp, value: impl Into<Value>) -> Predicate {
    Predicate::Cmp {
        column: column.into(),
        op,
        value: value.into(),
    }
}

fn predicate_battery() -> Vec<Predicate> {
    let mut preds = vec![
        Predicate::True,
        Predicate::between("x", 0.0, 50.0),
        Predicate::between("x", 50.0, 0.0), // empty range
        Predicate::between("x", f64::NEG_INFINITY, f64::INFINITY),
        Predicate::eq("s", "beta"),
        Predicate::eq("s", "missing-from-dictionary"),
        Predicate::eq("n", 3i64),
        Predicate::eq("x", 2.5),
        // Cross-type: string literal against a numeric column.
        Predicate::eq("x", "not-a-number"),
        Predicate::ge("x", 10.0),
        Predicate::le("n", 2.0),
        Predicate::and([
            Predicate::between("x", -20.0, 100.0),
            Predicate::eq("n", 1i64),
        ]),
        Predicate::Or(vec![Predicate::eq("s", "alpha"), Predicate::ge("x", 90.0)]),
        Predicate::Not(Box::new(Predicate::between("x", 0.0, 10.0))),
        // NaN literal: false for every row under every op but `!=`.
        cmp("x", CmpOp::Lt, f64::NAN),
        cmp("x", CmpOp::Ne, f64::NAN),
    ];
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ] {
        preds.push(cmp("x", op, 0.0));
        preds.push(cmp("n", op, 2i64));
    }
    preds
}

#[test]
fn selection_vector_matches_rowwise_on_adversarial_tables() {
    for rows in [0, 1, 63, 64, 65, 1023, 1024, 1025, 3000] {
        let t = adversarial_table(rows);
        for pred in predicate_battery() {
            let sel = kernels::select_vector(&t, &pred)
                .unwrap_or_else(|e| panic!("{rows} rows, {pred:?}: {e}"));
            let expect = pred.select(&t).expect("valid predicate");
            assert_eq!(
                sel.to_row_ids(),
                expect,
                "{rows} rows, {pred:?}: selection diverged"
            );
            assert_eq!(sel.count(), expect.len());
        }
    }
}

#[test]
fn histograms_match_rowwise_bucket_for_bucket_on_adversarial_tables() {
    for rows in [0, 1, 1023, 1024, 1025, 3000] {
        let t = adversarial_table(rows);
        let bins = BinSpec::new("x", -30.0, 120.0, 25);
        for pred in predicate_battery() {
            let (rs, _) = exec::run_histogram(&t, &bins, &pred)
                .unwrap_or_else(|e| panic!("{rows} rows, {pred:?}: {e}"));
            let hist = rs.histogram().expect("histogram result");
            let col = t.column("x").expect("x exists");
            let mut manual = vec![0u64; bins.bucket_count()];
            for r in 0..rows {
                if pred.matches(&t, r).expect("valid predicate") {
                    if let Some(b) = col.f64_at(r).and_then(|x| bins.bin_of(x)) {
                        manual[b] += 1;
                    }
                }
            }
            assert_eq!(
                hist.counts(),
                &manual[..],
                "{rows} rows, {pred:?}: buckets diverged"
            );
        }
    }
}

#[test]
fn zone_pruning_is_invisible_on_adversarial_tables() {
    // Kernel results must be identical with pruning disabled — pruning
    // may only skip work, never change an answer.
    let on = KernelOptions { zone_prune: true };
    let off = KernelOptions { zone_prune: false };
    for rows in [1, 1024, 1025, 3000] {
        let t = adversarial_table(rows);
        for pred in predicate_battery() {
            let (a, _) = select_with_stats(&t, &pred, &on);
            let (b, s2) = select_with_stats(&t, &pred, &off);
            assert_eq!(
                a.to_row_ids(),
                b.to_row_ids(),
                "{rows} rows, {pred:?}: pruning changed the selection"
            );
            assert_eq!(s2.blocks_pruned, 0, "pruning disabled but blocks pruned");
        }
    }
}

/// Every ordering of `items`.
fn permutations(items: &[Predicate]) -> Vec<Vec<Predicate>> {
    let Some((head, rest)) = items.split_first() else {
        return vec![Vec::new()];
    };
    let mut out = Vec::new();
    for tail in permutations(rest) {
        for i in 0..=tail.len() {
            out.push([&tail[..i], std::slice::from_ref(head), &tail[i..]].concat());
        }
    }
    out
}

fn select_with_stats(
    t: &Table,
    pred: &Predicate,
    opts: &KernelOptions,
) -> (kernels::SelectionVector, KernelStats) {
    let mut stats = KernelStats::default();
    let sel = kernels::select_vector_with(t, pred, opts, &mut stats).expect("valid predicate");
    (sel, stats)
}

#[test]
fn conjunctions_are_order_independent_in_mask_and_counters() {
    // The one-pass conjunction skips a block's data once an earlier
    // conjunct emptied it, so the order of conjuncts decides what is
    // *read*. It must not decide anything else: the block counters are
    // zone verdicts per (conjunct, block) — the sum of what each
    // conjunct counts evaluated alone.
    let conjunctions = [
        // Constant-true leaves: a NaN literal and a cross-type `<>`.
        vec![
            Predicate::ge("t", 100.0),
            cmp("x", CmpOp::Ne, f64::NAN),
            cmp("n", CmpOp::Ne, "two"),
            Predicate::le("n", 3.0),
        ],
        // Constant-false ones.
        vec![
            Predicate::between("t", 0.0, 2000.0),
            cmp("x", CmpOp::Lt, f64::NAN),
            Predicate::eq("s", 1i64),
        ],
        // A leaf every block's zone map refutes (`n` is 0..=4): the
        // permutations put the dead block first, in the middle, last.
        vec![
            Predicate::between("n", 10.0, 20.0),
            Predicate::between("x", 0.0, 50.0),
            Predicate::eq("s", "alpha"),
            Predicate::ge("t", 1.0),
        ],
        // Float, int and string leaves, two of them clustered: block 0 is
        // dead for one, block 2 for the other, block 1 all-true for the
        // first and scanned by the second.
        vec![
            Predicate::between("t", 1024.0, 2047.0),
            Predicate::between("t", 500.0, 1500.0),
            Predicate::between("n", 1.0, 3.0),
            Predicate::eq("s", "beta"),
        ],
        // `Or` and `Not` conjuncts recurse beside the flat leaves.
        vec![
            Predicate::Or(vec![Predicate::eq("s", "alpha"), Predicate::ge("x", 90.0)]),
            Predicate::between("t", 10.0, 1100.0),
            Predicate::Not(Box::new(Predicate::eq("n", 2i64))),
        ],
    ];
    // Bare, under `Or` (beside a constant-false arm, which counts
    // nothing), under `Not`.
    let wrappers: [fn(Vec<Predicate>) -> Predicate; 3] = [
        Predicate::And,
        |ps| Predicate::Or(vec![Predicate::eq("x", "no"), Predicate::And(ps)]),
        |ps| Predicate::Not(Box::new(Predicate::And(ps))),
    ];
    for rows in [0, 1, 63, 64, 65, 1023, 1024, 1025, 2500] {
        let t = adversarial_table(rows);
        for opts in [true, false].map(|zone_prune| KernelOptions { zone_prune }) {
            for (conjuncts, wrap) in conjunctions.iter().flat_map(|c| wrappers.map(|w| (c, w))) {
                let mut alone = KernelStats::default();
                for c in conjuncts {
                    let (_, s) = select_with_stats(&t, c, &opts);
                    alone.blocks_pruned += s.blocks_pruned;
                    alone.blocks_scanned += s.blocks_scanned;
                }
                let written = wrap(conjuncts.clone());
                let want = select_with_stats(&t, &written, &opts);
                let ctx = format!("{rows} rows, {opts:?}, {written}");
                assert_eq!(
                    want.0.to_row_ids(),
                    written.select(&t).expect("valid"),
                    "{ctx}"
                );
                assert_eq!(want.1, alone, "{ctx}: counters are not per-conjunct sums");
                for perm in permutations(conjuncts) {
                    let got = select_with_stats(&t, &wrap(perm), &opts);
                    assert_eq!(got, want, "{ctx}: order changed the mask or the counters");
                }
            }
        }
    }
}

#[test]
fn empty_and_single_row_tables_bin_correctly() {
    let empty = TableBuilder::new("e")
        .column("x", ColumnBuilder::float(std::iter::empty::<f64>()))
        .build()
        .expect("empty table");
    let bins = BinSpec::new("x", 0.0, 10.0, 5);
    let (rs, fp) = exec::run_histogram(&empty, &bins, &Predicate::True).expect("empty ok");
    assert_eq!(rs.histogram().expect("histogram").total(), 0);
    assert_eq!(fp.rows_matched, 0);

    let single = TableBuilder::new("s1")
        .column("x", ColumnBuilder::float([7.0]))
        .build()
        .expect("single row");
    let (rs, _) = exec::run_histogram(&single, &bins, &Predicate::True).expect("single ok");
    let h = rs.histogram().expect("histogram");
    assert_eq!(h.total(), 1);
    // 7.0 over [0, 10] with 5 bins of width 2 rounds to bucket 4.
    assert_eq!(h.counts()[4], 1);
}

// ---- the selection memo (`exec::filter_rows`) must be transparent ----

/// The conjunction shapes a brush issues: three ranges (two clustered,
/// so zone verdicts differ by block), the same nested, and mixed leaves.
fn brush_conjunctions() -> Vec<Vec<Predicate>> {
    vec![
        vec![
            Predicate::between("t", 100.0, 1900.0),
            Predicate::between("x", -20.0, 100.0),
            Predicate::between("n", 1.0, 3.0),
        ],
        vec![
            Predicate::between("t", 500.0, 1500.0),
            Predicate::And(vec![
                Predicate::ge("x", 0.0),
                Predicate::And(vec![Predicate::le("n", 3.0)]),
            ]),
            Predicate::eq("s", "beta"),
        ],
    ]
}

/// Count, two histograms (different bin columns) and a paginated select
/// under `filter`, chosen by `kind`.
fn statement(kind: usize, filter: Predicate) -> Query {
    match kind % 4 {
        0 => Query::count("adv", filter),
        1 => Query::histogram("adv", BinSpec::new("x", -30.0, 120.0, 25), filter),
        2 => Query::histogram("adv", BinSpec::new("t", 0.0, 2048.0, 16), filter),
        _ => Query::Select(SelectSpec {
            table: "adv".into(),
            projection: vec![Projection::column("t"), Projection::column("s")],
            filter,
            limit: Some(7),
            offset: 3,
        }),
    }
}

fn run_on(t: &Table, q: &Query) -> (ResultSet, QueryFootprint) {
    let db = Database::new();
    db.register(t.clone());
    exec::run_query(&db, q).unwrap_or_else(|e| panic!("{q}: {e}"))
}

/// Mid-word, on a word edge (not a block edge), on a block edge.
const MEMO_SIZES: [usize; 4] = [65, 1001, 1088, 2048];

#[test]
fn a_remembered_filter_answers_exactly_like_a_cold_table() {
    // Kills "the stored counters are dropped on a hit": every repeat over
    // a filter with a scanning leaf would report zero block verdicts.
    // (It cannot see a `Value::eq` key: `resolve` builds one leaf for
    // `Int(3)` and `Float(3.0)`, so that hit returns the right rows — the
    // next test pins the key itself.)
    let mut filters = predicate_battery();
    for conjuncts in brush_conjunctions() {
        filters.extend(permutations(&conjuncts).into_iter().map(Predicate::And));
    }
    for rows in MEMO_SIZES {
        let warm = adversarial_table(rows);
        let mut rng = SimRng::seed(21).split("memo/statements");
        let mut filter = filters[0].clone();
        let (mut repeats, mut total) = (0, 0);
        // Every filter comes up as a miss; about half the statements
        // repeat the previous one's filter under another statement kind.
        let mut next = 0;
        while next < filters.len() {
            let repeat = total > 0 && rng.unit() < 0.5;
            if !repeat {
                filter = filters[next].clone();
                next += 1;
            }
            let q = statement(rng.uniform_usize(0, 4), filter.clone());
            let got = run_on(&warm, &q);
            let cold = run_on(&adversarial_table(rows), &q);
            assert_eq!(got, cold, "{rows} rows, statement {total}: {q}");
            repeats += usize::from(repeat);
            total += 1;
        }
        assert!(
            repeats * 3 > total && repeats * 3 < total * 2,
            "{repeats} repeats of {total}: not the ≈ 50 % share the test is about"
        );
    }
}

#[test]
fn repeats_share_one_selection_and_near_misses_share_nothing() {
    // Kills both mutants: a `Value::eq` key makes the `Int(3)` /
    // `Float(3.0)` and NaN pairs below hit (`ptr_eq`), and dropped
    // counters break `fb == fa` on the repeat.
    let t = adversarial_table(2500);
    let brush = Predicate::And(brush_conjunctions().remove(0));
    let (a, fa, _) = exec::filter_rows(&t, &brush).expect("valid");
    assert!(fa.blocks_scanned > 0 && fa.blocks_pruned > 0, "{fa:?}");
    // The same filter written again, asked of a clone of the table.
    let (b, fb, _) = exec::filter_rows(&t.clone(), &brush.clone()).expect("valid");
    assert!(Arc::ptr_eq(&a, &b), "a repeat re-evaluated the filter");
    assert_eq!(fb, fa);

    let reordered = Predicate::And(brush_conjunctions().remove(0).into_iter().rev().collect());
    let nan = || cmp("x", CmpOp::Ne, f64::NAN);
    let near_misses = [
        (Predicate::eq("n", 3i64), Predicate::eq("n", 3.0)),
        (Predicate::eq("s", 3i64), Predicate::eq("s", 3.0)),
        (Predicate::ge("x", 0.0), Predicate::ge("x", -0.0)),
        (
            Predicate::between("x", 0.0, 5.0),
            Predicate::between("x", -0.0, 5.0),
        ),
        (brush.clone(), reordered),
        (nan(), nan()),
        (
            Predicate::and([nan(), Predicate::ge("t", 9.0)]),
            Predicate::and([nan(), Predicate::ge("t", 9.0)]),
        ),
    ];
    for (p, q) in near_misses {
        let (sp, ..) = exec::filter_rows(&t, &p).expect("valid");
        let (sq, ..) = exec::filter_rows(&t, &q).expect("valid");
        assert!(!Arc::ptr_eq(&sp, &sq), "{p:?} answered for {q:?}");
        assert_eq!(sq.to_row_ids(), q.select(&t).expect("valid"), "{q:?}");
    }

    // A table re-registered under the same name with other data starts
    // with an empty slot: the catalog hands out the new table's.
    let db = Database::new();
    db.register(adversarial_table(2500));
    let q = Query::count("adv", brush.clone());
    let before = exec::run_query(&db, &q).expect("valid");
    db.register(adversarial_table(1500));
    let after = exec::run_query(&db, &q).expect("valid");
    assert_eq!(after, run_on(&adversarial_table(1500), &q));
    assert_ne!(after, before);
}

#[test]
fn true_and_failing_filters_leave_the_remembered_one_alone() {
    let t = adversarial_table(1500);
    let brush = Predicate::And(brush_conjunctions().remove(0));
    let (a, ..) = exec::filter_rows(&t, &brush).expect("valid");
    exec::run_count(&t, &Predicate::True).expect("valid");
    exec::run_histogram(&t, &BinSpec::new("x", 0.0, 9.0, 3), &Predicate::True).expect("valid");
    let unknown = Predicate::and([brush.clone(), Predicate::ge("nope", 1.0)]);
    for _ in 0..2 {
        assert!(matches!(
            exec::filter_rows(&t, &unknown),
            Err(EngineError::UnknownColumn { .. })
        ));
    }
    let (b, ..) = exec::filter_rows(&t, &brush).expect("valid");
    assert!(Arc::ptr_eq(&a, &b), "TRUE or an error evicted the entry");
}

#[test]
fn a_hit_does_not_excuse_the_rest_of_the_statement() {
    // A remembered filter and histogram under a bad bin spec or bin
    // column fail with the error a cold table gives, and keep answering
    // good statements: a repeat, and a nudged brush that moves the
    // remembered counts.
    let warm = adversarial_table(1500);
    let brush = Predicate::And(brush_conjunctions().remove(1));
    let good = BinSpec::new("x", -30.0, 120.0, 25);
    let want = exec::run_histogram(&warm, &good, &brush).expect("valid");
    for (i, bad) in [
        BinSpec::new("s", 0.0, 1.0, 2),
        BinSpec::new("nope", 0.0, 1.0, 2),
        BinSpec::new("x", 0.0, 1.0, 0),
        BinSpec::new("x", 5.0, 5.0, 10),
    ]
    .into_iter()
    .enumerate()
    {
        let got = exec::run_histogram(&warm, &bad, &brush).expect_err("bad bins");
        let cold =
            exec::run_histogram(&adversarial_table(1500), &bad, &brush).expect_err("bad bins");
        assert_eq!(format!("{got:?}"), format!("{cold:?}"));
        assert!(matches!(
            got,
            EngineError::TypeMismatch { .. }
                | EngineError::UnknownColumn { .. }
                | EngineError::InvalidBinSpec(_)
        ));
        assert_eq!(
            exec::run_histogram(&warm, &good, &brush).expect("valid"),
            want
        );
        let nudged = Predicate::and([brush.clone(), Predicate::le("t", 1490.0 - i as f64)]);
        assert_eq!(
            exec::run_histogram(&warm, &good, &nudged).expect("valid"),
            exec::run_histogram(&adversarial_table(1500), &good, &nudged).expect("valid"),
        );
    }
}

// ---- the histogram memo (`exec::run_histogram`) must be transparent ----

/// Bin specs over each column shape the bin phase meets: floats with NaN
/// and infinities (`x`), an `Int` column (`n`), and a clustered column
/// whose domain ends before a 2048-row table does, so its last block is
/// out of domain (`t`).
fn drag_specs() -> [BinSpec; 3] {
    [
        BinSpec::new("x", -30.0, 120.0, 25),
        BinSpec::new("n", 0.0, 4.0, 4),
        BinSpec::new("t", 0.0, 900.0, 12),
    ]
}

/// The brush a drag moves: rows with `t` in `[lo, hi]` and `n >= 1`.
fn drag_brush((lo, hi): (f64, f64)) -> Predicate {
    Predicate::and([Predicate::between("t", lo, hi), Predicate::ge("n", 1.0)])
}

#[test]
fn a_maintained_histogram_answers_exactly_like_a_cold_table() {
    // Every statement's result and footprint equal a fresh table's. Kills
    // "add and subtract swapped", "block counters taken from the rows that
    // changed instead of the new selection", and "the subtraction skips
    // the tail partial word" — the drag opens by pulling `hi` off the
    // table's last rows one at a time. (Every path is exact, so no answer
    // shows the delta rule; `exec::aggregate`'s tests pin it.)
    for rows in MEMO_SIZES {
        let warm = adversarial_table(rows);
        let n = rows as f64;
        let mut rng = SimRng::seed(26).split("hist-memo/drag");
        let (mut brush, mut last) = ((0.0, n), None::<kernels::SelectionVector>);
        // Statements by the path the slot must take, from the selections
        // alone: [same selection, moved, cold].
        let mut paths = [0usize; 3];
        for step in 0..48 {
            let repeat = step > 4 && rng.unit() < 0.2;
            let u = rng.unit();
            if step <= 4 {
                brush.1 = n - 1.0 - step as f64;
            } else if !repeat && u < 0.25 {
                // Jump to the other half of the table.
                let lo = n * if brush.0 < n / 2.0 { 0.6 } else { 0.05 };
                brush = (lo, lo + rng.uniform(0.1, 0.35) * n);
            } else if !repeat {
                let d = rng.uniform(-n / 16.0, n / 16.0).round();
                if rng.unit() < 0.5 {
                    brush.0 += d;
                } else {
                    brush.1 += d;
                }
            }
            let filter = drag_brush(brush);
            let sel = kernels::select_vector(&warm, &filter).expect("valid");
            let path = match &last {
                _ if repeat => 0,
                Some(old) => {
                    let pairs = old.words().iter().zip(sel.words());
                    let changed: u32 = pairs.map(|(a, b)| (a ^ b).count_ones()).sum();
                    if (changed as usize) < sel.count() {
                        1
                    } else {
                        2
                    }
                }
                None => 2,
            };
            for spec in drag_specs() {
                let got = exec::run_histogram(&warm, &spec, &filter).expect("valid");
                let cold = exec::run_histogram(&adversarial_table(rows), &spec, &filter);
                assert_eq!(
                    got,
                    cold.expect("valid"),
                    "{rows} rows, step {step}: {spec:?}"
                );
                paths[path] += 1;
            }
            last = Some(sel);
        }
        assert!(paths.iter().all(|&p| p >= 6), "{rows} rows: {paths:?}");
    }
}

#[test]
fn another_spec_or_table_never_starts_from_a_columns_counts() {
    // Kills "the spec key ignores `min`" (or `max`, or `bins`): each pair
    // is binned under one brush and then a nudged one, so a loose key
    // would hand the second spec the first one's counts, or move them.
    let (brush, nudged) = (drag_brush((100.0, 1900.0)), drag_brush((100.0, 1890.0)));
    let x = |min, max, bins| BinSpec::new("x", min, max, bins);
    let pairs = [
        (x(-30.0, 120.0, 25), x(-20.0, 120.0, 25)),
        (x(-30.0, 120.0, 25), x(-30.0, 110.0, 25)),
        (x(-30.0, 120.0, 25), x(-30.0, 120.0, 24)),
        (x(-30.0, 120.0, 25), x(-30.0, 120.0, 26)),
        // The same answer either way (`ROUND` cannot tell them apart), but
        // two keys: bit patterns differ.
        (x(0.0, 120.0, 25), x(-0.0, 120.0, 25)),
    ];
    for (first, second) in pairs {
        let warm = adversarial_table(2048);
        for filter in [&brush, &nudged] {
            for spec in [&first, &second] {
                let got = exec::run_histogram(&warm, spec, filter).expect("valid");
                let cold = exec::run_histogram(&adversarial_table(2048), spec, filter);
                assert_eq!(got, cold.expect("valid"), "{spec:?} under {filter}");
            }
        }
    }
    // A table re-registered under the same name starts with empty slots.
    let db = Database::new();
    db.register(adversarial_table(2500));
    let q = Query::histogram("adv", drag_specs()[1].clone(), brush);
    let before = exec::run_query(&db, &q).expect("valid");
    db.register(adversarial_table(1500));
    let after = exec::run_query(&db, &q).expect("valid");
    assert_eq!(after, run_on(&adversarial_table(1500), &q));
    assert_ne!(after, before);
}
