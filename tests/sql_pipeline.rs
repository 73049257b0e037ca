//! End-to-end SQL: the paper's literal query shapes, parsed and executed
//! against the case-study datasets.

use ids::engine::{sql, Backend, DiskBackend, MemBackend};
use ids::workload::datasets;

#[test]
fn paper_q1_select_runs_on_the_movie_table() {
    // Section 6's Q1, modulo the HISTOGRAM-less projection list.
    let q = sql::parse(
        "SELECT poster, title || '(' || year || ')', director, genre, plot, rating \
         FROM imdb LIMIT 100 OFFSET 100",
    )
    .expect("Q1 parses");
    let backend = DiskBackend::new();
    backend
        .database()
        .register(datasets::movies_sized(1, 1_000));
    let out = backend.execute(&q).expect("Q1 executes");
    let rows = out.result.rows().expect("row result");
    assert_eq!(rows.len(), 100);
    assert_eq!(rows[0].len(), 6);
    // The concat projection produced "Title (year)"-shaped strings.
    let title = rows[0][1].as_str().expect("string");
    assert!(title.contains('(') && title.ends_with(')'), "{title}");
}

#[test]
fn paper_crossfilter_histogram_runs_on_the_road_table() {
    // Section 7's histogram query, with the paper's exact constants,
    // written in this engine's HISTOGRAM(...) spelling.
    let q = sql::parse(
        "SELECT HISTOGRAM(y, 56.582, 57.774, 20), COUNT(*) FROM dataroad \
         WHERE x >= 8.146 AND x <= 11.2616367163 \
           AND y >= 56.582 AND y <= 57.774 \
           AND z >= -8.608 AND z <= 137.361 \
         GROUP BY 1 ORDER BY 1",
    )
    .expect("crossfilter SQL parses");
    let mem = MemBackend::new();
    mem.database()
        .register(datasets::road_network_sized(1, 50_000));
    let out = mem.execute(&q).expect("histogram executes");
    let hist = out.result.histogram().expect("histogram result");
    assert_eq!(hist.bins(), 21);
    // The paper's WHERE covers the full domains: every row lands somewhere.
    assert_eq!(hist.total(), 50_000);
}

#[test]
fn parsed_and_constructed_queries_agree() {
    use ids::engine::{BinSpec, Predicate, Query};
    let mem = MemBackend::new();
    mem.database()
        .register(datasets::road_network_sized(2, 20_000));

    let parsed = sql::parse(
        "SELECT HISTOGRAM(z, -8.608, 137.361, 20), COUNT(*) FROM dataroad \
         WHERE x BETWEEN 8.5 AND 10.0 GROUP BY 1 ORDER BY 1",
    )
    .expect("parses");
    let constructed = Query::histogram(
        "dataroad",
        BinSpec::new("z", -8.608, 137.361, 20),
        Predicate::between("x", 8.5, 10.0),
    );
    let a = mem.execute(&parsed).expect("parsed runs");
    let b = mem.execute(&constructed).expect("constructed runs");
    assert_eq!(a.result, b.result);
    assert_eq!(a.cost, b.cost, "same logical query, same virtual cost");
}

#[test]
fn sql_counts_match_listing_filters() {
    let mem = MemBackend::new();
    mem.database().register(datasets::listings(3, 20_000));
    let all = mem
        .execute(&sql::parse("SELECT COUNT(*) FROM listings").expect("parses"))
        .expect("runs")
        .scalar_count()
        .expect("count");
    assert_eq!(all, 20_000);
    let cheap = mem
        .execute(
            &sql::parse("SELECT COUNT(*) FROM listings WHERE price <= 100 AND guests >= 2")
                .expect("parses"),
        )
        .expect("runs")
        .scalar_count()
        .expect("count");
    assert!(cheap > 0 && cheap < all);
    // Categorical equality through SQL.
    let entire = mem
        .execute(
            &sql::parse("SELECT COUNT(*) FROM listings WHERE room_type = 'entire_home'")
                .expect("parses"),
        )
        .expect("runs")
        .scalar_count()
        .expect("count");
    assert!(entire > all / 3, "entire_home is the majority class");
}

/// A bin count no histogram can need is a typed error before anything is
/// allocated for it — on the exact path and the progressive one.
#[test]
fn absurd_bin_count_is_rejected_not_allocated() {
    use ids::engine::progressive::ProgressiveExecutor;
    use ids::engine::{exec, EngineError};
    let mem = MemBackend::new();
    let db = mem.database();
    db.register(datasets::road_network_sized(1, 100));

    let query = sql::parse(
        "SELECT HISTOGRAM(y, 0, 100, 1000000000000000), COUNT(*) FROM dataroad \
         GROUP BY 1 ORDER BY 1",
    )
    .expect("parses");
    query.validate(&db).expect("validates");
    assert!(matches!(
        exec::run_query(&db, &query),
        Err(EngineError::InvalidBinSpec(_))
    ));
    assert!(matches!(
        ProgressiveExecutor::new(db).run(&query),
        Err(EngineError::InvalidBinSpec(_))
    ));
}

/// `LIMIT` at `usize::MAX` with a non-zero `OFFSET` means "the rest",
/// not an overflowed window — for the scan (through SQL) and for the
/// paginated join (which the dialect cannot spell) on both backends.
#[test]
fn limit_near_usize_max_saturates() {
    use ids::engine::{exec, JoinSpec, Query};
    let sql_text = format!("SELECT y FROM dataroad LIMIT {} OFFSET 5", usize::MAX);
    let mem = MemBackend::new();
    let db = mem.database();
    db.register(datasets::road_network_sized(1, 100));
    let query = sql::parse(&sql_text).expect("parses");
    query.validate(&db).expect("validates");
    let (result, _) = exec::run_query(&db, &query).expect("scan runs");
    assert_eq!(result.rows().expect("rows").len(), 95);

    let (ratings, movie) = datasets::movie_join_tables(1, 100);
    let join = Query::Join(JoinSpec {
        left: ratings.name().into(),
        right: movie.name().into(),
        left_key: "id".into(),
        right_key: "id".into(),
        projection: vec![],
        limit: Some(usize::MAX),
        offset: 5,
    });
    let disk = DiskBackend::new();
    for backend in [&mem as &dyn Backend, &disk] {
        backend.database().register(ratings.clone());
        backend.database().register(movie.clone());
        let out = backend.execute(&join).expect("join runs");
        assert_eq!(out.result.rows().expect("rows").len(), 95);
        ids::engine::plan(&backend.database(), &join).expect("join plans");
    }
}
