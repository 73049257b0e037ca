//! Engine micro-benches: scan, histogram, join, buffer pool, and
//! wall-clock parallel batch throughput.

use criterion::{BenchmarkId, Criterion, Throughput};
use ids_engine::{
    parallel::execute_batch, Backend, BinSpec, BufferPool, ColumnBuilder, DiskBackend,
    EvictionPolicy, MemBackend, PageId, Predicate, Projection, Query, TableBuilder,
};
use ids_workload::datasets;

fn benches(c: &mut Criterion) {
    let rows = 100_000usize;
    let road = datasets::road_network_sized(7, rows);
    let mem = MemBackend::new();
    mem.database().register(road.clone());
    let disk = DiskBackend::new();
    disk.database().register(road);

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Elements(rows as u64));

    group.bench_function("count_full_scan", |b| {
        let q = Query::count("dataroad", Predicate::True);
        b.iter(|| mem.execute(&q).expect("count"));
    });

    group.bench_function("filtered_histogram", |b| {
        let q = Query::histogram(
            "dataroad",
            BinSpec::new(
                "y",
                datasets::road_domain::Y_MIN,
                datasets::road_domain::Y_MAX,
                20,
            ),
            Predicate::and([
                Predicate::between("x", 8.5, 10.5),
                Predicate::between("z", 0.0, 100.0),
            ]),
        );
        b.iter(|| mem.execute(&q).expect("histogram"));
    });

    group.bench_function("disk_histogram_warm", |b| {
        let q = Query::histogram(
            "dataroad",
            BinSpec::new(
                "y",
                datasets::road_domain::Y_MIN,
                datasets::road_domain::Y_MAX,
                20,
            ),
            Predicate::between("x", 8.5, 10.5),
        );
        disk.execute(&q).expect("warmup");
        b.iter(|| disk.execute(&q).expect("histogram"));
    });

    // Paginated select + streaming join over the movie tables (Q1 / Q2).
    let (ratings, movie) = datasets::movie_join_tables(7, 4_000);
    let movies_backend = MemBackend::new();
    movies_backend.database().register(ratings);
    movies_backend.database().register(movie.clone());
    movies_backend.database().register({
        // Register the flat table under its own name for Q1.
        datasets::movies_sized(7, 4_000)
    });

    group.bench_function("q1_paginated_select", |b| {
        let q = Query::select(
            "imdb",
            vec![
                Projection::title_with_year("title", "year"),
                Projection::column("rating"),
            ],
            Predicate::True,
            Some(100),
            1_900,
        );
        b.iter(|| movies_backend.execute(&q).expect("select"));
    });

    group.bench_function("q2_streaming_join", |b| {
        let q = Query::Join(ids_engine::JoinSpec {
            left: "imdbrating".into(),
            right: "movie".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![
                Projection::title_with_year("title", "year"),
                Projection::column("rating"),
            ],
            limit: Some(100),
            offset: 1_900,
        });
        b.iter(|| movies_backend.execute(&q).expect("join"));
    });

    group.bench_function("buffer_pool_touch", |b| {
        let pool = BufferPool::new(1_024, EvictionPolicy::Lru);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 2_048;
            pool.touch(PageId {
                table: 0,
                page_no: i,
            })
        });
    });
    group.finish();

    // Parallel batch throughput across thread counts.
    let mut par = c.benchmark_group("engine_parallel");
    par.sample_size(10);
    par.measurement_time(std::time::Duration::from_secs(3));
    par.warm_up_time(std::time::Duration::from_secs(1));
    let t = TableBuilder::new("wide")
        .column("x", ColumnBuilder::float((0..200_000).map(|i| i as f64)))
        .build()
        .expect("table");
    let pb = MemBackend::new();
    pb.database().register(t);
    let queries: Vec<Query> = (0..64)
        .map(|i| {
            Query::count(
                "wide",
                Predicate::between("x", 0.0, 1_000.0 * (i + 1) as f64),
            )
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        par.bench_with_input(
            BenchmarkId::new("batch_64_queries", threads),
            &threads,
            |b, &t| {
                b.iter(|| execute_batch(&pb, &queries, t).expect("batch"));
            },
        );
    }
    par.finish();
}

fn distributed_benches(c: &mut Criterion) {
    use ids_engine::progressive::ProgressiveExecutor;
    use ids_engine::Database;
    use ids_shard::{PartitionScheme, ShardedCluster};

    let db = Database::new();
    db.register(datasets::listings(7, 100_000));
    let probe = Query::histogram(
        "listings",
        BinSpec::new("price", 0.0, 2_000.0, 20),
        Predicate::between("rating", 3.0, 5.0),
    );

    let mut group = c.benchmark_group("engine_distributed");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for nodes in [1usize, 4, 16] {
        let cluster =
            ShardedCluster::partition(&db, PartitionScheme::HashRows, 0, nodes).expect("partition");
        group.bench_with_input(BenchmarkId::new("histogram", nodes), &cluster, |b, cl| {
            b.iter(|| cl.execute(&probe).expect("mergeable"));
        });
    }
    group.bench_function("progressive_histogram", |b| {
        let exec = ProgressiveExecutor::new(db.clone());
        b.iter(|| exec.run(&probe).expect("progressive"));
    });
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    distributed_benches(&mut criterion);
    criterion.final_summary();
}
