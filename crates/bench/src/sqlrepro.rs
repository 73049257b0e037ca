//! `repro --sql`: the paper's case-study SQL parsed, bound, planned
//! and executed — rendering each plan's `EXPLAIN` tree next to a
//! paper-style result summary.
//!
//! Every case runs at a fixed seed and size (never `IDS_SCALE`), so the
//! whole rendering is a pure function and golden-snapshottable: the
//! `EXPLAIN` text is byte-identical across runs and thread counts, and
//! `Plan::execute` runs the engine's one executor, so the virtual cost
//! is the one every backend charges.

use ids_engine::{
    plan, sql, CostModel, CostParams, Database, JoinSpec, LinearCostModel, Projection, Query,
    ResultSet,
};
use ids_workload::datasets;

/// One case-study query: paper SQL (or a constructed join, the one
/// shape the SQL dialect does not spell) over a seeded dataset.
pub struct SqlCase {
    /// Stable case name (also the golden fixture key).
    pub name: &'static str,
    /// Which cost calibration prices the run (`"disk"` or `"mem"`).
    pub backend: &'static str,
    /// The SQL text, or a description for constructed queries.
    pub sql: &'static str,
}

/// The case-study queries, in fixed render order.
pub const CASES: &[SqlCase] = &[
    SqlCase {
        name: "q1-scroll",
        backend: "disk",
        sql: "SELECT poster, title || '(' || year || ')', director, genre, plot, rating \
              FROM imdb LIMIT 100 OFFSET 100",
    },
    SqlCase {
        name: "crossfilter-histogram",
        backend: "mem",
        sql: "SELECT HISTOGRAM(y, 56.582, 57.774, 20), COUNT(*) FROM dataroad \
              WHERE x >= 8.146 AND x <= 11.2616367163 \
              AND y >= 56.582 AND y <= 57.774 \
              AND z >= -8.608 AND z <= 137.361 \
              GROUP BY 1 ORDER BY 1",
    },
    SqlCase {
        name: "listings-cheap-count",
        backend: "mem",
        sql: "SELECT COUNT(*) FROM listings WHERE price <= 100 AND guests >= 2",
    },
    SqlCase {
        name: "listings-room-count",
        backend: "mem",
        sql: "SELECT COUNT(*) FROM listings WHERE room_type = 'entire_home'",
    },
    SqlCase {
        name: "movie-ratings-join",
        backend: "disk",
        sql: "(constructed) JOIN movie ON imdbrating.id = movie.id LIMIT 100 OFFSET 100",
    },
];

/// Registers the datasets a case queries and returns the database plus
/// the cost calibration of its paper backend.
fn environment(case: &SqlCase) -> (Database, CostParams) {
    let db = Database::new();
    match case.name {
        "q1-scroll" => {
            db.register(datasets::movies_sized(1, 1_000));
        }
        "crossfilter-histogram" => {
            db.register(datasets::road_network_sized(1, 50_000));
        }
        "listings-cheap-count" | "listings-room-count" => {
            db.register(datasets::listings(3, 20_000));
        }
        "movie-ratings-join" => {
            let (ratings, movie) = datasets::movie_join_tables(1, 1_000);
            db.register(ratings);
            db.register(movie);
        }
        other => unreachable!("unknown SQL case `{other}`"),
    }
    let costs = match case.backend {
        "disk" => CostParams::disk_default(),
        _ => CostParams::mem_default(),
    };
    (db, costs)
}

/// The logical query a case runs: parsed from its SQL, except the join
/// case, which the dialect cannot spell and constructs directly.
fn logical_query(case: &SqlCase) -> Query {
    if case.name == "movie-ratings-join" {
        return Query::Join(JoinSpec {
            left: "imdbrating".into(),
            right: "movie".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![
                Projection::column("title"),
                Projection::column("year"),
                Projection::column("rating"),
            ],
            limit: Some(100),
            offset: 100,
        });
    }
    sql::parse(case.sql).expect("case-study SQL parses")
}

fn summarize(result: &ResultSet) -> String {
    match result {
        ResultSet::Count(n) => format!("count = {n}"),
        ResultSet::Histogram(h) => {
            format!("histogram: {} bins, {} rows binned", h.bins(), h.total())
        }
        ResultSet::Rows(rows) => format!(
            "{} rows x {} cols",
            rows.len(),
            rows.first().map_or(0, |r| r.len())
        ),
    }
}

/// Renders one case: SQL text, the planner's `EXPLAIN` with actual
/// counters, and the result/cost summary line. Pure and deterministic.
pub fn render_case(case: &SqlCase) -> String {
    let (db, costs) = environment(case);
    let query = logical_query(case);
    let plan = plan(&db, &query).expect("case-study query plans");
    let out = plan.execute(&db).expect("case-study query executes");
    let cost = LinearCostModel::new(costs).price(&out.footprint);
    let mut text = String::new();
    text.push_str(&format!(
        "== sql case: {} ({} backend) ==\n",
        case.name, case.backend
    ));
    text.push_str(&format!("sql: {}\n", case.sql));
    text.push_str(&plan.explain_analyzed(&out.footprint));
    text.push_str(&format!(
        "result: {} | virtual cost: {} us\n",
        summarize(&out.result),
        cost.as_micros()
    ));
    text
}

/// Renders every case-study query, in fixed order — the body of
/// `repro --sql`.
pub fn render_all() -> String {
    let mut text = String::new();
    for case in CASES {
        text.push_str(&render_case(case));
        text.push('\n');
    }
    text.push_str(
        "Plan::execute runs the same operators as exec::run_query;\n\
         EXPLAIN text is byte-stable across runs and thread counts.\n",
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render_all(), render_all());
    }
}
