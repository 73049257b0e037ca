//! Seeded inputs: logical queries from the workload generators, rendered
//! to the SQL strings that are all the system under test receives.

use ids_devices::DeviceKind;
use ids_engine::{CmpOp, Predicate, Projection, Query, Value};
use ids_simclock::rng::SimRng;
use ids_workload::crossfilter::{compile_query_groups, simulate_session, CrossfilterUi};
use ids_workload::datasets::ROOM_TYPES;
use ids_workload::trace::Trace;

/// One statement of a workload stream.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// What the system under test is handed.
    pub sql: String,
    /// The logical query `sql` was rendered from; used only to check
    /// answers and to drive out-of-band probes.
    pub query: Query,
    /// Session segment the statement belongs to (statements of one
    /// segment are contiguous in a stream).
    pub session: u32,
    /// Issue instant inside its session, microseconds.
    pub at_us: u64,
}

/// Renders a logical query as SQL in the engine's dialect, such that
/// `parse_statement` + `bind` give the same query back.
pub fn render(query: &Query) -> String {
    match query {
        Query::Histogram {
            table,
            bins,
            filter,
        } => format!(
            "SELECT HISTOGRAM({}, {}, {}, {}), COUNT(*) FROM {table}{} GROUP BY 1 ORDER BY 1",
            bins.column,
            bins.min,
            bins.max,
            bins.bins,
            where_clause(filter)
        ),
        Query::Count { table, filter } => {
            format!("SELECT COUNT(*) FROM {table}{}", where_clause(filter))
        }
        Query::Select(spec) => {
            let columns: Vec<&str> = spec
                .projection
                .iter()
                .map(|p| match p {
                    Projection::Column(c) => c.as_ref(),
                    Projection::Concat(_) => unreachable!("streams project plain columns"),
                })
                .collect();
            let mut sql = format!(
                "SELECT {} FROM {}{}",
                if columns.is_empty() {
                    "*".to_string()
                } else {
                    columns.join(", ")
                },
                spec.table,
                where_clause(&spec.filter)
            );
            if let Some(limit) = spec.limit {
                sql.push_str(&format!(" LIMIT {limit}"));
            }
            if spec.offset > 0 {
                sql.push_str(&format!(" OFFSET {}", spec.offset));
            }
            sql
        }
        Query::Join(_) => unreachable!("the SQL surface has no join"),
    }
}

fn where_clause(filter: &Predicate) -> String {
    match filter {
        Predicate::True => String::new(),
        other => format!(" WHERE {}", condition(other)),
    }
}

fn condition(pred: &Predicate) -> String {
    match pred {
        Predicate::True => "TRUE".into(),
        Predicate::Between { column, lo, hi } => format!("{column} BETWEEN {lo} AND {hi}"),
        Predicate::Cmp { column, op, value } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            match value {
                Value::Str(s) => format!("{column} {op} '{s}'"),
                number => format!("{column} {op} {number}"),
            }
        }
        Predicate::And(parts) => parts
            .iter()
            .map(|p| match p {
                Predicate::And(_) | Predicate::Or(_) => format!("({})", condition(p)),
                _ => condition(p),
            })
            .collect::<Vec<_>>()
            .join(" AND "),
        Predicate::Or(parts) => parts
            .iter()
            .map(|p| format!("({})", condition(p)))
            .collect::<Vec<_>>()
            .join(" OR "),
        Predicate::Not(inner) => format!("NOT ({})", condition(inner)),
    }
}

/// Crossfilter brushing as the backend sees it: `sessions` independent
/// mouse sessions of case study 2 over `table`, each contributing
/// `per_session` segments of `groups` consecutive slider events, every
/// segment from its own seeded point of the session, in issue order.
/// Every event re-queries the two other histograms under the conjunction
/// of all three ranges. `Stmt::session` numbers the segments.
///
/// Many short in-order segments rather than one long session: statement
/// cost follows the brushed selectivity, which drifts slowly inside a
/// session, so only many independent segments give a cost mix that
/// repeats from seed to seed (the mean rows matched per statement spread
/// 15 % over sixteen seeds with 256 segments, 9 % with 512, 4 % with
/// 2,048; segments of one session count as much as segments of several).
/// Adjacent statements inside a segment still differ by one predicate.
pub fn crossfilter_stream(
    seed: u64,
    table: &str,
    sessions: usize,
    per_session: usize,
    groups: usize,
) -> Vec<Stmt> {
    let ui = CrossfilterUi::for_table(table);
    let mut pick = SimRng::seed(seed).split("bench/crossfilter/segment");
    let mut out = Vec::with_capacity(sessions * per_session * groups * 2);
    for session in 0..sessions {
        let trace = simulate_session(DeviceKind::Mouse, session, seed, &ui).trace;
        let starts: Vec<usize> = (0..per_session)
            .map(|_| pick.uniform_usize(0, trace.len().saturating_sub(groups) + 1))
            .collect();
        let end_of = |start: usize| (start + groups).min(trace.len());
        // Slider state accumulates from the session's first event, so
        // compile the prefix the last segment ends in, once, and keep
        // each segment's slice of it.
        let last_end = starts.iter().copied().map(end_of).max().unwrap_or(0);
        let prefix = Trace::from_records(trace.records()[..last_end].to_vec());
        let compiled = compile_query_groups(&ui, &prefix);
        for (k, &start) in starts.iter().enumerate() {
            for group in &compiled[start..end_of(start)] {
                for query in &group.queries {
                    out.push(Stmt {
                        sql: render(query),
                        query: query.clone(),
                        session: (session * per_session + k) as u32,
                        at_us: group.at.as_micros(),
                    });
                }
            }
        }
    }
    out
}

/// `n` statements over the paper-size tables in a fixed seeded
/// interleave: scroll pages over the `imdb_rows`-row `imdb`, the two
/// `listings` count shapes with seeded thresholds and room types, and
/// crossfilter histograms over `dataroad`. The share of each shape is
/// exact (40 / 20 / 5 / 35 %), so only parameters and order follow the
/// seed, not the mix.
pub fn smallquery_stream(seed: u64, n: usize, imdb_rows: usize) -> Vec<Stmt> {
    let mut rng = SimRng::seed(seed).split("bench/smallquery/mix");
    let page = 100.min(imdb_rows);
    let plain = |query: Query| Stmt {
        sql: render(&query),
        query,
        session: 0,
        at_us: 0,
    };
    let mut out = Vec::with_capacity(n);
    for _ in 0..n * 40 / 100 {
        out.push(plain(Query::select(
            "imdb",
            ["title", "year", "rating"].map(Projection::column).to_vec(),
            Predicate::True,
            Some(page),
            rng.uniform_usize(0, imdb_rows - page + 1),
        )));
    }
    for _ in 0..n * 20 / 100 {
        out.push(plain(Query::count(
            "listings",
            Predicate::and([
                Predicate::le("price", rng.uniform_usize(40, 400) as f64),
                Predicate::ge("guests", rng.uniform_usize(1, 6) as f64),
            ]),
        )));
    }
    for _ in 0..n * 5 / 100 {
        out.push(plain(Query::count(
            "listings",
            Predicate::eq(
                "room_type",
                ROOM_TYPES[rng.uniform_usize(0, ROOM_TYPES.len())],
            ),
        )));
    }
    let brushes = n - out.len();
    out.extend(
        crossfilter_stream(seed, "dataroad", brushes.div_ceil(16), 1, 8)
            .into_iter()
            .take(brushes),
    );
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::{sql, Database};
    use ids_workload::datasets;

    fn small_db() -> Database {
        let db = Database::new();
        db.register(datasets::movies_sized(1, 300));
        db.register(datasets::listings(1, 500));
        db.register(datasets::road_network_sized(1, 400));
        db
    }

    #[test]
    fn every_generated_statement_round_trips_through_parse_and_bind() {
        let db = small_db();
        let mut stream = crossfilter_stream(7, "dataroad", 3, 2, 5);
        assert_eq!(stream.len(), 3 * 2 * 5 * 2);
        stream.extend(smallquery_stream(7, 400, 300));
        for stmt in &stream {
            let parsed =
                sql::parse_statement(&stmt.sql).unwrap_or_else(|e| panic!("{e}: {}", stmt.sql));
            let bound = sql::bind(&db, &parsed).unwrap_or_else(|e| panic!("{e}: {}", stmt.sql));
            assert_eq!(
                format!("{bound:?}"),
                format!("{:?}", stmt.query),
                "{}",
                stmt.sql
            );
        }
        let kinds: std::collections::BTreeSet<&str> =
            stream.iter().map(|s| s.query.kind()).collect();
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            ["count", "histogram", "select"]
        );
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let sqls = |seed| -> Vec<String> {
            crossfilter_stream(seed, "dataroad", 3, 1, 4)
                .into_iter()
                .map(|s| s.sql)
                .collect()
        };
        assert_eq!(sqls(7), sqls(7));
        assert_ne!(sqls(7), sqls(8));
    }

    #[test]
    fn segments_keep_session_order_and_differ_by_one_predicate() {
        let stream = crossfilter_stream(3, "dataroad", 2, 2, 6);
        for pair in stream.windows(2).filter(|w| w[0].session == w[1].session) {
            assert!(pair[0].at_us <= pair[1].at_us);
        }
        let segments: Vec<u32> = stream.iter().step_by(6 * 2).map(|s| s.session).collect();
        assert_eq!(segments, [0, 1, 2, 3]);
    }
}
