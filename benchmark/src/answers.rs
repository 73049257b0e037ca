//! Answer checking: a digest of every result the system returns, and a
//! row-at-a-time re-derivation of the same answer that shares no code
//! with the kernels (`Predicate::matches` + `BinSpec::bin_of`).

use ids_engine::{
    Database, EngineResult, Histogram, Predicate, Projection, Query, ResultSet, Table, Value,
};

use crate::stats::Fnv;

/// FNV-1a digest of a result: shape tag, then every count or cell.
pub fn digest(result: &ResultSet) -> u64 {
    let mut h = Fnv::default();
    match result {
        ResultSet::Count(n) => {
            h.word(1);
            h.word(*n);
        }
        ResultSet::Histogram(hist) => {
            h.word(2);
            for &c in hist.counts() {
                h.word(c);
            }
        }
        ResultSet::Rows(rows) => {
            h.word(3);
            for row in rows {
                h.word(row.len() as u64);
                for cell in row {
                    match cell {
                        Value::Int(i) => h.word(*i as u64),
                        Value::Float(x) => h.word(x.to_bits()),
                        Value::Str(s) => h.bytes(s.as_bytes()),
                    }
                }
            }
        }
    }
    h.0
}

/// The answer to `query` derived one row at a time.
pub fn reference(db: &Database, query: &Query) -> EngineResult<ResultSet> {
    match query {
        Query::Count { table, filter } => {
            let t = db.table(table)?;
            Ok(ResultSet::Count(matching_rows(&t, filter)?.len() as u64))
        }
        Query::Histogram {
            table,
            bins,
            filter,
        } => {
            let t = db.table(table)?;
            let column = t.column(&bins.column)?;
            let mut hist = Histogram::zeros(bins.bucket_count());
            for row in matching_rows(&t, filter)? {
                if let Some(bin) = column.f64_at(row).and_then(|x| bins.bin_of(x)) {
                    hist.bump(bin);
                }
            }
            Ok(ResultSet::Histogram(hist))
        }
        Query::Select(spec) => {
            let t = db.table(&spec.table)?;
            let mut rows = Vec::new();
            for row in matching_rows(&t, &spec.filter)?
                .into_iter()
                .skip(spec.offset)
                .take(spec.limit.unwrap_or(usize::MAX))
            {
                let cells: EngineResult<Vec<Value>> = if spec.projection.is_empty() {
                    t.column_names().map(|c| t.value(row, c)).collect()
                } else {
                    spec.projection
                        .iter()
                        .map(|p| match p {
                            Projection::Column(c) => t.value(row, c),
                            Projection::Concat(_) => unreachable!("streams project plain columns"),
                        })
                        .collect()
                };
                rows.push(cells?);
            }
            Ok(ResultSet::Rows(rows))
        }
        Query::Join(_) => unreachable!("the SQL surface has no join"),
    }
}

fn matching_rows(table: &Table, filter: &Predicate) -> EngineResult<Vec<usize>> {
    let mut rows = Vec::new();
    for row in 0..table.rows() {
        if filter.matches(table, row)? {
            rows.push(row);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::exec::run_query;
    use ids_engine::BinSpec;
    use ids_workload::datasets;

    #[test]
    fn reference_agrees_with_the_engine_on_every_shape() {
        let db = Database::new();
        db.register(datasets::road_network_sized(5, 3_000));
        db.register(datasets::movies_sized(5, 250));
        let brush = Predicate::and([
            Predicate::between("x", 8.5, 10.5),
            Predicate::between("z", 0.0, 60.0),
        ]);
        let queries = [
            Query::count("dataroad", brush.clone()),
            Query::histogram("dataroad", BinSpec::new("y", 56.582, 57.774, 20), brush),
            Query::select(
                "imdb",
                vec![Projection::column("title"), Projection::column("rating")],
                Predicate::True,
                Some(100),
                200,
            ),
            Query::select("imdb", Vec::new(), Predicate::ge("rating", 8.0), Some(7), 3),
        ];
        for q in &queries {
            let (engine, _) = run_query(&db, q).unwrap();
            let naive = reference(&db, q).unwrap();
            assert_eq!(engine, naive, "{q}");
            assert_eq!(digest(&engine), digest(&naive));
            assert!(!engine.is_empty(), "{q}");
        }
    }

    #[test]
    fn digest_tells_answers_apart() {
        let a = ResultSet::Histogram(Histogram::from_counts(vec![1, 2, 3]));
        let b = ResultSet::Histogram(Histogram::from_counts(vec![1, 3, 2]));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&ResultSet::Count(3)), digest(&ResultSet::Count(4)));
        assert_ne!(
            digest(&ResultSet::Count(0)),
            digest(&ResultSet::Rows(Vec::new()))
        );
    }
}
