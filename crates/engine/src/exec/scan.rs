//! Filtered, projected, paginated scans.
//!
//! A page resolves its columns once: before any row is built, every
//! projection — `*` as every column in schema order — becomes the
//! [`Column`]s it reads, in projection order, so an unknown column fails
//! even an empty page. Each cell is then read by position, not looked up
//! by name. A join's rows resolve the same way, against both its tables.

use std::fmt::Write;
use std::sync::Arc;

use crate::column::Column;
use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::predicate::Predicate;
use crate::query::{page_window, ConcatPart, Projection, SelectSpec};
use crate::result::{ResultSet, Row};
use crate::table::Table;
use crate::value::Value;

/// Executes `SELECT <projection> FROM t WHERE <filter> LIMIT l OFFSET o`.
///
/// With a trivial (`TRUE`) filter the scan terminates early after
/// `offset + limit` rows, like a sequential scan feeding a `LIMIT` node;
/// with a real filter every row must be tested, which the footprint
/// reflects.
pub fn run_select(table: &Table, spec: &SelectSpec) -> EngineResult<(ResultSet, QueryFootprint)> {
    let mut footprint = QueryFootprint::default();

    let selected: Vec<usize> = match &spec.filter {
        Predicate::True => {
            let window = page_window(spec.limit, spec.offset, table.rows());
            footprint.rows_scanned = window.end as u64;
            footprint.rows_matched = window.end as u64;
            window.collect()
        }
        filter => {
            // Vectorized path: evaluate the filter into a selection
            // bitmask, then materialize row ids only for the requested
            // page instead of for every match.
            let sel;
            (sel, footprint, _) = super::filter_rows(table, filter)?;
            let take = match spec.limit {
                Some(l) => l.min(sel.count().saturating_sub(spec.offset)),
                None => sel.count().saturating_sub(spec.offset),
            };
            sel.iter().skip(spec.offset).take(take).collect()
        }
    };

    let resolved = resolve(&[table], &spec.projection)?;
    let rows: Vec<Row> = selected
        .iter()
        .map(|&r| project(&resolved, |_| r))
        .collect();
    footprint.rows_output = rows.len() as u64;
    Ok((ResultSet::Rows(rows), footprint))
}

/// A projection resolved against the tables a query reads: each column
/// as the position of its table in that list and the column itself.
pub(super) enum Resolved<'a> {
    /// The column's value, typed as stored.
    Column(usize, &'a Column),
    /// The parts' text, concatenated.
    Concat(Vec<Part<'a>>),
}

/// A resolved [`ConcatPart`].
pub(super) enum Part<'a> {
    Column(usize, &'a Column),
    Literal(&'a str),
}

/// Resolves a projection once (see the module doc) against `tables`: a
/// name reads the first table that has it, and `*` is every column of
/// each table in turn. A name no table has fails with the last table's
/// [`UnknownColumn`](crate::error::EngineError::UnknownColumn).
pub(super) fn resolve<'a>(
    tables: &[&'a Table],
    projection: &'a [Projection],
) -> EngineResult<Vec<Resolved<'a>>> {
    if projection.is_empty() {
        return Ok(tables
            .iter()
            .enumerate()
            .flat_map(|(t, table)| {
                (0..table.width()).map(move |c| Resolved::Column(t, table.column_at(c)))
            })
            .collect());
    }
    let last = tables.len() - 1;
    let column =
        |name: &str| match (0..last).find_map(|t| tables[t].column(name).ok().map(|c| (t, c))) {
            Some(found) => Ok(found),
            None => tables[last].column(name).map(|c| (last, c)),
        };
    projection
        .iter()
        .map(|p| {
            Ok(match p {
                Projection::Column(c) => {
                    let (t, c) = column(c)?;
                    Resolved::Column(t, c)
                }
                Projection::Concat(parts) => Resolved::Concat(
                    parts
                        .iter()
                        .map(|part| match part {
                            ConcatPart::Column(c) => column(c).map(|(t, c)| Part::Column(t, c)),
                            ConcatPart::Literal(l) => Ok(Part::Literal(l)),
                        })
                        .collect::<EngineResult<_>>()?,
                ),
            })
        })
        .collect()
}

/// Builds one output row, reading row `row(t)` of the `t`-th table.
pub(super) fn project(resolved: &[Resolved], row: impl Fn(usize) -> usize) -> Row {
    let value = |p: &Resolved| match *p {
        Resolved::Column(t, c) => c.value(row(t)),
        Resolved::Concat(ref parts) => {
            let mut s = String::new();
            for part in parts {
                match *part {
                    Part::Column(t, c) => {
                        write!(s, "{}", c.value(row(t))).expect("a String takes any write")
                    }
                    Part::Literal(l) => s.push_str(l),
                }
            }
            Value::Str(Arc::from(s))
        }
    };
    resolved.iter().map(value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::error::EngineError;
    use crate::table::TableBuilder;
    use ids_simclock::rng::{check, SimRng};

    fn movies() -> Table {
        TableBuilder::new("imdb")
            .column("id", ColumnBuilder::int(0..10))
            .column(
                "title",
                ColumnBuilder::str((0..10).map(|i| format!("m{i}"))),
            )
            .column("year", ColumnBuilder::int((0..10).map(|i| 2000 + i)))
            .column("rating", ColumnBuilder::float((0..10).map(|i| i as f64)))
            .build()
            .unwrap()
    }

    fn spec(limit: Option<usize>, offset: usize) -> SelectSpec {
        SelectSpec {
            table: "imdb".into(),
            projection: vec![
                Projection::title_with_year("title", "year"),
                Projection::column("rating"),
            ],
            filter: Predicate::True,
            limit,
            offset,
        }
    }

    #[test]
    fn limit_offset_pagination() {
        let t = movies();
        let (rs, fp) = run_select(&t, &spec(Some(3), 2)).unwrap();
        let rows = rs.rows().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0].as_str(), Some("m2(2002)"));
        assert_eq!(rows[2][1].as_f64(), Some(4.0));
        // Early termination: only offset+limit rows scanned.
        assert_eq!(fp.rows_scanned, 5);
        assert_eq!(fp.rows_output, 3);
    }

    #[test]
    fn offset_beyond_table_is_empty() {
        let t = movies();
        let (rs, fp) = run_select(&t, &spec(Some(5), 100)).unwrap();
        assert!(rs.rows().unwrap().is_empty());
        assert_eq!(fp.rows_output, 0);
    }

    #[test]
    fn no_limit_returns_rest() {
        let t = movies();
        let (rs, _) = run_select(&t, &spec(None, 7)).unwrap();
        assert_eq!(rs.rows().unwrap().len(), 3);
    }

    #[test]
    fn filtered_scan_touches_all_rows() {
        let t = movies();
        let s = SelectSpec {
            filter: Predicate::between("rating", 4.0, 8.0),
            ..spec(Some(2), 1)
        };
        let (rs, fp) = run_select(&t, &s).unwrap();
        let rows = rs.rows().unwrap();
        // ratings 4..=8 match (5 rows); offset 1, limit 2 → ratings 5, 6.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1].as_f64(), Some(5.0));
        assert_eq!(fp.rows_scanned, 10);
        assert_eq!(fp.rows_matched, 5);
    }

    #[test]
    fn empty_projection_returns_all_columns() {
        let t = movies();
        let s = SelectSpec {
            projection: vec![],
            ..spec(Some(1), 0)
        };
        let (rs, _) = run_select(&t, &s).unwrap();
        assert_eq!(rs.rows().unwrap()[0].len(), 4);
    }

    #[test]
    fn unknown_projection_column_errors() {
        let t = movies();
        let s = SelectSpec {
            projection: vec![Projection::column("nope")],
            ..spec(Some(1), 0)
        };
        assert!(run_select(&t, &s).is_err());
    }

    #[test]
    fn pagination_partitions_table() {
        let t = movies();
        let mut seen = vec![];
        let mut offset = 0;
        loop {
            let (rs, _) = run_select(&t, &spec(Some(4), offset)).unwrap();
            let rows = rs.rows().unwrap();
            if rows.is_empty() {
                break;
            }
            seen.extend(rows.iter().map(|r| r[0].as_str().unwrap().to_string()));
            offset += 4;
        }
        assert_eq!(seen.len(), 10);
        let expected: Vec<String> = (0..10).map(|i| format!("m{i}({})", 2000 + i)).collect();
        assert_eq!(seen, expected);
    }

    /// The page `spec` asks for, built the long way: the filter's rows
    /// one at a time, every projected column checked in projection order
    /// before any row, and every cell looked up by name.
    fn reference(t: &Table, spec: &SelectSpec) -> EngineResult<Vec<Row>> {
        let projection = match spec.projection.as_slice() {
            [] => t.column_names().map(Projection::column).collect(),
            list => list.to_vec(),
        };
        for c in projection.iter().flat_map(Projection::referenced_columns) {
            t.column(c)?;
        }
        let matched = spec.filter.select(t)?;
        let page = matched.into_iter().skip(spec.offset);
        page.take(spec.limit.unwrap_or(usize::MAX))
            .map(|r| {
                let cell = |p: &Projection| match p {
                    Projection::Column(c) => t.value(r, c),
                    Projection::Concat(parts) => Ok(Value::from(
                        parts
                            .iter()
                            .map(|part| match part {
                                ConcatPart::Column(c) => Ok(t.value(r, c)?.to_string()),
                                ConcatPart::Literal(l) => Ok(l.to_string()),
                            })
                            .collect::<EngineResult<String>>()?,
                    )),
                };
                projection.iter().map(cell).collect()
            })
            .collect()
    }

    /// A random page of `movies()`: `*` or 1–4 projections (columns,
    /// repeats allowed, and concatenations with literals), a quarter of
    /// the time with an unknown `nope` (and maybe a later unknown) at a
    /// random position, under `TRUE` or a filter, and any `LIMIT`/`OFFSET`
    /// up to past the end.
    fn gen_spec(rng: &mut SimRng) -> SelectSpec {
        const NAMES: &[&str] = &["id", "title", "year", "rating"];
        const LITERALS: &[&str] = &["(", ")", "", " – ", "ü"];
        let below = |rng: &mut SimRng, n: usize| rng.uniform_usize(0, n);
        let pick = |rng: &mut SimRng, from: &[&'static str]| from[below(rng, from.len())];
        let part = |rng: &mut SimRng| match below(rng, 2) {
            0 => ConcatPart::Column(pick(rng, NAMES).into()),
            _ => ConcatPart::Literal(pick(rng, LITERALS).into()),
        };
        let mut projection: Vec<Projection> = match below(rng, 4) {
            0 => Vec::new(),
            _ => (0..1 + below(rng, 4))
                .map(|_| match below(rng, 3) {
                    0 => Projection::Concat((0..2 + below(rng, 3)).map(|_| part(rng)).collect()),
                    _ => Projection::column(pick(rng, NAMES)),
                })
                .collect(),
        };
        if below(rng, 4) == 0 {
            let nope = match below(rng, 2) {
                0 => Projection::column("nope"),
                _ => Projection::title_with_year("title", "nope"),
            };
            projection.insert(below(rng, projection.len() + 1), nope);
            if below(rng, 2) == 0 {
                projection.push(Projection::column("later"));
            }
        }
        let filter = match below(rng, 3) {
            0 => Predicate::True,
            1 => Predicate::between("rating", below(rng, 10) as f64, 7.5),
            _ => Predicate::eq("title", pick(rng, &["m3", "m9", "none"])),
        };
        SelectSpec {
            table: "imdb".into(),
            projection,
            filter,
            limit: (below(rng, 3) > 0).then(|| below(rng, 14)),
            offset: below(rng, 14),
        }
    }

    /// A page built from resolved columns equals the cell-by-cell
    /// reference, values typed alike; an unknown column anywhere fails
    /// with the first unknown name, even on an empty page.
    #[test]
    fn resolved_page_equals_cell_by_cell_evaluation() {
        let t = movies();
        let mut unknown_on_empty_page = 0;
        check(
            "resolved_page_equals_cell_by_cell_evaluation",
            0..500,
            |rng| {
                let spec = gen_spec(rng);
                let got = run_select(&t, &spec).map(|(rs, _)| rs.rows().unwrap().to_vec());
                let expected = reference(&t, &spec);
                assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{spec:?}");
                if spec
                    .projection
                    .iter()
                    .any(|p| p.referenced_columns().contains(&"nope"))
                {
                    let nope = EngineError::UnknownColumn {
                        table: "imdb".into(),
                        column: "nope".into(),
                    };
                    assert_eq!(got.unwrap_err(), nope, "{spec:?}");
                    let matched = spec.filter.select(&t).unwrap().len();
                    if spec.limit == Some(0) || spec.offset >= matched {
                        unknown_on_empty_page += 1;
                    }
                }
            },
        );
        assert!(unknown_on_empty_page >= 10, "{unknown_on_empty_page}");
    }
}
