//! Filtered, projected, paginated scans.

use std::sync::Arc;

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
            (sel, footprint) = super::filter_rows(table, filter)?;
            let take = match spec.limit {
                Some(l) => l.min(sel.count().saturating_sub(spec.offset)),
                None => sel.count().saturating_sub(spec.offset),
            };
            sel.iter().skip(spec.offset).take(take).collect()
        }
    };

    let rows = project_rows(table, &selected, &spec.projection)?;
    footprint.rows_output = rows.len() as u64;
    Ok((ResultSet::Rows(rows), footprint))
}

/// Materializes projected rows for the given row indices.
fn project_rows(
    table: &Table,
    rows: &[usize],
    projection: &[Projection],
) -> EngineResult<Vec<Row>> {
    // Empty projection means "all columns".
    if projection.is_empty() {
        let width = table.width();
        return Ok(rows
            .iter()
            .map(|&r| (0..width).map(|c| table.column_at(c).value(r)).collect())
            .collect());
    }
    // Validate column references once, not per row.
    for p in projection {
        for c in p.referenced_columns() {
            table.column(c)?;
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    for &r in rows {
        let mut row = Vec::with_capacity(projection.len());
        for p in projection {
            row.push(eval_projection(table, r, p)?);
        }
        out.push(row);
    }
    Ok(out)
}

fn eval_projection(table: &Table, row: usize, p: &Projection) -> EngineResult<Value> {
    match p {
        Projection::Column(c) => table.value(row, c),
        Projection::Concat(parts) => {
            let mut s = String::new();
            for part in parts {
                match part {
                    ConcatPart::Column(c) => {
                        let v = table.value(row, c)?;
                        s.push_str(&v.to_string());
                    }
                    ConcatPart::Literal(l) => s.push_str(l),
                }
            }
            Ok(Value::Str(Arc::from(s)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::table::TableBuilder;

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
}
