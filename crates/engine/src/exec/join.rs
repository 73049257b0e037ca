//! Hash join over a paginated subquery.
//!
//! Implements the streaming-join shape from case study 1 (Q2):
//!
//! ```sql
//! SELECT ... FROM (
//!   (SELECT id, rating FROM imdbrating LIMIT k OFFSET n) tmp
//!   INNER JOIN movie ON tmp.id = movie.id
//! )
//! ```
//!
//! The left (paginated) side builds the hash table — it is the small side
//! by construction — and the right table probes it.

use std::collections::HashMap;

use crate::column::{Column, ZONE_BLOCK_ROWS};
use crate::cost::QueryFootprint;
use crate::error::{EngineError, EngineResult};
use crate::query::{page_window, JoinSpec};
use crate::result::{ResultSet, Row};
use crate::table::Table;

use super::scan::{project, resolve};

/// Executes a paginated-subquery inner join.
pub fn run_join(
    left: &Table,
    right: &Table,
    spec: &JoinSpec,
) -> EngineResult<(ResultSet, QueryFootprint)> {
    let left_key = int_key_column(left, &spec.left_key)?;
    let right_key = int_key_column(right, &spec.right_key)?;
    // Column references resolve against the left table first, then the
    // right (matching the unqualified names in the paper's SQL, where
    // projected columns come from the `movie` side).
    let resolved = resolve(&[left, right], &spec.projection)?;

    // Page the left side: rows offset..offset+limit.
    let page = page_window(spec.limit, spec.offset, left.rows());

    // Build phase over the paginated slice.
    let mut build: HashMap<i64, Vec<usize>> = HashMap::with_capacity(page.len());
    for (row, key) in left_key.iter().enumerate().take(page.end).skip(page.start) {
        build.entry(*key).or_default().push(row);
    }

    // Fused filter+probe over the full right table: the probe walks the
    // right key column block-wise, skipping zone-map blocks whose
    // [min, max] cannot intersect the build keys' range, and emits
    // (left, right) match pairs directly instead of a per-left-row map.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut blocks_pruned = 0u64;
    let mut blocks_scanned = 0u64;
    if !build.is_empty() {
        // Build-side key range in the zone maps' f64 domain. Equal keys
        // convert to equal floats, so rounding can never prune a block
        // that contains a genuine match.
        let bmin = *build.keys().min().expect("non-empty build") as f64;
        let bmax = *build.keys().max().expect("non-empty build") as f64;
        let key_idx = right.column_index(&spec.right_key)?;
        let zone_map = right.zone_map_at(key_idx);
        let mut blk_start = 0usize;
        let mut blk = 0usize;
        while blk_start < right_key.len() {
            let blk_end = (blk_start + ZONE_BLOCK_ROWS).min(right_key.len());
            let prunable = zone_map
                .and_then(|zm| zm.block(blk))
                .is_some_and(|z| z.max < bmin || z.min > bmax);
            if prunable {
                blocks_pruned += 1;
            } else {
                blocks_scanned += 1;
                for (r_row, key) in right_key.iter().enumerate().take(blk_end).skip(blk_start) {
                    if let Some(l_rows) = build.get(key) {
                        for &l_row in l_rows {
                            pairs.push((l_row, r_row));
                        }
                    }
                }
            }
            blk_start = blk_end;
            blk += 1;
        }
    }

    // Preserve left (pagination) order: a stable sort by left row keeps
    // each left row's right matches in probe (ascending) order, exactly
    // reproducing the row-at-a-time output.
    pairs.sort_by_key(|&(l_row, _)| l_row);
    let rows: Vec<Row> = pairs
        .into_iter()
        .map(|(l_row, r_row)| project(&resolved, |t| if t == 0 { l_row } else { r_row }))
        .collect();

    let footprint = QueryFootprint {
        rows_scanned: page.len() as u64 + right.rows() as u64,
        rows_matched: rows.len() as u64,
        build_rows: page.len() as u64,
        probe_rows: right.rows() as u64,
        rows_output: rows.len() as u64,
        blocks_pruned,
        blocks_scanned,
        ..QueryFootprint::default()
    };
    Ok((ResultSet::Rows(rows), footprint))
}

fn int_key_column<'t>(table: &'t Table, key: &str) -> EngineResult<&'t [i64]> {
    match table.column(key)? {
        Column::Int(v) => Ok(v),
        _ => Err(EngineError::TypeMismatch {
            column: key.to_string(),
            expected: "integer join key",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::query::Projection;
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn ratings() -> Table {
        TableBuilder::new("imdbrating")
            .column("id", ColumnBuilder::int(0..20))
            .column(
                "rating",
                ColumnBuilder::float((0..20).map(|i| i as f64 / 2.0)),
            )
            .build()
            .unwrap()
    }

    fn movie() -> Table {
        // Only even ids exist on the movie side.
        TableBuilder::new("movie")
            .column("id", ColumnBuilder::int((0..10).map(|i| i * 2)))
            .column(
                "title",
                ColumnBuilder::str((0..10).map(|i| format!("t{}", i * 2))),
            )
            .build()
            .unwrap()
    }

    fn spec(limit: Option<usize>, offset: usize) -> JoinSpec {
        JoinSpec {
            left: "imdbrating".into(),
            right: "movie".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![Projection::column("title"), Projection::column("rating")],
            limit,
            offset,
        }
    }

    #[test]
    fn join_pages_the_left_side() {
        let (l, r) = (ratings(), movie());
        // Left rows 4..8 → ids 4,5,6,7; evens 4 and 6 match.
        let (rs, fp) = run_join(&l, &r, &spec(Some(4), 4)).unwrap();
        let rows = rs.rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].as_str(), Some("t4"));
        assert_eq!(rows[0][1].as_f64(), Some(2.0));
        assert_eq!(rows[1][0].as_str(), Some("t6"));
        assert_eq!(fp.build_rows, 4);
        assert_eq!(fp.probe_rows, 10);
    }

    #[test]
    fn join_without_limit_matches_all_evens() {
        let (l, r) = (ratings(), movie());
        let (rs, _) = run_join(&l, &r, &spec(None, 0)).unwrap();
        assert_eq!(rs.rows().unwrap().len(), 10);
    }

    #[test]
    fn join_preserves_left_pagination_order() {
        let (l, r) = (ratings(), movie());
        let (rs, _) = run_join(&l, &r, &spec(Some(10), 0)).unwrap();
        let titles: Vec<&str> = rs
            .rows()
            .unwrap()
            .iter()
            .map(|row| row[0].as_str().unwrap())
            .collect();
        assert_eq!(titles, vec!["t0", "t2", "t4", "t6", "t8"]);
    }

    #[test]
    fn join_offset_past_end_is_empty() {
        let (l, r) = (ratings(), movie());
        let (rs, _) = run_join(&l, &r, &spec(Some(5), 99)).unwrap();
        assert!(rs.rows().unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_produce_cross_matches() {
        let l = TableBuilder::new("l")
            .column("id", ColumnBuilder::int([1, 1]))
            .build()
            .unwrap();
        let r = TableBuilder::new("r")
            .column("id", ColumnBuilder::int([1, 1, 1]))
            .build()
            .unwrap();
        let spec = JoinSpec {
            left: "l".into(),
            right: "r".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![],
            limit: None,
            offset: 0,
        };
        let (rs, _) = run_join(&l, &r, &spec).unwrap();
        assert_eq!(rs.rows().unwrap().len(), 6);
    }

    /// Right table smaller than the left page, duplicate keys on both
    /// sides, neither side sorted: output pairs must come out in the
    /// row-at-a-time nested-loop order, `(left asc, right asc)`.
    #[test]
    fn small_right_table_keeps_left_then_right_order() {
        let left_rows = 5000usize;
        let right_rows = 100usize;
        let l_keys: Vec<i64> = (0..left_rows).map(|i| (i as i64 * 37) % 61).collect();
        let r_keys: Vec<i64> = (0..right_rows).map(|i| (i as i64 * 13) % 41).collect();
        let l = TableBuilder::new("l")
            .column("id", ColumnBuilder::int(l_keys.iter().copied()))
            .column("lrow", ColumnBuilder::int(0..left_rows as i64))
            .build()
            .unwrap();
        let r = TableBuilder::new("r")
            .column("id", ColumnBuilder::int(r_keys.iter().copied()))
            .column("rrow", ColumnBuilder::int(0..right_rows as i64))
            .build()
            .unwrap();
        for (limit, offset) in [(None, 0usize), (Some(3000usize), 1500)] {
            let spec = JoinSpec {
                left: "l".into(),
                right: "r".into(),
                left_key: "id".into(),
                right_key: "id".into(),
                projection: vec![Projection::column("lrow"), Projection::column("rrow")],
                limit,
                offset,
            };
            let end = limit.map_or(left_rows, |l| offset.saturating_add(l).min(left_rows));
            let mut expected = Vec::new();
            for (li, lk) in l_keys.iter().enumerate().take(end).skip(offset) {
                for (ri, rk) in r_keys.iter().enumerate() {
                    if lk == rk {
                        expected.push(vec![Value::Int(li as i64), Value::Int(ri as i64)]);
                    }
                }
            }
            assert!(right_rows < end - offset && !expected.is_empty());
            let (rs, fp) = run_join(&l, &r, &spec).unwrap();
            assert_eq!(rs.rows().unwrap(), &expected[..], "limit {limit:?}");
            assert_eq!(fp.build_rows, (end - offset) as u64);
            assert_eq!(fp.probe_rows, right_rows as u64);
        }
    }

    #[test]
    fn non_integer_key_errors() {
        let l = TableBuilder::new("l")
            .column("id", ColumnBuilder::str(["a"]))
            .build()
            .unwrap();
        let r = movie();
        let spec = JoinSpec {
            left: "l".into(),
            right: "r".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![],
            limit: None,
            offset: 0,
        };
        assert!(matches!(
            run_join(&l, &r, &spec),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn zone_pruning_skips_out_of_range_probe_blocks() {
        // Right side spans three 1024-row zone blocks; the build keys
        // land only in the middle one, so the probe must skip the first
        // and last without changing the join result.
        let l = TableBuilder::new("l")
            .column("id", ColumnBuilder::int(1500..1510))
            .build()
            .unwrap();
        let r = TableBuilder::new("r")
            .column("id", ColumnBuilder::int(0..3000))
            .build()
            .unwrap();
        let spec = JoinSpec {
            left: "l".into(),
            right: "r".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![],
            limit: None,
            offset: 0,
        };
        let (rs, fp) = run_join(&l, &r, &spec).unwrap();
        assert_eq!(rs.rows().unwrap().len(), 10);
        assert_eq!(fp.blocks_pruned, 2);
        assert_eq!(fp.blocks_scanned, 1);
        // Pruning must not discount the virtual probe cost.
        assert_eq!(fp.probe_rows, 3000);
    }

    #[test]
    fn concat_projection_resolves_across_sides() {
        let (l, r) = (ratings(), movie());
        let spec = JoinSpec {
            projection: vec![Projection::Concat(vec![
                crate::query::ConcatPart::Column("title".into()),
                crate::query::ConcatPart::Literal(":".into()),
                crate::query::ConcatPart::Column("rating".into()),
            ])],
            ..spec(Some(2), 0)
        };
        let (rs, _) = run_join(&l, &r, &spec).unwrap();
        assert_eq!(rs.rows().unwrap()[0][0].as_str(), Some("t0:0"));
    }

    /// A projected name neither table has fails before any pair is
    /// built, so even a join that matches nothing rejects it.
    #[test]
    fn unknown_projection_column_errors_without_a_match() {
        let (l, r) = (ratings(), movie());
        for (limit, offset) in [(Some(2), 0), (Some(5), 99)] {
            let spec = JoinSpec {
                projection: vec![Projection::column("title"), Projection::column("nope")],
                ..spec(limit, offset)
            };
            assert!(matches!(
                run_join(&l, &r, &spec),
                Err(EngineError::UnknownColumn { ref column, .. }) if column == "nope"
            ));
        }
    }
}
