//! The merge rule of distributed execution.
//!
//! A row-partitioned plan can only distribute *mergeable* aggregates:
//! COUNTs sum and histograms sum bin-wise. The cluster that applies this
//! rule (partitioning, scatter-gather, coordination cost) lives in
//! `ids-shard`.

use crate::error::{EngineError, EngineResult};
use crate::result::{Histogram, ResultSet};

/// Merges two mergeable partial results: COUNT sums, histograms sum
/// bin-wise. Partials must be merged in *fixed shard order* — `u64`
/// sums commute, but keeping one canonical order is what lets every
/// layer assert byte-identical output instead of arguing about it.
pub fn merge_partials(a: ResultSet, b: ResultSet) -> EngineResult<ResultSet> {
    match (a, b) {
        (ResultSet::Count(x), ResultSet::Count(y)) => Ok(ResultSet::Count(x + y)),
        (ResultSet::Histogram(x), ResultSet::Histogram(y)) => {
            if x.bins() != y.bins() {
                return Err(EngineError::InvalidBinSpec(
                    "partition histograms disagree on bin count".into(),
                ));
            }
            let counts = x
                .counts()
                .iter()
                .zip(y.counts())
                .map(|(&p, &q)| p + q)
                .collect();
            Ok(ResultSet::Histogram(Histogram::from_counts(counts)))
        }
        _ => Err(EngineError::TypeMismatch {
            column: "<merge>".into(),
            expected: "matching partial result shapes",
        }),
    }
}
