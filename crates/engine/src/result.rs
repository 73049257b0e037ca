//! Query results: row sets and histograms.

use crate::value::Value;

/// One projected output row.
pub type Row = Vec<Value>;

/// A histogram result: per-bin counts, ordered by bin index.
///
/// This is the result shape of the crossfiltering queries
/// (`SELECT ROUND(..), COUNT(*) ... GROUP BY 1 ORDER BY 1`) and the input
/// to the KL-divergence optimization in `ids-opt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram from per-bin counts.
    pub fn from_counts(counts: Vec<u64>) -> Histogram {
        Histogram { counts }
    }

    /// An all-zero histogram with `bins` buckets.
    pub fn zeros(bins: usize) -> Histogram {
        Histogram {
            counts: vec![0; bins],
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bin counts, for a kernel that maintains them in place.
    pub(crate) fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total count across bins.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Increments a bin (used by the aggregator). Out-of-range bins are
    /// ignored rather than panicking — the bin spec already clamps, so a
    /// miss here means a malformed caller, not a user error.
    pub fn bump(&mut self, bin: usize) {
        if let Some(c) = self.counts.get_mut(bin) {
            *c += 1;
        }
    }

    /// Normalizes to a probability distribution. Empty histograms
    /// normalize to uniform, so downstream divergence computations stay
    /// finite.
    pub fn to_distribution(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            let n = self.bins().max(1);
            return vec![1.0 / n as f64; self.bins()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

/// The result of executing a [`crate::Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum ResultSet {
    /// Projected rows (Select / Join queries).
    Rows(Vec<Row>),
    /// Binned counts (Histogram queries).
    Histogram(Histogram),
    /// A single count (Count queries).
    Count(u64),
}

impl ResultSet {
    /// Number of result rows: row count, bin count, or 1 for a scalar.
    pub fn len(&self) -> usize {
        match self {
            ResultSet::Rows(r) => r.len(),
            ResultSet::Histogram(h) => h.bins(),
            ResultSet::Count(_) => 1,
        }
    }

    /// `true` for an empty row set or all-zero histogram.
    pub fn is_empty(&self) -> bool {
        match self {
            ResultSet::Rows(r) => r.is_empty(),
            ResultSet::Histogram(h) => h.total() == 0,
            ResultSet::Count(c) => *c == 0,
        }
    }

    /// The rows, if this is a row result.
    pub fn rows(&self) -> Option<&[Row]> {
        match self {
            ResultSet::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The histogram, if this is a histogram result.
    pub fn histogram(&self) -> Option<&Histogram> {
        match self {
            ResultSet::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The scalar count, if this is a count result.
    pub fn scalar_count(&self) -> Option<u64> {
        match self {
            ResultSet::Count(c) => Some(*c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_total() {
        let mut h = Histogram::zeros(3);
        h.bump(0);
        h.bump(2);
        h.bump(2);
        assert_eq!(h.counts(), &[1, 0, 2]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.bins(), 3);
    }

    #[test]
    fn distribution_normalizes() {
        let h = Histogram::from_counts(vec![1, 3]);
        let d = h.to_distribution();
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_is_uniform() {
        let h = Histogram::zeros(4);
        let d = h.to_distribution();
        assert!(d.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn result_set_accessors() {
        let rows = ResultSet::Rows(vec![vec![Value::Int(1)]]);
        assert_eq!(rows.len(), 1);
        assert!(!rows.is_empty());
        assert!(rows.rows().is_some());
        assert!(rows.histogram().is_none());

        let h = ResultSet::Histogram(Histogram::zeros(5));
        assert_eq!(h.len(), 5);
        assert!(h.is_empty());

        let c = ResultSet::Count(0);
        assert!(c.is_empty());
        assert_eq!(c.scalar_count(), Some(0));
    }
}
