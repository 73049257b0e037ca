//! The KL optimization (Algorithm 2): only execute queries whose results
//! differ enough from what the user is already seeing.
//!
//! Adjacent crossfilter queries usually return near-identical histograms —
//! the user nudged a slider by a pixel. Before sending a query to the
//! database, its result histogram is *approximated* from a fixed row
//! sample ([`HistogramSketch`], the paper cites hash/sampling/wavelet
//! sketches); if the Kullback–Leibler divergence from the previously
//! displayed result is at or below a threshold, the query is dropped
//! ([`Policy::Kl`](crate::Policy::Kl) over [`replay`](crate::replay())).
//! `KL > 0` drops exact repeats; `KL > 0.2` (a human-perception-scale
//! threshold, per the graphical-perception study the paper cites) drops
//! imperceptible changes too.

use ids_engine::exec::run_histogram;
use ids_engine::{EngineError, EngineResult, Histogram, Query, ResultSet, Table};
use ids_simclock::rng::SimRng;
use ids_workload::crossfilter::QueryGroup;

/// The KL threshold the paper uses for perceptible change.
pub const PERCEPTIBLE_KL: f64 = 0.2;

/// Quantized, smoothed KL divergence between two histograms (Eq 1).
///
/// Distributions are smoothed with a small epsilon so empty bins do not
/// produce infinities; `KL = 0` iff the histograms have identical
/// normalized shapes. Histograms of different bin counts are
/// incomparable and return `f64::INFINITY`.
pub fn kl_divergence(p: &Histogram, q: &Histogram) -> f64 {
    if p.bins() != q.bins() {
        return f64::INFINITY;
    }
    kl_of_dists(&p.to_distribution(), &q.to_distribution())
}

pub(crate) fn kl_of_dists(p: &[f64], q: &[f64]) -> f64 {
    const EPS: f64 = 1e-9;
    let norm = |d: &[f64]| {
        let total: f64 = d.iter().map(|x| x + EPS).sum();
        d.iter().map(|x| (x + EPS) / total).collect::<Vec<f64>>()
    };
    let ps = norm(p);
    let qs = norm(q);
    ps.iter()
        .zip(qs.iter())
        .map(|(&pi, &qi)| pi * (pi / qi).ln())
        .sum::<f64>()
        .max(0.0)
}

/// A fixed row sample of one table, used to approximate histogram-query
/// results without touching the database.
#[derive(Debug, Clone)]
pub struct HistogramSketch {
    /// The sampled rows, as a table of the same name and schema.
    sample: Table,
}

impl HistogramSketch {
    /// Samples `sample_size` rows of `table` (without replacement when
    /// the table is larger, with clamping otherwise).
    pub fn new(table: Table, sample_size: usize, seed: u64) -> HistogramSketch {
        let mut rng = SimRng::seed(seed).split("kl/sketch");
        let n = table.rows();
        let k = sample_size.min(n);
        // Partial Fisher-Yates over indices for an unbiased sample.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.uniform_usize(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        HistogramSketch {
            sample: table.take(&idx),
        }
    }

    /// Number of sampled rows.
    pub fn sample_size(&self) -> usize {
        self.sample.rows()
    }

    /// Approximates a histogram query's result over the sample. Only
    /// `Query::Histogram` against the sketched table is supported.
    pub fn approx(&self, query: &Query) -> EngineResult<Histogram> {
        let Query::Histogram {
            table,
            bins,
            filter,
        } = query
        else {
            return Err(EngineError::InvalidBinSpec(
                "sketch approximation only supports histogram queries".into(),
            ));
        };
        if table.as_ref() != self.sample.name() {
            return Err(EngineError::UnknownTable(table.to_string()));
        }
        let (ResultSet::Histogram(hist), _) = run_histogram(&self.sample, bins, filter)? else {
            unreachable!("run_histogram answers with a histogram");
        };
        Ok(hist)
    }

    /// Approximate signature of a whole query group: the concatenated
    /// distributions of its member histograms.
    pub fn group_signature(&self, group: &QueryGroup) -> EngineResult<Vec<f64>> {
        let mut sig = Vec::new();
        for q in &group.queries {
            sig.extend(self.approx(q)?.to_distribution());
        }
        Ok(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{group_cost, replay, Policy, ReplayOutcome};
    use ids_engine::{Backend, BinSpec, ColumnBuilder, MemBackend, Predicate, TableBuilder};
    use ids_simclock::SimTime;

    fn table(n: usize) -> Table {
        // y is correlated with x (y = x/2), so restricting x genuinely
        // reshapes the y histogram — as with real clustered data.
        TableBuilder::new("dataroad")
            .column("x", ColumnBuilder::float((0..n).map(|i| i as f64 % 100.0)))
            .column(
                "y",
                ColumnBuilder::float((0..n).map(|i| (i as f64 % 100.0) / 2.0)),
            )
            .build()
            .unwrap()
    }

    fn hist_query(lo: f64, hi: f64) -> Query {
        Query::histogram(
            "dataroad",
            BinSpec::new("y", 0.0, 50.0, 20),
            Predicate::between("x", lo, hi),
        )
    }

    fn group(at_ms: u64, lo: f64, hi: f64) -> QueryGroup {
        QueryGroup {
            at: SimTime::from_millis(at_ms),
            slider: 0,
            queries: vec![hist_query(lo, hi)],
        }
    }

    #[test]
    fn kl_properties() {
        let a = Histogram::from_counts(vec![10, 20, 30]);
        let b = Histogram::from_counts(vec![10, 20, 30]);
        let c = Histogram::from_counts(vec![30, 20, 10]);
        assert!(kl_divergence(&a, &b) < 1e-9, "identical → 0");
        assert!(kl_divergence(&a, &c) > 0.1, "different → positive");
        // Scale invariance of shapes.
        let a2 = Histogram::from_counts(vec![100, 200, 300]);
        assert!(kl_divergence(&a, &a2) < 1e-6);
        // Mismatched bins are incomparable.
        let d = Histogram::from_counts(vec![1, 2]);
        assert_eq!(kl_divergence(&a, &d), f64::INFINITY);
    }

    #[test]
    fn kl_is_nonnegative_on_random_histograms() {
        let mut rng = SimRng::seed(5);
        for _ in 0..200 {
            let a =
                Histogram::from_counts((0..8).map(|_| rng.uniform_usize(0, 50) as u64).collect());
            let b =
                Histogram::from_counts((0..8).map(|_| rng.uniform_usize(0, 50) as u64).collect());
            assert!(kl_divergence(&a, &b) >= 0.0);
        }
    }

    #[test]
    fn sketch_approximates_true_histogram() {
        let t = table(50_000);
        let backend = MemBackend::new();
        backend.database().register(t.clone());
        let sketch = HistogramSketch::new(t, 4_000, 7);
        let q = hist_query(10.0, 60.0);
        let exact = backend.execute(&q).unwrap();
        let approx = sketch.approx(&q).unwrap();
        let kl = kl_divergence(&approx, exact.result.histogram().unwrap());
        assert!(kl < 0.05, "sketch diverges from exact by {kl}");
    }

    /// The executor's answer over the sample against the arithmetic it
    /// replaced here: one `matches` + `bin_of` per sampled row.
    #[test]
    fn approx_equals_the_per_row_count_over_the_sample() {
        let t = table(5_000);
        let bins = BinSpec::new("y", 0.0, 50.0, 20);
        let three_ranges = Predicate::and(vec![
            Predicate::between("x", 10.0, 60.0),
            Predicate::between("y", 2.0, 40.0),
            Predicate::between("x", 5.0, 90.0),
        ]);
        let nothing = Predicate::between("x", 200.0, 300.0);
        for sample_size in [700, 5_000, 9_000] {
            let sketch = HistogramSketch::new(t.clone(), sample_size, 11);
            let sample = &sketch.sample;
            assert_eq!(sample.rows(), sample_size.min(5_000));
            let y = sample.column("y").unwrap();
            for (filter, matches_any) in [(&three_ranges, true), (&nothing, false)] {
                let mut expected = Histogram::zeros(bins.bucket_count());
                for row in 0..sample.rows() {
                    if filter.matches(sample, row).unwrap() {
                        if let Some(b) = y.f64_at(row).and_then(|v| bins.bin_of(v)) {
                            expected.bump(b);
                        }
                    }
                }
                assert_eq!(expected.total() > 0, matches_any);
                let q = Query::histogram("dataroad", bins.clone(), filter.clone());
                assert_eq!(sketch.approx(&q).unwrap(), expected);
            }
        }
    }

    #[test]
    fn sketch_rejects_wrong_shapes() {
        let t = table(100);
        let sketch = HistogramSketch::new(t, 50, 1);
        assert!(sketch
            .approx(&Query::count("dataroad", Predicate::True))
            .is_err());
        let other = Query::histogram(
            "other_table",
            BinSpec::new("y", 0.0, 50.0, 10),
            Predicate::True,
        );
        assert!(sketch.approx(&other).is_err());
    }

    fn replay_kl(
        backend: &MemBackend,
        groups: &[QueryGroup],
        sketch: &HistogramSketch,
        threshold: f64,
    ) -> ReplayOutcome {
        let policy = Policy::Kl { sketch, threshold };
        replay(backend.name(), groups, policy, group_cost(backend)).unwrap()
    }

    #[test]
    fn kl_replay_skips_near_identical_groups() {
        let t = table(20_000);
        let backend = MemBackend::new();
        backend.database().register(t.clone());
        let sketch = HistogramSketch::new(t, 3_000, 3);
        // Tiny nudges: ranges differ by 0.01 — imperceptible.
        let groups: Vec<QueryGroup> = (0..20)
            .map(|i| group(20 * (i as u64 + 1), 10.0, 60.0 + i as f64 * 0.01))
            .collect();
        let strict = replay_kl(&backend, &groups, &sketch, PERCEPTIBLE_KL);
        assert!(
            strict.skipped() >= 18,
            "KL>0.2 should drop nudges, skipped {}",
            strict.skipped()
        );
        // First group always executes.
        assert_eq!(strict.executed[0].tag, 0);
    }

    #[test]
    fn kl_replay_keeps_real_changes() {
        let t = table(20_000);
        let backend = MemBackend::new();
        backend.database().register(t.clone());
        let sketch = HistogramSketch::new(t, 3_000, 3);
        // Large jumps: each group halves the range.
        let groups: Vec<QueryGroup> = vec![
            group(20, 0.0, 99.0),
            group(40, 0.0, 45.0),
            group(60, 0.0, 20.0),
            group(80, 0.0, 8.0),
        ];
        let out = replay_kl(&backend, &groups, &sketch, PERCEPTIBLE_KL);
        assert_eq!(out.skipped(), 0, "perceptible changes must all execute");
    }

    #[test]
    fn threshold_zero_skips_only_exact_repeats() {
        let t = table(20_000);
        let backend = MemBackend::new();
        backend.database().register(t.clone());
        let sketch = HistogramSketch::new(t, 2_000, 3);
        let groups: Vec<QueryGroup> = vec![
            group(20, 10.0, 60.0),
            group(40, 10.0, 60.0), // exact repeat
            group(60, 10.0, 30.0),
        ];
        let out = replay_kl(&backend, &groups, &sketch, 0.0);
        assert_eq!(out.skipped(), 1);
        assert!(out.executed.iter().all(|t| t.tag != 1));
    }

    #[test]
    fn sample_size_clamps_to_table() {
        let t = table(10);
        let sketch = HistogramSketch::new(t, 1_000, 1);
        assert_eq!(sketch.sample_size(), 10);
    }
}
