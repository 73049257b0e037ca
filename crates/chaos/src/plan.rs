//! Seeded fault plans: *what* goes wrong, *when*, as pure data.
//!
//! A [`FaultPlan`] is built once (from an explicit DSL or from a seed +
//! intensity) and then only *queried*: every decision — is there a spike
//! at virtual time `t`? does occurrence `k` of query `q` fail? — is a
//! pure function of the plan. Nothing in here consumes randomness at
//! query time, so fault decisions cannot depend on execution order or
//! thread interleaving, which is what makes same-seed runs bit-identical
//! even under parallel execution.

use std::fmt;

use ids_engine::Query;
use ids_simclock::rng::{label_hash, splitmix64, SimRng};
use ids_simclock::{SimDuration, SimTime};

/// What a fault window does to queries executing inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Execution cost is multiplied by `factor` (> 1): a noisy neighbor,
    /// a compaction, a GC pause stretching every query.
    LatencySpike {
        /// Cost multiplier applied inside the window.
        factor: f64,
    },
    /// The backend is wedged: queries issued inside the window cannot
    /// finish before the window ends (the remaining stall time is added
    /// to their cost).
    Stall,
    /// The buffer pool is evicted when the window opens (cold restart of
    /// the cache mid-session).
    BufferPressure,
    /// Cluster node (or serving worker slot) `node` is unreachable for
    /// the duration of the window. Serving loops shrink their worker
    /// pool while the window is open and recover when it closes:
    /// degradation, not a wedge.
    NodeLoss {
        /// Index of the lost node / worker slot.
        node: usize,
    },
}

/// A half-open window `[start, end)` of virtual time with a fault active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window opening instant.
    pub start: SimTime,
    /// First instant past the window.
    pub end: SimTime,
    /// The fault active inside the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// `true` when `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A complete, immutable description of every fault a run will see.
///
/// Build one with [`FaultPlan::builder`] (explicit windows) or
/// [`FaultPlan::storm`] (seed + intensity → derived windows). The same
/// seed and parameters always yield the identical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    windows: Vec<FaultWindow>,
    /// Probability that any single execution attempt fails transiently.
    failure_rate: f64,
}

impl FaultPlan {
    /// A plan with no faults at all (the healthy baseline).
    pub fn calm(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            windows: Vec::new(),
            failure_rate: 0.0,
        }
    }

    /// Starts an explicit plan description.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::calm(seed),
        }
    }

    /// Derives a full storm from `(seed, intensity)` over `[0, horizon)`.
    ///
    /// `intensity` in `[0, 1]` scales every dimension at once: window
    /// count and width, spike factor, and transient-failure rate. Window
    /// *positions* depend only on the seed — not the intensity — so
    /// storms at increasing intensities are pointwise comparable: a
    /// higher-intensity storm is strictly harsher at every instant,
    /// which is what makes LCV monotone across a fault-intensity sweep.
    pub fn storm(seed: u64, intensity: f64, horizon: SimDuration) -> FaultPlan {
        let intensity = intensity.clamp(0.0, 1.0);
        if intensity == 0.0 || horizon.is_zero() {
            return FaultPlan::calm(seed);
        }
        let mut rng = SimRng::seed(seed).split("chaos/storm");
        let mut windows = Vec::new();
        // Four spike sites and two stall sites per horizon, positions
        // fixed by the seed; width and severity grow with intensity.
        let h = horizon.as_secs_f64();
        for i in 0..4 {
            let at = SimTime::from_secs_f64(rng.uniform(0.0, h * 0.9));
            let width = SimDuration::from_secs_f64(h * 0.08 * intensity);
            windows.push(FaultWindow {
                start: at,
                end: at + width,
                kind: FaultKind::LatencySpike {
                    factor: 1.0 + (3.0 + i as f64) * intensity,
                },
            });
        }
        for _ in 0..2 {
            let at = SimTime::from_secs_f64(rng.uniform(0.0, h * 0.9));
            let width = SimDuration::from_secs_f64(h * 0.04 * intensity);
            windows.push(FaultWindow {
                start: at,
                end: at + width,
                kind: FaultKind::Stall,
            });
        }
        let at = SimTime::from_secs_f64(rng.uniform(0.0, h * 0.9));
        windows.push(FaultWindow {
            start: at,
            end: at + SimDuration::from_secs_f64(h * 0.05 * intensity),
            kind: FaultKind::BufferPressure,
        });
        windows.sort_by_key(|w| (w.start, w.end));
        FaultPlan {
            seed,
            windows,
            failure_rate: 0.15 * intensity,
        }
    }

    /// A [`storm`](Self::storm) extended with recoverable node-loss
    /// windows for a serving pool of `workers` slots.
    ///
    /// On top of the storm's spikes, stalls, and transient failures, up
    /// to half the pool (scaled by intensity, always at least one node
    /// when the storm is live) drops out for a mid-run window and comes
    /// back. Node-loss draws use an independent RNG split, so the storm
    /// windows themselves are identical to [`FaultPlan::storm`]'s at the
    /// same `(seed, intensity)` — existing storm-based fixtures are
    /// unaffected by composing loss on top.
    pub fn storm_with_node_loss(
        seed: u64,
        intensity: f64,
        horizon: SimDuration,
        workers: usize,
    ) -> FaultPlan {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::storm(seed, intensity, horizon);
        if intensity == 0.0 || horizon.is_zero() || workers == 0 {
            return plan;
        }
        let mut rng = SimRng::seed(seed).split("chaos/node-loss");
        let h = horizon.as_secs_f64();
        let lost = ((workers as f64 * 0.5 * intensity).round() as usize).clamp(1, workers);
        for node in 0..lost {
            let at = SimTime::from_secs_f64(rng.uniform(h * 0.3, h * 0.7));
            plan.windows.push(FaultWindow {
                start: at,
                end: at + SimDuration::from_secs_f64(h * 0.1 * intensity),
                kind: FaultKind::NodeLoss { node },
            });
        }
        plan.windows.sort_by_key(|w| (w.start, w.end));
        plan
    }

    /// The seed the plan (and its failure hash) is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All fault windows, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Per-attempt transient-failure probability.
    pub fn failure_rate(&self) -> f64 {
        self.failure_rate
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_calm(&self) -> bool {
        self.windows.is_empty() && self.failure_rate == 0.0
    }

    /// Combined cost multiplier at `t`: the product of every latency
    /// spike whose window covers `t` (overlapping storms compound); `1.0`
    /// outside all spikes.
    pub fn cost_multiplier_at(&self, t: SimTime) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.contains(t))
            .filter_map(|w| match w.kind {
                FaultKind::LatencySpike { factor } => Some(factor.max(1.0)),
                _ => None,
            })
            .product()
    }

    /// If a stall covers `t`, the instant the backend un-wedges (the end
    /// of the last overlapping stall window).
    pub fn stall_until(&self, t: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| w.kind == FaultKind::Stall && w.contains(t))
            .map(|w| w.end)
            .max()
    }

    /// If `t` lies in a buffer-pressure window, that window's index in
    /// [`windows`](Self::windows) — the injector flushes the pool once
    /// per window, keyed on this index.
    pub fn pressure_window_at(&self, t: SimTime) -> Option<usize> {
        self.windows
            .iter()
            .position(|w| w.kind == FaultKind::BufferPressure && w.contains(t))
    }

    /// Nodes lost at instant `t`: every [`FaultKind::NodeLoss`] window
    /// covering `t`, deduplicated and sorted. A serving loop subtracts
    /// these from its worker capacity while the window is open.
    pub fn lost_nodes_at(&self, t: SimTime) -> Vec<usize> {
        let mut lost = Vec::new();
        for w in &self.windows {
            if let FaultKind::NodeLoss { node } = w.kind {
                if w.contains(t) {
                    lost.push(node);
                }
            }
        }
        lost.sort_unstable();
        lost.dedup();
        lost
    }

    /// Whether execution attempt `attempt` of the query with fingerprint
    /// `fingerprint` fails transiently.
    ///
    /// A pure hash decision: `hash(seed, fingerprint, attempt)` is mapped
    /// to `[0, 1)` and compared against the failure rate, so the verdict
    /// for any (query, attempt) pair is fixed at plan-build time. Retries
    /// advance `attempt` and can genuinely succeed, and raising the rate
    /// only grows the failing set (decisions are monotone in the rate).
    pub fn should_fail(&self, fingerprint: u64, attempt: u32) -> bool {
        if self.failure_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(self.seed ^ fingerprint ^ (u64::from(attempt) << 48));
        (h as f64 / u64::MAX as f64) < self.failure_rate
    }
}

/// Incremental construction of an explicit [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Adds a latency spike: costs multiply by `factor` inside the window.
    pub fn latency_spike(
        mut self,
        start: SimTime,
        width: SimDuration,
        factor: f64,
    ) -> FaultPlanBuilder {
        self.plan.windows.push(FaultWindow {
            start,
            end: start + width,
            kind: FaultKind::LatencySpike { factor },
        });
        self
    }

    /// Adds a stall: queries inside the window finish no earlier than its
    /// end.
    pub fn stall(mut self, start: SimTime, width: SimDuration) -> FaultPlanBuilder {
        self.plan.windows.push(FaultWindow {
            start,
            end: start + width,
            kind: FaultKind::Stall,
        });
        self
    }

    /// Adds a buffer-pressure window: the pool is evicted when it opens.
    pub fn buffer_pressure(mut self, start: SimTime, width: SimDuration) -> FaultPlanBuilder {
        self.plan.windows.push(FaultWindow {
            start,
            end: start + width,
            kind: FaultKind::BufferPressure,
        });
        self
    }

    /// Sets the per-attempt transient-failure probability.
    pub fn transient_failures(mut self, rate: f64) -> FaultPlanBuilder {
        self.plan.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Declares a node lost while the window is open; it recovers when
    /// the window closes.
    pub fn lose_node_during(
        mut self,
        node: usize,
        start: SimTime,
        width: SimDuration,
    ) -> FaultPlanBuilder {
        self.plan.windows.push(FaultWindow {
            start,
            end: start + width,
            kind: FaultKind::NodeLoss { node },
        });
        self
    }

    /// Finishes the plan (windows sorted by start time).
    pub fn build(mut self) -> FaultPlan {
        self.plan.windows.sort_by_key(|w| (w.start, w.end));
        self.plan
    }
}

/// Fingerprint of a query: the [`label_hash`] of a frozen text, not SQL.
/// Every fault decision is keyed by it, and through them every chaos
/// golden, so neither the text nor the hash changes.
///
/// The text is lossy: queries that differ only in their projection share
/// a fingerprint, and so do histograms with equal column, `min` and bin
/// width. The `attempt` axis in [`FaultPlan::should_fail`] separates the
/// retries of one query.
pub fn query_fingerprint(query: &Query) -> u64 {
    label_hash(FingerprintText(query).to_string().into_bytes())
}

/// The text [`query_fingerprint`] hashes. Not SQL, and frozen: it elides
/// projections (`SELECT ...`), spells a histogram by its `min` and width,
/// and is independent of `Query`'s `Display`, so the SQL renderer can
/// change without re-keying a fault decision.
struct FingerprintText<'a>(&'a Query);

impl fmt::Display for FingerprintText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Query::Select(s) => {
                write!(f, "SELECT ... FROM {} WHERE {}", s.table, s.filter)?;
                if let Some(l) = s.limit {
                    write!(f, " LIMIT {l}")?;
                }
                if s.offset > 0 {
                    write!(f, " OFFSET {}", s.offset)?;
                }
                Ok(())
            }
            Query::Join(j) => write!(
                f,
                "SELECT ... FROM (SELECT .. FROM {} LIMIT {} OFFSET {}) JOIN {} ON {} = {}",
                j.left,
                j.limit.map_or_else(|| "ALL".into(), |l| l.to_string()),
                j.offset,
                j.right,
                j.left_key,
                j.right_key
            ),
            Query::Histogram { table, bins, filter } => write!(
                f,
                "SELECT ROUND(({} - {}) / {:.6}), COUNT(*) FROM {table} WHERE {filter} GROUP BY 1 ORDER BY 1",
                bins.column,
                bins.min,
                bins.width(),
            ),
            Query::Count { table, filter } => {
                write!(f, "SELECT COUNT(*) FROM {table} WHERE {filter}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn builder_windows_are_sorted_and_queried() {
        let plan = FaultPlan::builder(7)
            .stall(at(50), ms(10))
            .latency_spike(at(10), ms(20), 4.0)
            .buffer_pressure(at(100), ms(5))
            .transient_failures(0.5)
            .build();
        assert_eq!(plan.windows().len(), 3);
        assert!(plan.windows().windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(plan.cost_multiplier_at(at(15)), 4.0);
        assert_eq!(plan.cost_multiplier_at(at(35)), 1.0);
        assert_eq!(plan.stall_until(at(55)), Some(at(60)));
        assert_eq!(plan.stall_until(at(65)), None);
        assert!(plan.pressure_window_at(at(102)).is_some());
        assert!(!plan.is_calm());
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::builder(1)
            .latency_spike(at(10), ms(10), 2.0)
            .build();
        assert_eq!(plan.cost_multiplier_at(at(10)), 2.0);
        assert_eq!(plan.cost_multiplier_at(at(20)), 1.0, "end is exclusive");
    }

    #[test]
    fn overlapping_spikes_compound() {
        let plan = FaultPlan::builder(1)
            .latency_spike(at(0), ms(100), 2.0)
            .latency_spike(at(50), ms(100), 3.0)
            .build();
        assert_eq!(plan.cost_multiplier_at(at(60)), 6.0);
    }

    #[test]
    fn same_seed_same_plan() {
        let h = SimDuration::from_secs(10);
        assert_eq!(FaultPlan::storm(9, 0.5, h), FaultPlan::storm(9, 0.5, h));
        assert_ne!(FaultPlan::storm(9, 0.5, h), FaultPlan::storm(10, 0.5, h));
    }

    #[test]
    fn storm_positions_are_intensity_invariant() {
        let h = SimDuration::from_secs(10);
        let mild = FaultPlan::storm(3, 0.25, h);
        let harsh = FaultPlan::storm(3, 1.0, h);
        assert_eq!(mild.windows().len(), harsh.windows().len());
        for (a, b) in mild.windows().iter().zip(harsh.windows()) {
            assert_eq!(a.start, b.start, "positions fixed by seed alone");
            assert!(b.end >= a.end, "harsher storms widen windows");
        }
        // Pointwise: the harsher storm multiplies costs at least as much
        // everywhere.
        for t in (0..10_000).step_by(37) {
            assert!(harsh.cost_multiplier_at(at(t)) >= mild.cost_multiplier_at(at(t)));
        }
        assert!(harsh.failure_rate() > mild.failure_rate());
    }

    #[test]
    fn zero_intensity_is_calm() {
        assert!(FaultPlan::storm(5, 0.0, SimDuration::from_secs(1)).is_calm());
        assert!(FaultPlan::calm(5).is_calm());
    }

    #[test]
    fn failure_decisions_are_pure_and_monotone_in_rate() {
        let mild = FaultPlan::builder(11).transient_failures(0.1).build();
        let harsh = FaultPlan::builder(11).transient_failures(0.6).build();
        let mut mild_fails = 0;
        for fp in 0..2_000u64 {
            for attempt in 0..3 {
                let m = mild.should_fail(fp, attempt);
                assert_eq!(m, mild.should_fail(fp, attempt), "pure");
                if m {
                    mild_fails += 1;
                    assert!(harsh.should_fail(fp, attempt), "monotone in rate");
                }
            }
        }
        // The empirical rate tracks the configured one.
        let rate = f64::from(mild_fails) / 6_000.0;
        assert!((rate - 0.1).abs() < 0.03, "empirical rate {rate}");
        assert!(!FaultPlan::calm(11).should_fail(42, 0));
    }

    #[test]
    fn retries_can_succeed() {
        let plan = FaultPlan::builder(13).transient_failures(0.5).build();
        // Some fingerprint that fails on attempt 0 must succeed within a
        // few retries — the hash axis is independent per attempt.
        let fp = (0..10_000u64)
            .find(|&fp| plan.should_fail(fp, 0))
            .expect("some first attempt fails");
        assert!(
            (1..8).any(|a| !plan.should_fail(fp, a)),
            "an 8-deep retry chain all failing at rate 0.5 is ~0.4%"
        );
    }

    #[test]
    fn node_loss_windows_are_scoped_in_time() {
        let plan = FaultPlan::builder(17)
            .lose_node_during(3, at(100), ms(50))
            .lose_node_during(1, at(120), ms(10))
            .build();
        assert!(plan.lost_nodes_at(at(0)).is_empty());
        assert_eq!(plan.lost_nodes_at(at(110)), vec![3]);
        assert_eq!(plan.lost_nodes_at(at(125)), vec![1, 3]);
        assert!(plan.lost_nodes_at(at(150)).is_empty(), "end is exclusive");
    }

    #[test]
    fn storm_with_node_loss_extends_storm_without_perturbing_it() {
        let h = SimDuration::from_secs(10);
        let base = FaultPlan::storm(21, 0.6, h);
        let lossy = FaultPlan::storm_with_node_loss(21, 0.6, h, 8);
        // Every storm window survives unchanged; only NodeLoss is added.
        for w in base.windows() {
            assert!(lossy.windows().contains(w), "storm window preserved");
        }
        let loss: Vec<_> = lossy
            .windows()
            .iter()
            .filter(|w| matches!(w.kind, FaultKind::NodeLoss { .. }))
            .collect();
        assert_eq!(lossy.windows().len(), base.windows().len() + loss.len());
        assert!(!loss.is_empty(), "live storm loses at least one node");
        assert!(loss.len() <= 8, "never loses more than the pool");
        for w in &loss {
            assert!(w.start >= SimTime::from_secs_f64(10.0 * 0.3));
            assert!(w.start <= SimTime::from_secs_f64(10.0 * 0.7));
            assert!(w.end > w.start, "loss windows recover");
        }
        // Deterministic, and calm storms stay calm.
        assert_eq!(lossy, FaultPlan::storm_with_node_loss(21, 0.6, h, 8));
        assert!(FaultPlan::storm_with_node_loss(21, 0.0, h, 8).is_calm());
    }

    #[test]
    fn fingerprints_distinguish_queries() {
        use ids_engine::{Predicate, Query};
        let a = Query::count("t", Predicate::between("x", 0.0, 1.0));
        let b = Query::count("t", Predicate::between("x", 0.0, 2.0));
        assert_eq!(query_fingerprint(&a), query_fingerprint(&a));
        assert_ne!(query_fingerprint(&a), query_fingerprint(&b));
    }

    /// One query of each shape, its text byte for byte, and one hash:
    /// a change to any of them re-keys every fault decision.
    #[test]
    fn fingerprint_text_is_frozen() {
        use ids_engine::{sql, JoinSpec, Projection};
        let parse = |text: &str| sql::parse(text).expect("parses");
        let histogram = parse(
            "SELECT HISTOGRAM(y, 56.582, 57.774, 20) FROM dataroad \
             WHERE x BETWEEN 8.146 AND 11.26 AND z >= -8.608",
        );
        let join = Query::Join(JoinSpec {
            left: "imdbrating".into(),
            right: "movie".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![Projection::column("rating"), Projection::column("title")],
            limit: Some(100),
            offset: 100,
        });
        let frozen = [
            (
                parse(
                    "SELECT title, title || '(' || year || ')' FROM imdb \
                     WHERE rating >= 7.5 LIMIT 100 OFFSET 200",
                ),
                "SELECT ... FROM imdb WHERE rating >= 7.5 LIMIT 100 OFFSET 200",
            ),
            (
                join,
                "SELECT ... FROM (SELECT .. FROM imdbrating LIMIT 100 OFFSET 100) \
                 JOIN movie ON id = id",
            ),
            (
                histogram.clone(),
                "SELECT ROUND((y - 56.582) / 0.059600), COUNT(*) FROM dataroad \
                 WHERE (x BETWEEN 8.146 AND 11.26) AND (z >= -8.608) GROUP BY 1 ORDER BY 1",
            ),
            (
                parse(
                    "SELECT COUNT(*) FROM listings \
                     WHERE price <= 100 AND (guests >= 2 OR NOT rating BETWEEN 0 AND 3.5)",
                ),
                "SELECT COUNT(*) FROM listings WHERE (price <= 100) AND \
                 ((guests >= 2) OR (NOT (rating BETWEEN 0 AND 3.5)))",
            ),
        ];
        for (query, text) in &frozen {
            assert_eq!(FingerprintText(query).to_string(), *text);
        }
        assert_eq!(query_fingerprint(&histogram), 0x5bbb_9894_67ad_71fd);
    }
}
