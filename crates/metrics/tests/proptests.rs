//! Property tests for the metric computations.

use ids_metrics::accuracy::{mean_squared_error, scored_accuracy, PrecisionRecall};
use ids_metrics::latency::LatencyBreakdown;
use ids_metrics::lcv::{cascade_violations, QuerySpan};
use ids_metrics::qif::{QifQuadrant, QifReport};
use ids_metrics::throughput::{ScalabilityCurve, ScalePoint};
use ids_simclock::rng::{check, SimRng};
use ids_simclock::{SimDuration, SimTime};

/// QIF rate × span recovers the query count (uniform streams).
#[test]
fn qif_rate_times_span_is_count() {
    check("qif_rate_times_span_is_count", 0..96, |rng| {
        let interval_ms = rng.uniform_u64(1, 200);
        let n = rng.uniform_usize(2, 300);
        let stamps: Vec<SimTime> = (0..n)
            .map(|i| SimTime::from_millis(interval_ms * i as u64))
            .collect();
        let r = QifReport::from_timestamps(&stamps);
        let recovered = r.queries_per_second() * r.span.as_secs_f64();
        assert!((recovered - (n as f64 - 1.0)).abs() < 1e-6);
        assert!((r.intervals_ms.mean() - interval_ms as f64).abs() < 1e-9);
    });
}

/// The QIF quadrant is consistent: fast backends are never classified
/// as overwhelmed, slow ones never as good.
#[test]
fn quadrant_consistency() {
    check("quadrant_consistency", 0..96, |rng| {
        let qif = rng.uniform(0.1, 200.0);
        let service_ms = rng.uniform_u64(1, 2_000);
        let service = SimDuration::from_millis(service_ms);
        let q = QifQuadrant::classify(qif, service, 40.0);
        let capacity = 1_000.0 / service_ms as f64;
        match q {
            QifQuadrant::Good | QifQuadrant::PerceivedSlow => assert!(capacity >= qif - 1e-9),
            QifQuadrant::Unresponsive | QifQuadrant::OverwhelmedThrottle => {
                assert!(capacity < qif + 1e-9)
            }
        }
    });
}

/// Cascade LCV violations are bounded by n−1 and shrink (weakly) when
/// every finish time moves earlier by the same amount.
#[test]
fn lcv_bounds_and_monotonicity() {
    check("lcv_bounds_and_monotonicity", 0..96, |rng| {
        let spans_raw: Vec<(u64, u64)> = (0..rng.uniform_usize(1, 60))
            .map(|_| (rng.uniform_u64(0, 10_000), rng.uniform_u64(1, 2_000)))
            .collect();
        let speedup_ms = rng.uniform_u64(0, 500);
        let mut issued: Vec<u64> = spans_raw.iter().map(|&(t, _)| t).collect();
        issued.sort_unstable();
        let spans: Vec<QuerySpan> = issued
            .iter()
            .zip(spans_raw.iter())
            .map(|(&t, &(_, exec))| QuerySpan {
                issued_at: SimTime::from_millis(t),
                finished_at: SimTime::from_millis(t + exec),
            })
            .collect();
        let base = cascade_violations(&spans);
        assert!(base.violations <= spans.len().saturating_sub(1));
        let faster: Vec<QuerySpan> = spans
            .iter()
            .map(|s| QuerySpan {
                issued_at: s.issued_at,
                finished_at: s.issued_at
                    + s.finished_at
                        .saturating_since(s.issued_at)
                        .saturating_sub(SimDuration::from_millis(speedup_ms)),
            })
            .collect();
        assert!(cascade_violations(&faster).violations <= base.violations);
    });
}

/// Latency breakdown total always equals the component sum and the
/// bottleneck really is the max component.
#[test]
fn breakdown_total_and_bottleneck() {
    check("breakdown_total_and_bottleneck", 0..96, |rng| {
        let [net, sched, exec, agg, render] = std::array::from_fn(|_| rng.uniform_u64(0, 10_000));
        let b = LatencyBreakdown {
            network: SimDuration::from_micros(net),
            scheduling: SimDuration::from_micros(sched),
            execution: SimDuration::from_micros(exec),
            post_aggregation: SimDuration::from_micros(agg),
            rendering: SimDuration::from_micros(render),
        };
        assert_eq!(b.total().as_micros(), net + sched + exec + agg + render);
        let (_, worst) = b.bottleneck();
        let max = [net, sched, exec, agg, render].into_iter().max().unwrap();
        assert_eq!(worst.as_micros(), max);
        let frac = b.execution_fraction();
        assert!((0.0..=1.0).contains(&frac));
    });
}

/// Precision/recall are symmetric in a specific sense: swapping the
/// sets swaps the two numbers.
#[test]
fn precision_recall_swap() {
    // Id lists with repeats: `PrecisionRecall::of` compares them as sets.
    let ids = |rng: &mut SimRng| -> Vec<u64> {
        (0..rng.uniform_usize(0, 60))
            .map(|_| rng.uniform_u64(0, 200))
            .collect()
    };
    check("precision_recall_swap", 0..96, |rng| {
        let (av, bv) = (ids(rng), ids(rng));
        let pr = PrecisionRecall::of(&av, &bv);
        let rp = PrecisionRecall::of(&bv, &av);
        assert!((pr.precision - rp.recall).abs() < 1e-12);
        assert!((pr.recall - rp.precision).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&pr.f1()));
    });
}

/// MSE is zero iff the series are identical, and invariant to
/// swapping the arguments.
#[test]
fn mse_properties() {
    check("mse_properties", 0..96, |rng| {
        let xs: Vec<f64> = (0..rng.uniform_usize(1, 50))
            .map(|_| rng.uniform(-100.0, 100.0))
            .collect();
        assert_eq!(mean_squared_error(&xs, &xs), 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();
        let a = mean_squared_error(&xs, &shifted);
        let b = mean_squared_error(&shifted, &xs);
        assert!((a - b).abs() < 1e-9);
        assert!((a - 1.0).abs() < 1e-9, "uniform +1 shift has MSE 1");
    });
}

/// Scored accuracy is monotone: closer answers and earlier
/// submissions never score worse.
#[test]
fn scored_accuracy_monotone() {
    check("scored_accuracy_monotone", 0..96, |rng| {
        let truth = rng.uniform(-1_000.0, 1_000.0);
        let (err1, err2) = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0));
        let (t1, t2) = (rng.uniform_u64(0, 60_000), rng.uniform_u64(0, 60_000));
        let scale = 50.0;
        let tscale = SimDuration::from_secs(30);
        let score = |err: f64, ms: u64| {
            scored_accuracy(
                truth + err,
                truth,
                SimDuration::from_millis(ms),
                scale,
                tscale,
            )
        };
        if err1 <= err2 {
            assert!(score(err1, t1) >= score(err2, t1) - 1e-12);
        }
        if t1 <= t2 {
            assert!(score(err1, t1) >= score(err1, t2) - 1e-12);
        }
    });
}

/// Speedups relative to the baseline start at exactly 1 and
/// efficiencies never exceed the ideal for slower-than-linear scaling.
#[test]
fn scalability_speedup_baseline() {
    check("scalability_speedup_baseline", 0..96, |rng| {
        let points: Vec<ScalePoint> = (0..rng.uniform_usize(1, 12))
            .map(|i| ScalePoint {
                resource: 1 << i,
                time: SimDuration::from_micros(rng.uniform_u64(1, 100_000)),
            })
            .collect();
        let curve = ScalabilityCurve::new(points);
        let speedups = curve.speedups();
        assert!((speedups[0].1 - 1.0).abs() < 1e-12);
        for (r, s) in &speedups {
            assert!(*s > 0.0, "resource {r}");
        }
    });
}
