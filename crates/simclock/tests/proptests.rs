//! Property tests for virtual-time arithmetic and the seeded RNG.

use ids_simclock::rng::{check, SimRng};
use ids_simclock::{SimDuration, SimTime};

/// Time arithmetic is consistent: (t + d) - t == d (absent saturation).
#[test]
fn add_then_subtract_round_trips() {
    check("add_then_subtract_round_trips", 0..128, |rng| {
        let time = SimTime::from_micros(rng.uniform_u64(0, u64::MAX / 4));
        let dur = SimDuration::from_micros(rng.uniform_u64(0, u64::MAX / 4));
        assert_eq!((time + dur).saturating_since(time), dur);
    });
}

/// Ordering of times is ordering of micros.
#[test]
fn time_ordering_matches_micros() {
    check("time_ordering_matches_micros", 0..128, |rng| {
        let (a, b) = (rng.uniform_u64(0, 1_000_000), rng.uniform_u64(0, 1_000_000));
        let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
        assert_eq!(ta < tb, a < b);
        assert_eq!(ta.max(tb).as_micros(), a.max(b));
    });
}

/// Duration sums never lose time (saturating add is exact in range).
#[test]
fn duration_sum_is_exact() {
    check("duration_sum_is_exact", 0..128, |rng| {
        let parts: Vec<u64> = (0..rng.uniform_usize(0, 50))
            .map(|_| rng.uniform_u64(0, 1_000_000))
            .collect();
        let total: SimDuration = parts.iter().map(|&p| SimDuration::from_micros(p)).sum();
        assert_eq!(total.as_micros(), parts.iter().sum::<u64>());
    });
}

/// Seconds round trip through f64 with microsecond precision.
#[test]
fn secs_f64_round_trip() {
    check("secs_f64_round_trip", 0..128, |rng| {
        let us = rng.uniform_u64(0, 10_000_000_000);
        let d = SimDuration::from_micros(us);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let delta = back.as_micros().abs_diff(us);
        assert!(delta <= 1, "lost {delta} microseconds");
    });
}

/// Split streams never collide for distinct labels.
#[test]
fn split_streams_differ() {
    check("split_streams_differ", 0..128, |rng| {
        let seed = rng.uniform_u64(0, 1_000_000);
        let (a, b) = (rng.uniform_usize(0, 50), rng.uniform_usize(0, 50));
        if a == b {
            return;
        }
        let root = SimRng::seed(seed);
        let mut ra = root.split(&format!("s/{a}"));
        let mut rb = root.split(&format!("s/{b}"));
        // 8 draws all equal would be a 2^-400 coincidence.
        let same = (0..8).all(|_| ra.unit().to_bits() == rb.unit().to_bits());
        assert!(!same);
    });
}

/// normal_clamped always respects its bounds.
#[test]
fn normal_clamped_in_bounds() {
    check("normal_clamped_in_bounds", 0..128, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let mean = rng.uniform(-100.0, 100.0);
        let sd = rng.uniform(0.0, 50.0);
        let lo = rng.uniform(-200.0, 0.0);
        let hi = lo + rng.uniform(0.0, 400.0);
        let mut draws = SimRng::seed(seed);
        for _ in 0..32 {
            let x = draws.normal_clamped(mean, sd, lo, hi);
            assert!(x >= lo && x <= hi);
        }
    });
}

/// weighted_index only returns indices with positive weight (when any
/// weight is positive).
#[test]
fn weighted_index_respects_zeros() {
    check("weighted_index_respects_zeros", 0..128, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let weights: Vec<f64> = (0..rng.uniform_usize(1, 12))
            .map(|_| rng.uniform(0.0, 10.0))
            .collect();
        let mut draws = SimRng::seed(seed);
        let any_positive = weights.iter().any(|&w| w > 0.0);
        for _ in 0..64 {
            let i = draws.weighted_index(&weights);
            assert!(i < weights.len());
            if any_positive {
                assert!(weights[i] > 0.0, "picked zero-weight index {i}");
            }
        }
    });
}
