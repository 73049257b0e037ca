//! Property tests for virtual-time arithmetic and the seeded RNG.

use ids_simclock::rng::SimRng;
use ids_simclock::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Time arithmetic is consistent: (t + d) - t == d (absent saturation).
    #[test]
    fn add_then_subtract_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur).saturating_since(time), dur);
    }

    /// Ordering of times is ordering of micros.
    #[test]
    fn time_ordering_matches_micros(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta.max(tb).as_micros(), a.max(b));
    }

    /// Duration sums never lose time (saturating add is exact in range).
    #[test]
    fn duration_sum_is_exact(parts in prop::collection::vec(0u64..1_000_000, 0..50)) {
        let total: SimDuration = parts.iter().map(|&p| SimDuration::from_micros(p)).sum();
        prop_assert_eq!(total.as_micros(), parts.iter().sum::<u64>());
    }

    /// Seconds round trip through f64 with microsecond precision.
    #[test]
    fn secs_f64_round_trip(us in 0u64..10_000_000_000) {
        let d = SimDuration::from_micros(us);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let delta = back.as_micros().abs_diff(us);
        prop_assert!(delta <= 1, "lost {delta} microseconds");
    }

    /// Split streams never collide for distinct labels.
    #[test]
    fn split_streams_differ(seed in 0u64..1_000_000, a in 0usize..50, b in 0usize..50) {
        prop_assume!(a != b);
        let root = SimRng::seed(seed);
        let mut ra = root.split(&format!("s/{a}"));
        let mut rb = root.split(&format!("s/{b}"));
        // 8 draws all equal would be a 2^-400 coincidence.
        let same = (0..8).all(|_| ra.unit().to_bits() == rb.unit().to_bits());
        prop_assert!(!same);
    }

    /// normal_clamped always respects its bounds.
    #[test]
    fn normal_clamped_in_bounds(
        seed in 0u64..10_000,
        mean in -100.0f64..100.0,
        sd in 0.0f64..50.0,
        lo in -200.0f64..0.0,
        width in 0.0f64..400.0,
    ) {
        let hi = lo + width;
        let mut rng = SimRng::seed(seed);
        for _ in 0..32 {
            let x = rng.normal_clamped(mean, sd, lo, hi);
            prop_assert!(x >= lo && x <= hi);
        }
    }

    /// weighted_index only returns indices with positive weight (when any
    /// weight is positive).
    #[test]
    fn weighted_index_respects_zeros(
        seed in 0u64..10_000,
        weights in prop::collection::vec(0.0f64..10.0, 1..12),
    ) {
        let mut rng = SimRng::seed(seed);
        let any_positive = weights.iter().any(|&w| w > 0.0);
        for _ in 0..64 {
            let i = rng.weighted_index(&weights);
            prop_assert!(i < weights.len());
            if any_positive {
                prop_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
            }
        }
    }
}
