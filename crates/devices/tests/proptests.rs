//! Property tests for device kinematics.

use ids_devices::hci::{index_of_difficulty, FittsParams};
use ids_devices::pointer::{path_wobble, Point, PointerSimulator};
use ids_devices::scroll::{plain_scroll, scroll_positions, Flick, ScrollPhysics};
use ids_devices::{DeviceKind, DeviceProfile};
use ids_simclock::rng::{check, SimRng};
use ids_simclock::{SimDuration, SimTime};

/// Fitts movement time is monotone in distance and anti-monotone in
/// target width, for every device parameterization.
#[test]
fn fitts_monotonicity() {
    check("fitts_monotonicity", 0..64, |rng| {
        let d1 = rng.uniform(1.0, 2_000.0);
        let extra = rng.uniform(1.0, 2_000.0);
        let w = rng.uniform(1.0, 200.0);
        for params in [FittsParams::MOUSE, FittsParams::TOUCH, FittsParams::GESTURE] {
            let near = params.movement_time(d1, w);
            let far = params.movement_time(d1 + extra, w);
            assert!(far >= near);
            let wide = params.movement_time(d1, w * 2.0);
            assert!(wide <= near);
        }
        assert!(index_of_difficulty(d1, w) >= 0.0);
    });
}

/// A glide's total distance equals the sum of its deltas, and the
/// scroll position never goes negative.
#[test]
fn scroll_positions_accumulate() {
    check("scroll_positions_accumulate", 0..64, |rng| {
        let velocity = rng.uniform(500.0, 40_000.0);
        let flicks = rng.uniform_usize(1, 6);
        let phys = ScrollPhysics::inertial();
        let fs: Vec<Flick> = (0..flicks)
            .map(|i| Flick {
                at: SimTime::from_millis(i as u64 * 700),
                velocity: if i % 2 == 0 {
                    velocity
                } else {
                    -velocity / 2.0
                },
            })
            .collect();
        let events = phys.roll(&fs, SimTime::from_secs(20));
        let positions = scroll_positions(&events);
        assert!(positions.iter().all(|&(_, p)| p >= 0.0));
        assert_eq!(positions.len(), events.len());
    });
}

/// Glide deltas decay strictly within one flick's glide.
#[test]
fn glide_decays() {
    check("glide_decays", 0..64, |rng| {
        let velocity = rng.uniform(1_000.0, 50_000.0);
        let phys = ScrollPhysics::inertial();
        let events = phys.roll(
            &[Flick {
                at: SimTime::ZERO,
                velocity,
            }],
            SimTime::from_secs(10),
        );
        assert!(!events.is_empty());
        assert!(events
            .windows(2)
            .all(|w| w[1].delta.abs() < w[0].delta.abs() + 1e-9));
        // Peak delta equals velocity × frame interval.
        let expected = velocity * phys.frame_interval.as_secs_f64();
        assert!((events[0].delta - expected).abs() < 1e-6);
    });
}

/// Plain scroll emits exactly rate × duration notches of constant size.
#[test]
fn plain_scroll_count() {
    check("plain_scroll_count", 0..64, |rng| {
        let rate = rng.uniform(1.0, 30.0);
        let secs = rng.uniform_u64(1, 20);
        let px = rng.uniform(1.0, 10.0);
        let events = plain_scroll(SimTime::ZERO, SimDuration::from_secs(secs), rate, px);
        let expected = (secs as f64 * rate).floor() as usize;
        assert_eq!(events.len(), expected);
        assert!(events.iter().all(|e| e.delta == px));
    });
}

/// Pointer reaches land near the target for every friction device,
/// for arbitrary geometry.
#[test]
fn reaches_land_near_target() {
    check("reaches_land_near_target", 0..64, |rng| {
        let seed = rng.uniform_u64(0, 5_000);
        let (x0, y0) = (rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0));
        let (dx, dy) = (rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0));
        if dx.hypot(dy) <= 20.0 {
            return;
        }
        for kind in [DeviceKind::Mouse, DeviceKind::Touch, DeviceKind::Trackpad] {
            let mut sim = PointerSimulator::new(
                DeviceProfile::for_kind(kind),
                SimRng::seed(seed).split(kind.label()),
            );
            let from = Point::new(x0, y0);
            let to = Point::new(x0 + dx, y0 + dy);
            let trace = sim.reach(SimTime::ZERO, from, to, 24.0);
            let last = trace.last().expect("non-empty reach");
            assert!(
                Point::new(last.x, last.y).distance(to) < 15.0,
                "{kind}: ended {:.1} px from target",
                Point::new(last.x, last.y).distance(to)
            );
        }
    });
}

/// The jitter ordering (leap ≫ touch ≥ mouse-ish) holds across seeds.
#[test]
fn leap_always_noisier() {
    check("leap_always_noisier", 0..64, |rng| {
        let seed = rng.uniform_u64(0, 2_000);
        let from = Point::new(0.0, 0.0);
        let to = Point::new(400.0, 30.0);
        let wobble = |kind: DeviceKind| {
            let mut sim = PointerSimulator::new(
                DeviceProfile::for_kind(kind),
                SimRng::seed(seed).split(kind.label()),
            );
            path_wobble(&sim.reach(SimTime::ZERO, from, to, 24.0))
        };
        assert!(wobble(DeviceKind::LeapMotion) > wobble(DeviceKind::Mouse) * 3.0);
    });
}
