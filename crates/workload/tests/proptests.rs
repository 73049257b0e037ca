//! Property tests for the behavior models: every seed must produce
//! well-formed sessions.

use ids_devices::DeviceKind;
use ids_engine::Table;
use ids_simclock::rng::check;
use ids_simclock::SimDuration;
use ids_workload::composite::{simulate_session as composite_session, CompositeConfig};
use ids_workload::crossfilter::{
    compile_query_groups, leading_groups, simulate_session as xf_session, CrossfilterUi, QueryGroup,
};
use ids_workload::datasets;
use ids_workload::scrolling::{demand_curve, simulate_session as scroll_session};

/// Scroll sessions are well-formed for arbitrary seeds: monotone
/// timestamps, consistent positions, bounded selections, monotone
/// demand curves.
#[test]
fn scroll_sessions_are_well_formed() {
    check("scroll_sessions_are_well_formed", 0..16, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let tuples = rng.uniform_usize(100, 800);
        let s = scroll_session(0, seed, tuples);
        let recs = s.trace.records();
        assert!(!recs.is_empty());
        assert!(recs
            .windows(2)
            .all(|w| w[0].timestamp_ms <= w[1].timestamp_ms));
        let end_px = tuples as f64 * ids_workload::scrolling::TUPLE_HEIGHT_PX;
        assert!(recs
            .iter()
            .all(|r| r.scroll_top >= 0.0 && r.scroll_top <= end_px + 1e-6));
        assert!(s.selections.iter().all(|&sel| sel <= tuples as u64));
        assert!(s.backscroll_passes >= s.backscrolled_selections);
        let demand = demand_curve(&s);
        assert!(demand.windows(2).all(|w| w[0].1 <= w[1].1));
    });
}

/// Crossfilter sessions respect slider domains and compile to one
/// query group per event with n−1 queries each.
#[test]
fn crossfilter_sessions_are_well_formed() {
    check("crossfilter_sessions_are_well_formed", 0..16, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let ui = CrossfilterUi::for_road();
        for device in [DeviceKind::Mouse, DeviceKind::LeapMotion] {
            let s = xf_session(device, 0, seed, &ui);
            for r in s.trace.records() {
                assert!(r.min_val <= r.max_val);
                let d = &ui.dims[r.slider_idx as usize];
                assert!(r.min_val >= d.min - 1e-9);
                assert!(r.max_val <= d.max + 1e-9);
            }
            let groups = compile_query_groups(&ui, &s.trace);
            assert_eq!(groups.len(), s.trace.len());
            assert!(groups.iter().all(|g| g.queries.len() == ui.dims.len() - 1));
        }
    });
}

/// Simulating only the kept records is byte-identical to simulating the
/// whole session, compiling it and truncating, at every cap.
#[test]
fn leading_groups_are_a_prefix() {
    check("leading_groups_are_a_prefix", 0..8, |rng| {
        let (seed, user) = (rng.uniform_u64(0, 10_000), rng.uniform_usize(0, 64));
        let ui = CrossfilterUi::for_table("tenant");
        let key = |g: &QueryGroup| {
            let queries: Vec<_> = g.queries.iter().map(|q| q.to_string()).collect();
            (g.at, g.slider, queries)
        };
        for device in DeviceKind::ALL {
            let all = compile_query_groups(&ui, &xf_session(device, user, seed, &ui).trace);
            let len = all.len();
            for k in [0, 1, 8, rng.uniform_usize(0, len), len, len + 1, usize::MAX] {
                let got = leading_groups(&ui, device, user, seed, k);
                let same = got.iter().map(key).eq(all[..len.min(k)].iter().map(key));
                assert!(same, "{device} k={k}");
            }
        }
    });
}

/// Composite sessions keep their invariants under arbitrary seeds:
/// zoom leash, positive phase times, parseable URLs.
#[test]
fn composite_sessions_are_well_formed() {
    check("composite_sessions_are_well_formed", 0..16, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let config = CompositeConfig {
            min_duration: SimDuration::from_secs(120),
            request_model: None,
        };
        let s = composite_session(0, seed, &config);
        assert!(!s.steps.is_empty());
        let start_zoom = s.steps[0].state.map.zoom;
        for step in &s.steps {
            assert!((8..=15).contains(&step.state.map.zoom));
            assert!((step.state.map.zoom - start_zoom).abs() <= 3);
            assert!(step.request > SimDuration::ZERO);
            assert!(step.explore > SimDuration::ZERO);
            assert!(step.state.filter_count() <= 14);
            let url = step.state.to_url();
            assert!(url.starts_with("https://"));
            assert!(!url.contains('\t'));
        }
        assert!(s.steps.windows(2).all(|w| w[0].at <= w[1].at));
    });
}

/// A numeric column's smallest and largest value.
fn min_max(t: &Table, name: &str) -> (f64, f64) {
    let col = t.column(name).unwrap();
    let values: Vec<f64> = match (col.as_float(), col.as_int()) {
        (Some(v), _) => v.to_vec(),
        (_, Some(v)) => v.iter().map(|&i| i as f64).collect(),
        _ => panic!("{name} is not numeric"),
    };
    let fold = |(lo, hi): (f64, f64), &x: &f64| (lo.min(x), hi.max(x));
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), fold)
}

/// Dataset generators respect their declared domains at any size.
#[test]
fn datasets_respect_domains() {
    check("datasets_respect_domains", 0..16, |rng| {
        let seed = rng.uniform_u64(0, 1_000);
        let rows = rng.uniform_usize(10, 2_000);
        let movies = datasets::movies_sized(seed, rows);
        assert_eq!(movies.rows(), rows);
        let (ratings_min, ratings_max) = min_max(&movies, "rating");
        assert!(ratings_min >= 5.0 && ratings_max <= 9.6);

        let road = datasets::road_network_sized(seed, rows);
        let (x_min, x_max) = min_max(&road, "x");
        assert!(x_min >= datasets::road_domain::X_MIN);
        assert!(x_max <= datasets::road_domain::X_MAX);

        let listings = datasets::listings(seed, rows);
        let (guests_min, guests_max) = min_max(&listings, "guests");
        assert!(guests_min >= 1.0 && guests_max <= 8.0);
    });
}
