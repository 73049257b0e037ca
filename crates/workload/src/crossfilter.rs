//! Crossfiltering sessions (case study 2).
//!
//! The interface is a coordinated-view arrangement: one histogram + range
//! slider per attribute of the road-network table. Manipulating one
//! slider re-queries every *other* histogram under the combined filter —
//! `n − 1` queries per slider event, ~50 events/s at a 20 ms frame
//! interval. Device identity shapes the workload (Fig 14): mouse and
//! touch emit events only while the user intentionally drags, with
//! loosely spaced intervals; the Leap Motion's frictionless jitter emits
//! a dense 20–25 ms event stream even while the user merely hovers.

use ids_devices::{DeviceKind, DeviceProfile};
use ids_engine::{BinSpec, Predicate, Query};
use ids_simclock::rng::SimRng;
use ids_simclock::{SimDuration, SimTime};

use crate::datasets::road_domain;
use crate::trace::{SliderRecord, Trace};

/// One filterable dimension: a column with a slider over its domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DimSpec {
    /// Column name in the backing table.
    pub column: String,
    /// Domain minimum.
    pub min: f64,
    /// Domain maximum.
    pub max: f64,
    /// Histogram bins rendered for this dimension.
    pub bins: usize,
}

impl DimSpec {
    /// Domain width.
    pub fn span(&self) -> f64 {
        self.max - self.min
    }
}

/// The crossfilter interface: a table plus its slider dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossfilterUi {
    /// Backing table name.
    pub table: String,
    /// Slider dimensions, indexed by `sliderIdx` in the trace.
    pub dims: Vec<DimSpec>,
}

impl CrossfilterUi {
    /// The paper's setup: the `dataroad` table with 20-bin histograms on
    /// x (longitude), y (latitude), z (altitude).
    pub fn for_road() -> CrossfilterUi {
        CrossfilterUi {
            table: "dataroad".into(),
            dims: vec![
                DimSpec {
                    column: "x".into(),
                    min: road_domain::X_MIN,
                    max: road_domain::X_MAX,
                    bins: 20,
                },
                DimSpec {
                    column: "y".into(),
                    min: road_domain::Y_MIN,
                    max: road_domain::Y_MAX,
                    bins: 20,
                },
                DimSpec {
                    column: "z".into(),
                    min: road_domain::Z_MIN,
                    max: road_domain::Z_MAX,
                    bins: 20,
                },
            ],
        }
    }

    /// The road-network arrangement re-pointed at another table — the
    /// same sliders and domains over a tenant-private copy of the data
    /// (see [`crate::datasets::road_network_named`]). Behavior models
    /// seeded identically produce identical traces regardless of the
    /// table name, so multi-tenant fleets stay comparable across tenants.
    pub fn for_table(table: impl Into<String>) -> CrossfilterUi {
        CrossfilterUi {
            table: table.into(),
            ..CrossfilterUi::for_road()
        }
    }

    /// The full-domain ranges sliders start at.
    pub fn initial_ranges(&self) -> Vec<(f64, f64)> {
        self.dims.iter().map(|d| (d.min, d.max)).collect()
    }
}

/// The batch of queries one slider event triggers: a filtered histogram
/// for every *other* dimension (the moved dimension's own histogram is
/// rendered client-side by the slider overlay).
#[derive(Debug, Clone)]
pub struct QueryGroup {
    /// Event time.
    pub at: SimTime,
    /// Which slider moved.
    pub slider: usize,
    /// The concurrent histogram queries.
    pub queries: Vec<Query>,
}

/// Compiles a slider trace into the query-group stream the backend sees,
/// mirroring the paper's SQL: each group holds `n − 1` histogram queries
/// filtered by the conjunction of all current ranges.
pub fn compile_query_groups(ui: &CrossfilterUi, trace: &Trace<SliderRecord>) -> Vec<QueryGroup> {
    let mut ranges = ui.initial_ranges();
    let mut groups = Vec::with_capacity(trace.len());
    for rec in trace.records() {
        let idx = rec.slider_idx as usize;
        if idx < ranges.len() {
            ranges[idx] = (rec.min_val, rec.max_val);
        }
        let filter = |dims: &[DimSpec]| {
            Predicate::and(
                dims.iter()
                    .zip(ranges.iter())
                    .map(|(d, &(lo, hi))| Predicate::between(d.column.clone(), lo, hi)),
            )
        };
        let queries = ui
            .dims
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, d)| {
                Query::histogram(
                    ui.table.clone(),
                    BinSpec::new(d.column.clone(), d.min, d.max, d.bins),
                    filter(&ui.dims),
                )
            })
            .collect();
        groups.push(QueryGroup {
            at: SimTime::from_millis(rec.timestamp_ms),
            slider: idx,
            queries,
        });
    }
    groups
}

/// The first `max_groups` groups of [`compile_query_groups`] over
/// [`simulate_session`]'s trace, simulating only the records that
/// produce them. Records are appended in time order from one sequential
/// RNG stream and group *k* depends on records `0..=k` alone, so the
/// result equals simulating the whole session, compiling and truncating.
pub fn leading_groups(
    ui: &CrossfilterUi,
    device: DeviceKind,
    user: usize,
    seed: u64,
    max_groups: usize,
) -> Vec<QueryGroup> {
    compile_query_groups(ui, &simulate(device, user, seed, ui, max_groups).trace)
}

/// One user's crossfiltering session on one device.
#[derive(Debug, Clone)]
pub struct CrossfilterSession {
    /// Input device used.
    pub device: DeviceKind,
    /// Participant index.
    pub user: usize,
    /// Slider-event trace in the Table 5 schema.
    pub trace: Trace<SliderRecord>,
    /// Session length.
    pub duration: SimDuration,
}

/// Simulates one participant specifying range queries on `device`.
///
/// Mouse and touch users alternate drags (0.5–2 s) with thinking pauses
/// during which no events fire. Leap Motion users emit jitter events even
/// while hovering, and their sessions run longer (the paper's Fig 13
/// leap panel spans ~90 s vs ~60 s).
pub fn simulate_session(
    device: DeviceKind,
    user: usize,
    seed: u64,
    ui: &CrossfilterUi,
) -> CrossfilterSession {
    simulate(device, user, seed, ui, usize::MAX)
}

/// [`simulate_session`], stopped once `limit` records are drawn.
fn simulate(
    device: DeviceKind,
    user: usize,
    seed: u64,
    ui: &CrossfilterUi,
    limit: usize,
) -> CrossfilterSession {
    let mut rng = SimRng::seed(seed).split(&format!("xfilter/{device}/{user}"));
    let profile = DeviceProfile::for_kind(device);
    let is_leap = device == DeviceKind::LeapMotion;
    let session_len = if is_leap {
        SimDuration::from_secs_f64(rng.uniform(75.0, 95.0))
    } else {
        SimDuration::from_secs_f64(rng.uniform(50.0, 65.0))
    };

    let mut ranges = ui.initial_ranges();
    let mut records: Vec<SliderRecord> = Vec::new();
    let mut now = SimTime::ZERO;
    let end = SimTime::ZERO + session_len;

    while now < end && records.len() < limit {
        let slider = rng.uniform_usize(0, ui.dims.len());
        let dim = &ui.dims[slider];
        // Choose which handle to move and where.
        let move_lo = rng.chance(0.5);
        let (cur_lo, cur_hi) = ranges[slider];
        let target = if move_lo {
            rng.uniform(dim.min, cur_hi - dim.span() * 0.05)
        } else {
            rng.uniform(cur_lo + dim.span() * 0.05, dim.max)
        };

        let drag_secs = rng.uniform(0.5, 2.0);
        drag(
            &mut records,
            &mut now,
            &mut rng,
            &profile,
            dim,
            slider,
            &mut ranges[slider],
            move_lo,
            target,
            drag_secs,
            end,
            limit,
        );

        // Think pause. Leap Motion keeps emitting jitter events.
        let pause = SimDuration::from_secs_f64(rng.uniform(0.8, 3.0));
        if is_leap {
            hover(
                &mut records,
                &mut now,
                &mut rng,
                &profile,
                dim,
                slider,
                ranges[slider],
                pause,
                end,
                limit,
            );
        } else {
            now += pause;
        }
    }

    CrossfilterSession {
        device,
        user,
        duration: session_len,
        trace: Trace::from_records(records),
    }
}

/// Drag frames until the gesture completes, the session reaches `end`,
/// or `limit` records exist.
#[allow(clippy::too_many_arguments)]
fn drag(
    records: &mut Vec<SliderRecord>,
    now: &mut SimTime,
    rng: &mut SimRng,
    profile: &DeviceProfile,
    dim: &DimSpec,
    slider: usize,
    range: &mut (f64, f64),
    move_lo: bool,
    target: f64,
    drag_secs: f64,
    end: SimTime,
    limit: usize,
) {
    let is_leap = !profile.has_friction;
    let base_frame_ms = 20.0;
    let n = (drag_secs * 1_000.0 / base_frame_ms).ceil().max(1.0) as usize;
    let start_val = if move_lo { range.0 } else { range.1 };
    for i in 1..=n {
        if *now >= end || records.len() >= limit {
            return;
        }
        // Frame spacing: mouse/touch wander (dropped frames as the hand
        // slows), leap stays tight around 20-25 ms.
        let dt_ms = if is_leap {
            rng.normal_clamped(22.0, 1.2, 20.0, 25.0)
        } else {
            rng.normal_clamped(26.0, 9.0, 16.0, 58.0)
        };
        *now += SimDuration::from_millis_f64(dt_ms);
        let tau = i as f64 / n as f64;
        // Smoothstep drag profile plus device value noise.
        let s = tau * tau * (3.0 - 2.0 * tau);
        let noise_frac = if is_leap { 0.02 } else { 0.002 };
        let noise = rng.normal(0.0, dim.span() * noise_frac);
        let val = (start_val + (target - start_val) * s + noise).clamp(dim.min, dim.max);
        if move_lo {
            range.0 = val.min(range.1);
        } else {
            range.1 = val.max(range.0);
        }
        records.push(SliderRecord {
            timestamp_ms: now.as_millis(),
            min_val: range.0,
            max_val: range.1,
            slider_idx: slider as u8,
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn hover(
    records: &mut Vec<SliderRecord>,
    now: &mut SimTime,
    rng: &mut SimRng,
    profile: &DeviceProfile,
    dim: &DimSpec,
    slider: usize,
    range: (f64, f64),
    pause: SimDuration,
    end: SimTime,
    limit: usize,
) {
    // The hand hovers over the handle; sensor jitter keeps issuing
    // (unintended) range updates around the resting values.
    let stop = (*now + pause).min(end);
    let (lo, hi) = range;
    while *now < stop && records.len() < limit {
        let dt_ms = rng.normal_clamped(22.0, 1.2, 20.0, 25.0);
        *now += SimDuration::from_millis_f64(dt_ms);
        let wiggle = dim.span() * 0.004 * profile.jitter_std / 9.0;
        let jl = rng.normal(0.0, wiggle);
        let jh = rng.normal(0.0, wiggle);
        let new_lo = (lo + jl).clamp(dim.min, dim.max);
        let new_hi = (hi + jh).clamp(new_lo, dim.max);
        records.push(SliderRecord {
            timestamp_ms: now.as_millis(),
            min_val: new_lo,
            max_val: new_hi,
            slider_idx: slider as u8,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ui() -> CrossfilterUi {
        CrossfilterUi::for_road()
    }

    #[test]
    fn ui_matches_paper_setup() {
        let ui = ui();
        assert_eq!(ui.dims.len(), 3);
        assert_eq!(ui.table, "dataroad");
        assert!(ui.dims.iter().all(|d| d.bins == 20));
        assert_eq!(ui.dims[1].min, road_domain::Y_MIN);
    }

    #[test]
    fn sessions_emit_valid_ranges() {
        for device in [DeviceKind::Mouse, DeviceKind::Touch, DeviceKind::LeapMotion] {
            let s = simulate_session(device, 0, 77, &ui());
            assert!(!s.trace.is_empty(), "{device} session empty");
            for r in s.trace.records() {
                assert!(r.min_val <= r.max_val, "{device}: inverted range");
                let d = &ui().dims[r.slider_idx as usize];
                assert!(r.min_val >= d.min - 1e-9 && r.max_val <= d.max + 1e-9);
            }
            let recs = s.trace.records();
            assert!(recs
                .windows(2)
                .all(|w| w[0].timestamp_ms <= w[1].timestamp_ms));
        }
    }

    #[test]
    fn leap_emits_far_more_events_than_mouse() {
        // Fig 14's y-axis contrast (~2500 vs ~120 scale).
        let mouse = simulate_session(DeviceKind::Mouse, 0, 5, &ui());
        let leap = simulate_session(DeviceKind::LeapMotion, 0, 5, &ui());
        assert!(
            leap.trace.len() as f64 > mouse.trace.len() as f64 * 2.0,
            "leap {} vs mouse {}",
            leap.trace.len(),
            mouse.trace.len()
        );
    }

    #[test]
    fn leap_intervals_are_tighter() {
        let intervals = |t: &Trace<SliderRecord>| -> Vec<f64> {
            t.records()
                .windows(2)
                .map(|w| (w[1].timestamp_ms - w[0].timestamp_ms) as f64)
                .collect()
        };
        let mouse = simulate_session(DeviceKind::Mouse, 1, 5, &ui());
        let leap = simulate_session(DeviceKind::LeapMotion, 1, 5, &ui());
        let std = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        // Compare only intra-burst intervals (< 100 ms) to exclude pauses.
        let mi: Vec<f64> = intervals(&mouse.trace)
            .into_iter()
            .filter(|&x| x < 100.0)
            .collect();
        let li: Vec<f64> = intervals(&leap.trace)
            .into_iter()
            .filter(|&x| x < 100.0)
            .collect();
        assert!(
            std(&li) < std(&mi),
            "leap {:.2} vs mouse {:.2}",
            std(&li),
            std(&mi)
        );
    }

    #[test]
    fn query_groups_have_n_minus_1_queries() {
        let ui = ui();
        let s = simulate_session(DeviceKind::Mouse, 2, 5, &ui);
        let groups = compile_query_groups(&ui, &s.trace);
        assert_eq!(groups.len(), s.trace.len());
        for g in &groups {
            assert_eq!(g.queries.len(), 2, "n-1 coordinated queries");
            // Each query filters on all three dimensions.
            for q in &g.queries {
                let filter = q.filter().expect("histograms carry filters");
                assert_eq!(filter.condition_count(), 3);
            }
        }
    }

    #[test]
    fn query_groups_track_slider_state() {
        let ui = ui();
        let mut trace = Trace::new();
        trace.push(SliderRecord {
            timestamp_ms: 0,
            min_val: 9.0,
            max_val: 10.0,
            slider_idx: 0,
        });
        trace.push(SliderRecord {
            timestamp_ms: 20,
            min_val: 57.0,
            max_val: 57.5,
            slider_idx: 1,
        });
        let groups = compile_query_groups(&ui, &trace);
        // Second group: moved slider 1 → queries for dims 0 and 2, both
        // filtered by x ∈ [9,10] AND y ∈ [57,57.5] AND z full.
        let q = &groups[1].queries[0];
        let display = q.to_string();
        assert!(display.contains("BETWEEN 9 AND 10"), "{display}");
        assert!(display.contains("BETWEEN 57 AND 57.5"), "{display}");
        assert_eq!(groups[1].slider, 1);
    }

    #[test]
    fn determinism() {
        let a = simulate_session(DeviceKind::Touch, 4, 8, &ui());
        let b = simulate_session(DeviceKind::Touch, 4, 8, &ui());
        assert_eq!(a.trace, b.trace);
    }
}
