//! Composite-interface exploration sessions (case study 3).
//!
//! Users browse an accommodation site through multiple query widgets —
//! map (zoom + drag), sliders, checkboxes, buttons, text box — in the
//! request → render → explore loop of Fig 17. The behavior model is
//! calibrated to the paper's findings:
//!
//! - widget mix: map ≈ 62.8%, slider/checkbox ≈ 29.9%, button ≈ 3.6%,
//!   text box ≈ 3.6% (Table 9);
//! - zoom levels concentrate in 11–14 and rarely move more than three
//!   levels from the start (Fig 18);
//! - drag distances shrink with zoom depth (Fig 19 / Table 10);
//! - ~70% of queries carry at most four filter conditions (Fig 20);
//! - exploration time (mean ≈ 18.3 s) dwarfs request time (mean ≈ 1.1 s,
//!   80% under a second), leaving room to prefetch ≈ 18 queries (Fig 21).

use ids_simclock::rng::SimRng;
use ids_simclock::{SimDuration, SimTime};

use crate::trace::{RequestEvent, RequestRecord, ResourceType, Trace};

/// The query widgets of the composite interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Widget {
    /// Map pan/zoom.
    Map,
    /// Range slider (price, rating...).
    Slider,
    /// Checkbox (room type, amenities...).
    Checkbox,
    /// Button (pagination, search).
    Button,
    /// Free-text place search.
    TextBox,
}

impl Widget {
    /// All widgets, in Table 9 order (slider and checkbox reported
    /// together there).
    pub const ALL: [Widget; 5] = [
        Widget::Map,
        Widget::Slider,
        Widget::Checkbox,
        Widget::Button,
        Widget::TextBox,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Widget::Map => "map",
            Widget::Slider => "slider",
            Widget::Checkbox => "checkbox",
            Widget::Button => "button",
            Widget::TextBox => "text box",
        }
    }
}

/// Map viewport state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapState {
    /// Tile zoom level.
    pub zoom: i32,
    /// Viewport centre latitude.
    pub center_lat: f64,
    /// Viewport centre longitude.
    pub center_lng: f64,
}

impl MapState {
    /// Viewport bounds `(sw_lat, sw_lng, ne_lat, ne_lng)` from centre and
    /// zoom using web-mercator-style spans.
    pub fn bounds(&self) -> (f64, f64, f64, f64) {
        let lng_span = 360.0 / f64::powi(2.0, self.zoom);
        let lat_span = 170.0 / f64::powi(2.0, self.zoom);
        (
            self.center_lat - lat_span / 2.0,
            self.center_lng - lng_span / 2.0,
            self.center_lat + lat_span / 2.0,
            self.center_lng + lng_span / 2.0,
        )
    }
}

/// One non-map filter condition (numeric range or category).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterCondition {
    /// Parameter name as it appears in the URL.
    pub field: String,
    /// Serialized value (range or category).
    pub value: String,
}

/// The full query state behind the tab URL.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryState {
    /// Searched place name.
    pub place: String,
    /// Map viewport.
    pub map: MapState,
    /// Active non-map filters.
    pub filters: Vec<FilterCondition>,
    /// Result page.
    pub page: u32,
}

impl QueryState {
    /// Serializes the state as an Airbnb-style URL — the paper treats the
    /// tab URL itself as the query.
    pub fn to_url(&self) -> String {
        let (sw_lat, sw_lng, ne_lat, ne_lng) = self.map.bounds();
        let mut url = format!(
            "https://www.stays.example/s/{}?page={}&source=map&sw_lat={:.6}&sw_lng={:.6}&ne_lat={:.6}&ne_lng={:.6}&search_by_map=true&zoom={}",
            self.place.replace(' ', "-"),
            self.page,
            sw_lat,
            sw_lng,
            ne_lat,
            ne_lng,
            self.map.zoom
        );
        for f in &self.filters {
            url.push('&');
            url.push_str(&f.field);
            url.push('=');
            url.push_str(&f.value);
        }
        url
    }

    /// Number of filter conditions on this query (the Fig 20 quantity).
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }
}

/// One interaction step: the widget used, the resulting state, and the
/// Fig 17 phase durations.
#[derive(Debug, Clone)]
pub struct Step {
    /// When the interaction (URL update) happened.
    pub at: SimTime,
    /// Widget that drove it.
    pub widget: Widget,
    /// Query state after the interaction.
    pub state: QueryState,
    /// T0: data request time.
    pub request: SimDuration,
    /// T1: rendering time.
    pub render: SimDuration,
    /// T2: exploration time before the next interaction.
    pub explore: SimDuration,
}

/// A full session: steps plus the browser-extension-style trace.
#[derive(Debug, Clone)]
pub struct CompositeSession {
    /// Participant index.
    pub user: usize,
    /// Interaction steps in time order.
    pub steps: Vec<Step>,
    /// HTTP/browser event trace in the Table 5 schema.
    pub trace: Trace<RequestRecord>,
}

/// Table 9 widget weights.
const WIDGET_WEIGHTS: [(Widget, f64); 5] = [
    (Widget::Map, 62.8),
    (Widget::Slider, 20.0),
    (Widget::Checkbox, 9.9),
    (Widget::Button, 3.6),
    (Widget::TextBox, 3.6),
];

/// Simulates one user's composite-interface session, at least
/// `min_duration` long (the study asked for ≥ 20 minutes).
pub fn simulate_session(user: usize, seed: u64, min_duration: SimDuration) -> CompositeSession {
    let mut rng = SimRng::seed(seed).split(&format!("composite/user/{user}"));
    let start_zoom = 11 + rng.weighted_index(&[0.45, 0.45, 0.1]) as i32; // 11, 12, occasionally 13
    let mut state = QueryState {
        place: pick_place(&mut rng),
        map: MapState {
            zoom: start_zoom,
            center_lat: rng.uniform(30.0, 45.0),
            center_lng: rng.uniform(-115.0, -80.0),
        },
        filters: vec![
            FilterCondition {
                field: "checkin".into(),
                value: "2026-08-10".into(),
            },
            FilterCondition {
                field: "guests".into(),
                value: rng.uniform_usize(1, 5).to_string(),
            },
        ],
        page: 1,
    };

    let mut steps = Vec::new();
    let mut trace = Trace::new();
    let mut now = SimTime::ZERO;
    let mut request_id = 0u64;
    let weights: Vec<f64> = WIDGET_WEIGHTS.iter().map(|&(_, w)| w).collect();

    while now.saturating_since(SimTime::ZERO) < min_duration {
        let widget = WIDGET_WEIGHTS[rng.weighted_index(&weights)].0;
        apply_widget(widget, &mut state, start_zoom, &mut rng);

        // Data request: log-normal(μ=-1.512, σ=1.8) → mean ≈ 1.1 s,
        // P(< 1 s) ≈ 0.8 (Fig 21).
        let request = SimDuration::from_secs_f64(rng.log_normal(-1.512, 1.8).clamp(0.05, 30.0));
        let render = SimDuration::from_secs_f64(rng.uniform(0.08, 0.4));
        // Exploration: log-normal(μ=2.06, σ=1.3) → mean ≈ 18.3 s.
        let explore = SimDuration::from_secs_f64(rng.log_normal(2.06, 1.3).clamp(0.3, 240.0));

        emit_step_trace(
            &mut trace,
            &mut request_id,
            now,
            &state,
            request,
            render,
            &mut rng,
        );
        steps.push(Step {
            at: now,
            widget,
            state: state.clone(),
            request,
            render,
            explore,
        });
        now += request + render + explore;
    }

    CompositeSession { user, steps, trace }
}

/// Simulates the paper's 15-participant study, each session at least
/// `min_duration` long.
pub fn simulate_study(seed: u64, users: usize, min_duration: SimDuration) -> Vec<CompositeSession> {
    (0..users)
        .map(|u| simulate_session(u, seed, min_duration))
        .collect()
}

fn pick_place(rng: &mut SimRng) -> String {
    const PLACES: [&str; 8] = [
        "Alabama United States",
        "Lisbon Portugal",
        "Kyoto Japan",
        "Oaxaca Mexico",
        "Reykjavik Iceland",
        "Queenstown New Zealand",
        "Tbilisi Georgia",
        "Ljubljana Slovenia",
    ];
    PLACES[rng.uniform_usize(0, PLACES.len())].to_string()
}

fn apply_widget(widget: Widget, state: &mut QueryState, start_zoom: i32, rng: &mut SimRng) {
    match widget {
        Widget::Map => {
            if rng.chance(0.4) {
                // Zoom: ±1, biased back toward the 11–14 band and leashed
                // to ±3 levels from the start (Fig 18).
                let z = state.map.zoom;
                let mut dz: i32 = if rng.chance(0.5) { 1 } else { -1 };
                if z >= 14 && dz > 0 && rng.chance(0.75) {
                    dz = -1;
                }
                if z <= 11 && dz < 0 && rng.chance(0.75) {
                    dz = 1;
                }
                let next = (z + dz).clamp(8, 15).clamp(start_zoom - 3, start_zoom + 3);
                state.map.zoom = next;
            } else {
                // Drag: distance scales down with zoom depth (Table 10).
                let z = state.map.zoom;
                let lng_scale = 0.4 / f64::powi(2.0, z - 11).max(1.0);
                let lat_scale = 0.17 / f64::powi(2.0, z - 11).max(1.0);
                state.map.center_lng +=
                    rng.normal_clamped(0.0, lng_scale / 2.0, -lng_scale, lng_scale);
                state.map.center_lat +=
                    rng.normal_clamped(0.0, lat_scale / 2.0, -lat_scale, lat_scale);
            }
            state.page = 1;
        }
        Widget::Slider => {
            // The price range counts as one filter condition.
            let lo = (rng.uniform(10.0, 150.0) / 5.0).round() * 5.0;
            let hi = lo + (rng.uniform(20.0, 300.0) / 5.0).round() * 5.0;
            upsert_filter(state, "price", format!("{lo}_{hi}"));
            state.page = 1;
        }
        Widget::Checkbox => {
            // A pool of boolean/categorical refinements. Users prune as
            // often as they refine once a few are active, keeping the
            // Fig 20 CDF near "70% of queries have <= 4 filters".
            const BOXES: [(&str, &str); 6] = [
                ("room_types", "entire_home"),
                ("room_types", "private_room"),
                ("superhost", "true"),
                ("instant_book", "true"),
                ("pets_allowed", "true"),
                ("pool", "true"),
            ];
            let base =
                |f: &FilterCondition| matches!(f.field.as_str(), "checkin" | "guests" | "price");
            let active: Vec<usize> = state
                .filters
                .iter()
                .enumerate()
                .filter(|(_, f)| !base(f))
                .map(|(i, _)| i)
                .collect();
            let prune_bias = (active.len() as f64 / 4.0).min(0.85);
            if !active.is_empty() && rng.chance(prune_bias) {
                let victim = active[rng.uniform_usize(0, active.len())];
                state.filters.remove(victim);
            } else {
                let (field, value) = BOXES[rng.uniform_usize(0, BOXES.len())];
                toggle_filter(state, field, value);
            }
            state.page = 1;
        }
        Widget::Button => {
            state.page += 1;
        }
        Widget::TextBox => {
            state.place = pick_place(rng);
            state.map.center_lat = rng.uniform(25.0, 48.0);
            state.map.center_lng = rng.uniform(-120.0, -70.0);
            state.page = 1;
            // A fresh search drops most refinements.
            state
                .filters
                .retain(|f| f.field == "checkin" || f.field == "guests");
        }
    }
}

fn upsert_filter(state: &mut QueryState, field: &str, value: String) {
    if let Some(f) = state.filters.iter_mut().find(|f| f.field == field) {
        f.value = value;
    } else {
        state.filters.push(FilterCondition {
            field: field.into(),
            value,
        });
    }
}

fn toggle_filter(state: &mut QueryState, field: &str, value: &str) {
    if let Some(pos) = state
        .filters
        .iter()
        .position(|f| f.field == field && f.value == value)
    {
        state.filters.remove(pos);
    } else {
        state.filters.push(FilterCondition {
            field: field.into(),
            value: value.into(),
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_step_trace(
    trace: &mut Trace<RequestRecord>,
    request_id: &mut u64,
    at: SimTime,
    state: &QueryState,
    request: SimDuration,
    render: SimDuration,
    rng: &mut SimRng,
) {
    let url = state.to_url();
    trace.push(RequestRecord {
        timestamp_ms: at.as_millis(),
        tab_url: url.clone(),
        request_id: *request_id,
        resource_type: ResourceType::Data,
        event: RequestEvent::UrlUpdate,
        status: 0,
    });
    // Data request start/end.
    *request_id += 1;
    let data_id = *request_id;
    trace.push(RequestRecord {
        timestamp_ms: at.as_millis(),
        tab_url: url.clone(),
        request_id: data_id,
        resource_type: ResourceType::Data,
        event: RequestEvent::RequestStart,
        status: 0,
    });
    trace.push(RequestRecord {
        timestamp_ms: (at + request).as_millis(),
        tab_url: url.clone(),
        request_id: data_id,
        resource_type: ResourceType::Data,
        event: RequestEvent::RequestEnd,
        status: 200,
    });
    // A few tile/image fetches ride along.
    for _ in 0..rng.uniform_usize(2, 6) {
        *request_id += 1;
        let rid = *request_id;
        let rt = if rng.chance(0.5) {
            ResourceType::MapTile
        } else {
            ResourceType::Image
        };
        let end = at + request.mul_f64(rng.uniform(0.3, 1.0));
        trace.push(RequestRecord {
            timestamp_ms: at.as_millis(),
            tab_url: url.clone(),
            request_id: rid,
            resource_type: rt,
            event: RequestEvent::RequestStart,
            status: 0,
        });
        trace.push(RequestRecord {
            timestamp_ms: end.as_millis(),
            tab_url: url.clone(),
            request_id: rid,
            resource_type: rt,
            event: RequestEvent::RequestEnd,
            status: 200,
        });
    }
    // Rendering marker.
    trace.push(RequestRecord {
        timestamp_ms: (at + request + render).as_millis(),
        tab_url: url,
        request_id: data_id,
        resource_type: ResourceType::Data,
        event: RequestEvent::Mutation,
        status: 0,
    });
}

// ---------------------------------------------------------------------
// Analysis helpers for the paper's Section 8 figures.
// ---------------------------------------------------------------------

/// Fraction of interactions per widget across sessions (Table 9).
pub fn widget_percentages(sessions: &[CompositeSession]) -> Vec<(Widget, f64)> {
    let mut counts = std::collections::HashMap::new();
    let mut total = 0usize;
    for s in sessions {
        for step in &s.steps {
            *counts.entry(step.widget).or_insert(0usize) += 1;
            total += 1;
        }
    }
    Widget::ALL
        .iter()
        .map(|&w| {
            let c = counts.get(&w).copied().unwrap_or(0);
            (
                w,
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64 * 100.0
                },
            )
        })
        .collect()
}

/// Zoom level over time for one session (Fig 18).
pub fn zoom_series(session: &CompositeSession) -> Vec<(SimTime, i32)> {
    session.steps.iter().map(|s| (s.at, s.map_zoom())).collect()
}

impl Step {
    fn map_zoom(&self) -> i32 {
        self.state.map.zoom
    }
}

/// Per-zoom-level centre movements `(zoom, d_lat, d_lng)` caused by map
/// drags (Fig 19 / Table 10). Only steps whose widget is the map and
/// whose zoom did not change qualify — a text-box place search also moves
/// the centre, but by teleport, not drag.
pub fn drag_deltas(sessions: &[CompositeSession]) -> Vec<(i32, f64, f64)> {
    let mut out = Vec::new();
    for s in sessions {
        for w in s.steps.windows(2) {
            let (a, b) = (&w[0].state.map, &w[1].state.map);
            if w[1].widget == Widget::Map && a.zoom == b.zoom {
                let d_lat = b.center_lat - a.center_lat;
                let d_lng = b.center_lng - a.center_lng;
                if d_lat != 0.0 || d_lng != 0.0 {
                    out.push((a.zoom, d_lat, d_lng));
                }
            }
        }
    }
    out
}

/// Filter-condition counts per query across sessions (Fig 20 input).
pub fn filter_counts(sessions: &[CompositeSession]) -> Vec<f64> {
    sessions
        .iter()
        .flat_map(|s| s.steps.iter().map(|st| st.state.filter_count() as f64))
        .collect()
}

/// `(request_secs, explore_secs)` samples across sessions (Fig 21 input).
pub fn phase_times(sessions: &[CompositeSession]) -> (Vec<f64>, Vec<f64>) {
    let mut req = Vec::new();
    let mut exp = Vec::new();
    for s in sessions {
        for st in &s.steps {
            req.push(st.request.as_secs_f64());
            exp.push(st.explore.as_secs_f64());
        }
    }
    (req, exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_config() -> SimDuration {
        SimDuration::from_secs(120)
    }

    #[test]
    fn session_meets_minimum_duration() {
        let s = simulate_session(0, 42, short_config());
        let last = s.steps.last().unwrap();
        assert!(last.at + last.request + last.render + last.explore >= SimTime::from_secs(120));
        assert!(!s.trace.is_empty());
    }

    #[test]
    fn widget_mix_tracks_table9() {
        let sessions = simulate_study(7, 8, SimDuration::from_secs(20 * 60));
        let pct = widget_percentages(&sessions);
        let get = |w: Widget| pct.iter().find(|&&(x, _)| x == w).unwrap().1;
        let map = get(Widget::Map);
        assert!((55.0..70.0).contains(&map), "map share {map:.1}%");
        let sc = get(Widget::Slider) + get(Widget::Checkbox);
        assert!((23.0..37.0).contains(&sc), "slider+checkbox {sc:.1}%");
        let button = get(Widget::Button);
        assert!((1.0..7.0).contains(&button), "button {button:.1}%");
        let total: f64 = pct.iter().map(|&(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zoom_stays_leashed_to_start() {
        let sessions = simulate_study(9, 10, short_config());
        for s in &sessions {
            let series = zoom_series(s);
            let start = series[0].1;
            for &(_, z) in &series {
                assert!((z - start).abs() <= 3, "zoom wandered {start} -> {z}");
                assert!((8..=15).contains(&z));
            }
        }
    }

    #[test]
    fn zoom_concentrates_in_11_to_14() {
        let sessions = simulate_study(11, 10, SimDuration::from_secs(600));
        let mut in_band = 0usize;
        let mut total = 0usize;
        for s in &sessions {
            for (_, z) in zoom_series(s) {
                total += 1;
                if (11..=14).contains(&z) {
                    in_band += 1;
                }
            }
        }
        let frac = in_band as f64 / total as f64;
        assert!(frac > 0.8, "only {frac:.2} of zoom samples in 11-14");
    }

    #[test]
    fn drag_distances_shrink_with_zoom() {
        let sessions = simulate_study(13, 12, SimDuration::from_secs(20 * 60));
        let deltas = drag_deltas(&sessions);
        let spread = |zoom: i32| -> f64 {
            let d: Vec<f64> = deltas
                .iter()
                .filter(|&&(z, _, _)| z == zoom)
                .map(|&(_, _, lng)| lng.abs())
                .collect();
            if d.is_empty() {
                return f64::NAN;
            }
            d.iter().cloned().fold(0.0, f64::max)
        };
        let s11 = spread(11);
        let s14 = spread(14);
        if s11.is_nan() || s14.is_nan() {
            panic!("expected drags at both zoom 11 and 14");
        }
        assert!(
            s11 > s14 * 2.0,
            "zoom 11 spread {s11:.3} vs zoom 14 {s14:.4}"
        );
        // Table 10 magnitude check at zoom 11: |d_lng| ≤ 0.4ish.
        assert!(s11 <= 0.45);
    }

    #[test]
    fn filter_count_cdf_shape() {
        let sessions = simulate_study(17, 10, SimDuration::from_secs(20 * 60));
        let counts = filter_counts(&sessions);
        let le4 = counts.iter().filter(|&&c| c <= 4.0).count() as f64 / counts.len() as f64;
        assert!(
            (0.55..0.92).contains(&le4),
            "P(filters <= 4) = {le4:.2}, paper reports ~0.7"
        );
        assert!(counts.iter().cloned().fold(0.0, f64::max) <= 14.0);
    }

    #[test]
    fn phase_times_match_fig21_shape() {
        let sessions = simulate_study(19, 10, SimDuration::from_secs(20 * 60));
        let (req, exp) = phase_times(&sessions);
        let req_under_1s = req.iter().filter(|&&r| r < 1.0).count() as f64 / req.len() as f64;
        assert!(
            (0.7..0.9).contains(&req_under_1s),
            "P(req<1s)={req_under_1s:.2}"
        );
        let exp_over_1s = exp.iter().filter(|&&e| e > 1.0).count() as f64 / exp.len() as f64;
        assert!(exp_over_1s > 0.75, "P(explore>1s)={exp_over_1s:.2}");
        let mean_req = req.iter().sum::<f64>() / req.len() as f64;
        let mean_exp = exp.iter().sum::<f64>() / exp.len() as f64;
        let prefetchable = mean_exp / mean_req;
        assert!(
            (8.0..35.0).contains(&prefetchable),
            "~18 adjacent queries should be prefetchable, got {prefetchable:.1}"
        );
    }

    #[test]
    fn url_serializes_the_query() {
        let s = simulate_session(1, 3, short_config());
        let url = s.steps[0].state.to_url();
        for needle in ["sw_lat=", "ne_lng=", "zoom=", "page=", "guests="] {
            assert!(url.contains(needle), "missing {needle} in {url}");
        }
        assert!(!url.contains('\t'));
    }

    #[test]
    fn trace_request_pairs_are_consistent() {
        let s = simulate_session(2, 5, short_config());
        use std::collections::HashMap;
        let mut started: HashMap<u64, u64> = HashMap::new();
        for r in s.trace.records() {
            match r.event {
                RequestEvent::RequestStart => {
                    started.insert(r.request_id, r.timestamp_ms);
                }
                RequestEvent::RequestEnd => {
                    let t0 = started.get(&r.request_id).expect("end without start");
                    assert!(r.timestamp_ms >= *t0);
                    assert_eq!(r.status, 200);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn determinism() {
        let a = simulate_session(4, 6, short_config());
        let b = simulate_session(4, 6, short_config());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.steps.len(), b.steps.len());
    }

    #[test]
    fn page_button_increments_page() {
        // Directly exercise the widget application.
        let mut rng = SimRng::seed(1);
        let mut state = QueryState {
            place: "X".into(),
            map: MapState {
                zoom: 12,
                center_lat: 40.0,
                center_lng: -100.0,
            },
            filters: vec![],
            page: 1,
        };
        apply_widget(Widget::Button, &mut state, 12, &mut rng);
        assert_eq!(state.page, 2);
        apply_widget(Widget::TextBox, &mut state, 12, &mut rng);
        assert_eq!(state.page, 1);
    }
}
