//! Case study 3: composite interfaces (Section 8).
//!
//! Reproduces: Table 9 (widget shares), Fig 18 (zoom levels over time),
//! Fig 19 / Table 10 (drag ranges per zoom), Fig 20 (filter-count CDF),
//! Fig 21 (request / exploration time CDFs), plus the prefetching
//! implications (≈ 18 prefetchable queries; Markov prefetcher hit rate).

use ids_metrics::stats::Cdf;
use ids_opt::prefetch::{evaluate_tile_strategy, zoom_budget, MarkovPrefetcher, TileStrategy};
use ids_simclock::SimDuration;
use ids_workload::composite::{
    drag_deltas, filter_counts, phase_times, simulate_study, widget_percentages, CompositeSession,
    Widget,
};

use crate::report::{pct, Table};

/// Experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case3Config {
    /// RNG seed.
    pub seed: u64,
    /// Number of participants.
    pub users: usize,
    /// Minimum session duration.
    pub min_session: SimDuration,
}

impl Case3Config {
    /// The paper's scale: 15 users, ≥ 20 minutes each.
    pub fn paper() -> Case3Config {
        Case3Config {
            seed: 83,
            users: 15,
            min_session: SimDuration::from_secs(20 * 60),
        }
    }

    /// A fast scale for unit tests.
    pub fn smoke_test() -> Case3Config {
        Case3Config {
            seed: 83,
            users: 5,
            min_session: SimDuration::from_secs(5 * 60),
        }
    }
}

/// Per-zoom drag statistics (Table 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoomDragRange {
    /// Zoom level.
    pub zoom: i32,
    /// Latitude change range.
    pub lat: (f64, f64),
    /// Longitude change range.
    pub lng: (f64, f64),
    /// Number of drags observed.
    pub drags: usize,
}

/// The full case-study-3 report.
#[derive(Debug, Clone)]
pub struct Case3Report {
    /// Configuration used.
    pub config: Case3Config,
    /// Table 9 widget percentages.
    pub widget_pct: Vec<(Widget, f64)>,
    /// Fig 18: per-user zoom series `(t_secs, zoom)`.
    pub zoom_series: Vec<Vec<(f64, i32)>>,
    /// Table 10 drag ranges for zooms 11–14.
    pub drag_ranges: Vec<ZoomDragRange>,
    /// Fig 20 CDF of filter-condition counts.
    pub filter_cdf: Cdf,
    /// Fig 21 CDFs: request and exploration times (seconds).
    pub request_cdf: Cdf,
    /// Exploration-time CDF (seconds).
    pub explore_cdf: Cdf,
    /// Mean request and exploration times (seconds).
    pub means: (f64, f64),
    /// Markov vs demand-only tile hit rates.
    pub tile_hit_rates: (f64, f64),
    /// Zoom precompute budget shares.
    pub zoom_budget: Vec<(i32, f64)>,
}

/// Runs the full case study.
pub fn run(config: &Case3Config) -> Case3Report {
    let sessions = {
        let _p = ids_obs::phase("case3.simulate");
        simulate_study(config.seed, config.users, config.min_session)
    };
    let _p = ids_obs::phase("case3.analyze");

    let widget_pct = widget_percentages(&sessions);
    let zoom_series = sessions
        .iter()
        .map(|s| {
            ids_workload::composite::zoom_series(s)
                .into_iter()
                .map(|(t, z)| (t.as_secs_f64(), z))
                .collect()
        })
        .collect();
    let drag_ranges = drag_ranges_of(&sessions);
    let filter_cdf = Cdf::of(&filter_counts(&sessions));
    let (req, exp) = phase_times(&sessions);
    let means = (
        req.iter().sum::<f64>() / req.len().max(1) as f64,
        exp.iter().sum::<f64>() / exp.len().max(1) as f64,
    );
    let request_cdf = Cdf::of(&req);
    let explore_cdf = Cdf::of(&exp);

    let mut model = MarkovPrefetcher::new();
    model.train_sessions(&sessions);
    let markov = evaluate_tile_strategy(&sessions, &model, TileStrategy::Markov { top_k: 2 }, 512);
    let demand = evaluate_tile_strategy(&sessions, &model, TileStrategy::DemandOnly, 512);

    Case3Report {
        config: *config,
        widget_pct,
        zoom_series,
        drag_ranges,
        filter_cdf,
        request_cdf,
        explore_cdf,
        means,
        tile_hit_rates: (markov.hit_rate(), demand.hit_rate()),
        zoom_budget: zoom_budget(&sessions),
    }
}

fn drag_ranges_of(sessions: &[CompositeSession]) -> Vec<ZoomDragRange> {
    let deltas = drag_deltas(sessions);
    (11..=14)
        .filter_map(|zoom| {
            let at_zoom: Vec<(f64, f64)> = deltas
                .iter()
                .filter(|&&(z, _, _)| z == zoom)
                .map(|&(_, lat, lng)| (lat, lng))
                .collect();
            if at_zoom.is_empty() {
                return None;
            }
            let fold = |f: fn(f64, f64) -> f64, init: f64, pick: fn(&(f64, f64)) -> f64| {
                at_zoom.iter().map(pick).fold(init, f)
            };
            Some(ZoomDragRange {
                zoom,
                lat: (
                    fold(f64::min, f64::INFINITY, |d| d.0),
                    fold(f64::max, f64::NEG_INFINITY, |d| d.0),
                ),
                lng: (
                    fold(f64::min, f64::INFINITY, |d| d.1),
                    fold(f64::max, f64::NEG_INFINITY, |d| d.1),
                ),
                drags: at_zoom.len(),
            })
        })
        .collect()
}

impl Case3Report {
    /// Average number of adjacent queries prefetchable during exploration
    /// (the paper reports ≈ 18).
    pub fn prefetchable_queries(&self) -> f64 {
        let (req, exp) = self.means;
        if req <= 0.0 {
            return 0.0;
        }
        exp / req
    }

    /// Table 9 rendering.
    pub fn render_table9(&self) -> String {
        let mut t = Table::new(["interface", "percent"]);
        // The paper reports slider and checkbox together.
        let get = |w: Widget| {
            self.widget_pct
                .iter()
                .find(|&&(x, _)| x == w)
                .map(|&(_, p)| p)
                .unwrap_or(0.0)
        };
        t.row(["map", &format!("{:.1}%", get(Widget::Map))]);
        t.row([
            "slider, checkbox",
            &format!("{:.1}%", get(Widget::Slider) + get(Widget::Checkbox)),
        ]);
        t.row(["button", &format!("{:.1}%", get(Widget::Button))]);
        t.row(["text box", &format!("{:.1}%", get(Widget::TextBox))]);
        format!(
            "Table 9: Percentage of queries per interface\n{}",
            t.render()
        )
    }

    /// Fig 18 rendering: zoom dwell summary per user.
    pub fn render_fig18(&self) -> String {
        let mut t = Table::new(["user", "start", "min", "max", "% in 11-14"]);
        for (i, series) in self.zoom_series.iter().enumerate() {
            if series.is_empty() {
                continue;
            }
            let zs: Vec<i32> = series.iter().map(|&(_, z)| z).collect();
            let in_band = zs.iter().filter(|z| (11..=14).contains(*z)).count();
            t.row([
                i.to_string(),
                zs[0].to_string(),
                zs.iter().min().unwrap().to_string(),
                zs.iter().max().unwrap().to_string(),
                pct(in_band as f64 / zs.len() as f64),
            ]);
        }
        format!(
            "Fig 18: Zoom levels over time (summary per user)\n{}",
            t.render()
        )
    }

    /// Table 10 rendering.
    pub fn render_table10(&self) -> String {
        let mut t = Table::new(["zoom", "latitude", "longitude", "# drags"]);
        for r in &self.drag_ranges {
            t.row([
                r.zoom.to_string(),
                format!("[{:.3}, {:.3}]", r.lat.0, r.lat.1),
                format!("[{:.3}, {:.3}]", r.lng.0, r.lng.1),
                r.drags.to_string(),
            ]);
        }
        format!("Table 10: Ranges for center of bounds\n{}", t.render())
    }

    /// Fig 20 rendering.
    pub fn render_fig20(&self) -> String {
        let mut t = Table::new(["# filter conditions", "CDF"]);
        for k in 0..=14 {
            t.row([
                k.to_string(),
                format!("{:.2}", self.filter_cdf.fraction_le(k as f64)),
            ]);
        }
        format!("Fig 20: CDF of number of filter conditions\n{}", t.render())
    }

    /// Fig 21 rendering.
    pub fn render_fig21(&self) -> String {
        let mut t = Table::new(["time (s)", "request CDF", "exploration CDF"]);
        for x in [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0] {
            t.row([
                format!("{x}"),
                format!("{:.2}", self.request_cdf.fraction_le(x)),
                format!("{:.2}", self.explore_cdf.fraction_le(x)),
            ]);
        }
        format!(
            "Fig 21: CDFs for request and exploration time\n{}\
             mean request {:.2}s, mean exploration {:.2}s -> ~{:.0} prefetchable queries\n",
            t.render(),
            self.means.0,
            self.means.1,
            self.prefetchable_queries()
        )
    }

    /// Prefetching implications rendering.
    pub fn render_prefetch(&self) -> String {
        let (markov, demand) = self.tile_hit_rates;
        let mut budget = String::new();
        for &(z, share) in &self.zoom_budget {
            budget.push_str(&format!("  zoom {z}: {}\n", pct(share)));
        }
        format!(
            "Prefetching implications\n\
             tile hit rate, demand-only: {}\n\
             tile hit rate, Markov top-2: {}\n\
             precompute budget by zoom dwell:\n{budget}",
            pct(demand),
            pct(markov),
        )
    }

    /// Full report.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}\n{}\n{}",
            self.render_table9(),
            self.render_fig18(),
            self.render_table10(),
            self.render_fig20(),
            self.render_fig21(),
            self.render_prefetch(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> &'static Case3Report {
        use std::sync::OnceLock;
        static REPORT: OnceLock<Case3Report> = OnceLock::new();
        REPORT.get_or_init(|| {
            run(&Case3Config {
                seed: 83,
                users: 8,
                min_session: SimDuration::from_secs(15 * 60),
            })
        })
    }

    #[test]
    fn table9_map_dominates() {
        let r = report();
        let map = r
            .widget_pct
            .iter()
            .find(|&&(w, _)| w == Widget::Map)
            .unwrap()
            .1;
        assert!((50.0..75.0).contains(&map), "map share {map:.1}%");
    }

    #[test]
    fn table10_ranges_shrink_with_zoom() {
        let r = report();
        assert!(r.drag_ranges.len() >= 3, "need drags at several zooms");
        let span = |z: &ZoomDragRange| z.lng.1 - z.lng.0;
        let z11 = r.drag_ranges.iter().find(|z| z.zoom == 11);
        let z14 = r.drag_ranges.iter().find(|z| z.zoom == 14);
        if let (Some(a), Some(b)) = (z11, z14) {
            assert!(span(a) > span(b), "z11 {:?} vs z14 {:?}", a.lng, b.lng);
        }
    }

    #[test]
    fn fig20_cdf_is_monotone_with_70pct_at_4() {
        let r = report();
        let at4 = r.filter_cdf.fraction_le(4.0);
        assert!((0.5..0.95).contains(&at4), "P(<=4)={at4:.2}");
        let mut prev = 0.0;
        for k in 0..=14 {
            let v = r.filter_cdf.fraction_le(k as f64);
            assert!(v >= prev);
            prev = v;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig21_request_fast_exploration_slow() {
        let r = report();
        assert!(r.request_cdf.fraction_le(1.0) > 0.7);
        assert!(r.explore_cdf.fraction_gt(1.0) > 0.75);
        let p = r.prefetchable_queries();
        assert!((8.0..35.0).contains(&p), "prefetchable {p:.1}");
    }

    #[test]
    fn markov_beats_demand_only() {
        let r = report();
        let (markov, demand) = r.tile_hit_rates;
        assert!(markov > demand, "markov {markov:.3} vs demand {demand:.3}");
    }

    #[test]
    fn render_contains_all_artifacts() {
        let r = report();
        let text = r.render();
        for needle in [
            "Table 9",
            "Fig 18",
            "Table 10",
            "Fig 20",
            "Fig 21",
            "Prefetching",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn determinism() {
        let a = run(&Case3Config::smoke_test());
        let b = run(&Case3Config::smoke_test());
        assert_eq!(a.widget_pct, b.widget_pct);
        assert_eq!(a.means, b.means);
    }
}
