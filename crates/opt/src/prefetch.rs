//! Predictive prefetching for composite interfaces.
//!
//! Case study 3's takeaways feed two techniques:
//!
//! - a **Markov action prefetcher** (the survey's Markov-chain family):
//!   learn order-1 transition probabilities between map actions from
//!   session traces, and prefetch the tiles the predicted next action
//!   would need during the user's ~18 s exploration window;
//! - a **zoom hotspot budget**: since zoom levels concentrate in 11–14
//!   (Fig 18), precomputation budget is split proportionally to observed
//!   zoom dwell.

use std::collections::{BTreeMap, HashMap};

use ids_workload::composite::{CompositeSession, MapState, Widget};

use ids_metrics::cache::{CacheLocation, HitRateCounter};

/// Discrete map actions for the Markov model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MapAction {
    /// Zoom one level in.
    ZoomIn,
    /// Zoom one level out.
    ZoomOut,
    /// Pan dominantly north.
    PanNorth,
    /// Pan dominantly south.
    PanSouth,
    /// Pan dominantly east.
    PanEast,
    /// Pan dominantly west.
    PanWest,
}

impl MapAction {
    /// All actions.
    pub const ALL: [MapAction; 6] = [
        MapAction::ZoomIn,
        MapAction::ZoomOut,
        MapAction::PanNorth,
        MapAction::PanSouth,
        MapAction::PanEast,
        MapAction::PanWest,
    ];

    /// Applies the action to a map state, producing the next viewport.
    pub fn apply(self, state: &MapState) -> MapState {
        let mut next = *state;
        let lng_step = 360.0 / f64::powi(2.0, state.zoom) / 2.0;
        let lat_step = 170.0 / f64::powi(2.0, state.zoom) / 2.0;
        match self {
            MapAction::ZoomIn => next.zoom = (next.zoom + 1).min(18),
            MapAction::ZoomOut => next.zoom = (next.zoom - 1).max(1),
            MapAction::PanNorth => next.center_lat += lat_step,
            MapAction::PanSouth => next.center_lat -= lat_step,
            MapAction::PanEast => next.center_lng += lng_step,
            MapAction::PanWest => next.center_lng -= lng_step,
        }
        next
    }
}

/// Extracts the map-action sequence of one session (non-map steps are
/// transparent: the map state simply carries across them).
pub fn actions_of(session: &CompositeSession) -> Vec<(MapState, MapAction)> {
    let mut out = Vec::new();
    for w in session.steps.windows(2) {
        if w[1].widget != Widget::Map {
            continue;
        }
        let (a, b) = (&w[0].state.map, &w[1].state.map);
        let action = if b.zoom > a.zoom {
            MapAction::ZoomIn
        } else if b.zoom < a.zoom {
            MapAction::ZoomOut
        } else {
            let d_lat = b.center_lat - a.center_lat;
            let d_lng = b.center_lng - a.center_lng;
            if d_lat == 0.0 && d_lng == 0.0 {
                continue;
            }
            if d_lat.abs() >= d_lng.abs() {
                if d_lat > 0.0 {
                    MapAction::PanNorth
                } else {
                    MapAction::PanSouth
                }
            } else if d_lng > 0.0 {
                MapAction::PanEast
            } else {
                MapAction::PanWest
            }
        };
        out.push((*a, action));
    }
    out
}

/// Order-1 Markov model over map actions.
#[derive(Debug, Clone, Default)]
pub struct MarkovPrefetcher {
    // Ordered maps: `predict` ranks by iterating them, and equally
    // probable actions must rank the same way on every run.
    transitions: BTreeMap<MapAction, BTreeMap<MapAction, u64>>,
    /// Unconditional action counts, the fallback for unseen contexts.
    marginals: BTreeMap<MapAction, u64>,
}

impl MarkovPrefetcher {
    /// An untrained model.
    pub fn new() -> MarkovPrefetcher {
        MarkovPrefetcher::default()
    }

    /// Accumulates transition counts from an action sequence.
    pub fn train(&mut self, actions: &[MapAction]) {
        for a in actions {
            *self.marginals.entry(*a).or_insert(0) += 1;
        }
        for w in actions.windows(2) {
            *self
                .transitions
                .entry(w[0])
                .or_default()
                .entry(w[1])
                .or_insert(0) += 1;
        }
    }

    /// Trains from whole sessions.
    pub fn train_sessions(&mut self, sessions: &[CompositeSession]) {
        for s in sessions {
            let seq: Vec<MapAction> = actions_of(s).into_iter().map(|(_, a)| a).collect();
            self.train(&seq);
        }
    }

    /// Predicted next actions after `prev`, most probable first; equally
    /// probable actions in [`MapAction::ALL`] order.
    pub fn predict(&self, prev: MapAction) -> Vec<(MapAction, f64)> {
        let counts = self.transitions.get(&prev).unwrap_or(&self.marginals);
        let total: u64 = counts.values().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut out: Vec<(MapAction, f64)> = counts
            .iter()
            .map(|(&a, &c)| (a, c as f64 / total as f64))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probabilities"));
        out
    }
}

/// A map tile key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileId {
    /// Zoom level.
    pub zoom: i32,
    /// Tile column.
    pub x: i64,
    /// Tile row.
    pub y: i64,
}

/// Tiles covering a viewport (3×3 around the centre tile, like slippy-map
/// clients over-fetch one ring).
pub fn viewport_tiles(state: &MapState) -> Vec<TileId> {
    let n = f64::powi(2.0, state.zoom);
    let cx = ((state.center_lng + 180.0) / 360.0 * n).floor() as i64;
    let cy = ((90.0 - state.center_lat) / 180.0 * n).floor() as i64;
    let mut tiles = Vec::with_capacity(9);
    for dx in -1..=1 {
        for dy in -1..=1 {
            tiles.push(TileId {
                zoom: state.zoom,
                x: cx + dx,
                y: cy + dy,
            });
        }
    }
    tiles
}

/// Prefetch strategies compared by the tile-cache evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileStrategy {
    /// Demand fetching only (tiles cached after first use).
    DemandOnly,
    /// Demand fetching plus Markov prediction: after serving a step, the
    /// top-k predicted next viewports are prefetched during think time.
    Markov {
        /// How many predicted actions to prefetch for.
        top_k: usize,
    },
}

/// Replays the map steps of sessions through a tile cache and reports the
/// user-visible hit rate.
pub fn evaluate_tile_strategy(
    sessions: &[CompositeSession],
    model: &MarkovPrefetcher,
    strategy: TileStrategy,
    cache_capacity: usize,
) -> HitRateCounter {
    let reg = ids_obs::metrics();
    let hits_ctr = reg.counter("opt.prefetch.tile_hits");
    let miss_ctr = reg.counter("opt.prefetch.tile_misses");
    let prefetched_ctr = reg.counter("opt.prefetch.tiles_prefetched");
    let rec = ids_obs::recorder();

    let mut counter = HitRateCounter::new(CacheLocation::Frontend);
    for session in sessions {
        // Per-session cache (a fresh browser).
        let mut cache: lru::LruCache = lru::LruCache::new(cache_capacity);
        let actions = actions_of(session);
        let lookups_before = counter.lookups();
        let hits_before = counter.hits();
        let mut prefetched_this_session = 0u64;
        for (i, (state, action)) in actions.iter().enumerate() {
            let next_state = action.apply(state);
            // The user performs `action`: the next viewport's tiles load.
            for tile in viewport_tiles(&next_state) {
                let was_hit = cache.get(tile);
                counter.record(was_hit);
                if was_hit {
                    hits_ctr.inc();
                } else {
                    miss_ctr.inc();
                }
                cache.put(tile);
            }
            // During think time, prefetch for the predicted follow-up.
            if let TileStrategy::Markov { top_k } = strategy {
                let _ = i;
                for (predicted, _) in model.predict(*action).into_iter().take(top_k) {
                    let predicted_state = predicted.apply(&next_state);
                    for tile in viewport_tiles(&predicted_state) {
                        cache.put(tile);
                        prefetched_this_session += 1;
                    }
                }
            }
        }
        prefetched_ctr.add(prefetched_this_session);
        // One span per session covering its map activity, so prefetch
        // effectiveness is visible on the trace timeline.
        if rec.is_enabled() && !session.steps.is_empty() {
            let track = rec.track("opt/prefetch");
            let start = session.steps[0].at;
            let end = session.steps[session.steps.len() - 1].at;
            let hits = counter.hits() - hits_before;
            let lookups = counter.lookups() - lookups_before;
            rec.record_span(
                "opt",
                "prefetch.session",
                track,
                start,
                end.saturating_since(start),
                vec![
                    ("tile_hits", ids_obs::ArgValue::U64(hits)),
                    ("tile_misses", ids_obs::ArgValue::U64(lookups - hits)),
                    (
                        "tiles_prefetched",
                        ids_obs::ArgValue::U64(prefetched_this_session),
                    ),
                ],
            );
        }
    }
    counter
}

/// Splits a precomputation budget across zoom levels proportionally to
/// observed dwell (the Fig 18 hotspot guidance). Returns
/// `(zoom, budget_share)` for each observed level, shares summing to 1.
pub fn zoom_budget(sessions: &[CompositeSession]) -> Vec<(i32, f64)> {
    let mut counts: HashMap<i32, u64> = HashMap::new();
    let mut total = 0u64;
    for s in sessions {
        for step in &s.steps {
            *counts.entry(step.state.map.zoom).or_insert(0) += 1;
            total += 1;
        }
    }
    let mut out: Vec<(i32, f64)> = counts
        .into_iter()
        .map(|(z, c)| (z, c as f64 / total.max(1) as f64))
        .collect();
    out.sort_by_key(|&(z, _)| z);
    out
}

/// A tiny internal LRU for tile caching (distinct from the engine's page
/// buffer pool, which manages pinned byte pages).
mod lru {
    use super::TileId;
    use std::collections::HashMap;

    #[derive(Debug)]
    pub struct LruCache {
        capacity: usize,
        stamp: u64,
        entries: HashMap<TileId, u64>,
    }

    impl LruCache {
        pub fn new(capacity: usize) -> LruCache {
            LruCache {
                capacity: capacity.max(1),
                stamp: 0,
                entries: HashMap::new(),
            }
        }

        /// Returns whether the tile was present (and refreshes it).
        pub fn get(&mut self, id: TileId) -> bool {
            self.stamp += 1;
            if let Some(t) = self.entries.get_mut(&id) {
                *t = self.stamp;
                true
            } else {
                false
            }
        }

        pub fn put(&mut self, id: TileId) {
            self.stamp += 1;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&id) {
                if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &t)| t) {
                    self.entries.remove(&victim);
                }
            }
            self.entries.insert(id, self.stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_simclock::SimDuration;
    use ids_workload::composite::simulate_study;

    fn sessions() -> Vec<CompositeSession> {
        simulate_study(31, 6, SimDuration::from_secs(900))
    }

    #[test]
    fn actions_extracted_from_map_steps_only() {
        let ss = sessions();
        let mut total = 0usize;
        for s in &ss {
            let acts = actions_of(s);
            total += acts.len();
            let map_steps = s
                .steps
                .iter()
                .skip(1)
                .filter(|st| st.widget == Widget::Map)
                .count();
            assert!(acts.len() <= map_steps);
        }
        assert!(total > 50, "enough actions to learn from: {total}");
    }

    #[test]
    fn markov_probabilities_are_normalized() {
        let mut m = MarkovPrefetcher::new();
        m.train_sessions(&sessions());
        for a in MapAction::ALL {
            let preds = m.predict(a);
            if preds.is_empty() {
                continue;
            }
            let total: f64 = preds.iter().map(|&(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "{a:?}: {total}");
            assert!(preds.windows(2).all(|w| w[0].1 >= w[1].1), "sorted desc");
        }
    }

    #[test]
    fn untrained_model_predicts_nothing() {
        let m = MarkovPrefetcher::new();
        assert!(m.predict(MapAction::ZoomIn).is_empty());
    }

    #[test]
    fn markov_prefetch_beats_demand_only() {
        let ss = sessions();
        let mut m = MarkovPrefetcher::new();
        m.train_sessions(&ss);
        let demand = evaluate_tile_strategy(&ss, &m, TileStrategy::DemandOnly, 512);
        let markov = evaluate_tile_strategy(&ss, &m, TileStrategy::Markov { top_k: 2 }, 512);
        assert!(
            markov.hit_rate() > demand.hit_rate(),
            "markov {:.3} vs demand {:.3}",
            markov.hit_rate(),
            demand.hit_rate()
        );
    }

    #[test]
    fn equally_probable_predictions_rank_in_declaration_order() {
        use MapAction::{PanNorth, PanWest, ZoomIn};
        let mut m = MarkovPrefetcher::new();
        m.train(&[ZoomIn, PanWest, ZoomIn, PanNorth]);
        assert_eq!(m.predict(ZoomIn), vec![(PanNorth, 0.5), (PanWest, 0.5)]);
    }

    #[test]
    fn apply_is_consistent() {
        let s = MapState {
            zoom: 12,
            center_lat: 40.0,
            center_lng: -100.0,
        };
        assert_eq!(MapAction::ZoomIn.apply(&s).zoom, 13);
        assert_eq!(MapAction::ZoomOut.apply(&s).zoom, 11);
        assert!(MapAction::PanNorth.apply(&s).center_lat > s.center_lat);
        assert!(MapAction::PanWest.apply(&s).center_lng < s.center_lng);
    }

    #[test]
    fn viewport_tiles_form_a_ring() {
        let s = MapState {
            zoom: 12,
            center_lat: 40.0,
            center_lng: -100.0,
        };
        let tiles = viewport_tiles(&s);
        assert_eq!(tiles.len(), 9);
        let xs: std::collections::HashSet<i64> = tiles.iter().map(|t| t.x).collect();
        assert_eq!(xs.len(), 3);
        assert!(tiles.iter().all(|t| t.zoom == 12));
    }

    #[test]
    fn zoom_budget_concentrates_on_hotspots() {
        let budget = zoom_budget(&sessions());
        let total: f64 = budget.iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let band: f64 = budget
            .iter()
            .filter(|&&(z, _)| (11..=14).contains(&z))
            .map(|&(_, s)| s)
            .sum();
        assert!(band > 0.8, "most budget in zoom 11-14, got {band:.2}");
    }
}
