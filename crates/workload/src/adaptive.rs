//! Closed-loop adaptive behavior model.
//!
//! Every other workload family in this crate is **open-loop**: the next
//! action is scripted before the first answer arrives. Real exploration
//! is **closed-loop** (Purich et al., *An Adaptive Benchmark for
//! Modeling User Exploration*): the user zooms into the dense bin they
//! just saw, drills when one bin is an outlier, backtracks when a
//! filter empties the view, and abandons the session when answers are
//! slow. [`BehaviorPolicy`] models exactly that as a seeded state
//! machine whose next action is a **pure function of
//! `(seed, step, state, last feedback)`** — the feedback being the
//! previous query group's latency, [`ResultQuality`] (including
//! `Partial` bounds and shed/`Failed` answers), and histogram.
//!
//! Determinism discipline: every step draws from a fresh
//! `SimRng::seed(seed).split("behavior/{step}")`, so the randomness a
//! step consumes never depends on which transition fired before it.
//! Latency influences **only** the abandon transition; zoom, drill,
//! backtrack, and explore depend only on result *content*. That makes
//! the action stream replay-, thread-, and shard-invariant (answers are
//! merged deterministically, so identical answers ⇒ identical actions)
//! and the abandon rate provably monotone in injected latency: adding a
//! constant delay leaves every action unchanged and can only move the
//! abandon point earlier.

use ids_devices::DeviceKind;
use ids_engine::{BinSpec, Histogram, Predicate, Query, ResultQuality};
use ids_simclock::rng::SimRng;
use ids_simclock::{SimDuration, SimTime};

use crate::crossfilter::{self, CrossfilterUi, QueryGroup};
use crate::trace::{RequestEvent, RequestRecord, ResourceType, SliderRecord};

/// What the user observed from the previous action's query group.
#[derive(Debug, Clone, PartialEq)]
pub struct Feedback {
    /// Time from issuing the action's queries to the last answer.
    pub latency: SimDuration,
    /// Worst answer quality in the group (`Failed` covers shed queries).
    pub quality: ResultQuality,
    /// The histogram the user is looking at (the group's first answer),
    /// `None` before the first action or when every query was shed.
    pub histogram: Option<Histogram>,
    /// Which UI dimension `histogram` describes.
    pub hist_dim: usize,
}

impl Feedback {
    /// The blank feedback that seeds a session (nothing observed yet).
    pub fn initial() -> Feedback {
        Feedback {
            latency: SimDuration::ZERO,
            quality: ResultQuality::Exact,
            histogram: None,
            hist_dim: 0,
        }
    }

    /// Feedback for a fully shed / failed action: the user stared at a
    /// spinner for `latency` and got nothing.
    pub fn failed(latency: SimDuration) -> Feedback {
        Feedback {
            latency,
            quality: ResultQuality::Failed,
            histogram: None,
            hist_dim: 0,
        }
    }
}

/// Which feedback transition produced an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// Open-ended slider move (no strong signal in the last answer).
    Explore,
    /// Narrowed onto the dominant bin of the observed histogram.
    Zoom,
    /// Switched dimension to chase an outlier bin.
    Drill,
    /// Restored the previous range after an empty answer.
    Backtrack,
}

impl ActionKind {
    /// Stable lowercase token, used in digests and tables.
    pub fn token(self) -> &'static str {
        match self {
            ActionKind::Explore => "explore",
            ActionKind::Zoom => "zoom",
            ActionKind::Drill => "drill",
            ActionKind::Backtrack => "backtrack",
        }
    }
}

/// One closed-loop action: a slider manipulation plus the full widget
/// state it leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveAction {
    /// Zero-based action index within the session.
    pub step: usize,
    /// Virtual time the user acted (previous answer + think time).
    pub at: SimTime,
    /// Which transition fired.
    pub kind: ActionKind,
    /// Which slider the action manipulated.
    pub slider: usize,
    /// Every dimension's `(lo, hi)` range *after* the action.
    pub ranges: Vec<(f64, f64)>,
}

impl AdaptiveAction {
    /// Projects the action onto the crossfilter trace schema (Table 5):
    /// the moved slider's new range at the action time.
    pub fn slider_record(&self) -> SliderRecord {
        let (lo, hi) = self.ranges[self.slider];
        SliderRecord {
            timestamp_ms: self.at.as_millis(),
            min_val: lo,
            max_val: hi,
            slider_idx: self.slider as u8,
        }
    }

    /// Projects the action onto the composite-interface request schema:
    /// a `url_update` whose URL serializes the full widget state, the
    /// exact shape the interface miner consumes.
    pub fn request_record(&self, ui: &CrossfilterUi) -> RequestRecord {
        RequestRecord {
            timestamp_ms: self.at.as_millis(),
            tab_url: state_url(&ui.table, ui, &self.ranges),
            request_id: self.step as u64,
            resource_type: ResourceType::Data,
            event: RequestEvent::UrlUpdate,
            status: 200,
        }
    }

    /// Stable one-line rendering for action-stream digests.
    pub fn digest_line(&self) -> String {
        let ranges = self
            .ranges
            .iter()
            .map(|&(lo, hi)| format!("{lo:?}..{hi:?}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.step,
            self.at.as_micros(),
            self.kind.token(),
            self.slider,
            ranges
        )
    }
}

/// Serializes a widget state as a canonical URL: `ids://xf/{table}?`
/// followed by `{column}_min`/`{column}_max` pairs in dimension order.
/// `{:?}` formatting round-trips `f64` exactly.
pub fn state_url(table: &str, ui: &CrossfilterUi, ranges: &[(f64, f64)]) -> String {
    let params = ui
        .dims
        .iter()
        .zip(ranges.iter())
        .map(|(d, &(lo, hi))| format!("{c}_min={lo:?}&{c}_max={hi:?}", c = d.column))
        .collect::<Vec<_>>()
        .join("&");
    format!("ids://xf/{table}?{params}")
}

/// Compiles one action into the query group the backend sees: exactly
/// the crossfilter shape (`n − 1` filtered histograms), but against the
/// action's full multi-dimension range state.
pub fn compile_action(ui: &CrossfilterUi, action: &AdaptiveAction) -> QueryGroup {
    let filter = Predicate::and(
        ui.dims
            .iter()
            .zip(action.ranges.iter())
            .map(|(d, &(lo, hi))| Predicate::between(d.column.clone(), lo, hi)),
    );
    let queries = ui
        .dims
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != action.slider)
        .map(|(_, d)| {
            Query::histogram(
                ui.table.clone(),
                BinSpec::new(d.column.clone(), d.min, d.max, d.bins),
                filter.clone(),
            )
        })
        .collect();
    QueryGroup {
        at: action.at,
        slider: action.slider,
        queries,
    }
}

/// Consecutive slow answers tolerated before abandoning.
pub const PATIENCE: usize = 3;

/// Zoom when the densest bin holds at least this fraction of the
/// observed total.
pub const ZOOM_SHARE: f64 = 0.35;

/// Drill when the densest bin is at least this multiple of the median
/// non-empty bin (but below [`ZOOM_SHARE`]).
pub const DRILL_RATIO: f64 = 4.0;

/// Tuning knobs for the behavior state machine. The thresholds that
/// decide a zoom, a drill or an abandonment are properties of the user
/// model, not knobs: [`ZOOM_SHARE`], [`DRILL_RATIO`] and [`PATIENCE`].
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorConfig {
    /// Session length in actions (closed-loop sessions are
    /// action-bounded, not duration-bounded, so injected latency can
    /// never *end* a session early except through abandonment).
    pub max_actions: usize,
    /// A group slower than this counts as a slow answer.
    pub abandon_after: SimDuration,
}

impl Default for BehaviorConfig {
    fn default() -> BehaviorConfig {
        BehaviorConfig {
            max_actions: 24,
            abandon_after: SimDuration::from_millis(400),
        }
    }
}

/// Where the state machine currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviorState {
    /// Default wandering.
    Exploring,
    /// Inside a zoom chain `depth` levels deep.
    Zooming {
        /// Consecutive zooms without leaving the state.
        depth: usize,
    },
    /// Just chased an outlier onto another dimension.
    Drilling,
    /// Just restored a previous range.
    Backtracking,
    /// Gave up on slow answers; the session is over.
    Abandoned,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Adaptive,
    StaticReplay { device: DeviceKind, user: usize },
}

/// A seeded behavior model: either the closed-loop state machine or a
/// feedback-blind replay of the open-loop crossfilter simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorPolicy {
    seed: u64,
    ui: CrossfilterUi,
    config: BehaviorConfig,
    mode: Mode,
}

impl BehaviorPolicy {
    /// The closed-loop policy over `ui`, seeded.
    pub fn adaptive(seed: u64, ui: CrossfilterUi) -> BehaviorPolicy {
        BehaviorPolicy {
            seed,
            ui,
            config: BehaviorConfig::default(),
            mode: Mode::Adaptive,
        }
    }

    /// Replaces the behavior knobs.
    pub fn with_config(mut self, config: BehaviorConfig) -> BehaviorPolicy {
        self.config = config;
        self
    }

    /// Feedback disabled: replays the open-loop
    /// [`crossfilter::simulate_session`] trace for `(device, user,
    /// seed)` action by action, ignoring every answer. Drives through
    /// the same closed-loop machinery but reproduces the open-loop
    /// trace bit for bit.
    pub fn static_replay(
        device: DeviceKind,
        user: usize,
        seed: u64,
        ui: CrossfilterUi,
    ) -> BehaviorPolicy {
        BehaviorPolicy {
            seed,
            ui,
            config: BehaviorConfig::default(),
            mode: Mode::StaticReplay { device, user },
        }
    }

    /// The interface this policy manipulates.
    pub fn ui(&self) -> &CrossfilterUi {
        &self.ui
    }

    /// Starts a fresh session (sliders at full domain, step 0).
    pub fn session(&self) -> BehaviorSession {
        let replay = match &self.mode {
            Mode::Adaptive => None,
            Mode::StaticReplay { device, user } => {
                let s = crossfilter::simulate_session(*device, *user, self.seed, &self.ui);
                Some(s.trace.records().to_vec().into_iter())
            }
        };
        BehaviorSession {
            seed: self.seed,
            ui: self.ui.clone(),
            config: self.config.clone(),
            state: BehaviorState::Exploring,
            ranges: self.ui.initial_ranges(),
            undo: Vec::new(),
            slow_streak: 0,
            step: 0,
            now: SimTime::ZERO,
            replay,
            done: false,
        }
    }
}

/// One in-flight session of a [`BehaviorPolicy`]: call
/// [`next_action`](BehaviorSession::next_action) with the previous
/// action's [`Feedback`] until it returns `None`.
#[derive(Debug)]
pub struct BehaviorSession {
    seed: u64,
    ui: CrossfilterUi,
    config: BehaviorConfig,
    state: BehaviorState,
    ranges: Vec<(f64, f64)>,
    undo: Vec<(usize, (f64, f64))>,
    slow_streak: usize,
    step: usize,
    now: SimTime,
    replay: Option<std::vec::IntoIter<SliderRecord>>,
    done: bool,
}

impl BehaviorSession {
    /// Current state-machine position.
    pub fn state(&self) -> BehaviorState {
        self.state
    }

    /// `true` once the user has walked away from slow answers.
    pub fn abandoned(&self) -> bool {
        self.state == BehaviorState::Abandoned
    }

    /// Actions emitted so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Compiles `action` into its backend query group.
    pub fn compile(&self, action: &AdaptiveAction) -> QueryGroup {
        compile_action(&self.ui, action)
    }

    /// Advances the state machine by one action, or ends the session.
    /// Total: any `Feedback` shape (including out-of-range `hist_dim`
    /// and foreign histogram widths) yields either a valid action with
    /// strictly advancing time or a terminal `None` — never a wedge.
    /// Once `None` is returned the session stays ended.
    pub fn next_action(&mut self, feedback: &Feedback) -> Option<AdaptiveAction> {
        if self.done {
            return None;
        }
        if let Some(replay) = self.replay.as_mut() {
            let (Some(rec), false) = (replay.next(), self.ranges.is_empty()) else {
                self.done = true;
                return None;
            };
            let slider = (rec.slider_idx as usize).min(self.ranges.len() - 1);
            self.ranges[slider] = (rec.min_val, rec.max_val);
            let action = AdaptiveAction {
                step: self.step,
                at: SimTime::from_millis(rec.timestamp_ms),
                kind: ActionKind::Explore,
                slider,
                ranges: self.ranges.clone(),
            };
            self.step += 1;
            return Some(action);
        }

        if self.ui.dims.is_empty() || self.step >= self.config.max_actions {
            self.done = true;
            return None;
        }

        // Abandon-on-slow: the only latency-sensitive transition. Shed
        // and failed answers read as slow — the spinner never resolved.
        let slow = feedback.quality == ResultQuality::Failed
            || feedback.latency > self.config.abandon_after;
        if self.step > 0 {
            if slow {
                self.slow_streak += 1;
            } else {
                self.slow_streak = 0;
            }
            if self.slow_streak >= PATIENCE {
                self.state = BehaviorState::Abandoned;
                self.done = true;
                return None;
            }
        }

        // Per-step RNG split: the noise a step consumes is independent
        // of which transitions fired before it.
        let mut rng = SimRng::seed(self.seed).split(&format!("behavior/{}", self.step));
        let think = SimDuration::from_secs_f64(rng.uniform(0.3, 1.5));
        let at = if self.step == 0 {
            self.now + think
        } else {
            self.now + feedback.latency + think
        };

        let slider = self.transition(feedback, &mut rng);
        self.now = at;
        let action = AdaptiveAction {
            step: self.step,
            at,
            kind: match self.state {
                BehaviorState::Zooming { .. } => ActionKind::Zoom,
                BehaviorState::Drilling => ActionKind::Drill,
                BehaviorState::Backtracking => ActionKind::Backtrack,
                _ => ActionKind::Explore,
            },
            slider,
            ranges: self.ranges.clone(),
        };
        self.step += 1;
        Some(action)
    }

    /// Applies the content-driven transition, mutating the range state,
    /// and returns the manipulated slider.
    fn transition(&mut self, feedback: &Feedback, rng: &mut SimRng) -> usize {
        let dims = self.ui.dims.len();
        let observed = if self.step == 0 {
            None
        } else {
            feedback.histogram.as_ref()
        };
        let Some(hist) = observed else {
            return self.explore(rng);
        };

        // Backtrack-on-empty: the current filter shows nothing.
        if hist.total() == 0 {
            self.state = BehaviorState::Backtracking;
            return match self.undo.pop() {
                Some((dim, range)) => {
                    self.ranges[dim] = range;
                    dim
                }
                None => {
                    // Nothing to undo: reset the whole arrangement.
                    self.ranges = self.ui.initial_ranges();
                    rng.uniform_usize(0, dims)
                }
            };
        }

        let counts = hist.counts();
        let (peak_bin, peak) = counts
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap_or((0, 0));
        let total = hist.total();
        let frac = (peak_bin as f64 + 0.5) / counts.len().max(1) as f64;
        let dim = feedback.hist_dim.min(dims - 1);

        // Zoom-into-dense-bin: one bin dominates the view.
        if peak as f64 >= ZOOM_SHARE * total as f64 {
            let d = &self.ui.dims[dim];
            let center = d.min + frac * d.span();
            let margin = (d.span() / counts.len().max(1) as f64) * rng.uniform(0.6, 1.4);
            self.undo.push((dim, self.ranges[dim]));
            let lo = (center - margin).max(d.min);
            let hi = (center + margin).min(d.max).max(lo);
            self.ranges[dim] = (lo, hi);
            let depth = match self.state {
                BehaviorState::Zooming { depth } => depth + 1,
                _ => 1,
            };
            self.state = BehaviorState::Zooming { depth };
            return dim;
        }

        // Drill-on-outlier: a bin stands well above the median without
        // dominating — chase it on a *different* dimension.
        let mut nonzero: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
        nonzero.sort_unstable();
        let median = nonzero[nonzero.len() / 2];
        if median > 0 && peak as f64 >= DRILL_RATIO * median as f64 && dims > 1 {
            let other = (dim + 1 + rng.uniform_usize(0, dims - 1)) % dims;
            let d = &self.ui.dims[other];
            let center = d.min + frac * d.span();
            let half = d.span() * rng.uniform(0.05, 0.12);
            self.undo.push((other, self.ranges[other]));
            let lo = (center - half).max(d.min);
            let hi = (center + half).min(d.max).max(lo);
            self.ranges[other] = (lo, hi);
            self.state = BehaviorState::Drilling;
            return other;
        }

        self.explore(rng)
    }

    /// The open-loop fallback move: pick a slider, drag one handle to a
    /// fresh target (same target distribution as the crossfilter
    /// simulator, collapsed to a single discrete jump).
    fn explore(&mut self, rng: &mut SimRng) -> usize {
        let slider = rng.uniform_usize(0, self.ui.dims.len());
        let d = &self.ui.dims[slider];
        let move_lo = rng.chance(0.5);
        let (cur_lo, cur_hi) = self.ranges[slider];
        if move_lo {
            let target = rng
                .uniform(d.min, cur_hi - d.span() * 0.05)
                .clamp(d.min, d.max);
            self.ranges[slider].0 = target.min(cur_hi);
        } else {
            let target = rng
                .uniform(cur_lo + d.span() * 0.05, d.max)
                .clamp(d.min, d.max);
            self.ranges[slider].1 = target.max(cur_lo);
        }
        self.state = BehaviorState::Exploring;
        slider
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ui() -> CrossfilterUi {
        CrossfilterUi::for_road()
    }

    fn exact(hist: Histogram, latency_ms: u64) -> Feedback {
        Feedback {
            latency: SimDuration::from_millis(latency_ms),
            quality: ResultQuality::Exact,
            histogram: Some(hist),
            hist_dim: 0,
        }
    }

    /// Drives a session with a fixed feedback per step; returns actions.
    fn drive(policy: &BehaviorPolicy, fb: impl Fn(usize) -> Feedback) -> Vec<AdaptiveAction> {
        let mut session = policy.session();
        let mut out = Vec::new();
        let mut feedback = Feedback::initial();
        while let Some(a) = session.next_action(&feedback) {
            feedback = fb(a.step);
            out.push(a);
        }
        out
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let p = BehaviorPolicy::adaptive(9, ui());
        let fb = |_| exact(Histogram::from_counts(vec![5, 90, 5]), 50);
        let a = drive(&p, fb);
        let b = drive(&p, fb);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn dense_bin_triggers_zoom_and_narrows_the_range() {
        let p = BehaviorPolicy::adaptive(3, ui());
        let actions = drive(&p, |_| exact(Histogram::from_counts(vec![1, 200, 1]), 10));
        assert!(actions.iter().any(|a| a.kind == ActionKind::Zoom));
        let first_zoom = actions.iter().find(|a| a.kind == ActionKind::Zoom).unwrap();
        let d = &ui().dims[first_zoom.slider];
        let (lo, hi) = first_zoom.ranges[first_zoom.slider];
        assert!(hi - lo < d.span() * 0.95, "zoom narrows: {lo}..{hi}");
    }

    #[test]
    fn empty_answer_triggers_backtrack() {
        let p = BehaviorPolicy::adaptive(4, ui());
        let actions = drive(&p, |step| {
            if step % 2 == 1 {
                exact(Histogram::zeros(20), 10)
            } else {
                exact(Histogram::from_counts(vec![1, 300, 1]), 10)
            }
        });
        assert!(actions.iter().any(|a| a.kind == ActionKind::Backtrack));
    }

    #[test]
    fn outlier_triggers_drill_onto_another_dimension() {
        // Peak 40 of total 58: below the 0.35·total zoom share… no,
        // 40 ≥ 0.35·58 — use a flatter shape with one spike instead.
        let spike = {
            let mut c = vec![6u64; 20];
            c[7] = 30; // total 144, peak 30 < 50.4, ratio 30/6 = 5 ≥ 4
            c
        };
        let p = BehaviorPolicy::adaptive(5, ui());
        let actions = drive(&p, move |_| {
            exact(Histogram::from_counts(spike.clone()), 10)
        });
        let drill = actions.iter().find(|a| a.kind == ActionKind::Drill);
        let drill = drill.expect("outlier shape drills");
        assert_ne!(drill.slider, 0, "drill switches off the observed dim");
    }

    #[test]
    fn slow_answers_abandon_after_patience_runs_out() {
        let p = BehaviorPolicy::adaptive(6, ui());
        let mut session = p.session();
        let mut feedback = Feedback::initial();
        let mut n = 0;
        while let Some(_a) = session.next_action(&feedback) {
            feedback = exact(Histogram::from_counts(vec![3, 3, 3]), 2_000);
            n += 1;
        }
        assert!(session.abandoned());
        assert_eq!(n, PATIENCE);
    }

    #[test]
    fn fast_answers_never_abandon() {
        let p = BehaviorPolicy::adaptive(6, ui());
        let actions = drive(&p, |_| exact(Histogram::from_counts(vec![3, 3, 3]), 2));
        assert_eq!(actions.len(), BehaviorConfig::default().max_actions);
    }

    #[test]
    fn static_replay_reproduces_the_open_loop_trace() {
        let device = DeviceKind::Touch;
        let p = BehaviorPolicy::static_replay(device, 1, 42, ui());
        // Feed wildly varying feedback: replay must ignore it all.
        let actions = drive(&p, |step| {
            if step % 3 == 0 {
                Feedback::failed(SimDuration::from_secs(5))
            } else {
                exact(Histogram::zeros(4), 900)
            }
        });
        let open = crossfilter::simulate_session(device, 1, 42, &ui());
        let replayed: Vec<SliderRecord> = actions.iter().map(|a| a.slider_record()).collect();
        assert_eq!(replayed, open.trace.records().to_vec());
    }

    #[test]
    fn compiled_groups_match_the_crossfilter_shape() {
        let p = BehaviorPolicy::adaptive(8, ui());
        let session = p.session();
        let actions = drive(&p, |_| exact(Histogram::from_counts(vec![9, 1, 1]), 10));
        for a in &actions {
            let g = session.compile(a);
            assert_eq!(g.queries.len(), ui().dims.len() - 1);
            assert_eq!(g.at, a.at);
            for q in &g.queries {
                assert_eq!(q.filter().expect("filtered").condition_count(), 3);
            }
        }
    }

    #[test]
    fn actions_advance_time_strictly() {
        let p = BehaviorPolicy::adaptive(10, ui());
        let actions = drive(&p, |_| exact(Histogram::from_counts(vec![1, 1]), 120));
        assert!(actions.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn state_url_round_trips_floats_exactly() {
        let u = ui();
        let url = state_url("dataroad", &u, &u.initial_ranges());
        assert!(url.starts_with("ids://xf/dataroad?x_min="));
        assert!(url.contains(&format!("x_max={:?}", u.dims[0].max)));
        assert!(!url.contains('\t'));
    }
}
