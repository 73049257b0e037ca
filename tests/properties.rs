//! Property-based tests over the workspace's core invariants.

use ids::chaos::FaultPlan;
use ids::engine::kernels::{self, KernelOptions, KernelStats};
use ids::engine::ResultQuality;
use ids::engine::{Backend, MemBackend};
use ids::engine::{BinSpec, ColumnBuilder, Histogram, Predicate, Query, Table, TableBuilder};
use ids::metrics::lcv::{budget_violations, cascade_violations, supply_violations, QuerySpan};
use ids::metrics::qif::qif_windows;
use ids::metrics::stats::{Cdf, Summary};
use ids::opt::klfilter::kl_divergence;
use ids::simclock::rng::SimRng;
use ids::simclock::{SimDuration, SimTime};
use ids::study::assignment::{balanced_latin_square, is_latin_square, latin_square};
use ids::workload::adaptive::{BehaviorConfig, BehaviorPolicy, Feedback};
use ids::workload::crossfilter::CrossfilterUi;
use ids::workload::mining::{self, InterfaceSpec, WidgetSpec};
use ids::workload::trace::{ScrollRecord, SliderRecord, Trace, TraceRecord};
use proptest::prelude::*;

fn float_table(xs: Vec<f64>) -> Table {
    TableBuilder::new("t")
        .column("x", ColumnBuilder::float(xs.clone()))
        .column("y", ColumnBuilder::float(xs.into_iter().map(|v| v * 2.0)))
        .build()
        .expect("table")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LIMIT/OFFSET pagination partitions the table: concatenating pages
    /// yields every row exactly once, in order.
    #[test]
    fn pagination_partitions_table(
        rows in 1usize..200,
        page in 1usize..40,
    ) {
        let table = TableBuilder::new("t")
            .column("id", ColumnBuilder::int(0..rows as i64))
            .build()
            .expect("table");
        let backend = MemBackend::new();
        backend.database().register(table);
        let mut seen = Vec::new();
        let mut offset = 0;
        loop {
            let q = Query::select("t", vec![], Predicate::True, Some(page), offset);
            let out = backend.execute(&q).expect("select");
            let rows_out = out.result.rows().expect("rows").to_vec();
            if rows_out.is_empty() {
                break;
            }
            seen.extend(rows_out.iter().map(|r| r[0].as_i64().expect("int")));
            offset += page;
        }
        prop_assert_eq!(seen, (0..rows as i64).collect::<Vec<_>>());
    }

    /// A filtered count never exceeds the table size and agrees with a
    /// naive scan.
    #[test]
    fn filter_agrees_with_naive_scan(
        xs in prop::collection::vec(-100.0f64..100.0, 1..300),
        lo in -100.0f64..100.0,
        width in 0.0f64..100.0,
    ) {
        let hi = lo + width;
        let table = float_table(xs.clone());
        let backend = MemBackend::new();
        backend.database().register(table);
        let q = Query::count("t", Predicate::between("x", lo, hi));
        let count = backend.execute(&q).expect("count").scalar_count().expect("scalar");
        let naive = xs.iter().filter(|&&x| x >= lo && x <= hi).count() as u64;
        prop_assert_eq!(count, naive);
    }

    /// Histogram totals equal the number of filtered rows that fall in
    /// the bin domain.
    #[test]
    fn histogram_total_matches_in_domain_rows(
        xs in prop::collection::vec(0.0f64..100.0, 1..300),
        bins in 1usize..30,
    ) {
        let table = float_table(xs.clone());
        let backend = MemBackend::new();
        backend.database().register(table);
        let spec = BinSpec::new("y", 0.0, 200.0, bins);
        let q = Query::histogram("t", spec.clone(), Predicate::True);
        let out = backend.execute(&q).expect("histogram");
        let hist = out.result.histogram().expect("histogram");
        let expected = xs.iter().filter(|&&x| spec.bin_of(x * 2.0).is_some()).count() as u64;
        prop_assert_eq!(hist.total(), expected);
    }

    /// KL divergence is non-negative and zero iff shapes match.
    #[test]
    fn kl_nonnegative_and_identity(
        counts in prop::collection::vec(0u64..1000, 2..20),
        scale in 1u64..50,
    ) {
        let a = Histogram::from_counts(counts.clone());
        let b = Histogram::from_counts(counts.iter().map(|&c| c * scale).collect());
        prop_assert!(kl_divergence(&a, &b) < 1e-6, "scaled copy has zero divergence");
        let mut other = counts.clone();
        other.reverse();
        let c = Histogram::from_counts(other.clone());
        prop_assert!(kl_divergence(&a, &c) >= 0.0);
        if counts != other {
            // Different shapes diverge (unless palindromic).
            let d = kl_divergence(&a, &c);
            prop_assert!(d >= 0.0);
        }
    }

    /// Cascade LCV is monotone in execution time: slower backends can
    /// only violate more.
    #[test]
    fn lcv_monotone_in_latency(
        intervals in prop::collection::vec(1u64..100, 2..50),
        exec_fast in 1u64..50,
        extra in 1u64..200,
    ) {
        let spans = |exec: u64| {
            let mut t = 0u64;
            let mut out = Vec::new();
            let mut finish_prev = 0u64;
            for &dt in &intervals {
                t += dt;
                let start = t.max(finish_prev);
                let finish = start + exec;
                finish_prev = finish;
                out.push(QuerySpan {
                    issued_at: SimTime::from_millis(t),
                    finished_at: SimTime::from_millis(finish),
                });
            }
            out
        };
        let fast = cascade_violations(&spans(exec_fast));
        let slow = cascade_violations(&spans(exec_fast + extra));
        prop_assert!(slow.violations >= fast.violations);
    }

    /// Supply violations vanish when supply dominates demand everywhere.
    #[test]
    fn dominating_supply_never_violates(
        demands in prop::collection::vec((0u64..10_000, 0u64..1_000), 1..50),
    ) {
        let mut demand: Vec<(SimTime, u64)> = demands
            .iter()
            .map(|&(t, d)| (SimTime::from_millis(t), d))
            .collect();
        demand.sort_by_key(|&(t, _)| t);
        // Make cumulative demand monotone.
        let mut acc = 0;
        for d in demand.iter_mut() {
            acc = acc.max(d.1);
            d.1 = acc;
        }
        // Supply everything instantly at t=0.
        let supply = vec![(SimTime::ZERO, acc + 1)];
        prop_assert_eq!(supply_violations(&demand, &supply).violations, 0);
    }

    /// Latin squares of any size satisfy the row/column permutation
    /// property; balanced squares additionally balance ordered pairs.
    #[test]
    fn latin_square_properties(k in 1usize..10) {
        prop_assert!(is_latin_square(&latin_square(k)));
        if k >= 2 && k % 2 == 0 {
            prop_assert!(is_latin_square(&balanced_latin_square(k)));
        }
    }

    /// Trace records round-trip through TSV for arbitrary field values.
    #[test]
    fn scroll_record_tsv_round_trip(
        ts in 0u64..u64::MAX / 2,
        top in -1e9f64..1e9,
        num in 0u64..1_000_000,
        delta in -1e6f64..1e6,
    ) {
        let r = ScrollRecord {
            timestamp_ms: ts,
            scroll_top: top,
            scroll_num: num,
            delta,
        };
        let parsed = ScrollRecord::parse_line(&r.to_line()).expect("parse");
        prop_assert_eq!(parsed, r);
    }

    /// Whole slider traces round-trip.
    #[test]
    fn slider_trace_tsv_round_trip(
        recs in prop::collection::vec((0u64..1_000_000, -1e3f64..1e3, 0.0f64..1e3, 0u8..4), 0..50),
    ) {
        let trace = Trace::from_records(
            recs.into_iter()
                .map(|(ts, lo, w, idx)| SliderRecord {
                    timestamp_ms: ts,
                    min_val: lo,
                    max_val: lo + w,
                    slider_idx: idx,
                })
                .collect(),
        );
        let back: Trace<SliderRecord> = Trace::from_tsv(&trace.to_tsv()).expect("parse");
        prop_assert_eq!(back, trace);
    }

    /// Summary quantiles are order statistics: between min and max, and
    /// monotone in q.
    #[test]
    fn summary_quantiles_are_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
    ) {
        let s = Summary::of(&xs);
        let qs: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| s.quantile(q).expect("non-empty"))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(qs[0], s.min().expect("non-empty"));
        prop_assert_eq!(qs[4], s.max().expect("non-empty"));
    }

    /// Budget LCV is monotone non-increasing as the budget grows: a more
    /// generous constraint can only forgive violations, never create
    /// them.
    #[test]
    fn lcv_shrinks_as_budget_grows(
        spans in prop::collection::vec((0u64..10_000, 0u64..2_000), 1..80),
        budget_a in 0u64..2_500,
        extra in 0u64..2_500,
    ) {
        let spans: Vec<QuerySpan> = spans
            .into_iter()
            .map(|(t, lat)| QuerySpan {
                issued_at: SimTime::from_millis(t),
                finished_at: SimTime::from_millis(t + lat),
            })
            .collect();
        let tight = budget_violations(&spans, SimDuration::from_millis(budget_a));
        let loose = budget_violations(&spans, SimDuration::from_millis(budget_a + extra));
        prop_assert!(loose.violations <= tight.violations);
        prop_assert_eq!(tight.total, spans.len());
        prop_assert_eq!(loose.total, spans.len());
        // The zero budget counts every positive-latency query.
        let zero = budget_violations(&spans, SimDuration::ZERO);
        let positive = spans
            .iter()
            .filter(|s| s.finished_at > s.issued_at)
            .count();
        prop_assert_eq!(zero.violations, positive);
    }

    /// QIF windows partition the issued stream: counts sum to the total
    /// number of queries, windows tile the time axis contiguously.
    #[test]
    fn qif_windows_conserve_queries(
        stamps in prop::collection::vec(0u64..100_000, 1..150),
        window_ms in 1u64..5_000,
    ) {
        let mut stamps: Vec<SimTime> =
            stamps.into_iter().map(SimTime::from_millis).collect();
        stamps.sort();
        let window = SimDuration::from_millis(window_ms);
        let windows = qif_windows(&stamps, window);
        let total: usize = windows.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(total, stamps.len(), "no query lost or double-counted");
        for w in windows.windows(2) {
            prop_assert_eq!(w[0].0 + window, w[1].0, "windows tile contiguously");
        }
        prop_assert!(windows[0].0 <= stamps[0]);
    }

    /// Latency percentiles are order-insensitive: any permutation of the
    /// sample reports identical quantiles.
    #[test]
    fn latency_percentiles_ignore_arrival_order(
        xs in prop::collection::vec(0.0f64..1e6, 1..150),
        seed in 0u64..1_000,
    ) {
        // A deterministic shuffle driven by the sim RNG.
        let mut shuffled = xs.clone();
        SimRng::seed(seed)
            .split("properties/shuffle")
            .shuffle(&mut shuffled);
        let a = Summary::of(&xs);
        let b = Summary::of(&shuffled);
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(
                a.quantile(q).expect("non-empty"),
                b.quantile(q).expect("non-empty")
            );
        }
    }

    /// Storm fault plans are reproducible from their seed and pointwise
    /// monotone in intensity: a harsher storm never charges a query less.
    #[test]
    fn storm_plans_replay_and_dominate(
        seed in 0u64..10_000,
        lo in 0.05f64..0.5,
        extra in 0.0f64..0.5,
        probe_ms in 0u64..60_000,
    ) {
        let horizon = SimDuration::from_secs(60);
        let mild = FaultPlan::storm(seed, lo, horizon);
        prop_assert_eq!(&mild, &FaultPlan::storm(seed, lo, horizon));
        let harsh = FaultPlan::storm(seed, lo + extra, horizon);
        let t = SimTime::from_millis(probe_ms);
        prop_assert!(harsh.cost_multiplier_at(t) >= mild.cost_multiplier_at(t));
        prop_assert!(harsh.failure_rate() >= mild.failure_rate());
        match (mild.stall_until(t), harsh.stall_until(t)) {
            (Some(m), Some(h)) => prop_assert!(h >= m),
            (Some(_), None) => prop_assert!(false, "harsh storm lost a stall"),
            _ => {}
        }
    }

    /// CDF is a valid distribution function: monotone, 0 below min,
    /// 1 at max.
    #[test]
    fn cdf_is_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        probes in prop::collection::vec(-1e6f64..1e6, 1..20),
    ) {
        let cdf = Cdf::of(&xs);
        let mut sorted_probes = probes;
        sorted_probes.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &p in &sorted_probes {
            let v = cdf.fraction_le(p);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev);
            prev = v;
        }
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(cdf.fraction_le(max), 1.0);
    }

    /// Zone-map pruning is invisible: the kernels return byte-identical
    /// selections with pruning enabled and disabled, on tables with and
    /// without NaN holes, across zone-block boundaries.
    #[test]
    fn zone_pruning_is_invisible(
        xs in prop::collection::vec(-100.0f64..100.0, 0..2200),
        nan_every in 0usize..5,
        lo in -120.0f64..120.0,
        width in 0.0f64..150.0,
        negate in 0usize..2,
    ) {
        let xs: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| if nan_every > 0 && i % nan_every == 0 { f64::NAN } else { x })
            .collect();
        let table = float_table(xs);
        let base = Predicate::between("x", lo, lo + width);
        let pred = if negate == 1 { Predicate::Not(Box::new(base)) } else { base };
        let on = KernelOptions { zone_prune: true };
        let off = KernelOptions { zone_prune: false };
        let mut s_on = KernelStats::default();
        let mut s_off = KernelStats::default();
        let a = kernels::select_vector_with(&table, &pred, &on, &mut s_on).expect("valid");
        let b = kernels::select_vector_with(&table, &pred, &off, &mut s_off).expect("valid");
        prop_assert_eq!(a.to_row_ids(), b.to_row_ids());
        prop_assert_eq!(s_off.blocks_pruned, 0);
    }

    /// The selection vector's popcount (and decoded row ids) equal the
    /// naive row-id-materializing `Predicate::select`.
    #[test]
    fn selection_count_matches_naive_select(
        xs in prop::collection::vec(-50.0f64..50.0, 0..1500),
        lo in -60.0f64..60.0,
        width in 0.0f64..80.0,
    ) {
        let table = float_table(xs);
        let pred = Predicate::and([
            Predicate::between("x", lo, lo + width),
            Predicate::le("y", 40.0),
        ]);
        let sel = kernels::select_vector(&table, &pred).expect("valid");
        let naive = pred.select(&table).expect("valid");
        prop_assert_eq!(sel.count(), naive.len());
        prop_assert_eq!(sel.to_row_ids(), naive);
    }

    /// The fused filter+bin kernel equals filtering and binning as two
    /// separate passes, bucket for bucket.
    #[test]
    fn fused_filter_bin_matches_unfused(
        xs in prop::collection::vec(0.0f64..100.0, 0..2100),
        bins in 1usize..25,
        lo in 0.0f64..100.0,
        width in 0.0f64..100.0,
    ) {
        let table = float_table(xs);
        let pred = Predicate::between("x", lo, lo + width);
        let spec = BinSpec::new("x", 0.0, 100.0, bins);
        let col = table.column("x").expect("x exists");
        let mut unfused = vec![0u64; spec.bucket_count()];
        for row in pred.select(&table).expect("valid") {
            if let Some(b) = col.f64_at(row).and_then(|x| spec.bin_of(x)) {
                unfused[b] += 1;
            }
        }
        let (rs, _) = ids::engine::exec::run_histogram(&table, &spec, &pred, 1).expect("valid");
        prop_assert_eq!(rs.histogram().expect("histogram").counts(), &unfused[..]);
    }

    /// Deadline-mode replay never violates a budget at least as large as
    /// the most expensive query: the deadline scheduler's LCV is 0 for
    /// any budget ≥ the exact execution cost (given no queueing).
    #[test]
    fn deadline_mode_lcv_is_zero_when_budget_covers_cost(
        rows in 1usize..5000,
        budget_slack_ms in 0u64..50,
    ) {
        let backend = MemBackend::new();
        backend.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .build()
                .expect("table"),
        );
        let query = Query::histogram(
            "t",
            BinSpec::new("x", 0.0, rows as f64, 8),
            Predicate::between("x", 0.2 * rows as f64, 0.9 * rows as f64),
        );
        let exact_cost = backend.execute(&query).expect("registered").cost;
        let budget = exact_cost + SimDuration::from_millis(budget_slack_ms);
        // Issue gaps ≥ budget so queueing never eats into it; the policy
        // then has the whole budget for every query.
        let stream: Vec<ids::engine::scheduler::IssuedQuery> = (0..4)
            .map(|i| ids::engine::scheduler::IssuedQuery::new(
                SimTime::ZERO + budget.mul_f64(i as f64 * 1.5),
                query.clone(),
                i as u64,
            ))
            .collect();
        let sched = ids::engine::scheduler::ReplayScheduler::new(1);
        let timings: Vec<QuerySpan> = sched
            .replay_resilient(
                &backend,
                &stream,
                &ids::engine::scheduler::ResiliencePolicy::deadline(budget),
            )
            .expect("replay succeeds")
            .iter()
            .map(|(t, _)| QuerySpan { issued_at: t.issued_at, finished_at: t.finished_at })
            .collect();
        prop_assert_eq!(budget_violations(&timings, budget).violations, 0);
    }

    /// The reported deadline error bound is monotone non-increasing in
    /// the budget: paying more latency never loosens the answer.
    #[test]
    fn deadline_error_bound_is_monotone_in_budget(
        rows in 1100usize..9000,
        budgets_pct in prop::collection::vec(1u64..100, 2..6),
    ) {
        let backend = MemBackend::new();
        backend.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| (i % 97) as f64)))
                .build()
                .expect("table"),
        );
        let query = Query::count("t", Predicate::between("x", 10.0, 80.0));
        let exact_cost = backend.execute(&query).expect("registered").cost;
        let exec = ids::engine::progressive::ProgressiveExecutor::new(backend.database());
        let mut sorted = budgets_pct;
        sorted.sort_unstable();
        let mut last_bound = f64::INFINITY;
        for pct in sorted {
            let budget = exact_cost.mul_f64(pct as f64 / 100.0);
            let r = exec.run_bounded(&query, exact_cost, budget).expect("count is progressive");
            prop_assert!(r.error_bound.is_finite() && r.error_bound >= 0.0);
            prop_assert!(
                r.error_bound <= last_bound,
                "bound must not grow with budget: {} then {}",
                last_bound,
                r.error_bound
            );
            last_bound = r.error_bound;
        }
    }

    /// Mining inverts synthesis: for any composite interface (sliders,
    /// an optional brush, an optional dropdown) and any seed, mining
    /// the synthesized request trace recovers exactly the interface's
    /// signature set — no widget lost, none invented.
    #[test]
    fn mined_interface_round_trips(
        seed in 0u64..1_000_000,
        n_sliders in 1usize..4,
        slider_lo in -100.0f64..100.0,
        slider_width in 0.5f64..100.0,
        with_brush in 0usize..2,
        dropdown_options in 0usize..5,
        extra_steps in 0usize..6,
    ) {
        let mut widgets: Vec<WidgetSpec> = (0..n_sliders)
            .map(|i| WidgetSpec::Slider {
                param: format!("s{i}"),
                min: slider_lo,
                max: slider_lo + slider_width,
            })
            .collect();
        if with_brush == 1 {
            widgets.push(WidgetSpec::Brush {
                x: ("bx".into(), slider_lo, slider_lo + slider_width),
                y: ("by".into(), slider_lo, slider_lo + slider_width),
            });
        }
        if dropdown_options >= 2 {
            widgets.push(WidgetSpec::Dropdown {
                param: "s0_preset".into(),
                column: "s0".into(),
                options: (0..dropdown_options)
                    .map(|i| (format!("opt{i}"), slider_lo, slider_lo + slider_width))
                    .collect(),
            });
        }
        let spec = InterfaceSpec { table: "mined_t".into(), widgets };
        let steps = spec.widgets.len() + extra_steps;
        let trace = spec.synthesize(seed, steps);
        let mined = mining::mine(&trace);
        prop_assert_eq!(&mined.table, "mined_t");
        prop_assert_eq!(mined.states, steps + 1, "initial state plus one per step");
        prop_assert_eq!(mined.widgets, spec.signatures());
    }

    /// The behavior state machine is total: any feedback sequence —
    /// `Partial`/`Failed` answers, empty or foreign-width histograms,
    /// out-of-range `hist_dim` — yields actions with strictly advancing
    /// time until a terminal `None` within `max_actions`, and the ended
    /// session stays ended. No input can wedge a closed-loop session.
    #[test]
    fn behavior_transitions_are_total(
        seed in 0u64..1_000_000,
        max_actions in 1usize..32,
        feedbacks in prop::collection::vec(
            (
                0u64..10_000,                          // latency ms
                0usize..3,                             // quality selector
                prop::collection::vec(0u64..500, 0..12), // histogram counts
                0usize..10,                            // hist_dim (may be out of range)
            ),
            1..40,
        ),
    ) {
        let policy = BehaviorPolicy::adaptive(seed, CrossfilterUi::for_road()).with_config(
            BehaviorConfig { max_actions, ..BehaviorConfig::default() },
        );
        let mut session = policy.session();
        let mut emitted = 0usize;
        let mut last_at = SimTime::ZERO;
        for round in 0..max_actions + 2 {
            let (ms, q, counts, dim) = &feedbacks[round % feedbacks.len()];
            let feedback = Feedback {
                latency: SimDuration::from_millis(*ms),
                quality: match q {
                    0 => ResultQuality::Exact,
                    1 => ResultQuality::Partial { fraction: 0.5, error_bound: 3.0 },
                    _ => ResultQuality::Failed,
                },
                histogram: if counts.is_empty() {
                    None
                } else {
                    Some(Histogram::from_counts(counts.clone()))
                },
                hist_dim: *dim,
            };
            match session.next_action(&feedback) {
                Some(action) => {
                    prop_assert!(action.at > last_at, "time must strictly advance");
                    last_at = action.at;
                    prop_assert_eq!(action.step, emitted);
                    emitted += 1;
                }
                None => break,
            }
        }
        prop_assert!(emitted <= max_actions, "sessions are action-bounded");
        // Terminal is sticky: the ended session never resurrects.
        prop_assert!(session.next_action(&Feedback::initial()).is_none());
    }

    /// Closed-loop sessions are seed-sensitive pure functions: the same
    /// seed replays the same action digest under identical feedback,
    /// and distinct seeds diverge.
    #[test]
    fn behavior_digest_is_seeded(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        latency_ms in 0u64..300,
    ) {
        let digest = |seed: u64| {
            let policy = BehaviorPolicy::adaptive(seed, CrossfilterUi::for_road());
            let mut session = policy.session();
            let feedback = Feedback {
                latency: SimDuration::from_millis(latency_ms),
                quality: ResultQuality::Exact,
                histogram: Some(Histogram::from_counts(vec![40, 1, 3, 1])),
                hist_dim: 0,
            };
            let mut out = String::new();
            while let Some(action) = session.next_action(&feedback) {
                out.push_str(&action.digest_line());
                out.push('\n');
            }
            out
        };
        let a = digest(seed_a);
        prop_assert_eq!(&a, &digest(seed_a), "same seed replays byte-identically");
        if seed_a != seed_b {
            prop_assert_ne!(a, digest(seed_b), "distinct seeds diverge");
        }
    }

    /// The block-permutation seed changes intermediate estimates but
    /// never the final answer, which is byte-identical to the exact
    /// kernel result for every seed.
    #[test]
    fn progressive_seed_never_changes_final_answer(
        rows in 1usize..6000,
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
    ) {
        let backend = MemBackend::new();
        backend.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| (i % 211) as f64)))
                .build()
                .expect("table"),
        );
        let query = Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 211.0, 7),
            Predicate::between("x", 25.0, 190.0),
        );
        let exact = backend.execute(&query).expect("registered").result;
        let run = |seed: u64| {
            ids::engine::progressive::ProgressiveExecutor::new(backend.database())
                .with_seed(seed)
                .run(&query)
                .expect("histogram is progressive")
        };
        let a = run(seed_a);
        let b = run(seed_b);
        prop_assert_eq!(&a.last().expect("nonempty").estimate, &exact);
        prop_assert_eq!(&b.last().expect("nonempty").estimate, &exact);
        prop_assert!(ids::engine::progressive::is_anytime_consistent(&a, &exact));
        prop_assert!(ids::engine::progressive::is_anytime_consistent(&b, &exact));
    }
}
