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
use ids::simclock::rng::{check, SimRng};
use ids::simclock::{SimDuration, SimTime};
use ids::study::assignment::{balanced_latin_square, is_latin_square, latin_square};
use ids::workload::adaptive::{BehaviorConfig, BehaviorPolicy, Feedback};
use ids::workload::crossfilter::CrossfilterUi;
use ids::workload::mining::{self, InterfaceSpec, WidgetSpec};
use ids::workload::trace::{ScrollRecord, SliderRecord, Trace, TraceRecord};

/// Every property here runs this many cases.
const CASES: std::ops::Range<u32> = 0..1_024;

/// `draw` repeated a number of times drawn from `lens`.
fn vec_of<T>(
    rng: &mut SimRng,
    lens: std::ops::Range<usize>,
    mut draw: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    (0..rng.uniform_usize(lens.start, lens.end))
        .map(|_| draw(rng))
        .collect()
}

fn float_table(xs: Vec<f64>) -> Table {
    TableBuilder::new("t")
        .column("x", ColumnBuilder::float(xs.clone()))
        .column("y", ColumnBuilder::float(xs.into_iter().map(|v| v * 2.0)))
        .build()
        .expect("table")
}

/// LIMIT/OFFSET pagination partitions the table: concatenating pages
/// yields every row exactly once, in order.
#[test]
fn pagination_partitions_table() {
    check("pagination_partitions_table", CASES, |rng| {
        let rows = rng.uniform_usize(1, 200);
        let page = rng.uniform_usize(1, 40);
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
        assert_eq!(seen, (0..rows as i64).collect::<Vec<_>>());
    });
}

/// A filtered count never exceeds the table size and agrees with a
/// naive scan.
#[test]
fn filter_agrees_with_naive_scan() {
    check("filter_agrees_with_naive_scan", CASES, |rng| {
        let xs = vec_of(rng, 1..300, |r| r.uniform(-100.0, 100.0));
        let lo = rng.uniform(-100.0, 100.0);
        let width = rng.uniform(0.0, 100.0);
        let hi = lo + width;
        let table = float_table(xs.clone());
        let backend = MemBackend::new();
        backend.database().register(table);
        let q = Query::count("t", Predicate::between("x", lo, hi));
        let count = backend
            .execute(&q)
            .expect("count")
            .scalar_count()
            .expect("scalar");
        let naive = xs.iter().filter(|&&x| x >= lo && x <= hi).count() as u64;
        assert_eq!(count, naive);
    });
}

/// Histogram totals equal the number of filtered rows that fall in
/// the bin domain.
#[test]
fn histogram_total_matches_in_domain_rows() {
    check("histogram_total_matches_in_domain_rows", CASES, |rng| {
        let xs = vec_of(rng, 1..300, |r| r.uniform(0.0, 100.0));
        let bins = rng.uniform_usize(1, 30);
        let table = float_table(xs.clone());
        let backend = MemBackend::new();
        backend.database().register(table);
        let spec = BinSpec::new("y", 0.0, 200.0, bins);
        let q = Query::histogram("t", spec.clone(), Predicate::True);
        let out = backend.execute(&q).expect("histogram");
        let hist = out.result.histogram().expect("histogram");
        let expected = xs
            .iter()
            .filter(|&&x| spec.bin_of(x * 2.0).is_some())
            .count() as u64;
        assert_eq!(hist.total(), expected);
    });
}

/// KL divergence is non-negative and zero iff shapes match.
#[test]
fn kl_nonnegative_and_identity() {
    check("kl_nonnegative_and_identity", CASES, |rng| {
        let counts = vec_of(rng, 2..20, |r| r.uniform_u64(0, 1000));
        let scale = rng.uniform_u64(1, 50);
        let a = Histogram::from_counts(counts.clone());
        let b = Histogram::from_counts(counts.iter().map(|&c| c * scale).collect());
        assert!(
            kl_divergence(&a, &b) < 1e-6,
            "scaled copy has zero divergence"
        );
        let mut other = counts.clone();
        other.reverse();
        let c = Histogram::from_counts(other.clone());
        assert!(kl_divergence(&a, &c) >= 0.0);
        if counts != other {
            // Different shapes diverge (unless palindromic).
            let d = kl_divergence(&a, &c);
            assert!(d >= 0.0);
        }
    });
}

/// Cascade LCV is monotone in execution time: slower backends can
/// only violate more.
#[test]
fn lcv_monotone_in_latency() {
    check("lcv_monotone_in_latency", CASES, |rng| {
        let intervals = vec_of(rng, 2..50, |r| r.uniform_u64(1, 100));
        let exec_fast = rng.uniform_u64(1, 50);
        let extra = rng.uniform_u64(1, 200);
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
        assert!(slow.violations >= fast.violations);
    });
}

/// Supply violations vanish when supply dominates demand everywhere.
#[test]
fn dominating_supply_never_violates() {
    check("dominating_supply_never_violates", CASES, |rng| {
        let demands = vec_of(rng, 1..50, |r| {
            (r.uniform_u64(0, 10_000), r.uniform_u64(0, 1_000))
        });
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
        assert_eq!(supply_violations(&demand, &supply).violations, 0);
    });
}

/// Latin squares of any size satisfy the row/column permutation
/// property; balanced squares additionally balance ordered pairs.
#[test]
fn latin_square_properties() {
    check("latin_square_properties", CASES, |rng| {
        let k = rng.uniform_usize(1, 10);
        assert!(is_latin_square(&latin_square(k)));
        if k >= 2 && k % 2 == 0 {
            assert!(is_latin_square(&balanced_latin_square(k)));
        }
    });
}

/// Trace records round-trip through TSV for arbitrary field values.
#[test]
fn scroll_record_tsv_round_trip() {
    check("scroll_record_tsv_round_trip", CASES, |rng| {
        let ts = rng.uniform_u64(0, u64::MAX / 2);
        let top = rng.uniform(-1e9, 1e9);
        let num = rng.uniform_u64(0, 1_000_000);
        let delta = rng.uniform(-1e6, 1e6);
        let r = ScrollRecord {
            timestamp_ms: ts,
            scroll_top: top,
            scroll_num: num,
            delta,
        };
        let parsed = ScrollRecord::parse_line(&r.to_line()).expect("parse");
        assert_eq!(parsed, r);
    });
}

/// Whole slider traces round-trip.
#[test]
fn slider_trace_tsv_round_trip() {
    check("slider_trace_tsv_round_trip", CASES, |rng| {
        let recs = vec_of(rng, 0..50, |r| {
            (
                r.uniform_u64(0, 1_000_000),
                r.uniform(-1e3, 1e3),
                r.uniform(0.0, 1e3),
                r.uniform_u64(0, 4) as u8,
            )
        });
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
        assert_eq!(back, trace);
    });
}

/// Summary quantiles are order statistics: between min and max, and
/// monotone in q.
#[test]
fn summary_quantiles_are_monotone() {
    check("summary_quantiles_are_monotone", CASES, |rng| {
        let xs = vec_of(rng, 1..200, |r| r.uniform(-1e6, 1e6));
        let s = Summary::of(&xs);
        let qs: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| s.quantile(q).expect("non-empty"))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(qs[0], s.min().expect("non-empty"));
        assert_eq!(qs[4], s.max().expect("non-empty"));
    });
}

/// Budget LCV is monotone non-increasing as the budget grows: a more
/// generous constraint can only forgive violations, never create
/// them.
#[test]
fn lcv_shrinks_as_budget_grows() {
    check("lcv_shrinks_as_budget_grows", CASES, |rng| {
        let spans = vec_of(rng, 1..80, |r| {
            (r.uniform_u64(0, 10_000), r.uniform_u64(0, 2_000))
        });
        let budget_a = rng.uniform_u64(0, 2_500);
        let extra = rng.uniform_u64(0, 2_500);
        let spans: Vec<QuerySpan> = spans
            .into_iter()
            .map(|(t, lat)| QuerySpan {
                issued_at: SimTime::from_millis(t),
                finished_at: SimTime::from_millis(t + lat),
            })
            .collect();
        let tight = budget_violations(&spans, SimDuration::from_millis(budget_a));
        let loose = budget_violations(&spans, SimDuration::from_millis(budget_a + extra));
        assert!(loose.violations <= tight.violations);
        assert_eq!(tight.total, spans.len());
        assert_eq!(loose.total, spans.len());
        // The zero budget counts every positive-latency query.
        let zero = budget_violations(&spans, SimDuration::ZERO);
        let positive = spans.iter().filter(|s| s.finished_at > s.issued_at).count();
        assert_eq!(zero.violations, positive);
    });
}

/// QIF windows partition the issued stream: counts sum to the total
/// number of queries, windows tile the time axis contiguously.
#[test]
fn qif_windows_conserve_queries() {
    check("qif_windows_conserve_queries", CASES, |rng| {
        let stamps = vec_of(rng, 1..150, |r| r.uniform_u64(0, 100_000));
        let window_ms = rng.uniform_u64(1, 5_000);
        let mut stamps: Vec<SimTime> = stamps.into_iter().map(SimTime::from_millis).collect();
        stamps.sort();
        let window = SimDuration::from_millis(window_ms);
        let windows = qif_windows(&stamps, window);
        let total: usize = windows.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, stamps.len(), "no query lost or double-counted");
        for w in windows.windows(2) {
            assert_eq!(w[0].0 + window, w[1].0, "windows tile contiguously");
        }
        assert!(windows[0].0 <= stamps[0]);
    });
}

/// Latency percentiles are order-insensitive: any permutation of the
/// sample reports identical quantiles.
#[test]
fn latency_percentiles_ignore_arrival_order() {
    check("latency_percentiles_ignore_arrival_order", CASES, |rng| {
        let xs = vec_of(rng, 1..150, |r| r.uniform(0.0, 1e6));
        let seed = rng.uniform_u64(0, 1_000);
        // A deterministic shuffle driven by the sim RNG.
        let mut shuffled = xs.clone();
        SimRng::seed(seed)
            .split("properties/shuffle")
            .shuffle(&mut shuffled);
        let a = Summary::of(&xs);
        let b = Summary::of(&shuffled);
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                a.quantile(q).expect("non-empty"),
                b.quantile(q).expect("non-empty")
            );
        }
    });
}

/// Storm fault plans are reproducible from their seed and pointwise
/// monotone in intensity: a harsher storm never charges a query less.
#[test]
fn storm_plans_replay_and_dominate() {
    check("storm_plans_replay_and_dominate", CASES, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let lo = rng.uniform(0.05, 0.5);
        let extra = rng.uniform(0.0, 0.5);
        let probe_ms = rng.uniform_u64(0, 60_000);
        let horizon = SimDuration::from_secs(60);
        let mild = FaultPlan::storm(seed, lo, horizon);
        assert_eq!(&mild, &FaultPlan::storm(seed, lo, horizon));
        let harsh = FaultPlan::storm(seed, lo + extra, horizon);
        let t = SimTime::from_millis(probe_ms);
        assert!(harsh.cost_multiplier_at(t) >= mild.cost_multiplier_at(t));
        assert!(harsh.failure_rate() >= mild.failure_rate());
        match (mild.stall_until(t), harsh.stall_until(t)) {
            (Some(m), Some(h)) => assert!(h >= m),
            (Some(_), None) => panic!("harsh storm lost a stall"),
            _ => {}
        }
    });
}

/// CDF is a valid distribution function: monotone, 0 below min,
/// 1 at max.
#[test]
fn cdf_is_monotone() {
    check("cdf_is_monotone", CASES, |rng| {
        let xs = vec_of(rng, 1..200, |r| r.uniform(-1e6, 1e6));
        let probes = vec_of(rng, 1..20, |r| r.uniform(-1e6, 1e6));
        let cdf = Cdf::of(&xs);
        let mut sorted_probes = probes;
        sorted_probes.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &p in &sorted_probes {
            let v = cdf.fraction_le(p);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev);
            prev = v;
        }
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(cdf.fraction_le(max), 1.0);
    });
}

/// Zone-map pruning is invisible: the kernels return byte-identical
/// selections with pruning enabled and disabled, on tables with and
/// without NaN holes, across zone-block boundaries.
#[test]
fn zone_pruning_is_invisible() {
    check("zone_pruning_is_invisible", CASES, |rng| {
        let xs = vec_of(rng, 0..2200, |r| r.uniform(-100.0, 100.0));
        let nan_every = rng.uniform_usize(0, 5);
        let lo = rng.uniform(-120.0, 120.0);
        let width = rng.uniform(0.0, 150.0);
        let negate = rng.chance(0.5);
        let xs: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if nan_every > 0 && i % nan_every == 0 {
                    f64::NAN
                } else {
                    x
                }
            })
            .collect();
        let table = float_table(xs);
        let base = Predicate::between("x", lo, lo + width);
        let pred = if negate {
            Predicate::Not(Box::new(base))
        } else {
            base
        };
        let on = KernelOptions { zone_prune: true };
        let off = KernelOptions { zone_prune: false };
        let mut s_on = KernelStats::default();
        let mut s_off = KernelStats::default();
        let a = kernels::select_vector_with(&table, &pred, &on, &mut s_on).expect("valid");
        let b = kernels::select_vector_with(&table, &pred, &off, &mut s_off).expect("valid");
        assert_eq!(a.to_row_ids(), b.to_row_ids());
        assert_eq!(s_off.blocks_pruned, 0);
    });
}

/// The selection vector's popcount (and decoded row ids) equal the
/// naive row-id-materializing `Predicate::select`.
#[test]
fn selection_count_matches_naive_select() {
    check("selection_count_matches_naive_select", CASES, |rng| {
        let xs = vec_of(rng, 0..1500, |r| r.uniform(-50.0, 50.0));
        let lo = rng.uniform(-60.0, 60.0);
        let width = rng.uniform(0.0, 80.0);
        let table = float_table(xs);
        let pred = Predicate::and([
            Predicate::between("x", lo, lo + width),
            Predicate::le("y", 40.0),
        ]);
        let sel = kernels::select_vector(&table, &pred).expect("valid");
        let naive = pred.select(&table).expect("valid");
        assert_eq!(sel.count(), naive.len());
        assert_eq!(sel.to_row_ids(), naive);
    });
}

/// The fused filter+bin kernel equals filtering and binning as two
/// separate passes, bucket for bucket.
#[test]
fn fused_filter_bin_matches_unfused() {
    check("fused_filter_bin_matches_unfused", CASES, |rng| {
        let xs = vec_of(rng, 0..2100, |r| r.uniform(0.0, 100.0));
        let bins = rng.uniform_usize(1, 25);
        let lo = rng.uniform(0.0, 100.0);
        let width = rng.uniform(0.0, 100.0);
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
        let (rs, _) = ids::engine::exec::run_histogram(&table, &spec, &pred).expect("valid");
        assert_eq!(rs.histogram().expect("histogram").counts(), &unfused[..]);
    });
}

/// Deadline-mode replay never violates a budget at least as large as
/// the most expensive query: the deadline scheduler's LCV is 0 for
/// any budget ≥ the exact execution cost (given no queueing).
#[test]
fn deadline_mode_lcv_is_zero_when_budget_covers_cost() {
    check(
        "deadline_mode_lcv_is_zero_when_budget_covers_cost",
        CASES,
        |rng| {
            let rows = rng.uniform_usize(1, 5000);
            let budget_slack_ms = rng.uniform_u64(0, 50);
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
                .map(|i| {
                    ids::engine::scheduler::IssuedQuery::new(
                        SimTime::ZERO + budget.mul_f64(i as f64 * 1.5),
                        query.clone(),
                        i as u64,
                    )
                })
                .collect();
            let timings: Vec<QuerySpan> = ids::engine::scheduler::replay_resilient(
                &backend,
                &stream,
                1,
                &ids::engine::scheduler::ResiliencePolicy::Deadline(budget),
            )
            .expect("replay succeeds")
            .iter()
            .map(|(t, _)| QuerySpan {
                issued_at: t.issued_at,
                finished_at: t.finished_at,
            })
            .collect();
            assert_eq!(budget_violations(&timings, budget).violations, 0);
        },
    );
}

/// The reported deadline error bound is monotone non-increasing in
/// the budget: paying more latency never loosens the answer.
#[test]
fn deadline_error_bound_is_monotone_in_budget() {
    check("deadline_error_bound_is_monotone_in_budget", CASES, |rng| {
        let rows = rng.uniform_usize(1100, 9000);
        let budgets_pct = vec_of(rng, 2..6, |r| r.uniform_u64(1, 100));
        let backend = MemBackend::new();
        backend.database().register(
            TableBuilder::new("t")
                .column(
                    "x",
                    ColumnBuilder::float((0..rows).map(|i| (i % 97) as f64)),
                )
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
            let r = exec
                .run_bounded(&query, exact_cost, budget)
                .expect("count is progressive");
            assert!(r.error_bound.is_finite() && r.error_bound >= 0.0);
            assert!(
                r.error_bound <= last_bound,
                "bound must not grow with budget: {} then {}",
                last_bound,
                r.error_bound
            );
            last_bound = r.error_bound;
        }
    });
}

/// Mining inverts synthesis: for any composite interface (sliders,
/// an optional brush, an optional dropdown) and any seed, mining
/// the synthesized request trace recovers exactly the interface's
/// signature set — no widget lost, none invented.
#[test]
fn mined_interface_round_trips() {
    check("mined_interface_round_trips", CASES, |rng| {
        let seed = rng.uniform_u64(0, 1_000_000);
        let n_sliders = rng.uniform_usize(1, 4);
        let slider_lo = rng.uniform(-100.0, 100.0);
        let slider_width = rng.uniform(0.5, 100.0);
        let with_brush = rng.chance(0.5);
        let dropdown_options = rng.uniform_usize(0, 5);
        let extra_steps = rng.uniform_usize(0, 6);
        let mut widgets: Vec<WidgetSpec> = (0..n_sliders)
            .map(|i| WidgetSpec::Slider {
                param: format!("s{i}"),
                min: slider_lo,
                max: slider_lo + slider_width,
            })
            .collect();
        if with_brush {
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
        let spec = InterfaceSpec {
            table: "mined_t".into(),
            widgets,
        };
        let steps = spec.widgets.len() + extra_steps;
        let trace = spec.synthesize(seed, steps);
        let mined = mining::mine(&trace);
        assert_eq!(&mined.table, "mined_t");
        assert_eq!(mined.states, steps + 1, "initial state plus one per step");
        assert_eq!(mined.widgets, spec.signatures());
    });
}

/// The behavior state machine is total: any feedback sequence —
/// `Partial`/`Failed` answers, empty or foreign-width histograms,
/// out-of-range `hist_dim` — yields actions with strictly advancing
/// time until a terminal `None` within `max_actions`, and the ended
/// session stays ended. No input can wedge a closed-loop session.
#[test]
fn behavior_transitions_are_total() {
    check("behavior_transitions_are_total", CASES, |rng| {
        let seed = rng.uniform_u64(0, 1_000_000);
        let max_actions = rng.uniform_usize(1, 32);
        let feedbacks = vec_of(rng, 1..40, |r| {
            (
                r.uniform_u64(0, 10_000),                    // latency ms
                r.uniform_usize(0, 3),                       // quality selector
                vec_of(r, 0..12, |r| r.uniform_u64(0, 500)), // histogram counts
                r.uniform_usize(0, 10),                      // hist_dim (may be out of range)
            )
        });
        let policy =
            BehaviorPolicy::adaptive(seed, CrossfilterUi::for_road()).with_config(BehaviorConfig {
                max_actions,
                ..BehaviorConfig::default()
            });
        let mut session = policy.session();
        let mut emitted = 0usize;
        let mut last_at = SimTime::ZERO;
        for round in 0..max_actions + 2 {
            let (ms, q, counts, dim) = &feedbacks[round % feedbacks.len()];
            let feedback = Feedback {
                latency: SimDuration::from_millis(*ms),
                quality: match q {
                    0 => ResultQuality::Exact,
                    1 => ResultQuality::Partial {
                        fraction: 0.5,
                        error_bound: 3.0,
                    },
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
                    assert!(action.at > last_at, "time must strictly advance");
                    last_at = action.at;
                    assert_eq!(action.step, emitted);
                    emitted += 1;
                }
                None => break,
            }
        }
        assert!(emitted <= max_actions, "sessions are action-bounded");
        // Terminal is sticky: the ended session never resurrects.
        assert!(session.next_action(&Feedback::initial()).is_none());
    });
}

/// Closed-loop sessions are seed-sensitive pure functions: the same
/// seed replays the same action digest under identical feedback,
/// and distinct seeds diverge.
#[test]
fn behavior_digest_is_seeded() {
    check("behavior_digest_is_seeded", CASES, |rng| {
        let seed_a = rng.uniform_u64(0, 1_000_000);
        let seed_b = rng.uniform_u64(0, 1_000_000);
        let latency_ms = rng.uniform_u64(0, 300);
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
        assert_eq!(&a, &digest(seed_a), "same seed replays byte-identically");
        if seed_a != seed_b {
            assert_ne!(a, digest(seed_b), "distinct seeds diverge");
        }
    });
}

/// The block-permutation seed changes intermediate estimates but
/// never the final answer, which is byte-identical to the exact
/// kernel result for every seed.
#[test]
fn progressive_seed_never_changes_final_answer() {
    check(
        "progressive_seed_never_changes_final_answer",
        CASES,
        |rng| {
            let rows = rng.uniform_usize(1, 6000);
            let seed_a = rng.uniform_u64(0, 10_000);
            let seed_b = rng.uniform_u64(0, 10_000);
            let backend = MemBackend::new();
            backend.database().register(
                TableBuilder::new("t")
                    .column(
                        "x",
                        ColumnBuilder::float((0..rows).map(|i| (i % 211) as f64)),
                    )
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
            assert_eq!(&a.last().expect("nonempty").estimate, &exact);
            assert_eq!(&b.last().expect("nonempty").estimate, &exact);
            assert!(ids::engine::progressive::is_anytime_consistent(&a, &exact));
            assert!(ids::engine::progressive::is_anytime_consistent(&b, &exact));
        },
    );
}
