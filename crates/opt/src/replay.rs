//! One replay loop for every case-study-2 condition.
//!
//! Raw, Skip (Algorithm 1), KL filtering (Algorithm 2) and Fig 3's
//! adaptive throttling are all policies over one query-group stream
//! served by one server. [`replay`] queues every group its [`Policy`]
//! keeps on a one-slot [`WorkerPool`], so two conditions differ only in
//! which groups they keep, never in their queue arithmetic.
//!
//! The caller prices a kept group. Queries within a group run
//! concurrently on separate connections (the paper forks one process per
//! coordinated view), so [`group_cost`] charges a group its members'
//! maximum cost; a caller with another rule passes its own closure.

use ids_engine::scheduler::{QueryTiming, WorkerPool};
use ids_engine::{Backend, EngineResult};
use ids_metrics::lcv::{cascade_violations, LcvReport, QuerySpan};
use ids_obs::ArgValue;
use ids_simclock::{SimDuration, SimTime};
use ids_workload::crossfilter::QueryGroup;

use crate::klfilter::{kl_of_dists, HistogramSketch};
use crate::throttle::AdaptiveThrottle;

/// Which groups of a stream reach the server.
#[derive(Debug)]
pub enum Policy<'a> {
    /// Every group executes, FIFO (the paper's "raw").
    Raw,
    /// The Skip optimization (Algorithm 1). In crossfiltering no
    /// dependency exists between adjacent queries: each slider position
    /// is its own range query, and the user does not examine ranges
    /// serially. So when the server frees, only the latest issued group
    /// executes and the stale ones are dropped — the user has already
    /// moved past them. Per group: group *i* is dropped iff group *i+1*
    /// was issued at or before the instant the server frees.
    Skip,
    /// The KL optimization (Algorithm 2): a group executes only when its
    /// sketched signature diverges from the last *executed* group's by
    /// more than `threshold`. The sketch evaluation is charged zero
    /// virtual time (it touches thousands of rows, not hundreds of
    /// thousands).
    Kl {
        /// The row sample that approximates each group's histograms.
        sketch: &'a HistogramSketch,
        /// Groups within this divergence of the last executed one drop.
        threshold: f64,
    },
    /// Adaptive QIF throttling: a group is admitted only when the server
    /// is free and no stall hold is pending; each admitted group's
    /// service time feeds the throttle's estimate.
    Throttle(&'a mut AdaptiveThrottle),
}

impl Policy<'_> {
    /// The policy's name (its execution track's suffix, its drop
    /// instant's prefix) and its executed and dropped counters; raw
    /// drops nothing and counts nothing.
    fn names(&self) -> (&'static str, Option<[&'static str; 2]>) {
        match self {
            Policy::Raw => ("raw", None),
            Policy::Skip => ("skip", Some(["opt.skip.executed", "opt.skip.dropped"])),
            Policy::Kl { .. } => ("kl", Some(["opt.kl.executed", "opt.kl.dropped"])),
            Policy::Throttle(_) => (
                "throttle",
                Some([
                    "opt.throttle.adaptive.admitted",
                    "opt.throttle.adaptive.dropped",
                ]),
            ),
        }
    }
}

/// Result of a replay: the issued count plus each executed group's
/// timing, in stream order; a timing's `tag` is the group's index.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Groups in the input stream.
    pub issued: usize,
    /// Timings of the groups that reached the server.
    pub executed: Vec<QueryTiming>,
}

impl ReplayOutcome {
    /// Number of dropped groups.
    pub fn skipped(&self) -> usize {
        self.issued.saturating_sub(self.executed.len())
    }

    /// `(time, latency)` series for the Fig 13 plots (executed only).
    pub fn latency_series(&self) -> Vec<(SimTime, SimDuration)> {
        self.executed
            .iter()
            .map(|t| (t.issued_at, t.latency()))
            .collect()
    }

    /// Cascade-form LCV over the *executed* groups (Fig 15): a violation
    /// when the next executed group was issued before this one finished.
    pub fn lcv(&self) -> LcvReport {
        let spans: Vec<QuerySpan> = self
            .executed
            .iter()
            .map(|t| QuerySpan {
                issued_at: t.issued_at,
                finished_at: t.finished_at,
            })
            .collect();
        cascade_violations(&spans)
    }
}

/// Executes a group's members on `backend` and charges their maximum
/// cost: members run concurrently on separate connections.
pub fn group_cost(
    backend: &dyn Backend,
) -> impl FnMut(&QueryGroup) -> EngineResult<SimDuration> + '_ {
    move |group| {
        group.queries.iter().try_fold(SimDuration::ZERO, |max, q| {
            Ok(max.max(backend.execute(q)?.cost))
        })
    }
}

/// Replays a sorted group stream under `policy` on one FIFO server,
/// pricing each kept group with `cost`. Executed groups are `group`
/// spans on the `{label}/{policy}` track; dropped ones are
/// `{policy}.drop` instants on `opt/{policy}`.
pub fn replay<C>(
    label: &str,
    groups: &[QueryGroup],
    mut policy: Policy<'_>,
    mut cost: C,
) -> EngineResult<ReplayOutcome>
where
    C: FnMut(&QueryGroup) -> EngineResult<SimDuration>,
{
    let (name, counters) = policy.names();
    let counters = counters.map(|names| names.map(|n| ids_obs::metrics().counter(n)));
    let rec = ids_obs::recorder();
    let track = rec
        .is_enabled()
        .then(|| rec.track(&format!("{label}/{name}")));
    let mut pool = WorkerPool::new(1);
    let mut last_signature: Option<Vec<f64>> = None;
    let mut executed = Vec::new();
    for (index, g) in groups.iter().enumerate() {
        let free = pool.next_start(SimTime::ZERO);
        let dropped = match &mut policy {
            Policy::Raw => None,
            Policy::Skip => groups
                .get(index + 1)
                .filter(|next| next.at <= free)
                .map(|_| Vec::new()),
            Policy::Kl { sketch, threshold } => {
                let signature = sketch.group_signature(g)?;
                let divergence = match &last_signature {
                    Some(prev) if prev.len() == signature.len() => kl_of_dists(&signature, prev),
                    // First group, or the dimension set changed: execute.
                    _ => f64::INFINITY,
                };
                if divergence <= *threshold {
                    Some(vec![
                        ("divergence", ArgValue::F64(divergence)),
                        ("threshold", ArgValue::F64(*threshold)),
                    ])
                } else {
                    last_signature = Some(signature);
                    None
                }
            }
            Policy::Throttle(throttle) => {
                let busy_until = free.max(throttle.hold_until);
                (g.at < busy_until).then(|| {
                    let busy_for = busy_until.saturating_since(g.at);
                    vec![("busy_for_ms", ArgValue::F64(busy_for.as_millis_f64()))]
                })
            }
        };
        if let Some(args) = dropped {
            if let Some([_, dropped_ctr]) = &counters {
                dropped_ctr.inc();
            }
            if rec.is_enabled() {
                let mut all = vec![("group", ArgValue::U64(index as u64))];
                all.extend(args);
                let drops = rec.track(&format!("opt/{name}"));
                rec.record_instant("opt", format!("{name}.drop"), drops, g.at, all);
            }
            continue;
        }
        if let Some([executed_ctr, _]) = &counters {
            executed_ctr.inc();
        }
        ids_obs::set_vnow(g.at);
        let (_, started_at, finished_at) = pool.assign(g.at, cost(g)?);
        let timing = QueryTiming {
            tag: index as u64,
            issued_at: g.at,
            started_at,
            finished_at,
        };
        if let Policy::Throttle(throttle) = &mut policy {
            throttle.observe(&timing);
        }
        if let Some(track) = track {
            rec.record_span(
                "exec",
                "group",
                track,
                started_at,
                timing.execution(),
                vec![
                    ("group", ArgValue::U64(timing.tag)),
                    ("queries", ArgValue::U64(g.queries.len() as u64)),
                    (
                        "wait_ms",
                        ArgValue::F64(timing.scheduling_delay().as_millis_f64()),
                    ),
                ],
            );
        }
        executed.push(timing);
    }
    Ok(ReplayOutcome {
        issued: groups.len(),
        executed,
    })
}
