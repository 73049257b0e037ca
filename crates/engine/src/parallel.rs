//! Wall-clock parallelism: the one ordered fan-out.
//!
//! The virtual-time [`scheduler`](crate::scheduler) answers "what latency
//! would the user perceive"; this module answers "how fast does the engine
//! actually chew through a workload on real hardware". [`ordered_map`] is
//! the only thread spawn in the workspace. The engine runs each query on
//! the thread that calls it; the fan-outs between queries, shard
//! fragments (`ids-shard`) and sessions (`ids-serve`) are calls to this
//! function, and a long-lived worker pool would replace its body.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::{EngineError, EngineResult};

/// Runs `task(0)`, …, `task(n - 1)` on up to `threads` OS threads and
/// returns the results in index order, whichever worker ran which task.
///
/// With `threads <= 1` or `n <= 1` every task runs inline on the calling
/// thread and nothing is spawned, so what the tasks record lands in the
/// caller's thread-owned observability state. Otherwise scoped workers
/// pull indices off a shared cursor; each starts with fresh observability
/// state except the spawner's virtual clock ([`ids_obs::vnow`]), published
/// on every worker here because `ChaosBackend` keys its fault windows on
/// it — the one value a worker inherits.
///
/// A panicking task takes its worker down; the other workers finish and
/// the whole call returns [`EngineError::SchedulerClosed`] — never a
/// partial vector.
pub fn ordered_map<R, F>(n: usize, threads: usize, task: F) -> EngineResult<Vec<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        return Ok((0..n).map(task).collect());
    }
    let vnow = ids_obs::vnow();
    // Hands out task indices only; the data tasks read is borrowed.
    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    let worker = || {
        ids_obs::set_vnow(vnow);
        let mine: Vec<(usize, R)> = std::iter::from_fn(|| {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            (i < n).then(|| (i, task(i)))
        })
        .collect();
        // Taken once per worker and never across a task, so a panicking
        // task cannot poison it.
        done.lock().expect("no task runs under it").extend(mine);
    };
    // The scope's own wait, not `ScopedJoinHandle::join`: that is a
    // `pthread_join`, which also waits out the OS thread's teardown —
    // 10 % of an 8-shard scatter on `sharded_scatter`. A worker's panic
    // therefore resurfaces from the scope and is caught here; nothing the
    // workers wrote is read afterwards.
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        })
    }))
    .map_err(|_| EngineError::SchedulerClosed)?;
    // Every index was handed out once and every worker returned.
    let mut done = done
        .into_inner()
        .map_err(|_| EngineError::SchedulerClosed)?;
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, result)| result).collect())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use ids_simclock::SimTime;

    use super::*;
    use crate::backend::{Backend, MemBackend, QueryOutcome};
    use crate::column::ColumnBuilder;
    use crate::predicate::Predicate;
    use crate::query::{BinSpec, Query};
    use crate::table::TableBuilder;

    #[test]
    fn results_are_in_index_order_whatever_order_tasks_finish_in() {
        // One worker per task, and task `i` may not finish before task
        // `i + 1` has: completion order is forced to be the reverse of
        // index order.
        const N: usize = 4;
        let finished: Vec<AtomicBool> = (0..N).map(|_| AtomicBool::new(false)).collect();
        let finish_order = Mutex::new(Vec::new());
        let out = ordered_map(N, N, |i| {
            while i + 1 < N && !finished[i + 1].load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            finish_order.lock().unwrap().push(i);
            finished[i].store(true, Ordering::SeqCst);
            i * 10
        })
        .unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(finish_order.into_inner().unwrap(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn more_threads_than_tasks_and_no_tasks_at_all() {
        assert_eq!(ordered_map(3, 16, |i| i * 2).unwrap(), vec![0, 2, 4]);
        for threads in [0, 1, 4] {
            assert!(ordered_map(0, threads, |i| i).unwrap().is_empty());
        }
    }

    #[test]
    fn one_thread_runs_on_the_caller_and_workers_inherit_only_the_clock() {
        ids_obs::enable();
        ids_obs::set_vnow(SimTime::from_micros(4_242));
        let task = |_| {
            ids_obs::recorder().record_counter("fanout.task", ids_obs::vnow(), 1.0);
            ids_obs::vnow()
        };
        // Inline: the caller owns what the tasks recorded.
        let inline = ordered_map(3, 1, task).unwrap();
        assert_eq!(ids_obs::recorder().event_count(), 3);
        // Spawned: each worker sees the spawner's clock and nothing
        // else — its recorder is its own (and disabled).
        let spawned = ordered_map(3, 3, task).unwrap();
        assert_eq!(ids_obs::recorder().event_count(), 3);
        assert_eq!(inline, spawned);
        assert_eq!(spawned, vec![SimTime::from_micros(4_242); 3]);
    }

    #[test]
    fn a_panicking_task_is_a_typed_error_not_a_partial_vector() {
        let out = ordered_map(8, 2, |i| {
            assert_ne!(i, 5, "task 5 fails");
            i
        });
        assert_eq!(out, Err(EngineError::SchedulerClosed));
    }

    fn backend(rows: usize) -> MemBackend {
        let b = MemBackend::new();
        b.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .build()
                .unwrap(),
        );
        b
    }

    #[test]
    fn batch_outcomes_are_in_submission_order_at_any_thread_count() {
        let b = backend(1000);
        let queries: Vec<Query> = (0..32)
            .map(|i| Query::count("t", Predicate::between("x", 0.0, i as f64)))
            .collect();
        for threads in [1, 4, 8] {
            let outs =
                ordered_map(queries.len(), threads, |i| b.execute(&queries[i]).unwrap()).unwrap();
            assert_eq!(outs.len(), queries.len());
            for (i, out) in outs.iter().enumerate() {
                assert_eq!(out.scalar_count(), Some(i as u64 + 1), "{threads} threads");
            }
        }
        // Two overlapping brushes alternating over one table, each as its
        // histogram and its count. A worker may find the table remembering
        // its filter and histogram, the other brush's (200 rows away, so
        // the counts move), or race another worker to a double miss:
        // every outcome must equal the serial one on a cold table.
        let alternating: Vec<Query> = (0..32)
            .map(|i| {
                let filter = [(0.0, 600.0), (100.0, 700.0)][i / 2 % 2];
                let filter = Predicate::between("x", filter.0, filter.1);
                match i % 2 {
                    0 => Query::histogram("t", BinSpec::new("x", 0.0, 1000.0, 10), filter),
                    _ => Query::count("t", filter),
                }
            })
            .collect();
        let cold: Vec<QueryOutcome> = alternating
            .iter()
            .map(|q| backend(1000).execute(q).unwrap())
            .collect();
        for threads in [1, 2, 4, 8] {
            let outs = ordered_map(alternating.len(), threads, |i| {
                b.execute(&alternating[i]).unwrap()
            })
            .unwrap();
            for (i, (out, want)) in outs.iter().zip(&cold).enumerate() {
                assert_eq!(
                    (&out.result, out.footprint, out.cost, out.quality),
                    (&want.result, want.footprint, want.cost, want.quality),
                    "statement {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn error_in_one_query_surfaces() {
        let b = backend(10);
        let queries = [
            Query::count("t", Predicate::True),
            Query::count("missing", Predicate::True),
        ];
        let outs = ordered_map(queries.len(), 2, |i| b.execute(&queries[i])).unwrap();
        assert!(outs[0].is_ok());
        assert!(
            outs[1].is_err(),
            "the failing query's own slot holds its error"
        );
    }
}
