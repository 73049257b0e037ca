//! Wall-clock parallel batch execution.
//!
//! The virtual-time [`scheduler`](crate::scheduler) answers "what latency
//! would the user perceive"; this module answers "how fast does the engine
//! actually chew through a workload on real hardware", which is what the
//! Criterion throughput benches measure. Queries are distributed over a
//! crossbeam-scoped worker pool; results come back in submission order.

use crossbeam::channel;

use crate::backend::{Backend, QueryOutcome};
use crate::error::{EngineError, EngineResult};
use crate::query::Query;

/// Executes `queries` across `threads` OS threads, returning outcomes in
/// submission order.
pub fn execute_batch(
    backend: &(dyn Backend + Sync),
    queries: &[Query],
    threads: usize,
) -> EngineResult<Vec<QueryOutcome>> {
    let threads = threads.max(1).min(queries.len().max(1));
    if threads == 1 {
        return queries.iter().map(|q| backend.execute(q)).collect();
    }

    let (task_tx, task_rx) = channel::unbounded::<(usize, &Query)>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, EngineResult<QueryOutcome>)>();
    for (i, q) in queries.iter().enumerate() {
        if task_tx.send((i, q)).is_err() {
            return Err(EngineError::SchedulerClosed);
        }
    }
    drop(task_tx);

    // Observability state is per thread; the one thing a worker needs of
    // the caller's is the virtual clock, which `ChaosBackend::execute`
    // keys its fault windows on.
    let vnow = ids_obs::vnow();
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            scope.spawn(move |_| {
                ids_obs::set_vnow(vnow);
                while let Ok((i, q)) = task_rx.recv() {
                    let out = backend.execute(q);
                    if result_tx.send((i, out)).is_err() {
                        break;
                    }
                }
            });
        }
    })
    .map_err(|_| EngineError::SchedulerClosed)?;
    drop(result_tx);

    let mut slots: Vec<Option<EngineResult<QueryOutcome>>> =
        (0..queries.len()).map(|_| None).collect();
    while let Ok((i, out)) = result_rx.recv() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.ok_or(EngineError::SchedulerClosed)?)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::column::ColumnBuilder;
    use crate::predicate::Predicate;
    use crate::table::TableBuilder;

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
    fn batch_results_in_submission_order() {
        let b = backend(1000);
        let queries: Vec<Query> = (0..32)
            .map(|i| Query::count("t", Predicate::between("x", 0.0, i as f64)))
            .collect();
        let outs = execute_batch(&b, &queries, 4).unwrap();
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.scalar_count(), Some(i as u64 + 1));
        }
    }

    #[test]
    fn single_thread_path_matches_parallel() {
        let b = backend(500);
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::count("t", Predicate::between("x", i as f64, 400.0)))
            .collect();
        let seq = execute_batch(&b, &queries, 1).unwrap();
        let par = execute_batch(&b, &queries, 8).unwrap();
        for (a, z) in seq.iter().zip(par.iter()) {
            assert_eq!(a.result, z.result);
        }
    }

    #[test]
    fn error_in_one_query_surfaces() {
        let b = backend(10);
        let queries = vec![
            Query::count("t", Predicate::True),
            Query::count("missing", Predicate::True),
        ];
        assert!(execute_batch(&b, &queries, 2).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let b = backend(1);
        assert!(execute_batch(&b, &[], 4).unwrap().is_empty());
    }
}
