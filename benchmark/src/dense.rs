//! `crossfilter_dense` and `sharded_scatter`: the same road table and
//! the same brush statements, once through the single-table request
//! path and once through the scatter-gather executor.

use ids_engine::distributed::merge_partials;
use ids_engine::kernels::{fused_filter_bin, select_vector};
use ids_engine::{plan, Database, KernelOptions, KernelStats, Query, ResultSet, ZONE_BLOCK_ROWS};
use ids_shard::{PartitionScheme, ScatterGather, ShardedCluster};
use ids_workload::datasets::{self, road_domain};

use crate::answers::digest;
use crate::harness::{Issue, LayerInput, Layers, Workload};
use crate::request::{
    best_ns, best_pair_ns, exact_layers, parse_and_bind, planner_speedup, reference_misses,
    span_layers, sql_request, stride, time_ns,
};
use crate::sqlgen::{crossfilter_stream, Stmt};
use crate::stats::p50_p95;
use crate::trace::{durations, Tracer};

/// Seed of the road table, whatever `--seed` says: one data set, as in
/// the paper's case study, brushed by the sessions `--seed` draws. The
/// generator places 24 Zipf-weighted clusters, and which of eight `x`
/// ranges the heavy ones fall into sets the slowest shard: with the
/// statements fixed and the table following the seed the timings of
/// `sharded_scatter` spread 16 to 26 % over ten seeds, with the table
/// fixed and the statements following the seed 5 to 7 %. Table seed 7, the
/// other one tried, made the rows matched per statement 1.7 times as
/// sensitive to the statements' seed as this one.
const TABLE_SEED: u64 = 2018;
/// Sessions a stream draws its segments from, segments per session, and
/// slider events per segment (two statements each): 12,288 statements,
/// about what `crossfilter_dense` gets through in a run, so that a run
/// sees as many independent segments as its time allows.
const SESSIONS: usize = 512;
const SESSION_SEGMENTS: usize = 3;
const SEGMENT_GROUPS: usize = 4;
/// Shards and gather threads of `sharded_scatter`.
const SHARDS: usize = 8;
const GATHER_THREADS: usize = 2;
/// Answers re-derived row at a time.
const REFERENCE_CHECKS: usize = 64;
/// Statements the out-of-band probes run.
const PROBE_STATEMENTS: usize = 128;
/// Leading statements the exact counters are summed over; fixed, so the
/// counters do not depend on how far the time box let a pass get.
const EXACT_STATEMENTS: usize = 256;

/// The road table and its brush statements.
struct Dense {
    db: Database,
    stream: Vec<Stmt>,
    last: Option<ResultSet>,
}

impl Dense {
    fn new(seed: u64, scale: usize) -> Dense {
        let db = Database::new();
        db.register(datasets::road_network_sized(
            TABLE_SEED,
            (road_domain::ROWS / scale).max(1),
        ));
        let stream = crossfilter_stream(
            seed,
            "dataroad",
            (SESSIONS / scale).max(2),
            SESSION_SEGMENTS,
            SEGMENT_GROUPS,
        );
        Dense {
            db,
            stream,
            last: None,
        }
    }

    fn issue(&self, i: usize) -> Issue {
        // Past the first lap the stream's session ids repeat; offset them
        // so a repeated session counts as a new one.
        let lap = (i / self.stream.len()) as u32;
        let stmt = &self.stream[i % self.stream.len()];
        Issue {
            session: stmt.session + lap * self.stream.len() as u32,
            at_us: stmt.at_us,
        }
    }

    fn answer(&mut self) -> Option<u64> {
        self.last.take().map(|result| digest(&result))
    }

    /// Stream positions the out-of-band probes run.
    fn probe_positions(&self) -> impl Iterator<Item = usize> {
        stride(self.stream.len(), PROBE_STATEMENTS)
    }

    fn exact_layers(&self, out: &mut Layers) {
        let n = EXACT_STATEMENTS.min(self.stream.len());
        exact_layers(&self.db, &self.stream[..n], out);
    }
}

/// One SQL string in, one histogram out, single-threaded.
pub struct CrossfilterDense(Dense);

impl CrossfilterDense {
    pub fn new(seed: u64, scale: usize) -> CrossfilterDense {
        CrossfilterDense(Dense::new(seed, scale))
    }

    /// The two kernels of a histogram and the two-thread bin path, each
    /// called directly on a stride of statements, outside any pass.
    fn kernel_probes(&self, scan_ns_per_row: f64, out: &mut Layers) {
        let db = &self.0.db;
        let opts = KernelOptions::default();
        let (mut filter_ns, mut bin_ns, mut rows, mut matched, mut bytes) = (0u64, 0u64, 0, 0, 0);
        let (mut one_ns, mut two_ns) = (0u64, 0u64);
        let mut probed = 0usize;
        for p in self.0.probe_positions() {
            let query = &self.0.stream[p].query;
            let Query::Histogram {
                table,
                bins,
                filter,
            } = query
            else {
                continue;
            };
            let (Ok(t), Ok(physical)) = (db.table(table), plan(db, query)) else {
                continue;
            };
            let Ok(binned) = t.column_index(&bins.column) else {
                continue;
            };
            let (Ok(sel), ns) = time_ns(|| select_vector(&t, filter)) else {
                continue;
            };
            filter_ns += ns;
            let mut stats = KernelStats::default();
            bin_ns += time_ns(|| {
                fused_filter_bin(
                    t.column_at(binned),
                    t.zone_map_at(binned),
                    &sel,
                    bins,
                    &opts,
                    &mut stats,
                )
            })
            .1;
            rows += t.rows() as u64;
            matched += sel.count() as u64;
            // One f64 column per filter condition, plus the scanned
            // blocks of the binned column.
            bytes += 8
                * ((t.rows() * filter.condition_count()) as u64
                    + stats.blocks_scanned * ZONE_BLOCK_ROWS as u64);
            let (one, two) = best_pair_ns(
                || physical.execute_with_threads(db, 1),
                || physical.execute_with_threads(db, 2),
            );
            one_ns += one;
            two_ns += two;
            probed += 1;
        }
        let bin_ns_per_row = bin_ns as f64 / matched.max(1) as f64;
        out.set(
            "kernels.filter_ns_per_row",
            filter_ns as f64 / rows.max(1) as f64,
            probed,
        );
        out.set("kernels.bin_ns_per_row", bin_ns_per_row, probed);
        out.set(
            "kernels.bin_x_scan",
            bin_ns_per_row / scan_ns_per_row,
            probed,
        );
        out.set(
            "kernels.bin_share",
            bin_ns as f64 / (filter_ns + bin_ns).max(1) as f64,
            probed,
        );
        out.set(
            "kernels.effective_gbps",
            bytes as f64 / (filter_ns + bin_ns).max(1) as f64,
            probed,
        );
        out.set(
            "parallel.speedup_2t",
            one_ns as f64 / two_ns.max(1) as f64,
            probed,
        );
    }
}

impl Workload for CrossfilterDense {
    fn period(&self) -> Option<usize> {
        Some(self.0.stream.len())
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let dense = &mut self.0;
        let text = &dense.stream[i % dense.stream.len()].sql;
        dense.last = Some(sql_request(&dense.db, text, tr)?);
        Ok(())
    }

    fn answer(&mut self) -> Option<u64> {
        self.0.answer()
    }

    fn issue(&self, i: usize) -> Option<Issue> {
        Some(self.0.issue(i))
    }

    fn verify(&mut self, answers: &[u64]) -> u64 {
        reference_misses(&self.0.db, &self.0.stream, answers, REFERENCE_CHECKS)
    }

    fn layers(&mut self, input: &LayerInput<'_>, out: &mut Layers) {
        span_layers(input, out);
        self.kernel_probes(input.scan_ns_per_row, out);
        planner_speedup(&self.0.db, &self.0.stream, self.0.probe_positions(), out);
        self.0.exact_layers(out);
    }
}

/// The same statements through eight range partitions and two gather
/// threads: parse and bind on the coordinator's catalog, then scatter.
pub struct ShardedScatter {
    base: Dense,
    cluster: ShardedCluster,
    partition_s: f64,
}

impl ShardedScatter {
    pub fn new(seed: u64, scale: usize) -> ShardedScatter {
        let base = Dense::new(seed, scale);
        let (cluster, ns) = time_ns(|| {
            ShardedCluster::partition(&base.db, PartitionScheme::range("x"), TABLE_SEED, SHARDS)
                .expect("x is a numeric column of dataroad")
                .with_threads(GATHER_THREADS)
        });
        ShardedScatter {
            base,
            cluster,
            partition_s: ns as f64 / 1e9,
        }
    }

    /// Where a scatter-gather's time goes, on a stride of statements:
    /// the same plan on one thread and on two, and each partition's
    /// fragment alone.
    fn probes(&self, out: &mut Layers) {
        let parts = self.cluster.executor().partitions();
        let one_thread = ScatterGather::over(parts.to_vec());
        let mut exec_1t = Vec::new();
        let mut exec_2t = Vec::new();
        let mut fragment_sum = Vec::new();
        let mut fragment_max = Vec::new();
        let mut merge = Vec::new();
        for p in self.base.probe_positions() {
            let query = &self.base.stream[p].query;
            if one_thread.execute_planned(query).is_err() {
                continue;
            }
            let (one, two) = best_pair_ns(
                || one_thread.execute_planned(query),
                || self.cluster.executor().execute_planned(query),
            );
            exec_1t.push(one);
            exec_2t.push(two);
            let mut partials: Vec<ResultSet> = Vec::with_capacity(parts.len());
            let mut fragments_ns = Vec::with_capacity(parts.len());
            for part in parts {
                let fragment = || plan(part, query).and_then(|pl| pl.execute(part));
                if let Ok(partial) = fragment() {
                    partials.push(partial.result);
                    fragments_ns.push(best_ns(fragment));
                }
            }
            let sum: u64 = fragments_ns.iter().sum();
            fragment_sum.push(sum);
            fragment_max.push(fragments_ns.iter().copied().max().unwrap_or(0));
            let mut partials = partials.into_iter();
            if let Some(first) = partials.next() {
                merge.push(time_ns(|| partials.try_fold(first, merge_partials)).1);
            }
        }
        out.percentiles("shard.execute_1t_p50_us", None, &exec_1t, 1e3);
        out.percentiles("shard.fragment_sum_p50_us", None, &fragment_sum, 1e3);
        out.percentiles("shard.fragment_max_p50_us", None, &fragment_max, 1e3);
        // One-thread gather minus the fragments run alone: scatter, slot
        // bookkeeping, pricing and merge. Tens of microseconds between two
        // millisecond medians, so it can read below zero.
        out.set(
            "shard.coordination_p50_us",
            (p50_p95(&exec_1t).0 as f64 - p50_p95(&fragment_sum).0 as f64) / 1e3,
            exec_1t.len(),
        );
        out.percentiles("shard.merge_p50_ns", None, &merge, 1.0);
        out.set(
            "shard.parallel_efficiency",
            p50_p95(&exec_1t).0 as f64 / (GATHER_THREADS as f64 * p50_p95(&exec_2t).0 as f64),
            exec_1t.len(),
        );

        let rows: Vec<usize> = parts
            .iter()
            .filter_map(|db| db.table("dataroad").ok())
            .map(|t| t.rows())
            .collect();
        let mean_rows = rows.iter().sum::<usize>() as f64 / rows.len().max(1) as f64;
        out.set(
            "shard.rows_skew",
            rows.iter().copied().max().unwrap_or(0) as f64 / mean_rows,
            rows.len(),
        );
    }
}

impl Workload for ShardedScatter {
    fn threads(&self) -> usize {
        GATHER_THREADS
    }

    fn period(&self) -> Option<usize> {
        Some(self.base.stream.len())
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let text = &self.base.stream[i % self.base.stream.len()].sql;
        let query = parse_and_bind(&self.base.db, text, tr)?;
        let gathered = tr
            .span("shard.execute", |_| {
                self.cluster.executor().execute_planned(&query)
            })
            .map_err(|e| e.to_string())?;
        self.base.last = Some(gathered.result);
        Ok(())
    }

    fn answer(&mut self) -> Option<u64> {
        self.base.answer()
    }

    fn issue(&self, i: usize) -> Option<Issue> {
        Some(self.base.issue(i))
    }

    /// Sharded answers must equal the single-table answers statement for
    /// statement: a stride against the row-at-a-time reference, and a
    /// denser stride against the single-table planned path.
    fn verify(&mut self, answers: &[u64]) -> u64 {
        let (db, stream) = (&self.base.db, &self.base.stream);
        let single_table = stride(answers.len().min(stream.len()), 4 * REFERENCE_CHECKS)
            .filter(|&p| {
                let expected = plan(db, &stream[p].query).and_then(|pl| pl.execute(db));
                !expected.is_ok_and(|e| digest(&e.result) == answers[p])
            })
            .count() as u64;
        reference_misses(db, stream, answers, REFERENCE_CHECKS) + single_table
    }

    fn layers(&mut self, input: &LayerInput<'_>, out: &mut Layers) {
        span_layers(input, out);
        out.percentiles(
            "shard.execute_p50_us",
            None,
            &durations(input.spans, "shard.execute"),
            1e3,
        );
        out.set("shard.partition_s", self.partition_s, 1);
        self.probes(out);
        self.base.exact_layers(out);
    }
}
