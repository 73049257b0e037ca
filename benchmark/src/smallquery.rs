//! `smallquery_frontend`: the request path on tables so small that the
//! per-statement fixed cost — parse, bind, plan, catalog lookup, result
//! materialisation — is as large a share of the trip as it gets.

use ids_engine::{Database, ResultSet};
use ids_workload::datasets;

use crate::answers::digest;
use crate::harness::{LayerInput, Layers, Workload};
use crate::request::{exact_layers, planner_speedup, reference_misses, span_layers, sql_request};
use crate::sqlgen::{smallquery_stream, Stmt};
use crate::trace::Tracer;

/// Paper-size tables.
const IMDB_ROWS: usize = 4_000;
const LISTINGS_ROWS: usize = 20_000;
const ROAD_ROWS: usize = 4_096;
/// Statements in the stream; a pass goes round it many times.
const STATEMENTS: usize = 4_096;
/// Answers re-derived row at a time.
const REFERENCE_CHECKS: usize = 64;

pub struct SmallqueryFrontend {
    db: Database,
    stream: Vec<Stmt>,
    last: Option<ResultSet>,
}

impl SmallqueryFrontend {
    pub fn new(seed: u64, scale: usize) -> SmallqueryFrontend {
        let imdb_rows = (IMDB_ROWS / scale).max(1);
        let db = Database::new();
        db.register(datasets::movies_sized(seed, imdb_rows));
        db.register(datasets::listings(seed, (LISTINGS_ROWS / scale).max(1)));
        db.register(datasets::road_network_sized(
            seed,
            (ROAD_ROWS / scale).max(1),
        ));
        let stream = smallquery_stream(seed, (STATEMENTS / scale).max(64), imdb_rows);
        SmallqueryFrontend {
            db,
            stream,
            last: None,
        }
    }
}

impl Workload for SmallqueryFrontend {
    fn period(&self) -> Option<usize> {
        Some(self.stream.len())
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let text = &self.stream[i % self.stream.len()].sql;
        self.last = Some(sql_request(&self.db, text, tr)?);
        Ok(())
    }

    fn answer(&mut self) -> Option<u64> {
        self.last.take().map(|result| digest(&result))
    }

    fn verify(&mut self, answers: &[u64]) -> u64 {
        reference_misses(&self.db, &self.stream, answers, REFERENCE_CHECKS)
    }

    fn layers(&mut self, input: &LayerInput<'_>, out: &mut Layers) {
        span_layers(input, out);
        planner_speedup(&self.db, &self.stream, 0..self.stream.len(), out);
        exact_layers(&self.db, &self.stream, out);
    }
}
