//! `query_read`: read-only `POST /query` against a knowledge base
//! preloaded in set-up with about 200k triples.
//!
//! Set-up converts a seeded 66k-row CSV to RDF through `ingest_csv` +
//! `table_to_rdf`, the paper's format conversion. The mix is 50 % subject
//! point lookups, 20 % the needle star, 20 % category ⋈ score joins and
//! 10 % epoch-pinned `ORDER BY … LIMIT 100 OFFSET k` pages. The cache,
//! the sim services, text analysis and the WAL do no work here.

use crate::gen::{self, Dataset, QueryOp, ROWS};
use crate::load::{closed_loop, send, timed_setups, Ledger, Server};
use crate::stats::{mean, median, metric, peak_rss_mb, ratio, rss_bytes, us, Outcome};
use crate::trace::{traced_handler, Spans};
use crate::Args;
use cogsdk_core::gateway::{format_response, parse_request};
use cogsdk_core::{HttpGateway, RichSdk};
use cogsdk_json::Json;
use cogsdk_kb::{gateway_query_handler, KbOptions, PersonalKnowledgeBase};
use cogsdk_obs::Telemetry;
use cogsdk_rdf::Query;
use cogsdk_sim::SimEnv;
use cogsdk_store::MemoryKv;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries replayed in-process in the traced run.
const REPLAY_QUERIES: u64 = 600;

/// The preloaded knowledge base behind a serving gateway.
struct Served {
    kb: Arc<PersonalKnowledgeBase>,
    server: Server,
    /// The epoch the first answer named; pages pin to it.
    epoch: u64,
}

impl Served {
    fn start(seed: u64, csv: &str, spans: Option<&Arc<Spans>>) -> Result<Served, String> {
        let telemetry = Telemetry::new();
        let kb = Arc::new(PersonalKnowledgeBase::with_telemetry(
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            telemetry.clone(),
        ));
        kb.ingest_csv("items", csv)
            .map_err(|e| format!("ingest_csv: {e}"))?;
        kb.table_to_rdf("items", "item", "ds")
            .map_err(|e| format!("table_to_rdf: {e}"))?;
        let sdk = RichSdk::with_telemetry(&SimEnv::with_seed(seed), telemetry);
        let mut gateway = HttpGateway::new(Arc::new(sdk));
        let handler = gateway_query_handler(kb.clone());
        gateway.set_query_handler(match spans {
            Some(spans) => traced_handler(handler, spans.clone(), "kb.query_handler"),
            None => handler,
        });
        let server = Server::start(Arc::new(gateway))?;
        let reply = crate::client::Client::new(server.addr)
            .request(&gen::http("POST", "/query", &QueryOp::Point(0).body(0)))
            .map_err(|e| format!("first query: {e}"))?;
        let epoch = Json::parse(&reply.body)
            .ok()
            .and_then(|j| j.get("epoch").and_then(Json::as_usize))
            .ok_or_else(|| format!("first query answered {}: {}", reply.status, reply.body))?;
        Ok(Served {
            kb,
            server,
            epoch: epoch as u64,
        })
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dataset = Dataset::new(args.seed, ROWS);
    let csv = dataset.csv();
    let spans = Spans::new();
    let traced = args.trace.then_some(&spans);
    let mut first_growth = None;
    let (mut served, setup_times) = timed_setups(SETUPS, || {
        let before = rss_bytes();
        let served = Served::start(args.seed, &csv, traced)?;
        first_growth.get_or_insert(rss_bytes() - before);
        Ok(served)
    })?;
    let epoch = served.epoch;

    let load = closed_loop(
        served.server.addr,
        args.duration(),
        &spans,
        args.trace,
        |client, i| {
            let op = dataset.op(i);
            let reply = send(
                client,
                &spans,
                i,
                &gen::http("POST", "/query", &op.body(epoch)),
            )?;
            gen::check_query(&dataset.expect(op), reply.status, &reply.body)?;
            Ok(reply)
        },
    );

    served.server.stop();

    let mut out = Outcome::default();
    if !args.trace {
        let (metrics, p99) = load
            .summary()
            .end_to_end(median(&setup_times), peak_rss_mb());
        out.metrics = metrics;
        out.info = vec![p99];
        out.absorb(load.outcome);
        return Ok(out);
    }

    // Traced run: replay the stream in-process, through the gateway and
    // through the query layers it calls, on the same (read-only) base.
    let kb = served.kb.clone();
    let mut gateway = HttpGateway::new(Arc::new(RichSdk::with_telemetry(
        &SimEnv::with_seed(args.seed),
        Telemetry::new(),
    )));
    gateway.set_query_handler(gateway_query_handler(kb.clone()));
    let handler = gateway_query_handler(kb.clone());
    let mut replay = Outcome::default();
    let mut s = Stages::default();
    for i in 0..REPLAY_QUERIES {
        let op = dataset.op(i);
        let body = op.body(epoch);
        let raw = String::from_utf8(gen::http("POST", "/query", &body)).expect("UTF-8 request");
        let t0 = Instant::now();
        let req = parse_request(&raw);
        let t1 = Instant::now();
        let Ok(req) = req else {
            replay.record::<()>(Err(format!("replay parse failed for {op:?}")));
            continue;
        };
        let resp = gateway.handle(&req);
        let t2 = Instant::now();
        std::hint::black_box(format_response(&resp));
        let t3 = Instant::now();
        replay.record(gen::check_query(
            &dataset.expect(op),
            resp.status,
            &resp.body,
        ));
        s.parse.push(us(t1 - t0));
        s.handle.push(us(t2 - t1));
        s.format.push(us(t3 - t2));
        s.server.push(us(t3 - t0));

        let t = Instant::now();
        let _ = std::hint::black_box(handler(&req));
        let handler_us = us(t.elapsed());
        let sparql = op.sparql();
        let t = Instant::now();
        let query = Query::parse(&sparql);
        let parse_us = us(t.elapsed());
        let Some(query) = replay.record(query.map_err(|e| e.to_string())) else {
            continue;
        };
        let snapshot = match op {
            QueryOp::Page { .. } => kb.query_snapshot_at(epoch),
            _ => Some(kb.query_snapshot()),
        };
        let Some(snapshot) = replay.record(snapshot.ok_or(format!("epoch {epoch} not retained")))
        else {
            continue;
        };
        let t = Instant::now();
        let (rows, stats) = query.execute_with_stats(&*snapshot);
        let exec_us = us(t.elapsed());
        std::hint::black_box(rows);
        s.rdf_parse.push(parse_us);
        s.plan.push(stats.plan_micros as f64);
        s.execute.push(exec_us - stats.plan_micros as f64);
        s.serialize.push(handler_us - parse_us - exec_us);
        s.rows.push(stats.rows as f64);
    }
    drop(gateway);

    let connect_us = load.connect_us();
    let stages = [median(&s.parse), median(&s.handle), median(&s.format)];
    let ledger = Ledger::of(&load, &stages, median(&s.server));
    out.metrics = crate::layer_metrics(vec![
        load.summary().p99(),
        metric("client.connect_us", "us", connect_us),
        metric("gateway.parse_us", "us", stages[0]),
        metric("gateway.handle_us", "us", stages[1]),
        metric("gateway.format_us", "us", stages[2]),
        metric("gateway.front_door_us", "us", ledger.front_door_us),
        metric("ledger.unaccounted_frac", "ratio", ledger.unaccounted_frac),
        metric("ledger.trace_overhead_ms", "ms", ledger.trace_overhead_ms),
        metric(
            "kb.query_handler_us",
            "us",
            median(&spans.durations_us("kb.query_handler")),
        ),
        metric("rdf.parse_us", "us", median(&s.rdf_parse)),
        metric("rdf.plan_us", "us", median(&s.plan)),
        metric("rdf.execute_us", "us", median(&s.execute)),
        metric("kb.serialize_us", "us", median(&s.serialize)),
        metric("rdf.rows_per_query", "count", mean(&s.rows)),
        metric(
            "rdf.bytes_per_triple",
            "B",
            ratio(first_growth.unwrap_or(0.0), kb.statement_count() as f64),
        ),
    ]);
    out.absorb(load.outcome);
    out.absorb(replay);
    crate::write_spans(args, &spans);
    Ok(out)
}

/// Per-query stage timings of the in-process replay, in µs.
#[derive(Default)]
struct Stages {
    parse: Vec<f64>,
    handle: Vec<f64>,
    format: Vec<f64>,
    server: Vec<f64>,
    rdf_parse: Vec<f64>,
    plan: Vec<f64>,
    execute: Vec<f64>,
    serialize: Vec<f64>,
    rows: Vec<f64>,
}
