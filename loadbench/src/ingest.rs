//! `ingest_mixed`: streaming bulk ingest into a durable knowledge base
//! on real disk, with reads beside the writes.
//!
//! Each round opens a fresh store through `open_durable_on` over
//! `RealFs` (every group commit fsyncs), and one client posts the seeded
//! corpus as 256-document `/ingest/bulk` requests with the default
//! `IngestConfig` while the other runs `/query` reads on the growing
//! graph: half `?d kb:mentions <entity> LIMIT 20`, half point lookups of
//! acknowledged documents. After the last batch the store is closed,
//! reopened and checked. Rounds repeat until the measured time is used,
//! so every round does the same work and recovery always replays the
//! same log.

use crate::client::Client;
use crate::gen::{self, Corpus, ReaderOp, BULK_DOCS, ENTITIES, MENTIONS_LIMIT};
use crate::load::{sample, send, timed_setups, Ledger, Load, Server};
use crate::stats::{median, metric, ms, peak_rss_mb, quantile, ratio, us, Outcome};
use crate::trace::{traced_handler, Spans, TimingFs};
use crate::Args;
use cogsdk_core::gateway::{format_response, parse_request};
use cogsdk_core::{HttpGateway, RichSdk};
use cogsdk_json::Json;
use cogsdk_kb::{gateway_ingest_handler, gateway_query_handler, KbOptions, PersonalKnowledgeBase};
use cogsdk_obs::Telemetry;
use cogsdk_sim::fs::{RealFs, Vfs};
use cogsdk_sim::SimEnv;
use cogsdk_store::MemoryKv;
use cogsdk_text::{Analyzer, NluConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Documents per round: 32 bulk requests.
pub const ROUND_DOCS: usize = 32 * BULK_DOCS;
/// Rounds per run at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// Reader queries replayed in-process in the traced run.
const REPLAY_QUERIES: u64 = 1_000;
/// Documents analyzed in-process for `text.analyze_us_per_doc`.
const ANALYZE_DOCS: usize = 2_048;

/// A fresh durable base behind a serving gateway.
struct Served {
    kb: Arc<PersonalKnowledgeBase>,
    server: Server,
    /// The timing wrapper around the store's filesystem, when traced.
    fs: Option<Arc<TimingFs>>,
}

impl Served {
    fn start(seed: u64, dir: &Path, spans: Option<&Arc<Spans>>) -> Result<Served, String> {
        let (fs, timing) = open_fs(dir, spans.is_some())?;
        let telemetry = Telemetry::new();
        let kb = Arc::new(
            PersonalKnowledgeBase::open_durable_on(
                fs,
                Arc::new(MemoryKv::new()),
                KbOptions::default(),
                telemetry.clone(),
            )
            .map_err(|e| format!("open durable store: {e}"))?,
        );
        let sdk = Arc::new(RichSdk::with_telemetry(&SimEnv::with_seed(seed), telemetry));
        let mut gateway = HttpGateway::new(sdk.clone());
        let ingest = gateway_ingest_handler(kb.clone(), sdk.pool().clone());
        let query = gateway_query_handler(kb.clone());
        match spans {
            Some(spans) => {
                gateway.set_ingest_handler(traced_handler(
                    ingest,
                    spans.clone(),
                    "kb.ingest_handler",
                ));
                gateway.set_query_handler(traced_handler(query, spans.clone(), "kb.query_handler"));
            }
            None => {
                gateway.set_ingest_handler(ingest);
                gateway.set_query_handler(query);
            }
        }
        let server = Server::start(Arc::new(gateway))?;
        Ok(Served {
            kb,
            server,
            fs: timing,
        })
    }

    /// Stops serving and closes the store: the gateway, and with it every
    /// handler holding the base, is gone once the accept thread ends, so
    /// dropping the returned base releases the files.
    fn close(self) -> Result<Arc<PersonalKnowledgeBase>, String> {
        let Served { kb, mut server, .. } = self;
        server.stop();
        if Arc::strong_count(&kb) != 1 {
            return Err("the store is still shared after the gateway stopped".into());
        }
        Ok(kb)
    }
}

/// A store's filesystem and, when timed, the timing wrapper inside it.
type OpenedFs = (Arc<dyn Vfs>, Option<Arc<TimingFs>>);

/// `RealFs` over `dir`, wrapped in a [`TimingFs`] when `timed`.
fn open_fs(dir: &Path, timed: bool) -> Result<OpenedFs, String> {
    let real: Arc<dyn Vfs> =
        Arc::new(RealFs::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?);
    if timed {
        let timing = TimingFs::new(real);
        Ok((timing.clone(), Some(timing)))
    } else {
        Ok((real, None))
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    ingest_s: f64,
    docs: usize,
    batches: usize,
    ingest_ms: Vec<f64>,
    reader: Load,
    recover_s: f64,
    disk_bytes: u64,
    wal_records: u64,
    epochs: u64,
    /// `(append calls, bytes, ms)`, `(fsync calls, ms)`, written bytes
    /// and reopen read ms, from the timing `Vfs` of traced rounds.
    append: (u64, u64, f64),
    fsync: (u64, f64),
    written: u64,
    reopen_read_ms: f64,
}

/// The acknowledged-prefix state the writer shares with the reader.
struct Progress {
    sent: AtomicUsize,
    acked: AtomicUsize,
    done: AtomicBool,
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let root = PathBuf::from(".bench_tmp").join(format!("ingest-{}", std::process::id()));
    let result = measure(args, &root);
    let _ = std::fs::remove_dir_all(&root);
    // Shared by concurrent runs, so removed only once empty.
    let _ = std::fs::remove_dir(".bench_tmp");
    result
}

fn measure(args: &Args, root: &Path) -> Result<Outcome, String> {
    let corpus = Corpus::new(args.seed, ROUND_DOCS);
    let spans = Spans::new();
    let reader_next = AtomicU64::new(0);
    let mut out = Outcome::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut first_round_peak = None;
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < args.duration() {
        // A traced run alternates untraced and traced rounds, for the
        // tracing overhead.
        let traced = args.trace && rounds.len() % 2 == 1;
        let dir = root.join(format!("round-{}", rounds.len()));
        let round = run_round(args, &corpus, &dir, &spans, traced, &reader_next, &mut out);
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(round?);
        // Every round allocates afresh on threads the allocator spreads over
        // its arenas, so later rounds lift the high-water mark by chance;
        // one round's peak does not depend on how many rounds fit.
        first_round_peak.get_or_insert_with(peak_rss_mb);
    }

    let mut reader_all = Load::new(None);
    for r in &mut rounds {
        reader_all.merge(std::mem::take(&mut r.reader));
    }
    let ingest_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.ingest_ms.iter().copied())
        .collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let ingest_metrics = vec![
        metric(
            "ingest_docs_per_s",
            "1/s",
            per_round(&|r| ratio(r.docs as f64, r.ingest_s)),
        ),
        metric("ingest_req_p50_ms", "ms", median(&ingest_ms)),
        metric("ingest_req_p90_ms", "ms", quantile(&ingest_ms, 0.9)),
        metric("recover_s", "s", per_round(&|r| r.recover_s)),
        metric(
            "disk_bytes_per_doc",
            "B",
            per_round(&|r| ratio(r.disk_bytes as f64, r.docs as f64)),
        ),
    ];
    if !args.trace {
        let (metrics, p99) = reader_all.summary().end_to_end(
            per_round(&|r| r.setup_s),
            first_round_peak.unwrap_or_default(),
        );
        out.metrics = metrics;
        out.info = std::iter::once(p99).chain(ingest_metrics).collect();
        return Ok(out);
    }

    // Traced run: the layers of the traced rounds, plus an in-process
    // replay of the reader stream over a store holding the whole corpus.
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let sum = |f: &dyn Fn(&Round) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let docs = sum(&|r| r.docs as f64);
    let replay = replay_reader(args, &corpus, &root.join("replay"), &mut out)?;
    let analyzer = Analyzer::with_default_lexicons();
    let nlu = NluConfig::perfect();
    let t = Instant::now();
    for doc in corpus.docs.iter().take(ANALYZE_DOCS) {
        std::hint::black_box(analyzer.analyze(doc, &nlu));
    }
    let analyze_us = us(t.elapsed()) / ANALYZE_DOCS as f64;

    let connect_us = reader_all.connect_us();
    let stages = [
        median(&replay.parse),
        median(&replay.handle),
        median(&replay.format),
    ];
    // Reads of traced rounds are the traced requests, so the tracing
    // overhead compares traced rounds against untraced ones.
    let ledger = Ledger::of(&reader_all, &stages, median(&replay.server));
    let mut measured = vec![
        reader_all.summary().p99(),
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
        metric(
            "kb.ingest_handler_ms",
            "ms",
            median(&spans.durations_us("kb.ingest_handler")) / 1e3,
        ),
        metric("text.analyze_us_per_doc", "us", analyze_us),
        metric(
            "fs.append_ms",
            "ms",
            ratio(sum(&|r| r.append.2), sum(&|r| r.append.0 as f64)),
        ),
        metric(
            "fs.fsync_ms",
            "ms",
            ratio(sum(&|r| r.fsync.1), sum(&|r| r.fsync.0 as f64)),
        ),
        metric(
            "fs.fsyncs_per_batch",
            "count",
            ratio(sum(&|r| r.fsync.0 as f64), sum(&|r| r.batches as f64)),
        ),
        metric(
            "fs.bytes_written_per_doc",
            "B",
            ratio(sum(&|r| r.written as f64), docs),
        ),
        metric(
            "fs.read_ms",
            "ms",
            median(&traced.iter().map(|r| r.reopen_read_ms).collect::<Vec<_>>()),
        ),
        metric(
            "wal.records_per_doc",
            "count",
            ratio(sum(&|r| r.wal_records as f64), docs),
        ),
        metric(
            "rdf.epochs_published",
            "count",
            median(&traced.iter().map(|r| r.epochs as f64).collect::<Vec<_>>()),
        ),
    ];
    measured.extend(ingest_metrics);
    out.metrics = crate::layer_metrics(measured);
    crate::write_spans(args, &spans);
    Ok(out)
}

fn run_round(
    args: &Args,
    corpus: &Corpus,
    dir: &Path,
    spans: &Arc<Spans>,
    traced: bool,
    reader_next: &AtomicU64,
    out: &mut Outcome,
) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let spans_arg = args.trace.then_some(spans);
    let (served, setup) = timed_setups(1, || Served::start(args.seed, dir, spans_arg))?;
    spans.set_on(traced);
    let epoch_before = served.kb.query_snapshot().epoch();
    let progress = Progress {
        sent: AtomicUsize::new(0),
        acked: AtomicUsize::new(0),
        done: AtomicBool::new(false),
    };
    let mut round = Round {
        traced,
        setup_s: setup[0],
        ..Round::default()
    };
    let addr = served.server.addr;
    let (writer, reader) = std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| read_loop(args.seed, addr, corpus, &progress, spans, reader_next));
        let writer = write_loop(addr, corpus, &progress, spans);
        progress.done.store(true, Ordering::SeqCst);
        (writer, reader.join().expect("reader thread panicked"))
    });
    spans.set_on(false);
    round.ingest_s = writer.elapsed.as_secs_f64();
    round.ingest_ms = writer.latencies_ms;
    round.docs = writer.documents;
    round.batches = writer.batches;
    out.absorb(writer.outcome);
    round.reader = reader;
    out.absorb(std::mem::take(&mut round.reader.outcome));

    // Close, measure what is on disk, reopen and check.
    let count = served.kb.statement_count();
    let digest = served.kb.contents_digest();
    round.wal_records = served.kb.wal_stats().records;
    round.epochs = served.kb.query_snapshot().epoch() - epoch_before;
    if let Some(fs) = &served.fs {
        round.append = fs.append.read();
        let (fsyncs, _, fsync_ms) = fs.fsync.read();
        round.fsync = (fsyncs, fsync_ms);
        round.written = fs.append.read().1 + fs.write.read().1;
    }
    drop(served.close()?);
    round.disk_bytes = dir_bytes(dir)?;
    let (fs, timing) = open_fs(dir, traced)?;
    let t = Instant::now();
    let reopened = PersonalKnowledgeBase::open_durable_on(
        fs,
        Arc::new(MemoryKv::new()),
        KbOptions::default(),
        Telemetry::new(),
    )
    .map_err(|e| format!("reopen: {e}"));
    round.recover_s = t.elapsed().as_secs_f64();
    if let Some(timing) = &timing {
        round.reopen_read_ms = timing.read.read().2;
    }
    out.record(reopened.and_then(|kb| {
        if round.docs != ROUND_DOCS {
            Err(format!(
                "acknowledged {} of {ROUND_DOCS} documents",
                round.docs
            ))
        } else if kb.statement_count() != count || kb.contents_digest() != digest {
            Err("the reopened store differs from the one closed".to_string())
        } else {
            Ok(())
        }
    }));
    Ok(round)
}

/// What the writer client measured.
struct Written {
    outcome: Outcome,
    latencies_ms: Vec<f64>,
    documents: usize,
    batches: usize,
    elapsed: Duration,
}

/// Posts the corpus as bulk requests, publishing the acknowledged prefix.
fn write_loop(addr: SocketAddr, corpus: &Corpus, progress: &Progress, spans: &Spans) -> Written {
    let mut client = Client::new(addr);
    let mut w = Written {
        outcome: Outcome::default(),
        latencies_ms: Vec::new(),
        documents: 0,
        batches: 0,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    for (r, first) in (0..corpus.docs.len()).step_by(BULK_DOCS).enumerate() {
        let range = first..(first + BULK_DOCS).min(corpus.docs.len());
        let n = range.len();
        progress.sent.store(range.end, Ordering::SeqCst);
        let raw = gen::http("POST", "/ingest/bulk", &corpus.bulk_body(range.clone()));
        let result = send(&mut client, spans, r as u64, &raw).and_then(|reply| {
            let json = Json::parse(&reply.body).map_err(|e| format!("ingest: bad JSON: {e}"))?;
            let docs = json.get("documents").and_then(Json::as_usize);
            if reply.status != 200 || docs != Some(n) {
                return Err(format!("ingest answered {}: {}", reply.status, reply.body));
            }
            let batches = json.get("batches").and_then(Json::as_usize).unwrap_or(0);
            Ok((reply.total, batches))
        });
        if let Some((total, batches)) = w.outcome.record(result) {
            w.latencies_ms.push(ms(total));
            w.documents += n;
            w.batches += batches;
            progress.acked.store(range.end, Ordering::SeqCst);
        }
    }
    w.elapsed = start.elapsed();
    w
}

/// Runs reads until the writer is done.
fn read_loop(
    seed: u64,
    addr: SocketAddr,
    corpus: &Corpus,
    progress: &Progress,
    spans: &Spans,
    next: &AtomicU64,
) -> Load {
    let mut client = Client::new(addr);
    let mut load = Load::new(None);
    let start = Instant::now();
    while !progress.done.load(Ordering::SeqCst) {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let acked = progress.acked.load(Ordering::SeqCst);
        let (sparql, check) = reader_query(gen::reader_op(seed, i), acked);
        let result = send(
            &mut client,
            spans,
            i,
            &gen::http("POST", "/query", &gen::query_body(&sparql)),
        )
        .and_then(|reply| {
            let sent = progress.sent.load(Ordering::SeqCst);
            check_reader(&check, corpus, acked, sent, reply.status, &reply.body)?;
            Ok(reply)
        });
        if let Some(reply) = load.outcome.record(result) {
            load.add(sample(&reply, spans.is_on(), start.elapsed()));
        }
    }
    load.elapsed = start.elapsed();
    load
}

/// What a reader query must return.
enum ReaderCheck {
    Mentions(usize),
    Doc(usize),
}

/// The SPARQL of a reader op given the acknowledged prefix; before the
/// first acknowledgement a point lookup becomes a mentions query.
fn reader_query(op: ReaderOp, acked: usize) -> (String, ReaderCheck) {
    match op {
        ReaderOp::Point(u) if acked > 0 => {
            let j = (u % acked as u64) as usize;
            (gen::doc_sparql(j), ReaderCheck::Doc(j))
        }
        ReaderOp::Point(u) => {
            let e = (u % ENTITIES.len() as u64) as usize;
            (gen::mentions_sparql(e), ReaderCheck::Mentions(e))
        }
        ReaderOp::Mentions(e) => (gen::mentions_sparql(e), ReaderCheck::Mentions(e)),
    }
}

/// Checks a reader answer: a point lookup returns the document's exact
/// rows; a mentions query returns at most 20 documents, each sent and
/// mentioning the entity, and at least as many as were acknowledged
/// before it was sent (up to 20).
fn check_reader(
    check: &ReaderCheck,
    corpus: &Corpus,
    acked: usize,
    sent: usize,
    status: u16,
    body: &str,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("reader query answered {status}: {body}"));
    }
    let json = Json::parse(body).map_err(|e| format!("reader: bad JSON: {e}"))?;
    let rows = gen::canonical_rows(&json).ok_or_else(|| format!("reader: bad rows: {body}"))?;
    match *check {
        ReaderCheck::Doc(j) if rows == corpus.doc_rows(j) => Ok(()),
        ReaderCheck::Doc(j) => Err(format!("doc {j}: wrong rows {rows:?}")),
        ReaderCheck::Mentions(e) => {
            let visible = corpus.mentioning(e).partition_point(|&d| d < acked);
            if rows.len() > MENTIONS_LIMIT || rows.len() < visible.min(MENTIONS_LIMIT) {
                return Err(format!(
                    "mentions of {}: {} rows, {visible} acknowledged",
                    ENTITIES[e].1,
                    rows.len()
                ));
            }
            for r in &rows {
                let doc = r
                    .strip_prefix("d=<kb:doc_")
                    .and_then(|s| s.strip_suffix('>'))
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&j| j < sent && corpus.mentions[j].contains(&e));
                if doc.is_none() {
                    return Err(format!("mentions of {}: unexpected row {r}", ENTITIES[e].1));
                }
            }
            Ok(())
        }
    }
}

/// In-process stage timings of the reader stream, in µs.
#[derive(Default)]
struct Replay {
    parse: Vec<f64>,
    handle: Vec<f64>,
    format: Vec<f64>,
    server: Vec<f64>,
}

/// Ingests the corpus into a fresh store at `dir` and replays the reader
/// stream through an in-process gateway over it.
fn replay_reader(
    args: &Args,
    corpus: &Corpus,
    dir: &Path,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (fs, _) = open_fs(dir, false)?;
    let telemetry = Telemetry::new();
    let kb = Arc::new(
        PersonalKnowledgeBase::open_durable_on(
            fs,
            Arc::new(MemoryKv::new()),
            KbOptions::default(),
            telemetry.clone(),
        )
        .map_err(|e| format!("open replay store: {e}"))?,
    );
    let sdk = Arc::new(RichSdk::with_telemetry(
        &SimEnv::with_seed(args.seed),
        telemetry,
    ));
    let pool = sdk.pool().clone();
    let ingest = gateway_ingest_handler(kb.clone(), pool);
    for first in (0..corpus.docs.len()).step_by(BULK_DOCS) {
        let body = corpus.bulk_body(first..(first + BULK_DOCS).min(corpus.docs.len()));
        let raw = String::from_utf8(gen::http("POST", "/ingest/bulk", &body)).expect("UTF-8");
        let req = parse_request(&raw).map_err(|e| format!("replay ingest parse: {e}"))?;
        ingest(&req).map_err(|e| format!("replay ingest: {e}"))?;
    }
    let mut gateway = HttpGateway::new(sdk);
    gateway.set_query_handler(gateway_query_handler(kb.clone()));
    let mut r = Replay::default();
    let acked = corpus.docs.len();
    for i in 0..REPLAY_QUERIES {
        let (sparql, check) = reader_query(gen::reader_op(args.seed, i), acked);
        let raw = String::from_utf8(gen::http("POST", "/query", &gen::query_body(&sparql)))
            .expect("UTF-8");
        let t0 = Instant::now();
        let req = parse_request(&raw);
        let t1 = Instant::now();
        let Some(req) = out.record(req) else { continue };
        let resp = gateway.handle(&req);
        let t2 = Instant::now();
        std::hint::black_box(format_response(&resp));
        let t3 = Instant::now();
        out.record(check_reader(
            &check,
            corpus,
            acked,
            acked,
            resp.status,
            &resp.body,
        ));
        r.parse.push(us(t1 - t0));
        r.handle.push(us(t2 - t1));
        r.format.push(us(t3 - t2));
        r.server.push(us(t3 - t0));
    }
    Ok(r)
}

/// Total bytes of the files in `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
