//! Socket-level end-to-end benchmark of the cogsdk HTTP gateway.
//!
//! One command runs one of three seeded workloads against a real
//! `HttpGateway::serve` socket, checks every answer, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`). See `README.md` for the workloads, the metrics and the
//! host facts the numbers depend on.

pub mod client;
pub mod gen;
pub mod ingest;
pub mod invoke;
pub mod load;
pub mod query;
pub mod rng;
pub mod stats;
pub mod trace;

use stats::Metric;
use std::time::Duration;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad)?,
                "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }

    /// The measured duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["invoke_zipf", "query_read", "ingest_mixed"];

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; a layer a workload does not load reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("req_p99_ms", "ms"),
    ("client.connect_us", "us"),
    ("gateway.parse_us", "us"),
    ("gateway.handle_us", "us"),
    ("gateway.format_us", "us"),
    ("gateway.front_door_us", "us"),
    ("ledger.unaccounted_frac", "ratio"),
    ("ledger.trace_overhead_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_req", "count"),
    ("sdk.hit_us", "us"),
    ("sdk.miss_us", "us"),
    ("sdk.class_us", "us"),
    ("sim.upstream_calls_per_req", "count"),
    ("rank.services_tried_per_req", "count"),
    ("obs.overhead_us", "us"),
    ("obs.scrape_ms", "ms"),
    ("obs.events_dropped", "count"),
    ("kb.query_handler_us", "us"),
    ("rdf.parse_us", "us"),
    ("rdf.plan_us", "us"),
    ("rdf.execute_us", "us"),
    ("kb.serialize_us", "us"),
    ("rdf.rows_per_query", "count"),
    ("rdf.bytes_per_triple", "B"),
    ("kb.ingest_handler_ms", "ms"),
    ("text.analyze_us_per_doc", "us"),
    ("fs.append_ms", "ms"),
    ("fs.fsync_ms", "ms"),
    ("fs.fsyncs_per_batch", "count"),
    ("fs.bytes_written_per_doc", "B"),
    ("fs.read_ms", "ms"),
    ("wal.records_per_doc", "count"),
    ("rdf.epochs_published", "count"),
    ("ingest_docs_per_s", "1/s"),
    ("ingest_req_p50_ms", "ms"),
    ("ingest_req_p90_ms", "ms"),
    ("recover_s", "s"),
    ("disk_bytes_per_doc", "B"),
];

/// Orders `measured` per-layer metrics as [`PER_LAYER`], filling the
/// layers this workload does not load with 0.
///
/// # Panics
///
/// On a measured metric that [`PER_LAYER`] does not list.
pub fn layer_metrics(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == m.name),
            "unlisted per-layer metric {}",
            m.name
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            stats::metric(name, unit, value)
        })
        .collect()
}

/// Writes the run's spans under `.bench_out/` in the working directory.
pub fn write_spans(args: &Args, spans: &trace::Spans) {
    let path = std::path::Path::new(".bench_out")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}
