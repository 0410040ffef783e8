//! The closed-loop socket load shared by the workloads.

use crate::client::{Client, Reply};
use crate::stats::{median, metric, us, Hist, Metric, Outcome};
use crate::trace::Spans;
use cogsdk_core::HttpGateway;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request/response clients, one connection each: the host has two
/// cores, and analytics callers wait for each reply (a closed loop).
pub const CLIENTS: usize = 2;

/// Length of the time blocks of a measured phase; see [`Load::summary`].
pub const BLOCK: Duration = Duration::from_secs(1);

/// Length of the alternating untraced/traced blocks of a traced run.
const TRACE_BLOCK: Duration = Duration::from_millis(200);

/// Throughput and latency of the request/response clients.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Answered requests per second.
    pub rps: f64,
    /// Median round trip, ms.
    pub p50_ms: f64,
    /// 90th-percentile round trip, ms.
    pub p90_ms: f64,
    /// 99th-percentile round trip, ms.
    pub p99_ms: f64,
}

impl Summary {
    /// The end-to-end metrics of an untraced run, in `BENCHMARK.json`
    /// order, and `req_p99_ms`, which the table shows beside them.
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> (Vec<Metric>, Metric) {
        (
            vec![
                metric("setup_s", "s", setup_s),
                metric("req_rps", "1/s", self.rps),
                metric("req_p50_ms", "ms", self.p50_ms),
                metric("req_p90_ms", "ms", self.p90_ms),
                metric("peak_rss_mb", "MiB", peak_rss_mb),
            ],
            self.p99(),
        )
    }

    /// `req_p99_ms`: a per-layer metric, since on a shared two-core host
    /// the p99 spreads between runs by more than any allowed bound.
    pub fn p99(&self) -> Metric {
        metric("req_p99_ms", "ms", self.p99_ms)
    }
}

/// A gateway serving on a loopback socket; dropping it stops the server
/// and waits for its thread.
pub struct Server {
    /// The bound address.
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Serves `gateway` on `127.0.0.1:0` and checks it answers
    /// `GET /services`: set-up ends when the gateway is ready.
    ///
    /// # Errors
    ///
    /// Bind errors and a first request that fails.
    pub fn start(gateway: Arc<HttpGateway>) -> Result<Server, String> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, thread) = gateway
            .serve("127.0.0.1:0", shutdown.clone())
            .map_err(|e| format!("bind gateway: {e}"))?;
        let server = Server {
            addr,
            shutdown,
            thread: Some(thread),
        };
        let reply = Client::new(addr)
            .request(&crate::gen::http("GET", "/services", ""))
            .map_err(|e| format!("first request: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET /services answered {}", reply.status));
        }
        Ok(server)
    }

    /// Stops serving and joins the accept thread.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One answered request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Whole round trip in µs, connect included.
    pub total_us: f64,
    /// Connect time in µs, when the request opened a connection.
    pub connect_us: Option<f64>,
    /// Whether span recording was on when the request was sent.
    pub traced: bool,
    /// When the reply arrived, from the start of the phase.
    pub at: Duration,
}

/// What the clients of a phase saw, kept as fixed-size histograms.
#[derive(Debug, Default)]
pub struct Load {
    /// Attempted and failed operations.
    pub outcome: Outcome,
    /// Wall time the phase ran.
    pub elapsed: Duration,
    /// Round trips per time block of this length, if blocked.
    block_len: Option<Duration>,
    blocks: Vec<Hist>,
    all: Hist,
    traced: Hist,
    untraced: Hist,
    connect: Hist,
    /// Round trip minus connect, of traced requests.
    exchange: Hist,
}

impl Load {
    /// An empty load; with `phase`, round trips are also split into
    /// equal time blocks of about [`BLOCK`] each.
    pub fn new(phase: Option<Duration>) -> Load {
        let blocks = phase.map_or(0, |p| {
            (p.as_secs_f64() / BLOCK.as_secs_f64()).round().max(1.0) as usize
        });
        Load {
            block_len: phase.map(|p| p / blocks as u32),
            blocks: vec![Hist::default(); blocks],
            ..Load::default()
        }
    }

    /// Records one answered request.
    pub fn add(&mut self, s: Sample) {
        self.all.add(s.total_us);
        if let Some(len) = self.block_len {
            let b = (s.at.as_secs_f64() / len.as_secs_f64().max(1e-9)) as usize;
            let last = self.blocks.len() - 1;
            self.blocks[b.min(last)].add(s.total_us);
        }
        if let Some(c) = s.connect_us {
            self.connect.add(c);
        }
        if s.traced {
            self.traced.add(s.total_us);
            self.exchange.add(s.total_us - s.connect_us.unwrap_or(0.0));
        } else {
            self.untraced.add(s.total_us);
        }
    }

    /// Adds the requests, failures and time of `other`.
    pub fn merge(&mut self, other: Load) {
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            a.merge(b);
        }
        for (a, b) in [
            (&mut self.all, &other.all),
            (&mut self.traced, &other.traced),
            (&mut self.untraced, &other.untraced),
            (&mut self.connect, &other.connect),
            (&mut self.exchange, &other.exchange),
        ] {
            a.merge(b);
        }
        self.outcome.absorb(other.outcome);
        self.elapsed += other.elapsed;
    }

    /// Answered requests per second.
    pub fn rps(&self) -> f64 {
        self.all.count() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Throughput and round-trip percentiles. With time blocks each is
    /// the median over the blocks, so a burst of noise from outside the
    /// benchmark moves one block rather than the result; without, they
    /// pool every request.
    pub fn summary(&self) -> Summary {
        if self.blocks.is_empty() {
            let q = |p| self.all.quantile(p) / 1e3;
            return Summary {
                rps: self.rps(),
                p50_ms: q(0.5),
                p90_ms: q(0.9),
                p99_ms: q(0.99),
            };
        }
        let len = self.block_len.map_or(1e-9, |l| l.as_secs_f64().max(1e-9));
        let per = |f: &dyn Fn(&Hist) -> f64| median(&self.blocks.iter().map(f).collect::<Vec<_>>());
        Summary {
            rps: per(&|h| h.count() as f64 / len),
            p50_ms: per(&|h| h.quantile(0.5) / 1e3),
            p90_ms: per(&|h| h.quantile(0.9) / 1e3),
            p99_ms: per(&|h| h.quantile(0.99) / 1e3),
        }
    }

    /// Median connect time in µs.
    pub fn connect_us(&self) -> f64 {
        self.connect.median()
    }

    /// Median round trip in ms of the traced (`true`) or untraced
    /// requests.
    pub fn median_ms(&self, traced: bool) -> f64 {
        let h = if traced { &self.traced } else { &self.untraced };
        h.median() / 1e3
    }

    /// Median exchange (round trip minus connect) of traced requests, µs.
    pub fn exchange_us(&self) -> f64 {
        self.exchange.median()
    }
}

/// Sends one request, recording `client.request` and `client.connect`
/// spans when recording is on.
///
/// # Errors
///
/// The client's transport error.
pub fn send(client: &mut Client, spans: &Spans, request: u64, raw: &[u8]) -> Result<Reply, String> {
    let start = Instant::now();
    let reply = client.request(raw)?;
    if spans.is_on() {
        spans.push("client.request", request, start, reply.total);
        if let Some(c) = reply.connect {
            spans.push("client.connect", request, start, c);
        }
    }
    Ok(reply)
}

/// The [`Sample`] of `reply`.
pub fn sample(reply: &Reply, traced: bool, at: Duration) -> Sample {
    Sample {
        total_us: us(reply.total),
        connect_us: reply.connect.map(us),
        traced,
        at,
    }
}

/// Runs [`CLIENTS`] closed-loop clients against `addr` for `duration`.
/// Request indices come from one shared counter, so the clients together
/// send the seeded stream in order. `step` sends request `i` and checks
/// the answer. With `alternate_tracing`, span recording flips on and off
/// every 200 ms, so traced and untraced requests share one rig.
pub fn closed_loop<S>(
    addr: SocketAddr,
    duration: Duration,
    spans: &Spans,
    alternate_tracing: bool,
    step: S,
) -> Load
where
    S: Fn(&mut Client, u64) -> Result<Reply, String> + Sync,
{
    let next = AtomicU64::new(0);
    let merged = Mutex::new(Load::new(Some(duration)));
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                let mut local = Load::new(Some(duration));
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let traced = spans.is_on();
                    if let Some(reply) = local.outcome.record(step(&mut client, i)) {
                        local.add(sample(&reply, traced, start.elapsed()));
                    }
                }
                merged.lock().expect("load merge poisoned").merge(local);
            });
        }
        if alternate_tracing {
            let mut on = false;
            while Instant::now() < deadline {
                spans.set_on(on);
                on = !on;
                std::thread::sleep(
                    TRACE_BLOCK.min(deadline.saturating_duration_since(Instant::now())),
                );
            }
            spans.set_on(false);
        }
    });
    let mut load = merged.into_inner().expect("load merge poisoned");
    load.elapsed = start.elapsed();
    load
}

/// Builds a rig `n` times, timing each build, and keeps the last one:
/// set-up time is reported as the median of several set-ups.
///
/// # Errors
///
/// The first build error.
pub fn timed_setups<T>(
    n: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let start = Instant::now();
        last = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("n > 0 builds"), times))
}

/// The ledger and tracing-overhead metrics shared by every workload.
pub struct Ledger {
    /// `gateway.front_door_us`.
    pub front_door_us: f64,
    /// `ledger.unaccounted_frac`.
    pub unaccounted_frac: f64,
    /// `ledger.trace_overhead_ms`.
    pub trace_overhead_ms: f64,
}

impl Ledger {
    /// The ledger of the traced requests of `load`, given the medians of
    /// the in-process stages (parse, handle, format) and of their sum
    /// per request. The front door is what the client's exchange leaves
    /// after parse + handle + format; the unaccounted share is how far
    /// the stage medians (connect included) miss the median round trip.
    pub fn of(load: &Load, stages_us: &[f64], server_us: f64) -> Ledger {
        let e2e_us = load.median_ms(true) * 1e3;
        let front_door_us = load.exchange_us() - server_us;
        let stage_sum = load.connect_us() + stages_us.iter().sum::<f64>() + front_door_us;
        Ledger {
            front_door_us,
            unaccounted_frac: crate::stats::ratio(e2e_us - stage_sum, e2e_us),
            trace_overhead_ms: load.median_ms(true) - load.median_ms(false),
        }
    }
}
