//! `invoke_zipf`: the SDK invocation path with the knowledge base idle.
//!
//! 80 % `/invoke-cached` over Zipf-distributed payloads whose working set
//! is 4× the 4,096-entry response cache (hits, misses and evictions all
//! run), 20 % `/invoke-class/nlu` over three lognormal services of which
//! one fails 10 % of calls (ranking and failover run), and one
//! `GET /metrics` per 2,000 requests, with the full telemetry stack on.

use crate::gen::{self, InvokeOp, InvokeStream, CACHED_SERVICE, CLASS, CLASS_MEMBERS};
use crate::load::{closed_loop, send, timed_setups, Ledger, Server};
use crate::stats::{mean, median, metric, peak_rss_mb, ratio, us, Outcome};
use crate::trace::Spans;
use crate::Args;
use cogsdk_core::gateway::{format_response, parse_request, HttpRequest};
use cogsdk_core::rank::RankOptions;
use cogsdk_core::{CacheConfig, FetchSource, GatewayLimits, HttpGateway, RichSdk};
use cogsdk_json::Json;
use cogsdk_obs::{SamplerConfig, SloConfig, SloEngine, SloSpec, Telemetry};
use cogsdk_sim::failure::FailurePlan;
use cogsdk_sim::latency::LatencyModel;
use cogsdk_sim::{Request, SimEnv, SimService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// In-process warm-up requests, part of set-up: enough Zipf draws to fill
/// the cache to capacity before timing starts.
const WARM_REQUESTS: u64 = 30_000;
/// Requests replayed in-process per twin rig in the traced run.
const REPLAY_REQUESTS: u64 = 20_000;
/// SDK worker pool size (the SDK's default).
const POOL_SIZE: usize = 8;

/// One SDK + gateway over the seeded sim services.
struct Rig {
    sdk: Arc<RichSdk>,
    gateway: Arc<HttpGateway>,
    services: Vec<Arc<SimService>>,
}

impl Rig {
    /// The deployed stack (`full_telemetry`) or the same rig with
    /// telemetry disabled.
    fn new(seed: u64, full_telemetry: bool) -> Rig {
        let env = SimEnv::with_seed(seed);
        let telemetry = if full_telemetry {
            let t = Telemetry::new();
            t.enable_tail_sampling(SamplerConfig {
                healthy_sample_rate: 0.05,
                seed,
                ..SamplerConfig::default()
            });
            t
        } else {
            Telemetry::disabled()
        };
        let sdk = Arc::new(RichSdk::with_cache_config(
            &env,
            CacheConfig::default(),
            POOL_SIZE,
            telemetry.clone(),
        ));
        let edge = SimService::builder(CACHED_SERVICE, "nlu-edge")
            .latency(LatencyModel::lognormal_ms(20.0, 0.4))
            .build(&env);
        // The flaky member times out after 100 ms, which keeps its mean
        // latency the lowest: ranking picks it first, and failover runs
        // on its failures.
        let a = SimService::builder(CLASS_MEMBERS[0], CLASS)
            .latency(LatencyModel::lognormal_ms(15.0, 0.5))
            .failures(FailurePlan::flaky(0.10))
            .timeout(Duration::from_millis(100))
            .build(&env);
        let b = SimService::builder(CLASS_MEMBERS[1], CLASS)
            .latency(LatencyModel::lognormal_ms(30.0, 0.5))
            .build(&env);
        let c = SimService::builder(CLASS_MEMBERS[2], CLASS)
            .latency(LatencyModel::lognormal_ms(45.0, 0.5))
            .build(&env);
        let services = vec![edge, a, b, c];
        for s in &services {
            sdk.register(s.clone());
        }
        let gateway = if full_telemetry {
            let slo = Arc::new(SloEngine::new(telemetry, SloConfig::default()));
            slo.add_objective(SloSpec::new("invoke-cached", 100.0, 0.99));
            slo.add_objective(SloSpec::new("invoke-class", 200.0, 0.99));
            HttpGateway::with_observability(sdk.clone(), GatewayLimits::default(), slo)
        } else {
            HttpGateway::with_limits(sdk.clone(), GatewayLimits::default())
        };
        Rig {
            sdk,
            gateway: Arc::new(gateway),
            services,
        }
    }

    fn upstream_calls(&self) -> u64 {
        self.services.iter().map(|s| s.stats().0).sum()
    }
}

/// The deployed rig behind a serving gateway.
struct Served {
    rig: Rig,
    server: Server,
}

impl Served {
    /// Builds, serves and warms the deployed rig.
    fn start(seed: u64, stream: &InvokeStream) -> Result<Served, String> {
        let rig = Rig::new(seed, true);
        warm(&rig, stream, WARM_REQUESTS);
        let server = Server::start(rig.gateway.clone())?;
        Ok(Served { rig, server })
    }
}

fn parsed(op: InvokeOp) -> HttpRequest {
    let raw = String::from_utf8(gen::invoke_http(op)).expect("generated requests are UTF-8");
    parse_request(&raw).expect("generated requests parse")
}

/// Drives `n` warm-up requests through the gateway in-process.
fn warm(rig: &Rig, stream: &InvokeStream, n: u64) {
    for i in 0..n {
        rig.gateway.handle(&parsed(stream.warm_op(i)));
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let stream = InvokeStream::new(args.seed);
    let (mut served, setup_times) = timed_setups(SETUPS, || Served::start(args.seed, &stream))?;

    let spans = Spans::new();
    let cache_before = served.rig.sdk.cache().stats();
    let calls_before = served.rig.upstream_calls();
    let cached = AtomicU64::new(0);
    let class_calls = AtomicU64::new(0);
    let tried = AtomicU64::new(0);
    let load = closed_loop(
        served.server.addr,
        args.duration(),
        &spans,
        args.trace,
        |client, i| {
            let op = stream.op(i);
            let reply = send(client, &spans, i, &gen::invoke_http(op))?;
            let services_tried = gen::check_invoke(op, reply.status, &reply.body)?;
            match op {
                InvokeOp::Cached(_) => {
                    cached.fetch_add(1, Ordering::Relaxed);
                }
                InvokeOp::Class(_) => {
                    class_calls.fetch_add(1, Ordering::Relaxed);
                    tried.fetch_add(services_tried.unwrap_or(0) as u64, Ordering::Relaxed);
                }
                InvokeOp::Metrics => {}
            }
            Ok(reply)
        },
    );
    let cache_after = served.rig.sdk.cache().stats();
    let calls_after = served.rig.upstream_calls();
    let events_dropped = served.rig.sdk.telemetry().tracer().dropped();
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

    // Traced run: replay the same stream in-process on twin rigs.
    let mut replay_out = Outcome::default();
    let on = Rig::new(args.seed, true);
    let off = Rig::new(args.seed, false);
    warm(&on, &stream, WARM_REQUESTS);
    warm(&off, &stream, WARM_REQUESTS);
    let (mut parse_us, mut handle_us, mut format_us, mut server_us, mut handle_off_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..REPLAY_REQUESTS {
        let op = stream.op(i);
        if op == InvokeOp::Metrics {
            continue;
        }
        let raw = String::from_utf8(gen::invoke_http(op)).expect("generated requests are UTF-8");
        let t0 = Instant::now();
        let req = parse_request(&raw);
        let t1 = Instant::now();
        let Ok(req) = req else {
            replay_out.record::<()>(Err(format!("replay parse failed for {op:?}")));
            continue;
        };
        let resp = on.gateway.handle(&req);
        let t2 = Instant::now();
        let text = format_response(&resp);
        let t3 = Instant::now();
        std::hint::black_box(text);
        replay_out.record(gen::check_invoke(op, resp.status, &resp.body));
        parse_us.push(us(t1 - t0));
        handle_us.push(us(t2 - t1));
        format_us.push(us(t3 - t2));
        server_us.push(us(t3 - t0));
        let t4 = Instant::now();
        let resp_off = off.gateway.handle(&req);
        handle_off_us.push(us(t4.elapsed()));
        replay_out.record(gen::check_invoke(op, resp_off.status, &resp_off.body));
    }
    let metrics_req = parsed(InvokeOp::Metrics);
    let scrape_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let resp = on.gateway.handle(&metrics_req);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            replay_out.record(gen::check_invoke(
                InvokeOp::Metrics,
                resp.status,
                &resp.body,
            ));
            ms
        })
        .collect();
    drop((on, off));

    // The SDK entry points the gateway calls, on a third twin.
    let sdk_rig = Rig::new(args.seed, true);
    warm(&sdk_rig, &stream, WARM_REQUESTS);
    let (mut hit_us, mut miss_us, mut class_us) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..REPLAY_REQUESTS {
        let (op, key) = match stream.op(i) {
            InvokeOp::Cached(k) => (true, k),
            InvokeOp::Class(k) => (false, k),
            InvokeOp::Metrics => continue,
        };
        let payload = Json::parse(&gen::invoke_payload(key)).expect("payload is valid JSON");
        let request = Request::new("analyze", payload);
        let ctx = sdk_rig.sdk.telemetry().tracer().new_trace();
        let t = Instant::now();
        if op {
            let result = sdk_rig
                .sdk
                .invoke_cached_outcome_in(CACHED_SERVICE, &request, &ctx);
            let elapsed = us(t.elapsed());
            match replay_out.record(result.map_err(|e| e.to_string())) {
                Some((_, FetchSource::Hit)) => hit_us.push(elapsed),
                Some(_) => miss_us.push(elapsed),
                None => {}
            }
        } else {
            let result =
                sdk_rig
                    .sdk
                    .invoke_class_in(CLASS, &request, &RankOptions::default(), &ctx);
            let elapsed = us(t.elapsed());
            if replay_out
                .record(result.map_err(|e| e.to_string()))
                .is_some()
            {
                class_us.push(elapsed);
            }
        }
    }
    drop(sdk_rig);

    let connect_us = load.connect_us();
    let stages = [median(&parse_us), median(&handle_us), median(&format_us)];
    let ledger = Ledger::of(&load, &stages, median(&server_us));
    let cached = cached.load(Ordering::Relaxed) as f64;
    let class_calls = class_calls.load(Ordering::Relaxed) as f64;
    let lookups =
        (cache_after.hits - cache_before.hits) + (cache_after.misses - cache_before.misses);
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
            "cache.hit_ratio",
            "ratio",
            ratio(
                (cache_after.hits - cache_before.hits) as f64,
                lookups as f64,
            ),
        ),
        metric(
            "cache.evictions_per_req",
            "count",
            ratio(
                (cache_after.evictions - cache_before.evictions) as f64,
                cached,
            ),
        ),
        metric("sdk.hit_us", "us", median(&hit_us)),
        metric("sdk.miss_us", "us", median(&miss_us)),
        metric("sdk.class_us", "us", median(&class_us)),
        metric(
            "sim.upstream_calls_per_req",
            "count",
            ratio((calls_after - calls_before) as f64, cached + class_calls),
        ),
        metric(
            "rank.services_tried_per_req",
            "count",
            ratio(tried.load(Ordering::Relaxed) as f64, class_calls),
        ),
        metric(
            "obs.overhead_us",
            "us",
            mean(&handle_us) - mean(&handle_off_us),
        ),
        metric("obs.scrape_ms", "ms", median(&scrape_ms)),
        metric("obs.events_dropped", "count", events_dropped as f64),
    ]);
    out.absorb(load.outcome);
    out.absorb(replay_out);
    crate::write_spans(args, &spans);
    Ok(out)
}
