//! The rich SDK's HTTP interface.
//!
//! §2: "In order to allow programs written in other languages to access
//! the rich SDK, the rich SDK can expose an HTTP interface allowing
//! applications written in other languages to use it."
//!
//! [`HttpGateway`] implements a small HTTP/1.1 surface over a
//! [`RichSdk`]:
//!
//! | Route | Body | Effect |
//! |---|---|---|
//! | `POST /invoke/{service}` | request JSON | [`RichSdk::invoke`] |
//! | `POST /invoke-cached/{service}` | request JSON | [`RichSdk::invoke_cached`] |
//! | `POST /invoke-class/{class}` | request JSON | ranked selection + failover |
//! | `GET /services` | — | registered service names |
//! | `GET /monitor/{service}` | — | availability and latency summary |
//! | `GET /metrics` | — | Prometheus text exposition of the SDK's metrics |
//! | `GET /trace` | — | JSON-Lines dump of the trace event ring buffer |
//! | `GET /trace?trace_id=N` | — | one trace (tail-sampler retained copy preferred) |
//! | `GET /slo` | — | burn-rate status of every configured objective |
//! | `GET /profile` | — | critical-path profile of retained traces |
//! | `POST /snapshot` | — | checkpoint the attached durable store (admin) |
//! | `POST /query` | `{"sparql": …}` | conjunctive query via the host's KB planner |
//!
//! Invocation requests may carry an `X-Tenant` header; the gateway interns
//! the tenant into the trace context so every downstream RED metric
//! (attempts, cache probes, pool jobs) gains a per-tenant series, and
//! records per-route request/error/duration metrics with exemplar trace
//! ids. When an [`SloEngine`] is attached ([`HttpGateway::with_observability`])
//! each finished invocation is classified against its objectives, and when
//! a tail sampler is enabled the gateway holds the trace open until the
//! verdict (error/deadline/breaker/SLO-violation) is known.
//!
//! The request parser/serializer is self-contained ([`parse_request`],
//! [`format_response`]) so the protocol layer is unit-testable without
//! sockets. [`HttpGateway::serve`] binds a real `std::net::TcpListener`
//! for cross-language clients and serves each connection on a handler
//! thread of its own, up to a fixed cap, so a bulk ingest or a stalled
//! client delays only its own connection and the bulkheads see real
//! concurrency. Connections are persistent (HTTP/1.1 keep-alive) until
//! the client asks to close. Heads are capped at 16 KiB (431), bodies at
//! 16 MiB (413), a stalled request times out (408), and a handler that
//! panics answers 500 on its own connection only.

use crate::rank::RankOptions;
use crate::sdk::RichSdk;
use crate::SdkError;
use cogsdk_json::{json, Json};
use cogsdk_obs::{
    profile_traces, prometheus_text, trace_jsonl_with_summary, EventKind, SloEngine, SloStatus,
    SpanCtx, TenantId, TraceId, TraceVerdict,
};
use cogsdk_sim::service::Request;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request body [`HttpGateway::serve`] reads. A bigger
/// `Content-Length` gets 413 before any buffer is allocated, so a client
/// cannot make the server allocate whatever size it names.
const MAX_BODY_BYTES: usize = 16 << 20;

/// Largest request head (request line and headers) [`HttpGateway::serve`]
/// reads. A longer head gets 431 and the connection is closed, so a client
/// streaming a header without a newline cannot grow the buffer unbounded.
const MAX_HEAD_BYTES: usize = 16 << 10;

/// Most connections [`HttpGateway::serve`] serves at a time, one handler
/// thread each. A connection past the cap gets 503 with `Retry-After`.
const MAX_CONNECTIONS: usize = 64;

/// Read and write timeout on every served connection. A request stalled
/// part-way this long gets 408; a connection idle this long between
/// requests is closed without a reply, so idle clients cannot hold the
/// [`MAX_CONNECTIONS`] slots for ever.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A minimal parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method (`GET`, `POST`, …).
    pub method: String,
    /// The path, with any query string stripped into `query`.
    pub path: String,
    /// Decoded query-string pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Value of the `X-Tenant` header, if the client sent one.
    pub tenant: Option<String>,
    /// The raw body.
    pub body: String,
}

impl HttpRequest {
    /// First value for a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A minimal HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Value for a `Retry-After` header (seconds), set on 503s produced
    /// by load shedding and open circuit breakers.
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    fn ok(body: Json) -> HttpResponse {
        HttpResponse {
            status: 200,
            body: body.to_json(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    fn text(content_type: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            status: 200,
            body,
            content_type,
            retry_after: None,
        }
    }

    fn error(status: u16, message: impl std::fmt::Display) -> HttpResponse {
        HttpResponse {
            status,
            body: json!({"error": (message.to_string())}).to_json(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A structured error body carrying the machine-readable kind and
    /// whether the client can reasonably retry — so cross-language
    /// callers branch on fields instead of parsing prose.
    fn structured_error(
        status: u16,
        message: impl std::fmt::Display,
        kind: &str,
        retryable: bool,
    ) -> HttpResponse {
        HttpResponse {
            status,
            body: json!({
                "error": (message.to_string()),
                "kind": kind,
                "retryable": (retryable),
            })
            .to_json(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    fn with_retry_after(mut self, secs: u64) -> HttpResponse {
        self.retry_after = Some(secs);
        self
    }
}

/// Parses the head + body of an HTTP/1.1 request from text.
///
/// # Errors
///
/// Returns a description of the first malformation (missing request
/// line, bad content length, …).
pub fn parse_request(text: &str) -> Result<HttpRequest, String> {
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let version = parts.next().ok_or("missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version: {version}"));
    }
    if !path.starts_with('/') {
        return Err(format!("invalid path: {path}"));
    }
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            q.split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect(),
        ),
        None => (path, Vec::new()),
    };
    // Scan headers to the blank line (capturing `X-Tenant`); body is the
    // rest.
    let mut tenant = None;
    let mut body = String::new();
    let mut in_body = false;
    for line in lines {
        if in_body {
            if !body.is_empty() {
                body.push_str("\r\n");
            }
            body.push_str(line);
        } else if line.is_empty() {
            in_body = true;
        } else if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("x-tenant") {
                let value = value.trim();
                if !value.is_empty() {
                    tenant = Some(value.to_string());
                }
            }
        }
    }
    Ok(HttpRequest {
        method,
        path,
        query,
        tenant,
        body,
    })
}

/// Serializes a response as HTTP/1.1 text that ends its connection
/// (`Connection: close`).
pub fn format_response(resp: &HttpResponse) -> String {
    render(resp, true)
}

/// Serializes a response; `close` adds `Connection: close`, and without it
/// the connection stays open for the next request.
fn render(resp: &HttpResponse, close: bool) -> String {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let retry_after = match resp.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{}\r\n{}",
        resp.status,
        reason,
        resp.content_type,
        resp.body.len(),
        retry_after,
        connection,
        resp.body
    )
}

/// Concurrency limits for the gateway's invocation routes (the bulkhead).
///
/// Each invocation route (`invoke`, `invoke-cached`, `invoke-class`) gets
/// its own compartment: at most `max_concurrent` requests run at once,
/// at most `max_queue` wait for a slot, and no waiter holds a connection
/// longer than `max_queue_wait` before being shed with a 503 carrying
/// `Retry-After: {retry_after_secs}`. Read-only routes (`/metrics`,
/// `/services`, …) are never gated so operators can always observe an
/// overloaded gateway.
#[derive(Debug, Clone)]
pub struct GatewayLimits {
    /// Requests allowed in flight per route.
    pub max_concurrent: usize,
    /// Requests allowed to wait for a slot per route.
    pub max_queue: usize,
    /// Longest a queued request waits before being shed.
    pub max_queue_wait: Duration,
    /// `Retry-After` hint (seconds) on shed and breaker-rejected responses.
    pub retry_after_secs: u64,
}

impl Default for GatewayLimits {
    fn default() -> GatewayLimits {
        GatewayLimits {
            max_concurrent: 64,
            max_queue: 128,
            max_queue_wait: Duration::from_millis(50),
            retry_after_secs: 1,
        }
    }
}

#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// Per-route concurrency gate with a bounded wait queue.
///
/// Uses real wall-clock waiting (not the virtual sim clock): the gateway
/// serves actual threads, and the bulkhead exists to protect them.
struct Bulkhead {
    limits: GatewayLimits,
    routes: Mutex<HashMap<String, GateState>>,
    freed: Condvar,
}

enum Admit {
    Entered,
    Shed,
}

impl Bulkhead {
    fn new(limits: GatewayLimits) -> Bulkhead {
        Bulkhead {
            limits,
            routes: Mutex::new(HashMap::new()),
            freed: Condvar::new(),
        }
    }

    fn enter(&self, route: &str) -> Admit {
        let mut routes = self.routes.lock();
        {
            let state = routes.entry(route.to_string()).or_default();
            if state.active < self.limits.max_concurrent {
                state.active += 1;
                return Admit::Entered;
            }
            if state.queued >= self.limits.max_queue {
                return Admit::Shed;
            }
            state.queued += 1;
        }
        let deadline = std::time::Instant::now() + self.limits.max_queue_wait;
        loop {
            {
                let state = routes.get_mut(route).expect("queued on this route");
                if state.active < self.limits.max_concurrent {
                    state.queued -= 1;
                    state.active += 1;
                    return Admit::Entered;
                }
            }
            if self.freed.wait_until(&mut routes, deadline).timed_out() {
                let state = routes.get_mut(route).expect("queued on this route");
                if state.active < self.limits.max_concurrent {
                    state.queued -= 1;
                    state.active += 1;
                    return Admit::Entered;
                }
                state.queued -= 1;
                return Admit::Shed;
            }
        }
    }

    fn exit(&self, route: &str) {
        let mut routes = self.routes.lock();
        if let Some(state) = routes.get_mut(route) {
            state.active = state.active.saturating_sub(1);
        }
        self.freed.notify_all();
    }
}

/// A bulkhead slot held while its request runs. Dropping it frees the
/// slot, so a handler that panics does not leak it.
struct Slot<'a> {
    gate: &'a Bulkhead,
    route: &'a str,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.gate.exit(self.route);
    }
}

/// First path segment — bounds metric label cardinality.
fn route_label(path: &str) -> &str {
    path.split('/').find(|s| !s.is_empty()).unwrap_or("/")
}

/// Admin hook behind `POST /snapshot`: checkpoints whatever durable
/// store the host wired in (the gateway itself has no KB dependency)
/// and returns a JSON status body.
pub type SnapshotHandler = Box<dyn Fn() -> Result<Json, String> + Send + Sync>;

/// Query hook behind `POST /query`: the host wires in a closure running a
/// SPARQL-subset conjunctive query against its knowledge base (the
/// gateway itself has no KB dependency). The handler receives the full
/// request so it can honor the `X-Tenant` header and body flags such as
/// `explain`; it returns the JSON body to serve, or an error message
/// answered as a 400.
pub type QueryHandler = Box<dyn Fn(&HttpRequest) -> Result<Json, String> + Send + Sync>;

/// Bulk-ingest hook behind `POST /ingest/bulk`: the host wires in a
/// closure driving its streaming bulk loader (e.g. built with
/// `cogsdk_kb::gateway_ingest_handler`). The handler receives the full
/// request so it can honor tuning fields in the body (batch size, worker
/// count, queue bounds); it returns the JSON ingest report, or an error
/// message answered as a 400.
pub type IngestHandler = Box<dyn Fn(&HttpRequest) -> Result<Json, String> + Send + Sync>;

/// The gateway: routes HTTP requests onto a shared [`RichSdk`].
pub struct HttpGateway {
    sdk: Arc<RichSdk>,
    gate: Bulkhead,
    slo: Option<Arc<SloEngine>>,
    snapshot: Option<SnapshotHandler>,
    query: Option<QueryHandler>,
    ingest: Option<IngestHandler>,
}

impl std::fmt::Debug for HttpGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpGateway").finish_non_exhaustive()
    }
}

impl HttpGateway {
    /// Creates a gateway over an SDK handle with default limits.
    pub fn new(sdk: Arc<RichSdk>) -> HttpGateway {
        HttpGateway::with_limits(sdk, GatewayLimits::default())
    }

    /// Creates a gateway with explicit bulkhead limits.
    pub fn with_limits(sdk: Arc<RichSdk>, limits: GatewayLimits) -> HttpGateway {
        HttpGateway {
            sdk,
            gate: Bulkhead::new(limits),
            slo: None,
            snapshot: None,
            query: None,
            ingest: None,
        }
    }

    /// As [`HttpGateway::with_limits`], additionally attaching an SLO
    /// engine: every finished invocation is classified against its
    /// objectives, burn rates are re-evaluated, and `/slo` serves the
    /// engine's status.
    pub fn with_observability(
        sdk: Arc<RichSdk>,
        limits: GatewayLimits,
        slo: Arc<SloEngine>,
    ) -> HttpGateway {
        HttpGateway {
            sdk,
            gate: Bulkhead::new(limits),
            slo: Some(slo),
            snapshot: None,
            query: None,
            ingest: None,
        }
    }

    /// The attached SLO engine, if any.
    pub fn slo_engine(&self) -> Option<&Arc<SloEngine>> {
        self.slo.as_ref()
    }

    /// Attaches the `POST /snapshot` admin handler. The host passes a
    /// closure checkpointing its durable store (e.g. a
    /// `PersonalKnowledgeBase::snapshot` call); the route answers 404
    /// until one is attached.
    pub fn set_snapshot_handler(&mut self, handler: SnapshotHandler) {
        self.snapshot = Some(handler);
    }

    /// Attaches the `POST /query` handler. The host passes a closure
    /// evaluating conjunctive queries against its knowledge base (e.g.
    /// built with `cogsdk_kb::gateway_query_handler`); the route answers
    /// 404 until one is attached.
    pub fn set_query_handler(&mut self, handler: QueryHandler) {
        self.query = Some(handler);
    }

    /// Attaches the `POST /ingest/bulk` handler. The host passes a
    /// closure driving its streaming bulk loader (e.g. built with
    /// `cogsdk_kb::gateway_ingest_handler`); the route answers 404 until
    /// one is attached.
    pub fn set_ingest_handler(&mut self, handler: IngestHandler) {
        self.ingest = Some(handler);
    }

    /// Routes one parsed request through the bulkhead. No I/O.
    pub fn handle(&self, request: &HttpRequest) -> HttpResponse {
        let route = route_label(&request.path);
        let gated = request.method == "POST"
            && matches!(route, "invoke" | "invoke-cached" | "invoke-class");
        let response = if gated {
            match self.gate.enter(route) {
                Admit::Entered => {
                    let _slot = Slot {
                        gate: &self.gate,
                        route,
                    };
                    self.route(request)
                }
                Admit::Shed => self.shed_response(route),
            }
        } else {
            self.route(request)
        };
        let telemetry = self.sdk.telemetry();
        let metrics = telemetry.metrics();
        if metrics.is_enabled() {
            let status = response.status.to_string();
            let tenant = request
                .tenant
                .as_deref()
                .map(|t| telemetry.tracer().intern_tenant(t))
                .and_then(|id| telemetry.tracer().tenant_name(id));
            match tenant.as_deref() {
                Some(t) => metrics.inc_counter(
                    "gateway_requests_total",
                    &[("route", route), ("status", &status), ("tenant", t)],
                ),
                None => metrics.inc_counter(
                    "gateway_requests_total",
                    &[("route", route), ("status", &status)],
                ),
            }
        }
        response
    }

    /// Runs one invocation-route handler inside a fresh (per-tenant)
    /// trace: holds the trace in the tail sampler until the outcome is
    /// known, records per-route RED metrics with an exemplar trace id,
    /// classifies the request against any attached SLO objectives, and
    /// finalizes the sampler with the resulting verdict.
    fn observe_invoke(
        &self,
        route: &str,
        request: &HttpRequest,
        f: impl FnOnce(&SpanCtx) -> HttpResponse,
    ) -> HttpResponse {
        let telemetry = self.sdk.telemetry();
        let tracer = telemetry.tracer();
        if !telemetry.is_enabled() {
            let ctx = tracer.new_trace();
            return f(&ctx);
        }
        let tenant_id = match request.tenant.as_deref() {
            Some(t) => tracer.intern_tenant(t),
            None => TenantId::NONE,
        };
        let ctx = tracer.new_trace_for(tenant_id);
        let sampler = telemetry.sampler();
        if let Some(sampler) = &sampler {
            sampler.hold(ctx.trace);
        }
        let started = tracer.now_ms();
        let response = f(&ctx);
        let latency_ms = (tracer.now_ms() - started).max(0.0);
        // 4xx responses are the client's fault; only 5xx burns the budget.
        let ok = response.status < 500;
        let metrics = telemetry.metrics();
        let status = response.status.to_string();
        let tenant = tracer.tenant_name(tenant_id);
        match tenant.as_deref() {
            Some(t) => {
                metrics.inc_counter(
                    "gateway_route_requests_total",
                    &[("route", route), ("status", &status), ("tenant", t)],
                );
                if !ok {
                    metrics.inc_counter(
                        "gateway_route_errors_total",
                        &[("route", route), ("tenant", t)],
                    );
                }
                metrics.observe_with_exemplar(
                    "gateway_route_latency_ms",
                    &[("route", route), ("tenant", t)],
                    latency_ms,
                    ctx.trace.0,
                );
            }
            None => {
                metrics.inc_counter(
                    "gateway_route_requests_total",
                    &[("route", route), ("status", &status)],
                );
                if !ok {
                    metrics.inc_counter("gateway_route_errors_total", &[("route", route)]);
                }
                metrics.observe_with_exemplar(
                    "gateway_route_latency_ms",
                    &[("route", route)],
                    latency_ms,
                    ctx.trace.0,
                );
            }
        }
        let mut violated = false;
        if let Some(engine) = &self.slo {
            let record = engine.record(route, tenant.as_deref(), ok, latency_ms, &ctx);
            violated = record.violated;
        }
        if let Some(sampler) = &sampler {
            let verdict = if response.status == 504 {
                Some(TraceVerdict::DeadlineExceeded)
            } else if response.status == 503 {
                Some(TraceVerdict::BreakerRejected)
            } else if response.status >= 500 {
                Some(TraceVerdict::Error)
            } else if violated {
                Some(TraceVerdict::SloViolation)
            } else {
                None
            };
            sampler.finalize(ctx.trace, verdict);
        }
        response
    }

    fn shed_response(&self, route: &str) -> HttpResponse {
        let telemetry = self.sdk.telemetry();
        if telemetry.is_enabled() {
            let ctx = telemetry.tracer().new_trace();
            telemetry.tracer().emit(&ctx, || EventKind::GatewayShed {
                route: route.to_string(),
            });
            telemetry
                .metrics()
                .inc_counter("gateway_shed_total", &[("route", route)]);
        }
        HttpResponse::structured_error(
            503,
            format!("gateway overloaded on route {route}; request shed"),
            "shed",
            true,
        )
        .with_retry_after(self.gate.limits.retry_after_secs)
    }

    fn sdk_error_response(&self, error: &SdkError) -> HttpResponse {
        let status = match error {
            SdkError::UnknownService(_) | SdkError::EmptyClass(_) => 404,
            SdkError::Rejected(_) | SdkError::InvalidRating(_) => 400,
            SdkError::AllFailed(_) => 502,
            SdkError::DeadlineExceeded(_) => 504,
            SdkError::CircuitOpen(_) => 503,
        };
        let retryable = matches!(
            error,
            SdkError::AllFailed(_) | SdkError::DeadlineExceeded(_) | SdkError::CircuitOpen(_)
        );
        let response = HttpResponse::structured_error(status, error, error.kind(), retryable);
        if matches!(error, SdkError::CircuitOpen(_)) {
            let metrics = self.sdk.telemetry().metrics();
            if metrics.is_enabled() {
                metrics.inc_counter("gateway_breaker_rejections_total", &[]);
            }
            return response.with_retry_after(self.gate.limits.retry_after_secs);
        }
        response
    }

    fn route(&self, request: &HttpRequest) -> HttpResponse {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["services"]) => {
                let names: Vec<Json> = self
                    .sdk
                    .registry()
                    .names()
                    .into_iter()
                    .map(Json::from)
                    .collect();
                HttpResponse::ok(json!({"services": (Json::Array(names))}))
            }
            ("GET", ["metrics"]) => {
                // Publish ring/sampler overflow counters so drops are
                // visible in the same scrape that would miss their data.
                self.sdk.telemetry().sync_health_metrics();
                HttpResponse::text(
                    "text/plain; version=0.0.4",
                    prometheus_text(self.sdk.telemetry().metrics()),
                )
            }
            ("GET", ["trace"]) => self.trace_response(request),
            ("GET", ["slo"]) => self.slo_response(),
            ("POST", ["snapshot"]) => self.snapshot_response(),
            ("POST", ["query"]) => self.query_response(request),
            ("POST", ["ingest", "bulk"]) => self.ingest_response(request),
            ("GET", ["profile"]) => self.profile_response(request),
            ("GET", ["monitor", service]) => match self.sdk.monitor().history(service) {
                Some(history) => {
                    let mut body = Json::object();
                    body.insert("service", *service);
                    body.insert("observations", history.observations().len());
                    body.insert("availability", history.availability());
                    body.insert("mean_latency_ms", history.mean_latency_ms());
                    body.insert("median_latency_ms", history.median_latency_ms());
                    body.insert("mean_quality", history.mean_quality());
                    HttpResponse::ok(body)
                }
                None => HttpResponse::error(404, format!("no history for {service}")),
            },
            ("POST", ["invoke", service]) => match parse_body(&request.body) {
                Ok(req) => self.observe_invoke("invoke", request, |ctx| {
                    match self.sdk.invoke_in(service, &req, ctx) {
                        Ok(resp) => HttpResponse::ok(json!({"payload": (resp.payload)})),
                        Err(e) => self.sdk_error_response(&e),
                    }
                }),
                Err(e) => HttpResponse::error(400, e),
            },
            ("POST", ["invoke-cached", service]) => match parse_body(&request.body) {
                Ok(req) => self.observe_invoke("invoke-cached", request, |ctx| {
                    match self.sdk.invoke_cached_outcome_in(service, &req, ctx) {
                        Ok((resp, source)) => HttpResponse::ok(json!({
                            "payload": (resp.payload),
                            "cache_hit": (source.served_locally()),
                        })),
                        Err(e) => self.sdk_error_response(&e),
                    }
                }),
                Err(e) => HttpResponse::error(400, e),
            },
            ("POST", ["invoke-class", class]) => match parse_body(&request.body) {
                Ok(req) => self.observe_invoke("invoke-class", request, |ctx| {
                    match self
                        .sdk
                        .invoke_class_in(class, &req, &RankOptions::default(), ctx)
                    {
                        Ok(ok) => HttpResponse::ok(json!({
                            "payload": (ok.response.payload),
                            "service": (ok.service.as_str()),
                            "services_tried": (ok.services_tried),
                        })),
                        Err(e) => self.sdk_error_response(&e),
                    }
                }),
                Err(e) => HttpResponse::error(400, e),
            },
            ("POST", _) | ("GET", _) => HttpResponse::error(404, "no such route"),
            _ => HttpResponse::error(405, "method not allowed"),
        }
    }

    /// `/trace` dump: the full ring buffer, or — with `?trace_id=N` —
    /// just that trace, preferring the tail sampler's retained copy (it
    /// survives ring-buffer wraparound). Every dump ends with a summary
    /// line reporting how many events the ring dropped.
    fn trace_response(&self, request: &HttpRequest) -> HttpResponse {
        let tracer = self.sdk.telemetry().tracer();
        let events = match request.query_param("trace_id") {
            Some(raw) => {
                let id = match raw.trim_start_matches('t').parse::<u64>() {
                    Ok(id) => TraceId(id),
                    Err(_) => return HttpResponse::error(400, format!("bad trace_id: {raw}")),
                };
                let retained = self
                    .sdk
                    .telemetry()
                    .sampler()
                    .and_then(|s| s.retained_trace(id));
                match retained {
                    Some(trace) => trace.events,
                    None => tracer
                        .events()
                        .into_iter()
                        .filter(|e| e.trace == id)
                        .collect(),
                }
            }
            None => tracer.events(),
        };
        HttpResponse::text(
            "application/x-ndjson",
            trace_jsonl_with_summary(&events, tracer.dropped()),
        )
    }

    /// `POST /snapshot`: checkpoints the host's durable store through
    /// the attached handler.
    fn snapshot_response(&self) -> HttpResponse {
        let handler = match &self.snapshot {
            Some(handler) => handler,
            None => return HttpResponse::error(404, "no snapshot handler attached"),
        };
        match handler() {
            Ok(body) => HttpResponse::ok(body),
            Err(e) => HttpResponse::error(500, format!("snapshot failed: {e}")),
        }
    }

    /// `POST /query`: evaluates a conjunctive query through the attached
    /// handler. Handler errors (parse failures, bad bodies) answer 400.
    fn query_response(&self, request: &HttpRequest) -> HttpResponse {
        let handler = match &self.query {
            Some(handler) => handler,
            None => return HttpResponse::error(404, "no query handler attached"),
        };
        match handler(request) {
            Ok(body) => HttpResponse::ok(body),
            Err(e) => HttpResponse::error(400, e),
        }
    }

    /// `POST /ingest/bulk`: streams the request's documents through the
    /// attached bulk loader. Handler errors (bad bodies, failed commits)
    /// answer 400.
    fn ingest_response(&self, request: &HttpRequest) -> HttpResponse {
        let handler = match &self.ingest {
            Some(handler) => handler,
            None => return HttpResponse::error(404, "no ingest handler attached"),
        };
        match handler(request) {
            Ok(body) => HttpResponse::ok(body),
            Err(e) => HttpResponse::error(400, e),
        }
    }

    /// `/slo` status: one entry per objective with window counts, burn
    /// rates, and alert state.
    fn slo_response(&self) -> HttpResponse {
        let engine = match &self.slo {
            Some(engine) => engine,
            None => return HttpResponse::error(404, "no SLO engine attached"),
        };
        let statuses = engine.snapshot();
        let mut list = Json::Array(Vec::new());
        for status in &statuses {
            list.push(slo_status_json(status));
        }
        let mut body = Json::object();
        body.insert("burn_threshold", engine.config().burn_threshold);
        body.insert("objectives", list);
        HttpResponse::ok(body)
    }

    /// `/profile`: critical-path profile over the tail sampler's retained
    /// traces. `?format=flamegraph` returns folded-stacks text;
    /// `?top=K` limits the per-operation table.
    fn profile_response(&self, request: &HttpRequest) -> HttpResponse {
        let sampler = match self.sdk.telemetry().sampler() {
            Some(sampler) => sampler,
            None => return HttpResponse::error(404, "tail sampling not enabled"),
        };
        let profile = profile_traces(&sampler.retained_span_trees());
        if request.query_param("format") == Some("flamegraph") {
            return HttpResponse::text("text/plain; charset=utf-8", profile.flamegraph());
        }
        let mut body = profile.to_json();
        if let Some(top) = request.query_param("top").and_then(|t| t.parse().ok()) {
            let mut ops = Json::Array(Vec::new());
            for op in profile.top_k(top) {
                let mut o = Json::object();
                o.insert("op", op.op.as_str());
                o.insert("spans", op.spans as i64);
                o.insert("total_ms", op.total_ms);
                o.insert("self_ms", op.self_ms);
                o.insert("critical_ms", op.critical_ms);
                ops.push(o);
            }
            body.insert("ops", ops);
        }
        HttpResponse::ok(body)
    }

    /// Handles raw HTTP text end to end (parse → route → serialize).
    pub fn handle_text(&self, text: &str) -> String {
        let response = match parse_request(text) {
            Ok(req) => self.handle(&req),
            Err(e) => HttpResponse::error(400, e),
        };
        format_response(&response)
    }

    /// Binds a TCP listener and serves until `shutdown` is set, returning
    /// the bound address and the accept thread's handle at once.
    ///
    /// The accept thread hands each connection to a handler thread of its
    /// own, so a slow or idle client holds only its own connection. At
    /// most [`MAX_CONNECTIONS`] are served at a time; one past the cap is
    /// answered 503 with `Retry-After` and closed. A handler serves
    /// requests one after another on its persistent HTTP/1.1 connection
    /// and closes it after a `Connection: close` or HTTP/1.0 request,
    /// after any error response, or once the client is idle for
    /// [`IO_TIMEOUT`]. Once `shutdown` is set the accept thread shuts
    /// every live connection down and joins every handler before it
    /// ends, so after the handle is joined no thread holds the gateway.
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn serve(
        self: Arc<Self>,
        addr: &str,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let gateway = self;
        let handle = std::thread::spawn(move || {
            let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
            while !shutdown.load(Ordering::SeqCst) {
                live.retain(|(_, handler)| !handler.is_finished());
                let Ok((stream, _)) = listener.accept() else {
                    // Short poll keeps shutdown responsive while adding
                    // well under a millisecond to connection latency.
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                };
                let peer = match stream.try_clone() {
                    Ok(peer) if live.len() < MAX_CONNECTIONS => peer,
                    _ => {
                        gateway.refuse(&stream);
                        continue;
                    }
                };
                let handler = gateway.clone();
                match std::thread::Builder::new()
                    .name("gateway-conn".into())
                    .spawn(move || handler.serve_connection(stream))
                {
                    Ok(handler) => live.push((peer, handler)),
                    Err(_) => gateway.refuse(&peer),
                }
            }
            for (peer, _) in &live {
                let _ = peer.shutdown(Shutdown::Both);
            }
            for (_, handler) in live {
                let _ = handler.join();
            }
        });
        Ok((local, handle))
    }

    /// Answers a connection the gateway cannot take with 503 and closes
    /// it. The write never blocks the accept thread.
    fn refuse(&self, stream: &TcpStream) {
        let response = HttpResponse::error(503, "too many connections")
            .with_retry_after(self.gate.limits.retry_after_secs);
        let _ = stream.set_nonblocking(true);
        let _ = (&*stream).write_all(render(&response, true).as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Serves requests on one connection until it closes; see
    /// [`HttpGateway::serve`]. A handler that panics is answered 500 and
    /// ends only this connection.
    fn serve_connection(&self, stream: TcpStream) {
        let configured = stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_nodelay(true))
            .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)));
        let mut reader = BufReader::new(&stream);
        while configured.is_ok() {
            let (response, close) = match read_request(&mut reader) {
                Incoming::Request(request, close) => {
                    let response = catch_unwind(AssertUnwindSafe(|| self.handle(&request)))
                        .unwrap_or_else(|_| {
                            HttpResponse::error(500, "the request handler panicked")
                        });
                    let close = close || response.status >= 400;
                    (response, close)
                }
                Incoming::Reject(response) => (response, true),
                Incoming::Gone => break,
            };
            if (&stream)
                .write_all(render(&response, close).as_bytes())
                .is_err()
            {
                break;
            }
            if close {
                // Half-close, then read what the client already sent: closing
                // with unread bytes would reset the connection and could
                // discard the reply before the client reads it.
                let _ = stream.shutdown(Shutdown::Write);
                let _ = std::io::copy(
                    &mut reader.by_ref().take(MAX_HEAD_BYTES as u64),
                    &mut std::io::sink(),
                );
                break;
            }
        }
        // The accept thread holds a clone of this socket, so dropping ours
        // alone would not close it.
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// What reading one request from a connection produced.
enum Incoming {
    /// A parsed request, and whether the client asked to close the
    /// connection after it.
    Request(HttpRequest, bool),
    /// The request cannot be served: answer this error, then close.
    Reject(HttpResponse),
    /// The client closed the connection or went idle between requests,
    /// or the socket failed: close without a reply.
    Gone,
}

/// Reads and parses one request: the head up to its blank line (at most
/// [`MAX_HEAD_BYTES`]), then a body of `Content-Length` bytes (at most
/// [`MAX_BODY_BYTES`]).
fn read_request(reader: &mut impl BufRead) -> Incoming {
    let mut head = Vec::new();
    loop {
        let line_start = head.len();
        let limit = (MAX_HEAD_BYTES + 1 - line_start) as u64;
        match reader.by_ref().take(limit).read_until(b'\n', &mut head) {
            Ok(0) => return Incoming::Gone,
            Ok(_) if head.len() > MAX_HEAD_BYTES => {
                return Incoming::Reject(HttpResponse::error(
                    431,
                    format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit"),
                ))
            }
            Ok(_) if matches!(&head[line_start..], b"\r\n" | b"\n") => break,
            Ok(_) => {}
            // A timeout before the first byte is an idle kept-alive
            // connection; after it, a stalled request.
            Err(e) if timed_out(&e) && !head.is_empty() => return request_timeout(),
            Err(_) => return Incoming::Gone,
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let content_length = match header_values(&head, "content-length").next() {
        None => 0,
        Some(value) => match value.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Incoming::Reject(HttpResponse::error(
                    400,
                    format!("invalid Content-Length: {value}"),
                ))
            }
        },
    };
    if content_length > MAX_BODY_BYTES {
        return Incoming::Reject(HttpResponse::error(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        ));
    }
    let mut body = vec![0u8; content_length];
    match reader.read_exact(&mut body) {
        Ok(()) => {}
        Err(e) if timed_out(&e) => return request_timeout(),
        Err(_) => return Incoming::Gone,
    }
    let close = head
        .lines()
        .next()
        .is_some_and(|line| line.split_whitespace().nth(2) == Some("HTTP/1.0"))
        || header_values(&head, "connection").any(|value| {
            value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("close"))
        });
    match parse_request(&format!("{head}{}", String::from_utf8_lossy(&body))) {
        Ok(request) => Incoming::Request(request, close),
        Err(e) => Incoming::Reject(HttpResponse::error(400, e)),
    }
}

/// The 408 answer to a request that stalled part-way.
fn request_timeout() -> Incoming {
    Incoming::Reject(HttpResponse::error(
        408,
        format!("request not received within {IO_TIMEOUT:?}"),
    ))
}

/// Whether a socket read failed because its timeout expired (`WouldBlock`
/// on Unix, `TimedOut` on Windows).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Values of the header lines named `name` (any case), trimmed.
fn header_values<'a>(head: &'a str, name: &'a str) -> impl Iterator<Item = &'a str> {
    head.lines().skip(1).filter_map(move |line| {
        let (n, value) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn slo_status_json(status: &SloStatus) -> Json {
    let mut o = Json::object();
    o.insert("route", status.spec.route.as_str());
    if let Some(tenant) = &status.spec.tenant {
        o.insert("tenant", tenant.as_str());
    }
    o.insert("latency_ms", status.spec.latency_ms);
    o.insert("objective", status.spec.objective);
    o.insert("fast_good", status.fast_good as i64);
    o.insert("fast_bad", status.fast_bad as i64);
    o.insert("slow_good", status.slow_good as i64);
    o.insert("slow_bad", status.slow_bad as i64);
    o.insert("fast_burn", status.fast_burn);
    o.insert("slow_burn", status.slow_burn);
    o.insert("alerting", status.alerting);
    o.insert("alerts_fired", status.alerts_fired as i64);
    o
}

fn parse_body(body: &str) -> Result<Request, String> {
    let parsed = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let operation = parsed
        .get("operation")
        .and_then(Json::as_str)
        .unwrap_or("invoke")
        .to_string();
    let payload = parsed.get("payload").cloned().unwrap_or(Json::Null);
    let mut request = Request::new(operation, payload);
    if let Some(params) = parsed.get("params").and_then(Json::as_object) {
        for (name, value) in params {
            if let Some(v) = value.as_f64() {
                request = request.with_param(name.clone(), v);
            }
        }
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogsdk_sim::latency::LatencyModel;
    use cogsdk_sim::{SimEnv, SimService};

    fn gateway() -> (SimEnv, Arc<HttpGateway>) {
        let env = SimEnv::with_seed(77);
        let sdk = Arc::new(RichSdk::new(&env));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        sdk.register(
            SimService::builder("echo2", "demo")
                .latency(LatencyModel::constant_ms(25.0))
                .build(&env),
        );
        (env, Arc::new(HttpGateway::new(sdk)))
    }

    fn post(path: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    /// As [`post`], asking the server to close the connection after the
    /// reply, for clients that read to EOF.
    fn post_closing(path: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn parse_request_round_trip() {
        let req = parse_request(&post("/invoke/echo", "{\"payload\":1}")).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/invoke/echo");
        assert_eq!(req.body, "{\"payload\":1}");
    }

    #[test]
    fn parse_request_rejects_malformed() {
        assert!(parse_request("").is_err());
        assert!(parse_request("GET\r\n\r\n").is_err());
        assert!(parse_request("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse_request("GET nopath HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn invoke_route_works() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post(
            "/invoke/echo",
            r#"{"operation": "op", "payload": {"x": 1}}"#,
        ));
        assert!(raw.starts_with("HTTP/1.1 200 OK"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        let parsed = Json::parse(body).unwrap();
        assert_eq!(parsed.pointer("/payload/x").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn cached_route_reports_hits() {
        let (_env, gw) = gateway();
        let body = r#"{"payload": {"k": "v"}}"#;
        let first = gw.handle_text(&post("/invoke-cached/echo", body));
        let second = gw.handle_text(&post("/invoke-cached/echo", body));
        assert!(first.contains("\"cache_hit\":false"));
        assert!(second.contains("\"cache_hit\":true"));
    }

    #[test]
    fn class_route_selects_and_reports_service() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/invoke-class/demo", r#"{"payload": {}}"#));
        assert!(raw.contains("\"service\":"), "{raw}");
        assert!(raw.starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn services_and_monitor_routes() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text("GET /services HTTP/1.1\r\n\r\n");
        assert!(raw.contains("echo2"), "{raw}");
        // Monitor before any call: 404.
        let raw = gw.handle_text("GET /monitor/echo HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 404"));
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /monitor/echo HTTP/1.1\r\n\r\n");
        assert!(raw.contains("\"availability\":1.0"), "{raw}");
    }

    #[test]
    fn error_statuses() {
        let (_env, gw) = gateway();
        assert!(gw
            .handle_text(&post("/invoke/ghost", r#"{"payload": 1}"#))
            .starts_with("HTTP/1.1 404"));
        assert!(gw
            .handle_text(&post("/invoke/echo", "not json"))
            .starts_with("HTTP/1.1 400"));
        assert!(gw
            .handle_text("DELETE /services HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 405"));
        assert!(gw
            .handle_text("GET /nope HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 404"));
        assert!(gw.handle_text("garbage").starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn params_flow_through_as_latency_parameters() {
        let (_env, gw) = gateway();
        gw.handle_text(&post(
            "/invoke/echo",
            r#"{"payload": 1, "params": {"size": 512.0}}"#,
        ));
        let history = gw.sdk.monitor().history("echo").unwrap();
        let (xs, _) = history.param_series("size");
        assert_eq!(xs, vec![512.0]);
    }

    #[test]
    fn body_with_crlf_survives_parsing() {
        // Multi-line bodies must be reassembled byte-for-byte.
        let body = "{\"a\":\r\n1}";
        let text = format!(
            "POST /invoke/echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse_request(&text).unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn format_response_reports_content_length() {
        let resp = HttpResponse {
            status: 200,
            body: "{\"x\":1}".into(),
            content_type: "application/json",
            retry_after: None,
        };
        let text = format_response(&resp);
        assert!(text.contains("Content-Length: 7"));
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.ends_with("{\"x\":1}"));
        let unknown = HttpResponse {
            status: 418,
            body: String::new(),
            content_type: "text/plain",
            retry_after: None,
        };
        assert!(format_response(&unknown).starts_with("HTTP/1.1 418 Unknown"));
    }

    #[test]
    fn format_response_emits_retry_after_header() {
        let resp = HttpResponse::structured_error(503, "shed", "shed", true).with_retry_after(7);
        let text = format_response(&resp);
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 7\r\n"), "{text}");
    }

    fn telemetry_gateway() -> (SimEnv, Arc<HttpGateway>) {
        let env = SimEnv::with_seed(78);
        let sdk = Arc::new(RichSdk::with_telemetry(&env, cogsdk_obs::Telemetry::new()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        sdk.register(
            SimService::builder("flaky", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .failures(cogsdk_sim::failure::FailurePlan::flaky(1.0))
                .build(&env),
        );
        (env, Arc::new(HttpGateway::new(sdk)))
    }

    #[test]
    fn metrics_route_exposes_prometheus_text() {
        let (_env, gw) = telemetry_gateway();
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        // Inject failures so the error-kind breakdown has data.
        for _ in 0..2 {
            gw.handle_text(&post("/invoke/flaky", r#"{"payload": 1}"#));
        }
        let raw = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.contains("Content-Type: text/plain"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# TYPE sdk_attempts_total counter"), "{body}");
        assert!(
            body.contains(r#"sdk_attempts_total{outcome="ok",service="echo"} 1"#),
            "{body}"
        );
        assert!(body.contains("sdk_errors_total{kind="), "{body}");
        assert!(body.contains("sdk_attempt_latency_ms_bucket"), "{body}");
        // The gateway counts its own requests too.
        assert!(
            body.contains(r#"gateway_requests_total{route="invoke""#),
            "{body}"
        );
    }

    #[test]
    fn trace_route_streams_jsonl_events() {
        let (_env, gw) = telemetry_gateway();
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /trace HTTP/1.1\r\n\r\n");
        assert!(raw.contains("Content-Type: application/x-ndjson"), "{raw}");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 3, "{body}"); // invoke_start, attempt, invoke_end
        for line in &lines {
            Json::parse(line).expect("each trace line is standalone JSON");
        }
        assert!(body.contains("\"event\":\"invoke_start\""), "{body}");
        assert!(body.contains("\"event\":\"attempt\""), "{body}");
    }

    #[test]
    fn metrics_route_on_untelemetered_sdk_is_empty_but_ok() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    }

    #[test]
    fn invoke_class_empty_class_is_404() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/invoke-class/ghost-class", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
    }

    #[test]
    fn structured_error_bodies_carry_kind_and_retryable() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/invoke/ghost", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
        assert!(raw.contains("\"kind\":\"unknown_service\""), "{raw}");
        assert!(raw.contains("\"retryable\":false"), "{raw}");
        let (_env, gw) = telemetry_gateway();
        let raw = gw.handle_text(&post("/invoke/flaky", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 502"), "{raw}");
        assert!(raw.contains("\"kind\":\"all_failed\""), "{raw}");
        assert!(raw.contains("\"retryable\":true"), "{raw}");
    }

    #[test]
    fn saturated_route_sheds_with_retry_after_and_metrics() {
        let env = SimEnv::with_seed(79);
        let sdk = Arc::new(RichSdk::with_telemetry(&env, cogsdk_obs::Telemetry::new()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let limits = GatewayLimits {
            max_concurrent: 0, // route fully saturated: every request sheds
            max_queue: 0,
            max_queue_wait: Duration::from_millis(1),
            retry_after_secs: 2,
        };
        let gw = HttpGateway::with_limits(sdk, limits);
        let raw = gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 503 Service Unavailable"), "{raw}");
        assert!(raw.contains("Retry-After: 2\r\n"), "{raw}");
        assert!(raw.contains("\"kind\":\"shed\""), "{raw}");
        assert!(raw.contains("\"retryable\":true"), "{raw}");
        // Read-only routes stay reachable during overload, so operators
        // can still observe the shedding they are debugging.
        let metrics = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(
            metrics.contains(r#"gateway_shed_total{route="invoke"} 1"#),
            "{metrics}"
        );
        assert!(
            metrics.contains(r#"gateway_requests_total{route="invoke",status="503"} 1"#),
            "{metrics}"
        );
        let trace = gw.handle_text("GET /trace HTTP/1.1\r\n\r\n");
        assert!(trace.contains("\"event\":\"gateway_shed\""), "{trace}");
    }

    #[test]
    fn queued_request_waits_then_sheds() {
        let env = SimEnv::with_seed(80);
        let sdk = Arc::new(RichSdk::new(&env));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let limits = GatewayLimits {
            max_concurrent: 0,
            max_queue: 4, // admitted to the queue, but no slot ever frees
            max_queue_wait: Duration::from_millis(5),
            retry_after_secs: 1,
        };
        let gw = HttpGateway::with_limits(sdk, limits);
        let started = std::time::Instant::now();
        let raw = gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    fn post_as_tenant(path: &str, tenant: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nX-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn parse_request_splits_query_and_captures_tenant() {
        let req = parse_request(
            "GET /trace?trace_id=7&format=flamegraph HTTP/1.1\r\nX-Tenant: acme\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.path, "/trace");
        assert_eq!(req.query_param("trace_id"), Some("7"));
        assert_eq!(req.query_param("format"), Some("flamegraph"));
        assert_eq!(req.tenant.as_deref(), Some("acme"));
        // No query, no tenant: fields stay empty.
        let bare = parse_request("GET /trace HTTP/1.1\r\n\r\n").unwrap();
        assert!(bare.query.is_empty());
        assert_eq!(bare.tenant, None);
    }

    #[test]
    fn tenant_header_threads_per_tenant_series_through_the_stack() {
        let (_env, gw) = telemetry_gateway();
        gw.handle_text(&post_as_tenant("/invoke/echo", "acme", r#"{"payload": 1}"#));
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 2}"#));
        let raw = gw.handle_text("GET /metrics HTTP/1.1\r\n\r\n");
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        // SDK-level RED picks up the tenant...
        assert!(
            body.contains(r#"sdk_attempts_total{outcome="ok",service="echo",tenant="acme"} 1"#),
            "{body}"
        );
        // ...while untenanted traffic keeps its original series.
        assert!(
            body.contains(r#"sdk_attempts_total{outcome="ok",service="echo"} 1"#),
            "{body}"
        );
        // Gateway-level RED: request counts and a latency histogram with
        // per-tenant series.
        assert!(
            body.contains(
                r#"gateway_route_requests_total{route="invoke",status="200",tenant="acme"} 1"#
            ),
            "{body}"
        );
        assert!(
            body.contains(r#"gateway_route_latency_ms_bucket{route="invoke",tenant="acme""#),
            "{body}"
        );
    }

    #[test]
    fn slo_route_serves_objective_status() {
        let env = SimEnv::with_seed(81);
        let telemetry = cogsdk_obs::Telemetry::new();
        let sdk = Arc::new(RichSdk::with_telemetry(&env, telemetry.clone()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let engine = Arc::new(cogsdk_obs::SloEngine::new(
            telemetry,
            cogsdk_obs::SloConfig::default(),
        ));
        engine.add_objective(cogsdk_obs::SloSpec::new("invoke", 100.0, 0.99));
        let gw = HttpGateway::with_observability(sdk, GatewayLimits::default(), engine);
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /slo HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(
            body.pointer("/objectives/0/route").and_then(Json::as_str),
            Some("invoke")
        );
        assert_eq!(
            body.pointer("/objectives/0/alerting")
                .and_then(Json::as_bool),
            Some(false)
        );
        // Without an engine the route 404s instead of lying.
        let (_env2, plain) = telemetry_gateway();
        assert!(plain
            .handle_text("GET /slo HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn profile_and_filtered_trace_serve_retained_traces() {
        let env = SimEnv::with_seed(82);
        let telemetry = cogsdk_obs::Telemetry::new();
        telemetry.enable_tail_sampling(cogsdk_obs::SamplerConfig {
            healthy_sample_rate: 1.0,
            ..cogsdk_obs::SamplerConfig::default()
        });
        let sdk = Arc::new(RichSdk::with_telemetry(&env, telemetry.clone()));
        sdk.register(
            SimService::builder("echo", "demo")
                .latency(LatencyModel::constant_ms(5.0))
                .build(&env),
        );
        let gw = HttpGateway::new(sdk);
        gw.handle_text(&post("/invoke/echo", r#"{"payload": 1}"#));
        let raw = gw.handle_text("GET /profile HTTP/1.1\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(body.pointer("/traces").and_then(Json::as_i64), Some(1));
        assert!(
            body.pointer("/ops/0/op")
                .and_then(Json::as_str)
                .unwrap_or("")
                .starts_with("invoke:"),
            "{body:?}"
        );
        // Flamegraph rendering of the same data.
        let flame = gw.handle_text("GET /profile?format=flamegraph HTTP/1.1\r\n\r\n");
        assert!(flame.contains("invoke:"), "{flame}");
        // Filtered trace dump: only the requested trace, plus a summary.
        let retained = gw.sdk.telemetry().sampler().unwrap().retained();
        let id = retained[0].trace;
        let raw = gw.handle_text(&format!("GET /trace?trace_id={} HTTP/1.1\r\n\r\n", id.0));
        let body = raw.split("\r\n\r\n").nth(1).unwrap();
        for line in body.lines().filter(|l| !l.is_empty()) {
            let parsed = Json::parse(line).unwrap();
            if parsed.get("summary").is_none() {
                assert_eq!(
                    parsed.pointer("/trace").and_then(Json::as_i64),
                    Some(id.0 as i64),
                    "{line}"
                );
            }
        }
        assert!(body.contains("\"summary\":true"), "{body}");
        // Nonsense ids are a client error.
        assert!(gw
            .handle_text("GET /trace?trace_id=xyz HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn real_tcp_round_trip() {
        let (_env, gw) = gateway();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = gw.clone().serve("127.0.0.1:0", shutdown.clone()).unwrap();
        // A real cross-language-style client: plain TCP.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let body = r#"{"operation": "op", "payload": {"over": "tcp"}}"#;
        stream
            .write_all(post_closing("/invoke/echo", body).as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"over\":\"tcp\""));
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn oversize_body_gets_413_and_the_server_keeps_serving() {
        let (_env, gw) = gateway();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = gw.clone().serve("127.0.0.1:0", shutdown.clone()).unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999999999\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 413 Payload Too Large"),
            "{response}"
        );

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let body = r#"{"operation": "op", "payload": {"after": "413"}}"#;
        stream
            .write_all(post_closing("/invoke/echo", body).as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"after\":\"413\""));
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    /// Serves `gw` on a loopback port.
    fn serve(gw: &Arc<HttpGateway>) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (addr, handle) = gw.clone().serve("127.0.0.1:0", shutdown.clone()).unwrap();
        (addr, shutdown, handle)
    }

    fn stop(shutdown: &AtomicBool, handle: JoinHandle<()>) {
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    /// Reads one response framed by its `Content-Length`, leaving the
    /// connection open; returns the head and the body.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (String, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "EOF in {head:?}");
            head.push_str(&line);
            if line == "\r\n" {
                break;
            }
        }
        let len = header_values(&head, "content-length").next().unwrap();
        let mut body = vec![0; len.parse().unwrap()];
        reader.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }

    /// Sends `raw` on a new connection and reads until the server closes
    /// it. The read gives up after `wait`, failing the test.
    fn read_to_close(addr: SocketAddr, raw: &[u8], wait: Duration) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(wait)).unwrap();
        stream.write_all(raw).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    /// Well inside [`IO_TIMEOUT`], so a connection that ends within it was
    /// closed on purpose, not for being idle.
    const PROMPT: Duration = Duration::from_millis(1000);

    const SERVICES_CLOSING: &[u8] = b"GET /services HTTP/1.1\r\nConnection: close\r\n\r\n";

    #[test]
    fn one_connection_carries_several_requests() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        (&stream)
            .write_all(b"GET /services HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (head, body) = read_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(!head.contains("Connection: close"), "{head}");
        assert!(body.contains("echo2"), "{body}");
        let body = r#"{"operation": "op", "payload": {"second": "request"}}"#;
        (&stream)
            .write_all(post("/invoke/echo", body).as_bytes())
            .unwrap();
        let (head, body) = read_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"second\":\"request\""), "{body}");
        stop(&shutdown, handle);
    }

    #[test]
    fn close_requests_and_http_1_0_end_the_connection() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        for raw in [SERVICES_CLOSING, b"GET /services HTTP/1.0\r\n\r\n"] {
            let response = read_to_close(addr, raw, PROMPT);
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        }
        stop(&shutdown, handle);
    }

    #[test]
    fn error_responses_end_the_connection() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        for (raw, status) in [
            (&b"GET /nowhere HTTP/1.1\r\n\r\n"[..], "404 Not Found"),
            (b"NONSENSE\r\n\r\n", "400 Bad Request"),
            (
                b"POST /invoke/echo HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                "400 Bad Request",
            ),
        ] {
            let response = read_to_close(addr, raw, PROMPT);
            assert!(
                response.starts_with(&format!("HTTP/1.1 {status}")),
                "{response}"
            );
            assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        }
        stop(&shutdown, handle);
    }

    #[test]
    fn a_stalled_client_does_not_delay_another_connection() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /serv").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        let response = read_to_close(addr, SERVICES_CLOSING, PROMPT);
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        drop(stalled);
        stop(&shutdown, handle);
    }

    #[test]
    fn shutdown_closes_idle_connections_and_releases_the_gateway() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        (&stream)
            .write_all(b"GET /services HTTP/1.1\r\n\r\n")
            .unwrap();
        let (head, _) = read_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        // The client keeps its connection open and idle.
        let started = std::time::Instant::now();
        stop(&shutdown, handle);
        assert!(started.elapsed() < PROMPT, "{:?}", started.elapsed());
        assert_eq!(Arc::strong_count(&gw), 1);
        let mut rest = String::new();
        assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0, "{rest}");
    }

    #[test]
    fn oversize_head_gets_431_and_the_server_keeps_serving() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        // One endless header line, and many short ones past the cap.
        let mut endless = b"GET /services HTTP/1.1\r\nX-Long: ".to_vec();
        endless.resize(MAX_HEAD_BYTES + 4096, b'a');
        let many = format!(
            "GET /services HTTP/1.1\r\n{}\r\n",
            "X-Short: b\r\n".repeat(MAX_HEAD_BYTES / 8)
        );
        for raw in [endless.as_slice(), many.as_bytes()] {
            let response = read_to_close(addr, raw, PROMPT);
            assert!(
                response.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
                "{response}"
            );
            assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        }
        let response = read_to_close(addr, SERVICES_CLOSING, PROMPT);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        stop(&shutdown, handle);
    }

    #[test]
    fn stalled_requests_get_408_and_idle_connections_close_silently() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        let started = std::time::Instant::now();
        let wait = IO_TIMEOUT + Duration::from_secs(1);
        // A half-sent head, a half-sent body and a connection that sends
        // nothing, all served at once.
        let clients: Vec<_> = [
            &b"GET /serv"[..],
            b"POST /invoke/echo HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"pay",
            b"",
        ]
        .into_iter()
        .map(|raw| std::thread::spawn(move || read_to_close(addr, raw, wait)))
        .collect();
        let responses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(started.elapsed() < wait, "{:?}", started.elapsed());
        for response in &responses[..2] {
            assert!(
                response.starts_with("HTTP/1.1 408 Request Timeout"),
                "{response}"
            );
            assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        }
        assert_eq!(responses[2], "");
        stop(&shutdown, handle);
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_server_keeps_serving() {
        let env = SimEnv::with_seed(83);
        let mut gw = HttpGateway::new(Arc::new(RichSdk::new(&env)));
        gw.set_query_handler(Box::new(|_| panic!("query handler bug")));
        let gw = Arc::new(gw);
        let (addr, shutdown, handle) = serve(&gw);
        // No `Connection: close`: the error response ends the connection.
        let response = read_to_close(addr, post("/query", "{}").as_bytes(), PROMPT);
        assert!(
            response.starts_with("HTTP/1.1 500 Internal Server Error"),
            "{response}"
        );
        assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        let response = read_to_close(addr, SERVICES_CLOSING, PROMPT);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        stop(&shutdown, handle);
    }

    #[test]
    fn a_connection_past_the_cap_gets_503() {
        let (_env, gw) = gateway();
        let (addr, shutdown, handle) = serve(&gw);
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let response = read_to_close(addr, b"", PROMPT);
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{response}"
        );
        assert!(response.contains("\r\nRetry-After: 1\r\n"), "{response}");
        drop(held);
        stop(&shutdown, handle);
    }

    #[test]
    fn snapshot_route_requires_an_attached_handler() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/snapshot", ""));
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
        assert!(raw.contains("no snapshot handler attached"), "{raw}");
    }

    #[test]
    fn snapshot_route_runs_the_attached_handler() {
        let env = SimEnv::with_seed(81);
        let sdk = Arc::new(RichSdk::new(&env));
        let mut gw = HttpGateway::new(sdk);
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = calls.clone();
        gw.set_snapshot_handler(Box::new(move || {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(json!({"bytes": 123, "ok": true}))
        }));
        let raw = gw.handle_text(&post("/snapshot", ""));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(body.pointer("/bytes").and_then(Json::as_i64), Some(123));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Handler failures surface as 500s.
        gw.set_snapshot_handler(Box::new(|| Err("disk full".into())));
        let raw = gw.handle_text(&post("/snapshot", ""));
        assert!(raw.starts_with("HTTP/1.1 500"), "{raw}");
        assert!(raw.contains("disk full"), "{raw}");
    }

    #[test]
    fn query_route_requires_an_attached_handler() {
        let (_env, gw) = gateway();
        let raw = gw.handle_text(&post("/query", r#"{"sparql": "SELECT ..."}"#));
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
        assert!(raw.contains("no query handler attached"), "{raw}");
    }

    #[test]
    fn query_route_runs_the_attached_handler() {
        let env = SimEnv::with_seed(82);
        let sdk = Arc::new(RichSdk::new(&env));
        let mut gw = HttpGateway::new(sdk);
        // The handler sees the parsed request: body and tenant header.
        gw.set_query_handler(Box::new(move |req| {
            let body = Json::parse(&req.body).map_err(|e| e.to_string())?;
            let sparql = body
                .get("sparql")
                .and_then(Json::as_str)
                .ok_or("missing sparql")?;
            Ok(json!({
                "echo": (sparql),
                "tenant": (req.tenant.clone().unwrap_or_default()),
            }))
        }));
        let raw = gw.handle_text(&post_as_tenant(
            "/query",
            "acme",
            r#"{"sparql": "SELECT ?x WHERE { ?x <p> ?y }"}"#,
        ));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let body = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        assert_eq!(
            body.pointer("/echo").and_then(Json::as_str),
            Some("SELECT ?x WHERE { ?x <p> ?y }")
        );
        assert_eq!(body.pointer("/tenant").and_then(Json::as_str), Some("acme"));
        // Handler errors (bad bodies, parse failures) answer 400.
        let raw = gw.handle_text(&post("/query", "not json"));
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    }
}
