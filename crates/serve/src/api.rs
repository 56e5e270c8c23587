//! Request routing and the analyze / dse / conform endpoint handlers.
//!
//! Endpoints (see the README "Serving" section for the JSON schemas):
//!
//! * `GET /healthz` — liveness: `200` while the process runs.
//! * `GET /readyz` — readiness: `200` while accepting, `503` once a
//!   drain has started.
//! * `GET /metrics` — the process-global Prometheus exposition.
//! * `POST /v1/analyze` — one cost-model evaluation (layer or whole
//!   model), served through the shared analysis cache.
//! * `POST /v1/batch` — many analyze points through one connection, one
//!   JSON parse and one cache session, with per-item error isolation.
//! * `POST /v1/dse` — a bounded design-space exploration session. With
//!   `"stream": true` the response is `application/x-ndjson`: one line
//!   per completed unit (its local Pareto frontier), then a final line
//!   carrying the merged result and session stats.
//! * `POST /v1/conform` — a conformance sweep against the simulator.
//! * `POST /v1/panic` — test-only (off by default): panics in the
//!   handler, to exercise worker panic isolation.
//!
//! Every `/v1` request runs under a child [`CancelToken`] carrying the
//! request deadline (`deadline_ms` in the body, else the server default).
//! A tripped deadline yields `504` with `"partial": true` and whatever
//! partial result the engine produced; the token is a *child*, so the
//! timeout can never cancel the server or a sibling request.
//!
//! Model references resolve through [`maestro_dnn::zoo`] *only* — a
//! network-facing daemon must not read arbitrary filesystem paths on
//! behalf of its clients. The zoo models are built once per process, on
//! first use, and every request borrows them.
//!
//! Analyze answers are spliced, not serialized: the shared cache holds
//! each report's JSON encoding ([`ReportJson`]), and a response writes the
//! asking layer's name in front of it, byte for byte what `serde_json`
//! writes for the report.

use crate::http::{Request, Response};
use crate::json::{self, Value};
use crate::queue::AdmissionCtl;
use crate::server::ServeMetrics;
use crate::supervise::WorkerTable;
use maestro_core::{AnalysisError, Analyzer, ReportJson};
use maestro_dnn::{zoo, Layer, Model};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, Style};
use maestro_obs::trace::{records_to_json, FlightRecorder, TraceId};
use maestro_obs::CancelToken;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Deadlines are clamped to this ceiling; an absent or absurd
/// `deadline_ms` cannot pin a worker for hours.
const MAX_DEADLINE: Duration = Duration::from_secs(3600);

/// `/v1/batch` accepts at most this many points per request — enough for
/// any realistic layers × configs sweep through one connection, small
/// enough that one request cannot monopolize a worker for minutes.
pub const MAX_BATCH_POINTS: usize = 4096;

/// What serving a request produced: a buffered [`Response`] the
/// connection loop writes, or the accounting for a response the handler
/// already streamed to the socket (NDJSON), where only the close and the
/// trace finish remain.
pub enum Handled {
    /// A full response to serialize and write.
    Response(Response),
    /// The handler wrote the response itself, incrementally.
    Streamed(StreamSummary),
}

/// Accounting for a streamed response (headers + NDJSON lines already on
/// the wire). Streamed responses always close the connection — there is
/// no `Content-Length`, so EOF is the framing.
#[derive(Debug, Clone, Copy)]
pub struct StreamSummary {
    /// Status of the already-written status line (always 200: errors
    /// detected before the first byte return a buffered `Response`).
    pub status: u16,
    /// Body bytes written (NDJSON lines, excluding headers).
    pub bytes: u64,
    /// A socket write failed mid-stream; the client saw a truncation.
    pub write_failed: bool,
}

/// Clamp a client-requested `threads` to the server-side cap: absent or
/// zero requests run single-threaded, and no request can exceed
/// `max_request_threads` however large a value it sends.
pub fn effective_threads(requested: u64, cap: usize) -> usize {
    (requested.max(1).min(usize::MAX as u64) as usize).min(cap.max(1))
}

/// Shared state behind a streaming response: the cloned socket handle
/// plus write accounting. Held in an `Arc<Mutex<..>>` so the `'static`
/// per-unit callback and the handler can both reach it; the engine fires
/// callbacks under its completion lock, so lines never interleave.
struct StreamSink {
    sock: TcpStream,
    bytes: u64,
    failed: bool,
}

impl StreamSink {
    /// Write one NDJSON line (appends `\n`). After the first failed
    /// write the sink goes inert — the peer is gone; analysis still
    /// completes and is cached for the next request.
    fn line(&mut self, json: &str) {
        if self.failed {
            return;
        }
        let mut buf = Vec::with_capacity(json.len() + 1);
        buf.extend_from_slice(json.as_bytes());
        buf.push(b'\n');
        if self.sock.write_all(&buf).is_ok() {
            self.bytes += buf.len() as u64;
        } else {
            self.failed = true;
        }
    }
}

/// Shared, immutable context every worker thread serves requests from.
pub struct ApiCtx {
    /// The process-wide analysis cache shared by all requests.
    pub cache: Analyzer,
    /// Root of every per-request child token. Detached (it must ignore
    /// the interrupt flag: a drain lets in-flight requests finish);
    /// cancelled only when a forced drain gives up on the drain deadline.
    pub request_root: CancelToken,
    /// Deadline applied when a request does not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// Flips to `false` when the drain starts (`/readyz` → 503).
    pub ready: AtomicBool,
    /// Gate for `POST /v1/panic` (tests and the ci smoke only).
    pub test_endpoints: bool,
    /// Serve-plane counters and histograms.
    pub metrics: ServeMetrics,
    /// Daemon start time; `/metrics` derives the uptime gauge from it.
    pub started: Instant,
    /// Upper bound on the `threads` a single `/v1/dse` request may claim
    /// (already resolved: `--max-request-threads`, or the host's
    /// available parallelism when the flag is 0/absent).
    pub max_request_threads: usize,
    /// The dequeue-side CoDel controller; its dropping state is also an
    /// overload-pressure signal for brownout decisions.
    pub admission: Arc<AdmissionCtl>,
    /// Worker liveness table: `/readyz` quorum and the watchdog share it.
    pub workers: Arc<WorkerTable>,
    /// Live mirror of this daemon's queue depth. A mirror rather than
    /// the `maestro.serve.queue_depth` gauge because the metrics
    /// registry is process-global: two daemons in one test process must
    /// not read each other's pressure.
    pub queue_len: Arc<AtomicUsize>,
    /// The queue's capacity (pressure = depth / capacity).
    pub queue_cap: usize,
    /// Drain deadline in seconds — the ceiling for `Retry-After` hints
    /// (past it, a draining daemon is gone and the hint is a lie).
    pub drain_secs: u64,
}

/// Request priority class: what overload shedding may touch, and in what
/// order. Control-plane probes are never shed (an operator debugging an
/// overload needs `/metrics` most exactly when the daemon is drowning);
/// long-running exploration is shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqClass {
    /// health/readiness/metrics/traces — and anything unroutable, which
    /// costs less to answer (404) than to classify further.
    Critical,
    /// `/v1/analyze`, `/v1/batch`: interactive cost-model queries.
    Normal,
    /// `/v1/dse`, `/v1/conform`: multi-second exploration sessions.
    Heavy,
}

/// Classify a parsed request (see [`ReqClass`]).
pub fn classify(req: &Request) -> ReqClass {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/analyze" | "/v1/batch") => ReqClass::Normal,
        ("POST", "/v1/dse" | "/v1/conform") => ReqClass::Heavy,
        _ => ReqClass::Critical,
    }
}

/// Instantaneous overload pressure, derived from this daemon's queue
/// depth and the admission controller's dropping state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pressure {
    /// Queue mostly empty; serve everything.
    Nominal,
    /// Standing queue (≥ half capacity, or CoDel is dropping): shed
    /// [`ReqClass::Heavy`] work.
    High,
    /// Near queue-full (≥ 90% capacity): also shed batches and serve
    /// analyze from cache only (brownout).
    Critical,
}

impl ApiCtx {
    /// Route and serve one parsed request. `POST /v1/dse` never gets
    /// here: [`ApiCtx::handle_conn`] answers it first, with the socket in
    /// reach for streaming.
    fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/readyz") => self.readyz(),
            ("GET", "/metrics") => {
                self.metrics
                    .uptime_seconds
                    .set(self.started.elapsed().as_secs_f64());
                // The shared cache lives as long as the daemon, so its
                // counts are flushed here rather than on drop.
                self.cache.flush_metrics();
                Response::text(200, maestro_obs::registry().render_prometheus())
            }
            ("GET", "/debug/traces") => {
                Response::json(200, records_to_json(&FlightRecorder::global().recent()))
            }
            ("GET", path) if path.strip_prefix("/debug/traces/").is_some() => {
                let raw = path.strip_prefix("/debug/traces/").unwrap_or("");
                let Some(id) = TraceId::parse(raw) else {
                    return error_response(400, "trace id must be 1-32 hex digits");
                };
                match FlightRecorder::global().find(id) {
                    Some(rec) => Response::json(200, rec.to_json()),
                    None => error_response(404, "no such trace (evicted or sampled out)"),
                }
            }
            ("POST", "/v1/analyze") => self.with_body(req, Self::analyze),
            ("POST", "/v1/batch") => self.with_body(req, Self::batch),
            ("POST", "/v1/conform") => self.with_body(req, Self::conform),
            ("POST", "/v1/panic") if self.test_endpoints => {
                panic!("test endpoint /v1/panic: deliberate handler panic")
            }
            ("POST", "/v1/stall") if self.test_endpoints => {
                // Simulates a wedged handler: a raw sleep that (unlike a
                // deadline-aware analysis) never polls its token, so the
                // worker's heartbeat goes stale and the watchdog's wedge
                // detection has something real to find.
                let ms = std::str::from_utf8(&req.body)
                    .ok()
                    .and_then(|t| json::parse(t).ok())
                    .and_then(|b| b.get("ms").and_then(Value::as_u64))
                    .unwrap_or(0)
                    .min(10_000);
                std::thread::sleep(Duration::from_millis(ms));
                Response::json(200, format!("{{\"stalled_ms\":{ms}}}"))
            }
            (
                _,
                "/healthz" | "/readyz" | "/metrics" | "/v1/analyze" | "/v1/batch" | "/v1/dse"
                | "/v1/conform",
            ) => error_response(405, "method not allowed for this path"),
            (_, path) if path.starts_with("/debug/traces") => {
                error_response(405, "method not allowed for this path")
            }
            _ => error_response(404, "no such endpoint"),
        }
    }

    /// Readiness: drain state first, then worker quorum. The JSON body
    /// names the cause, so an orchestrator (or a human) can tell "this
    /// daemon is leaving" from "this daemon lost its workers".
    fn readyz(&self) -> Response {
        if !self.ready.load(Ordering::Relaxed) {
            return Response::json(503, "{\"ready\":false,\"cause\":\"draining\"}".to_string());
        }
        let live = self.workers.live();
        let (quorum, configured) = (self.workers.quorum, self.workers.configured);
        if live < quorum {
            return Response::json(
                503,
                format!(
                    "{{\"ready\":false,\"cause\":\"workers below quorum\",\
                     \"live\":{live},\"quorum\":{quorum},\"workers\":{configured}}}"
                ),
            );
        }
        Response::json(
            200,
            format!(
                "{{\"ready\":true,\"live\":{live},\"quorum\":{quorum},\"workers\":{configured}}}"
            ),
        )
    }

    /// Instantaneous overload pressure (see [`Pressure`]).
    pub fn pressure(&self) -> Pressure {
        let depth = self.queue_len.load(Ordering::Relaxed);
        let cap = self.queue_cap.max(1);
        if depth * 10 >= cap * 9 {
            Pressure::Critical
        } else if depth * 2 >= cap || self.admission.dropping() {
            Pressure::High
        } else {
            Pressure::Nominal
        }
    }

    /// How long a shed client should wait before retrying: the time for
    /// the current queue (plus this request) to drain through the worker
    /// pool at the observed median service time, clamped to
    /// `[1, drain-seconds]` — beyond the drain deadline the daemon may
    /// simply be gone, so a larger promise is meaningless.
    pub fn retry_hint(&self) -> u64 {
        let hist = &self.metrics.request_seconds;
        // Before any request completes there is no observed service
        // time; assume a conservative 250ms median.
        let p50 = if hist.count() > 0 {
            let q = hist.quantile(0.5);
            if q.is_finite() && q > 0.0 {
                q
            } else {
                0.25
            }
        } else {
            0.25
        };
        retry_after_secs(
            p50,
            self.queue_len.load(Ordering::Relaxed),
            self.workers.configured,
            self.drain_secs,
        )
    }

    /// A `503` shed response carrying the computed retry hint.
    pub fn shed_response(&self, msg: &str) -> Response {
        let mut resp = error_response(503, msg);
        resp.retry_after = Some(self.retry_hint());
        resp
    }

    /// Class-based brownout shedding, decided before dispatch: under
    /// [`Pressure::High`], heavy exploration sessions are shed so the
    /// queue keeps draining interactive work; under
    /// [`Pressure::Critical`], batches are shed too (single analyzes
    /// continue into the cache-only degraded path). Critical-class
    /// requests are never shed here.
    fn preflight(&self, req: &Request) -> Option<Response> {
        let shed = match (classify(req), self.pressure()) {
            (ReqClass::Heavy, Pressure::High | Pressure::Critical) => true,
            (ReqClass::Normal, Pressure::Critical) => req.path == "/v1/batch",
            _ => false,
        };
        if !shed {
            return None;
        }
        self.metrics.brownout_shed.inc();
        Some(self.shed_response("server is under overload pressure, heavy requests are shed"))
    }

    /// Route and serve one parsed request with the socket in reach, so
    /// handlers that stream (NDJSON `/v1/dse`) can write incrementally.
    /// This is the one entry point: it answers `POST /v1/dse` itself and
    /// delegates everything else to the private router.
    pub fn handle_conn(&self, req: &Request, sock: &TcpStream) -> Handled {
        if let Some(resp) = self.preflight(req) {
            return Handled::Response(resp);
        }
        if req.method == "POST" && req.path == "/v1/dse" {
            let (body, token) = match self.decode_body(req) {
                Ok(decoded) => decoded,
                Err(resp) => return Handled::Response(resp),
            };
            if body.get("stream").and_then(Value::as_bool) == Some(true) {
                return self.dse_stream(&body, &token, sock);
            }
            return Handled::Response(self.dse(&body, &token));
        }
        Handled::Response(self.handle(req))
    }

    /// Decode the JSON body and derive the request token.
    fn decode_body(&self, req: &Request) -> Result<(Value, CancelToken), Response> {
        let text = match std::str::from_utf8(&req.body) {
            Ok(t) => t,
            Err(_) => return Err(error_response(400, "request body is not UTF-8")),
        };
        let body = if text.trim().is_empty() {
            Value::Obj(Vec::new())
        } else {
            match json::parse(text) {
                Ok(v) => v,
                Err(e) => return Err(error_response(400, &e.to_string())),
            }
        };
        if !matches!(body, Value::Obj(_)) {
            return Err(error_response(400, "request body must be a JSON object"));
        }
        let budget = match body.get("deadline_ms") {
            None => self.default_deadline,
            Some(v) => match v.as_u64() {
                Some(ms) => Duration::from_millis(ms).min(MAX_DEADLINE),
                None => {
                    return Err(error_response(
                        400,
                        "`deadline_ms` must be a non-negative integer",
                    ))
                }
            },
        };
        let token = self.request_root.child_with_deadline(budget);
        // Body decoded, token built: attribution shifts from parse to
        // the analysis stages.
        crate::trace::mark("analyze");
        Ok((body, token))
    }

    /// Decode the JSON body, derive the request token, dispatch.
    fn with_body(&self, req: &Request, f: fn(&Self, &Value, &CancelToken) -> Response) -> Response {
        match self.decode_body(req) {
            Ok((body, token)) => f(self, &body, &token),
            Err(resp) => resp,
        }
    }

    /// `POST /v1/analyze`: one layer, or the whole model when no
    /// `layer` is named.
    fn analyze(&self, body: &Value, token: &CancelToken) -> Response {
        let point = match Point::resolve(body) {
            Ok(p) => p,
            Err(r) => return r,
        };
        // Brownout: a request whose deadline already tripped (it burned
        // its budget queued) or one arriving under critical pressure is
        // served from the report cache only. A degraded 200 from cache
        // beats a 504 the client must retry — and costs the drowning
        // daemon almost nothing.
        let cache_only = token.is_cancelled() || self.pressure() == Pressure::Critical;
        match self.lookup(&point, token, cache_only) {
            Ok(answers) => {
                crate::trace::mark("serialize");
                let mut body = String::new();
                point.write_json(&mut body, &answers);
                let mut resp = Response::json(200, body);
                if cache_only {
                    self.metrics.degraded.inc();
                    resp.degraded = Some("cache-only");
                }
                resp
            }
            Err((_, Some(e))) => analysis_error_response(&e),
            // No report and the deadline tripped: the honest 504.
            Err((done, None)) if token.is_cancelled() => {
                self.metrics.timeouts.inc();
                timeout_response(done, point.layers().len(), None)
            }
            // Cache-only and uncached: shed with a retry hint.
            Err(_) => {
                self.metrics.brownout_shed.inc();
                self.shed_response("server is in brownout, uncached analyses are shed")
            }
        }
    }

    /// The one lookup loop behind every analyze answer: each layer `p`
    /// asks for, in model order, through the shared cache — or, when
    /// `cache_only`, peeked from it without perturbing LRU order or
    /// hit/miss counters. The cost model polls `token` at its
    /// stage boundaries, so a slow layer stops at the next cancellation
    /// point instead of pinning the worker past its 504 budget. A stop
    /// reports how many layers completed and why: the analysis error, or
    /// `None` when there is no answer (the deadline tripped, or a
    /// cache-only layer is not cached).
    fn lookup(
        &self,
        p: &Point,
        token: &CancelToken,
        cache_only: bool,
    ) -> Result<Vec<ReportJson>, (usize, Option<AnalysisError>)> {
        let layers = p.layers();
        let mut answers = Vec::with_capacity(layers.len());
        for layer in layers {
            let got = if cache_only {
                self.cache.peek(layer, p.dataflow, &p.acc).ok_or(None)
            } else {
                self.cache
                    .analyze(layer, p.dataflow, &p.acc, Some(token))
                    .map_err(|e| match e {
                        AnalysisError::Cancelled => None,
                        e => Some(e),
                    })
            };
            match got {
                Ok(a) => answers.push(a),
                Err(why) => return Err((answers.len(), why)),
            }
        }
        Ok(answers)
    }

    /// Parse and validate everything a `/v1/dse` request needs before any
    /// byte is written, shared by the buffered and streaming paths.
    fn dse_setup(
        &self,
        body: &Value,
    ) -> Result<(&'static Layer, Style, maestro_dse::Explorer, usize), Response> {
        let model = zoo_model(body)?;
        let layer_name = body.get("layer").and_then(Value::as_str).unwrap_or("");
        if layer_name.is_empty() {
            return Err(error_response(400, "missing `layer`"));
        }
        let Some(layer) = model.layer(layer_name) else {
            return Err(error_response(
                400,
                &format!("model {} has no layer `{layer_name}`", model.name),
            ));
        };
        let style_name = body.get("style").and_then(Value::as_str).unwrap_or("KC-P");
        let Some(style) = find_style(style_name) else {
            return Err(error_response(
                400,
                &format!("unknown style `{style_name}`"),
            ));
        };
        let space = match body
            .get("space")
            .and_then(Value::as_str)
            .unwrap_or("standard")
        {
            "standard" => maestro_dse::SweepSpace::standard(),
            "tiny" => maestro_dse::SweepSpace::tiny(),
            other => {
                return Err(error_response(
                    400,
                    &format!("unknown space `{other}` (standard|tiny)"),
                ))
            }
        };
        let explorer = maestro_dse::Explorer::new(space);
        // Server-side thread cap: without it, `workers × threads` scoped
        // threads from concurrent requests could oversubscribe the host.
        let threads = effective_threads(
            body.get("threads").and_then(Value::as_u64).unwrap_or(1),
            self.max_request_threads,
        );
        Ok((layer, style, explorer, threads))
    }

    /// `POST /v1/dse` (buffered).
    fn dse(&self, body: &Value, token: &CancelToken) -> Response {
        let (layer, style, explorer, threads) = match self.dse_setup(body) {
            Ok(setup) => setup,
            Err(r) => return r,
        };
        let ctl = maestro_dse::SessionCtl {
            token: token.clone(),
            // No periodic checkpointing in the serving path: there is no
            // checkpoint file, so the time-based cadence is disabled too.
            checkpoint_every: None,
            ..Default::default()
        };
        match explorer.explore_session(
            layer,
            &maestro_dse::variants::variants(style),
            threads,
            &ctl,
        ) {
            Ok((result, session)) => {
                crate::trace::mark("serialize");
                let js = match serde_json::to_string(&result) {
                    Ok(js) => js,
                    Err(e) => return error_response(500, &e.to_string()),
                };
                if session.interrupted {
                    self.metrics.timeouts.inc();
                    timeout_response(session.completed_units, session.total_units, Some(&js))
                } else {
                    Response::json(
                        200,
                        format!(
                            "{{\"partial\":false,\"completed_units\":{},\"total_units\":{},\"result\":{js}}}",
                            session.completed_units, session.total_units
                        ),
                    )
                }
            }
            Err(maestro_dse::SessionError::Space(e)) => error_response(400, &e.to_string()),
            Err(e) => error_response(500, &e.to_string()),
        }
    }

    /// `POST /v1/dse` with `"stream": true`: NDJSON over the socket. One
    /// line per completed unit (that unit's local Pareto frontier), then
    /// a final line (`"final":true`) with the merged result and session
    /// counters. Validation failures happen before the first byte and
    /// return a buffered error; once the head is on the wire the
    /// connection is committed to EOF framing and always closes.
    fn dse_stream(&self, body: &Value, token: &CancelToken, sock: &TcpStream) -> Handled {
        let (layer, style, explorer, threads) = match self.dse_setup(body) {
            Ok(setup) => setup,
            Err(r) => return Handled::Response(r),
        };
        let cloned = match sock.try_clone() {
            Ok(s) => s,
            Err(e) => {
                return Handled::Response(error_response(
                    500,
                    &format!("cannot clone socket for streaming: {e}"),
                ))
            }
        };
        // Head first, by hand: EOF-framed (no `Content-Length`), so the
        // connection must close when the stream ends.
        let mut head = String::from(
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n",
        );
        if let Some(id) = crate::trace::active_id() {
            head.push_str(&format!("x-maestro-trace: {}\r\n", id.to_hex()));
        }
        head.push_str("\r\n");
        let sink = Arc::new(Mutex::new(StreamSink {
            sock: cloned,
            bytes: 0,
            failed: false,
        }));
        {
            let mut s = sink.lock().unwrap_or_else(|e| e.into_inner());
            if s.sock.write_all(head.as_bytes()).is_err() {
                s.failed = true;
            }
        }

        let unit_sink = Arc::clone(&sink);
        let ctl = maestro_dse::SessionCtl {
            token: token.clone(),
            checkpoint_every: None,
            on_unit: Some(Box::new(move |u: &maestro_dse::UnitUpdate<'_>| {
                let pareto = serde_json::to_string(&u.pareto).unwrap_or_else(|_| "[]".to_string());
                let line = match u.failed {
                    Some(msg) => format!(
                        "{{\"unit\":{},\"completed\":{},\"total\":{},\"failed\":{}}}",
                        u.unit,
                        u.completed,
                        u.total,
                        json_str(msg)
                    ),
                    None => format!(
                        "{{\"unit\":{},\"completed\":{},\"total\":{},\"pareto\":{pareto}}}",
                        u.unit, u.completed, u.total
                    ),
                };
                unit_sink
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .line(&line);
            })),
            ..Default::default()
        };
        let final_line = match explorer.explore_session(
            layer,
            &maestro_dse::variants::variants(style),
            threads,
            &ctl,
        ) {
            Ok((result, session)) => {
                crate::trace::mark("serialize");
                if session.interrupted {
                    self.metrics.timeouts.inc();
                }
                match serde_json::to_string(&result) {
                    Ok(js) => format!(
                        "{{\"final\":true,\"partial\":{},\"completed_units\":{},\"total_units\":{},\"result\":{js}}}",
                        session.interrupted, session.completed_units, session.total_units
                    ),
                    Err(e) => format!("{{\"final\":true,\"error\":{}}}", json_str(&e.to_string())),
                }
            }
            Err(e) => format!("{{\"final\":true,\"error\":{}}}", json_str(&e.to_string())),
        };
        let mut s = sink.lock().unwrap_or_else(|e| e.into_inner());
        s.line(&final_line);
        Handled::Streamed(StreamSummary {
            status: 200,
            bytes: s.bytes,
            write_failed: s.failed,
        })
    }

    /// `POST /v1/batch`: an array of single-layer analyze points served
    /// through one connection, one JSON parse and one shared-cache
    /// session. Items fail independently — a bad point becomes a
    /// per-item `{"error": ..}` object, never a failed batch — and the
    /// request deadline turns the remainder into a `504` carrying the
    /// results completed so far.
    fn batch(&self, body: &Value, token: &CancelToken) -> Response {
        let Some(points) = body.get("points") else {
            return error_response(400, "missing `points` (an array of analyze points)");
        };
        let Value::Arr(points) = points else {
            return error_response(400, "`points` must be an array");
        };
        if points.len() > MAX_BATCH_POINTS {
            return error_response(
                400,
                &format!(
                    "batch of {} points exceeds the {MAX_BATCH_POINTS}-point limit",
                    points.len()
                ),
            );
        }
        // Items are written straight after the success envelope's head;
        // a tripped deadline rewraps those written so far as the 504's
        // partial result.
        let mut out = format!("{{\"count\":{},\"results\":[", points.len());
        let items = out.len();
        for (done, point) in points.iter().enumerate() {
            let end = out.len();
            if done > 0 {
                out.push(',');
            }
            // Cancelled before or during the point: it is not completed.
            if token.is_cancelled() || self.batch_point(point, token, &mut out).is_err() {
                out.truncate(end);
                self.metrics.timeouts.inc();
                let partial = format!("{{\"results\":[{}]}}", &out[items..]);
                return timeout_response(done, points.len(), Some(&partial));
            }
        }
        crate::trace::mark("serialize");
        out.push_str("]}");
        Response::json(200, out)
    }

    /// Serve one batch point, appending its item to `out`: the report or
    /// a per-item error. `Err(())` means the request deadline tripped
    /// mid-analysis (the caller turns the whole tail into a 504); nothing
    /// is appended then.
    fn batch_point(&self, point: &Value, token: &CancelToken, out: &mut String) -> Result<(), ()> {
        if !matches!(point, Value::Obj(_)) {
            out.push_str("{\"error\":\"batch point must be a JSON object\"}");
            return Ok(());
        }
        let p = match Point::resolve(point) {
            Ok(p) if p.layer.is_none() => {
                out.push_str("{\"error\":\"batch point missing `layer`\"}");
                return Ok(());
            }
            Ok(p) => p,
            Err(r) => {
                out.push_str(&r.body);
                return Ok(());
            }
        };
        match self.lookup(&p, token, false) {
            Ok(answers) => p.write_json(out, &answers),
            Err((_, Some(e))) => out.push_str(&analysis_error_response(&e).body),
            Err((_, None)) => return Err(()),
        }
        Ok(())
    }

    /// `POST /v1/conform`.
    fn conform(&self, body: &Value, token: &CancelToken) -> Response {
        let get = |key: &str, dflt: u64| -> Result<u64, Response> {
            match body.get(key) {
                None => Ok(dflt),
                Some(v) => v.as_u64().ok_or_else(|| {
                    error_response(400, &format!("`{key}` must be a non-negative integer"))
                }),
            }
        };
        let mut cfg = maestro_sim::ConformConfig::default();
        cfg.seed = match get("seed", cfg.seed) {
            Ok(v) => v,
            Err(r) => return r,
        };
        cfg.cases = match get("cases", cfg.cases) {
            Ok(v) => v,
            Err(r) => return r,
        };
        cfg.max_steps = match get("max_steps", cfg.max_steps) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let report = maestro_sim::run_conform_cancellable(&cfg, token);
        crate::trace::mark("serialize");
        let js = match serde_json::to_string(&report) {
            Ok(js) => js,
            Err(e) => return error_response(500, &e.to_string()),
        };
        if report.interrupted {
            self.metrics.timeouts.inc();
            timeout_response(report.cases as usize, cfg.cases as usize, Some(&js))
        } else {
            Response::json(200, js)
        }
    }
}

/// One analyze point (a `/v1/analyze` body or a `/v1/batch` item),
/// resolved: a zoo model, the dataflow and accelerator to price it on,
/// and the one layer asked for (`None`: the whole model).
struct Point {
    model: &'static Model,
    dataflow: &'static Dataflow,
    acc: Accelerator,
    layer: Option<&'static Layer>,
}

impl Point {
    /// The one point resolver. Fields are checked in the order clients
    /// see their errors: model, dataflow, accelerator, then layer.
    fn resolve(body: &Value) -> Result<Point, Response> {
        let model = zoo_model(body)?;
        let dataflow = load_dataflow(body)?;
        let acc = accelerator(body)?;
        let layer = match body.get("layer").and_then(Value::as_str).unwrap_or("") {
            "" => None,
            name => Some(model.layer(name).ok_or_else(|| {
                error_response(400, &format!("model {} has no layer `{name}`", model.name))
            })?),
        };
        Ok(Point {
            model,
            dataflow,
            acc,
            layer,
        })
    }

    /// The layers this point prices, in model order.
    fn layers(&self) -> &'static [Layer] {
        match self.layer {
            Some(layer) => std::slice::from_ref(layer),
            None => self.model.layers(),
        }
    }

    /// The one analyze encoder, appending to `out`:
    /// `{"model","layer","report"}` for one layer, the whole
    /// `ModelReport` otherwise, spliced from `answers` (one per layer of
    /// [`Point::layers`]) under the layers' own names.
    fn write_json(&self, out: &mut String, answers: &[ReportJson]) {
        out.reserve(answers.iter().map(|a| a.as_str().len() + 64).sum::<usize>() + 64);
        match (self.layer, answers.first()) {
            (Some(layer), Some(answer)) => {
                out.push_str("{\"model\":");
                serde::write_escaped(out, &self.model.name);
                out.push_str(",\"layer\":");
                serde::write_escaped(out, &layer.name);
                out.push_str(",\"report\":");
                answer.write_named(out, &layer.name);
                out.push('}');
            }
            _ => ReportJson::write_model(
                out,
                &self.model.name,
                self.layers().iter().map(|l| l.name.as_str()).zip(answers),
            ),
        }
    }
}

/// The `Retry-After` arithmetic behind [`ApiCtx::retry_hint`], pure so
/// it can be pinned: the time for `queued` waiting connections (plus the
/// one being shed) to drain through `workers` at the observed median
/// service time, rounded up and clamped to `[1, drain_secs]`.
pub fn retry_after_secs(p50_secs: f64, queued: usize, workers: usize, drain_secs: u64) -> u64 {
    let queued = queued as f64 + 1.0;
    let workers = workers.max(1) as f64;
    let secs = (queued * p50_secs / workers).ceil() as u64;
    secs.clamp(1, drain_secs.max(1))
}

/// `{"error": <msg>}` with the given status.
pub fn error_response(status: u16, msg: &str) -> Response {
    let mut r = Response::json(status, format!("{{\"error\":{}}}", json_str(msg)));
    // Client-fault statuses close the connection: the parser state after
    // a rejected request is untrustworthy.
    r.close = status == 400 || status == 408 || status == 413;
    r
}

/// The typed `504` carrying the partial-result marker.
fn timeout_response(completed: usize, total: usize, partial_result: Option<&str>) -> Response {
    let result = match partial_result {
        Some(js) => format!(",\"result\":{js}"),
        None => String::new(),
    };
    Response::json(
        504,
        format!(
            "{{\"error\":\"deadline exceeded\",\"partial\":true,\
             \"completed_units\":{completed},\"total_units\":{total}{result}}}"
        ),
    )
}

fn analysis_error_response(e: &AnalysisError) -> Response {
    match e {
        // The client's configuration cannot be analyzed: their fault.
        AnalysisError::Layer(_) | AnalysisError::Resolve(_) => error_response(400, &e.to_string()),
        _ => error_response(500, &e.to_string()),
    }
}

/// The zoo model `body` names (`vgg16` when it names none), under the
/// names and aliases of [`zoo::by_name`], at batch 1. The models are built
/// once per process, on first use.
fn zoo_model(body: &Value) -> Result<&'static Model, Response> {
    static ZOO: OnceLock<Vec<(&[&str], Model)>> = OnceLock::new();
    let name = body.get("model").and_then(Value::as_str).unwrap_or("vgg16");
    ZOO.get_or_init(|| {
        zoo::NAMED
            .iter()
            .map(|&(names, build)| (names, build(1)))
            .collect()
    })
    .iter()
    .find(|(names, _)| names.contains(&name))
    .map(|(_, model)| model)
    .ok_or_else(|| {
        error_response(
            400,
            &format!("unknown zoo model `{name}` (the daemon serves zoo models only)"),
        )
    })
}

/// The dataflow of the style `body` names (`KC-P` when it names none).
/// The five styles' dataflows are built once per process, on first use.
fn load_dataflow(body: &Value) -> Result<&'static Dataflow, Response> {
    static FLOWS: OnceLock<Vec<(Style, Dataflow)>> = OnceLock::new();
    let spec = body
        .get("dataflow")
        .and_then(Value::as_str)
        .unwrap_or("KC-P");
    let flows = FLOWS.get_or_init(|| Style::ALL.into_iter().map(|s| (s, s.dataflow())).collect());
    find_style(spec)
        .and_then(|style| flows.iter().find(|(s, _)| *s == style))
        .map(|(_, dataflow)| dataflow)
        .ok_or_else(|| error_response(400, &format!("unknown dataflow style `{spec}`")))
}

fn find_style(spec: &str) -> Option<Style> {
    Style::ALL
        .into_iter()
        .find(|s| s.short_name().eq_ignore_ascii_case(spec) || s.alias().eq_ignore_ascii_case(spec))
}

fn accelerator(body: &Value) -> Result<Accelerator, Response> {
    let get = |key: &str, dflt: u64| match body.get(key) {
        None => Ok(dflt),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| error_response(400, &format!("`{key}` must be a non-negative integer"))),
    };
    let pes = get("pes", 256)?;
    let bw = get("bw", 32)?;
    if bw == 0 {
        return Err(error_response(400, "`bw` must be a positive integer"));
    }
    let l1 = get("l1", 2048)?;
    let l2 = get("l2", 1 << 20)?;
    Ok(Accelerator::builder(pes)
        .noc_bandwidth(bw)
        .l1_bytes(l1)
        .l2_bytes(l2)
        .build())
}

/// JSON-escape a string (delegates to the serde shim's writer).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    serde::write_escaped(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Regression: `/v1/dse` used to clamp `threads` only to a hardwired
    // 64 — a handful of concurrent requests could claim hundreds of
    // scoped threads. The cap is now server-side configuration.
    #[test]
    fn effective_threads_clamps_to_the_server_cap() {
        assert_eq!(
            effective_threads(0, 8),
            1,
            "absent/zero runs single-threaded"
        );
        assert_eq!(effective_threads(1, 8), 1);
        assert_eq!(effective_threads(4, 8), 4);
        assert_eq!(
            effective_threads(u64::MAX, 8),
            8,
            "no request exceeds the cap"
        );
        assert_eq!(effective_threads(1_000_000, 2), 2);
        assert_eq!(
            effective_threads(5, 0),
            1,
            "a zero cap still serves one thread"
        );
    }

    // Satellite: the shed path's `Retry-After` is computed from queue
    // depth and the observed median service time, clamped to
    // `[1, drain-seconds]` — never the old hard-coded 1.
    #[test]
    fn retry_after_is_drain_time_clamped_to_the_drain_deadline() {
        // Empty queue, fast service: floor of 1 second.
        assert_eq!(retry_after_secs(0.01, 0, 4, 5), 1);
        // 8 queued at ~1s median through 4 workers: ceil(9/4) = 3.
        assert_eq!(retry_after_secs(1.0, 8, 4, 5), 3);
        // A deep queue of slow requests hits the drain-deadline ceiling.
        assert_eq!(retry_after_secs(2.0, 63, 2, 5), 5);
        // Degenerate inputs stay in range.
        assert_eq!(retry_after_secs(0.25, 0, 0, 0), 1);
        assert_eq!(retry_after_secs(1000.0, 1000, 1, 30), 30);
    }

    #[test]
    fn request_classes_cover_the_route_table() {
        let req = |method: &str, path: &str| Request {
            method: method.to_string(),
            path: path.to_string(),
            body: Vec::new(),
            close: false,
        };
        for path in ["/healthz", "/readyz", "/metrics", "/debug/traces"] {
            assert_eq!(classify(&req("GET", path)), ReqClass::Critical, "{path}");
        }
        assert_eq!(classify(&req("POST", "/v1/analyze")), ReqClass::Normal);
        assert_eq!(classify(&req("POST", "/v1/batch")), ReqClass::Normal);
        assert_eq!(classify(&req("POST", "/v1/dse")), ReqClass::Heavy);
        assert_eq!(classify(&req("POST", "/v1/conform")), ReqClass::Heavy);
        // Unroutable requests are answered (404) rather than shed.
        assert_eq!(classify(&req("GET", "/nope")), ReqClass::Critical);
    }
}
