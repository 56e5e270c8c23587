//! The daemon: acceptor, bounded admission queue, worker pool, drain.
//!
//! Thread topology: the caller's thread runs the accept loop (and later
//! the drain); `workers` fixed threads pop connections from the bounded
//! queue and serve keep-alive request loops. There is no async runtime —
//! requests are CPU-bound analysis calls, so the pool *is* the
//! concurrency limit and the queue bound *is* the admission policy.
//!
//! The acceptor *blocks* in `accept(2)` — no poll loop, no latency
//! floor. Because the process interrupt flag is poll-only (the signal
//! handler just stores an atomic; there is nothing to `connect` a
//! condvar to), a dedicated `serve-acceptor-waker` thread polls the
//! shutdown token and, when it trips, performs one throwaway loopback
//! connection to the listener — the *wake token* — so the blocked
//! `accept` returns and the acceptor observes the drain. Connections
//! accepted after the token tripped (the wake token itself, or a client
//! that raced the signal) are closed unserved, exactly as the old
//! nonblocking loop left them to die in the backlog.
//!
//! Cancellation topology (the part that must not be gotten wrong):
//!
//! * the `shutdown` token passed to [`Server::run`] typically heeds the
//!   process interrupt flag — `SIGTERM` starts the drain;
//! * [`ApiCtx::request_root`] is **detached**: in-flight requests keep
//!   running through a drain (an accepted request is a promise);
//! * each request runs under `request_root.child_with_deadline(..)`, so
//!   per-request deadlines stay per-request;
//! * only when the drain deadline expires does the server cancel
//!   `request_root`, turning the stragglers into `504`s — still
//!   *written* responses, never dropped connections — and reports
//!   [`DrainOutcome::Forced`] (the CLI maps it to exit 7).

use crate::api::{classify, error_response, ApiCtx, Handled, ReqClass};
use crate::chaos::ChaosPlan;
use crate::http::{parse_request, Limits, Parsed, Request, Response};
use crate::queue::{AdmissionCtl, BoundedQueue};
use crate::supervise::{ThreadGuard, WorkerSlot, WorkerTable};
use crate::trace::{AccessLog, RequestTimer};
use maestro_core::Analyzer;
use maestro_obs::trace::{FlightPolicy, FlightRecorder};
use maestro_obs::{Counter, Gauge, Histogram};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration (the CLI's `serve` flags map 1:1 onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7433` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded admission queue depth; a full queue sheds with `503`.
    pub queue_depth: usize,
    /// Deadline for requests that do not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// How long a drain waits for in-flight requests before forcing
    /// cancellation.
    pub drain_deadline: Duration,
    /// Maximum accepted request body size.
    pub max_body_bytes: usize,
    /// Socket read/write timeout (slow-loris guard).
    pub io_timeout: Duration,
    /// Entries per shard of the shared analysis cache (`0` = unbounded).
    pub memo_cap: usize,
    /// Shard count of the shared analysis cache.
    pub shards: usize,
    /// Enable the test-only `POST /v1/panic` endpoint.
    pub test_endpoints: bool,
    /// JSONL access-log destination (`-` = stdout, `None` = off).
    pub access_log: Option<String>,
    /// Flight-recorder ring capacity (kept traces; the memory bound).
    pub trace_capacity: usize,
    /// Keep 1 in this many healthy requests (1 = keep all; errors and
    /// slow requests are always kept).
    pub trace_sample: u64,
    /// Requests at least this slow are always kept.
    pub trace_slow: Duration,
    /// Fixed trace-ID seed (tests); `None` seeds from the clock.
    pub trace_seed: Option<u64>,
    /// Upper bound on the `threads` a single `/v1/dse` request may claim.
    /// `0` (the default) resolves to the host's available parallelism —
    /// without a cap, `workers × threads` scoped threads from concurrent
    /// requests could oversubscribe the host.
    pub max_request_threads: usize,
    /// CoDel target for queue sojourn (accept → worker pop): sustained
    /// sojourn above this sheds at dequeue. Zero disables sojourn
    /// shedding (the queue-full check still applies).
    pub sojourn_target: Duration,
    /// How often the watchdog scans for crashed/wedged workers.
    pub watchdog_interval: Duration,
    /// Minimum live workers for `/readyz` to report ready; `0` means
    /// majority of the configured pool.
    pub worker_quorum: usize,
    /// A busy worker whose heartbeat is older than this is considered
    /// wedged and superseded. Zero disables wedge detection.
    pub wedge_after: Duration,
    /// Seeded fault-injection spec (`--chaos`), e.g.
    /// `read-err:0.01,worker-panic:0.005`; `None` = no injection.
    pub chaos: Option<String>,
    /// Seed for the chaos plan's deterministic draws.
    pub chaos_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7433".to_string(),
            workers: 4,
            queue_depth: 64,
            default_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            max_body_bytes: 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            memo_cap: maestro_core::DEFAULT_CACHE_CAP,
            shards: 8,
            test_endpoints: false,
            access_log: None,
            trace_capacity: 256,
            trace_sample: 16,
            trace_slow: Duration::from_millis(100),
            trace_seed: None,
            max_request_threads: 0,
            sojourn_target: Duration::from_millis(500),
            watchdog_interval: Duration::from_millis(250),
            worker_quorum: 0,
            wedge_after: Duration::from_secs(30),
            chaos: None,
            chaos_seed: 0,
        }
    }
}

/// How a drain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every in-flight request finished inside the drain deadline.
    Clean,
    /// The drain deadline expired; in-flight request tokens were
    /// cancelled (their responses were still written as `504`s).
    Forced,
}

/// Serve-plane metrics, registered in the process-global registry under
/// `maestro.serve.*` (exposed as `maestro_serve_*`).
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Requests parsed and dispatched.
    pub requests_total: Counter,
    /// Connections shed by admission control (`503`).
    pub shed: Counter,
    /// Handler panics isolated by `catch_unwind` (`500`).
    pub panics: Counter,
    /// Requests that hit their deadline (`504`).
    pub timeouts: Counter,
    /// Requests rejected by the HTTP parser (`400`/`408`/`413`).
    pub bad_requests: Counter,
    /// Connections accepted (admitted or shed).
    pub connections: Counter,
    /// Response writes that failed (client gone before the body landed).
    pub write_failures: Counter,
    /// Connections shed at dequeue by the CoDel sojourn controller.
    pub shed_sojourn: Counter,
    /// Requests shed by class-based brownout (heavy work under pressure,
    /// uncached analyzes in brownout).
    pub brownout_shed: Counter,
    /// Analyze requests served cache-only with `x-maestro-degraded`.
    pub degraded: Counter,
    /// Worker threads respawned by the watchdog (crashes + wedges).
    pub worker_restarts: Counter,
    /// Faults injected by the `--chaos` plan.
    pub chaos_injected: Counter,
    /// Requests currently being served.
    pub in_flight: Gauge,
    /// Workers currently counting toward the `/readyz` quorum (refreshed
    /// by the watchdog).
    pub workers_live: Gauge,
    /// Connections admitted but not yet popped by a worker (sampled on
    /// every push and pop).
    pub queue_depth: Gauge,
    /// Seconds since the daemon started (refreshed on `/metrics`).
    pub uptime_seconds: Gauge,
    /// End-to-end request service time (seconds), log-spaced buckets.
    pub request_seconds: Histogram,
}

impl ServeMetrics {
    /// Register (or re-attach to) the serve-plane metrics.
    pub fn register() -> ServeMetrics {
        Self::register_in(maestro_obs::registry())
    }

    /// The serve-plane metrics in registry `r` (unit tests use a private
    /// one, so their counts are not shared with concurrent tests).
    fn register_in(r: &maestro_obs::Registry) -> ServeMetrics {
        ServeMetrics {
            requests_total: r.counter("maestro.serve.requests_total"),
            shed: r.counter("maestro.serve.shed"),
            panics: r.counter("maestro.serve.panics"),
            timeouts: r.counter("maestro.serve.timeouts"),
            bad_requests: r.counter("maestro.serve.bad_requests"),
            connections: r.counter("maestro.serve.connections"),
            write_failures: r.counter("maestro.serve.write_failures"),
            shed_sojourn: r.counter("maestro.serve.shed_sojourn"),
            brownout_shed: r.counter("maestro.serve.brownout_shed"),
            degraded: r.counter("maestro.serve.degraded"),
            worker_restarts: r.counter("maestro.serve.worker_restarts"),
            chaos_injected: r.counter("maestro.serve.chaos_injected"),
            in_flight: r.gauge("maestro.serve.in_flight"),
            workers_live: r.gauge("maestro.serve.workers_live"),
            queue_depth: r.gauge("maestro.serve.queue_depth"),
            uptime_seconds: r.gauge("maestro.serve.uptime_seconds"),
            // Log-spaced: 3 buckets per decade from 100µs to 10s, so a
            // single-digit-millisecond p99 is interpolated inside a
            // ~2x-wide bucket instead of a 5x-wide fixed one.
            request_seconds: r.histogram(
                "maestro.serve.request_seconds",
                &maestro_obs::metrics::log_buckets(1e-4, 10.0, 3),
            ),
        }
    }
}

/// A bound (but not yet running) daemon. Binding is separate from
/// running so the caller can learn the actual port (`addr:0`) before the
/// accept loop takes the thread over.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
}

impl Server {
    /// Bind the listener.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server { listener, cfg })
    }

    /// The bound address (resolves `:0` to the picked port).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop until `shutdown` trips, then drain.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures; serving errors on
    /// individual connections are absorbed (counted, logged) instead.
    pub fn run(self, shutdown: &maestro_obs::CancelToken) -> std::io::Result<DrainOutcome> {
        let Server { listener, cfg } = self;
        let metrics = ServeMetrics::register();
        maestro_obs::registry().info(
            "maestro.build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("git", option_env!("MAESTRO_GIT_HASH").unwrap_or("unknown")),
            ],
        );
        if let Some(seed) = cfg.trace_seed {
            maestro_obs::trace::seed_trace_ids(seed);
        }
        FlightRecorder::global().configure(FlightPolicy {
            capacity: cfg.trace_capacity,
            sample_k: cfg.trace_sample,
            slow_us: cfg.trace_slow.as_micros() as u64,
        });
        let access: Option<Arc<AccessLog>> = match &cfg.access_log {
            None => None,
            Some(path) => Some(Arc::new(AccessLog::open(path)?)),
        };
        let chaos = match &cfg.chaos {
            None => None,
            Some(spec) => Some(Arc::new(ChaosPlan::parse(spec, cfg.chaos_seed).map_err(
                |e| std::io::Error::new(ErrorKind::InvalidInput, format!("chaos spec: {e}")),
            )?)),
        };
        let worker_count = cfg.workers.max(1);
        let admission = Arc::new(AdmissionCtl::new(cfg.sojourn_target));
        let table = Arc::new(WorkerTable::new(
            worker_count,
            cfg.worker_quorum,
            cfg.wedge_after,
        ));
        let ctx = Arc::new(ApiCtx {
            cache: Analyzer::new(cfg.shards, cfg.memo_cap),
            request_root: maestro_obs::CancelToken::detached(),
            default_deadline: cfg.default_deadline,
            ready: AtomicBool::new(true),
            test_endpoints: cfg.test_endpoints,
            metrics: metrics.clone(),
            started: Instant::now(),
            max_request_threads: if cfg.max_request_threads > 0 {
                cfg.max_request_threads
            } else {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(8)
            },
            admission,
            workers: Arc::clone(&table),
            queue_len: Arc::new(AtomicUsize::new(0)),
            queue_cap: cfg.queue_depth.max(1),
            drain_secs: cfg.drain_deadline.as_secs().max(1),
        });
        let queue: Arc<BoundedQueue<(TcpStream, Instant)>> =
            Arc::new(BoundedQueue::new(cfg.queue_depth));
        let in_flight = Arc::new(AtomicU64::new(0));
        let limits = Limits {
            max_head_bytes: Limits::default().max_head_bytes,
            max_body_bytes: cfg.max_body_bytes,
        };

        let shared = Arc::new(WorkerShared {
            queue: Arc::clone(&queue),
            ctx: Arc::clone(&ctx),
            table: Arc::clone(&table),
            in_flight: Arc::clone(&in_flight),
            io_timeout: cfg.io_timeout,
            limits,
            access: access.clone(),
            chaos,
        });
        let mut pool = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let slot = table.new_slot(i);
            let handle = spawn_worker(&shared, Arc::clone(&slot))?;
            pool.push((slot, handle));
        }
        metrics.workers_live.set(table.live() as f64);
        let watchdog = {
            let shared = Arc::clone(&shared);
            let interval = cfg.watchdog_interval.max(Duration::from_millis(10));
            std::thread::Builder::new()
                .name("serve-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared, pool, interval))?
        };

        // The acceptor blocks in `accept(2)`; this thread is the only way
        // it learns about a drain. The interrupt flag is poll-only (the
        // signal handler just stores an atomic), so the waker polls the
        // token and then unblocks the acceptor with one throwaway
        // loopback connection — the wake token.
        let wake_addr = {
            let mut a = listener.local_addr()?;
            if a.ip().is_unspecified() {
                // `accept` listens on the wildcard; `connect` needs a
                // concrete address.
                a.set_ip(match a {
                    SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                    SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
                });
            }
            a
        };
        let waker_token = shutdown.clone();
        let waker = std::thread::Builder::new()
            .name("serve-acceptor-waker".to_string())
            .spawn(move || {
                while !waker_token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                for attempt in 0..3 {
                    match TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1)) {
                        // The accepted-and-dropped wake connection is all
                        // the acceptor needs; the stream closes here.
                        Ok(_) => return,
                        Err(e) if attempt == 2 => {
                            // The acceptor may have already observed the
                            // accept error path and broken out; if not,
                            // SIGKILL remains the operator's backstop.
                            maestro_obs::warn!("serve: acceptor wake failed: {e}");
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;

        maestro_obs::info!(
            "serve: listening with {} workers, queue depth {}",
            cfg.workers.max(1),
            cfg.queue_depth
        );
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if shutdown.is_cancelled() {
                        // The wake token, or a client that raced the
                        // signal: close it unserved, same as the old
                        // nonblocking loop left the backlog to die.
                        drop(stream);
                        break;
                    }
                    metrics.connections.inc();
                    match queue.try_push((stream, Instant::now())) {
                        Ok(()) => {
                            let depth = queue.len();
                            ctx.queue_len.store(depth, Ordering::Relaxed);
                            metrics.queue_depth.set(depth as f64);
                        }
                        Err((stream, accepted)) => shed(
                            stream,
                            accepted,
                            &metrics,
                            cfg.io_timeout,
                            access.as_deref(),
                            ctx.retry_hint(),
                        ),
                    }
                }
                Err(_) if shutdown.is_cancelled() => break,
                Err(e) => {
                    // Transient accept failures (EMFILE, ECONNABORTED):
                    // back off briefly and keep serving.
                    maestro_obs::warn!("serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        // The waker either already connected (that is why accept woke) or
        // is about to; it never blocks longer than its connect timeout.
        let _ = waker.join();

        // --- Drain ---------------------------------------------------
        // Stop admitting: readiness off, listener closed, queue refuses
        // producers but keeps already-admitted connections poppable. The
        // table flips to draining so the watchdog stops wedge-replacing
        // (but keeps respawning crashed workers while the queue holds
        // admitted connections — the drain promise needs a pool).
        ctx.ready.store(false, Ordering::Relaxed);
        drop(listener);
        table.set_draining();
        queue.close();
        maestro_obs::info!("serve: drain started (deadline {:?})", cfg.drain_deadline);
        let t0 = Instant::now();
        // The watchdog owns the join handles (it reaps and respawns), so
        // the drain waits on the table's active-thread count instead —
        // every worker registration is RAII and survives panics.
        let outcome = if wait_for_threads(&table, t0, cfg.drain_deadline) {
            DrainOutcome::Clean
        } else {
            // The deadline expired with requests still in flight: cancel
            // their tokens so they finish as 504s, then give them a short
            // grace period to write those responses out.
            maestro_obs::warn!(
                "serve: drain deadline expired with {} requests in flight — cancelling",
                in_flight.load(Ordering::Relaxed)
            );
            ctx.request_root.cancel();
            wait_for_threads(&table, Instant::now(), Duration::from_secs(2));
            DrainOutcome::Forced
        };
        if outcome == DrainOutcome::Clean {
            // Every worker left its loop; the watchdog notices the empty
            // pool on its next tick and exits.
            if watchdog.join().is_err() {
                maestro_obs::error!("serve: the watchdog thread panicked");
            }
        } else {
            // A stuck worker keeps its handle unfinished forever; the
            // watchdog (like the stuck worker) is detached and reaped by
            // process exit.
            drop(watchdog);
        }
        maestro_obs::info!(
            "serve: drained in {:.3}s ({})",
            t0.elapsed().as_secs_f64(),
            match outcome {
                DrainOutcome::Clean => "clean",
                DrainOutcome::Forced => "forced",
            }
        );
        Ok(outcome)
    }
}

/// Everything a worker thread (original or respawned) needs, bundled so
/// the watchdog can spawn replacements with one `Arc` clone.
struct WorkerShared {
    queue: Arc<BoundedQueue<(TcpStream, Instant)>>,
    ctx: Arc<ApiCtx>,
    table: Arc<WorkerTable>,
    in_flight: Arc<AtomicU64>,
    io_timeout: Duration,
    limits: Limits,
    access: Option<Arc<AccessLog>>,
    chaos: Option<Arc<ChaosPlan>>,
}

/// Spawn one worker thread bound to `slot`. The loop beats the slot's
/// heartbeat at every iteration and around every connection; an injected
/// `worker-panic` fires *before* popping, so a chaos kill never takes an
/// admitted connection down with the thread.
fn spawn_worker(
    shared: &Arc<WorkerShared>,
    slot: Arc<WorkerSlot>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("serve-worker-{}", slot.index))
        .spawn(move || {
            let _guard = ThreadGuard::register(Arc::clone(&shared.table), Arc::clone(&slot));
            loop {
                slot.beat(shared.table.now_ms());
                if slot.is_superseded() {
                    // The watchdog gave up on this slot while it was
                    // wedged and spawned a replacement; exiting here
                    // avoids double-serving.
                    break;
                }
                if let Some(chaos) = &shared.chaos {
                    if chaos.worker_panic() {
                        shared.ctx.metrics.chaos_injected.inc();
                        panic!("chaos: injected worker panic");
                    }
                }
                let Some((stream, accepted)) = shared.queue.pop() else {
                    break; // queue closed and drained
                };
                let depth = shared.queue.len();
                shared.ctx.queue_len.store(depth, Ordering::Relaxed);
                shared.ctx.metrics.queue_depth.set(depth as f64);
                slot.set_busy(true, shared.table.now_ms());
                serve_connection(
                    stream,
                    accepted,
                    &shared.ctx,
                    &shared.in_flight,
                    shared.io_timeout,
                    &shared.limits,
                    shared.access.as_deref(),
                    shared.chaos.as_deref(),
                );
                slot.set_busy(false, shared.table.now_ms());
            }
        })
}

/// The watchdog: reap finished worker threads, respawn crashed ones,
/// supersede wedged ones, refresh the liveness gauges. Runs until the
/// drain finishes cleanly (draining + queue empty + no handles left);
/// a forced drain detaches it instead.
fn watchdog_loop(
    shared: &Arc<WorkerShared>,
    mut pool: Vec<(Arc<WorkerSlot>, std::thread::JoinHandle<()>)>,
    interval: Duration,
) {
    let metrics = &shared.ctx.metrics;
    let table = &shared.table;
    let mut last_scan = Instant::now();
    loop {
        // Sleep in small chunks so a drain is noticed (and drained
        // workers reaped) promptly even under a long scan interval; the
        // crash/wedge scan itself still runs once per `interval`.
        std::thread::sleep(interval.min(Duration::from_millis(25)));
        let draining = table.is_draining();
        if !draining && last_scan.elapsed() < interval {
            continue;
        }
        last_scan = Instant::now();
        // Reap finished threads; a panicked worker is respawned into the
        // same slot index. During a drain the pool is only sustained
        // while admitted connections remain — a crash afterwards is just
        // a thread that already did its job.
        let mut alive = Vec::with_capacity(pool.len());
        for (slot, handle) in pool {
            if !handle.is_finished() {
                alive.push((slot, handle));
                continue;
            }
            let crashed = handle.join().is_err();
            if !crashed {
                continue; // clean exit: drained queue or superseded slot
            }
            maestro_obs::warn!("serve: worker {} crashed", slot.index);
            if !slot.is_superseded() && (!draining || !shared.queue.is_empty()) {
                let fresh = table.new_slot(slot.index);
                match spawn_worker(shared, Arc::clone(&fresh)) {
                    Ok(h) => {
                        metrics.worker_restarts.inc();
                        maestro_obs::info!("serve: worker {} respawned", fresh.index);
                        alive.push((fresh, h));
                    }
                    Err(e) => {
                        maestro_obs::error!("serve: failed to respawn worker {}: {e}", slot.index);
                    }
                }
            }
        }
        pool = alive;
        // Wedge scan: a busy worker silent past the threshold cannot be
        // killed (std threads have no safe cancellation), so its slot is
        // superseded — out of quorum, told to exit if it ever returns —
        // and a replacement takes the index. Skipped while draining:
        // stragglers there are the drain deadline's problem.
        if !draining {
            let now = table.now_ms();
            let wedged: Vec<Arc<WorkerSlot>> = pool
                .iter()
                .filter(|(slot, _)| slot.is_wedged(now, table.wedge_after))
                .map(|(slot, _)| Arc::clone(slot))
                .collect();
            for slot in wedged {
                slot.supersede();
                maestro_obs::warn!(
                    "serve: worker {} wedged (heartbeat {}ms old) — superseding",
                    slot.index,
                    slot.heartbeat_age_ms(now)
                );
                let fresh = table.new_slot(slot.index);
                match spawn_worker(shared, Arc::clone(&fresh)) {
                    Ok(h) => {
                        metrics.worker_restarts.inc();
                        pool.push((fresh, h));
                    }
                    Err(e) => {
                        maestro_obs::error!(
                            "serve: failed to replace wedged worker {}: {e}",
                            slot.index
                        );
                    }
                }
            }
        }
        metrics.workers_live.set(table.live() as f64);
        let now = table.now_ms();
        for slot in table.slots() {
            maestro_obs::registry()
                .gauge(&format!(
                    "maestro.serve.worker_heartbeat_age_ms.{}",
                    slot.index
                ))
                .set(slot.heartbeat_age_ms(now) as f64);
        }
        table.retire_dead();
        if draining && shared.queue.is_empty() && pool.is_empty() {
            return;
        }
    }
}

/// Poll until every registered worker thread has left its loop (their
/// RAII guards hit zero) or `budget` elapsed.
fn wait_for_threads(table: &WorkerTable, t0: Instant, budget: Duration) -> bool {
    loop {
        if table.active_threads() == 0 {
            return true;
        }
        if t0.elapsed() >= budget {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Admission-control rejection: immediate `503` + `Retry-After`, close.
/// `retry_after` is the computed drain-time hint (see
/// `ApiCtx::retry_hint`), not a constant.
fn shed(
    mut stream: TcpStream,
    accepted: Instant,
    metrics: &ServeMetrics,
    io_timeout: Duration,
    access: Option<&AccessLog>,
    retry_after: u64,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(io_timeout.min(Duration::from_secs(1))));
    write_shed(&mut stream, accepted, metrics, access, retry_after);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Write the queue-full `503` to `sink` under the `shed` route. Shed
/// requests get a trace too — a 503 outcome is always tail-kept, so
/// overload events stay diagnosable after the fact — and a failed write
/// is accounted like any other (see [`write_and_account`]).
fn write_shed<W: Write>(
    sink: &mut W,
    accepted: Instant,
    metrics: &ServeMetrics,
    access: Option<&AccessLog>,
    retry_after: u64,
) {
    metrics.shed.inc();
    let mut timer = RequestTimer::begin(accepted);
    timer.mark("shed");
    let mut resp = error_response(503, "server is at capacity, retry later");
    resp.retry_after = Some(retry_after);
    resp.trace = Some(timer.id().to_hex());
    resp.close = true;
    crate::trace::install(timer);
    write_and_account(
        sink,
        &resp.to_bytes(),
        "shed",
        resp.status,
        resp.body.len() as u64,
        metrics,
        access,
    );
}

/// Serve one connection: a keep-alive loop of parse → handle → respond.
///
/// Trace anchoring: the connection's *first* request is anchored at
/// `accepted`, so its `queue` phase is the real admission wait
/// (accept → worker pop). Keep-alive successors are anchored at the
/// first byte observed after the previous response — client think time
/// between requests is idle line time, not served latency, and is left
/// out of the trace.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    stream: TcpStream,
    accepted: Instant,
    ctx: &ApiCtx,
    in_flight: &AtomicU64,
    io_timeout: Duration,
    limits: &Limits,
    access: Option<&AccessLog>,
    chaos: Option<&ChaosPlan>,
) {
    let popped = Instant::now();
    if let Some(plan) = chaos {
        // Injected read error: the connection dies before any request
        // byte is read — the client sees a clean reset (zero response
        // bytes), never a truncated response.
        if plan.read_error() {
            ctx.metrics.chaos_injected.inc();
            return;
        }
    }
    let mut stream = stream;
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(io_timeout)).is_err()
        || stream.set_write_timeout(Some(io_timeout)).is_err()
    {
        return;
    }
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8 * 1024];
    // `Some` until the first request completes parsing.
    let mut first: Option<(Instant, Instant)> = Some((accepted, popped));
    // First instant bytes of the *current* request were observed.
    let mut first_byte: Option<Instant> = None;
    // No response byte written yet (gates chaos write faults: injecting
    // after the first response would truncate, not refuse).
    let mut wrote_any = false;
    loop {
        match parse_request(&buf, limits) {
            Ok(Parsed::Complete { req, consumed }) => {
                buf.drain(..consumed);
                let parsed_at = Instant::now();
                let first_info = first.take();
                let mut timer = match first_info {
                    Some((accepted, popped)) => {
                        let mut t = RequestTimer::begin(accepted);
                        t.phase_span("queue", accepted, popped);
                        t.phase_span("parse", popped, parsed_at);
                        t
                    }
                    None => {
                        let anchor = first_byte.unwrap_or(parsed_at);
                        let mut t = RequestTimer::begin(anchor);
                        t.phase_span("parse", anchor, parsed_at);
                        t
                    }
                };
                // CoDel sojourn shed, decided at dequeue with the parsed
                // request in hand: only the connection's first request
                // carries queue sojourn, and critical-class probes
                // (health/metrics) are never shed — nor fed to the
                // controller, so they don't consume drop tokens.
                if let Some((q_accepted, q_popped)) = first_info {
                    if ctx.admission.enabled() && classify(&req) != ReqClass::Critical {
                        let sojourn = q_popped.duration_since(q_accepted);
                        if ctx.admission.on_dequeue(sojourn, q_popped) {
                            ctx.metrics.shed_sojourn.inc();
                            timer.mark("shed");
                            let mut resp =
                                ctx.shed_response("queue sojourn exceeded target, request shed");
                            resp.close = true;
                            resp.trace = Some(timer.id().to_hex());
                            let route = format!("{} {}", req.method, req.path);
                            crate::trace::install(timer);
                            write_and_account(
                                &mut stream,
                                &resp.to_bytes(),
                                &route,
                                resp.status,
                                resp.body.len() as u64,
                                &ctx.metrics,
                                access,
                            );
                            return;
                        }
                    }
                }
                first_byte = if buf.is_empty() {
                    None
                } else {
                    // Pipelined bytes of the next request are already
                    // buffered; its clock starts now.
                    Some(parsed_at)
                };
                // Keep the `parse` attribution open across routing and
                // body decode; `ApiCtx::with_body` advances it.
                timer.mark("parse");
                let route = format!("{} {}", req.method, req.path);
                crate::trace::install(timer);
                match serve_request(ctx, &req, in_flight, &stream, chaos) {
                    Handled::Response(resp) => {
                        let close = resp.close || req.close || !ctx.ready.load(Ordering::Relaxed);
                        let mut resp = resp;
                        resp.close = close;
                        if resp.trace.is_none() {
                            resp.trace = crate::trace::active_id().map(|id| id.to_hex());
                        }
                        if let Some(plan) = chaos {
                            if !wrote_any {
                                // Both write faults only fire before the
                                // connection's first response byte: a
                                // skipped or late *first* response is a
                                // refusal the client can retry; the same
                                // fault mid keep-alive would be a torn
                                // stream.
                                if let Some(delay) = plan.write_delay() {
                                    ctx.metrics.chaos_injected.inc();
                                    std::thread::sleep(delay);
                                }
                                if plan.write_error() {
                                    ctx.metrics.chaos_injected.inc();
                                    ctx.metrics.write_failures.inc();
                                    crate::trace::finish_active_write_failed(&route, access);
                                    return;
                                }
                            }
                        }
                        let bytes = resp.to_bytes();
                        let write_failed = write_and_account(
                            &mut stream,
                            &bytes,
                            &route,
                            resp.status,
                            resp.body.len() as u64,
                            &ctx.metrics,
                            access,
                        );
                        wrote_any = true;
                        if write_failed || close {
                            return;
                        }
                    }
                    Handled::Streamed(sum) => {
                        // The handler already wrote the NDJSON response;
                        // only the accounting and the close remain (EOF
                        // is the framing — streams never keep-alive).
                        if sum.write_failed {
                            ctx.metrics.write_failures.inc();
                            crate::trace::finish_active_write_failed(&route, access);
                        } else {
                            crate::trace::finish_active(&route, sum.status, sum.bytes, access);
                        }
                        return;
                    }
                }
            }
            Ok(Parsed::Partial) => match stream.read(&mut chunk) {
                Ok(0) => return, // EOF (possibly mid-request: nothing to answer)
                Ok(n) => {
                    if buf.is_empty() && n > 0 && first_byte.is_none() {
                        first_byte = Some(Instant::now());
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    // Slow-loris: bytes of an unfinished request arrived,
                    // then the line went quiet past the read timeout.
                    if !buf.is_empty() {
                        ctx.metrics.bad_requests.inc();
                        let mut resp = error_response(408, "request timed out");
                        reject_with_trace(
                            &mut stream,
                            &mut resp,
                            first.take().map(|(a, _)| a).or(first_byte),
                            &ctx.metrics,
                            access,
                        );
                    }
                    return;
                }
                Err(_) => return,
            },
            Err(e) => {
                ctx.metrics.bad_requests.inc();
                let mut resp = error_response(e.status(), e.describe());
                reject_with_trace(
                    &mut stream,
                    &mut resp,
                    first.take().map(|(a, _)| a).or(first_byte),
                    &ctx.metrics,
                    access,
                );
                return;
            }
        }
    }
}

/// Write a parser-rejection response (`400`/`408`/`413`) under the
/// `reject` route, with a trace: even requests that never parsed get an
/// `x-maestro-trace` header and a recorder entry, anchored at the
/// best-known request start. A failed write is accounted like any other
/// (see [`write_and_account`]).
fn reject_with_trace<W: Write>(
    sink: &mut W,
    resp: &mut Response,
    anchor: Option<Instant>,
    metrics: &ServeMetrics,
    access: Option<&AccessLog>,
) {
    let anchor = anchor.unwrap_or_else(Instant::now);
    let mut timer = RequestTimer::begin(anchor);
    timer.phase_span("parse", anchor, Instant::now());
    resp.trace = Some(timer.id().to_hex());
    crate::trace::install(timer);
    write_and_account(
        sink,
        &resp.to_bytes(),
        "reject",
        resp.status,
        resp.body.len() as u64,
        metrics,
        access,
    );
}

/// Write the response bytes and record the request's true outcome: a
/// failed write is *not* a served request, so it is counted in
/// `write_failures` and traced as a distinct, always-kept `499` record
/// instead of being logged as the success the client never saw.
/// Returns whether the write failed (the caller must close).
fn write_and_account<W: Write>(
    sink: &mut W,
    bytes: &[u8],
    route: &str,
    status: u16,
    body_len: u64,
    metrics: &ServeMetrics,
    access: Option<&AccessLog>,
) -> bool {
    if sink.write_all(bytes).is_err() {
        metrics.write_failures.inc();
        crate::trace::finish_active_write_failed(route, access);
        true
    } else {
        crate::trace::finish_active(route, status, body_len, access);
        false
    }
}

/// Dispatch one request under panic isolation and metrics accounting.
/// The active timer's trace ID is installed as the thread's span context
/// for the duration, so spans recorded by the analysis engines carry it.
/// The socket is in reach so streaming handlers (NDJSON `/v1/dse`) can
/// write incrementally; a panic *mid-stream* still yields a buffered 500
/// — the connection loop appends it and closes, and the client detects
/// the truncation by the absent `"final":true` line.
fn serve_request(
    ctx: &ApiCtx,
    req: &Request,
    in_flight: &AtomicU64,
    stream: &TcpStream,
    chaos: Option<&ChaosPlan>,
) -> Handled {
    if let Some(delay) = chaos.and_then(ChaosPlan::stall) {
        // Injected handler stall: burns request budget and drives queue
        // sojourn up, exercising the deadline and CoDel paths.
        ctx.metrics.chaos_injected.inc();
        std::thread::sleep(delay);
    }
    ctx.metrics.requests_total.inc();
    in_flight.fetch_add(1, Ordering::Relaxed);
    // One atomic add on the gauge itself: the old load-then-`set` pair
    // let two concurrent requests publish the same stale snapshot and
    // leave the gauge permanently skewed.
    ctx.metrics.in_flight.inc();
    let t0 = Instant::now();
    let span_prev = crate::trace::active_id().map(maestro_obs::trace::set_current);
    let handled = match catch_unwind(AssertUnwindSafe(|| ctx.handle_conn(req, stream))) {
        Ok(handled) => handled,
        Err(_) => {
            ctx.metrics.panics.inc();
            let mut r = error_response(500, "internal panic in request handler");
            r.close = true;
            Handled::Response(r)
        }
    };
    if let Some(prev) = span_prev {
        maestro_obs::trace::clear_current(prev);
    }
    ctx.metrics
        .request_seconds
        .observe(t0.elapsed().as_secs_f64());
    in_flight.fetch_sub(1, Ordering::Relaxed);
    ctx.metrics.in_flight.dec();
    handled
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose writes always fail, standing in for a peer that hung
    /// up before the response landed.
    struct FailWriter;

    impl Write for FailWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(ErrorKind::BrokenPipe))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    // Regression: failed response writes used to be logged as successes
    // (the trace finished with the handler's 200 even though the client
    // never saw a byte). Pin the distinct outcome: `write_failures`
    // increments and the trace is force-kept with status 499.
    #[test]
    fn failed_write_is_accounted_as_a_distinct_outcome() {
        let metrics = ServeMetrics::register();
        let before = metrics.write_failures.get();
        crate::trace::install(RequestTimer::begin(Instant::now()));
        let failed = write_and_account(
            &mut FailWriter,
            b"HTTP/1.1 200 OK\r\n\r\n",
            "POST /v1/test-write-fail",
            200,
            0,
            &metrics,
            None,
        );
        assert!(failed, "a failing sink must report write failure");
        assert_eq!(metrics.write_failures.get(), before + 1);
        let kept = FlightRecorder::global()
            .recent()
            .into_iter()
            .find(|r| r.name == "POST /v1/test-write-fail")
            .expect("write-failure trace must be force-kept");
        assert_eq!(
            kept.status, 499,
            "failed writes record 499, not the handler status"
        );

        // The success path must NOT touch the counter.
        crate::trace::install(RequestTimer::begin(Instant::now()));
        let ok = write_and_account(
            &mut Vec::new(),
            b"HTTP/1.1 200 OK\r\n\r\n",
            "POST /v1/test-write-ok",
            200,
            0,
            &metrics,
            None,
        );
        assert!(!ok);
        assert_eq!(metrics.write_failures.get(), before + 1);
    }

    /// The force-kept 499 record of a failed write under `route`.
    fn kept_499(route: &str) -> Option<maestro_obs::TraceRecord> {
        FlightRecorder::global()
            .recent()
            .into_iter()
            .find(|r| r.name == route && r.status == 499)
    }

    // Regression: the queue-full 503 dropped its write error and logged
    // the intended 503 as delivered.
    #[test]
    fn failed_shed_write_is_accounted_as_a_distinct_outcome() {
        let metrics = ServeMetrics::register_in(&maestro_obs::Registry::new());
        write_shed(&mut FailWriter, Instant::now(), &metrics, None, 1);
        assert_eq!(metrics.shed.get(), 1);
        assert_eq!(metrics.write_failures.get(), 1);
        let kept = kept_499("shed").expect("failed shed write must be force-kept as a 499");
        assert_eq!(kept.bytes, 0, "{kept:?}");

        let mut out = Vec::new();
        write_shed(&mut out, Instant::now(), &metrics, None, 3);
        assert_eq!(
            metrics.write_failures.get(),
            1,
            "a delivered shed is no failure"
        );
        let text = String::from_utf8(out).expect("utf-8 response");
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("Retry-After: 3"), "{text}");
    }

    // Regression: parser rejections (400/408/413) dropped their write
    // error and logged the intended status as delivered.
    #[test]
    fn failed_reject_write_is_accounted_as_a_distinct_outcome() {
        let metrics = ServeMetrics::register_in(&maestro_obs::Registry::new());
        let mut resp = error_response(400, "malformed request");
        reject_with_trace(&mut FailWriter, &mut resp, None, &metrics, None);
        assert_eq!(metrics.write_failures.get(), 1);
        let kept = kept_499("reject").expect("failed reject write must be force-kept as a 499");
        assert_eq!(kept.bytes, 0, "{kept:?}");

        let mut out = Vec::new();
        let mut resp = error_response(413, "request too large");
        reject_with_trace(&mut out, &mut resp, None, &metrics, None);
        assert_eq!(
            metrics.write_failures.get(),
            1,
            "a delivered reject is no failure"
        );
        let text = String::from_utf8(out).expect("utf-8 response");
        assert!(text.starts_with("HTTP/1.1 413"), "{text}");
        assert!(text.contains("x-maestro-trace:"), "{text}");
    }
}
