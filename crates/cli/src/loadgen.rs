//! `maestro loadgen`: closed-loop load against a running `maestro serve`.
//!
//! Each client thread fires analyze (or batch, stream or mixed) requests
//! and waits for each reply before it sends again, so at most
//! `--concurrency` requests are ever in flight; to overload a daemon, run
//! more threads than it has workers plus queue slots. A `503` or a
//! refused connection is retried with exponential backoff and jitter,
//! floored at the daemon's computed `Retry-After`, inside a per-request
//! budget, so a retry storm can never run unbounded.
//!
//! Outcome classes: `ok` (a complete `2xx`, latency recorded; `degraded`
//! counts those served in brownout), `shed` (a `503` that outlived its
//! retries), `timeout` (`504`), `4xx`, `5xx`, `refused` (no response byte:
//! a clean rejection, expected once a drain has closed the listener) and
//! `dropped` (a response that started but never completed; a stream
//! counts `ok` only once its `"final":true` line arrived). The daemon's
//! drain guarantee is `dropped == 0`, so a drop exits 1, as does a run
//! with no `ok` at all.

use crate::args::Args;
use crate::client::{self, Exchange};
use crate::{CliError, ErrorKind};
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The `deadline_ms` every request carries.
const DEADLINE_MS: u64 = 2000;
/// How long one request may spend on its retries.
const BUDGET: Duration = Duration::from_millis(4000);
/// Bounds the connect and each socket read and write: twice the
/// request deadline.
const IO_TIMEOUT: Duration = Duration::from_millis(2 * DEADLINE_MS);
/// The layers requests rotate over, so the daemon's cache sees both hits
/// and misses.
const LAYERS: [&str; 4] = ["CONV1", "CONV2", "CONV3", "CONV5"];

/// One client thread's seeded draws: the `n`th is
/// [`maestro_obs::rng::uniform`] at `(worker, n)` under the run's seed.
struct Draws {
    seed: u64,
    worker: u64,
    n: u64,
}

impl Draws {
    /// A uniform integer in `[0, k)`; 0 when `k` is 0.
    fn below(&mut self, k: u64) -> u64 {
        self.n += 1;
        (maestro_obs::rng::uniform(self.seed, [self.worker, self.n, 0, 0]) * k as f64) as u64
    }
}

/// The machine-readable run report. Each client thread counts into a
/// report of its own, and the run's report adds up their counts.
#[derive(Debug, Default, Serialize)]
struct LoadReport {
    addr: String,
    mode: String,
    concurrency: usize,
    seconds: f64,
    sent: u64,
    ok: u64,
    /// 2xx responses carrying the brownout `x-maestro-degraded` marker
    /// (a subset of `ok`).
    degraded: u64,
    shed: u64,
    timeout: u64,
    client_error: u64,
    server_error: u64,
    refused: u64,
    dropped: u64,
    retries: u64,
    qps: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

impl LoadReport {
    fn add_counts(&mut self, other: &LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.timeout += other.timeout;
        self.client_error += other.client_error;
        self.server_error += other.server_error;
        self.refused += other.refused;
        self.dropped += other.dropped;
        self.retries += other.retries;
    }
}

/// One analyze point without its braces: a layer, then a NoC bandwidth.
fn point(draws: &mut Draws) -> String {
    let layer = LAYERS[draws.below(LAYERS.len() as u64) as usize];
    format!(
        "\"model\":\"alexnet\",\"layer\":\"{layer}\",\"pes\":64,\"bw\":{}",
        1 << draws.below(6)
    )
}

/// The path and body of the next request in `mode`. One `mixed` request
/// in ten each is a dse session, a conform sweep, a batch and a dse
/// stream; the rest analyze.
fn request(mode: &str, draws: &mut Draws) -> (&'static str, String) {
    const DSE: &str = r#""model":"alexnet","layer":"CONV3","style":"KC-P","space":"tiny""#;
    let kind = match mode {
        "mixed" => draws.below(10),
        "batch" => 2,
        "stream" => 3,
        _ => 4,
    };
    match kind {
        0 => (
            "/v1/dse",
            format!("{{{DSE},\"deadline_ms\":{DEADLINE_MS}}}"),
        ),
        1 => (
            "/v1/conform",
            format!("{{\"cases\":3,\"deadline_ms\":{DEADLINE_MS}}}"),
        ),
        2 => {
            let points: Vec<String> = (0..8).map(|_| format!("{{{}}}", point(draws))).collect();
            let points = points.join(",");
            let body = format!("{{\"deadline_ms\":{DEADLINE_MS},\"points\":[{points}]}}");
            ("/v1/batch", body)
        }
        3 => (
            "/v1/dse",
            format!("{{{DSE},\"stream\":true,\"deadline_ms\":{DEADLINE_MS}}}"),
        ),
        _ => (
            "/v1/analyze",
            format!("{{{},\"deadline_ms\":{DEADLINE_MS}}}", point(draws)),
        ),
    }
}

/// One client thread: send, wait for the reply, retry a shed or a
/// refusal, and count the outcome, until `stop` is set. Returns its
/// counts and the latency of each `ok`, in microseconds.
fn worker(
    addr: SocketAddr,
    mode: &str,
    retries: u64,
    stop: &AtomicBool,
    mut draws: Draws,
) -> (LoadReport, Vec<u64>) {
    let mut counts = LoadReport::default();
    let mut latencies_us = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let (path, body) = request(mode, &mut draws);
        counts.sent += 1;
        let t0 = Instant::now();
        let mut attempt: u64 = 0;
        let outcome = loop {
            let outcome = client::exchange(addr, "POST", path, &body, IO_TIMEOUT);
            let hint = match &outcome {
                Exchange::Reply(r) if r.status == 503 => r.retry_after,
                Exchange::Refused => None,
                _ => break outcome,
            };
            if attempt >= retries || stop.load(Ordering::Relaxed) {
                break outcome;
            }
            // Exponential backoff with jitter, floored at the daemon's
            // Retry-After hint and capped at 800 ms per step (the cap
            // yields to a larger hint), all inside the request's budget.
            let base = Duration::from_millis(25u64 << attempt.min(8));
            let floor = hint.map(Duration::from_secs).unwrap_or(Duration::ZERO);
            let cap = base.max(floor).min(Duration::from_millis(800).max(floor));
            let jitter = cap.saturating_sub(floor);
            let sleep =
                floor + Duration::from_micros(draws.below(jitter.as_micros().max(1) as u64));
            if t0.elapsed() + sleep >= BUDGET {
                break outcome;
            }
            std::thread::sleep(sleep);
            attempt += 1;
            counts.retries += 1;
        };
        match outcome {
            Exchange::Reply(r) if (200..300).contains(&r.status) => {
                counts.ok += 1;
                counts.degraded += u64::from(r.degraded);
                latencies_us.push(t0.elapsed().as_micros() as u64);
            }
            Exchange::Reply(r) if r.status == 503 => counts.shed += 1,
            Exchange::Reply(r) if r.status == 504 => counts.timeout += 1,
            Exchange::Reply(r) if (400..500).contains(&r.status) => counts.client_error += 1,
            Exchange::Reply(_) => counts.server_error += 1,
            Exchange::Refused => counts.refused += 1,
            Exchange::Dropped => counts.dropped += 1,
        }
    }
    (counts, latencies_us)
}

fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1000.0
}

pub fn cmd_loadgen(args: &Args) -> Result<(), CliError> {
    let mode = args.text("mode");
    if !matches!(mode, "analyze" | "mixed" | "batch" | "stream") {
        return Err(CliError::usage(format!(
            "--mode takes analyze, mixed, batch or stream, got `{mode}`"
        )));
    }
    let concurrency = args.usize("concurrency");
    if concurrency == 0 {
        return Err(CliError::usage("--concurrency must be greater than 0"));
    }
    let addr_text = args.text("addr");
    let addr = client::resolve(addr_text).map_err(|e| CliError::usage(format!("--addr: {e}")))?;
    let retries = args.u64("retries");
    let out = args.text("out");
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let seed = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64);
    let mut report = LoadReport {
        addr: addr_text.to_string(),
        mode: mode.to_string(),
        concurrency,
        ..LoadReport::default()
    };
    let mut latencies_us = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..concurrency as u64)
            .map(|i| {
                let draws = Draws {
                    seed,
                    worker: i,
                    n: 0,
                };
                let stop = &stop;
                s.spawn(move || worker(addr, mode, retries, stop, draws))
            })
            .collect();
        std::thread::sleep(args.secs("seconds"));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let (counts, latencies) = w.join().expect("a loadgen worker panicked");
            report.add_counts(&counts);
            latencies_us.extend(latencies);
        }
    });
    report.seconds = t0.elapsed().as_secs_f64();
    report.qps = report.ok as f64 / report.seconds.max(1e-9);
    latencies_us.sort_unstable();
    report.p50_ms = percentile_ms(&latencies_us, 0.50);
    report.p90_ms = percentile_ms(&latencies_us, 0.90);
    report.p99_ms = percentile_ms(&latencies_us, 0.99);
    report.max_ms = percentile_ms(&latencies_us, 1.0);
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if !out.is_empty() {
        std::fs::write(out, format!("{json}\n"))
            .map_err(|e| CliError::usage(format!("writing the report to {out}: {e}")))?;
    }
    if args.flag("json") {
        outln!("{json}")?;
    } else {
        outln!(
            "loadgen: {} req in {:.2}s against {} ({} x {} mode)",
            report.sent,
            report.seconds,
            report.addr,
            report.concurrency,
            report.mode
        )?;
        outln!(
            "  outcomes   {} ok ({} degraded), {} shed(503), {} timeout(504), {} 4xx, {} 5xx, {} refused, {} dropped, {} retries",
            report.ok, report.degraded, report.shed, report.timeout, report.client_error,
            report.server_error, report.refused, report.dropped, report.retries
        )?;
        outln!(
            "  throughput {:.1} ok/s — latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            report.qps, report.p50_ms, report.p90_ms, report.p99_ms, report.max_ms
        )?;
    }
    if report.dropped > 0 {
        return Err(CliError::new(
            ErrorKind::Other,
            format!("{} dropped (incomplete) responses", report.dropped),
        ));
    }
    // A run where nothing succeeded cannot support a latency claim.
    if report.ok == 0 {
        return Err(CliError::new(ErrorKind::Other, "no successful requests"));
    }
    Ok(())
}
