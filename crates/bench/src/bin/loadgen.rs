//! `loadgen` — a self-driving load generator for `maestro serve`.
//!
//! Closed-loop client threads fire analyze (or mixed analyze/dse/conform)
//! requests at a running daemon, with the retry discipline a well-behaved
//! client owes an admission-controlled server: exponential backoff with
//! jitter on `503`/connect failures, honoring the server's *computed*
//! `Retry-After` as a backoff floor, all under a per-request deadline
//! budget so a retry storm can never run unbounded.
//!
//! Each thread waits for its reply before it sends again, so at most
//! `--concurrency` requests are ever in flight. To overload a daemon,
//! run more threads than it has workers plus queue slots.
//!
//! Outcome classes (the chaos smoke keys on `dropped`):
//!
//! * `ok` — complete `2xx` response (latency recorded);
//! * `shed` — a well-formed `503` that survived the retry budget;
//! * `timeout` — a well-formed `504` (the request's own deadline);
//! * `refused` — connect failed or the connection reset before *any*
//!   response byte (a clean TCP-level rejection, expected once a drain
//!   has closed the listener);
//! * `dropped` — a response that *started* but never completed, or a
//!   malformed one. The daemon's drain guarantee is `dropped == 0` even
//!   when it is killed mid-load; loadgen exits 1 if that is violated.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7433 [--seconds 5] [--concurrency 8]
//!         [--mode analyze|mixed|batch|stream] [--deadline-ms 2000]
//!         [--budget-ms 4000] [--retries 4] [--json] [--out report.json]
//! ```
//!
//! `batch` fires 8-point `/v1/batch` requests; `stream` fires NDJSON
//! `/v1/dse` streams (EOF-framed — a stream counts `ok` only once its
//! `"final":true` line fully arrived, so a truncated stream is
//! `dropped`). `mixed` sprinkles both in with analyze/dse/conform.

use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

#[derive(Debug, Clone)]
struct Config {
    addr: String,
    seconds: f64,
    concurrency: usize,
    mode: String,
    deadline_ms: u64,
    budget_ms: u64,
    retries: u32,
    json: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        addr: "127.0.0.1:7433".to_string(),
        seconds: 5.0,
        concurrency: 8,
        mode: "analyze".to_string(),
        deadline_ms: 2000,
        budget_ms: 4000,
        retries: 4,
        json: false,
        out: String::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut take = || {
            argv.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = take(),
            "--seconds" => cfg.seconds = take().parse().expect("--seconds"),
            "--concurrency" => cfg.concurrency = take().parse().expect("--concurrency"),
            "--mode" => cfg.mode = take(),
            "--deadline-ms" => cfg.deadline_ms = take().parse().expect("--deadline-ms"),
            "--budget-ms" => cfg.budget_ms = take().parse().expect("--budget-ms"),
            "--retries" => cfg.retries = take().parse().expect("--retries"),
            "--json" => cfg.json = true,
            "--out" => cfg.out = take(),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        matches!(cfg.mode.as_str(), "analyze" | "mixed" | "batch" | "stream"),
        "--mode must be analyze|mixed|batch|stream"
    );
    cfg
}

/// Small xorshift PRNG for jitter and request-mix draws (no external
/// randomness dependencies in this offline workspace).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Debug, Default, Clone)]
struct Tally {
    sent: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    timeout: u64,
    client_error: u64,
    server_error: u64,
    refused: u64,
    dropped: u64,
    retries: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
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
        self.latencies_us.extend(other.latencies_us);
    }
}

/// A complete parsed response: status plus the two serve-plane headers
/// the retry/brownout discipline keys on.
#[derive(Debug, Clone, Copy)]
struct Reply {
    status: u16,
    /// The daemon's computed backoff hint (seconds), present on sheds.
    retry_after: Option<u64>,
    /// The response was served in brownout (`x-maestro-degraded`).
    degraded: bool,
}

enum Outcome {
    Status(Reply),
    /// Connect failure or reset before any byte arrived.
    Refused,
    /// Bytes arrived but the response never completed (or was garbage).
    Dropped,
}

/// One HTTP exchange on a fresh connection.
fn exchange(addr: &SocketAddr, raw: &[u8], io_timeout: Duration) -> Outcome {
    let mut s = match TcpStream::connect_timeout(addr, io_timeout) {
        Ok(s) => s,
        Err(_) => return Outcome::Refused,
    };
    let _ = s.set_read_timeout(Some(io_timeout));
    let _ = s.set_write_timeout(Some(io_timeout));
    if s.write_all(raw).is_err() {
        return Outcome::Refused;
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
        if let Some((reply, complete)) = classify(&buf) {
            if complete {
                return Outcome::Status(reply);
            }
        }
    }
    if buf.is_empty() {
        return Outcome::Refused;
    }
    match classify(&buf) {
        Some((reply, true)) => Outcome::Status(reply),
        _ => Outcome::Dropped,
    }
}

/// Parse a response prefix: `Some((reply, body_complete))` once the
/// status line and headers are readable. `Content-Length` responses
/// complete at the declared byte count; EOF-framed NDJSON streams
/// complete once the `"final":true` marker line fully arrived — a stream
/// cut before it is an incomplete (dropped) response.
fn classify(buf: &[u8]) -> Option<(Reply, bool)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let reply = Reply {
        status,
        retry_after: head
            .lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .and_then(|v| v.trim().parse().ok()),
        degraded: head.lines().any(|l| l.starts_with("x-maestro-degraded:")),
    };
    let body = &buf[head_end + 4..];
    match head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(content_length) => Some((reply, body.len() >= content_length)),
        None if head.contains("application/x-ndjson") => Some((reply, stream_complete(body))),
        None => None,
    }
}

/// A newline-terminated body whose last line carries the final marker.
fn stream_complete(body: &[u8]) -> bool {
    if !body.ends_with(b"\n") {
        return false;
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    text.lines()
        .next_back()
        .is_some_and(|l| l.contains("\"final\":true"))
}

struct WorkerArgs {
    addr: SocketAddr,
    cfg: Config,
    stop: Arc<AtomicBool>,
    seed: u64,
}

fn batch_body(rng: &mut Rng, deadline_ms: u64) -> String {
    const LAYERS: [&str; 4] = ["CONV1", "CONV2", "CONV3", "CONV5"];
    let points: Vec<String> = (0..8)
        .map(|_| {
            format!(
                "{{\"model\":\"alexnet\",\"layer\":\"{}\",\"pes\":64,\"bw\":{}}}",
                LAYERS[rng.below(LAYERS.len() as u64) as usize],
                1 << rng.below(6),
            )
        })
        .collect();
    format!(
        "{{\"deadline_ms\":{deadline_ms},\"points\":[{}]}}",
        points.join(",")
    )
}

fn stream_body(deadline_ms: u64) -> String {
    format!(
        "{{\"model\":\"alexnet\",\"layer\":\"CONV3\",\"style\":\"KC-P\",\
         \"space\":\"tiny\",\"stream\":true,\"deadline_ms\":{deadline_ms}}}"
    )
}

fn request_body(mode: &str, rng: &mut Rng, deadline_ms: u64) -> (String, String) {
    // Rotate layers so the shared cache sees both hits and misses.
    const LAYERS: [&str; 4] = ["CONV1", "CONV2", "CONV3", "CONV5"];
    if mode == "batch" {
        return ("/v1/batch".to_string(), batch_body(rng, deadline_ms));
    }
    if mode == "stream" {
        return ("/v1/dse".to_string(), stream_body(deadline_ms));
    }
    if mode == "mixed" {
        match rng.below(10) {
            0 => {
                return (
                    "/v1/dse".to_string(),
                    format!(
                        "{{\"model\":\"alexnet\",\"layer\":\"CONV3\",\"style\":\"KC-P\",\
                         \"space\":\"tiny\",\"deadline_ms\":{deadline_ms}}}"
                    ),
                )
            }
            1 => {
                return (
                    "/v1/conform".to_string(),
                    format!("{{\"cases\":3,\"deadline_ms\":{deadline_ms}}}"),
                )
            }
            2 => return ("/v1/batch".to_string(), batch_body(rng, deadline_ms)),
            3 => return ("/v1/dse".to_string(), stream_body(deadline_ms)),
            _ => {}
        }
    }
    let layer = LAYERS[rng.below(LAYERS.len() as u64) as usize];
    (
        "/v1/analyze".to_string(),
        format!(
            "{{\"model\":\"alexnet\",\"layer\":\"{layer}\",\"pes\":64,\
             \"bw\":{},\"deadline_ms\":{deadline_ms}}}",
            1 << rng.below(6),
        ),
    )
}

fn worker(args: WorkerArgs) -> Tally {
    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed);
    let io_timeout = Duration::from_millis(args.cfg.deadline_ms.max(1000) * 2);
    while !args.stop.load(Ordering::Relaxed) {
        let (path, body) = request_body(&args.cfg.mode, &mut rng, args.cfg.deadline_ms);
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        tally.sent += 1;
        let budget = Duration::from_millis(args.cfg.budget_ms);
        let t0 = Instant::now();
        let mut attempt: u32 = 0;
        let outcome = loop {
            let outcome = exchange(&args.addr, raw.as_bytes(), io_timeout);
            let (retryable, hint) = match &outcome {
                Outcome::Status(r) if r.status == 503 => (true, r.retry_after),
                Outcome::Refused => (true, None),
                _ => (false, None),
            };
            if !retryable || attempt >= args.cfg.retries || args.stop.load(Ordering::Relaxed) {
                break outcome;
            }
            // Exponential backoff with jitter, floored at the server's
            // computed Retry-After hint, capped at 800 ms per step (the
            // cap yields to a larger hint) — all inside the request's
            // deadline budget.
            let base = Duration::from_millis(25u64.saturating_mul(1 << attempt.min(8)));
            let floor = hint.map(Duration::from_secs).unwrap_or(Duration::ZERO);
            let cap = base.max(floor).min(Duration::from_millis(800).max(floor));
            let jitter = cap.saturating_sub(floor);
            let sleep = floor + Duration::from_micros(rng.below(jitter.as_micros().max(1) as u64));
            if t0.elapsed() + sleep >= budget {
                break outcome;
            }
            std::thread::sleep(sleep);
            attempt += 1;
            tally.retries += 1;
        };
        match outcome {
            Outcome::Status(r) if (200..300).contains(&r.status) => {
                tally.ok += 1;
                if r.degraded {
                    tally.degraded += 1;
                }
                tally.latencies_us.push(t0.elapsed().as_micros() as u64);
            }
            Outcome::Status(r) if r.status == 503 => tally.shed += 1,
            Outcome::Status(r) if r.status == 504 => tally.timeout += 1,
            Outcome::Status(r) if (400..500).contains(&r.status) => tally.client_error += 1,
            Outcome::Status(_) => tally.server_error += 1,
            Outcome::Refused => tally.refused += 1,
            Outcome::Dropped => tally.dropped += 1,
        }
    }
    tally
}

/// The machine-readable run report.
#[derive(Debug, Serialize)]
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

fn percentile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1000.0
}

fn main() {
    let cfg = parse_args();
    let addr: SocketAddr = cfg
        .addr
        .to_socket_addrs()
        .expect("resolvable --addr")
        .next()
        .expect("at least one address");
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let seed0 = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1);
    let handles: Vec<_> = (0..cfg.concurrency.max(1))
        .map(|i| {
            let args = WorkerArgs {
                addr,
                cfg: cfg.clone(),
                stop: Arc::clone(&stop),
                seed: seed0 ^ ((i as u64 + 1) * 0x9E37_79B9_7F4A_7C15),
            };
            std::thread::spawn(move || worker(args))
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(cfg.seconds));
    stop.store(true, Ordering::Relaxed);
    let mut total = Tally::default();
    for h in handles {
        total.merge(h.join().expect("worker thread"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    total.latencies_us.sort_unstable();
    let report = LoadReport {
        addr: cfg.addr.clone(),
        mode: cfg.mode.clone(),
        concurrency: cfg.concurrency,
        seconds: elapsed,
        sent: total.sent,
        ok: total.ok,
        degraded: total.degraded,
        shed: total.shed,
        timeout: total.timeout,
        client_error: total.client_error,
        server_error: total.server_error,
        refused: total.refused,
        dropped: total.dropped,
        retries: total.retries,
        qps: total.ok as f64 / elapsed.max(1e-9),
        p50_ms: percentile_ms(&total.latencies_us, 0.50),
        p90_ms: percentile_ms(&total.latencies_us, 0.90),
        p99_ms: percentile_ms(&total.latencies_us, 0.99),
        max_ms: percentile_ms(&total.latencies_us, 1.0),
    };
    if !cfg.out.is_empty() {
        let text = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&cfg.out, text + "\n").expect("write --out");
    }
    if cfg.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serialize report")
        );
    } else {
        println!(
            "loadgen: {} req in {:.2}s against {} ({} x {} mode)",
            report.sent, report.seconds, report.addr, report.concurrency, report.mode
        );
        println!(
            "  outcomes   {} ok ({} degraded), {} shed(503), {} timeout(504), {} 4xx, {} 5xx, {} refused, {} dropped, {} retries",
            report.ok, report.degraded, report.shed, report.timeout, report.client_error,
            report.server_error, report.refused, report.dropped, report.retries
        );
        println!(
            "  throughput {:.1} ok/s — latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            report.qps, report.p50_ms, report.p90_ms, report.p99_ms, report.max_ms
        );
    }
    // The drain guarantee is part of loadgen's contract: any response
    // that started but never completed is a hard failure.
    if report.dropped > 0 {
        println!("FAIL: {} dropped (incomplete) responses", report.dropped);
        std::process::exit(1);
    }
    // A run where nothing succeeded cannot support a latency claim.
    if report.ok == 0 {
        println!("FAIL: no successful requests");
        std::process::exit(1);
    }
}
