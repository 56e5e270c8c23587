//! End-to-end daemon tests driving the real `maestro serve` binary:
//! start, issue requests over TCP, then SIGTERM and pin the drain
//! semantics and exit codes — `0` for a clean drain, `7` when the drain
//! deadline forces cancellation of in-flight requests.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Start `maestro serve --addr 127.0.0.1:0 <extra args>` and read the
/// picked port from the announcement line on stdout.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn maestro serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let announce = lines
        .next()
        .expect("an announcement line")
        .expect("readable stdout");
    let addr = announce
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announce:?}"))
        .to_string();
    (child, addr)
}

fn signal(child: &Child, sig: &str) {
    let ok = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill {sig} failed");
}

fn wait_within(child: &mut Child, limit: Duration) -> (i32, Duration) {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return (status.code().expect("exit code"), start.elapsed());
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            panic!("daemon did not exit within {limit:?} after the signal");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One request on its own connection; returns the raw response.
fn request(addr: &str, raw: String) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to daemon");
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    s.write_all(raw.as_bytes()).expect("write request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

fn get(addr: &str, path: &str) -> String {
    request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: &str, path: &str, body: &str) -> String {
    request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

#[test]
fn serve_answers_analyze_and_drains_cleanly_on_sigterm() {
    let (mut child, addr) = spawn_serve(&[]);
    assert_eq!(status_of(&get(&addr, "/healthz")), 200);
    assert_eq!(status_of(&get(&addr, "/readyz")), 200);
    let resp = post(
        &addr,
        "/v1/analyze",
        "{\"model\":\"alexnet\",\"layer\":\"CONV1\",\"pes\":64}",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"runtime\""), "{resp}");
    let metrics = get(&addr, "/metrics");
    assert!(
        metrics.contains("maestro_serve_requests_total"),
        "{metrics}"
    );

    signal(&child, "-TERM");
    let (code, elapsed) = wait_within(&mut child, Duration::from_secs(10));
    assert_eq!(code, 0, "clean drain must exit 0");
    assert!(elapsed < Duration::from_secs(8), "drain took {elapsed:?}");
    // The dead daemon no longer accepts.
    assert!(TcpStream::connect(&addr).is_err(), "socket still open");
}

/// The value of counter `name` in a `/metrics` response, 0 when absent.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0)
}

/// The daemon's cache lives as long as the daemon, so its hit and miss
/// counts must reach `/metrics` while it runs, not only on drop.
#[test]
fn cache_counters_reach_metrics_while_the_daemon_runs() {
    let (mut child, addr) = spawn_serve(&[]);
    let before = get(&addr, "/metrics");
    let body = "{\"model\":\"alexnet\",\"layer\":\"CONV1\",\"pes\":64}";
    for _ in 0..2 {
        let resp = post(&addr, "/v1/analyze", body);
        assert_eq!(status_of(&resp), 200, "{resp}");
    }
    let after = get(&addr, "/metrics");
    for name in ["maestro_cache_hits", "maestro_cache_misses"] {
        assert!(
            counter(&after, name) > counter(&before, name),
            "{name} did not move:\n{after}"
        );
    }
    signal(&child, "-TERM");
    let (code, _) = wait_within(&mut child, Duration::from_secs(10));
    assert_eq!(code, 0, "clean drain must exit 0");
}

#[test]
fn sigterm_mid_request_finishes_in_flight_work_then_exits_0() {
    let (mut child, addr) = spawn_serve(&["--drain-seconds", "30"]);
    // Put a multi-second request in flight, then SIGTERM around it.
    let addr2 = addr.clone();
    let client = std::thread::spawn(move || {
        post(&addr2, "/v1/conform", "{\"cases\":60,\"max_steps\":20000}")
    });
    std::thread::sleep(Duration::from_millis(200));
    signal(&child, "-TERM");
    // The in-flight response is written in full before the exit: zero
    // dropped responses on a clean drain.
    let resp = client.join().expect("client thread");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"diverged\""), "{resp}");
    let (code, _) = wait_within(&mut child, Duration::from_secs(30));
    assert_eq!(code, 0, "in-flight work finished inside the drain budget");
}

#[test]
fn forced_drain_exits_7_but_still_answers_with_504() {
    let (mut child, addr) = spawn_serve(&["--drain-seconds", "0.3"]);
    // An in-flight request that cannot finish inside the 0.3 s drain
    // budget: a huge conform sweep with an hour-long client deadline.
    let addr2 = addr.clone();
    let client = std::thread::spawn(move || {
        post(
            &addr2,
            "/v1/conform",
            "{\"cases\":1000000,\"deadline_ms\":3600000}",
        )
    });
    std::thread::sleep(Duration::from_millis(300));
    signal(&child, "-TERM");
    let (code, elapsed) = wait_within(&mut child, Duration::from_secs(10));
    assert_eq!(code, 7, "forced drain must exit interrupted");
    assert!(
        elapsed < Duration::from_secs(8),
        "forced drain hung: {elapsed:?}"
    );
    // Even the forcibly cancelled request got a well-formed 504 response.
    let resp = client.join().expect("client thread");
    assert_eq!(status_of(&resp), 504, "{resp}");
    assert!(resp.contains("\"partial\":true"), "{resp}");
}

/// Fetch one metric's value from the daemon's Prometheus exposition.
fn metric_value(addr: &str, name: &str) -> f64 {
    let metrics = get(addr, "/metrics");
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn seeded_worker_panic_chaos_drops_no_responses_and_restarts_workers() {
    // Deterministic chaos: with seed 7 at a 5% worker-panic rate, some
    // of the ~120 pre-pop draws fire. Every request must still complete
    // (the panic is drawn *before* a connection is popped), the workers
    // must count restarts, and the daemon must still drain cleanly.
    let (mut child, addr) = spawn_serve(&[
        "--workers",
        "2",
        "--chaos",
        "worker-panic:0.05",
        "--chaos-seed",
        "7",
    ]);
    for i in 0..120 {
        let resp = post(
            &addr,
            "/v1/analyze",
            &format!(
                "{{\"model\":\"alexnet\",\"layer\":\"CONV{}\",\"pes\":64}}",
                (i % 5) + 1
            ),
        );
        assert_eq!(status_of(&resp), 200, "request {i}: {resp}");
    }
    assert!(
        metric_value(&addr, "maestro_serve_worker_restarts") >= 1.0,
        "no worker restarts observed under 5% panic chaos"
    );
    assert_eq!(status_of(&get(&addr, "/readyz")), 200);
    signal(&child, "-TERM");
    let (code, _) = wait_within(&mut child, Duration::from_secs(10));
    assert_eq!(code, 0, "chaos daemon must still drain cleanly");
}

#[test]
fn bad_requests_get_typed_statuses_from_the_binary() {
    let (mut child, addr) = spawn_serve(&[]);
    assert_eq!(status_of(&post(&addr, "/v1/analyze", "{nope")), 400);
    assert_eq!(status_of(&get(&addr, "/no-such-endpoint")), 404);
    let resp = request(
        &addr,
        "POST /v1/analyze HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".to_string(),
    );
    assert_eq!(status_of(&resp), 413, "{resp}");
    signal(&child, "-TERM");
    let (code, _) = wait_within(&mut child, Duration::from_secs(10));
    assert_eq!(code, 0);
}
