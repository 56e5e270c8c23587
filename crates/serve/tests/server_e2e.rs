//! End-to-end daemon tests over real TCP sockets: routing, admission
//! control, deadlines, panic isolation, slow-loris, drain.
//!
//! Each test binds its own server on `127.0.0.1:0`; the shutdown token is
//! a *detached* token cancelled explicitly (the process-interrupt path is
//! covered by the CLI integration test, which drives the real binary with
//! signals). Metric assertions use ≥ deltas — the registry is process
//! global and tests run concurrently.

use maestro_obs::CancelToken;
use maestro_serve::{DrainOutcome, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Held by the tests that read `maestro.serve.panics`: the registry is
/// process global, so a test that asserts the counter did not move must
/// not overlap the one that panics a handler on purpose.
static PANIC_COUNTER: Mutex<()> = Mutex::new(());

struct Daemon {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<std::io::Result<DrainOutcome>>,
}

impl Daemon {
    fn start(cfg: ServeConfig) -> Daemon {
        let server = Server::bind(cfg).expect("bind 127.0.0.1:0");
        let addr = server.local_addr().expect("local addr");
        let shutdown = CancelToken::detached();
        let token = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&token));
        Daemon {
            addr,
            shutdown,
            handle,
        }
    }

    fn stop(self) -> DrainOutcome {
        self.shutdown.cancel();
        self.handle
            .join()
            .expect("server thread")
            .expect("server run")
    }
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

/// Send one raw request (the caller includes `Connection: close`) and
/// collect the full response.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    s.write_all(raw).expect("write request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    raw_request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
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
fn routing_health_metrics_and_errors() {
    let d = Daemon::start(test_config());
    assert_eq!(status_of(&get(d.addr, "/healthz")), 200);
    assert_eq!(status_of(&get(d.addr, "/readyz")), 200);
    let resp = get(d.addr, "/nope");
    assert_eq!(status_of(&resp), 404);
    assert_eq!(status_of(&post(d.addr, "/healthz", "")), 405);
    assert_eq!(status_of(&post(d.addr, "/v1/analyze", "{oops")), 400);
    assert_eq!(
        status_of(&post(d.addr, "/v1/analyze", "{\"model\":\"not-a-model\"}")),
        400
    );
    let metrics = get(d.addr, "/metrics");
    assert_eq!(status_of(&metrics), 200);
    assert!(
        metrics.contains("maestro_serve_requests_total"),
        "exposition misses serve counters: {metrics:?}"
    );
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn analyze_layer_model_and_deadline() {
    let d = Daemon::start(test_config());
    // Single layer.
    let resp = post(
        d.addr,
        "/v1/analyze",
        "{\"model\":\"alexnet\",\"layer\":\"CONV1\",\"dataflow\":\"KC-P\",\"pes\":64}",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"report\""), "{resp}");
    assert!(resp.contains("\"runtime\""), "{resp}");
    // Whole model (served through the shared cache).
    let resp = post(d.addr, "/v1/analyze", "{\"model\":\"alexnet\",\"pes\":64}");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"layers\""), "{resp}");
    // An already-expired deadline is a typed 504 with the partial marker.
    let resp = post(
        d.addr,
        "/v1/analyze",
        "{\"model\":\"alexnet\",\"deadline_ms\":0}",
    );
    assert_eq!(status_of(&resp), 504, "{resp}");
    assert!(resp.contains("\"partial\":true"), "{resp}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

/// VGG16 repeats conv shapes, and the cache keys ignore layer names. Every
/// layer must still come back under its own name, byte for byte as the
/// uncached oracle renders it: computed fresh, replayed from the report
/// tier, and served cache-only under an expired deadline.
#[test]
fn whole_model_analyze_matches_the_uncached_oracle_byte_for_byte() {
    let d = Daemon::start(test_config());
    let acc = maestro_hw::Accelerator::builder(64)
        .noc_bandwidth(32)
        .l1_bytes(2048)
        .l2_bytes(1 << 20)
        .build();
    let oracle = maestro_core::analyze_model(
        &maestro_dnn::zoo::vgg16(1),
        &maestro_ir::Style::KCP.dataflow(),
        &acc,
    )
    .expect("VGG16 analyzes");
    let want = serde_json::to_string(&oracle).expect("report serializes");
    for body in [
        "{\"model\":\"vgg16\",\"dataflow\":\"KC-P\",\"pes\":64}",
        "{\"model\":\"vgg16\",\"dataflow\":\"KC-P\",\"pes\":64}",
        "{\"model\":\"vgg16\",\"dataflow\":\"KC-P\",\"pes\":64,\"deadline_ms\":0}",
    ] {
        let resp = post(d.addr, "/v1/analyze", body);
        assert_eq!(status_of(&resp), 200, "{resp}");
        let (_, got) = resp.split_once("\r\n\r\n").expect("headers end");
        assert_eq!(got, want, "{body}");
    }
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

/// A batch answer is spliced from cached encodings under each point's own
/// layer name. VGG16's CONV6/CONV7 and CONV11–CONV13 share shapes, so the
/// later names are served from entries made for the earlier ones; every
/// item must still read byte for byte as the uncached oracle renders it,
/// on a cold cache and again on a warm one, with a bad point in between.
#[test]
fn batch_matches_the_uncached_oracle_byte_for_byte() {
    let d = Daemon::start(test_config());
    let acc = maestro_hw::Accelerator::builder(64)
        .noc_bandwidth(32)
        .l1_bytes(2048)
        .l2_bytes(1 << 20)
        .build();
    let vgg16 = maestro_dnn::zoo::vgg16(1);
    let points = [
        ("CONV6", "KC-P"),
        ("CONV7", "KC-P"),
        ("NOPE", "KC-P"),
        ("CONV11", "YR-P"),
        ("CONV12", "YR-P"),
        ("CONV13", "YR-P"),
        ("CONV7", "YR-P"),
    ];
    let mut bodies = Vec::new();
    let mut items = Vec::new();
    for (layer, dataflow) in points {
        bodies.push(format!(
            "{{\"model\":\"vgg16\",\"layer\":\"{layer}\",\"dataflow\":\"{dataflow}\",\"pes\":64}}"
        ));
        let Some(l) = vgg16.layer(layer) else {
            items.push(format!(
                "{{\"error\":\"model VGG16 has no layer `{layer}`\"}}"
            ));
            continue;
        };
        let style = maestro_ir::Style::ALL
            .into_iter()
            .find(|s| s.short_name() == dataflow)
            .expect("a paper style");
        let report = maestro_core::analyze(l, &style.dataflow(), &acc).expect("VGG16 analyzes");
        items.push(format!(
            "{{\"model\":\"VGG16\",\"layer\":\"{layer}\",\"report\":{}}}",
            serde_json::to_string(&report).expect("report serializes")
        ));
    }
    let want = format!(
        "{{\"count\":{},\"results\":[{}]}}",
        items.len(),
        items.join(",")
    );
    let body = format!("{{\"points\":[{}]}}", bodies.join(","));
    for cache in ["cold", "warm"] {
        let resp = post(d.addr, "/v1/batch", &body);
        assert_eq!(status_of(&resp), 200, "{resp}");
        let (_, got) = resp.split_once("\r\n\r\n").expect("headers end");
        assert_eq!(got, want, "{cache} cache");
    }
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

/// A zero NoC bandwidth is the client's error: a 400 from `/v1/analyze`
/// and a per-item error inside `/v1/batch`, never a handler panic.
#[test]
fn zero_bandwidth_is_a_client_error_not_a_panic() {
    let _serial = PANIC_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let panics = || {
        maestro_obs::registry()
            .counter("maestro.serve.panics")
            .get()
    };
    let before = panics();
    let d = Daemon::start(test_config());
    let resp = post(
        d.addr,
        "/v1/analyze",
        "{\"model\":\"alexnet\",\"layer\":\"CONV1\",\"bw\":0}",
    );
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(resp.contains("`bw` must be a positive integer"), "{resp}");
    let resp = post(
        d.addr,
        "/v1/batch",
        "{\"points\":[{\"model\":\"alexnet\",\"layer\":\"CONV1\"},\
         {\"model\":\"alexnet\",\"layer\":\"CONV2\",\"bw\":0}]}",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert_eq!(resp.matches("\"report\"").count(), 1, "{resp}");
    assert!(
        resp.contains("{\"error\":\"`bw` must be a positive integer\"}]}"),
        "{resp}"
    );
    assert_eq!(d.stop(), DrainOutcome::Clean);
    assert_eq!(panics(), before, "no handler panicked");
}

#[test]
fn dse_and_conform_round_trips() {
    let d = Daemon::start(test_config());
    let resp = post(
        d.addr,
        "/v1/dse",
        "{\"model\":\"alexnet\",\"layer\":\"CONV3\",\"style\":\"KC-P\",\"space\":\"tiny\"}",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"partial\":false"), "{resp}");
    assert!(resp.contains("\"pareto\""), "{resp}");
    let resp = post(d.addr, "/v1/conform", "{\"cases\":5,\"max_steps\":20000}");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"diverged\""), "{resp}");
    // A conform sweep with an expired budget still reports partially.
    let resp = post(
        d.addr,
        "/v1/conform",
        "{\"cases\":100000,\"deadline_ms\":0}",
    );
    assert_eq!(status_of(&resp), 504, "{resp}");
    assert!(resp.contains("\"partial\":true"), "{resp}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn batch_serves_many_points_with_per_item_error_isolation() {
    let d = Daemon::start(test_config());
    // Eight good points across alexnet's conv layers, one bad point
    // wedged in the middle.
    let mut points: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "{{\"model\":\"alexnet\",\"layer\":\"CONV{}\",\"pes\":64}}",
                (i % 5) + 1
            )
        })
        .collect();
    points.insert(3, "{\"model\":\"alexnet\",\"layer\":\"NOPE\"}".to_string());
    let body = format!("{{\"points\":[{}]}}", points.join(","));
    let resp = post(d.addr, "/v1/batch", &body);
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"count\":9"), "{resp}");
    // The eight good points analyzed; the bad one is an error *element*,
    // not a failed batch.
    assert_eq!(resp.matches("\"report\"").count(), 8, "{resp}");
    assert_eq!(resp.matches("\"error\"").count(), 1, "{resp}");
    assert!(resp.contains("no layer `NOPE`"), "{resp}");
    // Malformed batch envelopes are typed 400s.
    assert_eq!(status_of(&post(d.addr, "/v1/batch", "{}")), 400);
    assert_eq!(status_of(&post(d.addr, "/v1/batch", "{\"points\":3}")), 400);
    // An expired deadline yields the typed 504 with the partial results
    // array (here: empty — the token is checked before the first point).
    let resp = post(
        d.addr,
        "/v1/batch",
        &format!("{{\"deadline_ms\":0,\"points\":[{}]}}", points.join(",")),
    );
    assert_eq!(status_of(&resp), 504, "{resp}");
    assert!(resp.contains("\"partial\":true"), "{resp}");
    assert!(resp.contains("\"results\":["), "{resp}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn dse_stream_emits_ndjson_unit_lines_and_a_final_result() {
    use maestro_serve::Value;
    let d = Daemon::start(test_config());
    let resp = post(
        d.addr,
        "/v1/dse",
        "{\"model\":\"alexnet\",\"layer\":\"CONV3\",\"style\":\"KC-P\",\"space\":\"tiny\",\"stream\":true}",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("application/x-ndjson"), "{resp}");
    assert!(
        !resp.contains("Content-Length:"),
        "streams are EOF-framed: {resp}"
    );
    let body = resp.split_once("\r\n\r\n").expect("head/body split").1;
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() > 1,
        "expected per-unit lines plus a final line: {body:?}"
    );
    // Unit lines parse, and `completed` is strictly monotone — the
    // engine fires the callback under its completion lock.
    let mut last_completed = 0;
    for line in &lines[..lines.len() - 1] {
        let v = maestro_serve::parse_json(line).expect("unit line is well-formed JSON");
        let completed = v
            .get("completed")
            .and_then(Value::as_u64)
            .expect("unit line carries `completed`");
        assert!(completed > last_completed, "non-monotone stream: {body:?}");
        last_completed = completed;
        assert!(v.get("pareto").is_some() || v.get("failed").is_some());
    }
    let fin =
        maestro_serve::parse_json(lines[lines.len() - 1]).expect("final line is well-formed JSON");
    assert_eq!(fin.get("final").and_then(Value::as_bool), Some(true));
    assert_eq!(fin.get("partial").and_then(Value::as_bool), Some(false));
    assert!(fin.get("result").is_some(), "{body:?}");
    // Validation failures surface *before* the first streamed byte, as
    // ordinary buffered errors.
    let resp = post(d.addr, "/v1/dse", "{\"stream\":true}");
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn dse_thread_requests_are_capped_server_side() {
    // Regression: `threads` used to be clamped only to a hardwired 64.
    // With the cap at 1, an absurd request must still serve fine (on one
    // thread) instead of spawning hundreds.
    let d = Daemon::start(ServeConfig {
        max_request_threads: 1,
        ..test_config()
    });
    let resp = post(
        d.addr,
        "/v1/dse",
        "{\"model\":\"alexnet\",\"layer\":\"CONV3\",\"space\":\"tiny\",\"threads\":999999}",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"partial\":false"), "{resp}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn queue_depth_gauge_is_registered_and_sampled() {
    let d = Daemon::start(test_config());
    // Serve a few requests so both sampling points (push and pop) ran.
    for _ in 0..3 {
        assert_eq!(status_of(&get(d.addr, "/healthz")), 200);
    }
    let metrics = get(d.addr, "/metrics");
    let line = metrics
        .lines()
        .find(|l| l.starts_with("maestro_serve_queue_depth"))
        .unwrap_or_else(|| panic!("queue_depth gauge missing from exposition: {metrics}"));
    let depth: f64 = line
        .split_whitespace()
        .last()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparseable gauge line: {line}"));
    // The registry is process-global and other daemons run concurrently,
    // so mid-drive values are unobservable here; the pin is that the
    // gauge exists, was sampled, and holds a sane (non-negative) depth.
    assert!(depth >= 0.0, "{line}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn handler_panics_are_isolated_to_the_request() {
    let d = Daemon::start(ServeConfig {
        test_endpoints: true,
        workers: 1, // the one worker must survive its handler panicking
        ..test_config()
    });
    let _serial = PANIC_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let before = maestro_obs::registry()
        .counter("maestro.serve.panics")
        .get();
    let resp = post(d.addr, "/v1/panic", "{}");
    assert_eq!(status_of(&resp), 500, "{resp}");
    assert!(resp.contains("internal panic"), "{resp}");
    // The sole worker survived and keeps serving.
    assert_eq!(status_of(&get(d.addr, "/healthz")), 200);
    let after = maestro_obs::registry()
        .counter("maestro.serve.panics")
        .get();
    assert!(after > before, "panic counter must increment");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let d = Daemon::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        io_timeout: Duration::from_secs(5),
        ..test_config()
    });
    // Occupy the only worker: connect and send half a request — the
    // worker blocks reading the rest.
    let mut hold_worker = TcpStream::connect(d.addr).expect("connect");
    hold_worker.write_all(b"POST /v1/analyze HTTP/1.1\r\n").ok();
    std::thread::sleep(Duration::from_millis(150));
    // Fill the queue with a second held connection.
    let mut hold_queue = TcpStream::connect(d.addr).expect("connect");
    hold_queue.write_all(b"GET /healthz HT").ok();
    std::thread::sleep(Duration::from_millis(150));
    // The third connection must be shed immediately, and the hint is
    // *computed* (queue depth × observed median service time, clamped to
    // [1, drain deadline]) — not the old hard-coded `1`.
    let resp = get(d.addr, "/healthz");
    assert_eq!(status_of(&resp), 503, "{resp}");
    let retry_after: u64 = resp
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("missing or unparseable Retry-After: {resp:?}"));
    let drain_secs = ServeConfig::default().drain_deadline.as_secs();
    assert!(
        (1..=drain_secs).contains(&retry_after),
        "Retry-After {retry_after} outside [1, {drain_secs}]: {resp:?}"
    );
    drop(hold_worker);
    drop(hold_queue);
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn brownout_serves_deadline_pressed_analyze_from_cache() {
    let d = Daemon::start(test_config());
    let body = "{\"model\":\"alexnet\",\"layer\":\"CONV2\",\"dataflow\":\"KC-P\",\"pes\":64}";
    // Warm the shared report cache with a full-fidelity analyze.
    let resp = post(d.addr, "/v1/analyze", body);
    assert_eq!(status_of(&resp), 200, "{resp}");
    // The same shape with an already-expired deadline is served degraded
    // from the report cache: 200 + the brownout marker, not a 504.
    let degraded_body =
        "{\"model\":\"alexnet\",\"layer\":\"CONV2\",\"dataflow\":\"KC-P\",\"pes\":64,\"deadline_ms\":0}";
    let resp = post(d.addr, "/v1/analyze", degraded_body);
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("x-maestro-degraded: cache-only"), "{resp}");
    assert!(resp.contains("\"report\""), "{resp}");
    // An *uncached* shape under the same pressure still sheds as a 504 —
    // brownout never fabricates results.
    let resp = post(
        d.addr,
        "/v1/analyze",
        "{\"model\":\"alexnet\",\"layer\":\"CONV4\",\"dataflow\":\"YX-P\",\"pes\":96,\"deadline_ms\":0}",
    );
    assert_eq!(status_of(&resp), 504, "{resp}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn slow_loris_gets_408_and_oversized_gets_413() {
    let d = Daemon::start(ServeConfig {
        io_timeout: Duration::from_millis(250),
        ..test_config()
    });
    // Half a request, then silence past the read timeout.
    let mut s = TcpStream::connect(d.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    s.write_all(b"GET /healthz HTTP/1.1\r\nHos").expect("write");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    assert_eq!(status_of(&out), 408, "{out}");
    // A body over the limit is rejected from its headers alone.
    let resp = raw_request(
        d.addr,
        b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 413, "{resp}");
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn pipelined_requests_share_a_connection() {
    let d = Daemon::start(test_config());
    let first = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let second = "GET /readyz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let out = raw_request(d.addr, format!("{first}{second}").as_bytes());
    assert_eq!(
        out.matches("HTTP/1.1 200").count(),
        2,
        "expected two pipelined 200s: {out:?}"
    );
    assert_eq!(d.stop(), DrainOutcome::Clean);
}

#[test]
fn forced_drain_cancels_in_flight_but_still_writes_the_response() {
    let d = Daemon::start(ServeConfig {
        drain_deadline: Duration::from_millis(200),
        ..test_config()
    });
    // A long request: a big conform sweep with an hour-long deadline.
    let addr = d.addr;
    let client = std::thread::spawn(move || {
        post(
            addr,
            "/v1/conform",
            "{\"cases\":1000000,\"deadline_ms\":3600000}",
        )
    });
    std::thread::sleep(Duration::from_millis(300)); // let it get in flight
    let outcome = d.stop();
    assert_eq!(outcome, DrainOutcome::Forced);
    // The in-flight request was cancelled, not dropped: the client still
    // received a well-formed 504 with partial results.
    let resp = client.join().expect("client thread");
    assert_eq!(status_of(&resp), 504, "{resp}");
    assert!(resp.contains("\"partial\":true"), "{resp}");
}

#[test]
fn clean_drain_finishes_in_flight_requests() {
    let d = Daemon::start(ServeConfig {
        drain_deadline: Duration::from_secs(30),
        ..test_config()
    });
    // A request long enough to still be in flight when the drain starts,
    // short enough to finish well inside the drain deadline.
    let addr = d.addr;
    let client = std::thread::spawn(move || post(addr, "/v1/conform", "{\"cases\":40}"));
    std::thread::sleep(Duration::from_millis(50));
    let outcome = d.stop();
    let resp = client.join().expect("client thread");
    assert_eq!(outcome, DrainOutcome::Clean);
    assert_eq!(status_of(&resp), 200, "{resp}");
}
