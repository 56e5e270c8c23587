//! The brownout table, driven through `ApiCtx::handle_conn` with the
//! daemon's queue-depth mirror pinned at 0%, 50% and 90% of capacity.
//!
//! | pressure      | dse / conform | batch | analyze                       |
//! |---------------|---------------|-------|-------------------------------|
//! | < 50% queue   | served        | served| served                        |
//! | ≥ 50% queue   | shed (503)    | served| served                        |
//! | ≥ 90% queue   | shed (503)    | shed  | cache-only: hit 200, miss 503 |
//!
//! Health and metrics are never shed. The table is deterministic: the
//! depth mirror is set directly and no load is generated.

use maestro_core::Analyzer;
use maestro_obs::CancelToken;
use maestro_serve::{ApiCtx, Handled, Request, Response, ServeMetrics};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUEUE_CAP: usize = 10;

fn api_ctx() -> ApiCtx {
    ApiCtx {
        cache: Analyzer::new(1, maestro_core::DEFAULT_CACHE_CAP),
        request_root: CancelToken::detached(),
        default_deadline: Duration::from_secs(60),
        ready: AtomicBool::new(true),
        metrics: ServeMetrics::register(),
        started: Instant::now(),
        workers: 1,
        queue_len: Arc::new(AtomicUsize::new(0)),
        queue_cap: QUEUE_CAP,
        drain_secs: 5,
    }
}

/// A connected loopback socket: `handle_conn` needs one in reach (only
/// the streaming `/v1/dse` path writes to it, and no request here
/// streams). The client end is returned so it stays open.
fn socket() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    (client, server)
}

fn send(ctx: &ApiCtx, sock: &TcpStream, method: &str, path: &str, body: &str) -> Response {
    let req = Request {
        method: method.to_string(),
        path: path.to_string(),
        body: body.as_bytes().to_vec(),
        close: false,
    };
    match ctx.handle_conn(&req, sock) {
        Handled::Response(resp) => resp,
        Handled::Streamed(_) => panic!("{method} {path} streamed unexpectedly"),
    }
}

fn assert_shed(resp: &Response, what: &str) {
    assert_eq!(resp.status, 503, "{what}: {}", resp.body);
    assert!(
        resp.retry_after.is_some(),
        "{what}: 503 without Retry-After"
    );
    assert!(
        resp.degraded.is_none(),
        "{what}: a shed is not a degraded answer"
    );
}

fn assert_served(resp: &Response, what: &str) {
    assert_eq!(resp.status, 200, "{what}: {}", resp.body);
    assert!(resp.degraded.is_none(), "{what}: degraded below 90%");
}

#[test]
fn brownout_sheds_by_class_as_queue_pressure_rises() {
    let ctx = api_ctx();
    let (_client, sock) = socket();
    let layer = r#"{"model":"alexnet","layer":"CONV1","pes":64}"#;
    let model = r#"{"model":"alexnet","pes":64}"#;
    // Warm the cached shapes (one layer and a whole model) at no pressure.
    assert_served(
        &send(&ctx, &sock, "POST", "/v1/analyze", layer),
        "warm layer",
    );
    assert_served(
        &send(&ctx, &sock, "POST", "/v1/analyze", model),
        "warm model",
    );

    for pct in [0, 50, 90] {
        let depth = QUEUE_CAP * pct / 100;
        ctx.queue_len.store(depth, Ordering::Relaxed);
        let at = |what: &str| format!("{what} at {pct}% queue");

        for path in ["/healthz", "/metrics"] {
            let resp = send(&ctx, &sock, "GET", path, "");
            assert_eq!(resp.status, 200, "{}", at(path));
        }

        let dse = send(
            &ctx,
            &sock,
            "POST",
            "/v1/dse",
            r#"{"model":"alexnet","layer":"CONV3","style":"KC-P","space":"tiny"}"#,
        );
        let conform = send(&ctx, &sock, "POST", "/v1/conform", r#"{"cases":1}"#);
        if pct >= 50 {
            assert_shed(&dse, &at("dse"));
            assert_shed(&conform, &at("conform"));
        } else {
            assert_served(&dse, &at("dse"));
            assert_served(&conform, &at("conform"));
        }

        let batch = send(
            &ctx,
            &sock,
            "POST",
            "/v1/batch",
            &format!(r#"{{"points":[{layer}]}}"#),
        );
        if pct >= 90 {
            assert_shed(&batch, &at("batch"));
        } else {
            assert_served(&batch, &at("batch"));
        }

        // A shape this table has not asked for before, so it is uncached.
        let fresh = |body: &str| body.replace("\"pes\":64", &format!("\"pes\":{}", 128 + pct));
        for (what, body) in [("layer", layer), ("model", model)] {
            let hit = send(&ctx, &sock, "POST", "/v1/analyze", body);
            let miss = send(&ctx, &sock, "POST", "/v1/analyze", &fresh(body));
            if pct >= 90 {
                assert_eq!(hit.status, 200, "{}: {}", at(what), hit.body);
                assert_eq!(hit.degraded, Some("cache-only"), "{}", at(what));
                assert_shed(&miss, &at(&format!("uncached {what}")));
            } else {
                assert_served(&hit, &at(what));
                assert_served(&miss, &at(&format!("uncached {what}")));
            }
        }
    }
}

/// A request whose deadline already tripped is answered cache-only at
/// any pressure: a hit is a degraded 200, a miss the honest 504.
#[test]
fn expired_deadline_answers_from_cache_only() {
    let ctx = api_ctx();
    let (_client, sock) = socket();
    let warm = r#"{"model":"alexnet","layer":"CONV2","pes":96}"#;
    assert_served(&send(&ctx, &sock, "POST", "/v1/analyze", warm), "warm");
    let expired = |body: &str| body.replace('}', r#","deadline_ms":0}"#);
    let hit = send(&ctx, &sock, "POST", "/v1/analyze", &expired(warm));
    assert_eq!(hit.status, 200, "{}", hit.body);
    assert_eq!(hit.degraded, Some("cache-only"));
    let miss = send(
        &ctx,
        &sock,
        "POST",
        "/v1/analyze",
        &expired(r#"{"model":"alexnet","pes":112}"#),
    );
    assert_eq!(miss.status, 504, "{}", miss.body);
    assert!(miss.body.contains("\"completed_units\":0"), "{}", miss.body);
    assert!(miss.degraded.is_none());
}
