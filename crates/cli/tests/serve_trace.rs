//! End-to-end tracing tests driving the real `maestro serve` binary:
//! every response carries an `x-maestro-trace` header, `/debug/traces`
//! phase attribution agrees with the access log, shed requests are
//! tail-kept, and the `maestro trace` explorer renders what the daemon
//! serves.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

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

fn stop(child: &mut Child) {
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let _ = child.wait();
}

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

/// The `x-maestro-trace` header value, if present.
fn trace_id_of(response: &str) -> Option<String> {
    response.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("x-maestro-trace")
            .then(|| v.trim().to_string())
    })
}

/// Pull every `"key":<integer>` occurrence out of a JSON-ish line.
fn field_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn every_response_carries_a_trace_header() {
    let (mut child, addr) = spawn_serve(&["--trace-seed", "7"]);
    // Success, 404, and a parser-rejected 400 all get trace IDs.
    let ok = post(
        &addr,
        "/v1/analyze",
        "{\"model\":\"alexnet\",\"layer\":\"CONV1\",\"pes\":64}",
    );
    assert_eq!(status_of(&ok), 200, "{ok}");
    let id = trace_id_of(&ok).expect("trace header on 200");
    assert_eq!(id.len(), 32, "{id}");
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");

    let missing = get(&addr, "/no-such-endpoint");
    assert_eq!(status_of(&missing), 404);
    assert!(trace_id_of(&missing).is_some(), "{missing}");

    let bad = post(&addr, "/v1/analyze", "{nope");
    assert_eq!(status_of(&bad), 400);
    assert!(trace_id_of(&bad).is_some(), "{bad}");

    // Distinct requests get distinct IDs.
    let ok2 = get(&addr, "/healthz");
    assert_ne!(trace_id_of(&ok2).expect("header"), id);
    stop(&mut child);
}

#[test]
fn debug_trace_phases_sum_to_the_access_log_total() {
    let dir = std::env::temp_dir().join(format!("maestro-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("access.jsonl");
    let log_str = log.to_str().expect("utf-8 temp path").to_string();
    let (mut child, addr) = spawn_serve(&["--trace-sample", "1", "--access-log", &log_str]);
    // A 100-case conformance sweep: multi-millisecond in both debug and
    // release builds (a whole-model analyze is not, in release), so phase
    // attribution operates far above clock granularity.
    let resp = post(&addr, "/v1/conform", "{\"seed\":1,\"cases\":100}");
    assert_eq!(status_of(&resp), 200, "{resp}");
    let id = trace_id_of(&resp).expect("trace header");

    let detail = get(&addr, &format!("/debug/traces/{id}"));
    assert_eq!(status_of(&detail), 200, "{detail}");
    let body = detail.split("\r\n\r\n").nth(1).expect("body");
    let total = field_u64(body, "total_us").expect("total_us in trace");
    // Sum the per-phase durations out of the detail JSON.
    let mut phase_sum = 0u64;
    let mut rest = body;
    while let Some(i) = rest.find("\"dur_us\":") {
        rest = &rest[i + "\"dur_us\":".len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        phase_sum += digits.parse::<u64>().expect("dur_us digits");
    }
    assert!(total > 1_000, "conformance sweep too fast: {total}us");
    let gap = total.abs_diff(phase_sum);
    assert!(
        gap * 20 <= total,
        "phases sum to {phase_sum}us but the trace total is {total}us (gap > 5%)"
    );

    // The access log agrees with the trace on the same request.
    stop(&mut child); // drain flushes the log
    let log_text = std::fs::read_to_string(&log).expect("access log written");
    let line = log_text
        .lines()
        .find(|l| l.contains(&id))
        .unwrap_or_else(|| panic!("trace {id} not in access log:\n{log_text}"));
    let log_total = field_u64(line, "total_us").expect("total_us in access log");
    assert_eq!(log_total, total, "{line}");
    let attributed = ["queue_us", "parse_us", "analyze_us", "serialize_us"]
        .iter()
        .map(|k| field_u64(line, k).expect("phase field"))
        .sum::<u64>();
    let gap = log_total.abs_diff(attributed);
    assert!(
        gap * 20 <= log_total,
        "access log attributes {attributed}us of {log_total}us (gap > 5%)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_requests_are_tail_kept_and_renderable() {
    // One worker, queue depth 1, and an aggressive sample-out rate: the
    // only way a trace survives is the tail-sampling error override.
    let (mut child, addr) = spawn_serve(&[
        "--workers",
        "1",
        "--queue-depth",
        "1",
        "--trace-sample",
        "1000000",
        "--io-timeout",
        "1",
    ]);
    // Occupy the worker and the queue with connections that send
    // nothing (the 1 s io-timeout reaps them), then trip admission.
    let hold_a = TcpStream::connect(&addr).expect("hold worker");
    let mut hold_b = TcpStream::connect(&addr).expect("hold queue");
    let mut shed_status = 0;
    for probe in 0..50 {
        let mut resp = get(&addr, "/healthz");
        if probe == 0 && status_of(&resp) != 503 {
            // The acceptor admits or sheds in accept order, so the fate of
            // `hold_b` was sealed before this probe was accepted. When the
            // worker had not yet popped `hold_a`, `hold_b` found the queue
            // full and is the shed (the probe then queued behind `hold_a`):
            // its 503 is already in the socket buffer.
            hold_b
                .set_read_timeout(Some(Duration::from_millis(100)))
                .ok();
            let mut early = Vec::new();
            let _ = hold_b.read_to_end(&mut early);
            if !early.is_empty() {
                resp = String::from_utf8_lossy(&early).to_string();
            }
        }
        shed_status = status_of(&resp);
        if shed_status == 503 {
            assert!(trace_id_of(&resp).is_some(), "shed carries a trace: {resp}");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(shed_status, 503, "admission control never shed");
    drop(hold_a);
    drop(hold_b);

    // Wait for the daemon to drain the held connections, then read the
    // flight recorder: the 503 must be there as a forced keep.
    let mut listing = String::new();
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(50));
        let resp = get(&addr, "/debug/traces");
        if status_of(&resp) == 200 {
            listing = resp;
            if listing.contains("\"status\":503") {
                break;
            }
        }
    }
    assert!(
        listing.contains("\"status\":503"),
        "shed trace not kept: {listing}"
    );
    let shed_region = &listing[listing.find("\"status\":503").unwrap()..];
    assert!(
        shed_region.starts_with("\"status\":503,\"start_unix_ms\""),
        "{shed_region}"
    );
    assert!(listing.contains("\"kept\":\"error\""), "{listing}");
    assert!(listing.contains("\"name\":\"shed\""), "{listing}");

    // The explorer renders the daemon's listing and folded stacks.
    let out = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args(["trace", "--from", &addr])
        .output()
        .expect("run maestro trace");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("503"), "{text}");
    assert!(text.contains("shed"), "{text}");

    let folded = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args(["trace", "--from", &addr, "--folded"])
        .output()
        .expect("run maestro trace --folded");
    assert!(folded.status.success(), "{folded:?}");
    let text = String::from_utf8_lossy(&folded.stdout).to_string();
    assert!(text.contains("shed;"), "{text}");
    stop(&mut child);
}

#[test]
fn dse_trace_sample_dumps_unit_traces_the_explorer_reads() {
    let dir = std::env::temp_dir().join(format!("maestro-dse-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dump = dir.join("units.json");
    let dump_str = dump.to_str().expect("utf-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args([
            "dse",
            "--model",
            "alexnet",
            "--layer",
            "CONV1",
            "--style",
            "KC-P",
            "--trace-sample",
            "1/4",
            "--trace-seed",
            "9",
            "--trace-out",
            dump_str,
        ])
        .output()
        .expect("run maestro dse");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&dump).expect("trace dump written");
    assert!(text.contains("\"name\":\"dse.unit[0]\""), "{text}");
    assert!(text.contains("\"name\":\"dse.unit[4]\""), "{text}");
    // 1-in-4 of the sweep's units: unit 1 is not drawn.
    assert!(!text.contains("\"name\":\"dse.unit[1]\""), "{text}");

    // The explorer renders the dump from a file, no daemon involved.
    let folded = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args(["trace", "--file", dump_str, "--folded"])
        .output()
        .expect("run maestro trace --file");
    assert!(folded.status.success(), "{folded:?}");
    let text = String::from_utf8_lossy(&folded.stdout).to_string();
    assert!(text.contains(";unit "), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
