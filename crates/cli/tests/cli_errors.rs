//! Drives the `maestro` binary end-to-end and checks that each class of
//! user error maps to its documented exit code with a rendered diagnostic
//! on stderr (never a panic backtrace):
//!
//! - 2 `Usage`       — unknown command, bad flag value, unreadable input
//! - 3 `Parse`       — malformed dataflow (`.m`/`.df`) or network file
//! - 4 `Resolve`     — dataflow does not resolve onto the layer/accelerator
//! - 5 `Analysis`    — the cost model itself rejected the configuration
//! - 6 `Conformance` — `conform` found model-vs-simulator divergences

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};

fn maestro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args(args)
        .output()
        .expect("spawn maestro binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Write `content` to a unique temp file and return its path. The file is
/// leaked into the temp dir; test runs are cheap and the OS cleans up.
fn temp_file(name: &str, content: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("maestro-cli-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

#[test]
fn unknown_command_exits_2_with_usage() {
    let out = maestro(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown command `frobnicate`"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn bad_integer_flag_exits_2() {
    let out = maestro(&["analyze", "--layer", "CONV2", "--pes", "lots"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--pes expects an integer"),
        "{}",
        stderr(&out)
    );
}

/// A zero-width NoC pipe is a bad flag value, not a panic in the
/// hardware model.
#[test]
fn zero_bandwidth_exits_2() {
    let out = maestro(&["analyze", "--layer", "CONV2", "--bw", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("--bw must be a positive integer"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn missing_layer_exits_2() {
    let out = maestro(&["analyze", "--model", "vgg16"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("missing --layer"), "{}", stderr(&out));
}

#[test]
fn unreadable_dataflow_file_exits_2() {
    let out = maestro(&[
        "analyze",
        "--layer",
        "CONV2",
        "--dataflow",
        "/nonexistent/path.m",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("is not a style name and reading it failed"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_dataflow_file_exits_3_with_caret_diagnostic() {
    let df = temp_file(
        "bad.m",
        "Dataflow ODP {\n  TemporalMap(1,1) K;\n  TemporalMap(1,!) Q;\n}\n",
    );
    let out = maestro(&[
        "analyze",
        "--layer",
        "CONV2",
        "--dataflow",
        df.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let err = stderr(&out);
    // The new ParseError diagnostics carry line/column, the offending
    // source line, and a caret under the error.
    assert!(err.contains("parse error at line 3"), "{err}");
    assert!(err.contains("TemporalMap(1,!) Q;"), "{err}");
    assert!(err.contains('^'), "{err}");
}

#[test]
fn malformed_network_file_exits_3() {
    let net = temp_file("bad.net", "Network broken {\n  Layer L1 { type: }\n}\n");
    let out = maestro(&["model", "--model", net.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("parsing"), "{}", stderr(&out));
}

#[test]
fn unresolvable_dataflow_exits_4() {
    // A dataflow that never maps the layer's dimensions cannot be
    // resolved onto it: every style needs the mapped dims to exist.
    let df = temp_file(
        "unresolvable.m",
        "Dataflow ODP {\n  SpatialMap(1,1) Z;\n}\n",
    );
    let out = maestro(&[
        "analyze",
        "--layer",
        "CONV2",
        "--dataflow",
        df.to_str().expect("utf8 path"),
    ]);
    // `Z` is not a dimension name, so this dies in the parser (exit 3);
    // a structurally valid but unmappable dataflow dies in resolve.
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));

    // Mapping the same dimension twice in one cluster level is a
    // well-formed parse but an invalid mapping: ResolveError::DuplicateDim.
    let df = temp_file(
        "duplicate_dim.m",
        "Dataflow ODP {\n  TemporalMap(1,1) K;\n  TemporalMap(1,1) K;\n}\n",
    );
    let out = maestro(&[
        "analyze",
        "--layer",
        "CONV2",
        "--dataflow",
        df.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("mapped more than once"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn healthy_invocations_exit_0() {
    let out = maestro(&["analyze", "--model", "vgg16", "--layer", "CONV2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = maestro(&["help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn conform_divergence_exits_6() {
    // Zero tolerance turns any nonzero model-vs-sim delta into a reported
    // divergence; a handful of cases is guaranteed to contain one.
    let out = maestro(&[
        "conform",
        "--seed",
        "1",
        "--cases",
        "5",
        "--tol-runtime",
        "0",
        "--tol-l1",
        "0",
        "--tol-l2",
        "0",
        "--tol-util",
        "0",
        "--tol-macs",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(6), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("diverged beyond tolerance"),
        "{}",
        stderr(&out)
    );
    // The report prints a ready-to-paste reproducer for the first failure.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("#[test]"), "{stdout}");
    assert!(stdout.contains("validate_layer"), "{stdout}");
}

#[test]
fn conform_clean_run_exits_0() {
    let out = maestro(&["conform", "--seed", "1", "--cases", "25"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 diverged"), "{stdout}");
}
