//! Drives the `maestro` binary end-to-end and checks that each class of
//! user error maps to its documented exit code with a rendered diagnostic
//! on stderr (never a panic backtrace):
//!
//! - 2 `Usage`       — unknown command, bad flag value, unreadable input,
//!   a flag or positional argument `serve` or `dse` does not take, a
//!   value given to a boolean flag
//! - 3 `Parse`       — malformed dataflow (`.m`/`.df`) or network file
//! - 4 `Resolve`     — dataflow does not resolve onto the layer/accelerator
//! - 5 `Analysis`    — the cost model itself rejected the configuration
//! - 6 `Conformance` — `conform` found model-vs-simulator divergences

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// `serve` refuses a flag it does not read — a retired knob or a typo —
/// before binding, instead of starting a daemon with a policy the caller
/// did not ask for. `--max-seconds` bounds the daemon if it starts.
#[test]
fn serve_rejects_unread_flags_with_exit_2() {
    for flag in [
        "--sojourn-target-ms",
        "--queue-dept",
        "--wedge-ms",
        "--worker-quorum",
        "--watchdog-interval-ms",
        "--max-request-threads",
    ] {
        let out = maestro(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-seconds",
            "1",
            flag,
            "5",
        ]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        assert!(stderr(&out).contains(flag), "{flag}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("serving on"),
            "{flag}: bound anyway: {stdout}"
        );
    }
}

/// `dse` refuses a flag it does not read — a retired knob or a typo —
/// before sweeping, as `serve` does.
#[test]
fn dse_rejects_unread_flags_with_exit_2() {
    for flag in [
        "--retries",
        "--deadline",
        "--unit-timeout",
        "--checkpoint-interval",
        "--threads",
        "--bogus",
    ] {
        let out = maestro_bounded(&[
            "dse", "--model", "vgg16", "--layer", "CONV2", "--style", "KC-P", flag, "1",
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(&format!("dse does not take {flag}")), "{err}");
        assert!(out.stdout.is_empty(), "{flag}: swept anyway");
    }
}

/// Every flag `dse` takes is read before the sweep, whether or not the
/// flag it qualifies was given, so none of them is refused.
#[test]
fn dse_reads_every_flag_it_takes() {
    let traces = std::env::temp_dir().join(format!(
        "maestro-cli-test-{}-traces.json",
        std::process::id()
    ));
    let out = maestro(&[
        "dse",
        "--model",
        "vgg16",
        "--layer",
        "CONV2",
        "--style",
        "KC-P",
        "--inject-seed",
        "3",
        "--trace-seed",
        "5",
        "--trace-out",
        traces.to_str().expect("utf8 path"),
        "--checkpoint-secs",
        "0",
        "--max-seconds",
        "300",
        "--progress",
        "--json",
    ]);
    let _ = std::fs::remove_file(&traces);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

/// How long [`maestro_bounded`] lets a command run before killing it.
const BOUND: Duration = Duration::from_secs(20);

/// `maestro` with `args`, killed if it outlives [`BOUND`]: a regression
/// that starts a daemon or a sweep fails the test instead of hanging it.
/// Its stdout and stderr are drained while it runs, so output larger than
/// a pipe buffer cannot block it.
fn maestro_bounded(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn maestro binary");
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");
    std::thread::scope(|s| {
        let stdout = s.spawn(|| read_all(stdout));
        let stderr = s.spawn(|| read_all(stderr));
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll maestro") {
                break status;
            }
            if start.elapsed() > BOUND {
                let _ = child.kill();
                break child.wait().expect("reap maestro");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        Output {
            status,
            stdout: stdout.join().expect("stdout reader"),
            stderr: stderr.join().expect("stderr reader"),
        }
    })
}

/// Everything `pipe` yields until its writer closes it.
fn read_all(mut pipe: impl Read) -> Vec<u8> {
    let mut bytes = Vec::new();
    pipe.read_to_end(&mut bytes).expect("read maestro output");
    bytes
}

/// A sweep whose `--json` report is far larger than a pipe buffer exits
/// 0 through [`maestro_bounded`], well inside its bound.
#[test]
fn bounded_run_drains_large_output() {
    let start = Instant::now();
    let out = maestro_bounded(&[
        "dse", "--model", "vgg16", "--layer", "CONV2", "--style", "KC-P", "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(start.elapsed() < BOUND / 2, "took {:?}", start.elapsed());
    assert!(out.stdout.len() > 1 << 16, "{} bytes", out.stdout.len());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"pareto\""),
        "no frontier in the report"
    );
}

/// A reader that closes stdout early (`maestro ... | head -c 10`) ends
/// the command quietly with exit 0, not with a broken-pipe panic (101).
#[test]
fn closed_stdout_ends_the_command_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args([
            "dse", "--model", "vgg16", "--layer", "CONV2", "--style", "KC-P", "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn maestro binary");
    let mut head = [0u8; 10];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("read the first bytes");
    // The read end is dropped here, closed while maestro still writes.
    let out = child.wait_with_output().expect("collect maestro output");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.is_empty(), "{err}");
}

/// `dse` and `serve` refuse a positional argument they do not read, as
/// they refuse an unread flag, before sweeping or binding.
#[test]
fn stray_positional_arguments_exit_2() {
    let cases: [&[&str]; 2] = [
        &[
            "dse", "--model", "vgg16", "--layer", "CONV2", "--style", "KC-P", "stray",
        ],
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-seconds",
            "1",
            "stray",
        ],
    ];
    for args in cases {
        let out = maestro_bounded(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(&format!("{} does not take stray", args[0])),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

/// A boolean flag takes no value: the word after it is refused with exit
/// 2 naming the flag and the word, not read as "off" and dropped. A bare
/// flag and an explicit `true` still work.
#[test]
fn a_value_given_to_a_boolean_flag_exits_2() {
    let dump = temp_file("traces.json", "[]");
    let dump = dump.to_str().expect("utf8 path");
    let cases: [(&[&str], &str, &str); 3] = [
        (
            &[
                "dse", "--model", "vgg16", "--layer", "CONV2", "--style", "KC-P", "--json", "stray",
            ],
            "--json",
            "stray",
        ),
        (
            &[
                "analyze", "--model", "vgg16", "--layer", "CONV2", "--json", "false",
            ],
            "--json",
            "false",
        ),
        (
            &["trace", "--folded", "00ab", "--file", dump],
            "--folded",
            "00ab",
        ),
    ];
    for (args, flag, word) in cases {
        let out = maestro_bounded(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(&format!(
                "{flag} is a flag and takes no value, got `{word}`"
            )),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
    for json in [&["--json"][..], &["--json", "true"]] {
        let mut args = vec!["analyze", "--model", "vgg16", "--layer", "CONV2"];
        args.extend_from_slice(json);
        let out = maestro(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with('{'),
            "{args:?}: not JSON"
        );
    }
}

/// A seconds flag that is negative, NaN, infinite or too large for a
/// duration is a usage error naming the flag, never a panic; so is a
/// zero `serve --io-timeout`, which the OS refuses as a socket timeout.
#[test]
fn out_of_range_seconds_flags_exit_2() {
    let cases = [
        ("serve", "--drain-seconds", "-1"),
        ("serve", "--drain-seconds", "nan"),
        ("serve", "--io-timeout", "-1"),
        ("serve", "--io-timeout", "inf"),
        ("serve", "--io-timeout", "0"),
        ("serve", "--max-seconds", "inf"),
        ("serve", "--max-seconds", "-1"),
        ("dse", "--max-seconds", "inf"),
        ("dse", "--max-seconds", "1e300"),
        ("dse", "--checkpoint-secs", "inf"),
        ("conform", "--max-seconds", "inf"),
    ];
    for (command, flag, value) in cases {
        let rest: &[&str] = match command {
            "serve" => &["--addr", "127.0.0.1:0"],
            "dse" => &["--model", "alexnet", "--layer", "CONV1"],
            _ => &["--cases", "1"],
        };
        let mut args = vec![command, flag, value];
        args.extend(rest);
        let out = maestro_bounded(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("serving on"),
            "{args:?}: bound anyway: {stdout}"
        );
    }
}

// Regression: a restarted serve worker drew `worker-panic` again before
// its first pop, so at rate 1 the workers panicked in a loop (tens of
// thousands of times a second), never reached the closed queue, and the
// drain was forced (exit 7).
#[test]
fn serve_worker_panic_at_rate_1_still_drains_cleanly() {
    // stderr to null: every restart prints a panic message.
    let mut child = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--chaos",
            "worker-panic:1",
            "--max-seconds",
            "1",
            "--drain-seconds",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn maestro serve");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll maestro") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            break child.wait().expect("reap maestro");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "forced drain: {status:?}");
}

#[test]
fn healthy_invocations_exit_0() {
    let out = maestro(&["analyze", "--model", "vgg16", "--layer", "CONV2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = maestro(&["help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

/// `dse --style` takes the Table 3 aliases in any case, as `analyze
/// --dataflow` and `/v1/dse` do: `dla` sweeps exactly what `KC-P` does.
#[test]
fn dse_style_accepts_the_table_3_aliases() {
    let sweep = |style: &str| {
        let out = maestro(&[
            "dse", "--model", "alexnet", "--layer", "CONV1", "--style", style, "--json",
        ]);
        assert_eq!(out.status.code(), Some(0), "{style}: {}", stderr(&out));
        // Everything but the wall-clock fields.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("\"seconds\"") && !l.contains("\"rate\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let kcp = sweep("KC-P");
    assert!(kcp.contains("\"pareto\""), "{kcp}");
    assert_eq!(sweep("dla"), kcp);
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
