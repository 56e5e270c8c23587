//! Drives the `maestro` binary end-to-end and checks that each class of
//! user error maps to its documented exit code with a rendered diagnostic
//! on stderr (never a panic backtrace):
//!
//! - 2 `Usage`       — unknown command or figure, bad flag value,
//!   unreadable input, a flag or positional argument the command does not
//!   take, a value given to a boolean flag
//! - 3 `Parse`       — malformed dataflow (`.m`/`.df`) or network file
//! - 4 `Resolve`     — dataflow does not resolve onto the layer/accelerator,
//!   or no layer of a model maps (`tune`) or validates (`validate`)
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
    // Every command that binds a dataflow to a layer fails in the same
    // binding, so each exits 4 on it, on a cluster larger than the PE
    // array, and on no PEs at all.
    let df = temp_file(
        "duplicate_dim.m",
        "Dataflow ODP {\n  TemporalMap(1,1) K;\n  TemporalMap(1,1) K;\n}\n",
    );
    let df = df.to_str().expect("utf8 path");
    let nvdla = concat!(env!("CARGO_MANIFEST_DIR"), "/../../dataflows/nvdla.df");
    let cases: [(&[&str], &str); 3] = [
        (&["--dataflow", df], "mapped more than once"),
        (
            &["--dataflow", nvdla, "--pes", "3"],
            "cluster size 64 exceeds",
        ),
        (&["--pes", "0"], "accelerator has zero PEs"),
    ];
    for command in ["analyze", "explain", "lint", "mapping", "trace"] {
        for (flags, message) in cases {
            let mut args = vec![command, "--layer", "CONV2"];
            args.extend(flags);
            let out = maestro(&args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(4), "{args:?}: {err}");
            assert!(err.contains(message), "{args:?}: {err}");
        }
    }
}

/// `mapping --step` past the end of the schedule is a bad flag value:
/// exit 2, naming the flag and the schedule's step count.
#[test]
fn mapping_step_past_the_end_exits_2() {
    let out = maestro(&["mapping", "--layer", "CONV1", "--step", "99999999999"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--step"), "{err}");
    assert!(err.contains("1605632 steps"), "{err}");
    assert!(out.stdout.is_empty(), "ran anyway");
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
    let commands: [&[&str]; 2] = [
        &[
            "dse", "--model", "vgg16", "--layer", "CONV2", "--style", "KC-P", "--json",
        ],
        &["figures", "dse_model", "--model", "alexnet"],
    ];
    for args in commands {
        let mut child = Command::new(env!("CARGO_BIN_EXE_maestro"))
            .args(args)
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
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }
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

/// The figure names `maestro figures` lists when given none.
fn figure_names() -> Vec<String> {
    let out = maestro(&["figures"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    let (_, names) = err.trim().rsplit_once(": ").expect("a list of names");
    names.split(' ').map(String::from).collect()
}

/// Every subcommand and every figure refuses a flag it does not take
/// with exit 2, naming the flag, before it does any work.
#[test]
fn every_command_and_every_figure_refuses_an_unknown_flag() {
    let mut commands: Vec<Vec<String>> = [
        "analyze", "model", "dse", "validate", "conform", "serve", "loadgen", "mapping", "explain",
        "lint", "trace", "tune", "zoo", "help",
    ]
    .iter()
    .map(|c| vec![c.to_string()])
    .collect();
    commands.push(vec!["trace".into(), "--file".into(), "dump.json".into()]);
    let figures = figure_names();
    assert_eq!(figures.len(), 15, "{figures:?}");
    commands.extend(figures.into_iter().map(|f| vec!["figures".into(), f]));
    for mut args in commands {
        args.push("--bogus".into());
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = maestro_bounded(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        let command = if args[0] == "figures" {
            args[1]
        } else {
            args[0]
        };
        assert!(
            err.contains(&format!("{command} does not take --bogus")),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

/// A typo in a flag name, a stray word or a flag of the other `trace`
/// mode exits 2 instead of running with settings the caller did not ask
/// for.
#[test]
fn a_typo_or_a_stray_word_exits_2_instead_of_changing_the_answer() {
    let cases: [(&[&str], &str); 6] = [
        (
            &[
                "model",
                "--model",
                "vgg16",
                "--dataflow",
                "KC-P",
                "--pes",
                "256",
                "--adaptve",
            ],
            "model does not take --adaptve",
        ),
        (
            &[
                "model",
                "--model",
                "alexnet",
                "--adaptive",
                "--dataflow",
                "/nonexistent.df",
            ],
            "--adaptive picks each layer's dataflow, so it does not take --dataflow",
        ),
        (
            &["analyze", "--layer", "CONV2", "--pe", "64"],
            "analyze does not take --pe",
        ),
        (
            &["analyze", "--layer", "CONV2", "stray"],
            "analyze does not take stray",
        ),
        (
            &["figures", "dse_model", "--modle", "vgg16"],
            "dse_model does not take --modle",
        ),
        (
            &["trace", "--model", "vgg16", "--from", "127.0.0.1:9"],
            "trace does not take --model",
        ),
    ];
    for (args, message) in cases {
        let out = maestro_bounded(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

/// `loadgen` refuses a bad flag, value or address with exit 2, naming
/// it, before it sends anything.
#[test]
fn loadgen_refuses_bad_input_with_exit_2() {
    let cases: [(&[&str], &str); 8] = [
        (&["loadgen", "--bogus"], "loadgen does not take --bogus"),
        (
            &["loadgen", "--seconds", "abc"],
            "--seconds expects a finite, non-negative number of seconds, got `abc`",
        ),
        (
            &["loadgen", "--mode", "bogus"],
            "--mode takes analyze, mixed, batch or stream, got `bogus`",
        ),
        (
            &["loadgen", "--concurrency"],
            "--concurrency expects a value",
        ),
        (
            &["loadgen", "--concurrency", "0"],
            "--concurrency must be greater than 0",
        ),
        (
            &["loadgen", "--addr", "nohost.invalid:1"],
            "--addr: cannot resolve `nohost.invalid:1`",
        ),
        (
            &["loadgen", "--deadline-ms", "2000"],
            "loadgen does not take --deadline-ms",
        ),
        (
            &["loadgen", "--budget-ms", "4000"],
            "loadgen does not take --budget-ms",
        ),
    ];
    for (args, message) in cases {
        let out = maestro_bounded(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

/// An unknown or missing figure name exits 2 and lists the figures.
#[test]
fn an_unknown_figure_exits_2_listing_the_figures() {
    for args in [
        &["figures", "fig99"][..],
        &["figures", "dse_model_x", "--model", "vgg16"],
    ] {
        let out = maestro(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(&format!("unknown figure `{}`", args[1])),
            "{err}"
        );
        assert!(err.contains("table1") && err.contains("dse_model"), "{err}");
    }
    let out = maestro(&["figures", "dse_model", "--model", "nope"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

/// `tune` on an accelerator no candidate maps onto exits 4 naming the
/// layer, as `model --adaptive` does, instead of panicking.
#[test]
fn tune_with_no_mappable_candidate_exits_4() {
    let out = maestro(&["tune", "--model", "alexnet", "--pes", "0"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("layer CONV1"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// `validate` that validated no layer exits 4, rather than reporting a
/// 0% mean error over 0 layers.
#[test]
fn validate_with_no_layer_validated_exits_4() {
    let out = maestro(&[
        "validate",
        "--model",
        "alexnet",
        "--dataflow",
        "YR-P",
        "--pes",
        "0",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("no layer of AlexNet validated"), "{err}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Every figure but fig9 (about 30 s of simulation in a release build)
/// runs through `maestro figures` and prints its table.
#[test]
fn every_figure_runs() {
    for figure in figure_names().iter().filter(|f| *f != "fig9") {
        let out = maestro_bounded(&["figures", figure]);
        assert_eq!(out.status.code(), Some(0), "{figure}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "{figure} printed nothing");
    }
}

/// Each command runs on a small input. A command that reads a flag its
/// table does not declare panics in the read, so this pins every table
/// to its command.
#[test]
fn every_command_reads_only_the_flags_it_declares() {
    let cases: [&[&str]; 9] = [
        &["model", "--model", "alexnet"],
        &["model", "--model", "alexnet", "--adaptive", "--json"],
        &["mapping", "--layer", "CONV1", "--pes", "6", "--step", "1"],
        &["explain", "--layer", "CONV2"],
        &["lint", "--layer", "CONV2"],
        &["trace", "--layer", "CONV2", "--steps", "2"],
        &["tune", "--model", "alexnet", "--objective", "edp", "--json"],
        &["zoo"],
        &["help"],
    ];
    for args in cases {
        let out = maestro_bounded(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
    // Nothing listens on the discard port, so every request is refused:
    // the run exits 1, with the reason on stderr and its one JSON report
    // alone on stdout.
    let out = maestro_bounded(&[
        "loadgen",
        "--addr",
        "127.0.0.1:9",
        "--seconds",
        "0.2",
        "--json",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("no successful requests"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = maestro_serve::parse_json(&stdout).expect("one JSON document on stdout");
    assert_eq!(
        report.get("ok").and_then(|v| v.as_u64()),
        Some(0),
        "{stdout}"
    );
    assert!(
        report.get("refused").and_then(|v| v.as_u64()) > Some(0),
        "{stdout}"
    );
}
