//! Drives the `maestro` binary end-to-end and checks its observability
//! surface: `--metrics` emits valid Prometheus text exposition with the
//! documented metric names, `--trace-json` emits well-formed JSON lines
//! covering every analysis engine stage, and diagnostics stay silent at
//! the default log level.

use std::path::PathBuf;
use std::process::{Command, Output};

fn maestro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maestro"))
        .env_remove("MAESTRO_LOG")
        .args(args)
        .output()
        .expect("spawn maestro binary")
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("maestro-obs-test-{}-{name}", std::process::id()));
    path
}

/// `dse --metrics -` interleaves the human summary and the exposition on
/// stdout; the exposition lines are the ones starting with `#` or a
/// `maestro_` sample.
fn exposition_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with('#') || l.starts_with("maestro_"))
        .collect()
}

#[test]
fn dse_metrics_exposition_has_documented_names() {
    let out = maestro(&[
        "dse",
        "--model",
        "vgg16",
        "--layer",
        "CONV5",
        "--style",
        "KC-P",
        "--threads",
        "2",
        "--metrics",
        "-",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for name in [
        "maestro_cache_hits",
        "maestro_cache_misses",
        "maestro_cache_inserts",
        "maestro_dse_units_completed",
        "maestro_dse_units_quarantined",
        "maestro_dse_unit_seconds",
        "maestro_dse_unit_rate",
        "maestro_dse_pareto_inserted",
        "maestro_dse_pareto_rejected",
        "maestro_dse_capacity_skipped",
        "maestro_analysis_calls",
    ] {
        assert!(
            stdout.contains(&format!("# TYPE {name} ")),
            "missing TYPE line for {name} in:\n{stdout}"
        );
    }
    // No quarantine happened, but the counter must still be exposed.
    assert!(
        stdout.contains("maestro_dse_units_quarantined 0"),
        "{stdout}"
    );
    // Minimal exposition well-formedness: every sample line is
    // `name[{labels}] value` with a parseable value.
    for line in exposition_lines(&stdout) {
        if line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value in `{line}`"
        );
    }
    // Histograms carry the _sum/_count companion series.
    assert!(stdout.contains("maestro_dse_unit_seconds_sum"), "{stdout}");
    assert!(
        stdout.contains("maestro_dse_unit_seconds_count"),
        "{stdout}"
    );
    assert!(stdout.contains("le=\"+Inf\""), "{stdout}");
}

/// A one-thread Fig 13 sweep takes about a millisecond in a release
/// build; the summary line prints its time in milliseconds, with enough
/// digits to read nonzero (two-decimal seconds read `0.00s`).
#[test]
fn dse_summary_prints_a_nonzero_sweep_time() {
    let out = maestro(&[
        "dse",
        "--model",
        "vgg16",
        "--layer",
        "CONV2",
        "--style",
        "KC-P",
        "--threads",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().next().unwrap_or_default();
    let mut took = summary
        .split_once(" designs in ")
        .map_or("", |(_, rest)| rest)
        .split_whitespace();
    let (value, unit) = (took.next(), took.next());
    assert_eq!(unit, Some("ms"), "no sweep time in ms in `{summary}`");
    let ms: f64 = value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unreadable sweep time in `{summary}`"));
    assert!(ms > 0.0, "zero sweep time in `{summary}`");
}

#[test]
fn metrics_write_to_file() {
    let path = temp_path("metrics.prom");
    let out = maestro(&[
        "analyze",
        "--model",
        "vgg16",
        "--layer",
        "CONV2",
        "--dataflow",
        "KC-P",
        "--pes",
        "256",
        "--metrics",
        path.to_str().expect("utf8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    assert!(text.contains("maestro_analysis_calls 1"), "{text}");
}

#[test]
fn trace_json_covers_every_analysis_stage() {
    let path = temp_path("trace.jsonl");
    let out = maestro(&[
        "analyze",
        "--model",
        "vgg16",
        "--layer",
        "CONV2",
        "--dataflow",
        "KC-P",
        "--pes",
        "256",
        "--trace-json",
        path.to_str().expect("utf8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("trace file written");
    for stage in [
        "maestro.analysis.analyze",
        "maestro.analysis.tensor",
        "maestro.analysis.reuse",
        "maestro.analysis.buffer",
        "maestro.analysis.noc",
    ] {
        assert!(text.contains(stage), "stage {stage} missing from:\n{text}");
    }
    // Well-formed JSONL: one object per line with the documented keys.
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in ["\"name\":", "\"id\":", "\"parent\":", "\"dur_us\":"] {
            assert!(line.contains(key), "missing {key} in `{line}`");
        }
    }
    // Stage spans nest under the root analyze span: exactly one root.
    let roots = text
        .lines()
        .filter(|l| l.contains("\"parent\":null"))
        .count();
    assert_eq!(roots, 1, "{text}");
}

#[test]
fn dse_human_summary_reports_full_stats() {
    let out = maestro(&[
        "dse",
        "--model",
        "vgg16",
        "--layer",
        "CONV5",
        "--style",
        "KC-P",
        "--threads",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "memo hits",
        "hit rate",
        "capacity-skipped",
        "non-finite dropped",
        "Pareto insertions",
        "quarantined",
        "designs/s",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}

#[test]
fn default_log_level_is_silent_on_success() {
    let out = maestro(&[
        "analyze",
        "--model",
        "vgg16",
        "--layer",
        "CONV2",
        "--dataflow",
        "KC-P",
        "--pes",
        "256",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "stderr not silent: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn maestro_log_enables_stderr_diagnostics() {
    let out = Command::new(env!("CARGO_BIN_EXE_maestro"))
        .env("MAESTRO_LOG", "warn")
        .args(["analyze", "--model", "vgg16", "--layer", "CONV2"])
        .output()
        .expect("spawn maestro binary");
    // A successful analyze emits no warnings either — the level gate alone
    // must not produce output.
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
}

#[test]
fn conform_metrics_report_harness_counters() {
    let out = maestro(&["conform", "--seed", "3", "--cases", "10", "--metrics", "-"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let expo = exposition_lines(&stdout).join("\n");
    assert!(expo.contains("maestro_conform_cases 10"), "{expo}");
    for name in [
        "maestro_conform_diverged",
        "maestro_conform_shrunk",
        "maestro_conform_skipped",
    ] {
        assert!(expo.contains(name), "missing {name}: {expo}");
    }
}
