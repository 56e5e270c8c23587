//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse_fig13|zoo_analyze|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every workload first builds the
//! `maestro` CLI (the serve workloads drive it as a daemon), builds its
//! seeded inputs (timed as `setup_s`), measures for `--seconds`, checks its
//! outputs against an oracle and committed digests, and prints one JSON
//! result as the last stdout line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` spends half the time untraced and half traced and
//! reports the per-layer metrics. The full record (host fingerprint, raw
//! samples) goes to `perfbench/results/`. See `perfbench/README.md`.

mod core_layer;
mod dse;
mod host;
mod parse;
mod serve;
mod stats;
mod zoo;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics (name, unit), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
];

/// Per-layer metrics (name, unit), in `BENCHMARK.json` order. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.build_ns", "ns"),
    ("core.build_ns_p99", "ns"),
    ("core.finish_ns", "ns"),
    ("core.tensor_ns", "ns"),
    ("core.reuse_ns", "ns"),
    ("core.buffer_ns", "ns"),
    ("core.noc_ns", "ns"),
    ("core.perf_ns", "ns"),
    ("core.calls", "count"),
    ("core.ok_share", "ratio"),
    ("memo.stage_hit_ratio", "ratio"),
    ("memo.report_hit_ratio", "ratio"),
    ("memo.lock_waits", "count"),
    ("dse.unit_ms", "ms"),
    ("dse.unit_ms_p90", "ms"),
    ("dse.analysis_share", "ratio"),
    ("dse.expand_share", "ratio"),
    ("dse.explored", "count"),
    ("dse.evaluated", "count"),
    ("dse.valid", "count"),
    ("dse.capacity_skipped", "count"),
    ("dse.pareto_inserted", "count"),
    ("dse.pareto_rejected", "count"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.parse_us_p50", "us"),
    ("serve.parse_us_p99", "us"),
    ("serve.analyze_us_p50", "us"),
    ("serve.analyze_us_p99", "us"),
    ("serve.serialize_us_p50", "us"),
    ("serve.serialize_us_p99", "us"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.phase_share", "ratio"),
    ("serve.bytes_per_resp.analyze", "bytes"),
    ("serve.bytes_per_resp.batch", "bytes"),
    ("serve.shed", "count"),
    ("serve.shed_sojourn", "count"),
    ("serve.brownout_shed", "count"),
    ("serve.degraded", "count"),
    ("serve.timeouts", "count"),
    ("serve.gen_late_ms_p99", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// The calibration kernel's time on the reference host: this benchmark's
/// development host (see `README.md`) in its fast phase. Timings are
/// reported in reference-host time, `measured × REFERENCE_NS / kernel`,
/// with the kernel timed next to each measurement. The shared hosts this
/// runs on swing between a fast phase and one up to 1.8× slower for
/// seconds to minutes; the kernel slows with them, so the ratio keeps the
/// code's cost and drops the neighbours'.
pub const REFERENCE_NS: f64 = 70_000.0;

/// `ns` in reference-host nanoseconds, given the calibration kernel's
/// time `kernel_ns` next to it.
pub fn normalized(ns: f64, kernel_ns: f64) -> f64 {
    ns * REFERENCE_NS / kernel_ns
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Set-up timings (normalized, seconds) spread over a run: the first
/// before measuring, the rest at even intervals between operations, so
/// `setup_s` does not hang on the host's state at one instant.
pub struct Setups<T> {
    setup: fn() -> T,
    every: f64,
    next: f64,
    pub samples: Vec<f64>,
}

impl<T> Setups<T> {
    /// Time the first set-up and return its result.
    pub fn first(setup: fn() -> T, seconds: f64) -> (Setups<T>, T) {
        let (value, secs) = time_setup(setup);
        let every = seconds / SETUPS as f64;
        let clock = Setups {
            setup,
            every,
            next: every,
            samples: vec![secs],
        };
        (clock, value)
    }

    /// Between operations, `elapsed` seconds into measuring: time another
    /// set-up when one is due.
    pub fn tick(&mut self, elapsed: f64) {
        if elapsed >= self.next && self.samples.len() < SETUPS {
            let (value, secs) = time_setup(self.setup);
            drop(std::hint::black_box(value));
            self.samples.push(secs);
            self.next += self.every;
        }
    }
}

/// Run one set-up; return its result and its normalized time, seconds.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let value = setup();
    let ns = t0.elapsed().as_nanos() as f64;
    (value, normalized(ns, stats::calibrate()) / 1e9)
}

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `maestro` CLI binary.
    pub daemon: PathBuf,
    /// Scratch directory for this run's files (access logs).
    pub run_dir: PathBuf,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: Vec<(&'static str, f64)>,
    /// Raw JSON fragments for the full record (samples, summaries).
    pub detail: Vec<(&'static str, String)>,
    /// Correctness failures; the run is correct when this stays empty.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, key: &'static str, json: String) {
        self.detail.push((key, json));
    }

    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// `100 × (traced / untraced − 1)`: what tracing adds to a median.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}

/// Median of a small sample set.
pub fn median_of(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    stats::sort(&mut s);
    stats::percentile(&s, 50.0)
}

/// `[a,b,...]` with full-precision numbers.
pub fn json_array(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|&x| stats::num(x)).collect();
    format!("[{}]", parts.join(","))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("a number in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Build the `maestro` CLI from the checkout's workspace (a no-op when it
/// is fresh) and return its path. Cargo's own output goes to stderr.
fn build_daemon() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "maestro-cli",
            "--bin",
            "maestro",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the maestro CLI failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("maestro");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Config) -> Outcome = match args.workload.as_str() {
        "dse_fig13" => dse::run,
        "zoo_analyze" => zoo::run,
        "serve_mix" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let daemon = match build_daemon() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let run_dir = PathBuf::from("perfbench").join("results");
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let host = host::fingerprint();
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        daemon,
        run_dir,
    };
    let mut out = run(&cfg);
    if !out.metrics.iter().any(|(n, _)| *n == "peak_rss_mb") && !cfg.trace {
        out.set("peak_rss_mb", host::peak_rss_mb("self"));
    }
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut rendered = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            None if cfg.trace => 0.0,
            None => {
                out.problem(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            out.problem(format!("{name} is not finite"));
        }
        println!("{name:<30} {value:>16.6} {unit}");
        rendered.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            stats::num(value)
        ));
    }
    for p in &out.problems {
        eprintln!("perfbench: INCORRECT: {p}");
    }
    let correct = out.problems.is_empty();
    let problems: Vec<String> = out.problems.iter().map(|p| host::json_str(p)).collect();
    let mut record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{},\"problems\":[{}],\"metrics\":{{{}}}",
        args.workload,
        args.seed,
        stats::num(args.seconds),
        args.trace,
        out.attempted,
        out.failed,
        problems.join(","),
        rendered.join(","),
    );
    for (key, json) in &out.detail {
        record.push_str(&format!(",\"{key}\":{json}"));
    }
    record.push('}');
    let path = cfg.run_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::write(&path, record + "\n") {
        Ok(()) => println!("record: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    println!("host: {host}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        rendered.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree, or the
    /// result line would not match the benchmark's declared contract.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name end")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "{needle}");
        }
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_median() {
        assert!((overhead_pct(2.0, 2.2) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(json_array(&[1.5, 2.0]), "[1.5,2]");
        // A host running at half speed doubles both times; the ratio
        // keeps the reference-host figure.
        assert_eq!(normalized(2e6, 2.0 * REFERENCE_NS), 1e6);
        assert!(stats::calibrate() > 0.0);
    }
}
