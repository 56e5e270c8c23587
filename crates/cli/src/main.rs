//! `maestro` — command-line front-end for the dataflow cost model.
//!
//! ```text
//! maestro analyze  --model vgg16 --layer CONV2 --dataflow KC-P --pes 256 [--bw 32] [--json]
//! maestro model    --model resnet50 --dataflow YR-P --pes 256 [--adaptive] [--json]
//! maestro dse      --model vgg16 --layer CONV2 --style KC-P [--json]
//! maestro validate --model alexnet --dataflow YR-P --pes 168
//! maestro mapping  --model vgg16 --layer CONV1 --dataflow YR-P --pes 6 --step 0
//! maestro zoo
//! ```
//!
//! `--dataflow` accepts a Table 3 style name (C-P, X-P, YX-P, YR-P, KC-P)
//! or a path to a `.df` file in the textual DSL.

mod args;
mod signal;
mod trace_view;

use args::Args;
use maestro_core::{analyze, analyze_model, analyze_model_with, AnalysisError};
use maestro_dnn::{zoo, Layer, Model, TensorKind};
use maestro_hw::{Accelerator, EnergyModel};
use maestro_ir::{parse::parse_dataflow, Dataflow, Style};
use maestro_sim::{mapping_at_step, validate_network, SimOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What class of failure occurred. Each kind maps to a distinct process
/// exit code so scripts can tell them apart without scraping stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorKind {
    /// Bad invocation: unknown command, bad flag value, unreadable input.
    Usage,
    /// A dataflow or network description failed to parse.
    Parse,
    /// The dataflow does not resolve onto the layer / accelerator.
    Resolve,
    /// The cost-model analysis itself failed.
    Analysis,
    /// The conformance harness found model-vs-simulator divergences.
    Conformance,
    /// A signal or deadline cut the run short. Partial results (and a
    /// resumable checkpoint, when requested) were still written.
    Interrupted,
    /// Whoever read stdout closed it early (`maestro ... | head`): the
    /// rest of the report has no reader, so the command ends quietly.
    ReaderGone,
    /// Anything else.
    Other,
}

/// A rendered diagnostic plus its failure class.
#[derive(Debug)]
struct CliError {
    kind: ErrorKind,
    message: String,
}

impl CliError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        CliError {
            kind,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        CliError::new(ErrorKind::Usage, message)
    }

    fn parse(message: impl Into<String>) -> Self {
        CliError::new(ErrorKind::Parse, message)
    }

    fn resolve(message: impl Into<String>) -> Self {
        CliError::new(ErrorKind::Resolve, message)
    }

    fn analysis(message: impl Into<String>) -> Self {
        CliError::new(ErrorKind::Analysis, message)
    }

    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self.kind {
            ErrorKind::Usage => 2,
            ErrorKind::Parse => 3,
            ErrorKind::Resolve => 4,
            ErrorKind::Analysis => 5,
            ErrorKind::Conformance => 6,
            ErrorKind::Interrupted => 7,
            ErrorKind::ReaderGone => 0,
            ErrorKind::Other => 1,
        })
    }
}

/// `print!` to stdout, returning a failed write as a [`CliError`] instead
/// of panicking: a closed stdout is [`ErrorKind::ReaderGone`].
macro_rules! out {
    ($($arg:tt)*) => {
        std::io::Write::write_fmt(&mut std::io::stdout().lock(), format_args!($($arg)*))
            .map_err(stdout_error)
    };
}

/// `println!` to stdout, as [`out!`] does `print!`.
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// The [`CliError`] for a failed write to stdout.
fn stdout_error(e: std::io::Error) -> CliError {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        CliError::new(ErrorKind::ReaderGone, "stdout closed")
    } else {
        CliError::new(ErrorKind::Other, format!("writing to stdout: {e}"))
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::new(ErrorKind::Other, message)
    }
}

impl From<AnalysisError> for CliError {
    fn from(e: AnalysisError) -> Self {
        match e {
            AnalysisError::Resolve(_) => CliError::resolve(e.to_string()),
            _ => CliError::analysis(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    // Span collection is off (one relaxed load per call site) unless the
    // user asked for a trace artifact.
    if !args.get("trace-json", "").is_empty() {
        maestro_obs::span::enable();
    }
    let result = match args.command.as_str() {
        "analyze" => cmd_analyze(&args),
        "model" => cmd_model(&args),
        "dse" => cmd_dse(&args),
        "validate" => cmd_validate(&args),
        "conform" => cmd_conform(&args),
        "serve" => cmd_serve(&args),
        "mapping" => cmd_mapping(&args),
        "explain" => cmd_explain(&args),
        "lint" => cmd_lint(&args),
        "trace" => cmd_trace(&args),
        "tune" => cmd_tune(&args),
        "zoo" => cmd_zoo(),
        "" | "help" | "-h" => out!("{USAGE}"),
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    // Observability artifacts are written even when the command fails
    // (e.g. `conform` exiting non-zero on divergences still dumps its
    // counters); the command's own error decides the exit code.
    let obs = write_observability(&args);
    match result.and(obs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e.kind != ErrorKind::ReaderGone {
                eprintln!("error: {}", e.message);
            }
            e.exit_code()
        }
    }
}

/// Flags every command accepts; [`write_observability`] reads them after
/// the command ran.
const GLOBAL_FLAGS: [&str; 2] = ["metrics", "trace-json"];

/// Refuse the flags and positional arguments `command` did not read. The
/// command calls this once it has read every argument it takes, before it
/// starts work: anything left is a typo or a retired knob, and ignoring
/// it would run with settings the caller did not ask for.
fn refuse_unread(args: &Args, command: &str) -> Result<(), CliError> {
    let unread = args.unread(&GLOBAL_FLAGS);
    if unread.is_empty() {
        return Ok(());
    }
    Err(CliError::usage(format!(
        "{command} does not take {}",
        unread.join(", ")
    )))
}

/// Emit the observability artifacts the user asked for: `--metrics
/// <path|->` dumps the global registry in Prometheus text exposition
/// format, `--trace-json <path|->` dumps collected spans as JSONL. `-`
/// writes to stdout. Runs after the command finishes — success or not —
/// so the artifacts always describe the run that happened.
fn write_observability(args: &Args) -> Result<(), CliError> {
    let write = |dest: &str, what: &str, text: String| -> Result<(), CliError> {
        if dest == "-" {
            out!("{text}")
        } else {
            std::fs::write(dest, text)
                .map_err(|e| CliError::usage(format!("writing {what} to {dest}: {e}")))
        }
    };
    let metrics_dest = args.get("metrics", "");
    if !metrics_dest.is_empty() {
        write(
            metrics_dest,
            "metrics",
            maestro_obs::registry().render_prometheus(),
        )?;
    }
    let trace_dest = args.get("trace-json", "");
    if !trace_dest.is_empty() {
        maestro_obs::span::disable();
        let events = maestro_obs::span::drain();
        write(trace_dest, "trace", maestro_obs::span::to_jsonl(&events))?;
    }
    Ok(())
}

const USAGE: &str = "\
maestro — data-centric DNN dataflow cost model

USAGE:
  maestro analyze  --model <zoo> --layer <name> --dataflow <style|file> --pes <n> [--bw <n>] [--json]
  maestro model    --model <zoo> --dataflow <style|file> --pes <n> [--adaptive] [--json]
  maestro dse      --model <zoo> --layer <name> --style <style> [--json]
  maestro validate --model <zoo> --dataflow <style|file> --pes <n>
  maestro conform  [--seed <n>] [--cases <n>] [--max-steps <n>] [--max-seconds <s>] [--tol-runtime <pct>] [--tol-l1 <pct>] [--tol-l2 <pct>] [--tol-util <abs>] [--tol-macs <pct>] [--json]
  maestro serve    [--addr <host:port>] [--workers <n>] [--queue-depth <n>] [--drain-seconds <s>]
  maestro mapping  --model <zoo> --layer <name> --dataflow <style|file> --pes <n> --step <t>
  maestro explain  --model <zoo> --layer <name> --dataflow <style|file> --pes <n>
  maestro lint     --model <zoo> --layer <name> --dataflow <style|file> --pes <n>
  maestro trace    --model <zoo> --layer <name> --dataflow <style|file> --pes <n> [--steps <k>]
  maestro trace    [<id>] --from <host:port> | --file <dump.json> [--folded]
  maestro tune     --model <zoo> --pes <n> [--objective runtime|energy|edp] [--json]
  maestro zoo

Zoo models: vgg16 alexnet resnet50 resnext50 mobilenet_v2 unet dcgan deepspeech2 googlenet efficientnet_b0\n(--model also accepts a path to a Network description file)
Styles (Table 3): C-P X-P YX-P YR-P KC-P

Long-running sweeps (dse):
  --checkpoint <path>        write a resumable checkpoint (atomic temp-file + rename)
  --checkpoint-secs <s>      checkpoint every s seconds (default 5; 0 = off; a small value
                             writes after nearly every unit; a final checkpoint is
                             always written on graceful shutdown)
  --resume <path>            resume from a checkpoint; completed units are skipped
  --max-seconds <s>          stop gracefully after s seconds with partial results
                             (conform and serve take it too)
  --inject <spec>            deterministic fault injection, e.g. panic:0.01,delay:50ms:0.05,nofinite:0.001
  --inject-seed <n>          seed for the fault plan (default 0)
  --progress                 stderr progress line with units/s and ETA
  --trace-sample <k|1/k>     record 1-in-k per-unit traces into the flight recorder
                             (quarantined units are always kept)
  --trace-seed <n>           seed for the deterministic per-unit trace IDs (default 0)
  --trace-out <path|->       dump the recorded unit traces as JSON after the sweep

Serving (serve):
  --addr <host:port>         bind address (default 127.0.0.1:7433; port 0 picks a free port)
  --workers <n>              worker threads (default 4)
  --queue-depth <n>          admission queue bound; full queue sheds 503 + Retry-After (default 64)
  --default-deadline-ms <n>  deadline for requests without deadline_ms (default 10000)
  --drain-seconds <s>        drain budget after SIGTERM/SIGINT before in-flight
                             requests are cancelled (default 5; forced drain exits 7)
  --io-timeout <s>           socket read/write timeout, slow-loris guard (default 10; > 0)
  --max-body-bytes <n>       request body cap, 413 beyond it (default 1048576)
  --shards <n>               shared analysis-cache shards (default 8)
  --memo-cap <n>             reports kept per analysis-cache shard (default 4096; 0 = unbounded)
  --max-seconds <s>          self-terminate after s seconds (smoke tests)
  --test-endpoints           enable POST /v1/panic (panic-isolation tests only)
  --access-log <path|->      JSONL per-request log with phase attribution (- = stdout)
  --trace-capacity <n>       flight-recorder ring size, last n kept traces (default 256)
  --trace-sample <k|1/k>     keep 1-in-k healthy requests; 5xx/shed/504/slow are
                             always kept (default 16)
  --trace-slow-ms <n>        requests at least this slow are always kept (default 100)
  --trace-seed <n>           fixed trace-ID seed (tests; default: from the clock)
  --chaos <spec>             seeded serve-plane fault injection, e.g.
                             read-err:0.02,write-err:0.02,write-delay:5ms:0.05,worker-panic:0.005,stall:5ms:0.05
  --chaos-seed <n>           seed for the chaos plan (default 0)

Trace explorer (trace --from/--file):
  --from <host:port>         fetch /debug/traces (or /debug/traces/<id>) from a daemon
  --file <path>              read a saved trace dump (e.g. dse --trace-out) instead
  --folded                   collapsed-stack output for flamegraph scripts

Observability (any command):
  --metrics <path|->     dump the metrics registry (Prometheus text format)
  --trace-json <path|->  collect spans and dump them as JSON lines
  MAESTRO_LOG=<level>    stderr diagnostics: error|warn|info|debug|trace (default off)

Exit codes:
  0 ok   1 other   2 usage   3 parse error / corrupt checkpoint   4 unresolvable mapping
  5 analysis failure   6 conformance divergence   7 interrupted (partial results written)
";

fn load_model(name: &str) -> Result<Model, CliError> {
    if let Some(m) = zoo::by_name(name, 1) {
        return Ok(m);
    }
    // Not a zoo name: try it as a network description file.
    let text = std::fs::read_to_string(name).map_err(|e| {
        CliError::usage(format!(
            "`{name}` is not a zoo model and reading it failed: {e}"
        ))
    })?;
    maestro_dnn::parse_network(&text).map_err(|e| CliError::parse(format!("parsing {name}: {e}")))
}

fn load_dataflow(spec: &str) -> Result<Dataflow, CliError> {
    if let Some(style) = Style::from_name(spec) {
        return Ok(style.dataflow());
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        CliError::usage(format!(
            "`{spec}` is not a style name and reading it failed: {e}"
        ))
    })?;
    parse_dataflow(&text).map_err(|e| CliError::parse(format!("parsing {spec}: {e}")))
}

fn pick_layer<'m>(model: &'m Model, args: &Args) -> Result<&'m Layer, CliError> {
    let name = args.get("layer", "");
    if name.is_empty() {
        return Err(CliError::usage("missing --layer"));
    }
    model
        .layer(name)
        .ok_or_else(|| CliError::usage(format!("model {} has no layer `{name}`", model.name)))
}

fn accelerator(args: &Args) -> Result<Accelerator, CliError> {
    let pes = args.get_u64("pes", 256).map_err(CliError::usage)?;
    let bw = args.get_u64("bw", 32).map_err(CliError::usage)?;
    if bw == 0 {
        return Err(CliError::usage("--bw must be a positive integer"));
    }
    let l1 = args.get_u64("l1", 2048).map_err(CliError::usage)?;
    let l2 = args.get_u64("l2", 1 << 20).map_err(CliError::usage)?;
    Ok(Accelerator::builder(pes)
        .noc_bandwidth(bw)
        .l1_bytes(l1)
        .l2_bytes(l2)
        .build())
}

fn cmd_analyze(args: &Args) -> Result<(), CliError> {
    let json = args.flag("json").map_err(CliError::usage)?;
    let model = load_model(args.get("model", "vgg16"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.get("dataflow", "KC-P"))?;
    let acc = accelerator(args)?;
    let report = analyze(layer, &df, &acc)?;
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        )?;
    } else {
        outln!("{report}")?;
        let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
        outln!(
            "  energy        {:>14.3e} pJ (CACTI-style 28nm)",
            report.energy(&em)
        )?;
        for k in TensorKind::ALL {
            outln!(
                "  {k:<7} reuse {:>14.1} (algorithmic max {:.1})",
                report.reuse_factor(k),
                report.algorithmic_max_reuse(k)
            )?;
        }
    }
    Ok(())
}

fn cmd_model(args: &Args) -> Result<(), CliError> {
    let json = args.flag("json").map_err(CliError::usage)?;
    let model = load_model(args.get("model", "vgg16"))?;
    let acc = accelerator(args)?;
    let report = if args.flag("adaptive").map_err(CliError::usage)? {
        // The fastest style per layer; KC-P where no style maps.
        let styles: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
        analyze_model_with(&model, &acc, |layer| {
            maestro_dse::tune_layer(layer, &acc, maestro_dse::Objective::Runtime, &styles)
                .map_or_else(|| Style::KCP.dataflow(), |t| t.dataflow)
        })
    } else {
        let df = load_dataflow(args.get("dataflow", "KC-P"))?;
        analyze_model(&model, &df, &acc)
    }
    .map_err(CliError::from)?;
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        )?;
    } else {
        outln!("{report}")?;
        let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
        outln!(
            "total: {:.3e} cycles, {:.3e} pJ",
            report.runtime(),
            report.energy(&em)
        )?;
    }
    Ok(())
}

/// Map a checkpoint failure onto the documented exit-code families:
/// unreadable/unwritable files are usage errors (2); corruption, version
/// or fingerprint mismatches are parse-class errors (3).
fn checkpoint_error(e: &maestro_dse::CheckpointError) -> CliError {
    match e {
        maestro_dse::CheckpointError::Io { .. } => CliError::usage(e.to_string()),
        _ => CliError::parse(e.to_string()),
    }
}

fn session_error(e: &maestro_dse::SessionError) -> CliError {
    match e {
        maestro_dse::SessionError::Space(e) => CliError::analysis(e.to_string()),
        maestro_dse::SessionError::Checkpoint(e) => checkpoint_error(e),
    }
}

/// Build the interruption-proofing controls for `dse` from its flags.
/// Returns the controls plus whether `--resume` was given. Also installs
/// the SIGINT/SIGTERM handler: the returned token heeds the process-wide
/// interrupt flag, so a signal drains in-flight units and the command
/// exits 7 with partial results instead of dying mid-write.
fn session_ctl(args: &Args) -> Result<(maestro_dse::SessionCtl, bool), CliError> {
    signal::install_interrupt_handlers();
    let mut ctl = maestro_dse::SessionCtl {
        token: maestro_dse::CancelToken::new(),
        ..Default::default()
    };
    let max_seconds = args
        .get_secs("max-seconds", Duration::ZERO)
        .map_err(CliError::usage)?;
    if !max_seconds.is_zero() {
        ctl.token.set_deadline_in(max_seconds);
    }
    let ckpt = args.get("checkpoint", "");
    if !ckpt.is_empty() {
        ctl.checkpoint_path = Some(PathBuf::from(ckpt));
    }
    // Periodic checkpoints are time-based (every 5 s by default, bounding
    // overhead on any workload); 0 leaves only the final checkpoint on
    // shutdown, which is unconditional.
    let ckpt_every = args
        .get_secs("checkpoint-secs", Duration::from_secs(5))
        .map_err(CliError::usage)?;
    ctl.checkpoint_every = (!ckpt_every.is_zero()).then_some(ckpt_every);
    let resume = args.get("resume", "");
    let resumed = !resume.is_empty();
    if resumed {
        let cp =
            maestro_dse::Checkpoint::load(Path::new(resume)).map_err(|e| checkpoint_error(&e))?;
        // Keep checkpointing the file we resumed from (unless the user
        // pointed --checkpoint elsewhere) so repeated interrupt/resume
        // cycles keep accumulating progress in one place.
        if ctl.checkpoint_path.is_none() {
            ctl.checkpoint_path = Some(PathBuf::from(resume));
        }
        ctl.resume = Some(cp);
    }
    let inject = args.get("inject", "");
    let inject_seed = args.get_u64("inject-seed", 0).map_err(CliError::usage)?;
    if !inject.is_empty() {
        ctl.faults = maestro_dse::FaultPlan::parse(inject, inject_seed)
            .map_err(|e| CliError::usage(format!("--inject: {e}")))?;
    }
    let trace_sample = args.get("trace-sample", "");
    ctl.trace_seed = args.get_u64("trace-seed", 0).map_err(CliError::usage)?;
    if !trace_sample.is_empty() {
        ctl.trace_sample = Some(parse_sample(trace_sample)?);
    }
    if args.flag("progress").map_err(CliError::usage)? {
        // The observer fires once per unit run in this session, so its
        // call count over its own clock is the session's unit rate.
        let start = Instant::now();
        let ran = AtomicUsize::new(0);
        ctl.on_unit = Some(Box::new(move |u: &maestro_dse::UnitUpdate<'_>| {
            let ran = ran.fetch_add(1, Ordering::Relaxed) + 1;
            let rate = ran as f64 / start.elapsed().as_secs_f64().max(1e-9);
            let eta = u.total.saturating_sub(u.completed) as f64 / rate;
            eprintln!(
                "progress: {}/{} units — {rate:.1} units/s, ETA {eta:.0}s",
                u.completed, u.total
            );
        }));
    }
    Ok((ctl, resumed))
}

/// Parse a `--trace-sample` rate: `K` or `1/K`, keeping 1 in `K`
/// (`1` = keep everything).
fn parse_sample(spec: &str) -> Result<u64, CliError> {
    let k = spec.strip_prefix("1/").unwrap_or(spec);
    let k: u64 = k
        .parse()
        .map_err(|_| CliError::usage(format!("--trace-sample expects K or 1/K, got `{spec}`")))?;
    if k == 0 {
        return Err(CliError::usage("--trace-sample must be at least 1"));
    }
    Ok(k)
}

fn cmd_dse(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.get("model", "vgg16"))?;
    let layer = pick_layer(&model, args)?;
    let style_name = args.get("style", "KC-P");
    let style = Style::from_name(style_name)
        .ok_or_else(|| CliError::usage(format!("unknown style `{style_name}`")))?;
    let (ctl, resumed) = session_ctl(args)?;
    let trace_out = args.get("trace-out", "");
    let json = args.flag("json").map_err(CliError::usage)?;
    refuse_unread(args, "dse")?;
    let explorer = maestro_dse::Explorer::new(maestro_dse::SweepSpace::standard());
    let (result, session) = explorer
        .explore_session(layer, &maestro_dse::variants::variants(style), &ctl)
        .map_err(|e| session_error(&e))?;
    if resumed {
        // stderr so `--json` stdout stays machine-parseable.
        eprintln!("resumed: {} units skipped", session.resumed_skipped);
    }
    // Per-unit traces, when sampled: dump whatever the flight recorder
    // kept (drawn units plus every quarantined one) — even on an
    // interrupted run, where attribution matters most.
    if !trace_out.is_empty() {
        let dump =
            maestro_obs::trace::records_to_json(&maestro_obs::FlightRecorder::global().recent());
        if trace_out == "-" {
            outln!("{dump}")?;
        } else {
            std::fs::write(trace_out, dump)
                .map_err(|e| CliError::usage(format!("writing traces to {trace_out}: {e}")))?;
        }
    }
    // An interrupted session still prints everything it has — the partial
    // frontier is the whole point of graceful shutdown — and then exits 7.
    let interrupted_err = session.interrupted.then(|| {
        let resume_hint = ctl
            .checkpoint_path
            .as_ref()
            .map(|p| format!(" (resume with --resume {})", p.display()))
            .unwrap_or_default();
        CliError::new(
            ErrorKind::Interrupted,
            format!(
                "interrupted after {} of {} units — partial results emitted{resume_hint}",
                session.completed_units, session.total_units
            ),
        )
    });
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?
        )?;
        return match interrupted_err {
            Some(e) => Err(e),
            None => Ok(()),
        };
    }
    let s = &result.stats;
    outln!(
        "explored {} designs in {:.3} ms — {:.2e} designs/s",
        s.explored,
        1e3 * s.seconds,
        s.rate
    )?;
    outln!(
        "  cost model      {} evaluated, {} memo hits ({:.1}% hit rate)",
        s.evaluated,
        s.memo_hits,
        100.0 * s.memo_hit_rate()
    )?;
    outln!(
        "  filtered        {} capacity-skipped, {} non-finite dropped",
        s.capacity_skipped,
        s.nonfinite_dropped
    )?;
    outln!(
        "  valid           {} points ({} Pareto insertions, {} rejections)",
        s.valid,
        s.pareto_inserted,
        s.pareto_rejected
    )?;
    if s.quarantined.is_empty() {
        outln!("  quarantined     0 work units")?;
    } else {
        // Degraded coverage is always surfaced in the summary; the
        // per-unit panic payloads were already logged (at warn level)
        // by the merge, so they are not repeated here.
        outln!(
            "  quarantined     {} work units — coverage is incomplete",
            s.quarantined.len()
        )?;
    }
    let show = |tag: &str, p: &Option<maestro_dse::DesignPoint>| -> Result<(), CliError> {
        if let Some(p) = p {
            outln!(
                "{tag}: {} PEs, NoC {}, L1 {} B, L2 {} B, map {} -> {:.1} MACs/cyc, {:.3e} pJ, {:.1} mm2, {:.0} mW",
                p.pes, p.noc_bw, p.l1_bytes, p.l2_bytes, p.mapping, p.throughput, p.energy, p.area_mm2, p.power_mw
            )?;
        }
        Ok(())
    };
    if session.checkpoint_writes > 0 || session.faults_injected > 0 {
        outln!(
            "  session         {} checkpoint writes, {} faults injected",
            session.checkpoint_writes,
            session.faults_injected
        )?;
    }
    show("throughput-optimized", &result.best_throughput)?;
    show("energy-optimized    ", &result.best_energy)?;
    show("EDP-optimized       ", &result.best_edp)?;
    if result.partial {
        outln!(
            "Pareto front: {} points (PARTIAL — {} of {} units completed)",
            result.pareto.len(),
            session.completed_units,
            session.total_units
        )?;
    } else {
        outln!("Pareto front: {} points", result.pareto.len())?;
    }
    match interrupted_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn cmd_validate(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.get("model", "vgg16"))?;
    let df = load_dataflow(args.get("dataflow", "KC-P"))?;
    let acc = accelerator(args)?;
    let (points, mean) = validate_network(&model, &df, &acc, SimOptions::default());
    for p in &points {
        outln!("{p}")?;
    }
    outln!(
        "mean absolute runtime error: {mean:.2}% over {} layers",
        points.len()
    )?;
    Ok(())
}

fn cmd_conform(args: &Args) -> Result<(), CliError> {
    let json = args.flag("json").map_err(CliError::usage)?;
    let d = maestro_sim::ConformConfig::default();
    let cfg = maestro_sim::ConformConfig {
        seed: args.get_u64("seed", d.seed).map_err(CliError::usage)?,
        cases: args.get_u64("cases", d.cases).map_err(CliError::usage)?,
        max_steps: args
            .get_u64("max-steps", d.max_steps)
            .map_err(CliError::usage)?,
        tol: maestro_sim::Tolerances {
            runtime_pct: args
                .get_f64("tol-runtime", d.tol.runtime_pct)
                .map_err(CliError::usage)?,
            l1_pct: args
                .get_f64("tol-l1", d.tol.l1_pct)
                .map_err(CliError::usage)?,
            l2_pct: args
                .get_f64("tol-l2", d.tol.l2_pct)
                .map_err(CliError::usage)?,
            utilization_abs: args
                .get_f64("tol-util", d.tol.utilization_abs)
                .map_err(CliError::usage)?,
            model_macs_pct: args
                .get_f64("tol-macs", d.tol.model_macs_pct)
                .map_err(CliError::usage)?,
        },
    };
    // `conform` is the other long-running command: it honors the same
    // --max-seconds guard and SIGINT/SIGTERM semantics as `dse`, exiting 7
    // with a partial (but fully reported) sweep when cut short.
    signal::install_interrupt_handlers();
    let token = maestro_obs::CancelToken::new();
    let max_seconds = args
        .get_secs("max-seconds", Duration::ZERO)
        .map_err(CliError::usage)?;
    if !max_seconds.is_zero() {
        token.set_deadline_in(max_seconds);
    }
    let report = maestro_sim::run_conform_cancellable(&cfg, &token);
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        )?;
    } else {
        outln!(
            "conform: seed {} — {} cases, {} compared, {} diverged",
            report.seed,
            report.cases,
            report.compared,
            report.diverged.len()
        )?;
        outln!(
            "  skipped         {} unresolvable, {} model errors, {} over step budget",
            report.skipped_resolve,
            report.skipped_analysis,
            report.skipped_steps
        )?;
        if report.interrupted {
            outln!(
                "  interrupted     after {} of {} cases — partial report",
                report.cases,
                cfg.cases
            )?;
        }
        outln!(
            "  tolerances      runtime {}%, L1 {}%, L2 {}%, |util| {}, model-MACs {}%",
            cfg.tol.runtime_pct,
            cfg.tol.l1_pct,
            cfg.tol.l2_pct,
            cfg.tol.utilization_abs,
            cfg.tol.model_macs_pct
        )?;
        for dc in &report.diverged {
            outln!("\ncase {} diverged — original: {}", dc.index, dc.original)?;
            outln!("shrunk to: {}", dc.shrunk)?;
            for div in &dc.divergences {
                outln!("  {div}")?;
            }
            outln!("--- reproducer ---\n{}", dc.reproducer)?;
        }
    }
    if !report.is_clean() {
        // Divergence outranks interruption: a failed conformance check
        // must fail loudly even when the run was also cut short.
        Err(CliError::new(
            ErrorKind::Conformance,
            format!(
                "{} of {} compared cases diverged beyond tolerance (seed {})",
                report.diverged.len(),
                report.compared,
                report.seed
            ),
        ))
    } else if report.interrupted {
        Err(CliError::new(
            ErrorKind::Interrupted,
            format!(
                "interrupted after {} of {} cases — partial conformance report (seed {})",
                report.cases, cfg.cases, report.seed
            ),
        ))
    } else {
        Ok(())
    }
}

/// The daemon configuration `serve`'s flags ask for: each field is
/// [`maestro_serve::ServeConfig::default`]'s unless its flag is given.
fn serve_config(args: &Args) -> Result<maestro_serve::ServeConfig, CliError> {
    let d = maestro_serve::ServeConfig::default();
    let millis = |key: &str, default: Duration| -> Result<Duration, CliError> {
        let default = u64::try_from(default.as_millis()).unwrap_or(u64::MAX);
        Ok(Duration::from_millis(
            args.get_u64(key, default).map_err(CliError::usage)?,
        ))
    };
    let text = |key: &str, default: Option<String>| {
        let v = args.get(key, "");
        if v.is_empty() {
            default
        } else {
            Some(v.to_string())
        }
    };
    let trace_sample = args.get("trace-sample", "");
    Ok(maestro_serve::ServeConfig {
        addr: args.get("addr", &d.addr).to_string(),
        workers: args
            .get_usize("workers", d.workers)
            .map_err(CliError::usage)?,
        queue_depth: args
            .get_usize("queue-depth", d.queue_depth)
            .map_err(CliError::usage)?,
        default_deadline: millis("default-deadline-ms", d.default_deadline)?,
        drain_deadline: args
            .get_secs("drain-seconds", d.drain_deadline)
            .map_err(CliError::usage)?,
        max_body_bytes: args
            .get_usize("max-body-bytes", d.max_body_bytes)
            .map_err(CliError::usage)?,
        io_timeout: args
            .get_secs("io-timeout", d.io_timeout)
            .map_err(CliError::usage)?,
        memo_cap: args
            .get_usize("memo-cap", d.memo_cap)
            .map_err(CliError::usage)?,
        shards: args
            .get_usize("shards", d.shards)
            .map_err(CliError::usage)?,
        test_endpoints: args.flag("test-endpoints").map_err(CliError::usage)? || d.test_endpoints,
        access_log: text("access-log", d.access_log),
        trace_capacity: args
            .get_usize("trace-capacity", d.trace_capacity)
            .map_err(CliError::usage)?,
        trace_sample: if trace_sample.is_empty() {
            d.trace_sample
        } else {
            parse_sample(trace_sample)?
        },
        trace_slow: millis("trace-slow-ms", d.trace_slow)?,
        trace_seed: if args.get("trace-seed", "").is_empty() {
            d.trace_seed
        } else {
            Some(args.get_u64("trace-seed", 0).map_err(CliError::usage)?)
        },
        chaos: text("chaos", d.chaos),
        chaos_seed: args
            .get_u64("chaos-seed", d.chaos_seed)
            .map_err(CliError::usage)?,
    })
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let cfg = serve_config(args)?;
    if cfg.io_timeout.is_zero() {
        // A zero socket timeout is an error to the OS, so every
        // connection would be reset unanswered.
        return Err(CliError::usage("--io-timeout must be greater than 0"));
    }
    // SIGTERM/SIGINT raise the process interrupt flag, which this heeding
    // token observes — tripping it starts the drain.
    signal::install_interrupt_handlers();
    let shutdown = maestro_obs::CancelToken::new();
    let max_seconds = args
        .get_secs("max-seconds", Duration::ZERO)
        .map_err(CliError::usage)?;
    if !max_seconds.is_zero() {
        shutdown.set_deadline_in(max_seconds);
    }
    refuse_unread(args, "serve")?;
    let requested = cfg.addr.clone();
    let server = maestro_serve::Server::bind(cfg)
        .map_err(|e| CliError::usage(format!("cannot bind {requested}: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::new(ErrorKind::Other, format!("local_addr: {e}")))?;
    // Scripted clients (the ci smoke, loadgen wrappers) read this line to
    // learn the port when `--addr ...:0` picked one.
    outln!("serving on {addr}")?;
    match server
        .run(&shutdown)
        .map_err(|e| CliError::new(ErrorKind::Other, format!("serve: {e}")))?
    {
        maestro_serve::DrainOutcome::Clean => Ok(()),
        maestro_serve::DrainOutcome::Forced => Err(CliError::new(
            ErrorKind::Interrupted,
            "drain deadline expired — in-flight requests were cancelled (their 504 responses were still written)",
        )),
    }
}

fn cmd_mapping(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.get("model", "vgg16"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.get("dataflow", "YR-P"))?;
    let pes = args.get_u64("pes", 6).map_err(CliError::usage)?;
    let step = args.get_u64("step", 0).map_err(CliError::usage)?;
    let maps =
        mapping_at_step(layer, &df, pes, step).map_err(|e| CliError::analysis(e.to_string()))?;
    outln!("{} / {} / {} PEs / t={step}", layer.name, df.name(), pes)?;
    for m in maps {
        out!("PE{:<3} [{:?}]", m.pe, m.unit_coords)?;
        for (kind, ranges) in TensorKind::ALL.iter().zip(&m.ranges) {
            out!("  {kind}: ")?;
            for (d, iv) in ranges {
                out!("{d}:{}-{} ", iv.start, iv.start + iv.len.saturating_sub(1))?;
            }
        }
        outln!()?;
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.get("model", "vgg16"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.get("dataflow", "KC-P"))?;
    let acc = accelerator(args)?;
    let explanation =
        maestro_core::explain(layer, &df, &acc).map_err(|e| CliError::resolve(e.to_string()))?;
    out!("{explanation}")?;
    Ok(())
}

fn cmd_lint(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.get("model", "vgg16"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.get("dataflow", "KC-P"))?;
    let acc = accelerator(args)?;
    let lints =
        maestro_core::lint(layer, &df, &acc).map_err(|e| CliError::resolve(e.to_string()))?;
    if lints.is_empty() {
        outln!("no findings: {} maps cleanly onto {}", df.name(), acc.name)?;
    } else {
        for l in &lints {
            outln!("warning: {l}")?;
        }
    }
    Ok(())
}

/// `maestro trace` is two tools behind one name. With `--from` (a
/// daemon's `/debug/traces`) or `--file` (a saved dump) it is the
/// request-trace explorer: a listing, an ASCII waterfall per trace, or
/// `--folded` collapsed stacks for flamegraph scripts. Otherwise it is
/// the original simulator step trace (`--model/--layer/...`).
fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let from = args.get("from", "");
    let file = args.get("file", "");
    if !from.is_empty() || !file.is_empty() {
        return cmd_trace_explorer(args, from, file);
    }
    let model = load_model(args.get("model", "vgg16"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.get("dataflow", "KC-P"))?;
    let pes = args.get_u64("pes", 256).map_err(CliError::usage)?;
    let steps = args.get_u64("steps", 16).map_err(CliError::usage)?;
    let t = maestro_sim::trace(layer, &df, pes, steps)
        .map_err(|e| CliError::analysis(e.to_string()))?;
    outln!(
        "{} / {} / {} PEs — showing {} of {} steps",
        layer.name,
        df.name(),
        pes,
        t.steps.len(),
        t.total_steps
    )?;
    outln!(
        "{:<6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "step",
        "loop",
        "new In",
        "new Wt",
        "new Out",
        "MACs",
        "PEs"
    )?;
    for s in &t.steps {
        outln!(
            "{:<6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8}",
            s.step,
            s.advanced.map_or("-".to_string(), |j| j.to_string()),
            s.new_data[0],
            s.new_data[1],
            s.new_data[2],
            s.macs,
            s.active_pes
        )?;
    }
    Ok(())
}

fn cmd_trace_explorer(args: &Args, from: &str, file: &str) -> Result<(), CliError> {
    let folded = args.flag("folded").map_err(CliError::usage)?;
    let id = args.positional(0).unwrap_or_default();
    let text = if !from.is_empty() {
        let path = if id.is_empty() {
            "/debug/traces".to_string()
        } else {
            format!("/debug/traces/{id}")
        };
        trace_view::fetch(from, &path).map_err(CliError::usage)?
    } else {
        std::fs::read_to_string(file)
            .map_err(|e| CliError::usage(format!("reading {file}: {e}")))?
    };
    let mut traces = trace_view::decode_traces(&text).map_err(CliError::parse)?;
    if !id.is_empty() {
        // The daemon path already filtered; this covers `--file` dumps
        // (and tolerates abbreviated IDs either way).
        traces.retain(|t| t.id.starts_with(id) || t.id.trim_start_matches('0') == id);
        if traces.is_empty() {
            return Err(CliError::usage(format!("no trace matching `{id}`")));
        }
    }
    if folded {
        for t in &traces {
            out!("{}", trace_view::folded(t))?;
        }
        return Ok(());
    }
    if id.is_empty() && traces.len() > 1 {
        outln!(
            "{:<32}  {:>4}  {:>10}  {:<7}  name",
            "trace",
            "code",
            "total",
            "kept"
        )?;
        for t in &traces {
            outln!("{}", trace_view::summary(t))?;
        }
        outln!("\n(`maestro trace <id> ...` for a waterfall)")?;
    } else {
        for t in &traces {
            out!("{}", trace_view::waterfall(t))?;
        }
    }
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), CliError> {
    let json = args.flag("json").map_err(CliError::usage)?;
    let model = load_model(args.get("model", "vgg16"))?;
    let acc = accelerator(args)?;
    let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
    let objective = match args.get("objective", "runtime") {
        "runtime" => maestro_dse::Objective::Runtime,
        "energy" => maestro_dse::Objective::Energy(em),
        "edp" => maestro_dse::Objective::Edp(em),
        other => return Err(CliError::usage(format!("unknown objective `{other}`"))),
    };
    let tuned = maestro_dse::tune_model(&model, &acc, objective);
    if json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&tuned).map_err(|e| e.to_string())?
        )?;
        return Ok(());
    }
    outln!(
        "tuned {} for {objective} on {} PEs ({} distinct dataflows):",
        tuned.model,
        acc.num_pes,
        tuned.distinct_dataflows()
    )?;
    for l in &tuned.layers {
        outln!(
            "  {:<18} -> {:<20} {:>12.0} cyc {:>8.1} MAC/cy",
            l.layer,
            l.dataflow.name(),
            l.report.runtime,
            l.report.throughput()
        )?;
    }
    outln!(
        "total: {:.3e} cycles, {:.3e} pJ",
        tuned.runtime(),
        tuned.energy(&em)
    )?;
    Ok(())
}

fn cmd_zoo() -> Result<(), CliError> {
    for name in [
        "vgg16",
        "alexnet",
        "resnet50",
        "resnext50",
        "mobilenet_v2",
        "unet",
        "dcgan",
        "deepspeech2",
        "googlenet",
        "efficientnet_b0",
    ] {
        let m = load_model(name)?;
        outln!(
            "{:<13} {:>3} layers, {:>14} MACs",
            name,
            m.len(),
            m.total_macs()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn a_bare_serve_runs_the_default_config() {
        let cfg = serve_config(&args("serve")).expect("no flags to refuse");
        assert_eq!(cfg, maestro_serve::ServeConfig::default());
    }

    #[test]
    fn each_serve_flag_overrides_only_its_field() {
        let cfg = serve_config(&args(
            "serve --workers 2 --default-deadline-ms 250 --trace-seed 7 --chaos stall:1ms:0.5",
        ))
        .expect("valid flags");
        assert_eq!(
            cfg,
            maestro_serve::ServeConfig {
                workers: 2,
                default_deadline: Duration::from_millis(250),
                trace_seed: Some(7),
                chaos: Some("stall:1ms:0.5".to_string()),
                ..maestro_serve::ServeConfig::default()
            }
        );
    }
}
