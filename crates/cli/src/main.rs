//! `maestro` — command-line front-end for the dataflow cost model:
//! `maestro analyze --model vgg16 --layer CONV2 --dataflow KC-P`,
//! `maestro figures fig13`, and more. Each command declares its flags in
//! one table, from which `maestro help` prints every command and flag.

mod args;
mod signal;
mod trace_view;

use args::{Args, Flag};
use client::Exchange;
use maestro_core::{analyze, analyze_model, analyze_model_with, AnalysisError};
use maestro_dnn::{zoo, Layer, Model, TensorKind};
use maestro_hw::{Accelerator, EnergyModel};
use maestro_ir::{parse::parse_dataflow, Dataflow, Style};
use maestro_sim::{mapping_at_step, validate_network, SimError, SimOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tables::{COMMANDS, FIGURES, HELP, OBS, TRACE_EXPLORER};

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
            .map_err($crate::stdout_error)
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

// Declared after the macros, which they use.
mod client;
mod loadgen;

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

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Resolve(_) => CliError::resolve(e.to_string()),
            SimError::StepOutOfRange { .. } => CliError::usage(format!("--step: {e}")),
            SimError::TooManySteps { .. } => CliError::analysis(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e.kind != ErrorKind::ReaderGone {
                eprintln!("error: {}", e.message);
            }
            e.exit_code()
        }
    }
}

/// Parse `argv` against its command's flag table, then run the command.
fn run(argv: &[String]) -> Result<(), CliError> {
    let (cmd, args) = parse(argv)?;
    // Span collection is off (one relaxed load per call site) unless the
    // user asked for a trace artifact.
    if !args.text("trace-json").is_empty() {
        maestro_obs::span::enable();
    }
    let result = (cmd.run)(&args);
    // Observability artifacts are written even when the command fails
    // (e.g. `conform` exiting non-zero on divergences still dumps its
    // counters); the command's own error decides the exit code.
    result.and(write_observability(&args))
}

/// The command `argv` names, and the words after its name parsed against
/// its flag table.
fn parse(argv: &[String]) -> Result<(Command, Args), CliError> {
    let (name, rest) = argv
        .split_first()
        .map_or(("help", argv), |(n, r)| (n.as_str(), r));
    let (cmd, rest) = match name {
        "figures" => {
            let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            let names = names.join(" ");
            let (name, rest) = rest
                .split_first()
                .ok_or_else(|| CliError::usage(format!("figures takes a name: {names}")))?;
            let figure = FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
                CliError::usage(format!("unknown figure `{name}`; figures: {names}"))
            })?;
            (*figure, rest)
        }
        // The trace explorer reads a daemon or a dump, plain `trace` the
        // simulator; neither takes the other's flags.
        "trace" if rest.iter().any(|a| a == "--from" || a == "--file") => (TRACE_EXPLORER, rest),
        "-h" | "--help" => (HELP, rest),
        _ => {
            let cmd = COMMANDS
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| CliError::usage(format!("unknown command `{name}`\n{}", usage())))?;
            (*cmd, rest)
        }
    };
    let args = Args::parse(cmd.name, cmd.flags.iter().chain(OBS), cmd.args.len(), rest)
        .map_err(CliError::usage)?;
    Ok((cmd, args))
}

/// A subcommand: its name, what it does, the positional arguments and
/// flags it takes, and the function that runs it.
#[derive(Clone, Copy)]
struct Command {
    name: &'static str,
    about: &'static str,
    /// The positional arguments, as the usage text names them.
    args: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), CliError>,
}

impl Command {
    const fn new(
        name: &'static str,
        about: &'static str,
        flags: &'static [Flag],
        run: fn(&Args) -> Result<(), CliError>,
    ) -> Command {
        Command {
            name,
            about,
            args: &[],
            flags,
            run,
        }
    }
}

/// Every command, and every flag each takes, declared once; laid out by
/// hand as tables.
#[rustfmt::skip]
mod tables {
    use super::*;
    use crate::args::Kind::{Bool, Int, Num, Secs, Text};
    use maestro_bench as b;

    pub const COMMANDS: [Command; 15] = [
        Command::new("analyze",  "one layer's cost under one dataflow",    ANALYZE,      cmd_analyze),
        Command::new("model",    "a whole model's cost",                   MODEL_COST,   cmd_model),
        Command::new("dse",      "sweep the hardware design space",        DSE,          cmd_dse),
        Command::new("validate", "check the model against the simulator",  VALIDATE,     cmd_validate),
        Command::new("conform",  "fuzz the model against the simulator",   CONFORM,      cmd_conform),
        Command::new("serve",    "serve analyses over HTTP",               SERVE,        cmd_serve),
        Command::new("loadgen",  "closed-loop load against a daemon",      LOADGEN,      loadgen::cmd_loadgen),
        Command::new("mapping",  "each PE's data at one time step",        MAPPING,      cmd_mapping),
        Command::new("explain",  "the reuse a dataflow exposes, per level", LAYER_ON_ACC, cmd_explain),
        Command::new("lint",     "warnings on a dataflow's mapping",       LAYER_ON_ACC, cmd_lint),
        Command::new("trace",    "the simulator's step trace",             SIM_TRACE,    cmd_trace),
        TRACE_EXPLORER,
        Command::new("tune",     "auto-tune each layer's dataflow",        TUNE,         cmd_tune),
        Command::new("zoo",      "the zoo models and their sizes",         &[],          cmd_zoo),
        HELP,
    ];
    pub const TRACE_EXPLORER: Command = Command {
        args: &["[<id>]"],
        ..Command::new("trace", "request traces from a daemon or a dump", TRACE_FROM, cmd_trace_explorer)
    };
    pub const HELP: Command = Command::new("help", "print this text", &[], cmd_help);

    /// `maestro figures <name>`: the paper's tables and figures.
    pub const FIGURES: [Command; 15] = [
        Command::new("table1",    "Table 1: reuse opportunities by mapping",    &[], |_| figure(b::table1)),
        Command::new("table2",    "Table 2: hardware for each reuse class",     &[], |_| figure(b::table2)),
        Command::new("table3",    "Table 3: the five dataflow styles",          &[], |_| figure(b::table3)),
        Command::new("table4",    "Table 4: operator classes in the zoo",       &[], |_| figure(b::table4)),
        Command::new("table5",    "Table 5: impact of NoC and reuse support",   &[], |_| figure(b::table5)),
        Command::new("fig5",      "Figure 5: the 1-D convolution playground",   &[], |_| figure(b::fig5)),
        Command::new("fig6",      "Figure 6: row-stationary mapping on 6 PEs",  &[], |_| figure(b::fig6)),
        Command::new("fig9",      "Figure 9: model vs step simulator (~30 s)",  &[], |_| figure(b::fig9)),
        Command::new("fig10",     "Figure 10: five dataflows on five DNNs",     &[], |_| figure(b::fig10)),
        Command::new("fig11",     "Figure 11: reuse factors and NoC bandwidth", &[], |_| figure(b::fig11)),
        Command::new("fig12",     "Figure 12: energy breakdown",                &[], |_| figure(b::fig12)),
        Command::new("fig13",     "Figure 13: design-space exploration",        &[], |_| figure(b::fig13)),
        Command::new("sweep",     "§5.2: throughput vs NoC BW, DRAM vs L2",     &[], |_| figure(b::sweep)),
        Command::new("scale",     "throughput and utilization vs PE count",     &[], |_| figure(b::scale)),
        Command::new("dse_model", "whole-model DSE with per-layer tuning",      DSE_MODEL, cmd_dse_model),
    ];

    const MODEL: Flag = Flag::new("model", Text, "vgg16", "zoo model, or a network description file");
    const LAYER: Flag = Flag::new("layer", Text, "", "layer of the model (required)");
    const DATAFLOW: Flag = Flag::new("dataflow", Text, "KC-P", "Table 3 style, or a dataflow file");
    const PES: Flag = Flag::new("pes", Int, "256", "processing elements");
    const BW: Flag = Flag::new("bw", Int, "32", "NoC bandwidth, elements per cycle");
    const L1: Flag = Flag::new("l1", Int, "2048", "L1 bytes per PE");
    const L2: Flag = Flag::new("l2", Int, "1048576", "shared L2 bytes");
    const JSON: Flag = Flag::new("json", Bool, "", "print JSON");
    const MAX_SECONDS: Flag = Flag::new("max-seconds", Secs, "0", "stop gracefully after this long; 0 = never");

    const ANALYZE: &[Flag] = &[MODEL, LAYER, DATAFLOW, PES, BW, L1, L2, JSON];
    const LAYER_ON_ACC: &[Flag] = &[MODEL, LAYER, DATAFLOW, PES, BW, L1, L2];
    const VALIDATE: &[Flag] = &[MODEL, DATAFLOW, PES, BW, L1, L2];
    const MODEL_COST: &[Flag] = &[MODEL, DATAFLOW, PES, BW, L1, L2, JSON,
        Flag::new("adaptive", Bool, "", "the fastest style per layer, not --dataflow"),
    ];
    const TUNE: &[Flag] = &[MODEL, PES, BW, L1, L2, JSON,
        Flag::new("objective", Text, "runtime", "runtime, energy or edp"),
    ];
    const MAPPING: &[Flag] = &[MODEL, LAYER,
        Flag::new("dataflow", Text, "YR-P", "Table 3 style, or a dataflow file"),
        Flag::new("pes",      Int,  "6",    "processing elements"),
        Flag::new("step",     Int,  "0",    "time step"),
    ];
    const SIM_TRACE: &[Flag] = &[MODEL, LAYER, DATAFLOW, PES,
        Flag::new("steps", Int, "16", "steps to show"),
    ];
    const TRACE_FROM: &[Flag] = &[
        Flag::new("from",   Text, "", "fetch /debug/traces from a daemon (host:port)"),
        Flag::new("file",   Text, "", "read a saved trace dump instead"),
        Flag::new("folded", Bool, "", "collapsed stacks for flamegraph scripts"),
    ];
    const DSE: &[Flag] = &[MODEL, LAYER,
        Flag::new("style",           Text, "KC-P", "Table 3 style whose mappings to sweep"),
        JSON,
        Flag::new("checkpoint",      Text, "",     "write a resumable checkpoint to this path"),
        Flag::new("checkpoint-secs", Secs, "5",    "seconds between checkpoints; 0 = final only"),
        Flag::new("resume",          Text, "",     "resume from a checkpoint, skipping done units"),
        MAX_SECONDS,
        Flag::new("inject",          Text, "",     "fault plan, e.g. panic:0.01,delay:50ms:0.05"),
        Flag::new("inject-seed",     Int,  "0",    "seed of the fault plan"),
        Flag::new("progress",        Bool, "",     "stderr progress line with units/s and ETA"),
        Flag::new("trace-sample",    Text, "",     "record 1 in K unit traces (K or 1/K)"),
        Flag::new("trace-seed",      Int,  "0",    "seed of the per-unit trace IDs"),
        Flag::new("trace-out",       Text, "",     "dump the recorded unit traces as JSON (- = stdout)"),
    ];
    /// The defaults are `ConformConfig::default()`'s, which
    /// `a_bare_conform_runs_the_default_config` holds them to.
    const CONFORM: &[Flag] = &[
        Flag::new("seed",        Int, "0",      "seed of the generated cases"),
        Flag::new("cases",       Int, "500",    "cases to generate"),
        Flag::new("max-steps",   Int, "100000", "skip cases over this many simulator steps"),
        Flag::new("tol-runtime", Num, "45",     "runtime tolerance, %"),
        Flag::new("tol-l1",      Num, "45",     "L1 traffic tolerance, %"),
        Flag::new("tol-l2",      Num, "45",     "L2 traffic tolerance, %"),
        Flag::new("tol-util",    Num, "0.3",    "utilization tolerance, absolute"),
        Flag::new("tol-macs",    Num, "30",     "model MAC-count tolerance, %"),
        MAX_SECONDS, JSON,
    ];
    /// The defaults are `ServeConfig::default()`'s, which
    /// `a_bare_serve_runs_the_default_config` holds them to.
    const SERVE: &[Flag] = &[
        Flag::new("addr",                Text, "127.0.0.1:7433", "bind address; port 0 picks a free port"),
        Flag::new("workers",             Int,  "4",       "worker threads"),
        Flag::new("queue-depth",         Int,  "64",      "admission queue bound; a full queue sheds 503"),
        Flag::new("default-deadline-ms", Int,  "10000",   "deadline of a request without deadline_ms"),
        Flag::new("drain-seconds",       Secs, "5",       "drain budget after SIGTERM/SIGINT"),
        Flag::new("io-timeout",          Secs, "10",      "socket read/write timeout (> 0)"),
        Flag::new("max-body-bytes",      Int,  "1048576", "request body cap; 413 beyond it"),
        Flag::new("shards",              Int,  "8",       "shared analysis-cache shards"),
        Flag::new("memo-cap",            Int,  "4096",    "reports kept per cache shard; 0 = unbounded"),
        Flag::new("access-log",          Text, "",        "JSONL per-request log (- = stdout)"),
        Flag::new("trace-capacity",      Int,  "256",     "flight-recorder ring size"),
        Flag::new("trace-sample",        Text, "16",      "keep 1 in K healthy requests (K or 1/K)"),
        Flag::new("trace-slow-ms",       Int,  "100",     "keep every request at least this slow"),
        Flag::new("trace-seed",          Int,  "",        "fixed trace-ID seed (default: the clock)"),
        Flag::new("chaos",               Text, "",        "seeded faults, e.g. stall:5ms:0.05"),
        Flag::new("chaos-seed",          Int,  "0",       "seed of the chaos plan"),
        MAX_SECONDS,
    ];
    const LOADGEN: &[Flag] = &[
        Flag::new("addr",        Text, "127.0.0.1:7433", "the daemon's address"),
        Flag::new("seconds",     Secs, "5",       "how long to send"),
        Flag::new("concurrency", Int,  "8",       "client threads, each with one request in flight"),
        Flag::new("mode",        Text, "analyze", "analyze, mixed, batch or stream"),
        Flag::new("retries",     Int,  "4",       "retries of a 503 or a refused connection"),
        JSON,
        Flag::new("out",         Text, "",        "also write the JSON report to this path"),
    ];
    const DSE_MODEL: &[Flag] = &[
        Flag::new("model", Text, "alexnet", "zoo model, or a network description file"),
    ];
    /// Every command takes these; `write_observability` reads them after
    /// the command ran.
    pub const OBS: &[Flag] = &[
        Flag::new("metrics",    Text, "", "dump the metrics registry, Prometheus text (- = stdout)"),
        Flag::new("trace-json", Text, "", "collect spans, dump them as JSON lines (- = stdout)"),
    ];
}

/// The usage text, generated from the command and flag tables.
fn usage() -> String {
    let mut s = String::from(
        "maestro — data-centric DNN dataflow cost model\n\n\
         USAGE: maestro <command> [--<flag> [<value>]]...\n",
    );
    for c in COMMANDS {
        let args: String = c.args.iter().map(|a| format!(" {a}")).collect();
        s += &format!("\n  maestro {}{args} — {}\n", c.name, c.about);
        c.flags.iter().for_each(|f| s += &f.usage());
    }
    s += "\n  maestro figures <name> — regenerate one of the paper's tables or figures\n";
    for f in FIGURES {
        s += &format!("      {:<28}{}\n", f.name, f.about);
        f.flags
            .iter()
            .for_each(|f| s += &format!("  {}", f.usage()));
    }
    s += "\nEvery command also takes:\n";
    OBS.iter().for_each(|f| s += &f.usage());
    let zoo: Vec<&str> = zoo::NAMED.iter().map(|(names, _)| names[0]).collect();
    let styles: Vec<&str> = Style::ALL.iter().map(|s| s.short_name()).collect();
    s += &format!(
        "      MAESTRO_LOG=<level>         stderr diagnostics: error|warn|info|debug|trace (default off)\n\n\
         Zoo models: {}\n(--model also accepts a path to a network description file)\n\
         Styles (Table 3): {}\n\n\
         Exit codes:\n  \
         0 ok   1 other   2 usage   3 parse error / corrupt checkpoint   4 unresolvable mapping\n  \
         5 analysis failure   6 conformance divergence   7 interrupted (partial results written)\n",
        zoo.join(" "),
        styles.join(" ")
    );
    s
}

fn cmd_help(_: &Args) -> Result<(), CliError> {
    out!("{}", usage())
}

/// Run a figure's writer on stdout; a closed stdout ends it quietly, as
/// it ends [`out!`].
fn figure(write: fn(&mut dyn std::io::Write) -> std::io::Result<()>) -> Result<(), CliError> {
    write(&mut std::io::stdout().lock()).map_err(stdout_error)
}

fn cmd_dse_model(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.text("model"))?;
    maestro_bench::dse_model(&model, &mut std::io::stdout().lock()).map_err(stdout_error)
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
    let metrics_dest = args.text("metrics");
    if !metrics_dest.is_empty() {
        write(
            metrics_dest,
            "metrics",
            maestro_obs::registry().render_prometheus(),
        )?;
    }
    let trace_dest = args.text("trace-json");
    if !trace_dest.is_empty() {
        maestro_obs::span::disable();
        let events = maestro_obs::span::drain();
        write(trace_dest, "trace", maestro_obs::span::to_jsonl(&events))?;
    }
    Ok(())
}

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
    let name = args.text("layer");
    if name.is_empty() {
        return Err(CliError::usage("missing --layer"));
    }
    model
        .layer(name)
        .ok_or_else(|| CliError::usage(format!("model {} has no layer `{name}`", model.name)))
}

fn accelerator(args: &Args) -> Result<Accelerator, CliError> {
    let bw = args.u64("bw");
    if bw == 0 {
        return Err(CliError::usage("--bw must be a positive integer"));
    }
    Ok(Accelerator::builder(args.u64("pes"))
        .noc_bandwidth(bw)
        .l1_bytes(args.u64("l1"))
        .l2_bytes(args.u64("l2"))
        .build())
}

fn cmd_analyze(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.text("model"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.text("dataflow"))?;
    let acc = accelerator(args)?;
    let report = analyze(layer, &df, &acc)?;
    if args.flag("json") {
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
    if args.flag("adaptive") && args.given("dataflow") {
        return Err(CliError::usage(
            "--adaptive picks each layer's dataflow, so it does not take --dataflow",
        ));
    }
    let model = load_model(args.text("model"))?;
    let acc = accelerator(args)?;
    let report = if args.flag("adaptive") {
        // The fastest style per layer; KC-P where no style maps.
        let styles: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
        analyze_model_with(&model, &acc, |layer| {
            maestro_dse::tune_layer(layer, &acc, maestro_dse::Objective::Runtime, &styles)
                .map_or_else(|| Style::KCP.dataflow(), |t| t.dataflow)
        })
    } else {
        let df = load_dataflow(args.text("dataflow"))?;
        analyze_model(&model, &df, &acc)
    }
    .map_err(CliError::from)?;
    if args.flag("json") {
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
    let max_seconds = args.secs("max-seconds");
    if !max_seconds.is_zero() {
        ctl.token.set_deadline_in(max_seconds);
    }
    let ckpt = args.text("checkpoint");
    if !ckpt.is_empty() {
        ctl.checkpoint_path = Some(PathBuf::from(ckpt));
    }
    // Periodic checkpoints are time-based (every 5 s by default, bounding
    // overhead on any workload); 0 leaves only the final checkpoint on
    // shutdown, which is unconditional.
    let ckpt_every = args.secs("checkpoint-secs");
    ctl.checkpoint_every = (!ckpt_every.is_zero()).then_some(ckpt_every);
    let resume = args.text("resume");
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
    let inject = args.text("inject");
    if !inject.is_empty() {
        ctl.faults = maestro_dse::FaultPlan::parse(inject, args.u64("inject-seed"))
            .map_err(|e| CliError::usage(format!("--inject: {e}")))?;
    }
    let trace_sample = args.text("trace-sample");
    ctl.trace_seed = args.u64("trace-seed");
    if !trace_sample.is_empty() {
        ctl.trace_sample = Some(parse_sample(trace_sample)?);
    }
    if args.flag("progress") {
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
    let model = load_model(args.text("model"))?;
    let layer = pick_layer(&model, args)?;
    let style_name = args.text("style");
    let style = Style::from_name(style_name)
        .ok_or_else(|| CliError::usage(format!("unknown style `{style_name}`")))?;
    let (ctl, resumed) = session_ctl(args)?;
    let trace_out = args.text("trace-out");
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
    if args.flag("json") {
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
    let model = load_model(args.text("model"))?;
    let df = load_dataflow(args.text("dataflow"))?;
    let acc = accelerator(args)?;
    let (points, mean) = validate_network(&model, &df, &acc, SimOptions::default());
    if points.is_empty() {
        // A mean over no layers would read as a perfect 0% error.
        return Err(CliError::resolve(format!(
            "no layer of {} validated: each failed to map or exceeded the simulator's step budget",
            model.name
        )));
    }
    for p in &points {
        outln!("{p}")?;
    }
    outln!(
        "mean absolute runtime error: {mean:.2}% over {} layers",
        points.len()
    )?;
    Ok(())
}

/// The conformance run `conform`'s flags ask for.
fn conform_config(args: &Args) -> maestro_sim::ConformConfig {
    maestro_sim::ConformConfig {
        seed: args.u64("seed"),
        cases: args.u64("cases"),
        max_steps: args.u64("max-steps"),
        tol: maestro_sim::Tolerances {
            runtime_pct: args.f64("tol-runtime"),
            l1_pct: args.f64("tol-l1"),
            l2_pct: args.f64("tol-l2"),
            utilization_abs: args.f64("tol-util"),
            model_macs_pct: args.f64("tol-macs"),
        },
    }
}

fn cmd_conform(args: &Args) -> Result<(), CliError> {
    let cfg = conform_config(args);
    // `conform` is the other long-running command: it honors the same
    // --max-seconds guard and SIGINT/SIGTERM semantics as `dse`, exiting 7
    // with a partial (but fully reported) sweep when cut short.
    signal::install_interrupt_handlers();
    let token = maestro_obs::CancelToken::new();
    let max_seconds = args.secs("max-seconds");
    if !max_seconds.is_zero() {
        token.set_deadline_in(max_seconds);
    }
    let report = maestro_sim::run_conform_cancellable(&cfg, &token);
    if args.flag("json") {
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

/// The daemon configuration `serve`'s flags ask for.
fn serve_config(args: &Args) -> Result<maestro_serve::ServeConfig, CliError> {
    let text = |name: &str| Some(args.text(name).to_string()).filter(|v| !v.is_empty());
    Ok(maestro_serve::ServeConfig {
        addr: args.text("addr").to_string(),
        workers: args.usize("workers"),
        queue_depth: args.usize("queue-depth"),
        default_deadline: Duration::from_millis(args.u64("default-deadline-ms")),
        drain_deadline: args.secs("drain-seconds"),
        max_body_bytes: args.usize("max-body-bytes"),
        io_timeout: args.secs("io-timeout"),
        memo_cap: args.usize("memo-cap"),
        shards: args.usize("shards"),
        access_log: text("access-log"),
        trace_capacity: args.usize("trace-capacity"),
        trace_sample: parse_sample(args.text("trace-sample"))?,
        trace_slow: Duration::from_millis(args.u64("trace-slow-ms")),
        trace_seed: args.given("trace-seed").then(|| args.u64("trace-seed")),
        chaos: text("chaos"),
        chaos_seed: args.u64("chaos-seed"),
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
    let max_seconds = args.secs("max-seconds");
    if !max_seconds.is_zero() {
        shutdown.set_deadline_in(max_seconds);
    }
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
    let model = load_model(args.text("model"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.text("dataflow"))?;
    let pes = args.u64("pes");
    let step = args.u64("step");
    let maps = mapping_at_step(layer, &df, pes, step)?;
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
    let model = load_model(args.text("model"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.text("dataflow"))?;
    let acc = accelerator(args)?;
    let explanation =
        maestro_core::explain(layer, &df, &acc).map_err(|e| CliError::resolve(e.to_string()))?;
    out!("{explanation}")?;
    Ok(())
}

fn cmd_lint(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.text("model"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.text("dataflow"))?;
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

/// `maestro trace` without `--from` or `--file`: the simulator's step
/// trace.
fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let model = load_model(args.text("model"))?;
    let layer = pick_layer(&model, args)?;
    let df = load_dataflow(args.text("dataflow"))?;
    let pes = args.u64("pes");
    let steps = args.u64("steps");
    let t = maestro_sim::trace(layer, &df, pes, steps)?;
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

/// `maestro trace --from <daemon>` or `--file <dump>`: the request-trace
/// explorer. It prints a listing, an ASCII waterfall per trace, or
/// `--folded` collapsed stacks for flamegraph scripts.
fn cmd_trace_explorer(args: &Args) -> Result<(), CliError> {
    let (from, file) = (args.text("from"), args.text("file"));
    let id = args.positional(0).unwrap_or_default();
    let text = if !from.is_empty() {
        let path = if id.is_empty() {
            "/debug/traces".to_string()
        } else {
            format!("/debug/traces/{id}")
        };
        let addr = client::resolve(from).map_err(|e| CliError::usage(format!("--from: {e}")))?;
        let body = match client::exchange(addr, "GET", &path, "", Duration::from_secs(10)) {
            Exchange::Reply(r) if r.status == 200 => Ok(r.body),
            Exchange::Reply(r) => Err(format!("HTTP {}: {}", r.status, r.body.trim())),
            Exchange::Refused => Err(format!("{from} did not answer")),
            Exchange::Dropped => Err(format!("{from} cut its reply short")),
        };
        body.map_err(|e| CliError::usage(format!("GET {path}: {e}")))?
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
    if args.flag("folded") {
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
    let model = load_model(args.text("model"))?;
    let acc = accelerator(args)?;
    let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
    let objective = match args.text("objective") {
        "runtime" => maestro_dse::Objective::Runtime,
        "energy" => maestro_dse::Objective::Energy(em),
        "edp" => maestro_dse::Objective::Edp(em),
        other => return Err(CliError::usage(format!("unknown objective `{other}`"))),
    };
    let tuned = maestro_dse::tune_model(&model, &acc, objective)
        .map_err(|e| CliError::resolve(e.to_string()))?;
    if args.flag("json") {
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

fn cmd_zoo(_: &Args) -> Result<(), CliError> {
    for (names, build) in zoo::NAMED {
        let m = build(1);
        outln!(
            "{:<13} {:>3} layers, {:>14} MACs",
            names[0],
            m.len(),
            m.total_macs()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line` parsed as `maestro` parses its command line.
    fn args(line: &str) -> Args {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv).map_err(|e| e.message).expect("valid flags").1
    }

    /// Each command's name and every flag it takes.
    fn tables() -> impl Iterator<Item = (&'static str, Vec<&'static Flag>)> {
        COMMANDS
            .into_iter()
            .chain(FIGURES)
            .map(|c| (c.name, c.flags.iter().chain(OBS).collect()))
    }

    #[test]
    fn the_help_text_names_every_command_and_every_flag_in_every_table() {
        let usage = usage();
        assert!(usage.contains("USAGE"), "{usage}");
        for (command, flags) in tables() {
            assert!(
                usage.contains(command),
                "{command} is missing from:\n{usage}"
            );
            for f in flags {
                let flag = format!("--{}", f.name);
                assert!(
                    usage.contains(&flag),
                    "{command}'s {flag} is missing from:\n{usage}"
                );
            }
        }
    }

    #[test]
    fn no_table_declares_a_flag_twice_and_every_default_is_of_its_kind() {
        for (command, flags) in tables() {
            for (i, f) in flags.iter().enumerate() {
                assert!(
                    flags[..i].iter().all(|g| g.name != f.name),
                    "{command} declares --{} twice",
                    f.name
                );
                if !f.default.is_empty() {
                    let argv = [format!("--{}", f.name), f.default.to_string()];
                    Args::parse(command, flags.iter().copied(), 0, &argv)
                        .unwrap_or_else(|e| panic!("{command}'s default: {e}"));
                }
            }
        }
    }

    #[test]
    fn a_bare_serve_runs_the_default_config() {
        let cfg = serve_config(&args("serve")).expect("no flags to refuse");
        assert_eq!(cfg, maestro_serve::ServeConfig::default());
    }

    #[test]
    fn a_bare_conform_runs_the_default_config() {
        assert_eq!(
            conform_config(&args("conform")),
            maestro_sim::ConformConfig::default()
        );
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
