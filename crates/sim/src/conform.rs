//! Differential conformance harness: fuzz `analyze()` against `simulate()`.
//!
//! The paper's credibility rests on Figure 9: the closed-form model tracks
//! RTL simulation within a few percent. This module machine-checks our
//! analog of that claim. A seeded generator draws random valid
//! (layer, dataflow, accelerator) triples, runs both the analytical model
//! and the step-driven simulator on each, classifies per-metric divergence
//! against configurable tolerances, and greedily **shrinks** every failing
//! triple to a minimal reproducer printed as a ready-to-paste regression
//! test (DSL text + builder code).
//!
//! The run is bit-identically reproducible from its seed: generation is a
//! single sequential stream off [`proptest::TestRng`], and both engines
//! are deterministic.
//!
//! Counters (`maestro.conform.*`): `cases`, `diverged`, `shrunk`,
//! `skipped` — exposed through the usual `maestro-obs` registry.

use crate::engine::{SimError, SimOptions};
use crate::validate::{error_pct, validate_layer, ValidateError};
use maestro_core::AnalysisError;
use maestro_dnn::{Layer, LayerDims, Operator};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, Directive, SizeExpr, Style};
use proptest::TestRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

fn counter(
    which: &'static OnceLock<maestro_obs::Counter>,
    name: &str,
) -> &'static maestro_obs::Counter {
    which.get_or_init(|| maestro_obs::registry().counter(name))
}

fn cases_counter() -> &'static maestro_obs::Counter {
    static C: OnceLock<maestro_obs::Counter> = OnceLock::new();
    counter(&C, "maestro.conform.cases")
}

fn diverged_counter() -> &'static maestro_obs::Counter {
    static C: OnceLock<maestro_obs::Counter> = OnceLock::new();
    counter(&C, "maestro.conform.diverged")
}

fn shrunk_counter() -> &'static maestro_obs::Counter {
    static C: OnceLock<maestro_obs::Counter> = OnceLock::new();
    counter(&C, "maestro.conform.shrunk")
}

fn skipped_counter() -> &'static maestro_obs::Counter {
    static C: OnceLock<maestro_obs::Counter> = OnceLock::new();
    counter(&C, "maestro.conform.skipped")
}

/// The metric on which model and simulator are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Runtime in cycles (relative error).
    Runtime,
    /// L1 fill traffic, total elements written (relative error).
    L1Fill,
    /// L2 traffic, total reads + writes (relative error).
    L2Traffic,
    /// PE utilization (absolute error).
    Utilization,
    /// Simulator MAC count vs the layer's exact count (must be equal).
    SimMacs,
    /// Model dense MAC count vs the layer's exact count (relative error).
    ModelMacs,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Metric::Runtime => "runtime",
            Metric::L1Fill => "l1-fill",
            Metric::L2Traffic => "l2-traffic",
            Metric::Utilization => "utilization",
            Metric::SimMacs => "sim-macs",
            Metric::ModelMacs => "model-macs",
        };
        f.write_str(s)
    }
}

/// Per-metric divergence tolerances. Percentages are relative to the
/// simulator (reference) side; utilization is absolute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerances {
    /// Max runtime error, percent.
    pub runtime_pct: f64,
    /// Max L1-fill error, percent.
    pub l1_pct: f64,
    /// Max L2-traffic error, percent.
    pub l2_pct: f64,
    /// Max absolute utilization difference.
    pub utilization_abs: f64,
    /// Max model-MACs-vs-exact error, percent (the model may overcount
    /// edge-padded spatial chunks; the simulator must not).
    pub model_macs_pct: f64,
}

impl Default for Tolerances {
    /// Defaults calibrated on the fixed-seed CI run after this module's
    /// bug hunt: tight enough to catch the divergence classes it found,
    /// with margin over the residual closed-form-vs-enumeration noise.
    fn default() -> Self {
        Tolerances {
            runtime_pct: 45.0,
            l1_pct: 45.0,
            l2_pct: 45.0,
            utilization_abs: 0.30,
            model_macs_pct: 30.0,
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConformConfig {
    /// PRNG seed; same seed → bit-identical report.
    pub seed: u64,
    /// Number of triples to generate.
    pub cases: u64,
    /// Divergence tolerances.
    pub tol: Tolerances,
    /// Simulator step budget per case (larger schedules are skipped).
    pub max_steps: u64,
}

impl Default for ConformConfig {
    fn default() -> Self {
        ConformConfig {
            seed: 0,
            cases: 500,
            tol: Tolerances::default(),
            max_steps: 100_000,
        }
    }
}

/// One generated (layer, dataflow, accelerator) triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Case {
    /// The layer.
    pub layer: Layer,
    /// The dataflow.
    pub dataflow: Dataflow,
    /// The accelerator.
    pub acc: Accelerator,
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / {} PEs bw{}",
            self.layer,
            self.dataflow.name(),
            self.acc.num_pes,
            self.acc.noc.bandwidth
        )
    }
}

/// One metric's measured divergence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Divergence {
    /// Which metric diverged.
    pub metric: Metric,
    /// Model-side value.
    pub model: f64,
    /// Simulator-side value.
    pub sim: f64,
    /// The error that exceeded tolerance (percent, or absolute for
    /// utilization / MAC-count deltas).
    pub error: f64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.metric {
            Metric::Utilization => write!(
                f,
                "{}: model {:.3} vs sim {:.3} (|Δ| {:.3})",
                self.metric, self.model, self.sim, self.error
            ),
            Metric::SimMacs => write!(
                f,
                "{}: sim {} vs exact {} (Δ {})",
                self.metric, self.sim, self.model, self.error
            ),
            _ => write!(
                f,
                "{}: model {:.1} vs sim {:.1} ({:.1}%)",
                self.metric, self.model, self.sim, self.error
            ),
        }
    }
}

/// Why a generated case was not compared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SkipReason {
    /// The dataflow does not resolve onto the layer/accelerator (both
    /// engines reject it identically).
    Resolve(String),
    /// The analytical model failed for a non-resolve reason.
    Analysis(String),
    /// The schedule exceeds the step budget.
    TooManySteps,
}

/// Outcome of checking one case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CaseOutcome {
    /// All metrics within tolerance.
    Agree,
    /// At least one metric out of tolerance.
    Diverged(Vec<Divergence>),
    /// Not comparable.
    Skipped(SkipReason),
}

/// A diverging case, its shrunk minimal form, and the generated
/// regression-test reproducer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergentCase {
    /// Index in the generation stream (0-based).
    pub index: u64,
    /// The case as generated.
    pub original: Case,
    /// The greedily minimized case (still diverging on at least one of the
    /// original metrics).
    pub shrunk: Case,
    /// Divergences measured on the shrunk case.
    pub divergences: Vec<Divergence>,
    /// Ready-to-paste regression test (DSL text + builder code).
    pub reproducer: String,
}

/// Aggregate result of a conformance run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformReport {
    /// The seed that reproduces this report.
    pub seed: u64,
    /// Cases generated.
    pub cases: u64,
    /// Cases compared (not skipped).
    pub compared: u64,
    /// Cases skipped, by reason counts: resolve / analysis / step budget.
    pub skipped_resolve: u64,
    /// Skipped because the model failed for a non-resolve reason.
    pub skipped_analysis: u64,
    /// Skipped because the schedule exceeded the step budget.
    pub skipped_steps: u64,
    /// `true` when the run was cancelled (signal or `--max-seconds`
    /// deadline) before every case was checked: the counts above cover
    /// only the cases reached. Always `false` for completed runs.
    pub interrupted: bool,
    /// Every diverging case with its shrunk reproducer.
    pub diverged: Vec<DivergentCase>,
}

impl ConformReport {
    /// `true` when no compared case diverged.
    pub fn is_clean(&self) -> bool {
        self.diverged.is_empty()
    }
}

/// Draw one element of a slice.
fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// Generate a random valid layer (conv / grouped / depthwise / FC over
/// small dims with strides and edge-truncating extents).
fn gen_layer(rng: &mut TestRng) -> Layer {
    let r = 1 + rng.below(4);
    let s = 1 + rng.below(4);
    let k = 1 + rng.below(20);
    let dims = LayerDims {
        n: 1 + rng.below(2),
        k,
        c: 1 + rng.below(12),
        y: r + rng.below(13),
        x: s + rng.below(13),
        r,
        s,
        stride_y: 1 + rng.below(3),
        stride_x: 1 + rng.below(3),
    };
    let op = match rng.below(8) {
        0 => Operator::DepthwiseConv2d,
        1 => Operator::FullyConnected,
        2 => {
            // Grouped conv: pick a group count dividing K.
            let g = *pick(rng, &[2u32, 3, 4]);
            if dims.k.is_multiple_of(u64::from(g)) {
                Operator::Conv2d { groups: g }
            } else {
                Operator::conv2d()
            }
        }
        _ => Operator::conv2d(),
    };
    Layer::new("fuzz", op, dims)
}

/// Generate a dataflow: a Table 3 style in canonical form or one of
/// `maestro-dse`'s tile-size variants with randomized mapping sizes.
fn gen_dataflow(rng: &mut TestRng) -> Dataflow {
    use maestro_dse::variants::{kcp_variant, xp_variant, yrp_variant, yxp_variant};
    let style = *pick(rng, &Style::ALL);
    if rng.below(3) == 0 {
        return style.dataflow();
    }
    match style {
        Style::KCP => kcp_variant(
            *pick(rng, &[1, 2, 3, 4, 8, 16]),
            1 + rng.below(4),
            1 + rng.below(4),
        ),
        Style::YRP => yrp_variant(
            1 + rng.below(4),
            *pick(rng, &[1, 2, 4, 8]),
            1 + rng.below(3),
        ),
        Style::XP => xp_variant(*pick(rng, &[1, 2, 3, 4, 8])),
        Style::YXP => yxp_variant(*pick(rng, &[2, 3, 4, 8, 16]), *pick(rng, &[1, 2, 4, 8])),
        Style::CP => style.dataflow(),
    }
}

/// Generate an accelerator off the DSE sweep grids (paper §5.2's four
/// hardware parameters).
fn gen_accelerator(rng: &mut TestRng) -> Accelerator {
    let space = maestro_dse::SweepSpace::standard();
    // Cap PEs: the simulator enumerates the unit grid per step, and the
    // interesting edge/clamping behaviour already appears at small scale.
    let pes: Vec<u64> = space.pes.iter().copied().filter(|&p| p <= 256).collect();
    Accelerator::builder(*pick(rng, &pes))
        .noc_bandwidth(*pick(rng, &space.noc_bw))
        .l1_bytes(*pick(rng, &space.l1_bytes))
        .l2_bytes(*pick(rng, &space.l2_bytes))
        .build()
}

/// Generate the next case in the seeded stream.
pub fn gen_case(rng: &mut TestRng) -> Case {
    Case {
        layer: gen_layer(rng),
        dataflow: gen_dataflow(rng),
        acc: gen_accelerator(rng),
    }
}

/// Run both engines on `case` ([`validate_layer`]) and classify the
/// outcome against `tol`. The model runs first, so its failure is the
/// skip reason when both fail.
pub fn check_case(case: &Case, tol: &Tolerances, max_steps: u64) -> CaseOutcome {
    let p = match validate_layer(
        &case.layer,
        &case.dataflow,
        &case.acc,
        SimOptions { max_steps },
    ) {
        Ok(p) => p,
        Err(
            ValidateError::Model(AnalysisError::Resolve(e))
            | ValidateError::Sim(SimError::Resolve(e)),
        ) => return CaseOutcome::Skipped(SkipReason::Resolve(e.to_string())),
        Err(ValidateError::Model(e)) => {
            return CaseOutcome::Skipped(SkipReason::Analysis(e.to_string()))
        }
        Err(ValidateError::Sim(
            SimError::TooManySteps { .. } | SimError::StepOutOfRange { .. },
        )) => return CaseOutcome::Skipped(SkipReason::TooManySteps),
    };
    let exact = p.exact_macs;
    let mut divs = Vec::new();
    let mut rel = |metric: Metric, model_v: f64, sim_v: f64, bound: f64| {
        let err = error_pct(model_v, sim_v);
        if err > bound {
            divs.push(Divergence {
                metric,
                model: model_v,
                sim: sim_v,
                error: err,
            });
        }
    };
    rel(
        Metric::Runtime,
        p.model_runtime,
        p.sim_runtime,
        tol.runtime_pct,
    );
    rel(Metric::L1Fill, p.model_l1_fill, p.sim_l1_fill, tol.l1_pct);
    rel(Metric::L2Traffic, p.model_l2, p.sim_l2, tol.l2_pct);
    rel(
        Metric::ModelMacs,
        p.model_macs,
        exact as f64,
        tol.model_macs_pct,
    );
    let util_err = (p.model_utilization - p.sim_utilization).abs();
    if util_err > tol.utilization_abs {
        divs.push(Divergence {
            metric: Metric::Utilization,
            model: p.model_utilization,
            sim: p.sim_utilization,
            error: util_err,
        });
    }
    if p.sim_macs != exact {
        divs.push(Divergence {
            metric: Metric::SimMacs,
            model: exact as f64,
            sim: p.sim_macs as f64,
            error: (p.sim_macs as f64 - exact as f64).abs(),
        });
    }
    if divs.is_empty() {
        CaseOutcome::Agree
    } else {
        CaseOutcome::Diverged(divs)
    }
}

/// Whether `candidate` still diverges on at least one of `failing`.
fn still_fails(candidate: &Case, tol: &Tolerances, max_steps: u64, failing: &[Metric]) -> bool {
    if candidate.layer.validate().is_err() {
        return false;
    }
    match check_case(candidate, tol, max_steps) {
        CaseOutcome::Diverged(divs) => divs.iter().any(|d| failing.contains(&d.metric)),
        _ => false,
    }
}

/// Greedily shrink a failing case: repeatedly try to halve/decrement each
/// layer dimension, stride, and the accelerator's PE count and NoC width,
/// keeping any move after which the case still diverges on one of the
/// originally failing metrics. Bounded by an evaluation budget.
pub fn shrink(case: &Case, tol: &Tolerances, max_steps: u64, failing: &[Metric]) -> Case {
    let mut best = case.clone();
    let mut evals = 0u32;
    const BUDGET: u32 = 400;
    loop {
        let mut improved = false;
        // Candidate moves, most aggressive first. Each returns a mutated
        // copy, or None when the move is a no-op.
        let dim_move = |c: &Case, f: fn(&mut LayerDims, bool) -> bool, halve: bool| {
            let mut n = c.clone();
            f(&mut n.layer.dims, halve).then_some(n)
        };
        fn shrink_to(v: &mut u64, lo: u64, halve: bool) -> bool {
            let next = if halve {
                (*v / 2).max(lo)
            } else {
                v.saturating_sub(1).max(lo)
            };
            if next < *v {
                *v = next;
                true
            } else {
                false
            }
        }
        type Move = Box<dyn Fn(&Case, bool) -> Option<Case>>;
        let moves: Vec<Move> = vec![
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.n, 1, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.k, 1, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.c, 1, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.y, d.r, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.x, d.s, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.r, 1, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.s, 1, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.stride_y, 1, h), h)),
            Box::new(move |c, h| dim_move(c, |d, h| shrink_to(&mut d.stride_x, 1, h), h)),
            Box::new(|c, h| {
                let mut n = c.clone();
                let mut pes = n.acc.num_pes;
                shrink_to(&mut pes, 1, h).then(|| {
                    n.acc.num_pes = pes;
                    n
                })
            }),
            Box::new(|c, h| {
                let mut n = c.clone();
                let mut bw = n.acc.noc.bandwidth;
                shrink_to(&mut bw, 1, h).then(|| {
                    n.acc = Accelerator::builder(n.acc.num_pes)
                        .noc_bandwidth(bw)
                        .l1_bytes(n.acc.l1_bytes)
                        .l2_bytes(n.acc.l2_bytes)
                        .build();
                    n
                })
            }),
        ];
        'moves: for halve in [true, false] {
            for mv in &moves {
                if let Some(cand) = mv(&best, halve) {
                    if evals >= BUDGET {
                        break 'moves;
                    }
                    evals += 1;
                    if still_fails(&cand, tol, max_steps, failing) {
                        best = cand;
                        improved = true;
                    }
                }
            }
        }
        if !improved || evals >= BUDGET {
            break;
        }
    }
    best
}

/// Rust builder-code form of a size expression.
fn expr_code(e: &SizeExpr) -> String {
    match e {
        SizeExpr::Const(v) => format!("SizeExpr::lit({v})"),
        SizeExpr::Size(d) => format!("SizeExpr::size(Dim::{d})"),
        SizeExpr::Add(a, b) => format!("{}.add({})", expr_code(a), expr_code(b)),
        SizeExpr::Sub(a, b) => format!("{}.sub({})", expr_code(a), expr_code(b)),
    }
}

/// Rust builder-code form of a dataflow.
fn dataflow_code(df: &Dataflow) -> String {
    let mut s = format!("Dataflow::builder({:?})", df.name());
    for d in df.directives() {
        s.push_str("\n        ");
        match d {
            Directive::TemporalMap { size, offset, dim } => {
                s.push_str(&format!(
                    ".temporal({}, {}, Dim::{dim})",
                    expr_code(size),
                    expr_code(offset)
                ));
            }
            Directive::SpatialMap { size, offset, dim } => {
                s.push_str(&format!(
                    ".spatial({}, {}, Dim::{dim})",
                    expr_code(size),
                    expr_code(offset)
                ));
            }
            Directive::Cluster(size) => {
                s.push_str(&format!(".cluster({})", expr_code(size)));
            }
        }
    }
    s.push_str("\n        .build()");
    s
}

/// Rust constructor-code form of the layer's operator.
fn operator_code(op: &Operator) -> String {
    match op {
        Operator::Conv2d { groups: 1 } => "Operator::conv2d()".into(),
        Operator::Conv2d { groups } => format!("Operator::Conv2d {{ groups: {groups} }}"),
        Operator::DepthwiseConv2d => "Operator::DepthwiseConv2d".into(),
        Operator::TransposedConv2d { upsample } => {
            format!("Operator::TransposedConv2d {{ upsample: {upsample} }}")
        }
        Operator::FullyConnected => "Operator::FullyConnected".into(),
        Operator::Pooling => "Operator::Pooling".into(),
        Operator::ElementwiseAdd => "Operator::ElementwiseAdd".into(),
    }
}

/// Render the ready-to-paste regression test for a shrunk case.
pub fn reproducer(case: &Case, divs: &[Divergence], seed: u64, index: u64) -> String {
    let d = &case.layer.dims;
    let mut out = String::new();
    out.push_str("// Minimized by `maestro conform`; DSL form of the dataflow:\n");
    for line in case.dataflow.to_string().lines() {
        out.push_str("//   ");
        out.push_str(line);
        out.push('\n');
    }
    for div in divs {
        out.push_str(&format!("// diverged — {div}\n"));
    }
    out.push_str(&format!(
        "#[test]\nfn conform_repro_seed{seed}_case{index}() {{\n"
    ));
    out.push_str(&format!(
        "    let layer = Layer::new(\n        \"repro\",\n        {},\n        LayerDims {{ n: {}, k: {}, c: {}, y: {}, x: {}, r: {}, s: {}, stride_y: {}, stride_x: {} }},\n    );\n",
        operator_code(&case.layer.op),
        d.n, d.k, d.c, d.y, d.x, d.r, d.s, d.stride_y, d.stride_x
    ));
    out.push_str(&format!(
        "    let df = {};\n",
        dataflow_code(&case.dataflow)
    ));
    out.push_str(&format!(
        "    let acc = Accelerator::builder({})\n        .noc_bandwidth({})\n        .l1_bytes({})\n        .l2_bytes({})\n        .build();\n",
        case.acc.num_pes, case.acc.noc.bandwidth, case.acc.l1_bytes, case.acc.l2_bytes
    ));
    out.push_str(
        "    let p = validate_layer(&layer, &df, &acc, SimOptions::default()).unwrap();\n",
    );
    out.push_str("    assert_eq!(p.sim_macs, p.exact_macs);\n");
    out.push_str("    assert!(p.runtime_error_pct() < 40.0, \"{}\", p.runtime_error_pct());\n");
    out.push_str("}\n");
    out
}

/// Run the conformance harness: generate `cfg.cases` triples from
/// `cfg.seed`, compare model and simulator on each, and shrink every
/// divergence to a minimal reproducer. Deterministic: the same config
/// always produces an identical report.
pub fn run_conform(cfg: &ConformConfig) -> ConformReport {
    run_conform_cancellable(cfg, &maestro_obs::CancelToken::detached())
}

/// [`run_conform`] polling a cooperative cancellation token at each case
/// boundary — the same token the DSE sessions use, so `SIGINT`/`SIGTERM`
/// or a `--max-seconds` deadline drains the current case and returns the
/// partial report with [`ConformReport::interrupted`] set instead of
/// throwing the finished cases away. Up to the point of interruption the
/// case sequence is identical to an uncancelled run's (the generator RNG
/// does not observe the token).
pub fn run_conform_cancellable(
    cfg: &ConformConfig,
    token: &maestro_obs::CancelToken,
) -> ConformReport {
    let _span = maestro_obs::span::span("maestro.conform.run");
    // Touch every counter up front so a clean run still exposes them.
    let (c_cases, c_div, c_shrunk, c_skip) = (
        cases_counter(),
        diverged_counter(),
        shrunk_counter(),
        skipped_counter(),
    );
    let mut rng = TestRng::from_seed(cfg.seed);
    let mut report = ConformReport {
        seed: cfg.seed,
        cases: cfg.cases,
        compared: 0,
        skipped_resolve: 0,
        skipped_analysis: 0,
        skipped_steps: 0,
        interrupted: false,
        diverged: Vec::new(),
    };
    for index in 0..cfg.cases {
        if token.is_cancelled() {
            report.interrupted = true;
            report.cases = index;
            break;
        }
        let case = gen_case(&mut rng);
        c_cases.inc();
        match check_case(&case, &cfg.tol, cfg.max_steps) {
            CaseOutcome::Agree => report.compared += 1,
            CaseOutcome::Skipped(reason) => {
                c_skip.inc();
                match reason {
                    SkipReason::Resolve(_) => report.skipped_resolve += 1,
                    SkipReason::Analysis(_) => report.skipped_analysis += 1,
                    SkipReason::TooManySteps => report.skipped_steps += 1,
                }
            }
            CaseOutcome::Diverged(divs) => {
                report.compared += 1;
                c_div.inc();
                maestro_obs::warn!(
                    "conform divergence at case {index} (seed {}): {}",
                    cfg.seed,
                    case
                );
                let failing: Vec<Metric> = divs.iter().map(|d| d.metric).collect();
                let shrunk = shrink(&case, &cfg.tol, cfg.max_steps, &failing);
                c_shrunk.inc();
                let final_divs = match check_case(&shrunk, &cfg.tol, cfg.max_steps) {
                    CaseOutcome::Diverged(d) => d,
                    // The shrinker only accepts still-failing candidates,
                    // so this arm is unreachable; keep the original list.
                    _ => divs,
                };
                let repro = reproducer(&shrunk, &final_divs, cfg.seed, index);
                report.diverged.push(DivergentCase {
                    index,
                    original: case,
                    shrunk,
                    divergences: final_divs,
                    reproducer: repro,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let mut a = TestRng::from_seed(7);
        let mut b = TestRng::from_seed(7);
        for _ in 0..50 {
            assert_eq!(gen_case(&mut a), gen_case(&mut b));
        }
    }

    #[test]
    fn generated_layers_validate() {
        let mut rng = TestRng::from_seed(11);
        for _ in 0..500 {
            let case = gen_case(&mut rng);
            case.layer
                .validate()
                .expect("generated layer must be valid");
        }
    }

    #[test]
    fn cancelled_conform_returns_partial_report() {
        let cfg = ConformConfig {
            cases: 50,
            ..ConformConfig::default()
        };
        let token = maestro_obs::CancelToken::detached();
        token.cancel();
        let report = run_conform_cancellable(&cfg, &token);
        assert!(report.interrupted);
        assert_eq!(report.cases, 0, "cancelled before the first case");

        let full = run_conform_cancellable(&cfg, &maestro_obs::CancelToken::detached());
        assert!(!full.interrupted);
        assert_eq!(full.cases, 50);
        assert_eq!(full, run_conform(&cfg), "detached token ≡ plain run");
    }

    #[test]
    fn check_flags_an_obvious_divergence() {
        // Zero tolerances: essentially any non-trivial case must diverge
        // on at least one metric (closed form never matches enumeration
        // to the last ulp on every metric at once).
        let tol = Tolerances {
            runtime_pct: 0.0,
            l1_pct: 0.0,
            l2_pct: 0.0,
            utilization_abs: 0.0,
            model_macs_pct: 0.0,
        };
        let mut rng = TestRng::from_seed(3);
        let mut diverged = 0;
        for _ in 0..20 {
            let case = gen_case(&mut rng);
            if matches!(check_case(&case, &tol, 100_000), CaseOutcome::Diverged(_)) {
                diverged += 1;
            }
        }
        assert!(diverged > 0, "zero tolerance must flag divergences");
    }

    #[test]
    fn shrink_produces_smaller_still_failing_case() {
        let tol = Tolerances {
            runtime_pct: 0.0,
            l1_pct: 0.0,
            l2_pct: 0.0,
            utilization_abs: 0.0,
            model_macs_pct: 0.0,
        };
        let mut rng = TestRng::from_seed(5);
        for _ in 0..40 {
            let case = gen_case(&mut rng);
            if let CaseOutcome::Diverged(divs) = check_case(&case, &tol, 100_000) {
                let failing: Vec<Metric> = divs.iter().map(|d| d.metric).collect();
                let small = shrink(&case, &tol, 100_000, &failing);
                assert!(still_fails(&small, &tol, 100_000, &failing));
                let size = |c: &Case| {
                    let d = &c.layer.dims;
                    d.n + d.k + d.c + d.y + d.x + d.r + d.s + c.acc.num_pes
                };
                assert!(size(&small) <= size(&case));
                return;
            }
        }
        panic!("no divergence found to shrink at zero tolerance");
    }

    #[test]
    fn reproducer_contains_builder_and_dsl() {
        let mut rng = TestRng::from_seed(9);
        let case = gen_case(&mut rng);
        let text = reproducer(&case, &[], 9, 0);
        assert!(text.contains("Dataflow::builder"));
        assert!(text.contains("LayerDims {"));
        assert!(text.contains("Accelerator::builder"));
        assert!(text.contains("// Minimized by `maestro conform`"));
        assert!(text.contains("#[test]"));
    }

    #[test]
    fn run_is_bit_identical_from_same_seed() {
        let cfg = ConformConfig {
            seed: 21,
            cases: 40,
            ..ConformConfig::default()
        };
        let a = run_conform(&cfg);
        let b = run_conform(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.cases, 40);
    }
}
