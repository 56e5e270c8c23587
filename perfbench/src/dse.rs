//! `dse_fig13`: the paper's own design-space exploration (Figure 13) —
//! KC-P and YR-P variants × VGG16 CONV2 and CONV11 on
//! `SweepSpace::standard()`, one thread, staged evaluation. A pass is the
//! four sweeps (1,123,632 designs) in a seeded order; passes repeat until
//! the time is up. The sweep inner loop (tables, capacity expansion,
//! Pareto insert) dominates; build and finish are a minor share.

use crate::core_layer::CoreStages;
use crate::{json_array, median_of, overhead_pct, stats, Config, Outcome, Setups, REFERENCE_NS};
use maestro_dnn::{zoo, Model};
use maestro_dse::{variants, DseResult, EvalMode, Explorer, SweepSpace};
use maestro_ir::{Dataflow, Style};
use std::hint::black_box;
use std::time::Instant;

/// The four Figure 13 sweeps.
const SWEEPS: [(Style, &str); 4] = [
    (Style::KCP, "CONV2"),
    (Style::KCP, "CONV11"),
    (Style::YRP, "CONV2"),
    (Style::YRP, "CONV11"),
];

/// FNV-1a of the four sweep results (timing fields zeroed), serialized as
/// JSON in [`SWEEPS`] order. Changes only when the model's numbers do.
const DIGEST: u64 = 0x88d7_a433_8386_e8a4;

struct Inputs {
    vgg: Model,
    maps: Vec<Vec<Dataflow>>,
    explorer: Explorer,
}

fn inputs() -> Inputs {
    let mut explorer = Explorer::new(SweepSpace::standard());
    explorer.eval = EvalMode::Staged;
    Inputs {
        vgg: zoo::vgg16(1),
        maps: SWEEPS
            .iter()
            .map(|&(style, _)| variants::variants(style))
            .collect(),
        explorer,
    }
}

fn sweep(inp: &Inputs, explorer: &Explorer, i: usize) -> DseResult {
    let layer = inp
        .vgg
        .layer(SWEEPS[i].1)
        .expect("VGG16 has the Figure 13 layers");
    explorer
        .explore(black_box(layer), black_box(&inp.maps[i]))
        .expect("the standard space is valid")
}

/// The result without its wall-clock fields.
fn canonical(mut r: DseResult) -> DseResult {
    r.stats.seconds = 0.0;
    r.stats.rate = 0.0;
    r
}

fn digest(results: &[DseResult]) -> u64 {
    let texts: Vec<String> = results
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializable result"))
        .collect();
    let chunks: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
    stats::fnv64(&chunks)
}

/// Inputs plus one warm pass, whose results are the run's reference.
fn setup() -> (Inputs, Vec<DseResult>) {
    let inp = inputs();
    let reference = (0..SWEEPS.len())
        .map(|i| canonical(sweep(&inp, &inp.explorer, i)))
        .collect();
    (inp, reference)
}

struct Timed {
    /// Per sweep, in run order: wall time, ns.
    sweep_ns: Vec<f64>,
    /// Per sweep: wall time over the calibration kernel's time next to it.
    cost: Vec<f64>,
    passes: u64,
    mismatches: u64,
    core: CoreStages,
}

impl Timed {
    /// Median sweep time in reference-host nanoseconds.
    fn sweep_ref_ns(&self) -> f64 {
        median_of(&self.cost) * REFERENCE_NS
    }
}

fn measure(
    inp: &Inputs,
    reference: &[DseResult],
    seconds: f64,
    seed: u64,
    traced: bool,
    mut setups: Option<&mut Setups<(Inputs, Vec<DseResult>)>>,
) -> Timed {
    let mut rng = stats::Rng::new(seed);
    let mut t = Timed {
        sweep_ns: Vec::new(),
        cost: Vec::new(),
        passes: 0,
        mismatches: 0,
        core: CoreStages::default(),
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        if let Some(s) = setups.as_mut() {
            s.tick(start.elapsed().as_secs_f64());
        }
        let mut order = [0usize, 1, 2, 3];
        rng.shuffle(&mut order);
        if traced {
            maestro_obs::span::enable();
        }
        let mut results = Vec::with_capacity(4);
        for i in order {
            let t0 = Instant::now();
            let r = sweep(inp, &inp.explorer, i);
            let ns = t0.elapsed().as_nanos() as f64;
            t.sweep_ns.push(ns);
            t.cost.push(ns / stats::calibrate());
            results.push((i, r));
        }
        if traced {
            maestro_obs::span::disable();
            t.core.absorb(&maestro_obs::span::drain(), true);
        }
        t.passes += 1;
        for (i, r) in results {
            if canonical(r) != reference[i] {
                t.mismatches += 1;
            }
        }
    }
    t
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (mut setups, (inp, reference)) = Setups::first(setup, secs);

    // Correctness oracle, outside set-up and timing: fused evaluation must
    // agree bit for bit, and the results must match the committed digest.
    let mut full = inp.explorer.clone();
    full.eval = EvalMode::Full;
    for (i, r) in reference.iter().enumerate() {
        if &canonical(sweep(&inp, &full, i)) != r {
            out.problem(format!(
                "sweep {i}: staged result differs from full evaluation"
            ));
        }
    }
    let got = digest(&reference);
    if got != DIGEST {
        out.problem(format!(
            "result digest {got:#018x} != committed {DIGEST:#018x}"
        ));
    }

    let plain = measure(&inp, &reference, secs, cfg.seed, false, Some(&mut setups));
    let mut runs = vec![];
    if cfg.trace {
        let mut traced = measure(&inp, &reference, secs, cfg.seed, true, None);
        out.set(
            "obs.trace_overhead_pct",
            overhead_pct(plain.sweep_ref_ns(), traced.sweep_ref_ns()),
        );
        report_layers(&mut out, &mut traced, &reference);
        runs.push(traced);
    } else {
        let per_sweep = reference.iter().map(|r| r.stats.explored).sum::<u64>() as f64 / 4.0;
        out.set("setup_s", median_of(&setups.samples));
        out.set("throughput", per_sweep / (plain.sweep_ref_ns() / 1e9));
    }
    for t in runs.iter().chain([&plain]) {
        out.attempted += t.sweep_ns.len() as u64;
        out.failed += t.mismatches;
        if t.mismatches > 0 {
            out.problem(format!(
                "{} sweep(s) differed from the reference",
                t.mismatches
            ));
        }
    }
    out.detail("setup_s", json_array(&setups.samples));
    out.detail("digest", format!("\"{got:#018x}\""));
    out.detail("passes", plain.passes.to_string());
    out.detail("sweep_ref_ms", stats::num(plain.sweep_ref_ns() / 1e6));
    let mut ms: Vec<f64> = plain.sweep_ns.iter().map(|ns| ns / 1e6).collect();
    out.detail("sweep_ms_samples", json_array(&ms));
    out.detail("kernel_ratio_samples", json_array(&plain.cost));
    stats::sort(&mut ms);
    out.detail("sweep_ms", stats::summary_json(&ms));
    out
}

fn report_layers(out: &mut Outcome, t: &mut Timed, reference: &[DseResult]) {
    t.core.report(out);
    let c = &t.core;
    let (started, completed) = c.builds();
    let passes = t.passes.max(1);
    out.set("core.calls", (started / passes) as f64);
    out.set("core.ok_share", completed as f64 / started.max(1) as f64);
    let unit_total: f64 = c.unit_ns.iter().sum();
    let analysis = c.stage_total_ns() / unit_total.max(1.0);
    out.set("dse.analysis_share", analysis);
    out.set("dse.expand_share", 1.0 - analysis);
    let mut units = c.unit_ns.clone();
    stats::sort(&mut units);
    out.set("dse.unit_ms", stats::mean(&units) / 1e6);
    out.set("dse.unit_ms_p90", stats::percentile(&units, 90.0) / 1e6);
    let sum = |f: fn(&DseResult) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    out.set("dse.explored", sum(|r| r.stats.explored));
    out.set("dse.evaluated", sum(|r| r.stats.evaluated));
    out.set("dse.valid", sum(|r| r.stats.valid));
    out.set("dse.capacity_skipped", sum(|r| r.stats.capacity_skipped));
    out.set("dse.pareto_inserted", sum(|r| r.stats.pareto_inserted));
    out.set("dse.pareto_rejected", sum(|r| r.stats.pareto_rejected));
    // `DseStats` counts report-tier lookups: `evaluated` misses (one per
    // bandwidth point under staged evaluation) and `memo_hits`. Every
    // lookup the stage tier answered skipped a build.
    let lookups = sum(|r| r.stats.evaluated) + sum(|r| r.stats.memo_hits);
    out.set(
        "memo.stage_hit_ratio",
        1.0 - (started / passes) as f64 / lookups.max(1.0),
    );
    let units_ms: Vec<f64> = units.iter().map(|ns| ns / 1e6).collect();
    out.detail("unit_ms", stats::summary_json(&units_ms));
}
