//! `zoo_analyze`: every layer of the five Figure 10 models (ResNet-50,
//! VGG16, ResNeXt-50, MobileNetV2, UNet) under each of the five Table 3
//! dataflows on the 256-PE case-study accelerator — 1,210 fresh `analyze`
//! calls per pass, no cache, each pass in a fresh seeded order. Shapes run
//! from depth-wise to large early convolutions, so the analysis pipeline
//! does nearly all the work. One operation is one pass: analyzing the
//! whole zoo under every dataflow.

use crate::core_layer::CoreStages;
use crate::{json_array, median_of, overhead_pct, stats, Config, Outcome, Setups, REFERENCE_NS};
use maestro_core::{AnalysisError, LayerReport, StagedAnalysis};
use maestro_dnn::{zoo, Layer, Model};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, Style};
use std::hint::black_box;
use std::time::Instant;

pub const MODELS: [&str; 5] = ["resnet50", "vgg16", "resnext50", "mobilenet_v2", "unet"];

/// FNV-1a of every report (or error text) serialized as JSON, in model ×
/// layer × `Style::ALL` order. Changes only when the model's numbers do.
const DIGEST: u64 = 0x1f35_3ed7_180d_793c;

type Analyzed = Result<LayerReport, AnalysisError>;

struct Inputs {
    /// Every layer of every model, in model order.
    layers: Vec<Layer>,
    dataflows: Vec<Dataflow>,
    acc: Accelerator,
    /// (layer, dataflow) pairs in model × layer × `Style::ALL` order.
    pairs: Vec<(usize, usize)>,
}

fn inputs() -> Inputs {
    let layers: Vec<Layer> = MODELS
        .iter()
        .flat_map(|name| {
            let model: Model = zoo::by_name(name, 1).expect("Figure 10 model in the zoo");
            model.iter().cloned().collect::<Vec<_>>()
        })
        .collect();
    let pairs = (0..layers.len())
        .flat_map(|l| (0..Style::ALL.len()).map(move |d| (l, d)))
        .collect();
    Inputs {
        layers,
        dataflows: Style::ALL.iter().map(|s| s.dataflow()).collect(),
        acc: Accelerator::paper_case_study(),
        pairs,
    }
}

/// Inputs plus one warm pass, whose results are the run's reference.
fn setup() -> (Inputs, Vec<Analyzed>) {
    let inp = inputs();
    let reference = inp
        .pairs
        .iter()
        .map(|&(l, d)| maestro_core::analyze(&inp.layers[l], &inp.dataflows[d], &inp.acc))
        .collect();
    (inp, reference)
}

fn digest(reference: &[Analyzed]) -> u64 {
    let texts: Vec<String> = reference
        .iter()
        .map(|r| match r {
            Ok(report) => serde_json::to_string(report).expect("serializable report"),
            Err(e) => e.to_string(),
        })
        .collect();
    let chunks: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
    stats::fnv64(&chunks)
}

struct Timed {
    /// Per pass, in run order: wall time, ns.
    pass_ns: Vec<f64>,
    /// Per pass: wall time over the calibration kernel's time next to it.
    cost: Vec<f64>,
    mismatches: u64,
    core: CoreStages,
    ok_per_pass: u64,
}

impl Timed {
    /// Median pass time in reference-host nanoseconds.
    fn pass_ref_ns(&self) -> f64 {
        median_of(&self.cost) * REFERENCE_NS
    }
}

/// Run passes for `seconds`, each over a freshly shuffled order (so no
/// one order's cache luck decides the run), checking every result.
fn measure(
    inp: &Inputs,
    reference: &[Analyzed],
    seconds: f64,
    seed: u64,
    traced: bool,
    mut setups: Option<&mut Setups<(Inputs, Vec<Analyzed>)>>,
) -> Timed {
    let mut t = Timed {
        pass_ns: Vec::new(),
        cost: Vec::new(),
        mismatches: 0,
        core: CoreStages::default(),
        ok_per_pass: 0,
    };
    let mut rng = stats::Rng::new(seed);
    let mut order: Vec<usize> = (0..reference.len()).collect();
    let (bw, lat) = (inp.acc.noc.bandwidth, inp.acc.noc.avg_latency);
    let mut results: Vec<(usize, Analyzed)> = Vec::with_capacity(order.len());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        if let Some(s) = setups.as_mut() {
            s.tick(start.elapsed().as_secs_f64());
        }
        rng.shuffle(&mut order);
        results.clear();
        if traced {
            maestro_obs::span::enable();
        }
        let pass = Instant::now();
        for &i in &order {
            let (l, d) = inp.pairs[i];
            let (layer, df) = (black_box(&inp.layers[l]), black_box(&inp.dataflows[d]));
            let r = if traced {
                let t0 = Instant::now();
                let built = StagedAnalysis::build(layer, df, &inp.acc);
                let t1 = Instant::now();
                let r = built.and_then(|s| {
                    let r = s.finish(bw, lat);
                    t.core.finish_ns.push(t1.elapsed().as_nanos() as f64);
                    r
                });
                t.core
                    .build_ns
                    .push(t1.duration_since(t0).as_nanos() as f64);
                r
            } else {
                maestro_core::analyze(layer, df, &inp.acc)
            };
            results.push((i, r));
        }
        let ns = pass.elapsed().as_nanos() as f64;
        t.pass_ns.push(ns);
        t.cost.push(ns / stats::calibrate());
        if traced {
            maestro_obs::span::disable();
            t.core.absorb(&maestro_obs::span::drain(), false);
        }
        t.ok_per_pass = results.iter().filter(|(_, r)| r.is_ok()).count() as u64;
        t.mismatches += results.iter().filter(|(i, r)| *r != reference[*i]).count() as u64;
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
    let per_pass = reference.len();

    // Correctness oracle, outside set-up and timing: every report passes
    // the finite-value gate again, and the set matches the digest.
    let invalid = reference
        .iter()
        .filter(|r| r.as_ref().map_or(true, |rep| rep.validate().is_err()))
        .count();
    if invalid > 0 {
        out.problem(format!("{invalid} analyses failed or did not validate"));
    }
    let got = digest(&reference);
    if got != DIGEST {
        out.problem(format!(
            "report digest {got:#018x} != committed {DIGEST:#018x}"
        ));
    }

    let plain = measure(&inp, &reference, secs, cfg.seed, false, Some(&mut setups));
    let mut all = vec![];
    if cfg.trace {
        let mut traced = measure(&inp, &reference, secs, cfg.seed, true, None);
        out.set(
            "obs.trace_overhead_pct",
            overhead_pct(plain.pass_ref_ns(), traced.pass_ref_ns()),
        );
        traced.core.report(&mut out);
        out.set("core.calls", per_pass as f64);
        out.set("core.ok_share", traced.ok_per_pass as f64 / per_pass as f64);
        all.push(traced);
    } else {
        out.set("setup_s", median_of(&setups.samples));
        out.set("throughput", per_pass as f64 / (plain.pass_ref_ns() / 1e9));
    }
    out.detail("setup_s", json_array(&setups.samples));
    out.detail("digest", format!("\"{got:#018x}\""));
    out.detail("analyses", (plain.pass_ns.len() * per_pass).to_string());
    out.detail("pass_ref_ms", stats::num(plain.pass_ref_ns() / 1e6));
    out.detail(
        "pass_ms_samples",
        json_array(&plain.pass_ns.iter().map(|ns| ns / 1e6).collect::<Vec<_>>()),
    );
    out.detail("kernel_ratio_samples", json_array(&plain.cost));
    all.push(plain);
    for t in &all {
        out.attempted += (t.pass_ns.len() * per_pass) as u64;
        out.failed += t.mismatches;
        if t.mismatches > 0 {
            out.problem(format!(
                "{} analyses differed from the reference",
                t.mismatches
            ));
        }
    }
    out
}
