//! Staged-vs-fused equivalence suite for the analysis pipeline.
//!
//! The staged evaluator ([`StagedAnalysis`]) splits `analyze()` into
//! NoC-independent stages plus a cheap per-bandwidth performance stage, so
//! a DSE sweep can share the expensive stages across its whole bandwidth
//! axis. The contract is **bit-identity**: `build(...).finish(bw, lat)`
//! must equal the fused `analyze()` under an accelerator with that NoC —
//! not approximately, but field-for-field on the full [`LayerReport`]
//! (`assert_eq!`, no tolerances).
//!
//! Two layers of evidence:
//! - deterministic goldens over the model zoo × all five Table-3 styles ×
//!   a NoC grid, and
//! - a property test: build the stages at one *random* bandwidth/latency,
//!   then re-price at another random one — a single-axis grid delta — and
//!   compare with a from-scratch fused analysis at the target NoC.

use maestro_core::{analyze, StagedAnalysis};
use maestro_dnn::{zoo, Layer, LayerDims, Operator};
use maestro_hw::{Accelerator, NocConfig};
use maestro_ir::Style;
use proptest::prelude::*;

fn acc(pes: u64, bw: u64, lat: u64) -> Accelerator {
    Accelerator::builder(pes)
        .noc(NocConfig::new(bw, lat))
        .build()
}

/// Every zoo model's first/mid/last layers × all five styles × a small NoC
/// grid: the staged pipeline built once per (layer, style, PE count) and
/// re-priced per NoC must reproduce the fused report exactly.
#[test]
fn staged_matches_fused_across_zoo_and_styles() {
    let models = [
        zoo::vgg16(1),
        zoo::alexnet(1),
        zoo::resnet50(1),
        zoo::mobilenet_v2(1),
    ];
    let mut compared = 0u64;
    for model in &models {
        let n = model.len();
        // First, middle, last: depthwise/pointwise/strided variety without
        // running every layer of every model on every commit.
        let picks = [0, n / 2, n - 1];
        for &i in &picks {
            let layer = match model.iter().nth(i) {
                Some(l) => l,
                None => continue,
            };
            for style in Style::ALL {
                let df = style.dataflow();
                let built = StagedAnalysis::build(layer, &df, &acc(64, 32, 2));
                for (bw, lat) in [(1, 0), (8, 2), (32, 2), (256, 8)] {
                    let a = acc(64, bw, lat);
                    let fused = analyze(layer, &df, &a);
                    let staged = match &built {
                        Ok(s) => s.clone().finish(bw, lat),
                        Err(e) => Err(e.clone()),
                    };
                    assert_eq!(
                        fused, staged,
                        "{}/{} {style} bw={bw} lat={lat}",
                        model.name, layer.name
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared >= 200, "suite shrank: only {compared} comparisons");
}

/// PE-count deltas share nothing NoC-related: rebuilding the stages per PE
/// count and finishing at a fixed NoC still matches fused analysis.
#[test]
fn staged_matches_fused_across_pe_counts() {
    let model = zoo::alexnet(1);
    for layer in model.iter() {
        for pes in [16, 64, 256, 1024] {
            for style in Style::ALL {
                let a = acc(pes, 16, 2);
                let df = style.dataflow();
                let fused = analyze(layer, &df, &a);
                let staged = StagedAnalysis::build(layer, &df, &a)
                    .and_then(|s| s.finish(a.noc.bandwidth, a.noc.avg_latency));
                assert_eq!(fused, staged, "{} {style} pes={pes}", layer.name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random conv shapes, random style, and a random single-axis NoC
    /// delta: stages built under `(bw_a, lat_a)` then re-priced at
    /// `(bw_b, lat_b)` are bit-identical to a fused analysis at
    /// `(bw_b, lat_b)`. This is exactly the explorer's delta-evaluation
    /// step (the build context's own NoC must be irrelevant to `finish`).
    #[test]
    fn random_noc_delta_matches_from_scratch(
        shape in (1u64..40, 1u64..24, 1u64..20, 1u64..20, 1u64..4, 1u64..3),
        hw in (0usize..5, 0usize..5),
        noc in (1u64..300, 0u64..10, 1u64..300, 0u64..10),
    ) {
        let (k, c, y, x, r, stride) = shape;
        let (style_idx, pes_idx) = hw;
        let (bw_a, lat_a, bw_b, lat_b) = noc;
        let r = r.min(y).min(x);
        let layer = Layer::new(
            "p",
            Operator::conv2d(),
            LayerDims { n: 1, k, c, y, x, r, s: r, stride_y: stride, stride_x: stride },
        );
        let style = Style::ALL[style_idx];
        let pes = [8u64, 32, 64, 200, 512][pes_idx];
        let df = style.dataflow();

        let built = StagedAnalysis::build(&layer, &df, &acc(pes, bw_a, lat_a));
        let staged = match &built {
            Ok(s) => s.clone().finish(bw_b, lat_b),
            Err(e) => Err(e.clone()),
        };
        let fused = analyze(&layer, &df, &acc(pes, bw_b, lat_b));
        prop_assert_eq!(
            fused, staged,
            "{} pes={} ({},{}) -> ({},{})",
            style, pes, bw_a, lat_a, bw_b, lat_b
        );
    }
}
