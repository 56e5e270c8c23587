//! Bit-level pin of the analysis pipeline over the Figure 10 zoo.
//!
//! Every layer of ResNet-50, VGG16, ResNeXt-50, MobileNetV2 and UNet runs
//! under each of the five Table 3 dataflows on the 256-PE case-study
//! accelerator, in model × layer × `Style::ALL` order. The `Debug` text of
//! each result (the report, or the error's text) is folded into one FNV-1a
//! digest, so any change to any bit of any field fails the test.
//!
//! A second digest covers `StagedAnalysis::build(..)` priced at NoC
//! bandwidths 1 and 64 (latency 1): the case-study NoC is wide enough that
//! `max()` against the compute delay hides many transition entries, and a
//! one-element pipe exposes them.

use maestro_core::{analyze, StagedAnalysis};
use maestro_dnn::{zoo, Layer};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, Style};
use std::fmt::Debug;

const MODELS: [&str; 5] = ["resnet50", "vgg16", "resnext50", "mobilenet_v2", "unet"];

/// Digest of every `analyze` result.
const ANALYZE_DIGEST: u64 = 0xb2f7_110f_d098_048e;

/// Digest of every build priced at bandwidth 1 and 64.
const PRICED_DIGEST: u64 = 0xf2ad_cc11_92b6_d6b7;

/// FNV-1a over `text`, continuing from `h`; a newline ends each record.
fn fnv1a(h: u64, text: &str) -> u64 {
    text.bytes()
        .chain(std::iter::once(b'\n'))
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn text<T: Debug, E: std::fmt::Display>(r: &Result<T, E>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(e) => e.to_string(),
    }
}

/// (layer, dataflow) pairs in model × layer × style order.
fn pairs() -> Vec<(Layer, Dataflow)> {
    let dataflows: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
    MODELS
        .iter()
        .flat_map(|name| {
            let model = zoo::by_name(name, 1).expect("Figure 10 model in the zoo");
            model.iter().cloned().collect::<Vec<_>>()
        })
        .flat_map(|layer| {
            dataflows
                .iter()
                .map(move |df| (layer.clone(), df.clone()))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn zoo_analyze_results_match_the_pinned_digest() {
    let acc = Accelerator::paper_case_study();
    let pairs = pairs();
    assert_eq!(pairs.len(), 1210, "the zoo changed shape");
    let digest = pairs.iter().fold(FNV_OFFSET, |h, (layer, df)| {
        fnv1a(h, &text(&analyze(layer, df, &acc)))
    });
    assert_eq!(digest, ANALYZE_DIGEST, "analyze digest {digest:#018x}");
}

#[test]
fn zoo_priced_builds_match_the_pinned_digest() {
    let acc = Accelerator::paper_case_study();
    let digest = pairs().iter().fold(FNV_OFFSET, |h, (layer, df)| {
        let built = StagedAnalysis::build(layer, df, &acc);
        [1, 64].iter().fold(h, |h, &bw| {
            let priced = built
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|s| s.price(bw, 1));
            fnv1a(h, &text(&priced))
        })
    });
    assert_eq!(digest, PRICED_DIGEST, "priced digest {digest:#018x}");
}
