//! Shared fixtures for the figure/table regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates its rows/series with this workspace's
//! implementation (see DESIGN.md's per-experiment index); absolute numbers
//! come from our synthetic 28 nm calibration, so the *shapes* — who wins,
//! by what factor, where the crossovers are — are the reproduction target.
//!
//! Speed is measured elsewhere. The repository benchmark, `perfbench/`,
//! times the Fig 13 sweeps, zoo analysis and the daemon, and reports
//! each row as a median and IQR over seeded runs with a host
//! fingerprint. The one bench target here, `obs_overhead`, is a guard:
//! it fails when disabled instrumentation reaches 2% of a sweep.

use maestro_dnn::{zoo, Layer, Model};
use maestro_hw::Accelerator;

/// The 256-PE / 32 GB/s configuration of the Figure 10–12 case studies.
pub fn case_study_acc() -> Accelerator {
    Accelerator::paper_case_study()
}

/// The five evaluation models of Figure 10 (batch 1).
pub fn figure10_models() -> Vec<Model> {
    zoo::figure10_models(1)
}

/// The four representative operators of Figure 11:
/// (label, model, layer name).
pub fn figure11_operators() -> Vec<(&'static str, Model, String)> {
    vec![
        ("Early layer", zoo::resnet50(1), "CONV1".to_string()),
        ("Late layer", zoo::vgg16(1), "CONV13".to_string()),
        ("Depth-wise", zoo::mobilenet_v2(1), "BN2_1_dw".to_string()),
        (
            "Point-wise",
            zoo::mobilenet_v2(1),
            "BN2_1_expand".to_string(),
        ),
    ]
}

/// Fetch a layer from a model or panic with a clear message (fixture use).
pub fn layer<'m>(model: &'m Model, name: &str) -> &'m Layer {
    model
        .layer(name)
        .unwrap_or_else(|| panic!("{} has no layer {name}", model.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_resolve() {
        assert_eq!(figure10_models().len(), 5);
        for (label, m, l) in figure11_operators() {
            assert!(m.layer(&l).is_some(), "{label}: {l}");
        }
        let vgg = zoo::vgg16(1);
        let _ = layer(&vgg, "CONV2");
    }
}
