//! The paper's tables and figures, regenerated.
//!
//! Every table and figure of the paper's evaluation is a function here
//! that writes its rows/series, computed with this workspace's
//! implementation, to a [`std::io::Write`] (see DESIGN.md's
//! per-experiment index); `maestro figures <name>` runs one. Absolute
//! numbers come from our synthetic 28 nm calibration, so the *shapes* —
//! who wins, by what factor, where the crossovers are — are the
//! reproduction target.
//!
//! Speed is measured elsewhere. The repository benchmark, `perfbench/`,
//! times the Fig 13 sweeps, zoo analysis and the daemon, and reports
//! each row as a median and IQR over seeded runs with a host
//! fingerprint. The one bench target here, `obs_overhead`, is a guard:
//! it fails when disabled instrumentation reaches 2% of a sweep.

mod figures;
mod tables;

pub use figures::{dse_model, fig10, fig11, fig12, fig13, fig5, fig6, fig9, scale, sweep};
pub use tables::{table1, table2, table3, table4, table5};

use maestro_dnn::{zoo, Layer, Model};

/// The four representative operators of Figure 11:
/// (label, model, layer name).
fn figure11_operators() -> Vec<(&'static str, Model, String)> {
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
fn layer<'m>(model: &'m Model, name: &str) -> &'m Layer {
    model
        .layer(name)
        .unwrap_or_else(|| panic!("{} has no layer {name}", model.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_resolve() {
        assert_eq!(zoo::figure10_models(1).len(), 5);
        for (label, m, l) in figure11_operators() {
            assert!(m.layer(&l).is_some(), "{label}: {l}");
        }
        let vgg = zoo::vgg16(1);
        let _ = layer(&vgg, "CONV2");
    }
}
