//! Dataflow auto-tuning (the paper's stated future work, §7: "a dataflow
//! auto-tuner to find an optimal dataflow on the specified DNN model and
//! hardware configuration").
//!
//! For a fixed hardware configuration the tuner searches the mapping
//! space — the five Table 3 styles and their tile-size variants — per
//! layer, under a selectable objective, and reports the per-layer winners
//! together with the improvement over the best fixed dataflow.

use crate::variants::variants;
use maestro_core::{analyze, LayerReport};
use maestro_dnn::{Layer, Model};
use maestro_hw::{Accelerator, EnergyModel};
use maestro_ir::{Dataflow, Style};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The tuning objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize runtime (cycles).
    Runtime,
    /// Minimize energy under the given table.
    Energy(EnergyModel),
    /// Minimize energy-delay product.
    Edp(EnergyModel),
}

impl Objective {
    /// The scalar score of a report (lower is better).
    pub fn score(&self, report: &LayerReport) -> f64 {
        match self {
            Objective::Runtime => report.runtime,
            Objective::Energy(em) => report.energy(em),
            Objective::Edp(em) => report.edp(em),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Runtime => write!(f, "runtime"),
            Objective::Energy(_) => write!(f, "energy"),
            Objective::Edp(_) => write!(f, "EDP"),
        }
    }
}

/// One layer's tuning outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunedLayer {
    /// Layer name.
    pub layer: String,
    /// Winning dataflow.
    pub dataflow: Dataflow,
    /// The winning analysis report.
    pub report: LayerReport,
    /// Candidates evaluated (mappable ones).
    pub evaluated: usize,
}

/// A whole-model tuning outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunedModel {
    /// Model name.
    pub model: String,
    /// Per-layer winners, in network order.
    pub layers: Vec<TunedLayer>,
}

impl TunedModel {
    /// End-to-end runtime of the tuned schedule.
    pub fn runtime(&self) -> f64 {
        self.layers.iter().map(|l| l.report.runtime).sum()
    }

    /// Total energy of the tuned schedule.
    pub fn energy(&self, em: &EnergyModel) -> f64 {
        self.layers.iter().map(|l| l.report.energy(em)).sum()
    }

    /// How many distinct dataflow names the tuned schedule uses.
    pub fn distinct_dataflows(&self) -> usize {
        let mut names: Vec<&str> = self.layers.iter().map(|l| l.dataflow.name()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }
}

/// The default candidate set: every Table 3 style plus its tile-size
/// variants.
pub fn default_candidates() -> Vec<Dataflow> {
    let mut out = Vec::new();
    for style in Style::ALL {
        out.push(style.dataflow());
        out.extend(variants(style));
    }
    // Variant generators may reproduce the canonical form; dedup by name.
    out.sort_by(|a, b| a.name().cmp(b.name()));
    out.dedup_by(|a, b| a.name() == b.name());
    out
}

/// Tune one layer: evaluate every mappable candidate and keep the best.
///
/// Returns `None` when no candidate can be mapped (e.g. zero PEs is
/// rejected earlier by construction, so in practice this means every
/// candidate's cluster size exceeded the PE count).
pub fn tune_layer(
    layer: &Layer,
    acc: &Accelerator,
    objective: Objective,
    candidates: &[Dataflow],
) -> Option<TunedLayer> {
    let mut best: Option<(f64, &Dataflow, LayerReport)> = None;
    let mut evaluated = 0usize;
    for df in candidates {
        let Ok(report) = analyze(layer, df, acc) else {
            continue;
        };
        evaluated += 1;
        let score = objective.score(&report);
        let better = best.as_ref().is_none_or(|(s, _, _)| score < *s);
        if better {
            best = Some((score, df, report));
        }
    }
    best.map(|(_, df, report)| TunedLayer {
        layer: layer.name.clone(),
        dataflow: df.clone(),
        report,
        evaluated,
    })
}

/// A layer that no candidate dataflow maps onto the accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unmappable {
    /// The layer's name.
    pub layer: String,
}

impl fmt::Display for Unmappable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no candidate dataflow maps layer {} onto the accelerator",
            self.layer
        )
    }
}

impl std::error::Error for Unmappable {}

/// Tune every layer of a model with the default candidate set.
///
/// # Errors
///
/// [`Unmappable`] naming the first layer no candidate maps (the default
/// set always contains single-level dataflows that map on ≥ 1 PE, so on
/// a real accelerator this indicates an invalid layer).
pub fn tune_model(
    model: &Model,
    acc: &Accelerator,
    objective: Objective,
) -> Result<TunedModel, Unmappable> {
    let candidates = default_candidates();
    let layers = model
        .iter()
        .map(|l| {
            tune_layer(l, acc, objective, &candidates).ok_or_else(|| Unmappable {
                layer: l.name.clone(),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(TunedModel {
        model: model.name.clone(),
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::zoo;

    #[test]
    fn tuned_beats_every_fixed_style() {
        let model = zoo::alexnet(1);
        let acc = Accelerator::builder(128).build();
        let tuned = tune_model(&model, &acc, Objective::Runtime).expect("every layer maps");
        for style in Style::ALL {
            let mut fixed = 0.0f64;
            for layer in model.iter() {
                let df = style.dataflow();
                let r = analyze(layer, &df, &acc)
                    .or_else(|_| analyze(layer, &Style::XP.dataflow(), &acc));
                fixed += r.expect("fallback maps").runtime;
            }
            assert!(
                tuned.runtime() <= fixed * 1.0001,
                "{style}: tuned {} vs fixed {fixed}",
                tuned.runtime()
            );
        }
    }

    #[test]
    fn tile_variants_beat_canonical_styles_somewhere() {
        // The tuner's value-add over per-style adaptivity: tile variants.
        let model = zoo::vgg16(1);
        let acc = Accelerator::paper_case_study();
        let tuned = tune_model(&model, &acc, Objective::Runtime).expect("every layer maps");
        let uses_variant = tuned.layers.iter().any(|l| l.dataflow.name().contains('['));
        assert!(uses_variant, "expected some tile-size variant to win");
    }

    #[test]
    fn objectives_disagree() {
        let model = zoo::vgg16(1);
        let layer = model.layer("CONV11").expect("zoo layer");
        let acc = Accelerator::paper_case_study();
        let cands = default_candidates();
        let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
        let by_rt = tune_layer(layer, &acc, Objective::Runtime, &cands).unwrap();
        let by_en = tune_layer(layer, &acc, Objective::Energy(em), &cands).unwrap();
        assert!(by_rt.report.runtime <= by_en.report.runtime);
        assert!(by_en.report.energy(&em) <= by_rt.report.energy(&em));
    }

    #[test]
    fn candidate_set_is_deduplicated_and_substantial() {
        let c = default_candidates();
        assert!(c.len() >= 30, "{}", c.len());
        let mut names: Vec<_> = c.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn tuned_model_reports_diversity() {
        let model = zoo::mobilenet_v2(1);
        let acc = Accelerator::paper_case_study();
        let tuned = tune_model(&model, &acc, Objective::Runtime).expect("every layer maps");
        assert!(
            tuned.distinct_dataflows() >= 2,
            "MobileNet mixes operator types"
        );
        assert!(tuned.layers.iter().all(|l| l.evaluated > 0));
    }
}
