//! Human-readable reuse explanations of a dataflow (the prose of the
//! paper's Figure 5 and §3.3, generated automatically).
//!
//! For each cluster level, the explanation lists which tensors are
//! spatially multicast or reduced across the level's units, which are
//! temporally stationary across the innermost loop, and which enjoy
//! partial (halo) reuse — the structured reasoning the paper argues the
//! data-centric representation enables.

use crate::engine::depends;
use crate::level::{bind, LevelCtx, OutputSpatial};
use maestro_dnn::{Coupling, Layer, TensorKind};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, ResolveError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One reuse observation at one cluster level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Observation {
    /// The tensor is identical across the level's units.
    SpatialMulticast(TensorKind),
    /// Adjacent units' footprints overlap (halo) without being identical.
    SpatialHalo(TensorKind),
    /// Units contribute partial sums to shared outputs.
    SpatialReduction,
    /// The tensor is unchanged across the innermost temporal loop
    /// (stationary / temporally multicast).
    TemporalStationary(TensorKind),
    /// Outputs accumulate in place across the innermost temporal loop.
    TemporalReduction,
    /// Consecutive steps' footprints overlap partially (window halo).
    TemporalHalo(TensorKind),
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::SpatialMulticast(k) => write!(f, "spatial multicast of {k}s"),
            Observation::SpatialHalo(k) => write!(f, "spatial halo sharing of {k}s"),
            Observation::SpatialReduction => write!(f, "spatial reduction of Outputs"),
            Observation::TemporalStationary(k) => {
                write!(f, "temporal multicast of {k}s ({k}-stationary)")
            }
            Observation::TemporalReduction => {
                write!(f, "temporal reduction of Outputs (output-stationary)")
            }
            Observation::TemporalHalo(k) => write!(f, "partial temporal reuse of {k}s (halo)"),
        }
    }
}

/// The explanation of one cluster level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelExplanation {
    /// Level index (0 = outermost).
    pub level: usize,
    /// Sub-units of the level.
    pub units: u64,
    /// Observations, in presentation order.
    pub observations: Vec<Observation>,
}

/// A full dataflow explanation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Dataflow name.
    pub dataflow: String,
    /// Per-level findings.
    pub levels: Vec<LevelExplanation>,
}

impl Explanation {
    /// `true` if any level exhibits the observation.
    pub fn has(&self, obs: Observation) -> bool {
        self.levels.iter().any(|l| l.observations.contains(&obs))
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.dataflow)?;
        for l in &self.levels {
            writeln!(f, "  level {} ({} units):", l.level, l.units)?;
            for o in &l.observations {
                writeln!(f, "    - {o}")?;
            }
        }
        Ok(())
    }
}

/// Explain the reuse behavior of `dataflow` on `layer` over `acc`.
///
/// # Errors
///
/// Fails when the dataflow cannot be resolved for this layer/PE count.
pub fn explain(
    layer: &Layer,
    dataflow: &Dataflow,
    acc: &Accelerator,
) -> Result<Explanation, ResolveError> {
    let coupling = layer.coupling();
    let (_, ctxs) = bind(layer, dataflow, acc.num_pes)?;
    let levels = ctxs
        .iter()
        .enumerate()
        .map(|(li, ctx)| LevelExplanation {
            level: li,
            units: ctx.num_units,
            observations: observe(ctx, &coupling),
        })
        .collect();
    Ok(Explanation {
        dataflow: dataflow.name().to_string(),
        levels,
    })
}

fn observe(ctx: &LevelCtx, coupling: &Coupling) -> Vec<Observation> {
    let mut out = Vec::new();
    // Spatial reuse.
    if ctx.active_units > 1 {
        for k in [TensorKind::Input, TensorKind::Weight] {
            if !ctx.varies_spatially(coupling, k) {
                out.push(Observation::SpatialMulticast(k));
            } else if ctx.spatial_sharing_ratio(coupling, k) < 0.999 {
                out.push(Observation::SpatialHalo(k));
            }
        }
        if ctx.output_spatial == OutputSpatial::Reduced {
            out.push(Observation::SpatialReduction);
        }
    }
    // Temporal reuse across the innermost loop.
    if let Some(innermost) = ctx.loops.last() {
        let changed: Vec<_> = innermost.dims.iter().map(|(d, _)| *d).collect();
        let stationary = |k: TensorKind| changed.iter().all(|&d| !depends(coupling, k, d));
        for k in [TensorKind::Input, TensorKind::Weight] {
            if stationary(k) {
                out.push(Observation::TemporalStationary(k));
            } else {
                // Partial overlap across consecutive steps?
                let partial = changed.iter().any(|&d| {
                    let adv = innermost
                        .dims
                        .iter()
                        .find(|(ld, _)| *ld == d)
                        .map(|(_, a)| *a)
                        .unwrap_or(1);
                    let f = ctx.views.fp_factor(coupling, k, d);
                    let ov = ctx.views.overlap_factor(coupling, k, d, adv);
                    ov > 0 && ov < f
                });
                if partial {
                    out.push(Observation::TemporalHalo(k));
                }
            }
        }
        if stationary(TensorKind::Output) {
            out.push(Observation::TemporalReduction);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator};
    use maestro_ir::styles;

    fn conv1d() -> Layer {
        Layer::new(
            "1d",
            Operator::conv2d(),
            LayerDims {
                n: 1,
                k: 1,
                c: 1,
                y: 1,
                x: 8,
                r: 1,
                s: 3,
                stride_y: 1,
                stride_x: 1,
            },
        )
    }

    /// The Figure 5 playground claims, checked per dataflow.
    #[test]
    fn figure5_claims() {
        let layer = conv1d();
        let ex = |id: char, pes: u64| {
            explain(
                &layer,
                &styles::playground(id).expect("playground id"),
                &Accelerator::builder(pes).build(),
            )
            .expect("resolves")
        };
        // (A) output-stationary: spatial multicast of weights + temporal
        // reduction of outputs.
        let a = ex('A', 3);
        assert!(
            a.has(Observation::SpatialMulticast(TensorKind::Weight)),
            "{a}"
        );
        assert!(a.has(Observation::TemporalReduction), "{a}");
        // (B) weight-stationary: weights survive the X' sweep.
        let b = ex('B', 3);
        assert!(
            b.has(Observation::TemporalStationary(TensorKind::Weight)),
            "{b}"
        );
        // (C) collaborative output-stationary: spatial reduction.
        let c = ex('C', 3);
        assert!(c.has(Observation::SpatialReduction), "{c}");
        // (D) collaborative weight-stationary: spatial reduction + weights
        // stationary (S never advances temporally).
        let d = ex('D', 3);
        assert!(d.has(Observation::SpatialReduction), "{d}");
        assert!(
            d.has(Observation::TemporalStationary(TensorKind::Weight)),
            "{d}"
        );
        // (E) tiled collaborative WS: partial temporal reuse of inputs.
        let e = ex('E', 3);
        assert!(e.has(Observation::TemporalHalo(TensorKind::Input)), "{e}");
        assert!(e.has(Observation::SpatialReduction), "{e}");
        // (F) clustered: weights stationary, spatial reduction within
        // clusters.
        let f = ex('F', 6);
        assert!(f.has(Observation::SpatialReduction), "{f}");
    }

    #[test]
    fn row_stationary_explanation() {
        let layer = Layer::new("fig1", Operator::conv2d(), LayerDims::square(2, 4, 6, 8, 3));
        let acc = Accelerator::builder(6).build();
        let e = explain(&layer, &styles::figure6_row_stationary(), &acc).unwrap();
        assert_eq!(e.levels.len(), 2);
        // The inner (cluster) level spatially reduces outputs — the
        // row-stationary diagonal accumulation.
        assert!(e.levels[1]
            .observations
            .contains(&Observation::SpatialReduction));
        // Weights are stationary across the X sweep.
        assert!(
            e.has(Observation::TemporalStationary(TensorKind::Weight)),
            "{e}"
        );
        let text = e.to_string();
        assert!(text.contains("spatial reduction"), "{text}");
    }

    #[test]
    fn observation_display() {
        assert_eq!(
            Observation::SpatialMulticast(TensorKind::Input).to_string(),
            "spatial multicast of Inputs"
        );
        assert_eq!(
            Observation::TemporalReduction.to_string(),
            "temporal reduction of Outputs (output-stationary)"
        );
    }
}
