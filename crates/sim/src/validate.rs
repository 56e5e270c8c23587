//! Model-vs-simulator validation (the role of paper Figure 9).

use crate::engine::{simulate, SimError, SimOptions};
use maestro_core::analyze;
use maestro_dnn::{Layer, Model};
use maestro_hw::Accelerator;
use maestro_ir::Dataflow;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One layer's model-vs-simulator comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// Layer name.
    pub layer: String,
    /// Analytical model runtime (cycles).
    pub model_runtime: f64,
    /// Simulated runtime (cycles).
    pub sim_runtime: f64,
    /// Analytical total L2 traffic (elements).
    pub model_l2: f64,
    /// Simulated total L2 traffic (elements).
    pub sim_l2: f64,
    /// Analytical dense MAC count.
    pub model_macs: f64,
    /// Simulated MAC count (exact).
    pub sim_macs: u64,
    /// Layer's true MAC count.
    pub exact_macs: u64,
    /// Analytical L1 fill traffic (elements).
    pub model_l1_fill: f64,
    /// Simulated L1 fill traffic (elements).
    pub sim_l1_fill: f64,
    /// Analytical PE utilization.
    pub model_utilization: f64,
    /// Simulated PE utilization.
    pub sim_utilization: f64,
}

/// Relative error in percent with a divergence-preserving zero case: when
/// the reference (`sim`) side is zero, a non-zero model value is infinite
/// error, not zero — a zero denominator must never mask disagreement.
pub(crate) fn error_pct(model: f64, sim: f64) -> f64 {
    if sim > 0.0 {
        100.0 * (model - sim).abs() / sim
    } else if model == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

impl ValidationPoint {
    /// Absolute runtime error of the model vs the simulator, in percent.
    pub fn runtime_error_pct(&self) -> f64 {
        error_pct(self.model_runtime, self.sim_runtime)
    }

    /// Absolute L1-fill error of the model vs the simulator, percent.
    pub fn l1_error_pct(&self) -> f64 {
        error_pct(self.model_l1_fill, self.sim_l1_fill)
    }

    /// Absolute L2-traffic error of the model vs the simulator, percent.
    pub fn l2_error_pct(&self) -> f64 {
        error_pct(self.model_l2, self.sim_l2)
    }
}

impl fmt::Display for ValidationPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} model {:>12.0} sim {:>12.0} err {:>6.2}% (L2 err {:>6.2}%)",
            self.layer,
            self.model_runtime,
            self.sim_runtime,
            self.runtime_error_pct(),
            self.l2_error_pct()
        )
    }
}

/// Validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// The simulator failed.
    Sim(SimError),
    /// The analytical model failed.
    Model(maestro_core::AnalysisError),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Sim(e) => write!(f, "simulator: {e}"),
            ValidateError::Model(e) => write!(f, "model: {e}"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Compare model and simulator on one layer.
///
/// # Errors
///
/// Propagates failures of either side.
pub fn validate_layer(
    layer: &Layer,
    dataflow: &Dataflow,
    acc: &Accelerator,
    opts: SimOptions,
) -> Result<ValidationPoint, ValidateError> {
    let model = analyze(layer, dataflow, acc).map_err(ValidateError::Model)?;
    let sim = simulate(layer, dataflow, acc, opts).map_err(ValidateError::Sim)?;
    Ok(ValidationPoint {
        layer: layer.name.clone(),
        model_runtime: model.runtime,
        sim_runtime: sim.cycles,
        model_l2: model.counts.l2_read.total() + model.counts.l2_write.total(),
        sim_l2: sim.counts.l2_read.total() + sim.counts.l2_write.total(),
        model_macs: model.macs_dense,
        sim_macs: sim.macs,
        exact_macs: layer.total_macs(),
        model_l1_fill: model.counts.l1_write.total(),
        sim_l1_fill: sim.counts.l1_write.total(),
        model_utilization: model.utilization,
        sim_utilization: sim.utilization,
    })
}

/// Validate every layer of a network, skipping layers whose schedules
/// exceed the step budget. Layers are simulated on parallel OS threads
/// (the simulator is the expensive side). Returns the per-layer points in
/// network order and the mean absolute runtime error.
pub fn validate_network(
    model: &Model,
    dataflow: &Dataflow,
    acc: &Accelerator,
    opts: SimOptions,
) -> (Vec<ValidationPoint>, f64) {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(model.len().max(1));
    let results: Vec<Option<ValidationPoint>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let layers: Vec<&Layer> = model.iter().skip(t).step_by(threads).collect();
                scope.spawn(move || {
                    layers
                        .into_iter()
                        .map(|layer| validate_layer(layer, dataflow, acc, opts).ok())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let per_thread: Vec<Vec<Option<ValidationPoint>>> = handles
            .into_iter()
            .map(|h| h.join().expect("validation worker"))
            .collect();
        // Re-interleave into network order.
        let mut out: Vec<Option<ValidationPoint>> = vec![None; model.len()];
        for (t, chunk) in per_thread.into_iter().enumerate() {
            for (i, p) in chunk.into_iter().enumerate() {
                out[t + i * threads] = p;
            }
        }
        out
    });
    let points: Vec<ValidationPoint> = results.into_iter().flatten().collect();
    let mean = if points.is_empty() {
        0.0
    } else {
        points
            .iter()
            .map(ValidationPoint::runtime_error_pct)
            .sum::<f64>()
            / points.len() as f64
    };
    (points, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator};
    use maestro_ir::Style;

    /// Regression: a zero simulator-side denominator used to report 0%
    /// error even when the model side was non-zero, silently masking total
    /// divergence. It must read as infinite error (and 0% only when both
    /// sides are zero).
    #[test]
    fn zero_sim_denominator_reports_infinite_error() {
        let mut p = ValidationPoint {
            layer: "z".into(),
            model_runtime: 100.0,
            sim_runtime: 0.0,
            model_l2: 5.0,
            sim_l2: 0.0,
            model_macs: 0.0,
            sim_macs: 0,
            exact_macs: 0,
            model_l1_fill: 1.0,
            sim_l1_fill: 0.0,
            model_utilization: 0.0,
            sim_utilization: 0.0,
        };
        assert_eq!(p.runtime_error_pct(), f64::INFINITY);
        assert_eq!(p.l1_error_pct(), f64::INFINITY);
        assert_eq!(p.l2_error_pct(), f64::INFINITY);
        // Both sides zero: genuinely no disagreement.
        p.model_runtime = 0.0;
        p.model_l1_fill = 0.0;
        p.model_l2 = 0.0;
        assert_eq!(p.runtime_error_pct(), 0.0);
        assert_eq!(p.l1_error_pct(), 0.0);
        assert_eq!(p.l2_error_pct(), 0.0);
    }

    #[test]
    fn model_tracks_simulator_on_small_conv() {
        let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 16, 16, 18, 3));
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let p = validate_layer(&layer, &style.dataflow(), &acc, SimOptions::default())
                .unwrap_or_else(|e| panic!("{style}: {e}"));
            assert_eq!(p.sim_macs, p.exact_macs, "{style}");
            assert!(
                p.l1_error_pct() < 40.0,
                "{style}: L1 {:.1}%",
                p.l1_error_pct()
            );
            assert!(
                (p.model_utilization - p.sim_utilization).abs() < 0.25,
                "{style}: util {} vs {}",
                p.model_utilization,
                p.sim_utilization
            );
            assert!(
                p.runtime_error_pct() < 35.0,
                "{style}: model {} vs sim {} ({:.1}%)",
                p.model_runtime,
                p.sim_runtime,
                p.runtime_error_pct()
            );
        }
    }
}
