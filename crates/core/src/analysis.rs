//! Public entry points: analyze a layer or a whole model.

use crate::report::{LayerReport, ModelReport};
use crate::stages::StagedAnalysis;
use maestro_dnn::layer::LayerError;
use maestro_dnn::{Layer, Model};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, ResolveError};
use maestro_obs::CancelToken;
use std::fmt;

/// Errors produced by the analysis entry points.
///
/// The library is panic-free by policy: conditions that would previously
/// abort the process (violated internal invariants, non-finite arithmetic,
/// degenerate resolutions) are reported through the [`Internal`],
/// [`NonFinite`] and [`EmptyResolution`] variants instead, so a sweep can
/// drop the offending configuration and continue.
///
/// [`Internal`]: AnalysisError::Internal
/// [`NonFinite`]: AnalysisError::NonFinite
/// [`EmptyResolution`]: AnalysisError::EmptyResolution
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The layer description is invalid.
    Layer(LayerError),
    /// The dataflow cannot be bound to the layer/accelerator.
    Resolve(ResolveError),
    /// An internal invariant of the cost model was violated. This indicates
    /// a bug in the analysis, reported as an error instead of a panic so
    /// callers can quarantine the configuration.
    Internal(&'static str),
    /// The analysis produced a NaN or infinite value in the named report
    /// field (e.g. from a non-finite density input).
    NonFinite {
        /// The report field that failed the finite-value gate.
        field: &'static str,
    },
    /// Resolution produced no cluster levels, so there is nothing to
    /// analyze.
    EmptyResolution,
    /// A cooperative cancellation token tripped (deadline, signal, or
    /// explicit cancel) before the analysis completed. Only
    /// [`Analyzer::analyze`](crate::Analyzer::analyze) with a token
    /// produces this; plain calls run to completion.
    Cancelled,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Layer(e) => write!(f, "invalid layer: {e}"),
            AnalysisError::Resolve(e) => write!(f, "cannot resolve dataflow: {e}"),
            AnalysisError::Internal(what) => {
                write!(f, "internal invariant violated: {what}")
            }
            AnalysisError::NonFinite { field } => {
                write!(f, "analysis produced a non-finite value in `{field}`")
            }
            AnalysisError::EmptyResolution => {
                write!(f, "resolution produced no cluster levels")
            }
            AnalysisError::Cancelled => {
                write!(f, "analysis cancelled (deadline or interrupt)")
            }
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Layer(e) => Some(e),
            AnalysisError::Resolve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LayerError> for AnalysisError {
    fn from(e: LayerError) -> Self {
        AnalysisError::Layer(e)
    }
}

impl From<ResolveError> for AnalysisError {
    fn from(e: ResolveError) -> Self {
        AnalysisError::Resolve(e)
    }
}

/// Analyze one layer under `dataflow` on `acc`.
///
/// # Errors
///
/// Returns [`AnalysisError`] when the layer is invalid or the dataflow
/// cannot be resolved for this layer/PE combination.
///
/// ```
/// use maestro_core::analyze;
/// use maestro_dnn::{Layer, LayerDims, Operator};
/// use maestro_hw::Accelerator;
/// use maestro_ir::Style;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 16, 16, 18, 3));
/// let acc = Accelerator::builder(64).build();
/// let report = analyze(&layer, &Style::KCP.dataflow(), &acc)?;
/// assert!(report.runtime > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn analyze(
    layer: &Layer,
    dataflow: &Dataflow,
    acc: &Accelerator,
) -> Result<LayerReport, AnalysisError> {
    analyze_at(layer, dataflow, acc, None)
}

/// [`analyze`], polling `cancel` before the expensive stages and again
/// before pricing. The staged pipeline *is* the implementation: build the
/// NoC-independent stages, then price them under `acc.noc`, so staged and
/// fused evaluation cannot drift.
pub(crate) fn analyze_at(
    layer: &Layer,
    dataflow: &Dataflow,
    acc: &Accelerator,
    cancel: Option<&CancelToken>,
) -> Result<LayerReport, AnalysisError> {
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    if cancelled() {
        return Err(AnalysisError::Cancelled);
    }
    let _span = maestro_obs::span::span("maestro.analysis.analyze");
    let staged = StagedAnalysis::build(layer, dataflow, acc)?;
    if cancelled() {
        return Err(AnalysisError::Cancelled);
    }
    staged.finish(acc.noc.bandwidth, acc.noc.avg_latency)
}

/// Analyze every layer of `model` under a per-layer dataflow choice.
///
/// # Errors
///
/// Fails on the first layer that cannot be analyzed.
pub fn analyze_model_with(
    model: &Model,
    acc: &Accelerator,
    mut choose: impl FnMut(&Layer) -> Dataflow,
) -> Result<ModelReport, AnalysisError> {
    let mut layers = Vec::with_capacity(model.len());
    for layer in model.iter() {
        layers.push(analyze(layer, &choose(layer), acc)?);
    }
    Ok(ModelReport {
        model: model.name.clone(),
        layers,
    })
}

/// Analyze every layer of `model` under one fixed dataflow.
///
/// # Errors
///
/// Fails on the first layer that cannot be analyzed.
pub fn analyze_model(
    model: &Model,
    dataflow: &Dataflow,
    acc: &Accelerator,
) -> Result<ModelReport, AnalysisError> {
    analyze_model_with(model, acc, |_| dataflow.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{zoo, LayerDims, Operator};
    use maestro_ir::Style;

    #[test]
    fn analyze_rejects_invalid_layers() {
        let layer = Layer::new("bad", Operator::conv2d(), LayerDims::square(1, 0, 3, 8, 3));
        let acc = Accelerator::builder(16).build();
        let err = analyze(&layer, &Style::KCP.dataflow(), &acc).unwrap_err();
        assert!(matches!(err, AnalysisError::Layer(_)));
        assert!(err.to_string().contains("invalid layer"));
    }

    #[test]
    fn analyze_model_sums_layers() {
        let model = zoo::alexnet(1);
        let acc = Accelerator::builder(64).build();
        let report = analyze_model(&model, &Style::KCP.dataflow(), &acc).unwrap();
        assert_eq!(report.layers.len(), model.len());
        assert!(report.runtime() > 0.0);
        let sum: f64 = report.layers.iter().map(|l| l.runtime).sum();
        assert!((report.runtime() - sum).abs() < 1e-6);
    }

    #[test]
    fn adaptive_choice_is_at_least_as_good_as_fixed() {
        let model = zoo::alexnet(1);
        let acc = Accelerator::builder(64).build();
        // Adaptive: per layer, pick the best of the five styles by runtime.
        let adaptive = analyze_model_with(&model, &acc, |layer| {
            Style::ALL
                .iter()
                .map(|s| s.dataflow())
                .min_by(|a, b| {
                    let ra = analyze(layer, a, &acc)
                        .map(|r| r.runtime)
                        .unwrap_or(f64::MAX);
                    let rb = analyze(layer, b, &acc)
                        .map(|r| r.runtime)
                        .unwrap_or(f64::MAX);
                    ra.total_cmp(&rb)
                })
                .expect("non-empty styles")
        })
        .unwrap();
        for style in Style::ALL {
            let fixed = analyze_model(&model, &style.dataflow(), &acc).unwrap();
            assert!(
                adaptive.runtime() <= fixed.runtime() * 1.0001,
                "adaptive {} vs {style} {}",
                adaptive.runtime(),
                fixed.runtime()
            );
        }
    }

    #[test]
    fn utilization_is_a_fraction() {
        let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 16, 16, 18, 3));
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let r = analyze(&layer, &style.dataflow(), &acc).unwrap();
            assert!(
                (0.0..=1.0).contains(&r.utilization),
                "{style}: {}",
                r.utilization
            );
        }
    }
}
