//! MAESTRO: an analytical cost model for DNN dataflows.
//!
//! Given a DNN layer ([`maestro_dnn::Layer`]), a data-centric dataflow
//! description ([`maestro_ir::Dataflow`]) and a hardware configuration
//! ([`maestro_hw::Accelerator`]), [`analyze`] estimates runtime, activity
//! counts (and therefore energy), buffer requirements, NoC bandwidth
//! demand, PE utilization and per-tensor reuse factors — the outputs of the
//! paper's five analysis engines (tensor, cluster, reuse, performance and
//! cost analysis; §4, Figures 7–8).
//!
//! # Example
//!
//! ```
//! use maestro_core::analyze;
//! use maestro_dnn::{Layer, LayerDims, Operator, TensorKind};
//! use maestro_hw::{Accelerator, EnergyModel};
//! use maestro_ir::Style;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layer = Layer::new("conv", Operator::conv2d(), LayerDims::square(1, 64, 64, 58, 3));
//! let acc = Accelerator::builder(256).build();
//! let report = analyze(&layer, &Style::KCP.dataflow(), &acc)?;
//! println!("runtime: {} cycles", report.runtime);
//! println!("energy:  {}", report.energy(&EnergyModel::normalized()));
//! println!("filter reuse: {:.1}x", report.reuse_factor(TensorKind::Weight));
//! # Ok(())
//! # }
//! ```

// Library code is panic-free by policy: fallible paths return
// `AnalysisError` instead of unwrapping. Tests are exempt (the attribute
// is compiled out under `cfg(test)`).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stderr,
        clippy::exit
    )
)]

pub mod analysis;
pub mod counts;
pub mod engine;
pub mod explain;
pub mod footprint;
pub mod level;
pub mod lint;
pub mod lru;
pub mod memo;
pub mod report;
pub mod reuse;
pub mod stages;

pub use analysis::{analyze, analyze_model, analyze_model_with, AnalysisError};
pub use counts::{ActivityCounts, EnergyBreakdown, PerTensor};
pub use engine::{LevelPerf, LevelResult, LevelStatic};
pub use explain::{explain, Explanation, Observation};
pub use level::{LevelCtx, OutputSpatial};
pub use lint::{lint, Lint};
pub use memo::{Analyzer, CacheCounts, ShapeKey, DEFAULT_CACHE_CAP};
pub use report::{LayerReport, ModelReport, Priced};
pub use reuse::{opportunity_table, spatial_opportunity, temporal_opportunity, ReuseForm};
pub use stages::StagedAnalysis;
