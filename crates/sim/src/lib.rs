//! A step-driven reference simulator for dataflow accelerators.
//!
//! The paper validates MAESTRO against RTL simulations of MAERI and
//! Eyeriss (Figure 9). Without those testbeds, this crate provides the
//! closest open substitute: an execution-driven simulator that walks every
//! time step of the flattened schedule, maintaining exact per-PE resident
//! data intervals and the real odometer state. The analytical model and
//! the simulator share the *dataflow semantics* (the IR defines what data
//! lives where); they differ in how cost is derived — closed-form
//! transition classes versus exhaustive enumeration with exact edge
//! chunks — which is precisely the error the paper's RTL validation
//! measures.
//!
//! # Example
//!
//! ```
//! use maestro_dnn::{Layer, LayerDims, Operator};
//! use maestro_hw::Accelerator;
//! use maestro_ir::Style;
//! use maestro_sim::{simulate, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 8, 8, 10, 3));
//! let acc = Accelerator::builder(64).build();
//! let report = simulate(&layer, &Style::KCP.dataflow(), &acc, SimOptions::default())?;
//! assert_eq!(report.macs, layer.total_macs());
//! # Ok(())
//! # }
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::print_stderr, clippy::print_stdout, clippy::exit)
)]

pub mod conform;
pub mod engine;
mod flat;
pub mod mapping;
pub mod trace;
pub mod validate;

pub use conform::{
    check_case, run_conform, run_conform_cancellable, shrink, Case, CaseOutcome, ConformConfig,
    ConformReport, Divergence, DivergentCase, Metric, SkipReason, Tolerances,
};
pub use engine::{simulate, SimError, SimOptions, SimReport};
pub use flat::Interval;
pub use mapping::{mapping_at_step, PeMapping};
pub use trace::{trace, StepTrace, Trace};
pub use validate::{validate_layer, validate_network, ValidateError, ValidationPoint};
