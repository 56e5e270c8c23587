//! Hardware design-space exploration driven by the MAESTRO cost model
//! (paper §5.2, Figure 13, Table 5).
//!
//! The explorer sweeps PE count, NoC bandwidth, L1/L2 capacities and the
//! dataflow's mapping (tile-size) variants under an area/power budget,
//! bulk-skipping sub-spaces that cannot meet the budget, and reports the
//! Pareto front plus throughput-, energy- and EDP-optimized designs.
//!
//! # Example
//!
//! ```
//! use maestro_dnn::{Layer, LayerDims, Operator};
//! use maestro_dse::{variants, Explorer, SweepSpace};
//! use maestro_ir::Style;
//!
//! let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 32, 32, 34, 3));
//! let explorer = Explorer::new(SweepSpace::tiny());
//! let result = explorer
//!     .explore(&layer, &variants::variants(Style::KCP))
//!     .expect("valid sweep space");
//! assert!(result.stats.valid > 0);
//! assert!(result.stats.quarantined.is_empty());
//! ```

// Library code is panic-free by policy: fallible paths return typed errors
// instead of unwrapping, and panicking work units are quarantined rather
// than fatal. Tests are exempt (compiled out under `cfg(test)`).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stderr,
        clippy::exit
    )
)]

pub mod cancel;
pub mod checkpoint;
pub mod explorer;
pub mod fault;
pub mod space;
pub mod tuner;
pub mod units;
pub mod variants;

pub use cancel::{CancelToken, SessionCtl, SessionError, SessionReport, UnitUpdate};
pub use checkpoint::{sweep_fingerprint, Checkpoint, CheckpointError};
pub use explorer::{
    insert_pareto, DesignPoint, DseResult, DseStats, EvalMode, Explorer, ParetoFront, Partial,
    QuarantinedUnit,
};
pub use fault::{Fault, FaultPlan};
pub use space::{Constraints, SpaceError, SweepSpace};
pub use tuner::{tune_layer, tune_model, Objective, TunedLayer, TunedModel, Unmappable};
pub use units::{unit_trace_draw, unit_trace_id, UnitOutcome};
