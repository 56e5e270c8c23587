//! Step-by-step execution traces for debugging and teaching.
//!
//! A trace records, for every time step of the flattened schedule, which
//! loop advanced, the representative PE's tensor footprints, the new data
//! fetched, the MACs executed and the active PE count — the raw material
//! behind figures like the paper's Figure 3 timeline.

use crate::engine::SimError;
use crate::flat::FlatSchedule;
use maestro_dnn::Layer;
use maestro_ir::Dataflow;
use serde::{Deserialize, Serialize};

/// One time step of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepTrace {
    /// Step index (0-based).
    pub step: u64,
    /// Index of the flattened loop that advanced to reach this step
    /// (`None` for the initial step).
    pub advanced: Option<usize>,
    /// Representative-PE footprint per tensor (elements).
    pub footprint: [u64; 3],
    /// New elements fetched per tensor at the representative PE.
    pub new_data: [u64; 3],
    /// MACs executed across the whole array this step.
    pub macs: u64,
    /// Active PEs this step.
    pub active_pes: u64,
}

/// A complete (truncated) trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Dataflow name.
    pub dataflow: String,
    /// Total steps in the schedule (the trace may cover fewer).
    pub total_steps: u64,
    /// Recorded steps.
    pub steps: Vec<StepTrace>,
}

/// Trace the first `max_steps` steps of `layer` under `dataflow`.
///
/// # Errors
///
/// Fails when the dataflow cannot be resolved.
pub fn trace(
    layer: &Layer,
    dataflow: &Dataflow,
    num_pes: u64,
    max_steps: u64,
) -> Result<Trace, SimError> {
    let sched = FlatSchedule::build(layer, dataflow, num_pes)?;
    let total_steps = sched.total_steps();
    let steps = (0..max_steps)
        .zip(sched.walk())
        .map(|(step, s)| StepTrace {
            step,
            advanced: s.advanced,
            footprint: s.footprint,
            new_data: s.entered,
            macs: s.macs,
            active_pes: s.active_pes,
        })
        .collect();
    Ok(Trace {
        dataflow: dataflow.name().to_string(),
        total_steps,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator, TensorKind};
    use maestro_ir::Style;

    fn layer() -> Layer {
        Layer::new("c", Operator::conv2d(), LayerDims::square(1, 4, 4, 6, 3))
    }

    #[test]
    fn trace_records_steps_in_order() {
        let t = trace(&layer(), &Style::XP.dataflow(), 8, 16).unwrap();
        assert!(!t.steps.is_empty());
        assert!(t.steps.len() as u64 <= 16);
        for (i, s) in t.steps.iter().enumerate() {
            assert_eq!(s.step, i as u64);
            assert!(s.macs > 0);
            assert!(s.active_pes >= 1);
        }
        assert_eq!(t.steps[0].advanced, None, "initial step has no advance");
        assert!(t.steps[1].advanced.is_some());
    }

    #[test]
    fn first_step_fetches_full_footprints() {
        let t = trace(&layer(), &Style::KCP.dataflow(), 64, 4).unwrap();
        let s0 = &t.steps[0];
        assert_eq!(s0.new_data, s0.footprint);
    }

    #[test]
    fn weight_stationary_steps_fetch_no_new_weights() {
        // X-P holds weights while Y advances.
        let t = trace(&layer(), &Style::XP.dataflow(), 8, 4).unwrap();
        let w = TensorKind::Weight as usize;
        assert_eq!(
            t.steps[1].new_data[w], 0,
            "weights are stationary across the Y sweep: {:?}",
            t.steps[1]
        );
    }

    #[test]
    fn zero_steps_records_none() {
        let t = trace(&layer(), &Style::KCP.dataflow(), 64, 0).unwrap();
        assert!(t.steps.is_empty(), "{:?}", t.steps);
        assert!(t.total_steps > 0);
    }

    #[test]
    fn trace_covers_whole_schedule_when_short() {
        let t = trace(&layer(), &Style::KCP.dataflow(), 64, u64::MAX).unwrap();
        assert_eq!(t.steps.len() as u64, t.total_steps);
    }
}
