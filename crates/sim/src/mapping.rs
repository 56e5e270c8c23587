//! Mapping inspection: which tensor coordinates each PE holds at a given
//! time step (paper Figure 6's tables).

use crate::engine::SimError;
use crate::flat::{FlatSchedule, Interval};
use maestro_dnn::{Dim, Layer, TensorKind, ALL_DIMS};
use maestro_ir::Dataflow;
use serde::{Deserialize, Serialize};

/// The data one PE holds at one time step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeMapping {
    /// Flat PE index.
    pub pe: u64,
    /// Per-level unit coordinates (outermost first).
    pub unit_coords: Vec<u64>,
    /// Per-tensor list of `(dim, interval)` coordinate ranges, in the
    /// tensor's own coordinates (input rows for `Y`, output rows for the
    /// output tensor, etc.).
    pub ranges: [Vec<(Dim, Interval)>; 3],
}

impl PeMapping {
    /// The coordinate interval of `dim` in tensor `kind`, if coupled.
    pub fn range(&self, kind: TensorKind, dim: Dim) -> Option<Interval> {
        self.ranges[kind as usize]
            .iter()
            .find(|(d, _)| *d == dim)
            .map(|(_, iv)| *iv)
    }
}

/// Compute the per-PE mapping of `layer` under `dataflow` at time `step`.
///
/// # Errors
///
/// Fails when the dataflow cannot be resolved or `step` is beyond the end
/// of the schedule.
pub fn mapping_at_step(
    layer: &Layer,
    dataflow: &Dataflow,
    num_pes: u64,
    step: u64,
) -> Result<Vec<PeMapping>, SimError> {
    let mut sched = FlatSchedule::build(layer, dataflow, num_pes)?;
    let total_steps = sched.total_steps();
    if step >= total_steps {
        return Err(SimError::StepOutOfRange { step, total_steps });
    }
    for _ in 0..step {
        sched.advance();
    }

    // Enumerate the unit grid (mixed radix over per-level unit counts).
    let radices: Vec<u64> = sched.levels().iter().map(|c| c.num_units).collect();
    let total_pes: u64 = radices.iter().product();
    let mut out = Vec::with_capacity(total_pes as usize);
    for pe in 0..total_pes {
        let mut rem = pe;
        let mut coords = vec![0u64; radices.len()];
        for (i, &r) in radices.iter().enumerate().rev() {
            coords[i] = rem % r;
            rem /= r;
        }
        let ranges = TensorKind::ALL.map(|k| {
            ALL_DIMS
                .iter()
                .filter_map(|&d| sched.tensor_axis_interval(k, d, &coords).map(|iv| (d, iv)))
                .collect::<Vec<_>>()
        });
        out.push(PeMapping {
            pe,
            unit_coords: coords,
            ranges,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator};
    use maestro_ir::styles;

    /// The Figure 6 scenario: the Figure 1 layer (N2 K4 C6 Y8 X8 R3 S3) on
    /// six PEs in two clusters of three, row-stationary.
    fn figure6() -> (Layer, Dataflow) {
        let layer = Layer::new("fig1", Operator::conv2d(), LayerDims::square(2, 4, 6, 8, 3));
        (layer, styles::figure6_row_stationary())
    }

    #[test]
    fn figure6_step0_matches_paper() {
        let (layer, df) = figure6();
        let maps = mapping_at_step(&layer, &df, 6, 0).unwrap();
        assert_eq!(maps.len(), 6);
        // Paper Figure 6(d), weights at t=0: every PE in cluster 0 and 1
        // holds K 0-1, C 0-2, S 0-2; PE i within a cluster holds filter
        // row R = i.
        for m in &maps {
            let k = m.range(TensorKind::Weight, Dim::K).unwrap();
            assert_eq!((k.start, k.len), (0, 2), "PE{}: K0-1", m.pe);
            let c = m.range(TensorKind::Weight, Dim::C).unwrap();
            assert_eq!((c.start, c.len), (0, 3), "PE{}: C0-2", m.pe);
            let r = m.range(TensorKind::Weight, Dim::R).unwrap();
            assert_eq!(
                (r.start, r.len),
                (m.unit_coords[1], 1),
                "PE{}: one filter row each",
                m.pe
            );
        }
        // Inputs at t=0: cluster 0 PEs hold rows 0,1,2; cluster 1 is
        // shifted down by one output row: rows 1,2,3 (the diagonal reuse).
        for m in &maps {
            let y = m.range(TensorKind::Input, Dim::Y).unwrap();
            let expected_row = m.unit_coords[0] + m.unit_coords[1];
            assert_eq!(
                (y.start, y.len),
                (expected_row, 1),
                "PE{}: input row {}",
                m.pe,
                expected_row
            );
            let x = m.range(TensorKind::Input, Dim::X).unwrap();
            assert_eq!((x.start, x.len), (0, 3), "PE{}: input cols 0-2", m.pe);
        }
        // Outputs at t=0: cluster q produces output row q, and all three
        // PEs of a cluster share it (spatial reduction).
        for m in &maps {
            let y = m.range(TensorKind::Output, Dim::Y).unwrap();
            assert_eq!((y.start, y.len), (m.unit_coords[0], 1), "PE{}", m.pe);
            let k = m.range(TensorKind::Output, Dim::K).unwrap();
            assert_eq!((k.start, k.len), (0, 2), "PE{}", m.pe);
        }
    }

    #[test]
    fn figure6_advances_x_after_s() {
        let (layer, df) = figure6();
        // The innermost temporal loop is X (the S map covers all of S).
        // After one step, the X window slides by one output column.
        let t0 = mapping_at_step(&layer, &df, 6, 0).unwrap();
        let t1 = mapping_at_step(&layer, &df, 6, 1).unwrap();
        let x0 = t0[0].range(TensorKind::Input, Dim::X).unwrap();
        let x1 = t1[0].range(TensorKind::Input, Dim::X).unwrap();
        assert_eq!(x1.start, x0.start + 1, "input window slides one column");
        // Weights are unchanged: temporal reuse (weight stationary at the
        // unit-step granularity, as the paper notes).
        assert_eq!(
            t0[0].range(TensorKind::Weight, Dim::R),
            t1[0].range(TensorKind::Weight, Dim::R)
        );
    }

    #[test]
    fn step_out_of_range_errors() {
        let (layer, df) = figure6();
        assert!(mapping_at_step(&layer, &df, 6, u64::MAX).is_err());
    }
}
