//! Flattened multi-level odometer machinery.
//!
//! The simulator walks the *entire* nested schedule as one flat loop nest:
//! outer cluster levels' loops first, inner levels' loops after them (inner
//! loops change fastest), exactly matching the hierarchical semantics. Per
//! time step it derives, for a representative PE, the absolute data-space
//! interval each dimension occupies — with exact edge-chunk truncation
//! propagated through the levels — and closed-form sums/unions across the
//! active PEs.

use maestro_core::footprint::CouplingExt;
use maestro_core::level::LevelCtx;
use maestro_dnn::{Coupling, Dim, TensorKind};

/// One flattened loop: a temporal loop or spatial fold of some level.
#[derive(Debug, Clone)]
pub struct FlatLoop {
    /// The cluster level this loop belongs to.
    pub level: usize,
    /// Dimensions advanced per trip (view coordinates).
    pub dims: Vec<(Dim, u64)>,
    /// Trip count.
    pub trips: u64,
    /// `true` for spatial folds.
    pub spatial_fold: bool,
    /// `true` when the loop advances a pure-reduction dimension set
    /// (its own dims leave the output footprint unchanged).
    pub is_reduction: bool,
}

/// A half-open interval `[start, start+len)` in some dimension's
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct Interval {
    /// Start position.
    pub start: u64,
    /// Length (0 = empty).
    pub len: u64,
}

impl Interval {
    /// Size of the intersection with `other`.
    pub fn overlap(&self, other: &Interval) -> u64 {
        let lo = self.start.max(other.start);
        let hi = (self.start + self.len).min(other.start + other.len);
        hi.saturating_sub(lo)
    }
}

/// The flattened schedule of a resolved dataflow.
#[derive(Debug, Clone)]
pub struct FlatSchedule {
    /// Per-level contexts (outermost first).
    pub levels: Vec<LevelCtx>,
    /// Flattened loops, outermost first.
    pub loops: Vec<FlatLoop>,
    /// Current odometer counters (parallel to `loops`).
    pub counters: Vec<u64>,
    /// Total steps.
    pub total_steps: u64,
}

impl FlatSchedule {
    /// Build the flat schedule from per-level contexts.
    pub fn new(levels: Vec<LevelCtx>, coupling: &Coupling) -> Self {
        let mut loops = Vec::new();
        for (li, ctx) in levels.iter().enumerate() {
            for node in &ctx.loops {
                // A loop is pure reduction if advancing its own dims leaves
                // the output footprint unchanged: every dim is either a
                // filter-window dim or not output-coupled.
                let is_reduction = node.dims.iter().all(|(d, _)| {
                    (d.is_filter_window() && coupling.has_window_on_partner(*d))
                        || !coupling.is_coupled(TensorKind::Output, *d)
                }) && node
                    .dims
                    .iter()
                    .any(|(d, _)| coupling.reduction.contains(*d) || d.is_filter_window());
                loops.push(FlatLoop {
                    level: li,
                    dims: node.dims.to_vec(),
                    trips: node.trips,
                    spatial_fold: node.spatial_fold,
                    is_reduction,
                });
            }
        }
        let total_steps = loops.iter().map(|l| l.trips).product();
        let counters = vec![0; loops.len()];
        FlatSchedule {
            levels,
            loops,
            counters,
            total_steps,
        }
    }

    /// Advance the odometer by one step; returns the index of the loop
    /// that advanced, or `None` when the schedule is exhausted.
    pub fn advance(&mut self) -> Option<usize> {
        for j in (0..self.loops.len()).rev() {
            if self.counters[j] + 1 < self.loops[j].trips {
                self.counters[j] += 1;
                for c in &mut self.counters[j + 1..] {
                    *c = 0;
                }
                return Some(j);
            }
        }
        None
    }

    /// Reset the odometer.
    pub fn reset(&mut self) {
        self.counters.fill(0);
    }

    /// Current per-level chunk position (in trips) of dimension `d` at
    /// `level`: the counter of its temporal loop or spatial fold, plus the
    /// in-fold unit offset `unit`.
    fn dim_position(&self, level: usize, d: Dim, unit: u64) -> u64 {
        let ctx = &self.levels[level];
        let v = ctx.views.view(d);
        if v.spatial {
            let fold = self
                .loops
                .iter()
                .zip(&self.counters)
                .find(|(l, _)| l.level == level && l.spatial_fold)
                .map(|(_, &c)| c)
                .unwrap_or(0);
            // Co-mapped spatial dims clamp to their last chunk when they
            // have fewer chunks than the driving dim (e.g. row-stationary
            // clusters: one output row shared, filter rows distinct).
            (fold * ctx.num_units + unit).min(v.trips.saturating_sub(1))
        } else {
            self.loops
                .iter()
                .zip(&self.counters)
                .find(|(l, _)| {
                    l.level == level && !l.spatial_fold && l.dims.iter().any(|(ld, _)| *ld == d)
                })
                .map(|(_, &c)| c)
                .unwrap_or(0)
        }
    }

    /// The absolute interval dimension `d` occupies (view coordinates) for
    /// the PE at per-level unit coordinates `units` (one entry per level;
    /// use zeros for the representative PE). Edge truncation at any level
    /// propagates inward exactly.
    pub fn dim_interval(&self, d: Dim, units: &[u64]) -> Interval {
        let mut abs = 0u64;
        let mut avail = self.levels[0].views.view(d).total;
        for (li, ctx) in self.levels.iter().enumerate() {
            let v = ctx.views.view(d);
            let unit = if v.spatial {
                units.get(li).copied().unwrap_or(0)
            } else {
                0
            };
            let pos = self.dim_position(li, d, unit);
            let start = (pos * v.step).min(avail.saturating_sub(1));
            let len = v.chunk.min(avail - start);
            abs += start;
            avail = len;
        }
        Interval {
            start: abs,
            len: avail,
        }
    }

    /// Number of active units at `level` in the current step (edge folds
    /// may use fewer than `num_units`).
    pub fn active_units(&self, level: usize) -> u64 {
        let ctx = &self.levels[level];
        let spatial: Vec<_> = ctx.views.iter().filter(|v| v.spatial).collect();
        if spatial.is_empty() {
            return 1;
        }
        let max_trips = spatial.iter().map(|v| v.trips).max().expect("non-empty");
        let fold = self
            .loops
            .iter()
            .zip(&self.counters)
            .find(|(l, _)| l.level == level && l.spatial_fold)
            .map(|(_, &c)| c)
            .unwrap_or(0);
        (max_trips - fold * ctx.num_units).min(ctx.num_units)
    }
}

/// Tensor-coordinate interval along an axis for a PE: combines view
/// intervals into the tensor's own coordinates (input axes combine the
/// output window and the filter chunk positions).
pub fn tensor_axis_interval(
    sched: &FlatSchedule,
    coupling: &Coupling,
    kind: TensorKind,
    d: Dim,
    strides: (u64, u64),
    units: &[u64],
) -> Option<Interval> {
    let stride = |dd: Dim| match dd {
        Dim::Y => strides.0,
        Dim::X => strides.1,
        _ => 1,
    };
    match kind {
        TensorKind::Input if d.is_input_spatial() && coupling.has_window_on(d) => {
            let out = sched.dim_interval(d, units);
            let p = d.window_partner().expect("Y/X have partners");
            let f = sched.dim_interval(p, units);
            let s = stride(d);
            // With a gapped window (stride > filter chunk) the rows between
            // consecutive output anchors are never resident; count only the
            // touched rows so fills match what actually moves.
            Some(Interval {
                start: s * out.start + f.start,
                len: s.min(f.len) * (out.len.saturating_sub(1)) + f.len,
            })
        }
        TensorKind::Input if d.is_filter_window() && coupling.has_window_on_partner(d) => {
            None // folded into the partner axis
        }
        TensorKind::Output if d.is_filter_window() && coupling.has_window_on_partner(d) => {
            None // anchored: outputs don't track R/S
        }
        _ if coupling.is_coupled(kind, d) => Some(sched.dim_interval(d, units)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_core::level::LevelCtx;
    use maestro_dnn::{Layer, LayerDims, Operator};
    use maestro_ir::{resolve, Style};

    fn schedule(style: Style, pes: u64) -> (FlatSchedule, Coupling) {
        let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 8, 8, 10, 3));
        let coupling = layer.coupling();
        let r = resolve(&style.dataflow(), &layer, pes).unwrap();
        let levels: Vec<LevelCtx> = r
            .levels
            .iter()
            .map(|l| LevelCtx::build(&r, l, &coupling))
            .collect();
        (FlatSchedule::new(levels, &coupling), coupling)
    }

    #[test]
    fn odometer_covers_all_steps() {
        let (mut s, _) = schedule(Style::KCP, 64);
        let mut steps = 1u64;
        while s.advance().is_some() {
            steps += 1;
        }
        assert_eq!(steps, s.total_steps);
    }

    #[test]
    fn intervals_stay_in_bounds() {
        let (mut s, _) = schedule(Style::XP, 16);
        loop {
            for d in maestro_dnn::ALL_DIMS {
                let iv = s.dim_interval(d, &[0, 0]);
                let total = s.levels[0].views.view(d).total;
                assert!(iv.start + iv.len <= total, "{d}: {iv:?} vs {total}");
                assert!(iv.len >= 1);
            }
            if s.advance().is_none() {
                break;
            }
        }
    }

    #[test]
    fn interval_overlap() {
        let a = Interval { start: 2, len: 5 };
        let b = Interval { start: 5, len: 5 };
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(b.overlap(&a), 2);
        let c = Interval { start: 9, len: 2 };
        assert_eq!(a.overlap(&c), 0);
    }

    #[test]
    fn reduction_loop_classification() {
        let (s, _) = schedule(Style::KCP, 64);
        // KC-P on C=8 with chunk 8: no C loop; R/S fully mapped: no
        // reduction loops at all here.
        assert!(s.loops.iter().all(|l| !l.is_reduction));
        // Deep layer: C loop appears and is a reduction loop.
        let layer = Layer::new("d", Operator::conv2d(), LayerDims::square(1, 8, 128, 10, 3));
        let coupling = layer.coupling();
        let r = resolve(&Style::KCP.dataflow(), &layer, 64).unwrap();
        let levels: Vec<LevelCtx> = r
            .levels
            .iter()
            .map(|l| LevelCtx::build(&r, l, &coupling))
            .collect();
        let s = FlatSchedule::new(levels, &coupling);
        assert!(s.loops.iter().any(|l| l.is_reduction));
    }

    #[test]
    fn input_axis_combines_window_and_filter() {
        let (s, coupling) = schedule(Style::KCP, 64);
        let iv = tensor_axis_interval(&s, &coupling, TensorKind::Input, Dim::Y, (1, 1), &[0, 0])
            .expect("input has a Y axis");
        // At step 0: output row 0 with full 3-row filter chunk => rows 0..3.
        assert_eq!(iv.start, 0);
        assert_eq!(iv.len, 3);
        // Output axis is anchored (R returns None).
        assert!(
            tensor_axis_interval(&s, &coupling, TensorKind::Output, Dim::R, (1, 1), &[0, 0])
                .is_none()
        );
    }
}
