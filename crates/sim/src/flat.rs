//! The flattened schedule and the one step walk over it.
//!
//! The simulator walks the *entire* nested schedule as one flat loop nest:
//! outer cluster levels' loops first, inner levels' loops after them (inner
//! loops change fastest), exactly matching the hierarchical semantics. Per
//! time step it derives, for a representative PE, the absolute data-space
//! interval each dimension occupies — with exact edge-chunk truncation
//! propagated through the levels — and the exact MAC count over the unit
//! grid. [`FlatSchedule::walk`] yields those per-step facts: `simulate`
//! prices them and `trace` records them.

use maestro_core::footprint::{num_trips, CouplingExt, Strides};
use maestro_core::level::{bind, LevelCtx, LoopDims};
use maestro_dnn::{Coupling, Dim, Layer, TensorKind, ALL_DIMS};
use maestro_ir::{Dataflow, ResolveError};
use std::collections::HashMap;

/// One flattened loop: a temporal loop or spatial fold of some level.
#[derive(Debug)]
struct FlatLoop {
    /// The cluster level this loop belongs to.
    level: usize,
    /// Dimensions advanced per trip (view coordinates).
    dims: LoopDims,
    /// Trip count.
    trips: u64,
    /// `true` for spatial folds.
    spatial_fold: bool,
    /// `true` when the loop advances a pure-reduction dimension set
    /// (its own dims leave the output footprint unchanged).
    is_reduction: bool,
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

/// The representative PE's resident interval per tensor and axis
/// (`None` where the tensor has no such axis).
type Resident = [[Option<Interval>; ALL_DIMS.len()]; 3];

/// The flattened schedule of a dataflow bound to a layer: every level's
/// loops as one odometer, with the layer's coupling and strides.
#[derive(Debug)]
pub(crate) struct FlatSchedule {
    /// Per-level contexts (outermost first).
    levels: Vec<LevelCtx>,
    /// Flattened loops, outermost first.
    loops: Vec<FlatLoop>,
    /// Current odometer counters (parallel to `loops`).
    counters: Vec<u64>,
    /// Total steps.
    total_steps: u64,
    /// The layer's coupling.
    coupling: Coupling,
    /// The layer's strides.
    strides: Strides,
}

impl FlatSchedule {
    /// Bind `dataflow` to `layer` on `num_pes` PEs and flatten its levels.
    pub(crate) fn build(
        layer: &Layer,
        dataflow: &Dataflow,
        num_pes: u64,
    ) -> Result<Self, ResolveError> {
        let (_, levels) = bind(layer, dataflow, num_pes)?;
        let coupling = layer.coupling();
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
                    dims: node.dims,
                    trips: node.trips,
                    spatial_fold: node.spatial_fold,
                    is_reduction,
                });
            }
        }
        Ok(FlatSchedule {
            levels,
            total_steps: loops.iter().map(|l| l.trips).product(),
            counters: vec![0; loops.len()],
            loops,
            coupling,
            strides: Strides {
                y: layer.dims.stride_y,
                x: layer.dims.stride_x,
            },
        })
    }

    /// Per-level contexts, outermost first.
    pub(crate) fn levels(&self) -> &[LevelCtx] {
        &self.levels
    }

    /// Steps in the whole schedule.
    pub(crate) fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Advance the odometer by one step; returns the index of the loop
    /// that advanced, or `None` when the schedule is exhausted.
    pub(crate) fn advance(&mut self) -> Option<usize> {
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

    /// The first counter whose loop matches `pick` (0 when none does).
    fn counter(&self, pick: impl Fn(&FlatLoop) -> bool) -> u64 {
        self.loops
            .iter()
            .zip(&self.counters)
            .find(|(l, _)| pick(l))
            .map_or(0, |(_, &c)| c)
    }

    /// Current position of `level`'s spatial fold.
    fn fold_counter(&self, level: usize) -> u64 {
        self.counter(|l| l.level == level && l.spatial_fold)
    }

    /// Current position of `level`'s temporal loop over `d`.
    fn loop_counter(&self, level: usize, d: Dim) -> u64 {
        self.counter(|l| {
            l.level == level && !l.spatial_fold && l.dims.iter().any(|&(ld, _)| ld == d)
        })
    }

    /// The absolute interval dimension `d` occupies (view coordinates) for
    /// the PE at per-level unit coordinates `units` (one entry per level;
    /// missing entries are unit 0, the representative PE). Edge truncation
    /// at any level propagates inward exactly.
    fn dim_interval(&self, d: Dim, units: &[u64]) -> Interval {
        let mut abs = 0u64;
        let mut avail = self.levels[0].views.view(d).total;
        for (li, ctx) in self.levels.iter().enumerate() {
            let v = ctx.views.view(d);
            // The chunk position: the temporal loop's counter, or the
            // spatial fold's plus the unit's offset in it. Co-mapped spatial
            // dims clamp to their last chunk when they have fewer chunks
            // than the driving dim (e.g. row-stationary clusters: one
            // output row shared, filter rows distinct).
            let pos = if v.spatial {
                let unit = units.get(li).copied().unwrap_or(0);
                (self.fold_counter(li) * ctx.num_units + unit).min(v.trips.saturating_sub(1))
            } else {
                self.loop_counter(li, d)
            };
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

    /// Tensor-coordinate interval along an axis for a PE: combines view
    /// intervals into the tensor's own coordinates (input axes combine the
    /// output window and the filter chunk positions).
    pub(crate) fn tensor_axis_interval(
        &self,
        kind: TensorKind,
        d: Dim,
        units: &[u64],
    ) -> Option<Interval> {
        let coupling = &self.coupling;
        match kind {
            TensorKind::Input if d.is_input_spatial() && coupling.has_window_on(d) => {
                let out = self.dim_interval(d, units);
                let p = d.window_partner().expect("Y/X have partners");
                let f = self.dim_interval(p, units);
                let s = self.strides.of(d);
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
            _ if coupling.is_coupled(kind, d) => Some(self.dim_interval(d, units)),
            _ => None,
        }
    }

    /// The representative PE's resident intervals in the current step.
    fn resident(&self) -> Resident {
        TensorKind::ALL.map(|k| ALL_DIMS.map(|d| self.tensor_axis_interval(k, d, &[])))
    }

    /// Active PEs in the current step: the product of each level's active
    /// units (edge folds may use fewer than `num_units`).
    fn active_pes(&self) -> u64 {
        let active = |(li, ctx): (usize, &LevelCtx)| {
            let spatial = ctx.views.iter().filter(|v| v.spatial);
            spatial.map(|v| v.trips).max().map_or(1, |trips| {
                (trips - self.fold_counter(li) * ctx.num_units).min(ctx.num_units)
            })
        };
        self.levels.iter().enumerate().map(active).product()
    }

    /// Whether the outputs entered after loop `j` advanced were visited
    /// before: a reduction loop outside `j` has moved, so their partial
    /// sums return from upstream.
    fn revisits(&self, j: usize) -> bool {
        self.loops[..j]
            .iter()
            .zip(&self.counters[..j])
            .any(|(l, &c)| l.is_reduction && c > 0)
    }

    /// Exact MACs the units of `level` and below execute in the current
    /// step, given the extents `avail` left to them (the whole layer at
    /// level 0). `memo` caches inner-level sub-grid sums across steps,
    /// keyed by the level, its extents and the counters from it inward.
    fn exact_macs(&self, level: usize, avail: [u64; 7], memo: &mut HashMap<Vec<u64>, u64>) -> u64 {
        if level == self.levels.len() {
            // Leaf: the PE executes the product of its chunk extents.
            return avail.iter().product();
        }
        // Memoize inner levels only: the top level's key is unique per
        // step, so caching it would only grow the table.
        let key: Option<Vec<u64>> = (level >= 1).then(|| {
            std::iter::once(level as u64)
                .chain(avail.iter().copied())
                .chain(
                    self.loops
                        .iter()
                        .zip(&self.counters)
                        .filter(|(l, _)| l.level >= level)
                        .map(|(_, &c)| c),
                )
                .collect()
        });
        if let Some(&v) = key.as_ref().and_then(|k| memo.get(k)) {
            return v;
        }
        let ctx = &self.levels[level];
        let spatial = ctx.views.iter().any(|v| v.spatial);
        let units = if spatial { ctx.num_units } else { 1 };
        // A unit idles when it is beyond the *driving* spatial dim (the
        // one with the most chunks available in the current, possibly
        // edge-truncated extents); shorter co-mapped dims clamp.
        let avail_trips = |d: Dim| {
            let v = ctx.views.view(d);
            num_trips(v.chunk, v.step, avail[d.index()])
        };
        let driving_trips = ctx
            .views
            .iter()
            .filter(|v| v.spatial)
            .map(|v| avail_trips(v.dim))
            .max()
            .unwrap_or(1);
        let fold = self.fold_counter(level);
        let mut total = 0u64;
        for u in 0..units {
            if spatial && fold * ctx.num_units + u >= driving_trips {
                continue;
            }
            let lens = ALL_DIMS.map(|d| {
                let v = ctx.views.view(d);
                let a = avail[d.index()];
                let pos = if v.spatial {
                    (fold * ctx.num_units + u).min(avail_trips(d).saturating_sub(1))
                } else {
                    self.loop_counter(level, d)
                };
                let start = (pos * v.step).min(a.saturating_sub(1));
                v.chunk.min(a - start)
            });
            total += self.exact_macs(level + 1, lens, memo);
        }
        if let Some(k) = key {
            memo.insert(k, total);
        }
        total
    }

    /// The one step loop: every step of the schedule, in order, from its
    /// start.
    pub(crate) fn walk(mut self) -> impl Iterator<Item = Step> {
        let extents = ALL_DIMS.map(|d| self.levels[0].views.view(d).total);
        let mut memo = HashMap::new();
        // The previous step's resident intervals (`None` before the first).
        let mut prev: Option<Resident> = None;
        std::iter::from_fn(move || {
            let advanced = if prev.is_none() {
                None
            } else {
                Some(self.advance()?)
            };
            let cur = self.resident();
            let size = |axes: &[Option<Interval>]| -> u64 {
                axes.iter().flatten().map(|i| i.len).product()
            };
            let footprint = cur.map(|axes| size(&axes));
            let (entered, left) = match &prev {
                None => (footprint, [0; 3]),
                Some(prev) => {
                    let kept: [u64; 3] = std::array::from_fn(|k| {
                        let axes = prev[k].iter().zip(&cur[k]);
                        axes.map(|(x, y)| x.zip(*y).map_or(1, |(x, y)| x.overlap(&y)))
                            .product()
                    });
                    (
                        std::array::from_fn(|k| footprint[k].saturating_sub(kept[k])),
                        std::array::from_fn(|k| size(&prev[k]).saturating_sub(kept[k])),
                    )
                }
            };
            prev = Some(cur);
            Some(Step {
                advanced,
                footprint,
                entered,
                left,
                revisit: advanced.is_some_and(|j| self.revisits(j)),
                macs: self.exact_macs(0, extents, &mut memo),
                active_pes: self.active_pes(),
            })
        })
    }
}

/// One time step at the representative PE, as [`FlatSchedule::walk`]
/// yields it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// The flattened loop that advanced to reach this step (`None` for
    /// the first step).
    pub(crate) advanced: Option<usize>,
    /// Footprint per tensor (elements).
    pub(crate) footprint: [u64; 3],
    /// Elements per tensor that entered since the previous step (the
    /// whole footprint on the first step).
    pub(crate) entered: [u64; 3],
    /// Elements per tensor that left since the previous step.
    pub(crate) left: [u64; 3],
    /// Whether the outputs that entered were visited before.
    pub(crate) revisit: bool,
    /// MACs executed across the whole array.
    pub(crate) macs: u64,
    /// Active PEs.
    pub(crate) active_pes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator};
    use maestro_ir::Style;

    fn schedule(style: Style, pes: u64) -> FlatSchedule {
        let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 8, 8, 10, 3));
        FlatSchedule::build(&layer, &style.dataflow(), pes).unwrap()
    }

    #[test]
    fn odometer_covers_all_steps() {
        let mut s = schedule(Style::KCP, 64);
        let mut steps = 1u64;
        while s.advance().is_some() {
            steps += 1;
        }
        assert_eq!(steps, s.total_steps);
    }

    #[test]
    fn intervals_stay_in_bounds() {
        let mut s = schedule(Style::XP, 16);
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
        let s = schedule(Style::KCP, 64);
        // KC-P on C=8 with chunk 8: no C loop; R/S fully mapped: no
        // reduction loops at all here.
        assert!(s.loops.iter().all(|l| !l.is_reduction));
        // Deep layer: C loop appears and is a reduction loop.
        let layer = Layer::new("d", Operator::conv2d(), LayerDims::square(1, 8, 128, 10, 3));
        let s = FlatSchedule::build(&layer, &Style::KCP.dataflow(), 64).unwrap();
        assert!(s.loops.iter().any(|l| l.is_reduction));
    }

    #[test]
    fn input_axis_combines_window_and_filter() {
        let s = schedule(Style::KCP, 64);
        let iv = s
            .tensor_axis_interval(TensorKind::Input, Dim::Y, &[0, 0])
            .expect("input has a Y axis");
        // At step 0: output row 0 with full 3-row filter chunk => rows 0..3.
        assert_eq!(iv.start, 0);
        assert_eq!(iv.len, 3);
        // Output axis is anchored (R returns None).
        assert!(s
            .tensor_axis_interval(TensorKind::Output, Dim::R, &[0, 0])
            .is_none());
    }
}
