//! Per-cluster-level context: dimension views, the temporal loop odometer,
//! and spatial reuse classification (the Cluster + Reuse Analysis engines).

use crate::footprint::{num_trips, to_view_coords, CouplingExt, DimView, LevelViews, Strides};
use maestro_dnn::{Coupling, Dim, Layer, TensorKind, ALL_DIMS};
use maestro_ir::{Dataflow, MapKind, ResolveError, Resolved, ResolvedLevel};
use serde::{Deserialize, JsonWriter, Serialize};
use std::fmt;
use std::ops::Deref;

/// The dimensions one loop advances: at most one `(dim, advance)` pair per
/// dimension, stored inline. Derefs to a slice, so it reads like the `Vec`
/// it replaces without a heap block per loop. Unused slots always hold
/// `(N, 0)`, so the derived equality is the slices' equality.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LoopDims {
    len: usize,
    pairs: [(Dim, u64); ALL_DIMS.len()],
}

impl LoopDims {
    /// A loop over the single dimension `dim`.
    pub(crate) fn one(dim: Dim, advance: u64) -> Self {
        std::iter::once((dim, advance)).collect()
    }
}

impl Deref for LoopDims {
    type Target = [(Dim, u64)];

    fn deref(&self) -> &[(Dim, u64)] {
        &self.pairs[..self.len]
    }
}

impl FromIterator<(Dim, u64)> for LoopDims {
    /// Collect at most one pair per dimension; pairs past the seventh are
    /// dropped.
    fn from_iter<I: IntoIterator<Item = (Dim, u64)>>(iter: I) -> Self {
        let mut dims = LoopDims {
            len: 0,
            pairs: [(Dim::N, 0); ALL_DIMS.len()],
        };
        for (slot, pair) in dims.pairs.iter_mut().zip(iter) {
            *slot = pair;
            dims.len += 1;
        }
        dims
    }
}

impl fmt::Debug for LoopDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for LoopDims {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w);
    }
}

impl Deserialize for LoopDims {}

/// One temporal loop of a level's odometer. Spatial maps whose chunks
/// exceed the unit count *fold* into a pseudo-temporal loop that advances
/// every spatially mapped dimension by `units × step` at once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopNode {
    /// `(dim, advance-per-trip in view coordinates)` — one entry for
    /// temporal loops, all spatial dims for a fold loop.
    pub dims: LoopDims,
    /// Trip count (> 1 by construction).
    pub trips: u64,
    /// `true` when this is a spatial fold.
    pub spatial_fold: bool,
    /// Position in directive order (for outer/inner comparisons).
    pub pos: usize,
}

/// How the output tensor behaves across the units of a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputSpatial {
    /// Each unit produces distinct outputs.
    Varies,
    /// All units contribute partial sums to the same outputs — spatial
    /// reduction (paper Table 1's "Reduction" rows).
    Reduced,
    /// Only one unit is active (no spatial map at this level).
    NotParallel,
}

/// Bind `dataflow` to `layer` on `num_pes` PEs: resolve it, then derive
/// every level's context, outermost first. The model, `explain`, `lint`
/// and the simulator all bind through here.
///
/// # Errors
///
/// Fails when the dataflow cannot be resolved for this layer/PE count.
// Inlined into every analysis build: as a call, zoo_analyze ran 3% below
// the inlined binding in 5 of 5 alternating pairs.
#[inline]
pub fn bind(
    layer: &Layer,
    dataflow: &Dataflow,
    num_pes: u64,
) -> Result<(Resolved, Vec<LevelCtx>), ResolveError> {
    let resolved = maestro_ir::resolve(dataflow, layer, num_pes)?;
    let coupling = layer.coupling();
    let levels = resolved
        .levels
        .iter()
        .map(|l| LevelCtx::build(&resolved, l, &coupling))
        .collect();
    Ok((resolved, levels))
}

/// Fully analyzed context of one cluster level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelCtx {
    /// Canonical per-dimension views.
    pub views: LevelViews,
    /// Temporal odometer, outermost first.
    pub loops: Vec<LoopNode>,
    /// Sub-units available at this level.
    pub num_units: u64,
    /// Units active in a steady step.
    pub active_units: u64,
    /// Average fraction of `num_units` doing useful work.
    pub utilization: f64,
    /// Total time steps of one pass (product of loop trips).
    pub total_steps: u64,
    /// Output behavior across units.
    pub output_spatial: OutputSpatial,
}

impl LevelCtx {
    /// Build the context for `level` of a resolved dataflow.
    fn build(resolved: &Resolved, level: &ResolvedLevel, coupling: &Coupling) -> Self {
        let strides = Strides {
            y: resolved.stride_y,
            x: resolved.stride_x,
        };
        // Build views in canonical dim order.
        let mut views: [DimView; 7] = maestro_dnn::ALL_DIMS.map(|d| DimView {
            dim: d,
            spatial: false,
            pos: 0,
            chunk: 1,
            step: 1,
            total: 1,
            trips: 1,
        });
        for (pos, m) in level.maps.iter().enumerate() {
            let d = m.dim;
            let filter = match d.window_partner() {
                Some(p) if d.is_input_spatial() => level.dims.get(p),
                _ => 1,
            };
            let (chunk, step, total) = to_view_coords(
                coupling,
                d,
                m.size,
                m.offset,
                level.dims.get(d),
                filter,
                strides.of(d),
            );
            views[d.index()] = DimView {
                dim: d,
                spatial: m.kind == MapKind::Spatial,
                pos,
                chunk,
                step,
                total,
                trips: num_trips(chunk, step, total),
            };
        }
        let views = LevelViews::new(views, strides);

        // Spatial folding.
        let num_units = level.num_units;
        let spatial = || views.iter().filter(|v| v.spatial);
        let max_chunks = spatial().map(|v| v.trips).max().unwrap_or(0);
        let (folds, active_units, utilization, first_spatial_pos) =
            match spatial().map(|v| v.pos).min() {
                None => (1, 1, 1.0 / num_units as f64, usize::MAX),
                Some(pos) => {
                    let folds = max_chunks.div_ceil(num_units);
                    let active = max_chunks.min(num_units);
                    let util = max_chunks as f64 / (folds * num_units) as f64;
                    (folds, active, util, pos)
                }
            };

        // Odometer: temporal loops in directive order, the spatial fold (if
        // any) at the first spatial map's position.
        let mut ordered = ALL_DIMS.map(|d| views.view(d));
        ordered.sort_by_key(|v| v.pos);
        let is_loop = |v: &DimView| {
            if v.spatial {
                v.pos == first_spatial_pos && folds > 1
            } else {
                v.trips > 1
            }
        };
        let mut loops = Vec::with_capacity(ordered.iter().filter(|v| is_loop(v)).count());
        for v in ordered {
            if !is_loop(v) {
                continue;
            }
            let (dims, trips) = if v.spatial {
                let fold = spatial().map(|s| (s.dim, s.step * num_units)).collect();
                (fold, folds)
            } else {
                (LoopDims::one(v.dim, v.step), v.trips)
            };
            loops.push(LoopNode {
                dims,
                trips,
                spatial_fold: v.spatial,
                pos: v.pos,
            });
        }
        let total_steps = loops.iter().map(|l| l.trips).product();

        let output_spatial = classify_output_spatial(&views, coupling, active_units);

        LevelCtx {
            views,
            loops,
            num_units,
            active_units,
            utilization,
            total_steps,
            output_spatial,
        }
    }

    /// MACs one unit performs in one steady time step (dense).
    pub fn macs_per_unit_step(&self) -> u64 {
        let v = |d: Dim| self.views.view(d).chunk;
        v(Dim::N) * v(Dim::K) * v(Dim::C) * v(Dim::R) * v(Dim::Y) * v(Dim::S) * v(Dim::X)
    }

    /// `true` when tensor `kind` differs across units in a step
    /// (spatially distributed rather than multicast).
    pub fn varies_spatially(&self, coupling: &Coupling, kind: TensorKind) -> bool {
        match kind {
            TensorKind::Output => self.output_spatial == OutputSpatial::Varies,
            _ => self.views.iter().any(|v| {
                v.spatial
                    && (coupling.is_coupled(kind, v.dim)
                        || (kind == TensorKind::Input
                            && v.dim.is_filter_window()
                            && coupling.has_window_on_partner(v.dim)))
            }),
        }
    }

    /// Fraction of per-unit operand data that is *distinct* across the
    /// active units, `union / (units × per-unit)`, accounting for halo
    /// overlap between neighbours (≤ 1; 1 when chunks are disjoint).
    pub fn spatial_sharing_ratio(&self, coupling: &Coupling, kind: TensorKind) -> f64 {
        debug_assert!(kind.is_operand());
        let u = self.active_units;
        if u <= 1 {
            return 1.0;
        }
        let mut ratio = 1.0f64;
        for d in maestro_dnn::ALL_DIMS {
            let v = self.views.view(d);
            if !v.spatial {
                continue;
            }
            let (f, delta) =
                if kind == TensorKind::Input && d.is_input_spatial() && coupling.has_window_on(d) {
                    // Input windows shift by stride×step per unit; R/S spatial
                    // shifts are handled on their own axis below.
                    (
                        self.views.fp_factor(coupling, kind, d),
                        self.views.strides.of(d) * v.step,
                    )
                } else if kind == TensorKind::Input
                    && d.is_filter_window()
                    && coupling.has_window_on_partner(d)
                {
                    let Some(axis) = d.window_partner() else {
                        continue;
                    };
                    (self.views.fp_factor(coupling, kind, axis), v.step)
                } else if coupling.is_coupled(kind, d) {
                    (v.chunk, v.step)
                } else {
                    continue;
                };
            if delta >= f {
                continue; // disjoint chunks: no sharing on this axis
            }
            let union = f + (u - 1) * delta;
            ratio *= union as f64 / (u * f) as f64;
        }
        ratio
    }
}

/// Classify output behavior across units: categorical output dims
/// (N/K/C/no-window Y/X) vary when spatially mapped; window axes vary when
/// the net per-unit shift `stride·ΔY − ΔR` is nonzero (row-stationary's
/// co-mapped `Y`+`R` cancels to zero ⇒ spatial reduction).
fn classify_output_spatial(
    views: &LevelViews,
    coupling: &Coupling,
    active_units: u64,
) -> OutputSpatial {
    if active_units <= 1 {
        return OutputSpatial::NotParallel;
    }
    let mut varies = false;
    for d in maestro_dnn::ALL_DIMS {
        let v = views.view(d);
        if !v.spatial || !coupling.is_coupled(TensorKind::Output, d) {
            continue;
        }
        if d.is_input_spatial() && coupling.has_window_on(d) {
            let Some(partner) = d.window_partner() else {
                continue;
            };
            let pv = views.view(partner);
            let shift = v.step as i64 - if pv.spatial { pv.step as i64 } else { 0 };
            if shift != 0 {
                varies = true;
            }
        } else if d.is_filter_window() && coupling.has_window_on_partner(d) {
            // Handled on the partner axis: an R/S-only spatial map is pure
            // reduction (the complete-output window is anchored by Y/X).
        } else {
            varies = true;
        }
    }
    if varies {
        OutputSpatial::Varies
    } else {
        OutputSpatial::Reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator};
    use maestro_ir::Style;

    fn conv_layer() -> Layer {
        Layer::new(
            "c",
            Operator::conv2d(),
            LayerDims::square(1, 64, 64, 226, 3),
        )
    }

    fn build(style: Style, pes: u64) -> Vec<LevelCtx> {
        bind(&conv_layer(), &style.dataflow(), pes).unwrap().1
    }

    #[test]
    fn kcp_structure() {
        let ctx = build(Style::KCP, 256);
        assert_eq!(ctx.len(), 2);
        let top = &ctx[0];
        // K spatial: 64 chunks over 4 clusters => 16 folds.
        assert_eq!(top.num_units, 4);
        assert_eq!(top.active_units, 4);
        let fold = top.loops.iter().find(|l| l.spatial_fold).expect("K fold");
        assert_eq!(fold.trips, 16);
        // Y and X advance one output position at a time: 224 trips each.
        let y = top.views.view(Dim::Y);
        assert_eq!((y.chunk, y.step, y.total, y.trips), (1, 1, 224, 224));
        // C=64 fits one chunk: not a loop.
        assert_eq!(top.views.view(Dim::C).trips, 1);
        assert_eq!(top.total_steps, 16 * 224 * 224);
        // Outputs vary across clusters (distinct K).
        assert_eq!(top.output_spatial, OutputSpatial::Varies);

        let leaf = &ctx[1];
        assert_eq!(leaf.num_units, 64);
        assert_eq!(
            leaf.macs_per_unit_step(),
            9,
            "3x3 window, one pixel, one channel"
        );
        // C spatial within the cluster: outputs spatially reduced.
        assert_eq!(leaf.output_spatial, OutputSpatial::Reduced);
        assert_eq!(leaf.total_steps, 1);
    }

    #[test]
    fn yrp_inner_is_row_stationary_reduction() {
        let ctx = build(Style::YRP, 255);
        let leaf = &ctx[1];
        assert_eq!(leaf.num_units, 3);
        // Y and R co-spatial with equal steps: reduction, not variation.
        assert_eq!(leaf.output_spatial, OutputSpatial::Reduced);
        assert_eq!(
            leaf.macs_per_unit_step(),
            2 * 2 * 3,
            "K2*C2? no: K2,C2,S3 => 12"
        );
    }

    #[test]
    fn mac_totals_are_preserved() {
        let layer = conv_layer();
        let exact = layer.total_macs() as f64;
        for style in Style::ALL {
            let ctx = build(style, 256);
            // Π over levels of (steps × units × utilization) × leaf MACs.
            let mut total = ctx.last().expect("at least one level").macs_per_unit_step() as f64;
            for c in &ctx {
                total *= c.total_steps as f64 * c.num_units as f64 * c.utilization;
            }
            let ratio = total / exact;
            assert!(
                (0.99..1.35).contains(&ratio),
                "{style}: model {total} vs exact {exact} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn input_varies_under_channel_partitioning() {
        let ctx = build(Style::CP, 256);
        let coupling = Coupling::conv2d();
        let top = &ctx[0];
        assert!(
            top.varies_spatially(&coupling, TensorKind::Input),
            "C spatial"
        );
        assert!(top.varies_spatially(&coupling, TensorKind::Weight));
        assert_eq!(
            top.output_spatial,
            OutputSpatial::Reduced,
            "C-P reduces over C"
        );
    }

    #[test]
    fn xp_halo_sharing() {
        let ctx = build(Style::XP, 256);
        let top = &ctx[0];
        let coupling = Coupling::conv2d();
        assert!(top.varies_spatially(&coupling, TensorKind::Input));
        // Adjacent units' input windows overlap by S-1 = 2 of 3 columns.
        let ratio = top.spatial_sharing_ratio(&coupling, TensorKind::Input);
        assert!(ratio < 0.5, "halo sharing should be strong: {ratio}");
        // Weights are multicast (not coupled to X).
        assert!(!top.varies_spatially(&coupling, TensorKind::Weight));
        // Each unit owns distinct output columns.
        assert_eq!(top.output_spatial, OutputSpatial::Varies);
    }

    #[test]
    fn no_spatial_map_means_one_active_unit() {
        let layer = conv_layer();
        let df = maestro_ir::Dataflow::builder("seq")
            .temporal(1, 1, Dim::K)
            .build();
        let (_, ctxs) = bind(&layer, &df, 16).unwrap();
        let ctx = &ctxs[0];
        assert_eq!(ctx.active_units, 1);
        assert_eq!(ctx.output_spatial, OutputSpatial::NotParallel);
        assert!(ctx.utilization < 0.1);
    }
}
