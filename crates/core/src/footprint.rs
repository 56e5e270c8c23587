//! Tensor footprints and overlap arithmetic over per-level dimension views.
//!
//! Maps on the input-spatial dimensions `Y`/`X` are canonicalized into
//! *output-coordinate* windows: a `TemporalMap(Sz(R), 1) Y` is a window of
//! one output row advancing one row per step. All per-step footprints
//! derive from these views:
//!
//! * output rows per step = the `Y` view's output-chunk;
//! * input rows per step  = `stride × (out_chunk − 1) + R_chunk`
//!   (the receptive field of the output chunk under the current filter
//!   chunk);
//! * weight rows per step = the `R` view's chunk.
//!
//! Filter-window dimensions (`R`/`S`) never change the output footprint —
//! iterating them is pure reduction. This matches the behaviour of all the
//! paper's dataflows (Table 3, Figures 5 and 6) including co-spatial
//! `Y`+`R` mappings (row stationary), where each PE's single-row psum
//! belongs to the cluster-shared output row.

use maestro_dnn::layer::out_extent;
use maestro_dnn::{Coupling, Dim, TensorKind, ALL_DIMS};
use serde::{Deserialize, Serialize};

/// Spatial strides of the bound layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Strides {
    /// Vertical stride.
    pub y: u64,
    /// Horizontal stride.
    pub x: u64,
}

impl Strides {
    /// Unit strides.
    pub const ONE: Strides = Strides { y: 1, x: 1 };

    /// Stride along `d` (1 for non-spatial dims).
    pub fn of(&self, d: Dim) -> u64 {
        match d {
            Dim::Y => self.y,
            Dim::X => self.x,
            _ => 1,
        }
    }
}

/// The per-level view of one dimension's map, in canonical coordinates:
/// dimension indices for `N/K/C/R/S`, *output* positions for `Y/X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DimView {
    /// The dimension.
    pub dim: Dim,
    /// `true` if spatially mapped at this level.
    pub spatial: bool,
    /// Position of the map in the level's directive order.
    pub pos: usize,
    /// Chunk size per unit/time-step (output positions for `Y`/`X`).
    pub chunk: u64,
    /// Advance per trip / per unit (output positions for `Y`/`X`).
    pub step: u64,
    /// Total extent at this level (output positions for `Y`/`X`).
    pub total: u64,
    /// Number of chunks covering `total`.
    pub trips: u64,
}

/// Every footprint factor of one level and the footprints they multiply
/// into: the per-level table the reuse stage reads for each transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprints {
    /// [`LevelViews::fp_factor`] at `[kind as usize][dim.index()]`.
    pub(crate) factor: [[u64; 7]; 3],
    /// [`LevelViews::footprint`] at `[kind as usize]`.
    pub(crate) total: [u64; 3],
}

/// The seven dimension views of one cluster level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelViews {
    views: [DimView; 7],
    /// Layer strides.
    pub strides: Strides,
}

impl LevelViews {
    /// Build from an array indexed in canonical dimension order.
    pub fn new(views: [DimView; 7], strides: Strides) -> Self {
        LevelViews { views, strides }
    }

    /// The view of dimension `d`.
    pub fn view(&self, d: Dim) -> &DimView {
        &self.views[d.index()]
    }

    /// Iterate the views in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &DimView> + '_ {
        self.views.iter()
    }

    /// The filter-window partner chunk used to derive input receptive
    /// fields: the `R` (or `S`) chunk for axis `Y` (or `X`).
    fn partner_chunk(&self, d: Dim) -> u64 {
        match d.window_partner() {
            Some(p) => self.view(p).chunk,
            None => 1,
        }
    }

    /// Footprint factor of dimension `d` for tensor `kind` (1 when
    /// uncoupled).
    pub fn fp_factor(&self, coupling: &Coupling, kind: TensorKind, d: Dim) -> u64 {
        if !coupling.is_coupled(kind, d) {
            return 1;
        }
        let v = self.view(d);
        match kind {
            TensorKind::Input if d.is_input_spatial() && coupling.has_window_on(d) => {
                // Receptive field of the output chunk. When the stride
                // exceeds the filter chunk, the rows between consecutive
                // output anchors are never touched, so each extra output
                // adds only `filter` rows, not `stride`.
                let f = self.partner_chunk(d);
                self.strides.of(d).min(f) * (v.chunk - 1) + f
            }
            TensorKind::Output => {
                if d.is_filter_window() && coupling.has_window_on_partner(d) {
                    1 // folded into the Y/X half
                } else {
                    v.chunk
                }
            }
            _ => v.chunk,
        }
    }

    /// Full footprint (elements) of tensor `kind` per unit per step.
    pub fn footprint(&self, coupling: &Coupling, kind: TensorKind) -> u64 {
        ALL_DIMS
            .iter()
            .map(|&d| self.fp_factor(coupling, kind, d))
            .product()
    }

    /// The footprint factor of every (tensor, dimension) pair and the
    /// three footprints, each total multiplied in canonical dimension order.
    pub(crate) fn footprints(&self, coupling: &Coupling) -> Footprints {
        let mut fp = Footprints {
            factor: [[1; 7]; 3],
            total: [1; 3],
        };
        for k in TensorKind::ALL {
            for d in ALL_DIMS {
                let f = self.fp_factor(coupling, k, d);
                fp.factor[k as usize][d.index()] = f;
                fp.total[k as usize] *= f;
            }
        }
        fp
    }

    /// Footprint overlap factor along `d` when its view advances by
    /// `advance` steps-worth of positions (i.e. `advance` in the view's
    /// canonical coordinates). Returns the full factor for uncoupled
    /// dimensions.
    pub fn overlap_factor(
        &self,
        coupling: &Coupling,
        kind: TensorKind,
        d: Dim,
        advance: u64,
    ) -> u64 {
        if kind == TensorKind::Input && d.is_filter_window() && coupling.has_window_on_partner(d) {
            // Advancing the filter chunk slides the input receptive field
            // along the *partner* axis; the returned value is the partner
            // axis' surviving extent (callers must not also multiply the
            // partner's own factor for the same transition). With a gapped
            // window every output's disjoint field slides at once.
            if let Some(axis) = d.window_partner() {
                let v = self.view(axis);
                let slide = if self.strides.of(axis) > self.partner_chunk(axis) {
                    v.chunk * advance
                } else {
                    advance
                };
                return self.fp_factor(coupling, kind, axis).saturating_sub(slide);
            }
        }
        if !coupling.is_coupled(kind, d) {
            return 1;
        }
        let f = self.fp_factor(coupling, kind, d);
        match kind {
            TensorKind::Input if d.is_input_spatial() && coupling.has_window_on(d) => {
                // The input window slides by stride × out-positions; with a
                // gapped window (stride > filter chunk) each advanced
                // output retires only its own `filter` rows.
                let per = self.strides.of(d).min(self.partner_chunk(d));
                f.saturating_sub(per * advance)
            }
            TensorKind::Output if d.is_filter_window() && coupling.has_window_on_partner(d) => {
                // Pure reduction: outputs unchanged.
                f
            }
            _ => f.saturating_sub(advance),
        }
    }
}

/// Helpers on [`Coupling`] for window-pair checks.
pub trait CouplingExt {
    /// `true` when the operation slides a window along input axis `d`
    /// (`Y` or `X`): both halves of the pair are output-coupled.
    fn has_window_on(&self, d: Dim) -> bool;
    /// `true` when filter dimension `d` (`R`/`S`) participates in a window
    /// with its input-axis partner.
    fn has_window_on_partner(&self, d: Dim) -> bool;
}

impl CouplingExt for Coupling {
    fn has_window_on(&self, d: Dim) -> bool {
        match d.window_partner() {
            Some(p) => self.output.contains(d) && self.output.contains(p),
            None => false,
        }
    }

    fn has_window_on_partner(&self, d: Dim) -> bool {
        match d.window_partner() {
            Some(p) => self.output.contains(d) && self.output.contains(p),
            None => false,
        }
    }
}

/// Convert a map on dimension `d` (sizes in input coordinates for `Y`/`X`)
/// into view coordinates: `(chunk, step, total)`.
///
/// For `Y`/`X` with window semantics: `chunk` is the output extent of the
/// mapped window under the level's *full* filter extent, `step` is
/// `offset / stride` output positions (min 1), and `total` is the level's
/// total output extent. For everything else the map is passed through
/// (clamped to the level size).
pub fn to_view_coords(
    coupling: &Coupling,
    d: Dim,
    map_size: u64,
    map_offset: u64,
    level_dim_size: u64,
    level_filter_size: u64,
    stride: u64,
) -> (u64, u64, u64) {
    if d.is_input_spatial() && coupling.has_window_on(d) {
        let total = out_extent(level_dim_size, level_filter_size, stride).max(1);
        let chunk = out_extent(map_size, level_filter_size, stride)
            .max(1)
            .min(total);
        // An input-space advance of `map_offset` rows moves the first output
        // whose window is fully resident by ceil(offset/stride): rounding
        // down would overlap adjacent output chunks and double-count outputs
        // whose input rows the next chunk does not actually hold.
        let step = map_offset.div_ceil(stride).max(1);
        (chunk, step, total)
    } else {
        let chunk = map_size.min(level_dim_size);
        (chunk, map_offset, level_dim_size)
    }
}

/// Number of chunk positions covering `total` with `(chunk, step)`.
pub fn num_trips(chunk: u64, step: u64, total: u64) -> u64 {
    if chunk >= total {
        1
    } else {
        (total - chunk).div_ceil(step) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::coupling::Coupling;

    fn view(dim: Dim, spatial: bool, chunk: u64, step: u64, total: u64) -> DimView {
        DimView {
            dim,
            spatial,
            pos: dim.index(),
            chunk,
            step,
            total,
            trips: num_trips(chunk, step, total),
        }
    }

    /// KC-P-like leaf views: one output pixel, full 3x3 window, C=1, K=1.
    fn kcp_leaf() -> LevelViews {
        LevelViews::new(
            [
                view(Dim::N, false, 1, 1, 1),
                view(Dim::K, false, 1, 1, 1),
                view(Dim::C, true, 1, 1, 64),
                view(Dim::Y, false, 1, 1, 1),
                view(Dim::X, false, 1, 1, 1),
                view(Dim::R, false, 3, 3, 3),
                view(Dim::S, false, 3, 3, 3),
            ],
            Strides::ONE,
        )
    }

    #[test]
    fn kcp_leaf_footprints() {
        let v = kcp_leaf();
        let c = Coupling::conv2d();
        // Input: 1 channel x (1-1+3) x (1-1+3) receptive field.
        assert_eq!(v.footprint(&c, TensorKind::Input), 9);
        assert_eq!(v.footprint(&c, TensorKind::Weight), 9);
        assert_eq!(v.footprint(&c, TensorKind::Output), 1);
    }

    #[test]
    fn window_overlap_in_output_coords() {
        // Y view: chunk of 4 output rows advancing 4; R chunk 3, stride 1.
        let mut views = kcp_leaf();
        views.views[Dim::Y.index()] = view(Dim::Y, false, 4, 4, 16);
        let c = Coupling::conv2d();
        // Input rows per step: 1*(4-1)+3 = 6.
        assert_eq!(views.fp_factor(&c, TensorKind::Input, Dim::Y), 6);
        // Advancing 4 output rows keeps 6-4 = 2 input rows (halo).
        assert_eq!(views.overlap_factor(&c, TensorKind::Input, Dim::Y, 4), 2);
        // Output rows don't overlap when advancing by the full chunk.
        assert_eq!(views.overlap_factor(&c, TensorKind::Output, Dim::Y, 4), 0);
        // Advancing by 1 keeps 3 of 4 output rows.
        assert_eq!(views.overlap_factor(&c, TensorKind::Output, Dim::Y, 1), 3);
    }

    #[test]
    fn filter_advance_is_pure_reduction_for_outputs() {
        let mut views = kcp_leaf();
        views.views[Dim::R.index()] = view(Dim::R, false, 1, 1, 3);
        let c = Coupling::conv2d();
        // Output footprint unchanged by an R advance.
        assert_eq!(views.overlap_factor(&c, TensorKind::Output, Dim::R, 1), 1);
        // Input receptive field slides with R: factor 1*(1-1)+1=1, keep 0.
        assert_eq!(views.fp_factor(&c, TensorKind::Input, Dim::Y), 1);
        assert_eq!(views.overlap_factor(&c, TensorKind::Input, Dim::R, 1), 0);
        // Weights are refetched (chunk 1, advance 1).
        assert_eq!(views.overlap_factor(&c, TensorKind::Weight, Dim::R, 1), 0);
    }

    #[test]
    fn strided_views() {
        let c = Coupling::conv2d();
        // Layer Y=11, R=3, stride 2 => out total 5.
        let (chunk, step, total) = to_view_coords(&c, Dim::Y, 7, 2, 11, 3, 2);
        assert_eq!(total, 5);
        assert_eq!(chunk, 3, "window of 7 input rows = 3 output rows");
        assert_eq!(step, 1, "offset 2 / stride 2");
        // Non-window dim passes through.
        let (chunk, step, total) = to_view_coords(&c, Dim::C, 64, 64, 256, 3, 1);
        assert_eq!((chunk, step, total), (64, 64, 256));
        // Oversized map clamps.
        let (chunk, _, _) = to_view_coords(&c, Dim::C, 512, 512, 256, 3, 1);
        assert_eq!(chunk, 256);
    }

    #[test]
    fn gemm_views_ignore_window_logic() {
        let c = Coupling::gemm();
        let (chunk, step, total) = to_view_coords(&c, Dim::Y, 1, 1, 1, 1, 1);
        assert_eq!((chunk, step, total), (1, 1, 1));
        let v = LevelViews::new(
            [
                view(Dim::N, false, 2, 2, 8),
                view(Dim::K, true, 4, 4, 64),
                view(Dim::C, false, 16, 16, 128),
                view(Dim::Y, false, 1, 1, 1),
                view(Dim::X, false, 1, 1, 1),
                view(Dim::R, false, 1, 1, 1),
                view(Dim::S, false, 1, 1, 1),
            ],
            Strides::ONE,
        );
        assert_eq!(v.footprint(&c, TensorKind::Weight), 4 * 16);
        assert_eq!(v.footprint(&c, TensorKind::Input), 2 * 16);
        assert_eq!(v.footprint(&c, TensorKind::Output), 2 * 4);
    }

    #[test]
    fn trips_arithmetic() {
        assert_eq!(num_trips(3, 1, 8), 6);
        assert_eq!(num_trips(8, 8, 8), 1);
        assert_eq!(num_trips(3, 2, 8), 4);
        assert_eq!(num_trips(10, 1, 8), 1);
    }
}
