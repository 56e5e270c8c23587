//! The performance and cost analysis engines (paper §4.2–§4.4, Figure 8).
//!
//! Each cluster level is analyzed by enumerating its odometer *transition
//! classes* — Init, plus "loop `j` advances (inner loops reset)" for every
//! temporal loop — in closed form: each class has an occurrence count and a
//! per-occurrence traffic/delay, so runtime and activity counts come out as
//! occurrence-weighted sums without walking every time step. Levels compose
//! recursively: the inner level's steady-state pass runtime is the outer
//! level's per-step compute delay (double-buffered), exactly the paper's
//! multi-cluster scheme (§4.4).

use crate::counts::ActivityCounts;
use crate::footprint::{Footprints, Strides};
use crate::level::{LevelCtx, LoopNode, OutputSpatial};
use maestro_dnn::{Coupling, Density, Dim, TensorKind};

/// Whether a tensor's footprint depends on a dimension's position (i.e.
/// resetting that dimension invalidates the tensor's resident data).
pub fn depends(coupling: &Coupling, kind: TensorKind, d: Dim) -> bool {
    use crate::footprint::CouplingExt;
    match kind {
        TensorKind::Output => {
            // Outputs are anchored to the Y/X windows; R/S iteration is
            // pure reduction.
            coupling.is_coupled(kind, d)
                && !(d.is_filter_window() && coupling.has_window_on_partner(d))
        }
        TensorKind::Input => {
            coupling.is_coupled(kind, d)
                || (d.is_filter_window() && coupling.has_window_on_partner(d))
        }
        TensorKind::Weight => coupling.is_coupled(kind, d),
    }
}

/// What happens to a dimension on a given odometer transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DimState {
    /// The dimension's chunk advances by this many view-coordinate steps.
    Advance(u64),
    /// An inner loop: the dimension resets to its first chunk, jumping
    /// back this many view positions.
    Reset(u64),
    /// Outer loop or unlooped: the chunk is unchanged.
    Hold,
}

/// Every dimension's state, in canonical order, when loop `j` advances and
/// all inner loops reset.
fn dim_states(loops: &[LoopNode], j: usize) -> [DimState; 7] {
    let mut states = [DimState::Hold; 7];
    // A reset is a *negative* advance: the dim jumps from its last chunk
    // position back to the first, a span of adv × (trips − 1) view
    // positions per inner loop it appears in. Short sliding windows wrap
    // to a nearby position and keep most of their footprint resident.
    for l in &loops[j + 1..] {
        for &(d, adv) in l.dims.iter() {
            let span = adv * l.trips.saturating_sub(1);
            let st = &mut states[d.index()];
            *st = match *st {
                DimState::Reset(s) => DimState::Reset(s + span),
                _ => DimState::Reset(span),
            };
        }
    }
    for &(d, adv) in loops[j].dims.iter() {
        states[d.index()] = DimState::Advance(adv);
    }
    states
}

/// New elements of `kind` needed (per unit) when a loop advances and all
/// inner loops reset, each dimension moving as `states` says.
///
/// When `own_only` is set (used for the output tensor's psum accounting),
/// inner-loop resets are treated as unchanged: the result then measures the
/// change caused by this loop's *own* dimensions, so pure-reduction loops
/// (whose advance revisits the same outputs) report zero and are classified
/// as reduction loops rather than output loops.
fn new_data(
    strides: Strides,
    fp: &Footprints,
    coupling: &Coupling,
    kind: TensorKind,
    states: &[DimState; 7],
    own_only: bool,
) -> f64 {
    use crate::footprint::CouplingExt;
    let factor = &fp.factor[kind as usize];
    let mut overlap = 1.0f64;
    let st = |d: Dim| match states[d.index()] {
        DimState::Reset(_) if own_only => DimState::Hold,
        s => s,
    };
    for d in maestro_dnn::ALL_DIMS {
        // The input's receptive field along Y/X depends on both halves of
        // the window pair; handle the pair on the Y/X visit and skip R/S.
        if kind == TensorKind::Input && d.is_input_spatial() && coupling.has_window_on(d) {
            let Some(p) = d.window_partner() else {
                continue;
            };
            let f = factor[d.index()] as f64;
            let disp = |s: DimState| -> i64 {
                match s {
                    DimState::Advance(a) => a as i64,
                    DimState::Reset(span) => -(span as i64),
                    DimState::Hold => 0,
                }
            };
            let shift = (strides.of(d) as i64 * disp(st(d)) + disp(st(p))).unsigned_abs();
            overlap *= (f - shift as f64).max(0.0);
            continue;
        }
        if kind == TensorKind::Input && d.is_filter_window() && coupling.has_window_on_partner(d) {
            continue; // handled on the partner axis above
        }
        if !coupling.is_coupled(kind, d) {
            continue;
        }
        if kind == TensorKind::Output && d.is_filter_window() && coupling.has_window_on_partner(d) {
            continue; // pure reduction: outputs anchored to the Y/X window
        }
        // On the axes left, a chunk moved by `a` keeps `factor − a` of its
        // positions (`LevelViews::overlap_factor`'s plain case).
        overlap *= match st(d) {
            DimState::Hold => factor[d.index()],
            DimState::Advance(a) | DimState::Reset(a) => factor[d.index()].saturating_sub(a),
        } as f64;
        if overlap == 0.0 {
            break;
        }
    }
    (fp.total[kind as usize] as f64 - overlap).max(0.0)
}

/// Product of the per-dimension coverage ratios `total / (trips × chunk)`
/// of the dimensions `keep` selects, in canonical order.
fn coverage_over(ratios: [f64; 7], keep: impl Fn(Dim) -> bool) -> f64 {
    maestro_dnn::ALL_DIMS
        .into_iter()
        .zip(ratios)
        .filter(|&(d, _)| keep(d))
        .map(|(_, r)| r)
        .product()
}

/// Per-occurrence NoC transfer delay for `elements` through a
/// (bandwidth, latency) pipe.
fn transfer_bw(bandwidth: f64, avg_latency: f64, elements: f64) -> f64 {
    if elements <= 0.0 {
        0.0
    } else {
        (elements / bandwidth).ceil() + avg_latency
    }
}

/// One non-Init odometer transition class of a level: how often a loop
/// advances across one pass, and how many elements cross the level
/// boundary when it does. Pure data-volume quantities — NoC-independent —
/// computed once by [`analyze_level_static`] and re-priced for every NoC
/// configuration by [`level_perf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Occurrences of this transition across one pass of the level.
    pub occurrences: f64,
    /// Elements entering the level per occurrence (operands + psum
    /// refetches).
    pub ingress: f64,
    /// Elements leaving the level per occurrence (outputs + psum spills).
    pub egress: f64,
}

/// The NoC-independent analysis of one cluster level (inner levels
/// included): reuse and buffer results — activity counts, MACs, capacity
/// requirements — plus the transition table that [`level_perf`] prices
/// under a concrete NoC pipe. Everything here is a pure function of
/// (layer, dataflow, PE count, reuse support, vector width); nothing
/// depends on NoC bandwidth or latency.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStatic {
    /// Per-loop transition classes, in loop order.
    pub transitions: Vec<Transition>,
    /// Elements fetched on the Init transition.
    pub init_ingress: f64,
    /// Resident output elements drained at the boundary after the last
    /// step (priced only at the top level).
    pub drain_elems: f64,
    /// Temporal edge-padding correction applied to the pass runtime.
    pub coverage_temporal: f64,
    /// Pipeline-fill latency of the reduction network (charged on Init).
    pub reduction_latency: f64,
    /// Pipeline-fill latency of the multicast network (charged on Init).
    pub multicast_latency: f64,
    /// Per-step compute delay at the leaf (vector-width-quantized MACs);
    /// zero above the leaf, where the inner level's steady pass runtime
    /// takes its place.
    pub leaf_delay: f64,
    /// Whether this is the innermost level.
    pub is_leaf: bool,
    /// Whether this is the outermost level.
    pub is_top: bool,
    /// Activity counts for one pass, inner levels included.
    pub counts: ActivityCounts,
    /// Dense MACs per pass.
    pub macs_dense: f64,
    /// Density-scaled MACs per pass.
    pub macs_effective: f64,
    /// Required L1 capacity per PE, in elements (double-buffered).
    pub l1_per_pe: u64,
    /// Data staged per steady step across this level's units, in elements.
    pub staging: u64,
    /// Replication fanout of (input, weight) data down to PE L1s.
    pub fanout: [f64; 2],
    /// Output elements committed upstream across one pass.
    pub out_egress: f64,
    /// Output elements still resident in the units at the end of a pass.
    pub out_resident: f64,
}

/// The NoC-dependent results of one level under a concrete (bandwidth,
/// latency) pipe, derived from a [`LevelStatic`] by [`level_perf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelPerf {
    /// Pass runtime assuming the pipeline is already warm.
    pub runtime_steady: f64,
    /// Pass runtime including the initial fill.
    pub runtime_first: f64,
    /// Peak NoC bandwidth demand (elements/cycle) to avoid stalls.
    pub peak_bw: f64,
    /// Steady-state per-step compute delay at this level.
    pub compute_delay: f64,
}

/// The slice of an inner level's results its parent reads during *static*
/// analysis: the NoC-independent quantities that cross the level boundary.
/// [`LevelStatic::carry`] produces one.
#[derive(Debug, Clone, Copy)]
pub struct LevelCarry<'a> {
    /// Inner pass activity counts.
    pub counts: &'a ActivityCounts,
    /// Dense MACs per inner pass.
    pub macs_dense: f64,
    /// Density-scaled MACs per inner pass.
    pub macs_effective: f64,
    /// Inner L1 requirement, in elements.
    pub l1_per_pe: u64,
    /// Inner (input, weight) replication fanout.
    pub fanout: [f64; 2],
    /// Inner per-pass output egress, in boundary elements.
    pub out_egress: f64,
    /// Inner resident outputs at end of pass.
    pub out_resident: f64,
}

impl LevelStatic {
    /// The boundary view a parent level's static analysis reads.
    pub fn carry(&self) -> LevelCarry<'_> {
        LevelCarry {
            counts: &self.counts,
            macs_dense: self.macs_dense,
            macs_effective: self.macs_effective,
            l1_per_pe: self.l1_per_pe,
            fanout: self.fanout,
            out_egress: self.out_egress,
            out_resident: self.out_resident,
        }
    }
}

/// Price a level's static analysis under a concrete NoC pipe.
///
/// This is the performance half of a level's analysis, composed with
/// [`analyze_level_static`] per level from the innermost out: the static
/// half runs once and `level_perf` re-prices it, which is what lets a
/// sweep re-price one static analysis across a whole NoC-bandwidth grid.
pub fn level_perf(
    st: &LevelStatic,
    inner: Option<&LevelPerf>,
    bandwidth: u64,
    avg_latency: u64,
) -> LevelPerf {
    let bw = bandwidth as f64;
    let lat = avg_latency as f64;
    let (compute_delay, compute_first) = match inner {
        Some(p) => (p.runtime_steady, p.runtime_first + st.reduction_latency),
        None => (st.leaf_delay, st.leaf_delay + st.reduction_latency),
    };
    let mut runtime_accum = 0.0f64;
    let mut peak_bw = 0.0f64;
    let mut last_outstanding = compute_delay; // steady stand-in when loop-free
    for t in &st.transitions {
        let ingress_delay = transfer_bw(bw, lat, t.ingress);
        let egress_delay = transfer_bw(bw, lat, t.egress);
        let outstanding = compute_delay.max(ingress_delay).max(egress_delay);
        runtime_accum += t.occurrences * outstanding;
        last_outstanding = outstanding;
        let headroom = (compute_delay - lat).max(1.0);
        peak_bw = peak_bw.max((t.ingress + t.egress) / headroom);
    }
    // Init transition: everything fetched, nothing overlapped. The fill is
    // one stream from the L2 down through the level hierarchy, so its
    // serialization is charged once, at the top boundary; inner levels see
    // data already in flight and add only their network's pipeline-fill
    // latency.
    let init_transfer = if st.is_top {
        transfer_bw(bw, lat, st.init_ingress)
    } else {
        0.0
    };
    let init_delay = init_transfer + st.multicast_latency + compute_first;
    peak_bw = peak_bw.max(st.init_ingress / (compute_delay - lat).max(1.0));
    // Final drain of the last resident outputs, serialized at the L2
    // boundary after the last step (matches the simulator's epilogue).
    let final_drain = if st.is_top {
        (st.drain_elems / bw).ceil()
    } else {
        0.0
    };
    let runtime_first = init_delay + runtime_accum * st.coverage_temporal + final_drain;
    let runtime_steady = runtime_accum * st.coverage_temporal + last_outstanding;
    let peak_bw = peak_bw.max(inner.map(|p| p.peak_bw).unwrap_or(0.0));
    LevelPerf {
        runtime_steady,
        runtime_first,
        peak_bw,
        compute_delay,
    }
}

/// The NoC-independent half of a level's analysis: reuse/buffer analysis
/// plus the transition table. `support` and `vector_width` are the only
/// accelerator inputs this half reads — deliberately *not* the whole
/// [`Accelerator`](maestro_hw::Accelerator), so the signature itself proves the result cannot
/// depend on the NoC configuration.
///
/// `is_top` marks the outermost level (its ingress/egress is charged to
/// the L2 scratchpad); the innermost level (when `inner` is `None`)
/// charges L1 fills and per-MAC operand accesses.
#[allow(clippy::too_many_lines)]
pub fn analyze_level_static(
    ctx: &LevelCtx,
    inner: Option<LevelCarry<'_>>,
    support: maestro_hw::ReuseSupport,
    vector_width: u64,
    coupling: &Coupling,
    density: Density,
    is_top: bool,
) -> LevelStatic {
    let is_leaf = inner.is_none();
    let active = ctx.active_units;
    let activef = active as f64;

    // Footprints per unit per step, and the factors they multiply.
    let fp = ctx.views.footprints(coupling);
    let [fp_in, fp_w, fp_out] = fp.total.map(|f| f as f64);

    // Traffic multipliers across units.
    let operand_mult = |k: TensorKind| -> f64 {
        if ctx.varies_spatially(coupling, k) {
            match support.multicast {
                maestro_hw::SpatialMulticast::None => activef,
                _ => activef * ctx.spatial_sharing_ratio(coupling, k),
            }
        } else {
            support.multicast.upstream_reads(active) as f64
        }
    };
    let in_mult = operand_mult(TensorKind::Input);
    let w_mult = operand_mult(TensorKind::Weight);
    let out_mult = match ctx.output_spatial {
        OutputSpatial::Varies => activef,
        OutputSpatial::Reduced => support.reduction.upstream_writes(active) as f64,
        OutputSpatial::NotParallel => 1.0,
    };
    let d_in = density.input;
    let d_w = density.weight;
    let d_out = density.output;

    // Per-step compute delay. Multicast/reduction network latencies are
    // pipeline-fill costs: they delay the first result, not the steady
    // state, so they are charged on the Init transition only.
    let reduction_latency = if ctx.output_spatial == OutputSpatial::Reduced {
        support.reduction.extra_latency(active) as f64
    } else {
        0.0
    };
    let multicast_latency = support.multicast.extra_latency(active) as f64;
    let leaf_delay = if is_leaf {
        let macs = ctx.macs_per_unit_step() as f64 * density.mac_fraction();
        (macs / vector_width as f64).ceil().max(1.0)
    } else {
        0.0
    };

    // Coverage corrects for edge padding: each dimension's chunk grid
    // covers `trips × chunk ≥ total` positions, but only `total` carry
    // real work. Per-step compute and traffic are both roughly
    // proportional to the chunk-size product, so scaling the
    // occurrence-weighted sums by the coverage ratio reproduces the exact
    // totals (and makes the multi-level MAC aggregate exact: inner
    // extents are the outer level's steady chunks, so products telescope).
    let ratios = maestro_dnn::ALL_DIMS.map(|d| {
        let v = ctx.views.view(d);
        v.total as f64 / (v.trips as f64 * v.chunk as f64)
    });
    let coverage = coverage_over(ratios, |_| true);
    // Runtime only shrinks with *temporal* edge padding: a spatial edge
    // chunk runs on fewer/smaller units in parallel, taking the same time.
    let coverage_temporal = coverage_over(ratios, |d| !ctx.views.view(d).spatial);
    // Traffic shrinks only along dimensions the tensor's footprint actually
    // depends on: a K edge chunk moves fewer weights and outputs but the
    // same inputs.
    let coverage_of = |kind: TensorKind| coverage_over(ratios, |d| depends(coupling, kind, d));
    let cov_in = coverage_of(TensorKind::Input);
    let cov_w = coverage_of(TensorKind::Weight);
    let cov_out = coverage_of(TensorKind::Output);

    // Transition classes.
    let mut counts = ActivityCounts::new();
    let mut transitions = Vec::with_capacity(ctx.loops.len());
    // Per-unit ingress totals for one pass, per tensor (for L1 fills).
    let mut per_unit_in = fp_in;
    let mut per_unit_w = fp_w;
    // Per-unit egress totals (for L1 drains).
    let mut per_unit_out = fp_out; // final flush of resident outputs
                                   // Aggregated L2/noc traffic for one pass.
    let mut l2_in = fp_in * in_mult * d_in;
    let mut l2_w = fp_w * w_mult * d_w;
    let mut final_write = fp_out * out_mult * d_out; // completed outputs
    let mut spill_write = 0.0f64; // partial-sum spills (always hit L2)
    let mut spill_read = 0.0f64; // partial-sum refetches

    let mut outer_cycles = 1.0f64; // Π of trips of loops outer than j
    let mut outer_red = 1.0f64; // Π of trips of reduction loops outer than j
    for (j, l) in ctx.loops.iter().enumerate() {
        let occurrences = (l.trips - 1) as f64 * outer_cycles;
        let states = dim_states(&ctx.loops, j);
        let new =
            |kind, own_only| new_data(ctx.views.strides, &fp, coupling, kind, &states, own_only);
        let new_in = new(TensorKind::Input, false);
        let new_w = new(TensorKind::Weight, false);
        let out_new = new(TensorKind::Output, true);
        let is_output_loop = out_new > 0.0;

        let mut ingress = new_in * in_mult * d_in + new_w * w_mult * d_w;
        let mut egress = 0.0f64;
        if is_output_loop {
            let moved = out_new * out_mult * d_out;
            if outer_red > 1.0 {
                // Partial sums spill upstream and are re-fetched on every
                // revisit (all outer-reduction iterations but the first).
                let refetch = moved * (outer_red - 1.0) / outer_red;
                ingress += refetch;
                egress += moved;
                spill_write += moved * occurrences;
                spill_read += refetch * occurrences;
            } else {
                egress += moved;
                final_write += moved * occurrences;
            }
            per_unit_out += out_new * occurrences;
        }

        transitions.push(Transition {
            occurrences,
            ingress,
            egress,
        });

        per_unit_in += new_in * occurrences;
        per_unit_w += new_w * occurrences;
        l2_in += new_in * in_mult * d_in * occurrences;
        l2_w += new_w * w_mult * d_w * occurrences;

        outer_cycles *= l.trips as f64;
        if !is_output_loop
            && l.dims
                .iter()
                .any(|(d, _)| coupling.reduction.contains(*d) || d.is_filter_window())
        {
            // A reduction revisit recomputes the same outputs. This level's
            // output loops see no turnover, but outputs the levels *below*
            // could not keep resident (folded through the PEs mid-pass)
            // were already committed upstream as partials: each revisit
            // fetches them back, replicated across this level's units. The
            // matching writes are already part of the commit stream below.
            if let Some(r) = inner {
                let nonresident = (r.out_egress - r.out_resident).max(0.0);
                spill_read += nonresident * out_mult * occurrences;
            }
            outer_red *= l.trips as f64;
        }
    }

    // Init-transition fetch volume; [`level_perf`] prices it (and the
    // final output drain) under the concrete NoC.
    let init_ingress = fp_in * in_mult * d_in + fp_w * w_mult * d_w;

    // ---- Activity counts ----
    let passes_per_step =
        ctx.total_steps as f64 * ctx.num_units as f64 * ctx.utilization * coverage;
    let macs_dense;
    let macs_effective;
    if let Some(r) = inner {
        counts.add_scaled(r.counts, passes_per_step);
        macs_dense = r.macs_dense * passes_per_step;
        macs_effective = r.macs_effective * passes_per_step;
    } else {
        macs_dense = ctx.macs_per_unit_step() as f64 * passes_per_step;
        macs_effective = macs_dense * density.mac_fraction();
        counts.macs = macs_effective;
        // Per-MAC operand and psum accesses at the PE register/L1 level.
        counts.l1_read[TensorKind::Input] += macs_effective;
        counts.l1_read[TensorKind::Weight] += macs_effective;
        counts.l1_read[TensorKind::Output] += macs_effective;
        counts.l1_write[TensorKind::Output] += macs_effective;
        // Output drains and their NoC traversals happen once per pass at
        // the PEs, whatever level commits them upstream. Per-unit totals
        // replicate by the *average* spatial occupancy: with folds the last
        // wrap runs fewer units, which `utilization` already measures.
        let avg_active = ctx.num_units as f64 * ctx.utilization;
        counts.l1_read[TensorKind::Output] += per_unit_out * d_out * avg_active * cov_out;
        counts.noc[TensorKind::Output] += (final_write + spill_write + spill_read) * cov_out;
    }
    // Replication fanout from this level's boundary to PE L1s: multicast
    // tensors land in every sub-unit's L1, distributed tensors split.
    let child_fanout = inner.map(|r| r.fanout).unwrap_or([1.0, 1.0]);
    let step_fanout = |k: TensorKind, below: f64| -> f64 {
        if ctx.varies_spatially(coupling, k) {
            below
        } else {
            activef * below
        }
    };
    let fanout = [
        step_fanout(TensorKind::Input, child_fanout[0]),
        step_fanout(TensorKind::Weight, child_fanout[1]),
    ];
    // When the inner level folds outputs through its units mid-pass it
    // cannot hold them resident: every pass streams its full egress across
    // this boundary (there is no intermediate output buffer between the
    // PE array and the L2). Otherwise outputs accumulate in place and only
    // this level's own turnover commits.
    let out_commit = match inner {
        Some(r) if r.out_egress > r.out_resident => {
            r.out_egress * out_mult * ctx.total_steps as f64
        }
        _ => final_write,
    };
    // Partial-sum spills always reach the L2, regardless of level.
    counts.l2_write[TensorKind::Output] += spill_write * cov_out;
    counts.l2_read[TensorKind::Output] += spill_read * cov_out;
    if is_top {
        // Operand fetches and completed-output commits are charged once,
        // at the boundary that actually touches the L2. L1 fills and their
        // NoC deliveries are the same stream, replicated by the multicast
        // fanout of the levels below (data held stationary by outer loops
        // is *not* re-filled every inner pass).
        counts.l2_read[TensorKind::Input] += l2_in * cov_in;
        counts.l2_read[TensorKind::Weight] += l2_w * cov_w;
        counts.l2_write[TensorKind::Output] += out_commit * cov_out;
        let avg_active = ctx.num_units as f64 * ctx.utilization;
        let fill_in = per_unit_in * d_in * avg_active * child_fanout[0] * cov_in;
        let fill_w = per_unit_w * d_w * avg_active * child_fanout[1] * cov_w;
        counts.l1_write[TensorKind::Input] += fill_in;
        counts.l1_write[TensorKind::Weight] += fill_w;
        counts.noc[TensorKind::Input] += fill_in;
        counts.noc[TensorKind::Weight] += fill_w;
    }

    // Buffer requirements.
    let l1_per_pe = if is_leaf {
        2 * (fp_in as u64 + fp_w as u64) + 2 * fp_out as u64
    } else {
        inner.map(|r| r.l1_per_pe).unwrap_or(0)
    };
    let out_staged = match ctx.output_spatial {
        OutputSpatial::Varies => fp_out * activef,
        _ => fp_out,
    };
    let staging = (2.0
        * (fp_in * activef * ctx.spatial_sharing_ratio(coupling, TensorKind::Input)
            + fp_w * activef * ctx.spatial_sharing_ratio(coupling, TensorKind::Weight)
            + out_staged)) as u64;

    LevelStatic {
        transitions,
        init_ingress,
        drain_elems: fp_out * out_mult * d_out,
        coverage_temporal,
        reduction_latency,
        multicast_latency,
        leaf_delay,
        is_leaf,
        is_top,
        counts,
        macs_dense,
        macs_effective,
        l1_per_pe,
        staging,
        fanout,
        out_egress: out_commit * cov_out,
        out_resident: inner
            .map(|r| r.out_resident)
            .unwrap_or(fp_out * out_mult * d_out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{Layer, LayerDims, Operator};
    use maestro_hw::Accelerator;
    use maestro_ir::{resolve, Style};

    /// A layer's top level, composed as the staged pipeline composes it:
    /// static halves from the innermost level out, then their prices.
    struct TopLevel {
        st: LevelStatic,
        runtime_first: f64,
        peak_bw: f64,
    }

    impl std::ops::Deref for TopLevel {
        type Target = LevelStatic;
        fn deref(&self) -> &LevelStatic {
            &self.st
        }
    }

    fn analyze_layer(layer: &Layer, style: Style, acc: &Accelerator) -> TopLevel {
        let r = resolve(&style.dataflow(), layer, acc.num_pes).unwrap();
        let coupling = layer.coupling();
        let ctxs: Vec<LevelCtx> = r
            .levels
            .iter()
            .map(|l| LevelCtx::build(&r, l, &coupling))
            .collect();
        let mut stats: Vec<LevelStatic> = Vec::new();
        for (i, ctx) in ctxs.iter().enumerate().rev() {
            let st = analyze_level_static(
                ctx,
                stats.last().map(LevelStatic::carry),
                acc.support,
                acc.vector_width,
                &coupling,
                layer.density,
                i == 0,
            );
            stats.push(st);
        }
        let mut perf: Option<LevelPerf> = None;
        for st in &stats {
            perf = Some(level_perf(
                st,
                perf.as_ref(),
                acc.noc.bandwidth,
                acc.noc.avg_latency,
            ));
        }
        let perf = perf.expect("at least one level");
        TopLevel {
            st: stats.pop().expect("at least one level"),
            runtime_first: perf.runtime_first,
            peak_bw: perf.peak_bw,
        }
    }

    fn small_conv() -> Layer {
        Layer::new("c", Operator::conv2d(), LayerDims::square(1, 16, 16, 18, 3))
    }

    #[test]
    fn mac_counts_match_layer_for_all_styles() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        let exact = layer.total_macs() as f64;
        for style in Style::ALL {
            let r = analyze_layer(&layer, style, &acc);
            let ratio = r.macs_dense / exact;
            assert!(
                (0.99..1.4).contains(&ratio),
                "{style}: {} vs {exact}",
                r.macs_dense
            );
        }
    }

    #[test]
    fn runtime_respects_compute_roofline() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let r = analyze_layer(&layer, style, &acc);
            let roofline = layer.total_macs() as f64 / acc.peak_macs_per_cycle() as f64;
            assert!(
                r.runtime_first >= roofline * 0.9,
                "{style}: runtime {} below roofline {roofline}",
                r.runtime_first
            );
        }
    }

    #[test]
    fn l2_reads_cover_each_tensor_at_least_once() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let r = analyze_layer(&layer, style, &acc);
            let inputs = layer.tensor_elements(TensorKind::Input) as f64;
            let weights = layer.tensor_elements(TensorKind::Weight) as f64;
            let outputs = layer.tensor_elements(TensorKind::Output) as f64;
            assert!(
                r.counts.l2_read[TensorKind::Input] >= inputs * 0.9,
                "{style}: input reads {} < {inputs}",
                r.counts.l2_read[TensorKind::Input]
            );
            assert!(
                r.counts.l2_read[TensorKind::Weight] >= weights * 0.9,
                "{style}: weight reads {} < {weights}",
                r.counts.l2_read[TensorKind::Weight]
            );
            assert!(
                r.counts.l2_write[TensorKind::Output] >= outputs * 0.9,
                "{style}: output writes {} < {outputs}",
                r.counts.l2_write[TensorKind::Output]
            );
        }
    }

    #[test]
    fn weight_stationary_reads_weights_close_to_once() {
        // KC-P holds weights stationary across the Y/X sweep: weight L2
        // reads should be near the tensor size (x C-loop revisits = 1 here).
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        let r = analyze_layer(&layer, Style::KCP, &acc);
        let weights = layer.tensor_elements(TensorKind::Weight) as f64;
        let reads = r.counts.l2_read[TensorKind::Weight];
        assert!(
            reads <= weights * 1.5,
            "KC-P weight reads {reads} should be ~{weights}"
        );
    }

    #[test]
    fn no_local_reuse_dataflow_reads_inputs_many_times() {
        // C-P refetches activations for every output channel.
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        let cp = analyze_layer(&layer, Style::CP, &acc);
        let inputs = layer.tensor_elements(TensorKind::Input) as f64;
        assert!(
            cp.counts.l2_read[TensorKind::Input] > inputs * 4.0,
            "C-P input reads {} should be many times {inputs}",
            cp.counts.l2_read[TensorKind::Input]
        );
    }

    #[test]
    fn psum_spills_appear_when_channels_exceed_cluster() {
        // KC-P with C=128 > 64: the C loop is outer reduction => spills.
        let layer = Layer::new(
            "deep",
            Operator::conv2d(),
            LayerDims::square(1, 16, 128, 10, 3),
        );
        let acc = Accelerator::builder(256).build();
        let r = analyze_layer(&layer, Style::KCP, &acc);
        let outputs = layer.tensor_elements(TensorKind::Output) as f64;
        assert!(
            r.counts.l2_write[TensorKind::Output] > outputs * 1.5,
            "expected psum spill traffic, got {}",
            r.counts.l2_write[TensorKind::Output]
        );
        assert!(r.counts.l2_read[TensorKind::Output] > 0.0);
    }

    #[test]
    fn removing_multicast_inflates_l2_reads() {
        let layer = small_conv();
        let full = Accelerator::builder(64).build();
        let none = Accelerator::builder(64)
            .support(maestro_hw::ReuseSupport::none())
            .build();
        // X-P multicasts weights to all columns.
        let a = analyze_layer(&layer, Style::XP, &full);
        let b = analyze_layer(&layer, Style::XP, &none);
        assert!(
            b.counts.l2_read[TensorKind::Weight] > a.counts.l2_read[TensorKind::Weight] * 4.0,
            "no-multicast should massively inflate weight reads: {} vs {}",
            b.counts.l2_read[TensorKind::Weight],
            a.counts.l2_read[TensorKind::Weight]
        );
    }

    #[test]
    fn sparsity_scales_compute_and_traffic() {
        let mut layer = small_conv();
        let acc = Accelerator::builder(64).build();
        let dense = analyze_layer(&layer, Style::KCP, &acc);
        layer.density = maestro_dnn::Density {
            input: 0.5,
            weight: 0.5,
            output: 1.0,
        };
        let sparse = analyze_layer(&layer, Style::KCP, &acc);
        assert!((sparse.macs_effective / dense.macs_effective - 0.25).abs() < 0.01);
        assert!(
            sparse.counts.l2_read[TensorKind::Input]
                < dense.counts.l2_read[TensorKind::Input] * 0.6
        );
    }

    #[test]
    fn buffer_requirements_are_positive_and_bounded() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let r = analyze_layer(&layer, style, &acc);
            assert!(r.l1_per_pe > 0, "{style}");
            assert!(r.staging > 0, "{style}");
            assert!(r.peak_bw > 0.0, "{style}");
            // L1 must not exceed the whole problem.
            let total: u64 = TensorKind::ALL
                .iter()
                .map(|&k| layer.tensor_elements(k))
                .sum();
            assert!(r.l1_per_pe <= 2 * total, "{style}: {}", r.l1_per_pe);
        }
    }
}
