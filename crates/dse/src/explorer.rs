//! The design-space explorer.
//!
//! Sweeps PE count × mapping variant × NoC bandwidth with one cost-model
//! evaluation each (buffer capacities do not change the schedule, only
//! validity and access energy), then expands each evaluation across the
//! L1/L2 capacity grid. Like the paper's tool, whole sub-spaces that
//! cannot meet the area/power budget (or the dataflow's buffer
//! requirement) are *skipped in bulk* without individual evaluation, which
//! is what produces effective rates of >0.1M designs/second.
//!
//! The sweep is split by PE count into independent work units (one per
//! entry of [`SweepSpace::pes`]) that the runner in [`crate::units`] runs
//! in index order and folds with its merge. Every `explore*` entry point
//! runs as a session under a [`SessionCtl`] (plain explores pass
//! [`SessionCtl::default`]).
//! Units need no memo table: under [`EvalMode::Staged`] each mapping's
//! [`StagedAnalysis`] is built once and priced for every bandwidth, and
//! every price call counts in [`DseStats::evaluated`]. A whole-model unit
//! prices only the first layer of each [`ShapeKey`]; later layers of the
//! same shape take its prices and count in [`DseStats::memo_hits`].

use crate::cancel::{SessionCtl, SessionError, SessionReport};
use crate::checkpoint::{sweep_fingerprint, Checkpoint};
use crate::space::{Constraints, SweepSpace};
use crate::units::{merge_partials, run_units};
use maestro_core::{AnalysisError, Priced, ShapeKey, StagedAnalysis};
use maestro_dnn::Layer;
use maestro_hw::{Accelerator, AreaModel, PowerModel};
use maestro_ir::Dataflow;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How the sweep invokes the cost model.
///
/// Both modes produce bit-identical results (they share one analysis
/// implementation — see [`maestro_core::StagedAnalysis`]). `Staged` is
/// the sweep; `Full` is the differential oracle that equivalence tests
/// and benchmarks check it against. Because the mode cannot change a
/// result, the checkpoint sweep fingerprint leaves it out: a checkpoint
/// written under one mode resumes under the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// No stage reuse: every price call runs the whole pipeline, like a
    /// fused `analyze()` per (mapping, bandwidth) grid point.
    Full,
    /// Staged evaluation: the NoC-independent stages (tensor, reuse,
    /// buffer, off-chip) are computed once per mapping and shared across
    /// the whole NoC-bandwidth axis; only the cheap performance stage
    /// re-runs per price call.
    #[default]
    Staged,
}

impl std::fmt::Display for EvalMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalMode::Full => write!(f, "full"),
            EvalMode::Staged => write!(f, "staged"),
        }
    }
}

/// One valid design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// PE count.
    pub pes: u64,
    /// NoC bandwidth (elements/cycle).
    pub noc_bw: u64,
    /// Placed per-PE L1 capacity (bytes).
    pub l1_bytes: u64,
    /// Placed L2 capacity (bytes).
    pub l2_bytes: u64,
    /// Mapping (dataflow variant) name, shared by every point a work unit
    /// builds under that mapping.
    pub mapping: Arc<str>,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Power (mW).
    pub power_mw: f64,
    /// Runtime (cycles).
    pub runtime: f64,
    /// Throughput (MACs/cycle).
    pub throughput: f64,
    /// Energy (pJ, CACTI-style table at the placed capacities).
    pub energy: f64,
    /// Energy-delay product.
    pub edp: f64,
}

/// A work unit that panicked during a sweep and was dropped from the
/// merged result (see [`crate::units`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedUnit {
    /// Index of the failing unit (its position in [`SweepSpace::pes`]).
    pub unit: usize,
    /// The panic payload, rendered as a string.
    pub message: String,
}

/// Aggregate statistics of one exploration run (paper Figure 13(c)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseStats {
    /// Design points covered (including bulk-skipped ones).
    pub explored: u64,
    /// Price calls actually performed, one per (mapping, bandwidth) point
    /// including ones that returned an analysis error; a whole-model sweep
    /// makes them only for the first layer of each shape.
    pub evaluated: u64,
    /// Valid design points found.
    pub valid: u64,
    /// Price calls a whole-model sweep skipped, one per mapping of a layer
    /// that took the prices of an earlier layer of the same shape. A layer
    /// sweep skips none, so its price calls all count in `evaluated`.
    pub memo_hits: u64,
    /// Design points dropped because an objective evaluated to NaN or
    /// infinity (the finite-value gate).
    pub nonfinite_dropped: u64,
    /// Design points rejected by the capacity filter (placed L1 or L2 too
    /// small for the mapping's buffer requirement), before any cost was
    /// computed.
    pub capacity_skipped: u64,
    /// Points accepted into a per-unit Pareto front during the sweep
    /// (some are later displaced by dominating points).
    pub pareto_inserted: u64,
    /// Points rejected from a per-unit Pareto front on arrival (dominated
    /// by or tying an existing member).
    pub pareto_rejected: u64,
    /// Work units that panicked and contributed nothing to the merged
    /// result, in unit-index order. A non-empty list means the sweep
    /// *degraded* (its coverage is incomplete) but completed.
    pub quarantined: Vec<QuarantinedUnit>,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Effective exploration rate (designs/second).
    pub rate: f64,
}

impl DseStats {
    /// All-zero statistics.
    pub const fn empty() -> Self {
        DseStats {
            explored: 0,
            evaluated: 0,
            valid: 0,
            memo_hits: 0,
            nonfinite_dropped: 0,
            capacity_skipped: 0,
            pareto_inserted: 0,
            pareto_rejected: 0,
            quarantined: Vec::new(),
            seconds: 0.0,
            rate: 0.0,
        }
    }

    /// Share of price calls skipped as repeats, `memo_hits` over
    /// `memo_hits + evaluated`, in `[0, 1]` (zero when there were none).
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups = self.memo_hits + self.evaluated;
        if lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / lookups as f64
        }
    }
}

/// Result of one exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseResult {
    /// Pareto-optimal points in the (runtime, energy) plane.
    pub pareto: Vec<DesignPoint>,
    /// Highest-throughput valid design.
    pub best_throughput: Option<DesignPoint>,
    /// Lowest-energy valid design.
    pub best_energy: Option<DesignPoint>,
    /// Lowest-EDP valid design.
    pub best_edp: Option<DesignPoint>,
    /// A subsample of valid points (for scatter plots), at most
    /// [`Explorer::sample_cap`] entries.
    pub sample: Vec<DesignPoint>,
    /// Run statistics.
    pub stats: DseStats,
    /// `true` when the sweep was interrupted (signal, deadline, explicit
    /// cancel) before every work unit completed: the frontier and stats
    /// cover only the completed units. Always `false` for uninterrupted
    /// runs.
    pub partial: bool,
}

/// The result of one work unit (one PE count's slice of the sweep),
/// before merging. See [`crate::units`] for the merge rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Counters for this slice (`seconds`/`rate` stay zero).
    pub stats: DseStats,
    /// Pareto front of this slice.
    pub pareto: Vec<DesignPoint>,
    /// Highest-throughput point of this slice.
    pub best_throughput: Option<DesignPoint>,
    /// Lowest-energy point of this slice.
    pub best_energy: Option<DesignPoint>,
    /// Lowest-EDP point of this slice.
    pub best_edp: Option<DesignPoint>,
    /// Every 61st valid point of this slice.
    pub sample: Vec<DesignPoint>,
}

impl Partial {
    /// An empty partial.
    pub fn new() -> Self {
        Partial {
            stats: DseStats::empty(),
            pareto: Vec::new(),
            best_throughput: None,
            best_energy: None,
            best_edp: None,
            sample: Vec::new(),
        }
    }
}

impl Default for Partial {
    fn default() -> Self {
        Partial::new()
    }
}

/// Design-space exploration driver.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Hardware sweep space.
    pub space: SweepSpace,
    /// Area/power budget.
    pub constraints: Constraints,
    /// Component area model.
    pub area_model: AreaModel,
    /// Component power model.
    pub power_model: PowerModel,
    /// Cap on the retained scatter sample.
    pub sample_cap: usize,
    /// DRAM access energy per element (pJ). When the placed L2 cannot hold
    /// the layer's working set, a fraction of L2 refills spill to DRAM —
    /// this is what makes *larger* scratchpads energy-favourable and gives
    /// the paper's SRAM-heavy energy-optimized designs (§5.2).
    pub dram_pj: f64,
    /// Element width in bytes, threaded into every built accelerator. The
    /// capacity grids are in **bytes** while the cost model's buffer
    /// requirements are in **elements**, so validity compares
    /// `capacity / precision_bytes` against the requirement (exactly as
    /// [`Accelerator::l1_elements`] does).
    pub precision_bytes: u64,
    /// How the cost model is invoked (staged delta-evaluation vs. the
    /// full-analysis oracle). Results are bit-identical either way.
    pub eval: EvalMode,
}

impl Explorer {
    /// An explorer over `space` with the paper's constraint point, the
    /// synthetic 28 nm component models and 1-byte (int8) elements.
    pub fn new(space: SweepSpace) -> Self {
        Explorer {
            space,
            constraints: Constraints::default(),
            area_model: AreaModel::default(),
            power_model: PowerModel::default(),
            sample_cap: 4096,
            dram_pj: 100.0,
            precision_bytes: 1,
            eval: EvalMode::default(),
        }
    }

    /// An accelerator at one sweep point, carrying the explorer's element
    /// precision.
    fn accelerator(&self, pes: u64, bw: u64, l1_l2: Option<(u64, u64)>) -> Accelerator {
        let mut b = Accelerator::builder(pes)
            .noc_bandwidth(bw)
            .precision_bytes(self.precision_bytes);
        if let Some((l1, l2)) = l1_l2 {
            b = b.l1_bytes(l1).l2_bytes(l2);
        }
        b.build()
    }

    /// Byte capacity `bytes` expressed in elements.
    fn elements(&self, bytes: u64) -> u64 {
        bytes / self.precision_bytes.max(1)
    }

    /// Explore `layer` across the hardware space × `mappings`, one work
    /// unit per PE count. (The paper runs four DSEs concurrently on its
    /// workstation; a caller that wants parallelism runs whole sweeps side
    /// by side.)
    ///
    /// A panicking work unit does not abort the sweep: it is quarantined
    /// (see [`DseStats::quarantined`]) while the remaining units
    /// complete.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Space`] when the sweep space has an empty or
    /// zero-containing grid (a default session fails no other way).
    pub fn explore(&self, layer: &Layer, mappings: &[Dataflow]) -> Result<DseResult, SessionError> {
        self.explore_session(layer, mappings, &SessionCtl::default())
            .map(|(result, _)| result)
    }

    /// One layer work unit: the full mapping × bandwidth × capacity sweep
    /// at a single PE count.
    fn explore_unit_inner(&self, pes: u64, layer: &Layer, mappings: &[Dataflow]) -> Partial {
        let mut part = Partial::new();
        let caps_per_eval = self.space.capacity_cells() as u64;
        // The space is validated at the `explore*` boundary; an empty grid
        // here would mean a caller bypassed it, so degrade to an empty
        // partial instead of panicking.
        let (Some(&min_l1), Some(&min_l2), Some(&min_bw)) = (
            self.space.l1_bytes.iter().min(),
            self.space.l2_bytes.iter().min(),
            self.space.noc_bw.iter().min(),
        ) else {
            return part;
        };

        // Bulk skip: if even the smallest configuration at this PE count
        // blows the budget, the whole subtree is invalid.
        let min_acc = self.accelerator(pes, min_bw, Some((min_l1, min_l2)));
        let subtree = caps_per_eval * (self.space.noc_bw.len() * mappings.len()) as u64;
        if self.area_model.total_area(&min_acc) > self.constraints.max_area_mm2
            || self.power_model.total_power(&min_acc) > self.constraints.max_power_mw
        {
            part.stats.explored += subtree;
            return part;
        }
        // Capacities do not change the schedule, so the analysis runs at
        // the reference capacities and is expanded below.
        let acc = self.accelerator(pes, min_bw, None);
        let lat = acc.noc.avg_latency;
        let ctx = UnitCtx::new(self, pes);
        part.sample.reserve_exact(self.sample_capacity(subtree));
        // One shared name per mapping, borrowed by every candidate.
        let names: Vec<Arc<str>> = mappings.iter().map(|m| Arc::from(m.name())).collect();
        let mut front = ParetoFront::new();
        let mut ecells = EnergyCells::new(self.space.l1_bytes.len(), self.space.l2_bytes.len());
        let mut best = Best::new();
        for (mapping, name) in mappings.iter().zip(&names) {
            // Staged evaluation builds the mapping's static stages once and
            // prices every bandwidth from them; the full oracle builds per
            // price call.
            let staged = match self.eval {
                EvalMode::Staged => Some(StagedAnalysis::build(layer, mapping, &acc)),
                EvalMode::Full => None,
            };
            // Placed energy depends only on (mapping, L1, L2): activity
            // counts and tensor sizes are NoC-independent, so the energy
            // table is filled once per mapping, from the first priced
            // bandwidth, and shared across the bandwidth axis.
            let mut filled = false;
            for (b_idx, &bw) in self.space.noc_bw.iter().enumerate() {
                part.stats.explored += caps_per_eval;
                part.stats.evaluated += 1;
                let priced = match &staged {
                    Some(Ok(built)) => built.price(bw, lat),
                    Some(Err(e)) => Err(e.clone()),
                    None => StagedAnalysis::build(layer, mapping, &acc)
                        .and_then(|built| built.price(bw, lat)),
                };
                let priced = match priced {
                    Ok(p) => p,
                    Err(AnalysisError::NonFinite { .. }) => {
                        part.stats.nonfinite_dropped += caps_per_eval;
                        continue;
                    }
                    Err(_) => continue,
                };
                if !filled {
                    ecells.fill(self, std::slice::from_ref(&priced), &ctx);
                    filled = true;
                }
                let eval = Eval {
                    runtime: priced.runtime,
                    throughput: priced.throughput(),
                    l1_req: priced.l1_per_pe_elems,
                    l2_req: priced.l2_staging_elems,
                };
                self.expand_capacities(
                    pes, b_idx, name, eval, &ecells, &ctx, &mut part, &mut front, &mut best,
                );
            }
        }
        close_unit(&mut part, front, best);
        part
    }

    /// Room for a unit's sample: one every 61st valid point of the
    /// `explored` designs it covers, at most [`Explorer::sample_cap`].
    fn sample_capacity(&self, explored: u64) -> usize {
        usize::try_from(explored / 61 + 1).map_or(self.sample_cap, |n| n.min(self.sample_cap))
    }

    /// Expand one evaluation at (PE count, bandwidth) — a layer's priced
    /// point under one mapping, or a whole model's per-layer bests — across
    /// the L1/L2 capacity grid, accumulating into `part`, `front` and
    /// `best`. This is the one capacity loop of every sweep.
    ///
    /// The kernel counts cells instead of visiting them. A row's cells
    /// below the L2 requirement are the same in every row (`ctx.l2_fit`);
    /// masked with them, the row's two bitsets in `ctx` give by popcount
    /// the cells that reach the finite-value gate and the *valid bits*,
    /// the ones whose area and power are finite too. A row is *counted*
    /// when every valid bit certainly passes the gate, and a counted row
    /// is *quiet* when no valid bit can win an objective or enter the
    /// front: its valid bits add to `valid` and `pareto_rejected` at once,
    /// and each sample landing in it is its k-th valid bit. Every other
    /// row walks its valid bits in ascending L2 order — a counted row past
    /// the gate, any other through it — so the scan-order-dependent
    /// `pareto_inserted` stays exact. The `#[cfg(test)]` per-cell loop
    /// `expand_reference` is the oracle the kernel is checked against.
    ///
    /// A walked cell's objective comparisons hit register-resident keys,
    /// and the dominance scan collapses to one scalar compare because
    /// runtime is constant across this whole expansion. Only points that
    /// enter a best slot, the front or the sample get a compact [`Cand`]
    /// (with the recomposed area/power); front and best candidates stay
    /// compact until [`close_unit`], and only samples become owned
    /// `DesignPoint`s here.
    #[allow(clippy::too_many_arguments)]
    fn expand_capacities<'m>(
        &self,
        pes: u64,
        b_idx: usize,
        mapping: &'m Arc<str>,
        eval: Eval,
        ecells: &EnergyCells,
        ctx: &UnitCtx,
        part: &mut Partial,
        front: &mut ParetoFront<Cand<'m>>,
        best: &mut Best<'m>,
    ) {
        let l2_len = ctx.l2_elems.len();
        let words = ctx.words;
        if words == 0 {
            // An empty L2 grid has no cells to count.
            return;
        }
        let Eval {
            runtime,
            throughput,
            l1_req,
            l2_req,
        } = eval;
        let neg_tp = -throughput;
        let rt_tp_ok = runtime.is_finite() && throughput.is_finite();
        // `min_en <= e` is exactly the dominance verdict for a candidate
        // at this expansion's (constant) runtime; an accepted candidate
        // becomes the new minimum (see `ParetoFront::min_energy_leq_runtime`).
        let mut min_en = front.min_energy_leq_runtime(runtime);
        // Stats accumulate in locals (flushed below) so the row loop does
        // not read-modify-write `part.stats` fields.
        let mut valid = part.stats.valid;
        let mut rejected = 0u64;
        let mut skipped = 0u64;
        let mut dropped = 0u64;
        // The cells below the L2 requirement are the `short` smallest L2
        // capacities, the same cells in every row.
        let short = ctx.l2_sorted.partition_point(|&c| c < l2_req);
        let fit = &ctx.l2_fit[short * words..(short + 1) * words];
        // The unit's next sample position: the next multiple of 61 above
        // `valid`.
        let mut next_sample = valid - valid % 61 + 61;
        let cand = |i1: usize, i2: usize, energy: f64, edp: f64| {
            let (area, power) = ctx.area_power(b_idx, i1, i2);
            Cand {
                pes,
                bw: self.space.noc_bw[b_idx],
                l1: self.space.l1_bytes[i1],
                l2: self.space.l2_bytes[i2],
                mapping,
                area,
                power,
                runtime,
                throughput,
                energy,
                edp,
            }
        };
        let l1_len = ctx.l1_elems.len();
        let span = b_idx * l1_len * words..(b_idx + 1) * l1_len * words;
        let rows = ctx.l1_elems.iter().zip(
            ctx.budget[span.clone()]
                .chunks_exact(words)
                .zip(ctx.finite[span].chunks_exact(words)),
        );
        let energies = ecells.e.chunks_exact(l2_len).zip(
            ecells
                .rowmin
                .iter()
                .zip(&ecells.rowmax)
                .zip(&ecells.row_finite),
        );
        for (i1, ((&l1_cap, (budget, finite)), (erow, ((&lo, &hi), &row_finite)))) in
            rows.zip(energies).enumerate()
        {
            // The grid is in bytes, the requirement in elements.
            if l1_cap < l1_req {
                // Capacity below the mapping's requirement: the whole L2
                // row of the grid is skipped without costing.
                skipped += l2_len as u64;
                continue;
            }
            skipped += short as u64;
            let bits = ValidBits { finite, fit };
            // Budget-passing cells with a non-finite area or power fail
            // the finite-value gate whatever their energy.
            for ((&b, &f), &m) in budget.iter().zip(finite).zip(fit) {
                let lost = b & !f & m;
                if lost != 0 {
                    dropped += u64::from(lost.count_ones());
                }
            }
            let n = bits.count();
            if n == 0 {
                continue;
            }
            // Counted: runtime, throughput and every energy of the row are
            // finite, and so is EDP at both energy extremes (any cell's
            // EDP lies between), so every valid bit passes the gate.
            let counted = rt_tp_ok
                && row_finite != 0
                && (lo * runtime).is_finite()
                && (hi * runtime).is_finite();
            // No valid bit can win an objective or enter the front when a
            // lower bound `lo` on their energies clears each key: at a
            // non-negative runtime EDP is monotone in energy, so `lo`
            // bounds EDP too. A NaN (empty) best fails its `>=`, and
            // `min_en` stays infinite until a front member can dominate,
            // so an empty slot or front always forces the walk. The row
            // minimum is tried first, then the valid bits' own minimum.
            let quiet = |lo: f64| lo >= best.energy && lo * runtime >= best.edp && min_en <= lo;
            if counted
                && runtime >= 0.0
                && neg_tp >= best.neg_throughput
                && (quiet(lo) || quiet(bits.min_energy(erow)))
            {
                let row_start = valid;
                valid += n;
                rejected += n;
                // Samples landing in this row (valid counts row_start+1
                // ..=valid): the k-th valid bit is the cell the per-cell
                // loop would have pushed.
                while next_sample <= valid && part.sample.len() < self.sample_cap {
                    if let Some(i2) = bits.select(next_sample - row_start - 1) {
                        let e = erow[i2];
                        part.sample.push(cand(i1, i2, e, e * runtime).to_point());
                    }
                    next_sample += 61;
                }
                continue;
            }
            for i2 in bits.iter() {
                let e = erow[i2];
                let edp = e * runtime;
                // Finite-value gate, which every valid bit of a counted row
                // passes: drop-and-count rather than let a NaN objective
                // corrupt the front or the best slots.
                if !counted && (!rt_tp_ok || !e.is_finite() || !edp.is_finite()) {
                    dropped += 1;
                    continue;
                }
                valid += 1;
                // `!(k >= best)` is exactly `k.total_cmp(&best) == Less`
                // here: the candidate key is finite, an empty (NaN) best
                // loses every `>=`, and within each key family zeros share
                // one sign (energy/EDP are sums/products of non-negatives,
                // so +0; negated throughput of a non-negative is -0), so
                // the `-0 < +0` case of the total order cannot arise.
                // The negated form is deliberate (NaN must land on the
                // "wins" side), hence the lint allowance.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let wins_tp = !(neg_tp >= best.neg_throughput);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let wins_en = !(e >= best.energy);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let wins_edp = !(edp >= best.edp);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let accepted = !(min_en <= e);
                let sampled = valid.is_multiple_of(61) && part.sample.len() < self.sample_cap;
                if !(wins_tp | wins_en | wins_edp | accepted | sampled) {
                    rejected += 1;
                    continue;
                }
                // Slow path: the point matters — recompose it once.
                let c = cand(i1, i2, e, edp);
                if wins_tp {
                    best.neg_throughput = neg_tp;
                    best.by_throughput = Some(c);
                }
                if wins_en {
                    best.energy = e;
                    best.by_energy = Some(c);
                }
                if wins_edp {
                    best.edp = edp;
                    best.by_edp = Some(c);
                }
                if accepted {
                    front.accept(runtime, e, c);
                    min_en = e;
                    part.stats.pareto_inserted += 1;
                } else {
                    rejected += 1;
                }
                // Stratified subsample: every 61st valid point *of this
                // unit*, so the scatter spans the whole space instead of
                // its first corner — and so unit samples concatenate
                // deterministically (see `crate::units`).
                if sampled {
                    part.sample.push(c.to_point());
                }
            }
            next_sample = valid - valid % 61 + 61;
        }
        part.stats.valid = valid;
        part.stats.pareto_rejected += rejected;
        part.stats.capacity_skipped += skipped;
        part.stats.nonfinite_dropped += dropped;
    }

    /// The per-cell capacity loop the kernel replaced, kept as the oracle
    /// of `expand_capacities`: every cell of the grid in row-major order,
    /// its budget and finiteness verdicts recomposed from the full
    /// component sums, then the same gate and decisions as a walked row.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn expand_reference<'m>(
        &self,
        pes: u64,
        b_idx: usize,
        mapping: &'m Arc<str>,
        eval: Eval,
        ecells: &EnergyCells,
        ctx: &UnitCtx,
        part: &mut Partial,
        front: &mut ParetoFront<Cand<'m>>,
        best: &mut Best<'m>,
    ) {
        let l2_len = ctx.l2_elems.len();
        let Eval {
            runtime,
            throughput,
            l1_req,
            l2_req,
        } = eval;
        let neg_tp = -throughput;
        let rt_tp_ok = runtime.is_finite() && throughput.is_finite();
        let mut min_en = front.min_energy_leq_runtime(runtime);
        for (i1, &l1_cap) in ctx.l1_elems.iter().enumerate() {
            if l1_cap < l1_req {
                part.stats.capacity_skipped += l2_len as u64;
                continue;
            }
            for (i2, &l2_cap) in ctx.l2_elems.iter().enumerate() {
                if l2_cap < l2_req {
                    part.stats.capacity_skipped += 1;
                    continue;
                }
                let (area, power) = ctx.area_power(b_idx, i1, i2);
                if area > self.constraints.max_area_mm2 || power > self.constraints.max_power_mw {
                    continue;
                }
                let e = ecells.e[i1 * l2_len + i2];
                let edp = e * runtime;
                if !(area.is_finite()
                    && power.is_finite()
                    && rt_tp_ok
                    && e.is_finite()
                    && edp.is_finite())
                {
                    part.stats.nonfinite_dropped += 1;
                    continue;
                }
                part.stats.valid += 1;
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let wins_tp = !(neg_tp >= best.neg_throughput);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let wins_en = !(e >= best.energy);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let wins_edp = !(edp >= best.edp);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let accepted = !(min_en <= e);
                let sampled =
                    part.stats.valid.is_multiple_of(61) && part.sample.len() < self.sample_cap;
                let c = Cand {
                    pes,
                    bw: self.space.noc_bw[b_idx],
                    l1: self.space.l1_bytes[i1],
                    l2: self.space.l2_bytes[i2],
                    mapping,
                    area,
                    power,
                    runtime,
                    throughput,
                    energy: e,
                    edp,
                };
                if wins_tp {
                    best.neg_throughput = neg_tp;
                    best.by_throughput = Some(c);
                }
                if wins_en {
                    best.energy = e;
                    best.by_energy = Some(c);
                }
                if wins_edp {
                    best.edp = edp;
                    best.by_edp = Some(c);
                }
                if accepted {
                    front.accept(runtime, e, c);
                    min_en = e;
                    part.stats.pareto_inserted += 1;
                } else {
                    part.stats.pareto_rejected += 1;
                }
                if sampled {
                    part.sample.push(c.to_point());
                }
            }
        }
    }
}

/// One row's valid bits — its budget-passing, finite-cost cells that hold
/// the L2 requirement — as the word-wise AND of two L2-axis bitsets.
#[derive(Clone, Copy)]
struct ValidBits<'a> {
    finite: &'a [u64],
    fit: &'a [u64],
}

impl<'a> ValidBits<'a> {
    fn words(self) -> impl Iterator<Item = u64> + 'a {
        self.finite.iter().zip(self.fit).map(|(&a, &b)| a & b)
    }

    /// Number of valid bits.
    fn count(self) -> u64 {
        self.words().map(|w| u64::from(w.count_ones())).sum()
    }

    /// L2 indices of the valid bits, ascending.
    fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.words().enumerate().flat_map(|(j, mut w)| {
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(j * 64 + bit)
            })
        })
    }

    /// L2 index of the `k`-th valid bit (0-based), if there are more
    /// than `k`.
    fn select(self, mut k: u64) -> Option<usize> {
        for (j, mut w) in self.words().enumerate() {
            let ones = u64::from(w.count_ones());
            if k < ones {
                for _ in 0..k {
                    w &= w - 1;
                }
                return Some(j * 64 + w.trailing_zeros() as usize);
            }
            k -= ones;
        }
        None
    }

    /// The smallest energy among the valid bits of `erow`.
    fn min_energy(self, erow: &[f64]) -> f64 {
        self.iter().map(|i2| erow[i2]).fold(f64::INFINITY, f64::min)
    }
}

/// Per-unit expansion context: the capacity grids converted to elements
/// once, the area/power/energy models decomposed into per-axis component
/// tables, and every grid cell's budget verdict as L2-axis bitsets.
///
/// Area and power are sums of four independent components — PE array (L1
/// axis), shared L2, NoC (bandwidth axis), and reuse support — so one
/// table per axis replaces a full model evaluation (with its `powf`/`sqrt`
/// calls and `Accelerator` construction) per grid point. The component
/// values come from the *same* public model methods `total_area`/
/// `total_power` are built from, summed in the same order, so the
/// recomposed scalars are bit-identical to the per-point calls they
/// replace (pinned by `cost_decomposition_matches_full_model_calls`
/// below).
///
/// A bitset holds bit `i2 % 64` of word `i2 / 64` for L2 grid entry `i2`,
/// in as many `u64` words as the L2 grid needs, so every grid length takes
/// the one path.
struct UnitCtx {
    l1_elems: Vec<u64>,
    l2_elems: Vec<u64>,
    /// `num_pes as f64 * pe_area(..)` per L1 grid entry.
    a_l1: Vec<f64>,
    a_l2: Vec<f64>,
    a_bw: Vec<f64>,
    a_sup: f64,
    p_l1: Vec<f64>,
    p_l2: Vec<f64>,
    p_bw: Vec<f64>,
    p_sup: f64,
    /// CACTI-style per-access energies along the capacity axes:
    /// (l1_read, l1_write) per L1 entry, (l2_read, l2_write) per L2 entry.
    e_l1: Vec<(f64, f64)>,
    e_l2: Vec<(f64, f64)>,
    /// Capacity-independent per-access energies.
    e_mac: f64,
    e_noc: f64,
    /// `u64` words per L2-axis bitset.
    words: usize,
    /// Per-(bandwidth, L1 row) bitset of the cells inside the area/power
    /// budget, row `b_idx * l1_len + i1`. The test is the fused filter's
    /// `> max` pair, so a NaN cost *passes* here and is dropped by the
    /// finite-value gate, exactly as before.
    budget: Vec<u64>,
    /// The `budget` cells whose area and power are both finite.
    finite: Vec<u64>,
    /// The L2 grid in elements, ascending.
    l2_sorted: Vec<u64>,
    /// `l2_len + 1` bitsets of the L2 entries that hold a requirement:
    /// bitset `k` clears the `k` smallest entries, so a requirement that
    /// exactly `k` entries fall short of fits the cells of bitset `k`.
    l2_fit: Vec<u64>,
}

impl UnitCtx {
    fn new(ex: &Explorer, pes: u64) -> Self {
        // One reference accelerator supplies the unit-constant parameters
        // (vector width, precision, reuse support) exactly as the
        // per-point constructions did.
        let bw0 = ex.space.noc_bw.first().copied().unwrap_or(1);
        let acc0 = ex.accelerator(pes, bw0, None);
        let n = acc0.num_pes;
        let nf = n as f64;
        let a = &ex.area_model;
        let p = &ex.power_model;
        let e0 = maestro_hw::EnergyModel::cacti_28nm(0, 0);
        let (l1_len, l2_len) = (ex.space.l1_bytes.len(), ex.space.l2_bytes.len());
        let words = l2_len.div_ceil(64);
        let mut ctx = UnitCtx {
            l1_elems: ex.space.l1_bytes.iter().map(|&b| ex.elements(b)).collect(),
            l2_elems: ex.space.l2_bytes.iter().map(|&b| ex.elements(b)).collect(),
            a_l1: ex
                .space
                .l1_bytes
                .iter()
                .map(|&l1| nf * a.pe_area(acc0.vector_width, acc0.precision_bytes, l1))
                .collect(),
            a_l2: ex.space.l2_bytes.iter().map(|&l2| a.l2_area(l2)).collect(),
            a_bw: ex
                .space
                .noc_bw
                .iter()
                .map(|&bw| a.noc_area(n, bw))
                .collect(),
            a_sup: a.support_area(n, acc0.support),
            p_l1: ex
                .space
                .l1_bytes
                .iter()
                .map(|&l1| p.pe_array_power(n, acc0.vector_width, l1))
                .collect(),
            p_l2: ex.space.l2_bytes.iter().map(|&l2| p.l2_power(l2)).collect(),
            p_bw: ex.space.noc_bw.iter().map(|&bw| p.noc_power(bw)).collect(),
            p_sup: p.support_power(n, acc0.support),
            e_l1: ex
                .space
                .l1_bytes
                .iter()
                .map(|&l1| {
                    let em = maestro_hw::EnergyModel::cacti_28nm(l1, 0);
                    (em.l1_read, em.l1_write)
                })
                .collect(),
            e_l2: ex
                .space
                .l2_bytes
                .iter()
                .map(|&l2| {
                    let em = maestro_hw::EnergyModel::cacti_28nm(0, l2);
                    (em.l2_read, em.l2_write)
                })
                .collect(),
            e_mac: e0.mac,
            e_noc: e0.noc,
            words,
            budget: Vec::new(),
            finite: Vec::new(),
            l2_sorted: Vec::new(),
            l2_fit: Vec::new(),
        };
        // The budget verdict of every grid cell, once per unit (it is
        // mapping-independent).
        let (max_area, max_power) = (ex.constraints.max_area_mm2, ex.constraints.max_power_mw);
        let rows = ex.space.noc_bw.len() * l1_len;
        let mut budget = vec![0u64; rows * words];
        let mut finite = vec![0u64; rows * words];
        for b_idx in 0..ex.space.noc_bw.len() {
            for i1 in 0..l1_len {
                let row = (b_idx * l1_len + i1) * words;
                for w in 0..words {
                    let (mut b, mut f) = (0u64, 0u64);
                    for i2 in w * 64..l2_len.min(w * 64 + 64) {
                        let (area, power) = ctx.area_power(b_idx, i1, i2);
                        let ok = !((area > max_area) | (power > max_power));
                        b |= u64::from(ok) << (i2 % 64);
                        f |= u64::from(ok & area.is_finite() & power.is_finite()) << (i2 % 64);
                    }
                    budget[row + w] = b;
                    finite[row + w] = f;
                }
            }
        }
        // The L2 fit bitsets: clear the entries one at a time in ascending
        // capacity order.
        let mut order: Vec<usize> = (0..l2_len).collect();
        order.sort_by_key(|&i2| ctx.l2_elems[i2]);
        let mut l2_fit = vec![0u64; (l2_len + 1) * words];
        for i2 in 0..l2_len {
            l2_fit[i2 / 64] |= 1u64 << (i2 % 64);
        }
        for (k, &i2) in order.iter().enumerate() {
            let (done, next) = l2_fit.split_at_mut((k + 1) * words);
            next[..words].copy_from_slice(&done[k * words..]);
            next[i2 / 64] &= !(1u64 << (i2 % 64));
        }
        ctx.l2_sorted = order.iter().map(|&i2| ctx.l2_elems[i2]).collect();
        ctx.budget = budget;
        ctx.finite = finite;
        ctx.l2_fit = l2_fit;
        ctx
    }

    /// `(area, power)` at one grid point, recomposed from the component
    /// tables with the same addition order as `total_area`/`total_power`.
    #[inline]
    fn area_power(&self, b_idx: usize, i1: usize, i2: usize) -> (f64, f64) {
        (
            self.a_l1[i1] + self.a_l2[i2] + self.a_bw[b_idx] + self.a_sup,
            self.p_l1[i1] + self.p_l2[i2] + self.p_bw[b_idx] + self.p_sup,
        )
    }
}

/// Per-evaluation energy decomposition: the activity totals scaled once,
/// plus the placed DRAM traffic per L2 grid entry. `at(i1, i2)` reproduces
/// the placed energy of a full model call (`tests::placed_energy`) term by
/// term in the same order (pinned by
/// `cost_decomposition_matches_full_model_calls`), turning a model
/// evaluation per (priced point, capacity) pair into a handful of
/// multiply-adds per grid point.
struct EnergyTab {
    mac: f64,
    l1r: f64,
    l1w: f64,
    l2r: f64,
    l2w: f64,
    noc: f64,
    dram_pj: f64,
    /// Placed `(dram_read + dram_write).total()` per L2 grid entry.
    dram: Vec<f64>,
}

impl EnergyTab {
    fn new(ex: &Explorer, priced: &Priced, ctx: &UnitCtx) -> Self {
        let c = &priced.counts;
        EnergyTab {
            mac: c.macs * ctx.e_mac,
            l1r: c.l1_read.total(),
            l1w: c.l1_write.total(),
            l2r: c.l2_read.total(),
            l2w: c.l2_write.total(),
            noc: c.noc.total() * ctx.e_noc,
            dram_pj: ex.dram_pj,
            dram: ctx
                .l2_elems
                .iter()
                .map(|&l2_elems| {
                    let (dr, dw) =
                        maestro_core::report::offchip_traffic(c, priced.tensor_elems, l2_elems);
                    dr.total() + dw.total()
                })
                .collect(),
        }
    }

    /// Placed energy at one capacity cell — the reference recomposition.
    /// The sweep itself uses the row-hoisted [`EnergyCells::fill`];
    /// `cost_decomposition_matches_full_model_calls` pins both against
    /// `tests::placed_energy` bit-for-bit.
    #[cfg(test)]
    fn at(&self, ctx: &UnitCtx, i1: usize, i2: usize) -> f64 {
        let (e1r, e1w) = ctx.e_l1[i1];
        let (e2r, e2w) = ctx.e_l2[i2];
        self.mac
            + self.l1r * e1r
            + self.l1w * e1w
            + self.l2r * e2r
            + self.l2w * e2w
            + self.noc
            + self.dram[i2] * self.dram_pj
    }
}

/// The placed energy of every capacity cell for the evaluation being
/// expanded: the sum of its priced points' [`EnergyTab::at`] values, added
/// in order from `-0.0` exactly as `Iterator::sum` adds them. A layer
/// evaluation has one priced point, so its cells carry that point's bits;
/// a whole-model evaluation sums its per-layer bests in layer order. Each
/// term is evaluated with the identical operation sequence — the shared
/// left prefix of the sum is hoisted per L1 row, which preserves every
/// intermediate rounding.
struct EnergyCells {
    e: Vec<f64>,
    /// Per-L1-row minimum / maximum placed energy. In
    /// `expand_capacities` both bound EDP for the row's finiteness
    /// certificate, and the minimum is the first energy bound its quiet
    /// certificate tries.
    rowmin: Vec<f64>,
    rowmax: Vec<f64>,
    /// Per-L1-row flag: every cell of the row is finite. Tracked
    /// explicitly because `f64::min`/`max` skip NaN operands, so a NaN
    /// cell (which must be *dropped*, not rejected) would otherwise be
    /// invisible in the extremes.
    row_finite: Vec<u8>,
}

impl EnergyCells {
    fn new(l1_len: usize, l2_len: usize) -> Self {
        EnergyCells {
            e: vec![0.0; l1_len * l2_len],
            rowmin: vec![f64::NAN; l1_len],
            rowmax: vec![f64::NAN; l1_len],
            row_finite: vec![0; l1_len],
        }
    }

    /// Refill with the summed placed energies of `evals`.
    fn fill(&mut self, ex: &Explorer, evals: &[Priced], ctx: &UnitCtx) {
        self.e.fill(-0.0);
        let l2_len = ctx.l2_elems.len();
        for priced in evals {
            let tab = EnergyTab::new(ex, priced, ctx);
            for (i1, &(e1r, e1w)) in ctx.e_l1.iter().enumerate() {
                // Left prefix of the `EnergyTab::at` chain, constant per row.
                let row = tab.mac + tab.l1r * e1r + tab.l1w * e1w;
                let cells = &mut self.e[i1 * l2_len..(i1 + 1) * l2_len];
                for (i2, &(e2r, e2w)) in ctx.e_l2.iter().enumerate() {
                    cells[i2] +=
                        row + tab.l2r * e2r + tab.l2w * e2w + tab.noc + tab.dram[i2] * tab.dram_pj;
                }
            }
        }
        self.summarize_rows(l2_len);
    }

    /// Recompute each row's extremes and finiteness flag from `e`.
    fn summarize_rows(&mut self, l2_len: usize) {
        for (i1, row) in self.e.chunks_exact(l2_len.max(1)).enumerate() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let mut finite = true;
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
                finite &= v.is_finite();
            }
            self.rowmin[i1] = lo;
            self.rowmax[i1] = hi;
            self.row_finite[i1] = u8::from(finite);
        }
    }
}

/// What the capacity expansion needs of one evaluation: a layer's priced
/// point under one mapping, or a whole model's per-layer bests combined.
#[derive(Clone, Copy)]
struct Eval {
    /// Runtime (cycles).
    runtime: f64,
    /// Throughput (MACs/cycle).
    throughput: f64,
    /// Per-PE L1 requirement (elements; worst case over a model's layers).
    l1_req: u64,
    /// L2 staging requirement (elements; worst case over a model's layers).
    l2_req: u64,
}

/// A unit's best point per objective, held as compact [`Cand`]s until
/// [`close_unit`] fills the `Partial::best_*` slots, each beside its key
/// so the hot loop compares against a register-resident `f64`. A `NAN`
/// key means the slot is empty; every finite key beats it, which
/// reproduces the "empty slot always loses" rule of [`update_best`].
#[derive(Clone)]
struct Best<'m> {
    neg_throughput: f64,
    energy: f64,
    edp: f64,
    by_throughput: Option<Cand<'m>>,
    by_energy: Option<Cand<'m>>,
    by_edp: Option<Cand<'m>>,
}

impl Best<'_> {
    fn new() -> Self {
        Best {
            neg_throughput: f64::NAN,
            energy: f64::NAN,
            edp: f64::NAN,
            by_throughput: None,
            by_energy: None,
            by_edp: None,
        }
    }
}

/// A candidate design point by value, borrowing its mapping name. Most
/// candidates are examined and discarded, and most that enter the front
/// or a best slot are displaced before the unit ends, so the owned
/// [`DesignPoint`] (a reference count on the unit's shared name) is built
/// only for samples and for the survivors in [`close_unit`].
#[derive(Clone, Copy)]
struct Cand<'a> {
    pes: u64,
    bw: u64,
    l1: u64,
    l2: u64,
    mapping: &'a Arc<str>,
    area: f64,
    power: f64,
    runtime: f64,
    throughput: f64,
    energy: f64,
    edp: f64,
}

impl Cand<'_> {
    fn to_point(self) -> DesignPoint {
        DesignPoint {
            pes: self.pes,
            noc_bw: self.bw,
            l1_bytes: self.l1,
            l2_bytes: self.l2,
            mapping: Arc::clone(self.mapping),
            area_mm2: self.area,
            power_mw: self.power,
            runtime: self.runtime,
            throughput: self.throughput,
            energy: self.energy,
            edp: self.edp,
        }
    }
}

/// End a work unit: build owned [`DesignPoint`]s for the front survivors
/// and the three bests.
fn close_unit(part: &mut Partial, front: ParetoFront<Cand<'_>>, best: Best<'_>) {
    part.pareto = front
        .into_points()
        .into_iter()
        .map(Cand::to_point)
        .collect();
    part.best_throughput = best.by_throughput.map(Cand::to_point);
    part.best_energy = best.by_energy.map(Cand::to_point);
    part.best_edp = best.by_edp.map(Cand::to_point);
}

/// Run one work unit (one PE count's slice of a sweep) under the
/// `maestro.dse.unit` span, time it, and batch-flush its counters to the
/// global metrics registry — wall-clock throughput goes to metrics *only*,
/// never into [`DseStats`], which must stay deterministic.
fn timed_unit(unit: impl FnOnce() -> Partial) -> Partial {
    let _span = maestro_obs::span::span("maestro.dse.unit");
    let t0 = Instant::now();
    let part = unit();
    flush_unit_metrics(&part, t0.elapsed());
    part
}

/// Stamp wall-clock duration and effective rate onto merged statistics.
fn finish_stats(stats: &mut DseStats, t0: Instant) {
    stats.seconds = t0.elapsed().as_secs_f64().max(1e-9);
    stats.rate = stats.explored as f64 / stats.seconds;
}

/// `OnceLock`-cached handles for the per-unit DSE metrics: one registry
/// lookup per process, one batched flush per work unit.
struct UnitMetrics {
    units: maestro_obs::Counter,
    explored: maestro_obs::Counter,
    valid: maestro_obs::Counter,
    capacity_skipped: maestro_obs::Counter,
    pareto_inserted: maestro_obs::Counter,
    pareto_rejected: maestro_obs::Counter,
    unit_seconds: maestro_obs::Histogram,
    unit_rate: maestro_obs::Histogram,
}

/// Bucket bounds of `maestro.dse.unit_seconds`: log-spaced, 2 per decade
/// from 1 µs to 60 s, so tail quantiles interpolate within ~3x and a
/// layer unit of a few tens of µs lands inside the range.
fn unit_seconds_buckets() -> Vec<f64> {
    maestro_obs::metrics::log_buckets(1e-6, 60.0, 2)
}

/// Bucket bounds of `maestro.dse.unit_rate` (designs per second per
/// unit): log-spaced, 2 per decade from 1e3 to 1e12. A layer unit
/// sweeps 10⁸–10⁹ designs/s and a bulk-skipped one ~10¹¹, so both land
/// in finite buckets.
fn unit_rate_buckets() -> Vec<f64> {
    maestro_obs::metrics::log_buckets(1e3, 1e12, 2)
}

fn unit_metrics() -> &'static UnitMetrics {
    static M: std::sync::OnceLock<UnitMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = maestro_obs::registry();
        UnitMetrics {
            units: r.counter("maestro.dse.units_completed"),
            explored: r.counter("maestro.dse.points_explored"),
            valid: r.counter("maestro.dse.points_valid"),
            capacity_skipped: r.counter("maestro.dse.capacity_skipped"),
            pareto_inserted: r.counter("maestro.dse.pareto_inserted"),
            pareto_rejected: r.counter("maestro.dse.pareto_rejected"),
            unit_seconds: r.histogram("maestro.dse.unit_seconds", &unit_seconds_buckets()),
            unit_rate: r.histogram("maestro.dse.unit_rate", &unit_rate_buckets()),
        }
    })
}

/// One batched flush of a finished work unit's counters and wall-clock
/// throughput into the global registry. The sweep hot loop touches only
/// the unit-private [`Partial`]; shared atomics are hit once per unit.
fn flush_unit_metrics(part: &Partial, elapsed: std::time::Duration) {
    let m = unit_metrics();
    m.units.inc();
    m.explored.add(part.stats.explored);
    m.valid.add(part.stats.valid);
    m.capacity_skipped.add(part.stats.capacity_skipped);
    m.pareto_inserted.add(part.stats.pareto_inserted);
    m.pareto_rejected.add(part.stats.pareto_rejected);
    let secs = elapsed.as_secs_f64().max(1e-9);
    m.unit_seconds.observe(secs);
    m.unit_rate.observe(part.stats.explored as f64 / secs);
}

/// Replace `slot` when `key(p)` is strictly smaller — on ties the earlier
/// point wins, which keeps the unit-order merge identical to a single
/// fold over the whole space. A non-finite key is rejected outright,
/// whether the slot is empty or occupied: `total_cmp` alone is not
/// enough, because a *negative* NaN (which the `-throughput` key
/// produces from a NaN throughput) sorts below every finite value and
/// would displace a finite incumbent. The gate keeps poisoned candidates
/// (fault-harness injections, damaged checkpoints) out of the best-point
/// slots.
pub(crate) fn update_best(
    slot: &mut Option<DesignPoint>,
    p: &DesignPoint,
    key: impl Fn(&DesignPoint) -> f64,
) {
    if !key(p).is_finite() {
        return;
    }
    let better = match slot {
        Some(cur) => key(p).total_cmp(&key(cur)) == std::cmp::Ordering::Less,
        None => true,
    };
    if better {
        *slot = Some(p.clone());
    }
}

/// Insert into the (runtime, energy) Pareto front, dropping dominated
/// points. A point that ties an existing front member on both axes is
/// dropped (first occurrence wins), so folding points in a fixed order
/// yields a deterministic front.
///
/// Points with a NaN or infinite objective are rejected outright: NaN
/// fails every `<=` comparison, so without this gate such a point would
/// look "non-dominated" and enter the front while never evicting anything
/// honestly.
///
/// Returns `true` when the point entered the front, `false` when it was
/// rejected (dominated, tying, or non-finite) — callers feed the
/// insertion/rejection tallies in [`DseStats`] from this.
pub fn insert_pareto(front: &mut Vec<DesignPoint>, p: &DesignPoint) -> bool {
    if !(p.runtime.is_finite() && p.energy.is_finite()) {
        return false;
    }
    if front
        .iter()
        .any(|q| q.runtime <= p.runtime && q.energy <= p.energy)
    {
        return false;
    }
    front.retain(|q| !(p.runtime <= q.runtime && p.energy <= q.energy));
    front.push(p.clone());
    true
}

/// A structure-of-arrays (runtime, energy) Pareto front over payloads `P`.
///
/// Semantically identical to folding points through [`insert_pareto`], but
/// the dominance scan runs over two flat `f64` arrays instead of a
/// `Vec<DesignPoint>` of ~100-byte records with heap-allocated mapping
/// strings. The scan accumulates a branch-free boolean (no early exit by
/// default — fronts are small and the predictable loop beats a
/// mispredicted break), and eviction compacts all three arrays in one
/// stable pass. The merge holds owned [`DesignPoint`]s; a sweep unit holds
/// compact candidates and builds owned points only for the survivors.
#[derive(Debug, Clone)]
pub struct ParetoFront<P = DesignPoint> {
    runtime: Vec<f64>,
    energy: Vec<f64>,
    points: Vec<P>,
}

impl<P> Default for ParetoFront<P> {
    fn default() -> Self {
        ParetoFront {
            runtime: Vec::new(),
            energy: Vec::new(),
            points: Vec::new(),
        }
    }
}

impl<P> ParetoFront<P> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Number of points currently on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points currently on the front, in insertion (fold) order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Whether `(rt, en)` is dominated by (or ties) an existing member —
    /// the same `q.runtime <= rt && q.energy <= en` test as
    /// [`insert_pareto`]. The scan runs branch-free within fixed-width
    /// chunks of the SoA columns (accumulating the disjunction, no
    /// per-element branch for the predictor to miss) and exits between
    /// chunks: in a sweep almost every candidate is dominated, usually by
    /// an early member, so a full-length scan would throw away the common
    /// case while a per-element early exit mispredicts on dense fronts.
    fn dominated(&self, rt: f64, en: f64) -> bool {
        const CHUNK: usize = 8;
        let n = self.points.len();
        let mut i = 0;
        while i + CHUNK <= n {
            let mut dom = false;
            for j in i..i + CHUNK {
                dom |= self.runtime[j] <= rt && self.energy[j] <= en;
            }
            if dom {
                return true;
            }
            i += CHUNK;
        }
        let mut dom = false;
        for j in i..n {
            dom |= self.runtime[j] <= rt && self.energy[j] <= en;
        }
        dom
    }

    /// Stable in-place removal of members dominated by `(rt, en)` —
    /// mirrors `retain(|q| !(rt <= q.runtime && en <= q.energy))`.
    fn evict_dominated(&mut self, rt: f64, en: f64) {
        let mut w = 0usize;
        for r in 0..self.points.len() {
            let keep = !(rt <= self.runtime[r] && en <= self.energy[r]);
            if keep {
                if w != r {
                    self.runtime[w] = self.runtime[r];
                    self.energy[w] = self.energy[r];
                    self.points.swap(w, r);
                }
                w += 1;
            }
        }
        self.runtime.truncate(w);
        self.energy.truncate(w);
        self.points.truncate(w);
    }

    /// Minimum member energy among members with `runtime <= rt`
    /// (`+inf` when there is none). For a candidate at runtime `rt`,
    /// `min_energy_leq_runtime(rt) <= en` is exactly [`Self::dominated`] —
    /// the sweep's capacity expansion exploits this to reduce the per-cell
    /// dominance scan to one scalar compare, since runtime is constant
    /// across a whole (mapping, bandwidth) expansion.
    fn min_energy_leq_runtime(&self, rt: f64) -> f64 {
        let mut min = f64::INFINITY;
        for i in 0..self.points.len() {
            if self.runtime[i] <= rt && self.energy[i] < min {
                min = self.energy[i];
            }
        }
        min
    }

    /// Accept a point already known to be finite and non-dominated:
    /// evict what it dominates and push, moving `point` in. Callers must
    /// have established both preconditions (see `expand_capacities`);
    /// this is the accept half of [`Self::try_insert_with`].
    fn accept(&mut self, rt: f64, en: f64, point: P) {
        self.evict_dominated(rt, en);
        self.runtime.push(rt);
        self.energy.push(en);
        self.points.push(point);
    }

    /// Insert `(rt, en)` if non-dominated, materializing the owned point
    /// via `make` only on acceptance. Returns whether the point entered
    /// the front — same accept/reject behaviour as [`insert_pareto`].
    pub fn try_insert_with(&mut self, rt: f64, en: f64, make: impl FnOnce() -> P) -> bool {
        if !(rt.is_finite() && en.is_finite()) {
            return false;
        }
        if self.dominated(rt, en) {
            return false;
        }
        self.accept(rt, en, make());
        true
    }

    /// Consume the front, returning the surviving points in fold order.
    pub fn into_points(self) -> Vec<P> {
        self.points
    }
}

impl ParetoFront {
    /// Insert an already-owned point (merge path). Equivalent to
    /// [`insert_pareto`] on the underlying vector.
    pub fn insert(&mut self, p: &DesignPoint) -> bool {
        self.try_insert_with(p.runtime, p.energy, || p.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SweepSpace;
    use crate::variants;
    use maestro_core::{ActivityCounts, LayerReport, PerTensor};
    use maestro_dnn::{LayerDims, Operator};
    use maestro_hw::EnergyModel;
    use maestro_ir::Style;

    fn layer() -> Layer {
        Layer::new("c", Operator::conv2d(), LayerDims::square(1, 32, 32, 34, 3))
    }

    /// Total energy of a placed design, from the full model calls:
    /// CACTI-style on-chip accesses plus DRAM spill traffic. With `l2` at
    /// least the layer's working set, only compulsory DRAM traffic remains
    /// (each tensor moved once); below the requirement-to-working-set
    /// range, L2 refills increasingly miss. The sweep's decomposed energy
    /// tables are pinned against this reference.
    fn placed_energy(ex: &Explorer, report: &LayerReport, l1: u64, l2: u64) -> f64 {
        let mut em = EnergyModel::cacti_28nm(l1, l2);
        em.dram = ex.dram_pj;
        // Recompute the off-chip traffic at the *placed* capacity using
        // the shared estimator, replacing the counts taken at analysis
        // time (which assumed the reference L2 size).
        let mut counts = report.counts;
        let (dr, dw) =
            maestro_core::report::offchip_traffic(&counts, report.tensor_elems, ex.elements(l2));
        counts.dram_read = dr;
        counts.dram_write = dw;
        counts.energy(&em)
    }

    /// The per-axis cost decomposition (`UnitCtx::area_power`,
    /// `EnergyTab::at`) must reproduce the full model calls bit-for-bit —
    /// exact `f64` equality, not tolerance — on every grid point of the
    /// standard space, and every bit of `UnitCtx`'s budget and finite
    /// bitsets must be the full calls' verdict. The doc comments on
    /// `UnitCtx`/`EnergyTab` point here.
    #[test]
    fn cost_decomposition_matches_full_model_calls() {
        let ex = Explorer::new(SweepSpace::standard());
        let maps = variants::variants(Style::KCP);
        let (max_area, max_power) = (ex.constraints.max_area_mm2, ex.constraints.max_power_mw);
        let l1_len = ex.space.l1_bytes.len();
        for &pes in &[16u64, 128, 512] {
            let ctx = UnitCtx::new(&ex, pes);
            for (b_idx, &bw) in ex.space.noc_bw.iter().enumerate() {
                for (i1, &l1) in ex.space.l1_bytes.iter().enumerate() {
                    for (i2, &l2) in ex.space.l2_bytes.iter().enumerate() {
                        let acc = ex.accelerator(pes, bw, Some((l1, l2)));
                        let (area, power) = ctx.area_power(b_idx, i1, i2);
                        let full_area = ex.area_model.total_area(&acc);
                        let full_power = ex.power_model.total_power(&acc);
                        assert_eq!(area.to_bits(), full_area.to_bits());
                        assert_eq!(power.to_bits(), full_power.to_bits());
                        let word = (b_idx * l1_len + i1) * ctx.words + i2 / 64;
                        let bit = |set: &[u64]| set[word] >> (i2 % 64) & 1 == 1;
                        let in_budget = !(full_area > max_area || full_power > max_power);
                        assert_eq!(bit(&ctx.budget), in_budget, "({b_idx}, {i1}, {i2})");
                        assert_eq!(
                            bit(&ctx.finite),
                            in_budget && full_area.is_finite() && full_power.is_finite(),
                            "({b_idx}, {i1}, {i2})"
                        );
                    }
                }
            }
            // Energy: decomposed table vs `placed_energy` on a real report.
            let acc = ex.accelerator(pes, ex.space.noc_bw[0], None);
            for mapping in &maps {
                let Ok(report) = maestro_core::analyze(&layer(), mapping, &acc) else {
                    continue;
                };
                let priced = report.priced();
                let etab = EnergyTab::new(&ex, &priced, &ctx);
                let mut cells = EnergyCells::new(ex.space.l1_bytes.len(), ex.space.l2_bytes.len());
                cells.fill(&ex, std::slice::from_ref(&priced), &ctx);
                for (i1, &l1) in ex.space.l1_bytes.iter().enumerate() {
                    for (i2, &l2) in ex.space.l2_bytes.iter().enumerate() {
                        let want = placed_energy(&ex, &report, l1, l2);
                        assert_eq!(etab.at(&ctx, i1, i2).to_bits(), want.to_bits());
                        let got = cells.e[i1 * ex.space.l2_bytes.len() + i2];
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    /// A seeded source of capacity-kernel inputs: grids, coefficients and
    /// objectives that are often unsorted, tied, negative or non-finite.
    struct Draw(proptest::TestRng);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0.below(n.max(1))
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }

        /// A positive magnitude, log-uniform over `1e{lo}..1e{hi+1}`.
        fn mag(&mut self, lo: i32, hi: i32) -> f64 {
            let exp = lo + self.below((hi - lo + 1) as u64) as i32;
            (1.0 + self.below(1000) as f64 / 100.0) * 10f64.powi(exp)
        }

        /// A best-slot key or front coordinate: any sign, any finiteness,
        /// often an extreme that makes one clause of the certificate
        /// decide alone.
        fn key(&mut self) -> f64 {
            match self.below(7) {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                2 => -f64::MAX,
                3 => f64::MAX,
                4 => -self.mag(0, 300),
                5 => 0.0,
                _ => self.mag(0, 300),
            }
        }

        fn space(&mut self) -> SweepSpace {
            const L1: [u64; 6] = [256, 512, 2048, 8192, 65536, 1 << 20];
            const L2: [u64; 7] = [4096, 16384, 65536, 262144, 1 << 20, 1 << 22, 1 << 24];
            const BW: [u64; 5] = [1, 4, 16, 32, 64];
            let l2_len = self.pick(&[1usize, 2, 5, 17, 63, 64, 65, 130]);
            let l1_len = 1 + self.below(4) as usize;
            let bw_len = 1 + self.below(3) as usize;
            SweepSpace {
                pes: vec![self.pick(&[16, 64, 256])],
                noc_bw: (0..bw_len).map(|_| self.pick(&BW)).collect(),
                l1_bytes: (0..l1_len).map(|_| self.pick(&L1)).collect(),
                l2_bytes: (0..l2_len).map(|_| self.pick(&L2)).collect(),
            }
        }

        /// A model coefficient replaced by a NaN, infinite or negative
        /// value.
        fn spoil(&mut self, coeff: &mut f64) {
            *coeff = match self.below(4) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => -*coeff * self.mag(0, 3),
            };
        }

        /// A budget limit inside the range of `costs`, so it crosses rows.
        fn limit(&mut self, mut costs: Vec<f64>) -> f64 {
            costs.retain(|c| c.is_finite());
            costs.sort_by(f64::total_cmp);
            let n = costs.len() as u64;
            costs
                .get((n / 3 + self.below(n - n / 3)) as usize)
                .copied()
                .unwrap_or(f64::INFINITY)
        }

        fn priced(&mut self) -> Priced {
            let mut per_tensor = || PerTensor([self.mag(0, 9), self.mag(0, 9), self.mag(0, 9)]);
            let counts = ActivityCounts {
                l1_read: per_tensor(),
                l1_write: per_tensor(),
                l2_read: per_tensor(),
                l2_write: per_tensor(),
                noc: per_tensor(),
                ..ActivityCounts::default()
            };
            Priced {
                runtime: 0.0,
                counts: ActivityCounts {
                    macs: self.mag(3, 9),
                    ..counts
                },
                macs_dense: 0.0,
                macs_effective: 0.0,
                l1_per_pe_elems: 0,
                l2_staging_elems: 0,
                peak_bw: 0.0,
                avg_bw: 0.0,
                utilization: 0.0,
                used_pes: 0,
                num_pes: 0,
                tensor_elems: [
                    self.mag(2, 7) as u64,
                    self.mag(2, 7) as u64,
                    self.mag(2, 7) as u64,
                ],
            }
        }

        fn eval(&mut self, runtimes: &[f64], ex: &Explorer) -> Eval {
            let runtime = match self.below(16) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -self.mag(0, 9),
                3 => -0.0,
                4 => self.mag(0, 12),
                _ => self.pick(runtimes),
            };
            let throughput = match self.below(16) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -self.mag(0, 3),
                _ => self.mag(0, 2),
            };
            // Mostly requirements every cell holds, so rows stay full.
            let mut req = |grid: &[u64]| match self.below(3) {
                0 => ex.elements(self.pick(grid)) + self.below(2),
                _ => 0,
            };
            Eval {
                runtime,
                throughput,
                l1_req: req(&ex.space.l1_bytes),
                l2_req: req(&ex.space.l2_bytes),
            }
        }

        fn cand<'m>(&mut self, mapping: &'m Arc<str>) -> Cand<'m> {
            Cand {
                pes: 1,
                bw: 1,
                l1: 1,
                l2: 1,
                mapping,
                area: 1.0,
                power: 1.0,
                runtime: self.key(),
                throughput: self.key(),
                energy: self.key(),
                edp: self.key(),
            }
        }
    }

    /// A design point by the bits of every field, so `-0.0` and `0.0`
    /// differ and NaNs compare.
    type PointBits = (u64, u64, u64, u64, String, [u64; 6]);

    fn point_bits(p: &DesignPoint) -> PointBits {
        let f = [
            p.area_mm2,
            p.power_mw,
            p.runtime,
            p.throughput,
            p.energy,
            p.edp,
        ];
        (
            p.pes,
            p.noc_bw,
            p.l1_bytes,
            p.l2_bytes,
            p.mapping.to_string(),
            f.map(f64::to_bits),
        )
    }

    type Kernel<'m> = (Partial, ParetoFront<Cand<'m>>, Best<'m>);

    /// Everything an expansion leaves behind, by bits: the counters, the
    /// sample, the front in order, the three best keys and slots.
    type KernelBits = (
        DseStats,
        Vec<PointBits>,
        Vec<PointBits>,
        [u64; 3],
        Vec<Option<PointBits>>,
    );

    fn kernel_bits((part, front, best): &Kernel<'_>) -> KernelBits {
        let slot = |c: &Option<Cand<'_>>| c.map(|c| point_bits(&c.to_point()));
        (
            part.stats.clone(),
            part.sample.iter().map(point_bits).collect(),
            front
                .points()
                .iter()
                .map(|c| point_bits(&c.to_point()))
                .collect(),
            [best.neg_throughput, best.energy, best.edp].map(f64::to_bits),
            vec![
                slot(&best.by_throughput),
                slot(&best.by_energy),
                slot(&best.by_edp),
            ],
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1500))]

        /// The counting kernel must leave exactly what the per-cell loop
        /// leaves — every counter, the sample, the front in order and the
        /// three bests, bit for bit — on grids of any length, order and
        /// duplication, under NaN, infinite or negative cost coefficients,
        /// DRAM energies, runtimes and throughputs, with budgets that cross
        /// rows, empty or populated bests and fronts, and a sample cap
        /// that can run out mid-row.
        #[test]
        fn capacity_kernel_matches_per_cell_loop(seed in 0u64..u64::MAX) {
            let mut d = Draw(proptest::TestRng::from_seed(seed));
            let mut ex = Explorer::new(d.space());
            ex.precision_bytes = d.pick(&[1, 2]);
            ex.sample_cap = d.pick(&[0, 1, 2, 5, 4096]);
            ex.dram_pj = match d.below(13) {
                0 => -1e297,
                1 => f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => -d.mag(0, 3),
                5 => d.mag(290, 297),
                _ => 100.0,
            };
            let (a, p) = (&mut ex.area_model, &mut ex.power_model);
            match d.below(10) {
                0 => d.spoil(&mut a.pe_overhead_mm2),
                1 => d.spoil(&mut a.sram_mm2_per_byte),
                2 => d.spoil(&mut a.bus_mm2_per_lane),
                3 => d.spoil(&mut p.pe_mw),
                4 => d.spoil(&mut p.sram_mw_per_kb),
                5 => d.spoil(&mut p.noc_mw_per_lane),
                _ => {}
            }
            // Limits inside the grid's costs cross rows; a NaN or infinite
            // limit passes everything.
            let pes = ex.space.pes[0];
            let probe = UnitCtx::new(&ex, pes);
            let mut costs = Vec::new();
            for b_idx in 0..ex.space.noc_bw.len() {
                for i1 in 0..ex.space.l1_bytes.len() {
                    for i2 in 0..ex.space.l2_bytes.len() {
                        costs.push(probe.area_power(b_idx, i1, i2));
                    }
                }
            }
            ex.constraints = match d.below(6) {
                0 => Constraints { max_area_mm2: f64::INFINITY, max_power_mw: f64::NAN },
                _ => Constraints {
                    max_area_mm2: d.limit(costs.iter().map(|c| c.0).collect()),
                    max_power_mw: d.limit(costs.iter().map(|c| c.1).collect()),
                },
            };
            let ctx = UnitCtx::new(&ex, pes);
            let mapping: Arc<str> = format!("m{seed}").into();
            let mut kernel: Kernel<'_> = (Partial::new(), ParetoFront::new(), Best::new());
            kernel.0.stats.valid = d.below(200);
            for _ in 0..d.below(3) {
                let c = d.cand(&mapping);
                kernel.1.try_insert_with(c.runtime, c.energy, || c);
            }
            if d.below(2) == 0 {
                let best = &mut kernel.2;
                best.neg_throughput = d.key();
                best.energy = d.key();
                best.edp = d.key();
                best.by_throughput = Some(d.cand(&mapping));
                best.by_energy = Some(d.cand(&mapping));
                best.by_edp = Some(d.cand(&mapping));
            }
            let mut reference = (kernel.0.clone(), kernel.1.clone(), kernel.2.clone());
            let runtimes = [d.mag(0, 12), d.mag(0, 12), -d.mag(0, 6)];
            let mut ecells = EnergyCells::new(ex.space.l1_bytes.len(), ex.space.l2_bytes.len());
            for step in 0..2 + d.below(8) {
                if step == 0 || d.below(4) == 0 {
                    let evals: Vec<Priced> = (0..1 + d.below(2)).map(|_| d.priced()).collect();
                    ecells.fill(&ex, &evals, &ctx);
                    // Scattered non-finite cells among finite ones.
                    if d.below(3) == 0 {
                        for _ in 0..1 + d.below(3) {
                            let cell = d.below(ecells.e.len() as u64) as usize;
                            ecells.e[cell] = d.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
                        }
                        ecells.summarize_rows(ex.space.l2_bytes.len());
                    }
                }
                let b_idx = d.below(ex.space.noc_bw.len() as u64) as usize;
                let eval = d.eval(&runtimes, &ex);
                let (part, front, best) = &mut kernel;
                ex.expand_capacities(pes, b_idx, &mapping, eval, &ecells, &ctx, part, front, best);
                let (part, front, best) = &mut reference;
                ex.expand_reference(pes, b_idx, &mapping, eval, &ecells, &ctx, part, front, best);
                proptest::prop_assert_eq!(
                    kernel_bits(&kernel),
                    kernel_bits(&reference),
                    "seed {} step {}",
                    seed,
                    step
                );
            }
        }
    }

    #[test]
    fn exploration_finds_valid_points() {
        let e = Explorer::new(SweepSpace::tiny());
        let r = e
            .explore(&layer(), &variants::variants(Style::KCP))
            .expect("valid space");
        assert!(r.stats.valid > 0, "{:?}", r.stats);
        assert!(r.stats.explored >= r.stats.valid);
        assert!(r.best_throughput.is_some());
        assert!(r.best_energy.is_some());
        assert!(!r.pareto.is_empty());
    }

    #[test]
    fn pareto_front_is_nondominated() {
        let e = Explorer::new(SweepSpace::tiny());
        let r = e
            .explore(&layer(), &variants::variants(Style::KCP))
            .expect("valid space");
        for a in &r.pareto {
            for b in &r.pareto {
                if std::ptr::eq(a, b) {
                    continue;
                }
                assert!(
                    !(a.runtime <= b.runtime && a.energy < b.energy
                        || a.runtime < b.runtime && a.energy <= b.energy),
                    "{a:?} dominates {b:?}"
                );
            }
        }
    }

    #[test]
    fn constraints_bound_every_valid_point() {
        let e = Explorer::new(SweepSpace::tiny());
        let r = e
            .explore(&layer(), &variants::variants(Style::YRP))
            .expect("valid space");
        for p in &r.sample {
            assert!(p.area_mm2 <= e.constraints.max_area_mm2);
            assert!(p.power_mw <= e.constraints.max_power_mw);
        }
    }

    #[test]
    fn tighter_budget_yields_fewer_valid_points() {
        let space = SweepSpace::tiny();
        let loose = Explorer::new(space.clone());
        let mut tight = Explorer::new(space);
        tight.constraints = Constraints {
            max_area_mm2: 4.0,
            max_power_mw: 120.0,
        };
        let maps = variants::variants(Style::KCP);
        let l = layer();
        let a = loose.explore(&l, &maps).expect("valid space");
        let b = tight.explore(&l, &maps).expect("valid space");
        assert!(b.stats.valid <= a.stats.valid);
    }

    #[test]
    fn throughput_and_energy_optima_differ_in_general() {
        let e = Explorer::new(SweepSpace::tiny());
        let r = e
            .explore(&layer(), &variants::variants(Style::KCP))
            .expect("valid space");
        let t = r.best_throughput.unwrap();
        let en = r.best_energy.unwrap();
        assert!(t.throughput >= en.throughput);
        assert!(en.energy <= t.energy);
    }

    /// Regression test for the capacity-unit bug: the sweep grids are in
    /// **bytes** but the cost model reports requirements in **elements**.
    /// With 2-byte elements, a grid entry equal to the element requirement
    /// holds only half the data and must be rejected. (The old filter
    /// compared bytes against elements directly, so precision never
    /// mattered and the point below was wrongly accepted.)
    #[test]
    fn capacity_filter_converts_bytes_to_elements() {
        let maps = variants::variants(Style::KCP);
        let l = layer();
        // Requirement (in elements) of this layer/mapping at one point.
        let acc = Accelerator::builder(64).noc_bandwidth(16).build();
        let report = maestro_core::analyze(&l, &maps[0], &acc).expect("analyzable");
        assert!(report.l1_per_pe_elems > 0);

        // A one-point space whose L1 grid equals the element requirement
        // *in bytes* — enough at 1 byte/element, too small at 2.
        let space = SweepSpace {
            pes: vec![64],
            noc_bw: vec![16],
            l1_bytes: vec![report.l1_per_pe_elems],
            l2_bytes: vec![2 * 1024 * 1024],
        };
        let mut e = Explorer::new(space);
        e.precision_bytes = 1;
        let one_byte = e.explore(&l, &maps[0..1]).expect("valid space");
        assert!(one_byte.stats.valid > 0, "{:?}", one_byte.stats);

        e.precision_bytes = 2;
        let two_byte = e.explore(&l, &maps[0..1]).expect("valid space");
        assert_eq!(
            two_byte.stats.valid, 0,
            "an L1 of {} bytes cannot hold {} two-byte elements",
            report.l1_per_pe_elems, report.l1_per_pe_elems
        );
    }

    /// Regression test for the bulk-skip minimum: the "smallest
    /// configuration" must use the true grid minima, not the first
    /// entries. With a descending L1 grid, first-entry selection builds an
    /// oversized probe accelerator and wrongly skips every PE count.
    #[test]
    fn bulk_skip_uses_true_grid_minima() {
        let maps = variants::variants(Style::KCP);
        let l = layer();
        let sorted = SweepSpace {
            // Large-but-valid grid values alongside small ones.
            l1_bytes: vec![512, 128 * 1024 * 1024],
            ..SweepSpace::tiny()
        };
        let mut reversed = sorted.clone();
        reversed.l1_bytes.reverse();
        let a = Explorer::new(sorted)
            .explore(&l, &maps)
            .expect("valid space");
        let b = Explorer::new(reversed)
            .explore(&l, &maps)
            .expect("valid space");
        assert!(a.stats.valid > 0);
        assert_eq!(a.stats.valid, b.stats.valid);
        assert_eq!(a.best_throughput, b.best_throughput);
    }

    /// Ratio helpers must degrade to 0.0 — never NaN — when no events of
    /// the denominating kind occurred (e.g. a fully bulk-skipped sweep
    /// performs zero cache lookups).
    #[test]
    fn memo_hit_rate_is_zero_not_nan_without_lookups() {
        let empty = DseStats::empty();
        assert_eq!(empty.memo_hit_rate(), 0.0);
        assert!(!empty.memo_hit_rate().is_nan());
        let mut some = DseStats::empty();
        some.memo_hits = 3;
        some.evaluated = 1;
        assert!((some.memo_hit_rate() - 0.75).abs() < 1e-12);
    }

    /// A NaN-keyed candidate must not seed an empty best slot (it used to:
    /// the `None` arm accepted unconditionally). With the fault harness
    /// appending NaN-poisoned points to partials, this hole would let an
    /// injected point become `best_throughput` on an otherwise-empty unit.
    #[test]
    fn update_best_rejects_nan_into_empty_slot() {
        let mut nan_point = point_for_tests();
        nan_point.throughput = f64::NAN;
        let mut slot: Option<DesignPoint> = None;
        update_best(&mut slot, &nan_point, |p| -p.throughput);
        assert!(slot.is_none(), "NaN key must not seed an empty slot");

        let finite = point_for_tests();
        update_best(&mut slot, &finite, |p| -p.throughput);
        assert!(slot.is_some(), "finite key seeds the slot");
        update_best(&mut slot, &nan_point, |p| -p.throughput);
        assert_eq!(
            slot.as_ref().map(|p| p.throughput),
            Some(finite.throughput),
            "NaN key must not displace a finite incumbent"
        );
    }

    fn point_for_tests() -> DesignPoint {
        DesignPoint {
            pes: 64,
            noc_bw: 16,
            l1_bytes: 512,
            l2_bytes: 1 << 20,
            mapping: "kcp".into(),
            area_mm2: 3.0,
            power_mw: 400.0,
            runtime: 1e6,
            throughput: 100.0,
            energy: 1e9,
            edp: 1e15,
        }
    }

    #[test]
    fn empty_grid_is_a_typed_error_not_a_panic() {
        let mut space = SweepSpace::tiny();
        space.noc_bw.clear();
        let err = Explorer::new(space)
            .explore(&layer(), &variants::variants(Style::KCP))
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Space(crate::space::SpaceError::EmptyGrid { grid: "noc_bw" })
        );
        assert!(err.to_string().contains("noc_bw"), "{err}");
    }
}

impl Explorer {
    /// Explore a *whole model*: each hardware point is evaluated with the
    /// best-runtime mapping per layer (an embedded auto-tune), runtime and
    /// activity counts summed across layers, buffer requirements taken as
    /// worst-case. Energy at each placed capacity sums the per-layer
    /// placed energies (so per-layer working sets drive DRAM misses).
    /// Repeated layer shapes (VGG/ResNet blocks) take the prices of their
    /// first occurrence instead of re-running the cost model;
    /// `stats.memo_hits` counts those.
    ///
    /// A panicking work unit is handled as in [`Explorer::explore`].
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Space`] when the sweep space has an empty or
    /// zero-containing grid.
    pub fn explore_model(
        &self,
        model: &maestro_dnn::Model,
        mappings: &[Dataflow],
    ) -> Result<DseResult, SessionError> {
        self.explore_model_session(model, mappings, &SessionCtl::default())
            .map(|(result, _)| result)
    }

    /// One whole-model work unit: the bandwidth × capacity sweep at a
    /// single PE count, auto-tuning the mapping per layer.
    ///
    /// A layer whose [`ShapeKey`] an earlier layer shares takes that
    /// layer's best price at each bandwidth, counted per mapping in
    /// [`DseStats::memo_hits`]; every other layer prices each mapping,
    /// counted in [`DseStats::evaluated`]. Under [`EvalMode::Staged`] each
    /// (distinct shape, mapping) build is made on first use and priced at
    /// every bandwidth; the full oracle builds per price call.
    fn model_unit_inner(
        &self,
        pes: u64,
        model: &maestro_dnn::Model,
        mappings: &[Dataflow],
    ) -> Partial {
        let mut part = Partial::new();
        let caps_per_eval = self.space.capacity_cells() as u64;
        let Some(&bw0) = self.space.noc_bw.first() else {
            return part;
        };
        let acc = self.accelerator(pes, bw0, None);
        let lat = acc.noc.avg_latency;
        // Each layer's first same-shape layer. A layer with a coupling
        // override has no key and is its own.
        let mut seen = HashMap::new();
        let first: Vec<usize> = model
            .iter()
            .enumerate()
            .map(|(i, layer)| ShapeKey::of(layer).map_or(i, |key| *seen.entry(key).or_insert(i)))
            .collect();
        // Staged builds per (layer, mapping); only first-of-shape rows fill.
        let mut builds = vec![vec![None; mappings.len()]; model.len()];
        let ctx = UnitCtx::new(self, pes);
        part.sample
            .reserve_exact(self.sample_capacity(caps_per_eval * self.space.noc_bw.len() as u64));
        // The mapping label is the same for every point of this unit.
        let label: Arc<str> = format!("per-layer best of {}", mappings.len()).into();
        let mut front = ParetoFront::new();
        let mut ecells = EnergyCells::new(self.space.l1_bytes.len(), self.space.l2_bytes.len());
        let mut best = Best::new();
        let mut layers: Vec<Priced> = Vec::with_capacity(model.len());
        for (b_idx, &bw) in self.space.noc_bw.iter().enumerate() {
            part.stats.explored += caps_per_eval;
            // Per-layer best-runtime mapping (embedded tuning).
            layers.clear();
            for ((i, layer), row) in model.iter().enumerate().zip(&mut builds) {
                let fastest = if first[i] < i {
                    part.stats.memo_hits += mappings.len() as u64;
                    layers.get(first[i]).copied()
                } else {
                    part.stats.evaluated += mappings.len() as u64;
                    mappings
                        .iter()
                        .zip(row)
                        .filter_map(|(m, built)| match self.eval {
                            EvalMode::Staged => built
                                .get_or_insert_with(|| StagedAnalysis::build(layer, m, &acc))
                                .as_ref()
                                .ok()
                                .and_then(|b| b.price(bw, lat).ok()),
                            EvalMode::Full => StagedAnalysis::build(layer, m, &acc)
                                .and_then(|b| b.price(bw, lat))
                                .ok(),
                        })
                        .min_by(|a, b| a.runtime.total_cmp(&b.runtime))
                };
                let Some(priced) = fastest else {
                    break;
                };
                layers.push(priced);
            }
            if layers.len() < model.len() {
                continue;
            }
            // The per-layer best mapping (and so the activity counts) can
            // change with bandwidth, so the energy table is refilled here.
            ecells.fill(self, &layers, &ctx);
            let runtime: f64 = layers.iter().map(|r| r.runtime).sum();
            let macs: f64 = layers.iter().map(|r| r.macs_effective).sum();
            let eval = Eval {
                runtime,
                throughput: macs / runtime.max(1.0),
                l1_req: layers.iter().map(|r| r.l1_per_pe_elems).max().unwrap_or(0),
                l2_req: layers.iter().map(|r| r.l2_staging_elems).max().unwrap_or(0),
            };
            self.expand_capacities(
                pes, b_idx, &label, eval, &ecells, &ctx, &mut part, &mut front, &mut best,
            );
        }
        close_unit(&mut part, front, best);
        part
    }

    /// [`Explorer::explore`] as an interruption-proof **session**:
    /// resumable from a checkpoint, periodically checkpointed,
    /// deadline/signal-cancellable, and optionally fault-injected — all
    /// per [`SessionCtl`]. The scientific result stays bit-identical to a
    /// plain uninterrupted `explore` run (across any interrupt/resume
    /// split, with or without injected stalls) except the wall-clock
    /// `seconds`/`rate` fields and the [`DseResult::partial`] marker on
    /// interrupted runs.
    ///
    /// # Errors
    ///
    /// [`SessionError::Space`] for an invalid sweep space;
    /// [`SessionError::Checkpoint`] when the resume checkpoint does not
    /// match this sweep or a checkpoint cannot be written. Being
    /// *interrupted* is not an error: the result comes back with
    /// `partial: true` and [`SessionReport::interrupted`] set.
    pub fn explore_session(
        &self,
        layer: &Layer,
        mappings: &[Dataflow],
        ctl: &SessionCtl,
    ) -> Result<(DseResult, SessionReport), SessionError> {
        self.run_session(
            ctl,
            || sweep_fingerprint(self, &format!("layer:{layer:?}"), mappings),
            |pes| self.explore_unit_inner(pes, layer, mappings),
        )
    }

    /// [`Explorer::explore_model`] as an interruption-proof session. See
    /// [`Explorer::explore_session`].
    ///
    /// # Errors
    ///
    /// As [`Explorer::explore_session`].
    pub fn explore_model_session(
        &self,
        model: &maestro_dnn::Model,
        mappings: &[Dataflow],
        ctl: &SessionCtl,
    ) -> Result<(DseResult, SessionReport), SessionError> {
        self.run_session(
            ctl,
            || sweep_fingerprint(self, &format!("model:{model:?}"), mappings),
            |pes| self.model_unit_inner(pes, model, mappings),
        )
    }

    /// The one path every sweep takes: validate the space and the resume
    /// checkpoint, run one [`timed_unit`] per PE count under `ctl`, write
    /// the final checkpoint, and merge whatever completed in unit order.
    ///
    /// `fingerprint` is called only when `ctl` resumes or writes
    /// checkpoints, so a plain sweep does not hash its configuration.
    fn run_session(
        &self,
        ctl: &SessionCtl,
        fingerprint: impl FnOnce() -> u64,
        unit: impl Fn(u64) -> Partial,
    ) -> Result<(DseResult, SessionReport), SessionError> {
        let t0 = Instant::now();
        self.space.validate()?;
        let total = self.space.pes.len();
        let fingerprint = if ctl.resume.is_some() || ctl.checkpoint_path.is_some() {
            fingerprint()
        } else {
            0
        };
        if let Some(resume) = &ctl.resume {
            resume.validate_against(fingerprint, total)?;
        }
        let (mut slots, mut report) = run_units(total, ctl, fingerprint, |i| {
            timed_unit(|| unit(self.space.pes[i]))
        });

        // Final checkpoint: always current as of the last completed unit,
        // whether the run finished or was cut short.
        if let Some(path) = &ctl.checkpoint_path {
            let ckpt = Checkpoint {
                fingerprint,
                units: slots,
            };
            ckpt.save(path)?;
            report.checkpoint_writes += 1;
            slots = ckpt.units;
        }

        let mut result = merge_partials(slots, self.sample_cap);
        finish_stats(&mut result.stats, t0);
        Ok((result, report))
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::space::SweepSpace;
    use crate::variants;
    use maestro_dnn::zoo;
    use maestro_ir::Style;

    #[test]
    fn whole_model_exploration() {
        let e = Explorer::new(SweepSpace::tiny());
        let model = zoo::alexnet(1);
        let maps = variants::variants(Style::KCP);
        let r = e.explore_model(&model, &maps).expect("valid space");
        assert!(r.stats.valid > 0);
        let t = r.best_throughput.expect("some valid design");
        assert!(t.runtime > 0.0);
        assert!(t.mapping.contains("per-layer"));
    }

    #[test]
    fn repeated_model_shapes_hit_the_memo_cache() {
        // VGG-16 repeats convolution shapes, so the per-unit cache must
        // serve a large share of the per-layer tuning lookups.
        let e = Explorer::new(SweepSpace::tiny());
        let model = zoo::vgg16(1);
        let maps = variants::variants(Style::KCP);
        let r = e.explore_model(&model, &maps).expect("valid space");
        assert!(r.stats.memo_hits > 0, "{:?}", r.stats);
        // Hits + misses cannot exceed one lookup per
        // (layer, mapping, bw, pes) combination (fewer when a hardware
        // point fails early on an unresolvable layer).
        let lookups = (model.len() * maps.len() * e.space.noc_bw.len() * e.space.pes.len()) as u64;
        assert!(r.stats.memo_hits + r.stats.evaluated <= lookups);
    }

    /// A layer with a coupling override has no shape key: it takes no
    /// other layer's prices and prices every mapping itself, to the same
    /// result.
    #[test]
    fn coupling_override_layers_price_themselves() {
        let e = Explorer::new(SweepSpace::tiny());
        let maps = variants::variants(Style::KCP);
        let vgg = zoo::vgg16(1);
        let mut custom = maestro_dnn::Model::new(vgg.name.clone());
        for layer in vgg.iter() {
            let mut layer = layer.clone();
            layer.coupling_override = Some(layer.op.coupling());
            custom.push(layer);
        }
        let plain = e.explore_model(&vgg, &maps).expect("valid space");
        let r = e.explore_model(&custom, &maps).expect("valid space");
        assert_eq!(r.pareto, plain.pareto);
        assert_eq!(r.best_throughput, plain.best_throughput);
        assert_eq!(r.best_energy, plain.best_energy);
        assert_eq!(r.best_edp, plain.best_edp);
        assert_eq!(r.sample, plain.sample);
        assert_eq!(r.stats.memo_hits, 0);
        assert_eq!(
            r.stats.evaluated,
            plain.stats.evaluated + plain.stats.memo_hits
        );
    }
}
