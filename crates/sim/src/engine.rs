//! The step-driven reference simulator.
//!
//! Where the analytical model (`maestro-core`) evaluates closed-form
//! transition classes, the simulator *walks every time step* of the
//! flattened schedule: per step it diffs the representative PE's resident
//! data intervals against the previous step (exact edge-chunk handling),
//! tracks partial-sum liveness with the actual odometer counters, counts
//! MACs exactly over the unit grid, and accumulates double-buffered timing
//! from the actual per-step traffic. It shares the *mapping semantics*
//! (which data lives where) with the model — that is the IR's definition —
//! but derives cost from enumeration rather than algebra, which is what
//! makes it a meaningful validation target (paper Figure 9's role).

use crate::flat::{tensor_axis_interval, FlatSchedule, Interval};
use maestro_core::counts::ActivityCounts;
use maestro_core::level::{LevelCtx, OutputSpatial};
use maestro_dnn::{Coupling, Layer, TensorKind, ALL_DIMS};
use maestro_hw::Accelerator;
use maestro_ir::{resolve, Dataflow, ResolveError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Simulator failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The dataflow cannot be bound to the layer.
    Resolve(ResolveError),
    /// The schedule exceeds the configured step budget.
    TooManySteps {
        /// Steps the schedule would need.
        needed: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Resolve(e) => write!(f, "cannot resolve dataflow: {e}"),
            SimError::TooManySteps { needed, limit } => {
                write!(
                    f,
                    "schedule needs {needed} steps, over the limit of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ResolveError> for SimError {
    fn from(e: ResolveError) -> Self {
        SimError::Resolve(e)
    }
}

/// Simulation results for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated runtime in cycles.
    pub cycles: f64,
    /// Activity counts observed.
    pub counts: ActivityCounts,
    /// Exact dense MAC count executed (should equal the layer's).
    pub macs: u64,
    /// Time steps walked.
    pub steps: u64,
    /// Average PE utilization (active PE-steps / (PEs × steps)).
    pub utilization: f64,
}

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Abort schedules longer than this many steps.
    pub max_steps: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_steps: 50_000_000,
        }
    }
}

/// Simulate `layer` under `dataflow` on `acc`.
///
/// # Errors
///
/// Fails when the dataflow cannot be resolved or the schedule exceeds
/// [`SimOptions::max_steps`].
pub fn simulate(
    layer: &Layer,
    dataflow: &Dataflow,
    acc: &Accelerator,
    opts: SimOptions,
) -> Result<SimReport, SimError> {
    let _span = maestro_obs::span::span("maestro.sim.simulate");
    let coupling = layer.coupling();
    let resolved = resolve(dataflow, layer, acc.num_pes)?;
    let levels: Vec<LevelCtx> = resolved
        .levels
        .iter()
        .map(|l| LevelCtx::build(&resolved, l, &coupling))
        .collect();
    let mut sched = FlatSchedule::new(levels, &coupling);
    maestro_obs::debug!(
        "simulating {}/{}: {} steps on {} PEs",
        layer.name,
        dataflow.name(),
        sched.total_steps,
        acc.num_pes
    );
    if sched.total_steps > opts.max_steps {
        maestro_obs::warn!(
            "simulation of {}/{} aborted: schedule needs {} steps, over the limit of {}",
            layer.name,
            dataflow.name(),
            sched.total_steps,
            opts.max_steps
        );
        return Err(SimError::TooManySteps {
            needed: sched.total_steps,
            limit: opts.max_steps,
        });
    }
    let strides = (layer.dims.stride_y, layer.dims.stride_x);
    let density = layer.density;
    let support = acc.support;
    let num_levels = sched.levels.len();

    // Per-level static spatial facts (shared semantics with the model).
    let op_mult: Vec<[f64; 2]> = sched
        .levels
        .iter()
        .map(|ctx| {
            let m = |k: TensorKind| -> f64 {
                if ctx.varies_spatially(&coupling, k) {
                    match support.multicast {
                        maestro_hw::SpatialMulticast::None => ctx.active_units as f64,
                        _ => ctx.active_units as f64 * ctx.spatial_sharing_ratio(&coupling, k),
                    }
                } else {
                    support.multicast.upstream_reads(ctx.active_units) as f64
                }
            };
            [m(TensorKind::Input), m(TensorKind::Weight)]
        })
        .collect();
    let out_mult: f64 = sched
        .levels
        .iter()
        .map(|ctx| match ctx.output_spatial {
            OutputSpatial::Varies => ctx.active_units as f64,
            OutputSpatial::Reduced => support.reduction.upstream_writes(ctx.active_units) as f64,
            OutputSpatial::NotParallel => 1.0,
        })
        .product();
    let in_mult: f64 = op_mult.iter().map(|m| m[0]).product();
    let w_mult: f64 = op_mult.iter().map(|m| m[1]).product();
    let red_latency: f64 = sched
        .levels
        .iter()
        .map(|ctx| {
            if ctx.output_spatial == OutputSpatial::Reduced {
                support.reduction.extra_latency(ctx.active_units) as f64
            } else {
                0.0
            }
        })
        .sum();
    // Without spatial-reduction hardware, arriving psums read-modify-write
    // the L2 (one extra read per write).
    let rmw_reduction = support.reduction == maestro_hw::SpatialReduction::None
        && sched
            .levels
            .iter()
            .any(|ctx| ctx.output_spatial == OutputSpatial::Reduced);
    let mcast_latency: f64 = sched
        .levels
        .iter()
        .map(|ctx| support.multicast.extra_latency(ctx.active_units) as f64)
        .sum();

    // Representative-PE resident intervals per tensor/axis.
    let axes = |s: &FlatSchedule| -> [Vec<Option<Interval>>; 3] {
        TensorKind::ALL.map(|k| {
            ALL_DIMS
                .iter()
                .map(|&d| tensor_axis_interval(s, &coupling, k, d, strides, &[]))
                .collect()
        })
    };
    let fp_of =
        |iv: &[Option<Interval>]| -> f64 { iv.iter().flatten().map(|i| i.len as f64).product() };
    let overlap_of = |a: &[Option<Interval>], b: &[Option<Interval>]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| match (x, y) {
                (Some(x), Some(y)) => x.overlap(y) as f64,
                _ => 1.0,
            })
            .product()
    };

    let mut counts = ActivityCounts::new();
    let mut cycles = 0.0f64;
    let mut macs_total = 0u64;
    let mut active_pe_steps = 0.0f64;
    let mut steps = 0u64;
    let mut macs_memo: HashMap<Vec<u64>, u64> = HashMap::new();

    let mut prev = axes(&sched);
    let mut first = true;
    loop {
        steps += 1;
        let cur = axes(&sched);
        let active: f64 = (0..num_levels)
            .map(|l| sched.active_units(l) as f64)
            .product();

        // Exact MAC count across the unit grid (memoized recursion).
        let step_macs = exact_macs(&sched, &coupling, &mut macs_memo);
        macs_total += step_macs;
        active_pe_steps += active;
        let macs_eff = step_macs as f64 * density.mac_fraction();
        counts.macs += macs_eff;
        counts.l1_read[TensorKind::Input] += macs_eff;
        counts.l1_read[TensorKind::Weight] += macs_eff;
        counts.l1_read[TensorKind::Output] += macs_eff;
        counts.l1_write[TensorKind::Output] += macs_eff;

        // Representative-PE new data (exact interval diffs).
        let new_of = |k: TensorKind| -> f64 {
            let ki = k as usize;
            if first {
                fp_of(&cur[ki])
            } else {
                (fp_of(&cur[ki]) - overlap_of(&prev[ki], &cur[ki])).max(0.0)
            }
        };
        let new_in = new_of(TensorKind::Input) * density.input;
        let new_w = new_of(TensorKind::Weight) * density.weight;
        counts.l1_write[TensorKind::Input] += new_in * active;
        counts.l1_write[TensorKind::Weight] += new_w * active;
        let l2_in = new_in * in_mult;
        let l2_w = new_w * w_mult;
        counts.l2_read[TensorKind::Input] += l2_in;
        counts.l2_read[TensorKind::Weight] += l2_w;
        counts.noc[TensorKind::Input] += new_in * active;
        counts.noc[TensorKind::Weight] += new_w * active;

        // Outputs: leaving = spilled or committed; entering partials are
        // refetched when this region was visited before.
        let oi = TensorKind::Output as usize;
        let mut egress = 0.0f64;
        let mut refetch = 0.0f64;
        if !first {
            let leaving =
                (fp_of(&prev[oi]) - overlap_of(&prev[oi], &cur[oi])).max(0.0) * density.output;
            let entering =
                (fp_of(&cur[oi]) - overlap_of(&prev[oi], &cur[oi])).max(0.0) * density.output;
            if leaving > 0.0 || entering > 0.0 {
                let j = advancing_loop(&sched);
                let visited_before = sched.loops[..j]
                    .iter()
                    .zip(&sched.counters[..j])
                    .any(|(l, &c)| l.is_reduction && c > 0);
                // Whether these are spills (they will return) or final
                // commits, they travel upstream and hit the L2 once.
                let moved = leaving * out_mult;
                egress = moved;
                counts.l1_read[TensorKind::Output] += leaving * active;
                counts.noc[TensorKind::Output] += moved;
                counts.l2_write[TensorKind::Output] += moved;
                if rmw_reduction {
                    counts.l2_read[TensorKind::Output] += moved;
                }
                if visited_before {
                    refetch = entering * out_mult;
                    counts.l2_read[TensorKind::Output] += refetch;
                    counts.noc[TensorKind::Output] += refetch;
                }
            }
        }

        // Timing: double-buffered outstanding delay. Per-PE work comes
        // from the step's *actual* MAC count (edge steps are cheaper),
        // with a one-cycle bubble floor.
        let compute = {
            let per_pe = macs_eff / active.max(1.0);
            (per_pe / acc.vector_width as f64).ceil().max(1.0)
        };
        let transfer = |e: f64| -> f64 {
            if e <= 0.0 {
                0.0
            } else {
                (e / acc.noc.bandwidth as f64).ceil() + acc.noc.avg_latency as f64
            }
        };
        let ingress_delay = transfer(l2_in + l2_w + refetch);
        let egress_delay = transfer(egress);
        cycles += if first {
            // Multicast/reduction networks are pipelined: their depth is a
            // fill cost charged once, on the first step.
            ingress_delay + compute + egress_delay + red_latency + mcast_latency
        } else {
            compute.max(ingress_delay).max(egress_delay)
        };

        first = false;
        prev = cur;
        if sched.advance().is_none() {
            break;
        }
    }

    // Final drain of resident outputs.
    let oi = TensorKind::Output as usize;
    let resident = fp_of(&prev[oi]) * density.output;
    counts.l1_read[TensorKind::Output] += resident * active_last(&sched);
    counts.l2_write[TensorKind::Output] += resident * out_mult;
    if rmw_reduction {
        counts.l2_read[TensorKind::Output] += resident * out_mult;
    }
    counts.noc[TensorKind::Output] += resident * out_mult;
    cycles += ((resident * out_mult) / acc.noc.bandwidth as f64).ceil();

    // Off-chip traffic and delay, by the same rule as the model (the
    // estimator is shared; inputs here are the simulator's exact counts).
    let tensor_elems = layer.tensor_sizes();
    let (dram_read, dram_write) =
        maestro_core::report::offchip_traffic(&counts, tensor_elems, acc.l2_elements());
    counts.dram_read = dram_read;
    counts.dram_write = dram_write;
    let dram_delay = (dram_read.total() + dram_write.total()) / acc.offchip_bandwidth.max(1) as f64;
    let cycles = cycles.max(dram_delay);

    let total_pes = acc.num_pes as f64;
    Ok(SimReport {
        cycles,
        counts,
        macs: macs_total,
        steps,
        utilization: active_pe_steps / (total_pes * steps as f64),
    })
}

fn active_last(sched: &FlatSchedule) -> f64 {
    (0..sched.levels.len())
        .map(|l| sched.active_units(l) as f64)
        .product()
}

/// The loop that advanced to reach the current step: the outermost loop
/// whose inner neighbours are all at counter zero (the odometer reset
/// them), i.e. the last loop with a nonzero "just advanced" position. We
/// recover it as the innermost loop with a nonzero counter among those
/// whose inner loops are all zero — equivalently the largest `j` such that
/// all counters after `j` are zero.
fn advancing_loop(sched: &FlatSchedule) -> usize {
    let mut j = sched.loops.len();
    while j > 0 && sched.counters[j - 1] == 0 {
        j -= 1;
    }
    j.saturating_sub(1).min(sched.loops.len().saturating_sub(1))
}

/// Exact MACs executed across the whole unit grid in the schedule's
/// current step (public wrapper for tracing; `memo` caches inner-level
/// sub-grid sums across calls).
pub fn exact_step_macs(
    sched: &FlatSchedule,
    coupling: &Coupling,
    memo: &mut HashMap<Vec<u64>, u64>,
) -> u64 {
    exact_macs(sched, coupling, memo)
}

/// Exact MACs across the whole unit grid in the current step, memoized by
/// the per-level availability signature.
fn exact_macs(sched: &FlatSchedule, coupling: &Coupling, memo: &mut HashMap<Vec<u64>, u64>) -> u64 {
    fn rec(
        sched: &FlatSchedule,
        coupling: &Coupling,
        level: usize,
        avail: [u64; 7],
        memo: &mut HashMap<Vec<u64>, u64>,
    ) -> u64 {
        if level == sched.levels.len() {
            // Leaf: the PE executes the product of its chunk extents.
            let _ = coupling;
            return avail.iter().product();
        }
        // Memoize inner levels only: the top level's key is unique per
        // step, so caching it would only grow the table.
        let key: Option<Vec<u64>> = (level >= 1).then(|| {
            std::iter::once(level as u64)
                .chain(avail.iter().copied())
                .chain(
                    sched
                        .loops
                        .iter()
                        .zip(&sched.counters)
                        .filter(|(l, _)| l.level >= level)
                        .map(|(_, &c)| c),
                )
                .collect()
        });
        if let Some(k) = &key {
            if let Some(&v) = memo.get(k) {
                return v;
            }
        }
        let ctx = &sched.levels[level];
        let mut total = 0u64;
        let units = if ctx.views.iter().any(|v| v.spatial) {
            ctx.num_units
        } else {
            1
        };
        // A unit idles when it is beyond the *driving* spatial dim (the
        // one with the most chunks available in the current, possibly
        // edge-truncated extents); shorter co-mapped dims clamp.
        use maestro_core::footprint::num_trips;
        let avail_trips = |d: maestro_dnn::Dim| {
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
        let fold = sched
            .loops
            .iter()
            .zip(&sched.counters)
            .find(|(l, _)| l.level == level && l.spatial_fold)
            .map(|(_, &c)| c)
            .unwrap_or(0);
        'units: for u in 0..units {
            if fold * ctx.num_units + u >= driving_trips && ctx.views.iter().any(|v| v.spatial) {
                continue 'units;
            }
            let mut lens = [0u64; 7];
            for d in ALL_DIMS {
                let v = ctx.views.view(d);
                let a = avail[d.index()];
                let pos = if v.spatial {
                    (fold * ctx.num_units + u).min(avail_trips(d).saturating_sub(1))
                } else {
                    sched
                        .loops
                        .iter()
                        .zip(&sched.counters)
                        .find(|(l, _)| {
                            l.level == level
                                && !l.spatial_fold
                                && l.dims.iter().any(|(ld, _)| *ld == d)
                        })
                        .map(|(_, &c)| c)
                        .unwrap_or(0)
                };
                let start = (pos * v.step).min(a.saturating_sub(1));
                lens[d.index()] = v.chunk.min(a - start);
            }
            total += rec(sched, coupling, level + 1, lens, memo);
        }
        if let Some(k) = key {
            memo.insert(k, total);
        }
        total
    }
    let top: [u64; 7] = {
        let mut a = [0u64; 7];
        for d in ALL_DIMS {
            a[d.index()] = sched.levels[0].views.view(d).total;
        }
        a
    };
    rec(sched, coupling, 0, top, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator};
    use maestro_ir::Style;

    fn small_conv() -> Layer {
        Layer::new("c", Operator::conv2d(), LayerDims::square(1, 8, 8, 10, 3))
    }

    #[test]
    fn exact_mac_conservation_across_styles() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        let exact = layer.total_macs();
        for style in Style::ALL {
            let r = simulate(&layer, &style.dataflow(), &acc, SimOptions::default())
                .unwrap_or_else(|e| panic!("{style}: {e}"));
            assert_eq!(r.macs, exact, "{style} must execute every MAC exactly once");
        }
    }

    #[test]
    fn mac_conservation_with_strides_and_odd_sizes() {
        let dims = LayerDims {
            n: 2,
            k: 5,
            c: 7,
            y: 13,
            x: 11,
            r: 3,
            s: 2,
            stride_y: 2,
            stride_x: 1,
        };
        let layer = Layer::new("odd", Operator::conv2d(), dims);
        let acc = Accelerator::builder(64).build();
        for style in [Style::XP, Style::KCP, Style::CP] {
            let r = simulate(&layer, &style.dataflow(), &acc, SimOptions::default())
                .unwrap_or_else(|e| panic!("{style}: {e}"));
            assert_eq!(r.macs, layer.total_macs(), "{style}");
        }
    }

    #[test]
    fn runtime_at_least_roofline() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let r = simulate(&layer, &style.dataflow(), &acc, SimOptions::default()).unwrap();
            let roofline = layer.total_macs() as f64 / acc.peak_macs_per_cycle() as f64;
            assert!(r.cycles >= roofline * 0.9, "{style}: {}", r.cycles);
        }
    }

    #[test]
    fn l2_reads_cover_tensors() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let r = simulate(&layer, &style.dataflow(), &acc, SimOptions::default()).unwrap();
            assert!(
                r.counts.l2_read[TensorKind::Weight]
                    >= layer.tensor_elements(TensorKind::Weight) as f64 * 0.9,
                "{style}: {}",
                r.counts.l2_read[TensorKind::Weight]
            );
            assert!(
                r.counts.l2_write[TensorKind::Output]
                    >= layer.tensor_elements(TensorKind::Output) as f64 * 0.9,
                "{style}"
            );
        }
    }

    #[test]
    fn step_budget_is_enforced() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        let err = simulate(
            &layer,
            &Style::CP.dataflow(),
            &acc,
            SimOptions { max_steps: 10 },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::TooManySteps { .. }));
    }

    #[test]
    fn utilization_in_unit_range() {
        let layer = small_conv();
        let acc = Accelerator::builder(64).build();
        for style in Style::ALL {
            let r = simulate(&layer, &style.dataflow(), &acc, SimOptions::default()).unwrap();
            assert!((0.0..=1.0).contains(&r.utilization), "{style}");
        }
    }
}
