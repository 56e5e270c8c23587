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

use crate::flat::FlatSchedule;
use maestro_core::counts::ActivityCounts;
use maestro_core::level::OutputSpatial;
use maestro_dnn::{Layer, TensorKind};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, ResolveError};
use serde::{Deserialize, Serialize};
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
    /// A mapping was asked for at a step past the end of the schedule.
    StepOutOfRange {
        /// The step asked for.
        step: u64,
        /// Steps in the schedule.
        total_steps: u64,
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
            SimError::StepOutOfRange { step, total_steps } => write!(
                f,
                "step {step} is past the end of the schedule ({total_steps} steps)"
            ),
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
    let sched = FlatSchedule::build(layer, dataflow, acc.num_pes)?;
    let total_steps = sched.total_steps();
    maestro_obs::debug!(
        "simulating {}/{}: {} steps on {} PEs",
        layer.name,
        dataflow.name(),
        total_steps,
        acc.num_pes
    );
    if total_steps > opts.max_steps {
        maestro_obs::warn!(
            "simulation of {}/{} aborted: schedule needs {} steps, over the limit of {}",
            layer.name,
            dataflow.name(),
            total_steps,
            opts.max_steps
        );
        return Err(SimError::TooManySteps {
            needed: total_steps,
            limit: opts.max_steps,
        });
    }
    let coupling = layer.coupling();
    let density = layer.density;
    let support = acc.support;
    let levels = sched.levels();

    // Per-level static spatial facts (shared semantics with the model).
    let op_mult: Vec<[f64; 2]> = levels
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
    let out_mult: f64 = levels
        .iter()
        .map(|ctx| match ctx.output_spatial {
            OutputSpatial::Varies => ctx.active_units as f64,
            OutputSpatial::Reduced => support.reduction.upstream_writes(ctx.active_units) as f64,
            OutputSpatial::NotParallel => 1.0,
        })
        .product();
    let in_mult: f64 = op_mult.iter().map(|m| m[0]).product();
    let w_mult: f64 = op_mult.iter().map(|m| m[1]).product();
    let red_latency: f64 = levels
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
        && levels
            .iter()
            .any(|ctx| ctx.output_spatial == OutputSpatial::Reduced);
    let mcast_latency: f64 = levels
        .iter()
        .map(|ctx| support.multicast.extra_latency(ctx.active_units) as f64)
        .sum();

    let mut counts = ActivityCounts::new();
    let mut cycles = 0.0f64;
    let mut macs_total = 0u64;
    let mut active_pe_steps = 0.0f64;
    let mut steps = 0u64;
    let mut last = None;
    for step in sched.walk() {
        steps += 1;
        let first = step.advanced.is_none();
        let active = step.active_pes as f64;
        macs_total += step.macs;
        active_pe_steps += active;
        let macs_eff = step.macs as f64 * density.mac_fraction();
        counts.macs += macs_eff;
        counts.l1_read[TensorKind::Input] += macs_eff;
        counts.l1_read[TensorKind::Weight] += macs_eff;
        counts.l1_read[TensorKind::Output] += macs_eff;
        counts.l1_write[TensorKind::Output] += macs_eff;

        // Representative-PE new data (exact interval diffs).
        let new_in = step.entered[TensorKind::Input as usize] as f64 * density.input;
        let new_w = step.entered[TensorKind::Weight as usize] as f64 * density.weight;
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
        let mut egress = 0.0f64;
        let mut refetch = 0.0f64;
        if !first {
            let leaving = step.left[TensorKind::Output as usize] as f64 * density.output;
            let entering = step.entered[TensorKind::Output as usize] as f64 * density.output;
            if leaving > 0.0 || entering > 0.0 {
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
                if step.revisit {
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
        last = Some(step);
    }

    // Final drain of resident outputs.
    if let Some(last) = last {
        let resident = last.footprint[TensorKind::Output as usize] as f64 * density.output;
        counts.l1_read[TensorKind::Output] += resident * last.active_pes as f64;
        counts.l2_write[TensorKind::Output] += resident * out_mult;
        if rmw_reduction {
            counts.l2_read[TensorKind::Output] += resident * out_mult;
        }
        counts.noc[TensorKind::Output] += resident * out_mult;
        cycles += ((resident * out_mult) / acc.noc.bandwidth as f64).ceil();
    }

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
