//! Dataflow lints: structural quality feedback on a schedule.
//!
//! The cost model happily evaluates *legal but wasteful* dataflows — ones
//! that recompute work, skip data, or leave PEs idle. These lints surface
//! such issues the way the released MAESTRO tool warns about mapping
//! problems, and the way an architect reviews a candidate schedule before
//! trusting its numbers.

use crate::level::bind;
use maestro_dnn::{Dim, Layer};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, ResolveError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One schedule-quality finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Lint {
    /// Consecutive chunks of a dimension overlap on a non-window
    /// dimension: the overlapped work is *recomputed* every trip.
    RedundantRecompute {
        /// Cluster level.
        level: usize,
        /// Offending dimension.
        dim: Dim,
        /// Chunk size (view coordinates).
        chunk: u64,
        /// Advance per trip.
        step: u64,
    },
    /// Chunks skip positions (`step > chunk`): part of the problem is
    /// never computed.
    CoverageGap {
        /// Cluster level.
        level: usize,
        /// Offending dimension.
        dim: Dim,
        /// Chunk size.
        chunk: u64,
        /// Advance per trip.
        step: u64,
    },
    /// The cluster hierarchy does not cover all PEs.
    UnusedPes {
        /// PEs covered by the hierarchy.
        used: u64,
        /// PEs available.
        total: u64,
    },
    /// A level's spatial chunks cannot fill its units in any step.
    LowSpatialOccupancy {
        /// Cluster level.
        level: usize,
        /// Steady-state active units.
        active: u64,
        /// Units available.
        units: u64,
    },
    /// A multi-unit level has no spatial map: every unit replicates the
    /// same work.
    NoParallelism {
        /// Cluster level.
        level: usize,
        /// Units available.
        units: u64,
    },
    /// The per-PE L1 requirement exceeds the configured capacity.
    L1Overflow {
        /// Required elements.
        required: u64,
        /// Available elements.
        capacity: u64,
    },
    /// The L2 staging requirement exceeds the configured capacity.
    L2Overflow {
        /// Required elements.
        required: u64,
        /// Available elements.
        capacity: u64,
    },
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::RedundantRecompute { level, dim, chunk, step } => write!(
                f,
                "level {level}: {dim} chunks of {chunk} advance by {step} — {} positions recomputed per trip",
                chunk - step
            ),
            Lint::CoverageGap { level, dim, chunk, step } => write!(
                f,
                "level {level}: {dim} chunks of {chunk} advance by {step} — {} positions skipped per trip",
                step - chunk
            ),
            Lint::UnusedPes { used, total } => {
                write!(f, "cluster hierarchy covers {used} of {total} PEs")
            }
            Lint::LowSpatialOccupancy { level, active, units } => write!(
                f,
                "level {level}: at most {active} of {units} units ever active"
            ),
            Lint::NoParallelism { level, units } => write!(
                f,
                "level {level}: no spatial map — {units} units replicate the same work"
            ),
            Lint::L1Overflow { required, capacity } => write!(
                f,
                "per-PE L1 needs {required} elements but only {capacity} fit"
            ),
            Lint::L2Overflow { required, capacity } => write!(
                f,
                "L2 staging needs {required} elements but only {capacity} fit"
            ),
        }
    }
}

/// Lint `dataflow` for `layer` on `acc`.
///
/// # Errors
///
/// Fails when the dataflow cannot be resolved at all (structural errors
/// are reported by [`maestro_ir::resolve()`], not as lints).
pub fn lint(
    layer: &Layer,
    dataflow: &Dataflow,
    acc: &Accelerator,
) -> Result<Vec<Lint>, ResolveError> {
    let (resolved, ctxs) = bind(layer, dataflow, acc.num_pes)?;
    let mut lints = Vec::new();

    if resolved.used_pes < acc.num_pes {
        lints.push(Lint::UnusedPes {
            used: resolved.used_pes,
            total: acc.num_pes,
        });
    }

    for (li, ctx) in ctxs.iter().enumerate() {
        for v in ctx.views.iter() {
            if v.trips <= 1 {
                continue;
            }
            if v.step < v.chunk {
                // Window axes legitimately overlap through the receptive
                // field; in view (output) coordinates, overlap always
                // means recompute.
                lints.push(Lint::RedundantRecompute {
                    level: li,
                    dim: v.dim,
                    chunk: v.chunk,
                    step: v.step,
                });
            } else if v.step > v.chunk {
                lints.push(Lint::CoverageGap {
                    level: li,
                    dim: v.dim,
                    chunk: v.chunk,
                    step: v.step,
                });
            }
        }
        if ctx.num_units > 1 {
            if ctx.views.iter().all(|v| !v.spatial) {
                lints.push(Lint::NoParallelism {
                    level: li,
                    units: ctx.num_units,
                });
            } else if ctx.active_units < ctx.num_units {
                lints.push(Lint::LowSpatialOccupancy {
                    level: li,
                    active: ctx.active_units,
                    units: ctx.num_units,
                });
            }
        }
    }

    // Buffer requirements vs capacities.
    if let Ok(report) = crate::analysis::analyze(layer, dataflow, acc) {
        if report.l1_per_pe_elems > acc.l1_elements() {
            lints.push(Lint::L1Overflow {
                required: report.l1_per_pe_elems,
                capacity: acc.l1_elements(),
            });
        }
        if report.l2_staging_elems > acc.l2_elements() {
            lints.push(Lint::L2Overflow {
                required: report.l2_staging_elems,
                capacity: acc.l2_elements(),
            });
        }
    }

    Ok(lints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{LayerDims, Operator};
    use maestro_ir::{SizeExpr, Style};

    fn layer() -> Layer {
        Layer::new("c", Operator::conv2d(), LayerDims::square(1, 64, 64, 58, 3))
    }

    #[test]
    fn clean_styles_mostly_lint_free() {
        let acc = Accelerator::builder(256).build();
        let l = layer();
        for style in [Style::KCP, Style::XP] {
            let lints = lint(&l, &style.dataflow(), &acc).unwrap();
            assert!(
                !lints.iter().any(|l| matches!(
                    l,
                    Lint::RedundantRecompute { .. } | Lint::CoverageGap { .. }
                )),
                "{style}: {lints:?}"
            );
        }
    }

    #[test]
    fn recompute_is_flagged() {
        // K chunks of 4 advancing by 2: half the work recomputed.
        let df = Dataflow::builder("re").temporal(4, 2, Dim::K).build();
        let acc = Accelerator::builder(16).build();
        let lints = lint(&layer(), &df, &acc).unwrap();
        assert!(
            lints
                .iter()
                .any(|l| matches!(l, Lint::RedundantRecompute { dim: Dim::K, .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn gaps_are_flagged() {
        let df = Dataflow::builder("gap").temporal(2, 4, Dim::C).build();
        let acc = Accelerator::builder(16).build();
        let lints = lint(&layer(), &df, &acc).unwrap();
        assert!(
            lints
                .iter()
                .any(|l| matches!(l, Lint::CoverageGap { dim: Dim::C, .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn replicated_work_is_flagged() {
        let df = Dataflow::builder("seq").temporal(1, 1, Dim::K).build();
        let acc = Accelerator::builder(16).build();
        let lints = lint(&layer(), &df, &acc).unwrap();
        assert!(
            lints
                .iter()
                .any(|l| matches!(l, Lint::NoParallelism { .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn pe_coverage_and_occupancy() {
        // YR-P on 256 PEs: 255 used (85 clusters of 3).
        let acc = Accelerator::builder(256).build();
        let lints = lint(&layer(), &Style::YRP.dataflow(), &acc).unwrap();
        assert!(
            lints.iter().any(|l| matches!(
                l,
                Lint::UnusedPes {
                    used: 255,
                    total: 256
                }
            )),
            "{lints:?}"
        );
        // C-P on a 64-channel layer over 256 PEs: only 64 active.
        let lints = lint(&layer(), &Style::CP.dataflow(), &acc).unwrap();
        assert!(
            lints
                .iter()
                .any(|l| matches!(l, Lint::LowSpatialOccupancy { active: 64, .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn buffer_overflow_is_flagged() {
        let acc = Accelerator::builder(64).l1_bytes(8).l2_bytes(64).build();
        let df = Dataflow::builder("big")
            .temporal(SizeExpr::size(Dim::C), SizeExpr::size(Dim::C), Dim::C)
            .spatial(1, 1, Dim::K)
            .build();
        let lints = lint(&layer(), &df, &acc).unwrap();
        assert!(
            lints.iter().any(|l| matches!(l, Lint::L1Overflow { .. })),
            "{lints:?}"
        );
        assert!(
            lints.iter().any(|l| matches!(l, Lint::L2Overflow { .. })),
            "{lints:?}"
        );
    }

    #[test]
    fn lint_display() {
        let l = Lint::UnusedPes {
            used: 255,
            total: 256,
        };
        assert!(l.to_string().contains("255 of 256"));
    }
}
