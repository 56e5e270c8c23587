//! Staged analysis: the NoC-independent stages of [`analyze`] split from
//! the cheap per-NoC performance stage, so a sweep over NoC bandwidths can
//! run the expensive half once.
//!
//! [`analyze`] is literally `StagedAnalysis::build(..)?.finish(..)` — the
//! fused and staged paths share one implementation, so they cannot drift:
//! bit-identical results are a property of the code structure, not of a
//! test suite.
//!
//! Stage boundaries match the spans maestro-obs already instruments:
//!
//! * `maestro.analysis.tensor` — bind the dataflow, derive per-level views;
//! * `maestro.analysis.reuse` — per-level transition-class analysis
//!   ([`analyze_level_static`]): activity counts, MACs, transition tables;
//! * `maestro.analysis.buffer` — L2 read-modify-write correction,
//!   utilization, capacity requirements;
//! * `maestro.analysis.noc` — off-chip (DRAM) traffic and delay, which
//!   depend on the L2 capacity and off-chip bandwidth but *not* on the NoC
//!   pipe;
//! * `maestro.analysis.perf` — [`price`]: price the transition tables
//!   under a concrete (bandwidth, latency) NoC.
//!
//! Everything up to and including `noc` is captured in a [`StagedAnalysis`];
//! [`price`] re-prices it for as many NoC configurations as desired into a
//! [`Priced`], the report's scalar fields with no allocation. [`finish`] is
//! `price` plus the names and the per-level pass cycles: one perf loop, one
//! span and one finite-value gate serve both, so a sweep that prices and a
//! caller that wants the whole report cannot disagree.
//!
//! [`analyze`]: crate::analyze
//! [`analyze_level_static`]: crate::engine::analyze_level_static
//! [`price`]: StagedAnalysis::price
//! [`finish`]: StagedAnalysis::finish

use crate::analysis::AnalysisError;
use crate::counts::ActivityCounts;
use crate::engine::{analyze_level_static, level_perf, LevelPerf, LevelStatic};
use crate::level::bind;
use crate::report::{LayerReport, LevelSummary, Priced};
use maestro_dnn::{Layer, TensorKind};
use maestro_hw::Accelerator;
use maestro_ir::Dataflow;
use std::sync::OnceLock;

/// Counter of [`LayerReport::validate`] rejections inside the analysis
/// entry points (`maestro.analysis.validation_failures`).
fn validation_failures() -> &'static maestro_obs::Counter {
    static C: OnceLock<maestro_obs::Counter> = OnceLock::new();
    C.get_or_init(|| maestro_obs::registry().counter("maestro.analysis.validation_failures"))
}

/// Counter of analysis builds (`maestro.analysis.calls`). Each fused
/// [`analyze`](crate::analyze) counts once; under staged evaluation each
/// *static build* counts once however many NoC points it is priced for —
/// which is exactly the number of expensive analyses actually run.
///
/// Registering it also registers the daemon cache's `maestro.cache.*`
/// counters, so every exposition that counts analyses carries them — at
/// zero when no [`Analyzer`](crate::Analyzer) ran, as in every DSE sweep.
fn analysis_calls() -> &'static maestro_obs::Counter {
    static C: OnceLock<maestro_obs::Counter> = OnceLock::new();
    C.get_or_init(|| {
        crate::memo::register_counters();
        maestro_obs::registry().counter("maestro.analysis.calls")
    })
}

/// The NoC-independent result of analyzing (layer × dataflow × accelerator
/// minus its NoC pipe): everything [`analyze`](crate::analyze) computes
/// except runtime, average/peak bandwidth and per-level pass cycles.
///
/// Build once with [`StagedAnalysis::build`], then price it for any number
/// of NoC configurations with [`StagedAnalysis::price`] (the scalars), or
/// finish it into the full [`LayerReport`] with [`StagedAnalysis::finish`],
/// which consumes the build — each is a few hundred floating-point
/// operations instead of a full re-analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedAnalysis {
    layer: String,
    dataflow: String,
    used_pes: u64,
    num_pes: u64,
    utilization: f64,
    tensor_elems: [u64; 3],
    /// Top-level activity counts, after the RMW correction and with DRAM
    /// traffic stamped (all NoC-independent).
    counts: ActivityCounts,
    macs_dense: f64,
    macs_effective: f64,
    l1_per_pe_elems: u64,
    l2_staging_elems: u64,
    /// Off-chip transfer delay (elements / off-chip bandwidth), overlapped
    /// against on-chip runtime in [`price`](StagedAnalysis::price).
    dram_delay: f64,
    /// Per-level static analyses, outermost first (index = level).
    levels_static: Vec<LevelStatic>,
    /// Per-level report summaries with `pass_cycles` left at zero; filled
    /// per NoC configuration by [`finish`](StagedAnalysis::finish).
    levels_meta: Vec<LevelSummary>,
}

impl StagedAnalysis {
    /// Run the tensor, reuse, buffer and off-chip stages for
    /// (layer × dataflow) on `acc`.
    ///
    /// Only the NoC-independent parts of `acc` are read: PE count, vector
    /// width, reuse support, L2 capacity and off-chip bandwidth. Two
    /// accelerators differing only in `acc.noc` produce identical builds —
    /// that invariance is what lets a sweep price one build at every
    /// bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the layer is invalid or the dataflow
    /// cannot be resolved for this layer/PE combination.
    pub fn build(
        layer: &Layer,
        dataflow: &Dataflow,
        acc: &Accelerator,
    ) -> Result<Self, AnalysisError> {
        analysis_calls().inc();

        // Tensor + cluster analysis: bind the dataflow to the layer, derive
        // the per-level data views (paper §4.1–§4.2).
        let (resolved, coupling, ctxs) = {
            let _s = maestro_obs::span::span("maestro.analysis.tensor");
            layer.validate()?;
            let (resolved, ctxs) = bind(layer, dataflow, acc.num_pes)?;
            (resolved, layer.coupling(), ctxs)
        };

        // Reuse analysis: the per-level transition-class engine (paper
        // §4.2–§4.4), innermost level first.
        let (mut levels_static, mut levels_meta) = {
            let _s = maestro_obs::span::span("maestro.analysis.reuse");
            let mut stats: Vec<LevelStatic> = Vec::with_capacity(ctxs.len());
            let mut meta: Vec<LevelSummary> = Vec::with_capacity(ctxs.len());
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
                meta.push(LevelSummary {
                    level: i,
                    units: ctx.num_units,
                    active_units: ctx.active_units,
                    utilization: ctx.utilization,
                    steps: ctx.total_steps,
                    pass_cycles: 0.0,
                    footprint: st.footprint,
                    output_spatial: ctx.output_spatial,
                });
                stats.push(st);
            }
            (stats, meta)
        };
        // Stored outermost-first so index == level.
        levels_static.reverse();
        levels_meta.reverse();
        let Some(top) = levels_static.first() else {
            return Err(AnalysisError::EmptyResolution);
        };
        if resolved.used_pes == 0 || resolved.used_pes > acc.num_pes {
            return Err(AnalysisError::Internal(
                "resolved PE usage is outside the accelerator's PE array",
            ));
        }
        let mut counts = top.counts;
        let macs_dense = top.macs_dense;
        let macs_effective = top.macs_effective;
        let l1_per_pe_elems = top.l1_per_pe;
        let l2_staging_elems = top.staging;

        // Buffer analysis: L2 read-modify-write correction and utilization
        // (the capacity side of the cost model).
        let utilization = {
            let _s = maestro_obs::span::span("maestro.analysis.buffer");
            // Without spatial-reduction hardware, partial sums from
            // spatially reduced levels are combined by read-modify-write at
            // the L2: every output write implies one extra read (paper
            // Table 2 / Table 5).
            if acc.support.reduction == maestro_hw::SpatialReduction::None
                && ctxs
                    .iter()
                    .any(|c| c.output_spatial == crate::level::OutputSpatial::Reduced)
            {
                let writes = counts.l2_write[TensorKind::Output];
                counts.l2_read[TensorKind::Output] += writes;
            }
            ctxs.iter().map(|c| c.utilization).product::<f64>()
                * (resolved.used_pes as f64 / acc.num_pes as f64)
        };

        // Off-chip analysis: DRAM traffic (Figure 2 lists DRAM bandwidth
        // among the model's hardware parameters) — compulsory moves plus
        // capacity misses. The delay depends on L2 capacity and off-chip
        // bandwidth only; the overlap against on-chip execution happens in
        // `price`, where the on-chip runtime is known.
        let (dram_delay, tensor_elems) = {
            let _s = maestro_obs::span::span("maestro.analysis.noc");
            let tensor_elems = layer.tensor_sizes();
            let (dram_read, dram_write) =
                crate::report::offchip_traffic(&counts, tensor_elems, acc.l2_elements());
            counts.dram_read = dram_read;
            counts.dram_write = dram_write;
            let dram_delay =
                (dram_read.total() + dram_write.total()) / acc.offchip_bandwidth.max(1) as f64;
            (dram_delay, tensor_elems)
        };

        Ok(StagedAnalysis {
            layer: layer.name.clone(),
            dataflow: dataflow.name().to_string(),
            used_pes: resolved.used_pes,
            num_pes: acc.num_pes,
            utilization,
            tensor_elems,
            counts,
            macs_dense,
            macs_effective,
            l1_per_pe_elems,
            l2_staging_elems,
            dram_delay,
            levels_static,
            levels_meta,
        })
    }

    /// Price the staged analysis under a concrete NoC pipe: the scalar
    /// fields of the [`LayerReport`] a fused [`analyze`](crate::analyze)
    /// on an accelerator with that NoC would return, bit for bit, without
    /// building the report.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NonFinite`] when the priced scalars fail
    /// the finite-value gate (e.g. zero bandwidth yielding an infinite
    /// runtime).
    pub fn price(&self, bandwidth: u64, avg_latency: u64) -> Result<Priced, AnalysisError> {
        self.perf(bandwidth, avg_latency, |_, _| {})
    }

    /// Price the staged analysis under a concrete NoC pipe, producing the
    /// same [`LayerReport`] a fused [`analyze`](crate::analyze) on an
    /// accelerator with that NoC would — bit for bit. This is
    /// [`price`](StagedAnalysis::price) plus the names and the per-level
    /// pass cycles, which move into the report: clone the build first to
    /// finish it under several NoC configurations.
    ///
    /// # Errors
    ///
    /// As [`price`](StagedAnalysis::price).
    pub fn finish(
        mut self,
        bandwidth: u64,
        avg_latency: u64,
    ) -> Result<LayerReport, AnalysisError> {
        let mut levels = std::mem::take(&mut self.levels_meta);
        let priced = self.perf(bandwidth, avg_latency, |level, pass_cycles| {
            if let Some(meta) = levels.get_mut(level) {
                meta.pass_cycles = pass_cycles;
            }
        })?;
        Ok(priced.into_report(self.layer, self.dataflow, levels))
    }

    /// The perf stage behind both [`price`] and [`finish`]: price every
    /// level innermost first under the `maestro.analysis.perf` span,
    /// handing `pass_cycles` each level's steady-state pass runtime, then
    /// apply the finite-value gate.
    ///
    /// [`price`]: StagedAnalysis::price
    /// [`finish`]: StagedAnalysis::finish
    fn perf(
        &self,
        bandwidth: u64,
        avg_latency: u64,
        mut pass_cycles: impl FnMut(usize, f64),
    ) -> Result<Priced, AnalysisError> {
        let _s = maestro_obs::span::span("maestro.analysis.perf");
        let mut perf: Option<LevelPerf> = None;
        for (level, st) in self.levels_static.iter().enumerate().rev() {
            let p = level_perf(st, perf.as_ref(), bandwidth, avg_latency);
            pass_cycles(level, p.runtime_steady);
            perf = Some(p);
        }
        let Some(top) = perf else {
            return Err(AnalysisError::EmptyResolution);
        };

        let runtime = top.runtime_first.max(self.dram_delay);
        let avg_bw = if runtime > 0.0 {
            (self.counts.l2_read.total() + self.counts.l2_write.total()) / runtime
        } else {
            0.0
        };

        let priced = Priced {
            runtime,
            counts: self.counts,
            macs_dense: self.macs_dense,
            macs_effective: self.macs_effective,
            l1_per_pe_elems: self.l1_per_pe_elems,
            l2_staging_elems: self.l2_staging_elems,
            peak_bw: top.peak_bw,
            avg_bw,
            utilization: self.utilization,
            used_pes: self.used_pes,
            num_pes: self.num_pes,
            tensor_elems: self.tensor_elems,
        };
        if let Err(e) = priced.validate() {
            validation_failures().inc();
            maestro_obs::debug!(
                "analysis of {}/{} rejected by the finite-value gate: {e}",
                self.layer,
                self.dataflow
            );
            return Err(e);
        }
        Ok(priced)
    }

    /// The analyzed layer's name.
    pub fn layer(&self) -> &str {
        &self.layer
    }

    /// The analyzed dataflow's name.
    pub fn dataflow(&self) -> &str {
        &self.dataflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_dnn::{Layer, LayerDims, Operator};
    use maestro_ir::Style;

    fn sample_layer() -> Layer {
        Layer::new("c", Operator::conv2d(), LayerDims::square(1, 16, 16, 18, 3))
    }

    /// Every field of `p` as raw bits, in declaration order.
    fn bits(p: &Priced) -> Vec<u64> {
        let c = &p.counts;
        let mut v = vec![
            p.runtime.to_bits(),
            c.macs.to_bits(),
            p.macs_dense.to_bits(),
            p.macs_effective.to_bits(),
            p.l1_per_pe_elems,
            p.l2_staging_elems,
            p.peak_bw.to_bits(),
            p.avg_bw.to_bits(),
            p.utilization.to_bits(),
            p.used_pes,
            p.num_pes,
        ];
        for t in [
            c.l1_read,
            c.l1_write,
            c.l2_read,
            c.l2_write,
            c.noc,
            c.dram_read,
            c.dram_write,
        ] {
            v.extend(t.0.map(f64::to_bits));
        }
        v.extend(p.tensor_elems);
        v
    }

    #[test]
    fn finish_matches_fused_analyze_across_noc_grid() {
        let layer = sample_layer();
        for style in Style::ALL {
            let df = style.dataflow();
            let base = Accelerator::builder(64)
                .noc(maestro_hw::NocConfig::new(1, 0))
                .build();
            let staged = StagedAnalysis::build(&layer, &df, &base).unwrap();
            for bw in [1u64, 8, 32, 256] {
                for lat in [0u64, 2, 8] {
                    let acc = Accelerator::builder(64)
                        .noc(maestro_hw::NocConfig::new(bw, lat))
                        .build();
                    let fused = crate::analyze(&layer, &df, &acc).unwrap();
                    let fin = staged.clone().finish(bw, lat).unwrap();
                    assert_eq!(fused, fin, "{style} bw={bw} lat={lat}");
                    let priced = staged.price(bw, lat).unwrap();
                    assert_eq!(
                        bits(&priced),
                        bits(&fin.priced()),
                        "{style} bw={bw} lat={lat}"
                    );
                }
            }
            // Zero bandwidth: both entry points fail the one gate on the
            // same field, and each rejection is counted once.
            let failures = validation_failures();
            let before = failures.get();
            let priced = staged.price(0, 2).unwrap_err();
            assert_eq!(failures.get(), before + 1, "{style}: price");
            let fin = staged.finish(0, 2).unwrap_err();
            assert_eq!(failures.get(), before + 2, "{style}: finish");
            assert!(
                matches!(priced, AnalysisError::NonFinite { .. }),
                "{style}: {priced:?}"
            );
            assert_eq!(priced, fin, "{style}");
        }
    }

    #[test]
    fn build_ignores_noc_configuration() {
        let layer = sample_layer();
        let df = Style::KCP.dataflow();
        let a = StagedAnalysis::build(
            &layer,
            &df,
            &Accelerator::builder(64)
                .noc(maestro_hw::NocConfig::new(1, 9))
                .build(),
        );
        let b = StagedAnalysis::build(
            &layer,
            &df,
            &Accelerator::builder(64)
                .noc(maestro_hw::NocConfig::new(512, 0))
                .build(),
        );
        assert_eq!(a.unwrap(), b.unwrap());
    }

    /// The build derives each level's footprint table once, in
    /// `analyze_level_static`. At every level of every (layer, dataflow)
    /// pair of the Figure 10 zoo, the table must match the public
    /// per-pair and per-kind accessors, and the report's level summaries
    /// must carry the same totals.
    #[test]
    fn footprint_table_matches_the_public_accessors_across_the_zoo() {
        let acc = Accelerator::paper_case_study();
        let mut levels_checked = 0;
        for name in ["resnet50", "vgg16", "resnext50", "mobilenet_v2", "unet"] {
            let model = maestro_dnn::zoo::by_name(name, 1).unwrap();
            for layer in model.iter() {
                let coupling = layer.coupling();
                for style in Style::ALL {
                    let df = style.dataflow();
                    let report = crate::analyze(layer, &df, &acc).unwrap();
                    let (_, ctxs) = bind(layer, &df, acc.num_pes).unwrap();
                    assert_eq!(report.levels.len(), ctxs.len());
                    for (ctx, summary) in ctxs.iter().zip(&report.levels) {
                        let views = &ctx.views;
                        let fp = views.footprints(&coupling);
                        let at = format!("{name}/{}/{style} level {}", layer.name, summary.level);
                        for k in TensorKind::ALL {
                            for d in maestro_dnn::ALL_DIMS {
                                assert_eq!(
                                    fp.factor[k as usize][d.index()],
                                    views.fp_factor(&coupling, k, d),
                                    "{at}: {k} factor along {d}"
                                );
                            }
                            let footprint = views.footprint(&coupling, k);
                            assert_eq!(fp.total[k as usize], footprint, "{at}: {k} total");
                            assert_eq!(summary.footprint[k as usize], footprint, "{at}: {k}");
                        }
                        levels_checked += 1;
                    }
                }
            }
        }
        assert!(levels_checked >= 1210, "{levels_checked} levels");
    }

    #[test]
    fn build_propagates_layer_errors() {
        let bad = Layer::new("bad", Operator::conv2d(), LayerDims::square(1, 0, 3, 8, 3));
        let acc = Accelerator::builder(16).build();
        let err = StagedAnalysis::build(&bad, &Style::KCP.dataflow(), &acc).unwrap_err();
        assert!(matches!(err, AnalysisError::Layer(_)));
    }
}
