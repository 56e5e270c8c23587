//! Analysis reports: the user-facing output of the cost model.

use crate::counts::{ActivityCounts, EnergyBreakdown, PerTensor};
use maestro_dnn::TensorKind;
use maestro_hw::{Accelerator, EnergyModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-cluster-level detail inside a [`LayerReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelSummary {
    /// Level index (0 = outermost).
    pub level: usize,
    /// Sub-units of one instance of this level.
    pub units: u64,
    /// Units active in a steady step.
    pub active_units: u64,
    /// Average useful fraction of the units.
    pub utilization: f64,
    /// Time steps per pass of one instance.
    pub steps: u64,
    /// Steady-state pass runtime of one instance (cycles).
    pub pass_cycles: f64,
    /// Per-unit per-step footprints (Input, Weight, Output), elements.
    pub footprint: [u64; 3],
    /// Whether outputs vary, reduce, or are not parallel across units.
    pub output_spatial: crate::level::OutputSpatial,
}

/// The analysis result for one layer under one dataflow and one hardware
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer name.
    pub layer: String,
    /// Dataflow name.
    pub dataflow: String,
    /// Estimated runtime in cycles.
    pub runtime: f64,
    /// Activity counts for the whole layer.
    pub counts: ActivityCounts,
    /// Dense MAC count modeled.
    pub macs_dense: f64,
    /// Density-scaled MAC count.
    pub macs_effective: f64,
    /// Required per-PE L1 capacity, elements (double-buffered).
    pub l1_per_pe_elems: u64,
    /// Required L2 staging capacity, elements (double-buffered).
    pub l2_staging_elems: u64,
    /// Peak NoC bandwidth demand, elements/cycle.
    pub peak_bw: f64,
    /// Average NoC bandwidth use, elements/cycle.
    pub avg_bw: f64,
    /// Average fraction of PEs doing useful work.
    pub utilization: f64,
    /// PEs covered by the dataflow's cluster hierarchy.
    pub used_pes: u64,
    /// Total PEs in the configuration.
    pub num_pes: u64,
    /// Whole-tensor element counts (for reuse-factor denominators),
    /// indexed Input/Weight/Output.
    pub tensor_elems: [u64; 3],
    /// Per-cluster-level detail, outermost first.
    pub levels: Vec<LevelSummary>,
}

impl LayerReport {
    /// The report's scalar fields, without the names and per-level detail.
    pub fn priced(&self) -> Priced {
        Priced {
            runtime: self.runtime,
            counts: self.counts,
            macs_dense: self.macs_dense,
            macs_effective: self.macs_effective,
            l1_per_pe_elems: self.l1_per_pe_elems,
            l2_staging_elems: self.l2_staging_elems,
            peak_bw: self.peak_bw,
            avg_bw: self.avg_bw,
            utilization: self.utilization,
            used_pes: self.used_pes,
            num_pes: self.num_pes,
            tensor_elems: self.tensor_elems,
        }
    }

    /// Finite-value gate: [`Priced::validate`] on the report's scalars.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NonFinite`] naming the first offending
    /// field.
    ///
    /// [`AnalysisError::NonFinite`]: crate::AnalysisError::NonFinite
    pub fn validate(&self) -> Result<(), crate::AnalysisError> {
        self.priced().validate()
    }

    /// Total energy under an energy table.
    pub fn energy(&self, e: &EnergyModel) -> f64 {
        self.counts.energy(e)
    }

    /// Per-category energy (Figure 12).
    pub fn energy_breakdown(&self, e: &EnergyModel) -> EnergyBreakdown {
        self.counts.energy_breakdown(e)
    }

    /// Throughput in MACs per cycle (see [`Priced::throughput`]).
    pub fn throughput(&self) -> f64 {
        self.priced().throughput()
    }

    /// Energy-delay product.
    pub fn edp(&self, e: &EnergyModel) -> f64 {
        self.energy(e) * self.runtime
    }

    /// The reuse factor of a tensor: local (L1) accesses per upstream (L2)
    /// fetch (Figure 11's metric). Infinite reuse (zero fetches) is
    /// reported as the algorithmic maximum.
    pub fn reuse_factor(&self, kind: TensorKind) -> f64 {
        let local = self.counts.l1_read[kind] + self.counts.l1_write[kind];
        let upstream = self.counts.l2_read[kind] + self.counts.l2_write[kind];
        if upstream > 0.0 {
            local / upstream
        } else {
            self.algorithmic_max_reuse(kind)
        }
    }

    /// The algorithmic maximum reuse factor: MAC-level accesses divided by
    /// the tensor's size (the "A" bars of Figure 11).
    pub fn algorithmic_max_reuse(&self, kind: TensorKind) -> f64 {
        let elems = self.tensor_elems[kind as usize] as f64;
        if elems > 0.0 {
            // Outputs are touched twice per MAC (read-modify-write).
            let per_mac = if kind == TensorKind::Output { 2.0 } else { 1.0 };
            self.macs_effective * per_mac / elems
        } else {
            0.0
        }
    }

    /// `true` when the dataflow's buffer requirements fit the hardware.
    pub fn buffers_fit(&self, acc: &Accelerator) -> bool {
        self.l1_per_pe_elems <= acc.l1_elements() && self.l2_staging_elems <= acc.l2_elements()
    }
}

/// The scalar fields of a [`LayerReport`]: everything but the layer and
/// dataflow names and the per-level detail. It is `Copy` and owns no
/// allocation, so pricing a staged analysis into one
/// ([`StagedAnalysis::price`](crate::StagedAnalysis::price)) costs only the
/// perf stage. A sweep that needs runtime, throughput, buffer requirements
/// and activity counts per point never builds a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priced {
    /// Estimated runtime in cycles.
    pub runtime: f64,
    /// Activity counts for the whole layer.
    pub counts: ActivityCounts,
    /// Dense MAC count modeled.
    pub macs_dense: f64,
    /// Density-scaled MAC count.
    pub macs_effective: f64,
    /// Required per-PE L1 capacity, elements (double-buffered).
    pub l1_per_pe_elems: u64,
    /// Required L2 staging capacity, elements (double-buffered).
    pub l2_staging_elems: u64,
    /// Peak NoC bandwidth demand, elements/cycle.
    pub peak_bw: f64,
    /// Average NoC bandwidth use, elements/cycle.
    pub avg_bw: f64,
    /// Average fraction of PEs doing useful work.
    pub utilization: f64,
    /// PEs covered by the dataflow's cluster hierarchy.
    pub used_pes: u64,
    /// Total PEs in the configuration.
    pub num_pes: u64,
    /// Whole-tensor element counts, indexed Input/Weight/Output.
    pub tensor_elems: [u64; 3],
}

impl Priced {
    /// Finite-value gate: reject any NaN or infinite scalar before it can
    /// reach Pareto/best-point comparisons, where NaN fails every strict
    /// ordering and would silently corrupt the front.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NonFinite`] naming the first offending
    /// field.
    ///
    /// [`AnalysisError::NonFinite`]: crate::AnalysisError::NonFinite
    pub fn validate(&self) -> Result<(), crate::AnalysisError> {
        let scalars: [(&'static str, f64); 6] = [
            ("runtime", self.runtime),
            ("macs_dense", self.macs_dense),
            ("macs_effective", self.macs_effective),
            ("peak_bw", self.peak_bw),
            ("avg_bw", self.avg_bw),
            ("utilization", self.utilization),
        ];
        for (field, v) in scalars {
            if !v.is_finite() {
                return Err(crate::AnalysisError::NonFinite { field });
            }
        }
        if !self.counts.macs.is_finite() {
            return Err(crate::AnalysisError::NonFinite {
                field: "counts.macs",
            });
        }
        let tensors: [(&'static str, &PerTensor); 7] = [
            ("counts.l1_read", &self.counts.l1_read),
            ("counts.l1_write", &self.counts.l1_write),
            ("counts.l2_read", &self.counts.l2_read),
            ("counts.l2_write", &self.counts.l2_write),
            ("counts.noc", &self.counts.noc),
            ("counts.dram_read", &self.counts.dram_read),
            ("counts.dram_write", &self.counts.dram_write),
        ];
        for (field, t) in tensors {
            if !t.0.iter().all(|v| v.is_finite()) {
                return Err(crate::AnalysisError::NonFinite { field });
            }
        }
        Ok(())
    }

    /// Throughput in MACs per cycle.
    pub fn throughput(&self) -> f64 {
        if self.runtime > 0.0 {
            self.macs_effective / self.runtime
        } else {
            0.0
        }
    }

    /// The full report: these scalars plus the names and per-level detail.
    pub(crate) fn into_report(
        self,
        layer: String,
        dataflow: String,
        levels: Vec<LevelSummary>,
    ) -> LayerReport {
        LayerReport {
            layer,
            dataflow,
            runtime: self.runtime,
            counts: self.counts,
            macs_dense: self.macs_dense,
            macs_effective: self.macs_effective,
            l1_per_pe_elems: self.l1_per_pe_elems,
            l2_staging_elems: self.l2_staging_elems,
            peak_bw: self.peak_bw,
            avg_bw: self.avg_bw,
            utilization: self.utilization,
            used_pes: self.used_pes,
            num_pes: self.num_pes,
            tensor_elems: self.tensor_elems,
            levels,
        }
    }
}

impl fmt::Display for LayerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Layer {} / dataflow {}", self.layer, self.dataflow)?;
        writeln!(f, "  runtime       {:>14.0} cycles", self.runtime)?;
        writeln!(f, "  MACs          {:>14.0}", self.macs_effective)?;
        writeln!(
            f,
            "  throughput    {:>14.2} MACs/cycle (utilization {:.1}%)",
            self.throughput(),
            self.utilization * 100.0
        )?;
        writeln!(
            f,
            "  L2 traffic    {:>14.0} rd / {:.0} wr",
            self.counts.l2_read.total(),
            self.counts.l2_write.total()
        )?;
        writeln!(
            f,
            "  buffers       L1/PE {} elems, L2 {} elems",
            self.l1_per_pe_elems, self.l2_staging_elems
        )?;
        writeln!(
            f,
            "  NoC bandwidth {:>14.2} peak / {:.2} avg elems/cycle",
            self.peak_bw, self.avg_bw
        )?;
        for l in &self.levels {
            write!(
                f,
                "  level {}      {:>4} units ({} active, {:.0}% useful), {} steps/pass, fp I/W/O {}/{}/{}",
                l.level,
                l.units,
                l.active_units,
                l.utilization * 100.0,
                l.steps,
                l.footprint[0],
                l.footprint[1],
                l.footprint[2]
            )?;
            if l.level + 1 < self.levels.len() {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Estimated off-chip (DRAM) traffic for activity `counts` over tensors of
/// `tensor_elems` elements, given an L2 of `l2_elements`.
///
/// Every tensor incurs *compulsory* DRAM traffic (first fetch / final
/// store). Re-reads from the L2 stay on-chip only to the extent the L2 can
/// keep the tensors resident: with capacity below the combined working set,
/// the excess re-reads miss to DRAM proportionally. Returns
/// `(dram_reads, dram_writes)` per tensor.
pub fn offchip_traffic(
    counts: &ActivityCounts,
    tensor_elems: [u64; 3],
    l2_elements: u64,
) -> (PerTensor, PerTensor) {
    let working_set: f64 = tensor_elems.iter().map(|&e| e as f64).sum();
    let resident = if working_set > 0.0 {
        (l2_elements as f64 / working_set).min(1.0)
    } else {
        1.0
    };
    let miss = 1.0 - resident;
    let mut reads = PerTensor::default();
    let mut writes = PerTensor::default();
    for kind in TensorKind::ALL {
        let size = tensor_elems[kind as usize] as f64;
        if kind.is_operand() {
            let compulsory = counts.l2_read[kind].min(size);
            reads[kind] = compulsory + (counts.l2_read[kind] - compulsory).max(0.0) * miss;
        } else {
            let compulsory = counts.l2_write[kind].min(size);
            writes[kind] = compulsory + (counts.l2_write[kind] - compulsory).max(0.0) * miss;
            // Partial sums re-fetched through the L2 miss at the same rate.
            reads[kind] = counts.l2_read[kind] * miss;
        }
    }
    (reads, writes)
}

/// Aggregated analysis of a whole model under one dataflow assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Per-layer reports, in network order.
    pub layers: Vec<LayerReport>,
}

impl ModelReport {
    /// End-to-end runtime (layers executed sequentially).
    pub fn runtime(&self) -> f64 {
        self.layers.iter().map(|l| l.runtime).sum()
    }

    /// Total activity counts.
    pub fn counts(&self) -> ActivityCounts {
        let mut c = ActivityCounts::new();
        for l in &self.layers {
            c.add_scaled(&l.counts, 1.0);
        }
        c
    }

    /// Total energy.
    pub fn energy(&self, e: &EnergyModel) -> f64 {
        self.layers.iter().map(|l| l.energy(e)).sum()
    }

    /// Worst-case per-PE L1 requirement across layers.
    pub fn l1_per_pe_elems(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.l1_per_pe_elems)
            .max()
            .unwrap_or(0)
    }

    /// Worst-case L2 staging requirement across layers.
    pub fn l2_staging_elems(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.l2_staging_elems)
            .max()
            .unwrap_or(0)
    }

    /// Worst-case NoC bandwidth demand across layers.
    pub fn peak_bw(&self) -> f64 {
        self.layers.iter().map(|l| l.peak_bw).fold(0.0, f64::max)
    }
}

impl fmt::Display for ModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Model {}: {} layers, runtime {:.0} cycles",
            self.model,
            self.layers.len(),
            self.runtime()
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:<18} {:<6} {:>14.0} cyc {:>8.2} MAC/cyc",
                l.layer,
                l.dataflow,
                l.runtime,
                l.throughput()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report(runtime: f64, macs: f64) -> LayerReport {
        let mut counts = ActivityCounts::new();
        counts.macs = macs;
        counts.l1_read[TensorKind::Input] = macs;
        counts.l2_read[TensorKind::Input] = macs / 10.0;
        LayerReport {
            layer: "l".into(),
            dataflow: "d".into(),
            runtime,
            counts,
            macs_dense: macs,
            macs_effective: macs,
            l1_per_pe_elems: 8,
            l2_staging_elems: 64,
            peak_bw: 4.0,
            avg_bw: 2.0,
            utilization: 1.0,
            used_pes: 4,
            num_pes: 4,
            tensor_elems: [100, 10, 50],
            levels: Vec::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = dummy_report(1000.0, 4000.0);
        assert!((r.throughput() - 4.0).abs() < 1e-9);
        assert!((r.reuse_factor(TensorKind::Input) - 10.0).abs() < 1e-9);
        assert!((r.algorithmic_max_reuse(TensorKind::Input) - 40.0).abs() < 1e-9);
        assert!(
            (r.algorithmic_max_reuse(TensorKind::Output) - 160.0).abs() < 1e-9,
            "outputs count read+write per MAC"
        );
        let e = EnergyModel::normalized();
        assert!(r.edp(&e) > 0.0);
        let acc = Accelerator::builder(4).build();
        assert!(r.buffers_fit(&acc));
    }

    #[test]
    fn validate_accepts_finite_and_names_nonfinite_fields() {
        let mut r = dummy_report(1000.0, 4000.0);
        assert!(r.validate().is_ok());
        r.runtime = f64::NAN;
        let err = r.validate().unwrap_err();
        assert!(err.to_string().contains("runtime"), "{err}");
        r.runtime = 1000.0;
        r.counts.l2_read[TensorKind::Weight] = f64::INFINITY;
        let err = r.validate().unwrap_err();
        assert!(err.to_string().contains("l2_read"), "{err}");
    }

    #[test]
    fn zero_fetch_reuse_falls_back_to_algorithmic() {
        let mut r = dummy_report(10.0, 100.0);
        r.counts.l2_read[TensorKind::Weight] = 0.0;
        r.counts.l1_read[TensorKind::Weight] = 100.0;
        assert!((r.reuse_factor(TensorKind::Weight) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn model_report_aggregates() {
        let m = ModelReport {
            model: "m".into(),
            layers: vec![dummy_report(10.0, 40.0), dummy_report(20.0, 40.0)],
        };
        assert!((m.runtime() - 30.0).abs() < 1e-9);
        assert_eq!(m.l1_per_pe_elems(), 8);
        assert_eq!(m.l2_staging_elems(), 64);
        assert!((m.peak_bw() - 4.0).abs() < 1e-9);
        assert!((m.counts().macs - 80.0).abs() < 1e-9);
        let disp = m.to_string();
        assert!(disp.contains("2 layers"));
    }
}
