//! The paper's Figures 5–13, and three studies that extend them: the
//! §5.2 sensitivity sweeps, PE scaling and whole-model DSE.

use crate::{figure11_operators, layer};
use maestro_core::{analyze, analyze_model_with, explain};
use maestro_dnn::{zoo, Layer, LayerDims, Model, Operator, TensorKind};
use maestro_dse::tuner::default_candidates;
use maestro_dse::{tune_layer, variants, DesignPoint, DseStats, Explorer, Objective, SweepSpace};
use maestro_hw::{Accelerator, EnergyModel};
use maestro_ir::{styles, Dataflow, Style};
use maestro_sim::{mapping_at_step, validate_network, SimOptions};
use std::io::{self, Write};
use std::time::Instant;

/// Figure 5: the six 1-D convolution playground dataflows and the
/// temporal/spatial reuse each exposes, using the model's automatic reuse
/// explanation.
pub fn fig5(out: &mut dyn Write) -> io::Result<()> {
    // The playground layer: 1-D convolution, X' = 6, S = 3 (Figure 5).
    let layer = Layer::new(
        "conv1d",
        Operator::conv2d(),
        LayerDims {
            n: 1,
            k: 1,
            c: 1,
            y: 1,
            x: 8,
            r: 1,
            s: 3,
            stride_y: 1,
            stride_x: 1,
        },
    );
    writeln!(
        out,
        "Figure 5 — 1-D convolution dataflow playground (X'=6, S=3, 3 PEs)\n"
    )?;
    for id in ['A', 'B', 'C', 'D', 'E', 'F'] {
        let df = styles::playground(id).expect("playground id");
        let pes = if id == 'F' { 6 } else { 3 };
        let acc = Accelerator::builder(pes).build();
        writeln!(out, "({id}) {}", df)?;
        match explain(&layer, &df, &acc) {
            Ok(e) => {
                for l in &e.levels {
                    let notes: Vec<String> =
                        l.observations.iter().map(ToString::to_string).collect();
                    writeln!(
                        out,
                        "    level {} ({} units): {}",
                        l.level,
                        l.units,
                        notes.join("; ")
                    )?;
                }
            }
            Err(err) => writeln!(out, "    (cannot resolve: {err})")?,
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 6(d): the per-PE data mapping of the row-stationary example
/// over two time steps and two clusters.
pub fn fig6(out: &mut dyn Write) -> io::Result<()> {
    let layer = Layer::new("fig1", Operator::conv2d(), LayerDims::square(2, 4, 6, 8, 3));
    let df = styles::figure6_row_stationary();
    writeln!(
        out,
        "Figure 6 — row-stationary mapping on 6 PEs (2 clusters x 3)\n{df}\n"
    )?;
    for t in [0u64, 1] {
        writeln!(out, "== time step {t} ==")?;
        let maps = mapping_at_step(&layer, &df, 6, t).expect("mapping");
        for kind in TensorKind::ALL {
            writeln!(out, "  {kind}:")?;
            for m in &maps {
                let coords: Vec<String> = m.ranges[kind as usize]
                    .iter()
                    .map(|(d, iv)| format!("{d} {}-{}", iv.start, iv.start + iv.len - 1))
                    .collect();
                writeln!(
                    out,
                    "    PE{} (cluster {}) : {}",
                    m.pe,
                    m.unit_coords[0],
                    coords.join(", ")
                )?;
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 9: runtime validation of the analytical model against the
/// step-exact reference simulator (our substitute for the MAERI and
/// Eyeriss RTL testbeds), on VGG16 (KC-P, 64 PEs) and AlexNet (YR-P, 168
/// PEs).
pub fn fig9(out: &mut dyn Write) -> io::Result<()> {
    let runs = [
        (
            "VGG16 / KC-P (MAERI-like, 64 PEs)",
            zoo::vgg16(1),
            Style::KCP,
            Accelerator::maeri_like(64),
        ),
        (
            "AlexNet / YR-P (Eyeriss-like, 168 PEs)",
            zoo::alexnet(1),
            Style::YRP,
            Accelerator::eyeriss_like(),
        ),
    ];
    writeln!(out, "Figure 9 — analytical model vs step-exact simulator\n")?;
    for (label, model, style, acc) in runs {
        let t0 = Instant::now();
        let (points, mean) =
            validate_network(&model, &style.dataflow(), &acc, SimOptions::default());
        writeln!(out, "== {label} ==")?;
        writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>8}",
            "layer", "model (cyc)", "sim (cyc)", "err %"
        )?;
        for p in &points {
            writeln!(
                out,
                "{:<12} {:>14.0} {:>14.0} {:>8.2}",
                p.layer,
                p.model_runtime,
                p.sim_runtime,
                p.runtime_error_pct()
            )?;
            assert_eq!(p.sim_macs, p.exact_macs, "MAC conservation");
        }
        writeln!(
            out,
            "mean abs runtime error: {mean:.2}% over {} layers  ({:.1}s wall)\n",
            points.len(),
            t0.elapsed().as_secs_f64()
        )?;
    }
    Ok(())
}

/// Figure 10: runtime and energy of the five dataflow styles across the
/// five evaluation DNNs, plus the adaptive (best-per-layer) dataflow.
pub fn fig10(out: &mut dyn Write) -> io::Result<()> {
    let acc = Accelerator::paper_case_study();
    let styles: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
    // The fastest of the five styles on layer `l`.
    let best_for = |l: &Layer| {
        tune_layer(l, &acc, Objective::Runtime, &styles)
            .expect("some style maps every layer")
            .dataflow
    };
    let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
    writeln!(
        out,
        "Figure 10 — runtime (cycles) and energy (pJ), 256 PEs / 32 B/cy NoC\n"
    )?;
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "model", "C-P", "X-P", "YX-P", "YR-P", "KC-P", "Adaptive"
    )?;
    let mut avg_fixed = [0.0f64; 5];
    let mut avg_adaptive = 0.0f64;
    let mut energy_rows = Vec::new();
    for model in zoo::figure10_models(1) {
        let mut rt = Vec::new();
        let mut en = Vec::new();
        for (i, style) in Style::ALL.iter().enumerate() {
            let report = analyze_model_with(&model, &acc, |l| {
                // Layers the style cannot map (e.g. cluster too large) fall
                // back to the best feasible style for fairness.
                let df = style.dataflow();
                if analyze(l, &df, &acc).is_ok() {
                    df
                } else {
                    best_for(l)
                }
            })
            .expect("model analysis");
            avg_fixed[i] += report.runtime();
            rt.push(report.runtime());
            en.push(report.energy(&em));
        }
        let adaptive = analyze_model_with(&model, &acc, &best_for).expect("adaptive");
        avg_adaptive += adaptive.runtime();
        rt.push(adaptive.runtime());
        en.push(adaptive.energy(&em));
        writeln!(
            out,
            "{:<14} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}   runtime",
            model.name, rt[0], rt[1], rt[2], rt[3], rt[4], rt[5]
        )?;
        energy_rows.push((model.name.clone(), en));
    }
    writeln!(out)?;
    for (name, en) in &energy_rows {
        writeln!(
            out,
            "{:<14} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}   energy",
            name, en[0], en[1], en[2], en[3], en[4], en[5]
        )?;
    }
    let best_fixed = avg_fixed.iter().cloned().fold(f64::MAX, f64::min);
    writeln!(
        out,
        "\nadaptive vs best fixed dataflow: {:.1}% runtime reduction",
        100.0 * (1.0 - avg_adaptive / best_fixed)
    )
}

/// Figure 11: activation/filter reuse factors (with the algorithmic
/// maximum "A") and NoC bandwidth requirements of the five dataflows on
/// four representative operators.
pub fn fig11(out: &mut dyn Write) -> io::Result<()> {
    let acc = Accelerator::paper_case_study();
    writeln!(
        out,
        "Figure 11 — reuse factors and NoC bandwidth needs (256 PEs)\n"
    )?;
    for (label, model, lname) in figure11_operators() {
        let l = layer(&model, &lname);
        writeln!(out, "== {label} ({}/{lname}) ==", model.name)?;
        writeln!(
            out,
            "{:<8} {:>14} {:>14} {:>16}",
            "flow", "act. reuse", "filt. reuse", "BW need (el/cy)"
        )?;
        let mut alg = (0.0, 0.0);
        for style in Style::ALL {
            match analyze(l, &style.dataflow(), &acc) {
                Ok(r) => {
                    alg = (
                        r.algorithmic_max_reuse(TensorKind::Input),
                        r.algorithmic_max_reuse(TensorKind::Weight),
                    );
                    writeln!(
                        out,
                        "{:<8} {:>14.1} {:>14.1} {:>16.1}",
                        style.short_name(),
                        r.reuse_factor(TensorKind::Input),
                        r.reuse_factor(TensorKind::Weight),
                        r.peak_bw
                    )?;
                }
                Err(e) => writeln!(out, "{:<8} (not mappable: {e})", style.short_name())?,
            }
        }
        writeln!(
            out,
            "{:<8} {:>14.1} {:>14.1} {:>16}",
            "A (max)", alg.0, alg.1, "-"
        )?;
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 12: the energy breakdown (MAC, L1/L2 reads and writes per
/// tensor, including partial-sum L2 traffic) of the five dataflows on
/// VGG16 CONV1 and CONV11, normalized to C-P's MAC energy.
pub fn fig12(out: &mut dyn Write) -> io::Result<()> {
    let vgg = zoo::vgg16(1);
    let acc = Accelerator::paper_case_study();
    // The paper's Figure 12 breakdown covers on-chip activity only
    // (MAC, L1, L2); zero the DRAM term so the stacks are comparable.
    let mut em = EnergyModel::normalized();
    em.dram = 0.0;
    writeln!(
        out,
        "Figure 12 — energy breakdown, normalized to C-P MAC energy\n"
    )?;
    for lname in ["CONV1", "CONV11"] {
        let l = layer(&vgg, lname);
        let base = analyze(l, &Style::CP.dataflow(), &acc)
            .expect("C-P")
            .energy_breakdown(&em)
            .mac;
        writeln!(out, "== VGG16 {lname} ==")?;
        writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
            "flow",
            "MAC",
            "L1Rd",
            "L1Wr",
            "L2Rd In",
            "L2Rd Wt",
            "L2Rd Sum",
            "L2Wr Sum",
            "L2Wr Out",
            "total"
        )?;
        for style in Style::ALL {
            let r = analyze(l, &style.dataflow(), &acc).expect("analysis");
            let b = r.energy_breakdown(&em);
            // "Sum" rows are the partial-sum refetch/spill traffic; final
            // output commits are the remainder of the L2 writes.
            let l2rd_sum = b.l2_read[TensorKind::Output];
            let l2wr_total = b.l2_write[TensorKind::Output];
            let outputs = r.tensor_elems[TensorKind::Output as usize] as f64 * em.l2_write;
            let l2wr_out = outputs.min(l2wr_total);
            let l2wr_sum = (l2wr_total - l2wr_out).max(0.0);
            writeln!(
                out,
                "{:<8} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8.1}",
                style.alias(),
                b.mac / base,
                b.l1_read.total() / base,
                b.l1_write.total() / base,
                b.l2_read[TensorKind::Input] / base,
                b.l2_read[TensorKind::Weight] / base,
                l2rd_sum / base,
                l2wr_sum / base,
                l2wr_out / base,
                b.total() / base,
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 13: the hardware design spaces of KC-P and YR-P accelerators on
/// VGG16 CONV2 (early) and CONV11 (late) under the Eyeriss-envelope
/// budget (16 mm², 450 mW), the throughput- and energy-optimized points,
/// and the DSE statistics table (13c).
pub fn fig13(out: &mut dyn Write) -> io::Result<()> {
    let vgg = zoo::vgg16(1);
    writeln!(
        out,
        "Figure 13 — design-space exploration (area<=16mm2, power<=450mW)\n"
    )?;
    let mut stats_rows = Vec::new();
    for style in [Style::KCP, Style::YRP] {
        for lname in ["CONV2", "CONV11"] {
            let l = layer(&vgg, lname);
            let explorer = Explorer::new(SweepSpace::standard());
            let r = explorer
                .explore(l, &variants::variants(style))
                .expect("valid sweep space");
            writeln!(out, "== {} on VGG16 {lname} ==", style.short_name())?;
            warn_quarantined(&r.stats);
            let mut show = |tag: &str, p: &Option<DesignPoint>| {
                match p {
                Some(p) => writeln!(
                    out,
                    "  {tag}: {:>3} PEs, NoC {:>2}, L1 {:>6} B, L2 {:>8} B, {:<18} {:>7.1} MAC/cy {:>11.3e} pJ {:>5.1} mm2 {:>4.0} mW",
                    p.pes, p.noc_bw, p.l1_bytes, p.l2_bytes, p.mapping, p.throughput, p.energy, p.area_mm2, p.power_mw
                ),
                None => Ok(()),
            }
            };
            show("throughput-opt", &r.best_throughput)?;
            show("energy-opt    ", &r.best_energy)?;
            show("EDP-opt       ", &r.best_edp)?;
            if let (Some(t), Some(e)) = (&r.best_throughput, &r.best_energy) {
                writeln!(
                    out,
                    "  energy-opt vs throughput-opt: {:.2}x SRAM, {:.0}% PEs, {:.2}x power, {:.0}% throughput, {:.1}% EDP",
                    (e.l1_bytes * e.pes + e.l2_bytes) as f64 / (t.l1_bytes * t.pes + t.l2_bytes) as f64,
                    100.0 * e.pes as f64 / t.pes as f64,
                    t.power_mw / e.power_mw,
                    100.0 * e.throughput / t.throughput,
                    100.0 * e.edp / t.edp,
                )?;
            }
            // Area->throughput frontier (the scatter's upper envelope).
            let mut buckets: Vec<(f64, f64)> = Vec::new();
            for p in &r.sample {
                let b = (p.area_mm2 / 2.0).floor() * 2.0;
                match buckets.iter_mut().find(|(a, _)| (*a - b).abs() < 1e-9) {
                    Some((_, t)) => *t = t.max(p.throughput),
                    None => buckets.push((b, p.throughput)),
                }
            }
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let frontier: Vec<String> = buckets
                .iter()
                .map(|(a, t)| format!("{a:>2.0}mm2:{t:.0}"))
                .collect();
            writeln!(
                out,
                "  area->max-throughput frontier: {}",
                frontier.join("  ")
            )?;
            writeln!(out)?;
            stats_rows.push((style.short_name(), lname, r.stats));
        }
    }
    writeln!(out, "Figure 13(c) — DSE statistics")?;
    writeln!(
        out,
        "{:<6} {:<8} {:>12} {:>12} {:>10} {:>14}",
        "flow", "layer", "valid", "explored", "time (ms)", "rate (dsg/s)"
    )?;
    for (flow, layer, s) in stats_rows {
        writeln!(
            out,
            "{:<6} {:<8} {:>12} {:>12} {:>10.3} {:>14.2e}",
            flow,
            layer,
            s.valid,
            s.explored,
            1e3 * s.seconds,
            s.rate
        )?;
    }
    Ok(())
}

/// Sensitivity sweeps backing the paper's §5.2 discussion: throughput vs
/// NoC bandwidth ("an accelerator can achieve peak throughput [only if]
/// the NoC provides sufficient bandwidth") and DRAM traffic vs L2
/// capacity (the buffer/throughput/energy balance of Figure 13's text).
pub fn sweep(out: &mut dyn Write) -> io::Result<()> {
    let vgg = zoo::vgg16(1);
    writeln!(out, "Throughput (MACs/cycle) vs NoC bandwidth, 256 PEs:\n")?;
    write!(out, "{:<10}", "BW el/cy")?;
    let bws = [1u64, 2, 4, 8, 16, 32, 64, 128];
    for bw in bws {
        write!(out, "{bw:>9}")?;
    }
    writeln!(out)?;
    for (lname, style) in [
        ("CONV2", Style::KCP),
        ("CONV2", Style::YRP),
        ("CONV11", Style::KCP),
        ("CONV11", Style::CP),
    ] {
        let l = layer(&vgg, lname);
        write!(out, "{:<10}", format!("{}/{}", style.short_name(), lname))?;
        for bw in bws {
            let acc = Accelerator::builder(256).noc_bandwidth(bw).build();
            match analyze(l, &style.dataflow(), &acc) {
                Ok(r) => write!(out, "{:>9.1}", r.throughput())?,
                Err(_) => write!(out, "{:>9}", "-")?,
            }
        }
        writeln!(out)?;
    }

    writeln!(
        out,
        "\nDRAM traffic (elements) vs L2 capacity, KC-P on CONV2:\n"
    )?;
    write!(out, "{:<10}", "L2 KB")?;
    let l2s = [16u64, 64, 256, 1024, 4096, 16384];
    for l2 in l2s {
        write!(out, "{l2:>12}")?;
    }
    writeln!(out)?;
    write!(out, "{:<10}", "DRAM")?;
    let l = layer(&vgg, "CONV2");
    for l2 in l2s {
        let acc = Accelerator::builder(256).l2_bytes(l2 * 1024).build();
        let r = analyze(l, &Style::KCP.dataflow(), &acc).expect("analysis");
        let dram = r.counts.dram_read.total() + r.counts.dram_write.total();
        write!(out, "{dram:>12.3e}")?;
    }
    writeln!(out)
}

/// PE-scaling study: throughput and utilization of each dataflow style as
/// the array grows — the "which dataflow scales" counterpart to the
/// paper's fixed-256-PE case study (§5.1's utilization discussion).
pub fn scale(out: &mut dyn Write) -> io::Result<()> {
    let vgg = zoo::vgg16(1);
    let pes = [64u64, 128, 256, 512, 1024];
    for lname in ["CONV2", "CONV11"] {
        let l = layer(&vgg, lname);
        writeln!(
            out,
            "== VGG16 {lname}: throughput (MACs/cycle) [utilization %] =="
        )?;
        write!(out, "{:<7}", "flow")?;
        for p in pes {
            write!(out, "{p:>16}")?;
        }
        writeln!(out)?;
        for style in Style::ALL {
            write!(out, "{:<7}", style.short_name())?;
            for p in pes {
                // Keep NoC bandwidth proportional to the array, as real
                // designs do.
                let acc = Accelerator::builder(p)
                    .noc_bandwidth((p / 8).max(8))
                    .build();
                match analyze(l, &style.dataflow(), &acc) {
                    Ok(r) => write!(
                        out,
                        "{:>16}",
                        format!("{:.0} [{:.0}%]", r.throughput(), r.utilization * 100.0)
                    )?,
                    Err(_) => write!(out, "{:>16}", "-")?,
                }
            }
            writeln!(out)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Whole-network design-space exploration of `model`: each hardware
/// point is evaluated with the best per-layer mapping (embedded
/// auto-tuning), the natural end-to-end extension of the paper's
/// per-layer DSE (§5.2). VGG16 is the interesting memo-cache case: its
/// repeated layer shapes make most per-layer analyses cache hits.
pub fn dse_model(model: &Model, out: &mut dyn Write) -> io::Result<()> {
    let explorer = Explorer::new(SweepSpace::tiny());
    let candidates = default_candidates();
    let r = explorer
        .explore_model(model, &candidates)
        .expect("valid sweep space");
    writeln!(
        out,
        "whole-model DSE over {}: {} designs explored, {} valid ({} memo hits), {:.3} ms",
        model.name,
        r.stats.explored,
        r.stats.valid,
        r.stats.memo_hits,
        1e3 * r.stats.seconds
    )?;
    warn_quarantined(&r.stats);
    let mut show = |tag: &str, p: &Option<DesignPoint>| {
        match p {
        Some(p) => writeln!(
            out,
            "  {tag}: {:>3} PEs, NoC {:>2}, L1 {:>6} B, L2 {:>8} B -> {:>12.0} cyc end-to-end, {:>11.3e} pJ, {:.1} mm2, {:.0} mW",
            p.pes, p.noc_bw, p.l1_bytes, p.l2_bytes, p.runtime, p.energy, p.area_mm2, p.power_mw
        ),
        None => Ok(()),
    }
    };
    show("throughput-opt", &r.best_throughput)?;
    show("energy-opt    ", &r.best_energy)?;
    show("EDP-opt       ", &r.best_edp)?;
    writeln!(out, "  Pareto front: {} points", r.pareto.len())
}

/// Warn (through the leveled logger) when a sweep quarantined work units.
fn warn_quarantined(stats: &DseStats) {
    if !stats.quarantined.is_empty() {
        maestro_obs::warn!(
            "{} work unit(s) quarantined — results are incomplete",
            stats.quarantined.len()
        );
    }
}
