//! Regenerates paper Figure 13: the hardware design spaces of KC-P and
//! YR-P accelerators on VGG16 CONV2 (early) and CONV11 (late) under the
//! Eyeriss-envelope budget (16 mm², 450 mW), the throughput- and
//! energy-optimized points, and the DSE statistics table (13c).

use maestro_bench::layer;
use maestro_dnn::zoo;
use maestro_dse::{variants, DesignPoint, Explorer, SweepSpace};
use maestro_ir::Style;

fn main() {
    let vgg = zoo::vgg16(1);
    println!("Figure 13 — design-space exploration (area<=16mm2, power<=450mW)\n");
    let mut stats_rows = Vec::new();
    for style in [Style::KCP, Style::YRP] {
        for lname in ["CONV2", "CONV11"] {
            let l = layer(&vgg, lname);
            let explorer = Explorer::new(SweepSpace::standard());
            let r = explorer
                .explore(l, &variants::variants(style))
                .expect("valid sweep space");
            println!("== {} on VGG16 {lname} ==", style.short_name());
            if !r.stats.quarantined.is_empty() {
                maestro_obs::warn!(
                    "{} work unit(s) quarantined — results are incomplete",
                    r.stats.quarantined.len()
                );
            }
            let show = |tag: &str, p: &Option<DesignPoint>| {
                if let Some(p) = p {
                    println!(
                        "  {tag}: {:>3} PEs, NoC {:>2}, L1 {:>6} B, L2 {:>8} B, {:<18} {:>7.1} MAC/cy {:>11.3e} pJ {:>5.1} mm2 {:>4.0} mW",
                        p.pes, p.noc_bw, p.l1_bytes, p.l2_bytes, p.mapping, p.throughput, p.energy, p.area_mm2, p.power_mw
                    );
                }
            };
            show("throughput-opt", &r.best_throughput);
            show("energy-opt    ", &r.best_energy);
            show("EDP-opt       ", &r.best_edp);
            if let (Some(t), Some(e)) = (&r.best_throughput, &r.best_energy) {
                println!(
                    "  energy-opt vs throughput-opt: {:.2}x SRAM, {:.0}% PEs, {:.2}x power, {:.0}% throughput, {:.1}% EDP",
                    (e.l1_bytes * e.pes + e.l2_bytes) as f64 / (t.l1_bytes * t.pes + t.l2_bytes) as f64,
                    100.0 * e.pes as f64 / t.pes as f64,
                    t.power_mw / e.power_mw,
                    100.0 * e.throughput / t.throughput,
                    100.0 * e.edp / t.edp,
                );
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
            println!("  area->max-throughput frontier: {}", frontier.join("  "));
            println!();
            stats_rows.push((style.short_name(), lname, r.stats));
        }
    }
    println!("Figure 13(c) — DSE statistics");
    println!(
        "{:<6} {:<8} {:>12} {:>12} {:>10} {:>14}",
        "flow", "layer", "valid", "explored", "time (ms)", "rate (dsg/s)"
    );
    for (flow, layer, s) in stats_rows {
        println!(
            "{:<6} {:<8} {:>12} {:>12} {:>10.3} {:>14.2e}",
            flow,
            layer,
            s.valid,
            s.explored,
            1e3 * s.seconds,
            s.rate
        );
    }
}
