//! Regenerates paper Figure 10: runtime and energy of the five dataflow
//! styles across the five evaluation DNNs, plus the adaptive
//! (best-per-layer) dataflow.

use maestro_bench::{case_study_acc, figure10_models};
use maestro_core::{analyze, analyze_model_with};
use maestro_dse::{tune_layer, Objective};
use maestro_hw::EnergyModel;
use maestro_ir::{Dataflow, Style};

fn main() {
    let acc = case_study_acc();
    let styles: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
    // The fastest of the five styles on layer `l`.
    let best_for = |l: &maestro_dnn::Layer| {
        tune_layer(l, &acc, Objective::Runtime, &styles)
            .expect("some style maps every layer")
            .dataflow
    };
    let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
    println!("Figure 10 — runtime (cycles) and energy (pJ), 256 PEs / 32 B/cy NoC\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "model", "C-P", "X-P", "YX-P", "YR-P", "KC-P", "Adaptive"
    );
    let mut avg_fixed = [0.0f64; 5];
    let mut avg_adaptive = 0.0f64;
    let mut energy_rows = Vec::new();
    for model in figure10_models() {
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
        println!(
            "{:<14} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}   runtime",
            model.name, rt[0], rt[1], rt[2], rt[3], rt[4], rt[5]
        );
        energy_rows.push((model.name.clone(), en));
    }
    println!();
    for (name, en) in &energy_rows {
        println!(
            "{:<14} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}   energy",
            name, en[0], en[1], en[2], en[3], en[4], en[5]
        );
    }
    let best_fixed = avg_fixed.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "\nadaptive vs best fixed dataflow: {:.1}% runtime reduction",
        100.0 * (1.0 - avg_adaptive / best_fixed)
    );
}
