//! The adaptive-dataflow study (paper §5.1, Figure 10(f)): choose the best
//! dataflow per layer and compare against every fixed choice.
//!
//! Run with: `cargo run --release --example adaptive_dataflow`

use maestro::core::{analyze, analyze_model, analyze_model_with};
use maestro::dnn::zoo;
use maestro::dse::{tune_layer, Objective};
use maestro::hw::{Accelerator, EnergyModel};
use maestro::ir::{Dataflow, Style};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = zoo::mobilenet_v2(1);
    let acc = Accelerator::paper_case_study();
    let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);
    let styles: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
    // The fastest of the five styles on `layer`.
    let best_for = |layer: &maestro::dnn::Layer| {
        tune_layer(layer, &acc, Objective::Runtime, &styles)
            .expect("some style maps every layer")
            .dataflow
    };

    println!("fixed dataflows on {}:", model.name);
    let mut best_fixed = f64::MAX;
    for style in Style::ALL {
        // Skip layers a style cannot map by falling back to X-P.
        let r = analyze_model_with(&model, &acc, |l| {
            let df = style.dataflow();
            if analyze(l, &df, &acc).is_ok() {
                df
            } else {
                Style::XP.dataflow()
            }
        })?;
        best_fixed = best_fixed.min(r.runtime());
        println!(
            "  {:<6} {:>12.3e} cycles  {:>12.3e} pJ",
            style.short_name(),
            r.runtime(),
            r.energy(&em)
        );
    }

    let adaptive = analyze_model_with(&model, &acc, &best_for)?;
    println!(
        "  {:<6} {:>12.3e} cycles  {:>12.3e} pJ",
        "adapt",
        adaptive.runtime(),
        adaptive.energy(&em)
    );
    println!(
        "\nadaptive runtime reduction vs best fixed: {:.1}%",
        100.0 * (1.0 - adaptive.runtime() / best_fixed)
    );

    // Which dataflow each operator class prefers:
    println!("\nper-layer choices (first ten layers):");
    for l in model.iter().take(10) {
        let df = best_for(l);
        println!(
            "  {:<18} {:<22} -> {}",
            l.name,
            l.classify().to_string(),
            df.name()
        );
    }
    let _ = analyze_model(&model, &Style::KCP.dataflow(), &acc);
    Ok(())
}
