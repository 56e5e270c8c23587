//! The dataflow auto-tuner (paper §7's future work): per-layer search
//! over styles and tile variants under a chosen objective.
//!
//! Run with: `cargo run --release --example auto_tuner`

use maestro::dnn::zoo;
use maestro::dse::{tune_model, Objective};
use maestro::hw::{Accelerator, EnergyModel};

fn main() {
    let model = zoo::resnet50(1);
    let acc = Accelerator::paper_case_study();
    let em = EnergyModel::cacti_28nm(acc.l1_bytes, acc.l2_bytes);

    for objective in [
        Objective::Runtime,
        Objective::Energy(em),
        Objective::Edp(em),
    ] {
        let tuned = tune_model(&model, &acc, objective).expect("every ResNet-50 layer maps");
        println!(
            "{objective:>8}-tuned {}: {:.3e} cycles, {:.3e} pJ, {} distinct dataflows",
            tuned.model,
            tuned.runtime(),
            tuned.energy(&em),
            tuned.distinct_dataflows()
        );
    }

    // Show what the runtime tuner picked for a few characteristic layers.
    let tuned = tune_model(&model, &acc, Objective::Runtime).expect("every ResNet-50 layer maps");
    println!("\nruntime-tuned choices (sample):");
    for name in ["CONV1", "CONV2_1_a", "CONV2_1_b", "CONV3_1_b", "FC1000"] {
        if let Some(l) = tuned.layers.iter().find(|l| l.layer == name) {
            println!(
                "  {:<12} -> {:<22} ({} candidates evaluated)",
                l.layer,
                l.dataflow.name(),
                l.evaluated
            );
        }
    }
}
