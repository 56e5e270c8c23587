//! Whole-network design-space exploration: each hardware point is
//! evaluated with the best per-layer mapping (embedded auto-tuning), the
//! natural end-to-end extension of the paper's per-layer DSE (§5.2).

use maestro_bench::threads_arg;
use maestro_dnn::zoo;
use maestro_dse::{tuner::default_candidates, Explorer, SweepSpace};

/// `--model <zoo name>` (default `alexnet`). VGG16 is the interesting
/// memo-cache case: its repeated layer shapes make most per-layer
/// analyses cache hits.
fn model_arg() -> maestro_dnn::Model {
    let mut argv = std::env::args();
    let mut name = "alexnet".to_string();
    while let Some(a) = argv.next() {
        if a == "--model" {
            name = argv.next().unwrap_or_default();
        }
    }
    zoo::by_name(&name, 1).unwrap_or_else(|| panic!("unknown zoo model `{name}`"))
}

fn main() {
    let threads = threads_arg();
    let model = model_arg();
    let explorer = Explorer::new(SweepSpace::tiny());
    let candidates = default_candidates();
    let r = explorer
        .explore_model_parallel(&model, &candidates, threads)
        .expect("valid sweep space");
    println!(
        "whole-model DSE over {}: {} designs explored, {} valid ({} memo hits), {:.3} ms",
        model.name,
        r.stats.explored,
        r.stats.valid,
        r.stats.memo_hits,
        1e3 * r.stats.seconds
    );
    if !r.stats.quarantined.is_empty() {
        maestro_obs::warn!(
            "{} work unit(s) quarantined — results are incomplete",
            r.stats.quarantined.len()
        );
    }
    let show = |tag: &str, p: &Option<maestro_dse::DesignPoint>| {
        if let Some(p) = p {
            println!(
                "  {tag}: {:>3} PEs, NoC {:>2}, L1 {:>6} B, L2 {:>8} B -> {:>12.0} cyc end-to-end, {:>11.3e} pJ, {:.1} mm2, {:.0} mW",
                p.pes, p.noc_bw, p.l1_bytes, p.l2_bytes, p.runtime, p.energy, p.area_mm2, p.power_mw
            );
        }
    };
    show("throughput-opt", &r.best_throughput);
    show("energy-opt    ", &r.best_energy);
    show("EDP-opt       ", &r.best_edp);
    println!("  Pareto front: {} points", r.pareto.len());
}
