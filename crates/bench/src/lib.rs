//! Shared fixtures for the figure/table regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates its rows/series with this workspace's
//! implementation (see DESIGN.md's per-experiment index); absolute numbers
//! come from our synthetic 28 nm calibration, so the *shapes* — who wins,
//! by what factor, where the crossovers are — are the reproduction target.
//!
//! Speed is measured elsewhere. The repository benchmark, `perfbench/`,
//! times the Fig 13 sweeps, zoo analysis and the daemon, and reports
//! each row as a median and IQR over seeded runs with a host
//! fingerprint. The one bench target here, `obs_overhead`, is a guard:
//! it fails when disabled instrumentation reaches 2% of a sweep.

use maestro_dnn::{zoo, Layer, Model};
use maestro_hw::Accelerator;

/// The 256-PE / 32 GB/s configuration of the Figure 10–12 case studies.
pub fn case_study_acc() -> Accelerator {
    Accelerator::paper_case_study()
}

/// The five evaluation models of Figure 10 (batch 1).
pub fn figure10_models() -> Vec<Model> {
    zoo::figure10_models(1)
}

/// The four representative operators of Figure 11:
/// (label, model, layer name).
pub fn figure11_operators() -> Vec<(&'static str, Model, String)> {
    vec![
        ("Early layer", zoo::resnet50(1), "CONV1".to_string()),
        ("Late layer", zoo::vgg16(1), "CONV13".to_string()),
        ("Depth-wise", zoo::mobilenet_v2(1), "BN2_1_dw".to_string()),
        (
            "Point-wise",
            zoo::mobilenet_v2(1),
            "BN2_1_expand".to_string(),
        ),
    ]
}

/// Fetch a layer from a model or panic with a clear message (fixture use).
pub fn layer<'m>(model: &'m Model, name: &str) -> &'m Layer {
    model
        .layer(name)
        .unwrap_or_else(|| panic!("{} has no layer {name}", model.name))
}

/// The `--threads <n>` argument of a figure binary (`0`, the default,
/// means one worker per core — see [`maestro_dse::resolve_threads`]).
pub fn threads_arg() -> usize {
    let mut argv = std::env::args();
    while let Some(a) = argv.next() {
        if a == "--threads" {
            let v = argv.next().unwrap_or_default();
            return v
                .parse()
                .unwrap_or_else(|_| panic!("--threads expects an integer, got `{v}`"));
        }
    }
    0
}

/// Apply `f` to every item on up to `threads` scoped worker threads
/// (`0` = one per core), returning results **in input order** regardless
/// of scheduling — the bench binaries print tables, so output must not
/// depend on thread interleaving.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = maestro_dse::resolve_threads(threads).clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, u) in per_worker.into_iter().flatten() {
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_resolve() {
        assert_eq!(figure10_models().len(), 5);
        for (label, m, l) in figure11_operators() {
            assert!(m.layer(&l).is_some(), "{label}: {l}");
        }
        let vgg = zoo::vgg16(1);
        let _ = layer(&vgg, "CONV2");
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..57).collect();
        let seq = parallel_map(&items, 1, |v| v * 3);
        for threads in [2, 8] {
            assert_eq!(parallel_map(&items, threads, |v| v * 3), seq);
        }
        assert!(parallel_map(&[] as &[u64], 4, |v| *v).is_empty());
    }
}
