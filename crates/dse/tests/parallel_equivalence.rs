//! Golden tests: the sharded parallel explorer must be **bit-identical**
//! to the sequential one at any thread count — same Pareto front (same
//! order), same per-objective bests, same scatter sample, same counters.
//! Only the wall-clock fields (`seconds`, `rate`) may differ.

use maestro_dnn::{zoo, Layer, LayerDims, Operator};
use maestro_dse::{variants, DseResult, Explorer, FaultPlan, SessionCtl, SweepSpace};
use maestro_ir::Style;

/// Strip the wall-clock fields so the rest can be compared exactly.
fn canonical(mut r: DseResult) -> DseResult {
    r.stats.seconds = 0.0;
    r.stats.rate = 0.0;
    r
}

fn assert_identical(seq: &DseResult, par: DseResult, what: &str) {
    let par = canonical(par);
    assert_eq!(seq.stats, par.stats, "{what}: stats differ");
    assert_eq!(seq.pareto, par.pareto, "{what}: pareto fronts differ");
    assert_eq!(
        seq.best_throughput, par.best_throughput,
        "{what}: best_throughput differs"
    );
    assert_eq!(
        seq.best_energy, par.best_energy,
        "{what}: best_energy differs"
    );
    assert_eq!(seq.best_edp, par.best_edp, "{what}: best_edp differs");
    assert_eq!(seq.sample, par.sample, "{what}: samples differ");
    assert_eq!(seq, &par, "{what}: results differ");
}

/// A slice of the standard space that keeps the test fast while still
/// spanning several PE counts and triggering bulk skips.
fn trimmed_standard() -> SweepSpace {
    let full = SweepSpace::standard();
    SweepSpace {
        pes: full.pes.iter().copied().step_by(2).collect(),
        noc_bw: full.noc_bw.iter().copied().step_by(3).collect(),
        l1_bytes: full.l1_bytes.iter().copied().step_by(4).collect(),
        l2_bytes: full.l2_bytes.iter().copied().step_by(4).collect(),
    }
}

fn conv_layer() -> Layer {
    Layer::new("c", Operator::conv2d(), LayerDims::square(1, 64, 32, 34, 3))
}

#[test]
fn layer_explore_is_thread_count_invariant_on_tiny_space() {
    let e = Explorer::new(SweepSpace::tiny());
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);
    let seq = canonical(e.explore(&layer, &maps).expect("valid space"));
    assert!(seq.stats.valid > 0, "{:?}", seq.stats);
    for threads in [1, 2, 8] {
        let par = e
            .explore_parallel(&layer, &maps, threads)
            .expect("valid space");
        assert_identical(&seq, par, &format!("tiny space, {threads} threads"));
    }
}

#[test]
fn layer_explore_is_thread_count_invariant_on_trimmed_standard_space() {
    let e = Explorer::new(trimmed_standard());
    let layer = conv_layer();
    let maps = variants::variants(Style::YRP);
    let seq = canonical(e.explore(&layer, &maps).expect("valid space"));
    assert!(seq.stats.valid > 0, "{:?}", seq.stats);
    assert!(
        !seq.sample.is_empty(),
        "space too small to exercise sampling"
    );
    for threads in [1, 2, 8] {
        let par = e
            .explore_parallel(&layer, &maps, threads)
            .expect("valid space");
        assert_identical(&seq, par, &format!("trimmed standard, {threads} threads"));
    }
}

#[test]
fn model_explore_is_thread_count_invariant() {
    let e = Explorer::new(SweepSpace::tiny());
    let model = zoo::alexnet(1);
    let maps = variants::variants(Style::KCP);
    let seq = canonical(e.explore_model(&model, &maps).expect("valid space"));
    assert!(seq.stats.valid > 0, "{:?}", seq.stats);
    for threads in [1, 2, 8] {
        let par = e
            .explore_model_parallel(&model, &maps, threads)
            .expect("valid space");
        assert_identical(&seq, par, &format!("alexnet, {threads} threads"));
    }
}

/// A session that panics each unit with probability 1/2. At seed 2 over
/// the tiny space's three units, units 0 and 2 panic and unit 1 runs.
fn panicking_session() -> SessionCtl {
    SessionCtl {
        faults: FaultPlan::parse("panic:0.5", 2).expect("valid spec"),
        ..Default::default()
    }
}

/// The units `ctl` quarantines: those its fault plan panics.
fn quarantined_by(ctl: &SessionCtl, units: usize) -> Vec<usize> {
    (0..units).filter(|&u| ctl.faults.decide(u).panic).collect()
}

/// Fault isolation: a panicking work unit (injected through the session's
/// fault plan) must not abort the sweep. The run completes, the failed
/// unit is reported in `stats.quarantined`, and the merged result stays
/// bit-identical at 1/2/8/auto threads.
#[test]
fn quarantined_unit_degrades_without_aborting_and_stays_deterministic() {
    let e = Explorer::new(SweepSpace::tiny());
    let ctl = panicking_session();
    let expected = quarantined_by(&ctl, e.space.pes.len());
    assert!(
        !expected.is_empty() && expected.len() < e.space.pes.len(),
        "pick a seed that quarantines some units but not all: {expected:?}"
    );
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);

    let seq = canonical(
        e.explore_session(&layer, &maps, 1, &ctl)
            .expect("valid space")
            .0,
    );
    let units: Vec<usize> = seq.stats.quarantined.iter().map(|q| q.unit).collect();
    assert_eq!(units, expected, "{:?}", seq.stats.quarantined);
    for q in &seq.stats.quarantined {
        assert!(
            q.message == format!("injected panic (unit {})", q.unit),
            "{}",
            q.message
        );
    }
    // The surviving units still produce results.
    assert!(seq.stats.valid > 0, "{:?}", seq.stats);

    for threads in [1, 2, 8, 0] {
        let (par, _) = e
            .explore_session(&layer, &maps, threads, &ctl)
            .expect("valid space");
        assert_identical(&seq, par, &format!("quarantine, {threads} threads"));
    }

    // The degraded run found strictly fewer (or equal) points than a
    // healthy one, and a healthy run quarantines nothing.
    let full = canonical(e.explore(&layer, &maps).expect("valid space"));
    assert!(full.stats.quarantined.is_empty());
    assert!(seq.stats.valid <= full.stats.valid);
    assert!(seq.stats.explored < full.stats.explored);
}

#[test]
fn model_explore_quarantines_panicking_units_too() {
    let e = Explorer::new(SweepSpace::tiny());
    let ctl = panicking_session();
    let model = zoo::alexnet(1);
    let maps = variants::variants(Style::KCP);
    let seq = canonical(
        e.explore_model_session(&model, &maps, 1, &ctl)
            .expect("valid space")
            .0,
    );
    let units: Vec<usize> = seq.stats.quarantined.iter().map(|q| q.unit).collect();
    assert_eq!(units, quarantined_by(&ctl, e.space.pes.len()));
    for threads in [2, 8] {
        let (par, _) = e
            .explore_model_session(&model, &maps, threads, &ctl)
            .expect("valid space");
        assert_identical(&seq, par, &format!("model quarantine, {threads} threads"));
    }
}

#[test]
fn auto_thread_count_gives_the_same_result() {
    let e = Explorer::new(SweepSpace::tiny());
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);
    let seq = canonical(e.explore(&layer, &maps).expect("valid space"));
    // threads == 0 resolves to the host's core count.
    let auto = e.explore_parallel(&layer, &maps, 0).expect("valid space");
    assert_identical(&seq, auto, "auto thread count");
}

/// Observability must not perturb results: with span collection *enabled*
/// (the most invasive configuration — every analyze call and work unit
/// records timing into thread-local buffers flushed to a global sink),
/// the explorer stays bit-identical to an uninstrumented sequential run
/// at 1/2/8/auto threads, and the trace actually covers the run.
#[test]
fn tracing_enabled_preserves_bit_identical_results() {
    let e = Explorer::new(SweepSpace::tiny());
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);

    // Reference run with collection off.
    let seq = canonical(e.explore(&layer, &maps).expect("valid space"));
    assert!(seq.stats.valid > 0, "{:?}", seq.stats);

    maestro_obs::span::enable();
    let traced = std::panic::catch_unwind(|| {
        let mut runs = Vec::new();
        for threads in [1, 2, 8, 0] {
            runs.push((
                threads,
                e.explore_parallel(&layer, &maps, threads)
                    .expect("valid space"),
            ));
        }
        runs
    });
    maestro_obs::span::disable();
    let events = maestro_obs::span::drain();

    for (threads, par) in traced.expect("traced sweeps completed") {
        assert_identical(&seq, par, &format!("tracing on, {threads} threads"));
    }
    // The trace covered the sweeps: unit spans with nested analysis-stage
    // spans (the staged evaluator emits per-stage spans — tensor/reuse/
    // buffer/noc from `StagedAnalysis::build`, perf from `finish` — rather
    // than the fused `maestro.analysis.analyze` wrapper).
    assert!(
        events.iter().any(|ev| ev.name == "maestro.dse.unit"),
        "no unit spans collected"
    );
    assert!(
        events
            .iter()
            .any(|ev| ev.name.starts_with("maestro.analysis.") && ev.parent.is_some()),
        "no nested analysis spans collected"
    );
}
