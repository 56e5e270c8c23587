//! Golden tests: what a sweep's session adds around its work units —
//! quarantining a panicking unit, collecting spans — must leave the
//! result **bit-identical** to the plain sweep over the same units: same
//! Pareto front (same order), same per-objective bests, same scatter
//! sample, same counters. Only the wall-clock fields (`seconds`, `rate`)
//! may differ.

use maestro_dnn::{zoo, Layer, LayerDims, Operator};
use maestro_dse::{variants, DseResult, Explorer, FaultPlan, SessionCtl, SweepSpace};
use maestro_ir::Style;

/// Strip the wall-clock fields so the rest can be compared exactly.
fn canonical(mut r: DseResult) -> DseResult {
    r.stats.seconds = 0.0;
    r.stats.rate = 0.0;
    r
}

fn assert_identical(seq: &DseResult, other: DseResult, what: &str) {
    let other = canonical(other);
    assert_eq!(seq.stats, other.stats, "{what}: stats differ");
    assert_eq!(seq.pareto, other.pareto, "{what}: pareto fronts differ");
    assert_eq!(
        seq.best_throughput, other.best_throughput,
        "{what}: best_throughput differs"
    );
    assert_eq!(
        seq.best_energy, other.best_energy,
        "{what}: best_energy differs"
    );
    assert_eq!(seq.best_edp, other.best_edp, "{what}: best_edp differs");
    assert_eq!(seq.sample, other.sample, "{what}: samples differ");
    assert_eq!(seq, &other, "{what}: results differ");
}

fn conv_layer() -> Layer {
    Layer::new("c", Operator::conv2d(), LayerDims::square(1, 64, 32, 34, 3))
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
/// unit is reported in `stats.quarantined`, and a second run under the
/// same plan is bit-identical.
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
        e.explore_session(&layer, &maps, &ctl)
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

    let (again, _) = e.explore_session(&layer, &maps, &ctl).expect("valid space");
    assert_identical(&seq, again, "quarantine, second run");

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
        e.explore_model_session(&model, &maps, &ctl)
            .expect("valid space")
            .0,
    );
    let units: Vec<usize> = seq.stats.quarantined.iter().map(|q| q.unit).collect();
    assert_eq!(units, quarantined_by(&ctl, e.space.pes.len()));
    // The surviving units still produce results.
    assert!(seq.stats.valid > 0, "{:?}", seq.stats);
    let (again, _) = e
        .explore_model_session(&model, &maps, &ctl)
        .expect("valid space");
    assert_identical(&seq, again, "model quarantine, second run");
}

/// Observability must not perturb results: with span collection *enabled*
/// (the most invasive configuration — every analyze call and work unit
/// records timing into thread-local buffers flushed to a global sink),
/// the explorer stays bit-identical to an uninstrumented run, and the
/// trace actually covers the run.
#[test]
fn tracing_enabled_preserves_bit_identical_results() {
    let e = Explorer::new(SweepSpace::tiny());
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);

    // Reference run with collection off.
    let seq = canonical(e.explore(&layer, &maps).expect("valid space"));
    assert!(seq.stats.valid > 0, "{:?}", seq.stats);

    maestro_obs::span::enable();
    let traced = std::panic::catch_unwind(|| e.explore(&layer, &maps).expect("valid space"));
    maestro_obs::span::disable();
    let events = maestro_obs::span::drain();

    assert_identical(&seq, traced.expect("traced sweep completed"), "tracing on");
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
