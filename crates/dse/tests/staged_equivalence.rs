//! Golden equivalence suite for the two evaluation modes of the explorer.
//!
//! [`EvalMode::Staged`] shares the NoC-independent analysis stages across
//! the bandwidth axis (and re-prices only the performance stage per
//! bandwidth); [`EvalMode::Full`] runs the fused analysis at every
//! (mapping, bandwidth) grid point. The two must agree **bit-for-bit** on
//! the whole [`DseResult`] — fronts, best points, samples, and every
//! statistics counter except the wall-clock fields — across checkpoints
//! and under injected faults. Anything less would mean
//! the 10× speedup changed the science.

use maestro_dnn::{zoo, Layer, LayerDims, Operator};
use maestro_dse::{
    variants, Checkpoint, DseResult, EvalMode, Explorer, FaultPlan, SessionCtl, SweepSpace,
    UnitUpdate,
};
use maestro_ir::Style;
use std::path::PathBuf;

/// Strip the wall-clock fields so the rest can be compared exactly.
fn canonical(mut r: DseResult) -> DseResult {
    r.stats.seconds = 0.0;
    r.stats.rate = 0.0;
    r
}

fn explorer(eval: EvalMode, space: SweepSpace) -> Explorer {
    let mut e = Explorer::new(space);
    e.eval = eval;
    e
}

fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "maestro-staged-equiv-{}-{tag}.ckpt",
        std::process::id()
    ));
    p
}

/// Representative zoo layers (early / depthwise / late shapes) × all five
/// Table-3 styles on the tiny space: staged and full sweeps must produce
/// identical results. This is the per-layer golden grid behind the staged
/// default.
#[test]
fn staged_equals_full_across_zoo_layers_and_styles() {
    let vgg = zoo::vgg16(1);
    let mobilenet = zoo::mobilenet_v2(1);
    let mut layers: Vec<&Layer> = Vec::new();
    layers.extend(vgg.iter().take(1));
    layers.extend(vgg.iter().skip(vgg.len() - 1));
    layers.extend(mobilenet.iter().skip(3).take(2));
    assert!(layers.len() >= 4);
    for layer in layers {
        for style in Style::ALL {
            let maps = variants::variants(style);
            let full = explorer(EvalMode::Full, SweepSpace::tiny())
                .explore(layer, &maps)
                .expect("valid space");
            let staged = explorer(EvalMode::Staged, SweepSpace::tiny())
                .explore(layer, &maps)
                .expect("valid space");
            assert!(
                staged.stats.valid > 0,
                "{} {style}: empty sweep",
                layer.name
            );
            assert_eq!(
                canonical(full),
                canonical(staged),
                "{} {style}: modes diverged",
                layer.name
            );
        }
    }
}

/// On a slice of the standard space, big enough to bulk-skip and to fill
/// the scatter sample, staged evaluation equals full, bit for bit.
#[test]
fn staged_equals_full_on_a_trimmed_standard_space() {
    let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 64, 32, 34, 3));
    let maps = variants::variants(Style::KCP);
    let space = || {
        let full = SweepSpace::standard();
        SweepSpace {
            pes: full.pes.iter().copied().step_by(2).collect(),
            noc_bw: full.noc_bw.iter().copied().step_by(2).collect(),
            l1_bytes: full.l1_bytes.iter().copied().step_by(3).collect(),
            l2_bytes: full.l2_bytes.iter().copied().step_by(3).collect(),
        }
    };
    let golden = canonical(
        explorer(EvalMode::Full, space())
            .explore(&layer, &maps)
            .expect("valid space"),
    );
    assert!(golden.stats.valid > 0);
    let r = canonical(
        explorer(EvalMode::Staged, space())
            .explore(&layer, &maps)
            .expect("valid space"),
    );
    assert_eq!(golden, r, "staged diverged from full");
}

/// Whole-model sweeps go through the per-layer auto-tuning path; it must
/// be mode-independent too.
#[test]
fn staged_equals_full_for_whole_model_sweeps() {
    let model = zoo::alexnet(1);
    let maps = variants::variants(Style::KCP);
    let full = explorer(EvalMode::Full, SweepSpace::tiny())
        .explore_model(&model, &maps)
        .expect("valid space");
    let staged = explorer(EvalMode::Staged, SweepSpace::tiny())
        .explore_model(&model, &maps)
        .expect("valid space");
    assert!(staged.stats.valid > 0);
    assert_eq!(canonical(full), canonical(staged));
}

/// A staged session interrupted mid-sweep, checkpointed, and resumed (with
/// fault injection active on both halves) must land bit-identical to an
/// uninterrupted *full*-mode run under the same fault plan: the staged
/// path composes with the whole interruption-proofing machinery.
/// Quarantined units included — at seed 42 the plan panics one unit.
#[test]
fn staged_session_with_checkpoint_and_faults_matches_full() {
    let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 64, 32, 34, 3));
    let maps = variants::variants(Style::XP);
    let space = || {
        let full = SweepSpace::standard();
        SweepSpace {
            pes: full.pes.iter().copied().step_by(2).collect(),
            noc_bw: full.noc_bw.iter().copied().step_by(3).collect(),
            l1_bytes: full.l1_bytes.iter().copied().step_by(4).collect(),
            l2_bytes: full.l2_bytes.iter().copied().step_by(4).collect(),
        }
    };
    let faults = FaultPlan::parse("panic:0.2,nofinite:0.5", 42).expect("valid fault spec");
    let golden_ctl = SessionCtl {
        faults: faults.clone(),
        ..Default::default()
    };
    let golden = canonical(
        explorer(EvalMode::Full, space())
            .explore_session(&layer, &maps, &golden_ctl)
            .expect("valid space")
            .0,
    );
    assert!(
        !golden.stats.quarantined.is_empty(),
        "the plan should quarantine a unit"
    );

    let staged = explorer(EvalMode::Staged, space());
    let path = scratch("session");
    let _ = std::fs::remove_file(&path);

    // Phase 1: cancel when the first unit completes.
    let mut ctl = SessionCtl {
        checkpoint_path: Some(path.clone()),
        faults: faults.clone(),
        ..Default::default()
    };
    let token = ctl.token.clone();
    ctl.on_unit = Some(Box::new(move |u: &UnitUpdate<'_>| {
        if u.completed >= 1 {
            token.cancel();
        }
    }));
    let (partial, report) = staged
        .explore_session(&layer, &maps, &ctl)
        .expect("interrupted session still succeeds");
    assert!(report.interrupted && partial.partial);

    // Phase 2: resume to completion under the same fault plan.
    let ckpt = Checkpoint::load(&path).expect("checkpoint loads");
    let resumed_ctl = SessionCtl {
        checkpoint_path: Some(path.clone()),
        resume: Some(ckpt),
        faults,
        ..Default::default()
    };
    let (full_run, resumed_report) = staged
        .explore_session(&layer, &maps, &resumed_ctl)
        .expect("resumed session succeeds");
    assert!(!resumed_report.interrupted && !full_run.partial);
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        golden,
        canonical(full_run),
        "staged session diverged from full sweep"
    );
}

/// The evaluation mode changes no result, so the checkpoint fingerprint
/// leaves it out: a sweep interrupted under one mode resumes under the
/// other, both ways round, to the uninterrupted staged result.
#[test]
fn cross_mode_resume_matches_the_uninterrupted_sweep() {
    let layer = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 32, 16, 18, 3));
    let maps = variants::variants(Style::KCP);
    let golden = canonical(
        explorer(EvalMode::Staged, SweepSpace::tiny())
            .explore(&layer, &maps)
            .expect("valid space"),
    );
    for (first, then) in [
        (EvalMode::Staged, EvalMode::Full),
        (EvalMode::Full, EvalMode::Staged),
    ] {
        let path = scratch(&format!("cross-mode-{first}"));
        let _ = std::fs::remove_file(&path);
        // Cancelled when the first unit completes.
        let mut ctl = SessionCtl {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let token = ctl.token.clone();
        ctl.on_unit = Some(Box::new(move |_: &UnitUpdate<'_>| token.cancel()));
        let (partial, report) = explorer(first, SweepSpace::tiny())
            .explore_session(&layer, &maps, &ctl)
            .expect("interrupted session still succeeds");
        assert!(report.interrupted && partial.partial, "{first}");
        let resumed_ctl = SessionCtl {
            resume: Some(Checkpoint::load(&path).expect("checkpoint loads")),
            ..Default::default()
        };
        let (full_run, resumed_report) = explorer(then, SweepSpace::tiny())
            .explore_session(&layer, &maps, &resumed_ctl)
            .expect("a checkpoint resumes under the other mode");
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed_report.resumed_skipped, 1, "{first} -> {then}");
        assert_eq!(resumed_report.completed_units, resumed_report.total_units);
        assert_eq!(
            golden,
            canonical(full_run),
            "{first} checkpoint resumed under {then} diverged"
        );
    }
}
