//! Golden tests for interruption-proof sessions: a sweep interrupted at
//! unit K, checkpointed, and resumed must be **bit-identical** to the
//! uninterrupted run under the same fault plan, with or without injected
//! panics, stalls, and non-finite poison. Only
//! the wall-clock fields (`seconds`, `rate`) and the `partial` marker on
//! the interrupted half may differ.

use maestro_dnn::{Layer, LayerDims, Operator};
use maestro_dse::{
    variants, Checkpoint, DseResult, Explorer, FaultPlan, SessionCtl, SweepSpace, UnitUpdate,
};
use maestro_ir::Style;
use std::path::PathBuf;

/// Strip the wall-clock fields so the rest can be compared exactly.
fn canonical(mut r: DseResult) -> DseResult {
    r.stats.seconds = 0.0;
    r.stats.rate = 0.0;
    r
}

/// A workload small enough to finish fast but spanning several units.
fn conv_layer() -> Layer {
    Layer::new("c", Operator::conv2d(), LayerDims::square(1, 64, 32, 34, 3))
}

fn space() -> SweepSpace {
    let full = SweepSpace::standard();
    SweepSpace {
        pes: full.pes.iter().copied().step_by(2).collect(),
        noc_bw: full.noc_bw.iter().copied().step_by(3).collect(),
        l1_bytes: full.l1_bytes.iter().copied().step_by(4).collect(),
        l2_bytes: full.l2_bytes.iter().copied().step_by(4).collect(),
    }
}

/// A scratch checkpoint path unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "maestro-interrupt-resume-{}-{tag}.ckpt",
        std::process::id()
    ));
    p
}

/// Run a session that cancels itself at its `k`th unit boundary (the
/// sweep's start counts as the first, so `k = 2` cancels when the first
/// unit completes), then resume from the resulting checkpoint and return
/// the resumed-to-completion result. `faults` is active on both halves.
fn interrupt_at_k_then_resume(tag: &str, k: u32, faults: FaultPlan) -> DseResult {
    let explorer = Explorer::new(space());
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);
    let path = scratch(tag);
    let _ = std::fs::remove_file(&path);

    // Phase 1: cancel at the k-th boundary, from the unit observer — the
    // same boundary a signal or deadline trips at.
    let mut ctl = SessionCtl {
        checkpoint_path: Some(path.clone()),
        faults: faults.clone(),
        ..Default::default()
    };
    let token = ctl.token.clone();
    ctl.on_unit = Some(Box::new(move |u: &UnitUpdate<'_>| {
        if u.completed + 1 >= k as usize {
            token.cancel();
        }
    }));
    let (partial, report) = explorer
        .explore_session(&layer, &maps, &ctl)
        .expect("interrupted session still succeeds");
    assert!(report.interrupted, "{tag}: session should be interrupted");
    assert!(partial.partial, "{tag}: result should be marked partial");
    assert!(
        report.completed_units < report.total_units,
        "{tag}: interrupt must land mid-sweep (completed {}/{})",
        report.completed_units,
        report.total_units
    );
    assert!(report.checkpoint_writes > 0, "{tag}: no checkpoint written");

    // Phase 2: resume from the checkpoint and run to completion.
    let ckpt = Checkpoint::load(&path).expect("checkpoint loads");
    let resumed_ctl = SessionCtl {
        checkpoint_path: Some(path.clone()),
        resume: Some(ckpt),
        faults,
        ..Default::default()
    };
    let (full, resumed_report) = explorer
        .explore_session(&layer, &maps, &resumed_ctl)
        .expect("resumed session succeeds");
    assert!(!resumed_report.interrupted, "{tag}: resume ran to the end");
    assert!(!full.partial, "{tag}: resumed result is complete");
    assert_eq!(
        resumed_report.resumed_skipped, report.completed_units,
        "{tag}: resume must skip exactly the units the first run finished"
    );
    let _ = std::fs::remove_file(&path);
    canonical(full)
}

/// One uninterrupted run under `faults`.
fn uninterrupted(faults: FaultPlan) -> DseResult {
    let explorer = Explorer::new(space());
    let maps = variants::variants(Style::KCP);
    let ctl = SessionCtl {
        faults,
        ..Default::default()
    };
    let (result, _) = explorer
        .explore_session(&conv_layer(), &maps, &ctl)
        .expect("valid space");
    canonical(result)
}

#[test]
fn interrupt_and_resume_is_bit_identical() {
    let golden = uninterrupted(FaultPlan::new(0, Vec::new()));
    assert!(
        golden.stats.quarantined.is_empty(),
        "clean run must not quarantine"
    );
    let r = interrupt_at_k_then_resume("clean", 2, FaultPlan::new(0, Vec::new()));
    assert_eq!(golden, r, "resumed run diverged");
}

#[test]
fn interrupt_and_resume_is_bit_identical_under_injected_faults() {
    let clean = uninterrupted(FaultPlan::new(0, Vec::new()));
    // Injected stalls only delay a unit, and non-finite poison is rejected
    // by the merge's finite gates, so those plans leave the science
    // untouched. A panicked unit is quarantined, so a plan with panics
    // must land on the uninterrupted run under the same plan: quarantine
    // is checkpointed terminally and not re-run on resume. (At seed 42
    // both panic plans quarantine a unit — asserted below.)
    let plans: &[(&str, &str, bool)] = &[
        ("panics", "panic:0.3", true),
        ("stalls", "delay:50ms:0.3", false),
        ("poison", "nofinite:1.0", false),
        ("mixed", "panic:0.2,delay:50ms:0.2,nofinite:0.5", true),
    ];
    for (tag, spec, panics) in plans {
        let faults = FaultPlan::parse(spec, 42).expect("valid fault spec");
        let golden = if *panics {
            uninterrupted(faults.clone())
        } else {
            clean.clone()
        };
        assert_eq!(
            !golden.stats.quarantined.is_empty(),
            *panics,
            "{tag}: the plan should quarantine a unit exactly when it panics"
        );
        let r = interrupt_at_k_then_resume(&format!("faults-{tag}"), 2, faults);
        assert_eq!(&golden, &r, "{tag}: resumed run diverged");
    }
}

/// Measurement harness behind EXPERIMENTS.md's checkpoint-overhead
/// number: times a whole-model session with and without per-unit
/// checkpointing (the default interval). Ignored by default because it
/// is a benchmark, not an assertion — run with
/// `cargo test -p maestro-dse --release --test interrupt_resume -- --ignored --nocapture`.
#[test]
#[ignore = "timing measurement, run manually"]
fn measure_checkpoint_overhead() {
    let explorer = Explorer::new(SweepSpace::standard());
    let model = maestro_dnn::zoo::resnet50(1);
    // All five styles' variants: the realistic "which dataflow wins"
    // sweep, heavy enough per unit for steady timing.
    let maps: Vec<_> = Style::ALL
        .iter()
        .flat_map(|s| variants::variants(*s))
        .collect();
    let path = scratch("overhead");
    let mut base = f64::MAX;
    let mut ckpt = f64::MAX;
    for _ in 0..3 {
        let plain = SessionCtl::default();
        let (r, _) = explorer
            .explore_model_session(&model, &maps, &plain)
            .expect("plain session");
        base = base.min(r.stats.seconds);
        let with_ckpt = SessionCtl {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let (r, rep) = explorer
            .explore_model_session(&model, &maps, &with_ckpt)
            .expect("checkpointed session");
        ckpt = ckpt.min(r.stats.seconds);
        println!(
            "plain {base:.3}s  checkpointed {ckpt:.3}s  ({} writes) overhead {:+.2}%",
            rep.checkpoint_writes,
            100.0 * (ckpt - base) / base
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_against_a_different_sweep_is_rejected() {
    let explorer = Explorer::new(space());
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);
    let path = scratch("fingerprint");
    let _ = std::fs::remove_file(&path);
    let ctl = SessionCtl {
        checkpoint_path: Some(path.clone()),
        ..Default::default()
    };
    explorer
        .explore_session(&layer, &maps, &ctl)
        .expect("baseline session");
    let ckpt = Checkpoint::load(&path).expect("checkpoint loads");
    // Same checkpoint, different workload: must be refused, not merged.
    let other = Layer::new("d", Operator::conv2d(), LayerDims::square(1, 32, 16, 18, 3));
    let bad = SessionCtl {
        resume: Some(ckpt),
        ..Default::default()
    };
    let err = explorer
        .explore_session(&other, &maps, &bad)
        .expect_err("fingerprint mismatch must be rejected");
    assert!(
        matches!(
            err,
            maestro_dse::SessionError::Checkpoint(maestro_dse::CheckpointError::Fingerprint { .. })
        ),
        "wrong error: {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}
