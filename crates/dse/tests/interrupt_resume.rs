//! Golden tests for interruption-proof sessions: a sweep interrupted at
//! unit K, checkpointed, and resumed must be **bit-identical** to the
//! uninterrupted run — at any thread count, and with or without injected
//! panics, stalls, and non-finite poison. Only the wall-clock fields
//! (`seconds`, `rate`) and the `partial` marker on the interrupted half
//! may differ.

use maestro_dnn::{Layer, LayerDims, Operator};
use maestro_dse::{
    variants, Checkpoint, DseResult, Explorer, FaultPlan, SessionCtl, SweepSpace, UnitUpdate,
};
use maestro_ir::Style;
use std::path::PathBuf;
use std::time::Duration;

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
/// unit completes), then resume from the resulting checkpoint (with
/// `resume_faults` active) and return the resumed-to-completion result.
fn interrupt_at_k_then_resume(
    tag: &str,
    threads: usize,
    k: u32,
    first_faults: FaultPlan,
    resume_faults: FaultPlan,
) -> DseResult {
    let explorer = Explorer::new(space());
    let layer = conv_layer();
    let maps = variants::variants(Style::KCP);
    let path = scratch(tag);
    let _ = std::fs::remove_file(&path);

    // Phase 1: cancel at the k-th boundary, from the unit observer — the
    // same boundary a signal or deadline trips at.
    let mut ctl = SessionCtl {
        checkpoint_path: Some(path.clone()),
        faults: first_faults,
        retries: 2,
        unit_timeout: Some(Duration::from_millis(5)),
        ..Default::default()
    };
    let token = ctl.token.clone();
    ctl.on_unit = Some(Box::new(move |u: &UnitUpdate<'_>| {
        if u.completed + 1 >= k as usize {
            token.cancel();
        }
    }));
    let (partial, report) = explorer
        .explore_session(&layer, &maps, threads, &ctl)
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
        faults: resume_faults,
        retries: 2,
        unit_timeout: Some(Duration::from_millis(5)),
        ..Default::default()
    };
    let (full, resumed_report) = explorer
        .explore_session(&layer, &maps, threads, &resumed_ctl)
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

fn uninterrupted() -> DseResult {
    let explorer = Explorer::new(space());
    let maps = variants::variants(Style::KCP);
    canonical(
        explorer
            .explore_parallel(&conv_layer(), &maps, 1)
            .expect("valid space"),
    )
}

#[test]
fn interrupt_and_resume_is_bit_identical_at_every_thread_count() {
    let golden = uninterrupted();
    assert!(
        golden.stats.quarantined.is_empty(),
        "clean run must not quarantine"
    );
    for threads in [1usize, 2, 8, 0] {
        let r = interrupt_at_k_then_resume(
            &format!("t{threads}"),
            threads,
            2,
            FaultPlan::new(0, Vec::new()),
            FaultPlan::new(0, Vec::new()),
        );
        assert_eq!(golden, r, "threads={threads}: resumed run diverged");
    }
}

#[test]
fn interrupt_and_resume_is_bit_identical_under_injected_faults() {
    let golden = uninterrupted();
    // Transient panics recover on retry; injected stalls trip the 5ms
    // watchdog and the unit is rerouted; non-finite poison is rejected by
    // the merge's finite gates. All three must leave the science
    // untouched. (Deterministic draws: these seeds are chosen so no unit
    // fails every attempt — asserted via the quarantine list below.)
    let plans: &[(&str, &str)] = &[
        ("panics", "panic:0.3"),
        ("stalls", "delay:50ms:0.3"),
        ("poison", "nofinite:1.0"),
        ("mixed", "panic:0.2,delay:50ms:0.2,nofinite:0.5"),
    ];
    for (tag, spec) in plans {
        let faults = FaultPlan::parse(spec, 42).expect("valid fault spec");
        let r = interrupt_at_k_then_resume(&format!("faults-{tag}"), 2, 2, faults.clone(), faults);
        assert!(
            r.stats.quarantined.is_empty(),
            "{tag}: a unit failed every attempt — pick a different seed"
        );
        assert_eq!(&golden, &r, "{tag}: faults leaked into the result");
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
            .explore_model_session(&model, &maps, 2, &plain)
            .expect("plain session");
        base = base.min(r.stats.seconds);
        let with_ckpt = SessionCtl {
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let (r, rep) = explorer
            .explore_model_session(&model, &maps, 2, &with_ckpt)
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
        .explore_session(&layer, &maps, 1, &ctl)
        .expect("baseline session");
    let ckpt = Checkpoint::load(&path).expect("checkpoint loads");
    // Same checkpoint, different workload: must be refused, not merged.
    let other = Layer::new("d", Operator::conv2d(), LayerDims::square(1, 32, 16, 18, 3));
    let bad = SessionCtl {
        resume: Some(ckpt),
        ..Default::default()
    };
    let err = explorer
        .explore_session(&other, &maps, 1, &bad)
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
