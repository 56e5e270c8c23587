//! Sweep work units and their deterministic merge.
//!
//! The explorer's sweep is decomposed into independent **work units**, one
//! per PE-count index. A unit produces a [`Partial`] — private statistics,
//! Pareto front, per-objective bests and scatter subsample for its slice
//! of the space. `run_units` runs the units in index order on the calling
//! thread and returns their outcomes in that order; `merge_partials` then
//! folds them in the same fixed order.
//!
//! The merge order is what makes a sweep resumable: a resumed run fills
//! some slots from a checkpoint and runs the rest, and the fold over the
//! slots is the same whichever run filled them. So a result is
//! bit-identical across any interrupt/resume split — only the wall-clock
//! fields (`seconds`, `rate`) differ:
//!
//! * **Pareto front** — re-inserting each unit's surviving points in
//!   global unit order reproduces a single fold over the whole space: a
//!   point eliminated inside its unit is dominated by an in-unit survivor
//!   (dominance is transitive, so it would also lose globally), and
//!   `insert_pareto`'s first-wins tie rule sees candidates in the same
//!   relative order.
//! * **Per-objective bests** — folded with strict `<`, so the earliest
//!   unit's point wins ties.
//! * **Sample** — each unit samples every 61st of *its own* valid points;
//!   the merge concatenates unit samples in order and truncates at the
//!   cap.
//! * **Counters** — sums, which commute.
//!
//! # Fault isolation
//!
//! Each work unit runs under [`std::panic::catch_unwind`]. A panicking
//! unit yields an `Err` at its fixed index instead of aborting the sweep;
//! `merge_partials` records it in [`DseStats::quarantined`] (unit index +
//! panic payload) and folds the remaining units unchanged.
//!
//! # Controlled execution
//!
//! Every sweep runs under a [`SessionCtl`]; [`SessionCtl::default`] is a
//! plain run to completion. On top of the unit loop the control adds
//! cooperative cancellation (polled between units and inside injected
//! stalls), resume (units already terminal in the resume
//! [`Checkpoint`] are pre-filled, not re-run), deterministic per-unit
//! fault injection, and periodic checkpoint writes as units complete.
//! Each unit gets one attempt: a unit is pure compute, so one that
//! panicked would panic again, and it is quarantined at once.
//! Everything that affects *results* (fault draws, quarantine decisions)
//! is a pure function of the unit index, so the bit-identical guarantee
//! extends across interruption, resume and injection.
//!
//! Parallelism lives across sweeps, not inside one: the serving daemon
//! runs one sweep per worker thread.

use crate::cancel::{SessionCtl, SessionReport, UnitUpdate};
use crate::checkpoint::Checkpoint;
use crate::explorer::{
    update_best, DesignPoint, DseResult, DseStats, ParetoFront, Partial, QuarantinedUnit,
};
use maestro_obs::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one work unit produced: its [`Partial`], or the panic payload
/// (rendered as a string) if it panicked.
pub type UnitOutcome = Result<Partial, String>;

/// `OnceLock`-cached handles for the session-control counters, registered
/// eagerly so they all appear (at zero) in every exposition.
struct CtlMetrics {
    quarantined: maestro_obs::Counter,
    resumed_skipped: maestro_obs::Counter,
    faults_injected: maestro_obs::Counter,
    deadline_exceeded: maestro_obs::Counter,
}

fn ctl_metrics() -> &'static CtlMetrics {
    static M: std::sync::OnceLock<CtlMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = maestro_obs::registry();
        CtlMetrics {
            quarantined: r.counter("maestro.dse.units_quarantined"),
            resumed_skipped: r.counter("maestro.dse.units_resumed_skipped"),
            faults_injected: r.counter("maestro.dse.faults_injected"),
            deadline_exceeded: r.counter("maestro.dse.deadline_exceeded"),
        }
    })
}

/// Render a panic payload as a string (`&str` and `String` payloads pass
/// through; anything else gets a placeholder).
fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic trace ID for a sampled work unit — a pure function of
/// `(seed, unit)`, so the same unit names the same trace on every run and
/// across interrupt/resume splits.
pub fn unit_trace_id(seed: u64, unit: usize) -> maestro_obs::TraceId {
    maestro_obs::rng::trace_id(seed, unit as u64)
}

/// The healthy-unit draw for `--trace-sample 1/k`: trace unit `i` when
/// `i % k == 0`. Quarantined units are kept regardless of the draw.
/// Pure in the unit index, so the traced subset is identical across
/// runs and resume splits.
pub fn unit_trace_draw(k: u64, unit: usize) -> bool {
    k > 0 && (unit as u64).is_multiple_of(k)
}

/// Begin unit `i`'s trace when tracing is on: its one `unit` phase opens
/// now.
fn begin_unit_trace(ctl: &SessionCtl, i: usize) -> Option<Trace> {
    ctl.trace_sample?;
    let now = Instant::now();
    let mut trace = Trace::begin(unit_trace_id(ctl.trace_seed, i), now);
    trace.mark_at("unit", now);
    Some(trace)
}

/// Retain a flight-recorder entry for one completed unit, if tracing is
/// on and this unit is drawn (or was quarantined — failures always
/// keep). The recorder's own tail-sampling policy is bypassed: the draw
/// here is on the unit *index*, not the trace ID, so which units get
/// traced does not change when the seed (and hence the IDs) does.
fn record_unit_trace(ctl: &SessionCtl, i: usize, outcome: &UnitOutcome, trace: Option<Trace>) {
    let (Some(k), Some(trace)) = (ctl.trace_sample, trace) else {
        return;
    };
    let failed = outcome.is_err();
    if !failed && !unit_trace_draw(k, i) {
        return;
    }
    let (status, reason) = if failed {
        (500, maestro_obs::KeepReason::Error)
    } else {
        (200, maestro_obs::KeepReason::Sampled)
    };
    let rec = trace.finish(format!("dse.unit[{i}]"), status, 0);
    maestro_obs::FlightRecorder::global().keep(rec, reason);
}

/// The placeholder appended to a unit's Pareto slice by `nofinite`
/// injection. Rejected by [`insert_pareto`]'s finite gate at merge time,
/// so injected sweeps stay bit-identical to clean ones — which is exactly
/// what the injection is for: proving that gate end to end.
fn poison_point() -> DesignPoint {
    DesignPoint {
        pes: 0,
        noc_bw: 0,
        l1_bytes: 0,
        l2_bytes: 0,
        mapping: "injected-nofinite".into(),
        area_mm2: f64::NAN,
        power_mw: f64::NAN,
        runtime: f64::NAN,
        throughput: f64::NAN,
        energy: f64::NAN,
        edp: f64::NAN,
    }
}

/// Run `units` work units in index order under `ctl`, and return their
/// outcomes in unit-index order plus the control report. `slots[i]` is
/// `None` only when the run was cancelled before unit `i` completed.
/// Periodic checkpoints are stamped with `fingerprint`; the final
/// checkpoint is the caller's.
///
/// A panicking unit becomes an `Err` at its index, so a single poisoned
/// configuration degrades that slice instead of aborting the whole sweep.
pub(crate) fn run_units(
    units: usize,
    ctl: &SessionCtl,
    fingerprint: u64,
    unit: impl Fn(usize) -> Partial,
) -> (Vec<Option<UnitOutcome>>, SessionReport) {
    let metrics = ctl_metrics();
    // Units already terminal in the resume checkpoint (quarantined ones
    // included) are copied in and never re-run.
    let mut slots = ctl
        .resume
        .as_ref()
        .map_or_else(Vec::new, |c| c.units.clone());
    slots.resize(units, None);
    let resumed_skipped = slots.iter().filter(|s| s.is_some()).count();
    metrics.resumed_skipped.add(resumed_skipped as u64);
    let mut report = SessionReport {
        resumed_skipped,
        completed_units: resumed_skipped,
        total_units: units,
        ..SessionReport::default()
    };
    let mut last_write = Instant::now();

    for i in 0..units {
        if ctl.token.is_cancelled() {
            break;
        }
        if slots[i].is_some() {
            continue;
        }
        // One attempt per unit: fault draw → injected stall → guarded
        // execution. Cancellation during an injected stall leaves the
        // unit incomplete, so resume re-runs it.
        let trace = begin_unit_trace(ctl, i);
        let inj = ctl.faults.decide(i);
        if inj.count() > 0 {
            report.faults_injected += inj.count();
            metrics.faults_injected.add(inj.count());
        }
        if let Some(stall) = inj.stall {
            if !ctl.token.sleep_cooperatively(stall) {
                break;
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inj.panic {
                panic!("injected panic (unit {i})");
            }
            let mut part = unit(i);
            if inj.nofinite {
                part.pareto.push(poison_point());
            }
            part
        }))
        .map_err(payload_to_string);
        record_unit_trace(ctl, i, &outcome, trace);
        slots[i] = Some(outcome);
        report.completed_units += 1;

        if let Some(path) = &ctl.checkpoint_path {
            if ctl
                .checkpoint_every
                .is_some_and(|d| last_write.elapsed() >= d)
            {
                let ckpt = Checkpoint {
                    fingerprint,
                    units: slots.clone(),
                };
                match ckpt.save(path) {
                    Ok(()) => {
                        report.checkpoint_writes += 1;
                        last_write = Instant::now();
                    }
                    Err(e) => maestro_obs::warn!("periodic checkpoint write failed: {e}"),
                }
            }
        }
        if let (Some(f), Some(outcome)) = (&ctl.on_unit, &slots[i]) {
            let (pareto, failed): (&[_], Option<&str>) = match outcome {
                Ok(p) => (&p.pareto, None),
                Err(e) => (&[], Some(e.as_str())),
            };
            f(&UnitUpdate {
                unit: i,
                completed: report.completed_units,
                total: units,
                pareto,
                failed,
            });
        }
    }

    report.interrupted = ctl.token.is_cancelled() && report.completed_units < units;
    if ctl.token.deadline_exceeded() {
        metrics.deadline_exceeded.inc();
    }
    (slots, report)
}

/// Fold unit outcome slots — **in index order** — into one result.
///
/// Failed units are quarantined into [`DseStats::quarantined`] (in
/// unit-index order) and contribute nothing else, so a failed unit
/// leaves the same result whichever run quarantined it.
/// Unfinished (`None`) slots are skipped and mark the result
/// [`DseResult::partial`].
///
/// `seconds`/`rate` are left at zero; the caller stamps wall-clock time.
pub(crate) fn merge_partials(slots: Vec<Option<UnitOutcome>>, sample_cap: usize) -> DseResult {
    // Touch the counter up front so `maestro.dse.units_quarantined` shows
    // up (at zero) in every exposition, not only after the first failure —
    // dashboards and the CI grep rely on its presence.
    let quarantined_units = &ctl_metrics().quarantined;
    let merged_sample = slots
        .iter()
        .map(|slot| match slot {
            Some(Ok(part)) => part.sample.len(),
            _ => 0,
        })
        .sum::<usize>()
        .min(sample_cap);
    let mut out = DseResult {
        pareto: Vec::new(),
        best_throughput: None,
        best_energy: None,
        best_edp: None,
        sample: Vec::with_capacity(merged_sample),
        stats: DseStats::empty(),
        partial: false,
    };
    // Merge through the SoA front — same accept/evict semantics as
    // `insert_pareto`, but the dominance scans run over flat f64 columns.
    let mut front = ParetoFront::new();
    for (i, slot) in slots.into_iter().enumerate() {
        let part = match slot {
            Some(Ok(p)) => p,
            Some(Err(message)) => {
                maestro_obs::warn!("DSE work unit {i} quarantined: {message}");
                quarantined_units.inc();
                out.stats
                    .quarantined
                    .push(QuarantinedUnit { unit: i, message });
                continue;
            }
            None => {
                out.partial = true;
                continue;
            }
        };
        out.stats.explored += part.stats.explored;
        out.stats.evaluated += part.stats.evaluated;
        out.stats.valid += part.stats.valid;
        out.stats.memo_hits += part.stats.memo_hits;
        out.stats.nonfinite_dropped += part.stats.nonfinite_dropped;
        out.stats.capacity_skipped += part.stats.capacity_skipped;
        out.stats.pareto_inserted += part.stats.pareto_inserted;
        out.stats.pareto_rejected += part.stats.pareto_rejected;
        for p in &part.pareto {
            front.insert(p);
        }
        if let Some(p) = &part.best_throughput {
            update_best(&mut out.best_throughput, p, |p| -p.throughput);
        }
        if let Some(p) = &part.best_energy {
            update_best(&mut out.best_energy, p, |p| p.energy);
        }
        if let Some(p) = &part.best_edp {
            update_best(&mut out.best_edp, p, |p| p.edp);
        }
        let room = sample_cap.saturating_sub(out.sample.len());
        out.sample.extend(part.sample.into_iter().take(room));
    }
    out.pareto = front.into_points();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::time::Duration;

    fn unit(i: usize) -> Partial {
        let mut p = Partial::new();
        p.stats.explored = 100 + i as u64;
        p.stats.valid = i as u64;
        p
    }

    fn explored(slots: &[Option<UnitOutcome>]) -> Vec<u64> {
        slots
            .iter()
            .map(|s| {
                s.as_ref()
                    .expect("unit done")
                    .as_ref()
                    .expect("unit ok")
                    .stats
                    .explored
            })
            .collect()
    }

    /// The inert control: no periodic checkpoint cadence.
    fn plain_ctl() -> SessionCtl {
        SessionCtl {
            checkpoint_every: None,
            ..SessionCtl::default()
        }
    }

    /// Run to completion under [`plain_ctl`], returning only the slots.
    fn run_plain(units: usize, unit: impl Fn(usize) -> Partial) -> Vec<Option<UnitOutcome>> {
        run_units(units, &plain_ctl(), 0, unit).0
    }

    /// The streaming hook fires exactly once per unit, in unit order, with
    /// a strictly monotone `completed` and the failure message on
    /// quarantined units — the contract the NDJSON stream relies on.
    #[test]
    fn on_unit_fires_in_unit_order_with_monotone_progress() {
        let seen: Rc<RefCell<Vec<(usize, usize, bool)>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let ctl = SessionCtl {
            on_unit: Some(Box::new(move |u: &UnitUpdate<'_>| {
                sink.borrow_mut()
                    .push((u.unit, u.completed, u.failed.is_some()));
            })),
            ..plain_ctl()
        };
        let (_, report) = run_units(6, &ctl, 0, |i| {
            if i == 2 {
                panic!("boom unit 2");
            }
            unit(i)
        });
        assert_eq!(report.completed_units, report.total_units);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 6, "one call per unit");
        let completed: Vec<usize> = seen.iter().map(|(_, c, _)| *c).collect();
        assert_eq!(completed, vec![1, 2, 3, 4, 5, 6], "strictly monotone");
        let units: Vec<usize> = seen.iter().map(|(u, _, _)| *u).collect();
        assert_eq!(units, vec![0, 1, 2, 3, 4, 5], "in unit order");
        for (u, _, failed) in seen.iter() {
            assert_eq!(*failed, *u == 2, "only the panicked unit is failed");
        }
    }

    #[test]
    fn trace_sample_records_drawn_and_quarantined_units() {
        let ctl = SessionCtl {
            trace_sample: Some(3),
            trace_seed: 42,
            ..plain_ctl()
        };
        let rec = maestro_obs::FlightRecorder::global();
        rec.clear();
        let (_, report) = run_units(7, &ctl, 0, |i| {
            if i == 4 {
                panic!("boom unit 4");
            }
            unit(i)
        });
        assert_eq!(report.completed_units, 7);

        // Drawn units 0, 3, 6 (1-in-3 by index) plus the quarantined
        // unit 4 — and nothing else.
        let mut names: Vec<String> = rec.recent().iter().map(|t| t.name.clone()).collect();
        names.sort();
        assert_eq!(
            names,
            ["dse.unit[0]", "dse.unit[3]", "dse.unit[4]", "dse.unit[6]"]
        );

        // The quarantined unit is findable by its deterministic ID and
        // marked as a forced keep.
        let failed = rec
            .find(unit_trace_id(42, 4))
            .expect("quarantined unit trace kept");
        assert_eq!(failed.status, 500);
        assert_eq!(failed.kept, maestro_obs::KeepReason::Error);
        assert_eq!(failed.phases.len(), 1);
        assert_eq!(failed.phases[0].name, "unit");

        let drawn = rec
            .find(unit_trace_id(42, 3))
            .expect("drawn unit trace kept");
        assert_eq!(drawn.status, 200);
        assert_eq!(drawn.kept, maestro_obs::KeepReason::Sampled);
        rec.clear();
    }

    #[test]
    fn unit_trace_ids_are_stable_and_distinct() {
        // Golden-pin two IDs so the scheme can't drift silently: traces
        // written in EXPERIMENTS.md / scripts stay addressable.
        assert_eq!(unit_trace_id(42, 4), unit_trace_id(42, 4));
        assert_ne!(unit_trace_id(42, 4), unit_trace_id(42, 5));
        assert_ne!(unit_trace_id(42, 4), unit_trace_id(43, 4));
        assert!(unit_trace_draw(3, 0));
        assert!(!unit_trace_draw(3, 1));
        assert!(unit_trace_draw(3, 6));
        assert!(!unit_trace_draw(0, 0));
    }

    #[test]
    fn run_units_returns_outcomes_in_index_order() {
        let slots = run_plain(7, unit);
        assert_eq!(explored(&slots), (100..107).collect::<Vec<u64>>());
        assert!(run_plain(0, unit).is_empty());
    }

    #[test]
    fn merge_sums_counters() {
        let merged = merge_partials(run_plain(4, unit), 16);
        assert_eq!(merged.stats.explored, 100 + 101 + 102 + 103);
        assert_eq!(merged.stats.valid, 1 + 2 + 3);
        assert!(merged.pareto.is_empty());
        assert!(merged.stats.quarantined.is_empty());
        assert!(!merged.partial);
    }

    fn faulty(i: usize) -> Partial {
        if i == 2 {
            panic!("unit {i} is poisoned");
        }
        unit(i)
    }

    #[test]
    fn panicking_unit_is_quarantined_not_fatal() {
        let outcomes = run_plain(5, faulty);
        assert_eq!(outcomes.len(), 5);
        assert!(matches!(outcomes[2], Some(Err(_))));
        let merged = merge_partials(outcomes, 16);
        assert_eq!(merged.stats.quarantined.len(), 1);
        let q = &merged.stats.quarantined[0];
        assert_eq!(q.unit, 2);
        assert!(q.message.contains("unit 2 is poisoned"), "{}", q.message);
        // The surviving units' counters are all present.
        assert_eq!(merged.stats.explored, 100 + 101 + 103 + 104);
        assert_eq!(merged.stats.valid, 1 + 3 + 4);
    }

    #[test]
    fn cancelled_run_leaves_later_units_incomplete() {
        let ctl = plain_ctl();
        ctl.token.cancel();
        let (_, report) = run_units(6, &ctl, 0, unit);
        assert!(report.interrupted);
        assert!(report.completed_units < report.total_units);
        assert_eq!(report.completed_units, 0);
    }

    #[test]
    fn cancellation_mid_run_is_a_partial_not_an_error() {
        let cancel_after = 3usize;
        let mut ctl = plain_ctl();
        // Cancellation is requested from the unit observer, which fires at
        // each unit boundary — exactly where real signals are observed.
        let token = ctl.token.clone();
        ctl.on_unit = Some(Box::new(move |u: &UnitUpdate<'_>| {
            if u.completed >= cancel_after {
                token.cancel();
            }
        }));
        let (slots, report) = run_units(8, &ctl, 0, unit);
        assert!(report.interrupted);
        assert_eq!(report.completed_units, cancel_after);
        // The completed prefix is exactly units 0..cancel_after.
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(s.is_some(), i < cancel_after, "unit {i}");
        }
    }

    /// A unit is pure compute, so a panic is not transient: the default
    /// control runs a panicking unit once and quarantines it.
    #[test]
    fn a_panicking_unit_runs_once_under_the_default_control() {
        let calls = Cell::new(0);
        let (slots, report) = run_units(3, &SessionCtl::default(), 0, |i| {
            if i == 1 {
                calls.set(calls.get() + 1);
                panic!("unit 1 always panics");
            }
            unit(i)
        });
        assert_eq!(calls.get(), 1, "the panicking unit ran again");
        assert_eq!(report.completed_units, report.total_units);
        assert!(matches!(&slots[1], Some(Err(m)) if m == "unit 1 always panics"));
    }

    #[test]
    fn injected_panics_quarantine_every_hit_unit() {
        // Rate 1.0 hits every unit: this pins the deterministic
        // injected-quarantine path.
        let ctl = SessionCtl {
            faults: FaultPlan::parse("panic:1", 9).expect("valid spec"),
            ..plain_ctl()
        };
        let (slots, report) = run_units(3, &ctl, 0, unit);
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.faults_injected, 3);
        for (i, s) in slots.iter().enumerate() {
            let expected = format!("injected panic (unit {i})");
            assert!(matches!(s, Some(Err(m)) if *m == expected), "{s:?}");
        }
    }

    /// A cancel during an injected stall cuts the sleep short and leaves
    /// the unit incomplete, so resume re-runs it.
    #[test]
    fn cancel_cuts_an_injected_stall_short() {
        let ctl = SessionCtl {
            faults: FaultPlan::parse("delay:10s:1.0", 3).expect("valid spec"),
            ..plain_ctl()
        };
        ctl.token.set_deadline_in(Duration::from_millis(20));
        let t0 = Instant::now();
        let (slots, report) = run_units(2, &ctl, 0, unit);
        assert!(t0.elapsed() < Duration::from_secs(5), "the stall ran out");
        assert!(report.interrupted);
        assert!(slots.iter().all(Option::is_none), "{slots:?}");
    }

    #[test]
    fn resume_skips_completed_units_and_preserves_quarantine() {
        let mut ckpt = Checkpoint::new(7, 5);
        ckpt.units[0] = Some(Ok(unit(0)));
        ckpt.units[2] = Some(Err("old panic".to_string()));
        let ran = Cell::new(0);
        let counting = |i: usize| {
            ran.set(ran.get() + 1);
            unit(i)
        };
        let ctl = SessionCtl {
            resume: Some(ckpt),
            ..plain_ctl()
        };
        let (slots, report) = run_units(5, &ctl, 7, counting);
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.resumed_skipped, 2);
        assert_eq!(ran.get(), 3, "only units 1, 3, 4 ran");
        assert!(matches!(&slots[2], Some(Err(m)) if m == "old panic"));
        // Full-resume outcomes equal a fresh run's.
        let fresh = run_plain(5, unit);
        assert_eq!(explored(&fresh[..2]), explored(&slots[..2]));
    }

    #[test]
    fn periodic_checkpoints_are_written_and_loadable() {
        let dir = std::env::temp_dir().join(format!("maestro-ckpt-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("run.ckpt");
        // A zero interval writes after every unit.
        let ctl = SessionCtl {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: Some(Duration::ZERO),
            ..plain_ctl()
        };
        let (_, report) = run_units(6, &ctl, 42, unit);
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.checkpoint_writes, 6);
        let ckpt = Checkpoint::load(&path).expect("readable checkpoint");
        assert_eq!(ckpt.fingerprint, 42);
        assert_eq!(ckpt.completed(), 6, "the last write covers every unit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
