//! Sharded parallel execution with a deterministic merge.
//!
//! The explorer's sweep is decomposed into independent **work units**, one
//! per PE-count index. A unit produces a [`Partial`] — private statistics,
//! Pareto front, per-objective bests and scatter subsample for its slice
//! of the space. `run_units` executes units either inline or on scoped
//! worker threads pulling indices from a shared atomic counter, and always
//! returns their outcomes **in unit-index order** regardless of which
//! thread computed what. `merge_partials` then folds them in that fixed
//! order.
//!
//! Because the sequential path (`threads == 1`) runs the *same* units
//! through the *same* merge, the parallel result is bit-identical to the
//! sequential one at any thread count — only the wall-clock fields
//! (`seconds`, `rate`) differ:
//!
//! * **Pareto front** — re-inserting each unit's surviving points in
//!   global unit order reproduces the sequential fold: a point eliminated
//!   inside its unit is dominated by an in-unit survivor (dominance is
//!   transitive, so it would also lose globally), and `insert_pareto`'s
//!   first-wins tie rule sees candidates in the same relative order.
//! * **Per-objective bests** — folded with strict `<`, so the earliest
//!   unit's point wins ties, exactly as in a sequential sweep.
//! * **Sample** — each unit samples every 61st of *its own* valid points;
//!   the merge concatenates unit samples in order and truncates at the
//!   cap. The rule is applied per-unit on the sequential path too, which
//!   is what makes the subsample mergeable at all.
//! * **Counters** — sums, which commute.
//!
//! # Fault isolation
//!
//! Each work unit runs under [`std::panic::catch_unwind`], on the inline
//! path and on the workers alike. A panicking unit yields an `Err` at its
//! fixed index instead of aborting the sweep; `merge_partials` records it
//! in [`DseStats::quarantined`] (unit index + panic payload) and folds the
//! remaining units unchanged. Because the failed unit contributes nothing
//! at the same position on every path, results stay bit-identical at any
//! thread count even in the presence of failures.
//!
//! # Controlled execution
//!
//! Every sweep runs under a [`SessionCtl`]; [`SessionCtl::default`] is a
//! plain run to completion. On top of the claiming loop the control adds
//! cooperative cancellation (polled between units and inside injected
//! stalls), resume (units already terminal in the resume
//! [`Checkpoint`] are pre-filled, not re-run), per-attempt deterministic
//! fault injection with retry (a failed attempt is re-run up to
//! `retries` times with a fresh fault draw before quarantining), a
//! watchdog for injected stalls, and incremental checkpoint writes from
//! whichever worker completes a unit. Everything that affects *results*
//! (fault draws, retry counts, quarantine decisions) is a pure function of
//! the unit index, so the bit-identical guarantee extends across
//! interruption, resume and injection at any thread count.

use crate::cancel::{SessionCtl, SessionReport, UnitUpdate};
use crate::checkpoint::Checkpoint;
use crate::explorer::{
    update_best, DesignPoint, DseResult, DseStats, ParetoFront, Partial, QuarantinedUnit,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one work unit produced: its [`Partial`], or the panic payload
/// (rendered as a string) if it panicked or timed out.
pub type UnitOutcome = Result<Partial, String>;

/// `OnceLock`-cached handles for the session-control counters, registered
/// eagerly so they all appear (at zero) in every exposition.
struct CtlMetrics {
    quarantined: maestro_obs::Counter,
    resumed_skipped: maestro_obs::Counter,
    retried: maestro_obs::Counter,
    timed_out: maestro_obs::Counter,
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
            retried: r.counter("maestro.dse.units_retried"),
            timed_out: r.counter("maestro.dse.units_timed_out"),
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
/// `(seed, unit)`, so the same unit names the same trace at any thread
/// count and across interrupt/resume splits.
pub fn unit_trace_id(seed: u64, unit: usize) -> maestro_obs::TraceId {
    maestro_obs::rng::trace_id(seed, unit as u64)
}

/// The healthy-unit draw for `--trace-sample 1/k`: trace unit `i` when
/// `i % k == 0`. Quarantined units are kept regardless of the draw.
/// Pure in the unit index, so the traced subset is identical across
/// thread counts and resume splits.
pub fn unit_trace_draw(k: u64, unit: usize) -> bool {
    k > 0 && (unit as u64).is_multiple_of(k)
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Retain a flight-recorder entry for one completed unit, if tracing is
/// on and this unit is drawn (or was quarantined — failures always
/// keep). The recorder's own tail-sampling policy is bypassed: the draw
/// here is on the unit *index*, not the trace ID, so which units get
/// traced does not change when the seed (and hence the IDs) does.
fn record_unit_trace(
    ctl: &SessionCtl,
    i: usize,
    outcome: &UnitOutcome,
    started_ms: u64,
    elapsed: Duration,
) {
    let Some(k) = ctl.trace_sample else { return };
    let failed = outcome.is_err();
    if !failed && !unit_trace_draw(k, i) {
        return;
    }
    let dur_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
    let reason = if failed {
        maestro_obs::KeepReason::Error
    } else {
        maestro_obs::KeepReason::Sampled
    };
    let rec = maestro_obs::TraceRecord {
        id: unit_trace_id(ctl.trace_seed, i),
        name: format!("dse.unit[{i}]"),
        status: if failed { 500 } else { 200 },
        start_unix_ms: started_ms,
        total_us: dur_us,
        bytes: 0,
        phases: vec![maestro_obs::Phase {
            name: "unit",
            start_us: 0,
            dur_us,
        }],
        kept: reason,
    };
    maestro_obs::FlightRecorder::global().keep(rec, reason);
}

/// Resolve a thread-count request: `0` means "one per available core".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
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

/// Mutable state shared by the workers, guarded by one mutex taken only at
/// unit completion (never inside the sweep hot loop).
struct SlotState {
    slots: Vec<Option<UnitOutcome>>,
    completed: usize,
    units_since_write: usize,
    last_write: Instant,
}

/// Run `units` work units on up to `threads` scoped worker threads
/// (`0` = auto, one per core) under `ctl`, and return their outcomes in
/// unit-index order plus the control report. `slots[i]` is `None` only
/// when the run was cancelled before unit `i` completed. Periodic
/// checkpoints are stamped with `fingerprint`; the final checkpoint is
/// the caller's.
///
/// Units are claimed dynamically from an atomic counter, so uneven unit
/// costs (bulk-skipped PE counts finish instantly) still load-balance.
/// A panicking unit becomes an `Err` at its index — on the sequential and
/// parallel paths alike — so a single poisoned configuration degrades that
/// slice instead of aborting the whole sweep.
pub(crate) fn run_units<F>(
    units: usize,
    threads: usize,
    ctl: &SessionCtl,
    fingerprint: u64,
    unit: F,
) -> (Vec<Option<UnitOutcome>>, SessionReport)
where
    F: Fn(usize) -> Partial + Sync,
{
    let metrics = ctl_metrics();
    // Units already terminal in the resume checkpoint (quarantined ones
    // included) are copied in and never re-run.
    let mut slots = ctl
        .resume
        .as_ref()
        .map_or_else(Vec::new, |c| c.units.clone());
    slots.resize(units, None);
    let skip: Vec<bool> = slots.iter().map(Option::is_some).collect();
    let resumed_skipped = skip.iter().filter(|&&s| s).count();
    metrics.resumed_skipped.add(resumed_skipped as u64);

    let retried = AtomicU64::new(0);
    let timed_out = AtomicU64::new(0);
    let injected = AtomicU64::new(0);
    let ckpt_writes = AtomicU64::new(0);
    let state = Mutex::new(SlotState {
        completed: resumed_skipped,
        slots,
        units_since_write: 0,
        last_write: Instant::now(),
    });

    // One attempt loop per unit: fault draw → injected stall (under the
    // watchdog) → guarded execution → retry or terminal outcome. Returns
    // `None` when cancellation struck mid-unit (the unit stays incomplete
    // and will be re-run on resume).
    let run_attempts = |i: usize| -> Option<UnitOutcome> {
        let mut attempt: u32 = 0;
        loop {
            if ctl.token.is_cancelled() {
                return None;
            }
            let inj = ctl.faults.decide(i, attempt);
            if inj.count() > 0 {
                injected.fetch_add(inj.count(), Ordering::Relaxed);
                metrics.faults_injected.add(inj.count());
            }
            if let Some(stall) = inj.stall {
                // Watchdog: a stall that meets the per-unit budget times
                // the attempt out. Both quantities are deterministic, so
                // the decision is machine-independent.
                let (sleep_for, watchdog_fires) = match ctl.unit_timeout {
                    Some(budget) if stall >= budget => (budget, true),
                    _ => (stall, false),
                };
                if !ctl.token.sleep_cooperatively(sleep_for) {
                    return None;
                }
                if watchdog_fires {
                    timed_out.fetch_add(1, Ordering::Relaxed);
                    metrics.timed_out.inc();
                    if attempt < ctl.retries {
                        attempt += 1;
                        retried.fetch_add(1, Ordering::Relaxed);
                        metrics.retried.inc();
                        continue;
                    }
                    return Some(Err(format!(
                        "unit {i} timed out after {sleep_for:?} (watchdog, attempt {attempt})"
                    )));
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inj.panic {
                    panic!("injected panic (unit {i}, attempt {attempt})");
                }
                let mut part = unit(i);
                if inj.nofinite {
                    part.pareto.push(poison_point());
                }
                part
            }))
            .map_err(payload_to_string);
            match outcome {
                Ok(part) => return Some(Ok(part)),
                Err(message) => {
                    if attempt < ctl.retries {
                        attempt += 1;
                        retried.fetch_add(1, Ordering::Relaxed);
                        metrics.retried.inc();
                        continue;
                    }
                    return Some(Err(message));
                }
            }
        }
    };

    // Store a terminal outcome, write a periodic checkpoint when due, and
    // report progress. The lock is per-unit, far off the hot path.
    let complete_unit = |i: usize, outcome: UnitOutcome| {
        let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
        st.slots[i] = Some(outcome);
        st.completed += 1;
        st.units_since_write += 1;
        let completed = st.completed;
        if let Some(path) = &ctl.checkpoint_path {
            let due_units = ctl.checkpoint_every_units > 0
                && st.units_since_write >= ctl.checkpoint_every_units;
            let due_time = ctl
                .checkpoint_every
                .is_some_and(|d| st.last_write.elapsed() >= d);
            if due_units || due_time {
                let ckpt = Checkpoint {
                    fingerprint,
                    units: st.slots.clone(),
                };
                match ckpt.save(path) {
                    Ok(()) => {
                        ckpt_writes.fetch_add(1, Ordering::Relaxed);
                        st.units_since_write = 0;
                        st.last_write = Instant::now();
                    }
                    Err(e) => maestro_obs::warn!("periodic checkpoint write failed: {e}"),
                }
            }
        }
        // Under the lock, so observers get serialized calls with monotone
        // `completed` and need no synchronization of their own.
        if let Some(f) = &ctl.on_unit {
            let (pareto, failed): (&[_], Option<&str>) = match &st.slots[i] {
                Some(Ok(p)) => (&p.pareto, None),
                Some(Err(e)) => (&[], Some(e.as_str())),
                None => (&[], None),
            };
            f(&UnitUpdate {
                unit: i,
                completed,
                total: units,
                pareto,
                failed,
            });
        }
    };

    let next = AtomicUsize::new(0);
    let worker = || loop {
        if ctl.token.is_cancelled() {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= units {
            break;
        }
        if skip[i] {
            continue;
        }
        let started_ms = if ctl.trace_sample.is_some() {
            unix_ms()
        } else {
            0
        };
        let t0 = Instant::now();
        match run_attempts(i) {
            Some(outcome) => {
                record_unit_trace(ctl, i, &outcome, started_ms, t0.elapsed());
                complete_unit(i, outcome);
            }
            None => break,
        }
    };

    let threads = resolve_threads(threads).clamp(1, units.max(1));
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            for h in handles {
                let _ = h.join();
            }
        });
    }

    let st = state.into_inner().unwrap_or_else(|e| e.into_inner());
    let report = SessionReport {
        interrupted: ctl.token.is_cancelled() && st.completed < units,
        deadline_hit: ctl.token.deadline_exceeded(),
        resumed_skipped,
        checkpoint_writes: ckpt_writes.into_inner(),
        completed_units: st.completed,
        total_units: units,
        units_retried: retried.into_inner(),
        units_timed_out: timed_out.into_inner(),
        faults_injected: injected.into_inner(),
    };
    if report.deadline_hit {
        metrics.deadline_exceeded.inc();
    }
    (st.slots, report)
}

/// Fold unit outcome slots — **in index order** — into one result.
///
/// Failed units are quarantined into [`DseStats::quarantined`] (in
/// unit-index order) and contribute nothing else, which preserves the
/// bit-identical-at-any-thread-count guarantee even when units fail.
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

// The scoped workers share `&Explorer`, `&SessionCtl`, `&Layer`, `&Model`
// and `&[Dataflow]`; fail at compile time (with a readable message, not a
// trait-bound blizzard at the `scope.spawn` call) if any of them stops
// being thread-shareable.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<crate::Explorer>();
    assert_sync::<SessionCtl>();
    assert_sync::<maestro_dnn::Layer>();
    assert_sync::<maestro_dnn::Model>();
    assert_sync::<maestro_ir::Dataflow>();
    assert_send::<Partial>();
    assert_send::<DseResult>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::Arc;

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

    /// The inert control: no retries, no time-based checkpoint cadence.
    fn plain_ctl() -> SessionCtl {
        SessionCtl {
            retries: 0,
            checkpoint_every: None,
            ..SessionCtl::default()
        }
    }

    /// Run to completion under [`plain_ctl`], returning only the slots.
    fn run_plain<F>(units: usize, threads: usize, unit: F) -> Vec<Option<UnitOutcome>>
    where
        F: Fn(usize) -> Partial + Sync,
    {
        run_units(units, threads, &plain_ctl(), 0, unit).0
    }

    /// The streaming hook fires exactly once per unit, serialized, with a
    /// strictly monotone `completed` and the failure message on
    /// quarantined units — the contract the NDJSON stream relies on.
    #[test]
    fn on_unit_fires_serialized_with_monotone_progress() {
        let seen: Arc<Mutex<Vec<(usize, usize, bool)>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let ctl = SessionCtl {
            on_unit: Some(Box::new(move |u: &UnitUpdate<'_>| {
                sink.lock()
                    .unwrap()
                    .push((u.unit, u.completed, u.failed.is_some()));
            })),
            ..plain_ctl()
        };
        let (_, report) = run_units(6, 3, &ctl, 0, |i| {
            if i == 2 {
                panic!("boom unit 2");
            }
            unit(i)
        });
        assert_eq!(report.completed_units, report.total_units);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 6, "one call per unit");
        let completed: Vec<usize> = seen.iter().map(|(_, c, _)| *c).collect();
        assert_eq!(completed, vec![1, 2, 3, 4, 5, 6], "strictly monotone");
        let mut units: Vec<usize> = seen.iter().map(|(u, _, _)| *u).collect();
        units.sort_unstable();
        assert_eq!(units, vec![0, 1, 2, 3, 4, 5]);
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
        let (_, report) = run_units(7, 2, &ctl, 0, |i| {
            if i == 4 {
                panic!("boom unit 4");
            }
            unit(i)
        });
        assert_eq!(report.completed_units, 7);

        // Drawn units 0, 3, 6 (1-in-3 by index) plus the quarantined
        // unit 4 — and nothing else, at any thread interleaving.
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
    fn run_units_is_index_ordered_at_any_thread_count() {
        let sequential = run_plain(7, 1, unit);
        for threads in [2, 3, 8, 64] {
            let parallel = run_plain(7, threads, unit);
            assert_eq!(
                explored(&sequential),
                explored(&parallel),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_units_and_auto_threads() {
        assert!(run_plain(0, 0, unit).is_empty());
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn merge_sums_counters() {
        let merged = merge_partials(run_plain(4, 2, unit), 16);
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
        for threads in [1, 2, 8, 0] {
            let outcomes = run_plain(5, threads, faulty);
            assert_eq!(outcomes.len(), 5);
            assert!(matches!(outcomes[2], Some(Err(_))), "threads={threads}");
            let merged = merge_partials(outcomes, 16);
            assert_eq!(merged.stats.quarantined.len(), 1);
            let q = &merged.stats.quarantined[0];
            assert_eq!(q.unit, 2);
            assert!(q.message.contains("unit 2 is poisoned"), "{}", q.message);
            // The surviving units' counters are all present.
            assert_eq!(merged.stats.explored, 100 + 101 + 103 + 104);
            assert_eq!(merged.stats.valid, 1 + 3 + 4);
        }
    }

    #[test]
    fn quarantine_preserves_merge_determinism() {
        let reference = merge_partials(run_plain(5, 1, faulty), 16);
        for threads in [2, 8, 0] {
            let merged = merge_partials(run_plain(5, threads, faulty), 16);
            assert_eq!(merged.stats, reference.stats, "threads={threads}");
        }
    }

    #[test]
    fn cancelled_run_leaves_later_units_incomplete() {
        let ctl = plain_ctl();
        ctl.token.cancel();
        let (_, report) = run_units(6, 1, &ctl, 0, unit);
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
        let (slots, report) = run_units(8, 1, &ctl, 0, unit);
        assert!(report.interrupted);
        assert_eq!(report.completed_units, cancel_after);
        // Completed prefix is exactly units 0..cancel_after on one thread.
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(s.is_some(), i < cancel_after, "unit {i}");
        }
    }

    #[test]
    fn retry_recovers_a_transiently_failing_unit() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let flaky = |i: usize| {
            if i == 1 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            unit(i)
        };
        let ctl = SessionCtl {
            retries: 1,
            ..plain_ctl()
        };
        let (slots, report) = run_units(3, 1, &ctl, 0, flaky);
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.units_retried, 1);
        let slots: Vec<UnitOutcome> = slots.into_iter().flatten().collect();
        assert!(slots[1].is_ok(), "unit recovered on retry");
    }

    #[test]
    fn persistent_failure_is_quarantined_after_retries() {
        let ctl = SessionCtl {
            retries: 2,
            ..plain_ctl()
        };
        let (slots, report) = run_units(5, 2, &ctl, 0, faulty);
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.units_retried, 2, "both retries were spent");
        let merged = merge_partials(slots, 16);
        assert_eq!(merged.stats.quarantined.len(), 1);
        assert_eq!(merged.stats.quarantined[0].unit, 2);
    }

    #[test]
    fn injected_panic_with_retry_preserves_results() {
        // Rate 1.0 hits every attempt, so retries are spent and exhausted:
        // this pins the deterministic injected-quarantine path.
        let ctl = SessionCtl {
            faults: FaultPlan::parse("panic:1", 9).expect("valid spec"),
            retries: 1,
            ..plain_ctl()
        };
        let (slots, report) = run_units(3, 1, &ctl, 0, unit);
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.units_retried, 3);
        assert!(report.faults_injected >= 6, "{}", report.faults_injected);
        for s in &slots {
            assert!(matches!(s, Some(Err(m)) if m.contains("injected panic")));
        }
    }

    #[test]
    fn watchdog_times_out_injected_stalls_and_reroutes() {
        // Stall every attempt for 10s against a 20ms budget: the watchdog
        // must fire (quickly!) and, with no retries, quarantine.
        let ctl = SessionCtl {
            faults: FaultPlan::parse("delay:10s:1.0", 3).expect("valid spec"),
            unit_timeout: Some(Duration::from_millis(20)),
            ..plain_ctl()
        };
        let t0 = Instant::now();
        let (slots, report) = run_units(2, 1, &ctl, 0, unit);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "watchdog cut the stall"
        );
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.units_timed_out, 2);
        for s in &slots {
            assert!(matches!(s, Some(Err(m)) if m.contains("timed out")));
        }
    }

    #[test]
    fn resume_skips_completed_units_and_preserves_quarantine() {
        let mut ckpt = Checkpoint::new(7, 5);
        ckpt.units[0] = Some(Ok(unit(0)));
        ckpt.units[2] = Some(Err("old panic".to_string()));
        let ran = AtomicUsize::new(0);
        let counting = |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            unit(i)
        };
        let ctl = SessionCtl {
            resume: Some(ckpt),
            ..plain_ctl()
        };
        let (slots, report) = run_units(5, 1, &ctl, 7, counting);
        assert_eq!(report.completed_units, report.total_units);
        assert_eq!(report.resumed_skipped, 2);
        assert_eq!(ran.load(Ordering::Relaxed), 3, "only units 1, 3, 4 ran");
        assert!(matches!(&slots[2], Some(Err(m)) if m == "old panic"));
        // Full-resume outcomes equal a fresh run's.
        let fresh = run_plain(5, 1, unit);
        assert_eq!(explored(&fresh[..2]), explored(&slots[..2]));
    }

    #[test]
    fn periodic_checkpoints_are_written_and_loadable() {
        let dir = std::env::temp_dir().join(format!("maestro-ckpt-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("run.ckpt");
        let ctl = SessionCtl {
            checkpoint_path: Some(path.clone()),
            checkpoint_every_units: 2,
            ..plain_ctl()
        };
        let (_, report) = run_units(6, 2, &ctl, 42, unit);
        assert_eq!(report.completed_units, report.total_units);
        assert!(
            report.checkpoint_writes >= 3,
            "{}",
            report.checkpoint_writes
        );
        let ckpt = Checkpoint::load(&path).expect("readable checkpoint");
        assert_eq!(ckpt.fingerprint, 42);
        assert!(
            ckpt.completed() >= 4,
            "last periodic write covers most units"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
