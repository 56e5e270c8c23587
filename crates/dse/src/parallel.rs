//! Sharded parallel execution with a deterministic merge.
//!
//! The explorer's sweep is decomposed into independent **work units**, one
//! per PE-count index. A unit produces a [`Partial`] — private statistics,
//! Pareto front, per-objective bests and scatter subsample for its slice
//! of the space. [`run_units`] executes units either inline or on scoped
//! worker threads pulling indices from a shared atomic counter, and always
//! returns the partials **in unit-index order** regardless of which thread
//! computed what. [`merge_partials`] then folds them in that fixed order.
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
//! fixed index instead of aborting the sweep; [`merge_partials`] records it
//! in [`DseStats::quarantined`] (unit index + panic payload) and folds the
//! remaining units unchanged. Because the failed unit contributes nothing
//! at the same position on every path, results stay bit-identical at any
//! thread count even in the presence of failures.
//!
//! # Controlled execution
//!
//! [`run_units_ctl`] is the full engine underneath [`run_units`]: the same
//! claiming loop, plus cooperative cancellation (polled between units and
//! inside injected stalls), resume (units already terminal in a
//! [`Checkpoint`] are pre-filled, not re-run), per-attempt deterministic
//! fault injection with retry (a failed attempt is re-run up to
//! `retries` times with a fresh fault draw before quarantining), a
//! watchdog for injected stalls, and incremental checkpoint writes from
//! whichever worker completes a unit. Everything that affects *results*
//! (fault draws, retry counts, quarantine decisions) is a pure function of
//! the unit index, so the bit-identical guarantee extends across
//! interruption, resume and injection at any thread count.

use crate::cancel::{CancelToken, UnitUpdate};
use crate::checkpoint::{Checkpoint, UnitEntry};
use crate::explorer::{
    update_best, DesignPoint, DseResult, DseStats, ParetoFront, Partial, QuarantinedUnit,
};
use crate::fault::FaultPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one work unit produced: its [`Partial`], or the panic payload
/// (rendered as a string) if it panicked.
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

/// Bump `maestro.dse.deadline_exceeded` (the session layer calls this once
/// when a run winds down with its deadline passed).
pub(crate) fn note_deadline_exceeded() {
    ctl_metrics().deadline_exceeded.inc();
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
    ctl: &RunCtl<'_>,
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

/// Incremental checkpoint sink for [`run_units_ctl`]: where to write, what
/// fingerprint to stamp, and how often.
pub struct CheckpointSink<'a> {
    /// Checkpoint file path (written atomically via temp + rename).
    pub path: &'a Path,
    /// Sweep fingerprint stamped into every write.
    pub fingerprint: u64,
    /// Write after this many newly completed units (0 = never on a unit
    /// count basis).
    pub every_units: usize,
    /// Also write when this much time has passed since the last write.
    pub every: Option<Duration>,
}

/// Controls for [`run_units_ctl`]. [`run_units`] passes the inert
/// configuration (detached token, no resume, no faults, no retries).
pub struct RunCtl<'a> {
    /// Polled between units and inside injected stalls.
    pub token: &'a CancelToken,
    /// Units already terminal in this checkpoint are pre-filled and
    /// skipped (quarantined entries stay quarantined — they are *not*
    /// retried, so a resumed sweep agrees with an uninterrupted one).
    pub resume: Option<&'a Checkpoint>,
    /// Deterministic per-`(unit, attempt)` fault injection.
    pub faults: &'a FaultPlan,
    /// Re-attempts granted to a failed (panicked / timed-out) unit before
    /// it is quarantined.
    pub retries: u32,
    /// Watchdog budget per attempt; only injected stalls can consume it
    /// (see [`crate::cancel::SessionCtl::unit_timeout`]).
    pub unit_timeout: Option<Duration>,
    /// Incremental checkpointing (a final checkpoint is the session
    /// layer's responsibility).
    pub checkpoint: Option<CheckpointSink<'a>>,
    /// Called with `(completed, total)` after each terminal unit.
    pub on_progress: Option<&'a (dyn Fn(usize, usize) + Sync + 'a)>,
    /// Per-unit frontier observer, fired under the completion lock so
    /// calls are serialized and `completed` is strictly monotone (see
    /// [`crate::cancel::SessionCtl::on_unit`]).
    pub on_unit: Option<&'a (dyn Fn(&UnitUpdate<'_>) + Sync + 'a)>,
    /// Record 1 in this many units (by unit index, plus every
    /// quarantined unit) as a trace in the global flight recorder.
    /// See [`crate::cancel::SessionCtl::trace_sample`].
    pub trace_sample: Option<u64>,
    /// Seed for sampled units' deterministic trace IDs.
    pub trace_seed: u64,
}

/// What [`run_units_ctl`] produced. `slots[i]` is `None` only when the run
/// was cancelled before unit `i` completed.
pub struct RunReport {
    /// Per-unit outcomes in index order; `None` = not completed.
    pub slots: Vec<Option<UnitOutcome>>,
    /// The token had tripped by the time the run wound down.
    pub cancelled: bool,
    /// Units pre-filled from the resume checkpoint.
    pub resumed_skipped: usize,
    /// Extra attempts spent on failed units.
    pub units_retried: u64,
    /// Attempts cut short by the watchdog.
    pub units_timed_out: u64,
    /// Individual faults injected.
    pub faults_injected: u64,
    /// Periodic checkpoints written during the run.
    pub checkpoint_writes: u64,
}

impl RunReport {
    /// `true` when every unit reached a terminal outcome.
    pub fn complete(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// Units with a terminal outcome.
    pub fn completed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
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
        mapping: "injected-nofinite".to_string(),
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

/// The full controlled execution engine. See the module docs; `run_units`
/// is the inert special case.
pub fn run_units_ctl<F>(units: usize, threads: usize, ctl: &RunCtl<'_>, unit: F) -> RunReport
where
    F: Fn(usize) -> Partial + Sync,
{
    let metrics = ctl_metrics();
    let mut slots: Vec<Option<UnitOutcome>> = (0..units).map(|_| None).collect();
    let mut skip = vec![false; units];
    let mut resumed_skipped = 0usize;
    if let Some(ckpt) = ctl.resume {
        for (i, entry) in ckpt.units.iter().enumerate().take(units) {
            match entry {
                Some(UnitEntry::Done(p)) => slots[i] = Some(Ok(p.clone())),
                Some(UnitEntry::Quarantined(m)) => slots[i] = Some(Err(m.clone())),
                None => continue,
            }
            skip[i] = true;
            resumed_skipped += 1;
        }
        metrics.resumed_skipped.add(resumed_skipped as u64);
    }

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
    if let Some(p) = ctl.on_progress {
        p(resumed_skipped, units);
    }

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
        if let Some(sink) = &ctl.checkpoint {
            let due_units = sink.every_units > 0 && st.units_since_write >= sink.every_units;
            let due_time = sink.every.is_some_and(|d| st.last_write.elapsed() >= d);
            if due_units || due_time {
                let ckpt = Checkpoint::from_outcomes(sink.fingerprint, &st.slots);
                match ckpt.save(sink.path) {
                    Ok(()) => {
                        ckpt_writes.fetch_add(1, Ordering::Relaxed);
                        st.units_since_write = 0;
                        st.last_write = Instant::now();
                    }
                    Err(e) => maestro_obs::warn!("periodic checkpoint write failed: {e}"),
                }
            }
        }
        // Deliberately still under the lock: streaming consumers get
        // serialized calls with monotone `completed`, with no extra
        // synchronization of their own.
        if let Some(f) = ctl.on_unit {
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
        drop(st);
        if let Some(p) = ctl.on_progress {
            p(completed, units);
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
    RunReport {
        slots: st.slots,
        cancelled: ctl.token.is_cancelled(),
        resumed_skipped,
        units_retried: retried.into_inner(),
        units_timed_out: timed_out.into_inner(),
        faults_injected: injected.into_inner(),
        checkpoint_writes: ckpt_writes.into_inner(),
    }
}

/// Run `units` work units on up to `threads` scoped worker threads
/// (`0` = auto, one per core) and return their outcomes in unit-index
/// order.
///
/// Units are claimed dynamically from an atomic counter, so uneven unit
/// costs (bulk-skipped PE counts finish instantly) still load-balance.
///
/// A panicking unit becomes an `Err` at its index — on the sequential and
/// parallel paths alike — so a single poisoned configuration degrades that
/// slice instead of aborting the whole sweep.
pub fn run_units<F>(units: usize, threads: usize, unit: F) -> Vec<UnitOutcome>
where
    F: Fn(usize) -> Partial + Sync,
{
    let token = CancelToken::detached();
    let faults = FaultPlan::new(0, Vec::new());
    let ctl = RunCtl {
        token: &token,
        resume: None,
        faults: &faults,
        retries: 0,
        unit_timeout: None,
        checkpoint: None,
        on_progress: None,
        on_unit: None,
        trace_sample: None,
        trace_seed: 0,
    };
    run_units_ctl(units, threads, &ctl, unit)
        .slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err("work unit result lost (worker thread died)".to_string())))
        .collect()
}

/// Fold unit outcomes — **in the given order** — into one result.
///
/// Failed units are quarantined into [`DseStats::quarantined`] (in
/// unit-index order) and contribute nothing else, which preserves the
/// bit-identical-at-any-thread-count guarantee even when units fail.
///
/// `seconds`/`rate` are left at zero; the caller stamps wall-clock time.
pub fn merge_partials(outcomes: Vec<UnitOutcome>, sample_cap: usize) -> DseResult {
    merge_indexed_partials(outcomes.into_iter().enumerate().collect(), sample_cap)
}

/// [`merge_partials`] over explicitly indexed outcomes — the partial-result
/// path, where an interrupted run merges only the units that completed
/// (their true indices must survive into [`QuarantinedUnit::unit`]).
pub fn merge_indexed_partials(outcomes: Vec<(usize, UnitOutcome)>, sample_cap: usize) -> DseResult {
    // Touch the counter up front so `maestro.dse.units_quarantined` shows
    // up (at zero) in every exposition, not only after the first failure —
    // dashboards and the CI grep rely on its presence.
    let quarantined_units = &ctl_metrics().quarantined;
    let mut out = DseResult {
        pareto: Vec::new(),
        best_throughput: None,
        best_energy: None,
        best_edp: None,
        sample: Vec::new(),
        stats: DseStats::empty(),
        partial: false,
    };
    // Merge through the SoA front — same accept/evict semantics as
    // `insert_pareto`, but the dominance scans run over flat f64 columns.
    let mut front = ParetoFront::new();
    for (i, outcome) in outcomes {
        let part = match outcome {
            Ok(p) => p,
            Err(message) => {
                maestro_obs::warn!("DSE work unit {i} quarantined: {message}");
                quarantined_units.inc();
                out.stats
                    .quarantined
                    .push(QuarantinedUnit { unit: i, message });
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

// The scoped workers share `&Explorer`, `&Layer`, `&Model` and
// `&[Dataflow]`; fail at compile time (with a readable message, not a
// trait-bound blizzard at the `scope.spawn` call) if any of them stops
// being thread-shareable.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<crate::Explorer>();
    assert_sync::<CancelToken>();
    assert_sync::<FaultPlan>();
    assert_sync::<maestro_dnn::Layer>();
    assert_sync::<maestro_dnn::Model>();
    assert_sync::<maestro_ir::Dataflow>();
    assert_send::<Partial>();
    assert_send::<DseResult>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(i: usize) -> Partial {
        let mut p = Partial::new();
        p.stats.explored = 100 + i as u64;
        p.stats.valid = i as u64;
        p
    }

    fn explored(outcomes: &[UnitOutcome]) -> Vec<u64> {
        outcomes
            .iter()
            .map(|o| o.as_ref().expect("unit ok").stats.explored)
            .collect()
    }

    fn plain_ctl<'a>(token: &'a CancelToken, faults: &'a FaultPlan) -> RunCtl<'a> {
        RunCtl {
            token,
            resume: None,
            faults,
            retries: 0,
            unit_timeout: None,
            checkpoint: None,
            on_progress: None,
            on_unit: None,
            trace_sample: None,
            trace_seed: 0,
        }
    }

    /// The streaming hook fires exactly once per unit, serialized, with a
    /// strictly monotone `completed` and the failure message on
    /// quarantined units — the contract the NDJSON stream relies on.
    #[test]
    fn on_unit_fires_serialized_with_monotone_progress() {
        let token = CancelToken::detached();
        let faults = FaultPlan::new(0, Vec::new());
        let seen: Mutex<Vec<(usize, usize, bool)>> = Mutex::new(Vec::new());
        let on_unit = |u: &UnitUpdate<'_>| {
            seen.lock()
                .unwrap()
                .push((u.unit, u.completed, u.failed.is_some()));
        };
        let ctl = RunCtl {
            on_unit: Some(&on_unit),
            ..plain_ctl(&token, &faults)
        };
        let report = run_units_ctl(6, 3, &ctl, |i| {
            if i == 2 {
                panic!("boom unit 2");
            }
            unit(i)
        });
        assert!(report.complete());
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 6, "one call per unit");
        let completed: Vec<usize> = seen.iter().map(|(_, c, _)| *c).collect();
        assert_eq!(completed, vec![1, 2, 3, 4, 5, 6], "strictly monotone");
        let mut units: Vec<usize> = seen.iter().map(|(u, _, _)| *u).collect();
        units.sort_unstable();
        assert_eq!(units, vec![0, 1, 2, 3, 4, 5]);
        for (u, _, failed) in &seen {
            assert_eq!(*failed, *u == 2, "only the panicked unit is failed");
        }
    }

    #[test]
    fn trace_sample_records_drawn_and_quarantined_units() {
        let token = CancelToken::detached();
        let faults = FaultPlan::new(0, Vec::new());
        let ctl = RunCtl {
            trace_sample: Some(3),
            trace_seed: 42,
            ..plain_ctl(&token, &faults)
        };
        let rec = maestro_obs::FlightRecorder::global();
        rec.clear();
        let report = run_units_ctl(7, 2, &ctl, |i| {
            if i == 4 {
                panic!("boom unit 4");
            }
            unit(i)
        });
        assert_eq!(report.completed(), 7);

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
        let sequential = run_units(7, 1, unit);
        for threads in [2, 3, 8, 64] {
            let parallel = run_units(7, threads, unit);
            assert_eq!(
                explored(&sequential),
                explored(&parallel),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_units_and_auto_threads() {
        assert!(run_units(0, 0, unit).is_empty());
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn merge_sums_counters() {
        let merged = merge_partials(run_units(4, 2, unit), 16);
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
            let outcomes = run_units(5, threads, faulty);
            assert_eq!(outcomes.len(), 5);
            assert!(outcomes[2].is_err(), "threads={threads}");
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
        let reference = merge_partials(run_units(5, 1, faulty), 16);
        for threads in [2, 8, 0] {
            let merged = merge_partials(run_units(5, threads, faulty), 16);
            assert_eq!(merged.stats, reference.stats, "threads={threads}");
        }
    }

    #[test]
    fn cancelled_run_leaves_later_units_incomplete() {
        let token = CancelToken::detached();
        token.cancel();
        let faults = FaultPlan::new(0, Vec::new());
        let report = run_units_ctl(6, 1, &plain_ctl(&token, &faults), unit);
        assert!(report.cancelled);
        assert!(!report.complete());
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn cancellation_mid_run_is_a_partial_not_an_error() {
        let token = CancelToken::detached();
        let faults = FaultPlan::new(0, Vec::new());
        let cancel_after = 3usize;
        // Cancellation is requested from the progress hook, which fires at
        // each unit boundary — exactly where real signals are observed.
        let progress = |done: usize, _total: usize| {
            if done >= cancel_after {
                token.cancel();
            }
        };
        let ctl = RunCtl {
            on_progress: Some(&progress),
            ..plain_ctl(&token, &faults)
        };
        let report = run_units_ctl(8, 1, &ctl, unit);
        assert!(report.cancelled);
        assert_eq!(report.completed(), cancel_after);
        // Completed prefix is exactly units 0..cancel_after on one thread.
        for (i, s) in report.slots.iter().enumerate() {
            assert_eq!(s.is_some(), i < cancel_after, "unit {i}");
        }
    }

    #[test]
    fn retry_recovers_a_transiently_failing_unit() {
        use std::sync::atomic::AtomicU32;
        let token = CancelToken::detached();
        let faults = FaultPlan::new(0, Vec::new());
        let attempts = AtomicU32::new(0);
        let flaky = |i: usize| {
            if i == 1 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            unit(i)
        };
        let ctl = RunCtl {
            retries: 1,
            ..plain_ctl(&token, &faults)
        };
        let report = run_units_ctl(3, 1, &ctl, flaky);
        assert!(report.complete());
        assert_eq!(report.units_retried, 1);
        let slots: Vec<UnitOutcome> = report.slots.into_iter().flatten().collect();
        assert!(slots[1].is_ok(), "unit recovered on retry");
    }

    #[test]
    fn persistent_failure_is_quarantined_after_retries() {
        let token = CancelToken::detached();
        let faults = FaultPlan::new(0, Vec::new());
        let ctl = RunCtl {
            retries: 2,
            ..plain_ctl(&token, &faults)
        };
        let report = run_units_ctl(5, 2, &ctl, faulty);
        assert!(report.complete());
        assert_eq!(report.units_retried, 2, "both retries were spent");
        let merged = merge_indexed_partials(
            report
                .slots
                .into_iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|o| (i, o)))
                .collect(),
            16,
        );
        assert_eq!(merged.stats.quarantined.len(), 1);
        assert_eq!(merged.stats.quarantined[0].unit, 2);
    }

    #[test]
    fn injected_panic_with_retry_preserves_results() {
        let token = CancelToken::detached();
        // Rate 1.0 hits every attempt, so retries are spent and exhausted:
        // this pins the deterministic injected-quarantine path.
        let faults = FaultPlan::parse("panic:1", 9).expect("valid spec");
        let ctl = RunCtl {
            retries: 1,
            ..plain_ctl(&token, &faults)
        };
        let report = run_units_ctl(3, 1, &ctl, unit);
        assert!(report.complete());
        assert_eq!(report.units_retried, 3);
        assert!(report.faults_injected >= 6, "{}", report.faults_injected);
        for s in &report.slots {
            assert!(matches!(s, Some(Err(m)) if m.contains("injected panic")));
        }
    }

    #[test]
    fn watchdog_times_out_injected_stalls_and_reroutes() {
        let token = CancelToken::detached();
        // Stall every attempt for 10s against a 20ms budget: the watchdog
        // must fire (quickly!) and, with no retries, quarantine.
        let faults = FaultPlan::parse("delay:10s:1.0", 3).expect("valid spec");
        let ctl = RunCtl {
            unit_timeout: Some(Duration::from_millis(20)),
            ..plain_ctl(&token, &faults)
        };
        let t0 = Instant::now();
        let report = run_units_ctl(2, 1, &ctl, unit);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "watchdog cut the stall"
        );
        assert!(report.complete());
        assert_eq!(report.units_timed_out, 2);
        for s in &report.slots {
            assert!(matches!(s, Some(Err(m)) if m.contains("timed out")));
        }
    }

    #[test]
    fn resume_skips_completed_units_and_preserves_quarantine() {
        let token = CancelToken::detached();
        let faults = FaultPlan::new(0, Vec::new());
        let mut ckpt = Checkpoint::new(7, 5);
        ckpt.units[0] = Some(UnitEntry::Done(unit(0)));
        ckpt.units[2] = Some(UnitEntry::Quarantined("old panic".to_string()));
        let ran = AtomicUsize::new(0);
        let counting = |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            unit(i)
        };
        let ctl = RunCtl {
            resume: Some(&ckpt),
            ..plain_ctl(&token, &faults)
        };
        let report = run_units_ctl(5, 1, &ctl, counting);
        assert!(report.complete());
        assert_eq!(report.resumed_skipped, 2);
        assert_eq!(ran.load(Ordering::Relaxed), 3, "only units 1, 3, 4 ran");
        assert!(matches!(&report.slots[2], Some(Err(m)) if m == "old panic"));
        // Full-resume outcomes equal a fresh run's.
        let fresh = run_units(5, 1, unit);
        let resumed: Vec<UnitOutcome> = report.slots.into_iter().flatten().collect();
        assert_eq!(explored(&fresh[..2]), explored(&resumed[..2]));
    }

    #[test]
    fn periodic_checkpoints_are_written_and_loadable() {
        let token = CancelToken::detached();
        let faults = FaultPlan::new(0, Vec::new());
        let dir = std::env::temp_dir().join(format!("maestro-ckpt-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("run.ckpt");
        let ctl = RunCtl {
            checkpoint: Some(CheckpointSink {
                path: &path,
                fingerprint: 42,
                every_units: 2,
                every: None,
            }),
            ..plain_ctl(&token, &faults)
        };
        let report = run_units_ctl(6, 2, &ctl, unit);
        assert!(report.complete());
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
