//! Session control for interruption-proof sweeps.
//!
//! Re-exports the shared cooperative [`CancelToken`] (which lives in
//! `maestro-obs` so `maestro-sim`'s conformance runner can poll the same
//! token without a dependency on this crate) and defines the control/report
//! types for a *session* — an [`crate::Explorer`] run that may be resumed
//! from a checkpoint, bounded by a deadline, cancelled by a signal, and
//! exercised under deterministic fault injection. See
//! [`crate::Explorer::explore_session`].

pub use maestro_obs::cancel::{interrupt_raised, raise_interrupt, CancelToken};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::fault::FaultPlan;
use crate::space::SpaceError;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// One completed work unit's progress and frontier contribution,
/// delivered to [`SessionCtl::on_unit`] as the unit finishes.
///
/// The calls are serialized (the engine fires them under its completion
/// lock), `completed` is strictly monotone across them, and `pareto`
/// borrows the unit's own frontier slice — the *incremental* view; the
/// merged cross-unit frontier arrives with the final
/// [`crate::DseResult`].
#[derive(Debug)]
pub struct UnitUpdate<'a> {
    /// The unit's index in the sweep.
    pub unit: usize,
    /// Terminal units so far (including resumed-skipped ones).
    pub completed: usize,
    /// Total work units in the sweep.
    pub total: usize,
    /// This unit's local Pareto frontier (empty for a failed unit).
    pub pareto: &'a [crate::explorer::DesignPoint],
    /// The failure message when the unit was quarantined.
    pub failed: Option<&'a str>,
}

/// Per-unit streaming callback. Called from worker threads under the
/// completion lock — keep it bounded (a socket write with a timeout is
/// fine; unbounded blocking stalls the sweep).
pub type UnitFn = dyn Fn(&UnitUpdate<'_>) + Sync;

/// Controls for one sweep. [`SessionCtl::default`] is a plain
/// run-to-completion sweep — no checkpointing, no deadline, no faults, a
/// detached token, one retry for a panicking unit — and is what the plain
/// `explore*` entry points run under.
pub struct SessionCtl {
    /// Cancellation token polled at work-unit boundaries. Arm a deadline
    /// on it for `--deadline`; pass [`CancelToken::new`] to also heed the
    /// process-wide interrupt flag (signals).
    pub token: CancelToken,
    /// Where to write checkpoints (periodic and final). `None` disables
    /// checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many completed units (0 = never on a
    /// unit count). The default is 0: unit-count cadence ties the write
    /// cost to the unit duration, which for fast units dwarfs the work
    /// itself, while the time-based cadence below bounds overhead by
    /// construction (one ~millisecond write per interval).
    pub checkpoint_every_units: usize,
    /// Write a checkpoint when this much time passed since the last
    /// write (checked at unit completion). Default: every 5 seconds —
    /// steady-state overhead is write-cost / 5 s, well under 1% on any
    /// workload. A graceful shutdown *always* writes a final checkpoint,
    /// so the interval only bounds how much work a SIGKILL can lose.
    pub checkpoint_every: Option<Duration>,
    /// A previously saved checkpoint to resume from. Its fingerprint must
    /// match this sweep or the session fails with
    /// [`SessionError::Checkpoint`]. Completed units (including
    /// quarantined ones) are not re-run.
    pub resume: Option<Checkpoint>,
    /// Deterministic fault plan (empty = no injection).
    pub faults: FaultPlan,
    /// How many times a failed (panicked / timed-out) unit is re-attempted
    /// before being quarantined. Fault draws are per-attempt, so a unit
    /// hit by a transient injected fault recovers on retry and the sweep
    /// result stays identical to an uninjected run.
    pub retries: u32,
    /// Per-unit watchdog budget. Deterministic by construction: only
    /// *injected* stalls can trip it (real unit work is pure compute with
    /// no cancellation points), so timeout decisions do not depend on
    /// machine speed. A unit whose injected stall meets the budget is
    /// cut short, counted in `maestro.dse.units_timed_out`, and rerouted
    /// to a retry.
    pub unit_timeout: Option<Duration>,
    /// The one per-unit observer: the CLI's `--progress` line, the
    /// serving daemon's NDJSON stream, and any caller that cancels
    /// mid-sweep. Fired once per unit completed *in this session* —
    /// resumed-skipped units are not replayed, but they count in
    /// [`UnitUpdate::completed`].
    pub on_unit: Option<Box<UnitFn>>,
    /// Record a per-unit trace into the global
    /// [`maestro_obs::FlightRecorder`] for 1 in this many units
    /// (`None` = off, the CLI's `--trace-sample`). Sampling is on the
    /// *unit index* — deterministic across thread counts and
    /// interrupt/resume splits — and quarantined units are always kept,
    /// so a failed sweep is attributable after the fact.
    pub trace_sample: Option<u64>,
    /// Seed mixed into sampled units' trace IDs, so a given
    /// `(seed, unit)` pair names the same trace on every run.
    pub trace_seed: u64,
}

impl Default for SessionCtl {
    fn default() -> Self {
        SessionCtl {
            token: CancelToken::detached(),
            checkpoint_path: None,
            checkpoint_every_units: 0,
            checkpoint_every: Some(Duration::from_secs(5)),
            resume: None,
            faults: FaultPlan::new(0, Vec::new()),
            retries: 1,
            unit_timeout: None,
            on_unit: None,
            trace_sample: None,
            trace_seed: 0,
        }
    }
}

impl fmt::Debug for SessionCtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCtl")
            .field("checkpoint_path", &self.checkpoint_path)
            .field("checkpoint_every_units", &self.checkpoint_every_units)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resumed", &self.resume.is_some())
            .field("faults", &self.faults)
            .field("retries", &self.retries)
            .field("unit_timeout", &self.unit_timeout)
            .field("on_unit", &self.on_unit.is_some())
            .field("trace_sample", &self.trace_sample)
            .field("trace_seed", &self.trace_seed)
            .finish()
    }
}

/// What happened control-wise during a session (the science lives in the
/// accompanying [`crate::DseResult`]). Wall-clock-dependent fields here
/// are *not* covered by the bit-identical guarantee.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionReport {
    /// The cancellation token tripped (signal, explicit cancel, or
    /// deadline) before every unit completed.
    pub interrupted: bool,
    /// The token's deadline specifically had passed by session end.
    pub deadline_hit: bool,
    /// Units skipped because the resume checkpoint already held them.
    pub resumed_skipped: usize,
    /// Checkpoint files written during this session (periodic + final).
    pub checkpoint_writes: u64,
    /// Units with a terminal outcome (done or quarantined), including
    /// resumed ones.
    pub completed_units: usize,
    /// Total work units in the sweep.
    pub total_units: usize,
    /// Extra attempts spent re-running failed units.
    pub units_retried: u64,
    /// Attempts cut short by the per-unit watchdog.
    pub units_timed_out: u64,
    /// Individual faults injected (a unit hit by two kinds counts twice).
    pub faults_injected: u64,
}

/// Why a session could not run (distinct from *being interrupted*, which
/// is a successful outcome carrying partial results).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The sweep space is invalid.
    Space(SpaceError),
    /// A checkpoint could not be read, written, or accepted (corruption,
    /// version or fingerprint mismatch).
    Checkpoint(CheckpointError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Space(e) => e.fmt(f),
            SessionError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SpaceError> for SessionError {
    fn from(e: SpaceError) -> Self {
        SessionError::Space(e)
    }
}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}
