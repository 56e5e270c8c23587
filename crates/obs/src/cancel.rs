//! Cooperative cancellation: a cheap, cloneable token checked at work
//! boundaries, with an optional wall-clock deadline and a process-global
//! interrupt flag that an (async-signal-safe) signal handler can raise.
//!
//! Long-running pipelines (the DSE explorer's work units, the conformance
//! harness's case loop) poll [`CancelToken::is_cancelled`] between units of
//! work and drain gracefully when it trips. Three independent sources can
//! trip a token:
//!
//! * an explicit [`CancelToken::cancel`] call (tests, embedders);
//! * a deadline set via [`CancelToken::set_deadline_in`] (`--deadline`);
//! * the process-wide interrupt flag raised by [`raise_interrupt`] —
//!   designed to be called from a `SIGINT`/`SIGTERM` handler, since it is
//!   nothing but one relaxed atomic store.
//!
//! The token is an `Arc` over two atomics: cloning is cheap, checking is
//! two relaxed loads (plus one `Instant::now()` only when a deadline is
//! armed), and no locks are ever taken — safe to poll from any number of
//! worker threads at unit-boundary granularity.
//!
//! # Clones vs. children
//!
//! A **clone** shares the same state: cancelling or arming a deadline on
//! any clone trips all of them. A **child**
//! ([`CancelToken::child_with_deadline`]) has its *own* flag and deadline
//! but also observes its parent chain — so a server can hand each request
//! a child with a per-request deadline without a timed-out request ever
//! cancelling the server token, while cancelling the server token still
//! drains every in-flight request.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide interrupt flag (set by signal handlers via
/// [`raise_interrupt`]).
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Raise the process-wide interrupt flag. Async-signal-safe: a single
/// relaxed atomic store, no allocation, no locks — callable directly from
/// a `SIGINT`/`SIGTERM` handler.
pub fn raise_interrupt() {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Whether [`raise_interrupt`] has been called in this process.
pub fn interrupt_raised() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Clear the process-wide interrupt flag (tests and multi-run embedders).
pub fn clear_interrupt() {
    INTERRUPTED.store(false, Ordering::Relaxed);
}

/// Monotonic epoch for deadline arithmetic: deadlines are stored as
/// microseconds since the first token was created, so they fit in one
/// atomic `u64` (0 = no deadline armed).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    /// Deadline in µs since [`epoch`]; 0 means "none".
    deadline_micros: AtomicU64,
    /// Whether this token also observes the process-wide interrupt flag.
    heed_interrupt: bool,
    /// Parent token state, observed (never mutated) by this token. A
    /// child trips when any ancestor trips; ancestors are unaffected by
    /// anything done to the child.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    /// Whether this state (or any ancestor) has tripped.
    fn cancelled(&self) -> bool {
        let mut cur = self;
        loop {
            if cur.flag.load(Ordering::Relaxed)
                || (cur.heed_interrupt && interrupt_raised())
                || cur.deadline_passed()
            {
                return true;
            }
            match &cur.parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    fn deadline_passed(&self) -> bool {
        let d = self.deadline_micros.load(Ordering::Relaxed);
        d != 0 && epoch().elapsed().as_micros() as u64 + 1 >= d
    }
}

/// A cloneable cancellation token. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<Inner>);

impl CancelToken {
    /// A token that observes explicit cancellation, its own deadline, and
    /// the process-wide interrupt flag.
    pub fn new() -> Self {
        epoch(); // arm the epoch before any deadline arithmetic
        CancelToken(Arc::new(Inner {
            flag: AtomicBool::new(false),
            deadline_micros: AtomicU64::new(0),
            heed_interrupt: true,
            parent: None,
        }))
    }

    /// A token that never observes the process interrupt flag and has no
    /// deadline: it trips only on an explicit [`CancelToken::cancel`].
    /// Library entry points that take no token use one of these, so plain
    /// API calls keep their run-to-completion semantics.
    pub fn detached() -> Self {
        CancelToken(Arc::new(Inner {
            flag: AtomicBool::new(false),
            deadline_micros: AtomicU64::new(0),
            heed_interrupt: false,
            parent: None,
        }))
    }

    /// A child token with its own deadline `budget` from now: it trips
    /// when the budget elapses, when [`CancelToken::cancel`] is called on
    /// it, or when *this* token (or any of its ancestors) trips — but
    /// nothing done to the child ever affects this token. This is what
    /// makes per-request deadlines safe in a long-lived server: the old
    /// pattern of arming [`CancelToken::set_deadline_in`] on a clone
    /// shared state with every other clone, so one request's deadline
    /// cancelled the whole process.
    pub fn child_with_deadline(&self, budget: Duration) -> Self {
        let child = CancelToken(Arc::new(Inner {
            flag: AtomicBool::new(false),
            deadline_micros: AtomicU64::new(0),
            // Interrupt observation is inherited through the parent
            // chain; the child adds no policy of its own.
            heed_interrupt: false,
            parent: Some(Arc::clone(&self.0)),
        }));
        child.set_deadline_in(budget);
        child
    }

    /// A child token with no deadline of its own (see
    /// [`CancelToken::child_with_deadline`]).
    pub fn child(&self) -> Self {
        CancelToken(Arc::new(Inner {
            flag: AtomicBool::new(false),
            deadline_micros: AtomicU64::new(0),
            heed_interrupt: false,
            parent: Some(Arc::clone(&self.0)),
        }))
    }

    /// Trip the token explicitly.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Relaxed);
    }

    /// Arm a deadline `budget` from now. A zero budget trips immediately;
    /// a deadline too far away to store (past 2^64 µs) means none.
    pub fn set_deadline_in(&self, budget: Duration) {
        // Stored +1 so an exactly-zero elapsed time still arms (0 = none).
        let at = epoch()
            .elapsed()
            .checked_add(budget)
            .and_then(|at| u64::try_from(at.as_micros()).ok())
            .and_then(|us| us.checked_add(1))
            .unwrap_or(0);
        self.0.deadline_micros.store(at, Ordering::Relaxed);
    }

    /// Whether the armed deadline (if any) of *this* token has passed
    /// (ancestor deadlines are observed by [`CancelToken::is_cancelled`],
    /// not here).
    pub fn deadline_exceeded(&self) -> bool {
        self.0.deadline_passed()
    }

    /// Whether any cancellation source has tripped: explicit cancel, the
    /// process interrupt flag (unless detached), the deadline, or any of
    /// those on an ancestor token.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled()
    }

    /// Sleep for `total`, waking early (returning `false`) if the token
    /// trips. Sleeps in small slices so cancellation latency stays in the
    /// low milliseconds regardless of `total` — this is what keeps
    /// injected stalls and long waits responsive to signals.
    pub fn sleep_cooperatively(&self, total: Duration) -> bool {
        const SLICE: Duration = Duration::from_millis(5);
        let t0 = Instant::now();
        while t0.elapsed() < total {
            if self.is_cancelled() {
                return false;
            }
            std::thread::sleep(SLICE.min(total - t0.elapsed()));
        }
        !self.is_cancelled()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_trips_all_clones() {
        let t = CancelToken::detached();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        assert!(!t.deadline_exceeded(), "no deadline was armed");
    }

    #[test]
    fn deadline_trips_after_budget() {
        let t = CancelToken::detached();
        t.set_deadline_in(Duration::from_millis(20));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(40));
        assert!(t.deadline_exceeded());
        assert!(t.is_cancelled());
    }

    // Regression: the deadline's microseconds wrapped past 2^64, so a
    // budget of ~584,000 years tripped after a fraction of a second.
    #[test]
    fn deadlines_too_far_away_to_store_never_trip() {
        for budget in [
            Duration::from_secs(18_446_744_073_710),
            Duration::from_micros(u64::MAX),
            Duration::MAX,
        ] {
            let t = CancelToken::detached();
            t.set_deadline_in(budget);
            std::thread::sleep(Duration::from_millis(1));
            assert!(!t.deadline_exceeded(), "{budget:?}");
            assert!(!t.is_cancelled(), "{budget:?}");
        }
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let t = CancelToken::detached();
        t.set_deadline_in(Duration::ZERO);
        assert!(t.is_cancelled());
    }

    #[test]
    fn interrupt_flag_reaches_heeding_tokens_only() {
        clear_interrupt();
        let heeding = CancelToken::new();
        let detached = CancelToken::detached();
        raise_interrupt();
        assert!(interrupt_raised());
        assert!(heeding.is_cancelled());
        assert!(!detached.is_cancelled());
        clear_interrupt();
        assert!(!heeding.is_cancelled());
    }

    #[test]
    fn cooperative_sleep_wakes_early_on_cancel() {
        let t = CancelToken::detached();
        let u = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            u.cancel();
        });
        let t0 = Instant::now();
        let completed = t.sleep_cooperatively(Duration::from_secs(30));
        assert!(!completed);
        assert!(t0.elapsed() < Duration::from_secs(5));
        h.join().expect("canceller thread");
    }

    #[test]
    fn cooperative_sleep_completes_when_uncancelled() {
        let t = CancelToken::detached();
        assert!(t.sleep_cooperatively(Duration::from_millis(10)));
    }

    /// The server-safety regression: a child's deadline (or explicit
    /// cancel) must never trip its parent — the old clone-and-arm pattern
    /// shared deadline state across every clone of the token.
    #[test]
    fn child_deadline_never_cancels_parent() {
        let server = CancelToken::detached();
        let request = server.child_with_deadline(Duration::ZERO);
        assert!(request.is_cancelled(), "zero budget trips immediately");
        assert!(request.deadline_exceeded());
        assert!(!server.is_cancelled(), "parent must be unaffected");
        assert!(!server.deadline_exceeded());
        let other = server.child_with_deadline(Duration::from_secs(3600));
        assert!(!other.is_cancelled(), "sibling must be unaffected");
        other.cancel();
        assert!(!server.is_cancelled(), "explicit child cancel stays local");
    }

    #[test]
    fn parent_cancel_reaches_children_transitively() {
        let root = CancelToken::detached();
        let mid = root.child();
        let leaf = mid.child_with_deadline(Duration::from_secs(3600));
        assert!(!leaf.is_cancelled());
        root.cancel();
        assert!(mid.is_cancelled());
        assert!(leaf.is_cancelled());
        assert!(
            !leaf.deadline_exceeded(),
            "the leaf's own deadline did not pass; the trip came from root"
        );
    }

    #[test]
    fn child_observes_interrupt_through_heeding_parent() {
        clear_interrupt();
        let heeding = CancelToken::new();
        let child = heeding.child_with_deadline(Duration::from_secs(3600));
        let detached_child = CancelToken::detached().child();
        raise_interrupt();
        assert!(child.is_cancelled(), "inherited via the parent chain");
        assert!(!detached_child.is_cancelled());
        clear_interrupt();
        assert!(!child.is_cancelled());
    }
}
