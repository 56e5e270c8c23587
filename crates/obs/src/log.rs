//! A tiny leveled logger, env-controlled and off by default.
//!
//! The level is read once from `MAESTRO_LOG` (`error`, `warn`, `info`,
//! `debug`, `trace`, or `off`/unset) on first use; [`set_level`]
//! overrides it at runtime. Records go to stderr, or to a caller-installed
//! capture sink ([`set_capture`]) — which is how tests assert that a path is
//! *silent* at the default level.
//!
//! Use through the crate-level macros:
//!
//! ```
//! maestro_obs::warn!("sweep degraded: {} units quarantined", 2);
//! ```

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Logging disabled (the default).
    Off = 0,
    /// Unrecoverable or correctness-affecting conditions.
    Error = 1,
    /// Degraded-but-continuing conditions (quarantined units, fallbacks).
    Warn = 2,
    /// High-level progress.
    Info = 3,
    /// Per-operation diagnostics.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// The label used in rendered records and accepted by `MAESTRO_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => Level::Off,
        }
    }

    /// Parse a `MAESTRO_LOG` value. Unknown values disable logging rather
    /// than erroring: the logger must never take the process down.
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" | "1" => Level::Error,
            "warn" | "warning" | "2" => Level::Warn,
            "info" | "3" => Level::Info,
            "debug" | "4" => Level::Debug,
            "trace" | "5" => Level::Trace,
            _ => Level::Off,
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// Capture sink for tests: when set, rendered records go here instead of
/// stderr. Guarded by a plain mutex — capture is a test-only slow path.
#[allow(clippy::type_complexity)]
static SINK: Mutex<Option<Box<dyn FnMut(Level, &str) + Send>>> = Mutex::new(None);

/// The active level, initializing from `MAESTRO_LOG` on first call.
pub fn level() -> Level {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNINIT {
        return Level::from_u8(v);
    }
    let initial = std::env::var("MAESTRO_LOG")
        .map(|s| Level::parse(&s))
        .unwrap_or(Level::Off);
    // A racing first call may store the same value twice; that's benign.
    LEVEL.store(initial as u8, Ordering::Relaxed);
    initial
}

/// Override the level (tests, CLI verbosity flags).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// `true` when a record at `at` would be emitted. One relaxed load on the
/// common (disabled) path.
#[inline]
pub fn enabled(at: Level) -> bool {
    at != Level::Off && at <= level()
}

/// Install a capture sink receiving `(level, rendered line)` instead of
/// stderr. Returns the previously installed sink. Tests use this both to
/// inspect records and to assert silence.
#[allow(clippy::type_complexity)]
pub fn set_capture(
    sink: Option<Box<dyn FnMut(Level, &str) + Send>>,
) -> Option<Box<dyn FnMut(Level, &str) + Send>> {
    match SINK.lock() {
        Ok(mut s) => std::mem::replace(&mut *s, sink),
        Err(_) => None,
    }
}

/// Emit one record. Called by the macros after the level check, so the
/// disabled path never reaches here.
pub fn emit(at: Level, args: std::fmt::Arguments<'_>) {
    let line = format!("[maestro {}] {args}", at.as_str());
    if let Ok(mut sink) = SINK.lock() {
        if let Some(f) = sink.as_mut() {
            f(at, &line);
            return;
        }
    }
    // Raw handle write (not `eprintln!`): library crates deny
    // `clippy::print_stderr`; this is the one sanctioned egress point.
    // A failed write (closed stderr) is deliberately ignored — the logger
    // must never take the process down.
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// Log at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Error) {
            $crate::log::emit($crate::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Warn) {
            $crate::log::emit($crate::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Info) {
            $crate::log::emit($crate::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Debug) {
            $crate::log::emit($crate::Level::Debug, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Trace) {
            $crate::log::emit($crate::Level::Trace, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Serializes tests that touch the global level/sink.
    static TEST_MUTEX: StdMutex<()> = StdMutex::new(());

    /// Collects captured records; holds the test mutex and restores the
    /// previous level/sink on drop so parallel tests don't interleave.
    struct Capture {
        lines: Arc<StdMutex<Vec<(Level, String)>>>,
        prev_level: Level,
        _guard: std::sync::MutexGuard<'static, ()>,
    }

    impl Capture {
        fn install(at: Level) -> Capture {
            let guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
            let lines: Arc<StdMutex<Vec<(Level, String)>>> = Arc::default();
            let sink_lines = Arc::clone(&lines);
            set_capture(Some(Box::new(move |lvl, s| {
                if let Ok(mut v) = sink_lines.lock() {
                    v.push((lvl, s.to_string()));
                }
            })));
            let prev_level = level();
            set_level(at);
            Capture {
                lines,
                prev_level,
                _guard: guard,
            }
        }

        fn take(&self) -> Vec<(Level, String)> {
            self.lines
                .lock()
                .map(|mut v| std::mem::take(&mut *v))
                .unwrap_or_default()
        }
    }

    impl Drop for Capture {
        fn drop(&mut self) {
            set_level(self.prev_level);
            set_capture(None);
        }
    }

    #[test]
    fn parse_accepts_names_and_numbers() {
        assert_eq!(Level::parse("warn"), Level::Warn);
        assert_eq!(Level::parse("DEBUG"), Level::Debug);
        assert_eq!(Level::parse("3"), Level::Info);
        assert_eq!(Level::parse(""), Level::Off);
        assert_eq!(Level::parse("nonsense"), Level::Off);
    }

    #[test]
    fn level_gates_and_capture_receives() {
        let cap = Capture::install(Level::Warn);
        crate::warn!("shown {}", 1);
        crate::debug!("hidden");
        let got = cap.take();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, Level::Warn);
        assert!(got[0].1.contains("shown 1"), "{}", got[0].1);
        assert!(got[0].1.contains("[maestro warn]"), "{}", got[0].1);
    }

    #[test]
    fn off_is_silent() {
        let cap = Capture::install(Level::Off);
        crate::error!("even errors are gated when off");
        assert!(cap.take().is_empty());
    }
}
