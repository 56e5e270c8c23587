//! Seeded, stateless randomness: the one home of every deterministic draw
//! in the workspace — DSE fault injection (`maestro_dse::fault`), serve
//! chaos (`maestro_serve::chaos`), trace IDs and the 1-in-K trace sample.
//!
//! Each draw is a pure function of a seed and integer coordinates (a
//! counter, a unit index, an attempt number). Nothing else feeds it — no
//! thread identity, no clock — so a seeded run hits the same draws at any
//! thread count and across interrupt/resume splits. The mixing function
//! is the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014).
//!
//! The two fault plans are also written in one grammar, parsed here by
//! [`parse_spec`]: comma-separated `kind:rate` or `kind:duration:rate`
//! clauses, each plan supplying its own table of kinds.

use crate::trace::TraceId;
use std::fmt;
use std::time::Duration;

/// The splitmix64 state increment (2⁶⁴ / φ, odd).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Odd multipliers that spread the coordinates of [`uniform`] apart
/// before mixing, so neighbouring coordinates decorrelate.
const WEIGHTS: [u64; 4] = [
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0x2545_f491_4f6c_dd1d,
    0xd6e8_feb8_6659_fd93,
];

/// The splitmix64 output mix (a bijection on `u64`).
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(WEIGHTS[0]);
    let z = (z ^ (z >> 27)).wrapping_mul(WEIGHTS[1]);
    z ^ (z >> 31)
}

/// The splitmix64 finalizer: one generator step from state `x`. Turns
/// sequential counters into uniform-looking, fully deterministic words.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    mix(x.wrapping_add(GOLDEN))
}

/// A uniform draw in `[0, 1)` at coordinates `at` under `seed`. Unused
/// coordinates are passed as 0; callers fix what each position means.
#[must_use]
pub fn uniform(seed: u64, at: [u64; 4]) -> f64 {
    let z = at
        .iter()
        .zip(WEIGHTS)
        .fold(seed.wrapping_mul(GOLDEN), |z, (&c, w)| {
            z.wrapping_add(c.wrapping_mul(w))
        });
    (mix(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// The `n`th trace ID under `seed`: two chained finalizations. The high
/// word is a bijection of `n` for a fixed seed, so IDs never repeat
/// within one seed's sequence.
#[must_use]
pub fn trace_id(seed: u64, n: u64) -> TraceId {
    let hi = splitmix64(seed ^ n.wrapping_mul(GOLDEN));
    let lo = splitmix64(hi ^ n);
    TraceId((u128::from(hi) << 64) | u128::from(lo))
}

/// A malformed fault spec (`--inject` or `--chaos`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending clause.
    pub clause: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad clause `{}`: {}", self.clause, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// One clause of a fault spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clause {
    /// The clause's kind, as an index into the table given to
    /// [`parse_spec`].
    pub kind: usize,
    /// The clause's duration, for kinds that take one.
    pub duration: Option<Duration>,
    /// Per-draw probability in `[0, 1]`.
    pub rate: f64,
}

/// Parse a fault spec like `panic:0.01,delay:50ms:0.05` into its clauses,
/// in spec order. `kinds` lists each kind's name and whether it takes a
/// duration (`kind:duration:rate`) or not (`kind:rate`). Empty clauses
/// are skipped; durations are `50ms`, `2s` or bare milliseconds; rates
/// are in `[0, 1]`.
///
/// # Errors
///
/// Returns [`SpecError`] naming the first malformed clause.
pub fn parse_spec(spec: &str, kinds: &[(&str, bool)]) -> Result<Vec<Clause>, SpecError> {
    let mut clauses = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
        let err = |reason: String| SpecError {
            clause: clause.to_string(),
            reason,
        };
        let mut parts = clause.split(':');
        let name = parts.next().unwrap_or_default();
        let Some((kind, &(_, timed))) = kinds.iter().enumerate().find(|(_, (k, _))| *k == name)
        else {
            let known: Vec<&str> = kinds.iter().map(|&(k, _)| k).collect();
            return Err(err(format!("unknown kind `{name}` ({})", known.join(", "))));
        };
        let duration = if timed {
            let text = parts.next().unwrap_or_default();
            Some(
                parse_duration(text)
                    .ok_or_else(|| err("duration must be like `50ms` or `2s`".into()))?,
            )
        } else {
            None
        };
        let rate: f64 = parts
            .next()
            .unwrap_or_default()
            .parse()
            .map_err(|_| err("rate must be a number".into()))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(err("rate must be in [0, 1]".into()));
        }
        if parts.next().is_some() {
            let shape = if timed {
                "kind:duration:rate"
            } else {
                "kind:rate"
            };
            return Err(err(format!("expected `{shape}`")));
        }
        clauses.push(Clause {
            kind,
            duration,
            rate,
        });
    }
    Ok(clauses)
}

/// A duration literal: `50ms`, `2s`, or bare milliseconds. `None` unless
/// it is a non-negative number that fits a [`Duration`].
fn parse_duration(text: &str) -> Option<Duration> {
    let (num, scale_ms) = if let Some(n) = text.strip_suffix("ms") {
        (n, 1.0)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1000.0)
    } else {
        (text, 1.0)
    };
    let v: f64 = num.parse().ok()?;
    if !(v.is_finite() && v >= 0.0) {
        return None;
    }
    Duration::try_from_secs_f64(v * scale_ms / 1000.0).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // The first outputs of the reference generator seeded with 0
        // (state advances by GOLDEN before each mix).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GOLDEN), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn uniform_stays_in_the_unit_interval_and_tracks_every_coordinate() {
        let base = uniform(7, [1, 2, 3, 4]);
        assert!((0.0..1.0).contains(&base));
        for i in 0..4 {
            let mut at = [1, 2, 3, 4];
            at[i] += 1;
            assert_ne!(uniform(7, at), base, "coordinate {i}");
        }
        assert_ne!(uniform(8, [1, 2, 3, 4]), base, "seed");
    }

    #[test]
    fn trace_ids_are_distinct_along_the_sequence() {
        let ids: std::collections::HashSet<TraceId> = (0..1000).map(|n| trace_id(5, n)).collect();
        assert_eq!(ids.len(), 1000);
        assert_ne!(trace_id(5, 1), trace_id(6, 1));
    }

    const KINDS: [(&str, bool); 2] = [("panic", false), ("delay", true)];

    #[test]
    fn spec_clauses_keep_spec_order_and_repeats() {
        let clauses = parse_spec(" delay:2s:0.5,, panic:1 ,delay:250:0 ", &KINDS).unwrap();
        assert_eq!(
            clauses,
            [
                Clause {
                    kind: 1,
                    duration: Some(Duration::from_secs(2)),
                    rate: 0.5
                },
                Clause {
                    kind: 0,
                    duration: None,
                    rate: 1.0
                },
                Clause {
                    kind: 1,
                    duration: Some(Duration::from_millis(250)),
                    rate: 0.0
                },
            ]
        );
        assert_eq!(parse_spec("", &KINDS), Ok(Vec::new()));
    }

    #[test]
    fn malformed_clauses_are_named_in_the_error() {
        for (bad, reason) in [
            ("explode:0.5", "unknown kind `explode` (panic, delay)"),
            ("panic", "rate must be a number"),
            ("panic:NaN", "rate must be in [0, 1]"),
            ("panic:1.5", "rate must be in [0, 1]"),
            ("panic:0.5:extra", "expected `kind:rate`"),
            ("delay:50ms", "rate must be a number"),
            ("delay:fast:0.5", "duration must be like `50ms` or `2s`"),
            ("delay:-5ms:0.5", "duration must be like `50ms` or `2s`"),
            ("delay:1e300s:0.5", "duration must be like `50ms` or `2s`"),
            ("delay:5ms:0.5:x", "expected `kind:duration:rate`"),
        ] {
            let err = parse_spec(&format!("panic:0,{bad}"), &KINDS).unwrap_err();
            assert_eq!(err.clause, bad);
            assert_eq!(err.reason, reason, "{bad}");
        }
    }
}
