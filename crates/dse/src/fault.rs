//! Deterministic fault injection for the DSE worker loop.
//!
//! A [`FaultPlan`] is parsed from a compact spec (`--inject
//! panic:0.01,delay:50ms:0.05,nofinite:0.001`) plus a seed, and decides —
//! as a pure function of `(seed, kind, unit, attempt)` — whether a given
//! execution attempt of a work unit is hit by each fault kind. Because
//! the decision depends on nothing else (not thread count, not timing),
//! fault-injected sweeps stay bit-identically reproducible, which is what
//! lets CI prove that quarantine, checkpoint/resume and the watchdog
//! interact correctly under failure.
//!
//! Three fault kinds:
//!
//! * **panic** — the attempt panics before doing any work, exercising the
//!   catch-unwind + retry + quarantine path;
//! * **delay** — the attempt stalls (cooperatively: the sleep observes the
//!   cancellation token and the per-unit watchdog budget) before doing its
//!   work, exercising deadline/signal responsiveness and the watchdog;
//! * **nofinite** — a `NaN`-poisoned design point is appended to the
//!   unit's Pareto slice after it computes, exercising the merge-side
//!   finite-value gates (the injected point must never survive into the
//!   merged front, so results stay bit-identical to a clean run).

use std::fmt;
use std::time::Duration;

/// One fault kind with its per-attempt probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Panic at the start of the attempt, with probability `rate`.
    Panic {
        /// Per-attempt injection probability in `[0, 1]`.
        rate: f64,
    },
    /// Stall for `duration` at the start of the attempt, with probability
    /// `rate`.
    Delay {
        /// How long the injected stall lasts (cooperative sleep).
        duration: Duration,
        /// Per-attempt injection probability in `[0, 1]`.
        rate: f64,
    },
    /// Append a non-finite design point to the unit's result, with
    /// probability `rate`.
    NoFinite {
        /// Per-attempt injection probability in `[0, 1]`.
        rate: f64,
    },
}

/// A malformed `--inject` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending clause.
    pub clause: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause `{}`: {}", self.clause, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

/// What a [`FaultPlan`] decided for one `(unit, attempt)` execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Injection {
    /// Panic at the start of the attempt.
    pub panic: bool,
    /// Stall for this long at the start of the attempt.
    pub stall: Option<Duration>,
    /// Poison the unit result with a non-finite point.
    pub nofinite: bool,
}

impl Injection {
    /// Number of faults this injection carries.
    pub fn count(&self) -> u64 {
        u64::from(self.panic) + u64::from(self.stall.is_some()) + u64::from(self.nofinite)
    }
}

/// A seeded, deterministic fault-injection plan. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan from explicit faults.
    pub fn new(seed: u64, faults: Vec<Fault>) -> Self {
        FaultPlan { seed, faults }
    }

    /// Parse a spec like `panic:0.01,delay:50ms:0.05,nofinite:0.001`.
    /// Durations accept `ms`, `s` or bare milliseconds; rates are in
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] naming the first malformed clause.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, FaultSpecError> {
        let err = |clause: &str, reason: &str| FaultSpecError {
            clause: clause.to_string(),
            reason: reason.to_string(),
        };
        let rate_of = |clause: &str, text: &str| -> Result<f64, FaultSpecError> {
            let rate: f64 = text
                .parse()
                .map_err(|_| err(clause, "rate must be a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(err(clause, "rate must be in [0, 1]"));
            }
            Ok(rate)
        };
        let mut faults = Vec::new();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let mut parts = clause.split(':');
            let kind = parts.next().unwrap_or_default();
            match kind {
                "panic" | "nofinite" => {
                    let rate = rate_of(clause, parts.next().unwrap_or_default())?;
                    if parts.next().is_some() {
                        return Err(err(clause, "expected `kind:rate`"));
                    }
                    faults.push(if kind == "panic" {
                        Fault::Panic { rate }
                    } else {
                        Fault::NoFinite { rate }
                    });
                }
                "delay" => {
                    let dur_text = parts.next().unwrap_or_default();
                    let rate = rate_of(clause, parts.next().unwrap_or_default())?;
                    if parts.next().is_some() {
                        return Err(err(clause, "expected `delay:duration:rate`"));
                    }
                    let duration = parse_duration(dur_text)
                        .ok_or_else(|| err(clause, "duration must be like `50ms` or `2s`"))?;
                    faults.push(Fault::Delay { duration, rate });
                }
                other => {
                    return Err(err(
                        clause,
                        &format!("unknown fault kind `{other}` (panic, delay, nofinite)"),
                    ));
                }
            }
        }
        Ok(FaultPlan { seed, faults })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Decide the injection for one `(unit, attempt)` execution. Pure:
    /// the same plan always returns the same decision for the same pair.
    pub fn decide(&self, unit: usize, attempt: u32) -> Injection {
        let mut inj = Injection::default();
        for (slot, fault) in self.faults.iter().enumerate() {
            let (kind_tag, rate) = match fault {
                Fault::Panic { rate } => (1u64, *rate),
                Fault::Delay { rate, .. } => (2, *rate),
                Fault::NoFinite { rate } => (3, *rate),
            };
            let draw = unit_draw(self.seed, kind_tag, slot as u64, unit as u64, attempt);
            if draw >= rate {
                continue;
            }
            match fault {
                Fault::Panic { .. } => inj.panic = true,
                Fault::Delay { duration, .. } => {
                    // Two delay clauses on the same attempt: the longer
                    // stall wins (they would overlap, not add).
                    inj.stall = Some(inj.stall.map_or(*duration, |d| d.max(*duration)));
                }
                Fault::NoFinite { .. } => inj.nofinite = true,
            }
        }
        inj
    }
}

/// `hms`/`s`-suffixed duration literal (bare numbers are milliseconds).
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
    Some(Duration::from_secs_f64(v * scale_ms / 1000.0))
}

/// Uniform draw in `[0, 1)` at the decision coordinates — stateless, so
/// decisions are independent of evaluation order and thread count.
fn unit_draw(seed: u64, kind: u64, slot: u64, unit: u64, attempt: u32) -> f64 {
    maestro_obs::rng::uniform(seed, [kind, slot, unit, u64::from(attempt)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_spec() {
        let plan = FaultPlan::parse("panic:0.01,delay:50ms:0.05,nofinite:0.001", 7).unwrap();
        assert_eq!(
            plan,
            FaultPlan::new(
                7,
                vec![
                    Fault::Panic { rate: 0.01 },
                    Fault::Delay {
                        duration: Duration::from_millis(50),
                        rate: 0.05
                    },
                    Fault::NoFinite { rate: 0.001 },
                ]
            )
        );
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
        assert!(FaultPlan::parse("delay:2s:1.0", 0).is_ok());
        assert!(FaultPlan::parse("delay:250:0.5", 0).is_ok(), "bare ms");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "explode:0.5",
            "panic:2.0",
            "panic:x",
            "delay:50ms",
            "delay:fast:0.5",
            "panic:0.5:extra",
            "delay:-5ms:0.5",
        ] {
            let err = FaultPlan::parse(bad, 0).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::parse("panic:0.5", 42).unwrap();
        let a: Vec<bool> = (0..64).map(|u| plan.decide(u, 0).panic).collect();
        let b: Vec<bool> = (0..64).map(|u| plan.decide(u, 0).panic).collect();
        assert_eq!(a, b, "same coordinates, same decision");
        let retry: Vec<bool> = (0..64).map(|u| plan.decide(u, 1).panic).collect();
        assert_ne!(a, retry, "retries draw fresh randomness");
        assert!(a.iter().any(|&p| p) && a.iter().any(|&p| !p));
    }

    /// Pins seed 7 bit for bit: the raw draws at the first coordinates
    /// and every decision of a three-clause plan over 32 units x 2
    /// attempts. A seeded `--inject` run must hit the same attempts
    /// whichever module computes the draw.
    #[test]
    fn seed_7_draws_and_decisions_are_pinned() {
        let bits = |d: f64| (d * (1u64 << 53) as f64) as u64;
        let draws: Vec<u64> = (0..12u64)
            .map(|u| bits(unit_draw(7, 1 + u % 3, u % 3, u, (u % 2) as u32)))
            .collect();
        assert_eq!(
            draws,
            [
                0x1a_67f3_a6bc_bfa9,
                0x12_d0f6_fcce_ab60,
                0x1b_4a42_1fb4_93fc,
                0x05_27e3_53d5_d852,
                0x11_3c4a_6c11_ca2f,
                0x1a_d8f2_b692_bcd4,
                0x12_ed37_ad70_b89b,
                0x07_8e95_0ec6_7b5e,
                0x06_26ff_503b_6882,
                0x16_0d43_af18_5f08,
                0x1a_0e3e_3a04_7176,
                0x12_b591_a398_8d18,
            ]
        );
        let plan = FaultPlan::parse("panic:0.5,delay:1ms:0.25,nofinite:0.125", 7).unwrap();
        let mut masks = [0u64; 3];
        for unit in 0..32 {
            for attempt in 0..2u32 {
                let inj = plan.decide(unit, attempt);
                let bit = 1u64 << (unit * 2 + attempt as usize);
                for (mask, hit) in
                    masks
                        .iter_mut()
                        .zip([inj.panic, inj.stall.is_some(), inj.nofinite])
                {
                    if hit {
                        *mask |= bit;
                    }
                }
            }
        }
        assert_eq!(
            masks,
            [
                0x96f7_78f9_a4f3_aad4,
                0x0020_0050_2b42_c0e0,
                0x0011_2800_0000_d000
            ]
        );
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let never = FaultPlan::parse("panic:0", 1).unwrap();
        let always = FaultPlan::parse("panic:1", 1).unwrap();
        for u in 0..100 {
            assert!(!never.decide(u, 0).panic);
            assert!(always.decide(u, 0).panic);
        }
    }

    #[test]
    fn longest_of_overlapping_delays_wins() {
        let plan = FaultPlan::new(
            0,
            vec![
                Fault::Delay {
                    duration: Duration::from_millis(10),
                    rate: 1.0,
                },
                Fault::Delay {
                    duration: Duration::from_millis(30),
                    rate: 1.0,
                },
            ],
        );
        assert_eq!(plan.decide(0, 0).stall, Some(Duration::from_millis(30)));
        assert_eq!(plan.decide(0, 0).count(), 1);
    }
}
