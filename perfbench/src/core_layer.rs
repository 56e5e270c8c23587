//! The `core` layer's traced numbers: per-call build and finish times and
//! the per-stage spans the analysis pipeline already records
//! (`maestro.analysis.{tensor,reuse,buffer,noc,perf}`), plus the DSE's
//! `maestro.dse.unit` spans that enclose them during a sweep.

use crate::stats;
use crate::Outcome;
use maestro_obs::span::SpanEvent;

const STAGES: [&str; 5] = [
    "maestro.analysis.tensor",
    "maestro.analysis.reuse",
    "maestro.analysis.buffer",
    "maestro.analysis.noc",
    "maestro.analysis.perf",
];

/// Accumulated traced timings.
#[derive(Default)]
pub struct CoreStages {
    /// Per-call `StagedAnalysis::build` time, ns.
    pub build_ns: Vec<f64>,
    /// Per-call `StagedAnalysis::finish` time, ns.
    pub finish_ns: Vec<f64>,
    /// Σ duration and count per stage span, in [`STAGES`] order.
    stage_ns: [f64; 5],
    stage_n: [u64; 5],
    /// `maestro.dse.unit` durations, ns.
    pub unit_ns: Vec<f64>,
}

impl CoreStages {
    /// Fold drained span events in. With `derive_calls`, build and finish
    /// times are reconstructed from the spans (a build is one
    /// tensor→reuse→buffer→noc run on a thread, a finish one perf span) —
    /// for callers such as the explorer whose calls the benchmark cannot
    /// wrap itself.
    pub fn absorb(&mut self, events: &[SpanEvent], derive_calls: bool) {
        let mut open: Option<(u64, f64)> = None;
        for e in events {
            let dur = e.duration_ns as f64;
            if e.name == "maestro.dse.unit" {
                self.unit_ns.push(dur);
                continue;
            }
            let Some(i) = STAGES.iter().position(|s| *s == e.name) else {
                continue;
            };
            self.stage_ns[i] += dur;
            self.stage_n[i] += 1;
            if !derive_calls {
                continue;
            }
            match i {
                0 => {
                    if let Some((_, ns)) = open.take() {
                        self.build_ns.push(ns);
                    }
                    open = Some((e.thread, dur));
                }
                4 => self.finish_ns.push(dur),
                _ => {
                    if let Some((thread, ns)) = open.as_mut() {
                        if *thread == e.thread {
                            *ns += dur;
                        }
                    }
                }
            }
        }
        if let Some((_, ns)) = open {
            self.build_ns.push(ns);
        }
    }

    /// Builds started and builds that got through every build stage.
    pub fn builds(&self) -> (u64, u64) {
        (self.stage_n[0], self.stage_n[3])
    }

    /// Σ of all analysis stage spans, ns.
    pub fn stage_total_ns(&self) -> f64 {
        self.stage_ns.iter().sum()
    }

    /// Report the `core.*` timings (`core.calls`/`core.ok_share` are the
    /// caller's: what counts as one call differs per workload).
    pub fn report(&mut self, out: &mut Outcome) {
        stats::sort(&mut self.build_ns);
        out.set("core.build_ns", stats::mean(&self.build_ns));
        out.set("core.build_ns_p99", stats::percentile(&self.build_ns, 99.0));
        out.set("core.finish_ns", stats::mean(&self.finish_ns));
        let names = [
            "core.tensor_ns",
            "core.reuse_ns",
            "core.buffer_ns",
            "core.noc_ns",
            "core.perf_ns",
        ];
        for (i, name) in names.into_iter().enumerate() {
            out.set(name, self.stage_ns[i] / self.stage_n[i].max(1) as f64);
        }
        out.detail("core_build_ns", stats::summary_json(&self.build_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, thread: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            id: 0,
            parent: None,
            thread,
            depth: 1,
            start_ns: 0,
            duration_ns: dur,
            trace: 0,
        }
    }

    #[test]
    fn builds_are_reconstructed_from_stage_runs() {
        let events = [
            ev("maestro.dse.unit", 0, 1000),
            ev("maestro.analysis.tensor", 0, 10),
            ev("maestro.analysis.reuse", 0, 20),
            ev("maestro.analysis.buffer", 0, 3),
            ev("maestro.analysis.noc", 0, 7),
            ev("maestro.analysis.perf", 0, 5),
            ev("maestro.analysis.perf", 0, 6),
            // A build rejected at resolve: tensor only.
            ev("maestro.analysis.tensor", 0, 4),
        ];
        let mut c = CoreStages::default();
        c.absorb(&events, true);
        assert_eq!(c.build_ns, vec![40.0, 4.0]);
        assert_eq!(c.finish_ns, vec![5.0, 6.0]);
        assert_eq!(c.unit_ns, vec![1000.0]);
        assert_eq!(c.builds(), (2, 1));
        assert_eq!(c.stage_total_ns(), 55.0);
        let mut out = Outcome::default();
        c.report(&mut out);
        let get = |n: &str| out.metrics.iter().find(|(k, _)| *k == n).map(|m| m.1);
        assert_eq!(get("core.build_ns"), Some(22.0));
        assert_eq!(get("core.tensor_ns"), Some(7.0));
        assert_eq!(get("core.perf_ns"), Some(5.5));
    }

    #[test]
    fn direct_timings_keep_spans_for_stages_only() {
        let mut c = CoreStages::default();
        c.absorb(&[ev("maestro.analysis.tensor", 0, 10)], false);
        assert!(c.build_ns.is_empty());
        assert_eq!(c.builds(), (1, 0));
    }
}
