//! Bit-level pin of the step simulator over the seeded conform corpus.
//!
//! The first 300 cases of `conform::gen_case` at seed 1 run through
//! `simulate` (a 100,000-step budget), `trace` (the first 64 steps) and
//! `mapping_at_step` (step 0, step 1 when the schedule has it, and the
//! last step when the schedule fits the step budget). The `Debug` text of
//! each result (or the error's text) is folded into one FNV-1a digest per
//! entry point, so any change to any bit of any field fails the test.

use maestro_sim::conform::gen_case;
use maestro_sim::{mapping_at_step, simulate, trace, Case, SimOptions};
use proptest::TestRng;
use std::fmt::Debug;

const CASES: usize = 300;
const MAX_STEPS: u64 = 100_000;
const TRACE_STEPS: u64 = 64;

/// Digest of every `simulate` result.
const SIMULATE_DIGEST: u64 = 0x3af0_6acf_a1ef_a921;

/// Digest of every `trace` result.
const TRACE_DIGEST: u64 = 0xe521_6875_b013_0fe0;

/// Digest of every `mapping_at_step` result.
const MAPPING_DIGEST: u64 = 0x697c_54f5_1f6a_112b;

/// FNV-1a over `text`, continuing from `h`; a newline ends each record.
fn fnv1a(h: u64, text: &str) -> u64 {
    text.bytes()
        .chain(std::iter::once(b'\n'))
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn text<T: Debug, E: std::fmt::Display>(r: &Result<T, E>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(e) => e.to_string(),
    }
}

fn corpus() -> Vec<Case> {
    let mut rng = TestRng::from_seed(1);
    (0..CASES).map(|_| gen_case(&mut rng)).collect()
}

#[test]
fn simulator_results_match_the_pinned_digests() {
    let mut digests = [FNV_OFFSET; 3];
    for case in corpus() {
        let (layer, df, pes) = (&case.layer, &case.dataflow, case.acc.num_pes);
        let simulated = simulate(
            layer,
            df,
            &case.acc,
            SimOptions {
                max_steps: MAX_STEPS,
            },
        );
        digests[0] = fnv1a(digests[0], &text(&simulated));
        let traced = trace(layer, df, pes, TRACE_STEPS);
        digests[1] = fnv1a(digests[1], &text(&traced));
        // Steps inside the schedule only: 0, 1 and the last one.
        let total = traced.as_ref().map_or(1, |t| t.total_steps);
        let mut steps = vec![0, 1];
        if total <= MAX_STEPS {
            steps.push(total - 1);
        }
        steps.retain(|&s| s < total);
        steps.dedup();
        for step in steps {
            digests[2] = fnv1a(digests[2], &text(&mapping_at_step(layer, df, pes, step)));
        }
    }
    assert_eq!(
        digests,
        [SIMULATE_DIGEST, TRACE_DIGEST, MAPPING_DIGEST],
        "digests {:#018x} {:#018x} {:#018x}",
        digests[0],
        digests[1],
        digests[2]
    );
}
