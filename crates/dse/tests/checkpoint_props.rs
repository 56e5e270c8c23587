//! Property tests for the checkpoint wire format: the canonical encoding
//! round-trips exactly (including non-finite floats), and every
//! single-byte corruption is a typed error — never a panic, never a
//! silently-accepted checkpoint.

use maestro_dse::checkpoint::fnv1a;
use maestro_dse::{Checkpoint, CheckpointError, DesignPoint, Partial};
use proptest::prelude::*;

/// Tiny deterministic PRNG so one `u64` seed expands into a whole
/// checkpoint (the proptest shim generates flat tuples; structured
/// values are easier to derive than to compose).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// An f64 that is frequently non-finite or negative-zero — the cases
    /// a lossy text format would destroy.
    fn f64(&mut self) -> f64 {
        match self.below(6) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::from_bits(self.next()),
            _ => (self.below(1000) as f64) / 7.0,
        }
    }

    fn point(&mut self) -> DesignPoint {
        DesignPoint {
            pes: self.below(4096),
            noc_bw: self.below(128),
            l1_bytes: self.below(1 << 20),
            l2_bytes: self.below(1 << 24),
            // Exercise the string escaping: separators, newlines, quotes,
            // backslashes.
            mapping: match self.below(4) {
                0 => String::new(),
                1 => "KC-P[c16,y4,x4]".into(),
                2 => "evil \\ mapping\nwith newline\r".into(),
                _ => format!("map-{}", self.next()),
            }
            .into(),
            area_mm2: self.f64(),
            power_mw: self.f64(),
            runtime: self.f64(),
            throughput: self.f64(),
            energy: self.f64(),
            edp: self.f64(),
        }
    }

    fn partial(&mut self) -> Partial {
        let mut p = Partial::new();
        p.stats.explored = self.next();
        p.stats.evaluated = self.below(1 << 40);
        p.stats.valid = self.below(1 << 40);
        p.stats.memo_hits = self.below(1 << 40);
        p.stats.nonfinite_dropped = self.below(100);
        p.stats.capacity_skipped = self.below(100);
        p.stats.pareto_inserted = self.below(100);
        p.stats.pareto_rejected = self.below(100);
        for _ in 0..self.below(4) {
            p.pareto.push(self.point());
        }
        if self.below(2) == 0 {
            p.best_throughput = Some(self.point());
        }
        if self.below(2) == 0 {
            p.best_energy = Some(self.point());
        }
        if self.below(2) == 0 {
            p.best_edp = Some(self.point());
        }
        for _ in 0..self.below(3) {
            p.sample.push(self.point());
        }
        p
    }

    fn checkpoint(&mut self) -> Checkpoint {
        let fingerprint = self.next();
        let total = 1 + self.below(6) as usize;
        let mut cp = Checkpoint::new(fingerprint, total);
        for i in 0..total {
            cp.units[i] = match self.below(3) {
                0 => None,
                1 => Some(Ok(self.partial())),
                _ => Some(Err(match self.below(3) {
                    0 => String::new(),
                    1 => "panicked at 'boom'".into(),
                    _ => "multi\nline \\ payload".into(),
                })),
            };
        }
        cp
    }
}

proptest! {
    #[test]
    fn encode_decode_reencode_is_byte_identical(seed in 0u64..u64::MAX) {
        let cp = Rng(seed | 1).checkpoint();
        let text = cp.encode();
        let back = Checkpoint::decode(&text).expect("canonical text decodes");
        prop_assert_eq!(back.fingerprint, cp.fingerprint);
        prop_assert_eq!(back.units.len(), cp.units.len());
        prop_assert_eq!(back.encode(), text, "re-encoding is not canonical");
    }

    #[test]
    fn any_single_byte_corruption_is_a_typed_error(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed | 1);
        let cp = rng.checkpoint();
        let text = cp.encode();
        let mut bytes = text.into_bytes();
        let at = rng.below(bytes.len() as u64) as usize;
        let flip = 1 + rng.below(255) as u8; // never a no-op
        bytes[at] ^= flip;
        // Decode must reject the tampered text with a typed error — any
        // variant is fine, a panic or an Ok is not.
        match Checkpoint::decode(&String::from_utf8_lossy(&bytes)) {
            Err(_) => {}
            Ok(_) => prop_assert!(
                false,
                "corrupted checkpoint accepted (byte {at} ^ {flip:#x})"
            ),
        }
    }
}

#[test]
fn version_bump_with_valid_checksum_is_a_version_error() {
    let cp = Rng(7).checkpoint();
    let tampered = cp
        .encode()
        .replace("maestro-dse-checkpoint v1", "maestro-dse-checkpoint v9");
    // Re-stamp the checksum so only the version is wrong.
    let body_end = tampered.rfind("checksum ").expect("has checksum line");
    let body = &tampered[..body_end];
    let restamped = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
    match Checkpoint::decode(&restamped) {
        Err(CheckpointError::Version { found }) => assert!(found.contains("v9"), "{found}"),
        other => panic!("expected Version error, got {other:?}"),
    }
}

#[test]
fn fingerprint_mismatch_is_reported_with_both_values() {
    let cp = Rng(9).checkpoint();
    let total = cp.units.len();
    let err = cp
        .validate_against(cp.fingerprint.wrapping_add(1), total)
        .expect_err("mismatched fingerprint must be rejected");
    assert!(
        matches!(&err, CheckpointError::Fingerprint { expected, found }
            if expected != found),
        "wrong error: {err:?}"
    );
}
