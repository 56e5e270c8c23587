//! Versioned, checksummed, atomically-written DSE checkpoints.
//!
//! A checkpoint captures the state of an interrupted sweep as **per-unit
//! partial results** — not the merged frontier. This is what makes resume
//! bit-identical: `merge_partials` folds units in index order and its
//! tie-breaking (`insert_pareto` first-wins, `update_best` strict-<) is
//! order-sensitive, so replaying the stored partials at their original
//! indices alongside freshly computed ones reproduces the exact sequential
//! fold an uninterrupted run would have performed. Quarantined units are
//! recorded too (terminally — they are *not* retried on resume), so a
//! resumed sweep also agrees with an uninterrupted one about degraded
//! coverage.
//!
//! # Format
//!
//! The workspace's serde shim can serialize but not deserialize (offline
//! build, no `serde_json::from_str`), so checkpoints use a purpose-built
//! line-oriented text format with a canonical encoding:
//!
//! ```text
//! maestro-dse-checkpoint v1
//! fingerprint <16 hex digits>
//! units <total>
//! unit <index> done
//! stats <explored> <evaluated> <valid> <memo_hits> <nonfinite> <capskip> <par_ins> <par_rej>
//! pareto <count>
//! point <pes> <bw> <l1> <l2> <area> <power> <runtime> <tput> <energy> <edp> <mapping…>
//! best_throughput <0|1>   (followed by a point line when 1)
//! best_energy <0|1>
//! best_edp <0|1>
//! sample <count>
//! unit <index> quarantined <message…>
//! checksum <16 hex digits>
//! ```
//!
//! Floats are written as their IEEE-754 bit patterns in hex
//! (`f64::to_bits`), so decode → re-encode is byte-identical and no
//! precision is lost. The trailing line is an FNV-1a 64 checksum of
//! everything before it; a flipped byte anywhere yields a typed
//! [`CheckpointError::Checksum`], never a panic or a silently-wrong
//! frontier.
//!
//! # Atomicity
//!
//! [`Checkpoint::save`] writes to a `<path>.tmp` sibling and renames it
//! over the target, so a crash mid-write leaves either the previous valid
//! checkpoint or a stray temp file — never a truncated checkpoint at the
//! real path.

use crate::explorer::{DesignPoint, Partial};
use crate::space::Constraints;
use crate::units::UnitOutcome;
use crate::Explorer;
use maestro_ir::Dataflow;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Format version accepted by this build.
pub const CHECKPOINT_VERSION: &str = "v1";

const MAGIC: &str = "maestro-dse-checkpoint";

/// Why a checkpoint could not be written, read, or accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (open/read/write/rename).
    Io {
        /// The path involved.
        path: String,
        /// The OS error, rendered.
        reason: String,
    },
    /// The file does not follow the checkpoint grammar.
    Format {
        /// 1-based line where decoding failed.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The trailing checksum does not match the content — the file is
    /// corrupt (truncated, bit-flipped, or hand-edited).
    Checksum {
        /// Checksum recomputed from the content.
        expected: String,
        /// Checksum stored in the file.
        found: String,
    },
    /// The file is a checkpoint, but of an unsupported format version.
    Version {
        /// The version tag found in the header.
        found: String,
    },
    /// The checkpoint belongs to a different sweep configuration (space /
    /// constraints / cost models / workload / mappings differ).
    Fingerprint {
        /// Fingerprint of the sweep being resumed.
        expected: String,
        /// Fingerprint stored in the checkpoint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, reason } => {
                write!(f, "checkpoint I/O error at {path}: {reason}")
            }
            CheckpointError::Format { line, reason } => {
                write!(f, "malformed checkpoint (line {line}): {reason}")
            }
            CheckpointError::Checksum { expected, found } => write!(
                f,
                "checkpoint is corrupt: checksum {found} recorded, {expected} computed"
            ),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version `{found}` (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint belongs to a different sweep (fingerprint {found}, this sweep is {expected}) — \
                 space, constraints, cost models, workload and mappings must match exactly to resume"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Resumable state of a sweep: which units completed and what they
/// produced. See the module docs for why per-unit partials (not the
/// merged frontier) are what is stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the sweep configuration (see [`sweep_fingerprint`]).
    pub fingerprint: u64,
    /// One slot per work unit, indexed like `SweepSpace::pes`: the
    /// unit's partial (`done`), its quarantine message (`quarantined`,
    /// never retried on resume), or `None` when it has not completed yet.
    pub units: Vec<Option<UnitOutcome>>,
}

impl Checkpoint {
    /// An empty checkpoint for a sweep of `total_units` units.
    pub fn new(fingerprint: u64, total_units: usize) -> Self {
        Checkpoint {
            fingerprint,
            units: vec![None; total_units],
        }
    }

    /// Number of completed (done or quarantined) units.
    pub fn completed(&self) -> usize {
        self.units.iter().filter(|u| u.is_some()).count()
    }

    /// Reject this checkpoint unless it matches the sweep about to run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Fingerprint`] on a configuration mismatch
    /// (a differing unit count is also a configuration mismatch, but is
    /// reported via the fingerprint, which covers the PE grid).
    pub fn validate_against(
        &self,
        fingerprint: u64,
        total_units: usize,
    ) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint || self.units.len() != total_units {
            return Err(CheckpointError::Fingerprint {
                expected: format!("{fingerprint:016x}"),
                found: format!("{:016x}", self.fingerprint),
            });
        }
        Ok(())
    }

    /// Canonical text encoding (see the module docs). Decoding and
    /// re-encoding any output of this function is byte-identical.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC} {CHECKPOINT_VERSION}");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "units {}", self.units.len());
        for (i, entry) in self.units.iter().enumerate() {
            match entry {
                None => {}
                Some(Err(msg)) => {
                    let _ = writeln!(s, "unit {i} quarantined {}", escape(msg));
                }
                Some(Ok(p)) => {
                    let _ = writeln!(s, "unit {i} done");
                    let st = &p.stats;
                    let _ = writeln!(
                        s,
                        "stats {} {} {} {} {} {} {} {}",
                        st.explored,
                        st.evaluated,
                        st.valid,
                        st.memo_hits,
                        st.nonfinite_dropped,
                        st.capacity_skipped,
                        st.pareto_inserted,
                        st.pareto_rejected
                    );
                    let _ = writeln!(s, "pareto {}", p.pareto.len());
                    for pt in &p.pareto {
                        encode_point(&mut s, pt);
                    }
                    for (tag, best) in [
                        ("best_throughput", &p.best_throughput),
                        ("best_energy", &p.best_energy),
                        ("best_edp", &p.best_edp),
                    ] {
                        match best {
                            Some(pt) => {
                                let _ = writeln!(s, "{tag} 1");
                                encode_point(&mut s, pt);
                            }
                            None => {
                                let _ = writeln!(s, "{tag} 0");
                            }
                        }
                    }
                    let _ = writeln!(s, "sample {}", p.sample.len());
                    for pt in &p.sample {
                        encode_point(&mut s, pt);
                    }
                }
            }
        }
        let _ = writeln!(s, "checksum {:016x}", fnv1a(s.as_bytes()));
        s
    }

    /// Decode the canonical text format, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`]s for corruption ([`CheckpointError::Checksum`]),
    /// grammar violations ([`CheckpointError::Format`] with a line number),
    /// and unsupported versions ([`CheckpointError::Version`]). Never
    /// panics, whatever the input.
    pub fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut lines = Lines::new(text);

        // Header: magic + version.
        let header = lines.next_required("missing header")?;
        let mut hp = header.split_whitespace();
        if hp.next() != Some(MAGIC) {
            return Err(lines.err("not a maestro-dse checkpoint"));
        }
        let version = hp.next().unwrap_or_default();
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: version.to_string(),
            });
        }

        // Checksum: recompute over everything before the trailer line.
        let trailer_at = text
            .rfind("checksum ")
            .ok_or_else(|| lines.err_at(0, "missing checksum trailer"))?;
        let found = text[trailer_at + "checksum ".len()..].trim();
        let expected = format!("{:016x}", fnv1a(&text.as_bytes()[..trailer_at]));
        if found != expected {
            return Err(CheckpointError::Checksum {
                expected,
                found: found.to_string(),
            });
        }

        let fp_line = lines.next_required("missing fingerprint line")?;
        let fingerprint = fp_line
            .strip_prefix("fingerprint ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| lines.err("expected `fingerprint <16 hex digits>`"))?;
        let units_line = lines.next_required("missing units line")?;
        let total: usize = units_line
            .strip_prefix("units ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| lines.err("expected `units <count>`"))?;
        // A hostile count would allocate unboundedly; the real unit count
        // is the PE-grid length, which is tiny.
        if total > 1_000_000 {
            return Err(lines.err("unit count out of range"));
        }
        let mut ckpt = Checkpoint::new(fingerprint, total);

        loop {
            let line = lines.next_required("missing checksum trailer")?;
            if let Some(rest) = line.strip_prefix("unit ") {
                let mut parts = rest.splitn(3, ' ');
                let i: usize = parts
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| lines.err("expected `unit <index> …`"))?;
                if i >= total {
                    return Err(lines.err("unit index out of range"));
                }
                if ckpt.units[i].is_some() {
                    return Err(lines.err("duplicate unit entry"));
                }
                match parts.next() {
                    Some("quarantined") => {
                        let msg = unescape(parts.next().unwrap_or_default());
                        ckpt.units[i] = Some(Err(msg));
                    }
                    Some("done") => {
                        let p = decode_partial(&mut lines)?;
                        ckpt.units[i] = Some(Ok(p));
                    }
                    _ => return Err(lines.err("expected `done` or `quarantined <message>`")),
                }
            } else if line.starts_with("checksum ") {
                break; // verified above
            } else {
                return Err(lines.err("expected `unit …` or the checksum trailer"));
            }
        }
        Ok(ckpt)
    }

    /// Atomically write this checkpoint to `path` (temp-file + rename in
    /// the same directory) and bump `maestro.dse.checkpoint_writes`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |p: &Path, e: std::io::Error| CheckpointError::Io {
            path: p.display().to_string(),
            reason: e.to_string(),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.encode()).map_err(|e| io(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io(path, e))?;
        checkpoint_writes().inc();
        Ok(())
    }

    /// Read and decode the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read, otherwise any
    /// [`Checkpoint::decode`] error.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Checkpoint::decode(&text)
    }
}

/// Counter of checkpoint files written (`maestro.dse.checkpoint_writes`).
fn checkpoint_writes() -> &'static maestro_obs::Counter {
    static C: std::sync::OnceLock<maestro_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| maestro_obs::registry().counter("maestro.dse.checkpoint_writes"))
}

/// Fingerprint of everything that determines a sweep's results: the
/// hardware space, constraints, the area and power models, model
/// parameters, the workload, and the full mapping DSL. Two sweeps with
/// equal fingerprints produce equal results, so a checkpoint is resumable
/// exactly when fingerprints match.
/// The checkpoint cadence and the evaluation mode ([`crate::EvalMode`])
/// are deliberately *not* fingerprinted: they do not change results (`staged_equivalence` holds staged and full
/// evaluation bit-identical, across a resume from one into the other).
/// Nor is the fault plan, a test harness: the units it quarantined are
/// stored terminally, so a resume under the same plan lands on the
/// uninterrupted run under that plan (`interrupt_resume`).
pub fn sweep_fingerprint(explorer: &Explorer, workload: &str, mappings: &[Dataflow]) -> u64 {
    let mut s = String::new();
    let sp = &explorer.space;
    let c: &Constraints = &explorer.constraints;
    let _ = write!(
        s,
        "pes{:?};bw{:?};l1{:?};l2{:?};area{:016x};power{:016x};{:?};{:?};dram{:016x};prec{};cap{};wl={workload};",
        sp.pes,
        sp.noc_bw,
        sp.l1_bytes,
        sp.l2_bytes,
        c.max_area_mm2.to_bits(),
        c.max_power_mw.to_bits(),
        explorer.area_model,
        explorer.power_model,
        explorer.dram_pj.to_bits(),
        explorer.precision_bytes,
        explorer.sample_cap,
    );
    for m in mappings {
        let _ = write!(s, "map={m};");
    }
    fnv1a(s.as_bytes())
}

/// FNV-1a 64-bit hash — tiny, dependency-free, good enough to detect
/// corruption and configuration drift (not a cryptographic guarantee).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_point(s: &mut String, p: &DesignPoint) {
    let _ = writeln!(
        s,
        "point {} {} {} {} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {}",
        p.pes,
        p.noc_bw,
        p.l1_bytes,
        p.l2_bytes,
        p.area_mm2.to_bits(),
        p.power_mw.to_bits(),
        p.runtime.to_bits(),
        p.throughput.to_bits(),
        p.energy.to_bits(),
        p.edp.to_bits(),
        escape(&p.mapping)
    );
}

/// Escape a free-text field onto one line (`\` → `\\`, newline → `\n`,
/// CR → `\r`). Deterministic, so canonical encodings stay canonical.
fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Line cursor tracking 1-based line numbers for error reporting.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            iter: text.lines(),
            line_no: 0,
        }
    }

    fn next_required(&mut self, missing: &str) -> Result<&'a str, CheckpointError> {
        self.line_no += 1;
        self.iter.next().ok_or(CheckpointError::Format {
            line: self.line_no,
            reason: missing.to_string(),
        })
    }

    fn err(&self, reason: &str) -> CheckpointError {
        self.err_at(self.line_no, reason)
    }

    fn err_at(&self, line: usize, reason: &str) -> CheckpointError {
        CheckpointError::Format {
            line,
            reason: reason.to_string(),
        }
    }
}

fn decode_partial(lines: &mut Lines<'_>) -> Result<Partial, CheckpointError> {
    let mut p = Partial::new();
    let stats_line = lines.next_required("missing stats line")?;
    let nums: Vec<u64> = stats_line
        .strip_prefix("stats ")
        .map(|rest| rest.split(' ').filter_map(|n| n.parse().ok()).collect())
        .unwrap_or_default();
    let [explored, evaluated, valid, memo_hits, nonfinite, capskip, par_ins, par_rej] = nums[..]
    else {
        return Err(lines.err("expected `stats` with eight counters"));
    };
    p.stats.explored = explored;
    p.stats.evaluated = evaluated;
    p.stats.valid = valid;
    p.stats.memo_hits = memo_hits;
    p.stats.nonfinite_dropped = nonfinite;
    p.stats.capacity_skipped = capskip;
    p.stats.pareto_inserted = par_ins;
    p.stats.pareto_rejected = par_rej;

    p.pareto = decode_point_list(lines, "pareto")?;
    p.best_throughput = decode_opt_point(lines, "best_throughput")?;
    p.best_energy = decode_opt_point(lines, "best_energy")?;
    p.best_edp = decode_opt_point(lines, "best_edp")?;
    p.sample = decode_point_list(lines, "sample")?;
    Ok(p)
}

fn decode_point_list(
    lines: &mut Lines<'_>,
    tag: &str,
) -> Result<Vec<DesignPoint>, CheckpointError> {
    let line = lines.next_required("missing point-list header")?;
    let count: usize = line
        .strip_prefix(tag)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| lines.err(&format!("expected `{tag} <count>`")))?;
    if count > 10_000_000 {
        return Err(lines.err("point count out of range"));
    }
    let mut points = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        points.push(decode_point(lines)?);
    }
    Ok(points)
}

fn decode_opt_point(
    lines: &mut Lines<'_>,
    tag: &str,
) -> Result<Option<DesignPoint>, CheckpointError> {
    let line = lines.next_required("missing best-point header")?;
    match line.strip_prefix(tag).map(str::trim) {
        Some("0") => Ok(None),
        Some("1") => Ok(Some(decode_point(lines)?)),
        _ => Err(lines.err(&format!("expected `{tag} 0` or `{tag} 1`"))),
    }
}

fn decode_point(lines: &mut Lines<'_>) -> Result<DesignPoint, CheckpointError> {
    let line = lines.next_required("missing point line")?;
    let rest = line
        .strip_prefix("point ")
        .ok_or_else(|| lines.err("expected `point …`"))?;
    let mut parts = rest.splitn(11, ' ');
    let mut next_u64 = |radix: u32| -> Option<u64> {
        parts
            .next()
            .and_then(|t| u64::from_str_radix(t, radix).ok())
    };
    let fields = (
        next_u64(10),
        next_u64(10),
        next_u64(10),
        next_u64(10),
        next_u64(16),
        next_u64(16),
        next_u64(16),
        next_u64(16),
        next_u64(16),
        next_u64(16),
    );
    let (
        Some(pes),
        Some(noc_bw),
        Some(l1_bytes),
        Some(l2_bytes),
        Some(area),
        Some(power),
        Some(runtime),
        Some(throughput),
        Some(energy),
        Some(edp),
    ) = fields
    else {
        return Err(lines.err("expected ten numeric point fields"));
    };
    let mapping = unescape(parts.next().unwrap_or_default());
    Ok(DesignPoint {
        pes,
        noc_bw,
        l1_bytes,
        l2_bytes,
        mapping: mapping.into(),
        area_mm2: f64::from_bits(area),
        power_mw: f64::from_bits(power),
        runtime: f64::from_bits(runtime),
        throughput: f64::from_bits(throughput),
        energy: f64::from_bits(energy),
        edp: f64::from_bits(edp),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SweepSpace;

    fn point(pes: u64, runtime: f64) -> DesignPoint {
        DesignPoint {
            pes,
            noc_bw: 16,
            l1_bytes: 512,
            l2_bytes: 1 << 20,
            mapping: "per-layer best of 5".into(),
            area_mm2: 3.5,
            power_mw: 450.0,
            runtime,
            throughput: 128.0,
            energy: 1e9,
            edp: 1e9 * runtime,
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut ckpt = Checkpoint::new(0xdead_beef_cafe_f00d, 4);
        let mut p = Partial::new();
        p.stats.explored = 1000;
        p.stats.valid = 10;
        p.pareto = vec![point(64, 5000.0), point(64, 4000.0)];
        p.best_throughput = Some(point(64, 4000.0));
        p.best_edp = Some(point(64, 4500.0));
        p.sample = vec![point(64, 4100.0)];
        ckpt.units[0] = Some(Ok(p));
        ckpt.units[2] = Some(Err("panicked: bad\nluck".to_string()));
        ckpt
    }

    #[test]
    fn round_trip_is_exact_and_canonical() {
        let ckpt = sample_checkpoint();
        let text = ckpt.encode();
        let back = Checkpoint::decode(&text).expect("decodes");
        assert_eq!(back, ckpt);
        assert_eq!(back.encode(), text, "re-encode is byte-identical");
        assert_eq!(back.completed(), 2);
        assert!(back.units[0].is_some() && back.units[1].is_none() && back.units[2].is_some());
    }

    #[test]
    fn nonfinite_floats_survive_the_round_trip() {
        let mut ckpt = Checkpoint::new(1, 1);
        let mut p = Partial::new();
        let mut pt = point(8, f64::NAN);
        pt.energy = f64::INFINITY;
        p.sample = vec![pt];
        ckpt.units[0] = Some(Ok(p));
        let back = Checkpoint::decode(&ckpt.encode()).expect("decodes");
        let Some(Ok(bp)) = &back.units[0] else {
            panic!("unit 0 lost");
        };
        assert!(bp.sample[0].runtime.is_nan());
        assert_eq!(bp.sample[0].energy, f64::INFINITY);
    }

    #[test]
    fn corruption_is_a_typed_checksum_error() {
        let text = sample_checkpoint().encode();
        // Flip one content byte (not in the trailer).
        let mut bytes = text.clone().into_bytes();
        let i = text.find("stats").expect("has stats line");
        bytes[i] ^= 0x20;
        let corrupt = String::from_utf8(bytes).expect("still utf-8");
        assert!(matches!(
            Checkpoint::decode(&corrupt),
            Err(CheckpointError::Checksum { .. })
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let text = sample_checkpoint().encode();
        // Every cut except the last (which only drops the trailing
        // newline, leaving the content — and its checksum — intact) must
        // produce a typed error, never a panic or a silent success.
        for cut in 0..text.len() - 1 {
            if !text.is_char_boundary(cut) {
                continue;
            }
            assert!(Checkpoint::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_rejected() {
        let text = sample_checkpoint().encode().replace("v1", "v9");
        assert!(matches!(
            Checkpoint::decode(&text),
            Err(CheckpointError::Version { found }) if found == "v9"
        ));

        let ckpt = sample_checkpoint();
        assert!(ckpt.validate_against(ckpt.fingerprint, 4).is_ok());
        assert!(matches!(
            ckpt.validate_against(ckpt.fingerprint + 1, 4),
            Err(CheckpointError::Fingerprint { .. })
        ));
        assert!(matches!(
            ckpt.validate_against(ckpt.fingerprint, 5),
            Err(CheckpointError::Fingerprint { .. })
        ));
    }

    #[test]
    fn garbage_input_is_a_typed_error() {
        for garbage in ["", "hello", "maestro-dse-checkpoint", "checksum 0"] {
            assert!(Checkpoint::decode(garbage).is_err(), "{garbage:?}");
        }
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("maestro-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sweep.ckpt");
        let ckpt = sample_checkpoint();
        ckpt.save(&path).expect("saves");
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "temp was renamed"
        );
        assert_eq!(Checkpoint::load(&path).expect("loads"), ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/nowhere.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(err.to_string().contains("nowhere.ckpt"));
    }

    #[test]
    fn fingerprint_tracks_every_configuration_knob() {
        use crate::variants;
        use maestro_ir::Style;
        let maps = variants::variants(Style::KCP);
        let base = Explorer::new(SweepSpace::tiny());
        let fp = |e: &Explorer, wl: &str, m: &[Dataflow]| sweep_fingerprint(e, wl, m);
        let reference = fp(&base, "layer:c", &maps);
        assert_eq!(reference, fp(&base, "layer:c", &maps), "deterministic");

        let mut other = base.clone();
        other.precision_bytes = 2;
        assert_ne!(reference, fp(&other, "layer:c", &maps));
        let mut other = base.clone();
        other.dram_pj = 99.0;
        assert_ne!(reference, fp(&other, "layer:c", &maps));
        let mut other = base.clone();
        other.space.pes.push(4096);
        assert_ne!(reference, fp(&other, "layer:c", &maps));
        // The cost models decide every cell's budget verdict and every
        // point's area and power.
        let mut other = base.clone();
        other.area_model.sram_mm2_per_byte *= 2.0;
        assert_ne!(reference, fp(&other, "layer:c", &maps));
        let mut other = base.clone();
        other.power_model.noc_mw_per_lane += 1.0;
        assert_ne!(reference, fp(&other, "layer:c", &maps));
        // Evaluation mode: the two modes agree bit-for-bit on results, so
        // a staged checkpoint resumes a full sweep and vice versa.
        let mut other = base.clone();
        other.eval = crate::EvalMode::Full;
        assert_eq!(reference, fp(&other, "layer:c", &maps));
        assert_ne!(reference, fp(&base, "layer:d", &maps));
        assert_ne!(reference, fp(&base, "layer:c", &maps[..1]));
    }
}
