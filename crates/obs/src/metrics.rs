//! A process-global registry of named counters, gauges and fixed-bucket
//! histograms, rendered in the Prometheus text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! atomics: register once (a mutex-guarded name lookup), then update
//! lock-free from any thread. The instrumented hot paths batch their
//! local tallies and flush once per unit of work, so the steady-state
//! cost of metrics on the DSE hot loop is zero.
//!
//! Rendering sanitizes the dotted naming scheme (`maestro.dse.valid` →
//! `maestro_dse_valid`) and emits `# TYPE` headers, histogram
//! `_bucket{le=...}` / `_sum` / `_count` series, and bare samples for
//! counters and gauges. [`parse_exposition`] reads that format back —
//! used by the round-trip tests and available to downstream tooling.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Stored as `f64` bits.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `delta` (may be negative) via a CAS loop over the
    /// stored bits — safe under concurrent updates, unlike a read/`set`
    /// pair which can lose increments between the two steps.
    pub fn add(&self, delta: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Atomically increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Atomically decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed, cumulative-style bucket upper bounds.
///
/// Bounds are set at first registration and never change afterwards —
/// stable boundaries are part of the exposition contract (dashboards and
/// the round-trip tests rely on them). Values are recorded into the first
/// bucket whose bound is `>= value`; everything overflows into the
/// implicit `+Inf` bucket. The sum is accumulated in micro-units
/// (`value * 1e6` rounded) so it can live in an atomic without locking.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<f64>,
    /// One per bound, plus the `+Inf` overflow bucket last. Non-cumulative
    /// internally; rendering accumulates.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ observed values, in micro-units.
    sum_micros: AtomicU64,
}

impl Histogram {
    /// Record one observation. Negative and NaN values clamp into the
    /// first bucket (they still count toward `_count`), so a buggy
    /// observation can never panic or vanish silently.
    pub fn observe(&self, v: f64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let micros = if v.is_finite() && v > 0.0 {
            (v * 1e6).round() as u64
        } else {
            0
        };
        self.inner.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Σ of observed values.
    pub fn sum(&self) -> f64 {
        self.inner.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// The configured bucket upper bounds (excluding `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }

    /// Cumulative bucket counts, one per bound plus the final `+Inf`.
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.inner
            .buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    /// Estimate the `q`-quantile of the recorded distribution (see the
    /// free [`quantile`] function for the interpolation rule).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(self.bounds(), &self.cumulative_buckets(), q)
    }
}

/// Log-spaced histogram bucket upper bounds: `per_decade` geometrically
/// spaced bounds per factor of 10, from `min` up to (and including) a
/// bound at `max`. Bounds are rounded to 3 significant digits so the
/// exposition labels stay readable (`0.001`, `0.00178`, `0.00316`, ...).
///
/// Degenerate inputs are clamped rather than panicking: non-positive
/// `min` becomes `1e-6`, `per_decade` 0 becomes 1, and the series is
/// capped at 256 bounds.
pub fn log_buckets(min: f64, max: f64, per_decade: u32) -> Vec<f64> {
    let min = if min.is_finite() && min > 0.0 {
        min
    } else {
        1e-6
    };
    let max = if max.is_finite() && max > min {
        max
    } else {
        min
    };
    let ratio = 10f64.powf(1.0 / per_decade.max(1) as f64);
    let mut out = Vec::new();
    let mut b = min;
    // Stop just shy of max so rounding jitter can't emit a bound that
    // duplicates the final exact-max bound.
    while b < max * 0.999 && out.len() < 255 {
        out.push(round_sig3(b));
        b *= ratio;
    }
    out.push(round_sig3(max));
    out.dedup();
    out
}

/// Round to 3 significant digits.
fn round_sig3(v: f64) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let mag = v.abs().log10().floor();
    // Scale by an exact power of ten: dividing by an inexact 10^-k would
    // print 3.16e7 as 31599999.999999996.
    if mag >= 2.0 {
        let unit = 10f64.powf(mag - 2.0);
        (v / unit).round() * unit
    } else {
        let scale = 10f64.powf(2.0 - mag);
        (v * scale).round() / scale
    }
}

/// Estimate the `q`-quantile from histogram buckets, the same way
/// Prometheus' `histogram_quantile` does: find the bucket the target
/// rank falls in, then interpolate linearly between the bucket's edges
/// (the first bucket's lower edge is 0). Ranks landing in the `+Inf`
/// overflow bucket clamp to the last finite bound.
///
/// `cumulative` must be the cumulative counts, one per bound plus the
/// final `+Inf` entry — exactly what
/// [`Histogram::cumulative_buckets`] returns. Returns `NaN` for an empty
/// histogram; `q` is clamped to `[0, 1]`.
pub fn quantile(bounds: &[f64], cumulative: &[u64], q: f64) -> f64 {
    let total = cumulative.last().copied().unwrap_or(0);
    if total == 0 {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let target = q * total as f64;
    let mut prev = 0u64;
    for (idx, &cum) in cumulative.iter().enumerate() {
        if (cum as f64) >= target && cum > prev {
            let lower = if idx == 0 { 0.0 } else { bounds[idx - 1] };
            if idx >= bounds.len() {
                // +Inf bucket: no finite upper edge to interpolate to.
                return bounds.last().copied().unwrap_or(f64::NAN);
            }
            let upper = bounds[idx];
            let in_bucket = (cum - prev) as f64;
            let frac = ((target - prev as f64) / in_bucket).clamp(0.0, 1.0);
            return lower + frac * (upper - lower);
        }
        prev = cum;
    }
    bounds.last().copied().unwrap_or(f64::NAN)
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A constant-1 gauge carrying identity labels (the Prometheus
    /// `*_info` idiom, e.g. `maestro_build_info{version=...,git=...} 1`).
    Info(Vec<(String, String)>),
}

/// The metrics registry: a name → metric table.
#[derive(Debug, Default)]
pub struct Registry {
    // BTreeMap so the exposition is deterministically ordered.
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// A fresh, private registry (tests; production code uses
    /// [`registry`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            // Same name registered as a different kind: a programming
            // error, but panicking in a metrics path is worse than
            // handing back a detached handle.
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        }
    }

    /// Get or create the histogram `name` with the given bucket upper
    /// bounds (ascending; the `+Inf` bucket is implicit). If `name`
    /// already exists, the *existing* boundaries win — they are fixed for
    /// the life of the process.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut m = self.lock();
        match m.entry(name.to_string()).or_insert_with(|| {
            let mut sorted: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
            sorted.sort_by(f64::total_cmp);
            sorted.dedup();
            let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
            Metric::Histogram(Histogram {
                inner: Arc::new(HistogramInner {
                    bounds: sorted,
                    buckets,
                    count: AtomicU64::new(0),
                    sum_micros: AtomicU64::new(0),
                }),
            })
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram {
                inner: Arc::new(HistogramInner {
                    bounds: Vec::new(),
                    buckets: vec![AtomicU64::new(0)],
                    count: AtomicU64::new(0),
                    sum_micros: AtomicU64::new(0),
                }),
            },
        }
    }

    /// Register (or replace) the info metric `name`: a constant-1 gauge
    /// whose labels carry build/identity metadata. Label values are
    /// escaped on render, so any string is safe.
    pub fn info(&self, name: &str, labels: &[(&str, &str)]) {
        let mut m = self.lock();
        m.insert(
            name.to_string(),
            Metric::Info(
                labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            ),
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned registry mutex means some other thread panicked
        // mid-registration; the map itself is still structurally sound.
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Render every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let m = self.lock();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            let pname = sanitize(name);
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = writeln!(out, "{pname} {}", fmt_f64(g.get()));
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    let cumulative = h.cumulative_buckets();
                    for (bound, count) in h.bounds().iter().zip(&cumulative) {
                        let _ =
                            writeln!(out, "{pname}_bucket{{le=\"{}\"}} {count}", fmt_f64(*bound));
                    }
                    let total = cumulative.last().copied().unwrap_or(0);
                    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {total}");
                    let _ = writeln!(out, "{pname}_sum {}", fmt_f64(h.sum()));
                    let _ = writeln!(out, "{pname}_count {}", h.count());
                }
                Metric::Info(labels) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = write!(out, "{pname}{{");
                    for (i, (k, v)) in labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}=\"{}\"", sanitize(k), escape_label(v));
                    }
                    let _ = writeln!(out, "}} 1");
                }
            }
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map the dotted scheme
/// (and any stray `-`) onto `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Format a float the way Prometheus expects: integral values without a
/// trailing `.0`, everything else in shortest-roundtrip form.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a label value per the Prometheus text format: backslash,
/// double quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One parsed sample of an exposition: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sanitized metric name (including `_bucket`/`_sum`/`_count`
    /// suffixes for histogram series).
    pub name: String,
    /// The `le` label for histogram buckets, if present.
    pub le: Option<String>,
    /// The full label set, unescaped, in exposition order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// Look up a label value by key.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a Prometheus text exposition back into samples (comments and
/// `# TYPE` lines are skipped). Supports the subset this module renders:
/// bare samples and quoted, escaped label sets.
pub fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((n, rest)) => (
                n.to_string(),
                parse_labels(rest.strip_suffix('}').unwrap_or(rest)),
            ),
        };
        let le = labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.clone());
        samples.push(Sample {
            name,
            le,
            labels,
            value,
        });
    }
    samples
}

/// Parse the inside of a `{...}` label set, honoring quoting and the
/// `\\` / `\"` / `\n` escapes [`escape_label`] emits.
fn parse_labels(s: &str) -> Vec<(String, String)> {
    let mut labels = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(&c) if c == ',' || c.is_whitespace()) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            break; // malformed tail; keep what we have
        }
        let mut val = String::new();
        loop {
            match chars.next() {
                None | Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('n') => val.push('\n'),
                    Some('"') => val.push('"'),
                    Some('\\') => val.push('\\'),
                    Some(other) => {
                        val.push('\\');
                        val.push(other);
                    }
                    None => break,
                },
                Some(c) => val.push(c),
            }
        }
        labels.push((key.trim().to_string(), val));
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_accumulate() {
        let r = Registry::new();
        let a = r.counter("maestro.test.ops");
        let b = r.counter("maestro.test.ops");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4, "handles share the same cell");
        let g = r.gauge("maestro.test.level");
        g.set(2.5);
        assert!((r.gauge("maestro.test.level").get() - 2.5).abs() < 1e-12);
    }

    /// Pins the `in_flight`-style race: N threads doing paired inc/dec
    /// must leave the gauge at exactly zero. With the old read-then-`set`
    /// update pattern interleavings lost updates and the gauge drifted.
    #[test]
    fn gauge_add_is_atomic_under_contention() {
        let r = Registry::new();
        let g = r.gauge("maestro.test.contended");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        g.inc();
                        g.dec();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(g.get(), 0.0, "paired inc/dec must cancel exactly");

        g.add(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_boundaries_are_stable() {
        let r = Registry::new();
        let h = r.histogram("maestro.test.lat", &[0.1, 1.0, 10.0]);
        // Re-registration with different bounds must NOT change them.
        let h2 = r.histogram("maestro.test.lat", &[99.0]);
        assert_eq!(h.bounds(), &[0.1, 1.0, 10.0]);
        assert_eq!(h2.bounds(), &[0.1, 1.0, 10.0]);

        h.observe(0.05); // -> le 0.1
        h.observe(0.5); // -> le 1.0
        h.observe(0.7); // -> le 1.0
        h.observe(5.0); // -> le 10.0
        h.observe(100.0); // -> +Inf
        assert_eq!(h.cumulative_buckets(), vec![1, 3, 4, 5]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.25).abs() < 1e-6, "{}", h.sum());
    }

    #[test]
    fn histogram_clamps_degenerate_observations() {
        let r = Registry::new();
        let h = r.histogram("maestro.test.weird", &[1.0]);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 2);
        // NaN fails every `<=`, so it lands in +Inf; negatives land in
        // the first bucket. Neither panics, both count.
        assert_eq!(h.cumulative_buckets(), vec![1, 2]);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn exposition_round_trips() {
        let r = Registry::new();
        r.counter("maestro.rt.hits").add(42);
        r.gauge("maestro.rt.threads").set(8.0);
        let h = r.histogram("maestro.rt.seconds", &[0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.05);
        h.observe(3.0);

        let text = r.render_prometheus();
        assert!(text.contains("# TYPE maestro_rt_hits counter"), "{text}");
        assert!(text.contains("maestro_rt_hits 42"), "{text}");
        assert!(
            text.contains("# TYPE maestro_rt_seconds histogram"),
            "{text}"
        );

        let samples = parse_exposition(&text);
        let find = |name: &str, le: Option<&str>| -> f64 {
            samples
                .iter()
                .find(|s| s.name == name && s.le.as_deref() == le)
                .unwrap_or_else(|| panic!("missing {name} le={le:?} in:\n{text}"))
                .value
        };
        assert_eq!(find("maestro_rt_hits", None), 42.0);
        assert_eq!(find("maestro_rt_threads", None), 8.0);
        assert_eq!(find("maestro_rt_seconds_bucket", Some("0.001")), 1.0);
        assert_eq!(find("maestro_rt_seconds_bucket", Some("0.1")), 2.0);
        assert_eq!(find("maestro_rt_seconds_bucket", Some("+Inf")), 3.0);
        assert_eq!(find("maestro_rt_seconds_count", None), 3.0);
        assert!((find("maestro_rt_seconds_sum", None) - 3.0505).abs() < 1e-4);

        // Render → parse → the same bucket counts the handles report.
        assert_eq!(h.cumulative_buckets(), vec![1, 1, 2, 3]);
    }

    #[test]
    fn sanitize_maps_dots_and_dashes() {
        assert_eq!(sanitize("maestro.dse.unit-rate"), "maestro_dse_unit_rate");
    }

    #[test]
    fn log_buckets_are_geometric_and_bounded() {
        let b = log_buckets(0.001, 10.0, 3);
        // 3 per decade over 4 decades = 12 steps + the exact max.
        assert_eq!(b.len(), 13, "{b:?}");
        assert_eq!(b[0], 0.001);
        assert_eq!(b[1], 0.00215);
        assert_eq!(b[2], 0.00464);
        assert_eq!(b[3], 0.01);
        assert_eq!(*b.last().unwrap(), 10.0);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
        // Large bounds are exact, so they print as written.
        let big = log_buckets(1e3, 1e12, 2);
        assert_eq!(big.len(), 19, "{big:?}");
        assert_eq!(big[9], 31_600_000.0, "{big:?}");
        assert_eq!(big[9].to_string(), "31600000");
        // Degenerate inputs clamp instead of panicking.
        assert!(!log_buckets(-1.0, 0.0, 0).is_empty());
        assert!(log_buckets(1e-9, 1e9, 100).len() <= 256);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // Bounds 10/20/40, counts: 4 in (0,10], 4 in (10,20], 2 in +Inf.
        let bounds = [10.0, 20.0, 40.0];
        let cumulative = [4, 8, 8, 10];
        // p50 → rank 5 of 10 → 1 into the 4-count (10,20] bucket: 12.5.
        assert!((quantile(&bounds, &cumulative, 0.5) - 12.5).abs() < 1e-9);
        // p25 → rank 2.5 of 10 → 62.5% through (0,10]: 6.25.
        assert!((quantile(&bounds, &cumulative, 0.25) - 6.25).abs() < 1e-9);
        // p80 → rank 8 → exactly the top of (10,20].
        assert!((quantile(&bounds, &cumulative, 0.8) - 20.0).abs() < 1e-9);
        // p99 lands in +Inf → clamps to the last finite bound.
        assert_eq!(quantile(&bounds, &cumulative, 0.99), 40.0);
        // q is clamped; empty histograms answer NaN.
        assert_eq!(quantile(&bounds, &cumulative, 2.0), 40.0);
        assert!(quantile(&bounds, &[0, 0, 0, 0], 0.5).is_nan());
        assert!(quantile(&[], &[], 0.5).is_nan());
    }

    #[test]
    fn histogram_quantile_matches_free_function() {
        let r = Registry::new();
        let h = r.histogram("maestro.test.q", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0] {
            h.observe(v);
        }
        let direct = h.quantile(0.5);
        let free = quantile(h.bounds(), &h.cumulative_buckets(), 0.5);
        assert_eq!(direct, free);
        // rank 2 of 4 → halfway through the 2-count (1,2] bucket.
        assert!((direct - 1.5).abs() < 1e-9, "{direct}");
    }

    #[test]
    fn info_metric_renders_constant_one_with_labels() {
        let r = Registry::new();
        r.info(
            "maestro.build_info",
            &[("version", "0.1.0"), ("git", "abc1234")],
        );
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE maestro_build_info gauge"), "{text}");
        assert!(
            text.contains("maestro_build_info{version=\"0.1.0\",git=\"abc1234\"} 1"),
            "{text}"
        );
        let samples = parse_exposition(&text);
        let s = samples
            .iter()
            .find(|s| s.name == "maestro_build_info")
            .expect("info sample");
        assert_eq!(s.value, 1.0);
        assert_eq!(s.label("version"), Some("0.1.0"));
        assert_eq!(s.label("git"), Some("abc1234"));
    }

    #[test]
    fn label_escaping_round_trips_hostile_values() {
        let hostile = "a\\b\"c\nd,e}f{g=h";
        let r = Registry::new();
        r.info("maestro.test.esc", &[("v", hostile), ("plain", "ok")]);
        let text = r.render_prometheus();
        // The rendered line is still one line (newline escaped).
        let line = text
            .lines()
            .find(|l| l.starts_with("maestro_test_esc{"))
            .expect("info line");
        assert!(line.contains("\\n"), "{line}");
        let samples = parse_exposition(&text);
        let s = samples
            .iter()
            .find(|s| s.name == "maestro_test_esc")
            .expect("esc sample");
        assert_eq!(s.label("v"), Some(hostile));
        assert_eq!(s.label("plain"), Some("ok"));
    }

    #[test]
    fn concurrent_updates_during_render_stay_consistent() {
        // Worker threads hammer a counter + histogram while the main
        // thread renders and re-parses in a loop — the shape the serve
        // worker pool produces when /metrics is scraped under load. The
        // parsed exposition must always be well-formed and every parsed
        // histogram must satisfy its own invariants (cumulative buckets
        // nondecreasing, +Inf == _count).
        let r = std::sync::Arc::new(Registry::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Every writer finishes one update before the first render, so
        // the renders below always overlap live writers and `total > 0`
        // does not depend on how the scheduler orders the threads.
        let started = std::sync::Arc::new(std::sync::Barrier::new(5));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = std::sync::Arc::clone(&r);
            let stop = std::sync::Arc::clone(&stop);
            let started = std::sync::Arc::clone(&started);
            handles.push(std::thread::spawn(move || {
                let c = r.counter("maestro.test.conc.ops");
                let h = r.histogram("maestro.test.conc.lat", &[0.001, 0.01, 0.1, 1.0]);
                let mut n = 0u64;
                loop {
                    c.inc();
                    h.observe((n % 7) as f64 * 0.03);
                    // Churn registration too: lookups race with renders.
                    let _ = r.gauge(if t % 2 == 0 {
                        "maestro.test.conc.g0"
                    } else {
                        "maestro.test.conc.g1"
                    });
                    n += 1;
                    if n == 1 {
                        started.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                n
            }));
        }
        started.wait();
        for _ in 0..50 {
            let text = r.render_prometheus();
            let samples = parse_exposition(&text);
            let bucket_of = |le: &str| {
                samples
                    .iter()
                    .find(|s| {
                        s.name == "maestro_test_conc_lat_bucket" && s.le.as_deref() == Some(le)
                    })
                    .map(|s| s.value)
            };
            if let (Some(inf), Some(count)) = (
                bucket_of("+Inf"),
                samples
                    .iter()
                    .find(|s| s.name == "maestro_test_conc_lat_count")
                    .map(|s| s.value),
            ) {
                // Rendering reads bucket cells then the count cell;
                // each worker has at most one observe in flight between
                // its bucket and count increments, so the count snapshot
                // can trail the +Inf snapshot by at most the thread
                // count.
                assert!(count + 4.0 >= inf, "count {count} < +Inf {inf}\n{text}");
            }
            let mut prev = 0.0;
            for s in samples
                .iter()
                .filter(|s| s.name == "maestro_test_conc_lat_bucket")
            {
                assert!(s.value >= prev, "buckets not cumulative:\n{text}");
                prev = s.value;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(r.counter("maestro.test.conc.ops").get(), total);
    }
}
