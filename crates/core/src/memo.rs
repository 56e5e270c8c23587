//! [`Analyzer`]: the daemon's answer cache.
//!
//! A serving daemon is asked the same points again and again: hot layers,
//! whole models that repeat convolution shapes (VGG-16's conv3_2/conv3_3
//! are identical, ResNet-50 repeats its bottleneck blocks), batches that
//! revisit a point. The cost model is a pure function of (layer shape,
//! dataflow, accelerator), so a repeated question is answered from a
//! table.
//!
//! [`ShapeKey`] is the hashable identity of a layer as the cost model sees
//! it — dimensions, operator, and tensor densities, but *not* the name. An
//! entry is keyed by the shape, a fingerprint of the dataflow and the
//! accelerator's NoC-independent fields, and the NoC pipe. The fingerprint
//! is derived from those inputs themselves, so no caller can alias two
//! points onto one entry. Both successful reports and analysis errors are
//! memoized (cancellations never are), and each shard's table is
//! LRU-bounded so a long-lived daemon cannot grow memory without limit. A
//! miss runs the whole pipeline, as [`analyze`](crate::analyze) does.
//!
//! DSE sweeps use no `Analyzer`: they build [`StagedAnalysis`]es and
//! price them per bandwidth themselves. A layer unit prices every
//! (mapping, bandwidth) point once, and a whole-model unit reads its
//! repeated shapes from the model's layer list.
//!
//! [`StagedAnalysis`]: crate::StagedAnalysis

use crate::analysis::{analyze_at, AnalysisError};
use crate::lru::{FnvHasher, Lru};
use crate::report::LayerReport;
use maestro_dnn::{Layer, LayerDims, Operator};
use maestro_hw::{Accelerator, NocConfig};
use maestro_ir::Dataflow;
use maestro_obs::{CancelToken, Counter};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default per-shard LRU capacity: comfortably above the daemon's hot set
/// while bounding a pathological request stream to a few tens of MB.
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// The identity of a layer under the cost model: everything `analyze`
/// reads from a [`Layer`] except its name. Two layers with equal keys
/// produce equal reports for the same dataflow and accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    dims: LayerDims,
    op: Operator,
    /// Tensor densities as raw bits (f64 has no `Hash`; bit-equality is
    /// exactly the equality the pure cost model needs).
    density_bits: [u64; 3],
}

impl ShapeKey {
    /// The key of `layer`, or `None` when the layer carries a custom
    /// coupling override (those are rare and not worth hashing — callers
    /// fall back to direct analysis).
    pub fn of(layer: &Layer) -> Option<ShapeKey> {
        if layer.coupling_override.is_some() {
            return None;
        }
        Some(ShapeKey {
            dims: layer.dims,
            op: layer.op,
            density_bits: [
                layer.density.input.to_bits(),
                layer.density.weight.to_bits(),
                layer.density.output.to_bits(),
            ],
        })
    }
}

/// A table entry: the shape, the fingerprint of everything else the
/// NoC-independent stages read, and the NoC pipe.
type Entry = (ShapeKey, u64, NocConfig);

/// The shard route and the table entry of `layer` under `dataflow` on
/// `acc`. The route fingerprints the shape, the dataflow's structure and
/// the accelerator's PE count, vector width, precision, L2 capacity,
/// off-chip bandwidth and reuse support; the entry adds the NoC pipe. A
/// layer with a coupling override has no entry.
fn locate(layer: &Layer, dataflow: &Dataflow, acc: &Accelerator) -> (u64, Option<Entry>) {
    let key = ShapeKey::of(layer);
    let mut h = FnvHasher::default();
    key.hash(&mut h);
    // Structural hash: equal inputs ⇔ equal (name, directive list),
    // with no formatting in the fingerprint path.
    dataflow.hash(&mut h);
    for v in [
        acc.num_pes,
        acc.vector_width,
        acc.precision_bytes,
        acc.l2_bytes,
        acc.offchip_bandwidth,
    ] {
        h.write_u64(v);
    }
    acc.support.hash(&mut h);
    let route = h.finish();
    (route, key.map(|key| (key, route, acc.noc)))
}

/// `report` under `layer`'s name. Entries ignore names, so one built for
/// a layer also answers every other layer of the same shape.
fn named(mut report: LayerReport, layer: &Layer) -> LayerReport {
    if report.layer != layer.name {
        report.layer.clone_from(&layer.name);
    }
    report
}

/// Lookup counters of an [`Analyzer`], summed over its shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from the table.
    pub hits: u64,
    /// Lookups that ran the cost model (including uncacheable layers).
    pub misses: u64,
    /// Entries added to the table.
    pub inserts: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

impl CacheCounts {
    /// The counts in [`cache_counters`] order.
    fn array(self) -> [u64; 4] {
        [self.hits, self.misses, self.inserts, self.evictions]
    }
}

/// `OnceLock`-cached handles for the `maestro.cache.*` counters: the
/// registry lock is taken once per process.
fn cache_counters() -> &'static [Counter; 4] {
    static C: OnceLock<[Counter; 4]> = OnceLock::new();
    C.get_or_init(|| {
        let r = maestro_obs::registry();
        [
            r.counter("maestro.cache.hits"),
            r.counter("maestro.cache.misses"),
            r.counter("maestro.cache.inserts"),
            r.counter("maestro.cache.evictions"),
        ]
    })
}

/// `OnceLock`-cached handle for the shard-lock contention counter.
fn lock_waits_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| maestro_obs::registry().counter("maestro.cache.lock_waits"))
}

/// Register every `maestro.cache.*` counter, at zero until an analyzer
/// adds to it.
pub(crate) fn register_counters() {
    cache_counters();
    lock_waits_counter();
}

/// One mutex shard: an LRU table plus plain counters, so a lookup never
/// touches a shared atomic.
#[derive(Debug)]
struct Shard {
    reports: Lru<Entry, Result<LayerReport, AnalysisError>>,
    counts: CacheCounts,
    /// The part of `counts` already added to the metrics registry.
    flushed: [u64; 4],
}

impl Shard {
    /// The report at `entry` from the table, or from the cost model on a
    /// miss (and always for a layer with no entry).
    fn lookup(
        &mut self,
        entry: Option<Entry>,
        layer: &Layer,
        dataflow: &Dataflow,
        acc: &Accelerator,
        cancel: Option<&CancelToken>,
    ) -> Result<LayerReport, AnalysisError> {
        let Some(entry) = entry else {
            self.counts.misses += 1;
            return analyze_at(layer, dataflow, acc, cancel);
        };
        if let Some(cached) = self.reports.get(&entry) {
            self.counts.hits += 1;
            return cached.clone();
        }
        self.counts.misses += 1;
        let result = analyze_at(layer, dataflow, acc, cancel);
        // A deadline belongs to the request, not to the entry.
        if !matches!(result, Err(AnalysisError::Cancelled)) {
            self.counts.evictions += self.reports.insert(entry, result.clone());
            self.counts.inserts += 1;
        }
        result
    }
}

/// The memoized cost model: [`analyze`](crate::analyze) behind `Mutex`
/// shards of one LRU table each (see the module docs).
///
/// The serving daemon shares one many-shard analyzer across its workers.
/// Entries are routed by their NoC-independent fingerprint, so distinct
/// shapes spread over the shards. A lock acquisition that has to wait is
/// counted in `maestro.cache.lock_waits`.
///
/// Lookup counters stay in the shards (no shared atomic per lookup) and
/// reach the `maestro.cache.*` registry counters as deltas on
/// [`Analyzer::flush_metrics`] and on drop.
#[derive(Debug)]
pub struct Analyzer {
    shards: Box<[Mutex<Shard>]>,
}

impl Analyzer {
    /// An analyzer of `shards` shards (at least 1), each holding at most
    /// `cap` entries (`0` = unbounded).
    pub fn new(shards: usize, cap: usize) -> Self {
        Analyzer {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        reports: Lru::new(cap),
                        counts: CacheCounts::default(),
                        flushed: [0; 4],
                    })
                })
                .collect(),
        }
    }

    /// The report for `layer` under `dataflow` on `acc`, from the table
    /// or from the cost model. With a `cancel` token, a computation stops
    /// at the next stage boundary once the token trips; cache hits are
    /// returned regardless. The report carries `layer`'s name even when
    /// the entry was built for another layer of the same shape.
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) [`AnalysisError`] from the cost model,
    /// plus [`AnalysisError::Cancelled`] (never memoized) when `cancel`
    /// trips before completion.
    pub fn analyze(
        &self,
        layer: &Layer,
        dataflow: &Dataflow,
        acc: &Accelerator,
        cancel: Option<&CancelToken>,
    ) -> Result<LayerReport, AnalysisError> {
        let (route, entry) = locate(layer, dataflow, acc);
        let result = self
            .shard(route)
            .lookup(entry, layer, dataflow, acc, cancel);
        result.map(|report| named(report, layer))
    }

    /// The cached successful report for `layer` under `dataflow` on
    /// `acc`, if the table holds one. Read-only: no counters and no LRU
    /// promotion, because a brownout probe asks "can this be served for
    /// free right now?" and the caller may still shed the request.
    pub fn peek(
        &self,
        layer: &Layer,
        dataflow: &Dataflow,
        acc: &Accelerator,
    ) -> Option<LayerReport> {
        let (route, entry) = locate(layer, dataflow, acc);
        let entry = entry?;
        let cached = self
            .shard(route)
            .reports
            .peek(&entry)
            .and_then(|r| r.as_ref().ok().cloned());
        cached.map(|report| named(report, layer))
    }

    /// Lookup counters summed over all shards (takes each shard lock in
    /// turn).
    pub fn counts(&self) -> CacheCounts {
        let mut sum = [0u64; 4];
        for shard in self.shards.iter() {
            let counts = lock(shard).counts.array();
            for (s, c) in sum.iter_mut().zip(counts) {
                *s += c;
            }
        }
        let [hits, misses, inserts, evictions] = sum;
        CacheCounts {
            hits,
            misses,
            inserts,
            evictions,
        }
    }

    /// Add the counts accumulated since the last flush to the
    /// `maestro.cache.*` registry counters. A long-lived analyzer (the
    /// daemon's) calls this before rendering `/metrics`; every analyzer
    /// flushes once more on drop.
    pub fn flush_metrics(&self) {
        self.flush_into(cache_counters());
    }

    fn flush_into(&self, counters: &[Counter; 4]) {
        for shard in self.shards.iter() {
            let mut shard = lock(shard);
            let now = shard.counts.array();
            for ((counter, n), done) in counters.iter().zip(now).zip(shard.flushed.iter_mut()) {
                if n > *done {
                    counter.add(n - *done);
                    *done = n;
                }
            }
        }
    }

    /// The locked shard owning entries routed to `route`.
    fn shard(&self, route: u64) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(route % self.shards.len() as u64) as usize])
    }
}

impl Drop for Analyzer {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

/// Lock a shard, counting acquisitions that had to wait. A poisoned
/// shard (a panicking analysis under `catch_unwind`) is recovered: it
/// holds only finished `Result`s, so its state is sound.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    if let Ok(guard) = shard.try_lock() {
        return guard;
    }
    lock_waits_counter().inc();
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, analyze_model};
    use maestro_dnn::{zoo, Density, Layer, LayerDims, Operator};
    use maestro_ir::Style;

    fn layer(name: &str) -> Layer {
        Layer::new(
            name,
            Operator::conv2d(),
            LayerDims::square(1, 32, 32, 34, 3),
        )
    }

    fn at_bw(bw: u64) -> Accelerator {
        Accelerator::builder(64).noc(NocConfig::new(bw, 2)).build()
    }

    #[test]
    fn key_ignores_name_but_not_shape() {
        let a = ShapeKey::of(&layer("a")).unwrap();
        let b = ShapeKey::of(&layer("b")).unwrap();
        assert_eq!(a, b);
        let bigger = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 64, 32, 34, 3));
        assert_ne!(a, ShapeKey::of(&bigger).unwrap());
    }

    #[test]
    fn key_distinguishes_density() {
        let dense = layer("d");
        let mut sparse = layer("d");
        sparse.density = Density {
            input: 0.5,
            weight: 1.0,
            output: 1.0,
        };
        assert_ne!(
            ShapeKey::of(&dense).unwrap(),
            ShapeKey::of(&sparse).unwrap()
        );
    }

    /// Pins the deadline bugfix: a tripped token yields `Cancelled`, and
    /// that outcome is never memoized — the next request with budget gets
    /// the real report and subsequent calls hit the table.
    #[test]
    fn cancelled_results_are_not_memoized() {
        let acc = Accelerator::builder(64).build();
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let cache = Analyzer::new(1, DEFAULT_CACHE_CAP);

        let tripped = CancelToken::detached();
        tripped.cancel();
        assert!(matches!(
            cache.analyze(&l, &df, &acc, Some(&tripped)),
            Err(AnalysisError::Cancelled)
        ));

        let fresh = CancelToken::detached();
        let report = cache
            .analyze(&l, &df, &acc, Some(&fresh))
            .expect("cancelled outcome must not poison the cache");
        assert_eq!(report, analyze(&l, &df, &acc).expect("analyzable"));

        let hits_before = cache.counts().hits;
        cache
            .analyze(&l, &df, &acc, Some(&fresh))
            .expect("analyzable");
        assert_eq!(
            cache.counts().hits,
            hits_before + 1,
            "the table now serves it"
        );
    }

    #[test]
    fn sharded_cancellable_matches_plain() {
        let acc = Accelerator::builder(64).build();
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let shared = Analyzer::new(4, 0);

        let tripped = CancelToken::detached();
        tripped.cancel();
        assert!(matches!(
            shared.analyze(&l, &df, &acc, Some(&tripped)),
            Err(AnalysisError::Cancelled)
        ));

        let fresh = CancelToken::detached();
        let via_token = shared
            .analyze(&l, &df, &acc, Some(&fresh))
            .expect("analyzable");
        let plain = shared.analyze(&l, &df, &acc, None).expect("analyzable");
        assert_eq!(via_token, plain);
    }

    /// A live token changes nothing; a tripped one stops every path,
    /// the uncacheable direct path included.
    #[test]
    fn cancellable_lookups_match_plain_calls_and_honor_the_token() {
        let l = Layer::new("c", Operator::conv2d(), LayerDims::square(1, 16, 16, 18, 3));
        let mut custom = l.clone();
        custom.coupling_override = Some(custom.op.coupling());
        let acc = Accelerator::builder(64).build();
        let df = Style::KCP.dataflow();
        let live = CancelToken::detached();
        let cache = Analyzer::new(1, DEFAULT_CACHE_CAP);
        for layer in [&l, &custom] {
            assert_eq!(
                cache.analyze(layer, &df, &acc, Some(&live)).unwrap(),
                analyze(layer, &df, &acc).unwrap()
            );
        }
        let model = zoo::alexnet(1);
        let layers: Vec<LayerReport> = model
            .iter()
            .map(|layer| cache.analyze(layer, &df, &acc, Some(&live)).unwrap())
            .collect();
        assert_eq!(layers, analyze_model(&model, &df, &acc).unwrap().layers);

        let tripped = CancelToken::detached();
        tripped.cancel();
        let cold = Analyzer::new(1, DEFAULT_CACHE_CAP);
        for layer in [&l, &custom] {
            assert_eq!(
                cold.analyze(layer, &df, &acc, Some(&tripped)).unwrap_err(),
                AnalysisError::Cancelled
            );
        }
    }

    #[test]
    fn cache_hits_match_direct_analysis() {
        let acc = Accelerator::builder(64).build();
        let l = layer("x");
        let renamed = layer("renamed");
        let df = Style::KCP.dataflow();
        let cache = Analyzer::new(1, DEFAULT_CACHE_CAP);
        let first = cache.analyze(&l, &df, &acc, None).expect("analyzable");
        let second = cache
            .analyze(&renamed, &df, &acc, None)
            .expect("analyzable");
        assert_eq!(cache.counts().misses, 1);
        assert_eq!(cache.counts().hits, 1);
        assert_eq!(first, analyze(&l, &df, &acc).expect("analyzable"));
        // The hit carries the requesting layer's name, not the first
        // same-shape layer's.
        assert_eq!(second, analyze(&renamed, &df, &acc).expect("analyzable"));
    }

    /// Regression for the stale-report footgun: under the old API a caller
    /// reusing `tag = 0` for two different dataflows (or accelerators) got
    /// the first context's report back for the second. The fingerprint is
    /// derived internally now, so the same call sequence must produce two
    /// distinct, correct entries.
    #[test]
    fn contexts_separate_automatically() {
        let acc = Accelerator::builder(64).build();
        let l = layer("x");
        let kcp = Style::KCP.dataflow();
        let ycp = Style::YXP.dataflow();
        let cache = Analyzer::new(1, DEFAULT_CACHE_CAP);
        let a = cache.analyze(&l, &kcp, &acc, None).expect("analyzable");
        let b = cache.analyze(&l, &ycp, &acc, None).expect("analyzable");
        assert_eq!(cache.counts().misses, 2);
        assert_eq!(cache.counts().hits, 0);
        assert_eq!(a, analyze(&l, &kcp, &acc).unwrap());
        assert_eq!(b, analyze(&l, &ycp, &acc).unwrap());
        // Same dataflow, different accelerator: also distinct.
        let wider = Accelerator::builder(64).noc(NocConfig::new(256, 1)).build();
        let c = cache.analyze(&l, &kcp, &wider, None).expect("analyzable");
        assert_eq!(cache.counts().misses, 3);
        assert_eq!(c, analyze(&l, &kcp, &wider).unwrap());
        // And every context replays from the table.
        let _ = cache.analyze(&l, &kcp, &acc, None);
        let _ = cache.analyze(&l, &ycp, &acc, None);
        let _ = cache.analyze(&l, &kcp, &wider, None);
        assert_eq!(cache.counts().hits, 3);
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let cache = Analyzer::new(1, 2);
        for bw in [1u64, 2, 3] {
            cache
                .analyze(&l, &df, &at_bw(bw), None)
                .expect("analyzable");
        }
        assert_eq!(cache.counts().evictions, 1);
        // bw=1 was evicted: re-analyzing it is a miss, evicting bw=2.
        let acc1 = at_bw(1);
        let direct = analyze(&l, &df, &acc1).unwrap();
        assert_eq!(cache.analyze(&l, &df, &acc1, None).unwrap(), direct);
        let counts = cache.counts();
        assert_eq!(counts.misses, 4);
        assert_eq!(counts.evictions, 2);
        assert_eq!(counts.hits, 0);
    }

    #[test]
    fn coupling_override_bypasses_cache() {
        let mut l = layer("x");
        l.coupling_override = Some(l.op.coupling());
        assert!(ShapeKey::of(&l).is_none());
        let df = Style::KCP.dataflow();
        let acc = Accelerator::builder(64).build();
        let cache = Analyzer::new(1, DEFAULT_CACHE_CAP);
        for _ in 0..2 {
            assert_eq!(cache.analyze(&l, &df, &acc, None), analyze(&l, &df, &acc));
        }
        assert_eq!(cache.counts().misses, 2);
        assert_eq!(cache.counts().inserts, 0);
        assert_eq!(cache.peek(&l, &df, &acc), None);
    }

    #[test]
    fn shared_cache_matches_direct_analysis_and_counts_hits() {
        let shared = Analyzer::new(4, 64);
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let acc = Accelerator::builder(64).build();
        let direct = analyze(&l, &df, &acc).expect("analyzable");
        assert_eq!(shared.analyze(&l, &df, &acc, None).unwrap(), direct);
        assert_eq!(shared.analyze(&l, &df, &acc, None).unwrap(), direct);
        let counts = shared.counts();
        assert_eq!((counts.hits, counts.misses), (1, 1));
    }

    #[test]
    fn shared_cache_serves_concurrent_threads() {
        let shared = Analyzer::new(2, 64);
        let df = Style::KCP.dataflow();
        let direct = analyze(&layer("t"), &df, &at_bw(8)).expect("analyzable");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for bw in [1u64, 2, 4, 8, 16] {
                        let r = shared.analyze(&layer("t"), &df, &at_bw(bw), None).unwrap();
                        if bw == 8 {
                            assert_eq!(r, direct);
                        }
                    }
                });
            }
        });
        let CacheCounts { hits, misses, .. } = shared.counts();
        assert_eq!(hits + misses, 20, "every lookup accounted for");
        assert!(
            hits >= 15,
            "at most one miss per NoC point: {hits}/{misses}"
        );
    }

    /// A brownout probe serves only finished reports, under the asking
    /// layer's name, and leaves every counter alone.
    #[test]
    fn peek_is_read_only_and_names_the_asking_layer() {
        let l = layer("x");
        let renamed = layer("renamed");
        let df = Style::KCP.dataflow();
        let acc = Accelerator::builder(64).build();
        let cache = Analyzer::new(4, DEFAULT_CACHE_CAP);
        assert_eq!(cache.peek(&l, &df, &acc), None);
        cache.analyze(&l, &df, &acc, None).expect("analyzable");
        let before = cache.counts();
        let peeked = cache.peek(&renamed, &df, &acc);
        assert_eq!(peeked, Some(analyze(&renamed, &df, &acc).unwrap()));
        let other_noc = Accelerator::builder(64)
            .noc(NocConfig::new(acc.noc.bandwidth + 1, acc.noc.avg_latency))
            .build();
        assert_eq!(cache.peek(&l, &df, &other_noc), None);
        assert_eq!(cache.counts(), before);
    }

    /// Counts reach the registry as deltas: a second flush adds only what
    /// accrued since the first, so a live analyzer can flush on every
    /// `/metrics` render without double counting.
    #[test]
    fn flushes_add_only_new_counts() {
        let registry = maestro_obs::Registry::new();
        let counters = ["hits", "misses", "inserts", "evictions"]
            .map(|n| registry.counter(&format!("maestro.test.cache.{n}")));
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let acc = Accelerator::builder(64).build();
        let cache = Analyzer::new(2, DEFAULT_CACHE_CAP);
        cache.analyze(&l, &df, &acc, None).expect("analyzable");
        cache.analyze(&l, &df, &acc, None).expect("analyzable");
        cache.flush_into(&counters);
        let read = || counters.each_ref().map(Counter::get);
        assert_eq!(read(), [1, 1, 1, 0]);
        cache.flush_into(&counters);
        assert_eq!(read(), [1, 1, 1, 0], "nothing new, nothing added");
        cache.analyze(&l, &df, &acc, None).expect("analyzable");
        cache.flush_into(&counters);
        assert_eq!(read(), [2, 1, 1, 0]);
    }
}
