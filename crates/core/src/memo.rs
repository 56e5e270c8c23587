//! [`Analyzer`]: the memoized way into the cost model.
//!
//! Design-space exploration re-analyzes the same layer *shape* many times:
//! networks repeat convolution shapes (VGG-16's conv3_2/conv3_3 are
//! identical, ResNet-50 repeats its bottleneck blocks), and a whole-model
//! sweep evaluates every mapping on every one of them at every hardware
//! point. The cost model is a pure function of (layer shape, dataflow,
//! accelerator), so those repeats can be served from a table.
//!
//! [`ShapeKey`] is the hashable identity of a layer as the cost model sees
//! it — dimensions, operator, and tensor densities, but *not* the name. A
//! [`Context`] pins one (layer, dataflow, static accelerator) triple and
//! fingerprints it once; each lookup then supplies only the NoC pipe, so a
//! sweep along the bandwidth axis never re-hashes the dataflow. The
//! fingerprint is derived from the context's own inputs, so no caller can
//! alias two contexts onto one entry. Both successful reports and
//! analysis errors are memoized (cancellations never are), and both tiers
//! are LRU-bounded so long sweeps cannot grow memory without limit.
//!
//! Every shard of an [`Analyzer`] is two-tier:
//!
//! * a **report tier** keyed by (shape, context fingerprint, NoC pipe)
//!   holding finished [`LayerReport`]s;
//! * a **stage tier** keyed by (shape, context fingerprint) holding
//!   [`StagedAnalysis`] builds, shared across every NoC pipe of the
//!   context — this is what makes a sweep over NoC bandwidths run the
//!   expensive stages once.
//!
//! [`Analyzer::analyze`] goes through both tiers; it serves the daemon and
//! whole-model sweeps, whose repeated shapes hit finished reports. (A DSE
//! layer sweep prices each (mapping, bandwidth) point exactly once, so it
//! builds its stages directly, with no memo table.)

use crate::analysis::{analyze_at, AnalysisError};
use crate::lru::{FnvHasher, Lru};
use crate::report::LayerReport;
use crate::stages::StagedAnalysis;
use maestro_dnn::{Layer, LayerDims, Operator};
use maestro_hw::{Accelerator, NocConfig};
use maestro_ir::Dataflow;
use maestro_obs::{CancelToken, Counter};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default per-tier LRU capacity: comfortably above any workload the repo
/// sweeps today (a whole-model sweep touches ~10³ distinct entries per
/// worker) while bounding a pathological sweep to a few tens of MB.
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

/// One (layer, dataflow, static accelerator) context, prepared once and
/// looked up under any number of NoC pipes.
///
/// The layer, dataflow and accelerator are borrowed, so a context can
/// never be replayed against other model inputs. Only the accelerator's
/// NoC-independent fields belong to the context — each lookup supplies
/// its own [`NocConfig`], and `acc.noc` is never read.
#[derive(Debug, Clone, Copy)]
pub struct Context<'a> {
    layer: &'a Layer,
    dataflow: &'a Dataflow,
    acc: &'a Accelerator,
    /// `None` for uncacheable layers (custom coupling override).
    key: Option<ShapeKey>,
    /// Fingerprint of everything the NoC-independent stages read: shape,
    /// dataflow structure, PE count, vector width, precision, L2
    /// capacity, off-chip bandwidth and reuse support. The stage-tier key
    /// and the shard route.
    stat: u64,
}

impl<'a> Context<'a> {
    /// Prepare `layer` under `dataflow` on `acc`'s static configuration.
    pub fn new(layer: &'a Layer, dataflow: &'a Dataflow, acc: &'a Accelerator) -> Self {
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
        Context {
            layer,
            dataflow,
            acc,
            key,
            stat: h.finish(),
        }
    }

    /// `report` under this context's layer name. Cache keys ignore names,
    /// so an entry built for one layer also answers every other layer of
    /// the same shape.
    fn named(&self, mut report: LayerReport) -> LayerReport {
        if report.layer != self.layer.name {
            report.layer.clone_from(&self.layer.name);
        }
        report
    }
}

/// Lookup counters of an [`Analyzer`], summed over its shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Report-tier lookups served from the table.
    pub hits: u64,
    /// Report-tier lookups that ran the cost model (including
    /// uncacheable layers).
    pub misses: u64,
    /// Entries added to the report tier.
    pub inserts: u64,
    /// Entries displaced from either tier by the LRU bound.
    pub evictions: u64,
    /// Stage-tier lookups served from the table.
    pub stage_hits: u64,
    /// Stage-tier lookups that ran the expensive static stages.
    pub stage_misses: u64,
}

impl CacheCounts {
    /// The counts in [`cache_counters`] order.
    fn array(self) -> [u64; 6] {
        [
            self.hits,
            self.misses,
            self.inserts,
            self.evictions,
            self.stage_hits,
            self.stage_misses,
        ]
    }
}

/// `OnceLock`-cached handles for the `maestro.cache.*` counters: the
/// registry lock is taken once per process.
fn cache_counters() -> &'static [Counter; 6] {
    static C: OnceLock<[Counter; 6]> = OnceLock::new();
    C.get_or_init(|| {
        let r = maestro_obs::registry();
        [
            r.counter("maestro.cache.hits"),
            r.counter("maestro.cache.misses"),
            r.counter("maestro.cache.inserts"),
            r.counter("maestro.cache.evictions"),
            r.counter("maestro.cache.stage_hits"),
            r.counter("maestro.cache.stage_misses"),
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

/// One mutex shard: both tiers plus plain counters, so a lookup never
/// touches a shared atomic.
#[derive(Debug)]
struct Shard {
    reports: Lru<(ShapeKey, u64, NocConfig), Result<LayerReport, AnalysisError>>,
    stages: Lru<(ShapeKey, u64), Result<StagedAnalysis, AnalysisError>>,
    counts: CacheCounts,
    /// The part of `counts` already added to the metrics registry.
    flushed: [u64; 6],
}

impl Shard {
    fn lookup(
        &mut self,
        ctx: &Context<'_>,
        noc: NocConfig,
        cancel: Option<&CancelToken>,
        reuse_stages: bool,
    ) -> Result<LayerReport, AnalysisError> {
        let Some(key) = ctx.key else {
            self.counts.misses += 1;
            return analyze_at(ctx.layer, ctx.dataflow, ctx.acc, noc, cancel);
        };
        let entry = (key, ctx.stat, noc);
        if let Some(cached) = self.reports.get(&entry) {
            self.counts.hits += 1;
            return cached.clone();
        }
        self.counts.misses += 1;
        let result = if reuse_stages {
            self.staged(key, ctx, noc, cancel)
        } else {
            analyze_at(ctx.layer, ctx.dataflow, ctx.acc, noc, cancel)
        };
        // A deadline belongs to the request, not to the entry.
        if !matches!(result, Err(AnalysisError::Cancelled)) {
            self.counts.evictions += self.reports.insert(entry, result.clone());
            self.counts.inserts += 1;
        }
        result
    }

    /// Price a report-tier miss from the stage tier, building the static
    /// stages on a stage miss. Cancellation is polled before the build
    /// and at the build/price boundary; a completed build is kept (it is
    /// valid whatever the token says).
    fn staged(
        &mut self,
        key: ShapeKey,
        ctx: &Context<'_>,
        noc: NocConfig,
        cancel: Option<&CancelToken>,
    ) -> Result<LayerReport, AnalysisError> {
        if let Some(built) = self.stages.get(&(key, ctx.stat)) {
            self.counts.stage_hits += 1;
            return match built {
                Ok(staged) => staged.finish(noc.bandwidth, noc.avg_latency),
                Err(e) => Err(e.clone()),
            };
        }
        self.counts.stage_misses += 1;
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        if cancelled() {
            return Err(AnalysisError::Cancelled);
        }
        let built = StagedAnalysis::build(ctx.layer, ctx.dataflow, ctx.acc);
        let out = match &built {
            Ok(_) if cancelled() => Err(AnalysisError::Cancelled),
            Ok(staged) => staged.finish(noc.bandwidth, noc.avg_latency),
            Err(e) => Err(e.clone()),
        };
        self.counts.evictions += self.stages.insert((key, ctx.stat), built);
        out
    }
}

/// The memoized cost model: [`analyze`](crate::analyze) behind `Mutex`
/// shards of the two-tier LRU (see the module docs).
///
/// One type serves both callers. A DSE work unit owns a one-shard
/// analyzer, whose uncontended lock costs nothing measurable next to a
/// lookup, so results and hit patterns stay deterministic at any thread
/// count. The serving daemon shares one many-shard analyzer across its
/// workers. Entries are routed by the context fingerprint, so every NoC
/// pipe of one context lands in the same shard and shares its
/// stage-tier build. A lock acquisition that has to wait is counted in
/// `maestro.cache.lock_waits`.
///
/// Lookup counters stay in the shards (no shared atomic per lookup) and
/// reach the `maestro.cache.*` registry counters as deltas on
/// [`Analyzer::flush_metrics`] and on drop.
#[derive(Debug)]
pub struct Analyzer {
    shards: Box<[Mutex<Shard>]>,
    reuse_stages: bool,
}

impl Analyzer {
    /// An analyzer of `shards` shards (at least 1), each holding at most
    /// `cap` entries per tier (`0` = unbounded).
    pub fn new(shards: usize, cap: usize) -> Self {
        Analyzer {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        reports: Lru::new(cap),
                        stages: Lru::new(cap),
                        counts: CacheCounts::default(),
                        flushed: [0; 6],
                    })
                })
                .collect(),
            reuse_stages: true,
        }
    }

    /// This analyzer with the stage tier switched off: every report-tier
    /// miss runs the whole pipeline, as [`analyze`](crate::analyze) does.
    /// Report-tier hits, misses and inserts are unchanged. This is the
    /// differential oracle that staged sweeps are checked against.
    #[must_use]
    pub fn without_stage_reuse(mut self) -> Self {
        self.reuse_stages = false;
        self
    }

    /// The report for `ctx` under NoC pipe `noc`, from the table or from
    /// the cost model. With a `cancel` token, a computation stops at the
    /// next stage boundary once the token trips; cache hits are returned
    /// regardless. The report carries `ctx`'s layer name even when the
    /// entry was built for another layer of the same shape.
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) [`AnalysisError`] from the cost model,
    /// plus [`AnalysisError::Cancelled`] (never memoized) when `cancel`
    /// trips before completion.
    pub fn analyze(
        &self,
        ctx: &Context<'_>,
        noc: NocConfig,
        cancel: Option<&CancelToken>,
    ) -> Result<LayerReport, AnalysisError> {
        let result = self
            .shard(ctx.stat)
            .lookup(ctx, noc, cancel, self.reuse_stages);
        result.map(|report| ctx.named(report))
    }

    /// The cached successful report for `ctx` under `noc`, if the report
    /// tier holds one. Read-only: no counters, no LRU promotion, no stage
    /// tier, because a brownout probe asks "can this be served for free
    /// right now?" and the caller may still shed the request.
    pub fn peek(&self, ctx: &Context<'_>, noc: NocConfig) -> Option<LayerReport> {
        let key = ctx.key?;
        let cached = self
            .shard(ctx.stat)
            .reports
            .peek(&(key, ctx.stat, noc))
            .and_then(|r| r.as_ref().ok().cloned());
        cached.map(|report| ctx.named(report))
    }

    /// Lookup counters summed over all shards (takes each shard lock in
    /// turn).
    pub fn counts(&self) -> CacheCounts {
        let mut sum = [0u64; 6];
        for shard in self.shards.iter() {
            let counts = lock(shard).counts.array();
            for (s, c) in sum.iter_mut().zip(counts) {
                *s += c;
            }
        }
        let [hits, misses, inserts, evictions, stage_hits, stage_misses] = sum;
        CacheCounts {
            hits,
            misses,
            inserts,
            evictions,
            stage_hits,
            stage_misses,
        }
    }

    /// Add the counts accumulated since the last flush to the
    /// `maestro.cache.*` registry counters. A long-lived analyzer (the
    /// daemon's) calls this before rendering `/metrics`; every analyzer
    /// flushes once more on drop.
    pub fn flush_metrics(&self) {
        self.flush_into(cache_counters());
    }

    fn flush_into(&self, counters: &[Counter; 6]) {
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

    /// The locked shard owning contexts with fingerprint `stat`.
    fn shard(&self, stat: u64) -> MutexGuard<'_, Shard> {
        lock(&self.shards[(stat % self.shards.len() as u64) as usize])
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

    /// One lookup through a context prepared on `acc`, at `acc`'s NoC.
    fn lookup(
        cache: &Analyzer,
        l: &Layer,
        df: &Dataflow,
        acc: &Accelerator,
        cancel: Option<&CancelToken>,
    ) -> Result<LayerReport, AnalysisError> {
        cache.analyze(&Context::new(l, df, acc), acc.noc, cancel)
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
    /// the real report and subsequent calls hit the report tier.
    #[test]
    fn cancelled_results_are_not_memoized() {
        let acc = Accelerator::builder(64).build();
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let cache = Analyzer::new(1, DEFAULT_CACHE_CAP);

        let tripped = CancelToken::detached();
        tripped.cancel();
        assert!(matches!(
            lookup(&cache, &l, &df, &acc, Some(&tripped)),
            Err(AnalysisError::Cancelled)
        ));

        let fresh = CancelToken::detached();
        let report = lookup(&cache, &l, &df, &acc, Some(&fresh))
            .expect("cancelled outcome must not poison the cache");
        assert_eq!(report, analyze(&l, &df, &acc).expect("analyzable"));

        let hits_before = cache.counts().hits;
        lookup(&cache, &l, &df, &acc, Some(&fresh)).expect("analyzable");
        assert_eq!(
            cache.counts().hits,
            hits_before + 1,
            "report tier now serves it"
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
            lookup(&shared, &l, &df, &acc, Some(&tripped)),
            Err(AnalysisError::Cancelled)
        ));

        let fresh = CancelToken::detached();
        let via_token = lookup(&shared, &l, &df, &acc, Some(&fresh)).expect("analyzable");
        let plain = lookup(&shared, &l, &df, &acc, None).expect("analyzable");
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
                lookup(&cache, layer, &df, &acc, Some(&live)).unwrap(),
                analyze(layer, &df, &acc).unwrap()
            );
        }
        let model = zoo::alexnet(1);
        let layers: Vec<LayerReport> = model
            .iter()
            .map(|layer| lookup(&cache, layer, &df, &acc, Some(&live)).unwrap())
            .collect();
        assert_eq!(layers, analyze_model(&model, &df, &acc).unwrap().layers);

        let tripped = CancelToken::detached();
        tripped.cancel();
        let cold = Analyzer::new(1, DEFAULT_CACHE_CAP);
        for layer in [&l, &custom] {
            assert_eq!(
                lookup(&cold, layer, &df, &acc, Some(&tripped)).unwrap_err(),
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
        let first = lookup(&cache, &l, &df, &acc, None).expect("analyzable");
        let second = lookup(&cache, &renamed, &df, &acc, None).expect("analyzable");
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
        let a = lookup(&cache, &l, &kcp, &acc, None).expect("analyzable");
        let b = lookup(&cache, &l, &ycp, &acc, None).expect("analyzable");
        assert_eq!(cache.counts().misses, 2);
        assert_eq!(cache.counts().hits, 0);
        assert_eq!(a, analyze(&l, &kcp, &acc).unwrap());
        assert_eq!(b, analyze(&l, &ycp, &acc).unwrap());
        // Same dataflow, different accelerator: also distinct.
        let wider = Accelerator::builder(64).noc(NocConfig::new(256, 1)).build();
        let c = lookup(&cache, &l, &kcp, &wider, None).expect("analyzable");
        assert_eq!(cache.counts().misses, 3);
        assert_eq!(c, analyze(&l, &kcp, &wider).unwrap());
        // And every context replays from the table.
        let _ = lookup(&cache, &l, &kcp, &acc, None);
        let _ = lookup(&cache, &l, &ycp, &acc, None);
        let _ = lookup(&cache, &l, &kcp, &wider, None);
        assert_eq!(cache.counts().hits, 3);
    }

    #[test]
    fn staged_path_matches_full_path() {
        let l = layer("x");
        for style in [Style::KCP, Style::YXP, Style::YRP] {
            let df = style.dataflow();
            for bw in [1u64, 32, 256] {
                let acc = at_bw(bw);
                let full = Analyzer::new(1, DEFAULT_CACHE_CAP).without_stage_reuse();
                let staged = Analyzer::new(1, DEFAULT_CACHE_CAP);
                let a = lookup(&full, &l, &df, &acc, None);
                let b = lookup(&staged, &l, &df, &acc, None);
                assert_eq!(a, b, "{style} bw={bw}");
                assert_eq!(full.counts().stage_misses, 0, "full mode builds afresh");
            }
        }
    }

    #[test]
    fn staged_shares_static_stages_across_noc_points() {
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let acc = at_bw(1);
        let ctx = Context::new(&l, &df, &acc);
        let cache = Analyzer::new(1, DEFAULT_CACHE_CAP);
        for bw in [1u64, 2, 4, 8, 16, 32] {
            cache
                .analyze(&ctx, NocConfig::new(bw, 2), None)
                .expect("analyzable");
        }
        // Six report-tier misses, but the expensive stages ran once.
        let counts = cache.counts();
        assert_eq!(counts.misses, 6);
        assert_eq!(counts.stage_misses, 1);
        assert_eq!(counts.stage_hits, 5);
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let cache = Analyzer::new(1, 2);
        for bw in [1u64, 2, 3] {
            lookup(&cache, &l, &df, &at_bw(bw), None).expect("analyzable");
        }
        assert_eq!(cache.counts().evictions, 1);
        // bw=1 was evicted: re-analyzing it is a miss, evicting bw=2.
        let acc1 = at_bw(1);
        let direct = analyze(&l, &df, &acc1).unwrap();
        assert_eq!(lookup(&cache, &l, &df, &acc1, None).unwrap(), direct);
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
            assert_eq!(lookup(&cache, &l, &df, &acc, None), analyze(&l, &df, &acc));
        }
        assert_eq!(cache.counts().misses, 2);
        assert_eq!(cache.counts().inserts, 0);
        assert_eq!(cache.peek(&Context::new(&l, &df, &acc), acc.noc), None);
    }

    #[test]
    fn shared_cache_matches_direct_analysis_and_counts_hits() {
        let shared = Analyzer::new(4, 64);
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let acc = Accelerator::builder(64).build();
        let direct = analyze(&l, &df, &acc).expect("analyzable");
        assert_eq!(lookup(&shared, &l, &df, &acc, None).unwrap(), direct);
        assert_eq!(lookup(&shared, &l, &df, &acc, None).unwrap(), direct);
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
                        let r = lookup(&shared, &layer("t"), &df, &at_bw(bw), None).unwrap();
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
        assert_eq!(cache.peek(&Context::new(&l, &df, &acc), acc.noc), None);
        lookup(&cache, &l, &df, &acc, None).expect("analyzable");
        let before = cache.counts();
        let peeked = cache.peek(&Context::new(&renamed, &df, &acc), acc.noc);
        assert_eq!(peeked, Some(analyze(&renamed, &df, &acc).unwrap()));
        let other_noc = NocConfig::new(acc.noc.bandwidth + 1, acc.noc.avg_latency);
        assert_eq!(cache.peek(&Context::new(&l, &df, &acc), other_noc), None);
        assert_eq!(cache.counts(), before);
    }

    /// Counts reach the registry as deltas: a second flush adds only what
    /// accrued since the first, so a live analyzer can flush on every
    /// `/metrics` render without double counting.
    #[test]
    fn flushes_add_only_new_counts() {
        let registry = maestro_obs::Registry::new();
        let counters = [
            "hits",
            "misses",
            "inserts",
            "evictions",
            "stage_hits",
            "stage_misses",
        ]
        .map(|n| registry.counter(&format!("maestro.test.cache.{n}")));
        let l = layer("x");
        let df = Style::KCP.dataflow();
        let acc = Accelerator::builder(64).build();
        let cache = Analyzer::new(2, DEFAULT_CACHE_CAP);
        lookup(&cache, &l, &df, &acc, None).expect("analyzable");
        lookup(&cache, &l, &df, &acc, None).expect("analyzable");
        cache.flush_into(&counters);
        let read = || counters.each_ref().map(Counter::get);
        assert_eq!(read(), [1, 1, 1, 0, 0, 1]);
        cache.flush_into(&counters);
        assert_eq!(read(), [1, 1, 1, 0, 0, 1], "nothing new, nothing added");
        lookup(&cache, &l, &df, &acc, None).expect("analyzable");
        cache.flush_into(&counters);
        assert_eq!(read(), [2, 1, 1, 0, 0, 1]);
    }
}
