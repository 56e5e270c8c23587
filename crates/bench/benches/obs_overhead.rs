//! Guard: observability must be near-free when no sink is installed.
//!
//! The spans and metrics wired through `analyze` and the DSE sweep are
//! compiled in unconditionally, so their *disabled* cost is what every
//! un-instrumented user pays. This bench measures that cost directly —
//! nanoseconds per disabled span guard and per gated log macro — then
//! runs a real DSE sweep (no trace sink, logging off) and bounds the
//! implied instrumentation share of the sweep's wall time. The build
//! fails the guard if that share reaches 2%.

use maestro_dnn::zoo;
use maestro_dse::{variants, Explorer, SweepSpace};
use maestro_ir::Style;
use maestro_obs::Trace;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Touch points inside one static build: the four stage span guards plus
/// the `maestro.analysis.calls` add.
const TOUCHES_PER_BUILD: u64 = 5;

fn main() {
    maestro_obs::log::set_level(maestro_obs::Level::Off);
    assert!(
        !maestro_obs::span::is_enabled(),
        "span collection must start disabled"
    );

    // Per-call cost of a disabled span guard (one relaxed atomic load).
    let n: u64 = 20_000_000;
    let t0 = Instant::now();
    for _ in 0..n {
        let _ = black_box(maestro_obs::span::span(black_box("bench.disabled")));
    }
    let span_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;

    // Per-call cost of a gated-off log macro (one relaxed load, no format).
    let t0 = Instant::now();
    for i in 0..n {
        maestro_obs::debug!("disabled {}", black_box(i));
    }
    let log_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;

    // Enabled-path tracing costs (the per-request price when `serve`
    // runs with its default 1-in-16 tail sampling). Three components:
    // beginning a trace and installing it as the thread's context until
    // it is taken back, offering a sampled-out record to the flight
    // recorder (the common case), and retaining a kept record in the
    // ring. Records are built through the trace, as serve builds them.
    maestro_obs::trace::seed_trace_ids(0xbe9c);
    let m: u64 = 2_000_000;
    let anchor = Instant::now();
    let t0 = Instant::now();
    for _ in 0..m {
        let id = maestro_obs::trace::next_trace_id();
        maestro_obs::trace::install(Trace::begin(black_box(id), anchor));
        black_box(maestro_obs::trace::take());
    }
    let ctx_ns = t0.elapsed().as_secs_f64() * 1e9 / m as f64;

    let us = Duration::from_micros;
    let mk_rec = |id: maestro_obs::TraceId| {
        let mut t = Trace::begin(id, anchor);
        t.mark_at("queue", anchor);
        t.mark_at("parse", anchor + us(30));
        t.mark_at("analyze", anchor + us(120));
        t.mark_at("serialize", anchor + us(410));
        t.finish("POST /v1/analyze".to_string(), 200, 900)
    };
    let dropped = maestro_obs::FlightRecorder::new(maestro_obs::FlightPolicy {
        capacity: 256,
        sample_k: 0, // every offer is sampled out: the common case
        slow_us: u64::MAX,
    });
    let t0 = Instant::now();
    for i in 0..m {
        black_box(dropped.record(mk_rec(maestro_obs::TraceId(u128::from(i)))));
    }
    let drop_ns = t0.elapsed().as_secs_f64() * 1e9 / m as f64;

    let kept = maestro_obs::FlightRecorder::new(maestro_obs::FlightPolicy {
        capacity: 256,
        sample_k: 1, // every offer is retained (ring churn included)
        slow_us: u64::MAX,
    });
    let t0 = Instant::now();
    for i in 0..m {
        black_box(kept.record(mk_rec(maestro_obs::TraceId(u128::from(i)))));
    }
    let keep_ns = t0.elapsed().as_secs_f64() * 1e9 / m as f64;

    // A real sweep with everything disabled — the production configuration.
    let vgg = zoo::vgg16(1);
    let layer = vgg.layer("CONV2").expect("zoo layer");
    let maps = variants::variants(Style::KCP);
    let calls = maestro_obs::registry().counter("maestro.analysis.calls");
    let calls_before = calls.get();
    let t0 = Instant::now();
    let e = Explorer::new(SweepSpace::standard());
    let r = e
        .explore(black_box(layer), black_box(&maps))
        .expect("valid sweep space");
    let sweep_s = t0.elapsed().as_secs_f64();
    assert!(r.stats.valid > 0);
    let builds = calls.get() - calls_before;

    // Instrumentation touch points in that sweep, each costed as one
    // disabled span guard: five per static build (read back from
    // `maestro.analysis.calls`), one `maestro.analysis.perf` guard per
    // price call, and per work unit one span guard plus one batched
    // metric flush (~11 atomic adds, costed at 11 spans).
    let units = e.space.pes.len() as u64;
    let touches = TOUCHES_PER_BUILD * builds + r.stats.evaluated + units * 12;
    let implied_s = touches as f64 * span_ns * 1e-9;
    let share = 100.0 * implied_s / sweep_s;

    println!("obs-overhead guard (no sink installed)");
    println!("  disabled span guard   {span_ns:>8.2} ns/call");
    println!("  gated-off log macro   {log_ns:>8.2} ns/call");
    println!("enabled tracing (per request, building the record included)");
    println!("  trace context         {ctx_ns:>8.2} ns (draw ID + begin + install + take)");
    println!("  record, sampled out   {drop_ns:>8.2} ns (the 15-in-16 case)");
    println!("  record, kept          {keep_ns:>8.2} ns (ring insert + eviction)");
    println!(
        "  DSE sweep             {sweep_s:>8.3} s wall, {builds} builds, {} price calls, {units} units",
        r.stats.evaluated
    );
    println!("  instrumentation share {share:>8.4} % of sweep wall time ({touches} touch points)");

    assert!(
        share < 2.0,
        "disabled instrumentation costs {share:.3}% of the sweep — over the 2% budget"
    );
    // Even the worst enabled path (record built *and* kept) must stay
    // in single-digit microseconds — noise against a multi-hundred-µs
    // request, and three orders below the io-timeout scale.
    assert!(
        keep_ns < 10_000.0,
        "kept-record cost is {keep_ns:.0} ns — tracing is no longer cheap"
    );
    println!("PASS: under the 2% overhead budget");
}
