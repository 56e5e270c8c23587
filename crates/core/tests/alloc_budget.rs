//! Heap-allocation budget of one warm `analyze`.
//!
//! A counting global allocator tallies every allocation the calling
//! thread makes, so one `analyze` over each (layer, dataflow) pair of the
//! Figure 10 zoo can be checked against a fixed ceiling. The count is
//! per-thread, so tests running in parallel cannot disturb it. The file
//! holds one test, so nothing else in the process runs an analysis
//! around its warm-up.
//!
//! The budget covers what the result keeps (the report's two names and
//! level list) plus the build's own per-level tables. An allocation that
//! quietly comes back (a temporary `Vec`, a clone before pricing) fails
//! here rather than showing up only in a benchmark record.

use maestro_core::analyze;
use maestro_dnn::{zoo, Layer};
use maestro_hw::Accelerator;
use maestro_ir::{Dataflow, Style};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most heap allocations one successful warm `analyze` may make.
const BUDGET: u64 = 12;

const MODELS: [&str; 5] = ["resnet50", "vgg16", "resnext50", "mobilenet_v2", "unet"];

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only other work is
// bumping a const-initialized thread-local `Cell<u64>`, which neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_zoo_analyze_stays_within_the_allocation_budget() {
    let acc = Accelerator::paper_case_study();
    let dataflows: Vec<Dataflow> = Style::ALL.iter().map(|s| s.dataflow()).collect();
    let layers: Vec<Layer> = MODELS
        .iter()
        .flat_map(|name| {
            let model = zoo::by_name(name, 1).expect("Figure 10 model in the zoo");
            model.iter().cloned().collect::<Vec<_>>()
        })
        .collect();

    // The first analysis in a process registers the analysis and cache
    // counters; that one-time cost is not part of the budget.
    let _ = analyze(&layers[0], &dataflows[0], &acc);

    let mut over = Vec::new();
    let (mut pairs, mut total, mut worst) = (0u64, 0u64, 0u64);
    for layer in &layers {
        for df in &dataflows {
            let before = allocs();
            let report = analyze(layer, df, &acc);
            let n = allocs() - before;
            if report.is_err() {
                continue;
            }
            pairs += 1;
            total += n;
            worst = worst.max(n);
            if n > BUDGET {
                over.push(format!("{}/{}: {n}", layer.name, df.name()));
            }
        }
    }
    assert_eq!(pairs, 1210, "every zoo pair analyzes");
    assert!(
        over.is_empty(),
        "{} of {pairs} pairs exceed {BUDGET} allocations (worst {worst}, mean {:.1}): {}",
        over.len(),
        total as f64 / pairs as f64,
        over[..over.len().min(8)].join(", ")
    );
}
