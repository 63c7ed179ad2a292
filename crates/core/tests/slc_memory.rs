//! Peak-heap gate for Theorem 5's strong-list-colouring lists.
//!
//! Every node of a layer starts with the full list `[1, g(Δ̂)] × [1, Δ̂ + 1]`, but loses at
//! most `deg(v)` colours. Stored explicitly, the lists of the line graph of an 8-regular
//! graph on 1000 nodes (4000 nodes, Δ̂ = 15: 256 colours each) take over 130 MiB of live
//! heap; stored as "full grid minus removed colours" the whole solve stays within a few MiB.
//! A counting global allocator measures the peak live bytes of the solve.

use local_algos::checkers::check_coloring;
use local_graphs::random_regular;
use local_runtime::Session;
use local_uniform::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The budget for the whole solve, graph included.
const PEAK_LIMIT_BYTES: usize = 16 << 20;

struct PeakCounter;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates verbatim to `System`; the live and peak counters are relaxed atomic
// side effects that publish no other data.
unsafe impl GlobalAlloc for PeakCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: PeakCounter = PeakCounter;

#[test]
fn uniform_coloring_of_a_line_graph_stays_within_the_heap_budget() {
    let (line_graph, _) = random_regular(1000, 8, 1).line_graph();
    let mut session = Session::new();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let run = catalog::uniform_lambda_coloring(1).solve_in(&line_graph, 1, &mut session);
    let peak = PEAK.load(Ordering::Relaxed);

    assert!(run.solved, "the uniform colouring must solve every layer");
    check_coloring(&line_graph, &run.colors).expect("the colouring must be proper");
    assert!(
        peak <= PEAK_LIMIT_BYTES,
        "peak live heap {:.1} MiB exceeds the {} MiB budget",
        peak as f64 / (1 << 20) as f64,
        PEAK_LIMIT_BYTES >> 20
    );
}
