//! The zero-rebuild alternation hot path: the live-view/session driver versus the
//! pre-refactor execution strategy (rebuild-per-prune driver + the seed's ball-based pruning)
//! on doubling-budget uniform MIS runs at n = 10 000.
//!
//! Two black boxes bracket the workload space:
//!
//! * `ps_mis` — the synthetic `2^{O(√log n)}` box (Table 1 row 2). Its attempts charge rounds
//!   without simulating messages, so the measurement isolates the alternation driver itself
//!   (attempt dispatch, pruning, configuration shrinking) — the cost the refactor removes.
//! * `coloring_mis` — the real `O(Δ² + log* m)` colouring pipeline. Attempts simulate every
//!   message, which both paths share, so the gap narrows to the session/runtime savings
//!   (frozen init slabs, arc-arena message routing, pooled buffers).
//!
//! All paths produce byte-identical `UniformRun`s (enforced by `local-core`'s rebuild and
//! property tests) — the comparison is pure throughput.
//!
//! On top of the timed comparison this bench **proves the allocation-free steady state**: a
//! counting global allocator asserts that repeated attempts (`execute_view` runs) on an
//! unchanged configuration, with their executions recycled into the session, perform *zero*
//! heap allocations — the init slab, program/output buffers, message arenas, and RNG tables
//! are all served from the session's caches — once plain and once with the observability
//! layer armed. It writes `target/alternation_hotpath.json` (wall micros per scenario and
//! the counted steady-state allocations).

use criterion::{criterion_group, criterion_main, Criterion};
use local_runtime::{
    Action, GraphAlgorithm, GraphView, NodeInit, NodeProgram, ProgramSpec, RoundCtx, Session,
};
use local_uniform::rebuild::SeedRulingSetPruning;
use local_uniform::transform::UniformTransformer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A pass-through allocator that counts allocation events while armed. Deallocations are
/// not counted (returning pooled memory is fine); `alloc`, `realloc`, and `alloc_zeroed`
/// all are — any of them in the steady state means a cache failed to do its job.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Counts allocation events inside `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let result = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

/// A heap-free gossip spec standing in for a budgeted black-box attempt: flood the maximum
/// identity for `radius` rounds (every node broadcasts every round — the message-heavy
/// shape of the colouring attempts), then halt with it.
struct MaxIdAttempt {
    radius: u64,
}

struct MaxIdProg {
    radius: u64,
    best: u64,
}

impl NodeProgram for MaxIdProg {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
        for m in ctx.inbox() {
            self.best = self.best.max(m.msg);
        }
        if ctx.round() == self.radius {
            return Action::Halt(self.best);
        }
        ctx.broadcast(self.best);
        Action::Continue
    }
}

impl ProgramSpec for MaxIdAttempt {
    type Input = ();
    type Msg = u64;
    type Output = u64;
    type Prog = MaxIdProg;
    fn build(&self, init: &NodeInit<()>) -> MaxIdProg {
        MaxIdProg { radius: self.radius, best: init.id }
    }
    fn default_output(&self, init: &NodeInit<()>) -> u64 {
        init.id
    }
}

/// The allocation-free steady state: repeated attempts on an unchanged view, with the
/// executions recycled back into the session, must not allocate at all. Returns the counted
/// allocations (asserted zero) for the JSON artefact.
fn assert_allocation_free_steady_state(view: &GraphView<'_>, inputs: &[()]) -> u64 {
    let spec = MaxIdAttempt { radius: 8 };
    let mut session = Session::new();
    // Warm-up: the first attempt builds the init slab, the message arenas, and the pooled
    // program/output buffers; recycling hands the output vector back.
    for _ in 0..2 {
        let run = spec.execute_view(view, inputs, Some(16), 7, &mut session);
        session.recycle_outputs(run.outputs);
    }
    let (allocations, messages) = count_allocations(|| {
        let mut messages = 0;
        for attempt in 0..32u64 {
            let run = spec.execute_view(view, inputs, Some(16), 7 ^ attempt, &mut session);
            messages += run.messages;
            session.recycle_outputs(run.outputs);
        }
        messages
    });
    assert!(messages > 0, "the steady-state attempts must actually simulate messages");
    assert_eq!(
        allocations, 0,
        "steady-state attempts on an unchanged configuration must be allocation-free \
         ({allocations} allocations observed over 32 attempts)"
    );
    allocations
}

/// Times `f` over `samples` runs and returns the mean wall micros.
fn mean_micros<R>(samples: u32, mut f: impl FnMut() -> R) -> u64 {
    let started = Instant::now();
    for _ in 0..samples {
        criterion::black_box(f());
    }
    (started.elapsed().as_micros() as u64) / u64::from(samples.max(1))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("alternation_hotpath");
    group.sample_size(10).measurement_time(Duration::from_secs(5));

    let g = local_graphs::Family::SparseGnp.generate(10_000, 1);
    let inputs = vec![(); g.node_count()];

    // ---- The allocation-counter proof (runs outside the timed sections). ----
    let view = GraphView::full(&g);
    let steady_state_allocations = assert_allocation_free_steady_state(&view, &inputs);
    println!("  steady-state attempt allocations: {steady_state_allocations} (asserted zero)");

    // ---- The same proof with the observability layer armed: counters hit pre-registered
    // atomics and events land in the pre-sized thread-local buffer (capacity-guarded push,
    // drop-on-overflow), so recording must not reintroduce steady-state allocations. The
    // warm-up inside the assertion registers this thread's track before counting starts.
    local_obs::enable();
    let traced_allocations = assert_allocation_free_steady_state(&view, &inputs);
    local_obs::disable();
    println!(
        "  steady-state attempt allocations with obs enabled: {traced_allocations} (asserted zero)"
    );

    // ---- Driver-dominated workload: the synthetic PS box. ----
    let ps = local_uniform::catalog::uniform_ps_mis();
    let ps_reference = UniformTransformer::new(
        local_uniform::catalog::panconesi_srinivasan_mis_black_box(),
        SeedRulingSetPruning { beta: 1 },
        false,
    );
    let fast = ps.solve(&g, &inputs, 7);
    let reference = ps_reference.solve_rebuild(&g, &inputs, 7);
    assert!(fast.solved);
    assert_eq!(fast.outputs, reference.outputs);
    assert_eq!(fast.rounds, reference.rounds);

    group.bench_function("view_session_ps_mis_n10000", |b| {
        let mut session = local_runtime::Session::new();
        b.iter(|| {
            let run = ps.solve_in(&g, &inputs, 7, &mut session);
            assert!(run.solved);
            run.rounds
        })
    });
    group.bench_function("rebuild_reference_ps_mis_n10000", |b| {
        b.iter(|| {
            let run = ps_reference.solve_rebuild(&g, &inputs, 7);
            assert!(run.solved);
            run.rounds
        })
    });

    // ---- Simulation-dominated workload: the colouring-based MIS box. ----
    let coloring = local_uniform::catalog::uniform_coloring_mis();
    let coloring_reference = UniformTransformer::new(
        local_uniform::catalog::coloring_mis_black_box(),
        SeedRulingSetPruning { beta: 1 },
        false,
    );
    let fast = coloring.solve(&g, &inputs, 7);
    let reference = coloring_reference.solve_rebuild(&g, &inputs, 7);
    assert!(fast.solved);
    assert_eq!(fast.outputs, reference.outputs);
    assert_eq!(fast.rounds, reference.rounds);

    group.bench_function("view_session_coloring_mis_n10000", |b| {
        let mut session = local_runtime::Session::new();
        b.iter(|| {
            let run = coloring.solve_in(&g, &inputs, 7, &mut session);
            assert!(run.solved);
            run.rounds
        })
    });
    group.bench_function("rebuild_reference_coloring_mis_n10000", |b| {
        b.iter(|| {
            let run = coloring_reference.solve_rebuild(&g, &inputs, 7);
            assert!(run.solved);
            run.rounds
        })
    });
    group.finish();

    // ---- Wall times of both scenarios on both paths, as one JSON record. ----
    let mut session = Session::new();
    let view_session_ps = mean_micros(5, || ps.solve_in(&g, &inputs, 7, &mut session).rounds);
    let rebuild_ps = mean_micros(3, || ps_reference.solve_rebuild(&g, &inputs, 7).rounds);
    let view_session_coloring =
        mean_micros(5, || coloring.solve_in(&g, &inputs, 7, &mut session).rounds);
    let rebuild_coloring =
        mean_micros(3, || coloring_reference.solve_rebuild(&g, &inputs, 7).rounds);
    let json = format!(
        "{{\n  \"bench\": \"alternation_hotpath\",\n  \"n\": 10000,\n  \
         \"steady_state_attempt_allocations\": {steady_state_allocations},\n  \
         \"view_session_ps_mis_micros\": {view_session_ps},\n  \
         \"rebuild_reference_ps_mis_micros\": {rebuild_ps},\n  \
         \"view_session_coloring_mis_micros\": {view_session_coloring},\n  \
         \"rebuild_reference_coloring_mis_micros\": {rebuild_coloring}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/alternation_hotpath.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  cannot write {path}: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
