//! The allocation-free steady state of repeated attempts.
//!
//! The alternating drivers run a black box dozens of times on an unchanged configuration.
//! A counting global allocator checks that those attempts (`execute_view` runs, with their
//! outputs recycled into the session) perform *zero* heap allocations once the session is
//! warm: the init slab, program/output buffers, message arenas, RNG tables, frontier and
//! wake heap are all served from the session's caches. Two programs cover the two round
//! loops a run can take: an always-broadcast gossip, and the event-driven colour reduction,
//! whose nodes sleep (`Action::Wait`) and leave the wake heap non-empty when a budget cuts
//! them off. The check runs once plain and once with the observability layer armed.

use local_algos::coloring::ReducedColoring;
use local_graphs::{Family, GraphParams};
use local_runtime::{
    Action, GraphAlgorithm, GraphView, NodeInit, NodeProgram, ProgramSpec, RoundCtx, Session,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts the allocation events of the thread that armed it.
/// Deallocations are not counted (returning pooled memory is fine); `alloc`, `realloc`,
/// and `alloc_zeroed` all are — any of them in the steady state means a cache failed.
struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic side effect and
// the armed flag a const-initialized thread-local without a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Counts this thread's allocation events inside `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOCATIONS.load(Ordering::SeqCst), result)
}

/// A heap-free gossip spec standing in for a budgeted black-box attempt: flood the maximum
/// identity for `radius` rounds (every node broadcasts every round), then halt with it.
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

/// Repeated attempts of `algo` on an unchanged view, with the outputs recycled back into
/// the session, must not allocate at all. `budgets` cycles over the attempts.
fn assert_allocation_free<A>(name: &str, algo: &A, view: &GraphView<'_>, budgets: &[Option<u64>])
where
    A: GraphAlgorithm<Input = (), Output = u64>,
{
    let inputs = vec![(); view.node_count()];
    let mut session = Session::new();
    // Warm-up: the first attempts build the init slab, the message arenas, the frontier and
    // wake heap, and the pooled program/output buffers; recycling hands the outputs back.
    for &budget in budgets.iter().chain(budgets) {
        let run = algo.execute_view(view, &inputs, budget, 7, &mut session);
        session.recycle_outputs(run.outputs);
    }
    let (allocations, messages) = count_allocations(|| {
        let mut messages = 0;
        for attempt in 0..32u64 {
            let budget = budgets[attempt as usize % budgets.len()];
            let run = algo.execute_view(view, &inputs, budget, 7 ^ attempt, &mut session);
            messages += run.messages;
            session.recycle_outputs(run.outputs);
        }
        messages
    });
    assert!(messages > 0, "{name}: the steady-state attempts must actually send messages");
    assert_eq!(
        allocations, 0,
        "{name}: steady-state attempts on an unchanged configuration must be allocation-free \
         ({allocations} allocations observed over 32 attempts)"
    );
}

#[test]
fn steady_state_attempts_allocate_nothing_plain_and_with_obs_armed() {
    let g = Family::SparseGnp.generate(2_000, 1);
    let p = GraphParams::of(&g);
    let view = GraphView::full(&g);
    let gossip = MaxIdAttempt { radius: 8 };
    let coloring = ReducedColoring::delta_plus_one(p.max_degree, p.max_id);
    // Unbudgeted runs complete; the short budget cuts the colouring off while most nodes
    // sleep, so the next attempt starts with a wake heap to clear.
    let budgets = [None, Some(coloring.round_bound() / 2), Some(3)];
    for armed in [false, true] {
        if armed {
            // Counters hit pre-registered atomics and events land in the pre-sized
            // thread-local buffer (capacity-guarded push, drop-on-overflow), so recording
            // must not reintroduce allocations. The warm-up registers this thread's track.
            local_obs::enable();
        }
        assert_allocation_free("gossip", &gossip, &view, &[Some(16)]);
        assert_allocation_free("event-driven colouring", &coloring, &view, &budgets);
    }
    local_obs::disable();
}
