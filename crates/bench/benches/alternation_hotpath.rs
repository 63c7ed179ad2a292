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
//! property tests) — the comparison is pure throughput. The allocation-free steady state of
//! repeated attempts is a tier-1 test (`local-algos`' `steady_state_allocations`). The bench
//! writes `target/alternation_hotpath.json` (wall micros per scenario).

use local_runtime::Session;
use local_uniform::rebuild::SeedRulingSetPruning;
use local_uniform::transform::UniformTransformer;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `samples` runs and returns the mean wall micros.
fn mean_micros<R>(samples: u32, mut f: impl FnMut() -> R) -> u64 {
    let started = Instant::now();
    for _ in 0..samples {
        black_box(f());
    }
    (started.elapsed().as_micros() as u64) / u64::from(samples.max(1))
}

fn main() {
    let g = local_graphs::Family::SparseGnp.generate(10_000, 1);
    let inputs = vec![(); g.node_count()];

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
