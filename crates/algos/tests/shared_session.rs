//! Composite black boxes on one long-lived [`Session`].
//!
//! `execute_view` is the only execution a composite implements, so every run a scheduler
//! makes goes through a session that earlier runs left dirty: other graphs (and so other
//! epochs in the materialization cache and the init slab), other output types in the typed
//! pools. Each composite here runs on two graphs of different sizes, and on a pruned view
//! of the larger one, all through one shared session; every run must equal the same
//! execution on a fresh session (`execute` on the graph the configuration materializes to).

use local_algos::arboricity::ArboricityMis;
use local_algos::edge_coloring::LineGraphEdgeColoring;
use local_algos::matching::MatchingFromEdgeColoring;
use local_algos::mis::ColoringMis;
use local_algos::ruling::MisRulingSet;
use local_algos::synthetic::{SyntheticMatching, SyntheticMis};
use local_graphs::{forest_union, gnp, GraphParams};
use local_runtime::{Graph, GraphAlgorithm, GraphView, Session};

/// Runs `algo` on `view` through the shared `session` and through `execute` on a fresh
/// session, with no budget and with a budget that cuts most composites short.
fn check<A>(name: &str, algo: &A, view: &GraphView<'_>, session: &mut Session)
where
    A: GraphAlgorithm<Input = ()>,
    A::Output: PartialEq + std::fmt::Debug,
{
    let (graph, _) = view.materialize();
    let inputs = vec![(); view.node_count()];
    for (seed, budget) in [(3, None), (4, Some(5))] {
        let shared = algo.execute_view(view, &inputs, budget, seed, session);
        let fresh = algo.execute(&graph, &inputs, budget, seed);
        let at = format!("{name} on {} nodes, budget {budget:?}", view.node_count());
        assert_eq!(shared.outputs, fresh.outputs, "{at}: outputs differ");
        assert_eq!(shared.rounds, fresh.rounds, "{at}: rounds differ");
        assert_eq!(shared.messages, fresh.messages, "{at}: messages differ");
        assert_eq!(shared.completed, fresh.completed, "{at}: completion differs");
    }
}

/// Every composite black box, with correct guesses for `graph`, on `view` (a view of it).
fn check_all(graph: &Graph, view: &GraphView<'_>, session: &mut Session) {
    let p = GraphParams::of(graph);
    let (delta, id) = (p.max_degree.max(1), p.max_id.max(1));
    check("ColoringMis", &ColoringMis { delta_guess: delta, id_bound_guess: id }, view, session);
    check(
        "MatchingFromEdgeColoring",
        &MatchingFromEdgeColoring { delta_guess: delta, id_bound_guess: id },
        view,
        session,
    );
    check(
        "ArboricityMis",
        &ArboricityMis { arboricity_guess: p.degeneracy.max(1), n_guess: p.n, id_bound_guess: id },
        view,
        session,
    );
    check(
        "LineGraphEdgeColoring",
        &LineGraphEdgeColoring { delta_guess: delta, id_bound_guess: id },
        view,
        session,
    );
    check("SyntheticMis", &SyntheticMis::panconesi_srinivasan(p.n, 1.0), view, session);
    check("SyntheticMatching", &SyntheticMatching { n_guess: p.n, scale: 0.01 }, view, session);
    check("MisRulingSet", &MisRulingSet::with_default_budget(p.n), view, session);
}

#[test]
fn composites_on_one_dirty_session_match_fresh_sessions() {
    let mut session = Session::new();
    let small = gnp(30, 0.15, 1);
    let large = forest_union(90, 3, 2);
    check_all(&small, &GraphView::full(&small), &mut session);
    check_all(&large, &GraphView::full(&large), &mut session);
    // A pruned configuration of the larger graph: fresh epoch, live indices shifted.
    let mut pruned = GraphView::full(&large);
    let keep: Vec<bool> = (0..pruned.node_count()).map(|l| l % 3 != 0).collect();
    pruned.retain(&keep);
    check_all(&large, &pruned, &mut session);
}
