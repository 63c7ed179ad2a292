//! Event-driven colour elimination against the always-broadcast automaton it replaced.
//!
//! [`ReducedColoring`] and [`RefineColoring`] sleep through the elimination phase and send a
//! colour only when it changes, reading neighbour colours back through
//! `RoundCtx::last_heard`. The automaton below is the previous one, kept here as the
//! reference: it re-broadcasts every colour in every round and recolours from that round's
//! inbox. Both must give the same outputs, termination rounds and completion on every
//! configuration — gnp graphs, forests and pruned views, all through one dirty session —
//! with good guesses, random guesses, and guesses so bad that the Linial phase leaves
//! colours outside its own palette.

use local_algos::coloring::{
    linial_final_palette, linial_schedule, LinialColoring, LinialProg, ReducedColoring,
    RefineColoring,
};
use local_graphs::{forest_union, gnp, GraphParams};
use local_runtime::{
    run_view, Action, Execution, GraphView, NodeInit, NodeProgram, ProgramSpec, RoundCtx,
    RunConfig, Session,
};
use proptest::prelude::*;

/// The always-broadcast Linial + elimination automaton, for inputs of type `I`: `start`
/// reads a node's initial colour (its identity, or its input colour).
struct AlwaysBroadcast<I> {
    delta_guess: u64,
    id_bound_guess: u64,
    target: u64,
    start: fn(&NodeInit<I>) -> u64,
}

struct AlwaysBroadcastProg {
    linial: LinialProg,
    linial_rounds: u64,
    linial_palette: u64,
    target: u64,
    color: u64,
}

impl NodeProgram for AlwaysBroadcastProg {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
        let t = ctx.round();
        if t <= self.linial_rounds {
            // The Linial automaton broadcasts every round and halts with its colour in
            // round `linial_rounds`, where the elimination phase starts.
            let Action::Halt(color) = self.linial.round(ctx) else {
                return Action::Continue;
            };
            self.color = color;
            if self.linial_palette <= self.target {
                return Action::Halt(color);
            }
        } else {
            let class = self.linial_palette - (t - self.linial_rounds);
            if self.color == class && self.color >= self.target {
                let mut used: Vec<u64> =
                    ctx.messages().map(|(_, &c)| c).filter(|&c| c < self.target).collect();
                used.sort_unstable();
                let mut free = 0u64;
                for c in used {
                    if c == free {
                        free += 1;
                    } else if c > free {
                        break;
                    }
                }
                self.color = free.min(self.target - 1);
            }
            if class <= self.target {
                return Action::Halt(self.color);
            }
        }
        ctx.broadcast(self.color);
        Action::Continue
    }
}

impl<I: Clone + Send + Sync + 'static> ProgramSpec for AlwaysBroadcast<I> {
    type Input = I;
    type Msg = u64;
    type Output = u64;
    type Prog = AlwaysBroadcastProg;

    fn build(&self, init: &NodeInit<I>) -> AlwaysBroadcastProg {
        let linial =
            LinialColoring { delta_guess: self.delta_guess, id_bound_guess: self.id_bound_guess };
        let color = (self.start)(init);
        let as_identity = NodeInit {
            index: init.index,
            id: color,
            degree: init.degree,
            neighbor_ids: init.neighbor_ids,
            input: &(),
        };
        AlwaysBroadcastProg {
            linial: linial.build(&as_identity),
            linial_rounds: linial_schedule(self.id_bound_guess, self.delta_guess).len() as u64,
            linial_palette: linial_final_palette(self.id_bound_guess, self.delta_guess),
            target: self.target,
            color,
        }
    }

    fn default_output(&self, init: &NodeInit<I>) -> u64 {
        (self.start)(init)
    }
}

fn reference_of_reduced(spec: &ReducedColoring) -> AlwaysBroadcast<()> {
    AlwaysBroadcast {
        delta_guess: spec.delta_guess,
        id_bound_guess: spec.id_bound_guess,
        target: spec.final_palette(),
        start: |init| init.id,
    }
}

fn reference_of_refine(spec: &RefineColoring) -> AlwaysBroadcast<u64> {
    AlwaysBroadcast {
        delta_guess: spec.delta_guess,
        id_bound_guess: spec.initial_palette_guess.saturating_sub(1),
        target: spec.final_palette(),
        start: |init| *init.input,
    }
}

/// Runs both automata on `view` through `session`, unbudgeted and with `budget`, and
/// checks they agree. Returns the unbudgeted event-driven run.
fn check<I, S>(
    at: &str,
    event: &S,
    reference: &AlwaysBroadcast<I>,
    view: &GraphView<'_>,
    inputs: &[I],
    budget: u64,
    session: &mut Session,
) -> Execution<u64>
where
    I: Clone + Send + Sync + 'static,
    S: ProgramSpec<Input = I, Output = u64>,
{
    let mut unbudgeted = None;
    for cfg in [RunConfig::seeded(5), RunConfig::seeded(6).with_budget(budget)] {
        let new = run_view(view, inputs, event, &cfg, session);
        let old = run_view(view, inputs, reference, &cfg, session);
        let at = format!("{at}, {} nodes, budget {:?}", view.node_count(), cfg.max_rounds);
        assert_eq!(new.outputs, old.outputs, "{at}: outputs differ");
        assert_eq!(new.rounds, old.rounds, "{at}: rounds differ");
        assert_eq!(new.termination, old.termination, "{at}: termination differs");
        assert_eq!(new.halted, old.halted, "{at}: halted differs");
        assert_eq!(new.completed, old.completed, "{at}: completion differs");
        assert!(new.messages <= old.messages, "{at}: event-driven sends more");
        unbudgeted.get_or_insert(new);
    }
    unbudgeted.expect("first configuration is unbudgeted")
}

/// Both colourings on `view` with the guesses `(delta, id_bound)` and a refined input
/// colouring drawn from `seed`.
fn check_both(
    view: &GraphView<'_>,
    delta: u64,
    id_bound: u64,
    seed: u64,
    budget: u64,
    session: &mut Session,
) {
    let targets = [
        ReducedColoring::delta_plus_one(delta, id_bound),
        ReducedColoring::lambda(delta, id_bound, 2),
    ];
    let units = vec![(); view.node_count()];
    for spec in &targets {
        let at = format!("{spec:?}");
        check(&at, spec, &reference_of_reduced(spec), view, &units, budget, session);
    }
    let palette = id_bound + 1;
    let inputs: Vec<u64> = (0..view.node_count() as u64)
        .map(|l| local_runtime::mix_seed(seed, l) % (palette + palette / 4 + 1))
        .collect();
    for target_colors in [0, delta + 3] {
        let spec =
            RefineColoring { delta_guess: delta, initial_palette_guess: palette, target_colors };
        let at = format!("{spec:?}");
        check(&at, &spec, &reference_of_refine(&spec), view, &inputs, budget, session);
    }
}

/// A gnp graph and a forest for `seed`; the tests run each in full and pruned.
fn configurations(seed: u64) -> Vec<local_runtime::Graph> {
    vec![gnp(40, 0.12, seed), forest_union(70, 3, seed ^ 0x5a)]
}

#[test]
fn good_guesses_agree_on_graphs_forests_and_pruned_views() {
    let mut session = Session::new();
    for seed in 0..3 {
        for graph in configurations(seed) {
            let p = GraphParams::of(&graph);
            let (delta, id_bound) = (p.max_degree.max(1), p.max_id.max(1));
            check_both(&GraphView::full(&graph), delta, id_bound, seed, 7, &mut session);
            let mut pruned = GraphView::full(&graph);
            let keep: Vec<bool> = (0..pruned.node_count()).map(|l| l % 3 != 1).collect();
            pruned.retain(&keep);
            check_both(&pruned, delta, id_bound, seed, 7, &mut session);
        }
    }
}

#[test]
fn colours_outside_the_linial_palette_never_recolour_and_halt_on_time() {
    // Δ̃ = 1, m̃ = 3: the Linial schedule is empty, its palette is 4 and the target 2, so
    // every node with identity >= 4 keeps a colour that no elimination step names.
    let mut session = Session::new();
    let spec = ReducedColoring::delta_plus_one(1, 3);
    assert!(linial_schedule(3, 1).is_empty());
    let (palette, target) = (linial_final_palette(3, 1), spec.final_palette());
    assert_eq!((palette, target), (4, 2));
    for graph in configurations(11) {
        let mut pruned = GraphView::full(&graph);
        pruned.retain(&(0..graph.node_count()).map(|v| v % 4 != 0).collect::<Vec<bool>>());
        for view in [GraphView::full(&graph), pruned] {
            let units = vec![(); view.node_count()];
            let run = check(
                "bad guesses",
                &spec,
                &reference_of_reduced(&spec),
                &view,
                &units,
                1,
                &mut session,
            );
            let halt = palette - target;
            assert_eq!(run.termination, vec![halt; view.node_count()]);
            for l in 0..view.node_count() {
                if view.id(l) >= palette {
                    assert_eq!(run.outputs[l], view.id(l), "a colour outside the palette moved");
                }
            }
            check_both(&view, 1, 3, 11, 1, &mut session);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_guesses_agree(
        seed in 0u64..1_000,
        delta in 1u64..12,
        id_bound in 1u64..400,
        budget in 0u64..40,
    ) {
        let mut session = Session::new();
        for graph in configurations(seed) {
            let mut pruned = GraphView::full(&graph);
            let keep: Vec<bool> =
                (0..graph.node_count()).map(|v| !(v as u64 + seed).is_multiple_of(5)).collect();
            pruned.retain(&keep);
            for view in [GraphView::full(&graph), pruned] {
                check_both(&view, delta, id_bound, seed, budget, &mut session);
            }
        }
    }
}
