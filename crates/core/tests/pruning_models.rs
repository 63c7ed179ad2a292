//! Model tests: the compact formulations the pruning layer runs on, checked against the
//! explicit formulations they replaced.
//!
//! * [`SlcInput`] stores a strong-list-colouring list as "full grid minus removed colours";
//!   the model is the explicit `BTreeSet<SlcColor>` of the whole grid.
//! * [`MatchingPruning`] decides "matched" by scanning a node's neighbours; the model is the
//!   id → index map of the whole view followed by the reciprocal-neighbour test.

use local_runtime::{Graph, GraphView, NodeId};
use local_uniform::problem::{SlcColor, SlcInput};
use local_uniform::{MatchingPruning, PruningAlgorithm};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Every observable of `list` agrees with the explicit set `model`.
fn assert_agrees(list: &SlcInput, model: &BTreeSet<SlcColor>, delta_hat: u64, base: u64) {
    // Probe one step past the grid on every side.
    for k in 0..=base + 2 {
        for j in 0..=delta_hat + 3 {
            assert_eq!(list.contains((k, j)), model.contains(&(k, j)), "contains({k}, {j})");
        }
        let model_first = model.range((k, 0)..=(k, u64::MAX)).next().map(|&(_, j)| j);
        assert_eq!(list.first_copy(k), model_first, "first_copy({k})");
        let model_copies = model.range((k, 0)..=(k, u64::MAX)).count();
        assert_eq!(list.copies_of(k), model_copies, "copies_of({k})");
    }
    assert_eq!(list.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    let model_bases: BTreeSet<u64> = model.iter().map(|&(k, _)| k).collect();
    assert_eq!(list.base_colors(), model_bases);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slc_input_agrees_with_a_btreeset_model(
        delta_hat in 0u64..6,
        base in 0u64..6,
        // Coordinates 0..9 fall outside the grid on every side as well as inside it.
        removals in prop::collection::vec((0u64..9, 0u64..9), 0..48),
    ) {
        let mut list = SlcInput::full(delta_hat, base);
        let mut model: BTreeSet<SlcColor> = (1..=base.max(1))
            .flat_map(|k| (1..=delta_hat + 1).map(move |j| (k, j)))
            .collect();
        assert_agrees(&list, &model, delta_hat, base);
        // The second pass repeats every removal.
        for &color in removals.iter().chain(&removals) {
            list.remove(color);
            model.remove(&color);
            assert_agrees(&list, &model, delta_hat, base);
        }
    }
}

/// The id-map formulation of "matched": `u` names a node of the view, that node is a
/// neighbour of `u`, and it names `u` back.
fn matched_by_id_map(view: &GraphView<'_>, claims: &[Option<NodeId>]) -> Vec<bool> {
    let index_of: HashMap<NodeId, usize> =
        (0..view.node_count()).map(|v| (view.id(v), v)).collect();
    (0..view.node_count())
        .map(|u| {
            claims[u].and_then(|pid| index_of.get(&pid).copied()).is_some_and(|p| {
                view.has_edge(u, p)
                    && claims[u] == Some(view.id(p))
                    && claims[p] == Some(view.id(u))
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matching_pruning_agrees_with_the_id_map_formulation(
        n in 1usize..40,
        p in 0.0f64..0.3,
        graph_seed in any::<u64>(),
        // Sparse identities, so an index is never mistaken for an id.
        id_gaps in prop::collection::vec(1u64..5, 40),
        alive in prop::collection::vec(0u64..8, 40),
        // Per node: a claim kind and a pick among the candidates of that kind.
        claims in prop::collection::vec((0u64..6, any::<u64>()), 40),
    ) {
        let shape = local_graphs::gnp(n, p, graph_seed);
        let ids: Vec<NodeId> =
            id_gaps[..n].iter().scan(0, |id, gap| { *id += gap; Some(*id) }).collect();
        let edges: Vec<(usize, usize)> = shape.edges().collect();
        let graph = Graph::from_edges_with_ids(n, &edges, &ids).expect("valid graph");
        // Masked-out nodes keep their ids in the base graph: claims naming them point outside
        // the view.
        let keep: Vec<bool> = alive[..n].iter().map(|&a| a != 0).collect();
        let view = GraphView::with_mask(&graph, &keep);
        let live = view.node_count();
        let masked: Vec<NodeId> = (0..n).filter(|&v| !keep[v]).map(|v| ids[v]).collect();

        let mut tentative: Vec<Option<NodeId>> = vec![None; live];
        // Kind 0: a mutual claim with a still-free neighbour, so matched pairs occur.
        for u in 0..live {
            let (kind, pick) = claims[u];
            if kind == 0 && tentative[u].is_none() {
                let free: Vec<usize> =
                    view.neighbors(u).filter(|&v| tentative[v].is_none()).collect();
                if !free.is_empty() {
                    let v = free[pick as usize % free.len()];
                    tentative[u] = Some(view.id(v));
                    tentative[v] = Some(view.id(u));
                }
            }
        }
        // The other kinds overwrite: a neighbour, any live node, a masked node, an id
        // nobody has, or no claim.
        for u in 0..live {
            let (kind, pick) = claims[u];
            let neighbours: Vec<usize> = view.neighbors(u).collect();
            let claim = match kind {
                1 if !neighbours.is_empty() => {
                    Some(view.id(neighbours[pick as usize % neighbours.len()]))
                }
                2 => Some(view.id(pick as usize % live)),
                3 if !masked.is_empty() => Some(masked[pick as usize % masked.len()]),
                4 => Some(ids[n - 1] + 1 + pick % 8),
                5 => None,
                _ => continue,
            };
            tentative[u] = claim;
        }

        let matched = matched_by_id_map(&view, &tentative);
        let units = vec![(); live];
        let pruned = MatchingPruning.prune(&view, &units, &tentative).pruned;
        let expected: Vec<bool> =
            (0..live).map(|u| matched[u] || view.neighbors(u).all(|v| matched[v])).collect();
        prop_assert_eq!(pruned, expected);

        let mut normalized = tentative.clone();
        MatchingPruning.normalize(&view, &mut normalized);
        let expected: Vec<Option<NodeId>> =
            tentative.iter().zip(&matched).map(|(&c, &m)| if m { c } else { None }).collect();
        prop_assert_eq!(normalized, expected);
    }
}
