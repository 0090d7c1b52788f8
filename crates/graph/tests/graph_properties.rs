//! Property-based tests for the task-graph invariants.

use proptest::prelude::*;

use paraconv_graph::{GraphError, NodeId, OpKind, TaskGraph, TaskGraphBuilder};

/// Strategy: a random DAG described by node count, per-node execution
/// times, and a set of forward edges (src < dst guarantees acyclicity).
fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..40).prop_flat_map(|n| {
        let exec_times = proptest::collection::vec(1u64..10, n);
        let edges = proptest::collection::btree_set((0..n, 0..n), 0..(n * 2));
        (exec_times, edges).prop_map(move |(times, edges)| {
            let mut b = TaskGraphBuilder::new("prop");
            let ids: Vec<NodeId> = times
                .iter()
                .map(|&c| b.add_node("n", OpKind::Convolution, c))
                .collect();
            for (a, z) in edges {
                let (lo, hi) = (a.min(z), a.max(z));
                if lo != hi {
                    // Duplicate (lo,hi) pairs are skipped; the builder
                    // rejects them and that is fine for generation.
                    let _ = b.add_edge(ids[lo], ids[hi], 1 + ((lo + hi) as u64 % 5));
                }
            }
            b.build().expect("forward edges cannot form a cycle")
        })
    })
}

proptest! {
    #[test]
    fn topological_order_is_a_permutation_respecting_edges(g in arb_dag()) {
        let order = g.topological_order().unwrap();
        prop_assert_eq!(order.len(), g.node_count());
        let mut pos = vec![usize::MAX; g.node_count()];
        for (i, id) in order.iter().enumerate() {
            prop_assert_eq!(pos[id.index()], usize::MAX, "node repeated in order");
            pos[id.index()] = i;
        }
        for e in g.edges() {
            prop_assert!(pos[e.src().index()] < pos[e.dst().index()]);
        }
    }

    #[test]
    fn critical_path_bounds(g in arb_dag()) {
        let cp = g.critical_path_length();
        let max_node = g.nodes().map(|n| n.exec_time()).max().unwrap();
        // The critical path is at least the longest single node and at
        // most the serial sum of all nodes.
        prop_assert!(cp >= max_node);
        prop_assert!(cp <= g.total_exec_time());
    }

    #[test]
    fn bottom_level_of_source_on_critical_path_equals_cp(g in arb_dag()) {
        let bl = g.bottom_levels();
        let cp = g.critical_path_length();
        // The maximum bottom level over all nodes is the critical path.
        prop_assert_eq!(bl.iter().copied().max().unwrap(), cp);
    }

    #[test]
    fn width_profile_sums_to_node_count(g in arb_dag()) {
        let total: usize = g.width_profile().iter().sum();
        prop_assert_eq!(total, g.node_count());
        prop_assert!(g.max_width() >= 1);
        prop_assert_eq!(g.width_profile().len(), g.depth());
    }

    #[test]
    fn degrees_are_consistent_with_edge_count(g in arb_dag()) {
        let out_sum: usize = g.node_ids().map(|id| g.out_edges(id).unwrap().len()).sum();
        let in_sum: usize = g.node_ids().map(|id| g.in_degree(id).unwrap()).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    #[test]
    fn sources_are_exactly_the_nodes_without_inputs(g in arb_dag()) {
        let sources = g.sources();
        prop_assert!(!sources.is_empty());
        for id in g.node_ids() {
            prop_assert_eq!(sources.contains(&id), g.in_edges(id).unwrap().is_empty());
        }
    }

    #[test]
    fn levels_are_the_tight_longest_unweighted_path(g in arb_dag()) {
        let levels = g.levels();
        for e in g.edges() {
            prop_assert!(levels[e.dst().index()] > levels[e.src().index()]);
        }
        for id in g.node_ids() {
            let preds: Vec<usize> = g
                .in_edges(id)
                .unwrap()
                .iter()
                .map(|&e| levels[g.edge(e).unwrap().src().index()])
                .collect();
            // A node sits one level below its deepest predecessor, and
            // exactly the sources sit at level zero.
            let expected = preds.iter().map(|l| l + 1).max().unwrap_or(0);
            prop_assert_eq!(levels[id.index()], expected);
        }
    }

    #[test]
    fn longest_path_through_any_node_is_at_most_the_critical_path(g in arb_dag()) {
        let finish = g.finish_depths();
        let bottom = g.bottom_levels();
        let cp = g.critical_path_length();
        let through: Vec<u64> = g
            .nodes()
            .map(|n| finish[n.id().index()] + bottom[n.id().index()] - n.exec_time())
            .collect();
        prop_assert!(through.iter().all(|&t| t <= cp));
        prop_assert_eq!(through.iter().copied().max().unwrap(), cp);
        // Sources finish after exactly their own execution time.
        for id in g.sources() {
            prop_assert_eq!(finish[id.index()], g.node(id).unwrap().exec_time());
        }
    }

    #[test]
    fn adjacency_lists_mirror_the_edge_list(g in arb_dag()) {
        for (i, e) in g.edges().enumerate() {
            prop_assert_eq!(e.id().index(), i);
            prop_assert_eq!(g.edge(e.id()).unwrap(), e);
            prop_assert!(g.out_edges(e.src()).unwrap().contains(&e.id()));
            prop_assert!(g.in_edges(e.dst()).unwrap().contains(&e.id()));
        }
        for id in g.node_ids() {
            prop_assert_eq!(g.node(id).unwrap().id(), id);
            for &e in g.out_edges(id).unwrap() {
                prop_assert_eq!(g.edge(e).unwrap().src(), id);
            }
            for &e in g.in_edges(id).unwrap() {
                prop_assert_eq!(g.edge(e).unwrap().dst(), id);
            }
        }
    }

    #[test]
    fn summary_agrees_with_the_individual_analyses(g in arb_dag()) {
        let s = g.summary();
        prop_assert_eq!(s.vertices, g.node_count());
        prop_assert_eq!(s.edges, g.edge_count());
        prop_assert_eq!(s.depth, g.depth());
        prop_assert_eq!(s.max_width, g.max_width());
        prop_assert_eq!(s.total_exec_time, g.total_exec_time());
        prop_assert_eq!(s.critical_path, g.critical_path_length());
        // Every generated node is a convolution.
        prop_assert_eq!(s.conv_ops, g.node_count());
        prop_assert_eq!(s.pool_ops, 0);
    }

    #[test]
    fn dot_output_mentions_every_node(g in arb_dag()) {
        let dot = g.to_dot();
        for id in g.node_ids() {
            let needle = format!("{id} ");
            prop_assert!(dot.contains(&needle));
        }
    }
}

#[test]
fn cycle_detection_on_back_edge() {
    let mut b = TaskGraphBuilder::new("cyc");
    let n: Vec<NodeId> = (0..5).map(|_| b.add_conv(1)).collect();
    for w in n.windows(2) {
        b.add_edge(w[0], w[1], 1).unwrap();
    }
    b.add_edge(n[4], n[0], 1).unwrap();
    assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
}
