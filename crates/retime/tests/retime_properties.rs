//! Property-based tests for retiming invariants.

use proptest::prelude::*;

use paraconv_graph::{NodeId, OpKind, Placement, TaskGraph, TaskGraphBuilder};
use paraconv_retime::{
    bounded_relative_retiming, minimal_relative_retiming, MovementAnalysis, RetimeError, Retiming,
    RetimingCase, MAX_RELATIVE_RETIMING,
};

fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..25).prop_flat_map(|n| {
        let edges = proptest::collection::btree_set((0..n, 0..n), 1..(n * 2));
        edges.prop_map(move |edges| {
            let mut b = TaskGraphBuilder::new("prop");
            let ids: Vec<NodeId> = (0..n)
                .map(|_| b.add_node("n", OpKind::Convolution, 1))
                .collect();
            for (a, z) in edges {
                let (lo, hi) = (a.min(z), a.max(z));
                if lo != hi {
                    let _ = b.add_edge(ids[lo], ids[hi], 1);
                }
            }
            b.build().expect("forward edges are acyclic")
        })
    })
}

/// A graph together with per-edge analysis inputs.
fn arb_analysis_inputs() -> impl Strategy<Value = (TaskGraph, u64, Vec<i64>, Vec<u64>, Vec<u64>)> {
    arb_dag().prop_flat_map(|g| {
        let e = g.edge_count();
        let period = 1u64..12;
        let gaps = proptest::collection::vec(-10i64..10, e);
        let cache = proptest::collection::vec(0u64..8, e);
        let extra = proptest::collection::vec(0u64..20, e);
        (Just(g), period, gaps, cache, extra).prop_map(|(g, p, gaps, cache, extra)| {
            let edram: Vec<u64> = cache.iter().zip(&extra).map(|(&c, &x)| c + x).collect();
            (g, p, gaps, cache, edram)
        })
    })
}

proptest! {
    #[test]
    fn minimal_requirement_is_sufficient_and_tight(
        transfer in 0u64..30, gap in -20i64..20, period in 1u64..15
    ) {
        let k = minimal_relative_retiming(transfer, gap, period);
        // Sufficient: the transfer fits with k periods of slack.
        prop_assert!(transfer as i64 <= gap + (k * period) as i64);
        // Tight: one fewer period would not fit (when k > 0).
        if k > 0 {
            prop_assert!(transfer as i64 > gap + ((k - 1) * period) as i64);
        }
    }

    #[test]
    fn bounded_requirement_never_exceeds_theorem(
        transfer in 0u64..100, gap in -50i64..50, period in 1u64..20
    ) {
        prop_assert!(bounded_relative_retiming(transfer, gap, period) <= MAX_RELATIVE_RETIMING);
    }

    #[test]
    fn induced_retiming_is_always_legal((g, p, gaps, cache, edram) in arb_analysis_inputs()) {
        let analysis = MovementAnalysis::analyze(&g, p, &gaps, &cache, &edram).unwrap();
        for placements in [
            vec![Placement::Cache; g.edge_count()],
            vec![Placement::Edram; g.edge_count()],
        ] {
            let r = Retiming::from_edge_requirements(&g, &analysis.requirements_for(&placements));
            prop_assert!(r.check_legal(&g).is_ok());
        }
    }

    #[test]
    fn caching_never_increases_rmax((g, p, gaps, cache, edram) in arb_analysis_inputs()) {
        let analysis = MovementAnalysis::analyze(&g, p, &gaps, &cache, &edram).unwrap();
        let all_edram = vec![Placement::Edram; g.edge_count()];
        let all_cache = vec![Placement::Cache; g.edge_count()];
        let r_edram = Retiming::from_edge_requirements(&g, &analysis.requirements_for(&all_edram)).max_value();
        let r_cache = Retiming::from_edge_requirements(&g, &analysis.requirements_for(&all_cache)).max_value();
        prop_assert!(r_cache <= r_edram);
    }

    #[test]
    fn caching_one_edge_helps_monotonically((g, p, gaps, cache, edram) in arb_analysis_inputs()) {
        // Flipping any single edge from eDRAM to cache never makes the
        // prologue longer.
        let analysis = MovementAnalysis::analyze(&g, p, &gaps, &cache, &edram).unwrap();
        let base = vec![Placement::Edram; g.edge_count()];
        let r_base = Retiming::from_edge_requirements(&g, &analysis.requirements_for(&base)).max_value();
        for (i, _) in g.edge_ids().enumerate().take(8) {
            let mut flipped = base.clone();
            flipped[i] = Placement::Cache;
            let r_flipped = Retiming::from_edge_requirements(&g, &analysis.requirements_for(&flipped)).max_value();
            prop_assert!(r_flipped <= r_base);
        }
    }

    #[test]
    fn case_requirements_match_analysis((g, p, gaps, cache, edram) in arb_analysis_inputs()) {
        let analysis = MovementAnalysis::analyze(&g, p, &gaps, &cache, &edram).unwrap();
        for (id, case) in analysis.cases() {
            let i = id.index();
            let k_cache = bounded_relative_retiming(cache[i], gaps[i], p);
            prop_assert_eq!(case.cache_requirement(), k_cache);
            prop_assert!(case.edram_requirement() >= case.cache_requirement());
            prop_assert_eq!(case.delta_r(), analysis.delta_r(id));
        }
    }

    #[test]
    fn histogram_total_equals_edge_count((g, p, gaps, cache, edram) in arb_analysis_inputs()) {
        let analysis = MovementAnalysis::analyze(&g, p, &gaps, &cache, &edram).unwrap();
        prop_assert_eq!(analysis.case_histogram().iter().sum::<usize>(), g.edge_count());
    }

    #[test]
    fn from_requirements_satisfies_all_requirements(g in arb_dag(), seed in 0u64..1000) {
        // Deterministic pseudo-random requirements in 0..=2.
        let reqs: Vec<u64> = g.edge_ids()
            .map(|e| (seed.wrapping_mul(31).wrapping_add(e.index() as u64 * 7)) % 3)
            .collect();
        let r = Retiming::from_edge_requirements(&g, &reqs);
        prop_assert!(r.check_legal(&g).is_ok());
        for ipr in g.edges() {
            let rel = r.relative_value(&g, ipr.id()).unwrap();
            prop_assert!(rel >= reqs[ipr.id().index()] as i64);
        }
        // Minimality of R_max: it equals the longest requirement-weighted path,
        // so some sink-rooted path achieves it; here we just check the
        // bound R_max <= 2 * (depth - 1).
        prop_assert!(r.max_value() <= MAX_RELATIVE_RETIMING * (g.depth() as u64 - 1));
    }

    #[test]
    fn minimal_requirement_is_monotone_in_each_argument(
        transfer in 0u64..40, gap in -20i64..20, period in 1u64..15
    ) {
        let k = minimal_relative_retiming(transfer, gap, period);
        // A slower transfer needs at least as much slack; a wider gap
        // or a longer period needs at most as much.
        prop_assert!(minimal_relative_retiming(transfer + 1, gap, period) >= k);
        prop_assert!(minimal_relative_retiming(transfer, gap + 1, period) <= k);
        prop_assert!(minimal_relative_retiming(transfer, gap, period + 1) <= k);
        prop_assert_eq!(bounded_relative_retiming(transfer, gap, period), k.min(MAX_RELATIVE_RETIMING));
    }

    #[test]
    fn requirement_retiming_is_the_least_legal_one(g in arb_dag(), seed in 0u64..1000) {
        let reqs: Vec<u64> = g.edge_ids()
            .map(|e| (seed.wrapping_mul(17).wrapping_add(e.index() as u64 * 5)) % 3)
            .collect();
        let r = Retiming::from_edge_requirements(&g, &reqs);
        let values: Vec<u64> = r.node_values().map(|(_, v)| v).collect();
        for id in g.node_ids() {
            // Each node sits exactly as far ahead as its most demanding
            // consumer edge asks, and sinks sit at zero: lowering any
            // value would break a requirement.
            let needed = g.out_edges(id).unwrap()
                .iter()
                .map(|&e| values[g.edge(e).unwrap().dst().index()] + reqs[e.index()])
                .max()
                .unwrap_or(0);
            prop_assert_eq!(values[id.index()], needed);
        }
        for ipr in g.edges() {
            prop_assert_eq!(
                r.edge_values_raw()[ipr.id().index()],
                values[ipr.dst().index()] + reqs[ipr.id().index()]
            );
        }
        prop_assert_eq!(r.prologue_time(3), 3 * r.max_value());
    }

    #[test]
    fn raw_values_round_trip_and_tampering_is_caught(g in arb_dag(), seed in 0u64..1000) {
        let reqs: Vec<u64> = g.edge_ids().map(|e| (seed + e.index() as u64) % 3).collect();
        let r = Retiming::from_edge_requirements(&g, &reqs);
        let nodes: Vec<u64> = r.node_values().map(|(_, v)| v).collect();
        let edges = r.edge_values_raw().to_vec();
        prop_assert_eq!(&Retiming::from_values(nodes.clone(), edges.clone()), &r);

        let Some(ipr) = g.edges().next() else {
            return Ok(());
        };
        let e = ipr.id().index();
        let mut above = edges.clone();
        above[e] = nodes[ipr.src().index()] + 1;
        prop_assert_eq!(
            Retiming::from_values(nodes.clone(), above).check_legal(&g),
            Err(RetimeError::ProducerBelowEdge(ipr.id()))
        );
        // Lifting a consumer above an edge into it only ever breaks the
        // consumer side: producers may sit arbitrarily far ahead.
        let mut raised = nodes.clone();
        raised[ipr.dst().index()] = edges[e] + 1;
        let tampered = Retiming::from_values(raised, edges.clone()).check_legal(&g);
        prop_assert!(
            matches!(tampered, Err(RetimeError::EdgeBelowConsumer(_))),
            "{:?}", tampered
        );

        let short = Retiming::from_values(nodes, edges[1..].to_vec());
        prop_assert_eq!(
            short.check_legal(&g),
            Err(RetimeError::ShapeMismatch { nodes: g.node_count(), edges: g.edge_count() - 1 })
        );
    }
}

#[test]
fn all_six_cases_reachable() {
    // One two-node graph per case, constructed from targeted latencies.
    let mk = || {
        let mut b = TaskGraphBuilder::new("pair");
        let a = b.add_conv(1);
        let z = b.add_conv(1);
        b.add_edge(a, z, 1).unwrap();
        b.build().unwrap()
    };
    let period = 4;
    let expectations = [
        // (gap, cache, edram, case)
        (3i64, 1u64, 3u64, RetimingCase::Case1),
        (0, 0, 4, RetimingCase::Case2),
        (0, 0, 8, RetimingCase::Case3),
        (0, 2, 4, RetimingCase::Case4),
        (0, 2, 8, RetimingCase::Case5),
        (-2, 5, 6, RetimingCase::Case6),
    ];
    for (gap, cache, edram, expected) in expectations {
        let g = mk();
        let a = MovementAnalysis::analyze(&g, period, &[gap], &[cache], &[edram]).unwrap();
        let e = g.edge_ids().next().unwrap();
        assert_eq!(
            a.case(e).unwrap(),
            expected,
            "gap={gap} c={cache} e={edram}"
        );
    }
}
