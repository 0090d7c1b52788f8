//! Property-based tests: every emitted plan survives full architectural
//! validation, and the schedulers' structural guarantees hold.

use proptest::prelude::*;

use paraconv_alloc::IncrementalDp;
use paraconv_graph::{NodeId, OpKind, TaskGraph, TaskGraphBuilder};
use paraconv_pim::{simulate, PeId, PimConfig};
use paraconv_sched::{KernelSchedule, ParaConvScheduler, SpartaScheduler};

fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..18).prop_flat_map(|n| {
        let exec = proptest::collection::vec(1u64..4, n);
        let sizes = proptest::collection::vec(1u64..3, n * 2);
        let edges = proptest::collection::btree_set((0..n, 0..n), 0..(n * 2));
        (exec, sizes, edges).prop_map(move |(exec, sizes, edges)| {
            let mut b = TaskGraphBuilder::new("prop");
            let ids: Vec<NodeId> = exec
                .iter()
                .map(|&c| b.add_node("n", OpKind::Convolution, c))
                .collect();
            for (k, (a, z)) in edges.into_iter().enumerate() {
                let (lo, hi) = (a.min(z), a.max(z));
                if lo != hi {
                    let _ = b.add_edge(ids[lo], ids[hi], sizes[k % sizes.len()]);
                }
            }
            b.build().expect("forward edges are acyclic")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paraconv_plans_always_validate(
        g in arb_dag(), pes in prop::sample::select(vec![1usize, 2, 4, 16, 64]), iters in 1u64..6
    ) {
        let cfg = PimConfig::neurocube(pes).unwrap();
        let outcome = ParaConvScheduler::new(cfg.clone()).schedule(&g, iters).unwrap();
        let report = simulate(&g, &outcome.plan, &cfg).unwrap();
        prop_assert_eq!(report.iterations, iters);
        prop_assert!(report.peak_cache_occupancy <= report.cache_capacity);
    }

    #[test]
    fn sparta_plans_always_validate(
        g in arb_dag(), pes in prop::sample::select(vec![1usize, 2, 4, 16, 64]), iters in 1u64..6
    ) {
        let cfg = PimConfig::neurocube(pes).unwrap();
        let outcome = SpartaScheduler::new(cfg.clone()).schedule(&g, iters).unwrap();
        let report = simulate(&g, &outcome.plan, &cfg).unwrap();
        prop_assert_eq!(report.iterations, iters);
        prop_assert!(report.peak_cache_occupancy <= report.cache_capacity);
    }

    #[test]
    fn paraconv_steady_state_is_periodic(g in arb_dag(), iters in 2u64..6) {
        // The kernel repeats every p: with G = ⌈M/u⌉ iteration groups
        // the run ends inside the last window,
        // (R_max + G - 1)·p < total ≤ (R_max + G)·p.
        let cfg = PimConfig::neurocube(8).unwrap();
        let outcome = ParaConvScheduler::new(cfg).schedule(&g, iters).unwrap();
        let groups = iters.div_ceil(outcome.unroll());
        let upper = (outcome.rmax() + groups) * outcome.period();
        let lower = (outcome.rmax() + groups - 1) * outcome.period();
        prop_assert!(outcome.total_time() <= upper);
        prop_assert!(outcome.total_time() > lower);
    }

    #[test]
    fn paraconv_kernel_never_longer_than_sparta_batch_per_iteration(g in arb_dag()) {
        // The compacted kernel ignores intra-iteration dependencies, so
        // it is a lower bound on any dependency-respecting schedule of
        // one iteration.
        let cfg = PimConfig::neurocube(16).unwrap();
        let para = ParaConvScheduler::new(cfg.clone()).schedule(&g, 1).unwrap();
        let sparta = SpartaScheduler::new(cfg).schedule(&g, 1).unwrap();
        prop_assert!(para.period() <= sparta.batch_makespan);
    }

    #[test]
    fn kernel_period_is_list_scheduling_bound(g in arb_dag(), pes in 1usize..32) {
        let k = KernelSchedule::compact(&g, pes);
        let work = g.total_exec_time();
        let cmax = g.nodes().map(|n| n.exec_time()).max().unwrap();
        let lower = (work.div_ceil(pes as u64)).max(cmax);
        prop_assert!(k.period() >= lower.min(work).max(1));
        prop_assert!(k.period() <= work.div_ceil(pes as u64) + cmax);
    }

    #[test]
    fn more_pes_never_lengthen_the_kernel(g in arb_dag()) {
        let mut last = u64::MAX;
        for pes in [1usize, 2, 4, 8, 16] {
            let p = KernelSchedule::compact(&g, pes).period();
            prop_assert!(p <= last);
            last = p;
        }
    }

    #[test]
    fn cached_count_monotone_in_cache_size(g in arb_dag()) {
        // More aggregate cache never caches fewer IPRs under the DP.
        let mut last = 0usize;
        for per_pe in [0u64, 1, 2, 4, 16, 64] {
            let cfg = PimConfig::builder(4).per_pe_cache_units(per_pe).build().unwrap();
            let outcome = ParaConvScheduler::new(cfg).schedule(&g, 1).unwrap();
            let cached = outcome.cached_iprs();
            prop_assert!(cached >= last || outcome.allocation.total_profit() > 0,
                "cached {cached} after {last}");
            last = cached;
        }
    }

    #[test]
    fn kernel_slots_are_conflict_free_and_fit_the_period(
        g in arb_dag(), pes in 1usize..12, copies in 1u64..4
    ) {
        let k = KernelSchedule::compact_copies(&g, pes, copies);
        prop_assert_eq!(k.copies(), copies);
        let mut by_pe: Vec<Vec<(u64, u64)>> = vec![Vec::new(); pes];
        for copy in 0..copies {
            for n in g.nodes() {
                let (start, finish) = (k.start_at(n.id(), copy), k.finish_at(n.id(), copy));
                prop_assert_eq!(finish - start, n.exec_time());
                prop_assert!(finish <= k.period());
                by_pe[k.pe_at(n.id(), copy).index()].push((start, finish));
            }
        }
        for mut slots in by_pe {
            slots.sort_unstable();
            for w in slots.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap {:?} / {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn degraded_kernels_use_only_the_surviving_pes(
        g in arb_dag(), pes in 2u32..12, dead_seed in 0u32..1000, copies in 1u64..3
    ) {
        let dead = dead_seed % pes;
        let survivors: Vec<PeId> = (0..pes).filter(|&p| p != dead).map(PeId::new).collect();
        let k = KernelSchedule::compact_copies_on(&g, &survivors, copies);
        prop_assert!(k.pe_slots().iter().all(|pe| survivors.contains(pe)));
        // The identity list is the plain compaction, slot for slot.
        let all: Vec<PeId> = (0..pes).map(PeId::new).collect();
        prop_assert_eq!(
            KernelSchedule::compact_copies_on(&g, &all, copies),
            KernelSchedule::compact_copies(&g, pes as usize, copies)
        );
    }

    #[test]
    fn degraded_plans_avoid_the_failed_pe_and_validate(
        g in arb_dag(), dead in 0u32..8, iters in 1u64..5
    ) {
        let cfg = PimConfig::neurocube(8).unwrap().degrade(&[dead]).unwrap();
        let outcome = ParaConvScheduler::new(cfg.clone()).schedule(&g, iters).unwrap();
        prop_assert!(outcome.plan.tasks().iter().all(|t| t.pe != PeId::new(dead)));
        let report = simulate(&g, &outcome.plan, &cfg).unwrap();
        prop_assert!(report.peak_cache_occupancy <= cfg.total_cache_units());
    }

    #[test]
    fn rescheduling_through_a_session_matches_cold_schedules(
        g in arb_dag(), dead in 0u32..8, iters in 1u64..4
    ) {
        let healthy = PimConfig::neurocube(8).unwrap();
        let degraded = healthy.degrade(&[dead]).unwrap();
        let mut session = IncrementalDp::new();
        for cfg in [healthy, degraded] {
            let scheduler = ParaConvScheduler::new(cfg);
            let warm = scheduler.reschedule(&g, iters, &mut session).unwrap();
            let cold = scheduler.schedule(&g, iters).unwrap();
            prop_assert_eq!(warm.plan, cold.plan);
            prop_assert_eq!(warm.allocation, cold.allocation);
        }
    }

    #[test]
    fn retiming_values_cover_requirements(g in arb_dag(), pes in 1usize..16) {
        let cfg = PimConfig::neurocube(pes.max(1)).unwrap();
        let outcome = ParaConvScheduler::new(cfg).schedule(&g, 1).unwrap();
        prop_assert!(outcome.retiming.check_legal(&g).is_ok());
        // Producers always retimed at least as much as consumers.
        for ipr in g.edges() {
            prop_assert!(outcome.retiming.relative_value(&g, ipr.id()).unwrap() >= 0);
        }
    }
}
