//! Experiment E5: the paper's §2.3 motivational example (Figure 3).
//!
//! On four PEs with one cache slot each, the baseline's intra-iteration
//! dependencies leave PEs idle and push intermediate processing results
//! to eDRAM, delaying T4/T5; Para-CONV's joint retiming + allocation
//! compacts every iteration into a short periodic kernel after a
//! bounded prologue.

use paraconv::graph::examples;
use paraconv::pim::{simulate, PimConfig};
use paraconv::sched::{ParaConvScheduler, SpartaScheduler};
use paraconv::ParaConv;

fn config() -> PimConfig {
    // "the PIM architecture consists of four PEs and each data cache of
    // a PE can hold only one intermediate processing result"
    PimConfig::builder(4)
        .per_pe_cache_units(1)
        .build()
        .expect("motivational configuration is valid")
}

#[test]
fn graph_matches_figure_2b() {
    let g = examples::motivational();
    assert_eq!(g.node_count(), 5);
    assert_eq!(g.edge_count(), 6);
    // Three dependency levels: T1 | T2,T3 | T4,T5.
    assert_eq!(g.depth(), 3);
    assert_eq!(g.max_width(), 2);
}

#[test]
fn paraconv_compacts_the_kernel() {
    let g = examples::motivational();
    let outcome = ParaConvScheduler::new(config())
        .schedule(&g, 30)
        .expect("motivational example schedules");
    // All five unit operations packed on four PEs: at most two slots
    // per iteration copy — strictly better than the three-level
    // dependency-bound schedule.
    assert!(outcome.core.time_per_iteration() <= 2.0);
    assert!((outcome.core.time_per_iteration() as f64) < 3.0);
    // The prologue is bounded: a handful of retimed iterations, as in
    // the paper's "three iterations of retiming are allocated into
    // prologue".
    assert!(outcome.core.rmax() >= 1);
    assert!(outcome.core.rmax() <= 6, "rmax = {}", outcome.core.rmax());
}

#[test]
fn cache_slots_are_contended() {
    let g = examples::motivational();
    let outcome = ParaConvScheduler::new(config())
        .schedule(&g, 10)
        .expect("motivational example schedules");
    // Six IPRs, four cache slots: not everything fits on chip.
    assert!(outcome.core.cached_iprs() < g.edge_count());
    let report = simulate(&g, &outcome.plan, &config()).expect("plan is valid");
    assert!(report.offchip_fetches > 0);
    assert!(report.peak_cache_occupancy <= report.cache_capacity);
}

#[test]
fn paraconv_beats_the_baseline_here() {
    let g = examples::motivational();
    let runner = ParaConv::new(config());
    let cmp = runner.compare(&g, 60).expect("both schedulers run");
    assert!(
        cmp.speedup() >= 1.0,
        "Para-CONV should not lose on its own motivational example: {:.2}",
        cmp.speedup()
    );
}

#[test]
fn baseline_suffers_dependency_delay() {
    let g = examples::motivational();
    let sparta = SpartaScheduler::new(config())
        .schedule(&g, 12)
        .expect("baseline schedules");
    // Intra-iteration dependencies force at least the critical path
    // (3) plus IPR transfer time into each batch.
    assert!(sparta.core.batch_makespan() > g.critical_path_length());
}

#[test]
fn steady_state_is_periodic_after_prologue() {
    let g = examples::motivational();
    let outcome = ParaConvScheduler::new(config())
        .schedule(&g, 24)
        .expect("motivational example schedules");
    let p = outcome.core.period();
    let u = outcome.core.unroll();
    // Instances of the same operation in consecutive iteration groups
    // are exactly one period apart.
    let probe = g.node_ids().next().expect("graph is non-empty");
    let find = |iteration: u64| {
        outcome
            .plan
            .tasks()
            .iter()
            .find(|t| t.node == probe && t.iteration == iteration)
            .expect("iteration planned")
    };
    let (a, b) = (find(1), find(1 + u));
    assert_eq!(b.start - a.start, p);
}
