//! Retiming-legality checking (Bellman-style, no simulation).
//!
//! Two layers, both pure constraint checks on the outcome:
//!
//! 1. **Structural legality** — `R(i) ≥ R(i,j) ≥ R(j)` on every edge
//!    (Definition 3.1), delegated to [`paraconv_retime::Retiming::check_legal`].
//! 2. **Sufficiency** — for every edge the relative retiming
//!    `r(u) − r(v)` must cover the dependency distance its placement
//!    latency demands: `R(src) − R(dst) ≥ k(e)` where `k(e)` is
//!    re-derived independently from the kernel's slack and the cost
//!    model (Theorem 3.1). A plan that passes both can be emitted for
//!    *any* iteration count without a dependency violation.

use paraconv_graph::TaskGraph;
use paraconv_pim::{CostModel, PimConfig};
use paraconv_retime::minimal_relative_retiming;
use paraconv_sched::ParaConvOutcome;

use crate::diag::{RetimingViolation, VerifyError};

/// Checks the outcome's retiming against every edge's independently
/// re-derived requirement. Returns the number of edges checked.
///
/// # Errors
///
/// Returns [`VerifyError::IllegalRetiming`] for a structurally illegal
/// retiming and [`VerifyError::RetimingInsufficient`] with the full
/// violating edge set when any relative retiming is below its
/// placement's dependency distance.
pub fn check_retiming(
    graph: &TaskGraph,
    outcome: &ParaConvOutcome,
    config: &PimConfig,
) -> Result<usize, VerifyError> {
    crate::guard_shape(graph, outcome)?;
    outcome
        .core
        .retiming
        .check_legal(graph)
        .map_err(VerifyError::IllegalRetiming)?;

    let p = outcome.core.kernel.period();
    let cost = CostModel::new(config, graph.edge_count());
    let gaps = outcome.core.kernel.gaps(graph);
    let placements = outcome.core.allocation.to_placement_vec(graph.edge_count());

    let mut violations = Vec::new();
    for e in graph.edges() {
        let i = e.id().index();
        let transfer = cost.transfer_time(e.size(), placements[i]);
        let required = minimal_relative_retiming(transfer, gaps[i], p);
        let actual = outcome.core.retiming.relative_value(graph, e.id())?;
        if actual < required as i64 {
            violations.push(RetimingViolation {
                edge: e.id(),
                required,
                actual,
            });
        }
    }
    if violations.is_empty() {
        Ok(graph.edge_count())
    } else {
        Err(VerifyError::RetimingInsufficient { violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_sched::ParaConvScheduler;

    fn scheduled(pes: usize) -> (TaskGraph, ParaConvOutcome, PimConfig) {
        let g = examples::fork_join(9);
        let cfg = PimConfig::neurocube(pes).expect("valid test config");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 6)
            .expect("schedulable test graph");
        (g, outcome, cfg)
    }

    #[test]
    fn emitted_plans_pass() {
        let (g, outcome, cfg) = scheduled(8);
        assert_eq!(
            check_retiming(&g, &outcome, &cfg).expect("sound scheduler"),
            g.edge_count()
        );
    }

    #[test]
    fn erased_retiming_is_caught_with_the_violating_edges() {
        // All-eDRAM placements maximize the retiming requirements, so
        // the scheduler certainly needed a non-trivial retiming here.
        let g = examples::fork_join(9);
        let cfg = PimConfig::neurocube(8).expect("valid test config");
        let mut outcome = ParaConvScheduler::new(cfg.clone())
            .with_policy(paraconv_sched::AllocationPolicy::AllEdram)
            .schedule(&g, 6)
            .expect("schedulable test graph");
        // Erasing the retiming to zero keeps it structurally legal but
        // leaves every binding edge below its dependency distance.
        assert!(outcome.core.rmax() > 0, "test needs a binding requirement");
        outcome.core.retiming = paraconv_retime::Retiming::zero(&g);
        let err = check_retiming(&g, &outcome, &cfg).expect_err("slack erased");
        match err {
            VerifyError::RetimingInsufficient { violations } => {
                assert!(!violations.is_empty());
                assert!(violations.iter().all(|v| v.actual < v.required as i64));
            }
            other => panic!("expected RetimingInsufficient, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_a_diagnostic_not_a_panic() {
        let (_, outcome, cfg) = scheduled(4);
        let other = examples::chain(2);
        let err = check_retiming(&other, &outcome, &cfg).expect_err("wrong graph");
        assert!(matches!(err, VerifyError::ShapeMismatch { .. }));
    }
}
