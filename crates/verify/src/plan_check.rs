//! Plan binding: the proof covers the plan that executes.
//!
//! Every other check reasons over the outcome's periodic core — the
//! kernel, the retiming and the allocation. The occupancy bounds in
//! particular assume each transfer is an instance of its edge's
//! periodic family. This check closes the gap between the core and the
//! concrete plan: it re-emits the core through [`paraconv_sched::emit`]
//! at the plan's own iteration count and requires the result to equal
//! the outcome's plan entry for entry. A plan edited after scheduling
//! (or forged beside an honest core) is rejected, however plausible it
//! looks.

use paraconv_graph::TaskGraph;
use paraconv_pim::PimConfig;
use paraconv_sched::{ParaConvOutcome, SchedError};

use crate::diag::VerifyError;

/// Checks that `outcome.plan` is exactly the plan its kernel, retiming
/// and allocation emit for `outcome.plan.iterations()` iterations.
///
/// # Errors
///
/// Returns [`VerifyError::Cancelled`] when the ambient cancel token
/// stops the re-emission, [`VerifyError::Unemittable`] when the core
/// emits no plan and
/// [`VerifyError::PlanMismatch`] locating the first differing task or
/// transfer otherwise.
pub fn check_plan(
    graph: &TaskGraph,
    outcome: &ParaConvOutcome,
    config: &PimConfig,
) -> Result<(), VerifyError> {
    let emitted = paraconv_sched::emit(
        graph,
        config,
        &outcome.core.kernel,
        &outcome.core.retiming,
        &outcome.core.allocation,
        outcome.plan.iterations(),
    )
    .map_err(|e| match e {
        SchedError::Cancelled => VerifyError::Cancelled,
        other => VerifyError::Unemittable(other),
    })?;
    let plan = &outcome.plan;
    let mismatch = first_difference(emitted.tasks(), plan.tasks())
        .map(|index| ("tasks", index))
        .or_else(|| {
            first_difference(emitted.transfers(), plan.transfers())
                .map(|index| ("transfers", index))
        });
    match mismatch {
        Some((section, index)) => Err(VerifyError::PlanMismatch { section, index }),
        None => Ok(()),
    }
}

/// The first index at which `a` and `b` differ, counting a length
/// difference as a difference at the shorter length.
fn first_difference<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_pim::ExecutionPlan;
    use paraconv_sched::ParaConvScheduler;

    fn scheduled() -> (TaskGraph, ParaConvOutcome, PimConfig) {
        let g = examples::fork_join(9);
        let cfg = PimConfig::neurocube(8).expect("valid test config");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 6)
            .expect("schedulable test graph");
        (g, outcome, cfg)
    }

    #[test]
    fn emitted_plans_pass() {
        let (g, outcome, cfg) = scheduled();
        assert_eq!(check_plan(&g, &outcome, &cfg), Ok(()));
    }

    #[test]
    fn a_dropped_transfer_is_located() {
        let (g, mut outcome, cfg) = scheduled();
        let mut plan = ExecutionPlan::new(outcome.plan.iterations());
        for &t in outcome.plan.tasks() {
            plan.push_task(t);
        }
        let transfers = outcome.plan.transfers();
        for &x in &transfers[..transfers.len() - 1] {
            plan.push_transfer(x);
        }
        let last = transfers.len() - 1;
        outcome.plan = plan;
        assert_eq!(
            check_plan(&g, &outcome, &cfg),
            Err(VerifyError::PlanMismatch {
                section: "transfers",
                index: last
            })
        );
    }

    #[test]
    fn an_empty_plan_cannot_be_emitted() {
        let (g, mut outcome, cfg) = scheduled();
        outcome.plan = ExecutionPlan::new(0);
        assert_eq!(
            check_plan(&g, &outcome, &cfg),
            Err(VerifyError::Unemittable(SchedError::ZeroIterations))
        );
    }

    #[test]
    fn first_difference_counts_lengths() {
        assert_eq!(first_difference(&[1, 2], &[1, 2]), None);
        assert_eq!(first_difference(&[1, 2], &[1, 3]), Some(1));
        assert_eq!(first_difference(&[1, 2], &[1]), Some(1));
        assert_eq!(first_difference::<u8>(&[], &[4]), Some(0));
    }
}
