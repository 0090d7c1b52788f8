//! Plan binding: the proof covers the plan that executes.
//!
//! Every other check reasons over the outcome's periodic core — the
//! kernel, the retiming and the allocation. The occupancy bounds in
//! particular assume each transfer is an instance of its edge's
//! periodic family. This check closes the gap between the core and the
//! concrete plan: it walks the core's emission at the plan's own
//! iteration count through [`paraconv_sched::first_plan_mismatch`] and
//! requires every emitted entry to equal the outcome's plan entry, so
//! no second plan is built. A plan edited after scheduling (or forged
//! beside an honest core) is rejected, however plausible it looks.

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
/// stops the walk, [`VerifyError::Unemittable`] when the core emits no
/// plan and [`VerifyError::PlanMismatch`] locating the first differing
/// task, or failing that the first differing transfer, otherwise.
pub fn check_plan(
    graph: &TaskGraph,
    outcome: &ParaConvOutcome,
    config: &PimConfig,
) -> Result<(), VerifyError> {
    let core = &outcome.core;
    let mismatch = paraconv_sched::first_plan_mismatch(
        graph,
        config,
        &core.kernel,
        &core.retiming,
        &core.allocation,
        &outcome.plan,
    )
    .map_err(|e| match e {
        SchedError::Cancelled => VerifyError::Cancelled,
        other => VerifyError::Unemittable(other),
    })?;
    match mismatch {
        Some((section, index)) => Err(VerifyError::PlanMismatch { section, index }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_pim::{ExecutionPlan, PlannedTask, PlannedTransfer};
    use paraconv_sched::ParaConvScheduler;

    fn scheduled() -> (TaskGraph, ParaConvOutcome, PimConfig) {
        let g = examples::fork_join(9);
        let cfg = PimConfig::neurocube(8).expect("valid test config");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 6)
            .expect("schedulable test graph");
        (g, outcome, cfg)
    }

    /// `plan` rebuilt from the given entries, at its own iteration
    /// count.
    fn rebuilt(
        plan: &ExecutionPlan,
        tasks: impl IntoIterator<Item = PlannedTask>,
        transfers: impl IntoIterator<Item = PlannedTransfer>,
    ) -> ExecutionPlan {
        let mut out = ExecutionPlan::new(plan.iterations());
        tasks.into_iter().for_each(|t| out.push_task(t));
        transfers.into_iter().for_each(|x| out.push_transfer(x));
        out
    }

    fn mismatch(section: &'static str, index: usize) -> Result<(), VerifyError> {
        Err(VerifyError::PlanMismatch { section, index })
    }

    #[test]
    fn emitted_plans_pass() {
        let (g, outcome, cfg) = scheduled();
        assert_eq!(check_plan(&g, &outcome, &cfg), Ok(()));
    }

    #[test]
    fn a_dropped_transfer_is_located() {
        let (g, mut outcome, cfg) = scheduled();
        let honest = outcome.plan.clone();
        let transfers = honest.transfers();
        let last = transfers.len() - 1;
        outcome.plan = rebuilt(
            &honest,
            honest.tasks().iter().copied(),
            transfers[..last].iter().copied(),
        );
        assert_eq!(check_plan(&g, &outcome, &cfg), mismatch("transfers", last));
    }

    #[test]
    fn a_task_outranks_an_earlier_transfer() {
        // The transfer differs in iteration 1, the task only in
        // iteration 2: the first differing task is still the answer.
        let (g, mut outcome, cfg) = scheduled();
        let honest = outcome.plan.clone();
        let task = honest
            .tasks()
            .iter()
            .position(|t| t.iteration == 2)
            .expect("iteration 2 is planned");
        let transfer = honest
            .transfers()
            .iter()
            .position(|x| x.iteration == 1)
            .expect("iteration 1 moves data");
        let mut tasks = honest.tasks().to_vec();
        tasks[task].start += 1;
        let mut transfers = honest.transfers().to_vec();
        transfers[transfer].duration += 1;
        outcome.plan = rebuilt(&honest, tasks, transfers.clone());
        assert_eq!(check_plan(&g, &outcome, &cfg), mismatch("tasks", task));
        // With the task restored, the transfer is reported.
        outcome.plan = rebuilt(&honest, honest.tasks().iter().copied(), transfers);
        assert_eq!(
            check_plan(&g, &outcome, &cfg),
            mismatch("transfers", transfer)
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
        let (g, mut outcome, cfg) = scheduled();
        let honest = outcome.plan.clone();
        let (tasks, transfers) = (honest.tasks(), honest.transfers());
        let extra_task = tasks[0];
        let extra_transfer = transfers[0];
        // A plan one task short or one task long differs at the shorter
        // length, whatever its transfers.
        outcome.plan = rebuilt(&honest, tasks[..tasks.len() - 1].iter().copied(), []);
        assert_eq!(
            check_plan(&g, &outcome, &cfg),
            mismatch("tasks", tasks.len() - 1)
        );
        outcome.plan = rebuilt(
            &honest,
            tasks.iter().copied().chain([extra_task]),
            transfers.iter().copied(),
        );
        assert_eq!(
            check_plan(&g, &outcome, &cfg),
            mismatch("tasks", tasks.len())
        );
        // With every task equal, the transfers' lengths decide.
        outcome.plan = rebuilt(
            &honest,
            tasks.iter().copied(),
            transfers.iter().copied().chain([extra_transfer]),
        );
        assert_eq!(
            check_plan(&g, &outcome, &cfg),
            mismatch("transfers", transfers.len())
        );
        outcome.plan = rebuilt(&honest, tasks.iter().copied(), []);
        assert_eq!(check_plan(&g, &outcome, &cfg), mismatch("transfers", 0));
    }

    #[test]
    fn a_plan_claiming_more_iterations_stops_at_its_own_end() {
        // The walk is bounded by the plan in hand: a plan that claims
        // 2^40 iterations but holds 6 is located at its seventh
        // iteration's first task, not unrolled for 2^40.
        let (g, mut outcome, cfg) = scheduled();
        let honest = outcome.plan.clone();
        outcome.plan = rebuilt(
            &ExecutionPlan::new(1 << 40),
            honest.tasks().iter().copied(),
            honest.transfers().iter().copied(),
        );
        assert_eq!(
            check_plan(&g, &outcome, &cfg),
            mismatch("tasks", honest.tasks().len())
        );
    }
}
