//! Plan emission: the unrolled plan as a pure function of the periodic
//! core.
//!
//! A Para-CONV schedule is a prologue of `R_max × p` followed by the
//! retimed kernel, repeated every period (§3), so the executed plan is
//! fully determined by the kernel, the retiming, the IPR placements and
//! the iteration count. [`emit`] is the one place that unrolls it: the
//! scheduler calls it to build its outcome, the verifier re-runs it to
//! prove that an outcome's plan is the one its core describes, and the
//! artifact decoder re-derives the plan from the stored core instead of
//! storing the timeline.
//!
//! The core may come from an untrusted artifact, so emission is total:
//! a kernel or retiming shaped for another graph, a degenerate kernel,
//! a time beyond `u64` or a plan too large to allocate is a typed
//! [`SchedError`], never a panic or an abort. Emission records nothing
//! to the observability layer, so re-emitting during verification or
//! decoding leaves metrics and flight records unchanged.

use paraconv_alloc::CacheAllocation;
use paraconv_graph::TaskGraph;
use paraconv_pim::{CostModel, ExecutionPlan, PimConfig, PlannedTask, PlannedTransfer};
use paraconv_retime::Retiming;

use crate::{KernelSchedule, SchedError};

/// Unrolls the periodic core into the concrete plan of `iterations`
/// iterations.
///
/// Iteration `ℓ` occupies copy `(ℓ−1) mod u` of kernel group
/// `g = (ℓ−1) div u`; a node retimed by `R(i)` runs that group in
/// kernel window `g + R_max − R(i)`, so instance `V_i^ℓ` starts at
/// `(g + R_max − R(i))·p + offset(i)` on its kernel PE. Every transfer
/// departs when its producer finishes and takes the latency of its
/// placement under [`CostModel`]. The ambient cancel token is polled
/// every 64 iterations.
///
/// # Errors
///
/// * [`SchedError::ZeroIterations`] for `iterations == 0`;
/// * [`SchedError::DegenerateKernel`] for a zero period or zero copies;
/// * [`SchedError::ShapeMismatch`] when the kernel or the retiming
///   covers a different number of operations than `graph`;
/// * [`SchedError::TimeOverflow`] when a latency, start or finish time
///   does not fit in `u64`;
/// * [`SchedError::PlanTooLarge`] when the plan cannot be allocated;
/// * [`SchedError::Cancelled`] when the ambient token fires.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_pim::PimConfig;
/// use paraconv_sched::{emit, ParaConvScheduler};
///
/// let g = examples::motivational();
/// let cfg = PimConfig::neurocube(4)?;
/// let o = ParaConvScheduler::new(cfg.clone()).schedule(&g, 6)?;
/// let plan = emit(&g, &cfg, &o.core.kernel, &o.core.retiming, &o.core.allocation, 6)?;
/// assert_eq!(plan, o.plan);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn emit(
    graph: &TaskGraph,
    config: &PimConfig,
    kernel: &KernelSchedule,
    retiming: &Retiming,
    allocation: &CacheAllocation,
    iterations: u64,
) -> Result<ExecutionPlan, SchedError> {
    if iterations == 0 {
        return Err(SchedError::ZeroIterations);
    }
    let p = kernel.period();
    let unroll = kernel.copies();
    if p == 0 || unroll == 0 {
        return Err(SchedError::DegenerateKernel {
            period: p,
            copies: unroll,
        });
    }
    let graph_nodes = graph.node_count();
    for (part, nodes) in [
        ("kernel", kernel.node_count()),
        ("retiming", retiming.node_values().len()),
    ] {
        if nodes != graph_nodes {
            return Err(SchedError::ShapeMismatch {
                part,
                nodes,
                graph_nodes,
            });
        }
    }

    let n = graph_nodes;
    let overflow = || SchedError::TimeOverflow;
    let cost = CostModel::new(config, graph.edge_count());
    let placements = allocation.to_placement_vec(graph.edge_count());
    let latency = graph
        .edges()
        .map(|e| {
            cost.checked_transfer_time(e.size(), placements[e.id().index()])
                .ok_or_else(overflow)
        })
        .collect::<Result<Vec<u64>, SchedError>>()?;

    // Per kernel slot (`copy × n + node`): when the task starts and when
    // its results depart, relative to the first window of its group.
    // Node `i` trails the most-retimed node by `R_max − R(i)` windows.
    let rmax = retiming.max_value();
    let retimed: Vec<u64> = retiming.node_values().map(|(_, r)| r).collect();
    let lagged = |offsets: &[u64]| {
        offsets
            .iter()
            .enumerate()
            .map(|(slot, &offset)| {
                (rmax - retimed[slot % n])
                    .checked_mul(p)
                    .and_then(|lag| lag.checked_add(offset))
                    .ok_or_else(overflow)
            })
            .collect::<Result<Vec<u64>, SchedError>>()
    };
    let start = lagged(kernel.start_slots())?;
    let depart = lagged(kernel.finish_slots())?;
    let exec: Vec<u64> = graph.nodes().map(|node| node.exec_time()).collect();

    // One bound proves that every emitted time fits in u64: the last
    // group's base plus the latest relative end of any task or transfer.
    // Every start and finish below is at most this sum.
    let task_ends = start
        .iter()
        .enumerate()
        .map(|(slot, &s)| s.checked_add(exec[slot % n]));
    let transfer_ends = depart.chunks_exact(n.max(1)).flat_map(|row| {
        graph
            .edges()
            .map(|e| row[e.src().index()].checked_add(latency[e.id().index()]))
    });
    task_ends
        .chain(transfer_ends)
        .try_fold(0, |latest: u64, end| end.map(|end| latest.max(end)))
        .zip(((iterations - 1) / unroll).checked_mul(p))
        .and_then(|(latest, last_base)| last_base.checked_add(latest))
        .ok_or_else(overflow)?;

    let pe = kernel.pe_slots();
    let mut plan = reserve_plan(graph, iterations)?;
    for iter in 1..=iterations {
        if iter % 64 == 0 && paraconv_obs::cancel_requested() {
            return Err(SchedError::Cancelled);
        }
        let base = (iter - 1) / unroll * p;
        let row = ((iter - 1) % unroll) as usize * n;
        for node in graph.nodes() {
            let slot = row + node.id().index();
            plan.push_task(PlannedTask {
                node: node.id(),
                iteration: iter,
                pe: pe[slot],
                start: base + start[slot],
                duration: exec[node.id().index()],
            });
        }
        for ipr in graph.edges() {
            let i = ipr.id().index();
            plan.push_transfer(PlannedTransfer {
                edge: ipr.id(),
                iteration: iter,
                placement: placements[i],
                start: base + depart[row + ipr.src().index()],
                duration: latency[i],
                dst_pe: pe[row + ipr.dst().index()],
            });
        }
    }
    Ok(plan)
}

/// An empty plan with room for exactly one task per node and one
/// transfer per edge in each of `iterations` iterations. Sizes are
/// computed with checked arithmetic and the reservation is exact, so an
/// oversized request is a typed error up front instead of an allocator
/// abort while the plan fills.
fn reserve_plan(graph: &TaskGraph, iterations: u64) -> Result<ExecutionPlan, SchedError> {
    let too_large = || SchedError::PlanTooLarge { iterations };
    let per_iteration = |count: usize| {
        usize::try_from(iterations)
            .ok()
            .and_then(|n| n.checked_mul(count))
            .ok_or_else(too_large)
    };
    ExecutionPlan::with_capacity(
        iterations,
        per_iteration(graph.node_count())?,
        per_iteration(graph.edge_count())?,
    )
    .map_err(|_| too_large())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParaConvOutcome, ParaConvScheduler};
    use paraconv_graph::examples;

    fn scheduled(iterations: u64) -> (TaskGraph, PimConfig, ParaConvOutcome) {
        let g = examples::fork_join(9);
        let cfg = PimConfig::neurocube(8).unwrap();
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, iterations)
            .unwrap();
        (g, cfg, outcome)
    }

    /// Emits `o`'s core with the kernel and retiming swapped for the
    /// given ones.
    fn emit_with(
        (g, cfg, o): &(TaskGraph, PimConfig, ParaConvOutcome),
        kernel: &KernelSchedule,
        retiming: &Retiming,
        iterations: u64,
    ) -> Result<ExecutionPlan, SchedError> {
        emit(g, cfg, kernel, retiming, &o.core.allocation, iterations)
    }

    #[test]
    fn re_emission_reproduces_the_scheduler_plan() {
        for iterations in [1, 5, 64, 65, 130] {
            let run = scheduled(iterations);
            let o = &run.2;
            let plan = emit_with(&run, &o.core.kernel, &o.core.retiming, iterations).unwrap();
            assert_eq!(plan, o.plan, "iterations={iterations}");
        }
    }

    #[test]
    fn zero_copies_is_a_typed_error() {
        let run = scheduled(4);
        let (g, _, o) = &run;
        let period = o.core.kernel.period();
        let zero =
            KernelSchedule::from_parts(period, 0, g.node_count(), vec![], vec![], vec![]).unwrap();
        assert_eq!(
            emit_with(&run, &zero, &o.core.retiming, 4),
            Err(SchedError::DegenerateKernel { period, copies: 0 })
        );
    }

    #[test]
    fn foreign_kernels_and_short_retimings_are_shape_errors() {
        let run = scheduled(4);
        let (g, _, o) = &run;
        let foreign = KernelSchedule::compact(&examples::chain(3), 8);
        assert!(matches!(
            emit_with(&run, &foreign, &o.core.retiming, 4),
            Err(SchedError::ShapeMismatch { part: "kernel", .. })
        ));
        let short = Retiming::from_values(vec![0; g.node_count() - 1], vec![0; g.edge_count()]);
        assert!(matches!(
            emit_with(&run, &o.core.kernel, &short, 4),
            Err(SchedError::ShapeMismatch {
                part: "retiming",
                ..
            })
        ));
    }

    #[test]
    fn overflowing_times_are_typed_errors() {
        let run = scheduled(4);
        let o = &run.2;
        let mut nodes: Vec<u64> = o.core.retiming.node_values().map(|(_, v)| v).collect();
        nodes[0] = u64::MAX;
        let huge = Retiming::from_values(nodes, o.core.retiming.edge_values_raw().to_vec());
        assert!(matches!(
            emit_with(&run, &o.core.kernel, &huge, 4),
            Err(SchedError::TimeOverflow)
        ));
    }

    #[test]
    fn unallocatable_plans_are_typed_errors() {
        let run = scheduled(4);
        let o = &run.2;
        // 2^60 iterations fit the clock but not the address space.
        let iterations = 1u64 << 60;
        assert_eq!(
            emit_with(&run, &o.core.kernel, &o.core.retiming, iterations),
            Err(SchedError::PlanTooLarge { iterations })
        );
        // u64::MAX iterations overflow the clock before any allocation.
        assert_eq!(
            emit_with(&run, &o.core.kernel, &o.core.retiming, u64::MAX),
            Err(SchedError::TimeOverflow)
        );
        assert_eq!(
            emit_with(&run, &o.core.kernel, &o.core.retiming, 0),
            Err(SchedError::ZeroIterations)
        );
    }

    #[test]
    fn emission_polls_the_cancel_token() {
        let run = scheduled(4);
        let o = &run.2;
        let token = paraconv_obs::CancelToken::new();
        token.cancel();
        let _scope = paraconv_obs::CancelScope::enter(token);
        // Fewer than 64 iterations never reach a poll; more do.
        assert!(emit_with(&run, &o.core.kernel, &o.core.retiming, 63).is_ok());
        assert_eq!(
            emit_with(&run, &o.core.kernel, &o.core.retiming, 64),
            Err(SchedError::Cancelled)
        );
    }
}
