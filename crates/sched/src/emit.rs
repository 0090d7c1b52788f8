//! Plan emission: the unrolled plan as a pure function of the periodic
//! core.
//!
//! A Para-CONV schedule is a prologue of `R_max × p` followed by the
//! retimed kernel, repeated every period (§3), so the executed plan is
//! fully determined by the kernel, the retiming, the IPR placements and
//! the iteration count. One private loop unrolls it and hands each
//! entry to a consumer. [`emit`] collects the entries into a plan: the
//! scheduler calls it to build its outcome, and the artifact decoder
//! re-derives the plan from the stored core instead of storing the
//! timeline. [`first_plan_mismatch`] compares them one by one against
//! an existing plan, which is how the verifier proves that an
//! outcome's plan is the one its core describes without building a
//! second plan.
//!
//! The core may come from an untrusted artifact, so emission is total:
//! a kernel or retiming shaped for another graph, a degenerate kernel,
//! a time beyond `u64` or a plan too large to allocate is a typed
//! [`SchedError`], never a panic or an abort. Emission records nothing
//! to the observability layer, so emitting during verification or
//! decoding leaves metrics and flight records unchanged.

use core::ops::ControlFlow;

use paraconv_alloc::CacheAllocation;
use paraconv_graph::{Placement, TaskGraph};
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
    let unroll = Unroll::new(graph, config, kernel, retiming, allocation, iterations)?;
    let mut plan = reserve_plan(graph, iterations)?;
    unroll.run(graph, &mut plan)?;
    Ok(plan)
}

/// Where `plan` first departs from the plan [`emit`] gives for the
/// same core at `plan.iterations()` iterations, found without building
/// that plan: `("tasks", i)` for the first differing task, otherwise
/// `("transfers", i)` for the first differing transfer, a length
/// difference counting as a difference at the shorter length. `None`
/// when the two are equal entry for entry.
///
/// The walk stops at the first differing task, so it never runs past
/// the end of `plan`'s tasks.
///
/// # Errors
///
/// The [`emit`] errors for the same core and iteration count, except
/// that no plan is allocated, so there is no
/// [`SchedError::PlanTooLarge`].
pub fn first_plan_mismatch(
    graph: &TaskGraph,
    config: &PimConfig,
    kernel: &KernelSchedule,
    retiming: &Retiming,
    allocation: &CacheAllocation,
    plan: &ExecutionPlan,
) -> Result<Option<(&'static str, usize)>, SchedError> {
    let unroll = Unroll::new(
        graph,
        config,
        kernel,
        retiming,
        allocation,
        plan.iterations(),
    )?;
    let mut walk = Comparison {
        tasks: plan.tasks(),
        transfers: plan.transfers(),
        next_task: 0,
        next_transfer: 0,
        task_mismatch: None,
        transfer_mismatch: None,
    };
    unroll.run(graph, &mut walk)?;
    Ok(walk.first_mismatch())
}

/// What the unroll loop hands each entry to, in emission order. A
/// `Break` stops the unroll.
trait Consumer {
    fn task(&mut self, task: PlannedTask) -> ControlFlow<()>;
    fn transfer(&mut self, transfer: PlannedTransfer) -> ControlFlow<()>;
}

impl Consumer for ExecutionPlan {
    fn task(&mut self, task: PlannedTask) -> ControlFlow<()> {
        self.push_task(task);
        ControlFlow::Continue(())
    }

    fn transfer(&mut self, transfer: PlannedTransfer) -> ControlFlow<()> {
        self.push_transfer(transfer);
        ControlFlow::Continue(())
    }
}

/// Compares the emitted entries with an existing plan's as they come.
struct Comparison<'p> {
    tasks: &'p [PlannedTask],
    transfers: &'p [PlannedTransfer],
    next_task: usize,
    next_transfer: usize,
    task_mismatch: Option<usize>,
    transfer_mismatch: Option<usize>,
}

impl Consumer for Comparison<'_> {
    fn task(&mut self, task: PlannedTask) -> ControlFlow<()> {
        if self.tasks.get(self.next_task) != Some(&task) {
            // A differing task outranks any transfer: nothing further
            // can change the answer.
            self.task_mismatch = Some(self.next_task);
            return ControlFlow::Break(());
        }
        self.next_task += 1;
        ControlFlow::Continue(())
    }

    fn transfer(&mut self, transfer: PlannedTransfer) -> ControlFlow<()> {
        let index = self.next_transfer;
        if self.transfer_mismatch.is_none() && self.transfers.get(index) != Some(&transfer) {
            self.transfer_mismatch = Some(index);
        }
        self.next_transfer += 1;
        ControlFlow::Continue(())
    }
}

impl Comparison<'_> {
    /// The answer once the unroll has ended or stopped: a plan with
    /// entries beyond the emitted ones differs at the emitted length.
    fn first_mismatch(&self) -> Option<(&'static str, usize)> {
        let longer = |next: usize, len: usize| (next < len).then_some(next);
        self.task_mismatch
            .or_else(|| longer(self.next_task, self.tasks.len()))
            .map(|index| ("tasks", index))
            .or_else(|| {
                self.transfer_mismatch
                    .or_else(|| longer(self.next_transfer, self.transfers.len()))
                    .map(|index| ("transfers", index))
            })
    }
}

/// A core checked for emission: the per-slot times, latencies and
/// placements every iteration reuses.
struct Unroll<'k> {
    iterations: u64,
    kernel: &'k KernelSchedule,
    /// Per kernel slot (`copy × n + node`): when the task starts and
    /// when its results depart, relative to the first window of its
    /// group.
    start: Vec<u64>,
    depart: Vec<u64>,
    exec: Vec<u64>,
    latency: Vec<u64>,
    placements: Vec<Placement>,
}

impl<'k> Unroll<'k> {
    /// Runs every check [`emit`] makes before it allocates, so both
    /// consumers refuse a core with the same error.
    fn new(
        graph: &TaskGraph,
        config: &PimConfig,
        kernel: &'k KernelSchedule,
        retiming: &Retiming,
        allocation: &CacheAllocation,
        iterations: u64,
    ) -> Result<Self, SchedError> {
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

        // Node `i` trails the most-retimed node by `R_max − R(i)`
        // windows.
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
        // group's base plus the latest relative end of any task or
        // transfer. Every start and finish below is at most this sum.
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

        Ok(Unroll {
            iterations,
            kernel,
            start,
            depart,
            exec,
            latency,
            placements,
        })
    }

    /// Hands every task and transfer of the unrolled plan to `consumer`
    /// in plan order, polling the ambient cancel token every 64
    /// iterations, until the plan ends or `consumer` breaks.
    fn run(&self, graph: &TaskGraph, consumer: &mut impl Consumer) -> Result<(), SchedError> {
        let n = graph.node_count();
        let (p, unroll, pe) = (
            self.kernel.period(),
            self.kernel.copies(),
            self.kernel.pe_slots(),
        );
        for iter in 1..=self.iterations {
            if iter % 64 == 0 && paraconv_obs::cancel_requested() {
                return Err(SchedError::Cancelled);
            }
            let base = (iter - 1) / unroll * p;
            let row = ((iter - 1) % unroll) as usize * n;
            for node in graph.nodes() {
                let slot = row + node.id().index();
                let task = PlannedTask {
                    node: node.id(),
                    iteration: iter,
                    pe: pe[slot],
                    start: base + self.start[slot],
                    duration: self.exec[node.id().index()],
                };
                if consumer.task(task).is_break() {
                    return Ok(());
                }
            }
            for ipr in graph.edges() {
                let i = ipr.id().index();
                let transfer = PlannedTransfer {
                    edge: ipr.id(),
                    iteration: iter,
                    placement: self.placements[i],
                    start: base + self.depart[row + ipr.src().index()],
                    duration: self.latency[i],
                    dst_pe: pe[row + ipr.dst().index()],
                };
                if consumer.transfer(transfer).is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
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

    /// [`first_plan_mismatch`] of `o`'s core against `plan`.
    fn walk(
        (g, cfg, o): &(TaskGraph, PimConfig, ParaConvOutcome),
        kernel: &KernelSchedule,
        plan: &ExecutionPlan,
    ) -> Result<Option<(&'static str, usize)>, SchedError> {
        first_plan_mismatch(g, cfg, kernel, &o.core.retiming, &o.core.allocation, plan)
    }

    #[test]
    fn the_walk_finds_the_scheduler_plan_equal() {
        for iterations in [1, 5, 64, 65, 130] {
            let run = scheduled(iterations);
            let o = &run.2;
            assert_eq!(
                walk(&run, &o.core.kernel, &o.plan),
                Ok(None),
                "iterations={iterations}"
            );
        }
    }

    #[test]
    fn the_walk_refuses_what_emit_refuses() {
        let run = scheduled(4);
        let (g, _, o) = &run;
        let period = o.core.kernel.period();
        let zero =
            KernelSchedule::from_parts(period, 0, g.node_count(), vec![], vec![], vec![]).unwrap();
        assert_eq!(
            walk(&run, &zero, &o.plan),
            Err(SchedError::DegenerateKernel { period, copies: 0 })
        );
        let foreign = KernelSchedule::compact(&examples::chain(3), 8);
        assert!(matches!(
            walk(&run, &foreign, &o.plan),
            Err(SchedError::ShapeMismatch { part: "kernel", .. })
        ));
        assert_eq!(
            walk(&run, &o.core.kernel, &ExecutionPlan::new(0)),
            Err(SchedError::ZeroIterations)
        );
        assert_eq!(
            walk(&run, &o.core.kernel, &ExecutionPlan::new(u64::MAX)),
            Err(SchedError::TimeOverflow)
        );
    }

    #[test]
    fn the_walk_polls_the_cancel_token() {
        let (short, long) = (scheduled(63), scheduled(64));
        let token = paraconv_obs::CancelToken::new();
        token.cancel();
        let _scope = paraconv_obs::CancelScope::enter(token);
        assert_eq!(walk(&short, &short.2.core.kernel, &short.2.plan), Ok(None));
        assert_eq!(
            walk(&long, &long.2.core.kernel, &long.2.plan),
            Err(SchedError::Cancelled)
        );
    }
}
