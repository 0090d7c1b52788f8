//! Execution plans: the contract between schedulers and the simulator.
//!
//! A scheduler (baseline SPARTA or Para-CONV) emits an
//! [`ExecutionPlan`] — a fully concrete assignment of every task
//! instance `V_i^ℓ` to a processing engine and time window, plus every
//! intermediate-processing-result transfer `I_{i,j}^ℓ` with its chosen
//! placement. The simulator in [`crate::simulate`] replays the plan on
//! the architecture model and validates it.

use core::fmt;
use std::collections::TryReserveError;

use paraconv_graph::{EdgeId, NodeId, Placement};

use crate::SimError;

/// Identifier of a processing engine in the PE array.
///
/// # Examples
///
/// ```
/// use paraconv_pim::PeId;
///
/// let pe = PeId::new(3);
/// assert_eq!(pe.index(), 3);
/// assert_eq!(pe.to_string(), "PE3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct PeId(u32);

impl PeId {
    /// Creates a PE ID from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        PeId(index)
    }

    /// Returns the dense index of this PE.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// One scheduled task instance `V_i^ℓ`: operation `node` of iteration
/// `iteration` runs on `pe` during `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannedTask {
    /// The operation being executed.
    pub node: NodeId,
    /// Logical iteration (1-based, as in the paper's `ℓ ≥ 1`).
    pub iteration: u64,
    /// The processing engine the instance runs on.
    pub pe: PeId,
    /// Absolute start time in time units.
    pub start: u64,
    /// Execution time `c_i` in time units.
    pub duration: u64,
}

impl PlannedTask {
    /// Returns the finish time `start + duration`.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.start + self.duration
    }
}

/// One scheduled IPR transfer `I_{i,j}^ℓ`: the data of edge `edge`
/// produced in iteration `iteration` moves (from its placement) to the
/// consumer's PE during `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlannedTransfer {
    /// The intermediate processing result being moved.
    pub edge: EdgeId,
    /// Logical iteration of the *producing* task instance.
    pub iteration: u64,
    /// Where the IPR was held between production and consumption.
    pub placement: Placement,
    /// Absolute start time of the transfer.
    pub start: u64,
    /// Transfer latency under the chosen placement.
    pub duration: u64,
    /// Destination processing engine (the consumer's PE).
    pub dst_pe: PeId,
}

impl PlannedTransfer {
    /// Returns the completion time `start + duration`.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.start + self.duration
    }
}

/// A complete, concrete execution plan for `iterations` iterations of a
/// task graph on a PE array.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ExecutionPlan {
    tasks: Vec<PlannedTask>,
    transfers: Vec<PlannedTransfer>,
    iterations: u64,
}

impl ExecutionPlan {
    /// Creates an empty plan covering the given number of iterations.
    #[must_use]
    pub const fn new(iterations: u64) -> Self {
        ExecutionPlan {
            tasks: Vec::new(),
            transfers: Vec::new(),
            iterations,
        }
    }

    /// Creates an empty plan covering `iterations` iterations with room
    /// for exactly `tasks` task instances and `transfers` transfers, so
    /// an emitter that knows its plan's size fills it without regrowing.
    ///
    /// # Errors
    ///
    /// Returns the allocator's refusal when either reservation cannot
    /// be made (more than `isize::MAX` bytes, or memory exhausted), so
    /// an oversized plan is a typed error rather than an abort halfway
    /// through filling it.
    ///
    /// # Examples
    ///
    /// ```
    /// use paraconv_pim::ExecutionPlan;
    ///
    /// let plan = ExecutionPlan::with_capacity(4, 12, 20)?;
    /// assert_eq!(plan, ExecutionPlan::new(4));
    /// // An absurd reservation is refused without aborting.
    /// assert!(ExecutionPlan::with_capacity(4, usize::MAX, usize::MAX).is_err());
    /// # Ok::<(), std::collections::TryReserveError>(())
    /// ```
    pub fn with_capacity(
        iterations: u64,
        tasks: usize,
        transfers: usize,
    ) -> Result<Self, TryReserveError> {
        let mut plan = ExecutionPlan::new(iterations);
        plan.tasks.try_reserve_exact(tasks)?;
        plan.transfers.try_reserve_exact(transfers)?;
        Ok(plan)
    }

    /// Appends a task instance.
    pub fn push_task(&mut self, task: PlannedTask) {
        self.tasks.push(task);
    }

    /// Appends an IPR transfer.
    pub fn push_transfer(&mut self, transfer: PlannedTransfer) {
        self.transfers.push(transfer);
    }

    /// Returns all task instances.
    #[must_use]
    pub fn tasks(&self) -> &[PlannedTask] {
        &self.tasks
    }

    /// Returns all IPR transfers.
    #[must_use]
    pub fn transfers(&self) -> &[PlannedTransfer] {
        &self.transfers
    }

    /// Number of logical iterations the plan covers.
    #[must_use]
    pub const fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The plan's makespan: the latest finish over all tasks and
    /// transfers (0 for an empty plan).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        let t = self
            .tasks
            .iter()
            .map(PlannedTask::finish)
            .max()
            .unwrap_or(0);
        let x = self
            .transfers
            .iter()
            .map(PlannedTransfer::finish)
            .max()
            .unwrap_or(0);
        t.max(x)
    }

    /// True when the plan holds no task and no transfer.
    fn is_empty(&self) -> bool {
        self.tasks.is_empty() && self.transfers.is_empty()
    }

    /// The latest finish over all entries, `None` if one ends past
    /// `u64` (0 for an empty plan).
    pub(crate) fn checked_makespan(&self) -> Option<u64> {
        let tasks = self.tasks.iter().map(|t| t.start.checked_add(t.duration));
        let transfers = self
            .transfers
            .iter()
            .map(|x| x.start.checked_add(x.duration));
        tasks
            .chain(transfers)
            .try_fold(0, |latest: u64, end| end.map(|end| latest.max(end)))
    }
}

/// A plan given by its period: one group of iterations that repeats
/// every `period` time units, `groups` times, then a tail.
///
/// Group `g` (from 0) is `group` with every start shifted by
/// `g · period` and every iteration by `g · group.iterations()`; the
/// tail is `tail` shifted by `groups · period` and
/// `groups · group.iterations()`. Both schedulers emit plans of this
/// shape: Para-CONV's kernel copies repeat every period `p` (§3) and
/// SPARTA repeats one batch template. [`materialize`](Self::materialize)
/// unrolls the description into its [`ExecutionPlan`];
/// [`crate::simulate_periodic`] replays it without unrolling.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_pim::{ExecutionPlan, PeId, PeriodicPlan, PlannedTask};
///
/// let g = examples::chain(1);
/// let mut group = ExecutionPlan::new(1);
/// group.push_task(PlannedTask {
///     node: g.node_ids().next().unwrap(),
///     iteration: 1,
///     pe: PeId::new(0),
///     start: 0,
///     duration: 1,
/// });
/// let periodic = PeriodicPlan::new(group, 2, 3, ExecutionPlan::default());
/// let plan = periodic.materialize()?;
/// assert_eq!(plan.iterations(), 3);
/// assert_eq!(plan.tasks()[2].start, 4);
/// assert_eq!(periodic.makespan(), Some(plan.makespan()));
/// # Ok::<(), paraconv_pim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicPlan {
    group: ExecutionPlan,
    period: u64,
    groups: u64,
    tail: ExecutionPlan,
}

impl PeriodicPlan {
    /// Describes `groups` copies of `group`, one every `period` time
    /// units, followed by `tail`. Each part numbers its own iterations
    /// from 1 and starts its clock at 0.
    #[must_use]
    pub const fn new(group: ExecutionPlan, period: u64, groups: u64, tail: ExecutionPlan) -> Self {
        PeriodicPlan {
            group,
            period,
            groups,
            tail,
        }
    }

    /// The repeated group, at base 0.
    #[must_use]
    pub const fn group(&self) -> &ExecutionPlan {
        &self.group
    }

    /// Time between the starts of consecutive groups.
    #[must_use]
    pub const fn period(&self) -> u64 {
        self.period
    }

    /// Number of full groups.
    #[must_use]
    pub const fn groups(&self) -> u64 {
        self.groups
    }

    /// The tail after the last full group, at base 0.
    #[must_use]
    pub const fn tail(&self) -> &ExecutionPlan {
        &self.tail
    }

    /// Iterations of the unrolled plan, `None` past `u64`.
    #[must_use]
    pub fn iterations(&self) -> Option<u64> {
        self.groups
            .checked_mul(self.group.iterations())?
            .checked_add(self.tail.iterations())
    }

    /// The unrolled plan's makespan in closed form, `None` past `u64`.
    #[must_use]
    pub fn makespan(&self) -> Option<u64> {
        let mut latest = 0;
        if self.groups > 0 && !self.group.is_empty() {
            latest = (self.groups - 1)
                .checked_mul(self.period)?
                .checked_add(self.group.checked_makespan()?)?;
        }
        if !self.tail.is_empty() {
            let tail = self
                .groups
                .checked_mul(self.period)?
                .checked_add(self.tail.checked_makespan()?)?;
            latest = latest.max(tail);
        }
        Some(latest)
    }

    /// The concrete plan this description stands for.
    ///
    /// # Errors
    ///
    /// [`SimError::PlanTooLarge`] when no [`ExecutionPlan`] can hold
    /// it: the iteration count or a shifted start or iteration exceeds
    /// `u64`, or the entries cannot be allocated.
    pub fn materialize(&self) -> Result<ExecutionPlan, SimError> {
        let iterations = self.iterations().ok_or(SimError::PlanTooLarge)?;
        let count = |group: usize, tail: usize| {
            usize::try_from(self.groups)
                .ok()
                .and_then(|g| g.checked_mul(group))
                .and_then(|n| n.checked_add(tail))
                .ok_or(SimError::PlanTooLarge)
        };
        let tasks = count(self.group.tasks.len(), self.tail.tasks.len())?;
        let transfers = count(self.group.transfers.len(), self.tail.transfers.len())?;
        let mut plan = ExecutionPlan::with_capacity(iterations, tasks, transfers)
            .map_err(|_| SimError::PlanTooLarge)?;
        let parts = (0..self.groups)
            .map(|g| (&self.group, g))
            .chain(std::iter::once((&self.tail, self.groups)));
        for (part, g) in parts {
            let shift = g.checked_mul(self.period).ok_or(SimError::PlanTooLarge)?;
            let renumber = g
                .checked_mul(self.group.iterations)
                .ok_or(SimError::PlanTooLarge)?;
            let moved = |start: u64, iteration: u64| {
                start
                    .checked_add(shift)
                    .zip(iteration.checked_add(renumber))
                    .ok_or(SimError::PlanTooLarge)
            };
            for t in &part.tasks {
                let (start, iteration) = moved(t.start, t.iteration)?;
                plan.push_task(PlannedTask {
                    start,
                    iteration,
                    ..*t
                });
            }
            for x in &part.transfers {
                let (start, iteration) = moved(x.start, x.iteration)?;
                plan.push_transfer(PlannedTransfer {
                    start,
                    iteration,
                    ..*x
                });
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_of_empty_plan_is_zero() {
        assert_eq!(ExecutionPlan::new(1).makespan(), 0);
    }

    #[test]
    fn makespan_covers_tasks_and_transfers() {
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(PlannedTask {
            node: NodeId::new(0),
            iteration: 1,
            pe: PeId::new(0),
            start: 0,
            duration: 3,
        });
        plan.push_transfer(PlannedTransfer {
            edge: EdgeId::new(0),
            iteration: 1,
            placement: Placement::Edram,
            start: 3,
            duration: 5,
            dst_pe: PeId::new(1),
        });
        assert_eq!(plan.makespan(), 8);
    }

    #[test]
    fn finish_times() {
        let t = PlannedTask {
            node: NodeId::new(0),
            iteration: 1,
            pe: PeId::new(0),
            start: 7,
            duration: 2,
        };
        assert_eq!(t.finish(), 9);
    }

    /// One iteration of a two-node block: a task on PE 0 over
    /// `[start, start + 2)`, its transfer, and the consumer on PE 1.
    fn block(iterations: u64, start: u64) -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(iterations);
        plan.push_task(PlannedTask {
            node: NodeId::new(0),
            iteration: iterations,
            pe: PeId::new(0),
            start,
            duration: 2,
        });
        plan.push_transfer(PlannedTransfer {
            edge: EdgeId::new(0),
            iteration: iterations,
            placement: Placement::Cache,
            start: start + 2,
            duration: 1,
            dst_pe: PeId::new(1),
        });
        plan.push_task(PlannedTask {
            node: NodeId::new(1),
            iteration: iterations,
            pe: PeId::new(1),
            start: start + 3,
            duration: 1,
        });
        plan
    }

    #[test]
    fn periodic_iterations_count_the_groups_then_the_tail() {
        let periodic = PeriodicPlan::new(block(1, 0), 4, 5, block(1, 1));
        assert_eq!(periodic.iterations(), Some(6));
        let no_tail = PeriodicPlan::new(block(1, 0), 4, 5, ExecutionPlan::default());
        assert_eq!(no_tail.iterations(), Some(5));
        assert_eq!(
            PeriodicPlan::new(block(1, 0), 4, u64::MAX, block(1, 0)).iterations(),
            None
        );
    }

    #[test]
    fn periodic_makespan_is_the_unrolled_plans() {
        for (groups, tail) in [(3, block(1, 0)), (3, block(1, 5)), (0, block(1, 1))] {
            let periodic = PeriodicPlan::new(block(1, 0), 4, groups, tail);
            let plan = periodic.materialize().unwrap();
            assert_eq!(periodic.makespan(), Some(plan.makespan()), "{groups}");
        }
        let empty = PeriodicPlan::new(ExecutionPlan::new(1), 4, 7, ExecutionPlan::default());
        assert_eq!(empty.makespan(), Some(0));
    }

    #[test]
    fn periodic_makespan_past_u64_is_none() {
        let periodic = PeriodicPlan::new(block(1, 0), u64::MAX, 3, ExecutionPlan::default());
        assert_eq!(periodic.makespan(), None);
        let late_tail = PeriodicPlan::new(block(1, 0), u64::MAX / 2, 2, block(1, 0));
        assert_eq!(late_tail.makespan(), None);
        let mut endless = ExecutionPlan::new(1);
        endless.push_task(PlannedTask {
            start: u64::MAX,
            ..block(1, 0).tasks()[0]
        });
        assert_eq!(endless.checked_makespan(), None);
        let periodic = PeriodicPlan::new(endless, 4, 1, ExecutionPlan::default());
        assert_eq!(periodic.makespan(), None);
    }

    #[test]
    fn materialize_shifts_each_group_by_the_period_and_renumbers_it() {
        let periodic = PeriodicPlan::new(block(1, 0), 4, 3, block(1, 1));
        let plan = periodic.materialize().unwrap();
        assert_eq!(plan.iterations(), 4);
        let starts: Vec<(u64, u64)> = plan
            .tasks()
            .iter()
            .map(|t| (t.iteration, t.start))
            .collect();
        assert_eq!(
            starts,
            [
                (1, 0),
                (1, 3),
                (2, 4),
                (2, 7),
                (3, 8),
                (3, 11),
                (4, 13),
                (4, 16)
            ]
        );
        let transfers: Vec<(u64, u64)> = plan
            .transfers()
            .iter()
            .map(|x| (x.iteration, x.start))
            .collect();
        assert_eq!(transfers, [(1, 2), (2, 6), (3, 10), (4, 15)]);
    }

    #[test]
    fn materialize_of_no_groups_is_the_tail_alone() {
        let periodic = PeriodicPlan::new(block(1, 0), 4, 0, block(1, 2));
        assert_eq!(periodic.materialize().unwrap(), block(1, 2));
        let nothing = PeriodicPlan::new(block(1, 0), 4, 0, ExecutionPlan::default());
        assert_eq!(nothing.materialize().unwrap(), ExecutionPlan::default());
    }

    #[test]
    fn materialize_past_u64_is_plan_too_large() {
        let periodic = PeriodicPlan::new(block(1, 0), u64::MAX / 2, 3, ExecutionPlan::default());
        assert_eq!(periodic.materialize(), Err(SimError::PlanTooLarge));
        let renumbered = PeriodicPlan::new(block(1, 0), 1, u64::MAX, block(1, 0));
        assert_eq!(renumbered.materialize(), Err(SimError::PlanTooLarge));
    }

    #[test]
    fn materialize_past_the_address_space_is_plan_too_large() {
        // 2^60 groups of two tasks each fit the clock, but not the
        // address space: refused before anything is filled.
        let periodic = PeriodicPlan::new(block(1, 0), 4, 1 << 60, ExecutionPlan::default());
        assert_eq!(periodic.makespan(), Some(1 << 62));
        assert_eq!(periodic.materialize(), Err(SimError::PlanTooLarge));
    }
}
