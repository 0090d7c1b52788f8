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
    pub fn new(iterations: u64) -> Self {
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
}
