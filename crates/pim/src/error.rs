//! Simulation errors: every way an execution plan can be invalid.

use core::fmt;

use paraconv_graph::{EdgeId, NodeId};

use crate::PeId;

/// Errors detected while validating and replaying an execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A planned task referenced a PE outside the configured array.
    UnknownPe(PeId),
    /// A planned task referenced a node not in the graph.
    UnknownNode(NodeId),
    /// A planned transfer referenced an edge not in the graph.
    UnknownEdge(EdgeId),
    /// The same `(node, iteration)` instance was planned twice.
    DuplicateTask(NodeId, u64),
    /// The same `(edge, iteration)` transfer was planned twice.
    DuplicateTransfer(EdgeId, u64),
    /// Two task instances overlap on one PE.
    PeConflict {
        /// The double-booked processing engine.
        pe: PeId,
        /// The second task that could not be placed.
        node: NodeId,
        /// Its iteration.
        iteration: u64,
    },
    /// A task instance was planned with an empty or inverted execution
    /// interval (zero-length tasks indicate a malformed plan).
    EmptyTaskInterval {
        /// The mis-planned node.
        node: NodeId,
        /// Its iteration.
        iteration: u64,
    },
    /// A task or transfer ends past the last representable time:
    /// `start + duration` overflows `u64`.
    TimeOverflow {
        /// Start time found in the plan.
        start: u64,
        /// Duration found in the plan.
        duration: u64,
    },
    /// A task instance was planned with a duration different from the
    /// node's execution time `c_i`.
    WrongTaskDuration {
        /// The mis-planned node.
        node: NodeId,
        /// Duration found in the plan.
        planned: u64,
        /// The node's execution time.
        expected: u64,
    },
    /// A transfer was planned shorter than the placement's latency.
    TransferTooShort {
        /// The mis-planned edge.
        edge: EdgeId,
        /// Duration found in the plan.
        planned: u64,
        /// Minimum latency under the chosen placement.
        required: u64,
    },
    /// A consumer instance has no planned transfer for one of its
    /// input IPRs.
    MissingTransfer(EdgeId, u64),
    /// A consumer instance exists but its producer instance is absent.
    MissingProducer(NodeId, u64),
    /// The plan declares `iterations` coverage but lacks this
    /// `(node, iteration)` instance.
    MissingTask(NodeId, u64),
    /// A transfer starts before its producer instance finishes.
    TransferBeforeProduction(EdgeId, u64),
    /// A consumer instance starts before its input transfer completes.
    ConsumerBeforeTransfer(EdgeId, u64),
    /// A transfer is routed to a PE other than its consumer's.
    WrongDestination {
        /// The misrouted edge.
        edge: EdgeId,
        /// Iteration of the transfer.
        iteration: u64,
        /// PE the plan routed the data to.
        routed: PeId,
        /// PE the consumer actually runs on.
        consumer: PeId,
    },
    /// Concurrent cache-resident IPRs exceeded the aggregate on-chip
    /// capacity.
    CacheOverflow {
        /// Time at which the overflow occurred.
        time: u64,
        /// Occupancy reached.
        occupancy: u64,
        /// The configured capacity.
        capacity: u64,
    },
    /// In-flight transfers to one PE exceeded its iFIFO depth.
    FifoOverflow {
        /// The overflowing PE.
        pe: PeId,
        /// In-flight transfer count reached.
        in_flight: usize,
        /// The configured FIFO depth.
        depth: usize,
    },
    /// In-flight eDRAM transfers on one vault exceeded the configured
    /// port limit.
    VaultOverload {
        /// The overloaded vault index.
        vault: usize,
        /// In-flight transfer count reached.
        in_flight: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A transient vault failure could not be recovered within the
    /// retry budget (attempt count or backoff deadline).
    RetryExhausted {
        /// The edge whose transfer kept failing.
        edge: EdgeId,
        /// Iteration of the failing transfer.
        iteration: u64,
        /// Attempts performed before giving up.
        attempts: u32,
        /// Total cycles spent in backoff waits.
        waited: u64,
    },
    /// A PE fail-stopped while work planned on it was still running;
    /// callers recover by replanning on the surviving PEs.
    PeFailStop {
        /// The dead processing engine.
        pe: PeId,
        /// The task instance that could not complete.
        node: NodeId,
        /// Its iteration.
        iteration: u64,
        /// The cycle at which the PE stopped.
        cycle: u64,
    },
    /// The plan places a task on a PE the configuration marks failed.
    TaskOnFailedPe {
        /// The failed processing engine.
        pe: PeId,
        /// The task planned on it.
        node: NodeId,
        /// Its iteration.
        iteration: u64,
    },
    /// The fault-injected replay overran its watchdog bound
    /// (`planned makespan + total injected delay`) — a fault-model
    /// bug, surfaced as an error rather than a livelock.
    WatchdogExceeded {
        /// The achieved makespan.
        achieved: u64,
        /// The bound it must stay under.
        bound: u64,
    },
    /// A periodic plan had to be unrolled but no concrete plan can hold
    /// it: its iteration count or a shifted start exceeds `u64`, or its
    /// entries cannot be allocated.
    PlanTooLarge,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownPe(pe) => write!(f, "plan references {pe} outside the array"),
            SimError::UnknownNode(n) => write!(f, "plan references unknown node {n}"),
            SimError::UnknownEdge(e) => write!(f, "plan references unknown edge {e}"),
            SimError::DuplicateTask(n, l) => {
                write!(f, "task {n} iteration {l} planned twice")
            }
            SimError::DuplicateTransfer(e, l) => {
                write!(f, "transfer {e} iteration {l} planned twice")
            }
            SimError::PeConflict { pe, node, iteration } => {
                write!(f, "{pe} double-booked by {node} iteration {iteration}")
            }
            SimError::EmptyTaskInterval { node, iteration } => {
                write!(f, "task {node} iteration {iteration} has an empty execution interval")
            }
            SimError::TimeOverflow { start, duration } => write!(
                f,
                "plan entry starting at {start} with duration {duration} ends past the last representable time"
            ),
            SimError::WrongTaskDuration {
                node,
                planned,
                expected,
            } => write!(
                f,
                "task {node} planned for {planned} units, execution time is {expected}"
            ),
            SimError::TransferTooShort {
                edge,
                planned,
                required,
            } => write!(
                f,
                "transfer {edge} planned for {planned} units, placement needs {required}"
            ),
            SimError::MissingTransfer(e, l) => {
                write!(f, "no transfer planned for {e} iteration {l}")
            }
            SimError::MissingProducer(n, l) => {
                write!(f, "producer instance {n} iteration {l} missing from plan")
            }
            SimError::MissingTask(n, l) => {
                write!(f, "task instance {n} iteration {l} missing from plan")
            }
            SimError::TransferBeforeProduction(e, l) => {
                write!(f, "transfer {e} iteration {l} starts before its producer finishes")
            }
            SimError::ConsumerBeforeTransfer(e, l) => {
                write!(f, "consumer of {e} iteration {l} starts before the transfer completes")
            }
            SimError::WrongDestination {
                edge,
                iteration,
                routed,
                consumer,
            } => write!(
                f,
                "transfer {edge} iteration {iteration} routed to {routed}, consumer runs on {consumer}"
            ),
            SimError::CacheOverflow {
                time,
                occupancy,
                capacity,
            } => write!(
                f,
                "cache occupancy {occupancy} exceeds capacity {capacity} at time {time}"
            ),
            SimError::FifoOverflow { pe, in_flight, depth } => write!(
                f,
                "{pe} has {in_flight} in-flight transfers, iFIFO depth is {depth}"
            ),
            SimError::VaultOverload {
                vault,
                in_flight,
                limit,
            } => write!(
                f,
                "vault {vault} has {in_flight} in-flight transfers, port limit is {limit}"
            ),
            SimError::RetryExhausted {
                edge,
                iteration,
                attempts,
                waited,
            } => write!(
                f,
                "transfer {edge} iteration {iteration} failed {attempts} attempts ({waited} cycles in backoff)"
            ),
            SimError::PeFailStop {
                pe,
                node,
                iteration,
                cycle,
            } => write!(
                f,
                "{pe} fail-stopped at cycle {cycle} with {node} iteration {iteration} unfinished"
            ),
            SimError::TaskOnFailedPe {
                pe,
                node,
                iteration,
            } => write!(
                f,
                "task {node} iteration {iteration} planned on failed {pe}"
            ),
            SimError::WatchdogExceeded { achieved, bound } => write!(
                f,
                "fault replay makespan {achieved} exceeds the watchdog bound {bound}"
            ),
            SimError::PlanTooLarge => {
                f.write_str("the periodic plan is too large to unroll into a concrete plan")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn all_variants_display() {
        let errors = [
            SimError::UnknownPe(PeId::new(9)),
            SimError::UnknownNode(NodeId::new(1)),
            SimError::UnknownEdge(EdgeId::new(2)),
            SimError::DuplicateTask(NodeId::new(0), 1),
            SimError::DuplicateTransfer(EdgeId::new(0), 1),
            SimError::PeConflict {
                pe: PeId::new(0),
                node: NodeId::new(1),
                iteration: 2,
            },
            SimError::EmptyTaskInterval {
                node: NodeId::new(0),
                iteration: 1,
            },
            SimError::TimeOverflow {
                start: u64::MAX - 1,
                duration: 2,
            },
            SimError::WrongTaskDuration {
                node: NodeId::new(0),
                planned: 1,
                expected: 2,
            },
            SimError::TransferTooShort {
                edge: EdgeId::new(0),
                planned: 1,
                required: 4,
            },
            SimError::MissingTransfer(EdgeId::new(0), 1),
            SimError::MissingProducer(NodeId::new(0), 1),
            SimError::MissingTask(NodeId::new(0), 1),
            SimError::TransferBeforeProduction(EdgeId::new(0), 1),
            SimError::ConsumerBeforeTransfer(EdgeId::new(0), 1),
            SimError::WrongDestination {
                edge: EdgeId::new(0),
                iteration: 1,
                routed: PeId::new(0),
                consumer: PeId::new(1),
            },
            SimError::CacheOverflow {
                time: 1,
                occupancy: 9,
                capacity: 8,
            },
            SimError::FifoOverflow {
                pe: PeId::new(0),
                in_flight: 17,
                depth: 16,
            },
            SimError::VaultOverload {
                vault: 3,
                in_flight: 5,
                limit: 4,
            },
            SimError::RetryExhausted {
                edge: EdgeId::new(0),
                iteration: 1,
                attempts: 7,
                waited: 254,
            },
            SimError::PeFailStop {
                pe: PeId::new(2),
                node: NodeId::new(0),
                iteration: 1,
                cycle: 40,
            },
            SimError::TaskOnFailedPe {
                pe: PeId::new(2),
                node: NodeId::new(0),
                iteration: 1,
            },
            SimError::WatchdogExceeded {
                achieved: 100,
                bound: 90,
            },
            SimError::PlanTooLarge,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
