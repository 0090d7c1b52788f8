//! Scheduler errors.

use core::fmt;

use paraconv_retime::AnalysisError;

/// Errors produced by the schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedError {
    /// Zero iterations were requested; a periodic dataflow runs at
    /// least once.
    ZeroIterations,
    /// The movement analysis rejected the derived timing inputs; this
    /// indicates an internal inconsistency.
    Analysis(AnalysisError),
    /// The request's [`CancelToken`](paraconv_obs::CancelToken) fired
    /// (deadline expiry or daemon drain); the partial work was
    /// discarded at a phase boundary.
    Cancelled,
    /// The kernel has a zero period or zero copies, so there is no
    /// steady state to emit.
    DegenerateKernel {
        /// The kernel's period.
        period: u64,
        /// The kernel's unroll factor.
        copies: u64,
    },
    /// The kernel or the retiming was built for a graph with a
    /// different number of operations.
    ShapeMismatch {
        /// Which input disagrees (`kernel` or `retiming`).
        part: &'static str,
        /// Operations the input covers.
        nodes: usize,
        /// Operations the graph has.
        graph_nodes: usize,
    },
    /// A transfer latency, start or finish time does not fit in `u64`.
    TimeOverflow,
    /// The plan's task and transfer lists for this many iterations
    /// cannot be allocated.
    PlanTooLarge {
        /// The requested iteration count.
        iterations: u64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ZeroIterations => f.write_str("at least one iteration must be scheduled"),
            SchedError::Analysis(msg) => write!(f, "movement analysis failed: {msg}"),
            SchedError::Cancelled => f.write_str("scheduling cancelled before completion"),
            SchedError::DegenerateKernel { period, copies } => write!(
                f,
                "degenerate kernel: period {period}, copies {copies} (no steady state exists)"
            ),
            SchedError::ShapeMismatch {
                part,
                nodes,
                graph_nodes,
            } => write!(
                f,
                "{part} covers {nodes} operations, the graph has {graph_nodes}"
            ),
            SchedError::TimeOverflow => f.write_str("plan times overflow u64"),
            SchedError::PlanTooLarge { iterations } => write!(
                f,
                "a plan of {iterations} iterations is too large to allocate"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!SchedError::ZeroIterations.to_string().is_empty());
        assert_eq!(
            SchedError::Analysis(AnalysisError::ZeroPeriod).to_string(),
            "movement analysis failed: kernel period must be positive"
        );
        let e = SchedError::PlanTooLarge {
            iterations: 1 << 60,
        };
        assert!(e.to_string().contains(&(1u64 << 60).to_string()));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchedError>();
    }
}
