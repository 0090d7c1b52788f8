//! Structured diagnostics for the static verifier.
//!
//! Every check in this crate reports through [`VerifyError`] — the
//! verifier never panics, even on degenerate inputs (empty graphs,
//! zero-capacity caches, malformed kernels). A successful run returns
//! a [`VerifyReport`] carrying the proven bounds so callers (and the
//! differential test against the runtime auditor) can compare them
//! with observed high-water marks.

use core::fmt;

use paraconv_graph::EdgeId;
use paraconv_retime::RetimeError;
use paraconv_sched::SchedError;

/// One edge whose retiming slack is below its placement requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetimingViolation {
    /// The under-retimed edge.
    pub edge: EdgeId,
    /// The minimal relative retiming its placement latency demands.
    pub required: u64,
    /// The actual `R(src) − R(dst)` the plan provides.
    pub actual: i64,
}

impl fmt::Display for RetimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: requires relative retiming ≥ {}, plan provides {}",
            self.edge, self.required, self.actual
        )
    }
}

/// A failed static check, with enough structure to locate the cause.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The kernel has a zero period or zero copies; no steady state
    /// exists to reason about.
    DegenerateKernel {
        /// The kernel's period.
        period: u64,
        /// The kernel's unroll factor.
        copies: u64,
    },
    /// The outcome's kernel or retiming was built for a different
    /// graph shape.
    ShapeMismatch {
        /// Nodes the kernel covers.
        kernel_nodes: usize,
        /// Nodes the graph has.
        graph_nodes: usize,
    },
    /// The retiming violates the structural legality condition
    /// `R(i) ≥ R(i,j) ≥ R(j)`.
    IllegalRetiming(RetimeError),
    /// One or more edges are retimed below the minimum their placement
    /// latency demands (a Bellman-style constraint check, Theorem 3.1).
    RetimingInsufficient {
        /// Every violated edge with its required and actual slack.
        violations: Vec<RetimingViolation>,
    },
    /// The steady-state cache occupancy bound exceeds the aggregate
    /// PE-cache capacity.
    CacheBoundExceeded {
        /// The proven upper bound in IPR units.
        bound: u64,
        /// The configured capacity.
        capacity: u64,
        /// The in-period phase at which the bound peaks.
        phase: u64,
        /// The edges resident at the peak phase.
        edges: Vec<EdgeId>,
    },
    /// A PE's steady-state iFIFO occupancy bound exceeds its depth.
    FifoBoundExceeded {
        /// The destination PE whose FIFO overflows.
        pe: u32,
        /// The proven upper bound in transfers.
        bound: u64,
        /// The configured FIFO depth.
        depth: usize,
        /// The edges in flight at the peak phase.
        edges: Vec<EdgeId>,
    },
    /// A vault channel's steady-state concurrency bound exceeds the
    /// configured limit.
    VaultBoundExceeded {
        /// The vault index.
        vault: usize,
        /// The proven upper bound in concurrent fetches.
        bound: u64,
        /// The configured concurrency limit.
        limit: usize,
        /// The edges fetching at the peak phase.
        edges: Vec<EdgeId>,
    },
    /// The DP's optimal profit decreased when the capacity grew.
    ProfitNotMonotonic {
        /// The capacity at which the profit dropped.
        capacity: u64,
        /// The profit at that capacity.
        profit: u64,
        /// The (larger) profit at the previous capacity.
        previous: u64,
    },
    /// The DP's optimal profit fell below the greedy-by-density profit
    /// on the same instance.
    DpBelowGreedy {
        /// The DP optimum.
        dp: u64,
        /// The greedy profit it must dominate.
        greedy: u64,
    },
    /// The DP table's reconstruction disagrees with its own optimum or
    /// overruns the capacity.
    ReconstructionInconsistent {
        /// The table's reported optimum.
        table_profit: u64,
        /// The profit of the reconstructed item set.
        rebuilt_profit: u64,
        /// The space the reconstructed set uses.
        used: u64,
        /// The capacity it must fit in.
        capacity: u64,
    },
    /// The emitted allocation itself overruns its capacity.
    AllocationInfeasible {
        /// Space the allocation's cached set uses.
        used: u64,
        /// The capacity it claims to respect.
        capacity: u64,
    },
    /// The emitted allocation claims more profit than the re-derived
    /// DP optimum — impossible for a sound allocator.
    AllocationExceedsOptimal {
        /// The allocation's claimed profit.
        profit: u64,
        /// The independently computed optimum.
        optimal: u64,
    },
    /// A kernel slot lands on a PE the degraded capacity profile marks
    /// as failed — the plan would dispatch work to a dead engine.
    FailedPeUsed {
        /// The failed PE the kernel still uses.
        pe: u32,
    },
    /// The incremental DP session disagrees with the from-scratch
    /// table on the same instance — the suffix-row reuse is unsound.
    IncrementalDpDivergence {
        /// The incremental session's optimum.
        incremental: u64,
        /// The from-scratch table's optimum.
        table: u64,
    },
    /// A static bound fell below an observed runtime high-water mark —
    /// the abstraction is unsound (this is the differential check
    /// against the simulator/auditor).
    BoundBelowObserved {
        /// Which resource the bound covers.
        metric: &'static str,
        /// The static bound.
        bound: u64,
        /// The observed high-water mark it must dominate.
        observed: u64,
    },
    /// The outcome's plan differs from the plan its kernel, retiming
    /// and allocation emit, so the static proof would not cover the
    /// plan that executes.
    PlanMismatch {
        /// The plan section that differs: `tasks` or `transfers`.
        section: &'static str,
        /// Index of the first differing entry (the shorter length when
        /// one list is a prefix of the other).
        index: usize,
    },
    /// The outcome's kernel, retiming and allocation emit no plan at
    /// all, so there is nothing the outcome's plan could be checked
    /// against.
    Unemittable(SchedError),
    /// The allocation claims a larger cache than the architecture
    /// has. Rejected before the DP re-solve, whose table is sized by
    /// the claimed capacity.
    CapacityAboveCache {
        /// The allocation's capacity.
        capacity: u64,
        /// The architecture's aggregate cache.
        cache: u64,
    },
    /// The ambient cancel token fired while the verifier ran: the DP
    /// re-solve or the plan walk stopped early, so the plan was
    /// neither proved nor refuted.
    Cancelled,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DegenerateKernel { period, copies } => write!(
                f,
                "degenerate kernel: period {period}, copies {copies} (no steady state exists)"
            ),
            VerifyError::ShapeMismatch {
                kernel_nodes,
                graph_nodes,
            } => write!(
                f,
                "outcome shape mismatch: kernel covers {kernel_nodes} nodes, graph has {graph_nodes}"
            ),
            VerifyError::IllegalRetiming(e) => write!(f, "illegal retiming: {e}"),
            VerifyError::RetimingInsufficient { violations } => {
                write!(f, "{} edge(s) retimed below requirement:", violations.len())?;
                for v in violations {
                    write!(f, " [{v}]")?;
                }
                Ok(())
            }
            VerifyError::CacheBoundExceeded {
                bound,
                capacity,
                phase,
                edges,
            } => write!(
                f,
                "static cache bound {bound} exceeds capacity {capacity} (peak at phase {phase}, edges {edges:?})"
            ),
            VerifyError::FifoBoundExceeded {
                pe,
                bound,
                depth,
                edges,
            } => write!(
                f,
                "static iFIFO bound {bound} on PE{pe} exceeds depth {depth} (edges {edges:?})"
            ),
            VerifyError::VaultBoundExceeded {
                vault,
                bound,
                limit,
                edges,
            } => write!(
                f,
                "static vault bound {bound} on vault {vault} exceeds limit {limit} (edges {edges:?})"
            ),
            VerifyError::ProfitNotMonotonic {
                capacity,
                profit,
                previous,
            } => write!(
                f,
                "DP profit not monotonic: capacity {capacity} yields {profit} < {previous} at the previous size"
            ),
            VerifyError::DpBelowGreedy { dp, greedy } => {
                write!(f, "DP optimum {dp} below greedy profit {greedy}")
            }
            VerifyError::ReconstructionInconsistent {
                table_profit,
                rebuilt_profit,
                used,
                capacity,
            } => write!(
                f,
                "DP reconstruction inconsistent: table optimum {table_profit}, rebuilt profit {rebuilt_profit}, space {used}/{capacity}"
            ),
            VerifyError::AllocationInfeasible { used, capacity } => {
                write!(f, "allocation infeasible: uses {used} of capacity {capacity}")
            }
            VerifyError::AllocationExceedsOptimal { profit, optimal } => write!(
                f,
                "allocation claims profit {profit} above the DP optimum {optimal}"
            ),
            VerifyError::IncrementalDpDivergence { incremental, table } => write!(
                f,
                "incremental DP session optimum {incremental} diverges from the from-scratch table {table}"
            ),
            VerifyError::FailedPeUsed { pe } => write!(
                f,
                "kernel assigns a slot to failed PE{pe} (degraded capacity profile)"
            ),
            VerifyError::BoundBelowObserved {
                metric,
                bound,
                observed,
            } => write!(
                f,
                "static {metric} bound {bound} below the observed high-water mark {observed}"
            ),
            VerifyError::PlanMismatch { section, index } => write!(
                f,
                "plan is not the one its kernel, retiming and allocation emit: {section}[{index}] differs"
            ),
            VerifyError::Unemittable(e) => write!(f, "outcome emits no plan: {e}"),
            VerifyError::CapacityAboveCache { capacity, cache } => write!(
                f,
                "allocation capacity {capacity} exceeds the architecture's {cache} cache units"
            ),
            VerifyError::Cancelled => f.write_str("verification cancelled before it completed"),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::IllegalRetiming(e) => Some(e),
            VerifyError::Unemittable(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<RetimeError> for VerifyError {
    fn from(e: RetimeError) -> Self {
        VerifyError::IllegalRetiming(e)
    }
}

/// The proven bounds of a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The kernel period `p` the bounds are phrased over.
    pub period: u64,
    /// The kernel unroll factor.
    pub unroll: u64,
    /// Edges whose retiming slack was checked.
    pub checked_edges: usize,
    /// Steady-state upper bound on aggregate cache occupancy.
    pub cache_bound: u64,
    /// The capacity that bound was proven against.
    pub cache_capacity: u64,
    /// The worst per-PE steady-state iFIFO occupancy bound.
    pub fifo_bound: u64,
    /// The FIFO depth that bound was proven against.
    pub fifo_depth: usize,
    /// The worst per-vault steady-state concurrency bound.
    pub vault_bound: u64,
    /// The vault concurrency limit, when one is configured.
    pub vault_limit: Option<usize>,
    /// The re-derived DP optimum over the full item set.
    pub dp_max_profit: u64,
    /// The greedy-by-density profit the DP must dominate.
    pub greedy_profit: u64,
    /// The profit the emitted allocation actually claims.
    pub allocation_profit: u64,
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verified: p = {}, u = {}, {} edges",
            self.period, self.unroll, self.checked_edges
        )?;
        writeln!(
            f,
            "  cache  bound {:>6} / capacity {}",
            self.cache_bound, self.cache_capacity
        )?;
        writeln!(
            f,
            "  iFIFO  bound {:>6} / depth {}",
            self.fifo_bound, self.fifo_depth
        )?;
        match self.vault_limit {
            Some(limit) => writeln!(
                f,
                "  vault  bound {:>6} / limit {}",
                self.vault_bound, limit
            )?,
            None => writeln!(
                f,
                "  vault  bound {:>6} (no limit configured)",
                self.vault_bound
            )?,
        }
        write!(
            f,
            "  alloc  profit {} (DP optimum {}, greedy {})",
            self.allocation_profit, self.dp_max_profit, self.greedy_profit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VerifyError>();
        let e = VerifyError::DegenerateKernel {
            period: 0,
            copies: 1,
        };
        assert!(e.to_string().contains("degenerate"));
        let e = VerifyError::CacheBoundExceeded {
            bound: 9,
            capacity: 4,
            phase: 2,
            edges: vec![EdgeId::new(3)],
        };
        assert!(e.to_string().contains("bound 9"));
        assert!(e.to_string().contains("capacity 4"));
        let e = VerifyError::FailedPeUsed { pe: 7 };
        assert!(e.to_string().contains("PE7"));
        let e = VerifyError::PlanMismatch {
            section: "tasks",
            index: 3,
        };
        assert!(e.to_string().contains("tasks[3]"));
    }

    #[test]
    fn report_renders_all_bounds() {
        let r = VerifyReport {
            period: 4,
            unroll: 2,
            checked_edges: 7,
            cache_bound: 12,
            cache_capacity: 64,
            fifo_bound: 3,
            fifo_depth: 256,
            vault_bound: 1,
            vault_limit: None,
            dp_max_profit: 10,
            greedy_profit: 8,
            allocation_profit: 10,
        };
        let text = r.to_string();
        assert!(text.contains("cache"));
        assert!(text.contains("iFIFO"));
        assert!(text.contains("no limit"));
    }

    #[test]
    fn retime_error_converts() {
        let e: VerifyError = RetimeError::UnknownNode(paraconv_graph::NodeId::new(3)).into();
        assert!(matches!(e, VerifyError::IllegalRetiming(_)));
    }
}
