//! # paraconv-verify
//!
//! Static analysis for the Para-CONV reproduction, in two heads:
//!
//! 1. **Static plan verifier** — proves properties of a
//!    [`ParaConvOutcome`] without simulating it:
//!    * [`retime_check`] — retiming legality and sufficiency
//!      (Bellman-style constraint check over every edge);
//!    * [`occupancy`] — abstract-interpretation steady-state bounds on
//!      PE-cache, iFIFO and vault occupancy **over all iterations**,
//!      proven `bound ≤ capacity`;
//!    * [`dp_check`] — the §3.3 DP's invariants (profit monotonicity,
//!      greedy dominance, reconstruction consistency) re-checked on an
//!      independently derived instance;
//!    * [`plan_check`] — the outcome's plan is exactly the one its
//!      kernel, retiming and allocation emit, checked entry by entry
//!      against the emission without building a second plan, so the
//!      proof above covers the plan that executes.
//!
//!    [`verify_outcome`] runs all four; [`verify_run`] additionally
//!    asserts the static bounds dominate a simulation report's observed
//!    high-water marks (the differential link to the runtime auditor).
//!
//! 2. **Project lint engine** — [`lint`], a token-level scanner over
//!    workspace sources with no external dependencies, shipped as the
//!    `paraconv-verify` binary. See the module docs for the rule set
//!    and the `// lint: allow(...)` escape hatch.
//!
//! The verifier never panics: degenerate inputs (zero-capacity caches,
//! edgeless graphs, malformed kernels) surface as structured
//! [`VerifyError`] diagnostics.
//!
//! # Examples
//!
//! ```
//! use paraconv_graph::examples;
//! use paraconv_pim::PimConfig;
//! use paraconv_sched::ParaConvScheduler;
//! use paraconv_verify::verify_outcome;
//!
//! let g = examples::motivational();
//! let cfg = PimConfig::neurocube(8)?;
//! let outcome = ParaConvScheduler::new(cfg.clone()).schedule(&g, 10)?;
//! let report = verify_outcome(&g, &outcome, &cfg)?;
//! assert!(report.cache_bound <= report.cache_capacity);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod diag;
pub mod dp_check;
pub mod lint;
pub mod occupancy;
pub mod plan_check;
pub mod retime_check;

pub use diag::{RetimingViolation, VerifyError, VerifyReport};
pub use dp_check::{check_dp_invariants, DpCheck};
pub use occupancy::{occupancy_bounds, OccupancyBounds, PeakBound, PhaseProfile};
pub use plan_check::check_plan;
pub use retime_check::check_retiming;

use paraconv_graph::TaskGraph;
use paraconv_pim::{PeId, PimConfig, SimReport};
use paraconv_sched::ParaConvOutcome;

/// Degenerate-input guard shared by every check: a kernel with no
/// steady state or built for a different graph is reported as a
/// structured diagnostic before any accessor can panic.
pub(crate) fn guard_shape(graph: &TaskGraph, outcome: &ParaConvOutcome) -> Result<(), VerifyError> {
    let kernel = &outcome.core.kernel;
    if kernel.period() == 0 || kernel.copies() == 0 {
        return Err(VerifyError::DegenerateKernel {
            period: kernel.period(),
            copies: kernel.copies(),
        });
    }
    if kernel.node_count() != graph.node_count() {
        return Err(VerifyError::ShapeMismatch {
            kernel_nodes: kernel.node_count(),
            graph_nodes: graph.node_count(),
        });
    }
    Ok(())
}

/// Statically verifies an outcome: retiming legality and sufficiency,
/// steady-state occupancy bounds against the architecture's
/// capacities, the DP invariants, and that the plan is the one the
/// verified core emits. No simulation is run.
///
/// # Errors
///
/// Returns the first failed check as a [`VerifyError`]; degenerate
/// inputs yield diagnostics, never panics.
pub fn verify_outcome(
    graph: &TaskGraph,
    outcome: &ParaConvOutcome,
    config: &PimConfig,
) -> Result<VerifyReport, VerifyError> {
    guard_shape(graph, outcome)?;
    // Degraded capacity profile: a plan for a config with failed PEs
    // must keep every kernel slot (across all unroll copies) off the
    // dead engines.
    for &pe in config.failed_pes() {
        let dead = PeId::new(pe);
        for copy in 0..outcome.core.kernel.copies() {
            for node in graph.node_ids() {
                if outcome.core.kernel.pe_at(node, copy) == dead {
                    return Err(VerifyError::FailedPeUsed { pe });
                }
            }
        }
    }
    let checked_edges = check_retiming(graph, outcome, config)?;
    let bounds = occupancy_bounds(graph, outcome, config)?;

    let cache_capacity = config.total_cache_units();
    if bounds.cache.bound > cache_capacity {
        return Err(VerifyError::CacheBoundExceeded {
            bound: bounds.cache.bound,
            capacity: cache_capacity,
            phase: bounds.cache.phase,
            edges: bounds.cache.edges.clone(),
        });
    }
    for (pe, peak) in bounds.fifo.iter().enumerate() {
        if peak.bound > config.pfifo_depth() as u64 {
            return Err(VerifyError::FifoBoundExceeded {
                pe: pe as u32,
                bound: peak.bound,
                depth: config.pfifo_depth(),
                edges: peak.edges.clone(),
            });
        }
    }
    if let Some(limit) = config.max_vault_concurrency() {
        for (vault, peak) in bounds.vault.iter().enumerate() {
            if peak.bound > limit as u64 {
                return Err(VerifyError::VaultBoundExceeded {
                    vault,
                    bound: peak.bound,
                    limit,
                    edges: peak.edges.clone(),
                });
            }
        }
    }

    let dp = check_dp_invariants(graph, outcome, config)?;
    check_plan(graph, outcome, config)?;
    let (_, fifo_bound) = bounds.worst_fifo();
    let (_, vault_bound) = bounds.worst_vault();
    Ok(VerifyReport {
        period: outcome.core.kernel.period(),
        unroll: outcome.core.kernel.copies(),
        checked_edges,
        cache_bound: bounds.cache.bound,
        cache_capacity,
        fifo_bound,
        fifo_depth: config.pfifo_depth(),
        vault_bound,
        vault_limit: config.max_vault_concurrency(),
        dp_max_profit: dp.dp_max_profit,
        greedy_profit: dp.greedy_profit,
        allocation_profit: dp.allocation_profit,
    })
}

/// [`verify_outcome`] plus the differential cross-check: every static
/// bound must dominate the corresponding observed high-water mark in
/// the simulator's report. A violation means the abstraction is
/// unsound and is reported as [`VerifyError::BoundBelowObserved`].
///
/// # Errors
///
/// Same as [`verify_outcome`], plus the dominance checks.
pub fn verify_run(
    graph: &TaskGraph,
    outcome: &ParaConvOutcome,
    config: &PimConfig,
    report: &SimReport,
) -> Result<VerifyReport, VerifyError> {
    let verified = verify_outcome(graph, outcome, config)?;
    let observed = [
        ("cache", verified.cache_bound, report.peak_cache_occupancy),
        (
            "iFIFO",
            verified.fifo_bound,
            report.peak_fifo_occupancy as u64,
        ),
        (
            "vault",
            verified.vault_bound,
            report.peak_vault_concurrency as u64,
        ),
    ];
    for (metric, bound, high_water) in observed {
        if bound < high_water {
            return Err(VerifyError::BoundBelowObserved {
                metric,
                bound,
                observed: high_water,
            });
        }
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_pim::simulate;
    use paraconv_sched::{AllocationPolicy, ParaConvScheduler};

    #[test]
    fn every_policy_verifies_on_examples() {
        for policy in [
            AllocationPolicy::DynamicProgram,
            AllocationPolicy::GreedyByDensity,
            AllocationPolicy::AllEdram,
        ] {
            for graph in [
                examples::motivational(),
                examples::chain(6),
                examples::fork_join(12),
            ] {
                let cfg = PimConfig::neurocube(8).expect("valid config");
                let outcome = ParaConvScheduler::new(cfg.clone())
                    .with_policy(policy)
                    .schedule(&graph, 8)
                    .expect("schedulable");
                let report = verify_outcome(&graph, &outcome, &cfg).expect("emitted plans verify");
                assert!(report.cache_bound <= report.cache_capacity);
                assert!(report.fifo_bound <= report.fifo_depth as u64);
            }
        }
    }

    #[test]
    fn static_bounds_dominate_simulated_peaks() {
        let g = examples::fork_join(16);
        let cfg = PimConfig::neurocube(8).expect("valid config");
        for iters in [1, 4, 30] {
            let outcome = ParaConvScheduler::new(cfg.clone())
                .schedule(&g, iters)
                .expect("schedulable");
            let sim = simulate(&g, &outcome.plan, &cfg).expect("valid plan");
            verify_run(&g, &outcome, &cfg, &sim).expect("bounds dominate the run");
        }
    }

    #[test]
    fn zero_capacity_cache_is_handled() {
        // per-PE cache of 0 units is below the builder's validation
        // floor on some configs; the AllEdram policy reaches the same
        // state (capacity 0) through a supported path.
        let g = examples::chain(5);
        let cfg = PimConfig::neurocube(4).expect("valid config");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .with_policy(AllocationPolicy::AllEdram)
            .schedule(&g, 3)
            .expect("schedulable");
        assert_eq!(outcome.core.allocation.capacity(), 0);
        let report = verify_outcome(&g, &outcome, &cfg).expect("zero capacity verifies");
        assert_eq!(report.cache_bound, 0);
    }

    #[test]
    fn wrong_graph_is_a_diagnostic() {
        let g = examples::fork_join(12);
        let cfg = PimConfig::neurocube(8).expect("valid config");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 4)
            .expect("schedulable");
        let other = examples::chain(3);
        assert!(matches!(
            verify_outcome(&other, &outcome, &cfg),
            Err(VerifyError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn degraded_outcomes_verify_under_the_reduced_profile() {
        let g = examples::fork_join(12);
        let healthy = PimConfig::neurocube(8).expect("valid config");
        let degraded = healthy.degrade(&[2, 5]).expect("survivors remain");
        let outcome = ParaConvScheduler::new(degraded.clone())
            .schedule(&g, 6)
            .expect("schedulable");
        let report = verify_outcome(&g, &outcome, &degraded).expect("degraded plan verifies");
        assert_eq!(report.cache_capacity, degraded.total_cache_units());

        // A plan built for the healthy array uses the dead PEs and is
        // rejected under the degraded profile.
        let healthy_outcome = ParaConvScheduler::new(healthy.clone())
            .schedule(&g, 6)
            .expect("schedulable");
        assert!(matches!(
            verify_outcome(&g, &healthy_outcome, &degraded),
            Err(VerifyError::FailedPeUsed { .. })
        ));
    }

    #[test]
    fn dominance_violations_are_reported() {
        // Feed verify_run a report whose peaks are forged far above any
        // bound the plan can produce.
        let g = examples::chain(4);
        let cfg = PimConfig::neurocube(4).expect("valid config");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 3)
            .expect("schedulable");
        let mut report = simulate(&g, &outcome.plan, &cfg).expect("valid plan");
        report.peak_cache_occupancy = u64::MAX;
        assert!(matches!(
            verify_run(&g, &outcome, &cfg, &report),
            Err(VerifyError::BoundBelowObserved {
                metric: "cache",
                ..
            })
        ));
    }
}
