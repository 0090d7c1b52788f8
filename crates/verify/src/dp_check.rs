//! DP-invariant checking over emitted allocations.
//!
//! The §3.3 dynamic program is re-solved *once*, on a fresh session,
//! over an independently re-derived item set, and the outcome's
//! allocation is judged against it:
//!
//! * **monotonicity** — `B[s, n]` never decreases as the capacity
//!   grows (one filled table answers the whole sweep);
//! * **greedy dominance** — the optimum is at least the
//!   greedy-by-density profit on the same instance;
//! * **reconstruction consistency** — the backtracked item set fits
//!   the capacity and re-sums to the table's optimum;
//! * **incremental agreement** — a second session primed at a wider
//!   capacity and re-solved at the real one lands on the same optimum
//!   and the same reconstructed set as the fresh one (the suffix-row
//!   reuse the replan path depends on is sound);
//! * **allocation soundness** — the emitted allocation fits its own
//!   capacity and claims no more profit than the optimum (degraded
//!   policies may claim less);
//! * on small instances, an exhaustive subset enumeration confirms the
//!   optimum exactly.

use paraconv_alloc::{brute_force_max_profit, sort_by_deadline, AllocItem, IncrementalDp};
use paraconv_graph::TaskGraph;
use paraconv_pim::{CostModel, PimConfig};
use paraconv_retime::minimal_relative_retiming;
use paraconv_sched::ParaConvOutcome;

use crate::diag::VerifyError;

/// Exhaustive enumeration stays cheap up to this many competing items.
const BRUTE_FORCE_LIMIT: usize = 16;

/// The profits established by [`check_dp_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpCheck {
    /// The re-derived DP optimum over all competing items.
    pub dp_max_profit: u64,
    /// The greedy-by-density profit the optimum dominates.
    pub greedy_profit: u64,
    /// The profit the emitted allocation claims.
    pub allocation_profit: u64,
}

/// Re-derives the scheduler's knapsack instance from the kernel and
/// cost model, re-runs the DP, and checks every invariant against the
/// emitted allocation.
///
/// # Errors
///
/// Returns the specific violated invariant as a [`VerifyError`]:
/// [`VerifyError::CapacityAboveCache`] before any DP runs,
/// [`VerifyError::Cancelled`] when the ambient cancel token cuts a
/// re-solve short. Never panics, even on zero-capacity or empty
/// instances.
pub fn check_dp_invariants(
    graph: &TaskGraph,
    outcome: &ParaConvOutcome,
    config: &PimConfig,
) -> Result<DpCheck, VerifyError> {
    crate::guard_shape(graph, outcome)?;
    // The DP table holds `capacity + 1` words per item: size it only
    // from a capacity the architecture actually has.
    let capacity = outcome.allocation.capacity();
    if capacity > config.total_cache_units() {
        return Err(VerifyError::CapacityAboveCache {
            capacity,
            cache: config.total_cache_units(),
        });
    }
    let items = derive_items(graph, outcome, config);

    let competing: Vec<AllocItem> =
        sort_by_deadline(items.iter().copied().filter(|i| i.delta_r() > 0).collect());
    let mut table = IncrementalDp::new();
    table.resolve(&competing, capacity);
    // A resolve cut short by the ambient cancel token forgets its
    // items and reads back as an empty solve: report the cancellation
    // rather than judge the invariants on it.
    if table.items().len() != competing.len() {
        return Err(VerifyError::Cancelled);
    }
    let dp_max = table.max_profit();

    // Monotonicity in the cache size: the filled table answers every
    // smaller capacity, and profit can only grow with space.
    let mut previous = 0u64;
    for s in 0..=capacity {
        let profit = table.max_profit_at(s);
        if profit < previous {
            return Err(VerifyError::ProfitNotMonotonic {
                capacity: s,
                profit,
                previous,
            });
        }
        previous = profit;
    }

    // The optimum dominates greedy-by-density on the same instance.
    let greedy = greedy_profit(&competing, capacity);
    if dp_max < greedy {
        return Err(VerifyError::DpBelowGreedy { dp: dp_max, greedy });
    }

    // Reconstruction re-sums to the optimum within the capacity.
    let chosen = table.reconstruct();
    let (mut used, mut rebuilt) = (0u64, 0u64);
    for (item, &take) in competing.iter().zip(&chosen) {
        if take {
            used += item.space();
            rebuilt += item.delta_r();
        }
    }
    if rebuilt != dp_max || used > capacity {
        return Err(VerifyError::ReconstructionInconsistent {
            table_profit: dp_max,
            rebuilt_profit: rebuilt,
            used,
            capacity,
        });
    }

    // A reusing session must agree with the fresh one. Priming at a
    // wider capacity first forces the re-solve through the
    // suffix-row-reuse path the degraded replan relies on, not a cold
    // fill in disguise.
    let mut session = IncrementalDp::new();
    session.resolve(&competing, capacity.saturating_add(1));
    session.resolve(&competing, capacity);
    if session.items().len() != competing.len() {
        return Err(VerifyError::Cancelled);
    }
    if session.max_profit() != dp_max || session.reconstruct() != chosen {
        return Err(VerifyError::IncrementalDpDivergence {
            incremental: session.max_profit(),
            table: dp_max,
        });
    }

    // Exhaustive confirmation on small instances.
    if competing.len() <= BRUTE_FORCE_LIMIT {
        let exact = brute_force_max_profit(&competing, capacity);
        if exact != dp_max {
            return Err(VerifyError::ReconstructionInconsistent {
                table_profit: dp_max,
                rebuilt_profit: exact,
                used,
                capacity,
            });
        }
    }

    // The emitted allocation fits its capacity and never beats the
    // optimum (degraded policies legitimately claim less).
    let space_of: std::collections::HashMap<_, _> =
        items.iter().map(|i| (i.edge(), i.space())).collect();
    let alloc_used: u64 = outcome
        .allocation
        .cached()
        .iter()
        .map(|e| space_of.get(e).copied().unwrap_or(0))
        .sum();
    if alloc_used > capacity {
        return Err(VerifyError::AllocationInfeasible {
            used: alloc_used,
            capacity,
        });
    }
    let claimed = outcome.allocation.total_profit();
    if claimed > dp_max {
        return Err(VerifyError::AllocationExceedsOptimal {
            profit: claimed,
            optimal: dp_max,
        });
    }

    Ok(DpCheck {
        dp_max_profit: dp_max,
        greedy_profit: greedy,
        allocation_profit: claimed,
    })
}

/// Re-derives the scheduler's knapsack items from first principles:
/// per-edge latencies, Theorem 3.1 requirements and residency-window
/// counts, exactly mirroring the emission math without running it.
pub(crate) fn derive_items(
    graph: &TaskGraph,
    outcome: &ParaConvOutcome,
    config: &PimConfig,
) -> Vec<AllocItem> {
    let kernel = &outcome.kernel;
    let p = kernel.period().max(1);
    let unroll = kernel.copies();
    let cost = CostModel::new(config, graph.edge_count());
    let gaps = kernel.gaps(graph);
    graph
        .edges()
        .map(|e| {
            let i = e.id().index();
            let cache_time = cost.cache_transfer_time(e.size());
            let edram_time = cost.edram_transfer_time(e.size());
            let k_cache = minimal_relative_retiming(cache_time, gaps[i], p);
            let k_edram = minimal_relative_retiming(edram_time, gaps[i], p).max(k_cache);
            let windows: u64 = (0..unroll)
                .map(|c| {
                    let f = kernel.finish_at(e.src(), c);
                    (f + cache_time).div_ceil(p).max(1)
                })
                .sum();
            AllocItem::new(
                e.id(),
                e.size() * windows,
                k_edram - k_cache,
                kernel.start(e.dst()),
            )
        })
        .collect()
}

/// Greedy by profit density (`ΔR/space`, u128 cross-multiplication,
/// ties by edge id), filling the capacity front to back.
fn greedy_profit(competing: &[AllocItem], capacity: u64) -> u64 {
    let mut sorted: Vec<&AllocItem> = competing.iter().collect();
    sorted.sort_by(|a, b| {
        let lhs = u128::from(b.delta_r()) * u128::from(a.space().max(1));
        let rhs = u128::from(a.delta_r()) * u128::from(b.space().max(1));
        lhs.cmp(&rhs).then_with(|| a.edge().cmp(&b.edge()))
    });
    let mut used = 0u64;
    let mut profit = 0u64;
    for item in sorted {
        if used + item.space() <= capacity {
            used += item.space();
            profit += item.delta_r();
        }
    }
    profit
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_sched::{AllocationPolicy, ParaConvScheduler};

    fn scheduled(policy: AllocationPolicy) -> (TaskGraph, ParaConvOutcome, PimConfig) {
        let g = examples::fork_join(20);
        let cfg = PimConfig::builder(8)
            .per_pe_cache_units(2)
            .build()
            .expect("valid test config");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .with_policy(policy)
            .schedule(&g, 4)
            .expect("schedulable test graph");
        (g, outcome, cfg)
    }

    #[test]
    fn dp_policy_attains_the_optimum() {
        let (g, outcome, cfg) = scheduled(AllocationPolicy::DynamicProgram);
        let check = check_dp_invariants(&g, &outcome, &cfg).expect("sound DP");
        assert_eq!(check.allocation_profit, check.dp_max_profit);
        assert!(check.dp_max_profit >= check.greedy_profit);
    }

    #[test]
    fn degraded_policies_stay_below_the_optimum() {
        for policy in [
            AllocationPolicy::GreedyByDensity,
            AllocationPolicy::AllEdram,
        ] {
            let (g, outcome, cfg) = scheduled(policy);
            let check = check_dp_invariants(&g, &outcome, &cfg).expect("sound policy");
            assert!(check.allocation_profit <= check.dp_max_profit);
        }
    }

    #[test]
    fn all_edram_capacity_is_zero_without_panicking() {
        let (g, outcome, cfg) = scheduled(AllocationPolicy::AllEdram);
        assert_eq!(outcome.allocation.capacity(), 0);
        let check = check_dp_invariants(&g, &outcome, &cfg).expect("zero capacity is fine");
        assert_eq!(check.allocation_profit, 0);
    }

    #[test]
    fn inflated_profit_claims_are_caught() {
        use paraconv_alloc::CacheAllocator;
        let (g, mut outcome, cfg) = scheduled(AllocationPolicy::DynamicProgram);
        if outcome.allocation.total_profit() == 0 {
            // Nothing competes on this instance; the forgery below
            // would be a no-op.
            return;
        }
        // Re-run the allocator on items whose profits are inflated
        // tenfold: the grafted allocation then claims more than the
        // honestly re-derived optimum can justify.
        let capacity = outcome.allocation.capacity();
        let forged_items: Vec<AllocItem> = derive_items(&g, &outcome, &cfg)
            .into_iter()
            .map(|i| AllocItem::new(i.edge(), i.space(), i.delta_r() * 10, i.deadline()))
            .collect();
        outcome.allocation = CacheAllocator::new(capacity).allocate(forged_items);
        let err = check_dp_invariants(&g, &outcome, &cfg).expect_err("forged profit");
        assert!(matches!(err, VerifyError::AllocationExceedsOptimal { .. }));
    }

    #[test]
    fn edgeless_graph_is_a_clean_pass() {
        use paraconv_graph::{OpKind, TaskGraphBuilder};
        let mut b = TaskGraphBuilder::new("lonely");
        b.add_node("only", OpKind::Convolution, 3);
        let g = b.build().expect("single-node graph builds");
        let cfg = PimConfig::neurocube(4).expect("valid");
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 2)
            .expect("edgeless graphs schedule");
        let check = check_dp_invariants(&g, &outcome, &cfg).expect("no items, no violations");
        assert_eq!(check.dp_max_profit, 0);
        assert_eq!(check.allocation_profit, 0);
    }

    #[test]
    fn an_allocation_wider_than_the_cache_is_refused_before_the_dp() {
        use paraconv_alloc::CacheAllocation;
        let (g, mut outcome, cfg) = scheduled(AllocationPolicy::DynamicProgram);
        let a = &outcome.allocation;
        let forge = |capacity| {
            CacheAllocation::from_parts(
                a.placements().collect(),
                a.cached().to_vec(),
                a.total_profit(),
                a.used_capacity(),
                capacity,
            )
        };
        let cache = cfg.total_cache_units();
        // Exactly the aggregate cache is a real capacity; one unit more
        // (or a table-sized lie) is refused without sizing a DP table.
        let (at, above, huge) = (forge(cache), forge(cache + 1), forge(1 << 40));
        outcome.allocation = at;
        assert!(check_dp_invariants(&g, &outcome, &cfg).is_ok());
        for (forged, capacity) in [(above, cache + 1), (huge, 1 << 40)] {
            outcome.allocation = forged;
            assert_eq!(
                check_dp_invariants(&g, &outcome, &cfg).unwrap_err(),
                VerifyError::CapacityAboveCache { capacity, cache }
            );
        }
    }
}
