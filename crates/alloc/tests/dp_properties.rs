//! Property-based tests: the dynamic program is an exact optimum.

use proptest::prelude::*;

use paraconv_alloc::{
    brute_force_max_profit, edf_feasibility, sort_by_deadline, AllocItem, CacheAllocator,
    IncrementalDp,
};
use paraconv_graph::EdgeId;

/// A fresh session solved once: the cold fill.
fn solved(items: &[AllocItem], capacity: u64) -> IncrementalDp {
    let mut session = IncrementalDp::new();
    session.resolve(items, capacity);
    session
}

/// The value-only form of the recurrence: one row updated in place,
/// capacities visited downward so each item counts at most once. An
/// independent reference for instances too large for brute force.
fn max_profit_compact(items: &[AllocItem], capacity: u64) -> u64 {
    let mut row = vec![0u64; capacity as usize + 1];
    for item in items {
        let sp = item.space() as usize;
        for s in (sp..row.len()).rev() {
            row[s] = row[s].max(row[s - sp] + item.delta_r());
        }
    }
    row[capacity as usize]
}

fn arb_items(max_n: usize) -> impl Strategy<Value = Vec<AllocItem>> {
    proptest::collection::vec((1u64..8, 0u64..4, 0u64..50), 0..max_n).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (space, profit, deadline))| {
                AllocItem::new(EdgeId::new(i as u32), space, profit, deadline)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn dp_matches_brute_force(items in arb_items(12), capacity in 0u64..30) {
        let sorted = sort_by_deadline(items.clone());
        let session = solved(&sorted, capacity);
        prop_assert_eq!(session.max_profit(), brute_force_max_profit(&items, capacity));
    }

    #[test]
    fn dp_profit_is_monotone_in_capacity(items in arb_items(10)) {
        let sorted = sort_by_deadline(items);
        let mut last = 0;
        for capacity in 0..25 {
            let profit = solved(&sorted, capacity).max_profit();
            prop_assert!(profit >= last);
            last = profit;
        }
    }

    #[test]
    fn reconstruction_is_feasible_and_optimal(items in arb_items(12), capacity in 0u64..25) {
        let sorted = sort_by_deadline(items);
        let session = solved(&sorted, capacity);
        let chosen = session.reconstruct();
        let space: u64 = sorted.iter().zip(&chosen).filter(|(_, &c)| c).map(|(i, _)| i.space()).sum();
        let profit: u64 = sorted.iter().zip(&chosen).filter(|(_, &c)| c).map(|(i, _)| i.delta_r()).sum();
        prop_assert!(space <= capacity);
        prop_assert_eq!(profit, session.max_profit());
    }

    #[test]
    fn allocator_profit_matches_dp_on_competing_items(items in arb_items(12), capacity in 0u64..25) {
        let competing: Vec<AllocItem> = items.iter().copied().filter(|i| i.delta_r() > 0).collect();
        let expected = solved(&sort_by_deadline(competing), capacity).max_profit();
        let allocation = CacheAllocator::new(capacity).allocate(items);
        prop_assert_eq!(allocation.total_profit(), expected);
        prop_assert!(allocation.used_capacity() <= capacity);
    }

    #[test]
    fn allocator_never_caches_zero_profit(items in arb_items(12), capacity in 0u64..25) {
        let allocation = CacheAllocator::new(capacity).allocate(items.clone());
        for item in &items {
            if item.delta_r() == 0 {
                prop_assert_eq!(
                    allocation.placement(item.edge()),
                    Some(paraconv_graph::Placement::Edram)
                );
            }
        }
    }

    #[test]
    fn compact_dp_matches_table_dp(items in arb_items(20), capacity in 0u64..40) {
        let sorted = sort_by_deadline(items);
        prop_assert_eq!(max_profit_compact(&sorted, capacity), solved(&sorted, capacity).max_profit());
    }

    #[test]
    fn capacity_sweep_matches_per_capacity_fill(items in arb_items(14), caps in proptest::collection::vec(0u64..40, 1..8)) {
        // One session primed at the widest point answers every sweep
        // point, by column read and by a zero-refill narrower resolve.
        let sorted = sort_by_deadline(items);
        let widest = caps.iter().copied().max().unwrap_or(0);
        let mut session = solved(&sorted, widest);
        for &capacity in &caps {
            let cold = solved(&sorted, capacity);
            prop_assert_eq!(session.max_profit_at(capacity), cold.max_profit());
            session.resolve(&sorted, capacity);
            prop_assert_eq!(session.max_profit(), cold.max_profit());
        }
    }

    #[test]
    fn narrower_resolve_agrees_with_dedicated_fill(items in arb_items(12), capacity in 0u64..25, extra in 0u64..15) {
        // A session filled at a larger capacity reconstructs the same
        // optimal profit at any smaller sweep point.
        let sorted = sort_by_deadline(items);
        let mut session = solved(&sorted, capacity + extra);
        session.resolve(&sorted, capacity);
        let chosen = session.reconstruct();
        let space: u64 = sorted.iter().zip(&chosen).filter(|(_, &c)| c).map(|(i, _)| i.space()).sum();
        let profit: u64 = sorted.iter().zip(&chosen).filter(|(_, &c)| c).map(|(i, _)| i.delta_r()).sum();
        prop_assert!(space <= capacity);
        prop_assert_eq!(profit, solved(&sorted, capacity).max_profit());
    }

    #[test]
    fn incremental_resolve_matches_cold_fill(
        items in arb_items(12),
        steps in proptest::collection::vec(
            (proptest::collection::vec((0usize..12, 0u8..4, 0u64..50), 1..5), 0u64..30),
            1..10,
        ),
    ) {
        // One long-lived session re-solves after every perturbation
        // batch — several item field edits and deadline moves applied
        // *together*, the way a degraded-mode replan moves many items
        // at once, plus capacity changes — and must stay bit-for-bit
        // equal to a from-scratch fill: same optimum, same
        // reconstruction. Multi-edit batches exercise the
        // convergence-aware refill (skipped rows between and after
        // moved items), not just the shared-prefix path.
        let mut current = sort_by_deadline(items);
        let mut session = IncrementalDp::new();
        for (edits, capacity) in steps {
            let mut resort = false;
            for (idx, field, value) in edits {
                if current.is_empty() {
                    break;
                }
                let i = idx % current.len();
                let it = current[i];
                current[i] = match field {
                    0 => AllocItem::new(it.edge(), 1 + value % 8, it.delta_r(), it.deadline()),
                    1 => AllocItem::new(it.edge(), it.space(), value % 4, it.deadline()),
                    2 => AllocItem::new(it.edge(), it.space(), it.delta_r(), value),
                    _ => it, // identity edit: capacity-only pressure
                };
                resort |= field == 2;
            }
            if resort {
                current = sort_by_deadline(current);
            }
            session.resolve(&current, capacity);
            let cold = solved(&current, capacity);
            prop_assert_eq!(session.max_profit(), cold.max_profit());
            prop_assert_eq!(session.reconstruct(), cold.reconstruct());
        }
    }

    #[test]
    fn edf_feasibility_is_order_invariant(items in arb_items(10), seed in 0usize..10) {
        let mut shuffled = items.clone();
        let rot = seed % shuffled.len().max(1);
        shuffled.rotate_left(rot);
        prop_assert_eq!(edf_feasibility(&items), edf_feasibility(&shuffled));
    }

    #[test]
    fn edf_slack_zero_sets_are_tight(items in arb_items(8)) {
        // Adding any positive-length item with the same final deadline
        // to a zero-slack set makes it infeasible.
        if let paraconv_alloc::Feasibility::Feasible { slack } = edf_feasibility(&items) {
            if !items.is_empty() && slack == 0 {
                let last_deadline = items.iter().map(|i| i.deadline()).max().unwrap();
                let mut extended = items.clone();
                extended.push(AllocItem::new(EdgeId::new(999), 1, 1, last_deadline));
                prop_assert!(!edf_feasibility(&extended).is_feasible());
            }
        }
    }

    #[test]
    fn allocator_covers_every_item(items in arb_items(12), capacity in 0u64..25) {
        let allocation = CacheAllocator::new(capacity).allocate(items.clone());
        for item in &items {
            prop_assert!(allocation.placement(item.edge()).is_some());
        }
    }
}
