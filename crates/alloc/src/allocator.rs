//! Constructing the optimal allocation (§3.3.3).
//!
//! Given the allocation items of a task graph, the allocator:
//!
//! 1. routes zero-`ΔR` items (cases 1, 4 and 6 of Figure 4) to eDRAM —
//!    their placement "will not influence the prologue time", so they
//!    never occupy "the valuable space in on-chip cache";
//! 2. sorts the remaining items by deadline (§3.3.1);
//! 3. runs the dynamic program of §3.3.2 and reconstructs an optimal
//!    subset for the on-chip cache.

use std::collections::HashMap;

use paraconv_graph::{EdgeId, Placement};

use crate::{sort_by_deadline, AllocItem, IncrementalDp};

/// The result of cache allocation: a placement per intermediate
/// processing result plus the achieved statistics.
///
/// # Examples
///
/// ```
/// use paraconv_alloc::{AllocItem, CacheAllocator};
/// use paraconv_graph::{EdgeId, Placement};
///
/// let items = vec![
///     AllocItem::new(EdgeId::new(0), 1, 0, 1), // ΔR = 0 → eDRAM
///     AllocItem::new(EdgeId::new(1), 1, 2, 2),
///     AllocItem::new(EdgeId::new(2), 1, 1, 3),
/// ];
/// let allocation = CacheAllocator::new(1).allocate(items);
/// assert_eq!(allocation.placement(EdgeId::new(0)), Some(Placement::Edram));
/// assert_eq!(allocation.placement(EdgeId::new(1)), Some(Placement::Cache));
/// assert_eq!(allocation.placement(EdgeId::new(2)), Some(Placement::Edram));
/// assert_eq!(allocation.total_profit(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheAllocation {
    placements: HashMap<EdgeId, Placement>,
    cached: Vec<EdgeId>,
    total_profit: u64,
    used_capacity: u64,
    capacity: u64,
}

impl CacheAllocation {
    /// The placement decided for an IPR, or `None` for an edge that was
    /// not among the items.
    #[must_use]
    pub fn placement(&self, edge: EdgeId) -> Option<Placement> {
        self.placements.get(&edge).copied()
    }

    /// The IPRs allocated to the on-chip cache, in deadline order.
    #[must_use]
    pub fn cached(&self) -> &[EdgeId] {
        &self.cached
    }

    /// Number of IPRs allocated to the on-chip cache — the metric of
    /// the paper's Figure 6.
    #[must_use]
    pub fn cached_count(&self) -> usize {
        self.cached.len()
    }

    /// Total `ΔR` bought by the allocation (the DP objective value).
    #[must_use]
    pub const fn total_profit(&self) -> u64 {
        self.total_profit
    }

    /// Cache capacity units consumed.
    #[must_use]
    pub const fn used_capacity(&self) -> u64 {
        self.used_capacity
    }

    /// The capacity the allocator ran with.
    #[must_use]
    pub const fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Materializes a dense placement vector for a graph with
    /// `edge_count` edges; edges not covered by any item default to
    /// eDRAM (the conservative placement).
    #[must_use]
    pub fn to_placement_vec(&self, edge_count: usize) -> Vec<Placement> {
        let mut v = vec![Placement::Edram; edge_count];
        // lint: allow(nondet-iteration) — each pair writes its own dense slot; the result is order-insensitive
        for (&edge, &placement) in &self.placements {
            if edge.index() < edge_count {
                // lint: allow(unchecked-index) — indices are bounded by the table dimensions fixed in fill()
                v[edge.index()] = placement;
            }
        }
        v
    }

    /// Iterates over every decided `(edge, placement)` pair, in the
    /// map's internal (unspecified) order — serializers should sort.
    pub fn placements(&self) -> impl Iterator<Item = (EdgeId, Placement)> + '_ {
        // lint: allow(nondet-iteration) — unspecified order is this API's documented contract; callers sort
        self.placements.iter().map(|(&e, &p)| (e, p))
    }

    /// Rebuilds an allocation from its recorded parts, as stored in a
    /// plan artifact.
    ///
    /// No optimality or capacity feasibility is implied: importers
    /// must re-check through the verifier gate (the DP-invariant and
    /// occupancy rules do) before trusting the result.
    #[must_use]
    pub fn from_parts(
        placements: Vec<(EdgeId, Placement)>,
        cached: Vec<EdgeId>,
        total_profit: u64,
        used_capacity: u64,
        capacity: u64,
    ) -> Self {
        CacheAllocation {
            // lint: allow(nondet-iteration) — `placements` here is the Vec parameter, not the hash field; the rule matches by name
            placements: placements.into_iter().collect(),
            cached,
            total_profit,
            used_capacity,
            capacity,
        }
    }
}

/// The §3.3 allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAllocator {
    capacity: u64,
}

impl CacheAllocator {
    /// Creates an allocator for an aggregate on-chip cache of
    /// `capacity` units.
    #[must_use]
    pub const fn new(capacity: u64) -> Self {
        CacheAllocator { capacity }
    }

    /// Decides a placement for every item: a [`reallocate`] on a
    /// fresh session, i.e. one cold fill of the dynamic program.
    ///
    /// [`reallocate`]: CacheAllocator::reallocate
    #[must_use]
    pub fn allocate(&self, items: Vec<AllocItem>) -> CacheAllocation {
        self.reallocate(&mut IncrementalDp::new(), items)
    }

    /// Re-decides placements through a reusable [`IncrementalDp`]
    /// session, for replan loops and capacity sweeps that solve long
    /// runs of nearly identical instances.
    ///
    /// The session reuses every dynamic-program row the perturbation
    /// did not touch (shared item prefixes, capacity moves within the
    /// stored width) instead of refilling the whole recurrence, but
    /// the result is **byte-identical** to [`allocate`] on the same
    /// items and capacity. Degraded replans therefore produce exactly
    /// the plan a cold solve on the surviving configuration would, at
    /// a fraction of the fill cost.
    ///
    /// [`allocate`]: CacheAllocator::allocate
    #[must_use]
    pub fn reallocate(
        &self,
        session: &mut IncrementalDp,
        items: Vec<AllocItem>,
    ) -> CacheAllocation {
        let (placements, competing) = Self::partition(items);
        // Step 3: dynamic program + reconstruction.
        session.resolve(&competing, self.capacity);
        let chosen = session.reconstruct();
        self.assemble(placements, &competing, &chosen, session.max_profit())
    }

    /// Step 1 (zero-`ΔR` pre-routing) and step 2 (deadline order):
    /// routes free items to eDRAM and returns the sorted competitors.
    fn partition(items: Vec<AllocItem>) -> (HashMap<EdgeId, Placement>, Vec<AllocItem>) {
        let mut placements = HashMap::with_capacity(items.len());
        // Step 1: zero-ΔR items go to eDRAM for free.
        let mut competing = Vec::new();
        for item in items {
            if item.delta_r() == 0 {
                placements.insert(item.edge(), Placement::Edram);
            } else {
                competing.push(item);
            }
        }
        // Step 2: deadline order.
        (placements, sort_by_deadline(competing))
    }

    /// Materializes the allocation from a reconstructed subset.
    fn assemble(
        &self,
        mut placements: HashMap<EdgeId, Placement>,
        competing: &[AllocItem],
        chosen: &[bool],
        total_profit: u64,
    ) -> CacheAllocation {
        let mut cached = Vec::new();
        let mut used = 0u64;
        for (item, take) in competing.iter().zip(chosen) {
            if *take {
                placements.insert(item.edge(), Placement::Cache);
                cached.push(item.edge());
                used += item.space();
            } else {
                placements.insert(item.edge(), Placement::Edram);
            }
        }
        CacheAllocation {
            placements,
            cached,
            total_profit,
            used_capacity: used,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u32, space: u64, profit: u64, deadline: u64) -> AllocItem {
        AllocItem::new(EdgeId::new(id), space, profit, deadline)
    }

    #[test]
    fn zero_delta_items_never_cached() {
        let allocation = CacheAllocator::new(100).allocate(vec![
            item(0, 1, 0, 1),
            item(1, 1, 0, 2),
            item(2, 1, 1, 3),
        ]);
        assert_eq!(allocation.placement(EdgeId::new(0)), Some(Placement::Edram));
        assert_eq!(allocation.placement(EdgeId::new(1)), Some(Placement::Edram));
        assert_eq!(allocation.placement(EdgeId::new(2)), Some(Placement::Cache));
        assert_eq!(allocation.cached_count(), 1);
    }

    #[test]
    fn respects_capacity() {
        let allocation = CacheAllocator::new(3).allocate(vec![
            item(0, 2, 5, 1),
            item(1, 2, 4, 2),
            item(2, 1, 3, 3),
        ]);
        assert!(allocation.used_capacity() <= 3);
        assert_eq!(allocation.total_profit(), 8); // items 0 and 2
        assert_eq!(allocation.cached(), &[EdgeId::new(0), EdgeId::new(2)]);
    }

    #[test]
    fn cached_listed_in_deadline_order() {
        let allocation = CacheAllocator::new(10).allocate(vec![
            item(5, 1, 1, 30),
            item(2, 1, 1, 10),
            item(9, 1, 1, 20),
        ]);
        assert_eq!(
            allocation.cached(),
            &[EdgeId::new(2), EdgeId::new(9), EdgeId::new(5)]
        );
    }

    #[test]
    fn zero_capacity_puts_everything_in_edram() {
        let allocation = CacheAllocator::new(0).allocate(vec![item(0, 1, 9, 1), item(1, 1, 9, 2)]);
        assert_eq!(allocation.cached_count(), 0);
        assert_eq!(allocation.total_profit(), 0);
        assert_eq!(allocation.placement(EdgeId::new(0)), Some(Placement::Edram));
    }

    #[test]
    fn placement_vec_defaults_to_edram() {
        let allocation = CacheAllocator::new(5).allocate(vec![item(1, 1, 1, 1)]);
        let v = allocation.to_placement_vec(3);
        assert_eq!(v[0], Placement::Edram); // not an item
        assert_eq!(v[1], Placement::Cache);
        assert_eq!(v[2], Placement::Edram); // not an item
    }

    #[test]
    fn reallocate_matches_allocate_on_an_unchanged_problem() {
        let items = vec![item(0, 2, 5, 1), item(1, 2, 4, 2), item(2, 1, 3, 3)];
        let cold = CacheAllocator::new(3).allocate(items.clone());
        assert_eq!(cold.cached(), &[EdgeId::new(0), EdgeId::new(2)]);
        let mut session = crate::IncrementalDp::new();
        let first = CacheAllocator::new(3).reallocate(&mut session, items.clone());
        assert_eq!(first, cold, "a cold session is a cold solve");
        // Re-solving the identical instance reuses every row and still
        // reproduces the allocation exactly.
        let again = CacheAllocator::new(3).reallocate(&mut session, items);
        assert_eq!(again, cold);
    }

    #[test]
    fn reallocate_is_exact_when_capacity_shrinks() {
        let items = vec![item(0, 2, 5, 1), item(1, 2, 4, 2), item(2, 1, 3, 3)];
        let mut session = crate::IncrementalDp::new();
        let healthy = CacheAllocator::new(3).reallocate(&mut session, items.clone());
        assert_eq!(healthy.cached(), &[EdgeId::new(0), EdgeId::new(2)]);
        // Capacity 3 → 1: a pure capacity move within the stored rows;
        // the optimum drops to the best single-unit item, exactly as a
        // cold solve at the reduced capacity decides.
        let shrunk = CacheAllocator::new(1).reallocate(&mut session, items.clone());
        assert_eq!(shrunk, CacheAllocator::new(1).allocate(items));
        assert_eq!(shrunk.cached(), &[EdgeId::new(2)]);
        assert_eq!(shrunk.total_profit(), 3);
    }

    #[test]
    fn reallocate_is_exact_when_every_edge_changes() {
        let mut session = crate::IncrementalDp::new();
        let prior = CacheAllocator::new(4).reallocate(&mut session, vec![item(7, 1, 9, 1)]);
        assert_eq!(prior.cached(), &[EdgeId::new(7)]);
        // Edge 7 is gone from the new items: every row refills.
        let fresh = CacheAllocator::new(4).reallocate(&mut session, vec![item(0, 1, 2, 1)]);
        assert_eq!(fresh.cached(), &[EdgeId::new(0)]);
        assert_eq!(fresh.total_profit(), 2);
    }

    #[test]
    fn reallocate_never_caches_zero_profit_items() {
        // An edge the prior solve cached can drop to ΔR = 0 under new
        // timing (e.g. a longer kernel period absorbs the transfer);
        // it is pre-routed to eDRAM and the suffix rows refill.
        let mut session = crate::IncrementalDp::new();
        let allocator = CacheAllocator::new(4);
        let prior = allocator.reallocate(&mut session, vec![item(0, 1, 5, 1), item(1, 1, 2, 2)]);
        assert_eq!(prior.cached(), &[EdgeId::new(0), EdgeId::new(1)]);
        let fresh = allocator.reallocate(&mut session, vec![item(0, 1, 0, 1), item(1, 1, 2, 2)]);
        assert_eq!(fresh.placement(EdgeId::new(0)), Some(Placement::Edram));
        assert_eq!(fresh.cached(), &[EdgeId::new(1)]);
    }

    #[test]
    fn empty_input_is_fine() {
        let allocation = CacheAllocator::new(5).allocate(Vec::new());
        assert_eq!(allocation.cached_count(), 0);
        assert_eq!(allocation.total_profit(), 0);
        assert_eq!(allocation.used_capacity(), 0);
        assert!(allocation
            .to_placement_vec(2)
            .iter()
            .all(|&p| p == Placement::Edram));
    }
}
