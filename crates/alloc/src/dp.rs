//! The dynamic program of §3.3.2.
//!
//! `B[S, m]` is the maximum total profit (total `ΔR`) achievable by a
//! subset of the first `m` intermediate processing results (in
//! deadline order) within cache capacity `S`:
//!
//! ```text
//! B[S, m] = 0                                  if m = 0 or S = 0
//! B[S, 1] = 0                                  if sp_1 > S
//! B[S, 1] = ΔR(1)                              if sp_1 ≤ S
//! B[S, m] = max(B[S, m-1],
//!               B[S - sp_m, m-1] + ΔR(m))      if m > 1
//! ```
//!
//! Each entry takes `O(1)`, so filling the table is `O(n · S)` — the
//! paper's `O(n · d_n)` with its capacity expressed in deadline slots.
//!
//! [`IncrementalDp`] keeps every value row plus one *decision bit* per
//! cell: bit `(m, s)` records whether item `m` improved the optimum at
//! capacity `s`, i.e. `B[s, m+1] > B[s, m]`, exactly the predicate
//! backtracking tests.
//!
//! Capacity sweeps and degraded-mode replans solve long runs of
//! *nearly identical* instances, so a session reuses its stored rows
//! through two structural facts of the recurrence:
//!
//! * **row suffixes** — row `m + 1` depends only on value row `m` and
//!   item `m`, so shared-prefix rows are reused verbatim, and once a
//!   recomputed row converges back onto its stored value, every later
//!   row whose item is unchanged is reused too;
//! * **column prefixes** — a table filled at capacity `S` contains the
//!   table for every capacity `s ≤ S` as its first `s + 1` columns, so
//!   a pure capacity move within the stored width costs *zero* cell
//!   refills.
//!
//! A cold fill is the same loop with no reusable rows, so every
//! [`resolve`](IncrementalDp::resolve) leaves the session in the state
//! a fresh session would reach on the same arguments — the property
//! the allocation proptests and `tests/chaos.rs` pin down.

use crate::AllocItem;

/// A reusable dynamic-program session for the §3.3.2 recurrence.
///
/// # Examples
///
/// ```
/// use paraconv_alloc::{AllocItem, IncrementalDp};
/// use paraconv_graph::EdgeId;
///
/// let mut items = vec![
///     AllocItem::new(EdgeId::new(0), 2, 3, 1),
///     AllocItem::new(EdgeId::new(1), 2, 2, 2),
///     AllocItem::new(EdgeId::new(2), 1, 2, 3),
/// ];
/// let mut session = IncrementalDp::new();
/// session.resolve(&items, 3);
/// assert_eq!(session.max_profit(), 5); // items 0 and 2
/// assert_eq!(session.reconstruct(), vec![true, false, true]);
///
/// // Perturb the last item: only its row is refilled.
/// items[2] = AllocItem::new(EdgeId::new(2), 1, 4, 3);
/// session.resolve(&items, 3);
/// let mut cold = IncrementalDp::new();
/// cold.resolve(&items, 3);
/// assert_eq!(session.max_profit(), cold.max_profit());
/// assert_eq!(session.reconstruct(), cold.reconstruct());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalDp {
    /// The item list of the last resolve, in the caller's (deadline)
    /// order — the row-reuse prefix is computed against it.
    items: Vec<AllocItem>,
    /// Stored row width: the largest `capacity + 1` seen so far, or 0
    /// while the session is unprimed.
    cols: usize,
    /// Words per decision-bit row (`cols / 64`, rounded up).
    words_per_row: usize,
    /// All value rows `B[·, 0..=n]`, row-major at width `cols`.
    rows: Vec<u64>,
    /// Decision bits, one row of `words_per_row` words per item.
    bits: Vec<u64>,
    /// The capacity of the last resolve (may be below `cols - 1`).
    query: u64,
}

impl IncrementalDp {
    /// Creates an unprimed session; the first
    /// [`resolve`](IncrementalDp::resolve) performs a full fill.
    #[must_use]
    pub fn new() -> Self {
        IncrementalDp::default()
    }

    /// Solves the instance `(items, capacity)`, reusing as much of the
    /// previous solve as the perturbation allows. Items must already
    /// be in deadline order (use
    /// [`sort_by_deadline`](crate::sort_by_deadline) first).
    ///
    /// Reuse, from cheapest to priciest:
    ///
    /// * same items, `capacity` within the stored width → zero refill;
    /// * shared item prefix → suffix rows refill, and refilling stops
    ///   early again wherever a recomputed value row converges back
    ///   onto its stored bytes and the following items are unchanged;
    /// * `capacity` above every capacity seen so far (or a fresh
    ///   session) → a cold fill of every row at the wider width.
    ///
    /// The fill polls the ambient cancel token every 64 computed rows
    /// (a cold fill at rows 0, 64, 128, …). A cancelled resolve forgets
    /// its items: reads then see an empty solve, and the next resolve
    /// reuses none of the stale rows.
    ///
    /// Observability: a cold fill counts as `dp.fills` under the
    /// `alloc.dp.fill` span; a reusing resolve runs under
    /// `alloc.dp.resolve` and counts as `dp.incremental_hits`, adding
    /// *every* reused row — shared prefix and converged tail alike —
    /// to `dp.rows_reused`. Both add their computed cells to
    /// `dp.cells_filled`.
    pub fn resolve(&mut self, items: &[AllocItem], capacity: u64) {
        let needed = capacity as usize + 1;
        let cold = needed > self.cols;
        let _span = paraconv_obs::span(
            if cold {
                "alloc.dp.fill"
            } else {
                "alloc.dp.resolve"
            },
            "alloc",
        );
        let n = items.len();
        if cold {
            paraconv_obs::counter_add("dp.fills", 1);
            paraconv_obs::counter_add("dp.cells_filled", n as u64 * needed as u64);
            paraconv_obs::observe("dp.items_per_fill", n as u64);
            // The stored rows are too narrow to extend: start over at
            // the wider width with nothing reusable, from row 0 (B[·, 0],
            // all zeros). The fill appends every later row.
            self.cols = needed;
            self.words_per_row = needed.div_ceil(64);
            self.items.clear();
            self.rows.clear();
            self.rows.reserve((n + 1) * needed);
            self.rows.resize(needed, 0);
        } else {
            self.rows.resize((n + 1) * self.cols, 0);
        }
        self.query = capacity;
        let cols = self.cols;
        let old_items = std::mem::replace(&mut self.items, items.to_vec());
        self.bits.resize(n * self.words_per_row, 0);
        let mut stale = Vec::new();
        let mut dirty = false;
        let mut reused = 0u64;
        let mut recomputed = 0u64;
        for (m, new_item) in items.iter().enumerate() {
            if !dirty && old_items.get(m) == Some(new_item) {
                // Value row m and item m both match the stored solve,
                // so value row m + 1 and bit row m are already right.
                reused += 1;
                continue;
            }
            // Cooperative cancellation inside the hottest planning
            // loop, every 64 computed rows: when the ambient token
            // fires (serve deadline or drain) the fill stops early.
            // The token stays cancelled, so the scheduler discards the
            // result at its next phase boundary.
            if recomputed.is_multiple_of(64) && paraconv_obs::cancel_requested() {
                self.items.clear();
                break;
            }
            // Rows are visited in order, so row m + 1 still holds the
            // previous solve's bytes (when it had that many rows).
            let had_next = m < old_items.len();
            if had_next {
                stale.clear();
                // lint: allow(unchecked-index) — rows holds n + 1 rows of width cols and m < n
                stale.extend_from_slice(&self.rows[(m + 1) * cols..(m + 2) * cols]);
            }
            self.fill_row(m);
            recomputed += 1;
            // lint: allow(unchecked-index) — same row bounds as the stash above
            dirty = !had_next || self.rows[(m + 1) * cols..(m + 2) * cols] != stale[..];
        }
        if reused > 0 {
            paraconv_obs::counter_add("dp.incremental_hits", 1);
            paraconv_obs::counter_add("dp.rows_reused", reused);
        }
        if !cold && recomputed > 0 {
            paraconv_obs::counter_add("dp.cells_filled", recomputed * cols as u64);
        }
    }

    /// Computes value row `m + 1` and decision-bit row `m` from value
    /// row `m` — one step of the recurrence at the stored width.
    fn fill_row(&mut self, m: usize) {
        let cols = self.cols;
        // Row m + 1 starts as a copy of row m (B carried); a cold fill
        // appends it, a refill overwrites the stored one.
        let prev_range = m * cols..(m + 1) * cols;
        if self.rows.len() == (m + 1) * cols {
            self.rows.extend_from_within(prev_range);
        } else {
            self.rows.copy_within(prev_range, (m + 1) * cols);
        }
        let (prev_rows, curr_rows) = self.rows.split_at_mut((m + 1) * cols);
        // lint: allow(unchecked-index) — prev_rows holds exactly rows 0..=m of width cols
        let prev = &prev_rows[m * cols..];
        // lint: allow(unchecked-index) — row m + 1 exists after the copy above
        let curr = &mut curr_rows[..cols];
        // lint: allow(unchecked-index) — bits holds one words_per_row row per item
        let row_bits = &mut self.bits[m * self.words_per_row..(m + 1) * self.words_per_row];
        row_bits.fill(0);
        // lint: allow(unchecked-index) — m < items.len() for every fill_row call site
        let item = &self.items[m];
        // An item wider than the row never fits: the loop is empty, the
        // copy stands and every decision bit stays clear.
        let sp = usize::try_from(item.space()).unwrap_or(usize::MAX);
        let dr = item.delta_r();
        for s in sp..cols {
            // lint: allow(unchecked-index) — s ≥ sp here, so s - sp is in range
            let with = prev[s - sp] + dr;
            // lint: allow(unchecked-index) — s ranges over the shared row width
            if with > curr[s] {
                // lint: allow(unchecked-index) — s ranges over the shared row width
                curr[s] = with;
                // lint: allow(unchecked-index) — s/64 < words_per_row by construction
                row_bits[s >> 6] |= 1u64 << (s & 63);
            }
        }
    }

    /// The optimal profit of the last [`resolve`](IncrementalDp::resolve).
    ///
    /// # Panics
    ///
    /// Panics if the session was never resolved.
    #[must_use]
    pub fn max_profit(&self) -> u64 {
        self.max_profit_at(self.query)
    }

    /// The optimal profit at any capacity within the stored width —
    /// `B[s, n]` of the last resolved item list. One fill at capacity
    /// `S` answers the whole sweep `0..=S` (the column-prefix
    /// property).
    ///
    /// # Panics
    ///
    /// Panics if the session was never resolved or `s` exceeds the
    /// stored capacity.
    ///
    /// # Examples
    ///
    /// ```
    /// use paraconv_alloc::{AllocItem, IncrementalDp};
    /// use paraconv_graph::EdgeId;
    ///
    /// let items = vec![
    ///     AllocItem::new(EdgeId::new(0), 2, 3, 1),
    ///     AllocItem::new(EdgeId::new(1), 2, 2, 2),
    ///     AllocItem::new(EdgeId::new(2), 1, 2, 3),
    /// ];
    /// // Prime once at the widest sweep point, then read every point.
    /// let mut session = IncrementalDp::new();
    /// session.resolve(&items, 5);
    /// let sweep: Vec<u64> = [0, 3, 5].iter().map(|&s| session.max_profit_at(s)).collect();
    /// assert_eq!(sweep, vec![0, 5, 7]);
    ///
    /// let mut narrow = IncrementalDp::new();
    /// narrow.resolve(&items, 3);
    /// assert_eq!(sweep[1], narrow.max_profit());
    /// ```
    #[must_use]
    pub fn max_profit_at(&self, s: u64) -> u64 {
        assert!(self.cols > 0, "resolve() the session before reading it");
        assert!((s as usize) < self.cols, "capacity out of range");
        let n = self.items.len();
        // lint: allow(unchecked-index) — the final row spans cols entries and s < cols
        self.rows[n * self.cols + s as usize]
    }

    /// Backtracks an optimal subset at the last resolved capacity;
    /// `result[m]` is `true` iff the `m`-th item (deadline order) is
    /// allocated to cache.
    #[must_use]
    pub fn reconstruct(&self) -> Vec<bool> {
        paraconv_obs::counter_add("dp.reconstructs", 1);
        let n = self.items.len();
        let mut chosen = vec![false; n];
        let mut s = self.query as usize;
        for m in (0..n).rev() {
            // The item was taken iff skipping it loses profit at the
            // current residual capacity — the stored decision bit.
            // lint: allow(unchecked-index) — m < n and s stays within the stored width
            let word = self.bits[m * self.words_per_row + (s >> 6)];
            if (word >> (s & 63)) & 1 == 1 {
                // lint: allow(unchecked-index) — m < n bounds both accesses
                chosen[m] = true;
                // A set bit implies the item fit, so sp ≤ s.
                // lint: allow(unchecked-index) — m < n bounds both accesses
                s -= self.items[m].space() as usize;
            }
        }
        chosen
    }

    /// The item list of the last resolve (deadline order).
    #[must_use]
    pub fn items(&self) -> &[AllocItem] {
        &self.items
    }
}

/// Exhaustive optimum for cross-checking the DP, `O(2^n)` — only for
/// small `n` in tests and verification harnesses.
///
/// # Panics
///
/// Panics if `items.len() > 24` to keep runtime bounded.
///
/// # Examples
///
/// ```
/// use paraconv_alloc::{brute_force_max_profit, AllocItem, IncrementalDp};
/// use paraconv_graph::EdgeId;
///
/// let items: Vec<AllocItem> = (0..16)
///     .map(|i| AllocItem::new(EdgeId::new(i), 1 + u64::from(i % 3), u64::from(i % 4), u64::from(i)))
///     .collect();
/// let mut session = IncrementalDp::new();
/// session.resolve(&items, 12);
/// assert_eq!(brute_force_max_profit(&items, 12), session.max_profit());
/// ```
#[must_use]
pub fn brute_force_max_profit(items: &[AllocItem], capacity: u64) -> u64 {
    assert!(items.len() <= 24, "brute force limited to 24 items");
    let mut best = 0u64;
    for mask in 0u32..(1u32 << items.len()) {
        let mut space = 0u64;
        let mut profit = 0u64;
        for (i, item) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                space += item.space();
                profit += item.delta_r();
            }
        }
        if space <= capacity {
            best = best.max(profit);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::EdgeId;

    fn item(id: u32, space: u64, profit: u64) -> AllocItem {
        AllocItem::new(EdgeId::new(id), space, profit, id as u64)
    }

    /// A fresh session solved once: the cold path.
    fn solved(items: &[AllocItem], capacity: u64) -> IncrementalDp {
        let mut session = IncrementalDp::new();
        session.resolve(items, capacity);
        session
    }

    fn assert_matches_cold(session: &IncrementalDp, items: &[AllocItem], capacity: u64) {
        let cold = solved(items, capacity);
        assert_eq!(session.max_profit(), cold.max_profit(), "profit diverged");
        assert_eq!(
            session.reconstruct(),
            cold.reconstruct(),
            "reconstruction diverged"
        );
    }

    /// Profit and space of the chosen subset.
    fn totals(items: &[AllocItem], chosen: &[bool]) -> (u64, u64) {
        items
            .iter()
            .zip(chosen)
            .filter(|(_, &c)| c)
            .fold((0, 0), |(p, s), (i, _)| (p + i.delta_r(), s + i.space()))
    }

    #[test]
    fn base_cases_match_recurrence() {
        let items = vec![item(0, 3, 5)];
        // m = 0 or S = 0 → 0.
        assert_eq!(solved(&items[..0], 4).max_profit_at(4), 0);
        assert_eq!(solved(&items, 4).max_profit_at(0), 0);
        // m = 1, sp_1 ≤ S → ΔR(1).
        assert_eq!(solved(&items, 4).max_profit_at(3), 5);
        assert_eq!(solved(&items, 4).max_profit_at(4), 5);
        // m = 1, sp_1 > S → 0.
        assert_eq!(solved(&items, 4).max_profit_at(2), 0);
    }

    #[test]
    fn entry_matches_a_full_reference_table() {
        // Solving each item prefix must reproduce every row of the
        // dense B[S, m] matrix, computed inline from the recurrence.
        let items = [
            item(0, 3, 2),
            item(1, 2, 2),
            item(2, 4, 10),
            item(3, 1, 1),
            item(4, 5, 3),
        ];
        let capacity = 9u64;
        let n = items.len();
        let cols = capacity as usize + 1;
        let mut reference = vec![0u64; (n + 1) * cols];
        for (m, it) in items.iter().enumerate() {
            for s in 0..cols {
                let without = reference[m * cols + s];
                let with = if it.space() <= s as u64 {
                    reference[m * cols + s - it.space() as usize] + it.delta_r()
                } else {
                    0
                };
                reference[(m + 1) * cols + s] = without.max(with);
            }
        }
        for m in 0..=n {
            let prefix = solved(&items[..m], capacity);
            for s in 0..cols {
                assert_eq!(
                    prefix.max_profit_at(s as u64),
                    reference[m * cols + s],
                    "B[{s}, {m}]"
                );
            }
        }
    }

    #[test]
    fn classic_knapsack_instance() {
        let items = vec![item(0, 1, 1), item(1, 3, 4), item(2, 4, 5), item(3, 5, 7)];
        let session = solved(&items, 7);
        assert_eq!(session.max_profit(), 9); // items 1 and 2
        let (profit, space) = totals(&items, &session.reconstruct());
        assert!(space <= 7);
        assert_eq!(profit, 9);
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let session = solved(&[item(0, 1, 10), item(1, 1, 10)], 0);
        assert_eq!(session.max_profit(), 0);
        assert_eq!(session.reconstruct(), vec![false, false]);
    }

    #[test]
    fn empty_items_profit_zero() {
        let session = solved(&[], 10);
        assert_eq!(session.max_profit(), 0);
        assert_eq!(session.max_profit_at(0), 0);
        assert!(session.reconstruct().is_empty());
    }

    #[test]
    fn all_fit_when_capacity_ample() {
        let session = solved(&[item(0, 1, 1), item(1, 2, 2), item(2, 3, 3)], 100);
        assert_eq!(session.max_profit(), 6);
        assert_eq!(session.reconstruct(), vec![true, true, true]);
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        let instances: Vec<(Vec<AllocItem>, u64)> = vec![
            (
                vec![item(0, 2, 3), item(1, 3, 4), item(2, 4, 5), item(3, 5, 6)],
                5,
            ),
            (vec![item(0, 1, 2), item(1, 1, 2), item(2, 1, 2)], 2),
            (vec![item(0, 10, 100)], 9),
            (
                vec![item(0, 6, 1), item(1, 6, 1), item(2, 6, 1), item(3, 5, 10)],
                11,
            ),
        ];
        for (items, cap) in instances {
            assert_eq!(
                solved(&items, cap).max_profit(),
                brute_force_max_profit(&items, cap),
            );
        }
    }

    #[test]
    fn reconstruction_profit_equals_table_profit() {
        let items = vec![
            item(0, 3, 2),
            item(1, 2, 2),
            item(2, 4, 10),
            item(3, 1, 1),
            item(4, 5, 3),
        ];
        let session = solved(&items, 8);
        let (profit, _) = totals(&items, &session.reconstruct());
        assert_eq!(profit, session.max_profit());
    }

    #[test]
    fn one_primed_session_answers_a_capacity_sweep() {
        let items = vec![
            item(0, 3, 2),
            item(1, 2, 2),
            item(2, 4, 10),
            item(3, 1, 1),
            item(4, 5, 3),
        ];
        let capacities = [7, 0, 3, 12, 5, 12];
        let mut session = solved(&items, 12);
        for &cap in &capacities {
            assert_eq!(session.max_profit_at(cap), solved(&items, cap).max_profit());
            session.resolve(&items, cap);
            assert_eq!(
                Some(session.cols as u64 - 1),
                Some(12),
                "no reprime expected"
            );
            assert_matches_cold(&session, &items, cap);
        }
    }

    #[test]
    fn narrower_resolves_are_feasible_and_optimal_per_capacity() {
        let items = vec![item(0, 1, 1), item(1, 3, 4), item(2, 4, 5), item(3, 5, 7)];
        let mut session = solved(&items, 9);
        for cap in 0..=9 {
            session.resolve(&items, cap);
            let (profit, space) = totals(&items, &session.reconstruct());
            assert!(space <= cap);
            assert_eq!(profit, session.max_profit_at(cap));
        }
    }

    #[test]
    fn first_resolve_is_a_cold_fill() {
        let items = vec![item(0, 1, 1), item(1, 3, 4), item(2, 4, 5), item(3, 5, 7)];
        let session = solved(&items, 7);
        assert_eq!(session.max_profit(), 9);
        assert_eq!(Some(session.cols as u64 - 1), Some(7));
        assert_eq!(session.items(), &items[..]);
    }

    #[test]
    fn item_perturbation_refills_only_the_suffix() {
        let mut items = vec![
            item(0, 3, 2),
            item(1, 2, 2),
            item(2, 4, 10),
            item(3, 1, 1),
            item(4, 5, 3),
        ];
        let mut session = solved(&items, 8);
        for (perturb, space, profit) in [(4usize, 2, 9), (2, 1, 1), (0, 6, 20)] {
            items[perturb] = item(perturb as u32, space, profit);
            session.resolve(&items, 8);
            assert_matches_cold(&session, &items, 8);
        }
    }

    #[test]
    fn multi_item_perturbations_stay_exact() {
        let mut items = vec![
            item(0, 2, 3),
            item(1, 3, 5),
            item(2, 1, 2),
            item(3, 4, 7),
            item(4, 2, 4),
            item(5, 3, 6),
        ];
        let mut session = solved(&items, 9);
        // Move several items at once, with untouched rows between and
        // after them — the batch shape a degraded-mode replan emits.
        items[1] = item(1, 2, 9);
        items[4] = item(4, 1, 1);
        session.resolve(&items, 9);
        assert_matches_cold(&session, &items, 9);
        // A batch whose edits all converge immediately (oversized items
        // copy their row through in both the old and new solve).
        items[0] = item(0, 50, 8);
        items[3] = item(3, 60, 2);
        session.resolve(&items, 9);
        items[0] = item(0, 70, 1);
        items[3] = item(3, 80, 5);
        session.resolve(&items, 9);
        assert_matches_cold(&session, &items, 9);
    }

    #[test]
    fn capacity_moves_within_the_stored_width_are_free() {
        let items = vec![item(0, 2, 5), item(1, 2, 4), item(2, 1, 3)];
        let mut session = solved(&items, 5);
        for capacity in [0u64, 3, 5, 1, 4, 2] {
            session.resolve(&items, capacity);
            assert_eq!(session.query, capacity);
            assert_eq!(
                Some(session.cols as u64 - 1),
                Some(5),
                "no reprime expected"
            );
            assert_matches_cold(&session, &items, capacity);
        }
    }

    #[test]
    fn capacity_growth_reprimes_at_the_wider_row() {
        let items = vec![item(0, 2, 5), item(1, 2, 4), item(2, 1, 3)];
        let mut session = solved(&items, 2);
        session.resolve(&items, 9);
        assert_eq!(Some(session.cols as u64 - 1), Some(9));
        assert_matches_cold(&session, &items, 9);
    }

    #[test]
    fn item_count_can_shrink_and_grow() {
        let base = vec![item(0, 1, 2), item(1, 2, 3), item(2, 3, 4), item(3, 1, 5)];
        let mut session = solved(&base, 6);
        let shorter = &base[..2];
        session.resolve(shorter, 6);
        assert_matches_cold(&session, shorter, 6);
        session.resolve(&base, 6);
        assert_matches_cold(&session, &base, 6);
        session.resolve(&[], 6);
        assert_eq!(session.max_profit(), 0);
        assert!(session.reconstruct().is_empty());
    }

    #[test]
    fn disjoint_item_lists_still_solve_exactly() {
        let first = vec![item(0, 2, 3), item(1, 3, 4)];
        let second = vec![item(7, 1, 9), item(8, 4, 2), item(9, 2, 6)];
        let mut session = solved(&first, 5);
        session.resolve(&second, 5);
        assert_matches_cold(&session, &second, 5);
    }

    #[test]
    fn a_cancelled_fill_is_readable_and_never_reused() {
        let items: Vec<AllocItem> = (0..200)
            .map(|i| item(i, 1 + u64::from(i % 5), 1 + u64::from(i % 7)))
            .collect();
        let doubled: Vec<AllocItem> = items
            .iter()
            .map(|i| AllocItem::new(i.edge(), i.space(), 2 * i.delta_r(), i.deadline()))
            .collect();
        let mut session = solved(&items, 40);
        {
            let token = paraconv_obs::CancelToken::new();
            token.cancel();
            let _scope = paraconv_obs::CancelScope::enter(token);
            session.resolve(&doubled, 40);
        }
        // The abandoned solve reads as empty instead of panicking.
        assert_eq!(session.max_profit(), 0);
        assert!(session.reconstruct().is_empty());
        assert!(session.items().is_empty());
        // The rows still hold the first solve; the next resolve must
        // refill them rather than take them for the doubled items'.
        session.resolve(&doubled, 40);
        assert_matches_cold(&session, &doubled, 40);
        assert_eq!(session.max_profit(), 2 * solved(&items, 40).max_profit());
    }

    #[test]
    #[should_panic(expected = "resolve() the session before reading it")]
    fn reading_an_unprimed_session_panics() {
        let _ = IncrementalDp::new().max_profit();
    }

    #[test]
    #[should_panic(expected = "capacity out of range")]
    fn reading_past_the_stored_width_panics() {
        let _ = solved(&[item(0, 1, 1)], 3).max_profit_at(4);
    }
}
