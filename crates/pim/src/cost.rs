//! Placement-dependent cost model for intermediate processing results.
//!
//! The paper's profit function `P : I, E ↦ ℤ` assigns every IPR two
//! non-negative weights: `P_α(I_{i,j})` for placement in the on-chip
//! PE-array cache and `P_β(I_{i,j})` for placement in stacked eDRAM,
//! with `P_α ≫ P_β` because vault fetches cost 2–10× more time and
//! energy than cache hits (§2.2). This module turns a [`PimConfig`]
//! into concrete transfer latencies, profits and energies.

use paraconv_graph::Placement;

use crate::PimConfig;

/// Concrete per-IPR costs derived from a [`PimConfig`].
///
/// # Examples
///
/// ```
/// use paraconv_pim::{CostModel, PimConfig};
///
/// let cfg = PimConfig::neurocube(16)?;
/// let cost = CostModel::new(&cfg, 100); // a graph with 100 IPR edges
/// assert!(cost.edram_transfer_time(1) > cost.cache_transfer_time(1));
/// # Ok::<(), paraconv_pim::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CostModel {
    cache_cost_per_unit: u64,
    edram_penalty: u64,
    /// Average vault queuing delay experienced by an eDRAM fetch: the
    /// graph's IPR edges spread over the stack's fixed vault count.
    vault_queue_delay: u64,
    /// Energy per capacity unit served from cache, in arbitrary pJ-like
    /// units.
    cache_energy_per_unit: u64,
}

impl CostModel {
    /// Builds the cost model for an architecture and an application
    /// with `edge_count` intermediate processing results.
    ///
    /// The vault-queue term models TSV contention: the HMC vault count
    /// is fixed, so applications with more IPR traffic see deeper
    /// per-vault queues regardless of PE count. The per-vault depth
    /// rounds *up*: any IPR traffic at all queues at least one deep, so
    /// small graphs on many-vault stacks still pay the contention term.
    /// A queue cost too large for `u64` saturates, so an imported
    /// config cannot panic here; [`checked_transfer_time`] then reports
    /// the eDRAM latency as unrepresentable.
    ///
    /// [`checked_transfer_time`]: Self::checked_transfer_time
    #[must_use]
    pub fn new(config: &PimConfig, edge_count: usize) -> Self {
        let per_vault = (edge_count as u64).div_ceil(config.vaults() as u64);
        CostModel {
            cache_cost_per_unit: config.cache_cost_per_unit(),
            edram_penalty: config.edram_penalty(),
            vault_queue_delay: per_vault.saturating_mul(config.vault_queue_cost()),
            cache_energy_per_unit: 1,
        }
    }

    /// Transfer time of an IPR of `size` capacity units served from the
    /// on-chip cache.
    #[must_use]
    pub const fn cache_transfer_time(&self, size: u64) -> u64 {
        size * self.cache_cost_per_unit
    }

    /// Transfer time of an IPR of `size` capacity units served from
    /// stacked eDRAM: the cache time scaled by the 2–10× penalty plus
    /// the vault queuing delay.
    #[must_use]
    pub const fn edram_transfer_time(&self, size: u64) -> u64 {
        self.cache_transfer_time(size) * self.edram_penalty + self.vault_queue_delay
    }

    /// Transfer time under a given placement.
    #[must_use]
    pub const fn transfer_time(&self, size: u64, placement: Placement) -> u64 {
        match placement {
            Placement::Cache => self.cache_transfer_time(size),
            Placement::Edram => self.edram_transfer_time(size),
        }
    }

    /// [`transfer_time`](Self::transfer_time), or `None` when the
    /// latency does not fit in `u64` (an imported graph or config with
    /// absurd sizes or costs).
    #[must_use]
    pub fn checked_transfer_time(&self, size: u64, placement: Placement) -> Option<u64> {
        let cache = size.checked_mul(self.cache_cost_per_unit)?;
        match placement {
            Placement::Cache => Some(cache),
            Placement::Edram => cache
                .checked_mul(self.edram_penalty)?
                .checked_add(self.vault_queue_delay),
        }
    }

    /// Energy to move an IPR of `size` units under a placement,
    /// in arbitrary units (eDRAM pays the same 2–10× factor).
    #[must_use]
    pub const fn transfer_energy(&self, size: u64, placement: Placement) -> u64 {
        let base = size * self.cache_energy_per_unit;
        match placement {
            Placement::Cache => base,
            Placement::Edram => base * self.edram_penalty,
        }
    }

    /// The vault queuing component of eDRAM fetches.
    #[must_use]
    pub const fn vault_queue_delay(&self) -> u64 {
        self.vault_queue_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        // Enable vault queuing (1 unit per edge-per-vault) to exercise
        // the contention term; the preset default leaves it off.
        let cfg = PimConfig::builder(16).vault_queue_cost(1).build().unwrap();
        CostModel::new(&cfg, 160)
    }

    #[test]
    fn cache_is_linear_in_size() {
        let m = model();
        assert_eq!(m.cache_transfer_time(1), 1);
        assert_eq!(m.cache_transfer_time(5), 5);
    }

    #[test]
    fn edram_applies_penalty_and_queue() {
        let m = model();
        // 160 edges over 16 vaults = 10 queue units.
        assert_eq!(m.vault_queue_delay(), 10);
        assert_eq!(m.edram_transfer_time(1), 4 + 10);
        assert_eq!(m.edram_transfer_time(3), 12 + 10);
    }

    #[test]
    fn placement_dispatch() {
        let m = model();
        assert_eq!(m.transfer_time(2, Placement::Cache), 2);
        assert_eq!(m.transfer_time(2, Placement::Edram), 18);
    }

    #[test]
    fn checked_latency_matches_and_refuses_overflow() {
        let m = model();
        for placement in [Placement::Cache, Placement::Edram] {
            assert_eq!(
                m.checked_transfer_time(3, placement),
                Some(m.transfer_time(3, placement))
            );
        }
        assert_eq!(
            m.checked_transfer_time(u64::MAX, Placement::Cache),
            Some(u64::MAX)
        );
        assert_eq!(m.checked_transfer_time(u64::MAX, Placement::Edram), None);
        // An absurd queue cost saturates instead of panicking.
        let cfg = PimConfig::builder(16)
            .vault_queue_cost(u64::MAX)
            .build()
            .unwrap();
        let m = CostModel::new(&cfg, 160);
        assert_eq!(m.checked_transfer_time(1, Placement::Cache), Some(1));
        assert_eq!(m.checked_transfer_time(1, Placement::Edram), None);
    }

    #[test]
    fn energy_penalty_matches_latency_penalty() {
        let m = model();
        assert_eq!(m.transfer_energy(3, Placement::Cache), 3);
        assert_eq!(m.transfer_energy(3, Placement::Edram), 12);
    }

    #[test]
    fn small_graphs_have_no_queue() {
        // The neurocube preset leaves vault queuing off entirely.
        let m = CostModel::new(&PimConfig::neurocube(16).unwrap(), 8);
        assert_eq!(m.vault_queue_delay(), 0);
        assert_eq!(m.edram_transfer_time(1), 4);
    }

    #[test]
    fn small_graphs_still_pay_contention() {
        // Regression: integer division floored 8/16 to 0, silently
        // erasing the contention term for any graph with fewer edges
        // than vaults. The depth now rounds up.
        let cfg = PimConfig::builder(16).vault_queue_cost(3).build().unwrap();
        let m = CostModel::new(&cfg, 8);
        assert_eq!(m.vault_queue_delay(), 3);
        assert_eq!(m.edram_transfer_time(1), 4 + 3);
        // 17 edges over 16 vaults queue two deep, not one.
        let m = CostModel::new(&cfg, 17);
        assert_eq!(m.vault_queue_delay(), 6);
        // No edges, no queue.
        let m = CostModel::new(&cfg, 0);
        assert_eq!(m.vault_queue_delay(), 0);
    }
}
