//! DRAM vault accounting.
//!
//! The 3D stack partitions its DRAM tiers into vaults, each reached
//! through a dedicated TSV bundle (§2.1). Intermediate processing
//! results placed in eDRAM are striped over the vaults; the simulator
//! counts per-vault fetch traffic to report hot-spotting and total
//! off-chip movement. Its per-event reference pass records every fetch
//! here; its streaming pass keeps the same per-vault counts itself and
//! emits the same `vault.*` totals once per accepted plan.

use paraconv_graph::EdgeId;

/// Fetch statistics of one DRAM vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Vault {
    fetches: u64,
    units_moved: u64,
    busy_time: u64,
}

impl Vault {
    /// Creates an idle vault.
    #[must_use]
    pub fn new() -> Self {
        Vault::default()
    }

    /// Records one fetch of `units` capacity units taking `duration`
    /// time units of TSV occupancy.
    pub fn record_fetch(&mut self, units: u64, duration: u64) {
        self.fetches += 1;
        self.units_moved += units;
        self.busy_time += duration;
    }

    /// Number of fetch operations served.
    #[must_use]
    pub const fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Total capacity units moved through this vault.
    #[must_use]
    pub const fn units_moved(&self) -> u64 {
        self.units_moved
    }

    /// Total TSV busy time.
    #[must_use]
    pub const fn busy_time(&self) -> u64 {
        self.busy_time
    }
}

/// The set of vaults of a stack, with the static edge-to-vault
/// striping used by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VaultArray {
    vaults: Vec<Vault>,
}

impl VaultArray {
    /// Creates `count` idle vaults.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (validated configurations always have
    /// at least one vault).
    #[must_use]
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "vault count must be positive");
        VaultArray {
            vaults: vec![Vault::new(); count],
        }
    }

    /// The vault an IPR is striped to: round-robin by edge ID, the
    /// address-interleaving HMC stacks use.
    #[must_use]
    pub fn vault_of(&self, edge: EdgeId) -> usize {
        edge.index() % self.vaults.len()
    }

    /// Records an eDRAM fetch of `edge` moving `units` over `duration`.
    pub fn record_fetch(&mut self, edge: EdgeId, units: u64, duration: u64) {
        let v = self.vault_of(edge);
        self.vaults[v].record_fetch(units, duration);
        paraconv_obs::counter_add("vault.fetches", 1);
        paraconv_obs::counter_add("vault.units_moved", units);
        paraconv_obs::gauge_max("vault.peak_fetches", self.vaults[v].fetches());
    }

    /// Iterates over the vaults.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Vault> + '_ {
        self.vaults.iter()
    }

    /// The highest per-vault fetch count — a hot-spotting indicator.
    #[must_use]
    pub fn peak_fetches(&self) -> u64 {
        self.vaults.iter().map(Vault::fetches).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_is_round_robin() {
        let va = VaultArray::new(4);
        assert_eq!(va.vault_of(EdgeId::new(0)), 0);
        assert_eq!(va.vault_of(EdgeId::new(5)), 1);
        assert_eq!(va.vault_of(EdgeId::new(7)), 3);
    }

    #[test]
    fn totals_accumulate() {
        let mut va = VaultArray::new(2);
        va.record_fetch(EdgeId::new(0), 3, 12);
        va.record_fetch(EdgeId::new(1), 2, 8);
        va.record_fetch(EdgeId::new(2), 1, 4);
        assert_eq!(va.peak_fetches(), 2); // vault 0 served edges 0 and 2
    }

    #[test]
    fn per_vault_stats() {
        let mut va = VaultArray::new(2);
        va.record_fetch(EdgeId::new(1), 5, 20);
        let v: Vec<&Vault> = va.iter().collect();
        assert_eq!(v[0].fetches(), 0);
        assert_eq!(v[1].fetches(), 1);
        assert_eq!(v[1].units_moved(), 5);
        assert_eq!(v[1].busy_time(), 20);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_vaults_panics() {
        let _ = VaultArray::new(0);
    }
}
