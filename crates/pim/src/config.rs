//! Architecture configuration for the 3D-stacked PIM accelerator.
//!
//! Mirrors the Neurocube organisation (Kim et al., ISCA'16) the paper
//! evaluates on: a logic die holding an array of processing engines
//! (PEs) under multiple tiers of DRAM partitioned into *vaults*, each
//! vault reached through its own TSV bundle. Each PE integrates a small
//! data cache for intermediate CNN processing results; the whole PE
//! array offers only 100–300 KB of cache (§2.3), so cache capacity is
//! the scarce resource the Para-CONV dynamic program manages.

use core::fmt;

/// The largest PE array a [`PimConfig`] may describe. The paper
/// evaluates 16–64 PEs and every experiment stays within 256; the
/// bound is what a plan request or `--pes` flag may ask for.
pub const MAX_PES: usize = 1024;

/// The largest aggregate cache, `num_pes × per_pe_cache_units`, a
/// [`PimConfig`] may describe: the Neurocube preset's 4 units per PE
/// at [`MAX_PES`]. The §3.3 DP keeps `capacity + 1` words per
/// competing item, so this bounds its table: `protein`, the largest
/// benchmark, peaks at about 49 MiB resident at this bound (x86-64
/// release build).
pub const MAX_CACHE_UNITS: u64 = 4 * MAX_PES as u64;

/// Errors produced when validating a [`PimConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The PE array must contain at least one processing engine.
    NoProcessingEngines,
    /// The stacked memory must expose at least one vault.
    NoVaults,
    /// The eDRAM penalty must be at least 2× (the paper cites 2–10×).
    PenaltyOutOfRange(u64),
    /// Cache transfer cost per capacity unit must be positive.
    ZeroCacheCost,
    /// A failed-PE index points outside the PE array.
    FailedPeOutOfRange(u32),
    /// Every PE in the array is marked failed; nothing can execute.
    NoSurvivingPes,
    /// The PE array is larger than [`MAX_PES`].
    TooManyPes(usize),
    /// The aggregate cache is larger than [`MAX_CACHE_UNITS`].
    CacheTooLarge(u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoProcessingEngines => {
                f.write_str("configuration has no processing engines")
            }
            ConfigError::NoVaults => f.write_str("configuration has no DRAM vaults"),
            ConfigError::PenaltyOutOfRange(p) => write!(
                f,
                "eDRAM penalty {p} outside the 2-10x range reported for 3D PIM"
            ),
            ConfigError::ZeroCacheCost => f.write_str("cache transfer cost must be positive"),
            ConfigError::FailedPeOutOfRange(pe) => {
                write!(f, "failed PE{pe} is outside the PE array")
            }
            ConfigError::NoSurvivingPes => {
                f.write_str("every PE is marked failed; no capacity survives")
            }
            ConfigError::TooManyPes(n) => {
                write!(f, "{n} PEs exceed the supported maximum of {MAX_PES}")
            }
            ConfigError::CacheTooLarge(units) => write!(
                f,
                "aggregate cache of {units} units exceeds the supported maximum of {MAX_CACHE_UNITS}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the simulated PIM accelerator.
///
/// Construct with [`PimConfig::builder`] or use the Neurocube presets
/// ([`PimConfig::neurocube`]) that match the paper's 16/32/64-PE
/// evaluation points.
///
/// # Examples
///
/// ```
/// use paraconv_pim::PimConfig;
///
/// let cfg = PimConfig::neurocube(32)?;
/// assert_eq!(cfg.num_pes(), 32);
/// assert_eq!(cfg.vaults(), 16); // HMC vault count is fixed
/// assert!(cfg.total_cache_units() > PimConfig::neurocube(16)?.total_cache_units());
/// # Ok::<(), paraconv_pim::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PimConfig {
    num_pes: usize,
    per_pe_cache_units: u64,
    vaults: usize,
    edram_penalty: u64,
    cache_cost_per_unit: u64,
    vault_queue_cost: u64,
    pfifo_depth: usize,
    max_vault_concurrency: Option<usize>,
    failed_pes: Vec<u32>,
}

impl PimConfig {
    /// Starts building a configuration with the given PE count.
    #[must_use]
    pub fn builder(num_pes: usize) -> PimConfigBuilder {
        PimConfigBuilder {
            num_pes,
            per_pe_cache_units: 4,
            vaults: 16,
            edram_penalty: 4,
            cache_cost_per_unit: 1,
            vault_queue_cost: 0,
            pfifo_depth: 256,
            max_vault_concurrency: None,
            failed_pes: Vec::new(),
        }
    }

    /// Returns the Neurocube-style preset used throughout the paper's
    /// evaluation: `num_pes` processing engines (the paper sweeps 16,
    /// 32 and 64), 16 HMC vaults, per-PE cache of 4 capacity units,
    /// and a 4× eDRAM penalty (middle of the cited 2–10× band).
    ///
    /// Any PE count from 1 to [`MAX_PES`] is accepted so scalability
    /// sweeps beyond the paper's points are possible.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoProcessingEngines`] if `num_pes == 0`
    /// and [`ConfigError::TooManyPes`] above [`MAX_PES`].
    pub fn neurocube(num_pes: usize) -> Result<PimConfig, ConfigError> {
        PimConfig::builder(num_pes).build()
    }

    /// Number of processing engines in the PE array.
    #[must_use]
    pub const fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Data-cache capacity of one PE, in IPR capacity units.
    #[must_use]
    pub const fn per_pe_cache_units(&self) -> u64 {
        self.per_pe_cache_units
    }

    /// Aggregate on-chip cache of the PE array — the knapsack capacity
    /// `S` of the paper's dynamic program. Grows linearly with the PE
    /// count, which is why larger arrays can keep more intermediate
    /// processing results on chip. Failed PEs take their cache with
    /// them: the degraded capacity profile only counts survivors.
    #[must_use]
    pub const fn total_cache_units(&self) -> u64 {
        self.per_pe_cache_units * self.active_pes() as u64
    }

    /// Number of DRAM vaults in the 3D stack (fixed at 16 for HMC-style
    /// stacks regardless of PE count).
    #[must_use]
    pub const fn vaults(&self) -> usize {
        self.vaults
    }

    /// Latency/energy multiplier for fetching from stacked eDRAM
    /// relative to the on-chip cache (the paper cites 2–10×).
    #[must_use]
    pub const fn edram_penalty(&self) -> u64 {
        self.edram_penalty
    }

    /// Transfer time per IPR capacity unit when served from the
    /// on-chip cache.
    #[must_use]
    pub const fn cache_cost_per_unit(&self) -> u64 {
        self.cache_cost_per_unit
    }

    /// Additional queuing delay contributed by each eDRAM-resident IPR
    /// competing for the same vault's TSV bundle.
    #[must_use]
    pub const fn vault_queue_cost(&self) -> u64 {
        self.vault_queue_cost
    }

    /// Depth of each PE's pFIFO in entries.
    #[must_use]
    pub const fn pfifo_depth(&self) -> usize {
        self.pfifo_depth
    }

    /// Optional hard limit on simultaneously in-flight eDRAM transfers
    /// per vault (`None` = track the statistic without enforcing; the
    /// default, since the cost model already charges queuing through
    /// [`vault_queue_cost`](Self::vault_queue_cost)).
    #[must_use]
    pub const fn max_vault_concurrency(&self) -> Option<usize> {
        self.max_vault_concurrency
    }

    /// PEs marked permanently failed (fail-stop), sorted ascending.
    /// The simulator rejects any plan that places work on them.
    #[must_use]
    pub fn failed_pes(&self) -> &[u32] {
        &self.failed_pes
    }

    /// Whether `pe` is marked failed.
    #[must_use]
    pub fn is_pe_failed(&self, pe: u32) -> bool {
        self.failed_pes.binary_search(&pe).is_ok()
    }

    /// Surviving PE count — always at least one (the builder rejects a
    /// fully failed array).
    #[must_use]
    pub const fn active_pes(&self) -> usize {
        self.num_pes - self.failed_pes.len()
    }

    /// Physical indices of the surviving PEs, ascending. Schedulers
    /// compact work onto exactly this list in degraded mode.
    #[must_use]
    pub fn active_pe_indices(&self) -> Vec<u32> {
        (0..self.num_pes as u32)
            .filter(|pe| !self.is_pe_failed(*pe))
            .collect()
    }

    /// A copy of this configuration with `dead` added to the failed
    /// set — the degraded capacity profile after a fail-stop. Cache
    /// capacity, the scheduler's PE list and the static verifier's
    /// bounds all shrink accordingly.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FailedPeOutOfRange`] for an index outside the
    /// array, [`ConfigError::NoSurvivingPes`] when the merged set
    /// leaves nothing to execute on.
    pub fn degrade(&self, dead: &[u32]) -> Result<PimConfig, ConfigError> {
        let mut cfg = self.clone();
        cfg.failed_pes.extend_from_slice(dead);
        cfg.failed_pes.sort_unstable();
        cfg.failed_pes.dedup();
        for &pe in &cfg.failed_pes {
            if pe as usize >= cfg.num_pes {
                return Err(ConfigError::FailedPeOutOfRange(pe));
            }
        }
        if cfg.failed_pes.len() >= cfg.num_pes {
            return Err(ConfigError::NoSurvivingPes);
        }
        Ok(cfg)
    }
}

/// Builder for [`PimConfig`] (C-BUILDER).
///
/// # Examples
///
/// ```
/// use paraconv_pim::PimConfig;
///
/// let cfg = PimConfig::builder(8)
///     .per_pe_cache_units(2)
///     .edram_penalty(10)
///     .build()?;
/// assert_eq!(cfg.total_cache_units(), 16);
/// assert_eq!(cfg.edram_penalty(), 10);
/// # Ok::<(), paraconv_pim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PimConfigBuilder {
    num_pes: usize,
    per_pe_cache_units: u64,
    vaults: usize,
    edram_penalty: u64,
    cache_cost_per_unit: u64,
    vault_queue_cost: u64,
    pfifo_depth: usize,
    max_vault_concurrency: Option<usize>,
    failed_pes: Vec<u32>,
}

impl PimConfigBuilder {
    /// Sets the per-PE data-cache capacity in IPR units.
    #[must_use]
    pub fn per_pe_cache_units(mut self, units: u64) -> Self {
        self.per_pe_cache_units = units;
        self
    }

    /// Sets the number of DRAM vaults.
    #[must_use]
    pub fn vaults(mut self, vaults: usize) -> Self {
        self.vaults = vaults;
        self
    }

    /// Sets the eDRAM latency/energy penalty factor (must end up in
    /// `2..=10`).
    #[must_use]
    pub fn edram_penalty(mut self, penalty: u64) -> Self {
        self.edram_penalty = penalty;
        self
    }

    /// Sets the cache transfer cost per capacity unit.
    #[must_use]
    pub fn cache_cost_per_unit(mut self, cost: u64) -> Self {
        self.cache_cost_per_unit = cost;
        self
    }

    /// Sets the per-IPR vault queuing cost.
    #[must_use]
    pub fn vault_queue_cost(mut self, cost: u64) -> Self {
        self.vault_queue_cost = cost;
        self
    }

    /// Sets the pFIFO depth.
    #[must_use]
    pub fn pfifo_depth(mut self, depth: usize) -> Self {
        self.pfifo_depth = depth;
        self
    }

    /// Enforces a hard per-vault limit on in-flight eDRAM transfers
    /// (the default only tracks the statistic).
    #[must_use]
    pub fn max_vault_concurrency(mut self, limit: usize) -> Self {
        self.max_vault_concurrency = Some(limit);
        self
    }

    /// Marks PEs as permanently failed (fail-stop). Duplicates are
    /// merged; the list is sorted by `build`.
    #[must_use]
    pub fn failed_pes(mut self, pes: Vec<u32>) -> Self {
        self.failed_pes = pes;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the PE count or vault count is
    /// zero, the penalty is outside `2..=10`, the cache cost is zero,
    /// or the PE count or aggregate cache exceeds [`MAX_PES`] or
    /// [`MAX_CACHE_UNITS`].
    pub fn build(self) -> Result<PimConfig, ConfigError> {
        if self.num_pes == 0 {
            return Err(ConfigError::NoProcessingEngines);
        }
        if self.num_pes > MAX_PES {
            return Err(ConfigError::TooManyPes(self.num_pes));
        }
        let cache = (self.num_pes as u64).saturating_mul(self.per_pe_cache_units);
        if cache > MAX_CACHE_UNITS {
            return Err(ConfigError::CacheTooLarge(cache));
        }
        if self.vaults == 0 {
            return Err(ConfigError::NoVaults);
        }
        if !(2..=10).contains(&self.edram_penalty) {
            return Err(ConfigError::PenaltyOutOfRange(self.edram_penalty));
        }
        if self.cache_cost_per_unit == 0 {
            return Err(ConfigError::ZeroCacheCost);
        }
        let mut failed_pes = self.failed_pes;
        failed_pes.sort_unstable();
        failed_pes.dedup();
        for &pe in &failed_pes {
            if pe as usize >= self.num_pes {
                return Err(ConfigError::FailedPeOutOfRange(pe));
            }
        }
        if failed_pes.len() >= self.num_pes {
            return Err(ConfigError::NoSurvivingPes);
        }
        Ok(PimConfig {
            num_pes: self.num_pes,
            per_pe_cache_units: self.per_pe_cache_units,
            vaults: self.vaults,
            edram_penalty: self.edram_penalty,
            cache_cost_per_unit: self.cache_cost_per_unit,
            vault_queue_cost: self.vault_queue_cost,
            pfifo_depth: self.pfifo_depth,
            max_vault_concurrency: self.max_vault_concurrency,
            failed_pes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neurocube_presets() {
        for pes in [16, 32, 64] {
            let cfg = PimConfig::neurocube(pes).unwrap();
            assert_eq!(cfg.num_pes(), pes);
            assert_eq!(cfg.vaults(), 16);
            assert_eq!(cfg.edram_penalty(), 4);
            assert_eq!(cfg.total_cache_units(), 4 * pes as u64);
        }
    }

    #[test]
    fn cache_scales_with_pes() {
        let c16 = PimConfig::neurocube(16).unwrap();
        let c64 = PimConfig::neurocube(64).unwrap();
        assert_eq!(c64.total_cache_units(), 4 * c16.total_cache_units());
    }

    #[test]
    fn rejects_zero_pes() {
        assert_eq!(
            PimConfig::neurocube(0).unwrap_err(),
            ConfigError::NoProcessingEngines
        );
    }

    #[test]
    fn rejects_zero_vaults() {
        assert_eq!(
            PimConfig::builder(4).vaults(0).build().unwrap_err(),
            ConfigError::NoVaults
        );
    }

    #[test]
    fn rejects_penalty_outside_band() {
        assert_eq!(
            PimConfig::builder(4).edram_penalty(1).build().unwrap_err(),
            ConfigError::PenaltyOutOfRange(1)
        );
        assert_eq!(
            PimConfig::builder(4).edram_penalty(11).build().unwrap_err(),
            ConfigError::PenaltyOutOfRange(11)
        );
        assert!(PimConfig::builder(4).edram_penalty(2).build().is_ok());
        assert!(PimConfig::builder(4).edram_penalty(10).build().is_ok());
    }

    #[test]
    fn rejects_zero_cache_cost() {
        assert_eq!(
            PimConfig::builder(4)
                .cache_cost_per_unit(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroCacheCost
        );
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = PimConfig::builder(3)
            .per_pe_cache_units(7)
            .vaults(8)
            .edram_penalty(9)
            .cache_cost_per_unit(2)
            .vault_queue_cost(3)
            .pfifo_depth(32)
            .build()
            .unwrap();
        assert_eq!(cfg.per_pe_cache_units(), 7);
        assert_eq!(cfg.vaults(), 8);
        assert_eq!(cfg.edram_penalty(), 9);
        assert_eq!(cfg.cache_cost_per_unit(), 2);
        assert_eq!(cfg.vault_queue_cost(), 3);
        assert_eq!(cfg.pfifo_depth(), 32);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ConfigError::NoProcessingEngines,
            ConfigError::NoVaults,
            ConfigError::PenaltyOutOfRange(1),
            ConfigError::ZeroCacheCost,
            ConfigError::FailedPeOutOfRange(9),
            ConfigError::NoSurvivingPes,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn degraded_capacity_profile_shrinks_with_failures() {
        let cfg = PimConfig::neurocube(16).unwrap();
        assert_eq!(cfg.active_pes(), 16);
        assert!(cfg.failed_pes().is_empty());

        let degraded = cfg.degrade(&[3, 7]).unwrap();
        assert_eq!(degraded.active_pes(), 14);
        assert_eq!(degraded.total_cache_units(), 4 * 14);
        assert!(degraded.is_pe_failed(3));
        assert!(degraded.is_pe_failed(7));
        assert!(!degraded.is_pe_failed(0));
        assert_eq!(degraded.failed_pes(), &[3, 7]);
        assert_eq!(degraded.active_pe_indices().len(), 14);
        assert!(!degraded.active_pe_indices().contains(&3));

        // Degrading is cumulative and idempotent per PE.
        let again = degraded.degrade(&[7, 0]).unwrap();
        assert_eq!(again.failed_pes(), &[0, 3, 7]);
        assert_eq!(again.active_pes(), 13);
    }

    #[test]
    fn degrade_rejects_bad_indices_and_total_loss() {
        let cfg = PimConfig::neurocube(4).unwrap();
        assert_eq!(
            cfg.degrade(&[4]).unwrap_err(),
            ConfigError::FailedPeOutOfRange(4)
        );
        assert_eq!(
            cfg.degrade(&[0, 1, 2, 3]).unwrap_err(),
            ConfigError::NoSurvivingPes
        );
        // Three of four dead is still a valid (if grim) machine.
        let last = cfg.degrade(&[0, 1, 2]).unwrap();
        assert_eq!(last.active_pe_indices(), vec![3]);
        assert_eq!(last.total_cache_units(), 4);
    }

    #[test]
    fn builder_validates_failed_pes() {
        let cfg = PimConfig::builder(8)
            .failed_pes(vec![5, 1, 5])
            .build()
            .unwrap();
        assert_eq!(cfg.failed_pes(), &[1, 5], "sorted and deduped");
        assert_eq!(
            PimConfig::builder(8)
                .failed_pes(vec![8])
                .build()
                .unwrap_err(),
            ConfigError::FailedPeOutOfRange(8)
        );
        assert_eq!(
            PimConfig::builder(1)
                .failed_pes(vec![0])
                .build()
                .unwrap_err(),
            ConfigError::NoSurvivingPes
        );
    }

    #[test]
    fn the_largest_supported_array_builds() {
        let cfg = PimConfig::neurocube(MAX_PES).unwrap();
        assert_eq!(cfg.num_pes(), MAX_PES);
        assert_eq!(cfg.total_cache_units(), MAX_CACHE_UNITS);
    }

    #[test]
    fn rejects_pe_counts_above_the_bound() {
        assert_eq!(
            PimConfig::neurocube(MAX_PES + 1).unwrap_err(),
            ConfigError::TooManyPes(MAX_PES + 1)
        );
        // The PE bound is checked before the cache bound it implies.
        assert_eq!(
            PimConfig::builder(usize::MAX)
                .per_pe_cache_units(u64::MAX)
                .build()
                .unwrap_err(),
            ConfigError::TooManyPes(usize::MAX)
        );
    }

    #[test]
    fn rejects_aggregate_cache_above_the_bound() {
        let per_pe = MAX_CACHE_UNITS / 16;
        assert!(PimConfig::builder(16)
            .per_pe_cache_units(per_pe)
            .build()
            .is_ok());
        assert_eq!(
            PimConfig::builder(16)
                .per_pe_cache_units(per_pe + 1)
                .build()
                .unwrap_err(),
            ConfigError::CacheTooLarge(16 * (per_pe + 1))
        );
        // The product saturates rather than wrapping back under the bound.
        assert_eq!(
            PimConfig::builder(2)
                .per_pe_cache_units(u64::MAX / 2 + 1)
                .build()
                .unwrap_err(),
            ConfigError::CacheTooLarge(u64::MAX)
        );
    }

    #[test]
    fn bound_errors_name_the_limits() {
        let pes = ConfigError::TooManyPes(MAX_PES + 1).to_string();
        assert!(pes.contains("1025") && pes.contains("1024"), "{pes}");
        let cache = ConfigError::CacheTooLarge(5000).to_string();
        assert!(cache.contains("5000") && cache.contains("4096"), "{cache}");
    }
}
