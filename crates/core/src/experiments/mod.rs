//! The paper's evaluation, experiment by experiment.
//!
//! Each submodule regenerates one table or figure of §4:
//!
//! * [`table1`] — total execution time, SPARTA vs Para-CONV on 16, 32
//!   and 64 PEs, with the per-benchmark IMP(%) column;
//! * [`table2`] — the maximum retiming value `R_max` of Para-CONV;
//! * [`fig5`] — per-iteration execution time, normalized to the
//!   baseline on 64 PEs;
//! * [`fig6`] — intermediate processing results allocated to the
//!   on-chip cache;
//! * [`ablation`] — studies beyond the paper: allocation-policy
//!   comparison, eDRAM-penalty sweep and cache-capacity sweep.
//!
//! All experiments share an [`ExperimentConfig`] and run on the pinned
//! [`paraconv_synth::benchmarks`] suite, so results are deterministic.

pub mod ablation;
pub mod cases;
pub mod energy;
pub mod fig5;
pub mod fig6;
pub mod scalability;
pub mod table1;
pub mod table2;
pub mod zoo;

use paraconv_pim::{PimConfig, PimConfigBuilder};
use paraconv_synth::Benchmark;

use crate::sweep::SweepPoint;
use crate::CoreError;

/// Shared knobs for the evaluation harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// PE counts to sweep (the paper uses 16, 32 and 64).
    pub pe_counts: Vec<usize>,
    /// Logical iterations per run (frames of the periodic dataflow).
    pub iterations: u64,
    /// Per-PE data-cache capacity in IPR units.
    pub per_pe_cache_units: u64,
    /// eDRAM latency/energy penalty (2–10×).
    pub edram_penalty: u64,
    /// Per-edge vault queuing cost (0 disables TSV contention).
    pub vault_queue_cost: u64,
    /// Worker-pool width for the sweep engine. `None` (the default)
    /// resolves through [`crate::sweep::max_jobs`]: the
    /// `PARACONV_JOBS` environment variable if set, otherwise the
    /// host's available parallelism. `Some(1)` forces the sequential
    /// path.
    pub jobs: Option<usize>,
    /// Re-check every emitted plan and simulator report with the
    /// independent auditor ([`paraconv_pim::audit`]). Off by default
    /// (the auditor roughly doubles validation work); the experiment
    /// tests in `tests/audit.rs` turn it on. The `paraconv audit`
    /// subcommand audits its plans directly and does not read it.
    pub audit: bool,
    /// Statically verify every Para-CONV plan the sweep emits
    /// ([`paraconv_verify::verify_run`]): retiming legality,
    /// steady-state occupancy bounds within capacity, and bound
    /// dominance over the simulator's observed peaks. Off by default;
    /// the experiment tests in `tests/static_bounds.rs` turn it on. The
    /// `paraconv verify` subcommand proves its plans directly and does
    /// not read it.
    pub verify: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            pe_counts: vec![16, 32, 64],
            iterations: 50,
            per_pe_cache_units: 4,
            edram_penalty: 4,
            vault_queue_cost: 0,
            jobs: None,
            audit: false,
            verify: false,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for quick test runs: the three smallest
    /// benchmarks would still take the full sweep, so tests usually
    /// pair this with a benchmark subset.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            iterations: 10,
            ..ExperimentConfig::default()
        }
    }

    /// Materializes the PIM configuration for one PE count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if the knobs are out of range.
    pub fn pim_config(&self, pes: usize) -> Result<PimConfig, CoreError> {
        Ok(self.builder(pes).build()?)
    }

    fn builder(&self, pes: usize) -> PimConfigBuilder {
        PimConfig::builder(pes)
            .per_pe_cache_units(self.per_pe_cache_units)
            .edram_penalty(self.edram_penalty)
            .vault_queue_cost(self.vault_queue_cost)
    }

    /// The sweep-engine worker count this harness runs with.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(crate::sweep::max_jobs).max(1)
    }

    /// Builds one sweep point for a benchmark and PE count, carrying
    /// this harness's iteration count and audit opt-in. All experiment
    /// modules route their points through here so `audit: true`
    /// re-checks every plan they emit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if the knobs are out of range.
    pub fn sweep_point(&self, benchmark: Benchmark, pes: usize) -> Result<SweepPoint, CoreError> {
        Ok(
            SweepPoint::new(benchmark, self.pim_config(pes)?, self.iterations)
                .with_audit(self.audit)
                .with_verify(self.verify),
        )
    }
}

/// The full Table 1 suite.
#[must_use]
pub fn full_suite() -> Vec<Benchmark> {
    paraconv_synth::benchmarks::all()
}

/// The small-prefix suite used by quick runs and tests.
#[must_use]
pub fn quick_suite() -> Vec<Benchmark> {
    paraconv_synth::benchmarks::all()
        .into_iter()
        .take(4)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper_sweep() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.pe_counts, vec![16, 32, 64]);
        assert_eq!(cfg.edram_penalty, 4);
    }

    #[test]
    fn pim_config_materializes() {
        let cfg = ExperimentConfig::default();
        let pim = cfg.pim_config(32).unwrap();
        assert_eq!(pim.num_pes(), 32);
        assert_eq!(pim.total_cache_units(), 128);
    }

    #[test]
    fn suites_are_prefixes() {
        let full = full_suite();
        let quick = quick_suite();
        assert_eq!(full.len(), 12);
        assert_eq!(quick.len(), 4);
        assert_eq!(full[..4], quick[..]);
    }
}
