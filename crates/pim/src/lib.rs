//! Neurocube-style 3D-stacked PIM architecture simulator for Para-CONV.
//!
//! The paper evaluates on the Neurocube neuromorphic architecture
//! (Kim et al., ISCA'16): a Hybrid-Memory-Cube-style 3D stack whose
//! logic die carries up to 64 processing engines (PEs) under multiple
//! DRAM tiers partitioned into vaults reached through TSVs. Each PE
//! integrates a pFIFO, an ALU datapath, a register file and a small
//! data cache for intermediate CNN results; fetching from a DRAM vault
//! costs 2–10× more time and energy than a PE-cache hit.
//!
//! This crate provides:
//!
//! * [`PimConfig`] — the architecture description, with the
//!   [`PimConfig::neurocube`] presets the paper sweeps (16/32/64 PEs);
//! * [`CostModel`] — placement-dependent IPR transfer latencies,
//!   profits `P_α ≫ P_β` and energies;
//! * [`ExecutionPlan`] / [`PlannedTask`] / [`PlannedTransfer`] — the
//!   contract schedulers emit;
//! * [`simulate`] — a validating replay of a plan that enforces PE
//!   exclusivity, dependency coverage, cache capacity and FIFO depth,
//!   and reports throughput, data movement and energy in a
//!   [`SimReport`];
//! * [`audit_plan`] / [`audit`] — an independent second opinion that
//!   re-derives the paper's architectural invariants from scratch and
//!   cross-checks the simulator's own report;
//! * [`simulate_with_faults`] — the same replay under an explicit,
//!   seeded [`paraconv_fault::FaultSpec`];
//! * [`gantt`] / [`plan_chrome_trace`] — a plan as an ASCII timeline
//!   or a Perfetto-loadable trace.
//!
//! # Examples
//!
//! ```
//! use paraconv_pim::PimConfig;
//!
//! // The paper's three evaluation points.
//! for pes in [16, 32, 64] {
//!     let cfg = PimConfig::neurocube(pes)?;
//!     // Aggregate on-chip cache grows with the array.
//!     assert_eq!(cfg.total_cache_units(), 4 * pes as u64);
//! }
//! # Ok::<(), paraconv_pim::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod audit;
mod config;
mod cost;
mod error;
mod faulty;
mod pe;
mod plan;
mod report;
mod sim;
mod trace;
mod vault;

pub use audit::{audit, audit_plan, AuditError, AuditReport};
pub use config::{ConfigError, PimConfig, PimConfigBuilder, MAX_CACHE_UNITS, MAX_PES};
pub use cost::CostModel;
pub use error::SimError;
pub use faulty::{simulate_with_faults, FaultOutcome};
pub use pe::{Pe, RecordError};
pub use plan::{ExecutionPlan, PeId, PlannedTask, PlannedTransfer};
pub use report::SimReport;
pub use sim::{simulate, simulate_reference, simulate_streaming};
pub use trace::{gantt, plan_chrome_trace};
pub use vault::{Vault, VaultArray};
