//! # paraconv-fault
//!
//! Seeded, deterministic fault model for the Para-CONV stack. Four
//! fault classes, mirroring what a 3D-stacked PIM part actually
//! suffers:
//!
//! * **vault-access failures** — transient fetch rejections modeling
//!   eDRAM refresh collisions, recovered by bounded retry with
//!   exponential backoff and a hard deadline;
//! * **interconnect congestion** — per-transfer delivery jitter on the
//!   crossbar;
//! * **IPR corruption** — a cached partial result fails its checksum
//!   on consume and is re-fetched from eDRAM;
//! * **PE fail-stop** — a PE dies at a chosen cycle and the stack
//!   replans around it (see `paraconv_pim::simulate_with_faults` and
//!   the degraded-mode path in `paraconv-sched`/`paraconv-core`).
//!
//! ## Determinism
//!
//! All transient faults are sampled counter-mode: a SplitMix64
//! finalizer over `(seed, stream, edge, iteration, attempt)` with no
//! evolving generator state. Sampling order, thread count and job
//! interleaving are irrelevant — the same seed yields byte-identical
//! campaigns at `jobs=1` and `jobs=N`. Raising a rate only *adds*
//! fault events (the threshold test is monotone while the site hash
//! is pinned), which is what makes degradation provably monotone.
//!
//! ## Entry points
//!
//! A campaign is always an explicit [`FaultSpec`] argument: to
//! `paraconv_pim::simulate_with_faults`, `paraconv::ParaConv::run_chaos`
//! or the serving engine's `ServeConfig::fault`. There is no global
//! switch, so `paraconv_pim::simulate` is always the fault-free replay.
//!
//! # Examples
//!
//! ```
//! use paraconv_fault::FaultSpec;
//!
//! let spec = FaultSpec::builder(42)
//!     .vault_fault_bp(250) // 2.5% of vault accesses collide
//!     .congestion_bp(100)
//!     .kill_pe(3, 10_000)
//!     .build()?;
//! assert_eq!(spec.kill_cycle(3), Some(10_000));
//! // Same site, same answer — forever.
//! assert_eq!(spec.vault_fault(7, 1, 0), spec.vault_fault(7, 1, 0));
//! # Ok::<(), paraconv_fault::FaultSpecError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod spec;

pub use spec::{FaultSpec, FaultSpecBuilder, FaultSpecError, PeKill, RetryPolicy, BASIS_POINTS};

/// Metric names the fault layer emits through `paraconv-obs`. All are
/// counters except [`metrics::RETRY_LATENCY`], a histogram of per-event
/// backoff waits; counters and histograms both merge commutatively, so
/// the jobs=1 vs jobs=N metrics identity is preserved.
pub mod metrics {
    /// Total fault events injected (all classes).
    pub const INJECTED: &str = "fault.injected";
    /// Vault retry attempts performed.
    pub const RETRIES: &str = "fault.retries";
    /// IPR checksum failures repaired by eDRAM re-fetch.
    pub const CORRUPTIONS: &str = "fault.corruptions";
    /// Congested transfers.
    pub const CONGESTION: &str = "fault.congestion";
    /// Degraded-mode replans after a PE fail-stop.
    pub const REPLANS: &str = "fault.replans";
    /// Histogram of cycles spent waiting in retry backoff.
    pub const RETRY_LATENCY: &str = "fault.retry.latency";
}
