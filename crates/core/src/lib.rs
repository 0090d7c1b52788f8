//! # Para-CONV
//!
//! A faithful, fully-simulated reproduction of *"Exploiting
//! Parallelism for Convolutional Connections in Processing-In-Memory
//! Architecture"* (Wang, Zhang, Yang — DAC 2017).
//!
//! Para-CONV is a task-level data-allocation framework for CNNs on a
//! Neurocube-style 3D-stacked PIM accelerator. It *retimes*
//! convolution operations — re-allocating iterations into a prologue
//! so intra-iteration data dependencies become inter-iteration
//! dependencies and every processing engine stays busy — and decides
//! **optimally**, with a dynamic program, which intermediate
//! processing results (IPRs) live in the scarce on-chip PE cache
//! versus the slower stacked eDRAM, minimizing the prologue
//! `R_max × p` and off-chip data movement.
//!
//! This facade crate re-exports the whole stack and adds the
//! evaluation harness:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | application model | [`graph`] | weighted task DAGs `G=(V,E,P,R)` |
//! | CNN front end | [`cnn`] | typed layers, GoogLeNet builder, partitioner |
//! | benchmarks | [`synth`] | the twelve Table 1 graphs, pinned seeds |
//! | architecture | [`pim`] | PE array, vaults, validating simulator |
//! | retiming | [`retime`] | Definition 3.1, Theorem 3.1, Figure 4 cases |
//! | allocation | [`alloc`] | the §3.3 dynamic program |
//! | schedulers | [`sched`] | Para-CONV and the SPARTA baseline |
//! | harness | [`experiments`] | Tables 1–2, Figures 5–6, ablations |
//! | sweep engine | [`sweep`] | parallel fan-out over experiment points |
//! | static analysis | [`verify`] | plan verifier, occupancy bounds, lint engine |
//!
//! # Examples
//!
//! End-to-end comparison on a benchmark:
//!
//! ```
//! use paraconv::ParaConv;
//! use paraconv::pim::PimConfig;
//! use paraconv::synth::benchmarks;
//!
//! let graph = benchmarks::by_name("cat").unwrap().graph()?;
//! let runner = ParaConv::new(PimConfig::neurocube(16)?);
//! let comparison = runner.compare(&graph, 50)?;
//! println!(
//!     "Para-CONV {} vs SPARTA {} ({:.1}% of baseline, {:.2}x)",
//!     comparison.paraconv.report.total_time,
//!     comparison.sparta.report.total_time,
//!     comparison.improvement_percent(),
//!     comparison.speedup(),
//! );
//! assert!(comparison.speedup() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Lowering a real inception network and scheduling it:
//!
//! ```
//! use paraconv::cnn::{googlenet, partition, PartitionConfig};
//! use paraconv::pim::PimConfig;
//! use paraconv::ParaConv;
//!
//! let network = googlenet(2)?;
//! let graph = partition(&network, PartitionConfig::default())?;
//! let result = ParaConv::new(PimConfig::neurocube(32)?).run(&graph, 10)?;
//! assert!(result.report.onchip_hit_rate() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bench_report;
mod error;
pub mod experiments;
mod runner;
pub mod serve;
pub mod sweep;
mod table;

pub use error::CoreError;
pub use experiments::ExperimentConfig;
pub use runner::{BaselineResult, ChaosResult, Comparison, ParaConv, RunResult};
pub use sweep::SweepPoint;
pub use table::TextTable;

/// The task-graph application model (re-export of `paraconv-graph`).
pub use paraconv_graph as graph;

/// The CNN front end (re-export of `paraconv-cnn`).
pub use paraconv_cnn as cnn;

/// Benchmark generation (re-export of `paraconv-synth`).
pub use paraconv_synth as synth;

/// The PIM architecture simulator (re-export of `paraconv-pim`).
pub use paraconv_pim as pim;

/// The retiming engine (re-export of `paraconv-retime`).
pub use paraconv_retime as retime;

/// The cache-allocation dynamic program (re-export of
/// `paraconv-alloc`).
pub use paraconv_alloc as alloc;

/// The schedulers (re-export of `paraconv-sched`).
pub use paraconv_sched as sched;

/// Structured tracing and metrics (re-export of `paraconv-obs`).
pub use paraconv_obs as obs;

/// Deterministic fault injection and recovery policies (re-export of
/// `paraconv-fault`).
pub use paraconv_fault as fault;

/// Static plan verification and the project lint engine (re-export of
/// `paraconv-verify`).
pub use paraconv_verify as verify;

/// Versioned plan artifacts and the content-addressed registry
/// (re-export of `paraconv-registry`).
pub use paraconv_registry as registry;

/// The concurrency model checker and its serving-path harnesses
/// (re-export of `paraconv-analyze`).
pub use paraconv_analyze as analyze;
