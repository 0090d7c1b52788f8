//! Retiming engine for Para-CONV (§3.2 of the paper).
//!
//! Para-CONV exploits the deterministic, periodic structure of
//! convolutional connections by *retiming*: re-allocating iterations of
//! convolution operations into a prologue so that intra-iteration data
//! dependencies become inter-iteration dependencies and the processing
//! engines stay fully busy. This crate provides:
//!
//! * [`Retiming`] — the retiming function `R` of Definition 3.1 with
//!   its legality condition `R(i) ≥ R(i,j) ≥ R(j)`, `R_max` and the
//!   prologue time `R_max × p`;
//! * [`minimal_relative_retiming`] / [`bounded_relative_retiming`] —
//!   the per-edge requirement with the Theorem 3.1 bound
//!   ([`MAX_RELATIVE_RETIMING`] = 2);
//! * [`RetimingCase`] — the six-case classification of Figure 4 with
//!   each case's `ΔR` (the profit of caching that IPR);
//! * [`MovementAnalysis`] — whole-graph analysis mapping a placement
//!   assignment to its induced minimal retiming.
//!
//! # Examples
//!
//! ```
//! use paraconv_graph::examples;
//! use paraconv_graph::Placement;
//! use paraconv_retime::{MovementAnalysis, Retiming};
//!
//! let g = examples::chain(3);
//! let analysis = MovementAnalysis::analyze(&g, 4, &[0, 0], &[1, 1], &[6, 6])?;
//! // Leaving everything in eDRAM costs a long prologue …
//! let edram = vec![Placement::Edram; g.edge_count()];
//! let r_edram = Retiming::from_edge_requirements(&g, &analysis.requirements_for(&edram));
//! // … caching everything shrinks it.
//! let cache = vec![Placement::Cache; g.edge_count()];
//! let r_cache = Retiming::from_edge_requirements(&g, &analysis.requirements_for(&cache));
//! assert!(r_cache.max_value() < r_edram.max_value());
//! # Ok::<(), paraconv_retime::AnalysisError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod analysis;
mod cases;
mod requirement;
mod retiming;

pub use analysis::{AnalysisError, MovementAnalysis};
pub use cases::{ClassifyError, RetimingCase};
pub use requirement::{
    bounded_relative_retiming, minimal_relative_retiming, MAX_RELATIVE_RETIMING,
};
pub use retiming::{RetimeError, Retiming};
