//! Optimal data allocation for convolutional connections (§3.3).
//!
//! Minimizing the prologue time of a retimed CNN is equivalent to
//! maximizing the total reduction `Σ ΔR(m)` of retiming values bought
//! by placing intermediate processing results in the scarce on-chip
//! cache. The problem has optimal substructure, and the paper solves it
//! with a dynamic program over items sorted by deadline.
//!
//! This crate provides:
//!
//! * [`AllocItem`] — one IPR candidate with space `sp_m`, profit
//!   `ΔR(m)` and deadline `d_m`;
//! * [`sort_by_deadline`] — the `O(n log n)` precomputation of §3.3.1;
//! * [`IncrementalDp`] — the `B[S, m]` recurrence of §3.3.2, filled
//!   in `O(n · S)` with every value row plus a decision bitset for
//!   backtracking. The same session re-solves perturbed instances
//!   (capacity sweeps, degraded replans) by refilling only the
//!   affected suffix rows; a cold fill is a resolve with nothing to
//!   reuse;
//! * [`CacheAllocator`] / [`CacheAllocation`] — the full §3.3.3
//!   construction (zero-`ΔR` pre-routing + DP + reconstruction);
//! * [`brute_force_max_profit`] — an exhaustive cross-check used by the
//!   test suite to confirm optimality.
//!
//! # Examples
//!
//! ```
//! use paraconv_alloc::{AllocItem, CacheAllocator};
//! use paraconv_graph::EdgeId;
//!
//! // Three competing IPRs, cache capacity 2.
//! let items = vec![
//!     AllocItem::new(EdgeId::new(0), 1, 2, 4),
//!     AllocItem::new(EdgeId::new(1), 1, 1, 5),
//!     AllocItem::new(EdgeId::new(2), 1, 2, 6),
//! ];
//! let allocation = CacheAllocator::new(2).allocate(items);
//! assert_eq!(allocation.total_profit(), 4);
//! assert_eq!(allocation.cached_count(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod allocator;
mod dp;
mod item;

pub use allocator::{CacheAllocation, CacheAllocator};
pub use dp::{brute_force_max_profit, IncrementalDp};
pub use item::{sort_by_deadline, AllocItem};
