//! Task-graph model for Para-CONV: CNN applications as weighted DAGs.
//!
//! This crate implements the application model of *"Exploiting
//! Parallelism for Convolutional Connections in Processing-In-Memory
//! Architecture"* (DAC 2017), §2.2: a CNN is a weighted directed acyclic
//! graph `G = (V, E, P, R)` whose vertices are convolution or pooling
//! operations and whose edges carry *intermediate processing results*
//! (IPRs) — the partial sums produced by one operation and requested by
//! another. The graph executes periodically with period `p`; every
//! operation `V_i` carries a timing tuple `(s_i, c_i, d_i)` that shifts
//! by `(ℓ-1)·p` in the `ℓ`-th iteration.
//!
//! The companion crates build on this model: `paraconv-retime` moves
//! operations across iterations, `paraconv-alloc` places IPRs in cache
//! or eDRAM, `paraconv-sched` produces schedules and `paraconv-pim`
//! simulates their execution on the PIM architecture.
//!
//! # Examples
//!
//! Building the paper's motivational graph by hand:
//!
//! ```
//! use paraconv_graph::{OpKind, TaskGraphBuilder};
//!
//! let mut b = TaskGraphBuilder::new("figure-2b");
//! let t1 = b.add_conv(1);
//! let t2 = b.add_conv(1);
//! let t3 = b.add_conv(1);
//! let t4 = b.add_conv(1);
//! let t5 = b.add_conv(1);
//! for (src, dst) in [(t1, t2), (t1, t3), (t2, t4), (t2, t5), (t3, t4), (t3, t5)] {
//!     b.add_edge(src, dst, 1)?;
//! }
//! let g = b.build()?;
//! assert_eq!(g.node_count(), 5);
//! assert_eq!(g.edge_count(), 6);
//! assert_eq!(g.critical_path_length(), 3);
//! # Ok::<(), paraconv_graph::GraphError>(())
//! ```
//!
//! Or using the canned version from [`examples`]:
//!
//! ```
//! let g = paraconv_graph::examples::motivational();
//! assert_eq!(g.max_width(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod analysis;
mod dot;
mod error;
pub mod examples;
mod graph;
mod id;
mod ipr;
mod node;
mod topo;

pub use analysis::GraphSummary;
pub use error::GraphError;
pub use graph::{TaskGraph, TaskGraphBuilder};
pub use id::{EdgeId, NodeId};
pub use ipr::{Ipr, Placement};
pub use node::{OpKind, TaskNode};
