//! Retiming functions over a task graph (Definition 3.1).
//!
//! A retiming `R` maps each vertex `T_i` to a non-negative integer
//! `R(i)`: the number of iterations of `T_i` re-allocated into the
//! prologue. Each intermediate processing result `I_{i,j}` carries its
//! own value `R(i,j)`; a retiming is *legal* iff
//! `R(i) ≥ R(i,j) ≥ R(j)` for every edge `(T_i, T_j)`.

use core::fmt;

use paraconv_graph::{EdgeId, NodeId, TaskGraph};

/// Error returned by legality checks and mutations of a [`Retiming`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RetimeError {
    /// `R(i) < R(i,j)` on the producing side of an edge.
    ProducerBelowEdge(EdgeId),
    /// `R(i,j) < R(j)` on the consuming side of an edge.
    EdgeBelowConsumer(EdgeId),
    /// The retiming's tables do not match the graph's node/edge counts.
    ShapeMismatch {
        /// Nodes in the retiming.
        nodes: usize,
        /// Edges in the retiming.
        edges: usize,
    },
    /// A node ID outside the graph was referenced.
    UnknownNode(NodeId),
    /// An edge ID outside the graph was referenced.
    UnknownEdge(EdgeId),
}

impl fmt::Display for RetimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetimeError::ProducerBelowEdge(e) => {
                write!(f, "illegal retiming: R(i) < R(i,j) on edge {e}")
            }
            RetimeError::EdgeBelowConsumer(e) => {
                write!(f, "illegal retiming: R(i,j) < R(j) on edge {e}")
            }
            RetimeError::ShapeMismatch { nodes, edges } => write!(
                f,
                "retiming shaped for {nodes} nodes / {edges} edges does not match graph"
            ),
            RetimeError::UnknownNode(n) => write!(f, "unknown node {n}"),
            RetimeError::UnknownEdge(e) => write!(f, "unknown edge {e}"),
        }
    }
}

impl std::error::Error for RetimeError {}

/// A retiming function `R` over a task graph.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_retime::Retiming;
///
/// let g = examples::motivational();
/// let r = Retiming::zero(&g);
/// assert_eq!(r.max_value(), 0);
/// assert!(r.check_legal(&g).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Retiming {
    node_values: Vec<u64>,
    edge_values: Vec<u64>,
}

impl Retiming {
    /// The identity retiming: `R(i) = 0` for every vertex and edge, as
    /// in Definition 3.1's "initially".
    #[must_use]
    pub fn zero(graph: &TaskGraph) -> Self {
        Retiming {
            node_values: vec![0; graph.node_count()],
            edge_values: vec![0; graph.edge_count()],
        }
    }

    /// Constructs the minimal legal retiming that satisfies a
    /// per-edge relative-retiming requirement `k(e)`:
    /// `R(src) − R(dst) ≥ k(e)` for every edge, with sinks at 0.
    ///
    /// This is a longest-path computation in reverse topological
    /// order; the edge values are set to `R(dst) + k(e)` (which is
    /// `≤ R(src)` by construction, so the result is always legal).
    ///
    /// # Panics
    ///
    /// Panics if `requirements.len() != graph.edge_count()`.
    #[must_use]
    pub fn from_edge_requirements(graph: &TaskGraph, requirements: &[u64]) -> Self {
        assert_eq!(
            requirements.len(),
            graph.edge_count(),
            "one requirement per edge"
        );
        // lint: allow(no-unwrap) — edge endpoints are valid node ids of the same graph
        let order = graph.topological_order().expect("built graphs are acyclic");
        let mut node_values = vec![0u64; graph.node_count()];
        for &id in order.iter().rev() {
            // lint: allow(no-unwrap) — edge endpoints are valid node ids of the same graph
            let out = graph.out_edges(id).expect("node from topological order");
            let needed = out
                .iter()
                .map(|&e| {
                    // lint: allow(no-unwrap) — edge endpoints are valid node ids of the same graph
                    let dst = graph.edge(e).expect("edge from adjacency").dst();
                    node_values[dst.index()] + requirements[e.index()]
                })
                .max()
                .unwrap_or(0);
            node_values[id.index()] = needed;
        }
        let edge_values = graph
            .edges()
            .map(|ipr| node_values[ipr.dst().index()] + requirements[ipr.id().index()])
            .collect();
        Retiming {
            node_values,
            edge_values,
        }
    }

    /// The relative retiming `R(i) − R(j)` of an edge's endpoints —
    /// negative if the consumer was retimed further than the producer
    /// (always illegal).
    ///
    /// # Errors
    ///
    /// Returns [`RetimeError::UnknownEdge`] for an out-of-range ID, or
    /// [`RetimeError::ShapeMismatch`] if the retiming does not fit the
    /// graph.
    pub fn relative_value(&self, graph: &TaskGraph, id: EdgeId) -> Result<i64, RetimeError> {
        self.check_shape(graph)?;
        let ipr = graph.edge(id).map_err(|_| RetimeError::UnknownEdge(id))?;
        Ok(self.node_values[ipr.src().index()] as i64 - self.node_values[ipr.dst().index()] as i64)
    }

    /// Checks the legality condition `R(i) ≥ R(i,j) ≥ R(j)` on every
    /// edge.
    ///
    /// # Errors
    ///
    /// Returns the first violated edge, or
    /// [`RetimeError::ShapeMismatch`] if the retiming does not fit the
    /// graph.
    pub fn check_legal(&self, graph: &TaskGraph) -> Result<(), RetimeError> {
        self.check_shape(graph)?;
        for ipr in graph.edges() {
            let r_src = self.node_values[ipr.src().index()];
            let r_dst = self.node_values[ipr.dst().index()];
            let r_edge = self.edge_values[ipr.id().index()];
            if r_src < r_edge {
                return Err(RetimeError::ProducerBelowEdge(ipr.id()));
            }
            if r_edge < r_dst {
                return Err(RetimeError::EdgeBelowConsumer(ipr.id()));
            }
        }
        Ok(())
    }

    fn check_shape(&self, graph: &TaskGraph) -> Result<(), RetimeError> {
        if self.node_values.len() != graph.node_count()
            || self.edge_values.len() != graph.edge_count()
        {
            return Err(RetimeError::ShapeMismatch {
                nodes: self.node_values.len(),
                edges: self.edge_values.len(),
            });
        }
        Ok(())
    }

    /// The maximum retiming value
    /// `R_max = max{R(T_i), T_i ∈ V}` — Table 2's metric.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        self.node_values.iter().copied().max().unwrap_or(0)
    }

    /// The prologue time `R_max × p` for a kernel period `p`.
    #[must_use]
    pub fn prologue_time(&self, period: u64) -> u64 {
        self.max_value() * period
    }

    /// Iterates over `(NodeId, R(i))` pairs.
    pub fn node_values(&self) -> impl ExactSizeIterator<Item = (NodeId, u64)> + '_ {
        self.node_values
            .iter()
            .enumerate()
            .map(|(i, &v)| (NodeId::new(i as u32), v))
    }

    /// The raw per-edge retiming values, indexed by edge id — the
    /// serialization counterpart of [`node_values`](Self::node_values).
    #[must_use]
    pub fn edge_values_raw(&self) -> &[u64] {
        &self.edge_values
    }

    /// Rebuilds a retiming from raw per-node and per-edge values, as
    /// recorded by a plan artifact.
    ///
    /// No legality is implied: importers must re-run
    /// [`check_legal`](Self::check_legal) (the verifier gate does)
    /// before trusting the result.
    #[must_use]
    pub fn from_values(node_values: Vec<u64>, edge_values: Vec<u64>) -> Self {
        Retiming {
            node_values,
            edge_values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;

    #[test]
    fn zero_retiming_is_legal() {
        let g = examples::motivational();
        let r = Retiming::zero(&g);
        assert!(r.check_legal(&g).is_ok());
        assert_eq!(r.max_value(), 0);
        assert_eq!(r.prologue_time(7), 0);
    }

    #[test]
    fn from_requirements_on_chain() {
        // chain of 4 nodes, all edges require k=1:
        // R = [3, 2, 1, 0], R_max = 3.
        let g = examples::chain(4);
        let r = Retiming::from_edge_requirements(&g, &[1, 1, 1]);
        let values: Vec<u64> = r.node_values().map(|(_, v)| v).collect();
        assert_eq!(values, vec![3, 2, 1, 0]);
        assert_eq!(r.max_value(), 3);
        assert!(r.check_legal(&g).is_ok());
    }

    #[test]
    fn from_requirements_takes_longest_path() {
        // motivational: T0 -> {T1, T2} -> {T3, T4}; requirements 2 on
        // the T2 out-edges, 0 elsewhere.
        let g = examples::motivational();
        let mut reqs = vec![0u64; g.edge_count()];
        for ipr in g.edges() {
            if ipr.src() == NodeId::new(2) {
                reqs[ipr.id().index()] = 2;
            }
        }
        let r = Retiming::from_edge_requirements(&g, &reqs);
        let values: Vec<u64> = r.node_values().map(|(_, v)| v).collect();
        // T0 inherits through max(R(T1)+0, R(T2)+0) = 2.
        assert_eq!(values[..3], [2, 0, 2]);
        assert_eq!(r.max_value(), 2);
        assert!(r.check_legal(&g).is_ok());
    }

    #[test]
    fn zero_requirements_give_zero_retiming() {
        let g = examples::fork_join(3);
        let r = Retiming::from_edge_requirements(&g, &vec![0; g.edge_count()]);
        assert_eq!(r.max_value(), 0);
    }

    #[test]
    fn illegal_edge_value_detected() {
        let g = examples::chain(2);
        // R(edge) = 1 > R(src) = 0.
        let r = Retiming {
            node_values: vec![0, 0],
            edge_values: vec![1],
        };
        assert_eq!(
            r.check_legal(&g).unwrap_err(),
            RetimeError::ProducerBelowEdge(EdgeId::new(0))
        );
    }

    #[test]
    fn consumer_above_edge_detected() {
        let g = examples::chain(2);
        // Retime the *consumer* (node 1) without touching the edge.
        let r = Retiming {
            node_values: vec![0, 1],
            edge_values: vec![0],
        };
        assert_eq!(
            r.check_legal(&g).unwrap_err(),
            RetimeError::EdgeBelowConsumer(EdgeId::new(0))
        );
    }

    #[test]
    fn retime_producer_stays_legal() {
        let g = examples::chain(2);
        let r = Retiming {
            node_values: vec![1, 0],
            edge_values: vec![0],
        };
        assert!(r.check_legal(&g).is_ok());
        assert_eq!(r.relative_value(&g, EdgeId::new(0)).unwrap(), 1);
    }

    #[test]
    fn shape_mismatch_detected() {
        let g2 = examples::chain(2);
        let g3 = examples::chain(3);
        let r = Retiming::zero(&g2);
        assert!(matches!(
            r.check_legal(&g3).unwrap_err(),
            RetimeError::ShapeMismatch { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "one requirement per edge")]
    fn wrong_requirement_count_panics() {
        let g = examples::chain(3);
        let _ = Retiming::from_edge_requirements(&g, &[1]);
    }
}
