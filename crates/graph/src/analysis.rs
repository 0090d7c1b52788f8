//! Weighted graph analyses: critical path, workload bounds, summaries.

use crate::{OpKind, TaskGraph};

/// A structural summary of a task graph, convenient for reporting the
/// "# of vertex" / "# of edge" columns of the paper's Table 1 plus
/// derived bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GraphSummary {
    /// Application name.
    pub name: String,
    /// Number of convolution/pooling operations (vertices).
    pub vertices: usize,
    /// Number of intermediate processing results (edges).
    pub edges: usize,
    /// Unweighted depth (number of ASAP levels).
    pub depth: usize,
    /// Peak level width (upper bound on intra-iteration parallelism).
    pub max_width: usize,
    /// Sum of execution times (serial workload per iteration).
    pub total_exec_time: u64,
    /// Length of the weighted critical path.
    pub critical_path: u64,
    /// Number of convolution vertices.
    pub conv_ops: usize,
    /// Number of pooling vertices.
    pub pool_ops: usize,
}

impl TaskGraph {
    /// Computes the length of the weighted critical path: the maximum
    /// over all paths of the sum of node execution times along the path.
    ///
    /// Edge (IPR transfer) costs are placement-dependent and therefore
    /// excluded here; schedulers add them per allocation. The critical
    /// path is a lower bound on the makespan of one iteration when
    /// intra-iteration dependencies are kept (i.e. without retiming).
    ///
    /// # Examples
    ///
    /// ```
    /// use paraconv_graph::{OpKind, TaskGraphBuilder};
    ///
    /// let mut b = TaskGraphBuilder::new("chain");
    /// let a = b.add_conv(2);
    /// let c = b.add_conv(3);
    /// b.add_edge(a, c, 1)?;
    /// let g = b.build()?;
    /// assert_eq!(g.critical_path_length(), 5);
    /// # Ok::<(), paraconv_graph::GraphError>(())
    /// ```
    #[must_use]
    pub fn critical_path_length(&self) -> u64 {
        self.finish_depths().into_iter().max().unwrap_or(0)
    }

    /// Computes, for each node, the weighted depth at which it *finishes*
    /// on an unbounded machine: `finish(v) = c_v + max over preds p of
    /// finish(p)` (0 max for sources).
    #[must_use]
    pub fn finish_depths(&self) -> Vec<u64> {
        // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
        let order = self.topological_order().expect("built graphs are acyclic");
        let mut finish = vec![0u64; self.node_count()];
        for &id in &order {
            // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
            let c = self.node(id).expect("node from topo order").exec_time();
            let pred_max = self
                .in_edges(id)
                // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
                .expect("node from topo order")
                .iter()
                // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
                .map(|&e| finish[self.edge(e).expect("edge from adjacency").src().index()])
                .max()
                .unwrap_or(0);
            finish[id.index()] = pred_max + c;
        }
        finish
    }

    /// Computes, for each node, the length of the longest weighted path
    /// from the node (inclusive) to any sink — the classic *bottom
    /// level* used as a list-scheduling priority.
    #[must_use]
    pub fn bottom_levels(&self) -> Vec<u64> {
        // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
        let order = self.topological_order().expect("built graphs are acyclic");
        let mut bl = vec![0u64; self.node_count()];
        for &id in order.iter().rev() {
            // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
            let c = self.node(id).expect("node from topo order").exec_time();
            let succ_max = self
                .out_edges(id)
                // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
                .expect("node from topo order")
                .iter()
                // lint: allow(no-unwrap) — nodes exist after a successful toposort of the same graph
                .map(|&e| bl[self.edge(e).expect("edge from adjacency").dst().index()])
                .max()
                .unwrap_or(0);
            bl[id.index()] = succ_max + c;
        }
        bl
    }

    /// Produces a [`GraphSummary`] for reporting.
    #[must_use]
    pub fn summary(&self) -> GraphSummary {
        let conv_ops = self.nodes().filter(|n| n.kind().is_convolutional()).count();
        let pool_ops = self.nodes().filter(|n| n.kind() == OpKind::Pooling).count();
        GraphSummary {
            name: self.name().to_owned(),
            vertices: self.node_count(),
            edges: self.edge_count(),
            depth: self.depth(),
            max_width: self.max_width(),
            total_exec_time: self.total_exec_time(),
            critical_path: self.critical_path_length(),
            conv_ops,
            pool_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{OpKind, TaskGraphBuilder};

    #[test]
    fn critical_path_of_diamond() {
        let mut b = TaskGraphBuilder::new("diamond");
        let a = b.add_conv(1); // 1
        let x = b.add_conv(5); // long branch
        let y = b.add_conv(2); // short branch
        let d = b.add_conv(1);
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        b.add_edge(x, d, 1).unwrap();
        b.add_edge(y, d, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.critical_path_length(), 1 + 5 + 1);
    }

    #[test]
    fn bottom_levels_match_reverse_depths() {
        let mut b = TaskGraphBuilder::new("chain");
        let a = b.add_conv(2);
        let c = b.add_conv(3);
        let d = b.add_conv(4);
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(c, d, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.bottom_levels(), vec![9, 7, 4]);
        assert_eq!(g.finish_depths(), vec![2, 5, 9]);
    }

    #[test]
    fn summary_counts_kinds() {
        let mut b = TaskGraphBuilder::new("mix");
        let c1 = b.add_node("c1", OpKind::Convolution, 1);
        let p1 = b.add_node("p1", OpKind::Pooling, 1);
        let f1 = b.add_node("f1", OpKind::FullyConnected, 1);
        b.add_edge(c1, p1, 1).unwrap();
        b.add_edge(p1, f1, 1).unwrap();
        let g = b.build().unwrap();
        let s = g.summary();
        assert_eq!(s.vertices, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.conv_ops, 2); // conv + fc are convolutional
        assert_eq!(s.pool_ops, 1);
        assert_eq!(s.depth, 3);
        assert_eq!(s.critical_path, 3);
        assert_eq!(s.name, "mix");
    }

    #[test]
    fn single_node_critical_path_is_its_exec_time() {
        let mut b = TaskGraphBuilder::new("one");
        b.add_conv(7);
        let g = b.build().unwrap();
        assert_eq!(g.critical_path_length(), 7);
    }
}
