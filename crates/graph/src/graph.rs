//! The task graph `G = (V, E, P, R)` and its builder.

use std::collections::HashSet;

use crate::{EdgeId, GraphError, Ipr, NodeId, OpKind, TaskNode};

/// A weighted directed acyclic graph modelling a CNN application (§2.2).
///
/// Vertices are convolution/pooling operations; each directed edge
/// `(V_i, V_j)` carries the intermediate processing result `I_{i,j}`
/// produced by `V_i` and requested by `V_j`. The graph is immutable once
/// built by [`TaskGraphBuilder`]; acyclicity is validated at build time
/// so every `TaskGraph` value is a DAG by construction.
///
/// # Examples
///
/// ```
/// use paraconv_graph::{OpKind, TaskGraphBuilder};
///
/// let mut b = TaskGraphBuilder::new("tiny");
/// let t1 = b.add_node("t1", OpKind::Convolution, 1);
/// let t2 = b.add_node("t2", OpKind::Convolution, 1);
/// b.add_edge(t1, t2, 1)?;
/// let g = b.build()?;
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// # Ok::<(), paraconv_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskGraph {
    name: String,
    nodes: Vec<TaskNode>,
    edges: Vec<Ipr>,
    /// Outgoing edge IDs per node, indexed by `NodeId::index()`.
    succ: Vec<Vec<EdgeId>>,
    /// Incoming edge IDs per node, indexed by `NodeId::index()`.
    pred: Vec<Vec<EdgeId>>,
}

impl TaskGraph {
    /// Returns the application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of operations (vertices) in the graph.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of intermediate processing results (edges).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Looks up a node by ID.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is not in the graph.
    pub fn node(&self, id: NodeId) -> Result<&TaskNode, GraphError> {
        self.nodes
            .get(id.index())
            .ok_or(GraphError::UnknownNode(id))
    }

    /// Looks up an edge (IPR) by ID.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if `id` is not in the graph.
    pub fn edge(&self, id: EdgeId) -> Result<&Ipr, GraphError> {
        self.edges
            .get(id.index())
            .ok_or(GraphError::UnknownEdge(id))
    }

    /// Iterates over all nodes in ID order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &TaskNode> + '_ {
        self.nodes.iter()
    }

    /// Iterates over all edges (IPRs) in ID order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Ipr> + '_ {
        self.edges.iter()
    }

    /// Iterates over all node IDs in ID order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates over all edge IDs in ID order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone + '_ {
        (0..self.edges.len() as u32).map(EdgeId::new)
    }

    /// Returns the outgoing edges of `id` — the IPRs produced by `V_id`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is not in the graph.
    pub fn out_edges(&self, id: NodeId) -> Result<&[EdgeId], GraphError> {
        self.succ
            .get(id.index())
            .map(Vec::as_slice)
            .ok_or(GraphError::UnknownNode(id))
    }

    /// Returns the incoming edges of `id` — the IPRs `V_id` consumes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is not in the graph.
    pub fn in_edges(&self, id: NodeId) -> Result<&[EdgeId], GraphError> {
        self.pred
            .get(id.index())
            .map(Vec::as_slice)
            .ok_or(GraphError::UnknownNode(id))
    }

    /// Returns the in-degree of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is not in the graph.
    pub fn in_degree(&self, id: NodeId) -> Result<usize, GraphError> {
        Ok(self.in_edges(id)?.len())
    }

    /// Returns the nodes with no predecessors (the graph inputs).
    #[must_use]
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| self.pred[id.index()].is_empty())
            .collect()
    }

    /// Returns the sum of all node execution times — the serial workload
    /// of one iteration.
    #[must_use]
    pub fn total_exec_time(&self) -> u64 {
        self.nodes.iter().map(TaskNode::exec_time).sum()
    }
}

/// Incremental builder for [`TaskGraph`] (C-BUILDER).
///
/// Nodes receive dense IDs in insertion order. [`build`] validates the
/// assembled graph: it must be non-empty and acyclic, every node must
/// have a positive execution time and every edge a positive size.
///
/// [`build`]: TaskGraphBuilder::build
///
/// # Examples
///
/// ```
/// use paraconv_graph::{OpKind, TaskGraphBuilder};
///
/// let mut b = TaskGraphBuilder::new("app");
/// let a = b.add_node("a", OpKind::Convolution, 2);
/// let p = b.add_node("p", OpKind::Pooling, 1);
/// b.add_edge(a, p, 1)?;
/// let g = b.build()?;
/// assert_eq!(g.sources(), vec![a]);
/// assert_eq!(g.in_edges(p)?.len(), 1);
/// # Ok::<(), paraconv_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    name: String,
    nodes: Vec<TaskNode>,
    edges: Vec<Ipr>,
    edge_set: HashSet<(NodeId, NodeId)>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder for an application with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            edge_set: HashSet::new(),
        }
    }

    /// Adds an operation with execution time `exec_time` and returns its ID.
    pub fn add_node(&mut self, name: impl Into<String>, kind: OpKind, exec_time: u64) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(TaskNode::new(id, name, kind, exec_time));
        id
    }

    /// Adds a convolution node with the given execution time.
    ///
    /// Convenience wrapper over [`add_node`](Self::add_node) that names
    /// the node after its ID, as in the paper's `T_1 … T_n` notation.
    pub fn add_conv(&mut self, exec_time: u64) -> NodeId {
        let name = format!("conv{}", self.nodes.len());
        self.add_node(name, OpKind::Convolution, exec_time)
    }

    /// Adds an edge carrying an IPR of `size` capacity units and returns
    /// its ID.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if either endpoint has not
    /// been added, [`GraphError::SelfLoop`] if `src == dst`, or
    /// [`GraphError::DuplicateEdge`] if the ordered pair already has an
    /// edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, size: u64) -> Result<EdgeId, GraphError> {
        if src.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if !self.edge_set.insert((src, dst)) {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Ipr::new(id, src, dst, size));
        Ok(id)
    }

    /// Returns the number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the number of edges added so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Validates and finishes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for a graph with no nodes,
    /// [`GraphError::ZeroExecTime`] / [`GraphError::ZeroIprSize`] for
    /// degenerate weights, and [`GraphError::Cycle`] if the edges form a
    /// dependency cycle.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        for node in &self.nodes {
            if node.exec_time() == 0 {
                return Err(GraphError::ZeroExecTime(node.id()));
            }
        }
        for edge in &self.edges {
            if edge.size() == 0 {
                return Err(GraphError::ZeroIprSize(edge.src(), edge.dst()));
            }
        }

        let n = self.nodes.len();
        let mut succ: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut pred: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for edge in &self.edges {
            succ[edge.src().index()].push(edge.id());
            pred[edge.dst().index()].push(edge.id());
        }

        let graph = TaskGraph {
            name: self.name,
            nodes: self.nodes,
            edges: self.edges,
            succ,
            pred,
        };
        // Acyclicity: a topological order must cover all nodes.
        graph.topological_order()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // a -> b -> d, a -> c -> d
        let mut b = TaskGraphBuilder::new("diamond");
        let a = b.add_conv(1);
        let x = b.add_conv(2);
        let y = b.add_conv(3);
        let d = b.add_conv(1);
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 1).unwrap();
        b.add_edge(x, d, 2).unwrap();
        b.add_edge(y, d, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.name(), "diamond");
        assert_eq!(g.sources(), vec![NodeId::new(0)]);
        assert_eq!(g.total_exec_time(), 7);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        let a = NodeId::new(0);
        let d = NodeId::new(3);
        assert_eq!(g.out_edges(a).unwrap().len(), 2);
        assert_eq!(g.in_degree(a).unwrap(), 0);
        assert_eq!(g.in_degree(d).unwrap(), 2);
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(
            TaskGraphBuilder::new("empty").build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TaskGraphBuilder::new("loop");
        let a = b.add_conv(1);
        assert_eq!(b.add_edge(a, a, 1).unwrap_err(), GraphError::SelfLoop(a));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = TaskGraphBuilder::new("dup");
        let a = b.add_conv(1);
        let c = b.add_conv(1);
        b.add_edge(a, c, 1).unwrap();
        assert_eq!(
            b.add_edge(a, c, 2).unwrap_err(),
            GraphError::DuplicateEdge(a, c)
        );
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let mut b = TaskGraphBuilder::new("unknown");
        let a = b.add_conv(1);
        let ghost = NodeId::new(99);
        assert_eq!(
            b.add_edge(a, ghost, 1).unwrap_err(),
            GraphError::UnknownNode(ghost)
        );
        assert_eq!(
            b.add_edge(ghost, a, 1).unwrap_err(),
            GraphError::UnknownNode(ghost)
        );
    }

    #[test]
    fn rejects_cycle() {
        let mut b = TaskGraphBuilder::new("cycle");
        let a = b.add_conv(1);
        let c = b.add_conv(1);
        let d = b.add_conv(1);
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(c, d, 1).unwrap();
        b.add_edge(d, a, 1).unwrap();
        assert!(matches!(b.build().unwrap_err(), GraphError::Cycle(_)));
    }

    #[test]
    fn rejects_zero_exec_time() {
        let mut b = TaskGraphBuilder::new("zero");
        let a = b.add_node("a", OpKind::Convolution, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::ZeroExecTime(a));
    }

    #[test]
    fn rejects_zero_ipr_size() {
        let mut b = TaskGraphBuilder::new("zero-ipr");
        let a = b.add_conv(1);
        let c = b.add_conv(1);
        b.add_edge(a, c, 0).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::ZeroIprSize(a, c));
    }

    #[test]
    fn unknown_lookups_error() {
        let g = diamond();
        let ghost = NodeId::new(50);
        assert_eq!(g.node(ghost).unwrap_err(), GraphError::UnknownNode(ghost));
        assert_eq!(
            g.edge(EdgeId::new(50)).unwrap_err(),
            GraphError::UnknownEdge(EdgeId::new(50))
        );
        assert!(g.out_edges(ghost).is_err());
        assert!(g.in_edges(ghost).is_err());
    }

    #[test]
    fn single_node_graph_is_valid() {
        let mut b = TaskGraphBuilder::new("one");
        b.add_conv(1);
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.sources(), vec![NodeId::new(0)]);
        assert!(g.out_edges(NodeId::new(0)).unwrap().is_empty());
    }
}
