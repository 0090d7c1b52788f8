//! Task nodes: the convolution and pooling operations of a CNN graph.

use core::fmt;

use crate::NodeId;

/// The functional kind of a task node.
///
/// The paper partitions CNN applications "based on the functionality
/// (i.e., convolution, or pooling)" (§4.1); fully-connected layers are
/// treated as a special kind of convolutional layer (§2.2) but are kept
/// distinguishable here for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum OpKind {
    /// A convolution operation (inner product of inputs and filter
    /// weights, reduced into one output neuron).
    #[default]
    Convolution,
    /// A pooling operation (maximum or average over a small window).
    Pooling,
    /// A fully-connected layer, "a special kind of convolutional layer".
    FullyConnected,
}

impl OpKind {
    /// Returns `true` for operation kinds that perform convolution
    /// arithmetic ([`Convolution`] and [`FullyConnected`]).
    ///
    /// [`Convolution`]: OpKind::Convolution
    /// [`FullyConnected`]: OpKind::FullyConnected
    ///
    /// # Examples
    ///
    /// ```
    /// use paraconv_graph::OpKind;
    ///
    /// assert!(OpKind::Convolution.is_convolutional());
    /// assert!(OpKind::FullyConnected.is_convolutional());
    /// assert!(!OpKind::Pooling.is_convolutional());
    /// ```
    #[must_use]
    pub const fn is_convolutional(self) -> bool {
        matches!(self, OpKind::Convolution | OpKind::FullyConnected)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Convolution => "conv",
            OpKind::Pooling => "pool",
            OpKind::FullyConnected => "fc",
        };
        f.write_str(s)
    }
}

/// A task node `V_i`: one convolution or pooling operation of the
/// periodically executed dataflow.
///
/// Each node carries its worst-case execution time `c_i` in abstract
/// time units. Start time `s_i` and deadline `d_i` are *schedule*
/// artifacts and therefore live in the plans the schedulers emit,
/// not on the node itself.
///
/// # Examples
///
/// ```
/// use paraconv_graph::{OpKind, TaskGraphBuilder};
///
/// let mut b = TaskGraphBuilder::new("demo");
/// let id = b.add_node("conv1", OpKind::Convolution, 3);
/// let g = b.build()?;
/// let node = g.node(id)?;
/// assert_eq!(node.name(), "conv1");
/// assert_eq!(node.exec_time(), 3);
/// # Ok::<(), paraconv_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskNode {
    id: NodeId,
    name: String,
    kind: OpKind,
    exec_time: u64,
}

impl TaskNode {
    pub(crate) fn new(id: NodeId, name: impl Into<String>, kind: OpKind, exec_time: u64) -> Self {
        TaskNode {
            id,
            name: name.into(),
            kind,
            exec_time,
        }
    }

    /// Returns this node's identifier.
    #[must_use]
    pub const fn id(&self) -> NodeId {
        self.id
    }

    /// Returns the human-readable name of the operation.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the functional kind of the operation.
    #[must_use]
    pub const fn kind(&self) -> OpKind {
        self.kind
    }

    /// Returns the execution time `c_i` in abstract time units.
    ///
    /// Execution time is invariant across iterations: `c_i^ℓ = c_i`.
    #[must_use]
    pub const fn exec_time(&self) -> u64 {
        self.exec_time
    }
}

impl fmt::Display for TaskNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}, c={})",
            self.id, self.name, self.kind, self.exec_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_accessors() {
        let n = TaskNode::new(NodeId::new(4), "pool2", OpKind::Pooling, 2);
        assert_eq!(n.id(), NodeId::new(4));
        assert_eq!(n.name(), "pool2");
        assert_eq!(n.kind(), OpKind::Pooling);
        assert_eq!(n.exec_time(), 2);
    }

    #[test]
    fn kind_display() {
        assert_eq!(OpKind::Convolution.to_string(), "conv");
        assert_eq!(OpKind::Pooling.to_string(), "pool");
        assert_eq!(OpKind::FullyConnected.to_string(), "fc");
    }

    #[test]
    fn kind_default_is_convolution() {
        assert_eq!(OpKind::default(), OpKind::Convolution);
    }

    #[test]
    fn node_display_is_nonempty() {
        let n = TaskNode::new(NodeId::new(0), "c", OpKind::Convolution, 1);
        assert!(!n.to_string().is_empty());
    }
}
