//! Intermediate processing results (IPRs): the data carried on each edge.
//!
//! For each directed edge `(V_i, V_j) ∈ E`, an intermediate processing
//! result `I_{i,j}` denotes the partial-sum data produced by `V_i` and
//! consumed by `V_j`. Where that data lives — scarce on-chip PE cache or
//! the slower 3D-stacked eDRAM — determines its transfer latency and
//! therefore the data-dependency slack of the schedule. The paper
//! associates each IPR with two profits `P_α` (cache) and `P_β` (eDRAM)
//! with `P_α ≫ P_β`.

use core::fmt;

use crate::{EdgeId, NodeId};

/// Where an intermediate processing result is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Placement {
    /// The on-chip data cache inside the PE array (fast, capacity 100–300
    /// KB for the whole array in current PIM architectures).
    Cache,
    /// eDRAM in the 3D-stacked memory, reached through TSVs (2–10× the
    /// cache latency/energy).
    #[default]
    Edram,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Placement::Cache => "cache",
            Placement::Edram => "eDRAM",
        })
    }
}

/// An intermediate processing result `I_{i,j}` — the weighted edge
/// `(V_i, V_j)` of the task graph.
///
/// Carries the size of the intermediate data (in abstract capacity
/// units; one unit is the granularity at which the PE data cache is
/// partitioned) and the base transfer time when served from the on-chip
/// cache. The eDRAM transfer time is derived from the architecture's
/// penalty factor, so it is *not* stored here — see
/// `paraconv-pim`'s cost model.
///
/// # Examples
///
/// ```
/// use paraconv_graph::{OpKind, TaskGraphBuilder};
///
/// let mut b = TaskGraphBuilder::new("demo");
/// let a = b.add_node("a", OpKind::Convolution, 1);
/// let c = b.add_node("c", OpKind::Convolution, 1);
/// let e = b.add_edge(a, c, 1)?;
/// let g = b.build()?;
/// let ipr = g.edge(e)?;
/// assert_eq!(ipr.src(), a);
/// assert_eq!(ipr.dst(), c);
/// assert_eq!(ipr.size(), 1);
/// # Ok::<(), paraconv_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ipr {
    id: EdgeId,
    src: NodeId,
    dst: NodeId,
    size: u64,
}

impl Ipr {
    pub(crate) fn new(id: EdgeId, src: NodeId, dst: NodeId, size: u64) -> Self {
        Ipr { id, src, dst, size }
    }

    /// Returns this IPR's identifier.
    #[must_use]
    pub const fn id(&self) -> EdgeId {
        self.id
    }

    /// Returns the producing operation `V_i`.
    #[must_use]
    pub const fn src(&self) -> NodeId {
        self.src
    }

    /// Returns the consuming operation `V_j`.
    #[must_use]
    pub const fn dst(&self) -> NodeId {
        self.dst
    }

    /// Returns the size `sp` of the intermediate data in capacity units.
    ///
    /// This is the space the IPR occupies if allocated to the on-chip
    /// cache, and the knapsack weight of the dynamic program of §3.3.
    #[must_use]
    pub const fn size(&self) -> u64 {
        self.size
    }
}

impl fmt::Display for Ipr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} (sp={})",
            self.id, self.src, self.dst, self.size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipr_accessors() {
        let ipr = Ipr::new(EdgeId::new(2), NodeId::new(0), NodeId::new(1), 5);
        assert_eq!(ipr.id(), EdgeId::new(2));
        assert_eq!(ipr.src(), NodeId::new(0));
        assert_eq!(ipr.dst(), NodeId::new(1));
        assert_eq!(ipr.size(), 5);
    }

    #[test]
    fn placement_default_is_edram() {
        // Unallocated IPRs conservatively live off-chip.
        assert_eq!(Placement::default(), Placement::Edram);
    }

    #[test]
    fn placement_display() {
        assert_eq!(Placement::Cache.to_string(), "cache");
        assert_eq!(Placement::Edram.to_string(), "eDRAM");
    }

    #[test]
    fn ipr_display_mentions_endpoints() {
        let ipr = Ipr::new(EdgeId::new(0), NodeId::new(3), NodeId::new(4), 1);
        let s = ipr.to_string();
        assert!(s.contains("T3"));
        assert!(s.contains("T4"));
    }
}
