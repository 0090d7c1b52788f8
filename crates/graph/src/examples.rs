//! Canonical example graphs from the paper, used by tests, examples and
//! documentation.

use crate::{GraphError, TaskGraph, TaskGraphBuilder};

/// Builds the five-operation CNN graph of the paper's Figure 2(b) /
/// Figure 3 motivational example.
///
/// Structure: `T1 → {T2, T3}`, `T2 → {T4, T5}`, `T3 → {T4, T5}` — five
/// convolutions, six intermediate processing results (`I_{1,2}`,
/// `I_{1,3}`, `I_{2,4}`, `I_{2,5}`, `I_{3,4}`, `I_{3,5}`). All
/// execution times and IPR sizes are one unit, matching the example's
/// assumption that each PE data cache holds exactly one IPR.
///
/// Note the paper's `T1…T5` correspond to node IDs `T0…T4` here (IDs are
/// zero-based).
///
/// # Examples
///
/// ```
/// let g = paraconv_graph::examples::motivational();
/// assert_eq!(g.node_count(), 5);
/// assert_eq!(g.edge_count(), 6);
/// ```
#[must_use]
pub fn motivational() -> TaskGraph {
    // lint: allow(no-unwrap) — hard-coded example graphs are valid by inspection
    try_motivational().expect("motivational example graph is statically valid")
}

fn try_motivational() -> Result<TaskGraph, GraphError> {
    let mut b = TaskGraphBuilder::new("motivational");
    let t1 = b.add_conv(1);
    let t2 = b.add_conv(1);
    let t3 = b.add_conv(1);
    let t4 = b.add_conv(1);
    let t5 = b.add_conv(1);
    b.add_edge(t1, t2, 1)?;
    b.add_edge(t1, t3, 1)?;
    b.add_edge(t2, t4, 1)?;
    b.add_edge(t2, t5, 1)?;
    b.add_edge(t3, t4, 1)?;
    b.add_edge(t3, t5, 1)?;
    b.build()
}

/// Builds a linear chain of `n` unit-time convolutions — the worst case
/// for parallelism (width 1) and the best case for retiming (every
/// dependency can move inter-iteration).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// let g = paraconv_graph::examples::chain(4);
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.max_width(), 1);
/// ```
#[must_use]
pub fn chain(n: usize) -> TaskGraph {
    assert!(n > 0, "chain length must be positive");
    let mut b = TaskGraphBuilder::new(format!("chain{n}"));
    let mut prev = b.add_conv(1);
    for _ in 1..n {
        let next = b.add_conv(1);
        b.add_edge(prev, next, 1)
            // lint: allow(no-unwrap) — hard-coded example graphs are valid by inspection
            .expect("chain edges are unique and acyclic");
        prev = next;
    }
    // lint: allow(no-unwrap) — hard-coded example graphs are valid by inspection
    b.build().expect("chains are valid DAGs")
}

/// Builds a fork-join graph: one source, `width` independent middle
/// operations, one sink. Maximum intra-iteration parallelism equals
/// `width`.
///
/// # Panics
///
/// Panics if `width == 0`.
///
/// # Examples
///
/// ```
/// let g = paraconv_graph::examples::fork_join(8);
/// assert_eq!(g.node_count(), 10);
/// assert_eq!(g.max_width(), 8);
/// ```
#[must_use]
// lint: allow(unused-pub) — shared fixture graph of the test suites in six crates
pub fn fork_join(width: usize) -> TaskGraph {
    assert!(width > 0, "fork width must be positive");
    let mut b = TaskGraphBuilder::new(format!("forkjoin{width}"));
    let src = b.add_conv(1);
    let sink_pending: Vec<_> = (0..width)
        .map(|_| {
            let mid = b.add_conv(1);
            b.add_edge(src, mid, 1)
                // lint: allow(no-unwrap) — hard-coded example graphs are valid by inspection
                .expect("fork edges are unique and acyclic");
            mid
        })
        .collect();
    let sink = b.add_conv(1);
    for mid in sink_pending {
        b.add_edge(mid, sink, 1)
            // lint: allow(no-unwrap) — hard-coded example graphs are valid by inspection
            .expect("join edges are unique and acyclic");
    }
    // lint: allow(no-unwrap) — hard-coded example graphs are valid by inspection
    b.build().expect("fork-join graphs are valid DAGs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivational_matches_paper_structure() {
        let g = motivational();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 6);
        // T1 (id 0) feeds T2, T3; T4, T5 each consume from both.
        let pairs: Vec<(usize, usize)> = g
            .edges()
            .map(|e| (e.src().index(), e.dst().index()))
            .collect();
        for pair in [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)] {
            assert!(pairs.contains(&pair), "missing {pair:?}");
        }
        // Levels: T1 at 0; T2,T3 at 1; T4,T5 at 2 → sequential length 3.
        assert_eq!(g.depth(), 3);
        assert_eq!(g.critical_path_length(), 3);
        assert_eq!(g.max_width(), 2);
    }

    #[test]
    fn chain_properties() {
        let g = chain(10);
        assert_eq!(g.depth(), 10);
        assert_eq!(g.critical_path_length(), 10);
        assert_eq!(g.sources().len(), 1);
    }

    #[test]
    fn fork_join_properties() {
        let g = fork_join(5);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chain_panics() {
        let _ = chain(0);
    }
}
