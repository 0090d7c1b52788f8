//! Extra-data-movement analysis (§3.2): the Figure 4 pair of every
//! intermediate processing result, and the retiming a placement choice
//! induces.

use core::fmt;

use paraconv_graph::{EdgeId, Placement, TaskGraph};

use crate::{minimal_relative_retiming, RequirementPair};

/// Error produced by [`MovementAnalysis::analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The per-edge input slices do not match the graph's edge count.
    ShapeMismatch {
        /// Expected length (the graph's edge count).
        expected: usize,
        /// Offending length found.
        found: usize,
    },
    /// The kernel period must be positive.
    ZeroPeriod,
    /// An edge's eDRAM latency was below its cache latency, which would
    /// break the `P_α ≫ P_β` premise.
    EdramFasterThanCache(EdgeId),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::ShapeMismatch { expected, found } => {
                write!(
                    f,
                    "per-edge input of length {found}, graph has {expected} edges"
                )
            }
            AnalysisError::ZeroPeriod => f.write_str("kernel period must be positive"),
            AnalysisError::EdramFasterThanCache(e) => {
                write!(f, "edge {e} has eDRAM latency below cache latency")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Per-edge movement analysis: the [`RequirementPair`] of every
/// intermediate processing result, derived from its intra-kernel slack
/// and its two placement-dependent transfer latencies. The scheduler
/// takes each IPR's `ΔR` and its retiming requirements from here.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_retime::{MovementAnalysis, RetimingCase};
///
/// let g = examples::chain(2);
/// // One edge: producers/consumers adjacent (gap 0), cache transfer 1,
/// // eDRAM transfer 6, kernel period 4.
/// let a = MovementAnalysis::analyze(&g, 4, &[0], &[1], &[6])?;
/// let pair = a.pair(g.edge_ids().next().unwrap()).unwrap();
/// assert_eq!((pair.k_cache(), pair.k_edram()), (1, 2));
/// assert_eq!(pair.case(), Some(RetimingCase::Case5));
/// # Ok::<(), paraconv_retime::AnalysisError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MovementAnalysis {
    pairs: Vec<RequirementPair>,
    period: u64,
}

impl MovementAnalysis {
    /// Analyzes every edge of `graph`.
    ///
    /// * `period` — the steady-state kernel period `p`;
    /// * `gaps[e]` — signed intra-kernel slack of edge `e`: consumer
    ///   start offset minus producer finish offset;
    /// * `cache_times[e]` / `edram_times[e]` — transfer latency of `e`
    ///   under each placement.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ShapeMismatch`] if any slice does not
    /// have one entry per edge, [`AnalysisError::ZeroPeriod`] for
    /// `period == 0`, and [`AnalysisError::EdramFasterThanCache`] if
    /// latencies are inverted.
    pub fn analyze(
        graph: &TaskGraph,
        period: u64,
        gaps: &[i64],
        cache_times: &[u64],
        edram_times: &[u64],
    ) -> Result<Self, AnalysisError> {
        if period == 0 {
            return Err(AnalysisError::ZeroPeriod);
        }
        let n = graph.edge_count();
        for len in [gaps.len(), cache_times.len(), edram_times.len()] {
            if len != n {
                return Err(AnalysisError::ShapeMismatch {
                    expected: n,
                    found: len,
                });
            }
        }
        let mut pairs = Vec::with_capacity(n);
        for id in graph.edge_ids() {
            let i = id.index();
            if edram_times[i] < cache_times[i] {
                return Err(AnalysisError::EdramFasterThanCache(id));
            }
            // A requirement only grows with the transfer time, so the
            // slower eDRAM never needs less than the cache.
            let pair = RequirementPair::new(
                minimal_relative_retiming(cache_times[i], gaps[i], period),
                minimal_relative_retiming(edram_times[i], gaps[i], period),
            )
            .ok_or(AnalysisError::EdramFasterThanCache(id))?;
            pairs.push(pair);
        }
        Ok(MovementAnalysis { pairs, period })
    }

    /// Rebuilds an analysis from its pairs, as recorded by a plan
    /// artifact (pairs are indexed by edge id).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ZeroPeriod`] for `period == 0`.
    pub fn from_pairs(pairs: Vec<RequirementPair>, period: u64) -> Result<Self, AnalysisError> {
        if period == 0 {
            return Err(AnalysisError::ZeroPeriod);
        }
        Ok(MovementAnalysis { pairs, period })
    }

    /// The kernel period the analysis was performed for.
    #[must_use]
    pub const fn period(&self) -> u64 {
        self.period
    }

    /// The pair of an edge, or `None` for an out-of-range edge ID.
    #[must_use]
    pub fn pair(&self, id: EdgeId) -> Option<RequirementPair> {
        self.pairs.get(id.index()).copied()
    }

    /// The cache-placement profit `ΔR(e)` of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn delta_r(&self, id: EdgeId) -> u64 {
        self.pairs[id.index()].delta_r()
    }

    /// Iterates over `(EdgeId, RequirementPair)` in edge order.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = (EdgeId, RequirementPair)> + '_ {
        self.pairs
            .iter()
            .enumerate()
            .map(|(i, &pair)| (EdgeId::new(i as u32), pair))
    }

    /// Counts of cases 1–6 (index 0 = case 1), and the number of edges
    /// beyond Theorem 3.1. Every edge is counted exactly once.
    #[must_use]
    pub fn case_histogram(&self) -> ([usize; 6], usize) {
        let mut hist = [0usize; 6];
        let mut beyond = 0;
        for pair in &self.pairs {
            match pair.case() {
                Some(case) => hist[usize::from(case.number() - 1)] += 1,
                None => beyond += 1,
            }
        }
        (hist, beyond)
    }

    /// The per-edge relative-retiming requirement induced by a
    /// placement assignment.
    ///
    /// # Panics
    ///
    /// Panics if `placements.len()` differs from the edge count.
    #[must_use]
    pub fn requirements_for(&self, placements: &[Placement]) -> Vec<u64> {
        assert_eq!(placements.len(), self.pairs.len(), "one placement per edge");
        self.pairs
            .iter()
            .zip(placements)
            .map(|(pair, &placement)| pair.under(placement))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Retiming, RetimingCase};
    use paraconv_graph::examples;

    fn chain3_analysis() -> (paraconv_graph::TaskGraph, MovementAnalysis) {
        let g = examples::chain(3);
        // Two edges, gaps 2 and 0, cache transfer 1, eDRAM transfer 9.
        let a = MovementAnalysis::analyze(&g, 4, &[2, 0], &[1, 1], &[9, 9]).unwrap();
        (g, a)
    }

    #[test]
    fn cases_follow_latency_and_gap() {
        let (g, a) = chain3_analysis();
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        // Edge 0: gap 2 covers cache (k=0); eDRAM 9 needs ceil(7/4)=2.
        let edge0 = a.pair(ids[0]).unwrap();
        assert_eq!(edge0.case(), Some(RetimingCase::Case3));
        assert_eq!(a.delta_r(ids[0]), 2);
        // Edge 1: gap 0, cache needs 1; eDRAM needs ceil(9/4)=3, beyond
        // Theorem 3.1 (the transfer is longer than the period): no
        // case, and the pair is kept as it is.
        let edge1 = a.pair(ids[1]).unwrap();
        assert_eq!((edge1.k_cache(), edge1.k_edram()), (1, 3));
        assert_eq!(edge1.case(), None);
        assert_eq!(a.delta_r(ids[1]), 2);
        assert_eq!(a.pair(EdgeId::new(2)), None);
    }

    #[test]
    fn histogram_counts() {
        let (_, a) = chain3_analysis();
        let (hist, beyond) = a.case_histogram();
        assert_eq!(hist, [0, 0, 1, 0, 0, 0]); // case 3
        assert_eq!(beyond, 1);
    }

    #[test]
    fn requirements_respond_to_placement() {
        let (g, a) = chain3_analysis();
        let all_cache = vec![Placement::Cache; g.edge_count()];
        let all_edram = vec![Placement::Edram; g.edge_count()];
        assert_eq!(a.requirements_for(&all_cache), vec![0, 1]);
        assert_eq!(a.requirements_for(&all_edram), vec![2, 3]);
    }

    #[test]
    fn retiming_chain_accumulates() {
        let (g, a) = chain3_analysis();
        let all_edram = vec![Placement::Edram; g.edge_count()];
        let r = Retiming::from_edge_requirements(&g, &a.requirements_for(&all_edram));
        // chain: R = [5, 3, 0].
        assert_eq!(r.max_value(), 5);
        assert!(r.check_legal(&g).is_ok());

        let all_cache = vec![Placement::Cache; g.edge_count()];
        let r = Retiming::from_edge_requirements(&g, &a.requirements_for(&all_cache));
        assert_eq!(r.max_value(), 1);
    }

    #[test]
    fn rejects_zero_period() {
        let g = examples::chain(2);
        assert_eq!(
            MovementAnalysis::analyze(&g, 0, &[0], &[1], &[2]).unwrap_err(),
            AnalysisError::ZeroPeriod
        );
    }

    #[test]
    fn rejects_shape_mismatch() {
        let g = examples::chain(3);
        assert!(matches!(
            MovementAnalysis::analyze(&g, 4, &[0], &[1, 1], &[2, 2]).unwrap_err(),
            AnalysisError::ShapeMismatch {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn rejects_inverted_latencies() {
        let g = examples::chain(2);
        assert!(matches!(
            MovementAnalysis::analyze(&g, 4, &[0], &[5], &[2]).unwrap_err(),
            AnalysisError::EdramFasterThanCache(_)
        ));
    }

    #[test]
    fn case1_for_loose_edges() {
        let g = examples::chain(2);
        let a = MovementAnalysis::analyze(&g, 10, &[8], &[1], &[4]).unwrap();
        let e = g.edge_ids().next().unwrap();
        assert_eq!(a.pair(e).unwrap().case(), Some(RetimingCase::Case1));
        assert_eq!(a.delta_r(e), 0);
    }
}
