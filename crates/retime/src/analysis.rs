//! Extra-data-movement analysis (§3.2): classify every intermediate
//! processing result and derive the retiming a placement choice
//! induces.

use core::fmt;

use paraconv_graph::{EdgeId, Placement, TaskGraph};

use crate::{bounded_relative_retiming, RetimingCase};

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

/// Per-edge movement analysis: the Figure 4 case of every intermediate
/// processing result, derived from its intra-kernel slack and its two
/// placement-dependent transfer latencies.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_retime::MovementAnalysis;
///
/// let g = examples::chain(2);
/// // One edge: producers/consumers adjacent (gap 0), cache transfer 1,
/// // eDRAM transfer 6, kernel period 4.
/// let a = MovementAnalysis::analyze(&g, 4, &[0], &[1], &[6])?;
/// let e = g.edge_ids().next().unwrap();
/// assert_eq!(a.case(e).unwrap().cache_requirement(), 1);
/// assert_eq!(a.case(e).unwrap().edram_requirement(), 2);
/// # Ok::<(), paraconv_retime::AnalysisError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MovementAnalysis {
    cases: Vec<RetimingCase>,
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
        let mut cases = Vec::with_capacity(n);
        for id in graph.edge_ids() {
            let i = id.index();
            if edram_times[i] < cache_times[i] {
                return Err(AnalysisError::EdramFasterThanCache(id));
            }
            let k_cache = bounded_relative_retiming(cache_times[i], gaps[i], period);
            let k_edram = bounded_relative_retiming(edram_times[i], gaps[i], period).max(k_cache);
            let case = RetimingCase::classify(k_cache, k_edram)
                // lint: allow(no-unwrap) — gaps/latencies vectors are sized to the edge count above
                .expect("bounded requirements with k_cache <= k_edram are always classifiable");
            cases.push(case);
        }
        Ok(MovementAnalysis { cases, period })
    }

    /// Rebuilds an analysis from already-classified cases, as recorded
    /// by a plan artifact (cases are indexed by edge id).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::ZeroPeriod`] for `period == 0`; the
    /// per-edge latency premises are embedded in the cases themselves
    /// (see [`RetimingCase::classify`]).
    pub fn from_cases(cases: Vec<RetimingCase>, period: u64) -> Result<Self, AnalysisError> {
        if period == 0 {
            return Err(AnalysisError::ZeroPeriod);
        }
        Ok(MovementAnalysis { cases, period })
    }

    /// The kernel period the analysis was performed for.
    #[must_use]
    pub const fn period(&self) -> u64 {
        self.period
    }

    /// The Figure 4 case of an edge.
    ///
    /// # Errors
    ///
    /// Returns `None` for an out-of-range edge ID.
    #[must_use]
    pub fn case(&self, id: EdgeId) -> Option<RetimingCase> {
        self.cases.get(id.index()).copied()
    }

    /// The cache-placement profit `ΔR(e)` of an edge (0 for
    /// out-of-range IDs never occurs — panics instead in debug).
    #[must_use]
    pub fn delta_r(&self, id: EdgeId) -> u64 {
        self.cases[id.index()].delta_r()
    }

    /// Iterates over `(EdgeId, RetimingCase)` pairs.
    pub fn cases(&self) -> impl ExactSizeIterator<Item = (EdgeId, RetimingCase)> + '_ {
        self.cases
            .iter()
            .enumerate()
            .map(|(i, &c)| (EdgeId::new(i as u32), c))
    }

    /// Histogram of cases 1–6 (index 0 = case 1).
    #[must_use]
    pub fn case_histogram(&self) -> [usize; 6] {
        let mut hist = [0usize; 6];
        for c in &self.cases {
            hist[(c.number() - 1) as usize] += 1;
        }
        hist
    }

    /// The per-edge relative-retiming requirement induced by a
    /// placement assignment.
    ///
    /// # Panics
    ///
    /// Panics if `placements.len()` differs from the edge count.
    #[must_use]
    // lint: allow(unused-pub) — the retime property tests and the crate example check the retiming each placement induces through it
    pub fn requirements_for(&self, placements: &[Placement]) -> Vec<u64> {
        assert_eq!(placements.len(), self.cases.len(), "one placement per edge");
        self.cases
            .iter()
            .zip(placements)
            .map(|(case, placement)| match placement {
                Placement::Cache => case.cache_requirement(),
                Placement::Edram => case.edram_requirement(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Retiming;
    use paraconv_graph::examples;

    fn chain3_analysis() -> (paraconv_graph::TaskGraph, MovementAnalysis) {
        let g = examples::chain(3);
        // Two edges: gap 0 each; cache fits in-kernel only with one
        // period of help; eDRAM needs two.
        let a = MovementAnalysis::analyze(&g, 4, &[2, 0], &[1, 1], &[9, 9]).unwrap();
        (g, a)
    }

    #[test]
    fn cases_follow_latency_and_gap() {
        let (g, a) = chain3_analysis();
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        // Edge 0: gap 2 covers cache (k=0); eDRAM 9 needs ceil(7/4)=2.
        assert_eq!(a.case(ids[0]).unwrap(), RetimingCase::Case3);
        // Edge 1: gap 0, cache needs 1; eDRAM needs ceil(9/4)=3 → clamped 2.
        assert_eq!(a.case(ids[1]).unwrap(), RetimingCase::Case5);
    }

    #[test]
    fn histogram_counts() {
        let (_, a) = chain3_analysis();
        let hist = a.case_histogram();
        assert_eq!(hist[2], 1); // case 3
        assert_eq!(hist[4], 1); // case 5
        assert_eq!(hist.iter().sum::<usize>(), 2);
    }

    #[test]
    fn requirements_respond_to_placement() {
        let (g, a) = chain3_analysis();
        let all_cache = vec![Placement::Cache; g.edge_count()];
        let all_edram = vec![Placement::Edram; g.edge_count()];
        assert_eq!(a.requirements_for(&all_cache), vec![0, 1]);
        assert_eq!(a.requirements_for(&all_edram), vec![2, 2]);
    }

    #[test]
    fn retiming_chain_accumulates() {
        let (g, a) = chain3_analysis();
        let all_edram = vec![Placement::Edram; g.edge_count()];
        let r = Retiming::from_edge_requirements(&g, &a.requirements_for(&all_edram));
        // chain: R = [4, 2, 0].
        assert_eq!(r.max_value(), 4);
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
        assert_eq!(a.case(e).unwrap(), RetimingCase::Case1);
        assert_eq!(a.delta_r(e), 0);
    }
}
