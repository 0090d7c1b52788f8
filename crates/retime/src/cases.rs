//! The Figure 4 pair of every intermediate processing result and its
//! six-case classification.
//!
//! For each IPR, the minimal relative retiming value under
//! on-chip-cache placement (`k_cache`) and under eDRAM placement
//! (`k_edram ≥ k_cache`) form its [`RequirementPair`]. Their difference
//! `ΔR = k_edram − k_cache` is the profit of caching the IPR in the
//! dynamic program of §3.3. When both values lie within Theorem 3.1's
//! bound of 2 the pair is one of six [`RetimingCase`]s. Cases 1, 4 and
//! 6 have `k_cache = k_edram`: placement does not affect the prologue,
//! so those IPRs can live in eDRAM for free. Cases 2, 3 and 5 gain
//! `ΔR ≥ 1` iterations of prologue when cached, so they compete for
//! the scarce cache capacity. A pair above the bound breaks the
//! theorem's premise `c ≤ p`; it has no case, but its `ΔR` is still
//! the profit the dynamic program weighs.

use core::fmt;

use paraconv_graph::Placement;

use crate::MAX_RELATIVE_RETIMING;

/// An IPR's minimal relative retiming under each placement, with
/// `k_cache ≤ k_edram`, exactly as
/// [`minimal_relative_retiming`](crate::minimal_relative_retiming)
/// derives it, also above Theorem 3.1's bound.
///
/// # Examples
///
/// ```
/// use paraconv_retime::{RequirementPair, RetimingCase};
///
/// let pair = RequirementPair::new(0, 2).unwrap();
/// assert_eq!(pair.case(), Some(RetimingCase::Case3));
/// assert_eq!(pair.delta_r(), 2);
/// // A transfer longer than the period needs more than two
/// // iterations: beyond Theorem 3.1, with no Figure 4 case.
/// let long = RequirementPair::new(1, 3).unwrap();
/// assert_eq!(long.case(), None);
/// assert_eq!(long.delta_r(), 2);
/// // eDRAM is never faster than the cache.
/// assert_eq!(RequirementPair::new(2, 1), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RequirementPair {
    k_cache: u64,
    k_edram: u64,
}

impl RequirementPair {
    /// The pair `(k_cache, k_edram)`, or `None` when `k_cache > k_edram`.
    #[must_use]
    pub const fn new(k_cache: u64, k_edram: u64) -> Option<Self> {
        if k_cache <= k_edram {
            Some(RequirementPair { k_cache, k_edram })
        } else {
            None
        }
    }

    /// The minimal relative retiming when the IPR is held in the
    /// on-chip cache.
    #[must_use]
    pub const fn k_cache(self) -> u64 {
        self.k_cache
    }

    /// The minimal relative retiming when the IPR is held in eDRAM.
    #[must_use]
    pub const fn k_edram(self) -> u64 {
        self.k_edram
    }

    /// The requirement under `placement`.
    #[must_use]
    pub const fn under(self, placement: Placement) -> u64 {
        match placement {
            Placement::Cache => self.k_cache,
            Placement::Edram => self.k_edram,
        }
    }

    /// The reduction in retiming `ΔR = k_edram − k_cache` obtained by
    /// caching this IPR: the profit of the dynamic program of §3.3.
    #[must_use]
    pub const fn delta_r(self) -> u64 {
        self.k_edram - self.k_cache
    }

    /// The Figure 4 case of the pair, or `None` beyond Theorem 3.1's
    /// bound.
    #[must_use]
    pub const fn case(self) -> Option<RetimingCase> {
        RetimingCase::classify(self.k_cache, self.k_edram)
    }
}

impl fmt::Display for RequirementPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.case() {
            Some(case) => write!(f, "case {}", case.number())?,
            None => f.write_str("beyond Theorem 3.1")?,
        }
        write!(f, " (cache k={}, eDRAM k={})", self.k_cache, self.k_edram)
    }
}

/// One of the six cases of Figure 4, identified by the pair of minimal
/// relative retiming values `(k_cache, k_edram)`.
///
/// # Examples
///
/// ```
/// use paraconv_retime::RetimingCase;
///
/// assert_eq!(RetimingCase::classify(1, 2), Some(RetimingCase::Case5));
/// assert_eq!(RetimingCase::classify(1, 2).map(RetimingCase::number), Some(5));
/// // Beyond Theorem 3.1's bound of 2.
/// assert_eq!(RetimingCase::classify(2, 3), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetimingCase {
    /// `(0, 0)` — schedulable at relative retiming 0 from either
    /// location.
    Case1,
    /// `(0, 1)` — cache saves one iteration of prologue.
    Case2,
    /// `(0, 2)` — cache saves two iterations of prologue.
    Case3,
    /// `(1, 1)` — one iteration needed regardless of placement.
    Case4,
    /// `(1, 2)` — cache saves one iteration of prologue.
    Case5,
    /// `(2, 2)` — two iterations needed regardless of placement.
    Case6,
}

impl RetimingCase {
    /// Classifies a requirement pair into its Figure 4 case: `Some`
    /// exactly when `k_cache ≤ k_edram ≤ MAX_RELATIVE_RETIMING`, `None`
    /// for a pair beyond Theorem 3.1's bound (or one with
    /// `k_cache > k_edram`, which no [`RequirementPair`] holds).
    #[must_use]
    pub const fn classify(k_cache: u64, k_edram: u64) -> Option<RetimingCase> {
        if k_edram > MAX_RELATIVE_RETIMING {
            return None;
        }
        match (k_cache, k_edram) {
            (0, 0) => Some(RetimingCase::Case1),
            (0, 1) => Some(RetimingCase::Case2),
            (0, 2) => Some(RetimingCase::Case3),
            (1, 1) => Some(RetimingCase::Case4),
            (1, 2) => Some(RetimingCase::Case5),
            (2, 2) => Some(RetimingCase::Case6),
            _ => None,
        }
    }

    /// The 1-based case number as printed in Figure 4.
    #[must_use]
    pub const fn number(self) -> u8 {
        match self {
            RetimingCase::Case1 => 1,
            RetimingCase::Case2 => 2,
            RetimingCase::Case3 => 3,
            RetimingCase::Case4 => 4,
            RetimingCase::Case5 => 5,
            RetimingCase::Case6 => 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 4: every pair within the bound, in case order.
    const FIGURE_4: [(u64, u64); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];

    fn pair(k_cache: u64, k_edram: u64) -> RequirementPair {
        RequirementPair::new(k_cache, k_edram).unwrap()
    }

    #[test]
    fn classification_roundtrips() {
        // Every ordered pair within the bound is exactly one case, and
        // every case is reached by exactly one pair.
        let mut seen = Vec::new();
        for k_cache in 0..=MAX_RELATIVE_RETIMING {
            for k_edram in k_cache..=MAX_RELATIVE_RETIMING {
                let case = pair(k_cache, k_edram).case().unwrap();
                assert!(!seen.contains(&case), "{case:?} reached twice");
                seen.push(case);
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn delta_r_matches_paper_example() {
        // §3.3.2: "for case 5 ... the retiming values for on-chip cache
        // and eDRAM are 1 and 2, respectively. Then ΔR(m) = 2-1 = 1."
        let case5 = pair(1, 2);
        assert_eq!(case5.case(), Some(RetimingCase::Case5));
        assert_eq!(case5.under(Placement::Cache), 1);
        assert_eq!(case5.under(Placement::Edram), 2);
        assert_eq!(case5.delta_r(), 1);
    }

    #[test]
    fn cases_1_4_6_do_not_compete() {
        for (k_cache, k_edram) in FIGURE_4 {
            let p = pair(k_cache, k_edram);
            let number = p.case().unwrap().number();
            assert_eq!(p.delta_r() > 0, [2, 3, 5].contains(&number), "{p}");
        }
    }

    #[test]
    fn invalid_pairs_rejected() {
        // eDRAM can never need less retiming than cache.
        assert_eq!(RequirementPair::new(1, 0), None);
        assert_eq!(RequirementPair::new(2, 1), None);
        assert_eq!(RetimingCase::classify(2, 1), None);
        // Beyond the Theorem 3.1 bound: a pair, but no case.
        for (k_cache, k_edram) in [(0, 3), (1, 3), (2, 3), (3, 3), (0, u64::MAX)] {
            let p = pair(k_cache, k_edram);
            assert_eq!(p.case(), None);
            assert_eq!(p.delta_r(), k_edram - k_cache);
        }
    }

    #[test]
    fn numbers_are_one_through_six() {
        let numbers: Vec<u8> = FIGURE_4
            .iter()
            .map(|&(k_cache, k_edram)| RetimingCase::classify(k_cache, k_edram).unwrap().number())
            .collect();
        assert_eq!(numbers, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn display_mentions_case_number() {
        assert_eq!(pair(0, 2).to_string(), "case 3 (cache k=0, eDRAM k=2)");
        assert_eq!(
            pair(1, 3).to_string(),
            "beyond Theorem 3.1 (cache k=1, eDRAM k=3)"
        );
    }
}
