//! Minimal relative-retiming requirements (Theorem 3.1).
//!
//! For an intermediate processing result `I_{i,j}`, the *relative
//! retiming value* `R(i) − R(j)` states how many iterations ahead of
//! its consumer the producer executes. Re-allocating the producer `k`
//! iterations ahead gives the transfer `k·p` extra time units on top of
//! the intra-kernel gap between the producer's finish and the
//! consumer's start. The minimal `k` making a placement's transfer
//! latency fit is the edge's *requirement* under that placement;
//! Theorem 3.1 shows `k ≤ 2` always suffices when `c_{i,j} ≤ p`.

/// The upper bound of Theorem 3.1: a producer never needs to be
/// re-allocated more than two iterations ahead of its consumer.
pub const MAX_RELATIVE_RETIMING: u64 = 2;

/// Computes the minimal relative retiming `k ≥ 0` such that a transfer
/// of `transfer_time` units completes within `gap + k·period`, where
/// `gap` is the (signed) time between the producer's finish and the
/// consumer's start inside the steady-state kernel.
///
/// # Panics
///
/// Panics if `period == 0`.
///
/// # Examples
///
/// ```
/// use paraconv_retime::minimal_relative_retiming;
///
/// // Fits in the intra-kernel gap: no retiming needed.
/// assert_eq!(minimal_relative_retiming(2, 3, 10), 0);
/// // Needs one extra iteration of slack.
/// assert_eq!(minimal_relative_retiming(5, 3, 10), 1);
/// // Consumer is packed *before* the producer inside the kernel.
/// assert_eq!(minimal_relative_retiming(1, -4, 10), 1);
/// ```
#[must_use]
pub fn minimal_relative_retiming(transfer_time: u64, gap: i64, period: u64) -> u64 {
    assert!(period > 0, "kernel period must be positive");
    let deficit = transfer_time as i64 - gap;
    if deficit <= 0 {
        0
    } else {
        // ceil(deficit / period)
        (deficit as u64).div_ceil(period)
    }
}

/// [`minimal_relative_retiming`] clamped to the Theorem 3.1 bound.
///
/// For transfers satisfying the theorem's premise (`c_{i,j} ≤ p` and a
/// gap no worse than one period) the clamp never engages. For heavily
/// congested eDRAM transfers whose latency exceeds the period, the data
/// streams across the additional iterations of slack the pipeline
/// already provides, so two iterations remain sufficient; see
/// DESIGN.md.
///
/// # Panics
///
/// Panics if `period == 0`.
#[must_use]
pub fn bounded_relative_retiming(transfer_time: u64, gap: i64, period: u64) -> u64 {
    minimal_relative_retiming(transfer_time, gap, period).min(MAX_RELATIVE_RETIMING)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_requirement_when_gap_covers_transfer() {
        assert_eq!(minimal_relative_retiming(3, 3, 5), 0);
        assert_eq!(minimal_relative_retiming(3, 10, 5), 0);
        assert_eq!(minimal_relative_retiming(0, 0, 5), 0);
    }

    #[test]
    fn one_iteration_covers_small_deficit() {
        assert_eq!(minimal_relative_retiming(4, 0, 5), 1);
        assert_eq!(minimal_relative_retiming(5, 0, 5), 1);
        assert_eq!(minimal_relative_retiming(6, 0, 5), 2);
    }

    #[test]
    fn negative_gap_raises_requirement() {
        // Producer finishes after the consumer's kernel position.
        assert_eq!(minimal_relative_retiming(5, -5, 5), 2);
        assert_eq!(minimal_relative_retiming(1, -10, 5), 3);
    }

    #[test]
    fn bounded_clamps_to_two() {
        assert_eq!(bounded_relative_retiming(1, -10, 5), 2);
        assert_eq!(bounded_relative_retiming(100, 0, 5), 2);
        assert_eq!(bounded_relative_retiming(2, 3, 5), 0);
    }

    #[test]
    fn theorem_holds_exhaustively_within_premises() {
        // Under the premises c ≤ p and gap ≥ -p the minimal requirement
        // is at most 2 — a brute-force check of the theorem.
        for period in 1u64..=12 {
            for transfer in 0..=period {
                for gap in -(period as i64)..=(2 * period as i64) {
                    assert!(
                        minimal_relative_retiming(transfer, gap, period) <= MAX_RELATIVE_RETIMING,
                        "requirement exceeds bound at c={transfer}, gap={gap}, p={period}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = minimal_relative_retiming(1, 0, 0);
    }
}
