//! Statistical and magnitude properties of seeded fault campaigns:
//! configured rates are the rates a campaign actually injects, delay
//! magnitudes respect their jitter bounds, and seeds give independent
//! campaigns.

use paraconv_fault::{FaultSpec, RetryPolicy, BASIS_POINTS};

const SITES: u64 = 20_000;

/// Fraction of `SITES` sites at which `fires` reports a fault.
fn observed(fires: impl Fn(usize, u64) -> bool) -> f64 {
    let hits = (0..SITES)
        .filter(|&s| fires((s % 200) as usize, s / 200))
        .count();
    hits as f64 / SITES as f64
}

#[test]
fn observed_rates_track_the_configured_basis_points() {
    for bp in [50u32, 500, 2_500, 9_000] {
        let expected = f64::from(bp) / f64::from(BASIS_POINTS);
        let spec = FaultSpec::builder(7).uniform_rate_bp(bp).build().unwrap();
        for (class, rate) in [
            ("vault", observed(|e, i| spec.vault_fault(e, i, 0))),
            (
                "congestion",
                observed(|e, i| spec.congestion_delay(e, i) > 0),
            ),
            ("corruption", observed(|e, i| spec.corrupted(e, i))),
        ] {
            // Binomial standard deviation at 20,000 sites is at most
            // 0.35 percentage points; allow four of them.
            let sigma = (expected * (1.0 - expected) / SITES as f64).sqrt();
            assert!(
                (rate - expected).abs() <= 4.0 * sigma + 1e-9,
                "{class} at {bp} bp: observed {rate:.4}, expected {expected:.4}"
            );
        }
    }
}

#[test]
fn retry_attempts_are_sampled_independently() {
    let spec = FaultSpec::builder(11)
        .vault_fault_bp(5_000)
        .build()
        .unwrap();
    // At 50%, a site failing every one of four attempts should be
    // about 1 in 16, not 1 in 2 (which a per-site-only hash would give).
    let all_four = observed(|e, i| (0..4).all(|a| spec.vault_fault(e, i, a)));
    assert!((0.05..0.08).contains(&all_four), "{all_four}");
}

#[test]
fn congestion_delays_respect_the_jitter_and_survive_a_rate_increase() {
    let low = FaultSpec::builder(3)
        .congestion_bp(1_000)
        .congestion_jitter(16)
        .build()
        .unwrap();
    let high = FaultSpec::builder(3)
        .congestion_bp(6_000)
        .congestion_jitter(16)
        .build()
        .unwrap();
    let mut congested = 0;
    for edge in 0..200 {
        for iteration in 0..50 {
            let d = low.congestion_delay(edge, iteration);
            assert!(d <= 16, "delay {d} above the jitter bound");
            if d > 0 {
                congested += 1;
                assert_eq!(high.congestion_delay(edge, iteration), d);
            }
        }
    }
    assert!(congested > 0);
    // A jitter of zero or one leaves every congested transfer exactly
    // one cycle late.
    for jitter in [0, 1] {
        let unit = FaultSpec::builder(3)
            .congestion_bp(BASIS_POINTS)
            .congestion_jitter(jitter)
            .build()
            .unwrap();
        assert!((0..100).all(|e| unit.congestion_delay(e, 0) == 1));
    }
}

#[test]
fn slow_request_delays_respect_the_jitter_and_survive_a_rate_increase() {
    let spec = |bp| {
        FaultSpec::builder(5)
            .slow_request_bp(bp)
            .slow_request_jitter(40)
            .build()
            .unwrap()
    };
    let (low, high) = (spec(2_000), spec(8_000));
    let mut slow = 0;
    for seq in 0..5_000 {
        let d = low.slow_request_delay_ms(seq);
        assert!(d <= 40);
        if d > 0 {
            slow += 1;
            assert_eq!(high.slow_request_delay_ms(seq), d);
        }
    }
    assert!((800..1_200).contains(&slow), "{slow} of 5000 slowed at 20%");
}

#[test]
fn distinct_seeds_give_independent_campaigns() {
    let a = FaultSpec::builder(1).corruption_bp(5_000).build().unwrap();
    let b = FaultSpec::builder(2).corruption_bp(5_000).build().unwrap();
    // Two independent 50% campaigns agree on about half the sites.
    let agree = observed(|e, i| a.corrupted(e, i) == b.corrupted(e, i));
    assert!((0.47..0.53).contains(&agree), "{agree}");
}

#[test]
fn the_default_retry_budget_outlasts_its_retries() {
    let policy = RetryPolicy::default();
    let waited: u64 = (0..policy.max_retries).map(|a| policy.backoff(a)).sum();
    // Six doublings from 2 cycles wait 126 cycles, well inside 4,096:
    // a transfer runs out of retries before it runs out of time.
    assert_eq!(waited, 126);
    assert!(!policy.exhausted_by(waited));
    assert!(policy.exhausted_by(policy.deadline));
}
