//! Properties of the metric aggregates that the exporters, the
//! postmortem artifact and the jobs=1 vs jobs=N determinism checks
//! rely on, over randomly drawn samples.

use paraconv_obs::{
    check_metrics_jsonl, check_prometheus, prometheus_name, Histogram, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// Samples spread over every bucket: a random bit width, then a value
/// of that width, so small and huge values are equally likely.
fn sample() -> impl Strategy<Value = u64> {
    (0u32..=64, 0u64..=u64::MAX).prop_map(|(bits, v)| match bits {
        0 => 0,
        64 => v,
        b => v & ((1u64 << b) - 1),
    })
}

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn snapshot_of(seed: &[(u8, u64)]) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::new();
    for &(k, v) in seed {
        let name = format!("m.{}", k % 4);
        match k % 3 {
            0 => *s.counters.entry(name).or_insert(0) += v % 1000,
            1 => {
                let g = s.gauges.entry(name).or_insert(0);
                *g = (*g).max(v);
            }
            _ => s.histograms.entry(name).or_default().record(v),
        }
    }
    s
}

proptest! {
    #[test]
    fn every_value_lies_within_its_buckets_bounds(v in sample()) {
        let i = Histogram::bucket_of(v);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        prop_assert!(Histogram::bucket_lower(i) <= v, "{v} below bucket {i}");
        prop_assert!(v <= Histogram::bucket_upper(i), "{v} above bucket {i}");
    }

    #[test]
    fn summary_statistics_match_the_samples(xs in prop::collection::vec(sample(), 1..48)) {
        let h = histogram_of(&xs);
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.min(), *xs.iter().min().unwrap());
        prop_assert_eq!(h.max(), *xs.iter().max().unwrap());
        let exact = xs.iter().fold(0u64, |s, &v| s.saturating_add(v));
        prop_assert_eq!(h.sum(), exact);
        let buckets: u64 = (0..HISTOGRAM_BUCKETS).map(|i| h.bucket_count(i)).sum();
        prop_assert_eq!(buckets, h.count());
    }

    #[test]
    fn quantiles_are_monotone_and_inside_the_observed_range(
        xs in prop::collection::vec(sample(), 1..48),
        a in 0u32..=1000,
        b in 0u32..=1000,
    ) {
        let h = histogram_of(&xs);
        let (lo, hi) = (f64::from(a.min(b)) / 1000.0, f64::from(a.max(b)) / 1000.0);
        let (ql, qh) = (h.quantile(lo), h.quantile(hi));
        prop_assert!(ql <= qh, "q({lo})={ql} > q({hi})={qh}");
        prop_assert!(h.min() <= ql && qh <= h.max());
        prop_assert_eq!(h.quantile(0.0), h.min());
        prop_assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn a_quantile_lands_in_the_bucket_holding_its_rank(
        xs in prop::collection::vec(sample(), 1..48),
        q in 1u32..1000,
    ) {
        let h = histogram_of(&xs);
        let q = f64::from(q) / 1000.0;
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        let exact = sorted[rank - 1];
        prop_assert_eq!(
            Histogram::bucket_of(h.quantile(q)),
            Histogram::bucket_of(exact),
            "q={} over {:?}", q, sorted
        );
    }

    #[test]
    fn a_single_distinct_value_is_every_quantile(v in sample(), n in 1usize..20, q in 0u32..=1000) {
        let h = histogram_of(&vec![v; n]);
        prop_assert_eq!(h.quantile(f64::from(q) / 1000.0), v);
    }

    #[test]
    fn histogram_merge_is_associative(
        xs in prop::collection::vec(sample(), 0..24),
        ys in prop::collection::vec(sample(), 0..24),
        zs in prop::collection::vec(sample(), 0..24),
    ) {
        let (a, b, c) = (histogram_of(&xs), histogram_of(&ys), histogram_of(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histograms_round_trip_through_their_serialized_parts(
        xs in prop::collection::vec(sample(), 0..48),
    ) {
        let h = histogram_of(&xs);
        let rebuilt = Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), &h.nonzero_buckets());
        prop_assert_eq!(rebuilt, Some(h.clone()));
        if h.count() > 0 {
            // Dropping one sample from the bucket list breaks the
            // count invariant and is refused.
            let mut short = h.nonzero_buckets();
            short[0].1 -= 1;
            short.retain(|&(_, c)| c > 0);
            prop_assert_eq!(
                Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), &short),
                None
            );
        }
    }

    #[test]
    fn snapshot_merge_is_commutative_and_associative(
        a in prop::collection::vec((0u8..=255, sample()), 0..16),
        b in prop::collection::vec((0u8..=255, sample()), 0..16),
        c in prop::collection::vec((0u8..=255, sample()), 0..16),
    ) {
        let (a, b, c) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.to_jsonl(), a_bc.to_jsonl());
    }

    #[test]
    fn every_export_passes_its_own_checker(
        seed in prop::collection::vec((0u8..=255, sample()), 1..24),
    ) {
        let s = snapshot_of(&seed);
        let metrics = s.counters.len() + s.gauges.len() + s.histograms.len();
        prop_assert_eq!(check_metrics_jsonl(&s.to_jsonl()), Ok(metrics));
        let samples = check_prometheus(&s.to_prometheus());
        prop_assert!(samples.is_ok(), "{:?}\n{}", samples, s.to_prometheus());
        prop_assert!(samples.unwrap() >= metrics);
    }

    #[test]
    fn sanitized_names_are_legal_prometheus_names(
        chars in prop::collection::vec(0u32..0x2000, 0..24),
    ) {
        let raw: String = chars.into_iter().filter_map(char::from_u32).collect();
        let name = prometheus_name(&raw);
        prop_assert!(name.starts_with("paraconv_"));
        prop_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'), "{}", name);
        prop_assert_eq!(check_prometheus(&format!("{name} 1\n")), Ok(1));
    }
}
