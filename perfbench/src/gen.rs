//! Seeded request generators. Every workload's inputs come from here
//! and depend only on the `--seed` argument: the same seed gives the
//! same stream, byte for byte.

use paraconv::synth::benchmarks;

/// The PE counts of the paper's Table 1.
pub const PE_COUNTS: [usize; 3] = [16, 32, 64];

/// The benchmark names of Table 1, in table order (smallest first).
#[must_use]
pub fn benchmark_names() -> Vec<&'static str> {
    benchmarks::all().iter().map(|b| b.name()).collect()
}

/// SplitMix64: a tiny, well-mixed generator with a 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each
    /// workload part draws from its own sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift keeps the modulo bias below 2^-32 for the
        // small ranges used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One plan request as the generator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Req {
    /// Table 1 benchmark name.
    pub benchmark: &'static str,
    /// PE count.
    pub pes: usize,
    /// Iterations the plan covers.
    pub iterations: u64,
}

/// Every (benchmark, PE count) pair of Table 1: 36 combinations.
fn combos() -> Vec<(&'static str, usize)> {
    benchmark_names()
        .into_iter()
        .flat_map(|b| PE_COUNTS.map(|p| (b, p)))
        .collect()
}

/// A stream of distinct keys in rounds: each round holds every
/// (benchmark, PE count) pair once, in a seeded order, and each pair
/// takes a different iteration count from `lo..lo + band` in every
/// round. So every round has the same mix of graph sizes, and no key
/// repeats within `band` rounds.
#[must_use]
pub fn distinct_rounds(seed: u64, stream: u64, lo: u64, band: u64, rounds: usize) -> Vec<Req> {
    assert!(
        rounds as u64 <= band,
        "more rounds than distinct iteration counts"
    );
    let mut rng = Rng::new(seed, stream);
    let pairs = combos();
    // Each pair draws its iteration counts without replacement.
    let mut pools: Vec<Vec<u64>> = pairs
        .iter()
        .map(|_| {
            let mut pool: Vec<u64> = (lo..lo + band).collect();
            rng.shuffle(&mut pool);
            pool
        })
        .collect();
    let mut out = Vec::with_capacity(rounds * pairs.len());
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            out.push(Req {
                benchmark: pairs[i].0,
                pes: pairs[i].1,
                iterations: pools[i]
                    .pop()
                    .expect("no more rounds than iteration counts"),
            });
        }
    }
    out
}

/// Requests per cold-plan round (every Table 1 benchmark × PE count).
pub const ROUND: usize = 36;

/// The cold-plan stream: 12 benchmarks × {16, 32, 64} PEs × a band of
/// 64 iteration counts from 32, in rounds of 36. Every key is distinct.
#[must_use]
pub fn cold_stream(seed: u64) -> Vec<Req> {
    distinct_rounds(
        seed,
        1,
        COLD_ITER_LO,
        COLD_ITER_BAND,
        COLD_ITER_BAND as usize,
    )
}

/// Lowest cold-plan iteration count.
pub const COLD_ITER_LO: u64 = 32;
/// Number of cold-plan iteration counts (and so the most rounds).
pub const COLD_ITER_BAND: u64 = 64;

/// The serve-mix hot set: two variants of every benchmark, one on 16
/// and one on 64 PEs, each at a seeded iteration count in `8..16`.
/// Ordered by benchmark (table order), so index `2 * rank + variant`.
/// The PE counts are fixed so that every seed has the same hit-cost
/// mix (a hit's cost depends on the graph and the architecture, not on
/// the iteration count).
#[must_use]
pub fn hot_set(seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed, 2);
    benchmark_names()
        .into_iter()
        .flat_map(|benchmark| HOT_PES.map(|pes| (benchmark, pes)))
        .map(|(benchmark, pes)| Req {
            benchmark,
            pes,
            iterations: 8 + rng.below(8),
        })
        .collect()
}

/// PE counts of the hot set's variants.
const HOT_PES: [usize; HOT_VARIANTS] = [16, 64];

/// Variants per benchmark in the hot set.
pub const HOT_VARIANTS: usize = 2;

/// Zipf (s = 1) popularity of benchmark rank `r` (0-based): the
/// smallest graphs are the most requested. Fixed, not seeded, so every
/// seed has the same hit-cost mix.
#[must_use]
pub fn zipf_weights(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// The never-seen keys of serve-mix: distinct rounds over every
/// (benchmark, PE count) pair with iteration counts `1..8`, disjoint
/// from the hot set's `8..16`. Small iteration counts keep each write
/// short, so the artifacts they add to the daemon's memory stay small.
#[must_use]
pub fn fresh_stream(seed: u64) -> Vec<Req> {
    distinct_rounds(seed, 3, 1, 7, 7)
}

/// Share of serve-mix requests that are never-seen keys.
pub const FRESH_SHARE: f64 = 0.005;

/// Tenants serve-mix spreads its requests over.
pub const TENANTS: usize = 4;

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due send time, seconds from the start of the step.
    pub due_s: f64,
    /// What to request.
    pub req: Req,
    /// True for a never-seen key.
    pub fresh: bool,
    /// Tenant index in `0..TENANTS`.
    pub tenant: usize,
}

/// Draws a step of Poisson arrivals at `rate` per second for
/// `duration_s` seconds. Fresh keys are taken in order from `fresh`,
/// starting at `*next_fresh`, which advances.
#[must_use]
pub fn arrivals(
    seed: u64,
    step: u64,
    rate: f64,
    duration_s: f64,
    hot: &[Req],
    fresh: &[Req],
    next_fresh: &mut usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 100 + step);
    let weights = zipf_weights(hot.len() / HOT_VARIANTS);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration_s {
            break;
        }
        let tenant = rng.below(TENANTS as u64) as usize;
        let roll = rng.unit();
        let pick = rng.unit();
        let variant = rng.below(HOT_VARIANTS as u64) as usize;
        if roll < FRESH_SHARE && *next_fresh < fresh.len() {
            out.push(Arrival {
                due_s: t,
                req: fresh[*next_fresh],
                fresh: true,
                tenant,
            });
            *next_fresh += 1;
            continue;
        }
        let mut acc = 0.0;
        let mut rank = weights.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if pick < acc {
                rank = i;
                break;
            }
        }
        out.push(Arrival {
            due_s: t,
            req: hot[rank * HOT_VARIANTS + variant],
            fresh: false,
            tenant,
        });
    }
    out
}

/// The Table 1 points in a seeded order: the seed changes only the
/// order the pool picks them up, never the results.
#[must_use]
pub fn table1_order(seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ROUND).collect();
    Rng::new(seed, 200 + pass).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_streams() {
        assert_eq!(cold_stream(7), cold_stream(7));
        assert_eq!(hot_set(7), hot_set(7));
        assert_eq!(fresh_stream(7), fresh_stream(7));
        let (mut a, mut b) = (0, 0);
        let hot = hot_set(7);
        let fresh = fresh_stream(7);
        assert_eq!(
            arrivals(7, 1, 500.0, 2.0, &hot, &fresh, &mut a),
            arrivals(7, 1, 500.0, 2.0, &hot, &fresh, &mut b)
        );
        assert_eq!(table1_order(7, 3), table1_order(7, 3));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(cold_stream(1), cold_stream(2));
        assert_ne!(table1_order(1, 0), table1_order(2, 0));
    }

    #[test]
    fn cold_keys_are_distinct_and_rounds_are_balanced() {
        let stream = cold_stream(11);
        assert_eq!(stream.len(), ROUND * COLD_ITER_BAND as usize);
        let distinct: HashSet<Req> = stream.iter().copied().collect();
        assert_eq!(distinct.len(), stream.len());
        for round in stream.chunks(ROUND) {
            let pairs: HashSet<(&str, usize)> =
                round.iter().map(|r| (r.benchmark, r.pes)).collect();
            assert_eq!(pairs.len(), ROUND);
            assert!(round
                .iter()
                .all(|r| (COLD_ITER_LO..COLD_ITER_LO + COLD_ITER_BAND).contains(&r.iterations)));
        }
    }

    #[test]
    fn hot_and_fresh_keys_never_overlap() {
        for seed in 0..20 {
            let hot: HashSet<Req> = hot_set(seed).into_iter().collect();
            assert_eq!(hot.len(), 12 * HOT_VARIANTS);
            let fresh = fresh_stream(seed);
            let distinct: HashSet<Req> = fresh.iter().copied().collect();
            assert_eq!(distinct.len(), fresh.len());
            assert!(fresh.iter().all(|r| !hot.contains(r)));
        }
    }

    #[test]
    fn serve_mix_shares_come_out_as_specified() {
        let hot = hot_set(5);
        let fresh = fresh_stream(5);
        let mut next = 0;
        let step = arrivals(5, 0, 500.0, 20.0, &hot, &fresh, &mut next);
        let n = step.len() as f64;
        // Poisson count: 10 000 expected.
        assert!((n - 10_000.0).abs() < 400.0, "{n}");
        let fresh_n = step.iter().filter(|a| a.fresh).count() as f64;
        assert!((fresh_n / n - FRESH_SHARE).abs() < 0.002, "{}", fresh_n / n);
        assert_eq!(next, fresh_n as usize);
        // Hot popularity follows the Zipf weights by benchmark rank.
        let weights = zipf_weights(12);
        let hot_n = n - fresh_n;
        for (rank, w) in weights.iter().enumerate() {
            let name = hot[rank * HOT_VARIANTS].benchmark;
            let got = step
                .iter()
                .filter(|a| !a.fresh && a.req.benchmark == name)
                .count() as f64
                / hot_n;
            assert!((got - w).abs() < 0.015, "{name}: {got} vs {w}");
        }
        for tenant in 0..TENANTS {
            let got = step.iter().filter(|a| a.tenant == tenant).count() as f64 / n;
            assert!((got - 0.25).abs() < 0.025);
        }
        assert!(step.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }

    #[test]
    fn fresh_keys_run_out_gracefully() {
        let hot = hot_set(1);
        let fresh = fresh_stream(1);
        let mut next = fresh.len() - 1;
        let step = arrivals(1, 0, 1000.0, 10.0, &hot, &fresh, &mut next);
        assert_eq!(step.iter().filter(|a| a.fresh).count(), 1);
    }
}
