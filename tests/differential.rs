//! Differential correctness harness: random synthetic graphs pushed
//! through the three allocation policies and the parallel sweep engine,
//! with the independent auditor as the oracle.
//!
//! The invariants checked here are *relative*, so they hold for any
//! graph the generator can produce:
//!
//! * the §3.3 dynamic program never buys less total `ΔR` than greedy
//!   (it is optimal in that objective), and neither policy ever needs
//!   more retiming than caching nothing
//!   (`R_max(policy) ≤ R_max(all-eDRAM)`);
//! * every plan, under every policy, passes the full audit against its
//!   own simulation report;
//! * the sweep engine's worker count is invisible in the results.
//!
//! Note what is deliberately *not* asserted: `R_max(DP) ≤
//! R_max(greedy)`. `R_max` is a longest-path sum of per-edge retiming
//! requirements, while the DP maximizes the *total* reduction `Σ ΔR`
//! (the paper's §3.3 objective) — a larger total can still leave more
//! requirement concentrated on one critical path. Random graphs do
//! produce such cases (e.g. 6 vertices / 7 edges, generator seed 42,
//! 16 PEs: the DP buys `Σ ΔR = 10` at `R_max = 7` while greedy buys
//! `Σ ΔR = 9` at `R_max = 6`).

use proptest::prelude::*;

use paraconv::graph::TaskGraph;
use paraconv::pim::{audit, simulate, PimConfig};
use paraconv::sched::{AllocationPolicy, ParaConvScheduler};
use paraconv::synth::{SynthError, SyntheticSpec};
use paraconv::SweepPoint;

/// Random feasible specs: `v` vertices and `e ∈ [v, 2v]` edges satisfy
/// the connectivity minimum; when the auto-chosen level layout caps the
/// forward-pair count below the target (possible for small `v`), the
/// target is clamped to that maximum.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (4usize..24, 0u64..u64::MAX / 2).prop_flat_map(|(v, seed)| {
        (Just(v), v..=2 * v, Just(seed)).prop_map(|(v, e, seed)| {
            match SyntheticSpec::new("diff", v, e).seed(seed).generate() {
                Ok(g) => g,
                Err(SynthError::TooManyEdges { maximum, .. }) => {
                    SyntheticSpec::new("diff", v, maximum)
                        .seed(seed)
                        .generate()
                        .expect("the generator's own maximum is realizable")
                }
                Err(e) => panic!("v..=2v edge targets should be realizable: {e}"),
            }
        })
    })
}

/// Schedules, simulates and audits under one policy, returning
/// `(R_max, total ΔR profit)`.
fn schedule_audited(graph: &TaskGraph, cfg: &PimConfig, policy: AllocationPolicy) -> (u64, u64) {
    let outcome = ParaConvScheduler::new(cfg.clone())
        .with_policy(policy)
        .schedule(graph, 3)
        .expect("schedules");
    let report = simulate(graph, &outcome.plan, cfg).expect("simulates");
    audit(graph, &outcome.plan, cfg, &report).expect("audits clean");
    (outcome.core.rmax(), outcome.core.allocation.total_profit())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn policies_order_by_profit_and_audit_clean(
        g in arb_graph(),
        pes in prop::sample::select(vec![2usize, 4, 16]),
    ) {
        let cfg = PimConfig::neurocube(pes).unwrap();
        let (dp_rmax, dp_profit) = schedule_audited(&g, &cfg, AllocationPolicy::DynamicProgram);
        let (gr_rmax, gr_profit) = schedule_audited(&g, &cfg, AllocationPolicy::GreedyByDensity);
        let (ed_rmax, ed_profit) = schedule_audited(&g, &cfg, AllocationPolicy::AllEdram);
        prop_assert!(
            dp_profit >= gr_profit,
            "DP profit {dp_profit} < greedy {gr_profit}: the DP is not optimal"
        );
        prop_assert_eq!(ed_profit, 0, "all-eDRAM must cache nothing");
        prop_assert!(dp_rmax <= ed_rmax, "DP R_max {} > all-eDRAM {}", dp_rmax, ed_rmax);
        prop_assert!(gr_rmax <= ed_rmax, "greedy R_max {} > all-eDRAM {}", gr_rmax, ed_rmax);
    }
}

#[test]
fn sweep_reports_identical_at_any_job_count() {
    // A mixed bag of graph shapes and policies through the sweep
    // engine: jobs=1 (the sequential path) must reproduce jobs=8
    // byte-for-byte at the report level, with auditing on.
    let cfg = PimConfig::neurocube(8).unwrap();
    let mut points = Vec::new();
    for (i, &bench) in paraconv::experiments::quick_suite()[..3].iter().enumerate() {
        let policy = [
            AllocationPolicy::DynamicProgram,
            AllocationPolicy::GreedyByDensity,
            AllocationPolicy::AllEdram,
        ][i % 3];
        points.push(
            SweepPoint::new(bench, cfg.clone(), 5)
                .with_policy(policy)
                .with_audit(true),
        );
    }
    let sequential = paraconv::sweep::run_all_with(&points, 1).unwrap();
    for jobs in [2, 8] {
        let parallel = paraconv::sweep::run_all_with(&points, jobs).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.report, p.report, "jobs={jobs}");
            assert_eq!(s.core.rmax(), p.core.rmax(), "jobs={jobs}");
        }
    }
}
