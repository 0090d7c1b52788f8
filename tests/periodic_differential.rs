//! `simulate_periodic` against `simulate` of the unrolled plan.
//!
//! Both schedulers describe their plans periodically: Para-CONV as one
//! kernel group of `u` copies repeated every period plus the leftover
//! copies, SPARTA as one batch template repeated every batch makespan
//! plus a tail batch. For every case here the description must unroll
//! to exactly the plan `schedule` emits, and replaying the description
//! must give the report `simulate` gives for that plan, field by field
//! and floats by bits, or the same [`SimError`].
//!
//! The iteration counts run through every `N` up to two groups past the
//! window the replay validates, so each case near the boundary between
//! streaming the whole run (the window covers it) and extrapolating is
//! checked, with every tail length, plus the longer runs Table 1 uses.

use proptest::prelude::*;

use paraconv::graph::TaskGraph;
use paraconv::pim::{
    simulate, simulate_periodic, ExecutionPlan, PeriodicPlan, PimConfig, SimError, SimReport,
};
use paraconv::sched::{AllocationPolicy, BaselineCachePolicy, ParaConvScheduler, SpartaScheduler};
use paraconv::synth::{benchmarks, SyntheticSpec};
use paraconv::ParaConv;

/// Longer runs checked beyond the per-`N` sweep.
const LONG_RUNS: [u64; 8] = [50, 95, 96, 97, 127, 128, 500, 501];

/// Asserts two replays agree exactly: equal results, and on success
/// bit-identical floats.
fn assert_same(got: &Result<SimReport, SimError>, want: &Result<SimReport, SimError>, case: &str) {
    assert_eq!(got, want, "{case}");
    if let (Ok(got), Ok(want)) = (got, want) {
        let bits = |r: &SimReport| {
            (
                r.time_per_iteration.to_bits(),
                r.avg_pe_utilization.to_bits(),
            )
        };
        assert_eq!(bits(got), bits(want), "{case}: float bits");
    }
}

/// Replays `periodic` both ways after checking it unrolls to `plan`.
fn check(
    graph: &TaskGraph,
    config: &PimConfig,
    periodic: &PeriodicPlan,
    plan: &ExecutionPlan,
    case: &str,
) {
    let unrolled = periodic.materialize().expect("the plan exists");
    assert!(
        &unrolled == plan,
        "{case}: description unrolls to another plan"
    );
    assert_same(
        &simulate_periodic(graph, periodic, config),
        &simulate(graph, plan, config),
        case,
    );
}

/// Checks Para-CONV at `iterations` against `schedule`'s plan.
fn check_paraconv(graph: &TaskGraph, scheduler: &ParaConvScheduler, iterations: u64, case: &str) {
    let config = scheduler.config();
    let outcome = scheduler.schedule(graph, iterations).expect("schedules");
    let (core, periodic) = scheduler
        .schedule_periodic(graph, iterations)
        .expect("schedules periodically");
    assert_eq!(core.allocation, outcome.core.allocation, "{case}");
    assert_eq!(core.retiming, outcome.core.retiming, "{case}");
    check(graph, config, &periodic, &outcome.plan, case);
}

/// Checks SPARTA at `iterations` against `schedule`'s plan.
fn check_sparta(graph: &TaskGraph, scheduler: &SpartaScheduler, iterations: u64, case: &str) {
    let config = scheduler.config();
    let outcome = scheduler.schedule(graph, iterations).expect("schedules");
    let core = scheduler
        .schedule_core(graph, iterations)
        .expect("schedules a core");
    check(graph, config, core.periodic(), &outcome.plan, case);
}

/// Iterations that reach two groups past the replay's window, with
/// every tail length there: with `u` iterations per group and
/// `⌈span/p⌉ + 1` groups in the window, extrapolation starts one group
/// past it.
fn sweep_bound(periodic: &PeriodicPlan) -> u64 {
    let per_group = periodic.group().iterations();
    let span = periodic.group().makespan();
    let window = span.div_ceil(periodic.period()) + 1;
    (window + 3) * per_group - 1
}

/// Every `N` up to [`sweep_bound`] of the long-run description, then
/// the long runs.
fn iteration_counts(long_run: &PeriodicPlan) -> impl Iterator<Item = u64> {
    (1..=sweep_bound(long_run)).chain(LONG_RUNS)
}

fn table1_case(name: &str, pes: usize) -> (TaskGraph, PimConfig) {
    let graph = benchmarks::by_name(name)
        .expect("benchmark exists")
        .graph()
        .expect("benchmark generates");
    (graph, PimConfig::neurocube(pes).expect("valid config"))
}

/// One benchmark at every PE count, both schedulers, every count.
fn check_benchmark(name: &str) {
    for pes in [4, 8, 16, 32, 64] {
        let (graph, config) = table1_case(name, pes);
        let para = ParaConvScheduler::new(config.clone());
        let (_, long) = para.schedule_periodic(&graph, 500).expect("schedules");
        for n in iteration_counts(&long) {
            check_paraconv(
                &graph,
                &para,
                n,
                &format!("{name} {pes} PEs paraconv N={n}"),
            );
        }
        let sparta = SpartaScheduler::new(config);
        let long = sparta.schedule_core(&graph, 500).expect("schedules");
        for n in iteration_counts(long.periodic()) {
            check_sparta(
                &graph,
                &sparta,
                n,
                &format!("{name} {pes} PEs sparta N={n}"),
            );
        }
    }
}

#[test]
fn small_benchmarks_match_the_unrolled_replay() {
    for bench in &benchmarks::all()[..6] {
        check_benchmark(bench.name());
    }
}

#[test]
fn medium_benchmarks_match_the_unrolled_replay() {
    for bench in &benchmarks::all()[6..10] {
        check_benchmark(bench.name());
    }
}

#[test]
fn speech_2_matches_the_unrolled_replay() {
    check_benchmark("speech-2");
}

#[test]
fn protein_matches_the_unrolled_replay() {
    check_benchmark("protein");
}

#[test]
fn policies_and_unroll_caps_match_the_unrolled_replay() {
    for name in ["flower", "character-2", "shortest-path"] {
        for pes in [8, 32] {
            let (graph, config) = table1_case(name, pes);
            let variants = [
                (
                    "greedy",
                    ParaConvScheduler::new(config.clone())
                        .with_policy(AllocationPolicy::GreedyByDensity),
                ),
                (
                    "all-edram",
                    ParaConvScheduler::new(config.clone()).with_policy(AllocationPolicy::AllEdram),
                ),
                (
                    "unroll-1",
                    ParaConvScheduler::new(config.clone()).with_max_unroll(1),
                ),
            ];
            for (label, scheduler) in &variants {
                let (_, long) = scheduler.schedule_periodic(&graph, 500).expect("schedules");
                for n in iteration_counts(&long) {
                    check_paraconv(&graph, scheduler, n, &format!("{name} {pes} {label} N={n}"));
                }
            }
            let dp = SpartaScheduler::new(config).with_cache_policy(BaselineCachePolicy::OptimalDp);
            let long = dp.schedule_core(&graph, 500).expect("schedules");
            for n in iteration_counts(long.periodic()) {
                check_sparta(&graph, &dp, n, &format!("{name} {pes} sparta-dp N={n}"));
            }
        }
    }
}

#[test]
fn zoo_networks_match_the_unrolled_replay() {
    let zoo = paraconv::cnn::zoo::all().expect("zoo builds");
    for (name, network) in &zoo {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("zoo networks partition");
        for pes in [16, 64] {
            let config = PimConfig::neurocube(pes).expect("valid config");
            let para = ParaConvScheduler::new(config.clone());
            let sparta = SpartaScheduler::new(config);
            for n in [1, 7, 40, 97, 500] {
                check_paraconv(&graph, &para, n, &format!("{name} {pes} paraconv N={n}"));
                check_sparta(&graph, &sparta, n, &format!("{name} {pes} sparta N={n}"));
            }
        }
    }
}

#[test]
fn degraded_configs_match_the_unrolled_replay() {
    let (graph, _) = table1_case("character-1", 16);
    let config = PimConfig::neurocube(16)
        .expect("valid config")
        .degrade(&[3])
        .expect("survivors remain");
    let para = ParaConvScheduler::new(config.clone());
    let sparta = SpartaScheduler::new(config);
    for n in (1..=60).chain(LONG_RUNS) {
        check_paraconv(&graph, &para, n, &format!("degraded paraconv N={n}"));
        check_sparta(&graph, &sparta, n, &format!("degraded sparta N={n}"));
    }
}

#[test]
fn broken_lane_limits_name_the_unrolled_plans_error() {
    // Plans made for a roomy array replayed on a cramped one: every
    // window breaks a lane limit, and the error must be the one the
    // unrolled plan's replay names.
    let (graph, roomy) = table1_case("character-2", 16);
    let cramped = [
        PimConfig::builder(16).per_pe_cache_units(0).build(),
        PimConfig::builder(16).pfifo_depth(1).build(),
        PimConfig::builder(16).max_vault_concurrency(1).build(),
    ];
    let para = ParaConvScheduler::new(roomy.clone());
    let sparta = SpartaScheduler::new(roomy);
    for config in cramped {
        let config = config.expect("valid config");
        for n in [12, 97, 500] {
            let (_, periodic) = para.schedule_periodic(&graph, n).expect("schedules");
            let plan = periodic.materialize().expect("the plan exists");
            let want = simulate(&graph, &plan, &config);
            assert!(
                want.is_err(),
                "{config:?} N={n}: the cramped replay must fail"
            );
            assert_same(
                &simulate_periodic(&graph, &periodic, &config),
                &want,
                "paraconv",
            );
            let core = sparta.schedule_core(&graph, n).expect("schedules");
            let plan = core.periodic().materialize().expect("the plan exists");
            let want = simulate(&graph, &plan, &config);
            assert_same(
                &simulate_periodic(&graph, core.periodic(), &config),
                &want,
                "sparta",
            );
        }
    }
}

#[test]
fn a_run_too_long_to_unroll_replays_from_its_core() {
    // Hundreds of billions of iterations, far more than a plan could
    // hold: the periodic replay never builds one. Every count scales exactly from
    // a short run of whole groups, and each extra group adds a period.
    let (graph, config) = table1_case("cat", 16);
    let scheduler = ParaConvScheduler::new(config.clone());
    let (core, _) = scheduler.schedule_periodic(&graph, 500).expect("schedules");
    let short = 500 * core.unroll();
    let scale = 200_000_000;
    let huge = short * scale;
    let (_, periodic) = scheduler
        .schedule_periodic(&graph, huge)
        .expect("schedules");
    let report = simulate_periodic(&graph, &periodic, &config).expect("replays");
    let (_, small) = scheduler
        .schedule_periodic(&graph, short)
        .expect("schedules");
    let small = simulate_periodic(&graph, &small, &config).expect("replays");
    assert_eq!(report.iterations, huge);
    let extra_groups = (huge - short) / core.unroll();
    assert_eq!(
        report.total_time,
        small.total_time + extra_groups * core.period()
    );
    assert_eq!(report.onchip_hits, small.onchip_hits * scale);
    assert_eq!(report.offchip_fetches, small.offchip_fetches * scale);
    assert_eq!(report.compute_energy, small.compute_energy * scale);
    assert_eq!(report.peak_cache_occupancy, small.peak_cache_occupancy);
    let result = ParaConv::new(config).run(&graph, huge).expect("runs");
    assert_eq!(result.report, report);
}

#[test]
fn every_table1_point_replays_from_its_window() {
    // 10^11 iterations: far more than a plan could hold, so a point the
    // replay could not settle from its window would fall back to
    // unrolling and fail with `PlanTooLarge`.
    for bench in benchmarks::all() {
        let graph = bench.graph().expect("benchmark generates");
        for pes in [16, 32, 64] {
            let config = PimConfig::neurocube(pes).expect("valid config");
            let comparison = ParaConv::new(config)
                .compare(&graph, 100_000_000_000)
                .unwrap_or_else(|e| panic!("{} {pes} PEs: {e}", bench.name()));
            assert_eq!(comparison.paraconv.report.iterations, 100_000_000_000);
            assert_eq!(comparison.sparta.report.iterations, 100_000_000_000);
        }
    }
}

#[test]
fn a_rejected_description_with_no_concrete_plan_is_plan_too_large() {
    // The window breaks the cache limit, and the plan it stands for
    // cannot be allocated to name the error.
    let (graph, roomy) = table1_case("cat", 16);
    // 2^56 iterations: more plan bytes than an allocation may request.
    let (_, periodic) = ParaConvScheduler::new(roomy)
        .schedule_periodic(&graph, 1 << 56)
        .expect("schedules");
    let cramped = PimConfig::builder(16)
        .per_pe_cache_units(0)
        .build()
        .expect("valid config");
    assert_eq!(
        simulate_periodic(&graph, &periodic, &cramped),
        Err(SimError::PlanTooLarge)
    );
}

/// Random feasible synthetic graphs (as in `tests/differential.rs`).
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (4usize..24, 0u64..u64::MAX / 2).prop_flat_map(|(v, seed)| {
        (Just(v), v..=2 * v, Just(seed)).prop_map(|(v, e, seed)| {
            SyntheticSpec::new("periodic", v, e)
                .seed(seed)
                .generate()
                .or_else(|_| SyntheticSpec::new("periodic", v, v).seed(seed).generate())
                .expect("v edges on v vertices are realizable")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synthetic_graphs_match_the_unrolled_replay(
        g in arb_graph(),
        pes in prop::sample::select(vec![2usize, 4, 16, 64]),
        n in 1u64..300,
    ) {
        let config = PimConfig::neurocube(pes).unwrap();
        check_paraconv(&g, &ParaConvScheduler::new(config.clone()), n, &format!("paraconv N={n}"));
        check_sparta(&g, &SpartaScheduler::new(config), n, &format!("sparta N={n}"));
    }

    /// A real plan repeated at an arbitrary period: shorter periods
    /// overlap its copies, often illegally, longer ones leave gaps, and
    /// the tail is another scheduler run. Whatever the description, its
    /// replay must be the unrolled plan's, error included.
    #[test]
    fn arbitrary_periods_and_tails_match_the_unrolled_replay(
        g in arb_graph(),
        pes in prop::sample::select(vec![2usize, 4, 16]),
        paraconv_plans in prop::sample::select(vec![false, true]),
        copies in 1u64..4,
        percent in 1u64..=200,
        groups in 0u64..40,
        tail_copies in 0u64..4,
    ) {
        let config = PimConfig::neurocube(pes).unwrap();
        let plan_of = |n: u64| {
            if paraconv_plans {
                ParaConvScheduler::new(config.clone()).schedule(&g, n).unwrap().plan
            } else {
                SpartaScheduler::new(config.clone()).schedule(&g, n).unwrap().plan
            }
        };
        let group = plan_of(copies);
        let period = (group.makespan() * percent / 100).max(1);
        let tail = if tail_copies == 0 { ExecutionPlan::default() } else { plan_of(tail_copies) };
        let periodic = PeriodicPlan::new(group, period, groups, tail);
        let plan = periodic.materialize().expect("the plan exists");
        assert_same(
            &simulate_periodic(&g, &periodic, &config),
            &simulate(&g, &plan, &config),
            &format!("period {period} x {groups}"),
        );
    }
}
