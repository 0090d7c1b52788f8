//! The differential link between the static verifier and the runtime:
//!
//! 1. every experiment harness runs clean with `verify: true`, i.e.
//!    the verifier statically proves every Para-CONV plan the whole
//!    evaluation emits;
//! 2. the verifier's steady-state occupancy bounds dominate the
//!    observability layer's recorded high-water marks
//!    (`sim.*.peak_*` gauges) on every benchmark and every model-zoo
//!    network;
//! 3. the movement analysis an outcome reports is the one its
//!    allocation solved, also where transfers outgrow the period: the
//!    `ΔR` of the cached edges sums to the allocation's profit, and the
//!    verifier's own derivation gives every pair.
//!
//! The obs recorder is process-global, so every test that records or
//! simulates serializes on one lock.

use std::sync::{Mutex, MutexGuard};

use paraconv::experiments::{ablation, cases, energy, fig5, fig6, scalability};
use paraconv::experiments::{table1, table2, zoo, ExperimentConfig};
use paraconv::graph::TaskGraph;
use paraconv::pim::{ExecutionPlan, PimConfig};
use paraconv::sched::{ParaConvOutcome, ParaConvScheduler};
use paraconv::synth::benchmarks;
use paraconv::verify::{check_dp_invariants, verify_outcome};
use paraconv::{obs, ParaConv};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small verifying harness configuration: one PE count and few
/// iterations keep the full set of experiment functions fast.
fn verifying_config() -> ExperimentConfig {
    ExperimentConfig {
        pe_counts: vec![16],
        iterations: 8,
        verify: true,
        ..ExperimentConfig::quick()
    }
}

#[test]
fn every_experiment_verifies_statically() {
    let _guard = lock();
    let config = verifying_config();
    let suite = &paraconv::experiments::quick_suite()[..2];
    let bench = suite[0];

    ablation::policies(&config, suite).expect("policies verify");
    ablation::contributions(&config, suite).expect("contributions verify");
    ablation::unrolling(&config, suite).expect("unrolling verifies");
    ablation::penalty_sweep(&config, &bench, &[2, 6]).expect("penalty sweep verifies");
    ablation::cache_sweep(&config, &bench, &[2, 8]).expect("cache sweep verifies");
    cases::run(&config, suite).expect("case census verifies");
    energy::run(&config, suite).expect("energy verifies");
    fig5::run(&config, suite).expect("fig5 verifies");
    fig6::run(&config, suite).expect("fig6 verifies");
    table1::run(&config, suite).expect("table1 verifies");
    table2::run(&config, suite).expect("table2 verifies");
    scalability::pe_sweep(&config, &bench, &[8, 16]).expect("pe sweep verifies");
    scalability::fetch_penalty(&config, suite).expect("fetch penalty verifies");
    zoo::run(&config).expect("model zoo verifies");
}

/// Runs one Para-CONV plan with the recorder on and asserts the static
/// bounds dominate every recorded high-water mark.
fn assert_dominates(name: &str, graph: &paraconv::graph::TaskGraph, pes: usize, iters: u64) {
    let cfg = paraconv::pim::PimConfig::neurocube(pes).expect("valid config");
    obs::reset();
    obs::enable();
    // Para-CONV only: the gauges are max-merged across every simulated
    // plan, and a SPARTA baseline run is not covered by the bounds.
    let result = ParaConv::new(cfg.clone())
        .run(graph, iters)
        .expect("schedulable");
    obs::disable();
    let snapshot = obs::snapshot();

    let outcome = ParaConvOutcome {
        plan: result
            .core
            .periodic(graph, &cfg, iters)
            .expect("core unrolls")
            .materialize()
            .expect("plan fits"),
        core: result.core,
    };
    let report = verify_outcome(graph, &outcome, &cfg).expect("plan proves");
    let observed = [
        ("sim.cache.peak_occupancy", report.cache_bound),
        ("sim.fifo.peak_occupancy", report.fifo_bound),
        ("sim.vault.peak_concurrency", report.vault_bound),
    ];
    for (gauge, bound) in observed {
        let high_water = snapshot.gauge(gauge);
        assert!(
            bound >= high_water,
            "{name}: static bound {bound} < observed {gauge} = {high_water}"
        );
    }
    // The simulator's own report must agree with the gauges it drove.
    assert!(report.cache_bound >= result.report.peak_cache_occupancy);
    assert!(report.fifo_bound >= result.report.peak_fifo_occupancy as u64);
    assert!(report.vault_bound >= result.report.peak_vault_concurrency as u64);
}

#[test]
fn static_bounds_dominate_observed_peaks_on_the_suite() {
    let _guard = lock();
    for bench in benchmarks::all() {
        let graph = bench.graph().expect("benchmark generates");
        for iters in [1, 8, 40] {
            assert_dominates(bench.name(), &graph, 16, iters);
        }
    }
}

#[test]
fn static_bounds_dominate_observed_peaks_on_the_zoo() {
    let _guard = lock();
    let zoo = paraconv::cnn::zoo::all().expect("zoo builds");
    for (class, network) in &zoo {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        assert_dominates(&format!("{class}/{}", network.name()), &graph, 16, 12);
    }
}

/// Schedules the core of `graph` and asserts that its analysis is the
/// one the allocation and the verifier see.
fn assert_analysis_is_the_solved_one(name: &str, graph: &TaskGraph, cfg: &PimConfig, iters: u64) {
    let (core, _) = ParaConvScheduler::new(cfg.clone())
        .schedule_periodic(graph, iters)
        .expect("schedulable");
    let cached: u64 = core
        .allocation
        .cached()
        .iter()
        .map(|&e| core.analysis.delta_r(e))
        .sum();
    assert_eq!(cached, core.allocation.total_profit(), "{name}");
    // The DP check reads only the core: it re-derives every pair and
    // refuses an analysis that differs from it.
    let outcome = ParaConvOutcome {
        core,
        plan: ExecutionPlan::default(),
    };
    if let Err(e) = check_dp_invariants(graph, &outcome, cfg) {
        panic!("{name}: {e}");
    }
}

#[test]
fn the_reported_analysis_is_the_solved_one_across_table1_off_the_default_penalty() {
    let _guard = lock();
    for penalty in [6, 8, 10] {
        for bench in benchmarks::all() {
            let graph = bench.graph().expect("benchmark generates");
            for pes in [16, 32, 64] {
                let cfg = PimConfig::builder(pes)
                    .edram_penalty(penalty)
                    .build()
                    .expect("valid config");
                let name = format!("{} @ {pes} PEs, {penalty}x", bench.name());
                assert_analysis_is_the_solved_one(&name, &graph, &cfg, 500);
            }
        }
    }
}

#[test]
fn the_reported_analysis_is_the_solved_one_on_the_zoo() {
    let _guard = lock();
    let cfg = PimConfig::neurocube(16).expect("valid config");
    for (class, network) in &paraconv::cnn::zoo::all().expect("zoo builds") {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        let name = format!("{class}/{}", network.name());
        assert_analysis_is_the_solved_one(&name, &graph, &cfg, 20);
    }
}
