//! Cross-crate integration: the full pipeline from CNN description or
//! synthetic benchmark through scheduling to validated simulation.

use paraconv::cnn::{googlenet, partition, PartitionConfig};
use paraconv::pim::{simulate, PimConfig};
use paraconv::synth::{benchmarks, SyntheticSpec};
use paraconv::ParaConv;

#[test]
fn googlenet_to_simulation() {
    let network = googlenet(2).expect("network builds");
    let graph = partition(&network, PartitionConfig::default()).expect("partition succeeds");
    let config = PimConfig::neurocube(32).expect("preset is valid");
    let runner = ParaConv::new(config);
    let result = runner.run(&graph, 12).expect("pipeline completes");
    assert_eq!(result.report.iterations, 12);
    assert!(result.report.avg_pe_utilization > 0.0);
    // The inception branches give real parallelism to exploit.
    assert!(graph.max_width() >= 4);
}

#[test]
fn every_benchmark_schedules_and_validates_on_16_pes() {
    let config = PimConfig::neurocube(16).expect("preset is valid");
    for bench in benchmarks::all() {
        let graph = bench.graph().expect("benchmark generates");
        let runner = ParaConv::new(config.clone());
        let cmp = runner.compare(&graph, 5).expect("both schedulers run");
        assert_eq!(cmp.paraconv.report.iterations, 5, "{}", bench.name());
        assert_eq!(cmp.sparta.report.iterations, 5, "{}", bench.name());
        assert!(
            cmp.paraconv.report.peak_cache_occupancy <= cmp.paraconv.report.cache_capacity,
            "{}",
            bench.name()
        );
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let bench = benchmarks::by_name("flower").expect("benchmark exists");
    let run = || {
        let graph = bench.graph().expect("benchmark generates");
        let runner = ParaConv::new(PimConfig::neurocube(32).expect("preset is valid"));
        let result = runner.run(&graph, 10).expect("pipeline completes");
        (
            result.report.total_time,
            result.core.rmax(),
            result.core.cached_iprs(),
            result.report.offchip_fetches,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn custom_synthetic_spec_through_pipeline() {
    let graph = SyntheticSpec::new("custom", 64, 170)
        .seed(7)
        .max_exec_time(4)
        .max_ipr_size(3)
        .generate()
        .expect("spec is feasible");
    assert_eq!(graph.node_count(), 64);
    assert_eq!(graph.edge_count(), 170);
    let runner = ParaConv::new(PimConfig::neurocube(16).expect("preset is valid"));
    let cmp = runner.compare(&graph, 8).expect("pipeline completes");
    assert!(cmp.paraconv.report.total_time > 0);
}

#[test]
fn plans_replay_identically_on_a_fresh_simulator() {
    // The simulator is stateless across calls: replaying the same plan
    // twice yields identical reports.
    let graph = benchmarks::by_name("car")
        .expect("benchmark exists")
        .graph()
        .expect("benchmark generates");
    let config = PimConfig::neurocube(16).expect("preset is valid");
    let outcome = paraconv::sched::ParaConvScheduler::new(config.clone())
        .schedule(&graph, 6)
        .expect("schedules");
    let a = simulate(&graph, &outcome.plan, &config).expect("valid plan");
    let b = simulate(&graph, &outcome.plan, &config).expect("valid plan");
    assert_eq!(a, b);
}

#[test]
fn simulator_totals_match_analytic_expectations() {
    // For a Para-CONV plan the simulator's aggregate counters are
    // fully predictable from the outcome: every edge transfers once
    // per iteration, split by the allocation; compute energy is the
    // serial workload times the iteration count.
    let bench = benchmarks::by_name("flower").expect("benchmark exists");
    let graph = bench.graph().expect("generates");
    let config = PimConfig::neurocube(32).expect("valid");
    let iterations = 12;
    let result = ParaConv::new(config)
        .run(&graph, iterations)
        .expect("pipeline completes");
    let cached = result.core.cached_iprs() as u64;
    let uncached = graph.edge_count() as u64 - cached;
    assert_eq!(result.report.onchip_hits, cached * iterations);
    assert_eq!(result.report.offchip_fetches, uncached * iterations);
    assert_eq!(
        result.report.compute_energy,
        graph.total_exec_time() * iterations
    );
    // Total time sits inside the last kernel window.
    let groups = iterations.div_ceil(result.core.unroll());
    let p = result.core.period();
    assert!(result.report.total_time <= (result.core.rmax() + groups) * p);
    assert!(result.report.total_time > (result.core.rmax() + groups - 1) * p);
}

#[test]
fn gantt_and_trace_render_from_facade() {
    let graph = paraconv::graph::examples::motivational();
    let config = PimConfig::builder(4)
        .per_pe_cache_units(1)
        .build()
        .expect("valid");
    let result = ParaConv::new(config.clone())
        .run(&graph, 4)
        .expect("pipeline completes");
    let plan = result
        .core
        .periodic(&graph, &config, 4)
        .expect("core unrolls")
        .materialize()
        .expect("plan fits");
    let chart = paraconv::pim::gantt(&graph, &plan, &config, 0, 40);
    assert_eq!(chart.lines().count(), 5); // header + 4 PEs
                                          // Every task and transfer lands in the Chrome timeline.
    let trace = paraconv::pim::plan_chrome_trace(&graph, &plan, &config);
    assert_eq!(trace.len(), plan.tasks().len() + plan.transfers().len());
    let json = trace.to_json();
    paraconv::obs::check_trace(&json).expect("a well-formed Chrome trace");
    assert!(json.contains("\"cat\":\"task\""));
    assert!(json.contains("\"placement\":"));
}

#[test]
fn energy_accounting_favors_cache() {
    // With ample cache, transfer energy drops relative to the
    // cache-starved configuration on the same plan shape.
    let graph = benchmarks::by_name("character-1")
        .expect("benchmark exists")
        .graph()
        .expect("benchmark generates");
    let starved = PimConfig::builder(16)
        .per_pe_cache_units(0)
        .build()
        .expect("valid");
    let ample = PimConfig::builder(16)
        .per_pe_cache_units(64)
        .build()
        .expect("valid");
    let e_starved = ParaConv::new(starved)
        .run(&graph, 6)
        .expect("runs")
        .report
        .transfer_energy;
    let e_ample = ParaConv::new(ample)
        .run(&graph, 6)
        .expect("runs")
        .report
        .transfer_energy;
    assert!(e_ample < e_starved);
}
