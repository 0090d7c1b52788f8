//! Chaos harness: deterministic fault campaigns over the benchmark
//! suite, the model zoo and random synthetic graphs.
//!
//! Properties asserted here (the tentpole's acceptance criteria):
//!
//! * **identity** — a quiet campaign leaves every report
//!   byte-identical to the fault-free build;
//! * **determinism** — the same seed produces the same report at any
//!   sweep worker count (faults are sampled in counter mode, never
//!   from shared state);
//! * **fail-stop recovery** — killing a PE on any benchmark or zoo
//!   network yields a completed degraded plan that avoids the dead PE,
//!   audits clean and statically verifies under the reduced capacity
//!   profile;
//! * **monotone degradation** — raising the fault rate never shortens
//!   the achieved makespan and never reduces the retry count;
//! * **watchdog** — the achieved makespan is bounded by
//!   `planned + injected_delay`, so a campaign can delay a replay but
//!   never hang it.
//!
//! The obs recorder and the flight recorder are process-global, so
//! every test serializes on one lock.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use paraconv::fault::FaultSpec;
use paraconv::graph::TaskGraph;
use paraconv::pim::{simulate_with_faults, PimConfig, SimError};
use paraconv::sched::AllocationPolicy;
use paraconv::sweep::parallel_map;
use paraconv::synth::{benchmarks, SynthError, SyntheticSpec};
use paraconv::verify::verify_outcome;
use paraconv::{CoreError, ParaConv};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn quiet_campaigns_are_the_identity_on_the_suite() {
    let _guard = lock();
    let quiet = FaultSpec::quiet(99);
    for bench in benchmarks::all() {
        let graph = bench.graph().expect("benchmark generates");
        let runner = ParaConv::new(PimConfig::neurocube(16).expect("valid config"));
        let plain = runner.run(&graph, 8).expect("schedulable");
        let chaos = runner.run_chaos(&graph, 8, &quiet).expect("quiet campaign");
        assert_eq!(plain.report, chaos.report, "{}", bench.name());
        assert_eq!(chaos.faults.injected, 0);
        assert_eq!(chaos.replans, 0);
    }
}

#[test]
fn same_seed_is_byte_identical_at_any_worker_count() {
    let _guard = lock();
    let spec = FaultSpec::builder(42)
        .uniform_rate_bp(150)
        .kill_pe(1, 60)
        .build()
        .expect("valid spec");
    let runner = ParaConv::new(PimConfig::neurocube(8).expect("valid config"));
    let campaign = |jobs: usize| {
        parallel_map(&benchmarks::all()[..4], jobs, |bench| {
            let graph = bench.graph().expect("benchmark generates");
            runner
                .run_chaos(&graph, 8, &spec)
                .expect("campaign completes")
        })
    };
    let sequential = campaign(1);
    assert!(sequential.iter().any(|c| c.faults.injected > 0));
    for jobs in [2, 8] {
        let parallel = campaign(jobs);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.report, p.report, "jobs={jobs} diverged");
            assert_eq!(s.faults, p.faults, "jobs={jobs} diverged");
            assert_eq!(s.failed_pes, p.failed_pes, "jobs={jobs} diverged");
        }
    }
}

/// Kills PE 0 (always populated by the compaction) at cycle 0 and
/// asserts the campaign completes on the survivors with a plan that
/// audits clean and statically verifies under the degraded profile.
fn assert_fail_stop_recovers(name: &str, graph: &TaskGraph, pes: usize, iters: u64) {
    let runner = ParaConv::new(PimConfig::neurocube(pes).expect("valid config"))
        .with_audit(true)
        .with_verify(true);
    let spec = FaultSpec::builder(7)
        .kill_pe(0, 0)
        .build()
        .expect("valid spec");
    let chaos = runner
        .run_chaos(graph, iters, &spec)
        .unwrap_or_else(|e| panic!("{name}: campaign failed: {e}"));
    assert_eq!(chaos.failed_pes, vec![0], "{name}");
    assert_eq!(chaos.replans, 1, "{name}");
    assert_eq!(chaos.config.active_pes(), pes - 1, "{name}");
    for t in chaos.outcome.plan.tasks() {
        assert_ne!(t.pe.index(), 0, "{name}: task on the killed PE");
    }
    // run_chaos already audited and verified; re-prove explicitly so a
    // future behavior change in the runner cannot silently drop it.
    verify_outcome(graph, &chaos.outcome, &chaos.config)
        .unwrap_or_else(|e| panic!("{name}: degraded plan fails static verification: {e}"));
    // The replan came from the persistent incremental-DP session; a
    // cold scheduler on the degraded config must reproduce the same
    // allocation and plan bit for bit.
    let cold = paraconv::sched::ParaConvScheduler::new(chaos.config.clone())
        .schedule(graph, iters)
        .unwrap_or_else(|e| panic!("{name}: cold degraded solve failed: {e}"));
    assert_eq!(
        cold.allocation, chaos.outcome.allocation,
        "{name}: incremental replan allocation diverged from a cold solve"
    );
    assert_eq!(
        cold.plan, chaos.outcome.plan,
        "{name}: incremental replan plan diverged from a cold solve"
    );
}

#[test]
fn single_pe_fail_stop_recovers_on_every_benchmark() {
    let _guard = lock();
    for bench in benchmarks::all() {
        let graph = bench.graph().expect("benchmark generates");
        assert_fail_stop_recovers(bench.name(), &graph, 16, 6);
    }
}

#[test]
fn single_pe_fail_stop_recovers_on_the_model_zoo() {
    let _guard = lock();
    let zoo = paraconv::cnn::zoo::all().expect("zoo builds");
    for (class, network) in &zoo {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        assert_fail_stop_recovers(&format!("{class}/{}", network.name()), &graph, 16, 6);
    }
}

#[test]
fn retry_exhaustion_is_a_typed_error_not_a_panic() {
    let _guard = lock();
    let graph = benchmarks::all()[0].graph().expect("benchmark generates");
    // All-eDRAM placements guarantee vault transfers to fail; a 100%
    // vault-fault rate with one retry cannot recover.
    let runner = ParaConv::new(PimConfig::neurocube(8).expect("valid config"))
        .with_policy(AllocationPolicy::AllEdram);
    let spec = FaultSpec::builder(3)
        .vault_fault_bp(10_000)
        .retry(paraconv::fault::RetryPolicy {
            max_retries: 1,
            backoff_base: 2,
            deadline: 64,
        })
        .build()
        .expect("valid spec");
    let err = runner.run_chaos(&graph, 4, &spec).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Sim(SimError::RetryExhausted { attempts: 2, .. })
        ),
        "expected RetryExhausted, got: {err}"
    );
}

/// Random feasible synthetic specs (same shape as the differential
/// harness).
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (4usize..16, 0u64..u64::MAX / 2).prop_flat_map(|(v, seed)| {
        (Just(v), v..=2 * v, Just(seed)).prop_map(|(v, e, seed)| {
            match SyntheticSpec::new("chaos", v, e).seed(seed).generate() {
                Ok(g) => g,
                Err(SynthError::TooManyEdges { maximum, .. }) => {
                    SyntheticSpec::new("chaos", v, maximum)
                        .seed(seed)
                        .generate()
                        .expect("the generator's own maximum is realizable")
                }
                Err(e) => panic!("v..=2v edge targets should be realizable: {e}"),
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a fixed plan, a higher fault rate only *adds* fault events
    /// (rates are compared in basis points against the same hash), so
    /// the achieved makespan and the retry count are monotone in the
    /// rate, and the watchdog bound holds at every rate.
    #[test]
    fn degradation_is_monotone_in_the_fault_rate(
        g in arb_graph(),
        seed in 0u64..1_000,
    ) {
        let rates = [0u32, 50, 200, 1_000, 4_000];
        let _guard = lock();
        let cfg = PimConfig::neurocube(8).expect("valid config");
        let outcome = paraconv::sched::ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 4)
            .expect("schedules");
        let mut previous_makespan = 0u64;
        let mut previous_retries = 0u64;
        let mut exhausted = false;
        for bp in rates {
            let spec = FaultSpec::builder(seed)
                .uniform_rate_bp(bp)
                .build()
                .expect("valid spec");
            match simulate_with_faults(&g, &outcome.plan, &cfg, &spec) {
                Ok((report, out)) => {
                    // A rate that recovers after a lower rate exhausted
                    // would mean raising the rate *removed* a fault.
                    prop_assert!(!exhausted, "rate {bp} bp recovered after exhaustion");
                    prop_assert!(report.total_time >= out.achieved_makespan);
                    prop_assert!(
                        out.achieved_makespan >= previous_makespan,
                        "rate {bp} bp shortened the replay"
                    );
                    prop_assert!(out.retries >= previous_retries, "rate {bp} bp lost retries");
                    // Watchdog: delays add, they never compound.
                    prop_assert!(out.achieved_makespan <= out.planned_makespan + out.injected_delay);
                    previous_makespan = out.achieved_makespan;
                    previous_retries = out.retries;
                }
                // High rates may burn through the whole retry budget;
                // that is a typed error, and monotone too.
                Err(SimError::RetryExhausted { .. }) => exhausted = true,
                Err(e) => prop_assert!(false, "unexpected failure at {bp} bp: {e}"),
            }
        }
    }
}
