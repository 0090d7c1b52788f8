//! End-to-end smoke tests for the observability layer: metric
//! determinism across worker counts, JSONL schema, and Chrome
//! trace-event schema (the format Perfetto loads).
//!
//! The recorder's aggregate is process-global, so every test
//! serializes on one lock and starts from `obs::reset()`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use paraconv::alloc::{sort_by_deadline, AllocItem, IncrementalDp};
use paraconv::graph::EdgeId;
use paraconv::obs;
use paraconv::pim::{
    plan_chrome_trace, simulate, simulate_periodic, simulate_reference, simulate_streaming,
    PimConfig,
};
use paraconv::sched::{ParaConvScheduler, SpartaScheduler};
use paraconv::sweep::{self, SweepPoint};
use paraconv::synth::benchmarks;
use paraconv::ParaConv;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn points() -> Vec<SweepPoint> {
    benchmarks::all()[..3]
        .iter()
        .flat_map(|&b| {
            [8usize, 16]
                .iter()
                .map(move |&pes| SweepPoint::new(b, PimConfig::neurocube(pes).unwrap(), 8))
        })
        .collect()
}

/// A deterministic incremental-DP workload: prime a session, then
/// re-solve two one-item perturbations. Runs single-threaded after
/// the sweep so the session counters (`dp.incremental_hits`,
/// `dp.rows_reused`) land identically in every snapshot.
fn drive_incremental_dp() {
    let items = sort_by_deadline(
        (0..32u32)
            .map(|i| {
                AllocItem::new(
                    EdgeId::new(i),
                    1 + u64::from(i) % 5,
                    u64::from(i) % 7,
                    u64::from(i * 3) % 40,
                )
            })
            .collect(),
    );
    let last = *items.last().unwrap();
    let mut perturbed = items.clone();
    *perturbed.last_mut().unwrap() = AllocItem::new(
        last.edge(),
        last.space(),
        last.delta_r() + 1,
        last.deadline(),
    );
    let mut session = IncrementalDp::new();
    session.resolve(&items, 64);
    session.resolve(&perturbed, 64);
    session.resolve(&items, 64);
}

/// Runs the sweep at one worker count and returns the exported JSONL.
fn sweep_jsonl(jobs: usize) -> String {
    obs::reset();
    obs::enable();
    sweep::compare_all_with(&points(), jobs).unwrap();
    drive_incremental_dp();
    obs::disable();
    let snapshot = obs::snapshot();
    obs::reset();
    snapshot.to_jsonl()
}

#[test]
fn metrics_identical_across_worker_counts() {
    let _guard = lock();
    let sequential = sweep_jsonl(1);
    let parallel = sweep_jsonl(4);
    assert!(!sequential.is_empty());
    // The incremental-DP session and simulator event counters must be
    // part of the identity comparison, not just the legacy set.
    for name in ["dp.incremental_hits", "dp.rows_reused", "sim.events"] {
        assert!(
            sequential.contains(name),
            "snapshot covers the `{name}` counter"
        );
    }
    assert_eq!(
        sequential, parallel,
        "merged metrics must not depend on how work was split"
    );
}

#[test]
fn streaming_and_reference_passes_emit_identical_metrics() {
    // The streaming pass emits in bulk what the reference pass records
    // event by event (`pe.tasks_recorded`, `vault.*`, the latency
    // histogram, the lane counts); an accepted plan must leave the same
    // snapshot either way.
    let _guard = lock();
    let graph = benchmarks::all()[1].graph().unwrap();
    let config = PimConfig::neurocube(16).unwrap();
    let plans = [
        ParaConvScheduler::new(config.clone())
            .schedule(&graph, 10)
            .unwrap()
            .plan,
        SpartaScheduler::new(config.clone())
            .schedule(&graph, 10)
            .unwrap()
            .plan,
    ];
    let capture = |replay: &dyn Fn() -> bool| {
        obs::reset();
        obs::enable();
        assert!(replay(), "the pass accepts the plan");
        obs::disable();
        let snapshot = obs::snapshot();
        obs::reset();
        snapshot.to_jsonl()
    };
    for plan in &plans {
        let streamed = capture(&|| simulate_streaming(&graph, plan, &config).is_some());
        let reference = capture(&|| simulate_reference(&graph, plan, &config).is_ok());
        assert!(streamed.contains("vault.fetches"), "{streamed}");
        assert_eq!(streamed, reference);
    }
}

#[test]
fn periodic_and_unrolled_replays_emit_identical_metrics() {
    // The periodic replay validates one window without recording,
    // then records the run's totals once: the snapshot must be the
    // one replaying the unrolled plan leaves, histogram included.
    let _guard = lock();
    let graph = benchmarks::all()[1].graph().unwrap();
    let config = PimConfig::neurocube(16).unwrap();
    let capture = |replay: &dyn Fn() -> bool| {
        obs::reset();
        obs::enable();
        assert!(replay(), "the replay accepts the plan");
        obs::disable();
        let snapshot = obs::snapshot();
        obs::reset();
        snapshot.to_jsonl()
    };
    for n in [10, 97, 500] {
        let (_, para) = ParaConvScheduler::new(config.clone())
            .schedule_periodic(&graph, n)
            .unwrap();
        let sparta = SpartaScheduler::new(config.clone())
            .schedule_core(&graph, n)
            .unwrap();
        for periodic in [&para, sparta.periodic()] {
            let plan = periodic.materialize().unwrap();
            let windowed = capture(&|| simulate_periodic(&graph, periodic, &config).is_ok());
            let unrolled = capture(&|| simulate(&graph, &plan, &config).is_ok());
            assert!(windowed.contains("sim.transfer.latency"), "{windowed}");
            assert_eq!(windowed, unrolled, "N={n}");
        }
    }
}

#[test]
fn metrics_jsonl_parses_and_matches_schema() {
    let _guard = lock();
    obs::reset();
    obs::enable();
    let runner = ParaConv::new(PimConfig::neurocube(8).unwrap());
    let graph = benchmarks::all()[0].graph().unwrap();
    runner.compare(&graph, 10).unwrap();
    obs::disable();
    let snapshot = obs::snapshot();
    obs::reset();

    let jsonl = snapshot.to_jsonl();
    let mut counters = 0;
    for line in jsonl.lines() {
        let v = serde_json::from_str(line).expect("every metrics line is valid JSON");
        let obj = v.as_object().expect("every line is a JSON object");
        let kind = obj["type"].as_str().expect("`type` is a string");
        assert!(obj["name"].as_str().is_some(), "`name` is a string");
        match kind {
            "counter" => {
                counters += 1;
                assert!(obj["value"].as_u64().is_some(), "counter value is a u64");
            }
            "gauge" => {
                assert!(obj["max"].as_u64().is_some(), "gauge max is a u64");
            }
            "histogram" => {
                for field in ["count", "sum", "min", "max"] {
                    assert!(obj[field].as_u64().is_some(), "histogram `{field}` is u64");
                }
                for bucket in obj["buckets"].as_array().expect("buckets is an array") {
                    let pair = bucket.as_array().expect("bucket is a pair");
                    assert_eq!(pair.len(), 2);
                    assert!(pair[0].as_u64().is_some() && pair[1].as_u64().is_some());
                }
            }
            other => panic!("unknown metric line type `{other}`"),
        }
    }
    assert!(counters > 0, "an instrumented run records counters");
    // The simulator's core counters are present after a real run.
    assert!(snapshot.counter("sim.runs") >= 2);
    assert!(snapshot.counter("sim.tasks") > 0);
    assert!(snapshot.counter("dp.fills") >= 1);
}

#[test]
fn chrome_trace_parses_and_matches_schema() {
    let _guard = lock();
    obs::reset();
    obs::enable();
    let cfg = PimConfig::neurocube(8).unwrap();
    let graph = benchmarks::all()[0].graph().unwrap();
    let result = ParaConv::new(cfg.clone()).run(&graph, 10).unwrap();
    obs::disable();

    let plan = result
        .core
        .periodic(&graph, &cfg, 10)
        .unwrap()
        .materialize()
        .unwrap();
    let mut trace = plan_chrome_trace(&graph, &plan, &cfg);
    trace.name_process(0, "pipeline");
    trace.push_spans(0, &obs::take_spans());
    obs::reset();
    let json = trace.to_json();

    let v = serde_json::from_str(&json).expect("trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents is an array");
    assert!(!events.is_empty());
    let mut complete = 0;
    let mut metadata = 0;
    for e in events {
        let obj = e.as_object().expect("every event is an object");
        assert!(obj["name"].as_str().is_some());
        assert!(obj["pid"].as_u64().is_some());
        assert!(obj["tid"].as_u64().is_some());
        match obj["ph"].as_str().expect("`ph` is a string") {
            "X" => {
                complete += 1;
                assert!(obj["ts"].as_u64().is_some(), "complete events carry ts");
                assert!(obj["dur"].as_u64().is_some(), "complete events carry dur");
            }
            "M" => metadata += 1,
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    // The plan timeline plus at least the scheduler/simulator spans.
    assert!(complete > plan.tasks().len());
    assert!(metadata >= 3, "process/thread name metadata present");
    // Phase spans from the instrumented pipeline made it in.
    assert!(json.contains("\"sched.kernel\""));
    assert!(json.contains("\"pim.simulate\""));
}

#[test]
fn flight_recorder_captures_scheduler_and_simulator_events() {
    let _guard = lock();
    obs::reset();
    obs::flight_enable(obs::DEFAULT_FLIGHT_CAPACITY);
    let cfg = PimConfig::neurocube(8).unwrap();
    let graph = benchmarks::all()[0].graph().unwrap();
    ParaConv::new(cfg).run(&graph, 10).unwrap();
    obs::flight_disable();
    let events = obs::flight_events();
    obs::flight_reset();
    obs::reset();

    assert!(
        events
            .iter()
            .any(|e| e.cat == "sched" && e.label == "schedule.done"),
        "scheduler completion is on the flight ring"
    );
    assert!(
        events
            .iter()
            .any(|e| e.cat == "sim" && e.label == "replay.done"),
        "simulator completion is on the flight ring"
    );
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "sequence numbers are ordered");
    }
}

#[test]
fn flight_recorder_is_silent_when_disabled() {
    let _guard = lock();
    obs::reset();
    obs::flight_reset();
    let cfg = PimConfig::neurocube(8).unwrap();
    let graph = benchmarks::all()[0].graph().unwrap();
    ParaConv::new(cfg).run(&graph, 10).unwrap();
    assert!(
        obs::flight_events().is_empty(),
        "no events may be recorded while the ring is inactive"
    );
}

#[test]
fn prometheus_exposition_of_a_real_run_passes_the_checker() {
    let _guard = lock();
    obs::reset();
    obs::enable();
    let runner = ParaConv::new(PimConfig::neurocube(8).unwrap());
    let graph = benchmarks::all()[0].graph().unwrap();
    runner.compare(&graph, 10).unwrap();
    obs::disable();
    let snapshot = obs::snapshot();
    obs::reset();

    let text = snapshot.to_prometheus();
    let samples = obs::check_prometheus(&text).expect("exposition is line-format clean");
    assert!(samples > 10, "a real run exports a rich sample set");
    assert!(text.contains("paraconv_sim_runs"));
    assert!(
        text.contains("_quantile{quantile=\"0.99\"}"),
        "histograms surface their p99"
    );
}
