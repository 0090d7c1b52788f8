//! Tracked performance baseline: times the three hot paths this repo
//! optimizes and writes the measurements to `BENCH_5.json` at the
//! working directory (run it from the repo root).
//!
//! Three measurements:
//!
//! 1. **Sweep wall-clock** — the full Table 1 workload (every
//!    benchmark × every PE count, both schedulers) on one worker
//!    versus the default pool, reporting the parallel speedup.
//! 2. **Simulator throughput** — `simulate()` replays of a
//!    pre-scheduled plan, in planned tasks validated per second. The
//!    plan is valid, so this times the simulator's streaming pass.
//! 3. **DP throughput** — the headline `fills_per_sec` is the
//!    *incremental* re-solve rate of an [`IncrementalDp`] session under
//!    a one-item perturbation workload (the degraded-replan /
//!    capacity-sweep pattern the allocator actually runs); the
//!    from-scratch rate is reported alongside as
//!    `cold_fills_per_sec` (a resolve on a fresh session), and the
//!    `"workload"` field records what the headline measures. The
//!    capacity sweep is timed both as a per-capacity cold-fill loop
//!    and as one session primed at the widest point and re-solved at
//!    every capacity.
//!
//! All timed passes run with `paraconv-obs` recording **disabled** and
//! the flight recorder **inactive** — each of those hooks must cost
//! one relaxed atomic load when idle,
//! so `simulate.planned_tasks_per_sec` here *is* the disabled-hook
//! overhead measurement: its ratio against `BENCH_4.json` (embedded
//! as `throughput_vs_bench4` when that file is present in the working
//! directory) must stay within runner noise. A separate untimed
//! instrumented pass then captures a deterministic metrics snapshot
//! (simulated events, DP cells filled, incremental-session hits, …)
//! into the report's `"metrics"` section,
//! plus the `sim.transfer.latency` histogram's deterministic
//! p50/p90/p99 under `"latency"`.
//!
//! The report is serialized through the vendored `serde_json` `Value`
//! writer; objects are `BTreeMap`s, so member order is alphabetical
//! and byte-stable across runs.
//!
//! `PARACONV_ITERS`/`PARACONV_QUICK` shrink the workload as for every
//! other binary; `PARACONV_JOBS` pins the "default" pool width.

use std::time::Instant;

use paraconv::alloc::{sort_by_deadline, AllocItem, IncrementalDp};
use paraconv::graph::EdgeId;
use paraconv::pim::simulate;
use paraconv::sweep::{self, SweepPoint};
use paraconv::ExperimentConfig;
use paraconv_bench::{config_from_env, suite_from_env};
use paraconv_sched::ParaConvScheduler;
use serde_json::{Map, Value};

/// The Table 1 workload as sweep points.
fn sweep_points(config: &ExperimentConfig) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &bench in &suite_from_env() {
        for &pes in &config.pe_counts {
            let pim = config
                .pim_config(pes)
                .expect("default experiment config is valid");
            points.push(SweepPoint::new(bench, pim, config.iterations));
        }
    }
    points
}

fn time_sweep(points: &[SweepPoint], jobs: usize) -> f64 {
    // Best of two, so one scheduling hiccup doesn't skew the baseline.
    (0..2)
        .map(|_| {
            let start = Instant::now();
            sweep::compare_all_with(points, jobs).expect("pinned suite schedules cleanly");
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Simulator throughput over a pre-scheduled plan: validated planned
/// tasks per second.
fn simulate_throughput(config: &ExperimentConfig) -> (usize, f64) {
    let bench = paraconv::synth::benchmarks::by_name("shortest-path")
        .expect("shortest-path is in the suite");
    let graph = bench.graph().expect("pinned benchmark generates");
    let pim = config.pim_config(16).expect("16 PEs is a preset");
    let outcome = ParaConvScheduler::new(pim.clone())
        .schedule(&graph, config.iterations.max(50))
        .expect("pinned benchmark schedules");
    let tasks = outcome.plan.tasks().len();
    // Best of three 10-replay batches: a scheduler hiccup or a noisy
    // co-tenant on a shared runner skews one batch, not all three.
    let repeats = 10;
    let best_secs = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..repeats {
                simulate(&graph, &outcome.plan, &pim).expect("emitted plan validates");
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (tasks, tasks as f64 * repeats as f64 / best_secs)
}

fn dp_items(n: usize) -> Vec<AllocItem> {
    // Deterministic pseudo-random items: enough spread to keep the
    // table honest, no RNG dependency.
    let items = (0..n)
        .map(|i| {
            let space = 1 + (i as u64 * 7 + 3) % 9;
            let profit = (i as u64 * 5 + 1) % 13;
            let deadline = (i as u64 * 11) % 200;
            AllocItem::new(EdgeId::new(i as u32), space, profit, deadline)
        })
        .collect();
    sort_by_deadline(items)
}

/// A resolve on a fresh session: one from-scratch fill.
fn cold_fill(items: &[AllocItem], capacity: u64) -> IncrementalDp {
    let mut session = IncrementalDp::new();
    session.resolve(items, capacity);
    session
}

/// One session primed at the widest capacity and re-solved at every
/// point of the sweep, returning each point's optimum.
fn capacity_sweep(items: &[AllocItem], capacities: &[u64]) -> Vec<u64> {
    let widest = capacities.iter().copied().max().unwrap_or(0);
    let mut session = cold_fill(items, widest);
    capacities
        .iter()
        .map(|&c| {
            session.resolve(items, c);
            session.max_profit()
        })
        .collect()
}

/// DP throughput: incremental re-solves per second under a one-item
/// perturbation workload (headline), from-scratch fills per second,
/// and the capacity-sweep comparison (per-capacity cold fills versus
/// one primed session).
fn dp_throughput() -> (f64, f64, f64, f64) {
    let items = dp_items(200);
    let capacity = 256u64;

    // From-scratch fills: the BENCH_3 measurement, on a fresh session
    // each time. Best of three batches, like every other timed section.
    let cold_repeats = 100;
    let cold_secs = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..cold_repeats {
                std::hint::black_box(cold_fill(std::hint::black_box(&items), capacity));
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let cold_fills_per_sec = cold_repeats as f64 / cold_secs;

    // Incremental re-solves: alternate the deadline-last item's profit
    // and re-solve the session each time. Every resolve answers the
    // same question as a cold fill (and is asserted equal below), but
    // only the one changed suffix row is refilled.
    let last = *items.last().expect("workload is non-empty");
    let mut perturbed = items.clone();
    *perturbed.last_mut().expect("workload is non-empty") = AllocItem::new(
        last.edge(),
        last.space(),
        last.delta_r() + 1,
        last.deadline(),
    );
    let mut session = IncrementalDp::new();
    session.resolve(&items, capacity);
    let incr_repeats = 2000usize;
    let incr_secs = (0..3)
        .map(|_| {
            let start = Instant::now();
            for i in 0..incr_repeats {
                let problem = if i % 2 == 0 { &perturbed } else { &items };
                session.resolve(std::hint::black_box(problem), capacity);
                std::hint::black_box(session.max_profit());
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let fills_per_sec = incr_repeats as f64 / incr_secs;

    // Untimed: both perturbation states must match cold solves exactly.
    session.resolve(&items, capacity);
    assert_eq!(
        session.max_profit(),
        cold_fill(&items, capacity).max_profit(),
        "incremental re-solve must agree with a cold fill"
    );
    session.resolve(&perturbed, capacity);
    assert_eq!(
        session.max_profit(),
        cold_fill(&perturbed, capacity).max_profit(),
        "incremental re-solve must agree with a cold fill"
    );

    let capacities: Vec<u64> = (0..=capacity).collect();
    let start = Instant::now();
    let per_point: Vec<u64> = capacities
        .iter()
        .map(|&c| cold_fill(&items, c).max_profit())
        .collect();
    let per_point_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let swept = capacity_sweep(&items, &capacities);
    let sweep_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        per_point, swept,
        "the primed sweep must agree with per-capacity fills"
    );
    (
        fills_per_sec,
        cold_fills_per_sec,
        per_point_secs,
        sweep_secs,
    )
}

/// One untimed pass with recording enabled: a small sweep, one DP
/// fill, and one incremental capacity sweep, returning the
/// deterministic metrics snapshot.
fn instrumented_snapshot(points: &[SweepPoint]) -> paraconv_obs::MetricsSnapshot {
    paraconv_obs::reset();
    paraconv_obs::enable();
    let sample = &points[..points.len().min(4)];
    sweep::compare_all_with(sample, 2).expect("pinned suite schedules cleanly");
    let items = dp_items(200);
    std::hint::black_box(cold_fill(&items, 256));
    let capacities: Vec<u64> = (0..=64).collect();
    std::hint::black_box(capacity_sweep(&items, &capacities));
    paraconv_obs::disable();
    paraconv_obs::snapshot()
}

/// Reads a prior report's simulator throughput for the regression
/// ratio, if the file exists and parses.
fn prior_tasks_per_sec(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text)
        .ok()?
        .get("simulate")?
        .get("planned_tasks_per_sec")?
        .as_f64()
}

/// A float rounded to `places` decimals, as a JSON value.
fn rounded(v: f64, places: u32) -> Value {
    let scale = 10f64.powi(places as i32);
    Value::from((v * scale).round() / scale)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in entries {
        map.insert(k.to_owned(), v);
    }
    Value::Object(map)
}

fn main() {
    let config = config_from_env();
    let points = sweep_points(&config);
    let default_jobs = config.effective_jobs();
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);

    // Timed sections measure the disabled-recording fast path: both
    // the metrics layer and the flight recorder are off, so every
    // hook in the hot loops is one relaxed atomic load.
    paraconv_obs::disable();
    paraconv_obs::flight_disable();

    eprintln!(
        "timing {} sweep points, sequential then {default_jobs} workers...",
        points.len()
    );
    // Warm caches and the allocator before the timed passes.
    sweep::compare_all_with(&points[..points.len().min(4)], default_jobs)
        .expect("pinned suite schedules cleanly");
    let sequential_secs = time_sweep(&points, 1);
    let parallel_secs = time_sweep(&points, default_jobs);
    let speedup = sequential_secs / parallel_secs.max(1e-12);

    eprintln!("timing simulate() replays...");
    let (planned_tasks, tasks_per_sec) = simulate_throughput(&config);

    eprintln!("timing DP fills...");
    let (dp_fills_per_sec, dp_cold_fills_per_sec, dp_per_point_secs, dp_sweep_secs) =
        dp_throughput();

    eprintln!("capturing instrumented metrics snapshot...");
    let metrics = instrumented_snapshot(&points);
    let vs_bench4 =
        prior_tasks_per_sec("BENCH_4.json").map(|prior| tasks_per_sec / prior.max(1e-12));

    let mut simulate_section = vec![
        ("planned_tasks_per_replay", Value::from(planned_tasks)),
        ("planned_tasks_per_sec", rounded(tasks_per_sec, 0)),
    ];
    if let Some(ratio) = vs_bench4 {
        simulate_section.push(("throughput_vs_bench4", rounded(ratio, 3)));
    }

    // Deterministic latency quantiles from the instrumented pass: the
    // histogram holds only simulated cycle counts, so these numbers
    // are byte-stable across runs and worker counts.
    let latency_section = metrics.histogram("sim.transfer.latency").map(|h| {
        obj(vec![
            ("count", Value::from(h.count())),
            ("p50_cycles", Value::from(h.quantile(0.50))),
            ("p90_cycles", Value::from(h.quantile(0.90))),
            ("p99_cycles", Value::from(h.quantile(0.99))),
        ])
    });

    let mut report_entries = vec![
        ("bench_id", Value::from(5u64)),
        ("host_parallelism", Value::from(host_parallelism)),
        (
            "sweep",
            obj(vec![
                ("points", Value::from(points.len())),
                ("iterations_per_point", Value::from(config.iterations)),
                ("sequential_secs", rounded(sequential_secs, 4)),
                ("parallel_secs", rounded(parallel_secs, 4)),
                ("parallel_jobs", Value::from(default_jobs)),
                ("speedup", rounded(speedup, 3)),
            ]),
        ),
        ("simulate", obj(simulate_section)),
        (
            "dp",
            obj(vec![
                ("items", Value::from(200u64)),
                ("capacity", Value::from(256u64)),
                (
                    "workload",
                    Value::from(
                        "incremental re-solve: one-item profit perturbation against a \
                         primed 200-item session (see cold_fills_per_sec for from-scratch fills)",
                    ),
                ),
                ("fills_per_sec", rounded(dp_fills_per_sec, 1)),
                ("cold_fills_per_sec", rounded(dp_cold_fills_per_sec, 1)),
                (
                    "incremental_speedup",
                    rounded(dp_fills_per_sec / dp_cold_fills_per_sec.max(1e-12), 1),
                ),
                (
                    "capacity_sweep_per_point_secs",
                    rounded(dp_per_point_secs, 6),
                ),
                ("capacity_sweep_fill_sweep_secs", rounded(dp_sweep_secs, 6)),
            ]),
        ),
        (
            "metrics",
            obj(vec![
                (
                    "events_simulated",
                    Value::from(metrics.counter("sim.events")),
                ),
                (
                    "dp_cells_filled",
                    Value::from(metrics.counter("dp.cells_filled")),
                ),
                (
                    "dp_incremental_hits",
                    Value::from(metrics.counter("dp.incremental_hits")),
                ),
                (
                    "dp_rows_reused",
                    Value::from(metrics.counter("dp.rows_reused")),
                ),
                ("sim_runs", Value::from(metrics.counter("sim.runs"))),
                ("tasks_validated", Value::from(metrics.counter("sim.tasks"))),
                (
                    "peak_cache_occupancy",
                    Value::from(metrics.gauge("sim.cache.peak_occupancy")),
                ),
                (
                    "peak_fifo_occupancy",
                    Value::from(metrics.gauge("sim.fifo.peak_occupancy")),
                ),
            ]),
        ),
    ];
    if let Some(latency) = latency_section {
        report_entries.push(("latency", latency));
    }
    let report = obj(report_entries);

    let mut json = serde_json::to_string_pretty(&report);
    json.push('\n');

    if let Err(e) = std::fs::write("BENCH_5.json", &json) {
        eprintln!("cannot write BENCH_5.json: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote BENCH_5.json");
}
