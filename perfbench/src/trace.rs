//! The traced run (`--trace 1`): per-layer metrics for a workload.
//!
//! Three parts, all on the workload's own seeded inputs:
//!
//! 1. **daemon phases**, each sending the workload's own request loop
//!    to a fresh daemon: cold-plan's closed loop over its first round,
//!    serve-mix's open loop after the same warm-up and at the same fixed
//!    rate as its reference steps, and the 36
//!    Table 1 requests in a closed loop. The untraced phases give the
//!    end-to-end time the layers must account for; phases with
//!    recording on, alternating with them, give the engine's own
//!    `serve.latency_us` histogram, its counters and the tracing
//!    overhead;
//! 2. a **layer replay** that walks each distinct request through every
//!    layer's public function with `paraconv_obs` recording (see
//!    [`layers`]);
//! 3. a **pool pass** through `sweep::parallel_map` for the pool's busy
//!    share.
//!
//! Coverage (`obs.coverage_share`): for each request the untraced
//! phases timed, the self times of the layers on its path are summed
//! with the waits measured beside it (how late the generator sent it,
//! and how long it queued on its connection behind the previous
//! request), and the median of those sums is taken over the median
//! client latency of the same requests. On `cold-plan` a share outside
//! `1 ± COVERAGE_BOUND` fails the run; on `serve-mix` it is reported.
//!
//! [`layers`]: crate::layers

use std::collections::HashMap;
use std::time::Instant;

use paraconv::obs::{self, MetricsSnapshot};
use paraconv::registry::Registry;
use paraconv::serve::ServeStatus;
use paraconv::sweep;

use crate::checks::{check_conservation, check_keys, check_table1, Graphs};
use crate::client::{closed_loop, open_loop, ping_rtt, queue_rtt, Conn, Pacing, Server};
use crate::gen::{self, Arrival, Req};
use crate::layers::{replay, Item, Layers, SCHED_PHASES};
use crate::report::{Opts, Report};
use crate::stats::{geomean, median, quantile};
use crate::{serve_mix, table1_sweep};

/// How far the layer self times may miss the untraced end-to-end time
/// of the same requests, as a share of it.
const COVERAGE_BOUND: f64 = 0.25;

/// Iterations of the Table 1 requests sent to the daemon in the
/// table1-sweep trace (the paper's own count; 500-iteration artifacts
/// would take minutes to encode).
const TABLE1_DAEMON_ITERATIONS: u64 = 50;

/// Pings timed per daemon phase for the socket round trip.
const PINGS: usize = 200;

/// Seconds of serve-mix reference traffic per daemon phase.
const SERVE_MIX_PHASE_S: f64 = 2.0;

/// Time limit of a closed-loop phase: far beyond its whole stream.
const UNTIMED_S: f64 = 3600.0;

/// What a daemon phase sends.
enum Load {
    /// A closed loop over these requests, one connection per core.
    Closed(Vec<Req>),
    /// The hot set planned one request at a time, then an open loop of
    /// the arrivals.
    Open {
        hot: Vec<Req>,
        arrivals: Vec<Arrival>,
    },
}

/// One answered request of a daemon phase.
#[derive(Debug, Clone, Copy)]
struct Counted {
    req: Req,
    ok: bool,
    hit: bool,
    /// Seconds it waited before the daemon could read it: generator
    /// lateness plus the wait behind the previous request on its
    /// connection (open loop only).
    wait: f64,
    /// Client seconds: from the due send time in the open loop, from
    /// the send in the closed loop.
    secs: f64,
}

/// One daemon phase's observations.
struct Phase {
    counted: Vec<Counted>,
    /// Mean `ping` round trip, seconds.
    rtt: f64,
    /// Mean round trip of an expired plan request, seconds.
    queue_rtt: f64,
    /// What recording collected (traced phase only).
    snapshot: Option<MetricsSnapshot>,
}

fn daemon_phase(
    opts: &Opts,
    name: &str,
    load: &Load,
    graphs: &mut Graphs,
    traced: bool,
) -> Result<Phase, String> {
    let server = Server::start(&opts.work.join(name), opts.jobs)?;
    let mut conns = (0..opts.jobs)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    if let Load::Open { hot, .. } = load {
        serve_mix::warm(&mut conns, hot)?;
    }
    if traced {
        obs::reset();
        obs::enable();
    }
    let mut answered = Vec::new();
    let mut counted = Vec::new();
    match load {
        Load::Closed(reqs) => {
            let (answers, _) = closed_loop(conns, reqs, reqs.len(), UNTIMED_S)?;
            for a in answers {
                let req = reqs[a.index];
                counted.push(Counted {
                    req,
                    ok: a.response.status == ServeStatus::Ok,
                    hit: a.response.cached == Some(true),
                    wait: 0.0,
                    secs: a.latency_s,
                });
                answered.push((req, a.response));
            }
        }
        Load::Open { arrivals, .. } => {
            let (timed, conns) = open_loop(conns, arrivals, Pacing::Due)?;
            drop(conns);
            for t in timed {
                counted.push(Counted {
                    req: t.arrival.req,
                    ok: t.response.status == ServeStatus::Ok,
                    hit: t.response.cached == Some(true),
                    wait: t.late_s + t.queued_s,
                    secs: t.latency_s,
                });
                answered.push((t.arrival.req, t.response));
            }
        }
    }
    let mut conn = Conn::connect(server.addr())?;
    let rtt = ping_rtt(&mut conn, PINGS)?;
    let queue_rtt = queue_rtt(&mut conn, PINGS)?;
    drop(conn);
    let stats = server.shutdown();
    let snapshot = traced.then(|| {
        let snapshot = obs::snapshot();
        obs::disable();
        let _ = obs::take_spans();
        snapshot
    });
    check_conservation(&stats)?;
    check_keys(answered.iter().map(|(r, s)| (r, s)), graphs, opts.inject)?;
    Ok(Phase {
        counted,
        rtt,
        queue_rtt,
        snapshot,
    })
}

/// What one workload's trace runs.
struct TracePlan {
    /// Distinct requests replayed layer by layer.
    items: Vec<Item>,
    /// How many requests of the workload each item stands for.
    weights: Vec<f64>,
    /// What each daemon phase sends.
    load: Load,
    /// The workload's latency metric times hits only (serve-mix).
    hits_only: bool,
}

fn plan_for(workload: &str, opts: &Opts) -> Result<TracePlan, String> {
    match workload {
        "cold-plan" => {
            let reqs: Vec<Req> = gen::cold_stream(opts.seed)[..gen::ROUND].to_vec();
            Ok(TracePlan {
                items: reqs
                    .iter()
                    .map(|r| Item::daemon(*r))
                    .collect::<Result<_, _>>()?,
                weights: vec![1.0; reqs.len()],
                load: Load::Closed(reqs),
                hits_only: false,
            })
        }
        "serve-mix" => {
            let hot = gen::hot_set(opts.seed);
            let fresh = gen::fresh_stream(opts.seed);
            let mut next_fresh = 0;
            let arrivals = gen::arrivals(
                opts.seed,
                0,
                serve_mix::REF_RATE,
                SERVE_MIX_PHASE_S,
                &hot,
                &fresh,
                &mut next_fresh,
            );
            let mut distinct: Vec<Req> = hot.clone();
            let mut counts: HashMap<Req, f64> = HashMap::new();
            for a in &arrivals {
                if !distinct.contains(&a.req) {
                    distinct.push(a.req);
                }
                *counts.entry(a.req).or_default() += 1.0;
            }
            Ok(TracePlan {
                weights: distinct
                    .iter()
                    .map(|r| counts.get(r).copied().unwrap_or(0.0))
                    .collect(),
                items: distinct
                    .iter()
                    .map(|r| Item::daemon(*r))
                    .collect::<Result<_, _>>()?,
                load: Load::Open { hot, arrivals },
                hits_only: true,
            })
        }
        "table1-sweep" => {
            let points = table1_sweep::points()?;
            let items: Vec<Item> = points
                .iter()
                .map(|p| Item {
                    req: Req {
                        benchmark: p.benchmark.name(),
                        pes: p.config.num_pes(),
                        iterations: p.iterations,
                    },
                    config: p.config.clone(),
                })
                .collect();
            let reqs = items
                .iter()
                .map(|i| Req {
                    iterations: TABLE1_DAEMON_ITERATIONS,
                    ..i.req
                })
                .collect();
            Ok(TracePlan {
                weights: vec![1.0; items.len()],
                items,
                load: Load::Closed(reqs),
                hits_only: false,
            })
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Weighted mean of `f` over the replayed items.
fn wmean(layers: &[Layers], weights: &[f64], f: impl Fn(&Layers) -> f64) -> f64 {
    let total: f64 = weights.iter().sum();
    layers
        .iter()
        .zip(weights)
        .map(|(l, w)| f(l) * w)
        .sum::<f64>()
        / total
}

/// The self time a request spends in the layers on its path: the
/// daemon's front (socket, protocol, admission queue), then the hit
/// path stops at the cache while a miss plans, verifies, encodes and
/// stores.
fn path_seconds(l: &Layers, hit: bool, front_rtt: f64) -> f64 {
    let front = front_rtt + l.graph + l.request_key;
    if hit {
        front + l.cache_hit
    } else {
        front + l.schedule + l.verify + l.encode + l.put
    }
}

/// Replay and untraced daemon-phase passes: per-item medians over the
/// replays are kept, and the phases' requests are pooled, which steadies
/// the coverage check. One pass for table1-sweep, whose 500-iteration
/// replay takes seconds per pass.
fn passes(workload: &str) -> usize {
    if workload == "table1-sweep" {
        1
    } else {
        5
    }
}

/// Replays every item once, recording on, into a fresh registry.
fn replay_pass(opts: &Opts, items: &[Item], pass: usize) -> Result<Vec<Layers>, String> {
    let registry = Registry::open(opts.work.join(format!("trace-replay-{pass}")))
        .map_err(|e| format!("open registry: {e}"))?;
    obs::reset();
    obs::enable();
    let replayed: Result<Vec<Layers>, String> =
        items.iter().map(|item| replay(item, &registry)).collect();
    obs::disable();
    let _ = obs::take_spans();
    replayed
}

/// The median of `values` by `key` (the upper one of an even count).
fn median_by<T: Clone>(mut values: Vec<T>, key: impl Fn(&T) -> f64) -> T {
    values.sort_by(|a, b| key(a).total_cmp(&key(b)));
    values[values.len() / 2].clone()
}

/// Runs the traced run of `workload` and reports every per-layer metric.
///
/// # Errors
///
/// On any failure, a failed output check, or coverage out of bounds.
pub fn trace(opts: &Opts, workload: &str) -> Result<Report, String> {
    let mut graphs = Graphs::all()?;
    let plan = plan_for(workload, opts)?;

    // 1 and 2. Untraced and traced daemon phases alternate with traced
    // layer replays, so a drift of the host moves all three alike.
    let mut plains = Vec::new();
    let mut traceds = Vec::new();
    let mut replays = Vec::new();
    for pass in 0..passes(workload) {
        for (phases, traced, kind) in [
            (&mut plains, false, "plain"),
            (&mut traceds, true, "traced"),
        ] {
            phases.push(daemon_phase(
                opts,
                &format!("trace-{kind}-{pass}"),
                &plan.load,
                &mut graphs,
                traced,
            )?);
        }
        replays.push(replay_pass(opts, &plan.items, pass)?);
    }
    let layers: Vec<Layers> = (0..plan.items.len())
        .map(|i| {
            median_by(
                replays.iter().map(|r| r[i].clone()).collect(),
                Layers::total,
            )
        })
        .collect();
    // Items planned for the daemon's architecture must reproduce the
    // key the generator computes (Table 1 points use the harness's).
    for (item, l) in plan.items.iter().zip(&layers) {
        if Item::daemon(item.req)?.config == item.config
            && l.key != graphs.expected_key(&item.req)?
        {
            return Err(format!("trace: replayed key of {:?} differs", item.req));
        }
    }
    if workload == "table1-sweep" {
        let times: Vec<_> = layers
            .iter()
            .map(|l| crate::checks::PointTimes {
                paraconv: l.paraconv_cycles,
                sparta: l.sparta_cycles,
            })
            .collect();
        check_table1(&times, table1_sweep::pins(opts.inject))?;
    }

    // The engine's histogram and counters come from the last traced
    // phase; client times pool every phase.
    let traced = traceds.last().ok_or("no traced phase")?;
    let snapshot = traced
        .snapshot
        .as_ref()
        .ok_or("traced daemon phase recorded nothing")?;
    let engine = snapshot
        .histogram("serve.latency_us")
        .ok_or("traced daemon phase recorded no serve.latency_us")?;
    let (engine_p50, engine_p99) = (engine.quantile(0.5), engine.quantile(0.99));
    // The requests the workload's latency metric times: hits on
    // serve-mix, every answered request elsewhere.
    let timed = |phase: &Phase| -> Vec<Counted> {
        phase
            .counted
            .iter()
            .filter(|c| c.ok && (c.hit || !plan.hits_only))
            .copied()
            .collect()
    };
    let p50 = |counted: &[Counted]| {
        median(&counted.iter().map(|c| c.secs).collect::<Vec<_>>())
            .ok_or("trace: no timed requests")
    };
    let plain: Vec<Counted> = plains.iter().flat_map(&timed).collect();
    let plain_p50 = p50(&plain)?;
    let traced_p50 = p50(&traceds.iter().flat_map(&timed).collect::<Vec<_>>())?;
    let plain_rtt = median(&plains.iter().map(|p| p.rtt).collect::<Vec<_>>()).ok_or("no phase")?;
    let plain_queue_rtt =
        median(&plains.iter().map(|p| p.queue_rtt).collect::<Vec<_>>()).ok_or("no phase")?;
    let miss_ms: Vec<f64> = traceds
        .iter()
        .flat_map(|p| &p.counted)
        .filter(|c| c.ok && !c.hit)
        .map(|c| c.secs * 1e3)
        .collect();

    // 3. Pool pass, untraced, for the pool's busy share; and for
    //    table1-sweep the untraced and traced whole comparisons.
    let (busy_share, overhead, coverage) = if workload == "table1-sweep" {
        let points = table1_sweep::points()?;
        let start = Instant::now();
        let jobs = sweep::parallel_map(&points, opts.jobs, |p| {
            let t = Instant::now();
            p.compare().map(|_| t.elapsed().as_secs_f64())
        });
        let wall = start.elapsed().as_secs_f64();
        let busy: f64 = jobs
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?
            .iter()
            .sum();
        let mut plain_s = 0.0;
        let mut traced_s = 0.0;
        for p in &points {
            let t = Instant::now();
            p.compare().map_err(|e| e.to_string())?;
            plain_s += t.elapsed().as_secs_f64();
            obs::reset();
            obs::enable();
            let t = Instant::now();
            let r = p.compare();
            traced_s += t.elapsed().as_secs_f64();
            obs::disable();
            let _ = obs::take_spans();
            r.map_err(|e| e.to_string())?;
        }
        let layer_s: f64 = layers
            .iter()
            .map(|l| l.graph + l.schedule + l.sparta + l.simulate + l.simulate_sparta)
            .sum();
        (
            busy / (wall * opts.jobs as f64),
            (traced_s - plain_s) / plain_s,
            layer_s / plain_s,
        )
    } else {
        let start = Instant::now();
        let jobs = sweep::parallel_map(&plan.items, opts.jobs, |item| {
            let t = Instant::now();
            let bench = paraconv::synth::benchmarks::by_name(item.req.benchmark)
                .ok_or("unknown benchmark")?;
            let graph = bench.graph().map_err(|e| e.to_string())?;
            let outcome = paraconv::sched::ParaConvScheduler::new(item.config.clone())
                .schedule(&graph, item.req.iterations)
                .map_err(|e| e.to_string())?;
            paraconv::verify::verify_outcome(&graph, &outcome, &item.config)
                .map_err(|e| e.to_string())?;
            Ok::<f64, String>(t.elapsed().as_secs_f64())
        });
        let wall = start.elapsed().as_secs_f64();
        let busy: f64 = jobs
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .iter()
            .sum();
        let by_req: HashMap<Req, &Layers> = plan.items.iter().map(|i| i.req).zip(&layers).collect();
        let mut accounted = Vec::with_capacity(plain.len());
        for c in &plain {
            let l = by_req
                .get(&c.req)
                .ok_or_else(|| format!("trace: {:?} was not replayed", c.req))?;
            accounted.push(c.wait + path_seconds(l, c.hit, plain_queue_rtt));
        }
        let coverage = median(&accounted).ok_or("trace: no timed requests")? / plain_p50;
        let waits: Vec<f64> = plain.iter().map(|c| c.wait * 1e3).collect();
        eprintln!(
            "trace {workload}: untraced p50 {:.3} ms, traced p50 {:.3} ms, wait before the \
             daemon reads a request p50 {:.3} ms p90 {:.3} ms",
            plain_p50 * 1e3,
            traced_p50 * 1e3,
            quantile(&waits, 0.5).unwrap_or(0.0),
            quantile(&waits, 0.9).unwrap_or(0.0),
        );
        // Enforced on cold-plan only. A serve-mix hit spends most of its
        // time in the socket between layers (the daemon's responses wait
        // on Nagle's algorithm, see the README), which no layer owns;
        // its share is reported, not checked.
        if workload == "cold-plan" && (coverage - 1.0).abs() > COVERAGE_BOUND {
            return Err(format!(
                "trace: layer self times and waits cover {coverage:.3} of the untraced \
                 end-to-end median, outside 1 ± {COVERAGE_BOUND}"
            ));
        }
        (
            busy / (wall * opts.jobs as f64),
            traced_p50 / plain_p50 - 1.0,
            coverage,
        )
    };

    let w = &plan.weights;
    let us = |f: &dyn Fn(&Layers) -> f64| wmean(&layers, w, f) * 1e6;
    let ms = |f: &dyn Fn(&Layers) -> f64| wmean(&layers, w, f) * 1e3;
    let tasks_per_s: Vec<f64> = layers.iter().map(|l| l.tasks as f64 / l.simulate).collect();
    let q = |p: f64| quantile(&tasks_per_s, p).unwrap_or(0.0);

    let phases = || plains.iter().chain(&traceds).flat_map(|p| &p.counted);
    let mut report = Report {
        attempted: (plan.items.len() * replays.len() + phases().count()) as u64,
        failed: phases().filter(|c| !c.ok).count() as u64,
        ..Report::default()
    };
    report.push("synth.graph_us", us(&|l| l.graph), "us");
    report.push("registry.request_key_us", us(&|l| l.request_key), "us");
    report.push("serve.cache_hit_us", us(&|l| l.cache_hit), "us");
    report.push("serve.protocol_us", us(&|l| l.protocol), "us");
    report.push("serve.socket_rtt_us", plain_rtt * 1e6, "us");
    report.push("serve.queue_rtt_us", plain_queue_rtt * 1e6, "us");
    report.push("serve.engine_p50_us", engine_p50 as f64, "us");
    report.push("serve.engine_p99_us", engine_p99 as f64, "us");
    report.push(
        "serve.socket_wait_us",
        plain_p50 * 1e6 - engine_p50 as f64,
        "us",
    );
    report.push(
        "serve.hit_share",
        snapshot.counter("serve.hits") as f64 / snapshot.counter("serve.served").max(1) as f64,
        "ratio",
    );
    report.push(
        "serve.misses",
        snapshot.counter("serve.misses") as f64,
        "count",
    );
    report.push("serve.shed", snapshot.counter("serve.shed") as f64, "count");
    report.push(
        "serve.miss_p50_ms",
        quantile(&miss_ms, 0.5).ok_or("no misses traced")?,
        "ms",
    );
    report.push("sched.schedule_ms", ms(&|l| l.schedule), "ms");
    for (i, (_, metric)) in SCHED_PHASES.iter().enumerate() {
        report.push(metric, ms(&|l| l.phases[i]), "ms");
    }
    report.push(
        "alloc.cells_filled",
        wmean(&layers, w, |l| l.cells_filled as f64),
        "count",
    );
    report.push("verify.outcome_ms", ms(&|l| l.verify), "ms");
    report.push("registry.encode_ms", ms(&|l| l.encode), "ms");
    report.push("registry.put_ms", ms(&|l| l.put), "ms");
    report.push(
        "registry.artifact_kb",
        wmean(&layers, w, |l| l.artifact_bytes as f64) / 1024.0,
        "KiB",
    );
    report.push("sched.sparta_ms", ms(&|l| l.sparta), "ms");
    report.push("pim.simulate_ms", ms(&|l| l.simulate), "ms");
    report.push("pim.tasks_per_s", q(0.5), "1/s");
    report.push("pim.tasks_per_s_q1", q(0.25), "1/s");
    report.push("pim.tasks_per_s_q3", q(0.75), "1/s");
    report.push(
        "pim.events",
        wmean(&layers, w, |l| l.events as f64),
        "count",
    );
    let cycles: Vec<f64> = layers.iter().map(|l| l.paraconv_cycles as f64).collect();
    let speedups: Vec<f64> = layers
        .iter()
        .map(|l| l.sparta_cycles as f64 / l.paraconv_cycles as f64)
        .collect();
    report.push(
        "pim.sim_cycles_geomean",
        geomean(&cycles).ok_or("no cycles")?,
        "cycles",
    );
    report.push(
        "pim.speedup_vs_sparta",
        geomean(&speedups).ok_or("no speedups")?,
        "ratio",
    );
    report.push("sweep.busy_share", busy_share, "ratio");
    report.push("obs.overhead_share", overhead, "ratio");
    report.push("obs.coverage_share", coverage, "ratio");
    eprintln!(
        "trace {workload}: {} items replayed, {} requests per daemon phase, coverage {coverage:.3}",
        plan.items.len(),
        traced.counted.len()
    );
    Ok(report)
}
