//! The traced layer replay: one plan request walked through each
//! layer's public function in the order a serve worker calls them,
//! timing every call from here and reading the spans and counters the
//! program already records.

use std::time::Instant;

use paraconv::obs;
use paraconv::pim::{simulate, PimConfig};
use paraconv::registry::{request_key, PlanBundle, PlanPolicy, Registry};
use paraconv::sched::{AllocationPolicy, ParaConvScheduler, SpartaScheduler};
use paraconv::serve::{parse_client_line, PlanCache, ServeResponse};
use paraconv::synth::benchmarks;

use crate::client::line_for;
use crate::gen::Req;

/// Repetitions of the sub-microsecond-scale calls (cache hit,
/// protocol), averaged.
const REPEATS: u32 = 20;

/// The scheduler's phase spans, in pipeline order, with the metric
/// each is reported as.
pub const SCHED_PHASES: [(&str, &str); 5] = [
    ("sched.kernel", "sched.kernel_ms"),
    ("sched.retime.analysis", "sched.retime_analysis_ms"),
    ("sched.alloc", "sched.alloc_ms"),
    ("sched.retime", "sched.retime_ms"),
    ("sched.emit", "sched.emit_ms"),
];

/// One request to replay: what the daemon would be asked, and the
/// architecture to plan it for.
#[derive(Debug, Clone)]
pub struct Item {
    /// The request.
    pub req: Req,
    /// The architecture (`PimConfig::neurocube(pes)` for daemon
    /// requests; the experiment harness's config for Table 1 points).
    pub config: PimConfig,
}

impl Item {
    /// A daemon request planned for `neurocube(pes)`, as the daemon
    /// does.
    ///
    /// # Errors
    ///
    /// For an invalid PE count.
    pub fn daemon(req: Req) -> Result<Item, String> {
        Ok(Item {
            req,
            config: PimConfig::neurocube(req.pes).map_err(|e| format!("config: {e}"))?,
        })
    }
}

/// Per-layer costs of one replayed request. Times are in seconds.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// The request key computed before planning.
    pub key: String,
    /// `Benchmark::graph`.
    pub graph: f64,
    /// `request_key`.
    pub request_key: f64,
    /// `PlanCache::get_or_compute` on a resident key.
    pub cache_hit: f64,
    /// `parse_client_line` plus `ServeResponse::to_json`.
    pub protocol: f64,
    /// `ParaConvScheduler::schedule`.
    pub schedule: f64,
    /// The scheduler's phase spans, as [`SCHED_PHASES`].
    pub phases: [f64; 5],
    /// `dp.cells_filled` counted during the schedule.
    pub cells_filled: u64,
    /// `verify::verify_outcome`.
    pub verify: f64,
    /// `PlanBundle::encode`.
    pub encode: f64,
    /// `Registry::put`.
    pub put: f64,
    /// Encoded artifact size in bytes.
    pub artifact_bytes: usize,
    /// `SpartaScheduler::schedule`.
    pub sparta: f64,
    /// `pim::simulate` of the Para-CONV plan.
    pub simulate: f64,
    /// `pim::simulate` of the SPARTA plan.
    pub simulate_sparta: f64,
    /// Planned tasks in the Para-CONV plan.
    pub tasks: usize,
    /// `sim.events` counted while simulating the Para-CONV plan.
    pub events: u64,
    /// Simulated Para-CONV `total_time`.
    pub paraconv_cycles: u64,
    /// Simulated SPARTA `total_time`.
    pub sparta_cycles: u64,
}

impl Layers {
    /// Seconds spent in all the timed calls.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.graph
            + self.request_key
            + self.schedule
            + self.verify
            + self.encode
            + self.put
            + self.sparta
            + self.simulate
            + self.simulate_sparta
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name)
}

/// Replays `item` layer by layer. Recording must be on (the caller
/// enables `paraconv_obs`) and no other thread may be recording.
///
/// # Errors
///
/// On any layer's failure.
pub fn replay(item: &Item, registry: &Registry) -> Result<Layers, String> {
    let req = item.req;
    let config = &item.config;
    let bench = benchmarks::by_name(req.benchmark)
        .ok_or_else(|| format!("unknown benchmark `{}`", req.benchmark))?;
    let mut l = Layers::default();

    let (graph, t) = timed(|| bench.graph());
    let graph = graph.map_err(|e| format!("{}: {e}", req.benchmark))?;
    l.graph = t;
    let policy = PlanPolicy {
        allocation: AllocationPolicy::DynamicProgram,
        iterations: req.iterations,
    };
    (l.key, l.request_key) = timed(|| request_key(&graph, config, &policy));

    let _ = obs::take_spans();
    let cells_before = counter("dp.cells_filled");
    let (outcome, t) = timed(|| {
        ParaConvScheduler::new(config.clone())
            .with_policy(policy.allocation)
            .schedule(&graph, req.iterations)
    });
    let outcome = outcome.map_err(|e| format!("schedule {req:?}: {e}"))?;
    l.schedule = t;
    l.cells_filled = counter("dp.cells_filled") - cells_before;
    for span in obs::take_spans() {
        if let Some(i) = SCHED_PHASES.iter().position(|(name, _)| *name == span.name) {
            l.phases[i] += span.dur_us as f64 * 1e-6;
        }
    }

    let (verified, t) = timed(|| paraconv::verify::verify_outcome(&graph, &outcome, config));
    verified.map_err(|e| format!("verify {req:?}: {e}"))?;
    l.verify = t;

    let bundle = PlanBundle {
        graph: graph.clone(),
        config: config.clone(),
        policy,
        outcome,
    };
    let (bytes, t) = timed(|| bundle.encode());
    l.encode = t;
    l.artifact_bytes = bytes.len();
    let (stored, t) = timed(|| registry.put(&l.key, &bytes));
    stored.map_err(|e| format!("put {req:?}: {e}"))?;
    l.put = t;

    let cache = PlanCache::new(None);
    let (first, _) = cache.get_or_compute(&l.key, true, || Ok(bytes.clone()));
    first.map_err(|e| format!("cache fill: {e}"))?;
    let start = Instant::now();
    for _ in 0..REPEATS {
        let (hit, _) = cache.get_or_compute(&l.key, true, || Err("not resident".into()));
        hit.map_err(|e| format!("cache hit: {e}"))?;
    }
    l.cache_hit = start.elapsed().as_secs_f64() / f64::from(REPEATS);

    let line = line_for(&req, "r", 0);
    let start = Instant::now();
    for _ in 0..REPEATS {
        parse_client_line(&line).map_err(|e| format!("protocol: {e}"))?;
        std::hint::black_box(ServeResponse::ok("r", l.key.as_str(), true).to_json());
    }
    l.protocol = start.elapsed().as_secs_f64() / f64::from(REPEATS);

    let (sparta, t) =
        timed(|| SpartaScheduler::new(config.clone()).schedule(&graph, req.iterations));
    let sparta = sparta.map_err(|e| format!("sparta {req:?}: {e}"))?;
    l.sparta = t;

    let plan = &bundle.outcome.plan;
    let events_before = counter("sim.events");
    let (report, t) = timed(|| simulate(&graph, plan, config));
    let report = report.map_err(|e| format!("simulate {req:?}: {e}"))?;
    l.simulate = t;
    l.events = counter("sim.events") - events_before;
    l.tasks = plan.tasks().len();
    l.paraconv_cycles = report.total_time;
    let (report, t) = timed(|| simulate(&graph, &sparta.plan, config));
    l.sparta_cycles = report
        .map_err(|e| format!("simulate sparta {req:?}: {e}"))?
        .total_time;
    l.simulate_sparta = t;
    Ok(l)
}
