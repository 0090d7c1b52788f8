//! The SPARTA baseline (Donyanavard et al., CODES'16) re-implemented
//! for the PIM array.
//!
//! SPARTA is a *throughput-aware runtime task allocator* for many-core
//! platforms: it collects sensor data to characterize tasks and uses
//! the characterization to prioritize tasks during allocation. Applied
//! to the CNN dataflow it:
//!
//! * keeps intra-iteration data dependencies *intra-iteration* (no
//!   retiming — the distinguishing difference from Para-CONV);
//! * co-schedules several independent iterations when PEs outnumber the
//!   application's average parallelism, exactly as in the paper's
//!   Figure 3(a) motivational example;
//! * allocates IPRs to the on-chip cache greedily by characterized
//!   criticality (no dynamic program).
//!
//! Both schedulers emit plans for the same validating simulator, so the
//! comparison isolates the scheduling policy. A SPARTA plan is one
//! batch template repeated back to back, then a tail batch, so its core
//! is that [`PeriodicPlan`].

use paraconv_alloc::{AllocItem, CacheAllocator};
use paraconv_graph::{NodeId, Placement, TaskGraph};
use paraconv_pim::{
    CostModel, ExecutionPlan, PeId, PeriodicPlan, PimConfig, PlannedTask, PlannedTransfer,
};

use crate::SchedError;

/// How the baseline fills its cache — greedy (SPARTA's own behaviour)
/// or the Para-CONV dynamic program grafted on, which isolates the
/// *retiming* contribution in ablation studies (DP allocation without
/// retiming vs full Para-CONV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BaselineCachePolicy {
    /// Greedy by consumer criticality (the re-implemented SPARTA).
    #[default]
    Greedy,
    /// The §3.3 knapsack with profit = transfer time saved per
    /// iteration.
    OptimalDp,
}

/// The periodic core of a SPARTA run: the batch template, repeated
/// every batch makespan, then the tail batch.
#[derive(Debug, Clone)]
pub struct SpartaCore {
    periodic: PeriodicPlan,
    cached_iprs: usize,
}

impl SpartaCore {
    /// The run's plan as one batch (iterations `1..=copies` at time 0)
    /// repeated every batch makespan, then the tail batch.
    #[must_use]
    pub const fn periodic(&self) -> &PeriodicPlan {
        &self.periodic
    }

    /// Makespan of one full batch of co-scheduled iterations.
    #[must_use]
    pub const fn batch_makespan(&self) -> u64 {
        self.periodic.period()
    }

    /// Iterations co-scheduled per batch.
    #[must_use]
    pub const fn copies_per_batch(&self) -> u64 {
        self.periodic.group().iterations()
    }

    /// IPRs (per iteration) the cache policy placed in cache.
    #[must_use]
    pub const fn cached_iprs(&self) -> usize {
        self.cached_iprs
    }

    /// Effective steady-state time per iteration.
    #[must_use]
    pub fn time_per_iteration(&self) -> f64 {
        self.batch_makespan() as f64 / self.copies_per_batch() as f64
    }
}

/// Result of scheduling a run with the SPARTA baseline: the core and
/// the plan it unrolls to.
#[derive(Debug, Clone)]
pub struct SpartaOutcome {
    /// The periodic core.
    pub core: SpartaCore,
    /// The concrete plan, ready for [`paraconv_pim::simulate`].
    pub plan: ExecutionPlan,
}

/// Sensor-driven task characterization: SPARTA observes each task's
/// load on the fabric and derives an allocation priority. In the
/// deterministic dataflow setting the observed load converges to the
/// task's downstream workload, so the priority is the classic bottom
/// level refined by the task's own execution time.
fn characterize(graph: &TaskGraph) -> Vec<u64> {
    let bottom = graph.bottom_levels();
    graph
        .node_ids()
        .map(|id| {
            // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
            let c = graph.node(id).expect("iterating own ids").exec_time();
            // Bottom level dominates; heavier tasks tie-break first.
            bottom[id.index()] * 64 + c
        })
        .collect()
}

/// The SPARTA scheduler for a fixed architecture.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_pim::{simulate, PimConfig};
/// use paraconv_sched::SpartaScheduler;
///
/// let g = examples::motivational();
/// let cfg = PimConfig::neurocube(16)?;
/// let outcome = SpartaScheduler::new(cfg.clone()).schedule(&g, 8)?;
/// let report = simulate(&g, &outcome.plan, &cfg)?;
/// assert_eq!(report.iterations, 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpartaScheduler {
    config: PimConfig,
    cache_policy: BaselineCachePolicy,
}

impl SpartaScheduler {
    /// Creates a scheduler targeting `config` with SPARTA's greedy
    /// cache policy.
    #[must_use]
    pub fn new(config: PimConfig) -> Self {
        SpartaScheduler {
            config,
            cache_policy: BaselineCachePolicy::Greedy,
        }
    }

    /// Overrides the cache policy (ablation studies).
    #[must_use]
    pub fn with_cache_policy(mut self, policy: BaselineCachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// The architecture this scheduler targets.
    #[must_use]
    pub const fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Schedules `iterations` iterations of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ZeroIterations`] for `iterations == 0`
    /// and [`SchedError::PlanTooLarge`] when the plan cannot be
    /// allocated.
    pub fn schedule(
        &self,
        graph: &TaskGraph,
        iterations: u64,
    ) -> Result<SpartaOutcome, SchedError> {
        let _span = paraconv_obs::span("sched.sparta", "sched");
        let core = self.core(graph, iterations)?;
        let plan = core
            .periodic
            .materialize()
            .map_err(|_| SchedError::PlanTooLarge { iterations })?;
        Ok(SpartaOutcome { core, plan })
    }

    /// Schedules `iterations` iterations of `graph` without unrolling
    /// them: the core whose [`SpartaCore::periodic`] plan
    /// [`schedule`](Self::schedule) materializes.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ZeroIterations`] for `iterations == 0`.
    pub fn schedule_core(
        &self,
        graph: &TaskGraph,
        iterations: u64,
    ) -> Result<SpartaCore, SchedError> {
        let _span = paraconv_obs::span("sched.sparta", "sched");
        self.core(graph, iterations)
    }

    fn core(&self, graph: &TaskGraph, iterations: u64) -> Result<SpartaCore, SchedError> {
        if iterations == 0 {
            return Err(SchedError::ZeroIterations);
        }
        let cost = CostModel::new(&self.config, graph.edge_count());
        let n_pes = self.config.num_pes();

        // Average parallelism bounds how many PEs one iteration can
        // use; spare PEs host additional concurrent iterations.
        let work = graph.total_exec_time();
        let cp = graph.critical_path_length().max(1);
        let avg_parallelism = work.div_ceil(cp).max(1);
        let copies = (n_pes as u64 / avg_parallelism)
            .clamp(1, n_pes as u64)
            .min(iterations);

        // Cache allocation, bounded so that all co-scheduled copies
        // fit.
        let priority = characterize(graph);
        let capacity = self.config.total_cache_units();
        let mut placements = vec![Placement::Edram; graph.edge_count()];
        let mut cached_iprs = 0usize;
        match self.cache_policy {
            BaselineCachePolicy::Greedy => {
                // Greedy by characterized criticality of the consumer.
                let mut edge_order: Vec<_> = graph.edge_ids().collect();
                edge_order.sort_by_key(|&e| {
                    // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
                    let ipr = graph.edge(e).expect("iterating own ids");
                    (std::cmp::Reverse(priority[ipr.dst().index()]), e)
                });
                let mut used = 0u64;
                for e in edge_order {
                    // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
                    let size = graph.edge(e).expect("iterating own ids").size();
                    let need = size * copies;
                    if used + need <= capacity {
                        used += need;
                        placements[e.index()] = Placement::Cache;
                        cached_iprs += 1;
                    }
                }
            }
            BaselineCachePolicy::OptimalDp => {
                // Knapsack with profit = per-iteration transfer time
                // saved by caching.
                let items: Vec<AllocItem> = graph
                    .edges()
                    .map(|ipr| {
                        let saved = cost.edram_transfer_time(ipr.size())
                            - cost.cache_transfer_time(ipr.size());
                        AllocItem::new(
                            ipr.id(),
                            ipr.size() * copies,
                            saved,
                            priority[ipr.dst().index()],
                        )
                    })
                    .collect();
                let allocation = CacheAllocator::new(capacity).allocate(items);
                placements = allocation.to_placement_vec(graph.edge_count());
                cached_iprs = allocation.cached_count();
            }
        }
        let transfer_time: Vec<u64> = graph
            .edges()
            .map(|ipr| cost.transfer_time(ipr.size(), placements[ipr.id().index()]))
            .collect();

        // Schedule one template batch of `copies` independent copies
        // with priority list scheduling, repeated back to back; the
        // leftover iterations get a batch of their own.
        let batch = |copies: u64| {
            let template = schedule_batch(graph, copies as usize, n_pes, &priority, &transfer_time);
            let plan = emit_batch(graph, &template, copies, &placements, &transfer_time);
            (plan, template.makespan)
        };
        let (group, period) = batch(copies);
        let tail = match iterations % copies {
            0 => ExecutionPlan::default(),
            remainder => batch(remainder).0,
        };
        Ok(SpartaCore {
            periodic: PeriodicPlan::new(group, period, iterations / copies, tail),
            cached_iprs,
        })
    }
}

/// A scheduled batch template: per `(copy, node)` the PE, start and
/// finish, relative to the batch origin.
struct BatchTemplate {
    /// `slot[copy * n + node]`.
    pe: Vec<PeId>,
    start: Vec<u64>,
    finish: Vec<u64>,
    makespan: u64,
}

/// Priority list scheduling of `copies` independent copies of `graph`
/// on `n_pes` engines, honouring intra-iteration dependencies plus the
/// placement-dependent transfer latency on every edge.
fn schedule_batch(
    graph: &TaskGraph,
    copies: usize,
    n_pes: usize,
    priority: &[u64],
    transfer_time: &[u64],
) -> BatchTemplate {
    let n = graph.node_count();
    let total = n * copies;
    let mut remaining_preds: Vec<usize> = Vec::with_capacity(total);
    for copy in 0..copies {
        let _ = copy;
        for id in graph.node_ids() {
            // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
            remaining_preds.push(graph.in_degree(id).expect("iterating own ids"));
        }
    }
    // Ready queue keyed by (priority desc, copy, node) for determinism.
    let mut ready: std::collections::BinaryHeap<(u64, std::cmp::Reverse<usize>)> =
        std::collections::BinaryHeap::new();
    for (slot, &preds) in remaining_preds.iter().enumerate() {
        if preds == 0 {
            ready.push((priority[slot % n], std::cmp::Reverse(slot)));
        }
    }

    let mut pe = vec![PeId::new(0); total];
    let mut start = vec![0u64; total];
    let mut finish = vec![0u64; total];
    let mut scheduled = vec![false; total];
    let mut avail = vec![0u64; n_pes];

    while let Some((_, std::cmp::Reverse(slot))) = ready.pop() {
        let copy = slot / n;
        let node = NodeId::new((slot % n) as u32);
        // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
        let c = graph.node(node).expect("node id in range").exec_time();
        // Earliest start permitted by data dependencies (producer
        // finish + transfer latency).
        let est = graph
            .in_edges(node)
            // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
            .expect("node id in range")
            .iter()
            .map(|&e| {
                // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
                let ipr = graph.edge(e).expect("edge from adjacency");
                finish[copy * n + ipr.src().index()] + transfer_time[e.index()]
            })
            .max()
            .unwrap_or(0);
        // Earliest-finishing PE given the dependency bound.
        let (best_pe, _) = avail
            .iter()
            .enumerate()
            .min_by_key(|&(i, &t)| (t.max(est), i))
            // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
            .expect("at least one PE");
        let s = avail[best_pe].max(est);
        pe[slot] = PeId::new(best_pe as u32);
        start[slot] = s;
        finish[slot] = s + c;
        avail[best_pe] = s + c;
        scheduled[slot] = true;

        // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
        for &e in graph.out_edges(node).expect("node id in range") {
            // lint: allow(no-unwrap) — baseline scheduler invariants: every scheduled node has a slot and PE
            let dst = graph.edge(e).expect("edge from adjacency").dst();
            let dst_slot = copy * n + dst.index();
            remaining_preds[dst_slot] -= 1;
            if remaining_preds[dst_slot] == 0 {
                ready.push((priority[dst.index()], std::cmp::Reverse(dst_slot)));
            }
        }
    }
    debug_assert!(scheduled.iter().all(|&s| s), "all tasks scheduled");

    let makespan = finish.iter().copied().max().unwrap_or(0).max(1);
    BatchTemplate {
        pe,
        start,
        finish,
        makespan,
    }
}

/// The plan of one batch: iterations `1..=copies` of the template,
/// starting at time 0.
fn emit_batch(
    graph: &TaskGraph,
    template: &BatchTemplate,
    copies: u64,
    placements: &[Placement],
    transfer_time: &[u64],
) -> ExecutionPlan {
    let n = graph.node_count();
    let mut plan = ExecutionPlan::new(copies);
    for copy in 0..copies as usize {
        let iteration = copy as u64 + 1;
        for node in graph.nodes() {
            let slot = copy * n + node.id().index();
            plan.push_task(PlannedTask {
                node: node.id(),
                iteration,
                pe: template.pe[slot],
                start: template.start[slot],
                duration: node.exec_time(),
            });
        }
        for ipr in graph.edges() {
            let i = ipr.id().index();
            let src_slot = copy * n + ipr.src().index();
            let dst_slot = copy * n + ipr.dst().index();
            plan.push_transfer(PlannedTransfer {
                edge: ipr.id(),
                iteration,
                placement: placements[i],
                start: template.finish[src_slot],
                duration: transfer_time[i],
                dst_pe: template.pe[dst_slot],
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_pim::simulate;

    fn run(
        graph: &TaskGraph,
        pes: usize,
        iterations: u64,
    ) -> (SpartaOutcome, paraconv_pim::SimReport) {
        let cfg = PimConfig::neurocube(pes).unwrap();
        let outcome = SpartaScheduler::new(cfg.clone())
            .schedule(graph, iterations)
            .unwrap();
        let report = simulate(graph, &outcome.plan, &cfg).unwrap();
        // Every emitted plan must also satisfy the independent auditor.
        paraconv_pim::audit(graph, &outcome.plan, &cfg, &report).unwrap();
        (outcome, report)
    }

    #[test]
    fn motivational_plan_validates() {
        let g = examples::motivational();
        let (outcome, report) = run(&g, 4, 8);
        assert_eq!(report.iterations, 8);
        assert!(outcome.core.copies_per_batch() >= 1);
        assert!(outcome.plan.makespan() > 0);
    }

    #[test]
    fn co_schedules_iterations_when_pes_spare() {
        // Width-2 graph on 16 PEs: several copies per batch.
        let g = examples::motivational(); // W=5, CP=3 → parallelism 2
        let cfg = PimConfig::neurocube(16).unwrap();
        let outcome = SpartaScheduler::new(cfg).schedule(&g, 16).unwrap();
        assert!(
            outcome.core.copies_per_batch() > 1,
            "copies={}",
            outcome.core.copies_per_batch()
        );
    }

    #[test]
    fn single_pe_serializes_every_iteration() {
        let g = examples::chain(3);
        let (outcome, report) = run(&g, 1, 4);
        assert_eq!(outcome.core.copies_per_batch(), 1);
        // On one PE the busy time is all 12 task units.
        assert!(report.total_time >= 12);
    }

    #[test]
    fn respects_iteration_remainders() {
        let g = examples::motivational();
        for iters in [1, 3, 7, 10] {
            let (_, report) = run(&g, 16, iters);
            assert_eq!(report.iterations, iters);
        }
    }

    #[test]
    fn batch_makespan_at_least_critical_path() {
        let g = examples::chain(6);
        let (outcome, _) = run(&g, 8, 4);
        assert!(outcome.core.batch_makespan() >= g.critical_path_length());
    }

    #[test]
    fn zero_iterations_rejected() {
        let g = examples::chain(2);
        let cfg = PimConfig::neurocube(16).unwrap();
        assert_eq!(
            SpartaScheduler::new(cfg).schedule(&g, 0).unwrap_err(),
            SchedError::ZeroIterations
        );
    }

    #[test]
    fn dp_cache_policy_never_moves_more_offchip() {
        let g = examples::fork_join(14);
        let cfg = PimConfig::builder(8).per_pe_cache_units(2).build().unwrap();
        let greedy = SpartaScheduler::new(cfg.clone()).schedule(&g, 4).unwrap();
        let dp = SpartaScheduler::new(cfg.clone())
            .with_cache_policy(BaselineCachePolicy::OptimalDp)
            .schedule(&g, 4)
            .unwrap();
        let r_greedy = simulate(&g, &greedy.plan, &cfg).unwrap();
        let r_dp = simulate(&g, &dp.plan, &cfg).unwrap();
        // The knapsack maximizes transfer time saved, so saved time
        // (and with uniform sizes, units kept on chip) is at least the
        // greedy policy's.
        assert!(r_dp.onchip_units_moved >= r_greedy.onchip_units_moved);
    }

    #[test]
    fn greedy_cache_respects_capacity() {
        let g = examples::fork_join(16);
        let cfg = PimConfig::builder(4).per_pe_cache_units(1).build().unwrap();
        let outcome = SpartaScheduler::new(cfg.clone()).schedule(&g, 4).unwrap();
        let report = simulate(&g, &outcome.plan, &cfg).unwrap();
        assert!(report.peak_cache_occupancy <= report.cache_capacity);
    }

    #[test]
    fn characterization_prefers_critical_tasks() {
        let g = examples::chain(3);
        let priority = characterize(&g);
        // Upstream of a chain has the largest bottom level.
        assert!(priority[0] > priority[1]);
        assert!(priority[1] > priority[2]);
    }

    fn scheduler(pes: usize) -> SpartaScheduler {
        SpartaScheduler::new(PimConfig::neurocube(pes).unwrap())
    }

    #[test]
    fn core_accessors_read_the_batch_template() {
        let g = examples::fork_join(12);
        let core = scheduler(16).schedule_core(&g, 40).unwrap();
        let periodic = core.periodic();
        assert_eq!(core.batch_makespan(), periodic.period());
        assert_eq!(core.copies_per_batch(), periodic.group().iterations());
        assert!(core.copies_per_batch() > 1);
        assert_eq!(
            core.time_per_iteration().to_bits(),
            (core.batch_makespan() as f64 / core.copies_per_batch() as f64).to_bits()
        );
    }

    #[test]
    fn batches_are_disjoint_in_time() {
        // The periodic replay validates the template and the tail each
        // on its own: every entry of a batch ends by its makespan, and
        // every transfer ends before its consumer starts.
        for (g, pes) in [
            (examples::motivational(), 4),
            (examples::fork_join(12), 16),
            (examples::chain(6), 8),
        ] {
            let core = scheduler(pes).schedule_core(&g, 23).unwrap();
            let periodic = core.periodic();
            assert_eq!(periodic.group().makespan(), periodic.period());
            for batch in [periodic.group(), periodic.tail()] {
                for x in batch.transfers() {
                    let ipr = g.edge(x.edge).unwrap();
                    let consumer = batch
                        .tasks()
                        .iter()
                        .find(|t| t.node == ipr.dst() && t.iteration == x.iteration)
                        .unwrap();
                    assert!(x.finish() <= consumer.start, "{x:?} {consumer:?}");
                }
            }
        }
    }

    #[test]
    fn the_tail_is_a_batch_of_the_leftover_iterations() {
        let g = examples::fork_join(12);
        let copies = scheduler(16)
            .schedule_core(&g, 40)
            .unwrap()
            .copies_per_batch();
        for n in [copies, copies + 1, 3 * copies - 1, 3 * copies] {
            let core = scheduler(16).schedule_core(&g, n).unwrap();
            let periodic = core.periodic();
            assert_eq!(periodic.groups(), n / copies, "N={n}");
            assert_eq!(periodic.tail().iterations(), n % copies, "N={n}");
            assert_eq!(periodic.tail().tasks().is_empty(), n % copies == 0, "N={n}");
            assert_eq!(periodic.iterations(), Some(n), "N={n}");
        }
    }

    #[test]
    fn schedule_materializes_its_core() {
        let g = examples::fork_join(12);
        let sched = scheduler(16);
        for n in 1..=20 {
            let outcome = sched.schedule(&g, n).unwrap();
            let core = sched.schedule_core(&g, n).unwrap();
            assert_eq!(
                core.periodic().materialize().unwrap(),
                outcome.plan,
                "N={n}"
            );
            assert_eq!(core.periodic(), outcome.core.periodic(), "N={n}");
            assert_eq!(core.cached_iprs(), outcome.core.cached_iprs(), "N={n}");
        }
    }

    #[test]
    fn schedule_core_of_zero_iterations_is_a_typed_error() {
        let g = examples::motivational();
        assert!(matches!(
            scheduler(4).schedule_core(&g, 0),
            Err(SchedError::ZeroIterations)
        ));
        assert!(matches!(
            scheduler(4).schedule(&g, 0),
            Err(SchedError::ZeroIterations)
        ));
    }

    #[test]
    fn a_run_too_large_to_unroll_has_a_core_but_no_plan() {
        let g = examples::motivational();
        let iterations = 1u64 << 60;
        let core = scheduler(4).schedule_core(&g, iterations).unwrap();
        assert_eq!(core.periodic().iterations(), Some(iterations));
        assert!(matches!(
            scheduler(4).schedule(&g, iterations),
            Err(SchedError::PlanTooLarge { iterations: n }) if n == iterations
        ));
    }
}
