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
//! comparison isolates the scheduling policy.

use paraconv_alloc::{AllocItem, CacheAllocator};
use paraconv_graph::{NodeId, Placement, TaskGraph};
use paraconv_pim::{CostModel, ExecutionPlan, PeId, PimConfig, PlannedTask, PlannedTransfer};

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

/// Result of scheduling a run with the SPARTA baseline.
#[derive(Debug, Clone)]
pub struct SpartaOutcome {
    /// The concrete plan, ready for [`paraconv_pim::simulate`].
    pub plan: ExecutionPlan,
    /// Makespan of one full batch of co-scheduled iterations.
    pub batch_makespan: u64,
    /// Iterations co-scheduled per batch.
    pub copies_per_batch: u64,
    /// IPRs (per iteration) the greedy policy placed in cache.
    pub cached_iprs: usize,
}

impl SpartaOutcome {
    /// Total execution time of the planned run.
    #[must_use]
    pub fn total_time(&self) -> u64 {
        self.plan.makespan()
    }

    /// Effective steady-state time per iteration.
    #[must_use]
    pub fn time_per_iteration(&self) -> f64 {
        self.batch_makespan as f64 / self.copies_per_batch as f64
    }
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
        if iterations == 0 {
            return Err(SchedError::ZeroIterations);
        }
        let _span = paraconv_obs::span("sched.sparta", "sched");
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
        // with priority list scheduling, then replicate it.
        let template = schedule_batch(graph, copies as usize, n_pes, &priority, &transfer_time);

        let mut plan = crate::emit::reserve_plan(graph, iterations)?;
        let full_batches = iterations / copies;
        let remainder = iterations % copies;
        let mut next_iteration = 1u64;
        let mut clock = 0u64;
        for _ in 0..full_batches {
            emit_batch(
                &mut plan,
                graph,
                &template,
                copies as usize,
                next_iteration,
                clock,
                &placements,
                &transfer_time,
            );
            next_iteration += copies;
            clock += template.makespan;
        }
        if remainder > 0 {
            let tail = schedule_batch(graph, remainder as usize, n_pes, &priority, &transfer_time);
            emit_batch(
                &mut plan,
                graph,
                &tail,
                remainder as usize,
                next_iteration,
                clock,
                &placements,
                &transfer_time,
            );
        }

        Ok(SpartaOutcome {
            plan,
            batch_makespan: template.makespan,
            copies_per_batch: copies,
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

/// Emits one batch instance into the plan, shifted to `clock` and
/// numbered from `first_iteration`.
#[allow(clippy::too_many_arguments)]
fn emit_batch(
    plan: &mut ExecutionPlan,
    graph: &TaskGraph,
    template: &BatchTemplate,
    copies: usize,
    first_iteration: u64,
    clock: u64,
    placements: &[Placement],
    transfer_time: &[u64],
) {
    let n = graph.node_count();
    for copy in 0..copies {
        let iteration = first_iteration + copy as u64;
        for node in graph.nodes() {
            let slot = copy * n + node.id().index();
            plan.push_task(PlannedTask {
                node: node.id(),
                iteration,
                pe: template.pe[slot],
                start: clock + template.start[slot],
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
                start: clock + template.finish[src_slot],
                duration: transfer_time[i],
                dst_pe: template.pe[dst_slot],
            });
        }
    }
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
        assert!(outcome.copies_per_batch >= 1);
        assert!(outcome.total_time() > 0);
    }

    #[test]
    fn co_schedules_iterations_when_pes_spare() {
        // Width-2 graph on 16 PEs: several copies per batch.
        let g = examples::motivational(); // W=5, CP=3 → parallelism 2
        let cfg = PimConfig::neurocube(16).unwrap();
        let outcome = SpartaScheduler::new(cfg).schedule(&g, 16).unwrap();
        assert!(
            outcome.copies_per_batch > 1,
            "copies={}",
            outcome.copies_per_batch
        );
    }

    #[test]
    fn single_pe_serializes_every_iteration() {
        let g = examples::chain(3);
        let (outcome, report) = run(&g, 1, 4);
        assert_eq!(outcome.copies_per_batch, 1);
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
        assert!(outcome.batch_makespan >= g.critical_path_length());
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
}
