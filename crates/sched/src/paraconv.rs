//! The Para-CONV scheduler (§3).
//!
//! Pipeline, exactly as the paper constructs it:
//!
//! 1. **Objective schedule** — compact one iteration's operations onto
//!    the PE array ([`KernelSchedule::compact`]); its makespan is the
//!    steady-state period `p`.
//! 2. **Movement analysis** — derive each IPR's minimal relative
//!    retiming under cache and eDRAM placement from its intra-kernel
//!    slack and the placement latencies (§3.2, Figure 4).
//! 3. **Optimal allocation** — route zero-`ΔR` IPRs to eDRAM and run
//!    the dynamic program over the competing IPRs within the aggregate
//!    cache capacity (§3.3).
//! 4. **Retiming** — the minimal legal retiming satisfying every
//!    edge's requirement under its chosen placement; `R_max` fixes the
//!    prologue `R_max × p`.
//! 5. **Plan emission** — [`emit`] unrolls the kernel, retiming and
//!    placements: instance `V_i^ℓ` starts at
//!    `(g + R_max − R(i))·p + offset(i)` on its kernel PE for kernel
//!    group `g = (ℓ − 1) div u`, and every transfer departs when its
//!    producer finishes.
//!
//! Steps 1–4 make the [`ParaConvCore`]. [`ParaConvScheduler::schedule`]
//! unrolls it into the full plan; [`ParaConvScheduler::schedule_periodic`]
//! emits only one kernel group and the leftover copies, a
//! [`PeriodicPlan`] that [`paraconv_pim::simulate_periodic`] replays
//! without unrolling.

use paraconv_alloc::{AllocItem, CacheAllocation, CacheAllocator, IncrementalDp};
use paraconv_graph::TaskGraph;
use paraconv_obs::SpanGuard;
use paraconv_pim::{CostModel, ExecutionPlan, PeId, PeriodicPlan, PimConfig};
use paraconv_retime::{MovementAnalysis, Retiming};

use crate::{emit, KernelSchedule, SchedError};

/// The periodic core of a Para-CONV schedule: the kernel, retiming and
/// placements that fix the plan of any iteration count.
#[derive(Debug, Clone)]
pub struct ParaConvCore {
    /// The compacted steady-state kernel.
    pub kernel: KernelSchedule,
    /// The retiming induced by the chosen placements.
    pub retiming: Retiming,
    /// The cache/eDRAM placement of every IPR.
    pub allocation: CacheAllocation,
    /// The requirement pair of every IPR: the `ΔR` the allocation
    /// maximized and the requirements the retiming satisfies.
    pub analysis: MovementAnalysis,
}

/// Everything the Para-CONV scheduler produced for one run: the core
/// and the plan it unrolls to.
#[derive(Debug, Clone)]
pub struct ParaConvOutcome {
    /// The periodic core.
    pub core: ParaConvCore,
    /// The concrete plan, ready for [`paraconv_pim::simulate`].
    pub plan: ExecutionPlan,
}

impl ParaConvCore {
    /// The steady-state kernel period `p`.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.kernel.period()
    }

    /// Iteration copies initiated per kernel (the unroll factor `u`).
    #[must_use]
    pub fn unroll(&self) -> u64 {
        self.kernel.copies()
    }

    /// The per-iteration initiation interval `p / u` — the
    /// per-iteration execution time of Figure 5.
    #[must_use]
    pub fn time_per_iteration(&self) -> f64 {
        self.kernel.time_per_iteration()
    }

    /// The maximum retiming value `R_max` — Table 2's metric.
    #[must_use]
    pub fn rmax(&self) -> u64 {
        self.retiming.max_value()
    }

    /// The prologue time `R_max × p`.
    #[must_use]
    pub fn prologue_time(&self) -> u64 {
        self.retiming.prologue_time(self.period())
    }

    /// Number of IPRs placed in the on-chip cache — Figure 6's metric.
    #[must_use]
    pub fn cached_iprs(&self) -> usize {
        self.allocation.cached_count()
    }

    /// The plan of `iterations` iterations as a [`PeriodicPlan`]: the
    /// kernel's `u` copies emitted once at base 0 and repeated every
    /// period `⌊iterations / u⌋` times, then the `iterations mod u`
    /// leftover copies. Unrolled, it is exactly [`emit`]'s plan.
    ///
    /// # Errors
    ///
    /// The [`emit`] errors for the same core and iteration count,
    /// except that no plan of `iterations` is allocated, so there is no
    /// [`SchedError::PlanTooLarge`].
    pub fn periodic(
        &self,
        graph: &TaskGraph,
        config: &PimConfig,
        iterations: u64,
    ) -> Result<PeriodicPlan, SchedError> {
        if iterations == 0 {
            return Err(SchedError::ZeroIterations);
        }
        let emit_copies = |copies| {
            emit(
                graph,
                config,
                &self.kernel,
                &self.retiming,
                &self.allocation,
                copies,
            )
        };
        // A zero-copy kernel is `emit`'s degenerate-kernel error.
        let copies = self.unroll().max(1);
        let group = emit_copies(copies)?;
        // `emit`'s bound for the whole run: the last group's base plus
        // the latest end of any copy.
        ((iterations - 1) / copies)
            .checked_mul(self.period())
            .and_then(|base| base.checked_add(group.makespan()))
            .ok_or(SchedError::TimeOverflow)?;
        let tail = match iterations % copies {
            0 => ExecutionPlan::default(),
            leftover => emit_copies(leftover)?,
        };
        Ok(PeriodicPlan::new(
            group,
            self.period(),
            iterations / copies,
            tail,
        ))
    }
}

/// How the scheduler decides cache placements — the paper's optimal
/// dynamic program by default, with degraded policies available for
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// The §3.3 dynamic program (optimal).
    #[default]
    DynamicProgram,
    /// Greedy by profit density (`ΔR / space`), no backtracking.
    GreedyByDensity,
    /// Everything in eDRAM — isolates the benefit of caching.
    AllEdram,
}

/// The Para-CONV scheduler for a fixed architecture.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_pim::{simulate, PimConfig};
/// use paraconv_sched::ParaConvScheduler;
///
/// let g = examples::motivational();
/// let cfg = PimConfig::neurocube(16)?;
/// let outcome = ParaConvScheduler::new(cfg.clone()).schedule(&g, 10)?;
/// // The emitted plan passes full architectural validation.
/// let report = simulate(&g, &outcome.plan, &cfg)?;
/// assert_eq!(report.iterations, 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParaConvScheduler {
    config: PimConfig,
    policy: AllocationPolicy,
    max_unroll: u64,
}

impl ParaConvScheduler {
    /// Creates a scheduler targeting `config` with the optimal
    /// dynamic-program allocation policy and automatic kernel
    /// unrolling.
    #[must_use]
    pub fn new(config: PimConfig) -> Self {
        ParaConvScheduler {
            config,
            policy: AllocationPolicy::DynamicProgram,
            max_unroll: 64,
        }
    }

    /// Caps the kernel unroll factor (ablation knob; `1` disables
    /// unrolling entirely, isolating its contribution on wide arrays).
    ///
    /// # Panics
    ///
    /// Panics if `max_unroll == 0`.
    #[must_use]
    pub fn with_max_unroll(mut self, max_unroll: u64) -> Self {
        assert!(max_unroll > 0, "unroll cap must be positive");
        self.max_unroll = max_unroll;
        self
    }

    /// Overrides the allocation policy (for ablation studies).
    #[must_use]
    pub fn with_policy(mut self, policy: AllocationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active allocation policy.
    #[must_use]
    pub const fn policy(&self) -> AllocationPolicy {
        self.policy
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
    /// Returns [`SchedError::ZeroIterations`] for `iterations == 0`,
    /// [`SchedError::Analysis`] if the derived timing inputs are
    /// internally inconsistent (which indicates a bug, not bad input),
    /// and the [`emit`] errors — notably [`SchedError::PlanTooLarge`]
    /// when the plan for `iterations` cannot be allocated.
    pub fn schedule(
        &self,
        graph: &TaskGraph,
        iterations: u64,
    ) -> Result<ParaConvOutcome, SchedError> {
        self.schedule_impl(graph, iterations, None)
    }

    /// Schedules `iterations` iterations of `graph` without unrolling
    /// them: the core [`schedule`](Self::schedule) would unroll, and
    /// its plan as a [`PeriodicPlan`] of one kernel group and the
    /// leftover copies.
    ///
    /// # Errors
    ///
    /// Those of [`schedule`](Self::schedule), through
    /// [`ParaConvCore::periodic`] in place of [`emit`].
    pub fn schedule_periodic(
        &self,
        graph: &TaskGraph,
        iterations: u64,
    ) -> Result<(ParaConvCore, PeriodicPlan), SchedError> {
        let (core, phase) = self.plan_core(graph, iterations, None)?;
        let _phase = phase.next("sched.emit");
        let periodic = core.periodic(graph, &self.config, iterations)?;
        paraconv_obs::flight_record(
            "sched",
            "schedule.done",
            periodic.makespan().unwrap_or(u64::MAX),
            self.config.active_pes() as u64,
        );
        Ok((core, periodic))
    }

    /// Re-schedules `graph` after a degradation event (a PE fail-stop
    /// shrinking [`PimConfig::failed_pes`] survivors, or a capacity
    /// change), re-solving the cache allocation through a persistent
    /// [`IncrementalDp`] `session`.
    ///
    /// The kernel is re-compacted onto the surviving PEs and the
    /// allocation DP re-runs under the reduced aggregate cache budget.
    /// The session refills only the dynamic-program rows the
    /// degradation actually perturbed (see
    /// [`CacheAllocator::reallocate`]), so replans stay cheap in the
    /// common single-failure case while the resulting allocation — and
    /// therefore the plan — is byte-identical to a cold
    /// [`schedule`](ParaConvScheduler::schedule) on the degraded
    /// configuration.
    ///
    /// # Errors
    ///
    /// Same contract as [`ParaConvScheduler::schedule`].
    pub fn reschedule(
        &self,
        graph: &TaskGraph,
        iterations: u64,
        session: &mut IncrementalDp,
    ) -> Result<ParaConvOutcome, SchedError> {
        self.schedule_impl(graph, iterations, Some(session))
    }

    fn schedule_impl(
        &self,
        graph: &TaskGraph,
        iterations: u64,
        session: Option<&mut IncrementalDp>,
    ) -> Result<ParaConvOutcome, SchedError> {
        let (core, phase) = self.plan_core(graph, iterations, session)?;
        // Step 5: unroll the periodic core into the concrete plan.
        let _phase = phase.next("sched.emit");
        let plan = emit(
            graph,
            &self.config,
            &core.kernel,
            &core.retiming,
            &core.allocation,
            iterations,
        )?;
        paraconv_obs::flight_record(
            "sched",
            "schedule.done",
            plan.makespan(),
            self.config.active_pes() as u64,
        );
        Ok(ParaConvOutcome { core, plan })
    }

    /// Steps 1–4: the core, and the open `sched.retime` span for the
    /// caller to close into its emission phase.
    fn plan_core(
        &self,
        graph: &TaskGraph,
        iterations: u64,
        session: Option<&mut IncrementalDp>,
    ) -> Result<(ParaConvCore, SpanGuard), SchedError> {
        if iterations == 0 {
            return Err(SchedError::ZeroIterations);
        }
        // Cooperative cancellation: the ambient token (installed by the
        // serve worker's `CancelScope`) is polled at every phase
        // boundary and inside the iteration-proportional emit loop, so
        // a deadline expiry or daemon drain abandons the request
        // within one phase. Plans that *complete* are byte-identical
        // whether or not a token was armed.
        let cancelled = || {
            if paraconv_obs::cancel_requested() {
                Err(SchedError::Cancelled)
            } else {
                Ok(())
            }
        };
        cancelled()?;
        let cost = CostModel::new(&self.config, graph.edge_count());

        // Step 1: objective schedule. The kernel is unrolled by the
        // factor that minimizes the per-iteration initiation interval
        // p/u, so wide arrays initiate several iterations per period.
        // Only surviving PEs receive slots: for a healthy config the
        // active list is the identity and this is byte-identical to the
        // dense compaction.
        let phase = paraconv_obs::span("sched.kernel", "sched");
        let pes: Vec<PeId> = self
            .config
            .active_pe_indices()
            .into_iter()
            .map(PeId::new)
            .collect();
        let kernel = best_kernel(graph, &pes, iterations.min(self.max_unroll));
        let unroll = kernel.copies();
        let p = kernel.period();
        let gaps = kernel.gaps(graph);

        // Step 2: per-edge latencies and each IPR's requirement pair.
        cancelled()?;
        let phase = phase.next("sched.retime.analysis");
        let cache_times: Vec<u64> = graph
            .edges()
            .map(|e| cost.cache_transfer_time(e.size()))
            .collect();
        let edram_times: Vec<u64> = graph
            .edges()
            .map(|e| cost.edram_transfer_time(e.size()))
            .collect();
        let analysis = MovementAnalysis::analyze(graph, p, &gaps, &cache_times, &edram_times)
            .map_err(SchedError::Analysis)?;

        cancelled()?;
        let phase = phase.next("sched.alloc");
        // Step 3: optimal allocation. The knapsack space of an IPR is
        // its size scaled by the number of kernel instances its cache
        // residency window can overlap, so steady-state occupancy never
        // exceeds the aggregate capacity.
        let items: Vec<AllocItem> = graph
            .edges()
            .map(|e| {
                let i = e.id().index();
                // Each of the kernel's `unroll` copies caches its own
                // instance; an instance produced at offset `f` with a
                // transfer of `t_c` units is resident during
                // [f, f + t_c), which spans ⌈(f + t_c)/p⌉ kernel
                // windows — that many instances of this copy coexist
                // in steady state.
                let windows: u64 = (0..unroll)
                    .map(|c| {
                        let f = kernel.finish_at(e.src(), c);
                        (f + cache_times[i]).div_ceil(p).max(1)
                    })
                    .sum();
                AllocItem::new(
                    e.id(),
                    e.size() * windows,
                    analysis.delta_r(e.id()),
                    kernel.start(e.dst()),
                )
            })
            .collect();
        let capacity = match self.policy {
            AllocationPolicy::AllEdram => 0,
            _ => self.config.total_cache_units(),
        };
        let items = match self.policy {
            AllocationPolicy::GreedyByDensity => greedy_prefilter(items, capacity),
            _ => items,
        };
        let allocator = CacheAllocator::new(capacity);
        let allocation = match session {
            Some(session) => allocator.reallocate(session, items),
            None => allocator.allocate(items),
        };
        let placements = allocation.to_placement_vec(graph.edge_count());

        // Step 4: minimal legal retiming for the chosen placements.
        // This check also catches a DP fill that bailed out mid-table:
        // the token stays cancelled, so the partial allocation above is
        // discarded here before anything downstream can observe it.
        cancelled()?;
        let phase = phase.next("sched.retime");
        let retiming =
            Retiming::from_edge_requirements(graph, &analysis.requirements_for(&placements));
        let core = ParaConvCore {
            kernel,
            retiming,
            allocation,
            analysis,
        };
        Ok((core, phase))
    }
}

/// Picks the kernel unroll factor minimizing the per-iteration
/// initiation interval `p_u / u` (ties favour the smaller unroll and
/// therefore the smaller plan). The search stops at the point where
/// the resource bound `⌈u·W/N⌉/u` has converged. Slots land only on
/// the PEs in `pes` (the surviving engines).
fn best_kernel(graph: &TaskGraph, pes: &[PeId], iterations: u64) -> KernelSchedule {
    let work = graph.total_exec_time().max(1);
    let max_c = graph
        .nodes()
        .map(paraconv_graph::TaskNode::exec_time)
        .max()
        .unwrap_or(1);
    // Beyond u·W ≥ 2·N·max_c the ratio is within one task of its
    // asymptote W/N; cap the search there (and at the iteration count
    // and a hard bound to keep plans small).
    let u_max = (2 * pes.len() as u64 * max_c)
        .div_ceil(work)
        .clamp(1, 64)
        .min(iterations);
    // u = 1 always exists, so the fold needs no Option.
    let mut best = KernelSchedule::compact_copies_on(graph, pes, 1);
    for u in 2..=u_max {
        let candidate = KernelSchedule::compact_copies_on(graph, pes, u);
        if candidate.time_per_iteration() < best.time_per_iteration() {
            best = candidate;
        }
    }
    best
}

/// Greedy profit-density prefilter for
/// [`AllocationPolicy::GreedyByDensity`]: keeps the zero-`ΔR` items
/// (they are routed to eDRAM regardless) and the greedy-feasible
/// prefix of the positive items; the downstream DP then trivially
/// takes everything that survived.
fn greedy_prefilter(items: Vec<AllocItem>, capacity: u64) -> Vec<AllocItem> {
    let (zero, mut positive): (Vec<AllocItem>, Vec<AllocItem>) =
        items.into_iter().partition(|i| i.delta_r() == 0);
    // Highest ΔR per space unit first; deterministic ties by edge id.
    // Densities are compared by u128 cross-multiplication: the old
    // fixed-point key `ΔR·1000 / space` both overflowed u64 for large
    // ΔR and collapsed distinct densities into one bucket, letting the
    // edge-id tiebreak pick the *worse* item.
    positive.sort_by(|a, b| {
        let lhs = u128::from(b.delta_r()) * u128::from(a.space().max(1));
        let rhs = u128::from(a.delta_r()) * u128::from(b.space().max(1));
        lhs.cmp(&rhs).then_with(|| a.edge().cmp(&b.edge()))
    });
    let mut used = 0u64;
    let mut kept = zero;
    for item in positive {
        if used + item.space() <= capacity {
            used += item.space();
            kept.push(item);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::{examples, EdgeId};
    use paraconv_pim::simulate;

    fn schedule_and_simulate(
        graph: &TaskGraph,
        pes: usize,
        iterations: u64,
    ) -> (ParaConvOutcome, paraconv_pim::SimReport) {
        let cfg = PimConfig::neurocube(pes).unwrap();
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(graph, iterations)
            .unwrap();
        let report = simulate(graph, &outcome.plan, &cfg).unwrap();
        // Every emitted plan must also satisfy the independent auditor.
        paraconv_pim::audit(graph, &outcome.plan, &cfg, &report).unwrap();
        (outcome, report)
    }

    #[test]
    fn cancelled_token_aborts_with_typed_error() {
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(4).unwrap();
        let token = paraconv_obs::CancelToken::new();
        token.cancel();
        let _scope = paraconv_obs::CancelScope::enter(token);
        let err = ParaConvScheduler::new(cfg).schedule(&g, 12).unwrap_err();
        assert_eq!(err, SchedError::Cancelled);
    }

    #[test]
    fn armed_but_unfired_token_changes_nothing() {
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(4).unwrap();
        let plain = ParaConvScheduler::new(cfg.clone())
            .schedule(&g, 12)
            .unwrap();
        let _scope = paraconv_obs::CancelScope::enter(paraconv_obs::CancelToken::new());
        let scoped = ParaConvScheduler::new(cfg).schedule(&g, 12).unwrap();
        assert_eq!(plain.plan, scoped.plan, "an idle token must be invisible");
    }

    #[test]
    fn motivational_example_validates() {
        let g = examples::motivational();
        let (outcome, report) = schedule_and_simulate(&g, 4, 12);
        assert_eq!(report.iterations, 12);
        // Five unit tasks on 4 PEs: at most 2 slots per iteration copy.
        assert!(outcome.core.time_per_iteration() <= 2.0);
        // Steady state: one kernel per iteration group plus prologue;
        // the run ends inside the last kernel window.
        let groups = 12u64.div_ceil(outcome.core.unroll());
        assert!(outcome.plan.makespan() <= (outcome.core.rmax() + groups) * outcome.core.period());
        assert!(
            outcome.plan.makespan() > (outcome.core.rmax() + groups - 1) * outcome.core.period()
        );
    }

    #[test]
    fn plans_validate_across_pe_counts() {
        let g = examples::fork_join(9);
        for pes in [1, 2, 4, 16, 64] {
            let (_, report) = schedule_and_simulate(&g, pes, 5);
            assert_eq!(report.iterations, 5);
        }
    }

    #[test]
    fn more_pes_shorten_the_iteration() {
        let g = examples::fork_join(30);
        let (o16, _) = schedule_and_simulate(&g, 16, 8);
        let (o64, _) = schedule_and_simulate(&g, 64, 8);
        assert!(o64.core.time_per_iteration() < o16.core.time_per_iteration());
    }

    #[test]
    fn retiming_is_legal_and_bounded_per_edge() {
        let g = examples::chain(8);
        let (outcome, _) = schedule_and_simulate(&g, 4, 3);
        assert!(outcome.core.retiming.check_legal(&g).is_ok());
    }

    #[test]
    fn cache_capacity_never_exceeded() {
        let g = examples::fork_join(20);
        let cfg = PimConfig::builder(8).per_pe_cache_units(1).build().unwrap();
        let outcome = ParaConvScheduler::new(cfg.clone()).schedule(&g, 8).unwrap();
        let report = simulate(&g, &outcome.plan, &cfg).unwrap();
        assert!(report.peak_cache_occupancy <= report.cache_capacity);
    }

    #[test]
    fn zero_iterations_rejected() {
        let g = examples::chain(2);
        let cfg = PimConfig::neurocube(16).unwrap();
        assert_eq!(
            ParaConvScheduler::new(cfg).schedule(&g, 0).unwrap_err(),
            SchedError::ZeroIterations
        );
    }

    #[test]
    fn oversized_iteration_counts_are_typed_errors_not_aborts() {
        // 2^60 iterations need more than isize::MAX bytes of plan, so
        // the exact reservation is refused on any host.
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(16).unwrap();
        let iterations = 1u64 << 60;
        assert_eq!(
            ParaConvScheduler::new(cfg.clone())
                .schedule(&g, iterations)
                .unwrap_err(),
            SchedError::PlanTooLarge { iterations }
        );
        assert_eq!(
            crate::SpartaScheduler::new(cfg)
                .schedule(&g, iterations)
                .unwrap_err(),
            SchedError::PlanTooLarge { iterations }
        );
    }

    #[test]
    fn bigger_cache_never_increases_rmax() {
        let g = examples::fork_join(24);
        let small = PimConfig::builder(8).per_pe_cache_units(1).build().unwrap();
        let large = PimConfig::builder(8)
            .per_pe_cache_units(16)
            .build()
            .unwrap();
        let r_small = ParaConvScheduler::new(small)
            .schedule(&g, 2)
            .unwrap()
            .core
            .rmax();
        let r_large = ParaConvScheduler::new(large)
            .schedule(&g, 2)
            .unwrap()
            .core
            .rmax();
        assert!(r_large <= r_small);
    }

    #[test]
    fn unroll_cap_isolates_unrolling_benefit() {
        // A narrow graph on a wide array: unrolling is what keeps the
        // per-iteration rate dropping.
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(16).unwrap();
        let capped = ParaConvScheduler::new(cfg.clone())
            .with_max_unroll(1)
            .schedule(&g, 8)
            .unwrap();
        let free = ParaConvScheduler::new(cfg.clone()).schedule(&g, 8).unwrap();
        assert_eq!(capped.core.unroll(), 1);
        assert!(free.core.unroll() > 1);
        assert!(free.core.time_per_iteration() < capped.core.time_per_iteration());
        // Both remain valid plans.
        assert!(simulate(&g, &capped.plan, &cfg).is_ok());
        assert!(simulate(&g, &free.plan, &cfg).is_ok());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_unroll_cap_panics() {
        let cfg = PimConfig::neurocube(4).unwrap();
        let _ = ParaConvScheduler::new(cfg).with_max_unroll(0);
    }

    #[test]
    fn policies_order_as_expected() {
        // Optimal DP ≥ greedy ≥ all-eDRAM in bought profit, and the
        // induced R_max orders the other way.
        let g = examples::fork_join(24);
        let cfg = PimConfig::builder(8).per_pe_cache_units(2).build().unwrap();
        let run = |policy| {
            ParaConvScheduler::new(cfg.clone())
                .with_policy(policy)
                .schedule(&g, 2)
                .unwrap()
        };
        let dp = run(AllocationPolicy::DynamicProgram);
        let greedy = run(AllocationPolicy::GreedyByDensity);
        let none = run(AllocationPolicy::AllEdram);
        assert!(dp.core.allocation.total_profit() >= greedy.core.allocation.total_profit());
        assert_eq!(none.core.allocation.total_profit(), 0);
        assert!(dp.core.rmax() <= greedy.core.rmax());
        assert!(greedy.core.rmax() <= none.core.rmax());
        // All three plans stay valid.
        for outcome in [&dp, &greedy, &none] {
            assert!(simulate(&g, &outcome.plan, &cfg).is_ok());
        }
    }

    #[test]
    fn greedy_orders_by_true_density() {
        // Regression for the fixed-point density key `ΔR·1000/space`:
        // item A (ΔR=6668, sp=10000, density 0.6668) and item B (ΔR=2,
        // sp=3, density 0.6667) both hashed to bucket 666, and the
        // edge-id tiebreak put B first — with capacity 10000 the greedy
        // then kept only B, buying profit 2 instead of 6668.
        let a = AllocItem::new(EdgeId::new(5), 10_000, 6_668, 1);
        let b = AllocItem::new(EdgeId::new(3), 3, 2, 1);
        let kept = greedy_prefilter(vec![b, a], 10_000);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].edge(), EdgeId::new(5));
    }

    #[test]
    fn greedy_density_key_does_not_overflow() {
        // ΔR values near u64::MAX overflowed the old `ΔR·1000`
        // product; cross-multiplication in u128 keeps the comparison
        // exact. The denser huge item must win the single slot.
        let huge = AllocItem::new(EdgeId::new(1), 4, u64::MAX / 2, 1);
        let small = AllocItem::new(EdgeId::new(0), 4, 7, 1);
        let kept = greedy_prefilter(vec![small, huge], 4);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].edge(), EdgeId::new(1));
    }

    #[test]
    fn greedy_keeps_zero_profit_items_and_prefix() {
        // Zero-ΔR items ride along regardless of capacity; positive
        // items fill greedily by density.
        let zero = AllocItem::new(EdgeId::new(9), 100, 0, 1);
        let dense = AllocItem::new(EdgeId::new(1), 2, 10, 1);
        let sparse = AllocItem::new(EdgeId::new(2), 8, 10, 1);
        let kept = greedy_prefilter(vec![sparse, zero, dense], 6);
        let edges: Vec<EdgeId> = kept.iter().map(|i| i.edge()).collect();
        assert_eq!(edges, vec![EdgeId::new(9), EdgeId::new(1)]);
    }

    #[test]
    fn degraded_config_schedules_onto_survivors() {
        let g = examples::fork_join(12);
        let cfg = PimConfig::builder(4).failed_pes(vec![1]).build().unwrap();
        let outcome = ParaConvScheduler::new(cfg.clone()).schedule(&g, 6).unwrap();
        for t in outcome.plan.tasks() {
            assert_ne!(t.pe, PeId::new(1), "task placed on failed PE");
        }
        // The degraded plan still passes full validation + audit under
        // the degraded config (which rejects tasks on failed PEs).
        let report = simulate(&g, &outcome.plan, &cfg).unwrap();
        paraconv_pim::audit(&g, &outcome.plan, &cfg, &report).unwrap();
    }

    #[test]
    fn healthy_config_is_unchanged_by_the_pe_list_path() {
        // The active-PE list is the identity for a healthy config, so
        // plans must be byte-identical to what the dense path emitted.
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(4).unwrap();
        let outcome = ParaConvScheduler::new(cfg.clone()).schedule(&g, 8).unwrap();
        let report = simulate(&g, &outcome.plan, &cfg).unwrap();
        assert_eq!(report.iterations, 8);
    }

    #[test]
    fn reschedule_through_a_session_matches_cold_schedules() {
        let g = examples::fork_join(24);
        let cfg = PimConfig::builder(8).per_pe_cache_units(4).build().unwrap();
        let healthy = ParaConvScheduler::new(cfg.clone()).schedule(&g, 4).unwrap();
        // Same capacity: the session re-solve reuses every DP row and
        // the outcome is byte-identical to the cold schedule.
        let mut session = paraconv_alloc::IncrementalDp::new();
        let again = ParaConvScheduler::new(cfg.clone())
            .reschedule(&g, 4, &mut session)
            .unwrap();
        assert_eq!(healthy.core.allocation, again.core.allocation);
        assert_eq!(healthy.plan, again.plan);

        // Degraded capacity: the incremental replan must reproduce the
        // cold solve on the surviving configuration exactly, and the
        // plan still validates and audits.
        let degraded_cfg = cfg.degrade(&[3]).unwrap();
        assert!(degraded_cfg.total_cache_units() < cfg.total_cache_units());
        let degraded = ParaConvScheduler::new(degraded_cfg.clone())
            .reschedule(&g, 4, &mut session)
            .unwrap();
        let cold = ParaConvScheduler::new(degraded_cfg.clone())
            .schedule(&g, 4)
            .unwrap();
        assert_eq!(degraded.core.allocation, cold.core.allocation);
        assert_eq!(degraded.plan, cold.plan);
        for t in degraded.plan.tasks() {
            assert_ne!(t.pe, PeId::new(3), "task placed on failed PE");
        }
        let report = simulate(&g, &degraded.plan, &degraded_cfg).unwrap();
        paraconv_pim::audit(&g, &degraded.plan, &degraded_cfg, &report).unwrap();
    }

    #[test]
    fn offchip_fetches_drop_with_more_cache() {
        let g = examples::fork_join(24);
        let small = PimConfig::builder(8).per_pe_cache_units(1).build().unwrap();
        let large = PimConfig::builder(8)
            .per_pe_cache_units(32)
            .build()
            .unwrap();
        let r_small = {
            let o = ParaConvScheduler::new(small.clone())
                .schedule(&g, 4)
                .unwrap();
            simulate(&g, &o.plan, &small).unwrap()
        };
        let r_large = {
            let o = ParaConvScheduler::new(large.clone())
                .schedule(&g, 4)
                .unwrap();
            simulate(&g, &o.plan, &large).unwrap()
        };
        assert!(r_large.offchip_fetches <= r_small.offchip_fetches);
        assert!(r_large.onchip_hits >= r_small.onchip_hits);
    }

    /// Para-CONV's core and periodic plan for `iterations` iterations.
    fn periodic_run(
        graph: &TaskGraph,
        pes: usize,
        iterations: u64,
    ) -> (ParaConvCore, PeriodicPlan) {
        let cfg = PimConfig::neurocube(pes).unwrap();
        ParaConvScheduler::new(cfg)
            .schedule_periodic(graph, iterations)
            .unwrap()
    }

    #[test]
    fn periodic_unrolls_to_the_scheduled_plan() {
        for (g, pes) in [(examples::motivational(), 16), (examples::fork_join(12), 4)] {
            let cfg = PimConfig::neurocube(pes).unwrap();
            let scheduler = ParaConvScheduler::new(cfg);
            let (core, _) = periodic_run(&g, pes, 500);
            for n in 1..=3 * core.unroll() + 2 {
                let outcome = scheduler.schedule(&g, n).unwrap();
                let (core, periodic) = scheduler.schedule_periodic(&g, n).unwrap();
                assert_eq!(core.kernel, outcome.core.kernel, "N={n}");
                assert_eq!(core.retiming, outcome.core.retiming, "N={n}");
                assert_eq!(core.allocation, outcome.core.allocation, "N={n}");
                assert_eq!(periodic.materialize().unwrap(), outcome.plan, "N={n}");
                assert_eq!(periodic.makespan(), Some(outcome.plan.makespan()), "N={n}");
            }
        }
    }

    #[test]
    fn periodic_splits_a_run_into_kernel_groups_and_leftovers() {
        let g = examples::motivational();
        let (core, _) = periodic_run(&g, 16, 500);
        let u = core.unroll();
        assert!(u > 1, "the case needs leftover copies");
        for n in [u, u + 1, 5 * u - 1, 5 * u] {
            let (_, periodic) = periodic_run(&g, 16, n);
            assert_eq!(periodic.period(), core.period(), "N={n}");
            assert_eq!(periodic.group().iterations(), u, "N={n}");
            assert_eq!(periodic.groups(), n / u, "N={n}");
            assert_eq!(periodic.tail().iterations(), n % u, "N={n}");
            assert_eq!(periodic.tail().tasks().is_empty(), n % u == 0, "N={n}");
            assert_eq!(periodic.iterations(), Some(n), "N={n}");
        }
    }

    #[test]
    fn periodic_of_zero_iterations_is_a_typed_error() {
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(4).unwrap();
        let scheduler = ParaConvScheduler::new(cfg.clone());
        assert!(matches!(
            scheduler.schedule_periodic(&g, 0),
            Err(SchedError::ZeroIterations)
        ));
        let (core, _) = periodic_run(&g, 4, 3);
        assert_eq!(core.periodic(&g, &cfg, 0), Err(SchedError::ZeroIterations));
    }

    #[test]
    fn periodic_past_the_clock_is_time_overflow() {
        // As with `emit`: u64::MAX iterations end past the clock.
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(4).unwrap();
        let (core, _) = periodic_run(&g, 4, 3);
        assert_eq!(
            core.periodic(&g, &cfg, u64::MAX),
            Err(SchedError::TimeOverflow)
        );
    }

    #[test]
    fn periodic_describes_a_run_too_large_to_emit() {
        // 2^60 iterations fit the clock but not the address space: the
        // description needs only one kernel group.
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(4).unwrap();
        let (core, _) = periodic_run(&g, 4, 3);
        let iterations = 1u64 << 60;
        let periodic = core.periodic(&g, &cfg, iterations).unwrap();
        assert_eq!(periodic.iterations(), Some(iterations));
        assert_eq!(
            emit(
                &g,
                &cfg,
                &core.kernel,
                &core.retiming,
                &core.allocation,
                iterations
            ),
            Err(SchedError::PlanTooLarge { iterations })
        );
    }

    #[test]
    fn periodic_of_a_zero_copy_kernel_is_a_degenerate_kernel() {
        let g = examples::motivational();
        let cfg = PimConfig::neurocube(4).unwrap();
        let (mut core, _) = periodic_run(&g, 4, 3);
        let period = core.period();
        core.kernel =
            KernelSchedule::from_parts(period, 0, g.node_count(), vec![], vec![], vec![]).unwrap();
        assert_eq!(
            core.periodic(&g, &cfg, 5),
            Err(SchedError::DegenerateKernel { period, copies: 0 })
        );
    }
}
