//! Fault-injected plan replay.
//!
//! [`simulate_with_faults`] first validates the plan through the
//! ordinary fault-free [`crate::sim::replay`] (the streaming pass, with
//! the per-event reference pass behind it — fault injection changes
//! nothing about validation), then re-times it
//! under a seeded [`FaultSpec`] with a *self-timed* sweep: every task
//! and transfer starts at the later of its planned start and the
//! achieved finish of everything it depends on (producer, input
//! transfers, PE availability), picking up fault-induced delays along
//! the way:
//!
//! * **vault refresh collisions** (eDRAM transfers) — bounded retry
//!   with exponential backoff; exhausting the budget is the typed
//!   [`SimError::RetryExhausted`], never a panic or a livelock;
//! * **interconnect congestion** — per-transfer delivery jitter;
//! * **IPR corruption** (cached transfers) — the checksum fails on
//!   consume and the IPR is re-fetched from eDRAM at full eDRAM
//!   latency;
//! * **PE fail-stop** — any task that would still be running at the
//!   kill cycle surfaces as [`SimError::PeFailStop`], which callers
//!   recover from by replanning on the survivors (see
//!   `paraconv::ParaConv::run_chaos`).
//!
//! Two properties the chaos harness leans on, both enforced here:
//!
//! * **identity** — a quiet spec (or one whose samples all miss)
//!   leaves the achieved timeline equal to the planned one, and the
//!   returned report is then byte-identical to the fault-free replay;
//! * **watchdog bound** — the achieved makespan never exceeds
//!   `planned makespan + total injected delay` (each event starts at
//!   a max over dependencies, so delays add, they never compound);
//!   a violation is reported as [`SimError::WatchdogExceeded`]
//!   instead of silently spinning.
//!
//! Capacity sweeps (cache / iFIFO / vault port) stay on planned
//! times: vault-side buffering absorbs the jitter, so a fault
//! campaign degrades *when* data moves, not *whether* it fits.
//!
//! The self-timed fault sweep itself walks per event: injected delays
//! differ between iterations, so each event's achieved start depends on
//! everything before it.

use std::collections::HashMap;

use paraconv_fault::{metrics, FaultSpec};
use paraconv_graph::{Placement, TaskGraph};

use crate::{CostModel, ExecutionPlan, PimConfig, SimError, SimReport};

/// What a fault campaign did to one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultOutcome {
    /// Total fault events injected (all classes).
    pub injected: u64,
    /// Transient vault-access failures hit.
    pub vault_faults: u64,
    /// Retry attempts performed recovering from them.
    pub retries: u64,
    /// Cached IPRs that failed their checksum and were re-fetched.
    pub corruptions: u64,
    /// Transfers delayed by interconnect congestion.
    pub congestion_events: u64,
    /// Total cycles of delay injected across all events.
    pub injected_delay: u64,
    /// The plan's fault-free makespan.
    pub planned_makespan: u64,
    /// The makespan the self-timed replay achieved.
    pub achieved_makespan: u64,
}

/// Replays `plan` under the fault campaign `spec`.
///
/// Returns the (possibly re-timed) report plus the campaign's
/// [`FaultOutcome`]. With a quiet spec this is exactly [`crate::simulate`].
///
/// # Errors
///
/// Everything [`crate::simulate`] rejects, plus
/// [`SimError::RetryExhausted`], [`SimError::PeFailStop`] and
/// [`SimError::WatchdogExceeded`] from the fault layer.
pub fn simulate_with_faults(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
    spec: &FaultSpec,
) -> Result<(SimReport, FaultOutcome), SimError> {
    let report = crate::sim::replay(graph, plan, config)?;
    perturb(graph, plan, config, spec, report)
}

/// Event kinds of the self-timed sweep. Transfers sort before tasks
/// at equal planned starts: a zero-latency transfer completing at `t`
/// may feed a consumer starting at `t`, while a producer task always
/// finishes strictly after it starts (durations ≥ 1) and therefore
/// sorts strictly earlier than its outgoing transfers.
const KIND_TRANSFER: u8 = 0;
const KIND_TASK: u8 = 1;

/// The achieved-timeline pass over an already validated plan.
pub(crate) fn perturb(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
    spec: &FaultSpec,
    report: SimReport,
) -> Result<(SimReport, FaultOutcome), SimError> {
    let mut out = FaultOutcome {
        planned_makespan: plan.makespan(),
        achieved_makespan: plan.makespan(),
        ..FaultOutcome::default()
    };
    if spec.is_quiet() {
        return Ok((report, out));
    }
    let _span = paraconv_obs::span("pim.faulty", "fault");
    let cost = CostModel::new(config, graph.edge_count());
    let retry = *spec.retry();

    // Planned-start order is dependency-consistent (see the module
    // docs); the sort key is total, so the pass is deterministic.
    let mut events: Vec<(u64, u8, usize)> =
        Vec::with_capacity(plan.tasks().len().saturating_add(plan.transfers().len()));
    for (idx, t) in plan.tasks().iter().enumerate() {
        events.push((t.start, KIND_TASK, idx));
    }
    for (idx, x) in plan.transfers().iter().enumerate() {
        events.push((x.start, KIND_TRANSFER, idx));
    }
    events.sort_unstable();

    let mut task_finish: HashMap<(usize, u64), u64> = HashMap::with_capacity(plan.tasks().len());
    let mut transfer_finish: HashMap<(usize, u64), u64> =
        HashMap::with_capacity(plan.transfers().len());
    let mut pe_avail: Vec<u64> = vec![0; config.num_pes()];
    let mut achieved = 0u64;

    for (_, kind, idx) in events {
        if kind == KIND_TRANSFER {
            // idx enumerated from this very vector above, so the index is in bounds
            let x = &plan.transfers()[idx];
            let ipr = graph
                .edge(x.edge)
                .map_err(|_| SimError::UnknownEdge(x.edge))?;
            let produced = task_finish
                .get(&(ipr.src().index(), x.iteration))
                .copied()
                .ok_or(SimError::MissingProducer(ipr.src(), x.iteration))?;
            let base = x.start.max(produced);

            // Transient vault failures: retry with exponential backoff
            // under a hard deadline. Attempt indices key the sampler,
            // so a raised rate extends — never reshuffles — the
            // failure prefix of each transfer.
            let mut waited = 0u64;
            if x.placement == Placement::Edram {
                let mut attempt = 0u32;
                while spec.vault_fault(x.edge.index(), x.iteration, attempt) {
                    out.vault_faults += 1;
                    out.injected += 1;
                    paraconv_obs::counter_add(metrics::INJECTED, 1);
                    if attempt >= retry.max_retries {
                        paraconv_obs::flight_record(
                            "fault",
                            "retry.exhausted",
                            base,
                            x.edge.index() as u64,
                        );
                        return Err(SimError::RetryExhausted {
                            edge: x.edge,
                            iteration: x.iteration,
                            attempts: attempt + 1,
                            waited,
                        });
                    }
                    let backoff = retry.backoff(attempt);
                    waited = waited.saturating_add(backoff);
                    // Inclusive boundary: a sleep landing exactly on the
                    // deadline has spent the whole budget, so the old
                    // `waited > deadline` test retried once past it.
                    if retry.exhausted_by(waited) {
                        paraconv_obs::flight_record(
                            "fault",
                            "retry.exhausted",
                            base,
                            x.edge.index() as u64,
                        );
                        return Err(SimError::RetryExhausted {
                            edge: x.edge,
                            iteration: x.iteration,
                            attempts: attempt + 1,
                            waited,
                        });
                    }
                    out.retries += 1;
                    paraconv_obs::counter_add(metrics::RETRIES, 1);
                    paraconv_obs::observe(metrics::RETRY_LATENCY, backoff);
                    paraconv_obs::flight_record("fault", "vault.retry", base, backoff);
                    attempt += 1;
                }
            }

            // Interconnect congestion jitter, any placement.
            let congestion = spec.congestion_delay(x.edge.index(), x.iteration);
            if congestion > 0 {
                out.congestion_events += 1;
                out.injected += 1;
                paraconv_obs::counter_add(metrics::CONGESTION, 1);
                paraconv_obs::counter_add(metrics::INJECTED, 1);
                paraconv_obs::flight_record("fault", "congestion", base, congestion);
            }

            // Cached IPR fails its checksum: repair by re-fetching the
            // pristine copy from eDRAM before delivery.
            let mut refetch = 0u64;
            if x.placement == Placement::Cache && spec.corrupted(x.edge.index(), x.iteration) {
                refetch = cost.edram_transfer_time(ipr.size());
                out.corruptions += 1;
                out.injected += 1;
                paraconv_obs::counter_add(metrics::CORRUPTIONS, 1);
                paraconv_obs::counter_add(metrics::INJECTED, 1);
                paraconv_obs::flight_record("fault", "corruption", base, refetch);
            }

            let delay = waited.saturating_add(congestion).saturating_add(refetch);
            out.injected_delay = out.injected_delay.saturating_add(delay);
            let finish = base.saturating_add(delay).saturating_add(x.duration);
            transfer_finish.insert((x.edge.index(), x.iteration), finish);
            achieved = achieved.max(finish);
        } else {
            // idx enumerated from this very vector above, so the index is in bounds
            let t = &plan.tasks()[idx];
            // PE ids are validated by the replay pass before perturb runs
            let mut start = t.start.max(pe_avail[t.pe.index()]);
            for &e in graph
                .in_edges(t.node)
                .map_err(|_| SimError::UnknownNode(t.node))?
            {
                let delivered = transfer_finish
                    .get(&(e.index(), t.iteration))
                    .copied()
                    .ok_or(SimError::MissingTransfer(e, t.iteration))?;
                start = start.max(delivered);
            }
            let finish = start.saturating_add(t.duration);
            if let Some(cycle) = spec.kill_cycle(t.pe.index() as u32) {
                if finish > cycle {
                    // `out` is dropped with the error; only the obs
                    // counter and the flight recorder survive to
                    // record the kill.
                    paraconv_obs::counter_add(metrics::INJECTED, 1);
                    paraconv_obs::flight_record(
                        "fault",
                        "pe.fail_stop",
                        cycle,
                        t.pe.index() as u64,
                    );
                    return Err(SimError::PeFailStop {
                        pe: t.pe,
                        node: t.node,
                        iteration: t.iteration,
                        cycle,
                    });
                }
            }
            task_finish.insert((t.node.index(), t.iteration), finish);
            // PE ids are validated by the replay pass before perturb runs
            pe_avail[t.pe.index()] = finish;
            achieved = achieved.max(finish);
        }
    }

    // Watchdog: delays add along dependency chains, they never
    // compound, so the achieved makespan is bounded by the planned
    // one plus everything injected. Anything past that is a fault-
    // model bug and must surface as an error, not a hang.
    let bound = out.planned_makespan.saturating_add(out.injected_delay);
    if achieved > bound {
        return Err(SimError::WatchdogExceeded { achieved, bound });
    }
    out.achieved_makespan = achieved;

    let mut adjusted = report;
    // Only re-time the report when the campaign actually moved
    // something: with an unchanged timeline the fault-free report is
    // returned bit-for-bit (the disabled/quiet identity guarantee).
    if achieved != out.planned_makespan {
        adjusted.total_time = achieved;
        adjusted.time_per_iteration = if plan.iterations() == 0 {
            0.0
        } else {
            achieved as f64 / plan.iterations() as f64
        };
        if achieved > 0 {
            adjusted.avg_pe_utilization =
                adjusted.avg_pe_utilization * (out.planned_makespan as f64) / (achieved as f64);
        }
    }
    Ok((adjusted, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeId, PimConfig, PlannedTask, PlannedTransfer};
    use paraconv_fault::RetryPolicy;
    use paraconv_graph::{EdgeId, NodeId, OpKind, TaskGraphBuilder};

    /// a -> b with an IPR of size 1 (mirrors the sim.rs fixture).
    fn two_node_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("two");
        let a = b.add_node("a", OpKind::Convolution, 2);
        let z = b.add_node("z", OpKind::Convolution, 1);
        b.add_edge(a, z, 1).unwrap();
        b.build().unwrap()
    }

    fn config() -> PimConfig {
        PimConfig::neurocube(4).unwrap()
    }

    fn task(node: u32, iter: u64, pe: u32, start: u64, dur: u64) -> PlannedTask {
        PlannedTask {
            node: NodeId::new(node),
            iteration: iter,
            pe: PeId::new(pe),
            start,
            duration: dur,
        }
    }

    fn xfer(
        edge: u32,
        iter: u64,
        placement: Placement,
        start: u64,
        dur: u64,
        dst: u32,
    ) -> PlannedTransfer {
        PlannedTransfer {
            edge: EdgeId::new(edge),
            iteration: iter,
            placement,
            start,
            duration: dur,
            dst_pe: PeId::new(dst),
        }
    }

    fn cached_plan() -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        plan
    }

    fn edram_plan(cfg: &PimConfig) -> ExecutionPlan {
        let g = two_node_graph();
        let edram_time = CostModel::new(cfg, g.edge_count()).edram_transfer_time(1);
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Edram, 2, edram_time, 1));
        plan.push_task(task(1, 1, 1, 2 + edram_time, 1));
        plan
    }

    #[test]
    fn quiet_spec_is_the_identity() {
        let g = two_node_graph();
        let cfg = config();
        let clean = crate::simulate(&g, &cached_plan(), &cfg).unwrap();
        let (faulty, out) =
            simulate_with_faults(&g, &cached_plan(), &cfg, &FaultSpec::quiet(1)).unwrap();
        assert_eq!(clean, faulty);
        assert_eq!(out.injected, 0);
        assert_eq!(out.achieved_makespan, out.planned_makespan);
    }

    #[test]
    fn congestion_delays_the_makespan() {
        let g = two_node_graph();
        let cfg = config();
        let spec = FaultSpec::builder(3)
            .congestion_bp(10_000)
            .congestion_jitter(5)
            .build()
            .unwrap();
        let (report, out) = simulate_with_faults(&g, &cached_plan(), &cfg, &spec).unwrap();
        assert_eq!(out.congestion_events, 1);
        assert!(out.injected_delay >= 1);
        assert_eq!(report.total_time, out.achieved_makespan);
        assert!(out.achieved_makespan > out.planned_makespan);
        assert!(out.achieved_makespan <= out.planned_makespan + out.injected_delay);
    }

    #[test]
    fn vault_faults_retry_and_exhaust_as_typed_errors() {
        let g = two_node_graph();
        let cfg = config();
        let plan = edram_plan(&cfg);

        // A generous budget recovers (the sampler cannot fail more
        // than 64 consecutive attempts at any rate below 10 000 bp,
        // and at 9 999 bp this seed recovers quickly enough).
        let spec = FaultSpec::builder(17)
            .vault_fault_bp(5_000)
            .retry(RetryPolicy {
                max_retries: 64,
                backoff_base: 1,
                deadline: u64::MAX,
            })
            .build()
            .unwrap();
        let (_, out) = simulate_with_faults(&g, &plan, &cfg, &spec).unwrap();
        assert_eq!(out.retries, out.vault_faults);

        // An always-failing vault with a tiny budget is the typed
        // RetryExhausted, never a panic.
        let spec = FaultSpec::builder(17)
            .vault_fault_bp(10_000)
            .retry(RetryPolicy {
                max_retries: 2,
                backoff_base: 2,
                deadline: 1000,
            })
            .build()
            .unwrap();
        let err = simulate_with_faults(&g, &plan, &cfg, &spec).unwrap_err();
        assert!(matches!(err, SimError::RetryExhausted { attempts: 3, .. }));
    }

    #[test]
    fn corruption_refetches_from_edram() {
        let g = two_node_graph();
        let cfg = config();
        let spec = FaultSpec::builder(5).corruption_bp(10_000).build().unwrap();
        let (report, out) = simulate_with_faults(&g, &cached_plan(), &cfg, &spec).unwrap();
        assert_eq!(out.corruptions, 1);
        let refetch = CostModel::new(&cfg, g.edge_count()).edram_transfer_time(1);
        assert_eq!(out.injected_delay, refetch);
        assert_eq!(report.total_time, out.planned_makespan + refetch);
    }

    #[test]
    fn fail_stop_is_detected_and_typed() {
        let g = two_node_graph();
        let cfg = config();
        // PE1 dies at cycle 3; the consumer runs [3, 4) on PE1.
        let spec = FaultSpec::builder(0).kill_pe(1, 3).build().unwrap();
        let err = simulate_with_faults(&g, &cached_plan(), &cfg, &spec).unwrap_err();
        assert!(matches!(err, SimError::PeFailStop { cycle: 3, .. }));
        // Dying after the plan drains is harmless.
        let spec = FaultSpec::builder(0).kill_pe(1, 4).build().unwrap();
        assert!(simulate_with_faults(&g, &cached_plan(), &cfg, &spec).is_ok());
    }

    // The global-hook path (`paraconv_fault::install` → `simulate`)
    // is exercised in `tests/chaos.rs`, where every test serializes on
    // one lock: the hook is process-global, and installing it here
    // would race with this binary's other simulate-based tests.

    #[test]
    fn raising_the_rate_never_speeds_up_the_replay() {
        let g = two_node_graph();
        let cfg = config();
        let plan = edram_plan(&cfg);
        let mut previous = 0u64;
        for bp in [0, 100, 1_000, 5_000] {
            let spec = FaultSpec::builder(7)
                .congestion_bp(bp)
                .corruption_bp(bp)
                .build()
                .unwrap();
            let (_, out) = simulate_with_faults(&g, &plan, &cfg, &spec).unwrap();
            assert!(
                out.achieved_makespan >= previous,
                "rate {bp} bp shortened the replay"
            );
            previous = out.achieved_makespan;
        }
    }
}
