//! High-level entry points: schedule, simulate and compare in one call.

use paraconv_alloc::IncrementalDp;
use paraconv_fault::FaultSpec;
use paraconv_graph::TaskGraph;
use paraconv_pim::{
    audit, simulate, simulate_with_faults, FaultOutcome, PimConfig, SimError, SimReport,
};
use paraconv_sched::{
    AllocationPolicy, ParaConvOutcome, ParaConvScheduler, SpartaOutcome, SpartaScheduler,
};

use crate::CoreError;

/// A Para-CONV schedule together with its validated simulation report.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The scheduler's full output (plan, kernel, retiming,
    /// allocation, analysis).
    pub outcome: ParaConvOutcome,
    /// The simulator's report for the emitted plan.
    pub report: SimReport,
}

/// The result of a fault-injected chaos run: the final (possibly
/// degraded) plan, its fault-perturbed report, and the recovery
/// history.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The scheduler's output for the final surviving-PE set.
    pub outcome: ParaConvOutcome,
    /// The fault-perturbed simulation report of the final plan.
    pub report: SimReport,
    /// Injection and recovery statistics for the final replay.
    pub faults: FaultOutcome,
    /// PEs that fail-stopped during the campaign (sorted by index).
    pub failed_pes: Vec<u32>,
    /// Number of degraded-mode replans the campaign forced.
    pub replans: u64,
    /// The degraded architecture the final plan targets (equals the
    /// runner's config when nothing fail-stopped).
    pub config: PimConfig,
}

/// A SPARTA-baseline schedule together with its simulation report.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The baseline scheduler's output.
    pub outcome: SpartaOutcome,
    /// The simulator's report for the emitted plan.
    pub report: SimReport,
}

/// A side-by-side run of Para-CONV and the SPARTA baseline on the same
/// graph, architecture and iteration count.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The Para-CONV run.
    pub paraconv: RunResult,
    /// The baseline run.
    pub sparta: BaselineResult,
}

impl Comparison {
    /// The paper's "IMP (%)" column: Para-CONV's total execution time
    /// as a percentage of SPARTA's (lower is better; the paper's
    /// reported 53.42% average corresponds to a 1.87× speedup).
    #[must_use]
    pub fn improvement_percent(&self) -> f64 {
        if self.sparta.report.total_time == 0 {
            return 100.0;
        }
        self.paraconv.report.total_time as f64 / self.sparta.report.total_time as f64 * 100.0
    }

    /// Throughput acceleration `SPARTA time / Para-CONV time`.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.paraconv.report.total_time == 0 {
            return 1.0;
        }
        self.sparta.report.total_time as f64 / self.paraconv.report.total_time as f64
    }
}

/// The one-stop Para-CONV runner: owns an architecture configuration
/// and produces validated runs.
///
/// # Examples
///
/// ```
/// use paraconv::ParaConv;
/// use paraconv_graph::examples;
/// use paraconv_pim::PimConfig;
///
/// let runner = ParaConv::new(PimConfig::neurocube(16)?);
/// let comparison = runner.compare(&examples::motivational(), 50)?;
/// // Para-CONV never loses to the baseline on the motivational graph.
/// assert!(comparison.speedup() >= 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParaConv {
    config: PimConfig,
    policy: AllocationPolicy,
    audit: bool,
    verify: bool,
}

impl ParaConv {
    /// Creates a runner for the given architecture.
    #[must_use]
    pub fn new(config: PimConfig) -> Self {
        ParaConv {
            config,
            policy: AllocationPolicy::DynamicProgram,
            audit: false,
            verify: false,
        }
    }

    /// Overrides the allocation policy (ablation studies).
    #[must_use]
    pub fn with_policy(mut self, policy: AllocationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the independent plan auditor: every emitted plan and
    /// every simulator report is re-checked by
    /// [`paraconv_pim::audit`], and any violation surfaces as
    /// [`CoreError::Audit`].
    #[must_use]
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Enables the static plan verifier: every Para-CONV outcome is
    /// proved retiming-legal with steady-state occupancy bounds within
    /// capacity, the bounds are checked against the simulator's
    /// observed high-water marks, and any violation surfaces as
    /// [`CoreError::Verify`]. The SPARTA baseline is not a retimed
    /// plan and is never statically verified.
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// The architecture this runner targets.
    #[must_use]
    pub const fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Schedules `iterations` iterations with Para-CONV and replays
    /// the plan on the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for zero iterations or if the emitted plan
    /// fails validation (a bug, surfaced rather than hidden).
    pub fn run(&self, graph: &TaskGraph, iterations: u64) -> Result<RunResult, CoreError> {
        let _span = paraconv_obs::span("run.paraconv", "run");
        let outcome = ParaConvScheduler::new(self.config.clone())
            .with_policy(self.policy)
            .schedule(graph, iterations)?;
        let report = simulate(graph, &outcome.plan, &self.config)?;
        if self.audit {
            let _audit_span = paraconv_obs::span("run.audit", "run");
            audit(graph, &outcome.plan, &self.config, &report)?;
        }
        if self.verify {
            let _verify_span = paraconv_obs::span("run.verify", "run");
            paraconv_verify::verify_run(graph, &outcome, &self.config, &report)?;
        }
        Ok(RunResult { outcome, report })
    }

    /// Runs a deterministic fault campaign: schedule, replay under
    /// `spec`'s injected faults, and recover.
    ///
    /// Transient faults (vault retries, congestion, IPR corruption)
    /// are absorbed inside the replay; a PE fail-stop aborts it, after
    /// which the runner degrades the architecture
    /// ([`PimConfig::degrade`]), remaps the dead PE's kernel slots
    /// onto the survivors, incrementally re-solves the allocation DP
    /// under the reduced cache budget (through one persistent
    /// [`paraconv_alloc::IncrementalDp`] session threaded into
    /// [`paraconv_sched::ParaConvScheduler::reschedule`] — refilling
    /// only the rows the degradation perturbed while staying
    /// byte-identical to a cold solve), and replays again. The loop
    /// terminates because each replan retires one PE for good: either
    /// a plan completes or no PEs survive.
    ///
    /// When auditing/verification are enabled they run against the
    /// *clean* replay of the final degraded plan — the paper's
    /// invariants are properties of the plan, not of the fault
    /// campaign perturbing it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sim`] for unrecoverable faults
    /// ([`SimError::RetryExhausted`], [`SimError::WatchdogExceeded`]),
    /// [`CoreError::Config`] when the last PE dies
    /// ([`paraconv_pim::ConfigError::NoSurvivingPes`]), plus
    /// everything [`run`](Self::run) can return.
    pub fn run_chaos(
        &self,
        graph: &TaskGraph,
        iterations: u64,
        spec: &FaultSpec,
    ) -> Result<ChaosResult, CoreError> {
        let _span = paraconv_obs::span("run.chaos", "run");
        let mut config = self.config.clone();
        // One DP session for the whole campaign: the first reschedule
        // primes it (a cold fill), every replan after a fail-stop
        // refills only the perturbed suffix rows. reallocate() is
        // byte-identical to allocate(), so quiet campaigns still match
        // plain runs exactly.
        let mut session = IncrementalDp::new();
        let mut replans = 0u64;
        loop {
            let scheduler = ParaConvScheduler::new(config.clone()).with_policy(self.policy);
            let outcome = scheduler.reschedule(graph, iterations, &mut session)?;
            match simulate_with_faults(graph, &outcome.plan, &config, spec) {
                Ok((report, faults)) => {
                    if self.audit {
                        let _audit_span = paraconv_obs::span("run.audit", "run");
                        let clean = simulate(graph, &outcome.plan, &config)?;
                        audit(graph, &outcome.plan, &config, &clean)?;
                    }
                    if self.verify {
                        let _verify_span = paraconv_obs::span("run.verify", "run");
                        paraconv_verify::verify_outcome(graph, &outcome, &config)?;
                    }
                    return Ok(ChaosResult {
                        outcome,
                        report,
                        faults,
                        failed_pes: config.failed_pes().to_vec(),
                        replans,
                        config,
                    });
                }
                Err(SimError::PeFailStop { pe, cycle, .. }) => {
                    paraconv_obs::counter_add(paraconv_fault::metrics::REPLANS, 1);
                    replans += 1;
                    paraconv_obs::flight_record("chaos", "replan", cycle, pe.index() as u64);
                    config = config.degrade(&[pe.index() as u32])?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Schedules `iterations` iterations with the SPARTA baseline and
    /// replays the plan on the simulator.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_baseline(
        &self,
        graph: &TaskGraph,
        iterations: u64,
    ) -> Result<BaselineResult, CoreError> {
        let _span = paraconv_obs::span("run.sparta", "run");
        let outcome = SpartaScheduler::new(self.config.clone()).schedule(graph, iterations)?;
        let report = simulate(graph, &outcome.plan, &self.config)?;
        if self.audit {
            let _audit_span = paraconv_obs::span("run.audit", "run");
            audit(graph, &outcome.plan, &self.config, &report)?;
        }
        Ok(BaselineResult { outcome, report })
    }

    /// Runs both schedulers on identical inputs.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn compare(&self, graph: &TaskGraph, iterations: u64) -> Result<Comparison, CoreError> {
        Ok(Comparison {
            paraconv: self.run(graph, iterations)?,
            sparta: self.run_baseline(graph, iterations)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;

    #[test]
    fn comparison_metrics_are_consistent() {
        let runner = ParaConv::new(PimConfig::neurocube(8).unwrap());
        let cmp = runner.compare(&examples::fork_join(12), 20).unwrap();
        let imp = cmp.improvement_percent();
        let speedup = cmp.speedup();
        assert!((imp / 100.0 - 1.0 / speedup).abs() < 1e-9);
        assert!(cmp.paraconv.report.iterations == 20);
        assert!(cmp.sparta.report.iterations == 20);
    }

    #[test]
    fn run_results_expose_reports() {
        let runner = ParaConv::new(PimConfig::neurocube(4).unwrap());
        let r = runner.run(&examples::motivational(), 10).unwrap();
        assert_eq!(r.report.iterations, 10);
        assert_eq!(r.outcome.plan.iterations(), 10);
        let b = runner.run_baseline(&examples::motivational(), 10).unwrap();
        assert_eq!(b.report.iterations, 10);
    }

    #[test]
    fn audited_runs_match_unaudited_runs() {
        let plain = ParaConv::new(PimConfig::neurocube(8).unwrap());
        let audited = plain.clone().with_audit(true);
        let g = examples::fork_join(12);
        let a = audited.compare(&g, 10).unwrap();
        let b = plain.compare(&g, 10).unwrap();
        assert_eq!(a.paraconv.report, b.paraconv.report);
        assert_eq!(a.sparta.report, b.sparta.report);
    }

    #[test]
    fn quiet_chaos_matches_a_plain_run() {
        let runner = ParaConv::new(PimConfig::neurocube(8).unwrap());
        let g = examples::fork_join(12);
        let plain = runner.run(&g, 10).unwrap();
        let chaos = runner
            .run_chaos(&g, 10, &paraconv_fault::FaultSpec::quiet(1))
            .unwrap();
        assert_eq!(plain.report, chaos.report);
        assert_eq!(chaos.replans, 0);
        assert!(chaos.failed_pes.is_empty());
        assert_eq!(chaos.faults.injected, 0);
    }

    #[test]
    fn pe_fail_stop_triggers_a_degraded_replan() {
        let runner = ParaConv::new(PimConfig::neurocube(4).unwrap())
            .with_audit(true)
            .with_verify(true);
        let g = examples::fork_join(12);
        // Kill PE1 at cycle 0: every task it would run fails, forcing
        // an immediate remap onto the three survivors.
        let spec = paraconv_fault::FaultSpec::builder(7)
            .kill_pe(1, 0)
            .build()
            .unwrap();
        let chaos = runner.run_chaos(&g, 10, &spec).unwrap();
        assert_eq!(chaos.replans, 1);
        assert_eq!(chaos.failed_pes, vec![1]);
        assert_eq!(chaos.config.active_pes(), 3);
        for t in chaos.outcome.plan.tasks() {
            assert_ne!(t.pe.index(), 1, "task on the killed PE");
        }
    }

    #[test]
    fn killing_every_pe_is_a_typed_config_error() {
        let runner = ParaConv::new(PimConfig::neurocube(4).unwrap());
        let g = examples::motivational();
        let mut builder = paraconv_fault::FaultSpec::builder(9);
        for pe in 0..4 {
            builder = builder.kill_pe(pe, 0);
        }
        let spec = builder.build().unwrap();
        assert!(matches!(
            runner.run_chaos(&g, 5, &spec).unwrap_err(),
            CoreError::Config(paraconv_pim::ConfigError::NoSurvivingPes)
        ));
    }

    #[test]
    fn zero_iterations_surface_as_core_error() {
        let runner = ParaConv::new(PimConfig::neurocube(4).unwrap());
        assert!(matches!(
            runner.run(&examples::motivational(), 0).unwrap_err(),
            CoreError::Sched(_)
        ));
    }
}
