//! The parallel sweep engine behind every experiment.
//!
//! All paper artifacts are Cartesian sweeps over
//! `(benchmark × architecture × policy × iterations)`, and every point
//! is independent: the scheduler and simulator share no state between
//! runs. This module fans a list of [`SweepPoint`] jobs out across a
//! [`std::thread::scope`]-based worker pool and returns the results
//! **in input order**, regardless of completion order, so rendered
//! tables are byte-for-byte identical at any worker count.
//!
//! The pool width defaults to [`std::thread::available_parallelism`]
//! and can be pinned with the `PARACONV_JOBS` environment variable
//! (or per-harness via [`ExperimentConfig::jobs`]). A pool of 1 runs
//! the jobs inline on the calling thread — exactly the sequential
//! loop the experiments used to hand-roll.
//!
//! Worker-count invariance covers the observability layer too: the
//! simulator's streaming pass emits its counters (`sim.events`,
//! `pe.tasks_recorded`, the vault totals) once per accepted plan, as
//! totals per point, so merged snapshots stay byte-identical at any
//! pool width.
//!
//! [`ExperimentConfig::jobs`]: crate::ExperimentConfig::jobs
//!
//! # Examples
//!
//! ```
//! use paraconv::sweep::{self, SweepPoint};
//! use paraconv::pim::PimConfig;
//! use paraconv::synth::benchmarks;
//!
//! let config = PimConfig::neurocube(16)?;
//! let points: Vec<SweepPoint> = benchmarks::all()[..2]
//!     .iter()
//!     .map(|&b| SweepPoint::new(b, config.clone(), 8))
//!     .collect();
//! let comparisons = sweep::compare_all(&points)?;
//! assert_eq!(comparisons.len(), 2);
//! assert!(comparisons.iter().all(|c| c.paraconv.report.total_time > 0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use paraconv_fault::FaultSpec;
use paraconv_pim::PimConfig;
use paraconv_sched::AllocationPolicy;
use paraconv_synth::Benchmark;

use crate::{BaselineResult, Comparison, CoreError, ParaConv, RunResult};

/// One independent job of a sweep: a benchmark scheduled and simulated
/// on one architecture under one allocation policy.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The benchmark to generate and run.
    pub benchmark: Benchmark,
    /// The architecture to run it on.
    pub config: PimConfig,
    /// The allocation policy for the Para-CONV runs.
    pub policy: AllocationPolicy,
    /// Logical iterations to schedule and replay.
    pub iterations: u64,
    /// Whether the independent plan auditor re-checks every run.
    pub audit: bool,
    /// Whether the static plan verifier proves every Para-CONV run's
    /// retiming and occupancy bounds (SPARTA runs are never verified).
    pub verify: bool,
    /// When set, [`SweepPoint::run`] replays under this deterministic
    /// fault campaign via [`ParaConv::run_chaos`] (degradation-curve
    /// experiments). Baseline and comparison runs stay fault-free: the
    /// SPARTA scheduler has no degraded-mode replanning to exercise.
    pub fault: Option<FaultSpec>,
}

impl SweepPoint {
    /// A point under the paper's default dynamic-program policy.
    #[must_use]
    pub fn new(benchmark: Benchmark, config: PimConfig, iterations: u64) -> Self {
        SweepPoint {
            benchmark,
            config,
            policy: AllocationPolicy::DynamicProgram,
            iterations,
            audit: false,
            verify: false,
            fault: None,
        }
    }

    /// Overrides the allocation policy (ablation studies).
    #[must_use]
    pub fn with_policy(mut self, policy: AllocationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the independent plan auditor for this point's runs.
    #[must_use]
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Enables the static plan verifier for this point's Para-CONV
    /// runs.
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Replays this point's Para-CONV run under a deterministic fault
    /// campaign (see [`SweepPoint::fault`]).
    #[must_use]
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    fn runner(&self) -> ParaConv {
        ParaConv::new(self.config.clone())
            .with_policy(self.policy)
            .with_audit(self.audit)
            .with_verify(self.verify)
    }

    /// Runs Para-CONV at this point.
    ///
    /// # Errors
    ///
    /// Propagates generation, scheduling and simulation errors.
    pub fn run(&self) -> Result<RunResult, CoreError> {
        let graph = self.benchmark.graph()?;
        match &self.fault {
            Some(spec) => {
                let chaos = self.runner().run_chaos(&graph, self.iterations, spec)?;
                Ok(RunResult {
                    outcome: chaos.outcome,
                    report: chaos.report,
                })
            }
            None => self.runner().run(&graph, self.iterations),
        }
    }

    /// Runs the SPARTA baseline at this point.
    ///
    /// # Errors
    ///
    /// Propagates generation, scheduling and simulation errors.
    pub fn run_baseline(&self) -> Result<BaselineResult, CoreError> {
        let graph = self.benchmark.graph()?;
        self.runner().run_baseline(&graph, self.iterations)
    }

    /// Runs both schedulers at this point.
    ///
    /// # Errors
    ///
    /// Propagates generation, scheduling and simulation errors.
    pub fn compare(&self) -> Result<Comparison, CoreError> {
        let graph = self.benchmark.graph()?;
        self.runner().compare(&graph, self.iterations)
    }
}

/// The worker-pool width used when a harness does not pin one:
/// `PARACONV_JOBS` if set to a positive integer, otherwise the host's
/// available parallelism (1 if that cannot be determined).
#[must_use]
pub fn max_jobs() -> usize {
    if let Some(jobs) = std::env::var("PARACONV_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return jobs;
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item on a pool of `jobs` scoped workers and
/// returns the results in input order.
///
/// Workers claim items from a shared atomic cursor, so long and short
/// jobs interleave without static partitioning skew. `jobs == 1` (or a
/// single item) runs inline on the calling thread with no pool at all.
/// A panic in `f` is propagated to the caller after the scope joins.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let per_worker: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let _span = paraconv_obs::span("sweep.job", "sweep");
                        out.push((i, f(item)));
                    }
                    // Hand this worker's metric buffer to the global
                    // aggregate before the scope joins; TLS destructors
                    // are not guaranteed to have run by then.
                    paraconv_obs::flush_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(results) => results,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    for (i, result) in per_worker.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        // lint: allow(no-unwrap) — worker threads propagate panics instead of poisoning results
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

fn first_error<R>(results: Vec<Result<R, CoreError>>) -> Result<Vec<R>, CoreError> {
    results.into_iter().collect()
}

/// [`SweepPoint::run`] over every point, on `jobs` workers.
///
/// # Errors
///
/// Returns the first failing point's error in **input** order (not
/// completion order), so error reporting is deterministic too.
pub fn run_all_with(points: &[SweepPoint], jobs: usize) -> Result<Vec<RunResult>, CoreError> {
    first_error(parallel_map(points, jobs, SweepPoint::run))
}

/// [`run_all_with`] at the [`max_jobs`] default width.
///
/// # Errors
///
/// Same as [`run_all_with`].
pub fn run_all(points: &[SweepPoint]) -> Result<Vec<RunResult>, CoreError> {
    run_all_with(points, max_jobs())
}

/// [`SweepPoint::run_baseline`] over every point, on `jobs` workers.
///
/// # Errors
///
/// Same as [`run_all_with`].
pub fn baseline_all_with(
    points: &[SweepPoint],
    jobs: usize,
) -> Result<Vec<BaselineResult>, CoreError> {
    first_error(parallel_map(points, jobs, SweepPoint::run_baseline))
}

/// [`baseline_all_with`] at the [`max_jobs`] default width.
///
/// # Errors
///
/// Same as [`run_all_with`].
pub fn baseline_all(points: &[SweepPoint]) -> Result<Vec<BaselineResult>, CoreError> {
    baseline_all_with(points, max_jobs())
}

/// [`SweepPoint::compare`] over every point, on `jobs` workers.
///
/// # Errors
///
/// Same as [`run_all_with`].
pub fn compare_all_with(points: &[SweepPoint], jobs: usize) -> Result<Vec<Comparison>, CoreError> {
    first_error(parallel_map(points, jobs, SweepPoint::compare))
}

/// [`compare_all_with`] at the [`max_jobs`] default width.
///
/// # Errors
///
/// Same as [`run_all_with`].
pub fn compare_all(points: &[SweepPoint]) -> Result<Vec<Comparison>, CoreError> {
    compare_all_with(points, max_jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_synth::benchmarks;

    fn points() -> Vec<SweepPoint> {
        benchmarks::all()[..3]
            .iter()
            .flat_map(|&b| {
                [16usize, 32]
                    .iter()
                    .map(move |&pes| SweepPoint::new(b, PimConfig::neurocube(pes).unwrap(), 6))
            })
            .collect()
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..57).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let doubled = parallel_map(&items, jobs, |&i| i * 2);
            assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<usize> = parallel_map(&[], 8, |&i: &usize| i);
        assert!(out.is_empty());
    }

    #[test]
    fn one_worker_equals_many_workers() {
        let points = points();
        let sequential = compare_all_with(&points, 1).unwrap();
        let parallel = compare_all_with(&points, 8).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.paraconv.report, p.paraconv.report);
            assert_eq!(s.sparta.report, p.sparta.report);
        }
    }

    #[test]
    fn errors_surface_in_input_order() {
        // Zero iterations fails in the scheduler; the *first* bad point
        // must win even when a later one errors first on the clock.
        let ok = SweepPoint::new(benchmarks::all()[0], PimConfig::neurocube(16).unwrap(), 4);
        let bad = |b: Benchmark| SweepPoint::new(b, PimConfig::neurocube(16).unwrap(), 0);
        let points = vec![
            ok.clone(),
            bad(benchmarks::all()[1]),
            ok,
            bad(benchmarks::all()[2]),
        ];
        for jobs in [1, 4] {
            let err = run_all_with(&points, jobs).unwrap_err();
            assert!(matches!(err, CoreError::Sched(_)));
        }
    }

    #[test]
    fn max_jobs_is_positive() {
        assert!(max_jobs() >= 1);
    }
}
