//! Ablation studies beyond the paper's figures.
//!
//! DESIGN.md calls out three design choices worth isolating:
//!
//! * the **allocation policy** — the paper's optimal dynamic program
//!   versus a greedy density heuristic versus no caching at all;
//! * the **eDRAM penalty** — the paper cites a 2–10× band; the sweep
//!   shows how the Para-CONV advantage scales across it;
//! * the **cache capacity** — per-PE cache units drive how many IPRs
//!   escape eDRAM and how short the prologue gets.

use paraconv_pim::audit_plan;
use paraconv_sched::{
    AllocationPolicy, BaselineCachePolicy, ParaConvCore, ParaConvOutcome, ParaConvScheduler,
    SpartaScheduler,
};
use paraconv_synth::Benchmark;

use crate::sweep;
use crate::{CoreError, ExperimentConfig, ParaConv, TextTable};

/// One allocation-policy measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Benchmark name.
    pub name: String,
    /// The policy measured.
    pub policy: AllocationPolicy,
    /// Maximum retiming value under the policy.
    pub rmax: u64,
    /// Total execution time under the policy.
    pub total_time: u64,
    /// Off-chip (eDRAM) fetches under the policy.
    pub offchip_fetches: u64,
}

/// Compares the three allocation policies on every benchmark at one
/// PE count (the first in the sweep).
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn policies(
    config: &ExperimentConfig,
    suite: &[Benchmark],
) -> Result<Vec<PolicyRow>, CoreError> {
    let _span = paraconv_obs::span("experiment.ablation.policies", "experiment");
    // lint: allow(no-unwrap) — sweeps are built from non-empty literal benchmark lists
    let pes = *config.pe_counts.first().expect("non-empty sweep");
    let policies = [
        AllocationPolicy::DynamicProgram,
        AllocationPolicy::GreedyByDensity,
        AllocationPolicy::AllEdram,
    ];
    let mut points = Vec::with_capacity(suite.len() * policies.len());
    for &bench in suite {
        for policy in policies {
            points.push(config.sweep_point(bench, pes)?.with_policy(policy));
        }
    }
    let results = sweep::run_all_with(&points, config.effective_jobs())?;
    Ok(points
        .iter()
        .zip(&results)
        .map(|(point, result)| PolicyRow {
            name: point.benchmark.name().to_owned(),
            policy: point.policy,
            rmax: result.core.rmax(),
            total_time: result.report.total_time,
            offchip_fetches: result.report.offchip_fetches,
        })
        .collect())
}

/// One eDRAM-penalty measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PenaltyRow {
    /// The penalty factor applied.
    pub penalty: u64,
    /// Para-CONV total time.
    pub paraconv_time: u64,
    /// SPARTA total time.
    pub sparta_time: u64,
    /// IMP(%) at this penalty.
    pub imp_percent: f64,
}

/// Sweeps the eDRAM penalty over the cited 2–10× band on one
/// benchmark.
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn penalty_sweep(
    config: &ExperimentConfig,
    bench: &Benchmark,
    penalties: &[u64],
) -> Result<Vec<PenaltyRow>, CoreError> {
    let _span = paraconv_obs::span("experiment.ablation.penalty_sweep", "experiment");
    // lint: allow(no-unwrap) — sweeps are built from non-empty literal benchmark lists
    let pes = *config.pe_counts.first().expect("non-empty sweep");
    let mut points = Vec::with_capacity(penalties.len());
    for &penalty in penalties {
        let mut cfg = config.clone();
        cfg.edram_penalty = penalty;
        points.push(cfg.sweep_point(*bench, pes)?);
    }
    let comparisons = sweep::compare_all_with(&points, config.effective_jobs())?;
    Ok(penalties
        .iter()
        .zip(&comparisons)
        .map(|(&penalty, comparison)| PenaltyRow {
            penalty,
            paraconv_time: comparison.paraconv.report.total_time,
            sparta_time: comparison.sparta.report.total_time,
            imp_percent: comparison.improvement_percent(),
        })
        .collect())
}

/// One cache-capacity measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRow {
    /// Per-PE cache units configured.
    pub per_pe_units: u64,
    /// Maximum retiming value at this capacity.
    pub rmax: u64,
    /// IPRs cached at this capacity.
    pub cached: usize,
    /// Off-chip fetches at this capacity.
    pub offchip_fetches: u64,
}

/// Sweeps the per-PE cache capacity on one benchmark.
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn cache_sweep(
    config: &ExperimentConfig,
    bench: &Benchmark,
    capacities: &[u64],
) -> Result<Vec<CacheRow>, CoreError> {
    let _span = paraconv_obs::span("experiment.ablation.cache_sweep", "experiment");
    // lint: allow(no-unwrap) — sweeps are built from non-empty literal benchmark lists
    let pes = *config.pe_counts.first().expect("non-empty sweep");
    let mut points = Vec::with_capacity(capacities.len());
    for &units in capacities {
        let mut cfg = config.clone();
        cfg.per_pe_cache_units = units;
        points.push(cfg.sweep_point(*bench, pes)?);
    }
    let results = sweep::run_all_with(&points, config.effective_jobs())?;
    Ok(capacities
        .iter()
        .zip(&results)
        .map(|(&units, result)| CacheRow {
            per_pe_units: units,
            rmax: result.core.rmax(),
            cached: result.core.cached_iprs(),
            offchip_fetches: result.report.offchip_fetches,
        })
        .collect())
}

/// One row of the retiming-contribution study: the same architecture
/// and graph under four scheduler variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContributionRow {
    /// Benchmark name.
    pub name: String,
    /// SPARTA with its greedy cache (the paper's baseline).
    pub baseline: u64,
    /// SPARTA with the optimal DP cache grafted on (allocation
    /// contribution without retiming).
    pub baseline_dp: u64,
    /// Para-CONV with everything in eDRAM (retiming contribution
    /// without allocation).
    pub retiming_only: u64,
    /// Full Para-CONV (both).
    pub full: u64,
}

/// Isolates the retiming and allocation contributions: for each
/// benchmark at the first PE count of the sweep, total time under
/// baseline, baseline+DP, retiming-only and full Para-CONV.
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn contributions(
    config: &ExperimentConfig,
    suite: &[Benchmark],
) -> Result<Vec<ContributionRow>, CoreError> {
    let _span = paraconv_obs::span("experiment.ablation.contributions", "experiment");
    // lint: allow(no-unwrap) — sweeps are built from non-empty literal benchmark lists
    let pes = *config.pe_counts.first().expect("non-empty sweep");
    let pim = config.pim_config(pes)?;
    // The four scheduler variants per benchmark don't fit one
    // `SweepPoint`, so each benchmark is one irregular job.
    let jobs = sweep::parallel_map(suite, config.effective_jobs(), |bench| {
        let graph = bench.graph()?;
        let sparta = |policy| -> Result<u64, CoreError> {
            let scheduler = SpartaScheduler::new(pim.clone()).with_cache_policy(policy);
            let result = ParaConv::new(pim.clone())
                .with_audit(config.audit)
                .run_baseline_with(&scheduler, &graph, config.iterations)?;
            Ok(result.report.total_time)
        };
        let baseline = sparta(BaselineCachePolicy::Greedy)?;
        let baseline_dp = sparta(BaselineCachePolicy::OptimalDp)?;
        let retiming_only = ParaConv::new(pim.clone())
            .with_policy(AllocationPolicy::AllEdram)
            .with_audit(config.audit)
            .with_verify(config.verify)
            .run(&graph, config.iterations)?
            .report
            .total_time;
        let full = ParaConv::new(pim.clone())
            .with_audit(config.audit)
            .with_verify(config.verify)
            .run(&graph, config.iterations)?
            .report
            .total_time;
        Ok(ContributionRow {
            name: bench.name().to_owned(),
            baseline,
            baseline_dp,
            retiming_only,
            full,
        })
    });
    jobs.into_iter().collect()
}

/// One row of the kernel-unrolling study.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrollRow {
    /// Benchmark name.
    pub name: String,
    /// Per-iteration initiation interval with unrolling disabled.
    pub capped_interval: f64,
    /// Per-iteration initiation interval with automatic unrolling.
    pub free_interval: f64,
    /// The unroll factor the scheduler chose.
    pub chosen_unroll: u64,
}

/// Isolates the kernel-unrolling contribution: per-iteration
/// initiation interval with and without unrolling, at the *largest* PE
/// count of the sweep (where spare PEs make unrolling matter most).
///
/// # Errors
///
/// Propagates configuration, generation and scheduling errors.
pub fn unrolling(
    config: &ExperimentConfig,
    suite: &[Benchmark],
) -> Result<Vec<UnrollRow>, CoreError> {
    let _span = paraconv_obs::span("experiment.ablation.unrolling", "experiment");
    // lint: allow(no-unwrap) — sweeps are built from non-empty literal benchmark lists
    let pes = *config.pe_counts.last().expect("non-empty sweep");
    let pim = config.pim_config(pes)?;
    // Schedule-only jobs (no simulation), still one irregular job per
    // benchmark. Only the audit and verify opt-ins unroll the plans.
    let jobs = sweep::parallel_map(suite, config.effective_jobs(), |bench| {
        let graph = bench.graph()?;
        let schedule = |scheduler: ParaConvScheduler| -> Result<ParaConvCore, CoreError> {
            let (core, periodic) = scheduler.schedule_periodic(&graph, config.iterations)?;
            if !(config.audit || config.verify) {
                return Ok(core);
            }
            let plan = periodic.materialize()?;
            if config.audit {
                // No simulation here, so only the plan-level invariants.
                audit_plan(&graph, &plan, &pim)?;
            }
            let outcome = ParaConvOutcome { core, plan };
            if config.verify {
                // Likewise: static verification only, no dominance check.
                paraconv_verify::verify_outcome(&graph, &outcome, &pim)?;
            }
            Ok(outcome.core)
        };
        let capped = schedule(ParaConvScheduler::new(pim.clone()).with_max_unroll(1))?;
        let free = schedule(ParaConvScheduler::new(pim.clone()))?;
        Ok(UnrollRow {
            name: bench.name().to_owned(),
            capped_interval: capped.time_per_iteration(),
            free_interval: free.time_per_iteration(),
            chosen_unroll: free.unroll(),
        })
    });
    jobs.into_iter().collect()
}

/// Renders the unrolling study.
#[must_use]
pub fn render_unrolling(rows: &[UnrollRow]) -> TextTable {
    let mut table = TextTable::new(["benchmark", "no unroll t/iter", "unrolled t/iter", "u"]);
    for row in rows {
        table.push_row([
            row.name.clone(),
            format!("{:.2}", row.capped_interval),
            format!("{:.2}", row.free_interval),
            row.chosen_unroll.to_string(),
        ]);
    }
    table
}

/// Renders the contribution study.
#[must_use]
pub fn render_contributions(rows: &[ContributionRow]) -> TextTable {
    let mut table = TextTable::new([
        "benchmark",
        "SPARTA",
        "SPARTA+DP",
        "retiming-only",
        "full Para-CONV",
    ]);
    for row in rows {
        table.push_row([
            row.name.clone(),
            row.baseline.to_string(),
            row.baseline_dp.to_string(),
            row.retiming_only.to_string(),
            row.full.to_string(),
        ]);
    }
    table
}

/// Renders the policy comparison.
#[must_use]
pub fn render_policies(rows: &[PolicyRow]) -> TextTable {
    let mut table = TextTable::new(["benchmark", "policy", "R_max", "total", "off-chip"]);
    for row in rows {
        table.push_row([
            row.name.clone(),
            format!("{:?}", row.policy),
            row.rmax.to_string(),
            row.total_time.to_string(),
            row.offchip_fetches.to_string(),
        ]);
    }
    table
}

/// Renders the penalty sweep.
#[must_use]
pub fn render_penalties(rows: &[PenaltyRow]) -> TextTable {
    let mut table = TextTable::new(["penalty", "Para-CONV", "SPARTA", "IMP%"]);
    for row in rows {
        table.push_row([
            format!("{}x", row.penalty),
            row.paraconv_time.to_string(),
            row.sparta_time.to_string(),
            format!("{:.2}", row.imp_percent),
        ]);
    }
    table
}

/// Renders the cache sweep.
#[must_use]
pub fn render_cache(rows: &[CacheRow]) -> TextTable {
    let mut table = TextTable::new(["per-PE cache", "R_max", "cached IPRs", "off-chip"]);
    for row in rows {
        table.push_row([
            row.per_pe_units.to_string(),
            row.rmax.to_string(),
            row.cached.to_string(),
            row.offchip_fetches.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_suite;

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            pe_counts: vec![16],
            iterations: 4,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn dp_never_worse_than_greedy_or_none() {
        let rows = policies(&quick(), &quick_suite()[..2]).unwrap();
        for bench_rows in rows.chunks(3) {
            let dp = &bench_rows[0];
            let greedy = &bench_rows[1];
            let none = &bench_rows[2];
            assert!(dp.rmax <= greedy.rmax, "{}", dp.name);
            assert!(greedy.rmax <= none.rmax, "{}", dp.name);
            assert!(dp.offchip_fetches <= none.offchip_fetches);
        }
    }

    #[test]
    fn penalty_sweep_monotone_for_baseline() {
        let suite = quick_suite();
        let rows = penalty_sweep(&quick(), &suite[1], &[2, 4, 10]).unwrap();
        assert_eq!(rows.len(), 3);
        // A harsher penalty never helps the baseline (which leaves
        // most IPRs in eDRAM on its critical path).
        assert!(rows[0].sparta_time <= rows[2].sparta_time);
    }

    #[test]
    fn cache_sweep_monotone() {
        let suite = quick_suite();
        let rows = cache_sweep(&quick(), &suite[2], &[0, 2, 8, 64]).unwrap();
        for w in rows.windows(2) {
            assert!(w[0].rmax >= w[1].rmax);
            assert!(w[0].cached <= w[1].cached);
            assert!(w[0].offchip_fetches >= w[1].offchip_fetches);
        }
    }

    #[test]
    fn contributions_order_sensibly() {
        // Enough iterations to amortize the retiming-only variant's
        // longer prologue.
        let config = ExperimentConfig {
            pe_counts: vec![16],
            iterations: 40,
            ..ExperimentConfig::default()
        };
        let rows = contributions(&config, &quick_suite()[1..3]).unwrap();
        for row in &rows {
            // Full Para-CONV is the best variant; retiming is the
            // dominant lever (retiming-only already beats the
            // baseline once amortized). Note that SPARTA+DP may be
            // *worse* than plain SPARTA: the knapsack maximizes total
            // transfer time saved, not critical-path impact, so
            // without retiming it can starve the critical path — the
            // joint optimization is what makes the DP pay off.
            assert!(row.full <= row.retiming_only, "{}", row.name);
            assert!(row.retiming_only <= row.baseline, "{}", row.name);
        }
        let text = render_contributions(&rows).to_string();
        assert!(text.contains("retiming-only"));
    }

    #[test]
    fn unrolling_never_hurts_the_interval() {
        let config = ExperimentConfig {
            pe_counts: vec![64],
            iterations: 16,
            ..ExperimentConfig::default()
        };
        let rows = unrolling(&config, &quick_suite()[..3]).unwrap();
        for row in &rows {
            assert!(
                row.free_interval <= row.capped_interval,
                "{}: {} > {}",
                row.name,
                row.free_interval,
                row.capped_interval
            );
            assert!(row.chosen_unroll >= 1);
        }
        assert!(render_unrolling(&rows).to_string().contains("unrolled"));
    }

    #[test]
    fn renders_are_nonempty() {
        let cfg = quick();
        let suite = quick_suite();
        let p = policies(&cfg, &suite[..1]).unwrap();
        assert!(render_policies(&p).to_string().contains("DynamicProgram"));
        let pen = penalty_sweep(&cfg, &suite[0], &[2, 10]).unwrap();
        assert!(render_penalties(&pen).to_string().contains("10x"));
        let c = cache_sweep(&cfg, &suite[0], &[1]).unwrap();
        assert!(render_cache(&c).to_string().contains("per-PE cache"));
    }
}
