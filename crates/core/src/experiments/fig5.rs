//! Figure 5: per-iteration execution time of Para-CONV on 16, 32 and
//! 64 processing elements, normalized to the baseline on 64 PEs.

use paraconv_synth::Benchmark;

use crate::sweep;
use crate::{CoreError, ExperimentConfig, TextTable};

/// One benchmark series of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Benchmark name.
    pub name: String,
    /// Para-CONV per-iteration execution time (initiation interval
    /// `p/u`) per PE count, in raw time units.
    pub period: Vec<f64>,
    /// The same values normalized by the baseline's per-iteration time
    /// on the largest PE count in the sweep (the paper normalizes to
    /// the 64-PE baseline).
    pub normalized: Vec<f64>,
}

/// Runs Figure 5 over a benchmark suite.
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn run(config: &ExperimentConfig, suite: &[Benchmark]) -> Result<Vec<Fig5Row>, CoreError> {
    let _span = paraconv_obs::span("experiment.fig5", "experiment");
    let &reference_pes = config
        .pe_counts
        .iter()
        .max()
        // lint: allow(no-unwrap) — sweeps are built from non-empty literal benchmark lists
        .expect("at least one PE count in the sweep");
    let jobs = config.effective_jobs();
    // Normalization bases: the baseline's steady-state per-iteration
    // time on the reference machine, one point per benchmark.
    let mut reference_points = Vec::with_capacity(suite.len());
    let mut points = Vec::with_capacity(suite.len() * config.pe_counts.len());
    for &bench in suite {
        reference_points.push(config.sweep_point(bench, reference_pes)?);
        for &pes in &config.pe_counts {
            points.push(config.sweep_point(bench, pes)?);
        }
    }
    let references = sweep::baseline_all_with(&reference_points, jobs)?;
    let results = sweep::run_all_with(&points, jobs)?;
    let rows = suite
        .iter()
        .zip(&references)
        .zip(results.chunks(config.pe_counts.len().max(1)))
        .map(|((bench, reference), chunk)| {
            let reference = reference.core.time_per_iteration();
            let period: Vec<f64> = chunk.iter().map(|r| r.core.time_per_iteration()).collect();
            let normalized = period.iter().map(|p| p / reference).collect();
            Fig5Row {
                name: bench.name().to_owned(),
                period,
                normalized,
            }
        })
        .collect();
    Ok(rows)
}

/// Renders the series as an aligned text table.
#[must_use]
pub fn render(config: &ExperimentConfig, rows: &[Fig5Row]) -> TextTable {
    let mut headers = vec!["benchmark".to_owned()];
    for &pes in &config.pe_counts {
        headers.push(format!("p@{pes}"));
        headers.push(format!("norm@{pes}"));
    }
    let mut table = TextTable::new(headers);
    for row in rows {
        let mut cells = vec![row.name.clone()];
        for (p, n) in row.period.iter().zip(&row.normalized) {
            cells.push(format!("{p:.2}"));
            cells.push(format!("{n:.3}"));
        }
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_suite;

    #[test]
    fn periods_shrink_with_more_pes() {
        let config = ExperimentConfig {
            pe_counts: vec![16, 32, 64],
            iterations: 4,
            ..ExperimentConfig::default()
        };
        let rows = run(&config, &quick_suite()[2..4]).unwrap();
        for row in &rows {
            assert!(row.period[0] >= row.period[1], "{}", row.name);
            assert!(row.period[1] >= row.period[2], "{}", row.name);
            // Para-CONV on the reference machine beats the reference
            // baseline (normalized < 1).
            assert!(row.normalized[2] <= 1.0, "{}", row.name);
        }
    }

    #[test]
    fn render_shape() {
        let config = ExperimentConfig {
            pe_counts: vec![16],
            iterations: 4,
            ..ExperimentConfig::default()
        };
        let rows = run(&config, &quick_suite()[..1]).unwrap();
        let text = render(&config, &rows).to_string();
        assert!(text.contains("p@16"));
        assert!(text.contains("norm@16"));
    }
}
