//! Figure 6: the number of intermediate processing results allocated
//! to the on-chip cache on 16, 32 and 64 processing elements.

use paraconv_synth::Benchmark;

use crate::sweep;
use crate::{CoreError, ExperimentConfig, TextTable};

/// One benchmark series of Figure 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: String,
    /// Total IPR count of the benchmark (for context).
    pub total_iprs: usize,
    /// IPRs allocated to cache per PE count, in sweep order.
    pub cached: Vec<usize>,
    /// IPRs with positive `ΔR` (the population competing for cache).
    pub competing: Vec<usize>,
}

/// Runs Figure 6 over a benchmark suite.
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn run(config: &ExperimentConfig, suite: &[Benchmark]) -> Result<Vec<Fig6Row>, CoreError> {
    let _span = paraconv_obs::span("experiment.fig6", "experiment");
    let mut points = Vec::with_capacity(suite.len() * config.pe_counts.len());
    for &bench in suite {
        for &pes in &config.pe_counts {
            points.push(config.sweep_point(bench, pes)?);
        }
    }
    let results = sweep::run_all_with(&points, config.effective_jobs())?;
    let rows = suite
        .iter()
        .zip(results.chunks(config.pe_counts.len().max(1)))
        .map(|(bench, chunk)| Fig6Row {
            name: bench.name().to_owned(),
            total_iprs: bench.edges(),
            cached: chunk.iter().map(|r| r.core.cached_iprs()).collect(),
            competing: chunk
                .iter()
                .map(|r| {
                    r.core
                        .analysis
                        .pairs()
                        .filter(|(_, pair)| pair.delta_r() > 0)
                        .count()
                })
                .collect(),
        })
        .collect();
    Ok(rows)
}

/// Renders the series as an aligned text table.
#[must_use]
pub fn render(config: &ExperimentConfig, rows: &[Fig6Row]) -> TextTable {
    let mut headers = vec!["benchmark".to_owned(), "#IPRs".to_owned()];
    for &pes in &config.pe_counts {
        headers.push(format!("cached@{pes}"));
    }
    headers.push("competing(max)".to_owned());
    let mut table = TextTable::new(headers);
    for row in rows {
        let mut cells = vec![row.name.clone(), row.total_iprs.to_string()];
        cells.extend(row.cached.iter().map(usize::to_string));
        cells.push(row.competing.iter().copied().max().unwrap_or(0).to_string());
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_suite;

    #[test]
    fn cached_counts_bounded_by_totals() {
        let config = ExperimentConfig {
            pe_counts: vec![16, 64],
            iterations: 4,
            ..ExperimentConfig::default()
        };
        let rows = run(&config, &quick_suite()[..3]).unwrap();
        for row in &rows {
            for (&cached, &competing) in row.cached.iter().zip(&row.competing) {
                // `competing` uses the clamped Figure 4 classification
                // and can undercount edges whose unclamped ΔR is
                // positive, so it is context, not an upper bound.
                assert!(cached <= row.total_iprs, "{}", row.name);
                assert!(competing <= row.total_iprs, "{}", row.name);
            }
            // More aggregate cache never caches fewer IPRs when the
            // competing population is unchanged; with the period also
            // changing the count may shift, so only sanity-check > 0
            // capacity usage on the larger machine.
            assert!(row.cached[1] > 0, "{}", row.name);
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
        assert!(text.contains("cached@16"));
        assert!(text.contains("#IPRs"));
    }
}
