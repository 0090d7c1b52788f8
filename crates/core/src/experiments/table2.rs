//! Table 2: the maximum retiming value of Para-CONV on 16, 32 and 64
//! processing elements.

use paraconv_synth::Benchmark;

use crate::sweep;
use crate::{CoreError, ExperimentConfig, TextTable};

/// One benchmark row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// `R_max` per PE count, in sweep order.
    pub rmax: Vec<u64>,
    /// The row average, as printed in the paper.
    pub average: f64,
}

/// Runs Table 2 over a benchmark suite.
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn run(config: &ExperimentConfig, suite: &[Benchmark]) -> Result<Vec<Table2Row>, CoreError> {
    let _span = paraconv_obs::span("experiment.table2", "experiment");
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
        .map(|(bench, chunk)| {
            let rmax: Vec<u64> = chunk.iter().map(|r| r.core.rmax()).collect();
            let average = rmax.iter().sum::<u64>() as f64 / rmax.len().max(1) as f64;
            Table2Row {
                name: bench.name().to_owned(),
                rmax,
                average,
            }
        })
        .collect();
    Ok(rows)
}

/// Renders the rows as an aligned text table shaped like the paper's.
#[must_use]
pub fn render(config: &ExperimentConfig, rows: &[Table2Row]) -> TextTable {
    let mut headers = vec!["benchmark".to_owned()];
    for &pes in &config.pe_counts {
        headers.push(format!("{pes}-core"));
    }
    headers.push("Average".to_owned());
    let mut table = TextTable::new(headers);
    for row in rows {
        let mut cells = vec![row.name.clone()];
        cells.extend(row.rmax.iter().map(u64::to_string));
        cells.push(format!("{:.1}", row.average));
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_suite;

    #[test]
    fn rows_report_rmax_per_pe_count() {
        let config = ExperimentConfig {
            pe_counts: vec![4, 16],
            iterations: 4,
            ..ExperimentConfig::default()
        };
        let rows = run(&config, &quick_suite()[..2]).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.rmax.len(), 2);
            let expect = row.rmax.iter().sum::<u64>() as f64 / 2.0;
            assert!((row.average - expect).abs() < 1e-9);
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
        assert!(text.contains("16-core"));
        assert!(text.contains("Average"));
        assert!(text.contains("cat"));
    }
}
