//! Figure-4 case distribution across the suite: how the six retiming
//! cases populate real benchmarks, and how the population shifts with
//! the PE count.
//!
//! The paper's §3.2 analysis rests on the observation that only cases
//! 2, 3 and 5 compete for cache capacity. This experiment quantifies
//! that population per benchmark — useful for sizing the cache and for
//! understanding where the dynamic program has leverage.

use paraconv_synth::Benchmark;

use crate::sweep;
use crate::{CoreError, ExperimentConfig, TextTable};

/// One benchmark's case histogram at one PE count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRow {
    /// Benchmark name.
    pub name: String,
    /// Processing engines.
    pub pes: usize,
    /// Counts of cases 1–6 (index 0 = case 1).
    pub histogram: [usize; 6],
}

impl CaseRow {
    /// Edges in the competing cases (2, 3 and 5).
    #[must_use]
    pub fn competing(&self) -> usize {
        self.histogram[1] + self.histogram[2] + self.histogram[4]
    }

    /// Edges whose placement cannot affect the prologue (cases 1, 4
    /// and 6).
    #[must_use]
    pub fn free(&self) -> usize {
        self.histogram[0] + self.histogram[3] + self.histogram[5]
    }
}

/// Runs the case census over a suite at the first PE count of the
/// sweep, plus the largest for contrast.
///
/// # Errors
///
/// Propagates configuration, generation, scheduling and simulation
/// errors.
pub fn run(config: &ExperimentConfig, suite: &[Benchmark]) -> Result<Vec<CaseRow>, CoreError> {
    let _span = paraconv_obs::span("experiment.cases", "experiment");
    // lint: allow(no-unwrap) — sweeps are built from non-empty literal benchmark lists
    let mut pes_points = vec![*config.pe_counts.first().expect("non-empty sweep")];
    if let Some(&last) = config.pe_counts.last() {
        if !pes_points.contains(&last) {
            pes_points.push(last);
        }
    }
    let mut points = Vec::with_capacity(suite.len() * pes_points.len());
    let mut labels = Vec::with_capacity(suite.len() * pes_points.len());
    for &bench in suite {
        for &pes in &pes_points {
            points.push(config.sweep_point(bench, pes)?);
            labels.push((bench.name().to_owned(), pes));
        }
    }
    let results = sweep::run_all_with(&points, config.effective_jobs())?;
    Ok(labels
        .into_iter()
        .zip(&results)
        .map(|((name, pes), result)| CaseRow {
            name,
            pes,
            histogram: result.core.analysis.case_histogram(),
        })
        .collect())
}

/// Renders the census.
#[must_use]
pub fn render(rows: &[CaseRow]) -> TextTable {
    let mut table = TextTable::new([
        "benchmark",
        "PEs",
        "c1",
        "c2",
        "c3",
        "c4",
        "c5",
        "c6",
        "competing",
        "free",
    ]);
    for row in rows {
        let mut cells = vec![row.name.clone(), row.pes.to_string()];
        cells.extend(row.histogram.iter().map(usize::to_string));
        cells.push(row.competing().to_string());
        cells.push(row.free().to_string());
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_suite;

    #[test]
    fn histograms_cover_every_edge() {
        let config = ExperimentConfig {
            pe_counts: vec![16, 64],
            iterations: 4,
            ..ExperimentConfig::default()
        };
        let rows = run(&config, &quick_suite()[..3]).unwrap();
        assert_eq!(rows.len(), 6); // 3 benchmarks × 2 PE points
        for row in &rows {
            let bench = paraconv_synth::benchmarks::by_name(&row.name).unwrap();
            assert_eq!(
                row.histogram.iter().sum::<usize>(),
                bench.edges(),
                "{} @ {}",
                row.name,
                row.pes
            );
            assert_eq!(row.competing() + row.free(), bench.edges());
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
        let text = render(&rows).to_string();
        assert!(text.contains("competing"));
        assert!(text.contains("cat"));
    }
}
