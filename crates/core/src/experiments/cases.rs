//! Figure-4 case distribution across the suite: how the six retiming
//! cases populate real benchmarks, and how the population shifts with
//! the PE count.
//!
//! The paper's §3.2 analysis rests on the observation that only cases
//! 2, 3 and 5 compete for cache capacity. This experiment quantifies
//! that population per benchmark — useful for sizing the cache and for
//! understanding where the dynamic program has leverage. An edge whose
//! transfer outgrows the period needs more than Theorem 3.1's two
//! iterations; it has no case and is counted in its own `beyond`
//! column, so each edge is counted exactly once.

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
    /// Edges beyond Theorem 3.1's bound, in none of the six cases.
    pub beyond: usize,
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
        .map(|((name, pes), result)| {
            let (histogram, beyond) = result.core.analysis.case_histogram();
            CaseRow {
                name,
                pes,
                histogram,
                beyond,
            }
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
        "beyond",
        "competing",
        "free",
    ]);
    for row in rows {
        let mut cells = vec![row.name.clone(), row.pes.to_string()];
        cells.extend(row.histogram.iter().map(usize::to_string));
        cells.push(row.beyond.to_string());
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
                row.histogram.iter().sum::<usize>() + row.beyond,
                bench.edges(),
                "{} @ {}",
                row.name,
                row.pes
            );
            assert_eq!(row.competing() + row.free() + row.beyond, bench.edges());
        }
    }

    #[test]
    fn every_edge_is_counted_once_off_the_default_penalty() {
        // At 8× eDRAM penalty some transfers outgrow the period: those
        // edges leave the six cases for the beyond column, and the row
        // still covers every edge exactly once.
        let config = ExperimentConfig {
            edram_penalty: 8,
            ..ExperimentConfig::default()
        };
        let rows = run(&config, &quick_suite()).unwrap();
        assert_eq!(rows.len(), 8); // 4 benchmarks × {16, 64} PEs
        for row in &rows {
            let bench = paraconv_synth::benchmarks::by_name(&row.name).unwrap();
            assert_eq!(
                row.histogram.iter().sum::<usize>() + row.beyond,
                bench.edges(),
                "{} @ {}",
                row.name,
                row.pes
            );
        }
        assert!(rows.iter().all(|row| row.beyond > 0));
    }

    #[test]
    fn the_default_census_is_unchanged_and_within_the_theorem() {
        // The census of the default configuration (16 and 64 PEs × 50
        // iterations, 4× penalty) from before the analysis kept its
        // pairs unclamped: no edge is beyond Theorem 3.1 there, so no
        // case count moved.
        const PINNED: [(&str, usize, [usize; 6]); 24] = [
            ("cat", 16, [0, 5, 0, 10, 6, 0]),
            ("cat", 64, [0, 4, 0, 10, 7, 0]),
            ("car", 16, [0, 4, 0, 16, 8, 0]),
            ("car", 64, [0, 3, 0, 10, 15, 0]),
            ("flower", 16, [1, 13, 0, 29, 8, 0]),
            ("flower", 64, [0, 8, 0, 25, 18, 0]),
            ("character-1", 16, [0, 9, 0, 86, 26, 0]),
            ("character-1", 64, [0, 2, 0, 44, 75, 0]),
            ("character-2", 16, [0, 12, 0, 80, 38, 0]),
            ("character-2", 64, [0, 12, 0, 80, 38, 0]),
            ("image-compress", 16, [3, 27, 0, 148, 0, 0]),
            ("image-compress", 64, [0, 6, 0, 73, 99, 0]),
            ("stock-predict", 16, [4, 41, 0, 173, 0, 0]),
            ("stock-predict", 64, [0, 28, 0, 183, 7, 0]),
            ("string-matching", 16, [7, 49, 0, 211, 0, 0]),
            ("string-matching", 64, [1, 20, 0, 140, 106, 0]),
            ("shortest-path", 16, [36, 93, 0, 377, 0, 0]),
            ("shortest-path", 64, [1, 20, 0, 294, 191, 0]),
            ("speech-1", 16, [66, 143, 0, 443, 0, 0]),
            ("speech-1", 64, [9, 30, 0, 557, 56, 0]),
            ("speech-2", 16, [107, 204, 0, 670, 0, 0]),
            ("speech-2", 64, [21, 58, 0, 902, 0, 0]),
            ("protein", 16, [177, 300, 0, 972, 0, 0]),
            ("protein", 64, [61, 82, 0, 1306, 0, 0]),
        ];
        let rows = run(
            &ExperimentConfig::default(),
            &crate::experiments::full_suite(),
        )
        .unwrap();
        let census: Vec<(&str, usize, [usize; 6])> = rows
            .iter()
            .map(|row| (row.name.as_str(), row.pes, row.histogram))
            .collect();
        assert_eq!(census, PINNED);
        assert!(rows.iter().all(|row| row.beyond == 0));
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
