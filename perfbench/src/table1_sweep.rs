//! `table1-sweep`: the paper's Table 1 (12 benchmarks × {16, 32, 64}
//! PEs, Para-CONV and SPARTA, both simulated) through the sweep pool,
//! pass after pass. No daemon and no registry: this is where the
//! schedulers, the simulator and the pool do the work, and where plan
//! quality is pinned.

use std::time::Instant;

use paraconv::sweep::{self, SweepPoint};
use paraconv::synth::benchmarks;
use paraconv::ExperimentConfig;

use crate::checks::{check_table1, Inject, Pins, PointTimes};
use crate::gen::{self, PE_COUNTS};
use crate::report::{Opts, Report};

/// Iterations per point: enough that one pass over the 36 points takes
/// seconds, so the schedulers' emit loops and the simulator dominate.
const ITERATIONS: u64 = 500;

/// Plan quality at [`ITERATIONS`], recorded when the benchmark was
/// defined. Any change to a schedule or to the simulator's timing
/// moves these, and the run fails. (At the paper's 50 iterations the
/// same speed-up is 2.1506.)
const PINS: Pins = Pins {
    sim_cycles_geomean: 2_975.893_978_423_626_3,
    speedup_vs_sparta: 2.897_264_723_946_688,
};

/// The 36 Table 1 points at [`ITERATIONS`] in table order, after checking that every
/// generated graph has its Table 1 size.
///
/// # Errors
///
/// On a configuration or generation failure, or a size mismatch.
pub fn points() -> Result<Vec<SweepPoint>, String> {
    let config = ExperimentConfig {
        iterations: ITERATIONS,
        ..ExperimentConfig::default()
    };
    let mut points = Vec::new();
    for b in benchmarks::all() {
        let graph = b.graph().map_err(|e| format!("{}: {e}", b.name()))?;
        if graph.node_count() != b.vertices() || graph.edge_count() != b.edges() {
            return Err(format!(
                "{}: generated graph differs from Table 1",
                b.name()
            ));
        }
        for pes in PE_COUNTS {
            points.push(config.sweep_point(b, pes).map_err(|e| e.to_string())?);
        }
    }
    Ok(points)
}

/// The pins a run checks against (doctored for the self-test).
#[must_use]
pub fn pins(inject: Option<Inject>) -> Pins {
    if inject == Some(Inject::DoctorPin) {
        Pins {
            speedup_vs_sparta: PINS.speedup_vs_sparta + 1e-9,
            ..PINS
        }
    } else {
        PINS
    }
}

/// Runs the workload untraced and checks its outputs.
///
/// # Errors
///
/// On a set-up failure, a scheduling or simulation error, or a failed
/// check.
pub fn run(opts: &Opts) -> Result<Report, String> {
    // Every pass sets up afresh, timed apart from the pass, so the
    // reported median samples the whole run, not only its first, faster,
    // moments.
    let mut setups = Vec::new();

    let mut latencies_ms = Vec::new();
    let mut passes = 0u64;
    let mut wall = 0.0;
    loop {
        let start = Instant::now();
        let points = self::points()?;
        setups.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let order = gen::table1_order(opts.seed, passes);
        // Each job keeps only the two makespans: whole comparisons of
        // 500-iteration plans would hold most of a gigabyte per pass.
        let timed = sweep::parallel_map(&order, opts.jobs, |&i| {
            let t = Instant::now();
            let result = points[i].compare().map(|c| PointTimes {
                paraconv: c.paraconv.report.total_time,
                sparta: c.sparta.report.total_time,
            });
            (i, result, t.elapsed().as_secs_f64())
        });
        let mut table = vec![
            PointTimes {
                paraconv: 0,
                sparta: 0
            };
            points.len()
        ];
        for (i, result, secs) in timed {
            table[i] = result.map_err(|e| format!("table1 point {i}: {e}"))?;
            latencies_ms.push(secs * 1e3);
        }
        check_table1(&table, pins(opts.inject))?;
        passes += 1;
        wall += start.elapsed().as_secs_f64();
        if wall >= opts.seconds {
            break;
        }
    }
    eprintln!(
        "table1-sweep: {passes} passes of {} points in {wall:.2}s on {} jobs; every point \
         beats SPARTA, geomean {} cycles and speed-up {} as pinned",
        gen::ROUND,
        opts.jobs,
        PINS.sim_cycles_geomean,
        PINS.speedup_vs_sparta
    );
    let attempted = latencies_ms.len() as u64;
    let mut report = Report {
        attempted,
        failed: 0,
        ..Report::default()
    };
    report.push_end_to_end(&latencies_ms, attempted as f64 / wall, &setups)?;
    Ok(report)
}
