//! Output checks. A failed check fails the whole command: it exits
//! non-zero and reports no numbers.

use std::collections::HashMap;
use std::path::Path;

use paraconv::graph::TaskGraph;
use paraconv::pim::PimConfig;
use paraconv::registry::{decode, request_key, PlanPolicy, Registry};
use paraconv::sched::AllocationPolicy;
use paraconv::serve::{ServeResponse, ServeStats, ServeStatus};
use paraconv::synth::benchmarks;

use crate::gen::Req;
use crate::stats::geomean;

/// Deliberate corruptions that prove the checks can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Flip one byte of a stored artifact before it is re-read.
    FlipArtifact,
    /// Expect a wrong request key for one response.
    WrongKey,
    /// Doctor the pinned `speedup_vs_sparta`.
    DoctorPin,
}

impl Inject {
    /// Parses the `--inject` argument.
    ///
    /// # Errors
    ///
    /// For an unknown name.
    pub fn parse(s: &str) -> Result<Inject, String> {
        match s {
            "flip-artifact" => Ok(Inject::FlipArtifact),
            "wrong-key" => Ok(Inject::WrongKey),
            "doctor-pin" => Ok(Inject::DoctorPin),
            other => Err(format!("unknown --inject `{other}`")),
        }
    }
}

/// The IPR count of `benchmark` (0 if unknown).
#[must_use]
pub fn edges(benchmark: &str) -> usize {
    benchmarks::by_name(benchmark).map_or(0, |b| b.edges())
}

/// Generated graphs by benchmark name, built on first use.
#[derive(Debug, Default)]
pub struct Graphs(HashMap<&'static str, TaskGraph>);

impl Graphs {
    /// The graph of `benchmark`.
    ///
    /// # Errors
    ///
    /// For an unknown benchmark or a generation failure.
    pub fn get(&mut self, benchmark: &'static str) -> Result<&TaskGraph, String> {
        if !self.0.contains_key(benchmark) {
            let b = benchmarks::by_name(benchmark)
                .ok_or_else(|| format!("unknown benchmark `{benchmark}`"))?;
            let graph = b.graph().map_err(|e| format!("{benchmark}: {e}"))?;
            self.0.insert(benchmark, graph);
        }
        Ok(&self.0[benchmark])
    }

    /// Generates every Table 1 graph up front.
    ///
    /// # Errors
    ///
    /// On a generation failure.
    pub fn all() -> Result<Graphs, String> {
        let mut graphs = Graphs::default();
        for b in benchmarks::all() {
            graphs.get(b.name())?;
        }
        Ok(graphs)
    }

    /// The request key the daemon must answer `req` with, recomputed
    /// from the generator's side.
    ///
    /// # Errors
    ///
    /// For an unknown benchmark or an invalid PE count.
    pub fn expected_key(&mut self, req: &Req) -> Result<String, String> {
        let config = PimConfig::neurocube(req.pes).map_err(|e| format!("config: {e}"))?;
        let policy = PlanPolicy {
            allocation: AllocationPolicy::DynamicProgram,
            iterations: req.iterations,
        };
        Ok(request_key(self.get(req.benchmark)?, &config, &policy))
    }
}

/// Every `ok` response carries the key the generator recomputes for
/// its request. Returns the number of keys checked.
///
/// # Errors
///
/// Names the first mismatch.
pub fn check_keys<'a>(
    answered: impl IntoIterator<Item = (&'a Req, &'a ServeResponse)>,
    graphs: &mut Graphs,
    inject: Option<Inject>,
) -> Result<usize, String> {
    let mut expected: HashMap<Req, String> = HashMap::new();
    let mut checked = 0;
    for (req, response) in answered {
        if response.status != ServeStatus::Ok {
            continue;
        }
        if !expected.contains_key(req) {
            let mut key = graphs.expected_key(req)?;
            if inject == Some(Inject::WrongKey) && checked == 0 {
                key.replace_range(0..1, if key.starts_with('0') { "1" } else { "0" });
            }
            expected.insert(*req, key);
        }
        let got = response.key.as_deref().unwrap_or("");
        if got != expected[req] {
            return Err(format!(
                "key check: {req:?} answered `{got}`, expected `{}`",
                expected[req]
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("key check: no ok responses".into());
    }
    Ok(checked)
}

/// The stored artifacts of `sample` decode, carry their key, and pass
/// the static verifier.
///
/// # Errors
///
/// Names the first artifact that fails.
pub fn check_artifacts(
    registry_dir: &Path,
    sample: &[String],
    inject: Option<Inject>,
) -> Result<(), String> {
    let registry = Registry::open(registry_dir).map_err(|e| format!("open registry: {e}"))?;
    if inject == Some(Inject::FlipArtifact) {
        if let Some(key) = sample.first() {
            flip_stored_byte(registry_dir, key)?;
        }
    }
    for key in sample {
        let bytes = registry
            .get(key)
            .map_err(|e| format!("artifact {key}: {e}"))?
            .ok_or_else(|| format!("artifact {key}: not stored"))?;
        let artifact = decode(&bytes).map_err(|e| format!("artifact {key}: {e}"))?;
        if artifact.header.key != *key {
            return Err(format!(
                "artifact {key}: header names {}",
                artifact.header.key
            ));
        }
        let bundle = &artifact.bundle;
        paraconv::verify::verify_outcome(&bundle.graph, &bundle.outcome, &bundle.config)
            .map_err(|e| format!("artifact {key}: verifier refused: {e}"))?;
    }
    Ok(())
}

fn flip_stored_byte(registry_dir: &Path, key: &str) -> Result<(), String> {
    let path = registry_dir.join("objects").join(&key[..2]).join(&key[2..]);
    let mut bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The engine answered every accepted request exactly once.
///
/// # Errors
///
/// When the counters do not balance.
pub fn check_conservation(stats: &ServeStats) -> Result<(), String> {
    let answered = stats.served + stats.deadline + stats.failed;
    if stats.accepted == answered {
        Ok(())
    } else {
        Err(format!(
            "conservation: {} accepted but {answered} answered",
            stats.accepted
        ))
    }
}

/// Simulated Para-CONV and SPARTA `total_time` of one Table 1 point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointTimes {
    /// Para-CONV makespan.
    pub paraconv: u64,
    /// SPARTA makespan.
    pub sparta: u64,
}

/// The pinned plan-quality figures of the table1-sweep workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pins {
    /// Geometric mean of Para-CONV simulated `total_time`.
    pub sim_cycles_geomean: f64,
    /// Geometric mean of SPARTA / Para-CONV simulated time.
    pub speedup_vs_sparta: f64,
}

/// Para-CONV beats SPARTA at every point, and the geometric means over
/// the points (in table order) equal `pins` exactly.
///
/// # Errors
///
/// Names the first losing point or the differing figure.
pub fn check_table1(points: &[PointTimes], pins: Pins) -> Result<Pins, String> {
    for (i, p) in points.iter().enumerate() {
        if p.paraconv >= p.sparta {
            return Err(format!(
                "table1: point {i} Para-CONV {} does not beat SPARTA {}",
                p.paraconv, p.sparta
            ));
        }
    }
    let cycles: Vec<f64> = points.iter().map(|p| p.paraconv as f64).collect();
    let speedups: Vec<f64> = points
        .iter()
        .map(|p| p.sparta as f64 / p.paraconv as f64)
        .collect();
    let got = Pins {
        sim_cycles_geomean: geomean(&cycles).ok_or("table1: no points")?,
        speedup_vs_sparta: geomean(&speedups).ok_or("table1: no points")?,
    };
    if got.sim_cycles_geomean.to_bits() != pins.sim_cycles_geomean.to_bits() {
        return Err(format!(
            "table1: sim_cycles_geomean {} differs from the pinned {}",
            got.sim_cycles_geomean, pins.sim_cycles_geomean
        ));
    }
    if got.speedup_vs_sparta.to_bits() != pins.speedup_vs_sparta.to_bits() {
        return Err(format!(
            "table1: speedup_vs_sparta {} differs from the pinned {}",
            got.speedup_vs_sparta, pins.speedup_vs_sparta
        ));
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv::registry::PlanBundle;
    use paraconv::sched::ParaConvScheduler;

    fn req() -> Req {
        Req {
            benchmark: "cat",
            pes: 16,
            iterations: 6,
        }
    }

    fn stored(dir: &Path) -> String {
        let req = req();
        let mut graphs = Graphs::default();
        let key = graphs.expected_key(&req).unwrap();
        let graph = graphs.get(req.benchmark).unwrap().clone();
        let config = PimConfig::neurocube(req.pes).unwrap();
        let outcome = ParaConvScheduler::new(config.clone())
            .schedule(&graph, req.iterations)
            .unwrap();
        let bytes = PlanBundle {
            graph,
            config,
            policy: PlanPolicy {
                allocation: AllocationPolicy::DynamicProgram,
                iterations: req.iterations,
            },
            outcome,
        }
        .encode();
        if dir.exists() {
            std::fs::remove_dir_all(dir).unwrap();
        }
        Registry::open(dir).unwrap().put(&key, &bytes).unwrap();
        key
    }

    #[test]
    fn right_keys_pass_and_a_wrong_key_fails() {
        let req = req();
        let mut graphs = Graphs::default();
        let key = graphs.expected_key(&req).unwrap();
        let ok = ServeResponse::ok("a", key.clone(), false);
        assert_eq!(check_keys([(&req, &ok)], &mut graphs, None), Ok(1));
        assert!(check_keys([(&req, &ok)], &mut graphs, Some(Inject::WrongKey)).is_err());
        let mut other = key;
        other.replace_range(0..1, if other.starts_with('0') { "1" } else { "0" });
        let bad = ServeResponse::ok("b", other, true);
        assert!(check_keys([(&req, &bad)], &mut graphs, None).is_err());
    }

    #[test]
    fn stored_artifacts_pass_and_a_flipped_byte_fails() {
        let dir = Path::new(".perfbench-work/test-artifacts");
        let key = stored(dir);
        assert_eq!(
            check_artifacts(dir, std::slice::from_ref(&key), None),
            Ok(())
        );
        assert!(check_artifacts(dir, &[key], Some(Inject::FlipArtifact)).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn conservation_balances() {
        let mut stats = ServeStats {
            accepted: 5,
            served: 4,
            deadline: 1,
            ..ServeStats::default()
        };
        assert!(check_conservation(&stats).is_ok());
        stats.served = 3;
        assert!(check_conservation(&stats).is_err());
    }

    #[test]
    fn table1_pins_are_exact() {
        let points = [
            PointTimes {
                paraconv: 100,
                sparta: 200,
            },
            PointTimes {
                paraconv: 400,
                sparta: 600,
            },
        ];
        let pins = Pins {
            sim_cycles_geomean: geomean(&[100.0, 400.0]).unwrap(),
            speedup_vs_sparta: geomean(&[2.0, 1.5]).unwrap(),
        };
        assert_eq!(check_table1(&points, pins), Ok(pins));
        let doctored = Pins {
            speedup_vs_sparta: pins.speedup_vs_sparta * (1.0 + 1e-12),
            ..pins
        };
        assert!(check_table1(&points, doctored).is_err());
        let losing = [PointTimes {
            paraconv: 5,
            sparta: 5,
        }];
        assert!(check_table1(&losing, pins).is_err());
    }
}
