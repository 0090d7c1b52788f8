//! Plan visualization: ASCII Gantt charts and Chrome trace timelines.
//!
//! Debugging a scheduler means looking at the schedule. This module
//! renders an [`ExecutionPlan`] as a per-PE timeline (one row per
//! engine, one column per time unit, over a caller-chosen window so
//! steady-state kernels and prologues can be inspected separately) and
//! as a Perfetto-loadable trace of tasks and transfers.

use std::fmt::Write as _;

use paraconv_graph::{Placement, TaskGraph};

use crate::{ExecutionPlan, PimConfig};

/// Renders the plan's PE occupancy as an ASCII Gantt chart over
/// `[from, to)`.
///
/// Each row is one PE; a task instance prints its node index digit
/// (modulo 10) for every unit it occupies, idle units print `.`.
/// Windows wider than 200 units are truncated to keep output readable;
/// truncation is explicit — every row ends with `…+N` naming the
/// number of hidden time units. Inverted windows (`from > to`) render
/// as empty (zero-width) charts rather than panicking.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_pim::{gantt, ExecutionPlan, PeId, PimConfig, PlannedTask};
///
/// let g = examples::chain(1);
/// let cfg = PimConfig::neurocube(2)?;
/// let mut plan = ExecutionPlan::new(1);
/// plan.push_task(PlannedTask {
///     node: g.node_ids().next().unwrap(),
///     iteration: 1,
///     pe: PeId::new(0),
///     start: 1,
///     duration: 1,
/// });
/// let chart = gantt(&g, &plan, &cfg, 0, 4);
/// assert!(chart.contains("PE0 |.0.."));
/// assert!(chart.contains("PE1 |...."));
/// # Ok::<(), paraconv_pim::ConfigError>(())
/// ```
#[must_use]
pub fn gantt(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
    from: u64,
    to: u64,
) -> String {
    let to = to.max(from);
    let shown_to = to.min(from.saturating_add(200));
    let hidden = to - shown_to;
    let width = (shown_to - from) as usize;
    let mut rows = vec![vec![b'.'; width]; config.num_pes()];
    for task in plan.tasks() {
        let Some(row) = rows.get_mut(task.pe.index()) else {
            continue;
        };
        let digit = b'0' + (task.node.index() % 10) as u8;
        for t in task.start.max(from)..task.finish().min(shown_to) {
            row[(t - from) as usize] = digit;
        }
    }
    let _ = graph; // reserved for richer labels
    let mut out = String::new();
    let _ = writeln!(
        out,
        "time {from}..{shown_to} (node index mod 10; '.' = idle)"
    );
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(out, "PE{i} |{}", String::from_utf8_lossy(row));
        if hidden > 0 {
            let _ = write!(out, " …+{hidden}");
        }
        out.push('\n');
    }
    out
}

/// Exports the plan as a Chrome trace-event timeline loadable in
/// Perfetto / `chrome://tracing`.
///
/// Process 1 ("PE array") carries one row per PE with the executed
/// task instances; process 2 ("transfers") carries one row per
/// destination PE with the IPR movements, tagged with their placement.
/// Plan times are unit-less simulated cycles; they are exported 1:1 as
/// microseconds, which viewers only use for proportional layout.
#[must_use]
pub fn plan_chrome_trace(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
) -> paraconv_obs::ChromeTrace {
    use paraconv_obs::{ChromeEvent, ChromeTrace};

    const PID_PES: u32 = 1;
    const PID_XFERS: u32 = 2;
    let mut t = ChromeTrace::new();
    t.name_process(PID_PES, "PE array");
    t.name_process(PID_XFERS, "transfers");
    for pe in 0..config.num_pes() {
        t.name_thread(PID_PES, pe as u32, &format!("PE{pe}"));
        t.name_thread(PID_XFERS, pe as u32, &format!("to PE{pe}"));
    }
    for task in plan.tasks() {
        let name = graph
            .node(task.node)
            .map(|n| n.name().to_owned())
            .unwrap_or_else(|_| task.node.to_string());
        t.push(ChromeEvent {
            name,
            cat: "task".to_owned(),
            pid: PID_PES,
            tid: task.pe.index() as u32,
            ts_us: task.start,
            dur_us: task.duration,
            args: vec![("iteration".to_owned(), task.iteration.to_string())],
        });
    }
    for x in plan.transfers() {
        let loc = match x.placement {
            Placement::Cache => "cache",
            Placement::Edram => "eDRAM",
        };
        t.push(ChromeEvent {
            name: x.edge.to_string(),
            cat: loc.to_owned(),
            pid: PID_XFERS,
            tid: x.dst_pe.index() as u32,
            ts_us: x.start,
            dur_us: x.duration,
            args: vec![
                ("iteration".to_owned(), x.iteration.to_string()),
                ("placement".to_owned(), loc.to_owned()),
            ],
        });
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeId, PlannedTask, PlannedTransfer};
    use paraconv_graph::{examples, EdgeId, NodeId};

    fn demo_plan() -> (TaskGraph, ExecutionPlan) {
        let g = examples::chain(2);
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(PlannedTask {
            node: NodeId::new(0),
            iteration: 1,
            pe: PeId::new(0),
            start: 0,
            duration: 1,
        });
        plan.push_transfer(PlannedTransfer {
            edge: EdgeId::new(0),
            iteration: 1,
            placement: Placement::Cache,
            start: 1,
            duration: 1,
            dst_pe: PeId::new(1),
        });
        plan.push_task(PlannedTask {
            node: NodeId::new(1),
            iteration: 1,
            pe: PeId::new(1),
            start: 2,
            duration: 1,
        });
        (g, plan)
    }

    #[test]
    fn gantt_places_tasks_on_their_pes() {
        let (g, plan) = demo_plan();
        let cfg = PimConfig::neurocube(2).unwrap();
        let chart = gantt(&g, &plan, &cfg, 0, 3);
        assert!(chart.contains("PE0 |0.."), "{chart}");
        assert!(chart.contains("PE1 |..1"), "{chart}");
    }

    /// The timeline cells after the `|` separator, concatenated.
    fn cells(chart: &str) -> String {
        chart
            .lines()
            .filter_map(|l| l.split_once('|').map(|(_, c)| c))
            .collect()
    }

    #[test]
    fn gantt_windows_clip() {
        let (g, plan) = demo_plan();
        let cfg = PimConfig::neurocube(2).unwrap();
        let chart = gantt(&g, &plan, &cfg, 2, 3);
        assert!(chart.contains("PE1 |1"), "{chart}");
        assert!(!cells(&chart).contains('0'), "{chart}");
        // Giant windows are truncated, not OOM.
        let big = gantt(&g, &plan, &cfg, 0, u64::MAX);
        assert!(big.len() < 1000);
    }

    #[test]
    fn gantt_truncation_is_marked() {
        // Regression: windows wider than 200 units used to be clamped
        // silently, making a truncated chart indistinguishable from a
        // genuinely idle tail. Every row now names the hidden units.
        let (g, plan) = demo_plan();
        let cfg = PimConfig::neurocube(2).unwrap();
        let chart = gantt(&g, &plan, &cfg, 0, 450);
        assert!(chart.contains("time 0..200"), "{chart}");
        for line in chart.lines().skip(1) {
            assert!(line.ends_with("…+250"), "{line}");
        }
        // Exactly 200-wide windows are not truncated and carry no marker.
        let exact = gantt(&g, &plan, &cfg, 0, 200);
        assert!(!exact.contains('…'), "{exact}");
        // Near u64::MAX the clamp must not overflow.
        let edge = gantt(&g, &plan, &cfg, u64::MAX - 10, u64::MAX);
        assert!(edge.contains(&format!("time {}..{}", u64::MAX - 10, u64::MAX)));
        assert!(!edge.contains('…'), "{edge}");
    }

    #[test]
    fn gantt_empty_and_inverted_windows() {
        let (g, plan) = demo_plan();
        let cfg = PimConfig::neurocube(2).unwrap();
        // Empty window: header plus bare row labels.
        let empty = gantt(&g, &plan, &cfg, 3, 3);
        assert!(empty.contains("time 3..3"), "{empty}");
        assert!(empty.contains("PE0 |\n"), "{empty}");
        assert!(cells(&empty).is_empty(), "{empty}");
        // Inverted window: treated as empty at `from`, no panic, no
        // phantom truncation marker.
        let inverted = gantt(&g, &plan, &cfg, 9, 2);
        assert!(inverted.contains("time 9..9"), "{inverted}");
        assert!(!inverted.contains('…'), "{inverted}");
        assert!(cells(&inverted).is_empty(), "{inverted}");
    }

    #[test]
    fn gantt_window_past_plan_end_is_all_idle() {
        let (g, plan) = demo_plan();
        let cfg = PimConfig::neurocube(2).unwrap();
        // Plan ends at t=3; a window wholly past it renders pure idle.
        let chart = gantt(&g, &plan, &cfg, 10, 20);
        let c = cells(&chart);
        assert_eq!(c.len(), 20);
        assert!(c.chars().all(|ch| ch == '.'), "{chart}");
    }

    #[test]
    fn gantt_node_digits_wrap_mod_10() {
        // Node indices ≥ 10 print their last decimal digit.
        let g = examples::chain(13);
        let cfg = PimConfig::neurocube(2).unwrap();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(PlannedTask {
            node: NodeId::new(12),
            iteration: 1,
            pe: PeId::new(0),
            start: 0,
            duration: 2,
        });
        let chart = gantt(&g, &plan, &cfg, 0, 3);
        assert!(chart.contains("PE0 |22."), "{chart}");
    }

    #[test]
    fn plan_chrome_trace_exports_tasks_and_transfers() {
        let (g, plan) = demo_plan();
        let cfg = PimConfig::neurocube(2).unwrap();
        let t = plan_chrome_trace(&g, &plan, &cfg);
        assert_eq!(t.len(), 3); // 2 tasks + 1 transfer
        let json = t.to_json();
        assert!(json.contains("\"PE array\""), "{json}");
        assert!(json.contains("\"transfers\""), "{json}");
        assert!(json.contains("\"placement\":\"cache\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn gantt_ignores_out_of_range_pes() {
        let g = examples::chain(1);
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(PlannedTask {
            node: NodeId::new(0),
            iteration: 1,
            pe: PeId::new(9),
            start: 0,
            duration: 1,
        });
        let cfg = PimConfig::neurocube(2).unwrap();
        let chart = gantt(&g, &plan, &cfg, 0, 2);
        assert!(!cells(&chart).contains('0'), "{chart}");
    }
}
