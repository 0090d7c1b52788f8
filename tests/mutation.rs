//! Plan-mutation robustness: take a known-valid Para-CONV plan,
//! corrupt one field at a time, and check the simulator either still
//! accepts the plan (benign mutation) or rejects it with a *typed*
//! error — never a panic, never a silently wrong report.

use paraconv::graph::examples;
use paraconv::pim::{
    simulate, ExecutionPlan, PeId, PimConfig, PlannedTask, PlannedTransfer, SimError,
};
use paraconv::sched::ParaConvScheduler;

fn valid_setup() -> (paraconv::graph::TaskGraph, ExecutionPlan, PimConfig) {
    let graph = examples::motivational();
    let config = PimConfig::builder(4)
        .per_pe_cache_units(1)
        .build()
        .expect("valid");
    let plan = ParaConvScheduler::new(config.clone())
        .schedule(&graph, 6)
        .expect("schedules")
        .plan;
    (graph, plan, config)
}

/// Rebuilds a plan with one task replaced.
fn with_task(plan: &ExecutionPlan, index: usize, task: PlannedTask) -> ExecutionPlan {
    let mut out = ExecutionPlan::new(plan.iterations());
    for (i, t) in plan.tasks().iter().enumerate() {
        out.push_task(if i == index { task } else { *t });
    }
    for x in plan.transfers() {
        out.push_transfer(*x);
    }
    out
}

/// Rebuilds a plan with one transfer replaced.
fn with_transfer(plan: &ExecutionPlan, index: usize, transfer: PlannedTransfer) -> ExecutionPlan {
    let mut out = ExecutionPlan::new(plan.iterations());
    for t in plan.tasks() {
        out.push_task(*t);
    }
    for (i, x) in plan.transfers().iter().enumerate() {
        out.push_transfer(if i == index { transfer } else { *x });
    }
    out
}

#[test]
fn baseline_plan_is_valid() {
    let (graph, plan, config) = valid_setup();
    assert!(simulate(&graph, &plan, &config).is_ok());
}

#[test]
fn shifting_any_task_earlier_is_caught_or_benign() {
    let (graph, plan, config) = valid_setup();
    for (i, task) in plan.tasks().iter().enumerate() {
        if task.start == 0 {
            continue;
        }
        let mut mutated = *task;
        mutated.start -= 1;
        let result = simulate(&graph, &with_task(&plan, i, mutated), &config);
        // Either a typed rejection or (rarely) still valid; the call
        // must not panic and must not mis-report the iteration count.
        if let Ok(report) = result {
            assert_eq!(report.iterations, plan.iterations());
        }
    }
}

#[test]
fn stretching_any_task_duration_is_rejected() {
    let (graph, plan, config) = valid_setup();
    for (i, task) in plan.tasks().iter().enumerate().take(20) {
        let mut mutated = *task;
        mutated.duration += 1;
        let err = simulate(&graph, &with_task(&plan, i, mutated), &config)
            .expect_err("wrong duration must be rejected");
        assert!(matches!(err, SimError::WrongTaskDuration { .. }), "{err}");
    }
}

#[test]
fn rerouting_any_transfer_is_rejected() {
    let (graph, plan, config) = valid_setup();
    for (i, x) in plan.transfers().iter().enumerate().take(20) {
        let mut mutated = *x;
        mutated.dst_pe = PeId::new((x.dst_pe.index() as u32 + 1) % 4);
        let err = simulate(&graph, &with_transfer(&plan, i, mutated), &config)
            .expect_err("misrouted transfer must be rejected");
        assert!(matches!(err, SimError::WrongDestination { .. }), "{err}");
    }
}

#[test]
fn shrinking_any_transfer_is_rejected() {
    let (graph, plan, config) = valid_setup();
    for (i, x) in plan.transfers().iter().enumerate().take(20) {
        if x.duration == 0 {
            continue;
        }
        let mut mutated = *x;
        mutated.duration = 0;
        let err = simulate(&graph, &with_transfer(&plan, i, mutated), &config)
            .expect_err("too-short transfer must be rejected");
        assert!(matches!(err, SimError::TransferTooShort { .. }), "{err}");
    }
}

#[test]
fn dropping_any_transfer_is_rejected() {
    let (graph, plan, config) = valid_setup();
    for skip in 0..plan.transfers().len().min(20) {
        let mut out = ExecutionPlan::new(plan.iterations());
        for t in plan.tasks() {
            out.push_task(*t);
        }
        for (i, x) in plan.transfers().iter().enumerate() {
            if i != skip {
                out.push_transfer(*x);
            }
        }
        let err = simulate(&graph, &out, &config).expect_err("missing transfer");
        assert!(matches!(err, SimError::MissingTransfer(_, _)), "{err}");
    }
}

#[test]
fn dropping_any_task_is_rejected() {
    let (graph, plan, config) = valid_setup();
    for skip in 0..plan.tasks().len().min(20) {
        let mut out = ExecutionPlan::new(plan.iterations());
        for (i, t) in plan.tasks().iter().enumerate() {
            if i != skip {
                out.push_task(*t);
            }
        }
        for x in plan.transfers() {
            out.push_transfer(*x);
        }
        let err = simulate(&graph, &out, &config).expect_err("incomplete plan");
        // Either the producer of some transfer is gone, or the
        // completeness check catches the hole (e.g. for sinks).
        assert!(
            matches!(
                err,
                SimError::MissingProducer(_, _)
                    | SimError::MissingTransfer(_, _)
                    | SimError::MissingTask(_, _)
            ),
            "{err}"
        );
    }
}

#[test]
fn duplicating_entries_is_rejected() {
    let (graph, plan, config) = valid_setup();
    // Duplicate first task.
    let mut dup_task = ExecutionPlan::new(plan.iterations());
    for t in plan.tasks() {
        dup_task.push_task(*t);
    }
    dup_task.push_task(plan.tasks()[0]);
    for x in plan.transfers() {
        dup_task.push_transfer(*x);
    }
    assert!(matches!(
        simulate(&graph, &dup_task, &config).unwrap_err(),
        SimError::DuplicateTask(_, _)
    ));
    // Duplicate first transfer.
    let mut dup_xfer = ExecutionPlan::new(plan.iterations());
    for t in plan.tasks() {
        dup_xfer.push_task(*t);
    }
    for x in plan.transfers() {
        dup_xfer.push_transfer(*x);
    }
    dup_xfer.push_transfer(plan.transfers()[0]);
    assert!(matches!(
        simulate(&graph, &dup_xfer, &config).unwrap_err(),
        SimError::DuplicateTransfer(_, _)
    ));
}

#[test]
fn overflowing_transfer_end_is_a_typed_error() {
    // Regression: `start + duration` was computed unchecked, so a
    // transfer starting at `u64::MAX - 1` panicked in debug builds and
    // wrapped into a bogus iFIFO overflow in release builds.
    let (graph, plan, config) = valid_setup();
    let last = plan.transfers().len() - 1;
    let mut mutated = plan.transfers()[last];
    assert!(mutated.duration >= 2, "the end must overflow");
    mutated.start = u64::MAX - 1;
    assert_eq!(
        simulate(&graph, &with_transfer(&plan, last, mutated), &config),
        Err(SimError::TimeOverflow {
            start: u64::MAX - 1,
            duration: mutated.duration,
        })
    );
}

#[test]
fn overflowing_task_end_is_a_typed_error() {
    let (graph, plan, config) = valid_setup();
    let last = plan.tasks().len() - 1;
    let mut mutated = plan.tasks()[last];
    mutated.start = u64::MAX;
    assert_eq!(
        simulate(&graph, &with_task(&plan, last, mutated), &config),
        Err(SimError::TimeOverflow {
            start: u64::MAX,
            duration: mutated.duration,
        })
    );
}
