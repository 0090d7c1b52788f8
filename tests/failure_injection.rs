//! Failure injection across crate boundaries: every invalid input is
//! rejected with a typed error, never a panic or a silent wrong
//! answer.

use paraconv::graph::{examples, GraphError, NodeId, OpKind, TaskGraphBuilder};
use paraconv::pim::{simulate, ConfigError, ExecutionPlan, PimConfig, SimError};
use paraconv::synth::{SynthError, SyntheticSpec};
use paraconv::{CoreError, ParaConv};

#[test]
fn cyclic_graph_is_rejected_at_build() {
    let mut b = TaskGraphBuilder::new("cycle");
    let x = b.add_node("x", OpKind::Convolution, 1);
    let y = b.add_node("y", OpKind::Convolution, 1);
    b.add_edge(x, y, 1).expect("forward edge ok");
    b.add_edge(y, x, 1).expect("back edge accepted until build");
    assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
}

#[test]
fn zero_pe_architecture_is_rejected() {
    assert_eq!(
        PimConfig::neurocube(0).unwrap_err(),
        ConfigError::NoProcessingEngines
    );
}

#[test]
fn out_of_band_penalty_is_rejected() {
    for penalty in [0u64, 1, 11, 100] {
        assert!(matches!(
            PimConfig::builder(4).edram_penalty(penalty).build(),
            Err(ConfigError::PenaltyOutOfRange(_))
        ));
    }
}

#[test]
fn zero_cache_still_schedules_correctly() {
    // Zero cache is a *valid* degenerate configuration: everything
    // lives in eDRAM and the plan still validates.
    let config = PimConfig::builder(8)
        .per_pe_cache_units(0)
        .build()
        .expect("zero cache is allowed");
    let result = ParaConv::new(config)
        .run(&examples::fork_join(6), 4)
        .expect("runs with everything off-chip");
    assert_eq!(result.core.cached_iprs(), 0);
    assert_eq!(result.report.onchip_hits, 0);
    assert!(result.report.offchip_fetches > 0);
}

#[test]
fn zero_iterations_rejected_everywhere() {
    let runner = ParaConv::new(PimConfig::neurocube(4).expect("valid"));
    let g = examples::chain(2);
    assert!(matches!(runner.run(&g, 0), Err(CoreError::Sched(_))));
    assert!(matches!(
        runner.run_baseline(&g, 0),
        Err(CoreError::Sched(_))
    ));
    assert!(matches!(runner.compare(&g, 0), Err(CoreError::Sched(_))));
}

#[test]
fn empty_plan_for_nonempty_graph_fails_validation() {
    // The simulator accepts an empty plan only for a graph whose tasks
    // are all absent — it validates dependency coverage per planned
    // task, so an empty plan technically passes; but a plan missing
    // the producer while planning the consumer must fail.
    let g = examples::chain(2);
    let config = PimConfig::neurocube(4).expect("valid");
    let mut plan = ExecutionPlan::new(1);
    plan.push_task(paraconv::pim::PlannedTask {
        node: NodeId::new(1),
        iteration: 1,
        pe: paraconv::pim::PeId::new(0),
        start: 10,
        duration: 1,
    });
    assert!(matches!(
        simulate(&g, &plan, &config).unwrap_err(),
        SimError::MissingTransfer(_, _)
    ));
}

#[test]
fn infeasible_synthetic_specs_are_typed_errors() {
    assert!(matches!(
        SyntheticSpec::new("x", 0, 0).generate(),
        Err(SynthError::NoVertices)
    ));
    assert!(matches!(
        SyntheticSpec::new("x", 4, 100).generate(),
        Err(SynthError::TooManyEdges { .. })
    ));
    assert!(matches!(
        SyntheticSpec::new("x", 9, 2).levels(3).generate(),
        Err(SynthError::TooFewEdges { .. })
    ));
}

#[test]
fn core_errors_carry_sources() {
    use std::error::Error as _;
    let runner = ParaConv::new(PimConfig::neurocube(4).expect("valid"));
    let err = runner.run(&examples::chain(2), 0).unwrap_err();
    assert!(err.source().is_some());
    assert!(!err.to_string().is_empty());
}

#[test]
fn graph_shape_errors_from_cnn_partitioning() {
    use paraconv::cnn::{Layer, NetworkBuilder, NetworkError, TensorShape};
    let mut b = NetworkBuilder::new("bad", TensorShape::new(1, 2, 2));
    let err = b
        .add(
            "huge-kernel",
            Layer::Conv {
                out_channels: 1,
                kernel: 7,
                stride: 1,
                padding: 0,
            },
            &[],
        )
        .unwrap_err();
    assert!(matches!(err, NetworkError::Shape(_)));
}
