//! The paper's §2.3 motivational example, step by step: how retiming
//! and joint IPR allocation turn an under-utilized 4-PE schedule into
//! a compact periodic kernel.
//!
//! Run with: `cargo run --example motivational`

use paraconv::graph::examples;
use paraconv::graph::Placement;
use paraconv::pim::PimConfig;
use paraconv::sched::{ParaConvScheduler, SpartaScheduler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = examples::motivational();
    // Four PEs, each data cache holding one IPR (the example's
    // configuration: "the on-chip cache can concurrently store four
    // intermediate processing results").
    let config = PimConfig::builder(4).per_pe_cache_units(1).build()?;

    println!("Figure 2(b) graph:\n{}", graph.to_dot());

    // --- Figure 3(a): the baseline keeps intra-iteration deps ---------
    let sparta = SpartaScheduler::new(config.clone()).schedule(&graph, 12)?;
    println!(
        "baseline: {} iterations per batch, each batch takes {} units",
        sparta.core.copies_per_batch(),
        sparta.core.batch_makespan()
    );
    println!(
        "baseline effective time per iteration: {:.2} units",
        sparta.core.time_per_iteration()
    );

    // --- Figure 3(b): Para-CONV retimes and compacts -------------------
    let para = ParaConvScheduler::new(config.clone()).schedule(&graph, 12)?;
    println!(
        "\nPara-CONV kernel: period {} units, {} iteration(s) per kernel",
        para.core.period(),
        para.core.unroll()
    );
    println!(
        "prologue: R_max = {} -> {} time units of preprocessing",
        para.core.rmax(),
        para.core.prologue_time()
    );

    println!("\nretiming values (iterations moved into the prologue):");
    for (node, r) in para.core.retiming.node_values() {
        // The paper's T1..T5 are T0..T4 here (IDs are zero-based).
        println!("  R({node}) = {r}");
    }

    println!("\nIPR placements (cache capacity: 4 slots):");
    for ipr in graph.edges() {
        let placement = para
            .core
            .allocation
            .placement(ipr.id())
            .unwrap_or(Placement::Edram);
        let pair = para.core.analysis.pair(ipr.id()).expect("edge analyzed");
        println!("  {ipr}: {placement} ({pair})");
    }

    println!(
        "\nsteady state: one iteration every {:.2} units vs baseline {:.2}",
        para.core.time_per_iteration(),
        sparta.core.time_per_iteration()
    );
    Ok(())
}
