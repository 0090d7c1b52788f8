//! Quickstart: schedule a small CNN task graph with Para-CONV, compare
//! against the SPARTA baseline, and print what the framework decided.
//!
//! Run with: `cargo run --example quickstart`

use paraconv::graph::examples;
use paraconv::pim::PimConfig;
use paraconv::ParaConv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's motivational graph (Figure 2(b)): five convolutions,
    // six intermediate processing results.
    let graph = examples::motivational();
    println!(
        "graph `{}`: {} operations, {} IPRs, critical path {}",
        graph.name(),
        graph.node_count(),
        graph.edge_count(),
        graph.critical_path_length()
    );

    // A four-PE PIM array, as in the paper's walk-through.
    let config = PimConfig::builder(4).per_pe_cache_units(1).build()?;
    let runner = ParaConv::new(config);
    let comparison = runner.compare(&graph, 100)?;

    let para = &comparison.paraconv;
    println!("\nPara-CONV:");
    println!(
        "  kernel period p = {} ({} iteration(s) per kernel)",
        para.core.period(),
        para.core.unroll()
    );
    println!(
        "  R_max = {} -> prologue {} time units",
        para.core.rmax(),
        para.core.prologue_time()
    );
    println!(
        "  {} of {} IPRs in on-chip cache",
        para.core.cached_iprs(),
        graph.edge_count()
    );
    println!("  total time  = {}", para.report.total_time);
    println!(
        "  on-chip hit rate = {:.0}%",
        para.report.onchip_hit_rate() * 100.0
    );

    println!("\nSPARTA baseline:");
    println!(
        "  {} iteration(s) co-scheduled per batch, batch makespan {}",
        comparison.sparta.core.copies_per_batch(),
        comparison.sparta.core.batch_makespan()
    );
    println!("  total time  = {}", comparison.sparta.report.total_time);

    println!(
        "\nPara-CONV runs in {:.1}% of the baseline time ({:.2}x speedup)",
        comparison.improvement_percent(),
        comparison.speedup()
    );
    Ok(())
}
