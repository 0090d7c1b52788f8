//! What the optimal allocation buys under cache pressure: sweep the
//! per-PE cache from nothing to ample on one benchmark and watch the
//! prologue, the cached-IPR count and the off-chip traffic respond —
//! then compare allocation policies at the tightest point.
//!
//! Run with: `cargo run --release --example cache_pressure`

use paraconv::pim::PimConfig;
use paraconv::sched::AllocationPolicy;
use paraconv::synth::benchmarks;
use paraconv::{ParaConv, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchmarks::by_name("string-matching").expect("benchmark exists");
    let graph = bench.graph()?;
    let iterations = 25;

    println!(
        "benchmark `{}`: {} vertices, {} IPRs\n",
        bench.name(),
        bench.vertices(),
        bench.edges()
    );

    // --- capacity sweep --------------------------------------------------
    let mut sweep = TextTable::new(["per-PE cache", "cached IPRs", "R_max", "off-chip", "total"]);
    for units in [0u64, 1, 2, 4, 8, 16, 32] {
        let config = PimConfig::builder(16).per_pe_cache_units(units).build()?;
        let result = ParaConv::new(config).run(&graph, iterations)?;
        sweep.push_row([
            units.to_string(),
            result.core.cached_iprs().to_string(),
            result.core.rmax().to_string(),
            result.report.offchip_fetches.to_string(),
            result.report.total_time.to_string(),
        ]);
    }
    println!("capacity sweep (16 PEs):\n{sweep}");

    // --- policy comparison at a tight capacity -----------------------------
    let tight = PimConfig::builder(16).per_pe_cache_units(2).build()?;
    let mut policies = TextTable::new(["policy", "profit", "R_max", "off-chip"]);
    for policy in [
        AllocationPolicy::DynamicProgram,
        AllocationPolicy::GreedyByDensity,
        AllocationPolicy::AllEdram,
    ] {
        let result = ParaConv::new(tight.clone())
            .with_policy(policy)
            .run(&graph, iterations)?;
        policies.push_row([
            format!("{policy:?}"),
            result.core.allocation.total_profit().to_string(),
            result.core.rmax().to_string(),
            result.report.offchip_fetches.to_string(),
        ]);
    }
    println!("allocation policies (per-PE cache = 2):\n{policies}");
    Ok(())
}
