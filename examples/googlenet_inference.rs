//! Lowering a GoogLeNet-style inception network to a task graph and
//! scheduling steady-state inference on the PIM array — the paper's
//! real-application path (§4.1: "Several real-life CNN applications
//! are obtained from benchmark GoogLeNet ConvNet").
//!
//! Run with: `cargo run --example googlenet_inference`

use paraconv::cnn::{googlenet, partition, PartitionConfig};
use paraconv::pim::PimConfig;
use paraconv::ParaConv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three inception modules — a mid-size network.
    let network = googlenet(3)?;
    println!(
        "network `{}`: {} layers ({} compute), {:.1} MMACs, {:.1}M weights",
        network.name(),
        network.layer_count(),
        network.compute_layer_count(),
        network.total_macs() as f64 / 1e6,
        network.total_weights() as f64 / 1e6
    );

    // Partition by functionality into a task graph.
    let graph = partition(&network, PartitionConfig::default())?;
    let summary = graph.summary();
    println!(
        "partitioned: {} vertices ({} conv-like, {} pool), {} IPRs, depth {}, peak width {}",
        summary.vertices,
        summary.conv_ops,
        summary.pool_ops,
        summary.edges,
        summary.depth,
        summary.max_width
    );

    // Inference throughput across the paper's PE sweep. Total time
    // includes the one-off prologue; the steady-state columns show the
    // per-frame rates once the pipeline is full.
    println!(
        "\n{:>4}  {:>10}  {:>10}  {:>7}  {:>6}  {:>11}  {:>11}",
        "PEs", "Para-CONV", "SPARTA", "IMP%", "R_max", "para t/iter", "base t/iter"
    );
    for pes in [16usize, 32, 64] {
        let runner = ParaConv::new(PimConfig::neurocube(pes)?);
        let cmp = runner.compare(&graph, 50)?;
        println!(
            "{:>4}  {:>10}  {:>10}  {:>6.1}%  {:>6}  {:>11.2}  {:>11.2}",
            pes,
            cmp.paraconv.report.total_time,
            cmp.sparta.report.total_time,
            cmp.improvement_percent(),
            cmp.paraconv.core.rmax(),
            cmp.paraconv.core.time_per_iteration(),
            cmp.sparta.core.time_per_iteration(),
        );
    }
    Ok(())
}
