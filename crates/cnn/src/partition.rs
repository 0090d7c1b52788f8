//! Partitioning a network into a Para-CONV task graph.
//!
//! "These CNN applications are further partitioned based on the
//! functionality (i.e., convolution, or pooling) to obtain CNN graphs"
//! (§4.1): every compute layer becomes one task-graph vertex; every
//! feature-map handoff becomes an intermediate processing result.
//! Concat layers are pure wiring and dissolve into direct edges from
//! each branch to the concat's consumers.

use core::fmt;

use paraconv_graph::{GraphError, NodeId, OpKind, TaskGraph, TaskGraphBuilder};

use crate::{Layer, LayerId, Network};

/// Errors produced by partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// The network has no compute layers.
    NoComputeLayers,
    /// The generated graph was rejected by the builder (indicates an
    /// internal bug, surfaced rather than panicked).
    Graph(GraphError),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoComputeLayers => {
                f.write_str("network has no compute layers to partition")
            }
            PartitionError::Graph(e) => write!(f, "partitioned graph rejected: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PartitionError {
    fn from(e: GraphError) -> Self {
        PartitionError::Graph(e)
    }
}

/// Scaling knobs for the lowering.
///
/// Execution times and IPR sizes in the task graph are abstract units;
/// the partitioner normalizes each layer's MAC count and output
/// feature-map size against the network average so that generated
/// graphs land in the same unit range as the synthetic benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Largest execution time assigned to any vertex.
    pub max_exec_time: u64,
    /// Largest capacity size assigned to any IPR.
    pub max_ipr_size: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            max_exec_time: 8,
            max_ipr_size: 4,
        }
    }
}

/// Lowers `network` into a task graph.
///
/// # Errors
///
/// Returns [`PartitionError::NoComputeLayers`] for a network of pure
/// wiring, and propagates builder errors (never expected).
///
/// # Examples
///
/// ```
/// use paraconv_cnn::{googlenet, partition, PartitionConfig};
///
/// let net = googlenet(2)?;
/// let graph = partition(&net, PartitionConfig::default())?;
/// assert_eq!(graph.node_count(), net.compute_layer_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn partition(network: &Network, config: PartitionConfig) -> Result<TaskGraph, PartitionError> {
    let compute_count = network.compute_layer_count();
    if compute_count == 0 {
        return Err(PartitionError::NoComputeLayers);
    }

    // Normalization denominators: average MACs per compute layer and
    // average output elements per layer, so typical values map to ~2.
    let avg_macs = (network.total_macs() / compute_count as u64 / 2).max(1);
    let total_elements: u64 = network
        .layer_ids()
        .map(|id| {
            network
                .output_shape(id)
                // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
                .expect("iterating own ids")
                .elements() as u64
        })
        .sum();
    let avg_elements = (total_elements / network.layer_count() as u64 / 2).max(1);

    let mut builder = TaskGraphBuilder::new(network.name().to_owned());
    let mut node_of: Vec<Option<NodeId>> = vec![None; network.layer_count()];
    for id in network.layer_ids() {
        // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
        let layer = network.layer(id).expect("iterating own ids");
        if !layer.is_compute() {
            continue;
        }
        let kind = match layer {
            Layer::Conv { .. } => OpKind::Convolution,
            Layer::Pool { .. } => OpKind::Pooling,
            Layer::FullyConnected { .. } => OpKind::FullyConnected,
            Layer::Concat => unreachable!("concat is not compute"),
        };
        let macs = layer_macs(network, id);
        let exec = (macs / avg_macs).clamp(1, config.max_exec_time);
        // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
        let name = network.layer_name(id).expect("iterating own ids");
        node_of[id.index()] = Some(builder.add_node(name, kind, exec));
    }

    // Resolve each compute layer's inputs through any concat wiring and
    // connect with IPR edges sized by the producer's output map.
    let mut seen = std::collections::HashSet::new();
    for id in network.layer_ids() {
        let Some(dst) = node_of[id.index()] else {
            continue;
        };
        for producer in resolved_producers(network, id) {
            // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
            let src = node_of[producer.index()].expect("resolved producers are compute layers");
            if !seen.insert((src, dst)) {
                continue; // duplicate branch resolving to one producer
            }
            let elements = network
                .output_shape(producer)
                // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
                .expect("producer id valid")
                .elements() as u64;
            let size = (elements / avg_elements).clamp(1, config.max_ipr_size);
            builder.add_edge(src, dst, size)?;
        }
    }

    Ok(builder.build()?)
}

fn layer_macs(network: &Network, id: LayerId) -> u64 {
    // Reconstruct via the stored per-layer cost.
    network.layers[id.index()].macs
}

/// The compute layers feeding `id`, looking through concat layers.
fn resolved_producers(network: &Network, id: LayerId) -> Vec<LayerId> {
    let mut out = Vec::new();
    let mut stack: Vec<LayerId> = network
        .layer_inputs(id)
        // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
        .expect("iterating own ids")
        .to_vec();
    while let Some(input) = stack.pop() {
        // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
        if network.layer(input).expect("input id valid").is_compute() {
            out.push(input);
        } else {
            // lint: allow(no-unwrap) — layer graphs are generated acyclic with positive sizes, so the builder accepts them
            stack.extend_from_slice(network.layer_inputs(input).expect("input id valid"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{googlenet, NetworkBuilder, PoolKind, TensorShape};

    #[test]
    fn googlenet_partition_structure() {
        let net = googlenet(2).unwrap();
        let g = partition(&net, PartitionConfig::default()).unwrap();
        assert_eq!(g.node_count(), net.compute_layer_count());
        // Every concat dissolved: no vertex named "*.concat".
        assert!(g.nodes().all(|n| !n.name().contains("concat")));
        // Consumers of an inception output see all four branch tails.
        assert!(g.edge_count() > g.node_count());
    }

    #[test]
    fn concat_rewires_to_branch_tails() {
        // input → {a, b} → concat → c: c must consume from a and b.
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 8, 8));
        let a = b
            .add(
                "a",
                Layer::Conv {
                    out_channels: 2,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                },
                &[],
            )
            .unwrap();
        let z = b
            .add(
                "z",
                Layer::Conv {
                    out_channels: 2,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                },
                &[],
            )
            .unwrap();
        let cat = b.add("cat", Layer::Concat, &[a, z]).unwrap();
        let c = b
            .add(
                "c",
                Layer::Conv {
                    out_channels: 1,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                },
                &[cat],
            )
            .unwrap();
        let _ = c;
        let net = b.finish();
        let g = partition(&net, PartitionConfig::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let sinks: Vec<_> = g
            .node_ids()
            .filter(|&n| g.out_edges(n).unwrap().is_empty())
            .collect();
        assert_eq!(sinks.len(), 1);
        assert_eq!(g.in_degree(sinks[0]).unwrap(), 2);
    }

    #[test]
    fn kinds_map_through() {
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 8, 8));
        let a = b
            .add(
                "conv",
                Layer::Conv {
                    out_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &[],
            )
            .unwrap();
        let p = b
            .add(
                "pool",
                Layer::Pool {
                    kind: PoolKind::Max,
                    window: 2,
                    stride: 2,
                },
                &[a],
            )
            .unwrap();
        b.add("fc", Layer::FullyConnected { out_features: 4 }, &[p])
            .unwrap();
        let net = b.finish();
        let g = partition(&net, PartitionConfig::default()).unwrap();
        let kinds: Vec<OpKind> = g.nodes().map(|n| n.kind()).collect();
        assert_eq!(
            kinds,
            vec![OpKind::Convolution, OpKind::Pooling, OpKind::FullyConnected]
        );
    }

    #[test]
    fn exec_times_respect_cap() {
        let net = googlenet(3).unwrap();
        let cfg = PartitionConfig {
            max_exec_time: 5,
            max_ipr_size: 2,
        };
        let g = partition(&net, cfg).unwrap();
        assert!(g.nodes().all(|n| (1..=5).contains(&n.exec_time())));
        assert!(g.edges().all(|e| (1..=2).contains(&e.size())));
    }

    #[test]
    fn pure_wiring_rejected() {
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 8, 8));
        // A concat of the raw input is wiring only.
        let _ = b.add("cat", Layer::Concat, &[]);
        let net = b.finish();
        assert_eq!(
            partition(&net, PartitionConfig::default()).unwrap_err(),
            PartitionError::NoComputeLayers
        );
    }
}
