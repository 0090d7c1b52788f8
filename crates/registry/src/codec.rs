//! Canonical [`Value`] codecs between the domain types and the
//! artifact body.
//!
//! Every encoder builds a [`serde_json::Value`] tree whose objects are
//! `BTreeMap`s, so serialization emits keys in alphabetical order and
//! the byte encoding is canonical by construction: the same bundle
//! always produces the same bytes, which is what makes content
//! addressing and cross-process `cmp` checks meaningful. Every decoder
//! is total — hostile shapes come back as
//! [`ArtifactError::SchemaMismatch`] with a dotted path, never a panic.
//! The path is built lazily, so a clean decode formats no path strings.
//!
//! The outcome section holds only the periodic core (kernel, retiming,
//! allocation, movement analysis); the unrolled plan is a pure function
//! of it and is re-derived on decode through [`paraconv_sched::emit`].
//!
//! The body schema is intentionally integer-only (sizes, times, ids,
//! and enum tags as strings); floating-point never enters the hashed
//! bytes, so content hashes cannot drift on float formatting.

use core::fmt;

use paraconv_alloc::CacheAllocation;
use paraconv_graph::{EdgeId, NodeId, OpKind, Placement, TaskGraph, TaskGraphBuilder};
use paraconv_pim::{PeId, PimConfig};
use paraconv_retime::{MovementAnalysis, Retiming, RetimingCase};
use paraconv_sched::{AllocationPolicy, KernelSchedule, ParaConvCore, ParaConvOutcome};
use serde_json::{Map, Number, Value};

use crate::artifact::PlanPolicy;
use crate::error::ArtifactError;

// ---------------------------------------------------------------------------
// Building-block encoders
// ---------------------------------------------------------------------------

fn u64_value(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

fn usize_value(v: usize) -> Value {
    u64_value(v as u64)
}

fn str_value(s: &str) -> Value {
    Value::String(s.to_owned())
}

fn u64_array(values: impl IntoIterator<Item = u64>) -> Value {
    Value::Array(values.into_iter().map(u64_value).collect())
}

// ---------------------------------------------------------------------------
// Building-block decoders
// ---------------------------------------------------------------------------

/// A dotted path into the artifact (`body.graph.nodes[3].exec`) that is
/// formatted only when an error reports it: decoders hand it down by
/// reference, so a clean decode builds no path strings at all.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Path<'a> {
    /// A named root (`body`, `header`, …).
    Root(&'a str),
    /// An object member.
    Key(&'a Path<'a>, &'a str),
    /// An array element.
    Index(&'a Path<'a>, usize),
}

impl<'a> Path<'a> {
    pub(crate) fn key(&'a self, key: &'a str) -> Path<'a> {
        Path::Key(self, key)
    }

    pub(crate) fn index(&'a self, index: usize) -> Path<'a> {
        Path::Index(self, index)
    }

    /// A schema mismatch located at this path.
    pub(crate) fn error(&self, detail: impl Into<String>) -> ArtifactError {
        ArtifactError::schema(self.to_string(), detail)
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root(root) => f.write_str(root),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, index) => write!(f, "{parent}[{index}]"),
        }
    }
}

pub(crate) fn as_obj<'v>(v: &'v Value, path: &Path) -> Result<&'v Map, ArtifactError> {
    v.as_object()
        .ok_or_else(|| path.error("expected an object"))
}

pub(crate) fn as_array<'v>(v: &'v Value, path: &Path) -> Result<&'v [Value], ArtifactError> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| path.error("expected an array"))
}

pub(crate) fn as_u64(v: &Value, path: &Path) -> Result<u64, ArtifactError> {
    v.as_u64()
        .ok_or_else(|| path.error("expected an unsigned integer"))
}

pub(crate) fn as_str<'v>(v: &'v Value, path: &Path) -> Result<&'v str, ArtifactError> {
    v.as_str().ok_or_else(|| path.error("expected a string"))
}

pub(crate) fn field<'v>(obj: &'v Map, path: &Path, key: &str) -> Result<&'v Value, ArtifactError> {
    obj.get(key)
        .ok_or_else(|| path.key(key).error("missing field"))
}

pub(crate) fn u64_field(obj: &Map, path: &Path, key: &str) -> Result<u64, ArtifactError> {
    as_u64(field(obj, path, key)?, &path.key(key))
}

fn usize_field(obj: &Map, path: &Path, key: &str) -> Result<usize, ArtifactError> {
    let v = u64_field(obj, path, key)?;
    usize::try_from(v).map_err(|_| path.key(key).error("value exceeds usize"))
}

pub(crate) fn str_field<'v>(
    obj: &'v Map,
    path: &Path,
    key: &str,
) -> Result<&'v str, ArtifactError> {
    as_str(field(obj, path, key)?, &path.key(key))
}

pub(crate) fn array_field<'v>(
    obj: &'v Map,
    path: &Path,
    key: &str,
) -> Result<&'v [Value], ArtifactError> {
    as_array(field(obj, path, key)?, &path.key(key))
}

fn u64_vec_field(obj: &Map, path: &Path, key: &str) -> Result<Vec<u64>, ArtifactError> {
    let items = array_field(obj, path, key)?;
    let path = path.key(key);
    items
        .iter()
        .enumerate()
        .map(|(i, v)| as_u64(v, &path.index(i)))
        .collect()
}

/// An array of dense `u32` ids (PE, edge or node indices).
fn id_vec_field(obj: &Map, path: &Path, key: &str) -> Result<Vec<u32>, ArtifactError> {
    let items = array_field(obj, path, key)?;
    let path = path.key(key);
    items
        .iter()
        .enumerate()
        .map(|(i, v)| id32(as_u64(v, &path.index(i))?, &path.index(i)))
        .collect()
}

fn id32(v: u64, path: &Path) -> Result<u32, ArtifactError> {
    u32::try_from(v).map_err(|_| path.error("id exceeds u32"))
}

/// A fixed-width array row such as `[edge, placement]`.
fn row<'v, const N: usize>(
    v: &'v Value,
    path: &Path,
    shape: [&str; N],
) -> Result<&'v [Value; N], ArtifactError> {
    let row = as_array(v, path)?;
    row.try_into().map_err(|_| {
        path.error(format!(
            "expected [{}], got {} elements",
            shape.join(", "),
            row.len()
        ))
    })
}

/// Rejects unknown fields: every artifact field is mandatory, so the
/// key set must match `expected` exactly. Extra keys on import mean a
/// foreign producer or tampering — surfaced, never ignored, since an
/// ignored field could not survive a re-export byte-compare anyway.
pub(crate) fn check_keys(obj: &Map, path: &Path, expected: &[&str]) -> Result<(), ArtifactError> {
    for key in obj.keys() {
        if !expected.contains(&key.as_str()) {
            return Err(path.key(key).error("unknown field"));
        }
    }
    for key in expected {
        if !obj.contains_key(*key) {
            return Err(path.key(key).error("missing field"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Enum tags
// ---------------------------------------------------------------------------

fn kind_tag(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Convolution => "convolution",
        OpKind::Pooling => "pooling",
        OpKind::FullyConnected => "fully-connected",
    }
}

fn kind_from_tag(tag: &str, path: &Path) -> Result<OpKind, ArtifactError> {
    match tag {
        "convolution" => Ok(OpKind::Convolution),
        "pooling" => Ok(OpKind::Pooling),
        "fully-connected" => Ok(OpKind::FullyConnected),
        other => Err(path.error(format!("unknown operation kind `{other}`"))),
    }
}

fn placement_tag(placement: Placement) -> &'static str {
    match placement {
        Placement::Cache => "cache",
        Placement::Edram => "edram",
    }
}

fn placement_from_tag(tag: &str, path: &Path) -> Result<Placement, ArtifactError> {
    match tag {
        "cache" => Ok(Placement::Cache),
        "edram" => Ok(Placement::Edram),
        other => Err(path.error(format!("unknown placement `{other}`"))),
    }
}

fn policy_tag(policy: AllocationPolicy) -> &'static str {
    match policy {
        AllocationPolicy::DynamicProgram => "dynamic-program",
        AllocationPolicy::GreedyByDensity => "greedy-by-density",
        AllocationPolicy::AllEdram => "all-edram",
    }
}

fn policy_from_tag(tag: &str, path: &Path) -> Result<AllocationPolicy, ArtifactError> {
    match tag {
        "dynamic-program" => Ok(AllocationPolicy::DynamicProgram),
        "greedy-by-density" => Ok(AllocationPolicy::GreedyByDensity),
        "all-edram" => Ok(AllocationPolicy::AllEdram),
        other => Err(path.error(format!("unknown allocation policy `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Task graph
// ---------------------------------------------------------------------------

/// Encodes a task graph. Node and edge ids are implicit in array order,
/// which is exactly the builder's dense sequential assignment.
#[must_use]
pub fn graph_to_value(graph: &TaskGraph) -> Value {
    let nodes: Vec<Value> = graph
        .node_ids()
        .map(|id| {
            // lint: allow(no-unwrap) — iterating the graph's own ids.
            let node = graph.node(id).unwrap();
            let mut obj = Map::new();
            obj.insert("exec".into(), u64_value(node.exec_time()));
            obj.insert("kind".into(), str_value(kind_tag(node.kind())));
            obj.insert("name".into(), str_value(node.name()));
            Value::Object(obj)
        })
        .collect();
    let edges: Vec<Value> = graph
        .edge_ids()
        .map(|id| {
            // lint: allow(no-unwrap) — iterating the graph's own ids.
            let edge = graph.edge(id).unwrap();
            let mut obj = Map::new();
            obj.insert("dst".into(), usize_value(edge.dst().index()));
            obj.insert("size".into(), u64_value(edge.size()));
            obj.insert("src".into(), usize_value(edge.src().index()));
            Value::Object(obj)
        })
        .collect();
    let mut obj = Map::new();
    obj.insert("edges".into(), Value::Array(edges));
    obj.insert("name".into(), str_value(graph.name()));
    obj.insert("nodes".into(), Value::Array(nodes));
    Value::Object(obj)
}

/// Rebuilds a task graph through [`TaskGraphBuilder`], so every
/// structural invariant (edge endpoints in range, acyclicity, …) is
/// re-validated on import.
pub fn graph_from_value(v: &Value, path: &str) -> Result<TaskGraph, ArtifactError> {
    let path = Path::Root(path);
    let obj = as_obj(v, &path)?;
    check_keys(obj, &path, &["edges", "name", "nodes"])?;
    let mut builder = TaskGraphBuilder::new(str_field(obj, &path, "name")?);
    let nodes_path = path.key("nodes");
    for (i, node) in array_field(obj, &path, "nodes")?.iter().enumerate() {
        let node_path = nodes_path.index(i);
        let node = as_obj(node, &node_path)?;
        check_keys(node, &node_path, &["exec", "kind", "name"])?;
        let kind = kind_from_tag(str_field(node, &node_path, "kind")?, &node_path.key("kind"))?;
        builder.add_node(
            str_field(node, &node_path, "name")?,
            kind,
            u64_field(node, &node_path, "exec")?,
        );
    }
    let edges_path = path.key("edges");
    for (i, edge) in array_field(obj, &path, "edges")?.iter().enumerate() {
        let edge_path = edges_path.index(i);
        let edge = as_obj(edge, &edge_path)?;
        check_keys(edge, &edge_path, &["dst", "size", "src"])?;
        let src = id32(u64_field(edge, &edge_path, "src")?, &edge_path.key("src"))?;
        let dst = id32(u64_field(edge, &edge_path, "dst")?, &edge_path.key("dst"))?;
        builder
            .add_edge(
                NodeId::new(src),
                NodeId::new(dst),
                u64_field(edge, &edge_path, "size")?,
            )
            .map_err(|e| edge_path.error(e.to_string()))?;
    }
    builder.build().map_err(|e| path.error(e.to_string()))
}

// ---------------------------------------------------------------------------
// Architecture config
// ---------------------------------------------------------------------------

/// Encodes a [`PimConfig`], one field per getter.
#[must_use]
pub fn config_to_value(config: &PimConfig) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "cache_cost_per_unit".into(),
        u64_value(config.cache_cost_per_unit()),
    );
    obj.insert("edram_penalty".into(), u64_value(config.edram_penalty()));
    obj.insert(
        "failed_pes".into(),
        u64_array(config.failed_pes().iter().map(|&pe| u64::from(pe))),
    );
    obj.insert(
        "max_vault_concurrency".into(),
        match config.max_vault_concurrency() {
            Some(limit) => usize_value(limit),
            None => Value::Null,
        },
    );
    obj.insert("num_pes".into(), usize_value(config.num_pes()));
    obj.insert(
        "per_pe_cache_units".into(),
        u64_value(config.per_pe_cache_units()),
    );
    obj.insert("pfifo_depth".into(), usize_value(config.pfifo_depth()));
    obj.insert(
        "vault_queue_cost".into(),
        u64_value(config.vault_queue_cost()),
    );
    obj.insert("vaults".into(), usize_value(config.vaults()));
    Value::Object(obj)
}

/// Rebuilds a [`PimConfig`] through its builder, so the architecture
/// invariants (positive PE count, sane eDRAM penalty, failed-PE indices
/// in range, …) are re-validated on import.
pub fn config_from_value(v: &Value, path: &str) -> Result<PimConfig, ArtifactError> {
    let path = Path::Root(path);
    let obj = as_obj(v, &path)?;
    check_keys(
        obj,
        &path,
        &[
            "cache_cost_per_unit",
            "edram_penalty",
            "failed_pes",
            "max_vault_concurrency",
            "num_pes",
            "per_pe_cache_units",
            "pfifo_depth",
            "vault_queue_cost",
            "vaults",
        ],
    )?;
    let mut builder = PimConfig::builder(usize_field(obj, &path, "num_pes")?)
        .per_pe_cache_units(u64_field(obj, &path, "per_pe_cache_units")?)
        .vaults(usize_field(obj, &path, "vaults")?)
        .edram_penalty(u64_field(obj, &path, "edram_penalty")?)
        .cache_cost_per_unit(u64_field(obj, &path, "cache_cost_per_unit")?)
        .vault_queue_cost(u64_field(obj, &path, "vault_queue_cost")?)
        .pfifo_depth(usize_field(obj, &path, "pfifo_depth")?)
        .failed_pes(id_vec_field(obj, &path, "failed_pes")?);
    if !field(obj, &path, "max_vault_concurrency")?.is_null() {
        builder = builder.max_vault_concurrency(usize_field(obj, &path, "max_vault_concurrency")?);
    }
    builder
        .build()
        .map_err(|e| path.error(format!("invalid architecture config: {e}")))
}

// ---------------------------------------------------------------------------
// Plan policy
// ---------------------------------------------------------------------------

/// Encodes the request policy that keys the registry.
#[must_use]
pub fn policy_to_value(policy: &PlanPolicy) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "allocation".into(),
        str_value(policy_tag(policy.allocation)),
    );
    obj.insert("iterations".into(), u64_value(policy.iterations));
    Value::Object(obj)
}

/// Decodes a [`PlanPolicy`].
pub fn policy_from_value(v: &Value, path: &str) -> Result<PlanPolicy, ArtifactError> {
    let path = Path::Root(path);
    let obj = as_obj(v, &path)?;
    check_keys(obj, &path, &["allocation", "iterations"])?;
    Ok(PlanPolicy {
        allocation: policy_from_tag(
            str_field(obj, &path, "allocation")?,
            &path.key("allocation"),
        )?,
        iterations: u64_field(obj, &path, "iterations")?,
    })
}

// ---------------------------------------------------------------------------
// Scheduling outcome
// ---------------------------------------------------------------------------

/// Encodes the periodic core of a [`ParaConvOutcome`] — the kernel,
/// retiming, allocation and movement analysis. The plan is not stored:
/// it is a pure function of the core ([`paraconv_sched::emit`]), and
/// [`outcome_from_value`] re-derives it.
#[must_use]
pub fn outcome_to_value(outcome: &ParaConvOutcome) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "allocation".into(),
        allocation_to_value(&outcome.core.allocation),
    );
    obj.insert("analysis".into(), analysis_to_value(&outcome.core.analysis));
    obj.insert("kernel".into(), kernel_to_value(&outcome.core.kernel));
    obj.insert("retiming".into(), retiming_to_value(&outcome.core.retiming));
    Value::Object(obj)
}

/// Decodes an outcome's periodic core and re-derives its plan for
/// `iterations` iterations of `graph` on `config` through
/// [`paraconv_sched::emit`]. The core is only shape-checked here; the
/// verifier gate re-proves it.
///
/// # Errors
///
/// [`ArtifactError::SchemaMismatch`] for a malformed core and
/// [`ArtifactError::Unemittable`] when a well-formed core emits no plan
/// (built for another graph, degenerate, overflowing, or too large).
pub fn outcome_from_value(
    v: &Value,
    path: &str,
    graph: &TaskGraph,
    config: &PimConfig,
    iterations: u64,
) -> Result<ParaConvOutcome, ArtifactError> {
    let path = Path::Root(path);
    let obj = as_obj(v, &path)?;
    check_keys(
        obj,
        &path,
        &["allocation", "analysis", "kernel", "retiming"],
    )?;
    let kernel = kernel_from_value(field(obj, &path, "kernel")?, &path.key("kernel"))?;
    let retiming = retiming_from_value(field(obj, &path, "retiming")?, &path.key("retiming"))?;
    let allocation =
        allocation_from_value(field(obj, &path, "allocation")?, &path.key("allocation"))?;
    let analysis = analysis_from_value(field(obj, &path, "analysis")?, &path.key("analysis"))?;
    let plan = paraconv_sched::emit(graph, config, &kernel, &retiming, &allocation, iterations)
        .map_err(ArtifactError::Unemittable)?;
    Ok(ParaConvOutcome {
        core: ParaConvCore {
            kernel,
            retiming,
            allocation,
            analysis,
        },
        plan,
    })
}

fn kernel_to_value(kernel: &KernelSchedule) -> Value {
    let mut obj = Map::new();
    obj.insert("copies".into(), u64_value(kernel.copies()));
    obj.insert(
        "finish".into(),
        u64_array(kernel.finish_slots().iter().copied()),
    );
    obj.insert("node_count".into(), usize_value(kernel.node_count()));
    obj.insert(
        "pe".into(),
        u64_array(kernel.pe_slots().iter().map(|pe| pe.index() as u64)),
    );
    obj.insert("period".into(), u64_value(kernel.period()));
    obj.insert(
        "start".into(),
        u64_array(kernel.start_slots().iter().copied()),
    );
    Value::Object(obj)
}

fn kernel_from_value(v: &Value, path: &Path) -> Result<KernelSchedule, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(
        obj,
        path,
        &["copies", "finish", "node_count", "pe", "period", "start"],
    )?;
    KernelSchedule::from_parts(
        u64_field(obj, path, "period")?,
        u64_field(obj, path, "copies")?,
        usize_field(obj, path, "node_count")?,
        id_vec_field(obj, path, "pe")?
            .into_iter()
            .map(PeId::new)
            .collect(),
        u64_vec_field(obj, path, "start")?,
        u64_vec_field(obj, path, "finish")?,
    )
    .map_err(|detail| path.error(detail))
}

fn retiming_to_value(retiming: &Retiming) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "edges".into(),
        u64_array(retiming.edge_values_raw().iter().copied()),
    );
    obj.insert(
        "nodes".into(),
        u64_array(retiming.node_values().map(|(_, v)| v)),
    );
    Value::Object(obj)
}

fn retiming_from_value(v: &Value, path: &Path) -> Result<Retiming, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["edges", "nodes"])?;
    Ok(Retiming::from_values(
        u64_vec_field(obj, path, "nodes")?,
        u64_vec_field(obj, path, "edges")?,
    ))
}

fn allocation_to_value(allocation: &CacheAllocation) -> Value {
    let mut placements: Vec<(EdgeId, Placement)> = allocation.placements().collect();
    placements.sort_by_key(|(edge, _)| edge.index());
    let placements: Vec<Value> = placements
        .into_iter()
        .map(|(edge, placement)| {
            Value::Array(vec![
                usize_value(edge.index()),
                str_value(placement_tag(placement)),
            ])
        })
        .collect();
    let mut obj = Map::new();
    obj.insert(
        "cached".into(),
        u64_array(allocation.cached().iter().map(|e| e.index() as u64)),
    );
    obj.insert("capacity".into(), u64_value(allocation.capacity()));
    obj.insert("placements".into(), Value::Array(placements));
    obj.insert("total_profit".into(), u64_value(allocation.total_profit()));
    obj.insert(
        "used_capacity".into(),
        u64_value(allocation.used_capacity()),
    );
    Value::Object(obj)
}

fn allocation_from_value(v: &Value, path: &Path) -> Result<CacheAllocation, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(
        obj,
        path,
        &[
            "cached",
            "capacity",
            "placements",
            "total_profit",
            "used_capacity",
        ],
    )?;
    let placements_path = path.key("placements");
    let placements = array_field(obj, path, "placements")?
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let entry_path = placements_path.index(i);
            let [edge, placement] = row(entry, &entry_path, ["edge", "placement"])?;
            let (edge_path, placement_path) = (entry_path.index(0), entry_path.index(1));
            Ok((
                EdgeId::new(id32(as_u64(edge, &edge_path)?, &edge_path)?),
                placement_from_tag(as_str(placement, &placement_path)?, &placement_path)?,
            ))
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    Ok(CacheAllocation::from_parts(
        placements,
        id_vec_field(obj, path, "cached")?
            .into_iter()
            .map(EdgeId::new)
            .collect(),
        u64_field(obj, path, "total_profit")?,
        u64_field(obj, path, "used_capacity")?,
        u64_field(obj, path, "capacity")?,
    ))
}

fn analysis_to_value(analysis: &MovementAnalysis) -> Value {
    let cases: Vec<Value> = analysis
        .cases()
        .map(|(_, case)| {
            Value::Array(vec![
                u64_value(case.cache_requirement()),
                u64_value(case.edram_requirement()),
            ])
        })
        .collect();
    let mut obj = Map::new();
    obj.insert("cases".into(), Value::Array(cases));
    obj.insert("period".into(), u64_value(analysis.period()));
    Value::Object(obj)
}

fn analysis_from_value(v: &Value, path: &Path) -> Result<MovementAnalysis, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["cases", "period"])?;
    let cases_path = path.key("cases");
    let cases = array_field(obj, path, "cases")?
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let case_path = cases_path.index(i);
            let [k_cache, k_edram] = row(entry, &case_path, ["k_cache", "k_edram"])?;
            RetimingCase::classify(
                as_u64(k_cache, &case_path.index(0))?,
                as_u64(k_edram, &case_path.index(1))?,
            )
            .map_err(|e| case_path.error(e.to_string()))
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    MovementAnalysis::from_cases(cases, u64_field(obj, path, "period")?)
        .map_err(|e| path.error(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_sched::ParaConvScheduler;

    fn sample() -> (TaskGraph, PimConfig, ParaConvOutcome) {
        let graph = examples::motivational();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let config = PimConfig::neurocube(4).unwrap();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let outcome = ParaConvScheduler::new(config.clone())
            .schedule(&graph, 6)
            .unwrap();
        (graph, config, outcome)
    }

    #[test]
    fn graph_round_trips() {
        let (graph, _, _) = sample();
        let value = graph_to_value(&graph);
        let back = graph_from_value(&value, "graph").unwrap();
        assert_eq!(
            serde_json::to_string(&graph_to_value(&back)),
            serde_json::to_string(&value)
        );
        assert_eq!(back.node_count(), graph.node_count());
        assert_eq!(back.edge_count(), graph.edge_count());
        assert_eq!(back.name(), graph.name());
    }

    #[test]
    fn config_round_trips() {
        let (_, config, _) = sample();
        let value = config_to_value(&config);
        let back = config_from_value(&value, "config").unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn config_with_failures_and_concurrency_round_trips() {
        let config = PimConfig::builder(8)
            .per_pe_cache_units(3)
            .max_vault_concurrency(2)
            .failed_pes(vec![1, 5])
            .build()
            .unwrap();
        let back = config_from_value(&config_to_value(&config), "config").unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn outcome_round_trips_exactly() {
        let (graph, config, outcome) = sample();
        let value = outcome_to_value(&outcome);
        assert!(
            value.get("plan").is_none(),
            "the plan is derived, not stored"
        );
        let back = outcome_from_value(&value, "body", &graph, &config, 6).unwrap();
        // The re-derived plan is the scheduler's, entry for entry.
        assert_eq!(back.plan, outcome.plan);
        assert_eq!(back.core.kernel, outcome.core.kernel);
        assert_eq!(back.core.retiming, outcome.core.retiming);
        assert_eq!(back.core.allocation, outcome.core.allocation);
        assert_eq!(back.core.analysis, outcome.core.analysis);
        // Canonical bytes are stable through the round trip.
        assert_eq!(
            serde_json::to_string(&outcome_to_value(&back)),
            serde_json::to_string(&value)
        );
    }

    #[test]
    fn policy_round_trips() {
        for allocation in [
            AllocationPolicy::DynamicProgram,
            AllocationPolicy::GreedyByDensity,
            AllocationPolicy::AllEdram,
        ] {
            let policy = PlanPolicy {
                allocation,
                iterations: 12,
            };
            let back = policy_from_value(&policy_to_value(&policy), "policy").unwrap();
            assert_eq!(back, policy);
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let (graph, _, _) = sample();
        let mut value = graph_to_value(&graph);
        if let Value::Object(obj) = &mut value {
            obj.insert("zzz_extra".into(), Value::Null);
        }
        let err = graph_from_value(&value, "graph").unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
        assert!(err.to_string().contains("zzz_extra"));
    }

    #[test]
    fn missing_fields_are_rejected_with_dotted_paths() {
        let (_, config, _) = sample();
        let mut value = config_to_value(&config);
        if let Value::Object(obj) = &mut value {
            obj.remove("vaults");
        }
        let err = config_from_value(&value, "body.config").unwrap_err();
        assert!(err.to_string().contains("body.config.vaults"), "{err}");
    }

    #[test]
    fn wrong_types_are_schema_errors_not_panics() {
        let err = graph_from_value(&Value::Bool(true), "graph").unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
        let err = config_from_value(&Value::Array(vec![]), "config").unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
    }

    #[test]
    fn invalid_case_pair_is_rejected() {
        let mut obj = Map::new();
        obj.insert(
            "cases".into(),
            Value::Array(vec![Value::Array(vec![u64_value(2), u64_value(1)])]),
        );
        obj.insert("period".into(), u64_value(4));
        let err = analysis_from_value(&Value::Object(obj), &Path::Root("analysis")).unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
    }
}
