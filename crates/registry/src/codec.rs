//! Canonical JSON between the domain types and the artifact body.
//!
//! The encoders append each section straight to a `String`: object
//! members in alphabetical order (the order a `BTreeMap` serializes
//! in), integers in decimal, strings through
//! [`serde_json::write_escaped`]. The byte encoding is therefore
//! canonical by construction: the same bundle always produces the same
//! bytes, which is what makes content addressing and cross-process
//! `cmp` checks meaningful. No [`Value`] tree is built on the way out.
//! The tests hold the writer to `serde_json::to_string` of a reference
//! [`Value`] encoder, byte for byte.
//!
//! Every decoder is total — hostile shapes come back as
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
use paraconv_retime::{MovementAnalysis, RequirementPair, Retiming};
use paraconv_sched::{AllocationPolicy, KernelSchedule, ParaConvCore, ParaConvOutcome};
use serde_json::{Map, Value};

use crate::artifact::PlanPolicy;
use crate::error::ArtifactError;

// ---------------------------------------------------------------------------
// Building-block writers
// ---------------------------------------------------------------------------

/// Appends `v` in decimal, as `serde_json` prints an integer.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &digit in &digits[at..] {
        out.push(char::from(digit));
    }
}

fn push_usize(out: &mut String, v: usize) {
    push_u64(out, v as u64);
}

/// Appends a JSON array, one `write` per item.
fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// What `write` appends to an empty string.
pub(crate) fn json(write: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    write(&mut out);
    out
}

/// Appends an enum tag (a fixed ASCII word that needs no escaping) as
/// a JSON string.
fn push_tag(out: &mut String, tag: &str) {
    out.push('"');
    out.push_str(tag);
    out.push('"');
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

/// Appends the canonical JSON of a task graph. Node and edge ids are
/// implicit in array order, which is exactly the builder's dense
/// sequential assignment.
pub(crate) fn write_graph(out: &mut String, graph: &TaskGraph) {
    out.push_str(r#"{"edges":"#);
    push_array(out, graph.edges(), |out, edge| {
        out.push_str(r#"{"dst":"#);
        push_usize(out, edge.dst().index());
        out.push_str(r#","size":"#);
        push_u64(out, edge.size());
        out.push_str(r#","src":"#);
        push_usize(out, edge.src().index());
        out.push('}');
    });
    out.push_str(r#","name":"#);
    serde_json::write_escaped(out, graph.name());
    out.push_str(r#","nodes":"#);
    push_array(out, graph.nodes(), |out, node| {
        out.push_str(r#"{"exec":"#);
        push_u64(out, node.exec_time());
        out.push_str(r#","kind":"#);
        push_tag(out, kind_tag(node.kind()));
        out.push_str(r#","name":"#);
        serde_json::write_escaped(out, node.name());
        out.push('}');
    });
    out.push('}');
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

/// Appends the canonical JSON of a [`PimConfig`], one member per
/// getter.
pub(crate) fn write_config(out: &mut String, config: &PimConfig) {
    out.push_str(r#"{"cache_cost_per_unit":"#);
    push_u64(out, config.cache_cost_per_unit());
    out.push_str(r#","edram_penalty":"#);
    push_u64(out, config.edram_penalty());
    out.push_str(r#","failed_pes":"#);
    push_array(out, config.failed_pes(), |out, &pe| {
        push_u64(out, u64::from(pe))
    });
    out.push_str(r#","max_vault_concurrency":"#);
    match config.max_vault_concurrency() {
        Some(limit) => push_usize(out, limit),
        None => out.push_str("null"),
    }
    out.push_str(r#","num_pes":"#);
    push_usize(out, config.num_pes());
    out.push_str(r#","per_pe_cache_units":"#);
    push_u64(out, config.per_pe_cache_units());
    out.push_str(r#","pfifo_depth":"#);
    push_usize(out, config.pfifo_depth());
    out.push_str(r#","vault_queue_cost":"#);
    push_u64(out, config.vault_queue_cost());
    out.push_str(r#","vaults":"#);
    push_usize(out, config.vaults());
    out.push('}');
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

/// Appends the canonical JSON of the request policy that keys the
/// registry.
pub(crate) fn write_policy(out: &mut String, policy: &PlanPolicy) {
    out.push_str(r#"{"allocation":"#);
    push_tag(out, policy_tag(policy.allocation));
    out.push_str(r#","iterations":"#);
    push_u64(out, policy.iterations);
    out.push('}');
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

/// Appends the canonical JSON of a [`ParaConvOutcome`]'s periodic
/// core — the kernel, retiming, allocation and movement analysis. The
/// plan is not stored: it is a pure function of the core
/// ([`paraconv_sched::emit`]), and [`outcome_from_value`] re-derives
/// it.
pub(crate) fn write_outcome(out: &mut String, outcome: &ParaConvOutcome) {
    let core = &outcome.core;
    out.push_str(r#"{"allocation":"#);
    write_allocation(out, &core.allocation);
    out.push_str(r#","analysis":"#);
    write_analysis(out, &core.analysis);
    out.push_str(r#","kernel":"#);
    write_kernel(out, &core.kernel);
    out.push_str(r#","retiming":"#);
    write_retiming(out, &core.retiming);
    out.push('}');
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

pub(crate) fn write_kernel(out: &mut String, kernel: &KernelSchedule) {
    out.push_str(r#"{"copies":"#);
    push_u64(out, kernel.copies());
    out.push_str(r#","finish":"#);
    push_array(out, kernel.finish_slots(), |out, &t| push_u64(out, t));
    out.push_str(r#","node_count":"#);
    push_usize(out, kernel.node_count());
    out.push_str(r#","pe":"#);
    push_array(out, kernel.pe_slots(), |out, pe| {
        push_usize(out, pe.index())
    });
    out.push_str(r#","period":"#);
    push_u64(out, kernel.period());
    out.push_str(r#","start":"#);
    push_array(out, kernel.start_slots(), |out, &t| push_u64(out, t));
    out.push('}');
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

pub(crate) fn write_retiming(out: &mut String, retiming: &Retiming) {
    out.push_str(r#"{"edges":"#);
    push_array(out, retiming.edge_values_raw(), |out, &r| push_u64(out, r));
    out.push_str(r#","nodes":"#);
    push_array(out, retiming.node_values(), |out, (_, r)| push_u64(out, r));
    out.push('}');
}

fn retiming_from_value(v: &Value, path: &Path) -> Result<Retiming, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["edges", "nodes"])?;
    Ok(Retiming::from_values(
        u64_vec_field(obj, path, "nodes")?,
        u64_vec_field(obj, path, "edges")?,
    ))
}

pub(crate) fn write_allocation(out: &mut String, allocation: &CacheAllocation) {
    let mut placements: Vec<(EdgeId, Placement)> = allocation.placements().collect();
    placements.sort_by_key(|(edge, _)| edge.index());
    out.push_str(r#"{"cached":"#);
    push_array(out, allocation.cached(), |out, edge| {
        push_usize(out, edge.index());
    });
    out.push_str(r#","capacity":"#);
    push_u64(out, allocation.capacity());
    out.push_str(r#","placements":"#);
    push_array(out, placements, |out, (edge, placement)| {
        out.push('[');
        push_usize(out, edge.index());
        out.push(',');
        push_tag(out, placement_tag(placement));
        out.push(']');
    });
    out.push_str(r#","total_profit":"#);
    push_u64(out, allocation.total_profit());
    out.push_str(r#","used_capacity":"#);
    push_u64(out, allocation.used_capacity());
    out.push('}');
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

pub(crate) fn write_analysis(out: &mut String, analysis: &MovementAnalysis) {
    out.push_str(r#"{"cases":"#);
    push_array(out, analysis.pairs(), |out, (_, pair)| {
        out.push('[');
        push_u64(out, pair.k_cache());
        out.push(',');
        push_u64(out, pair.k_edram());
        out.push(']');
    });
    out.push_str(r#","period":"#);
    push_u64(out, analysis.period());
    out.push('}');
}

fn analysis_from_value(v: &Value, path: &Path) -> Result<MovementAnalysis, ArtifactError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, path, &["cases", "period"])?;
    let cases_path = path.key("cases");
    let pairs = array_field(obj, path, "cases")?
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let case_path = cases_path.index(i);
            let [k_cache, k_edram] = row(entry, &case_path, ["k_cache", "k_edram"])?;
            let k_cache = as_u64(k_cache, &case_path.index(0))?;
            let k_edram = as_u64(k_edram, &case_path.index(1))?;
            RequirementPair::new(k_cache, k_edram).ok_or_else(|| {
                case_path.error(format!("k_cache {k_cache} above k_edram {k_edram}"))
            })
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    MovementAnalysis::from_pairs(pairs, u64_field(obj, path, "period")?)
        .map_err(|e| path.error(e.to_string()))
}

/// The `Value` encoders the writer replaced, kept as its reference: the
/// tests require the writer's bytes to equal `serde_json::to_string`
/// of these trees, whose `BTreeMap` objects serialize members
/// alphabetically.
#[cfg(test)]
mod reference {
    use super::*;
    use serde_json::Number;

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

    pub(super) fn graph_to_value(graph: &TaskGraph) -> Value {
        let nodes: Vec<Value> = graph
            .node_ids()
            .map(|id| {
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

    pub(super) fn config_to_value(config: &PimConfig) -> Value {
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

    pub(super) fn policy_to_value(policy: &PlanPolicy) -> Value {
        let mut obj = Map::new();
        obj.insert(
            "allocation".into(),
            str_value(policy_tag(policy.allocation)),
        );
        obj.insert("iterations".into(), u64_value(policy.iterations));
        Value::Object(obj)
    }

    pub(super) fn outcome_to_value(outcome: &ParaConvOutcome) -> Value {
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

    fn analysis_to_value(analysis: &MovementAnalysis) -> Value {
        let cases: Vec<Value> = analysis
            .pairs()
            .map(|(_, pair)| {
                Value::Array(vec![u64_value(pair.k_cache()), u64_value(pair.k_edram())])
            })
            .collect();
        let mut obj = Map::new();
        obj.insert("cases".into(), Value::Array(cases));
        obj.insert("period".into(), u64_value(analysis.period()));
        Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraconv_graph::examples;
    use paraconv_pim::ExecutionPlan;
    use paraconv_sched::ParaConvScheduler;
    use proptest::prelude::*;

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

    /// The writer's bytes, parsed back into a `Value`.
    fn parsed(write: impl FnOnce(&mut String)) -> Value {
        serde_json::from_str(&json(write)).unwrap()
    }

    /// Requires every section the writer emits for this request and
    /// outcome core to equal the reference encoding, byte for byte.
    fn assert_matches_reference(
        graph: &TaskGraph,
        config: &PimConfig,
        policy: &PlanPolicy,
        core: ParaConvCore,
        what: &str,
    ) {
        let outcome = ParaConvOutcome {
            core,
            plan: ExecutionPlan::default(),
        };
        for (section, written, expected) in [
            (
                "graph",
                json(|out| write_graph(out, graph)),
                reference::graph_to_value(graph),
            ),
            (
                "config",
                json(|out| write_config(out, config)),
                reference::config_to_value(config),
            ),
            (
                "policy",
                json(|out| write_policy(out, policy)),
                reference::policy_to_value(policy),
            ),
            (
                "outcome",
                json(|out| write_outcome(out, &outcome)),
                reference::outcome_to_value(&outcome),
            ),
        ] {
            assert_eq!(
                written,
                serde_json::to_string(&expected),
                "{what}: the {section} bytes drifted from the reference"
            );
        }
    }

    /// Schedules `graph`'s core for `policy` and holds every section to
    /// the reference.
    fn assert_request_matches(graph: &TaskGraph, config: &PimConfig, policy: PlanPolicy) {
        let (core, _) = ParaConvScheduler::new(config.clone())
            .with_policy(policy.allocation)
            .schedule_periodic(graph, policy.iterations)
            .unwrap();
        let what = format!(
            "{} at {} PEs, {:?}, {} iterations",
            graph.name(),
            config.num_pes(),
            policy.allocation,
            policy.iterations
        );
        assert_matches_reference(graph, config, &policy, core, &what);
    }

    const POLICIES: [AllocationPolicy; 3] = [
        AllocationPolicy::DynamicProgram,
        AllocationPolicy::GreedyByDensity,
        AllocationPolicy::AllEdram,
    ];

    #[test]
    fn the_writer_matches_the_reference_across_table1() {
        for benchmark in paraconv_synth::benchmarks::all() {
            let graph = benchmark.graph().unwrap();
            for pes in [16, 32, 64] {
                let config = PimConfig::neurocube(pes).unwrap();
                for allocation in POLICIES {
                    for iterations in [1, 50, 95] {
                        let policy = PlanPolicy {
                            allocation,
                            iterations,
                        };
                        assert_request_matches(&graph, &config, policy);
                    }
                }
            }
        }
    }

    #[test]
    fn the_writer_matches_the_reference_on_the_zoo() {
        let config = PimConfig::neurocube(16).unwrap();
        let zoo = paraconv_cnn::zoo::all().unwrap();
        assert_eq!(zoo.len(), 5);
        for (_, network) in &zoo {
            let graph =
                paraconv_cnn::partition(network, paraconv_cnn::PartitionConfig::default()).unwrap();
            for allocation in POLICIES {
                let policy = PlanPolicy {
                    allocation,
                    iterations: 20,
                };
                assert_request_matches(&graph, &config, policy);
            }
        }
    }

    #[test]
    fn the_writer_matches_the_reference_on_degraded_and_bounded_configs() {
        let graph = paraconv_synth::benchmarks::by_name("cat")
            .unwrap()
            .graph()
            .unwrap();
        let degraded = PimConfig::neurocube(16)
            .unwrap()
            .degrade(&[0, 3, 15])
            .unwrap();
        let bounded = PimConfig::builder(8)
            .per_pe_cache_units(3)
            .max_vault_concurrency(2)
            .failed_pes(vec![1, 5])
            .build()
            .unwrap();
        let unbounded = PimConfig::neurocube(8).unwrap();
        assert_eq!(unbounded.max_vault_concurrency(), None);
        assert!(
            json(|out| write_config(out, &unbounded)).contains(r#""max_vault_concurrency":null"#)
        );
        for config in [degraded, bounded, unbounded] {
            let policy = PlanPolicy {
                allocation: AllocationPolicy::DynamicProgram,
                iterations: 12,
            };
            assert_request_matches(&graph, &config, policy);
        }
    }

    /// Characters a name must survive: the two JSON metacharacters,
    /// control characters with and without a short escape, and
    /// non-ASCII from two to four UTF-8 bytes.
    const NAME_CHARS: [char; 18] = [
        '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{7f}', 'é', '中',
        '\u{2028}', '😀', 'a', 'Z', ' ', '/',
    ];

    fn hostile_name() -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(NAME_CHARS.to_vec()), 0..12)
            .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_writer_matches_the_reference_on_hostile_names(
            vertices in 3usize..24,
            extra_edges in 0usize..12,
            seed in 0u64..1_000,
            graph_name in hostile_name(),
            node_names in prop::collection::vec(hostile_name(), 24),
        ) {
            let generate = |edges| {
                paraconv_synth::SyntheticSpec::new("synthetic", vertices, edges)
                    .seed(seed)
                    .generate()
            };
            let synthetic = match generate(vertices - 1 + extra_edges) {
                Err(paraconv_synth::SynthError::TooManyEdges { maximum, .. }) => generate(maximum),
                generated => generated,
            }
            .unwrap();
            // Rebuild the graph under the hostile names.
            let mut builder = TaskGraphBuilder::new(graph_name);
            for (node, name) in synthetic.nodes().zip(&node_names) {
                builder.add_node(name.as_str(), node.kind(), node.exec_time());
            }
            for edge in synthetic.edges() {
                builder.add_edge(edge.src(), edge.dst(), edge.size()).unwrap();
            }
            let graph = builder.build().unwrap();
            let config = PimConfig::neurocube(8).unwrap();
            let policy = PlanPolicy {
                allocation: AllocationPolicy::DynamicProgram,
                iterations: 7,
            };
            assert_request_matches(&graph, &config, policy);
            // The escaped names decode back to themselves.
            let back = graph_from_value(&parsed(|out| write_graph(out, &graph)), "graph").unwrap();
            prop_assert_eq!(back.name(), graph.name());
            for (a, b) in back.nodes().zip(graph.nodes()) {
                prop_assert_eq!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn graph_round_trips() {
        let (graph, _, _) = sample();
        let written = json(|out| write_graph(out, &graph));
        let back = graph_from_value(&parsed(|out| write_graph(out, &graph)), "graph").unwrap();
        assert_eq!(json(|out| write_graph(out, &back)), written);
        assert_eq!(back.node_count(), graph.node_count());
        assert_eq!(back.edge_count(), graph.edge_count());
        assert_eq!(back.name(), graph.name());
    }

    #[test]
    fn config_round_trips() {
        let (_, config, _) = sample();
        let back = config_from_value(&parsed(|out| write_config(out, &config)), "config").unwrap();
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
        let back = config_from_value(&parsed(|out| write_config(out, &config)), "config").unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn outcome_round_trips_exactly() {
        let (graph, config, outcome) = sample();
        let value = parsed(|out| write_outcome(out, &outcome));
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
            json(|out| write_outcome(out, &back)),
            json(|out| write_outcome(out, &outcome))
        );
    }

    #[test]
    fn policy_round_trips() {
        for allocation in POLICIES {
            let policy = PlanPolicy {
                allocation,
                iterations: 12,
            };
            let back =
                policy_from_value(&parsed(|out| write_policy(out, &policy)), "policy").unwrap();
            assert_eq!(back, policy);
        }
    }

    #[test]
    fn integers_print_in_decimal_at_both_ends() {
        for v in [0, 7, 10, 99, 100, 1 << 32, u64::MAX - 1, u64::MAX] {
            assert_eq!(json(|out| push_u64(out, v)), v.to_string());
        }
        assert_eq!(json(|out| push_array(out, [0u64; 0], push_u64)), "[]");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let (graph, _, _) = sample();
        let mut value = parsed(|out| write_graph(out, &graph));
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
        let mut value = parsed(|out| write_config(out, &config));
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
        let value: Value = serde_json::from_str(r#"{"cases":[[0,1],[2,1]],"period":4}"#).unwrap();
        let err = analysis_from_value(&value, &Path::Root("analysis")).unwrap_err();
        match err {
            ArtifactError::SchemaMismatch { path, detail } => {
                assert_eq!(path, "analysis.cases[1]");
                assert_eq!(detail, "k_cache 2 above k_edram 1");
            }
            other => panic!("expected SchemaMismatch, got {other}"),
        }
        // Pairs beyond Theorem 3.1's bound are stored as they are.
        let beyond = r#"{"cases":[[1,3],[0,9]],"period":4}"#;
        let value: Value = serde_json::from_str(beyond).unwrap();
        let analysis = analysis_from_value(&value, &Path::Root("analysis")).unwrap();
        assert_eq!(analysis.case_histogram(), ([0; 6], 2));
        assert_eq!(json(|out| write_analysis(out, &analysis)), beyond);
    }
}
