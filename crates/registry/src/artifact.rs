//! The versioned plan artifact: header, canonical encoding, and the
//! schema-checked decoder.
//!
//! An artifact is two JSON lines (the idiom the obs JSONL exporter
//! established):
//!
//! ```text
//! {"content_hash":"…","format":2,"key":"…","magic":"paraconv-plan","producer":"paraconv 0.1.0"}
//! {"config":{…},"graph":{…},"outcome":{…},"policy":{…}}
//! ```
//!
//! The header carries everything needed to reject a foreign or
//! tampered file *before* touching the body codec: a magic string, the
//! format version, the SHA-256 of the body line (`content_hash`), and
//! the registry key (SHA-256 of the canonical request — graph, config,
//! policy — that produced the plan). The `producer` field is
//! provenance only and is never validated, so artifacts exported by a
//! newer patch release still import cleanly.
//!
//! Format 2 stores the outcome's periodic core — kernel, retiming,
//! allocation and movement analysis — and not the unrolled plan, which
//! is a pure function of the core and the iteration count. [`decode`]
//! re-derives the plan through [`paraconv_sched::emit`], so an artifact
//! is O(V + E) rather than O(iterations × (V + E)) bytes, and the plan
//! that executes after import is by construction the one the verifier
//! gate proves. Format 1 artifacts (which stored the plan) are refused
//! as a [`ArtifactError::VersionSkew`].
//!
//! Decoding is strict and total: every failure is a typed
//! [`ArtifactError`]; hostile bytes can never panic or yield a plan
//! that skips the verifier gate.

use paraconv_graph::TaskGraph;
use paraconv_pim::PimConfig;
use paraconv_sched::{AllocationPolicy, ParaConvOutcome};
use serde_json::{Map, Value};

use crate::codec::{self, Path};
use crate::error::ArtifactError;
use crate::frame;
use crate::hash::{self, Sha256};

/// Magic string identifying a Para-CONV plan artifact.
pub const MAGIC: &str = "paraconv-plan";

/// The single artifact format version this build reads and writes.
pub const FORMAT_VERSION: u64 = 2;

/// Producer tag written into exported headers (provenance only).
pub const PRODUCER: &str = concat!("paraconv ", env!("CARGO_PKG_VERSION"));

/// The request half of a plan: how the scheduler was asked to run.
/// Together with the graph and config it forms the registry key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPolicy {
    /// Cache-allocation policy the scheduler used.
    pub allocation: AllocationPolicy,
    /// Number of logical iterations the plan covers.
    pub iterations: u64,
}

/// A complete, self-contained plan: the request (graph, config,
/// policy) plus the scheduling outcome, which is everything
/// `paraconv-verify` needs to re-prove the plan without trusting the
/// producer.
#[derive(Debug, Clone)]
pub struct PlanBundle {
    /// The task graph the plan executes.
    pub graph: TaskGraph,
    /// The PIM architecture the plan targets.
    pub config: PimConfig,
    /// The scheduling request parameters.
    pub policy: PlanPolicy,
    /// The scheduler's outcome. Only its periodic core (kernel,
    /// retiming, allocation, movement analysis) is encoded; a decoded
    /// bundle's plan is re-derived from that core.
    pub outcome: ParaConvOutcome,
}

/// Named sections reported by [`PlanBundle::diff_sections`].
const DIFF_SECTIONS: [&str; 7] = [
    "graph",
    "config",
    "policy",
    "outcome.kernel",
    "outcome.retiming",
    "outcome.allocation",
    "outcome.analysis",
];

/// Appends the members the registry-key preimage and the body share,
/// `{"config":…,"graph":…`. The preimage is the canonical
/// `{"config":…,"graph":…,"policy":…}` and the body
/// `{"config":…,"graph":…,"outcome":…,"policy":…}` (members in
/// alphabetical order), so both begin with these bytes.
fn write_request_prefix(out: &mut String, graph: &TaskGraph, config: &PimConfig) {
    out.push_str(r#"{"config":"#);
    codec::write_config(out, config);
    out.push_str(r#","graph":"#);
    codec::write_graph(out, graph);
}

/// Appends `,"policy":…}`, the member both the preimage and the body
/// close with.
fn write_policy_member(out: &mut String, policy: &PlanPolicy) {
    out.push_str(r#","policy":"#);
    codec::write_policy(out, policy);
    out.push('}');
}

/// The registry key of a plan request: SHA-256 of the canonical
/// encoding of `(graph, config, policy)`. Computable before any
/// scheduling work, which is what lets the CLI consult the registry
/// first and skip the scheduler on a hit.
#[must_use]
pub fn request_key(graph: &TaskGraph, config: &PimConfig, policy: &PlanPolicy) -> String {
    let mut preimage = String::new();
    write_request_prefix(&mut preimage, graph, config);
    write_policy_member(&mut preimage, policy);
    hash::sha256_hex(preimage.as_bytes())
}

impl PlanBundle {
    /// The registry key: SHA-256 of the canonical request encoding.
    /// Two exports of the same (graph, config, policy) always collide
    /// here — that is the content-addressing contract.
    #[must_use]
    pub fn key(&self) -> String {
        request_key(&self.graph, &self.config, &self.policy)
    }

    /// Encodes the bundle as a complete artifact: header line + body
    /// line, each `\n`-terminated. Byte-deterministic: the same bundle
    /// always encodes to the same bytes. The request is written once,
    /// into the body, and the prefix the key preimage shares with the
    /// body is hashed once: the key and the content hash each finish
    /// from a copy of that hasher.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::new();
        write_request_prefix(&mut body, &self.graph, &self.config);
        let prefix_len = body.len();
        let mut prefix = Sha256::new();
        prefix.update(body.as_bytes());

        let mut policy = String::new();
        write_policy_member(&mut policy, &self.policy);
        let mut key = prefix.clone();
        key.update(policy.as_bytes());

        body.push_str(r#","outcome":"#);
        codec::write_outcome(&mut body, &self.outcome);
        body.push_str(&policy);
        let mut content = prefix;
        content.update(&body.as_bytes()[prefix_len..]);

        let mut header = Map::new();
        header.insert("key".into(), Value::String(hash::hex(key.finalize())));
        frame::encode(
            MAGIC,
            FORMAT_VERSION,
            header,
            &body,
            hash::hex(content.finalize()),
        )
    }

    /// Names the sections in which `self` and `other` differ (empty
    /// when the bundles encode identically). Sections follow the body
    /// schema: `graph`, `config`, `policy`, and the four outcome
    /// components.
    #[must_use]
    pub fn diff_sections(&self, other: &PlanBundle) -> Vec<&'static str> {
        use codec::json;
        let sections = |bundle: &PlanBundle| -> [String; 7] {
            let core = &bundle.outcome.core;
            [
                json(|out| codec::write_graph(out, &bundle.graph)),
                json(|out| codec::write_config(out, &bundle.config)),
                json(|out| codec::write_policy(out, &bundle.policy)),
                json(|out| codec::write_kernel(out, &core.kernel)),
                json(|out| codec::write_retiming(out, &core.retiming)),
                json(|out| codec::write_allocation(out, &core.allocation)),
                json(|out| codec::write_analysis(out, &core.analysis)),
            ]
        };
        let a = sections(self);
        let b = sections(other);
        DIFF_SECTIONS
            .iter()
            .zip(a.iter().zip(b.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(name, _)| *name)
            .collect()
    }
}

/// The schema-checked artifact header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactHeader {
    /// Format version recorded by the producer (always
    /// [`FORMAT_VERSION`] after a successful decode).
    pub format: u64,
    /// Producer tag (provenance only, never validated).
    pub producer: String,
    /// SHA-256 of the body line, re-verified on decode.
    pub content_hash: String,
    /// Registry key — SHA-256 of the canonical request, re-verified on
    /// decode against the rebuilt bundle.
    pub key: String,
}

/// A decoded, hash-verified artifact.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// The validated header.
    pub header: ArtifactHeader,
    /// The rebuilt plan bundle.
    pub bundle: PlanBundle,
}

/// Cheap integrity check over raw artifact bytes: line structure,
/// header JSON (magic, version, key) and the body `content_hash` — but
/// not the body codec, the registry-key recompute or the plan
/// re-derivation, so it costs one JSON parse of the short header plus
/// one SHA-256 pass over the body.
///
/// This is the defense-in-depth gate [`Registry::get`] runs on every
/// read: bit rot anywhere in a stored object surfaces as a typed
/// [`ArtifactError::HashMismatch`] instead of being served.
///
/// [`Registry::get`]: crate::Registry::get
///
/// # Errors
///
/// Returns the same typed errors as [`decode`] for the validation
/// stages it runs; never panics on hostile bytes.
pub fn verify_artifact_bytes(bytes: &[u8]) -> Result<(), ArtifactError> {
    frame::decode(bytes, "artifact", MAGIC, FORMAT_VERSION)?.header_str("key")?;
    Ok(())
}

/// Decodes and validates an artifact from raw bytes.
///
/// Validation runs outside-in, cheapest first, so tampering is caught
/// before any expensive work: UTF-8 → line structure → header JSON →
/// magic → format version → body `content_hash` → request codec →
/// registry-key recompute → outcome codec → plan re-derivation
/// ([`paraconv_sched::emit`] at the policy's iteration count). The
/// `producer` field is not validated.
///
/// # Errors
///
/// Every malformed input maps to a typed [`ArtifactError`]; this
/// function never panics, regardless of input.
pub fn decode(bytes: &[u8]) -> Result<PlanArtifact, ArtifactError> {
    let framed = frame::decode(bytes, "artifact", MAGIC, FORMAT_VERSION)?;
    let key = framed.header_str("key")?;
    let body = framed.body(&["config", "graph", "outcome", "policy"])?;
    let section = |name| codec::field(&body, &Path::Root("body"), name);
    let graph = codec::graph_from_value(section("graph")?, "body.graph")?;
    let config = codec::config_from_value(section("config")?, "body.config")?;
    let policy = codec::policy_from_value(section("policy")?, "body.policy")?;

    // The recorded key must match the request we just rebuilt —
    // otherwise the registry would file this plan under a lie.
    let computed_key = request_key(&graph, &config, &policy);
    if computed_key != key {
        return Err(ArtifactError::HashMismatch {
            field: "key",
            recorded: key,
            computed: computed_key,
        });
    }

    // Last and costliest: decode the core and re-derive its plan.
    let outcome = codec::outcome_from_value(
        section("outcome")?,
        "body.outcome",
        &graph,
        &config,
        policy.iterations,
    )?;
    Ok(PlanArtifact {
        header: ArtifactHeader {
            format: FORMAT_VERSION,
            producer: framed.producer,
            content_hash: framed.content_hash,
            key,
        },
        bundle: PlanBundle {
            graph,
            config,
            policy,
            outcome,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256_hex;
    use paraconv_graph::examples;
    use paraconv_sched::ParaConvScheduler;

    fn bundle() -> PlanBundle {
        let graph = examples::motivational();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let config = PimConfig::neurocube(4).unwrap();
        // lint: allow(no-unwrap) — test fixture with known-good inputs.
        let outcome = ParaConvScheduler::new(config.clone())
            .schedule(&graph, 6)
            .unwrap();
        PlanBundle {
            graph,
            config,
            policy: PlanPolicy {
                allocation: AllocationPolicy::DynamicProgram,
                iterations: 6,
            },
            outcome,
        }
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let bundle = bundle();
        let bytes = bundle.encode();
        let artifact = decode(&bytes).unwrap();
        assert_eq!(artifact.header.format, FORMAT_VERSION);
        assert_eq!(artifact.header.producer, PRODUCER);
        assert_eq!(artifact.bundle.encode(), bytes);
        assert_eq!(artifact.header.key, bundle.key());
    }

    #[test]
    fn key_ignores_outcome() {
        let bundle = bundle();
        let mut other = bundle.clone();
        other.outcome.core.retiming = paraconv_retime::Retiming::zero(&other.graph);
        assert_eq!(bundle.key(), other.key());
        assert_ne!(bundle.encode(), other.encode());
    }

    #[test]
    fn the_plan_is_derived_not_stored() {
        let bundle = bundle();
        let mut forged = bundle.clone();
        forged.outcome.plan = paraconv_pim::ExecutionPlan::new(999);
        // A plan edited beside its core never reaches the bytes: the
        // artifact re-derives the core's own plan.
        assert_eq!(bundle.encode(), forged.encode());
        let decoded = decode(&forged.encode()).unwrap();
        assert_eq!(decoded.bundle.outcome.plan, bundle.outcome.plan);
    }

    #[test]
    fn encode_serializes_the_request_like_request_key() {
        let bundle = bundle();
        let text = String::from_utf8(bundle.encode()).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        // The key preimage is the body minus its outcome member.
        let body: Value = serde_json::from_str(body.trim_end()).unwrap();
        let mut request = body.as_object().unwrap().clone();
        request.remove("outcome");
        let preimage = serde_json::to_string(&Value::Object(request));
        assert!(header.contains(&sha256_hex(preimage.as_bytes())));
        assert_eq!(sha256_hex(preimage.as_bytes()), bundle.key());
    }

    #[test]
    fn wrong_magic_is_schema_mismatch() {
        let bundle = bundle();
        let bytes = bundle.encode();
        let text = String::from_utf8(bytes).unwrap();
        let text = text.replacen("paraconv-plan", "paraconv-elan", 1);
        let err = decode(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }), "{err}");
    }

    #[test]
    fn future_version_is_version_skew() {
        let bundle = bundle();
        let text = String::from_utf8(bundle.encode()).unwrap();
        for (found, stale) in [(99, "\"format\":99"), (1, "\"format\":1")] {
            let stale = text.replacen("\"format\":2", stale, 1);
            let err = decode(stale.as_bytes()).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::VersionSkew { found: f, supported: 2 } if f == found
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn flipped_body_byte_is_hash_mismatch() {
        let bundle = bundle();
        let mut bytes = bundle.encode();
        let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Flip a digit deep in the body without breaking UTF-8.
        let target = bytes[body_start..]
            .iter()
            .position(|&b| b.is_ascii_digit())
            .unwrap()
            + body_start;
        bytes[target] = if bytes[target] == b'0' { b'1' } else { b'0' };
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::HashMismatch {
                    field: "content_hash",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn truncations_are_typed() {
        let bundle = bundle();
        let bytes = bundle.encode();
        assert!(matches!(
            decode(&[]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
        let header_only = &bytes[..bytes.iter().position(|&b| b == b'\n').unwrap()];
        assert!(matches!(
            decode(header_only).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
    }

    #[test]
    fn non_utf8_is_schema_mismatch() {
        let err = decode(&[0xff, 0xfe, 0x00, b'\n', b'x', b'\n']).unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }));
    }

    #[test]
    fn diff_sections_localizes_changes() {
        let a = bundle();
        let mut b = a.clone();
        assert!(a.diff_sections(&b).is_empty());
        b.policy.iterations += 1;
        assert_eq!(a.diff_sections(&b), vec!["policy"]);
        let mut c = a.clone();
        c.outcome.core.retiming = paraconv_retime::Retiming::zero(&c.graph);
        assert_eq!(a.diff_sections(&c), vec!["outcome.retiming"]);
    }
}
