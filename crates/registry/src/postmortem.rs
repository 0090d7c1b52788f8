//! The postmortem artifact: what the process knew when a campaign
//! died, in canonical bytes.
//!
//! When a simulation error, verifier rejection or chaos failure
//! surfaces, the driver drains the flight recorder and the metrics
//! aggregate into a two-line JSONL artifact mirroring the plan
//! artifact idiom:
//!
//! ```text
//! {"content_hash":"…","format":1,"magic":"paraconv-postmortem","producer":"paraconv 0.1.0","reason":"…"}
//! {"context":{…},"events":[…],"metrics":{…}}
//! ```
//!
//! The body holds only **simulated** quantities — flight events carry
//! logical cycles, metrics snapshots are deterministic by contract,
//! and the context map is written by the driver from request
//! parameters — so the same dying campaign dumps byte-identical
//! postmortems at every `PARACONV_JOBS` width, and the `content_hash`
//! makes any later tampering detectable.

use std::collections::BTreeMap;

use paraconv_obs::{FlightEvent, Histogram, MetricsSnapshot};
use serde_json::{Map, Number, Value};

use crate::codec::{array_field, as_obj, as_str, as_u64, field, str_field, u64_field, Path};
use crate::error::ArtifactError;
use crate::frame;
use crate::hash::sha256_hex;

/// Magic string identifying a Para-CONV postmortem artifact.
pub const POSTMORTEM_MAGIC: &str = "paraconv-postmortem";

/// The single postmortem format version this build reads and writes.
pub const POSTMORTEM_FORMAT_VERSION: u64 = 1;

/// A complete postmortem: the failure reason, driver-supplied request
/// context, the flight recorder's recent-event window and the metrics
/// aggregate at the time of death.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemBundle {
    /// Why the campaign died (the rendered error).
    pub reason: String,
    /// Request parameters worth having in the dump (workload name,
    /// PE count, fault spec…). Keys serialize alphabetically.
    pub context: BTreeMap<String, String>,
    /// The flight recorder's buffered events, oldest first.
    pub events: Vec<FlightEvent>,
    /// The metrics aggregate at the time of death.
    pub metrics: MetricsSnapshot,
}

fn u64_value(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

fn event_to_value(e: &FlightEvent) -> Value {
    let mut obj = Map::new();
    obj.insert("cat".into(), Value::String(e.cat.clone()));
    obj.insert("cycle".into(), u64_value(e.cycle));
    obj.insert("label".into(), Value::String(e.label.clone()));
    obj.insert("seq".into(), u64_value(e.seq));
    obj.insert("value".into(), u64_value(e.value));
    Value::Object(obj)
}

fn histogram_to_value(h: &Histogram) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "buckets".into(),
        Value::Array(
            h.nonzero_buckets()
                .into_iter()
                .map(|(lo, c)| Value::Array(vec![u64_value(lo), u64_value(c)]))
                .collect(),
        ),
    );
    obj.insert("count".into(), u64_value(h.count()));
    obj.insert("max".into(), u64_value(h.max()));
    obj.insert("min".into(), u64_value(h.min()));
    obj.insert("sum".into(), u64_value(h.sum()));
    Value::Object(obj)
}

fn metrics_to_value(m: &MetricsSnapshot) -> Value {
    let mut counters = Map::new();
    for (name, &v) in &m.counters {
        counters.insert(name.clone(), u64_value(v));
    }
    let mut gauges = Map::new();
    for (name, &v) in &m.gauges {
        gauges.insert(name.clone(), u64_value(v));
    }
    let mut histograms = Map::new();
    for (name, h) in &m.histograms {
        histograms.insert(name.clone(), histogram_to_value(h));
    }
    let mut obj = Map::new();
    obj.insert("counters".into(), Value::Object(counters));
    obj.insert("gauges".into(), Value::Object(gauges));
    obj.insert("histograms".into(), Value::Object(histograms));
    Value::Object(obj)
}

fn event_from_value(v: &Value, path: &Path) -> Result<FlightEvent, ArtifactError> {
    let obj = as_obj(v, path)?;
    Ok(FlightEvent {
        seq: u64_field(obj, path, "seq")?,
        cat: str_field(obj, path, "cat")?.to_owned(),
        label: str_field(obj, path, "label")?.to_owned(),
        cycle: u64_field(obj, path, "cycle")?,
        value: u64_field(obj, path, "value")?,
    })
}

fn histogram_from_value(v: &Value, path: &Path) -> Result<Histogram, ArtifactError> {
    let obj = as_obj(v, path)?;
    let buckets_path = path.key("buckets");
    let buckets = array_field(obj, path, "buckets")?
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let pair_path = buckets_path.index(i);
            match pair.as_array().map(Vec::as_slice) {
                Some([le, count]) => Ok((
                    as_u64(le, &pair_path.index(0))?,
                    as_u64(count, &pair_path.index(1))?,
                )),
                _ => Err(pair_path.error("expected a pair")),
            }
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    Histogram::from_parts(
        u64_field(obj, path, "count")?,
        u64_field(obj, path, "sum")?,
        u64_field(obj, path, "min")?,
        u64_field(obj, path, "max")?,
        &buckets,
    )
    .ok_or_else(|| path.error("inconsistent histogram parts"))
}

fn metrics_from_value(v: &Value, path: &Path) -> Result<MetricsSnapshot, ArtifactError> {
    let obj = as_obj(v, path)?;
    let mut out = MetricsSnapshot::new();
    let members = |key| {
        let section = path.key(key);
        as_obj(field(obj, path, key)?, &section).map(|map| (map, section))
    };
    let (counters, counters_path) = members("counters")?;
    for (name, v) in counters {
        out.counters
            .insert(name.clone(), as_u64(v, &counters_path.key(name))?);
    }
    let (gauges, gauges_path) = members("gauges")?;
    for (name, v) in gauges {
        out.gauges
            .insert(name.clone(), as_u64(v, &gauges_path.key(name))?);
    }
    let (histograms, histograms_path) = members("histograms")?;
    for (name, v) in histograms {
        out.histograms.insert(
            name.clone(),
            histogram_from_value(v, &histograms_path.key(name))?,
        );
    }
    Ok(out)
}

impl PostmortemBundle {
    /// The canonical body value (alphabetical keys).
    fn body_value(&self) -> Value {
        let mut context = Map::new();
        for (k, v) in &self.context {
            context.insert(k.clone(), Value::String(v.clone()));
        }
        let mut obj = Map::new();
        obj.insert("context".into(), Value::Object(context));
        obj.insert(
            "events".into(),
            Value::Array(self.events.iter().map(event_to_value).collect()),
        );
        obj.insert("metrics".into(), metrics_to_value(&self.metrics));
        Value::Object(obj)
    }

    /// Encodes the postmortem as a complete artifact: header line +
    /// body line, each `\n`-terminated. Byte-deterministic.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut header = Map::new();
        header.insert("reason".into(), Value::String(self.reason.clone()));
        let body = serde_json::to_string(&self.body_value());
        let content_hash = sha256_hex(body.as_bytes());
        frame::encode(
            POSTMORTEM_MAGIC,
            POSTMORTEM_FORMAT_VERSION,
            header,
            &body,
            content_hash,
        )
    }
}

/// The schema-checked postmortem header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostmortemHeader {
    /// Format version (always [`POSTMORTEM_FORMAT_VERSION`] after a
    /// successful decode).
    pub format: u64,
    /// Producer tag (provenance only, never validated).
    pub producer: String,
    /// SHA-256 of the body line, re-verified on decode.
    pub content_hash: String,
    /// The failure reason recorded at dump time.
    pub reason: String,
}

/// A decoded, hash-verified postmortem artifact.
#[derive(Debug, Clone)]
pub struct PostmortemArtifact {
    /// The validated header.
    pub header: PostmortemHeader,
    /// The rebuilt postmortem bundle.
    pub bundle: PostmortemBundle,
}

/// Decodes and validates a postmortem artifact from raw bytes.
///
/// Validation runs outside-in like the plan decoder: UTF-8 → line
/// structure → header JSON → magic → format version → body
/// `content_hash` → body codec.
///
/// # Errors
///
/// Every malformed input maps to a typed [`ArtifactError`]; this
/// function never panics, regardless of input.
pub fn decode_postmortem(bytes: &[u8]) -> Result<PostmortemArtifact, ArtifactError> {
    let framed = frame::decode(
        bytes,
        "postmortem",
        POSTMORTEM_MAGIC,
        POSTMORTEM_FORMAT_VERSION,
    )?;
    let reason = framed.header_str("reason")?;
    let body = framed.body(&["context", "events", "metrics"])?;
    let path = Path::Root("body");
    let context_path = path.key("context");
    let context = as_obj(field(&body, &path, "context")?, &context_path)?
        .iter()
        .map(|(k, v)| Ok((k.clone(), as_str(v, &context_path.key(k))?.to_owned())))
        .collect::<Result<BTreeMap<_, _>, ArtifactError>>()?;
    let events_path = path.key("events");
    let events = array_field(&body, &path, "events")?
        .iter()
        .enumerate()
        .map(|(i, e)| event_from_value(e, &events_path.index(i)))
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    let metrics = metrics_from_value(field(&body, &path, "metrics")?, &path.key("metrics"))?;

    Ok(PostmortemArtifact {
        header: PostmortemHeader {
            format: POSTMORTEM_FORMAT_VERSION,
            producer: framed.producer,
            content_hash: framed.content_hash,
            reason: reason.clone(),
        },
        bundle: PostmortemBundle {
            reason,
            context,
            events,
            metrics,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle() -> PostmortemBundle {
        let mut metrics = MetricsSnapshot::new();
        metrics.counters.insert("sim.tasks".into(), 128);
        metrics.gauges.insert("sim.pe.peak_tasks".into(), 9);
        let mut h = Histogram::new();
        for v in [0u64, 3, 17, 4096, u64::MAX] {
            h.record(v);
        }
        metrics.histograms.insert("sim.transfer.latency".into(), h);
        let mut context = BTreeMap::new();
        context.insert("workload".into(), "motivational".into());
        context.insert("pes".into(), "4".into());
        PostmortemBundle {
            reason: "simulation failed: PE 2 fail-stop at cycle 17".into(),
            context,
            events: vec![
                FlightEvent {
                    seq: 0,
                    cat: "sched".into(),
                    label: "schedule.done".into(),
                    cycle: 0,
                    value: 12,
                },
                FlightEvent {
                    seq: 1,
                    cat: "fault".into(),
                    label: "pe.fail_stop".into(),
                    cycle: 17,
                    value: 2,
                },
            ],
            metrics,
        }
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let bundle = bundle();
        let bytes = bundle.encode();
        let artifact = decode_postmortem(&bytes).unwrap();
        assert_eq!(artifact.header.format, POSTMORTEM_FORMAT_VERSION);
        assert_eq!(artifact.header.reason, bundle.reason);
        assert_eq!(artifact.bundle, bundle);
        assert_eq!(artifact.bundle.encode(), bytes);
    }

    #[test]
    fn empty_bundle_round_trips() {
        let empty = PostmortemBundle {
            reason: "verifier rejected plan".into(),
            context: BTreeMap::new(),
            events: Vec::new(),
            metrics: MetricsSnapshot::new(),
        };
        let artifact = decode_postmortem(&empty.encode()).unwrap();
        assert_eq!(artifact.bundle, empty);
    }

    #[test]
    fn wrong_magic_is_schema_mismatch() {
        let text = String::from_utf8(bundle().encode()).unwrap();
        let text = text.replacen("paraconv-postmortem", "paraconv-postmartem", 1);
        let err = decode_postmortem(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }), "{err}");
    }

    #[test]
    fn plan_artifacts_are_rejected_by_magic() {
        // A plan artifact's header has a different magic; the
        // postmortem decoder must refuse it rather than misread it.
        let fake = "{\"content_hash\":\"x\",\"format\":1,\"key\":\"k\",\"magic\":\"paraconv-plan\",\"producer\":\"p\"}\n{}\n";
        let err = decode_postmortem(fake.as_bytes()).unwrap_err();
        assert!(matches!(err, ArtifactError::SchemaMismatch { .. }), "{err}");
    }

    #[test]
    fn flipped_body_byte_is_hash_mismatch() {
        let mut bytes = bundle().encode();
        let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let target = bytes[body_start..]
            .iter()
            .position(|&b| b.is_ascii_digit())
            .unwrap()
            + body_start;
        bytes[target] = if bytes[target] == b'0' { b'1' } else { b'0' };
        let err = decode_postmortem(&bytes).unwrap_err();
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
    fn future_version_is_version_skew() {
        let text = String::from_utf8(bundle().encode()).unwrap();
        let text = text.replacen("\"format\":1", "\"format\":7", 1);
        let err = decode_postmortem(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, ArtifactError::VersionSkew { found: 7, .. }),
            "{err}"
        );
    }

    #[test]
    fn truncations_are_typed() {
        let bytes = bundle().encode();
        assert!(matches!(
            decode_postmortem(&[]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
        assert!(matches!(
            decode_postmortem(&bytes[..bytes.len() - 1]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
    }
}
