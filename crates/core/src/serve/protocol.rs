//! The line/JSONL serving protocol.
//!
//! One JSON object per line in each direction. Requests:
//!
//! ```text
//! {"op":"plan","id":"r1","tenant":"acme","benchmark":"cat","pes":16,"iterations":8}
//! {"op":"ping","id":"r2"}
//! {"op":"stats","id":"r3"}
//! {"op":"drain","id":"r4"}
//! ```
//!
//! Optional `plan` fields: `policy` (`dp` | `greedy` | `all-edram`,
//! default `dp`) and `deadline_ms` (planning budget; `0` means
//! already-expired, useful for deterministic deadline tests).
//!
//! Responses always echo `id` and carry a `status`; a successful plan
//! carries the registry `key` (the artifact is content-addressed, the
//! client fetches bytes by key) and whether it was served from cache:
//!
//! ```text
//! {"cached":true,"id":"r1","key":"3b7e…","status":"ok"}
//! {"id":"r5","status":"overloaded","detail":"queue full"}
//! ```
//!
//! Every parse failure is a typed [`ProtocolError`]; hostile lines can
//! never panic the daemon.

use serde_json::{Map, Number, Value};

use paraconv_sched::AllocationPolicy;

/// A malformed protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What was wrong, suitable for an `invalid` response detail.
    pub detail: String,
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "protocol error: {}", self.detail)
    }
}

impl std::error::Error for ProtocolError {}

fn err(detail: impl Into<String>) -> ProtocolError {
    ProtocolError {
        detail: detail.into(),
    }
}

/// A plan request, as parsed off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// Tenant the request is accounted against.
    pub tenant: String,
    /// Named synthetic benchmark to plan (see `paraconv list`).
    pub benchmark: String,
    /// PE count of the target architecture.
    pub pes: usize,
    /// Iterations the plan covers.
    pub iterations: u64,
    /// Allocation policy.
    pub policy: AllocationPolicy,
    /// Planning budget in milliseconds; `None` means no deadline,
    /// `Some(0)` is treated as already expired.
    pub deadline_ms: Option<u64>,
}

/// One parsed client line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Plan (or fetch from cache) a request.
    Plan(PlanRequest),
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: String,
    },
    /// Serving counters snapshot.
    Stats {
        /// Correlation id.
        id: String,
    },
    /// Graceful drain: stop accepting, finish in-flight, then report.
    Drain {
        /// Correlation id.
        id: String,
    },
}

/// Response statuses — the wire-level exit-code contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStatus {
    /// Planned or served from cache; `key` addresses the artifact.
    Ok,
    /// Shed by admission control: the queue was full.
    Overloaded,
    /// The request itself was malformed or named unknown inputs.
    Invalid,
    /// The per-request deadline expired before the plan completed.
    Deadline,
    /// The tenant exceeded its in-flight quota.
    Quota,
    /// The tenant's circuit breaker is open (repeated poisoned
    /// requests); retry after the cooldown.
    CircuitOpen,
    /// The daemon is draining and no longer accepts work.
    Draining,
    /// An internal error; the request was not served.
    Error,
    /// Reply to `ping`.
    Pong,
    /// Reply to `stats`/`drain`; `detail` carries the payload.
    Report,
}

impl ServeStatus {
    /// The wire token for the status.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ServeStatus::Ok => "ok",
            ServeStatus::Overloaded => "overloaded",
            ServeStatus::Invalid => "invalid",
            ServeStatus::Deadline => "deadline",
            ServeStatus::Quota => "quota",
            ServeStatus::CircuitOpen => "circuit_open",
            ServeStatus::Draining => "draining",
            ServeStatus::Error => "error",
            ServeStatus::Pong => "pong",
            ServeStatus::Report => "report",
        }
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// Echo of the request id.
    pub id: String,
    /// Outcome.
    pub status: ServeStatus,
    /// Registry key of the served artifact (`ok` only).
    pub key: Option<String>,
    /// Whether the artifact came from the cache (`ok` only).
    pub cached: Option<bool>,
    /// Human-oriented detail (errors) or report payload.
    pub detail: Option<String>,
}

impl ServeResponse {
    /// A minimal response with just a status.
    #[must_use]
    pub fn status(id: impl Into<String>, status: ServeStatus) -> ServeResponse {
        ServeResponse {
            id: id.into(),
            status,
            key: None,
            cached: None,
            detail: None,
        }
    }

    /// A response with a detail string.
    #[must_use]
    pub fn with_detail(
        id: impl Into<String>,
        status: ServeStatus,
        detail: impl Into<String>,
    ) -> ServeResponse {
        ServeResponse {
            id: id.into(),
            status,
            key: None,
            cached: None,
            detail: Some(detail.into()),
        }
    }

    /// A successful plan response.
    #[must_use]
    pub fn ok(id: impl Into<String>, key: impl Into<String>, cached: bool) -> ServeResponse {
        ServeResponse {
            id: id.into(),
            status: ServeStatus::Ok,
            key: Some(key.into()),
            cached: Some(cached),
            detail: None,
        }
    }

    /// The canonical single-line JSON encoding (alphabetical keys, no
    /// trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = Map::new();
        if let Some(cached) = self.cached {
            obj.insert("cached".into(), Value::Bool(cached));
        }
        if let Some(detail) = &self.detail {
            obj.insert("detail".into(), Value::String(detail.clone()));
        }
        obj.insert("id".into(), Value::String(self.id.clone()));
        if let Some(key) = &self.key {
            obj.insert("key".into(), Value::String(key.clone()));
        }
        obj.insert(
            "status".into(),
            Value::String(self.status.as_str().to_owned()),
        );
        serde_json::to_string(&Value::Object(obj))
    }

    /// Parses a response line (the client side of the protocol).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] for anything but a well-formed response.
    pub fn parse(line: &str) -> Result<ServeResponse, ProtocolError> {
        let value = serde_json::from_str(line.trim())
            .map_err(|e| err(format!("invalid JSON at byte {}: {e}", e.offset())))?;
        let obj = value.as_object().ok_or_else(|| err("expected an object"))?;
        let id = str_field(obj, "id")?;
        let status = match str_field(obj, "status")?.as_str() {
            "ok" => ServeStatus::Ok,
            "overloaded" => ServeStatus::Overloaded,
            "invalid" => ServeStatus::Invalid,
            "deadline" => ServeStatus::Deadline,
            "quota" => ServeStatus::Quota,
            "circuit_open" => ServeStatus::CircuitOpen,
            "draining" => ServeStatus::Draining,
            "error" => ServeStatus::Error,
            "pong" => ServeStatus::Pong,
            "report" => ServeStatus::Report,
            other => return Err(err(format!("unknown status `{other}`"))),
        };
        Ok(ServeResponse {
            id,
            status,
            key: obj.get("key").and_then(Value::as_str).map(str::to_owned),
            cached: obj.get("cached").and_then(Value::as_bool),
            detail: obj.get("detail").and_then(Value::as_str).map(str::to_owned),
        })
    }
}

fn str_field(obj: &Map, field: &str) -> Result<String, ProtocolError> {
    obj.get(field)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| err(format!("missing or non-string `{field}`")))
}

fn u64_field(obj: &Map, field: &str) -> Result<u64, ProtocolError> {
    obj.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| err(format!("missing or non-integer `{field}`")))
}

/// Parses one client line into a [`ClientOp`].
///
/// # Errors
///
/// [`ProtocolError`] describing the first problem found; the daemon
/// maps it to an `invalid` response (with the request's `id` when one
/// could be extracted).
pub fn parse_client_line(line: &str) -> Result<ClientOp, ProtocolError> {
    let value = serde_json::from_str(line.trim())
        .map_err(|e| err(format!("invalid JSON at byte {}: {e}", e.offset())))?;
    let obj = value.as_object().ok_or_else(|| err("expected an object"))?;
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .unwrap_or("plan")
        .to_owned();
    let id = str_field(obj, "id")?;
    match op.as_str() {
        "ping" => Ok(ClientOp::Ping { id }),
        "stats" => Ok(ClientOp::Stats { id }),
        "drain" => Ok(ClientOp::Drain { id }),
        "plan" => {
            let policy = match obj.get("policy").and_then(Value::as_str).unwrap_or("dp") {
                "dp" => AllocationPolicy::DynamicProgram,
                "greedy" => AllocationPolicy::GreedyByDensity,
                "all-edram" => AllocationPolicy::AllEdram,
                other => return Err(err(format!("unknown policy `{other}`"))),
            };
            let pes =
                usize::try_from(u64_field(obj, "pes")?).map_err(|_| err("`pes` out of range"))?;
            Ok(ClientOp::Plan(PlanRequest {
                id,
                tenant: str_field(obj, "tenant")?,
                benchmark: str_field(obj, "benchmark")?,
                pes,
                iterations: u64_field(obj, "iterations")?,
                policy,
                deadline_ms: obj.get("deadline_ms").and_then(Value::as_u64),
            }))
        }
        other => Err(err(format!("unknown op `{other}`"))),
    }
}

/// Extracts a request id from a line even when full parsing fails, so
/// `invalid` responses can still be correlated.
#[must_use]
pub fn extract_id(line: &str) -> String {
    serde_json::from_str(line.trim())
        .ok()
        .as_ref()
        .and_then(Value::as_object)
        .and_then(|obj| obj.get("id"))
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_owned()
}

/// The canonical request line for a [`PlanRequest`] (used by the load
/// generator and the scripted CI client).
#[must_use]
pub fn plan_line(request: &PlanRequest) -> String {
    let mut obj = Map::new();
    obj.insert("benchmark".into(), Value::String(request.benchmark.clone()));
    if let Some(ms) = request.deadline_ms {
        obj.insert("deadline_ms".into(), Value::Number(Number::from_u64(ms)));
    }
    obj.insert("id".into(), Value::String(request.id.clone()));
    obj.insert(
        "iterations".into(),
        Value::Number(Number::from_u64(request.iterations)),
    );
    obj.insert("op".into(), Value::String("plan".into()));
    obj.insert(
        "pes".into(),
        Value::Number(Number::from_u64(request.pes as u64)),
    );
    let policy = match request.policy {
        AllocationPolicy::DynamicProgram => "dp",
        AllocationPolicy::GreedyByDensity => "greedy",
        AllocationPolicy::AllEdram => "all-edram",
    };
    obj.insert("policy".into(), Value::String(policy.into()));
    obj.insert("tenant".into(), Value::String(request.tenant.clone()));
    serde_json::to_string(&Value::Object(obj))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_line_round_trips() {
        let request = PlanRequest {
            id: "r1".into(),
            tenant: "acme".into(),
            benchmark: "cat".into(),
            pes: 16,
            iterations: 8,
            policy: AllocationPolicy::DynamicProgram,
            deadline_ms: Some(250),
        };
        let line = plan_line(&request);
        assert_eq!(parse_client_line(&line).unwrap(), ClientOp::Plan(request));
    }

    #[test]
    fn ops_parse() {
        for (line, expected) in [
            (
                "{\"op\":\"ping\",\"id\":\"a\"}",
                ClientOp::Ping { id: "a".into() },
            ),
            (
                "{\"op\":\"stats\",\"id\":\"b\"}",
                ClientOp::Stats { id: "b".into() },
            ),
            (
                "{\"op\":\"drain\",\"id\":\"c\"}",
                ClientOp::Drain { id: "c".into() },
            ),
        ] {
            assert_eq!(parse_client_line(line).unwrap(), expected);
        }
    }

    #[test]
    fn hostile_lines_are_typed_errors() {
        for line in [
            "",
            "not json",
            "[1,2,3]",
            "{\"op\":\"plan\"}",
            "{\"op\":\"explode\",\"id\":\"x\"}",
            "{\"op\":\"plan\",\"id\":\"x\",\"tenant\":\"t\",\"benchmark\":\"cat\",\"pes\":-4,\"iterations\":1}",
            "{\"op\":\"plan\",\"id\":\"x\",\"tenant\":\"t\",\"benchmark\":\"cat\",\"pes\":4,\"iterations\":1,\"policy\":\"magic\"}",
        ] {
            assert!(parse_client_line(line).is_err(), "accepted `{line}`");
        }
    }

    #[test]
    fn mutated_lines_never_panic() {
        // Every char of a valid line of each op, replaced in turn by
        // each of these, still parses to an op or to a described
        // error, and never panics either parser.
        const SUBSTITUTES: [char; 15] = [
            '"', '\\', '{', '}', '[', ':', ',', '0', '9', '-', 'e', ' ', '\u{0}', 'é', '\u{2028}',
        ];
        let plan = plan_line(&PlanRequest {
            id: "r1".into(),
            tenant: "acme".into(),
            benchmark: "cat".into(),
            pes: 16,
            iterations: 8,
            policy: AllocationPolicy::GreedyByDensity,
            deadline_ms: Some(250),
        });
        let valid = [
            plan.as_str(),
            "{\"id\":\"b\",\"op\":\"stats\"}",
            "{\"id\":\"c\",\"op\":\"drain\"}",
            "{\"id\":\"a\",\"op\":\"ping\"}",
        ];
        for line in valid {
            assert!(parse_client_line(line).is_ok(), "`{line}` must parse");
            for (at, original) in line.char_indices() {
                for substitute in SUBSTITUTES {
                    let mut mutated = String::with_capacity(line.len() + 4);
                    mutated.push_str(&line[..at]);
                    mutated.push(substitute);
                    mutated.push_str(&line[at + original.len_utf8()..]);
                    let parsed = std::panic::catch_unwind(|| parse_client_line(&mutated));
                    let parsed = parsed.unwrap_or_else(|_| panic!("parse panicked on `{mutated}`"));
                    if let Err(e) = parsed {
                        assert!(!e.detail.is_empty(), "empty error for `{mutated}`");
                    }
                    assert!(
                        std::panic::catch_unwind(|| extract_id(&mutated)).is_ok(),
                        "extract_id panicked on `{mutated}`"
                    );
                }
            }
        }
    }

    #[test]
    fn extract_id_survives_partial_garbage() {
        assert_eq!(extract_id("{\"id\":\"r9\",\"op\":\"explode\"}"), "r9");
        assert_eq!(extract_id("not json"), "");
    }

    #[test]
    fn response_round_trips() {
        let ok = ServeResponse::ok("r1", "ab".repeat(32), true);
        assert_eq!(ServeResponse::parse(&ok.to_json()).unwrap(), ok);
        let shed = ServeResponse::with_detail("r2", ServeStatus::Overloaded, "queue full");
        assert_eq!(ServeResponse::parse(&shed.to_json()).unwrap(), shed);
        // Alphabetical keys: canonical across processes.
        assert_eq!(
            shed.to_json(),
            "{\"detail\":\"queue full\",\"id\":\"r2\",\"status\":\"overloaded\"}"
        );
    }
}
