//! The two-line framing every registry artifact shares (plan and
//! postmortem): a header object with a magic string, a format version,
//! a producer tag and the SHA-256 `content_hash` of the body line, then
//! the body line itself, each `\n`-terminated. Decoding checks the
//! framing outside-in, cheapest first, before any body codec runs.

use serde_json::{Map, Number, Value};

use crate::artifact::PRODUCER;
use crate::codec::{self, Path};
use crate::error::ArtifactError;
use crate::hash::sha256_hex;

/// Frames `body_line` under `header` (the caller's own members) plus
/// the shared `content_hash`, `format`, `magic` and `producer` members.
/// Byte-deterministic: header members serialize alphabetically.
pub(crate) fn encode(magic: &str, version: u64, mut header: Map, body_line: &str) -> Vec<u8> {
    header.insert(
        "content_hash".into(),
        Value::String(sha256_hex(body_line.as_bytes())),
    );
    header.insert("format".into(), Value::Number(Number::from_u64(version)));
    header.insert("magic".into(), Value::String(magic.to_owned()));
    header.insert("producer".into(), Value::String(PRODUCER.to_owned()));
    let header_line = serde_json::to_string(&Value::Object(header));
    let mut out = Vec::with_capacity(header_line.len() + body_line.len() + 2);
    out.extend_from_slice(header_line.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(body_line.as_bytes());
    out.push(b'\n');
    out
}

/// An artifact whose framing checked out: the header object, its
/// shared members, and the body line (without its newline).
pub(crate) struct Framed<'b> {
    header: Map,
    pub(crate) producer: String,
    pub(crate) content_hash: String,
    pub(crate) body_line: &'b str,
}

/// Checks the framing of `bytes` (a `what` artifact): UTF-8 → two
/// newline-terminated lines → header JSON → `magic` → format `version`
/// → body `content_hash`. The `producer` is provenance only and is
/// read, never validated.
pub(crate) fn decode<'b>(
    bytes: &'b [u8],
    what: &str,
    magic: &str,
    version: u64,
) -> Result<Framed<'b>, ArtifactError> {
    let text =
        core::str::from_utf8(bytes).map_err(|_| ArtifactError::schema(what, "not valid UTF-8"))?;
    if text.is_empty() {
        return Err(ArtifactError::Truncated {
            detail: "empty file",
        });
    }
    let Some((header_line, rest)) = text.split_once('\n') else {
        return Err(ArtifactError::Truncated {
            detail: "missing body line (no newline after header)",
        });
    };
    if rest.is_empty() {
        return Err(ArtifactError::Truncated {
            detail: "missing body line",
        });
    }
    let Some(body_line) = rest.strip_suffix('\n') else {
        return Err(ArtifactError::Truncated {
            detail: "body line not newline-terminated",
        });
    };
    if body_line.contains('\n') || body_line.is_empty() {
        return Err(ArtifactError::schema(
            what,
            "expected exactly two lines: header and body",
        ));
    }

    // Magic before anything else, so foreign files get the clearest
    // rejection.
    let header = parse_object(header_line, "header")?;
    let path = Path::Root("header");
    let found = codec::str_field(&header, &path, "magic")?;
    if found != magic {
        return Err(ArtifactError::schema(
            "header.magic",
            format!("expected `{magic}`, found `{found}`"),
        ));
    }
    let format = codec::u64_field(&header, &path, "format")?;
    if format != version {
        return Err(ArtifactError::VersionSkew {
            found: format,
            supported: version,
        });
    }
    let producer = codec::str_field(&header, &path, "producer")?.to_owned();
    let content_hash = codec::str_field(&header, &path, "content_hash")?.to_owned();

    // Body integrity before body parsing: a flipped byte anywhere in
    // the body line is a hash mismatch, not a confusing codec error.
    let computed = sha256_hex(body_line.as_bytes());
    if computed != content_hash {
        return Err(ArtifactError::HashMismatch {
            field: "content_hash",
            recorded: content_hash,
            computed,
        });
    }
    Ok(Framed {
        header,
        producer,
        content_hash,
        body_line,
    })
}

impl Framed<'_> {
    /// A string member of the header beyond the shared ones.
    pub(crate) fn header_str(&self, key: &str) -> Result<String, ArtifactError> {
        codec::str_field(&self.header, &Path::Root("header"), key).map(str::to_owned)
    }

    /// The body line as an object with exactly the members `fields`.
    pub(crate) fn body(&self, fields: &[&str]) -> Result<Map, ArtifactError> {
        let body = parse_object(self.body_line, "body")?;
        codec::check_keys(&body, &Path::Root("body"), fields)?;
        Ok(body)
    }
}

fn parse_object(line: &str, path: &str) -> Result<Map, ArtifactError> {
    match serde_json::from_str(line) {
        Ok(Value::Object(obj)) => Ok(obj),
        Ok(_) => Err(ArtifactError::schema(path, "expected an object")),
        Err(e) => Err(ArtifactError::schema(
            path,
            format!("invalid JSON at byte {}: {e}", e.offset()),
        )),
    }
}
