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
/// `content_hash` is the SHA-256 hex of `body_line`, which the caller
/// computes (a plan artifact shares that pass with its registry key).
/// Byte-deterministic: header members serialize alphabetically.
pub(crate) fn encode(
    magic: &str,
    version: u64,
    mut header: Map,
    body_line: &str,
    content_hash: String,
) -> Vec<u8> {
    header.insert("content_hash".into(), Value::String(content_hash));
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

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &str = "paraconv-test";

    fn framed(body_line: &str) -> Vec<u8> {
        let mut header = Map::new();
        header.insert("kind".into(), Value::String("unit".into()));
        encode(
            MAGIC,
            3,
            header,
            body_line,
            sha256_hex(body_line.as_bytes()),
        )
    }

    fn decode_err(bytes: &[u8]) -> ArtifactError {
        match decode(bytes, "test artifact", MAGIC, 3) {
            Ok(_) => panic!("decoded {:?}", String::from_utf8_lossy(bytes)),
            Err(e) => e,
        }
    }

    #[test]
    fn encode_then_decode_round_trips_every_member() {
        let bytes = framed(r#"{"a":1,"b":"x"}"#);
        let f = decode(&bytes, "test artifact", MAGIC, 3).unwrap();
        assert_eq!(f.producer, PRODUCER);
        assert_eq!(f.content_hash, sha256_hex(br#"{"a":1,"b":"x"}"#));
        assert_eq!(f.body_line, r#"{"a":1,"b":"x"}"#);
        assert_eq!(f.header_str("kind").unwrap(), "unit");
        let body = f.body(&["a", "b"]).unwrap();
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn encoding_is_two_lines_with_alphabetical_header_members() {
        let bytes = framed("{}");
        let text = String::from_utf8(bytes.clone()).unwrap();
        let lines: Vec<&str> = text.split_terminator('\n').collect();
        assert_eq!(lines.len(), 2);
        assert!(text.ends_with("{}\n"));
        let keys = ["content_hash", "format", "kind", "magic", "producer"];
        let at: Vec<usize> = keys.iter().map(|k| lines[0].find(k).unwrap()).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{}", lines[0]);
        assert_eq!(framed("{}"), bytes, "byte-deterministic");
    }

    #[test]
    fn short_inputs_are_typed_truncations() {
        let whole = framed("{}");
        let header_end = whole.iter().position(|&b| b == b'\n').unwrap();
        for (bytes, detail) in [
            (&b""[..], "empty file"),
            (
                &whole[..header_end],
                "missing body line (no newline after header)",
            ),
            (&whole[..=header_end], "missing body line"),
            (
                &whole[..whole.len() - 1],
                "body line not newline-terminated",
            ),
        ] {
            match decode_err(bytes) {
                ArtifactError::Truncated { detail: d } => assert_eq!(d, detail),
                e => panic!("expected truncation `{detail}`, got {e}"),
            }
        }
    }

    #[test]
    fn a_third_line_or_bad_utf8_is_a_schema_mismatch() {
        let mut three = framed("{}");
        three.extend_from_slice(b"{}\n");
        assert!(matches!(
            decode_err(&three),
            ArtifactError::SchemaMismatch { ref detail, .. } if detail.contains("exactly two lines")
        ));
        assert!(matches!(
            decode_err(b"\xff\xfe\n{}\n"),
            ArtifactError::SchemaMismatch { ref detail, .. } if detail == "not valid UTF-8"
        ));
    }

    #[test]
    fn header_must_be_a_json_object() {
        match decode_err(b"[1,2]\n{}\n") {
            ArtifactError::SchemaMismatch { path, detail } => {
                assert_eq!(path, "header");
                assert_eq!(detail, "expected an object");
            }
            e => panic!("{e}"),
        }
        match decode_err(b"{\"magic\":\n{}\n") {
            ArtifactError::SchemaMismatch { path, detail } => {
                assert_eq!(path, "header");
                assert!(detail.starts_with("invalid JSON at byte"), "{detail}");
            }
            e => panic!("{e}"),
        }
    }

    #[test]
    fn a_foreign_magic_is_rejected_before_the_version() {
        let bytes = encode("someone-else", 99, Map::new(), "{}", sha256_hex(b"{}"));
        match decode_err(&bytes) {
            ArtifactError::SchemaMismatch { path, detail } => {
                assert_eq!(path, "header.magic");
                assert!(detail.contains("someone-else"), "{detail}");
            }
            e => panic!("{e}"),
        }
    }

    #[test]
    fn another_format_version_is_a_version_skew() {
        let bytes = encode(MAGIC, 2, Map::new(), "{}", sha256_hex(b"{}"));
        assert!(matches!(
            decode_err(&bytes),
            ArtifactError::VersionSkew {
                found: 2,
                supported: 3
            }
        ));
    }

    #[test]
    fn an_edited_body_is_a_hash_mismatch_not_a_codec_error() {
        let bytes = framed(r#"{"a":1}"#);
        let text = String::from_utf8(bytes)
            .unwrap()
            .replace(r#""a":1"#, r#""a":2"#);
        match decode_err(text.as_bytes()) {
            ArtifactError::HashMismatch {
                field,
                recorded,
                computed,
            } => {
                assert_eq!(field, "content_hash");
                assert_eq!(recorded, sha256_hex(br#"{"a":1}"#));
                assert_eq!(computed, sha256_hex(br#"{"a":2}"#));
            }
            e => panic!("{e}"),
        }
    }

    #[test]
    fn body_requires_exactly_the_named_members() {
        let bytes = framed(r#"{"a":1,"z":2}"#);
        let f = decode(&bytes, "test artifact", MAGIC, 3).unwrap();
        let unknown = f.body(&["a"]).unwrap_err().to_string();
        assert!(
            unknown.contains("body.z") && unknown.contains("unknown field"),
            "{unknown}"
        );
        let missing = f.body(&["a", "b", "z"]).unwrap_err().to_string();
        assert!(
            missing.contains("body.b") && missing.contains("missing field"),
            "{missing}"
        );
        assert!(f.header_str("absent").is_err());
    }
}
