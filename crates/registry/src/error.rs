//! Typed failures of the artifact layer.
//!
//! Every way an artifact can be unusable — truncated bytes, a foreign
//! or future format, a body that does not match its recorded hash, a
//! shape the codec cannot rebuild — surfaces as a structured
//! [`ArtifactError`]. Hostile inputs never panic: the import gate
//! turns each of these into a non-zero CLI exit with a typed message.

use core::fmt;

use paraconv_sched::SchedError;

/// A plan artifact could not be read, decoded, or trusted.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The underlying file or directory operation failed.
    Io(std::io::Error),
    /// The byte stream ends before the artifact is complete (missing
    /// header or body line, or an empty file).
    Truncated {
        /// What was missing.
        detail: &'static str,
    },
    /// The bytes do not follow the artifact schema: not UTF-8, not
    /// JSON, a wrong magic string, a missing or mistyped field, or a
    /// body the codec cannot rebuild into domain types.
    SchemaMismatch {
        /// Dotted path of the offending element (e.g.
        /// `body.outcome.kernel.pe[3]`).
        path: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The artifact declares a format version this build does not
    /// speak.
    VersionSkew {
        /// The version recorded in the header.
        found: u64,
        /// The single version this build supports.
        supported: u64,
    },
    /// A recorded digest does not match the recomputed one — the body
    /// was altered after export, or the header lies.
    HashMismatch {
        /// Which digest diverged (`content_hash` or `key`).
        field: &'static str,
        /// The digest recorded in the header.
        recorded: String,
        /// The digest recomputed from the bytes.
        computed: String,
    },
    /// The body is well-formed, but its outcome emits no plan: a kernel
    /// or retiming built for another graph, a degenerate kernel, a time
    /// beyond `u64`, or a plan too large to allocate.
    Unemittable(SchedError),
}

impl ArtifactError {
    /// Shorthand for a [`SchemaMismatch`](ArtifactError::SchemaMismatch).
    pub(crate) fn schema(path: impl Into<String>, detail: impl Into<String>) -> Self {
        ArtifactError::SchemaMismatch {
            path: path.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::Truncated { detail } => {
                write!(f, "truncated artifact: {detail}")
            }
            ArtifactError::SchemaMismatch { path, detail } => {
                write!(f, "artifact schema mismatch at `{path}`: {detail}")
            }
            ArtifactError::VersionSkew { found, supported } => write!(
                f,
                "artifact format version skew: found v{found}, this build supports v{supported}"
            ),
            ArtifactError::HashMismatch {
                field,
                recorded,
                computed,
            } => write!(
                f,
                "artifact {field} mismatch: header records {recorded} but bytes hash to {computed}"
            ),
            ArtifactError::Unemittable(e) => write!(f, "artifact outcome emits no plan: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Unemittable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ArtifactError::VersionSkew {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("v9"));
        let e = ArtifactError::HashMismatch {
            field: "content_hash",
            recorded: "aa".into(),
            computed: "bb".into(),
        };
        assert!(e.to_string().contains("content_hash"));
        let e = ArtifactError::schema("body.outcome", "not an object");
        assert!(e.to_string().contains("body.outcome"));
        let e = ArtifactError::Unemittable(SchedError::PlanTooLarge { iterations: 7 });
        assert!(e.to_string().contains("emits no plan"));
    }
}
