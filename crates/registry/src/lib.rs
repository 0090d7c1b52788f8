//! Versioned plan IR and content-addressed artifact registry.
//!
//! Para-CONV plans used to live only as in-memory structs; every
//! consumer re-derived them from scratch. This crate gives a plan a
//! stable, verifiable on-disk form:
//!
//! * **Artifact** — a two-line JSONL encoding of a [`PlanBundle`]
//!   (graph + architecture config + request policy + the periodic core
//!   of the scheduler's outcome: kernel, retiming, allocation, movement
//!   analysis) behind a schema-checked header carrying a magic string,
//!   format version ([`FORMAT_VERSION`], `"format":2`), producer tag,
//!   and two SHA-256 digests: the body's `content_hash` and the
//!   registry `key`. The unrolled plan is not stored: [`decode`]
//!   re-derives it through [`paraconv_sched::emit`], so artifacts are
//!   O(V + E) bytes at any iteration count.
//! * **Canonical bytes** — one writer appends each section straight to
//!   a string, object members in alphabetical order, so the same
//!   bundle always encodes to the same bytes. Content hashes are
//!   therefore stable across processes, platforms, and
//!   `PARACONV_JOBS` widths. The key preimage and the body share their
//!   `config` and `graph` prefix, which [`PlanBundle::encode`] writes
//!   and hashes once for both digests.
//! * **Registry** — a git-style sharded object store addressed by
//!   `sha256(graph, config, policy)` with atomic write-then-rename
//!   puts, so a plan request made twice is solved once.
//!
//! Imports are untrusted by design: [`decode`] maps every malformed
//! input to a typed [`ArtifactError`] (never a panic), and the CLI
//! runs `paraconv-verify` over every imported plan before anything is
//! simulated. The verifier walks the core's emission entry by entry
//! against the plan and requires them to match, so what it proves is
//! what executes.
//!
//! The same idiom carries the **postmortem artifact**
//! ([`PostmortemBundle`]/[`decode_postmortem`]): when a campaign dies,
//! the driver dumps the flight recorder's recent events plus the
//! metrics aggregate behind a content-hashed header, byte-identical at
//! every `PARACONV_JOBS` width.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod codec;
mod error;
mod frame;
mod hash;
mod postmortem;
mod store;

pub use artifact::{
    decode, request_key, verify_artifact_bytes, ArtifactHeader, PlanArtifact, PlanBundle,
    PlanPolicy, FORMAT_VERSION, MAGIC, PRODUCER,
};
pub use codec::{config_from_value, graph_from_value, outcome_from_value, policy_from_value};
pub use error::ArtifactError;
pub use hash::{sha256_hex, Sha256};
pub use postmortem::{
    decode_postmortem, PostmortemArtifact, PostmortemBundle, PostmortemHeader,
    POSTMORTEM_FORMAT_VERSION, POSTMORTEM_MAGIC,
};
pub use store::{is_valid_key, RecoveryReport, Registry};
