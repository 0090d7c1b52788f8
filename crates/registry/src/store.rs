//! The on-disk content-addressed registry.
//!
//! Artifacts are filed under `objects/<first 2 hex>/<remaining 62
//! hex>` of their registry key (SHA-256 of the canonical request —
//! graph, config, policy), the same sharding scheme git uses so no
//! single directory grows unboundedly. Writes are atomic: bytes land
//! in a temporary file in the same directory and are `rename`d into
//! place, so a concurrent reader sees either the complete artifact or
//! nothing — never a torn write. Puts are idempotent by construction:
//! the key is a content hash, so re-putting the same request simply
//! re-lands identical bytes.
//!
//! Observability: `registry.hits`, `registry.misses`,
//! `registry.puts`, `registry.corrupt` and `registry.stale` counters
//! are recorded through `paraconv-obs` (a single relaxed atomic load
//! when the recorder is disabled). An object written in another format
//! version is *stale*, not corrupt: it is counted apart, but refused
//! and swept the same way, and its key simply re-plans on demand.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::artifact::verify_artifact_bytes;
use crate::error::ArtifactError;

/// A content-addressed artifact store rooted at a directory.
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
}

/// Returns `true` for a well-formed registry key: exactly 64 lowercase
/// hex characters.
#[must_use]
pub fn is_valid_key(key: &str) -> bool {
    key.len() == 64
        && key
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

impl Registry {
    /// Opens (creating if necessary) a registry rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] if the directory cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Registry, ArtifactError> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        Ok(Registry { root })
    }

    /// The registry's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The sharded object path for `key` (assumes a valid key).
    fn object_path(&self, key: &str) -> PathBuf {
        self.root.join("objects").join(&key[..2]).join(&key[2..])
    }

    fn check_key(key: &str) -> Result<(), ArtifactError> {
        if is_valid_key(key) {
            Ok(())
        } else {
            Err(ArtifactError::schema(
                "key",
                format!("expected 64 lowercase hex characters, got `{key}`"),
            ))
        }
    }

    /// Returns the stored artifact bytes for `key`, or `None` on a
    /// miss. Records `registry.hits` / `registry.misses`.
    ///
    /// Defense in depth: every read re-verifies the artifact's
    /// `content_hash` (structure + header + body digest, no codec), so
    /// bit rot under the registry root is a typed error — a corrupt
    /// object is **never** served as a hit. Corrupt reads record
    /// `registry.corrupt` (or `registry.stale` for an object in another
    /// format version) instead of `registry.hits`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::SchemaMismatch`] for a malformed key,
    /// [`ArtifactError::HashMismatch`] (or another decode-stage error)
    /// for an object whose bytes fail verification, and
    /// [`ArtifactError::Io`] for any filesystem failure other than
    /// not-found.
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>, ArtifactError> {
        Self::check_key(key)?;
        match fs::read(self.object_path(key)) {
            Ok(bytes) => {
                if let Err(e) = verify_artifact_bytes(&bytes) {
                    count_refused(&e);
                    return Err(e);
                }
                paraconv_obs::counter_add("registry.hits", 1);
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                paraconv_obs::counter_add("registry.misses", 1);
                Ok(None)
            }
            Err(e) => Err(ArtifactError::Io(e)),
        }
    }

    /// Returns `true` if `key` is present, without touching the
    /// hit/miss counters.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::SchemaMismatch`] for a malformed key.
    pub fn contains(&self, key: &str) -> Result<bool, ArtifactError> {
        Self::check_key(key)?;
        Ok(self.object_path(key).is_file())
    }

    /// Stores `bytes` under `key` atomically (write to a temporary
    /// sibling, then rename). Idempotent: re-putting a key replaces
    /// the object with identical bytes. Records `registry.puts`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::SchemaMismatch`] for a malformed key
    /// and [`ArtifactError::Io`] for filesystem failures.
    pub fn put(&self, key: &str, bytes: &[u8]) -> Result<(), ArtifactError> {
        Self::check_key(key)?;
        let path = self.object_path(key);
        // lint: allow(no-unwrap) — object_path always has a parent shard dir.
        let shard = path.parent().unwrap();
        fs::create_dir_all(shard)?;
        // The temp name embeds the pid *and* a process-global counter:
        // pid alone left two same-process threads putting the same key
        // sharing one temp path, where the second `File::create`
        // truncates the first writer's file mid-write and the rename
        // publishes a torn artifact (the `registry-put-shared-tmp`
        // model harness in paraconv-analyze reproduces exactly this).
        // With unique temp files the final rename is atomic and both
        // writers land identical bytes.
        static PUT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = PUT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = shard.join(format!(".tmp-{}-{seq}-{}", std::process::id(), &key[2..10]));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result?;
        paraconv_obs::counter_add("registry.puts", 1);
        Ok(())
    }

    /// All keys currently stored, sorted (deterministic listing for
    /// tooling and tests).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] if the objects tree cannot be
    /// read.
    pub fn keys(&self) -> Result<Vec<String>, ArtifactError> {
        let mut out = Vec::new();
        let objects = self.root.join("objects");
        for shard in fs::read_dir(&objects)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            let prefix = shard.file_name();
            let Some(prefix) = prefix.to_str() else {
                continue;
            };
            for object in fs::read_dir(shard.path())? {
                let object = object?;
                let name = object.file_name();
                let Some(name) = name.to_str() else {
                    continue;
                };
                let key = format!("{prefix}{name}");
                if is_valid_key(&key) {
                    out.push(key);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Crash recovery: sweeps the objects tree, deleting stranded
    /// `.tmp-*` files from interrupted puts and quarantining (removing)
    /// objects whose bytes no longer verify — corrupt ones and stale
    /// ones from another format version, counted apart — and returns
    /// the keys that survived. Run once at daemon startup so a restarted server
    /// re-warms its cache from exactly the set of intact artifacts —
    /// a kill mid-put can never poison a later read.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] if the objects tree cannot be
    /// walked (individual unreadable objects are dropped, not fatal).
    pub fn recover(&self) -> Result<RecoveryReport, ArtifactError> {
        let mut report = RecoveryReport::default();
        let objects = self.root.join("objects");
        for shard in fs::read_dir(&objects)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            let prefix = shard.file_name();
            let Some(prefix) = prefix.to_str().map(str::to_owned) else {
                continue;
            };
            for object in fs::read_dir(shard.path())? {
                let object = object?;
                let name = object.file_name();
                let Some(name) = name.to_str().map(str::to_owned) else {
                    continue;
                };
                if name.starts_with(".tmp-") {
                    let _ = fs::remove_file(object.path());
                    report.tmp_removed += 1;
                    continue;
                }
                let key = format!("{prefix}{name}");
                if !is_valid_key(&key) {
                    continue;
                }
                let verified = fs::read(object.path())
                    .map_err(ArtifactError::Io)
                    .and_then(|bytes| verify_artifact_bytes(&bytes));
                match verified {
                    Ok(()) => report.intact.push(key),
                    Err(e) => {
                        let _ = fs::remove_file(object.path());
                        if count_refused(&e) {
                            report.stale_removed += 1;
                        } else {
                            report.corrupt_removed += 1;
                        }
                    }
                }
            }
        }
        report.intact.sort();
        Ok(report)
    }
}

/// Counts an object [`verify_artifact_bytes`] refused: `registry.stale`
/// for another format version, `registry.corrupt` otherwise. Returns
/// whether it was stale.
fn count_refused(error: &ArtifactError) -> bool {
    let stale = matches!(error, ArtifactError::VersionSkew { .. });
    let counter = if stale {
        "registry.stale"
    } else {
        "registry.corrupt"
    };
    paraconv_obs::counter_add(counter, 1);
    stale
}

/// What [`Registry::recover`] found and fixed on startup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Keys whose objects verified intact (sorted).
    pub intact: Vec<String>,
    /// Stranded `.tmp-*` files removed.
    pub tmp_removed: u64,
    /// Objects dropped because their bytes no longer verify.
    pub corrupt_removed: u64,
    /// Intact objects dropped because they were written in another
    /// format version; their keys re-plan on demand.
    pub stale_removed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256_hex;
    use crate::FORMAT_VERSION;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "paraconv-registry-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        root
    }

    /// Minimal bytes that pass `verify_artifact_bytes`: a well-formed
    /// header over an arbitrary single-line body. `get()` verifies on
    /// every read, so store tests must put verifiable objects.
    fn mini_artifact(body: &str) -> Vec<u8> {
        versioned_artifact(FORMAT_VERSION, body)
    }

    fn versioned_artifact(format: u64, body: &str) -> Vec<u8> {
        assert!(!body.is_empty() && !body.contains('\n'));
        let hash = sha256_hex(body.as_bytes());
        format!(
            "{{\"content_hash\":\"{hash}\",\"format\":{format},\"key\":\"{hash}\",\
             \"magic\":\"paraconv-plan\",\"producer\":\"store-test\"}}\n{body}\n"
        )
        .into_bytes()
    }

    #[test]
    fn put_get_round_trip_and_sharding() {
        let root = temp_root("roundtrip");
        let registry = Registry::open(&root).unwrap();
        let key = sha256_hex(b"some request");
        let artifact = mini_artifact("{\"payload\":\"artifact bytes\"}");
        assert_eq!(registry.get(&key).unwrap(), None);
        registry.put(&key, &artifact).unwrap();
        assert_eq!(registry.get(&key).unwrap().as_deref(), Some(&artifact[..]));
        assert!(registry.contains(&key).unwrap());
        // Sharded layout: objects/<2 hex>/<62 hex>.
        assert!(root
            .join("objects")
            .join(&key[..2])
            .join(&key[2..])
            .is_file());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn put_is_idempotent() {
        let root = temp_root("idempotent");
        let registry = Registry::open(&root).unwrap();
        let key = sha256_hex(b"idempotent");
        let artifact = mini_artifact("{\"payload\":\"same bytes\"}");
        registry.put(&key, &artifact).unwrap();
        registry.put(&key, &artifact).unwrap();
        assert_eq!(registry.get(&key).unwrap().as_deref(), Some(&artifact[..]));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_byte_on_disk_is_hash_mismatch_not_a_hit() {
        // Defense-in-depth regression: bit rot under the registry root
        // must surface as a typed error on read, never be served.
        let root = temp_root("bitrot");
        let registry = Registry::open(&root).unwrap();
        let key = sha256_hex(b"bitrot");
        registry
            .put(&key, &mini_artifact("{\"payload\":\"pristine\"}"))
            .unwrap();
        let path = root.join("objects").join(&key[..2]).join(&key[2..]);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one body byte without touching the header line.
        let body_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[body_start + 12] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = registry.get(&key).unwrap_err();
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
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recover_sweeps_tmp_files_and_corrupt_objects() {
        let root = temp_root("recover");
        let registry = Registry::open(&root).unwrap();
        let good = sha256_hex(b"good");
        let bad = sha256_hex(b"bad");
        registry
            .put(&good, &mini_artifact("{\"payload\":\"good\"}"))
            .unwrap();
        registry
            .put(&bad, &mini_artifact("{\"payload\":\"bad\"}"))
            .unwrap();
        // Simulate a crash: a stranded temp file and a truncated object.
        let bad_path = root.join("objects").join(&bad[..2]).join(&bad[2..]);
        fs::write(&bad_path, b"{\"truncated\":").unwrap();
        let shard = root.join("objects").join(&good[..2]);
        fs::write(shard.join(".tmp-999-0-deadbeef"), b"partial").unwrap();
        let report = registry.recover().unwrap();
        assert_eq!(report.intact, vec![good.clone()]);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.corrupt_removed, 1);
        // The corrupt object is gone; the intact one still reads.
        assert_eq!(registry.get(&bad).unwrap(), None);
        assert!(registry.get(&good).unwrap().is_some());
        assert!(!shard.join(".tmp-999-0-deadbeef").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recover_counts_stale_formats_apart_from_corruption() {
        let root = temp_root("stale");
        let registry = Registry::open(&root).unwrap();
        let (old, flipped) = (sha256_hex(b"v1"), sha256_hex(b"flipped"));
        registry
            .put(&old, &versioned_artifact(1, "{\"payload\":\"v1\"}"))
            .unwrap();
        let mut bytes = mini_artifact("{\"payload\":\"v2\"}");
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        registry.put(&flipped, &bytes).unwrap();
        let report = registry.recover().unwrap();
        assert!(report.intact.is_empty());
        assert_eq!((report.stale_removed, report.corrupt_removed), (1, 1));
        assert!(!registry.contains(&old).unwrap());
        assert!(!registry.contains(&flipped).unwrap());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_keys_are_rejected() {
        let root = temp_root("badkey");
        let registry = Registry::open(&root).unwrap();
        for bad in [
            "",
            "short",
            "ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789", // uppercase
            "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", // non-hex
            "../../../../etc/passwd",
        ] {
            assert!(registry.get(bad).is_err(), "key `{bad}` accepted");
            assert!(registry.put(bad, b"x").is_err(), "key `{bad}` accepted");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn keys_lists_sorted() {
        let root = temp_root("listing");
        let registry = Registry::open(&root).unwrap();
        let mut expected: Vec<String> = (0u8..5).map(|i| sha256_hex(&[i])).collect();
        for key in &expected {
            registry
                .put(key, &mini_artifact(&format!("{{\"key\":\"{key}\"}}")))
                .unwrap();
        }
        expected.sort();
        assert_eq!(registry.keys().unwrap(), expected);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn same_process_same_key_writers_never_tear() {
        // Regression for the shared-temp-path race: two threads in one
        // process putting the same key used to share `.tmp-<pid>-…`,
        // so the loser's `create` truncated the winner mid-write.
        let root = temp_root("sameput");
        let body = format!("{{\"payload\":\"{}\"}}", "ab".repeat(1 << 15));
        let payload = mini_artifact(&body);
        let key = sha256_hex(&payload);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let registry = Registry::open(&root).unwrap();
                let key = key.clone();
                let payload = payload.clone();
                std::thread::spawn(move || registry.put(&key, &payload).unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let registry = Registry::open(&root).unwrap();
        assert_eq!(registry.get(&key).unwrap(), Some(payload));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn no_tmp_files_survive_a_put() {
        let root = temp_root("tmpclean");
        let registry = Registry::open(&root).unwrap();
        let key = sha256_hex(b"clean");
        registry
            .put(&key, &mini_artifact("{\"payload\":\"clean\"}"))
            .unwrap();
        let shard = root.join("objects").join(&key[..2]);
        let leftovers: Vec<_> = fs::read_dir(&shard)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&root);
    }
}
