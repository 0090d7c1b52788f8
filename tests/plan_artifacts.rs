//! End-to-end contract of the versioned plan IR and registry.
//!
//! Three layers:
//!
//! 1. **Round trip** — every benchmark and model-zoo plan survives
//!    encode → decode → verify → re-encode *byte-identically*, with a
//!    request key that depends only on (graph, config, policy);
//! 2. **Hostile imports** — truncated files, flipped header bytes,
//!    stale versions and hash-mismatched bodies all map to typed
//!    [`ArtifactError`]s, never a panic, and a tampered-but-hash-valid
//!    bundle is still rejected by the verifier gate;
//! 3. **Registry** — the sharded store returns exactly the bytes it
//!    was given and rejects path-shaped keys;
//! 4. **Concurrency** — a same-key put storm and a put-while-get loop
//!    never expose a torn artifact (the protocol the
//!    `registry-put-same-key` model harness in `paraconv-analyze`
//!    proves schedule-exhaustively, re-checked here against the real
//!    filesystem), with exact `registry.hits`/`misses`/`puts`
//!    counters.

use proptest::prelude::*;

use paraconv::graph::TaskGraph;
use paraconv::pim::{simulate, ExecutionPlan, PimConfig};
use paraconv::registry::{
    decode, request_key, sha256_hex, ArtifactError, PlanBundle, PlanPolicy, Registry,
    FORMAT_VERSION, PRODUCER,
};
use paraconv::retime::Retiming;
use paraconv::sched::{AllocationPolicy, ParaConvScheduler, SchedError};
use paraconv::synth::benchmarks;
use paraconv::verify::{verify_outcome, VerifyError};
use serde_json::{Map, Number, Value};

const PES: usize = 16;
const ITERS: u64 = 8;

fn config() -> PimConfig {
    PimConfig::neurocube(PES).expect("valid config")
}

fn policy() -> PlanPolicy {
    PlanPolicy {
        allocation: AllocationPolicy::DynamicProgram,
        iterations: ITERS,
    }
}

fn cat_graph() -> TaskGraph {
    benchmarks::by_name("cat")
        .expect("cat exists")
        .graph()
        .expect("cat builds")
}

/// Schedules, verifies and bundles one plan.
fn bundle_for(graph: TaskGraph) -> PlanBundle {
    let cfg = config();
    let outcome = ParaConvScheduler::new(cfg.clone())
        .with_policy(AllocationPolicy::DynamicProgram)
        .schedule(&graph, ITERS)
        .expect("schedulable");
    verify_outcome(&graph, &outcome, &cfg).expect("exported plans prove");
    PlanBundle {
        graph,
        config: cfg,
        policy: policy(),
        outcome,
    }
}

/// The full export → import → verify → re-export loop for one plan.
fn assert_round_trips(name: &str, graph: TaskGraph) {
    let bundle = bundle_for(graph);
    let key = bundle.key();
    assert_eq!(
        key,
        request_key(&bundle.graph, &bundle.config, &bundle.policy),
        "{name}: the key must be computable from the request alone"
    );
    let bytes = bundle.encode();
    let artifact = decode(&bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert_eq!(artifact.header.format, FORMAT_VERSION);
    assert_eq!(artifact.header.producer, PRODUCER);
    assert_eq!(artifact.header.key, key, "{name}: key drifted");
    verify_outcome(
        &artifact.bundle.graph,
        &artifact.bundle.outcome,
        &artifact.bundle.config,
    )
    .unwrap_or_else(|e| panic!("{name}: imported plan failed the gate: {e}"));
    assert_eq!(
        artifact.bundle.encode(),
        bytes,
        "{name}: re-encode is not byte-identical"
    );
    // Deterministic: a second export of the same request matches too.
    assert_eq!(bundle.encode(), bytes, "{name}: encode is not a function");
}

#[test]
fn every_benchmark_round_trips_byte_identically() {
    for b in benchmarks::all() {
        assert_round_trips(b.name(), b.graph().expect("benchmark builds"));
    }
}

#[test]
fn every_zoo_network_round_trips_byte_identically() {
    let zoo = paraconv::cnn::zoo::all().expect("zoo builds");
    for (class, network) in &zoo {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        assert_round_trips(&format!("{class}/{}", network.name()), graph);
    }
}

#[test]
fn request_keys_ignore_the_outcome_and_separate_requests() {
    let cat = bundle_for(cat_graph());
    let car = bundle_for(
        benchmarks::by_name("car")
            .expect("car exists")
            .graph()
            .expect("car builds"),
    );
    assert_ne!(cat.key(), car.key(), "different graphs, different keys");
    let mut other_policy = cat.policy;
    other_policy.iterations += 1;
    assert_ne!(
        cat.key(),
        request_key(&cat.graph, &cat.config, &other_policy),
        "the policy is part of the request"
    );
}

#[test]
fn the_request_key_is_pinned() {
    // Format 2 changed the body, never the key: the key covers only the
    // request (graph, config, policy), so registries keep addressing
    // the same requests by the same names across the format bump.
    let key = request_key(
        &cat_graph(),
        &PimConfig::neurocube(16).expect("valid config"),
        &PlanPolicy {
            allocation: AllocationPolicy::DynamicProgram,
            iterations: 50,
        },
    );
    assert_eq!(
        key,
        "2d41a7eb5cb10929ca1d085aaea433889069b908307567edf8fb75185f1588e4"
    );
}

/// `paraconv plan export`'s file stem for a target: alphanumeric runs,
/// lowercased, joined by single dashes.
fn export_slug(name: &str) -> String {
    name.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|run| !run.is_empty())
        .map(str::to_ascii_lowercase)
        .collect::<Vec<_>>()
        .join("-")
}

#[test]
fn exported_artifacts_match_the_pinned_digests() {
    // `plan_export.sha256` pins the SHA-256 of every artifact that
    // `paraconv plan export --all --zoo --iters 20` writes (16 PEs, the
    // DP policy), taken before the encoder became a direct writer. CI
    // checks a fresh export against the same file with `sha256sum -c`;
    // here the library encodes the same 17 bundles.
    let pinned: Vec<(&str, &str)> = include_str!("plan_export.sha256")
        .lines()
        .map(|line| {
            let (digest, path) = line.split_once("  ").expect("`<digest>  <path>` lines");
            let stem = path
                .strip_prefix("plans/")
                .and_then(|file| file.strip_suffix(".plan"))
                .expect("paths are plans/<stem>.plan");
            (stem, digest)
        })
        .collect();
    let mut targets: Vec<(String, TaskGraph)> = benchmarks::all()
        .into_iter()
        .map(|b| (b.name().to_owned(), b.graph().expect("benchmark builds")))
        .collect();
    for (class, network) in &paraconv::cnn::zoo::all().expect("zoo builds") {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        targets.push((format!("{class}/{}", network.name()), graph));
    }
    assert_eq!(targets.len(), 17);
    assert_eq!(pinned.len(), targets.len());
    let cfg = config();
    let policy = PlanPolicy {
        allocation: AllocationPolicy::DynamicProgram,
        iterations: 20,
    };
    for (name, graph) in targets {
        let slug = export_slug(&name);
        let digest = pinned
            .iter()
            .find(|(stem, _)| *stem == slug)
            .unwrap_or_else(|| panic!("{name}: no pinned digest for {slug}"))
            .1;
        let outcome = ParaConvScheduler::new(cfg.clone())
            .schedule(&graph, policy.iterations)
            .expect("schedulable");
        let bundle = PlanBundle {
            graph,
            config: cfg.clone(),
            policy,
            outcome,
        };
        assert_eq!(
            sha256_hex(&bundle.encode()),
            digest,
            "{name}: the artifact bytes drifted from the pinned export"
        );
    }
}

/// Schedules `graph` and asserts that the decoded artifact re-derives
/// exactly the scheduler's plan, which simulates identically.
fn assert_decoded_plan_is_the_scheduled_one(name: &str, graph: TaskGraph, pes: usize, iters: u64) {
    let config = PimConfig::neurocube(pes).expect("valid config");
    let outcome = ParaConvScheduler::new(config.clone())
        .schedule(&graph, iters)
        .expect("schedulable");
    let scheduled = simulate(&graph, &outcome.plan, &config).expect("valid plan");
    let bundle = PlanBundle {
        graph,
        config,
        policy: PlanPolicy {
            allocation: AllocationPolicy::DynamicProgram,
            iterations: iters,
        },
        outcome,
    };
    let decoded = decode(&bundle.encode())
        .unwrap_or_else(|e| panic!("{name} pes={pes} iters={iters}: {e}"))
        .bundle;
    assert!(
        decoded.outcome.plan == bundle.outcome.plan,
        "{name} pes={pes} iters={iters}: re-derived plan differs"
    );
    let replayed = simulate(&decoded.graph, &decoded.outcome.plan, &decoded.config)
        .expect("re-derived plan simulates");
    assert_eq!(replayed, scheduled, "{name} pes={pes} iters={iters}");
}

#[test]
fn decoded_plans_equal_the_scheduled_ones_across_table1() {
    for b in benchmarks::all() {
        let graph = b.graph().expect("benchmark builds");
        for pes in [16, 32, 64] {
            for iters in [1, 5, 50, 95] {
                assert_decoded_plan_is_the_scheduled_one(b.name(), graph.clone(), pes, iters);
            }
        }
    }
}

#[test]
fn decoded_plans_equal_the_scheduled_ones_across_the_zoo() {
    let zoo = paraconv::cnn::zoo::all().expect("zoo builds");
    for (class, network) in &zoo {
        let graph = paraconv::cnn::partition(network, paraconv::cnn::PartitionConfig::default())
            .expect("network partitions");
        let name = format!("{class}/{}", network.name());
        assert_decoded_plan_is_the_scheduled_one(&name, graph, PES, ITERS);
    }
}

#[test]
fn a_forged_plan_beside_an_honest_core_fails_the_gate() {
    // The core (kernel, retiming, allocation) is the scheduler's own
    // and proves clean; the plan beside it is iteration 1 alone,
    // shifted 1000 cycles late — self-consistent, but not the plan the
    // proof covers.
    let graph = cat_graph();
    let cfg = config();
    let mut outcome = ParaConvScheduler::new(cfg.clone())
        .schedule(&graph, 50)
        .expect("schedulable");
    let mut forged = ExecutionPlan::new(1);
    for task in outcome.plan.tasks().iter().filter(|t| t.iteration == 1) {
        forged.push_task(paraconv::pim::PlannedTask {
            start: task.start + 1000,
            ..*task
        });
    }
    for transfer in outcome.plan.transfers().iter().filter(|t| t.iteration == 1) {
        forged.push_transfer(paraconv::pim::PlannedTransfer {
            start: transfer.start + 1000,
            ..*transfer
        });
    }
    outcome.plan = forged;
    assert_eq!(
        verify_outcome(&graph, &outcome, &cfg),
        Err(VerifyError::PlanMismatch {
            section: "tasks",
            index: 0
        })
    );
}

/// Re-encodes the sample artifact with `edit` applied to its body,
/// recomputing the content hash and the key honestly, so only the
/// codec and the plan re-derivation stand between the edit and a plan.
fn forge(edit: impl FnOnce(&mut Map)) -> Vec<u8> {
    let text = String::from_utf8(sample_bytes()).expect("artifact is UTF-8");
    let (_, body) = text.split_once('\n').expect("two-line artifact");
    let mut body = serde_json::from_str(body.trim_end()).expect("body is JSON");
    let Value::Object(obj) = &mut body else {
        panic!("body is an object")
    };
    edit(obj);
    let mut request = obj.clone();
    request.remove("outcome");
    let body_line = serde_json::to_string(&body);
    let header = format!(
        "{{\"content_hash\":\"{}\",\"format\":{FORMAT_VERSION},\"key\":\"{}\",\
         \"magic\":\"paraconv-plan\",\"producer\":\"{PRODUCER}\"}}",
        sha256_hex(body_line.as_bytes()),
        sha256_hex(serde_json::to_string(&Value::Object(request)).as_bytes())
    );
    format!("{header}\n{body_line}\n").into_bytes()
}

/// The object at `path` (a chain of member names) inside `obj`.
fn member<'a>(obj: &'a mut Map, path: &[&str]) -> &'a mut Map {
    path.iter().fold(obj, |obj, key| match obj.get_mut(*key) {
        Some(Value::Object(inner)) => inner,
        _ => panic!("no object at `{key}`"),
    })
}

fn array<'a>(obj: &'a mut Map, key: &str) -> &'a mut Vec<Value> {
    match obj.get_mut(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("no array at `{key}`"),
    }
}

fn number(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

#[test]
fn a_forged_allocation_capacity_is_refused_before_the_dp() {
    // The sample is `cat` on 16 PEs: 64 cache units. A hash-honest
    // artifact claiming more must fail the import's verifier gate
    // with a typed error before the DP table is sized from the claim
    // (10^12 units used to abort the process on that reservation).
    let dir = std::env::temp_dir().join(format!("paraconv-forged-capacity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for capacity in [100_000u64, 1_000_000_000_000] {
        let forged = forge(|body| {
            member(body, &["outcome", "allocation"]).insert("capacity".into(), number(capacity));
        });
        let path = dir.join(format!("cat-{capacity}.plan"));
        std::fs::write(&path, forged).expect("write forged artifact");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_paraconv"))
            .args(["plan", "import"])
            .arg(&path)
            .output()
            .expect("binary spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "capacity {capacity}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "allocation capacity {capacity} exceeds the architecture's 64 cache units"
            )),
            "capacity {capacity}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn forging_needs_only_honest_hashes() {
    // The forger itself is sound: with no edit it reproduces the
    // canonical artifact byte for byte.
    assert!(forge(|_| {}) == sample_bytes(), "forger drifted");
}

#[test]
fn a_stored_plan_field_is_a_schema_mismatch() {
    let forged = forge(|body| {
        member(body, &["outcome"]).insert("plan".into(), Value::Object(Map::new()));
    });
    match decode_err(&forged) {
        ArtifactError::SchemaMismatch { path, .. } => assert_eq!(path, "body.outcome.plan"),
        other => panic!("expected SchemaMismatch, got {other}"),
    }
}

/// A hash-honest edit of the core decodes to a typed emission error —
/// never a panic, never a plan.
fn assert_unemittable(name: &str, edit: impl FnOnce(&mut Map)) {
    match decode_err(&forge(edit)) {
        ArtifactError::Unemittable(e) => assert!(
            matches!(
                e,
                SchedError::DegenerateKernel { .. }
                    | SchedError::ShapeMismatch { .. }
                    | SchedError::TimeOverflow
                    | SchedError::PlanTooLarge { .. }
            ),
            "{name}: {e}"
        ),
        other => panic!("{name}: expected Unemittable, got {other}"),
    }
}

#[test]
fn hash_honest_cores_that_emit_no_plan_are_typed_errors() {
    assert_unemittable("zero kernel copies", |body| {
        let kernel = member(body, &["outcome", "kernel"]);
        kernel.insert("copies".into(), number(0));
        for slots in ["pe", "start", "finish"] {
            array(kernel, slots).clear();
        }
    });
    assert_unemittable("a kernel for another node count", |body| {
        let nodes = cat_graph().node_count();
        let kernel = member(body, &["outcome", "kernel"]);
        let copies = kernel["copies"].as_u64().expect("copies") as usize;
        kernel.insert("node_count".into(), number(nodes as u64 - 1));
        for slots in ["pe", "start", "finish"] {
            array(kernel, slots).truncate(copies * (nodes - 1));
        }
    });
    assert_unemittable("a short retiming", |body| {
        array(member(body, &["outcome", "retiming"]), "nodes").pop();
    });
    assert_unemittable("an overflowing retiming", |body| {
        array(member(body, &["outcome", "retiming"]), "nodes")[0] = number(u64::MAX);
    });
    assert_unemittable("u64::MAX iterations", |body| {
        member(body, &["policy"]).insert("iterations".into(), number(u64::MAX));
    });
}

/// One valid artifact, scheduled once and shared by the hostile tests.
fn sample_bytes() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| bundle_for(cat_graph()).encode())
        .clone()
}

fn decode_err(bytes: &[u8]) -> ArtifactError {
    match decode(bytes) {
        Err(e) => e,
        Ok(_) => panic!("hostile input decoded cleanly"),
    }
}

#[test]
fn truncated_artifacts_are_rejected_with_typed_errors() {
    let bytes = sample_bytes();
    // Empty file, header cut mid-JSON, missing body line, body cut
    // mid-JSON: all Truncated or SchemaMismatch, never a panic.
    for cut in [0, 1, 10, bytes.len() / 2, bytes.len() - 1] {
        let truncated = &bytes[..cut];
        let err = decode_err(truncated);
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. } | ArtifactError::SchemaMismatch { .. }
            ),
            "cut at {cut} gave unexpected error: {err}"
        );
    }
}

#[test]
fn flipped_magic_is_a_schema_mismatch() {
    let mut bytes = sample_bytes();
    let pos = bytes
        .windows(b"paraconv-plan".len())
        .position(|w| w == b"paraconv-plan")
        .expect("magic present");
    bytes[pos] = b'q';
    assert!(matches!(
        decode_err(&bytes),
        ArtifactError::SchemaMismatch { .. }
    ));
}

#[test]
fn stale_format_versions_are_a_version_skew() {
    let text = String::from_utf8(sample_bytes()).expect("artifact is UTF-8");
    // Format 1 (which stored the unrolled plan) and a future format
    // are both refused before the body is touched.
    for found in [1, 99] {
        let stale = text.replacen("\"format\":2", &format!("\"format\":{found}"), 1);
        assert_ne!(stale, text, "format field present exactly once");
        match decode_err(stale.as_bytes()) {
            ArtifactError::VersionSkew {
                found: got,
                supported,
            } => {
                assert_eq!(got, found);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionSkew, got {other}"),
        }
    }
}

#[test]
fn corrupted_bodies_are_a_hash_mismatch() {
    let bytes = sample_bytes();
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("two-line artifact");
    let mut corrupt = bytes.clone();
    // Flip one digit deep inside the body line.
    let target = header_end + (corrupt.len() - header_end) / 2;
    let pos = (target..corrupt.len())
        .find(|&i| corrupt[i].is_ascii_digit())
        .expect("body has digits");
    corrupt[pos] = if corrupt[pos] == b'7' { b'8' } else { b'7' };
    match decode_err(&corrupt) {
        ArtifactError::HashMismatch { field, .. } => assert_eq!(field, "content_hash"),
        other => panic!("expected HashMismatch, got {other}"),
    }
}

#[test]
fn hash_fixed_schema_corruption_is_a_schema_mismatch() {
    // Corrupt the body *and* recompute the content hash: the hash gate
    // passes, so the codec's strict key checking must catch it.
    let text = String::from_utf8(sample_bytes()).expect("artifact is UTF-8");
    let (header, rest) = text.split_once('\n').expect("two-line artifact");
    let body = rest.strip_suffix('\n').expect("newline-terminated body");
    let evil_body = body.replacen("\"retiming\":", "\"retimimg\":", 1);
    assert_ne!(evil_body, body, "retiming section present");
    let old_hash_field = format!("\"content_hash\":\"{}\"", sha256_hex(body.as_bytes()));
    let new_hash_field = format!("\"content_hash\":\"{}\"", sha256_hex(evil_body.as_bytes()));
    let evil_header = header.replacen(&old_hash_field, &new_hash_field, 1);
    assert_ne!(evil_header, header, "content_hash field patched");
    let evil = format!("{evil_header}\n{evil_body}\n");
    match decode_err(evil.as_bytes()) {
        ArtifactError::SchemaMismatch { path, .. } => {
            assert!(path.starts_with("body"), "schema path localizes: {path}")
        }
        other => panic!("expected SchemaMismatch, got {other}"),
    }
}

#[test]
fn hash_valid_tampered_outcomes_die_at_the_verifier_gate() {
    // An attacker who re-encodes honestly (valid hashes, valid schema)
    // after corrupting the outcome still cannot get a plan executed:
    // the import gate re-proves the plan from the artifact alone.
    let mut bundle = bundle_for(cat_graph());
    let dst = bundle
        .graph
        .edges()
        .next()
        .expect("benchmark graphs have edges")
        .dst()
        .index();
    let mut node_values: Vec<u64> = bundle
        .outcome
        .core
        .retiming
        .node_values()
        .map(|(_, v)| v)
        .collect();
    let edge_values = bundle.outcome.core.retiming.edge_values_raw().to_vec();
    node_values[dst] = u64::MAX; // R(edge) < R(dst): structurally illegal
    bundle.outcome.core.retiming = Retiming::from_values(node_values, edge_values);
    let bytes = bundle.encode();
    // Rejected, never executed: re-deriving the plan from this core
    // overflows at decode, and were it to decode, the gate refuses it.
    let rejected = decode(&bytes).map_or(true, |artifact| {
        verify_outcome(
            &artifact.bundle.graph,
            &artifact.bundle.outcome,
            &artifact.bundle.config,
        )
        .is_err()
    });
    assert!(
        rejected,
        "tampered retiming slipped past decode and the gate"
    );
}

#[test]
fn registry_stores_and_returns_exact_bytes() {
    let dir = std::env::temp_dir().join(format!("paraconv-plan-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).expect("registry opens");
    let bytes = sample_bytes();
    let artifact = decode(&bytes).expect("sample decodes");
    let key = artifact.header.key.clone();
    assert!(registry.get(&key).expect("get works").is_none());
    registry.put(&key, &bytes).expect("put works");
    assert!(registry.contains(&key).expect("contains works"));
    assert_eq!(
        registry.get(&key).expect("get works").as_deref(),
        Some(&bytes[..])
    );
    assert_eq!(registry.keys().expect("keys list"), vec![key]);
    assert!(registry.put("../../etc/passwd", &bytes).is_err());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_byte_mutations_never_panic_or_change_plans(
        offset in 0usize..1_000_000,
        value in 0u8..=255,
    ) {
        // Any one-byte corruption of a valid artifact either fails
        // with a typed error or — when it hits a provenance-only field
        // like the producer tag — decodes to the *same* plan, which
        // re-encodes to the canonical original bytes.
        let original = sample_bytes();
        let mut mutated = original.clone();
        let i = offset % mutated.len();
        mutated[i] = value;
        match decode(&mutated) {
            Err(_) => {} // typed rejection is the expected outcome
            Ok(artifact) => prop_assert_eq!(
                artifact.bundle.encode(),
                original,
                "a surviving mutation must be semantically invisible"
            ),
        }
    }
}

/// Minimal bytes that pass the registry's read-side verification: a
/// well-formed artifact header over an arbitrary single-line body.
fn mini_artifact(body: &str) -> Vec<u8> {
    let hash = sha256_hex(body.as_bytes());
    format!(
        "{{\"content_hash\":\"{hash}\",\"format\":{FORMAT_VERSION},\"key\":\"{hash}\",\
         \"magic\":\"paraconv-plan\",\"producer\":\"storm-test\"}}\n{body}\n"
    )
    .into_bytes()
}

/// Serializes the tests that do registry operations: counter
/// exactness needs the process-global obs recorder to itself.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_same_key_put_storm_never_tears_and_counts_exactly() {
    let _guard = obs_lock();
    paraconv::obs::reset();
    paraconv::obs::enable();

    let dir = std::env::temp_dir().join(format!("paraconv-put-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body: String = format!("{{\"payload\":\"{}\"}}", "cd".repeat(1 << 15));
    let payload = mini_artifact(&body);
    let key = sha256_hex(&payload);
    const WRITERS: usize = 8;
    const PUTS_EACH: usize = 4;
    let threads: Vec<_> = (0..WRITERS)
        .map(|_| {
            let registry = Registry::open(&dir).expect("registry opens");
            let key = key.clone();
            let payload = payload.clone();
            std::thread::spawn(move || {
                for _ in 0..PUTS_EACH {
                    registry.put(&key, &payload).expect("put succeeds");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread completes");
    }

    // Worker threads flushed their obs buffers on exit; snapshot
    // before the final get so the put count stands alone.
    let snapshot = paraconv::obs::snapshot();
    assert_eq!(
        snapshot.counter("registry.puts"),
        (WRITERS * PUTS_EACH) as u64,
        "every put lands exactly once in the counter"
    );
    assert_eq!(snapshot.counter("registry.hits"), 0);
    assert_eq!(snapshot.counter("registry.misses"), 0);

    let registry = Registry::open(&dir).expect("registry opens");
    assert_eq!(
        registry.get(&key).expect("get works"),
        Some(payload),
        "the artifact is whole after the storm"
    );
    let shard = dir.join("objects").join(&key[..2]);
    let leftovers: Vec<_> = std::fs::read_dir(&shard)
        .expect("shard exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "no temp files survive the storm");

    paraconv::obs::disable();
    paraconv::obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn put_while_get_sees_none_or_the_whole_artifact() {
    let _guard = obs_lock();
    paraconv::obs::reset();
    paraconv::obs::enable();

    let dir = std::env::temp_dir().join(format!("paraconv-put-get-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body: String = format!("{{\"payload\":\"{}\"}}", "ef".repeat(1 << 15));
    let payload = mini_artifact(&body);
    let key = sha256_hex(&payload);
    const PUTS: usize = 16;
    let writer = {
        let registry = Registry::open(&dir).expect("registry opens");
        let key = key.clone();
        let payload = payload.clone();
        std::thread::spawn(move || {
            for _ in 0..PUTS {
                registry.put(&key, &payload).expect("put succeeds");
            }
        })
    };

    // Read concurrently: every get is either a miss or the complete
    // payload — never a prefix, never zero-filled bytes.
    let registry = Registry::open(&dir).expect("registry opens");
    let mut hits = 0u64;
    let mut misses = 0u64;
    for _ in 0..64 {
        match registry.get(&key).expect("get never errors") {
            None => misses += 1,
            Some(got) => {
                assert_eq!(got, payload, "a visible artifact is always whole");
                hits += 1;
            }
        }
    }
    writer.join().expect("writer completes");

    // One settled read after the writer is done must hit.
    assert_eq!(registry.get(&key).expect("get works"), Some(payload));
    hits += 1;

    let snapshot = paraconv::obs::snapshot();
    assert_eq!(snapshot.counter("registry.puts"), PUTS as u64);
    assert_eq!(snapshot.counter("registry.hits"), hits);
    assert_eq!(snapshot.counter("registry.misses"), misses);

    paraconv::obs::disable();
    paraconv::obs::reset();
    let _ = std::fs::remove_dir_all(&dir);
}
