//! Black-box tests for the `paraconv` binary's argument handling.
//!
//! Exit-code contract: usage errors (unknown subcommand, malformed
//! flags, unknown benchmark) print the usage text and exit 2; runtime
//! failures exit 1; success exits 0.

use std::process::{Command, Output};

fn paraconv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paraconv"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn assert_usage_error(args: &[&str]) {
    let out = paraconv(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?} should print usage, got: {stderr}"
    );
}

#[test]
fn no_arguments_is_a_usage_error() {
    assert_usage_error(&[]);
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    assert_usage_error(&["bogus"]);
}

#[test]
fn unknown_option_is_a_usage_error() {
    assert_usage_error(&["run", "cat", "--frobnicate"]);
}

#[test]
fn malformed_numeric_value_is_a_usage_error() {
    assert_usage_error(&["run", "cat", "--pes", "abc"]);
}

#[test]
fn malformed_kill_pe_value_is_a_usage_error() {
    assert_usage_error(&["chaos", "cat", "--kill-pe", "3"]);
    assert_usage_error(&["chaos", "cat", "--kill-pe", "x@9"]);
}

#[test]
fn out_of_range_fault_rate_is_a_usage_error() {
    assert_usage_error(&["chaos", "cat", "--fault-rate", "10001"]);
}

#[test]
fn unknown_benchmark_is_a_usage_error() {
    assert_usage_error(&["run", "no-such-benchmark"]);
}

#[test]
fn an_oversized_run_is_a_runtime_error_not_an_abort() {
    // 2^60 iterations need more than isize::MAX bytes of plan: the
    // reservation is refused on any host and `run` exits 1.
    let out = paraconv(&["run", "cat", "--iters", "1152921504606846976"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("too large"), "stderr: {stderr}");
}

#[test]
fn list_succeeds() {
    let out = paraconv(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cat"), "list should name the benchmarks");
}

#[test]
fn chaos_json_emits_a_parsable_campaign_summary() {
    let out = paraconv(&[
        "chaos",
        "cat",
        "--seed",
        "42",
        "--fault-rate",
        "100",
        "--iters",
        "5",
        "--pes",
        "8",
        "--json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value: serde_json::Value =
        serde_json::from_str(&stdout).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"));
    let field = |key: &str| value.get(key).unwrap_or_else(|| panic!("missing {key}"));
    assert_eq!(field("benchmark").as_str(), Some("cat"));
    assert_eq!(field("seed").as_u64(), Some(42));
    assert_eq!(field("fault_rate_bp").as_u64(), Some(100));
    assert_eq!(field("pes").as_u64(), Some(8));
    assert!(field("planned_makespan").as_u64().is_some());
    assert!(field("achieved_makespan").as_u64().is_some());
    assert!(field("failed_pes").as_array().is_some());
}

#[test]
fn chaos_kill_pe_reports_the_degraded_profile() {
    let out = paraconv(&[
        "chaos",
        "cat",
        "--seed",
        "7",
        "--kill-pe",
        "1@0",
        "--iters",
        "5",
        "--pes",
        "8",
        "--json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let value: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let field = |key: &str| value.get(key).unwrap_or_else(|| panic!("missing {key}"));
    assert_eq!(field("replans").as_u64(), Some(1));
    let failed = field("failed_pes").as_array().expect("array").clone();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].as_u64(), Some(1));
    assert_eq!(field("active_pes").as_u64(), Some(7));
}

// ---- plan subcommand exit-code contract -------------------------------

fn plan_tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("paraconv-cli-{}-{name}", std::process::id()))
}

#[test]
fn plan_without_a_verb_is_a_usage_error() {
    assert_usage_error(&["plan"]);
}

#[test]
fn plan_with_an_unknown_verb_is_a_usage_error() {
    assert_usage_error(&["plan", "bogus"]);
}

#[test]
fn plan_export_without_a_target_is_a_usage_error() {
    assert_usage_error(&["plan", "export"]);
}

#[test]
fn plan_export_name_and_all_conflict_as_a_usage_error() {
    assert_usage_error(&["plan", "export", "cat", "--all"]);
}

#[test]
fn plan_flag_without_a_value_is_a_usage_error() {
    assert_usage_error(&["plan", "export", "cat", "--out"]);
    assert_usage_error(&["plan", "import", "--key"]);
    assert_usage_error(&["plan", "export", "cat", "--pes", "abc"]);
}

#[test]
fn plan_diff_needs_exactly_two_files() {
    assert_usage_error(&["plan", "diff", "only-one.plan"]);
    assert_usage_error(&["plan", "diff", "a.plan", "b.plan", "c.plan"]);
}

#[test]
fn plan_import_of_a_missing_file_is_a_runtime_error() {
    let out = paraconv(&["plan", "import", "/nonexistent/never.plan"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("usage:"), "runtime errors skip usage text");
}

#[test]
fn plan_import_of_a_corrupt_file_is_a_runtime_error() {
    let path = plan_tmp("corrupt.plan");
    std::fs::write(&path, b"this is not a plan artifact\n").expect("write fixture");
    let out = paraconv(&["plan", "import", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("import rejected"),
        "typed rejection expected, got: {stderr}"
    );
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn plan_export_replans_over_a_stale_registry_object() {
    // A registry written by a format-1 build holds an object under the
    // same request key; export treats it as stale and overwrites it.
    let registry = plan_tmp("stale-registry");
    let _ = std::fs::remove_dir_all(&registry);
    let fresh = plan_tmp("fresh.plan");
    let export = |out: &std::path::Path| {
        paraconv(&[
            "plan",
            "export",
            "cat",
            "--iters",
            "8",
            "--registry",
            registry.to_str().expect("utf-8 path"),
            "--out",
            out.to_str().expect("utf-8 path"),
        ])
    };
    assert_eq!(export(&fresh).status.code(), Some(0));
    let objects: Vec<_> = std::fs::read_dir(registry.join("objects"))
        .expect("objects dir")
        .flat_map(|shard| std::fs::read_dir(shard.expect("shard").path()).expect("shard dir"))
        .map(|object| object.expect("object").path())
        .collect();
    assert_eq!(objects.len(), 1);
    let current = std::fs::read_to_string(&objects[0]).expect("object bytes");
    std::fs::write(
        &objects[0],
        current.replacen("\"format\":2", "\"format\":1", 1),
    )
    .expect("downgrade the object");

    let replanned = plan_tmp("replanned.plan");
    let out = export(&replanned);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("scheduled"),
        "stale object must re-plan: {stdout}"
    );
    assert_eq!(
        std::fs::read(&objects[0]).expect("object"),
        current.into_bytes()
    );
    assert_eq!(
        std::fs::read(&replanned).expect("plan"),
        std::fs::read(&fresh).expect("plan")
    );
    std::fs::remove_dir_all(&registry).expect("cleanup");
    std::fs::remove_file(&fresh).expect("cleanup");
    std::fs::remove_file(&replanned).expect("cleanup");
}

#[test]
fn plan_export_import_diff_round_trip_succeeds() {
    let exported = plan_tmp("cat.plan");
    let reexported = plan_tmp("cat2.plan");
    let out = paraconv(&[
        "plan",
        "export",
        "cat",
        "--iters",
        "8",
        "--out",
        exported.to_str().expect("utf-8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "export failed: {stderr}");

    let out = paraconv(&[
        "plan",
        "import",
        exported.to_str().expect("utf-8 path"),
        "--out",
        reexported.to_str().expect("utf-8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "import failed: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("verifier gate: PROVED"),
        "gate must report: {stdout}"
    );
    assert_eq!(
        std::fs::read(&exported).expect("exported bytes"),
        std::fs::read(&reexported).expect("re-exported bytes"),
        "round trip must be byte-identical"
    );

    let out = paraconv(&[
        "plan",
        "diff",
        exported.to_str().expect("utf-8 path"),
        reexported.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("identical"), "diff says: {stdout}");
    std::fs::remove_file(&exported).expect("cleanup");
    std::fs::remove_file(&reexported).expect("cleanup");
}

#[test]
fn plan_diff_of_differing_plans_is_a_runtime_error() {
    let a = plan_tmp("diff-a.plan");
    let b = plan_tmp("diff-b.plan");
    for (path, bench) in [(&a, "cat"), (&b, "car")] {
        let out = paraconv(&[
            "plan",
            "export",
            bench,
            "--iters",
            "8",
            "--out",
            path.to_str().expect("utf-8 path"),
        ]);
        assert_eq!(out.status.code(), Some(0));
    }
    let out = paraconv(&[
        "plan",
        "diff",
        a.to_str().expect("utf-8 path"),
        b.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1), "differing plans exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("differ"), "diff names sections: {stderr}");
    std::fs::remove_file(&a).expect("cleanup");
    std::fs::remove_file(&b).expect("cleanup");
}

// ---- flight recorder & postmortem -------------------------------------

/// A chaos campaign that kills every PE: recovery is impossible, so
/// the run must die and dump the flight recorder.
fn killed_campaign(dump: &std::path::Path, jobs: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paraconv"))
        .env("PARACONV_JOBS", jobs)
        .args([
            "chaos",
            "cat",
            "--seed",
            "7",
            "--fault-rate",
            "100",
            "--pes",
            "8",
            "--iters",
            "5",
            "--kill-pe",
            "0@5",
            "--kill-pe",
            "1@10",
            "--kill-pe",
            "2@15",
            "--kill-pe",
            "3@20",
            "--kill-pe",
            "4@25",
            "--kill-pe",
            "5@30",
            "--kill-pe",
            "6@35",
            "--kill-pe",
            "7@40",
            "--postmortem",
            dump.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary spawns")
}

#[test]
fn a_killed_campaign_dumps_a_renderable_postmortem() {
    let dump = plan_tmp("killed.postmortem");
    let out = killed_campaign(&dump, "1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a dead campaign exits 1");
    assert!(
        stderr.contains("postmortem dumped to"),
        "failure names the dump: {stderr}"
    );

    let out = paraconv(&["postmortem", dump.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "dump renders: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "reason:",
        "flight recorder",
        "pe.fail_stop",
        "chaos",
        "replan",
        "metrics at failure:",
        "benchmark",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in: {stdout}");
    }
    std::fs::remove_file(&dump).expect("cleanup");
}

#[test]
fn postmortem_bytes_are_identical_across_worker_counts() {
    let mut dumps = Vec::new();
    for jobs in ["1", "2", "8"] {
        let dump = plan_tmp(&format!("identity-j{jobs}.postmortem"));
        let out = killed_campaign(&dump, jobs);
        assert_eq!(out.status.code(), Some(1));
        dumps.push(std::fs::read(&dump).expect("dump written"));
        std::fs::remove_file(&dump).expect("cleanup");
    }
    assert_eq!(dumps[0], dumps[1], "jobs=1 and jobs=2 dumps differ");
    assert_eq!(dumps[0], dumps[2], "jobs=1 and jobs=8 dumps differ");
}

#[test]
fn postmortem_usage_and_rejection_contract() {
    assert_usage_error(&["postmortem"]);
    assert_usage_error(&["postmortem", "a", "b"]);

    let out = paraconv(&["postmortem", "/nonexistent/never.postmortem"]);
    assert_eq!(out.status.code(), Some(1));

    let path = plan_tmp("corrupt.postmortem");
    std::fs::write(&path, b"not a postmortem\n").expect("write fixture");
    let out = paraconv(&["postmortem", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("postmortem rejected"),
        "typed rejection expected, got: {stderr}"
    );
    std::fs::remove_file(&path).expect("cleanup");
}

// ---- logical-clock trace identity -------------------------------------

/// Exports a trace under `PARACONV_LOGICAL_TIME=1` and returns its
/// bytes. Span timestamps come from a process-local sequence, so two
/// identical invocations must serialize identical files.
fn logical_trace(path: &std::path::Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_paraconv"))
        .env("PARACONV_LOGICAL_TIME", "1")
        .args([
            "run",
            "cat",
            "--pes",
            "8",
            "--iters",
            "5",
            "--trace",
            path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary spawns");
    assert_eq!(out.status.code(), Some(0));
    let bytes = std::fs::read(path).expect("trace written");
    std::fs::remove_file(path).expect("cleanup");
    bytes
}

#[test]
fn logical_time_traces_are_byte_identical() {
    let a = logical_trace(&plan_tmp("logical-a.json"));
    let b = logical_trace(&plan_tmp("logical-b.json"));
    assert!(!a.is_empty());
    assert_eq!(a, b, "logical-clock spans must not depend on wallclock");
}

// ---- bench trajectory analyzer ----------------------------------------

fn bench_fixture(dir: &std::path::Path, id: u64, tasks: f64) {
    let text = format!(
        "{{\"bench_id\": {id},
          \"simulate\": {{\"planned_tasks_per_sec\": {tasks}}},
          \"dp\": {{\"fills_per_sec\": 500.0, \"workload\": \"cold\"}},
          \"sweep\": {{\"speedup\": 1.5}}}}\n"
    );
    std::fs::write(dir.join(format!("BENCH_{id}.json")), text).expect("write fixture");
}

#[test]
fn bench_report_gates_the_final_step() {
    let dir = plan_tmp("bench-series");
    std::fs::create_dir_all(&dir).expect("mkdir");
    bench_fixture(&dir, 1, 1000.0);
    bench_fixture(&dir, 2, 950.0);
    let out = paraconv(&["bench", "report", "--dir", dir.to_str().expect("utf-8")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "a 5% dip is in tolerance");
    assert!(stdout.contains("no regressions"), "got: {stdout}");

    bench_fixture(&dir, 3, 700.0);
    let out = paraconv(&["bench", "report", "--dir", dir.to_str().expect("utf-8")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "a 26% drop regresses");
    assert!(
        stdout.contains("REGRESSED simulate.planned_tasks_per_sec"),
        "got: {stdout}"
    );

    // A looser tolerance waves the same series through.
    let out = paraconv(&[
        "bench",
        "report",
        "--dir",
        dir.to_str().expect("utf-8"),
        "--tolerance-bp",
        "5000",
    ]);
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bench_diff_compares_two_reports() {
    let dir = plan_tmp("bench-diff");
    std::fs::create_dir_all(&dir).expect("mkdir");
    bench_fixture(&dir, 1, 1000.0);
    bench_fixture(&dir, 2, 400.0);
    let a = dir.join("BENCH_1.json");
    let b = dir.join("BENCH_2.json");
    let out = paraconv(&[
        "bench",
        "diff",
        a.to_str().expect("utf-8"),
        b.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(1), "a 60% drop regresses");
    let out = paraconv(&[
        "bench",
        "diff",
        b.to_str().expect("utf-8"),
        a.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(0), "an improvement passes");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bench_usage_contract() {
    assert_usage_error(&["bench"]);
    assert_usage_error(&["bench", "bogus"]);
    assert_usage_error(&["bench", "diff", "only-one.json"]);
    assert_usage_error(&["bench", "report", "--tolerance-bp", "99999"]);
    assert_usage_error(&["bench", "report", "stray-positional"]);
}

// ---- artifact format checkers -----------------------------------------

#[test]
fn check_validates_real_exports_and_rejects_garbage() {
    let trace = plan_tmp("check.trace.json");
    let metrics = plan_tmp("check.metrics.jsonl");
    let out = paraconv(&[
        "run",
        "cat",
        "--pes",
        "8",
        "--iters",
        "5",
        "--trace",
        trace.to_str().expect("utf-8"),
        "--metrics",
        metrics.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(0));

    let out = paraconv(&["check", "trace", trace.to_str().expect("utf-8")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "trace validates: {stdout}");
    assert!(stdout.contains("trace event(s) OK"));

    let out = paraconv(&["check", "metrics", metrics.to_str().expect("utf-8")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "metrics validate: {stdout}");
    assert!(stdout.contains("metric line(s) OK"));

    // Kind confusion is caught: a metrics JSONL is not a trace.
    let out = paraconv(&["check", "trace", metrics.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));

    let garbage = plan_tmp("check.garbage");
    std::fs::write(&garbage, b"{\"not\": \"a metric\"}\n").expect("write fixture");
    for kind in ["trace", "metrics", "prom"] {
        let out = paraconv(&["check", kind, garbage.to_str().expect("utf-8")]);
        assert_eq!(out.status.code(), Some(1), "garbage fails `check {kind}`");
    }
    for path in [&trace, &metrics, &garbage] {
        std::fs::remove_file(path).expect("cleanup");
    }
}

#[test]
fn check_usage_contract() {
    assert_usage_error(&["check"]);
    assert_usage_error(&["check", "trace"]);
    assert_usage_error(&["check", "bogus", "file.json"]);
}

// ---- stats flags -------------------------------------------------------

#[test]
fn stats_prom_emits_a_checkable_exposition() {
    let out = paraconv(&["stats", "cat", "--pes", "8", "--iters", "5", "--prom"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# TYPE paraconv_sim_runs counter"));
    assert!(stdout.contains("_quantile{quantile=\"0.99\"}"));
}

#[test]
fn stats_watch_refreshes_and_terminates() {
    let out = paraconv(&["stats", "cat", "--pes", "8", "--iters", "5", "--watch", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\u{1b}[2J"),
        "refresh clears the screen between rounds"
    );
    assert_usage_error(&["stats", "cat", "--watch", "0"]);
    assert_usage_error(&["stats", "cat", "--watch", "abc"]);
}

// ---- analyze (concurrency model checking) ------------------------------

#[test]
fn analyze_list_names_every_harness_with_its_kind() {
    let out = paraconv(&["analyze", "--list"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "obs-merge",
        "flight-ring",
        "registry-put-same-key",
        "sweep-pool",
        "publish-acquire",
    ] {
        assert!(stdout.contains(name), "missing harness `{name}`: {stdout}");
    }
    assert!(stdout.contains("seeded"), "seeded fixtures labelled");
    assert!(stdout.contains("passing"), "passing harnesses labelled");
}

#[test]
fn analyze_passing_harness_exits_clean_and_reports_coverage() {
    let out = paraconv(&["analyze", "publish-acquire"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok   publish-acquire"), "got: {stdout}");
    assert!(stdout.contains("state space exhausted"), "got: {stdout}");
}

#[test]
fn analyze_seeded_fixture_exits_one_with_a_replayable_schedule() {
    let out = paraconv(&["analyze", "publish-relaxed"]);
    assert_eq!(out.status.code(), Some(1), "seeded bug must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL publish-relaxed"), "got: {stdout}");
    assert!(stdout.contains("schedule:"), "seed printed: {stdout}");
    assert!(stdout.contains("interleaving:"), "trace printed: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed model checking"),
        "summary on stderr: {stderr}"
    );
}

#[test]
fn analyze_json_emits_a_parsable_report_per_harness() {
    let out = paraconv(&["analyze", "--json", "publish-acquire", "publish-relaxed"]);
    assert_eq!(out.status.code(), Some(1), "one seeded failure selected");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value: serde_json::Value =
        serde_json::from_str(&stdout).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"));
    let reports = value.as_array().expect("top-level array");
    assert_eq!(reports.len(), 2);
    let field = |i: usize, key: &str| {
        reports[i]
            .get(key)
            .unwrap_or_else(|| panic!("report {i} missing {key}"))
    };
    assert_eq!(field(0, "harness").as_str(), Some("publish-acquire"));
    assert_eq!(field(0, "ok").as_bool(), Some(true));
    assert_eq!(field(0, "complete").as_bool(), Some(true));
    assert!(field(0, "schedules").as_u64().is_some());
    assert_eq!(field(1, "harness").as_str(), Some("publish-relaxed"));
    assert_eq!(field(1, "ok").as_bool(), Some(false));
    assert!(field(1, "schedule").as_str().is_some());
    assert!(!field(1, "trace").as_array().unwrap().is_empty());
}

#[test]
fn analyze_rejects_malformed_invocations() {
    assert_usage_error(&["analyze", "--schedules", "x"]);
    assert_usage_error(&["analyze", "--schedules", "0"]);
    assert_usage_error(&["analyze", "--preemptions"]);
    assert_usage_error(&["analyze", "--bogus-flag"]);
    assert_usage_error(&["analyze", "no-such-harness"]);
}

// ---- flag table: declared flags, arity, counts ------------------------

/// Runs the binary with stdout discarded, killing it if it has not
/// exited within 60 s: an invocation that should be refused must not
/// start a daemon.
fn paraconv_bounded(args: &[&str], cwd: &std::path::Path) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_paraconv"))
        .args(args)
        .current_dir(cwd)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().expect("child status").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().expect("kill a runaway child");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn subcommands_refuse_flags_and_arguments_they_do_not_read() {
    let dir = plan_tmp("undeclared");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let refused: &[&[&str]] = &[
        &["verify", "cat", "--trace", "t.json", "--metrics", "m.jsonl"],
        &["run", "cat", "--quick"],
        &["run", "cat", "--window", "5"],
        &["plan", "export", "cat", "--run"],
        &["list", "extra"],
        &["dot", "cat", "--pes", "8"],
        &["serve", "--requests", "5"],
        &["serve", "--clients", "2"],
        &["serve", "--json"],
        &["serve", "--postmortem", "serve.postmortem"],
        &["verify", "cat", "--all"],
        &["run", "cat", "extra"],
    ];
    for args in refused {
        let (code, stderr) = paraconv_bounded(args, &dir);
        assert_eq!(code, Some(2), "{args:?} should exit 2, stderr: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} prints usage: {stderr}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
    assert!(
        left.is_empty(),
        "a refused invocation wrote files: {left:?}"
    );

    // Positionals may come before, between or after the flags.
    for args in [
        &["verify", "--zoo", "cat", "--iters", "2"][..],
        &["run", "--pes", "8", "cat", "--iters", "5"][..],
    ] {
        let out = paraconv(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn pe_counts_above_the_supported_array_are_usage_errors() {
    let dir = plan_tmp("pe-bound");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let above = (paraconv::pim::MAX_PES + 1).to_string();
    for args in [
        &["run", "cat", "--pes", above.as_str(), "--iters", "1"][..],
        &["chaos", "cat", "--pes", "100000", "--iters", "1"][..],
        &[
            "plan",
            "export",
            "cat",
            "--pes",
            above.as_str(),
            "--iters",
            "1",
        ][..],
    ] {
        let (code, stderr) = paraconv_bounded(args, &dir);
        assert_eq!(code, Some(2), "{args:?} should exit 2, stderr: {stderr}");
        assert!(
            stderr.contains("--pes must be at most"),
            "{args:?}: {stderr}"
        );
    }
    let at_bound = paraconv::pim::MAX_PES.to_string();
    let (code, stderr) =
        paraconv_bounded(&["run", "cat", "--pes", &at_bound, "--iters", "1"], &dir);
    assert_eq!(code, Some(0), "the bound itself is accepted: {stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn zero_counts_are_usage_errors_before_any_work() {
    let dir = plan_tmp("zero-counts");
    std::fs::create_dir_all(&dir).expect("mkdir");
    for args in [
        &["chaos", "cat", "--iters", "0"][..],
        &["chaos", "cat", "--pes", "0"][..],
        &["table1", "--pes", "0"][..],
        &["table1", "--iters", "0"][..],
        &["run", "cat", "--iters", "0"][..],
        &["plan", "export", "cat", "--iters", "0"][..],
    ] {
        let (code, stderr) = paraconv_bounded(args, &dir);
        assert_eq!(code, Some(2), "{args:?} should exit 2, stderr: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?} prints usage: {stderr}");
    }
    assert!(
        !dir.join("cat.postmortem").exists(),
        "a refused chaos campaign must not dump a postmortem"
    );
    let left: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
    assert!(
        left.is_empty(),
        "a refused invocation wrote files: {left:?}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn chaos_serve_submits_exactly_the_requested_count() {
    let out = paraconv(&[
        "chaos",
        "--serve",
        "--requests",
        "10",
        "--clients",
        "3",
        "--json",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The JSON object is followed by the contract verdict line.
    let end = stdout.find("\n}\n").expect("a JSON object") + 2;
    let value: serde_json::Value =
        serde_json::from_str(&stdout[..end]).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"));
    let field = |key: &str| {
        value
            .get(key)
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("missing {key}"))
    };
    assert_eq!(field("requests"), 10);
    let answered = ["accepted", "shed", "invalid", "quota", "circuit_open"]
        .into_iter()
        .map(field)
        .sum::<u64>();
    assert_eq!(answered, 10, "every request was submitted: {stdout}");
    assert_eq!(field("violations"), 0);
}
