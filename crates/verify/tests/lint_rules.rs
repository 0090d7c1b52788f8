//! Fixture self-tests for the lint engine: every rule has a positive
//! fixture that fires and an allow-annotated twin that stays silent,
//! plus the path- and test-scoping exemptions, the cross-file
//! dataflow rules, and the lexer's multi-line edge cases.

use paraconv_verify::lint::{lint_source, lint_workspace, rules};

const LIB: &str = "crates/x/src/lib.rs";
const SIM: &str = "crates/pim/src/sim.rs";

fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src).into_iter().map(|f| f.rule).collect()
}

#[test]
fn no_unwrap_fires_on_each_form() {
    assert_eq!(
        rules_fired(LIB, "fn f() { Some(1).unwrap(); }"),
        [rules::NO_UNWRAP]
    );
    assert_eq!(
        rules_fired(LIB, "fn f() { Some(1).expect(\"x\"); }"),
        [rules::NO_UNWRAP]
    );
    assert_eq!(
        rules_fired(LIB, "fn f() { panic!(\"boom\"); }"),
        [rules::NO_UNWRAP]
    );
}

#[test]
fn no_unwrap_allow_annotation_silences() {
    let src = "
        fn f() {
            // lint: allow(no-unwrap) — value exists by construction
            Some(1).unwrap();
            // lint: allow(no-unwrap) — unreachable without a prior bug
            panic!(\"boom\");
        }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

#[test]
fn no_unwrap_same_line_annotation_silences() {
    let src = "fn f() { Some(1).unwrap(); } // lint: allow(no-unwrap) — fixture";
    assert!(lint_source(LIB, src).is_empty());
}

#[test]
fn no_unwrap_skips_binaries_and_tests() {
    let src = "fn main() { std::fs::read(\"x\").unwrap(); }";
    assert!(lint_source("crates/x/src/bin/tool.rs", src).is_empty());

    let test_src = "
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { Some(1).unwrap(); }
        }
    ";
    assert!(lint_source(LIB, test_src).is_empty());
}

#[test]
fn unchecked_index_fires_only_on_hot_paths() {
    let src = "fn f(v: &[u64], i: usize) -> u64 { v[i] }";
    assert_eq!(rules_fired(SIM, src), [rules::UNCHECKED_INDEX]);
    assert_eq!(
        rules_fired("crates/alloc/src/dp.rs", src),
        [rules::UNCHECKED_INDEX]
    );
    assert!(lint_source(LIB, src).is_empty());
    assert!(lint_source("crates/graph/src/graph.rs", src).is_empty());
}

#[test]
fn unchecked_index_allow_annotation_silences() {
    let src = "
        fn f(v: &[u64], i: usize) -> u64 {
            // lint: allow(unchecked-index) — i < v.len() checked above
            v[i]
        }
    ";
    assert!(lint_source(SIM, src).is_empty());
}

#[test]
fn unchecked_index_ignores_macros_types_and_attributes() {
    // `vec![...]` has a `!` before the bracket, `[u64; 4]` follows a
    // punct, and attribute brackets are copied wholesale.
    let src = "
        #[derive(Debug)]
        struct S;
        fn f() -> Vec<u64> { let _a: [u64; 4] = [0; 4]; vec![1, 2] }
    ";
    assert!(lint_source(SIM, src).is_empty());
}

#[test]
fn wallclock_rng_fires_on_each_source() {
    assert_eq!(
        rules_fired(LIB, "fn f() { let _t = std::time::Instant::now(); }"),
        [rules::WALLCLOCK_RNG]
    );
    assert_eq!(
        rules_fired(LIB, "fn f() { let _t = SystemTime::now(); }"),
        [rules::WALLCLOCK_RNG]
    );
    assert_eq!(
        rules_fired(LIB, "fn f() { let _r = rand::thread_rng(); }"),
        [rules::WALLCLOCK_RNG]
    );
    assert_eq!(
        rules_fired(LIB, "fn f() { let _r = SmallRng::from_entropy(); }"),
        [rules::WALLCLOCK_RNG]
    );
}

#[test]
fn wallclock_rng_exempts_obs_and_binaries() {
    let src = "fn f() { let _t = std::time::Instant::now(); }";
    assert!(lint_source("crates/obs/src/recorder.rs", src).is_empty());
    assert!(lint_source("crates/x/src/bin/tool.rs", src).is_empty());
}

#[test]
fn wallclock_rng_allow_annotation_silences() {
    let src = "
        fn f() {
            // lint: allow(wallclock-rng) — coarse progress logging only
            let _t = std::time::Instant::now();
        }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

#[test]
fn nan_unsafe_cmp_fires_on_partial_cmp_and_float_equality() {
    assert_eq!(
        rules_fired(LIB, "fn f(a: f64, b: f64) { a.partial_cmp(&b); }"),
        [rules::NAN_UNSAFE_CMP]
    );
    assert_eq!(
        rules_fired(LIB, "fn f(a: f64) -> bool { a == 1.0 }"),
        [rules::NAN_UNSAFE_CMP]
    );
    assert_eq!(
        rules_fired(LIB, "fn f(a: f64) -> bool { 0.5 != a }"),
        [rules::NAN_UNSAFE_CMP]
    );
}

#[test]
fn nan_unsafe_cmp_leaves_safe_comparisons_alone() {
    assert!(lint_source(LIB, "fn f(a: f64, b: f64) { a.total_cmp(&b); }").is_empty());
    assert!(lint_source(LIB, "fn f(a: u64) -> bool { a == 1 }").is_empty());
    assert!(lint_source(LIB, "fn f(a: u64, b: u64) -> bool { a != b }").is_empty());
    assert!(lint_source(LIB, "fn f(a: u64) -> bool { a <= 1 }").is_empty());
}

#[test]
fn nan_unsafe_cmp_allow_annotation_silences() {
    let src = "
        fn f(a: f64) -> bool {
            // lint: allow(nan-unsafe-cmp) — sentinel is exact by contract
            a == 1.0
        }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

#[test]
fn allow_all_silences_every_rule() {
    let src = "
        fn f(v: &[f64], i: usize) -> bool {
            // lint: allow(all) — fixture exercising the blanket escape
            v[i].partial_cmp(&1.0).unwrap() == std::cmp::Ordering::Equal
        }
    ";
    assert!(lint_source(SIM, src).is_empty());
}

#[test]
fn findings_report_rule_line_and_message() {
    let findings = lint_source(LIB, "\n\nfn f() { Some(1).unwrap(); }");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, rules::NO_UNWRAP);
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("unwrap"));
    assert!(findings[0].to_string().contains("[no-unwrap]"));
    assert!(rules::ALL_RULES.contains(&findings[0].rule));
}

#[test]
fn comments_and_strings_never_fire() {
    let src = "
        // a comment mentioning .unwrap() and panic! goes unlinted
        /* Instant::now() in a block comment too */
        fn f() -> &'static str { \"contains .unwrap() and panic!\" }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

// ---- dataflow: atomic-ordering ----

fn workspace(files: &[(&str, &str)]) -> Vec<(String, &'static str, u32)> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_workspace(&owned, &[])
        .into_iter()
        .map(|(p, f)| (p, f.rule, f.line))
        .collect()
}

#[test]
fn atomic_ordering_fires_on_relaxed_load_of_released_atomic() {
    // The publisher lives in another file: only the workspace pass
    // can pair them.
    let writer = "fn publish() { GATE.store(true, Ordering::Release); }";
    let reader = "fn check() -> bool { GATE.load(Ordering::Relaxed) }";
    let found = workspace(&[("crates/a/src/w.rs", writer), ("crates/b/src/r.rs", reader)]);
    assert_eq!(
        found,
        [("crates/b/src/r.rs".to_string(), rules::ATOMIC_ORDERING, 1)]
    );
}

#[test]
fn atomic_ordering_fires_on_relaxed_store_against_acquire_load() {
    let writer = "fn publish() { GATE.store(true, Ordering::Relaxed); }";
    let reader = "fn check() -> bool { GATE.load(Ordering::Acquire) }";
    let found = workspace(&[("crates/a/src/w.rs", writer), ("crates/b/src/r.rs", reader)]);
    assert_eq!(
        found,
        [("crates/a/src/w.rs".to_string(), rules::ATOMIC_ORDERING, 1)]
    );
}

#[test]
fn atomic_ordering_stays_silent_on_symmetric_protocols() {
    // Fully relaxed gate (mutex elsewhere orders the data) — the
    // project's own pattern.
    let relaxed = "
        fn enable() { GATE.store(true, Ordering::Relaxed); }
        fn check() -> bool { GATE.load(Ordering::Relaxed) }
    ";
    assert!(lint_source(LIB, relaxed).is_empty());
    // Proper Release/Acquire pairing.
    let paired = "
        fn publish() { GATE.store(true, Ordering::Release); }
        fn check() -> bool { GATE.load(Ordering::Acquire) }
    ";
    assert!(lint_source(LIB, paired).is_empty());
    // Different receivers never pair up.
    let unrelated = "
        fn publish() { GATE_A.store(true, Ordering::Release); }
        fn check() -> bool { GATE_B.load(Ordering::Relaxed) }
    ";
    assert!(lint_source(LIB, unrelated).is_empty());
}

#[test]
fn atomic_ordering_relaxed_rmw_counter_is_fine() {
    // A stat counter bumped and read Relaxed has no publisher.
    let src = "
        fn bump() { HITS.fetch_add(1, Ordering::Relaxed); }
        fn read() -> u64 { HITS.load(Ordering::Relaxed) }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

#[test]
fn atomic_ordering_message_names_the_other_site() {
    let src = "
        fn publish() { GATE.store(true, Ordering::Release); }
        fn check() -> bool { GATE.load(Ordering::Relaxed) }
    ";
    let findings = lint_source("crates/a/src/g.rs", src);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("crates/a/src/g.rs:2"));
    assert!(findings[0].message.contains("Release"));
}

// ---- dataflow: lock-order ----

#[test]
fn lock_order_fires_on_opposite_acquisition_orders_across_files() {
    let ab = "fn f() { let _a = lock_a.lock(); let _b = lock_b.lock(); }";
    let ba = "fn g() { let _b = lock_b.lock(); let _a = lock_a.lock(); }";
    let found = workspace(&[("crates/a/src/f.rs", ab), ("crates/b/src/g.rs", ba)]);
    let rules_hit: Vec<&str> = found.iter().map(|(_, r, _)| *r).collect();
    assert_eq!(rules_hit, [rules::LOCK_ORDER, rules::LOCK_ORDER]);
    // Both directions are reported, each citing the other file.
    assert!(found.iter().any(|(p, _, _)| p.ends_with("f.rs")));
    assert!(found.iter().any(|(p, _, _)| p.ends_with("g.rs")));
}

#[test]
fn lock_order_stays_silent_on_consistent_order_and_reacquisition() {
    let consistent = workspace(&[
        (
            "crates/a/src/f.rs",
            "fn f() { let _a = lock_a.lock(); let _b = lock_b.lock(); }",
        ),
        (
            "crates/b/src/g.rs",
            "fn g() { let _a = lock_a.lock(); let _b = lock_b.lock(); }",
        ),
    ]);
    assert!(consistent.is_empty());
    // Sequential re-acquisition of the same mutex in one function is
    // not an ordering edge.
    let same = "fn f() { { let _r = ring.lock(); } let _r = ring.lock(); }";
    assert!(lint_source(LIB, same).is_empty());
}

// ---- dataflow: nondet-iteration ----

#[test]
fn nondet_iteration_fires_on_hash_iteration_and_for_loops() {
    let src = "
        struct S { index: HashMap<u64, u64> }
        fn f(s: &S) -> Vec<u64> { s.index.keys().copied().collect() }
    ";
    assert_eq!(rules_fired(LIB, src), [rules::NONDET_ITERATION]);
    let for_loop = "
        fn f(seen: HashSet<u64>, out: &mut Vec<u64>) {
            for v in &seen { out.push(*v); }
        }
    ";
    assert_eq!(rules_fired(LIB, for_loop), [rules::NONDET_ITERATION]);
}

#[test]
fn nondet_iteration_exempts_sorted_and_order_insensitive_sinks() {
    let sorted = "
        fn f(index: HashMap<u64, u64>) -> Vec<u64> {
            let mut v: Vec<u64> = index.keys().copied().collect(); v.sort(); v
        }
    ";
    // The `.collect()` feeding a later sort still fires at the
    // iteration site unless the sort is in the same statement — keep
    // the fixture honest about what the heuristic sees.
    let inline_sorted = "
        fn f(index: HashMap<u64, u64>) -> u64 { index.values().copied().sum() }
    ";
    assert!(lint_source(LIB, inline_sorted).is_empty());
    let btree = "
        fn f(index: HashMap<u64, u64>) -> BTreeMap<u64, u64> {
            index.iter().map(|(&k, &v)| (k, v)).collect::<BTreeMap<u64, u64>>()
        }
    ";
    assert!(lint_source(LIB, btree).is_empty());
    // Non-hash containers never fire.
    let vec_iter = "fn f(v: Vec<u64>) -> u64 { v.iter().next().copied().unwrap_or(0) }";
    assert!(lint_source(LIB, vec_iter).is_empty());
    // `sorted` (collect-then-sort across statements) is a known
    // firing shape; annotate it in real code or sort inline.
    assert_eq!(rules_fired(LIB, sorted), [rules::NONDET_ITERATION]);
}

#[test]
fn nondet_iteration_allow_annotation_silences() {
    let src = "
        fn f(index: HashMap<u64, u64>) -> u64 {
            // lint: allow(nondet-iteration) — max is order-insensitive
            let mut best = 0; for (_, &v) in &index { if v > best { best = v; } } best
        }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

// ---- unused-pub ----

/// Lints `files` against `callers` and returns `(path, rule, line)`.
fn with_callers(
    files: &[(&str, &str)],
    callers: &[(&str, &str)],
) -> Vec<(String, &'static str, u32)> {
    let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
        set.iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    };
    lint_workspace(&own(files), &own(callers))
        .into_iter()
        .map(|(p, f)| (p, f.rule, f.line))
        .collect()
}

#[test]
fn unused_pub_fires_on_a_pub_fn_nothing_calls() {
    let found = with_callers(&[(LIB, "pub fn dead() -> u64 { 1 }")], &[]);
    assert_eq!(found, [(LIB.to_string(), rules::UNUSED_PUB, 1)]);
}

#[test]
fn unused_pub_fires_on_a_struct_named_only_in_its_own_impls() {
    let src = "
        pub struct Lone(u64);
        impl Lone {
            fn make() -> Lone { Lone(1) }
        }
        impl<'a> core::fmt::Display for Lone {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result { Ok(()) }
        }
    ";
    assert_eq!(
        with_callers(&[(LIB, src)], &[]),
        [(LIB.to_string(), rules::UNUSED_PUB, 2)]
    );
}

#[test]
fn unused_pub_ignores_re_exports_and_test_code() {
    // Neither a `pub use` nor a test names the item for real.
    let item = "pub fn only_tested() {}";
    let lib = "
        pub use crate::item::only_tested;
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { super::only_tested(); }
        }
    ";
    let found = with_callers(&[("crates/x/src/item.rs", item), (LIB, lib)], &[]);
    assert_eq!(
        found,
        [("crates/x/src/item.rs".to_string(), rules::UNUSED_PUB, 1)]
    );
}

#[test]
fn unused_pub_is_silent_on_an_item_used_from_another_file() {
    let files = [
        ("crates/x/src/a.rs", "pub fn helper() -> u64 { 1 }"),
        ("crates/y/src/b.rs", "fn user() -> u64 { helper() }"),
    ];
    assert!(with_callers(&files, &[]).is_empty());
}

#[test]
fn unused_pub_is_silent_on_an_item_in_a_used_fns_signature() {
    let lib = "
        pub struct Config { pub pes: usize }
        pub fn run(config: &Config) -> usize { config.pes }
    ";
    let user = "fn main() { let _ = run; }";
    assert!(with_callers(&[(LIB, lib), ("crates/x/src/bin/tool.rs", user)], &[]).is_empty());
}

#[test]
fn unused_pub_counts_examples_and_the_benchmark_harness_as_callers() {
    let lib = "pub fn harness_only() {}";
    for caller in ["perfbench/src/main.rs", "examples/demo.rs"] {
        let found = with_callers(&[(LIB, lib)], &[(caller, "fn main() { harness_only(); }")]);
        assert!(found.is_empty(), "{caller}: {found:?}");
    }
}

#[test]
fn unused_pub_never_lints_caller_files() {
    let caller = "pub fn demo_helper() { Some(1).unwrap(); }";
    assert!(with_callers(&[], &[("examples/demo.rs", caller)]).is_empty());
}

#[test]
fn unused_pub_allow_annotation_silences() {
    let src = "
        // lint: allow(unused-pub) — fixture API kept on purpose
        pub fn kept() {}
    ";
    assert!(with_callers(&[(LIB, src)], &[]).is_empty());
    // Once something calls the item, the allow is stale.
    let used = "
        // lint: allow(unused-pub) — no longer needed
        pub fn used() {}
        fn caller() { used(); }
    ";
    assert_eq!(
        with_callers(&[(LIB, used)], &[]),
        [(LIB.to_string(), rules::STALE_ALLOW, 2)]
    );
}

#[test]
fn unused_pub_only_runs_workspace_wide() {
    // One file has no callers, so the single-file entry point skips
    // the rule, and restricted visibility is the compiler's business.
    assert!(lint_source(LIB, "pub fn lonely() {}").is_empty());
    let allowed = "// lint: allow(unused-pub) — kept\npub fn kept() {}";
    assert!(lint_source(LIB, allowed).is_empty(), "not audited as stale");
    assert!(with_callers(&[(LIB, "pub(crate) fn inner() {}")], &[]).is_empty());
}

// ---- stale-allow ----

#[test]
fn stale_allow_fires_on_dead_annotations_and_unknown_rules() {
    let dead = "
        fn f() -> u64 {
            // lint: allow(no-unwrap) — nothing here unwraps anymore
            1
        }
    ";
    let findings = lint_source(LIB, dead);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, rules::STALE_ALLOW);
    assert_eq!(findings[0].line, 3);

    let unknown = "
        fn f() {
            // lint: allow(no-unwraps) — typo'd rule name
            Some(1).unwrap();
        }
    ";
    let findings = lint_source(LIB, unknown);
    // The typo'd allow suppresses nothing, so the unwrap fires too.
    let hit: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(hit, [rules::STALE_ALLOW, rules::NO_UNWRAP]);
    assert!(findings[0].message.contains("unknown rule"));
}

#[test]
fn stale_allow_stays_silent_when_the_rule_fires_or_in_test_code() {
    let live = "
        fn f() {
            // lint: allow(no-unwrap) — value exists by construction
            Some(1).unwrap();
        }
    ";
    assert!(lint_source(LIB, live).is_empty());
    // Annotations on stripped test code are never audited.
    let test_code = "
        #[cfg(test)]
        mod tests {
            fn helper() {
                // lint: allow(no-unwrap) — test helper
                Some(1).unwrap();
            }
        }
    ";
    assert!(lint_source(LIB, test_code).is_empty());
}

#[test]
fn stale_allow_has_its_own_escape_hatch() {
    let src = "
        fn f() -> u64 {
            // lint: allow(stale-allow) — kept while the migration lands
            // lint: allow(no-unwrap) — nothing unwraps during the migration window
            1
        }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

// ---- lexer edge cases ----

#[test]
fn nested_block_comments_three_deep_are_stripped() {
    let src = "
        /* one /* two /* three .unwrap() */ still two */ still one */
        fn f() -> u64 { 1 }
    ";
    assert!(lint_source(LIB, src).is_empty());
}

#[test]
fn raw_strings_containing_comment_closers_do_not_derail_the_lexer() {
    // If the lexer mis-handled the `*/` or `//` inside the raw string
    // it would swallow the `.unwrap()` that follows.
    let src = "fn f() { let _s = r#\"*/ // not a comment \"#; Some(1).unwrap(); }";
    assert_eq!(rules_fired(LIB, src), [rules::NO_UNWRAP]);
}

#[test]
fn multiline_raw_strings_keep_line_numbers_straight() {
    let src =
        "fn f() {\n    let _s = r#\"line one\nline two\nline three\"#;\n    Some(1).unwrap();\n}\n";
    let findings = lint_source(LIB, src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 5, "unwrap sits on source line 5");
}

#[test]
fn escaped_newline_string_continuations_keep_line_numbers_straight() {
    // A `\` before the newline continues the string; the newline is
    // still a source line.
    let src = "fn f() {\n    let _s = \"continued \\\nhere\";\n    Some(1).unwrap();\n}\n";
    let findings = lint_source(LIB, src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 4, "unwrap sits on source line 4");
}

#[test]
fn doc_comments_do_not_register_allow_annotations() {
    // Prose *describing* the escape hatch must not create one — nor
    // count as stale.
    let src = "
        /// Use `// lint: allow(no-unwrap)` on the line above the call.
        fn f() { Some(1).unwrap(); }
        //! And `// lint: allow(all)` suppresses every rule.
    ";
    assert_eq!(rules_fired(LIB, src), [rules::NO_UNWRAP]);
    // A `////` banner is a plain comment, not a doc comment — but
    // plain comments *do* register.
    let banner = "
        //// lint: allow(no-unwrap) — banner comment still counts
        fn f() { Some(1).unwrap(); }
    ";
    assert!(lint_source(LIB, banner).is_empty());
}
