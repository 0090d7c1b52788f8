//! The project lint engine — a token-level scanner over workspace
//! sources with **no external dependencies**.
//!
//! Rules (see [`rules`]):
//!
//! | rule | what it denies | where |
//! |---|---|---|
//! | `no-unwrap` | `.unwrap()`, `.expect()`, `panic!` | non-test library code (binaries exempt) |
//! | `unchecked-index` | `x[i]` slice indexing | `pim::sim` and `alloc` hot paths |
//! | `wallclock-rng` | `Instant::now`, `SystemTime::now`, `thread_rng`, `from_entropy` | deterministic sweep paths |
//! | `nan-unsafe-cmp` | `partial_cmp`, `== 1.0` float equality | everywhere |
//! | `atomic-ordering` | `Relaxed` load of a `Release`-published atomic (and the converse) | cross-file, by receiver name |
//! | `lock-order` | two mutexes acquired in opposite orders | cross-file, per function |
//! | `nondet-iteration` | `HashMap`/`HashSet` iteration without a sort or order-insensitive sink | per file |
//! | `unused-pub` | a bare `pub` item no other non-test code names | workspace-wide, callers included |
//! | `stale-allow` | an `allow(...)` whose rule no longer fires there | per file, after all other rules |
//!
//! The first four are token rules over one file at a time. The
//! dataflow rules (see [`dataflow`]) and `unused-pub` collect per-file
//! facts in a first pass and analyze them workspace-wide in a second —
//! which is why the walker feeds every file to one [`lint_workspace`]
//! call instead of linting file by file. `unused-pub` also reads
//! caller-only files (examples, benches, the benchmark harness): their
//! mentions keep an item alive, but they are never linted.
//!
//! `#[cfg(test)]` modules, `#[test]` functions, comments (including
//! doc-comment examples) and string literals are never scanned.
//!
//! The escape hatch is an inline annotation on the offending line or
//! the line directly above it:
//!
//! ```text
//! // lint: allow(no-unwrap) — capacity was validated at build time
//! let slot = table.get(i).unwrap();
//! ```
//!
//! `// lint: allow(all)` suppresses every rule for one line.
//! Annotations are themselves audited: one whose rule no longer fires
//! on the annotated line is reported as `stale-allow` (suppressed, if
//! deliberate, by an adjacent `allow(stale-allow)`), and one naming a
//! rule the engine does not know is always stale. Doc comments never
//! register annotations — prose describing the escape hatch is not an
//! escape hatch. The `paraconv-verify` binary walks the workspace,
//! prints unsuppressed findings as `path:line: [rule] message` and
//! exits non-zero when any exist.

pub mod dataflow;
mod lexer;
pub mod rules;
mod unused_pub;

use std::collections::BTreeSet;

use lexer::{lex, Lexed, Tok, TokKind};

/// One unsuppressed lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of [`rules::ALL_RULES`]).
    pub rule: &'static str,
    /// The 1-based source line.
    pub line: u32,
    /// A human-readable explanation.
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: [{}] {}", self.line, self.rule, self.message)
    }
}

/// Lints one source file in isolation. `path` selects the path-scoped
/// rules (indexing hot paths, wall-clock exemptions); `source` is the
/// file content. Returns the findings that survive
/// `// lint: allow(...)` annotations, sorted by line. Dataflow rules
/// see only this one file — cross-file pairings need
/// [`lint_workspace`] — and `unused-pub` does not run: one file has
/// no callers.
#[must_use]
// lint: allow(unused-pub) — the single-file entry point of the rule fixtures
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(path.to_string(), source.to_string())], None)
        .into_iter()
        .map(|(_, f)| f)
        .collect()
}

/// Per-file state carried between the two lint passes.
struct FileCtx {
    lexed: Lexed,
    /// Lines holding at least one token after test stripping.
    live_lines: BTreeSet<u32>,
    /// Lines holding at least one token before test stripping.
    raw_lines: BTreeSet<u32>,
    /// Pre-suppression findings (token rules, then dataflow rules).
    findings: Vec<Finding>,
}

/// Lints a whole workspace in two passes: per-file token rules and
/// fact collection first, then the cross-file dataflow rules,
/// `unused-pub` and the `stale-allow` audit over the combined result.
/// `files` are linted; `callers` (examples, benches, the benchmark
/// harness) are only read as users of the linted files' `pub` items.
/// Returns `(path, finding)` pairs that survive suppression, sorted
/// by path then line.
#[must_use]
pub fn lint_workspace(
    files: &[(String, String)],
    callers: &[(String, String)],
) -> Vec<(String, Finding)> {
    lint_files(files, Some(callers))
}

/// [`lint_workspace`], with `unused-pub` only when `callers` is given.
fn lint_files(
    files: &[(String, String)],
    callers: Option<&[(String, String)]>,
) -> Vec<(String, Finding)> {
    // Pass 1: lex, strip tests, run token rules, collect facts.
    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(files.len());
    let mut facts: Vec<(String, dataflow::FileDataflow)> = Vec::with_capacity(files.len());
    let mut names: Vec<unused_pub::FileNames> = Vec::new();
    for (path, source) in files {
        let lexed = lex(source);
        let stripped = strip_test_items(&lexed.tokens);
        let findings = rules::scan(path, &stripped);
        facts.push((path.clone(), dataflow::collect_file(&stripped)));
        if callers.is_some() {
            names.push(unused_pub::collect_file(&stripped, true));
        }
        ctxs.push(FileCtx {
            live_lines: stripped.iter().map(|t| t.line).collect(),
            raw_lines: lexed.tokens.iter().map(|t| t.line).collect(),
            lexed,
            findings,
        });
    }

    // Pass 2: cross-file dataflow rules, then unused-pub with the
    // caller-only files appended after the linted ones.
    for (fi, finding) in dataflow::cross_file(&facts) {
        ctxs[fi].findings.push(finding);
    }
    for (_, source) in callers.unwrap_or_default() {
        let lexed = lex(source);
        names.push(unused_pub::collect_file(
            &strip_test_items(&lexed.tokens),
            false,
        ));
    }
    for (fi, finding) in unused_pub::cross_file(&names) {
        ctxs[fi].findings.push(finding);
    }

    // stale-allow audit: runs over the complete pre-suppression
    // finding set, so an allow is stale exactly when removing it would
    // change nothing.
    for ctx in &mut ctxs {
        let stale = stale_allow_findings(ctx, callers.is_some());
        ctx.findings.extend(stale);
    }

    // Suppression, then a stable global order.
    let mut out = Vec::new();
    for ((path, _), ctx) in files.iter().zip(ctxs) {
        let mut findings = ctx.findings;
        findings.retain(|f| {
            let allowed_on = |line: u32| {
                ctx.lexed
                    .allows
                    .get(&line)
                    .is_some_and(|rules| rules.iter().any(|r| r == f.rule || r == "all"))
            };
            !(allowed_on(f.line) || (f.line > 1 && allowed_on(f.line - 1)))
        });
        findings.sort_by_key(|f| (f.line, f.rule));
        out.extend(findings.into_iter().map(|f| (path.clone(), f)));
    }
    out.sort_by(|a, b| (a.0.as_str(), a.1.line, a.1.rule).cmp(&(b.0.as_str(), b.1.line, b.1.rule)));
    out
}

/// Audits every `// lint: allow(...)` annotation in one file against
/// its pre-suppression findings. An annotation is stale when the named
/// rule (or, for `all`, any rule) does not fire on the annotated line
/// or the line below — the two lines the annotation would suppress.
/// Annotations attached to stripped test code are skipped, as are
/// `allow(stale-allow)` markers (the meta escape hatch) and, when
/// `unused-pub` did not run, its allows.
fn stale_allow_findings(ctx: &FileCtx, unused_pub_ran: bool) -> Vec<Finding> {
    let mut stale = Vec::new();
    let mut lines: Vec<&u32> = ctx.lexed.allows.keys().collect();
    lines.sort_unstable();
    for &line in lines {
        let covered = [line, line + 1];
        let live = covered.iter().any(|l| ctx.live_lines.contains(l));
        let raw = covered.iter().any(|l| ctx.raw_lines.contains(l));
        // Annotation on test-only code: the rules never saw it.
        if raw && !live {
            continue;
        }
        for rule in &ctx.lexed.allows[&line] {
            if rule == rules::STALE_ALLOW || (rule == rules::UNUSED_PUB && !unused_pub_ran) {
                continue;
            }
            let known = rule == "all" || rules::ALL_RULES.contains(&rule.as_str());
            if !known {
                stale.push(Finding {
                    rule: rules::STALE_ALLOW,
                    line,
                    message: format!("allow names unknown rule `{rule}`; remove or fix the name"),
                });
                continue;
            }
            let fires = ctx
                .findings
                .iter()
                .any(|f| covered.contains(&f.line) && (rule == "all" || f.rule == rule.as_str()));
            if !fires {
                stale.push(Finding {
                    rule: rules::STALE_ALLOW,
                    line,
                    message: format!(
                        "allow(`{rule}`) no longer suppresses anything here; remove it"
                    ),
                });
            }
        }
    }
    stale
}

/// Removes `#[cfg(test)]` / `#[test]` items (attributes, the item
/// head, and its body) from the token stream, so test code is never
/// linted. `#[cfg(not(test))]` is production code and is kept.
fn strip_test_items(tokens: &[Tok]) -> Vec<Tok> {
    let mut out: Vec<Tok> = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = matching(tokens, i + 1, '[', ']');
            let inner = &tokens[i + 2..close.min(tokens.len())];
            let is_test_attr = inner.iter().any(|t| t.is_ident("test"))
                && !inner.iter().any(|t| t.is_ident("not"));
            if is_test_attr {
                // Skip any further attributes, then the whole item.
                let mut j = close + 1;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    j = matching(tokens, j + 1, '[', ']') + 1;
                }
                i = skip_item(tokens, j);
                continue;
            }
            // A kept attribute: copy it wholesale so its brackets never
            // look like indexing.
            for tok in &tokens[i..=close.min(tokens.len() - 1)] {
                out.push(tok.clone());
            }
            i = close + 1;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Index of the token closing the bracket opened at `open`.
fn matching(tokens: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct(open_c) {
            depth += 1;
        } else if tokens[j].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Index just past one item starting at `start`: either the matching
/// `}` of its first brace block, or the first `;` outside any braces.
fn skip_item(tokens: &[Tok], start: usize) -> usize {
    let mut depth = 0usize;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            TokKind::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_are_not_linted() {
        let src = "
            pub fn lib() -> u64 { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!(\"boom\"); }
            }
        ";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "
            #[cfg(not(test))]
            pub fn lib() { Some(1).unwrap(); }
        ";
        let findings = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, rules::NO_UNWRAP);
    }

    #[test]
    fn allow_on_the_line_above_suppresses() {
        let src = "
            pub fn lib() {
                // lint: allow(no-unwrap) validated by the builder
                Some(1).unwrap();
            }
        ";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allow_of_a_different_rule_does_not_suppress() {
        let src = "
            pub fn lib() {
                // lint: allow(wallclock-rng)
                Some(1).unwrap();
            }
        ";
        // The unwrap still fires — and the mismatched annotation is
        // itself reported as stale.
        let findings = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].rule, rules::STALE_ALLOW);
        assert_eq!(findings[1].rule, rules::NO_UNWRAP);
    }

    #[test]
    fn doc_examples_are_not_findings() {
        let src = "
            /// ```
            /// let x = foo().unwrap();
            /// ```
            pub fn foo() -> Option<u64> { None }
        ";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn indexing_fires_only_on_hot_paths() {
        let src = "pub fn f(v: &[u64], i: usize) -> u64 { v[i] }";
        assert!(lint_source("crates/graph/src/graph.rs", src).is_empty());
        let hot = lint_source("crates/pim/src/sim.rs", src);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].rule, rules::UNCHECKED_INDEX);
    }

    #[test]
    fn panic_path_calls_are_not_macro_findings() {
        // `std::panic::resume_unwind` is not `panic!`.
        let src = "pub fn f(p: Box<dyn std::any::Any + Send>) { std::panic::resume_unwind(p) }";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }
}
