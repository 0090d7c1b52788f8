//! The lint rule set, matched over the stripped token stream.

use super::lexer::{Tok, TokKind};
use super::Finding;

/// Deny `unwrap()` / `expect()` / `panic!` in non-test library code.
pub const NO_UNWRAP: &str = "no-unwrap";
/// Flag unchecked slice indexing in the simulator and allocator hot
/// paths.
pub const UNCHECKED_INDEX: &str = "unchecked-index";
/// Forbid wall-clock and RNG calls in deterministic sweep paths.
pub const WALLCLOCK_RNG: &str = "wallclock-rng";
/// Flag NaN-unsafe `f64` comparisons.
pub const NAN_UNSAFE_CMP: &str = "nan-unsafe-cmp";
/// Dataflow rule: a `Relaxed` atomic load paired (by receiver name,
/// across files) with a `Release`-or-stronger publisher — or a
/// `Relaxed` store paired with an `Acquire`-or-stronger load. Either
/// half alone provides no happens-before edge.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Dataflow rule: two mutexes acquired in opposite orders by
/// different functions anywhere in the workspace — the classic ABBA
/// deadlock shape.
pub const LOCK_ORDER: &str = "lock-order";
/// Dataflow rule: iterating a `HashMap`/`HashSet` into ordered output
/// without sorting or an order-insensitive sink; iteration order is
/// nondeterministic across runs.
pub const NONDET_ITERATION: &str = "nondet-iteration";
/// Workspace rule: a bare `pub` item whose name no other non-test
/// code in the workspace (examples, benches and the benchmark harness
/// included) mentions — dead surface that only its own tests reach.
pub const UNUSED_PUB: &str = "unused-pub";
/// Meta rule: a `// lint: allow(...)` annotation naming a rule that no
/// longer fires on the annotated line — the escape hatch outlived the
/// finding and should be removed.
pub const STALE_ALLOW: &str = "stale-allow";

/// Every rule the engine knows, for `allow(...)` validation and docs.
pub const ALL_RULES: [&str; 9] = [
    NO_UNWRAP,
    UNCHECKED_INDEX,
    WALLCLOCK_RNG,
    NAN_UNSAFE_CMP,
    ATOMIC_ORDERING,
    LOCK_ORDER,
    NONDET_ITERATION,
    UNUSED_PUB,
    STALE_ALLOW,
];

/// The no-unwrap rule targets *library* code: binaries may abort on
/// bad invocations, that is their error channel.
fn unwrap_applies(path: &str) -> bool {
    !path.contains("/bin/")
}

/// Paths whose hot loops get the unchecked-indexing rule.
fn indexing_applies(path: &str) -> bool {
    path.contains("pim/src/sim.rs") || path.contains("alloc/src/")
}

/// Paths exempt from the wall-clock/RNG rule: the observability crate
/// measures real time by design, binaries and benches are not on the
/// deterministic sweep path.
fn wallclock_applies(path: &str) -> bool {
    !(path.contains("obs/src/") || path.contains("/bin/") || path.contains("/benches/"))
}

fn punct_at(ts: &[Tok], i: usize, c: char) -> bool {
    ts.get(i).is_some_and(|t| t.is_punct(c))
}

fn ident_at(ts: &[Tok], i: usize) -> Option<&str> {
    ts.get(i).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn float_at(ts: &[Tok], i: usize) -> bool {
    ts.get(i).is_some_and(|t| t.kind == TokKind::Float)
}

/// Runs every applicable rule over a stripped token stream.
pub(crate) fn scan(path: &str, ts: &[Tok]) -> Vec<Finding> {
    let path = path.replace('\\', "/");
    let check_unwrap = unwrap_applies(&path);
    let check_index = indexing_applies(&path);
    let check_wallclock = wallclock_applies(&path);
    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        findings.push(Finding {
            rule,
            line,
            message,
        });
    };

    for i in 0..ts.len() {
        let tok = &ts[i];
        match tok.kind {
            TokKind::Ident => {
                let name = tok.text.as_str();
                // no-unwrap: `.unwrap(` / `.expect(` / `panic!`.
                if check_unwrap
                    && (name == "unwrap" || name == "expect")
                    && i > 0
                    && punct_at(ts, i - 1, '.')
                    && punct_at(ts, i + 1, '(')
                {
                    push(
                        NO_UNWRAP,
                        tok.line,
                        format!("`.{name}()` in library code; return a typed error or annotate"),
                    );
                }
                if check_unwrap && name == "panic" && punct_at(ts, i + 1, '!') {
                    push(
                        NO_UNWRAP,
                        tok.line,
                        "`panic!` in library code; return a typed error or annotate".to_string(),
                    );
                }
                // wallclock-rng: `Instant::now` / `SystemTime::now`,
                // `thread_rng`, `from_entropy`.
                if check_wallclock {
                    if (name == "Instant" || name == "SystemTime")
                        && punct_at(ts, i + 1, ':')
                        && punct_at(ts, i + 2, ':')
                        && ident_at(ts, i + 3) == Some("now")
                    {
                        push(
                            WALLCLOCK_RNG,
                            tok.line,
                            format!("`{name}::now` in a deterministic path; results become time-dependent"),
                        );
                    }
                    if name == "thread_rng" || name == "from_entropy" {
                        push(
                            WALLCLOCK_RNG,
                            tok.line,
                            format!("`{name}` draws OS entropy; use a pinned seed"),
                        );
                    }
                }
                // nan-unsafe-cmp: `.partial_cmp(`.
                if name == "partial_cmp"
                    && i > 0
                    && punct_at(ts, i - 1, '.')
                    && punct_at(ts, i + 1, '(')
                {
                    push(
                        NAN_UNSAFE_CMP,
                        tok.line,
                        "`partial_cmp` is None on NaN; prefer `total_cmp`".to_string(),
                    );
                }
            }
            TokKind::Punct('[') if check_index => {
                // A '[' right after an ident, ')' or ']' is indexing;
                // macro invocations (`vec![`) put a '!' in between and
                // never match.
                let indexes = i > 0
                    && matches!(
                        ts[i - 1].kind,
                        TokKind::Ident | TokKind::Punct(')') | TokKind::Punct(']')
                    );
                if indexes {
                    push(
                        UNCHECKED_INDEX,
                        tok.line,
                        "unchecked slice index in a hot path; prefer `get` or annotate the bounds proof"
                            .to_string(),
                    );
                }
            }
            TokKind::Punct('=') if punct_at(ts, i + 1, '=') => {
                // `a == 1.0` / `1.0 == a`; skip the second '=' of `==`
                // and compound tokens like `<=` (their first char is
                // not '=').
                let prev_is_eq_or_bang =
                    i > 0 && (punct_at(ts, i - 1, '=') || punct_at(ts, i - 1, '!'));
                if !prev_is_eq_or_bang && (float_at(ts, i + 2) || (i > 0 && float_at(ts, i - 1))) {
                    push(
                        NAN_UNSAFE_CMP,
                        tok.line,
                        "exact float equality; compare within an epsilon or use bit patterns"
                            .to_string(),
                    );
                }
            }
            TokKind::Punct('!')
                if punct_at(ts, i + 1, '=')
                    && (float_at(ts, i + 2) || (i > 0 && float_at(ts, i - 1))) =>
            {
                push(
                    NAN_UNSAFE_CMP,
                    tok.line,
                    "exact float inequality; compare within an epsilon or use bit patterns"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
    findings
}
