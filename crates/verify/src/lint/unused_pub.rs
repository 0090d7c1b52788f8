//! The `unused-pub` rule: a bare `pub` item that nothing outside its
//! own declaration names.
//!
//! Pass 1 records, per file, every bare-`pub` item (`fn`, `struct`,
//! `enum`, `union`, `trait`, `type`, `const`, `static`; `pub(crate)`
//! and friends are the compiler's business), every `impl` block with
//! its self type, and every identifier outside a `pub use` re-export.
//! Pass 2 keeps an item alive when its name occurs anywhere else in
//! the workspace's non-test code — outside the item's own tokens and,
//! for a type, outside the `impl` blocks of that type. Caller-only
//! files (examples, benches, the benchmark harness) count as uses but
//! declare nothing.
//!
//! Matching is by name, like the dataflow rules: an item that shares
//! its name with anything live stays silent, which makes the rule
//! sound for deletion (it never flags a used item) but blind to dead
//! items with common names.

use std::collections::HashMap;
use std::ops::Range;

use super::lexer::{Tok, TokKind};
use super::rules::UNUSED_PUB;
use super::Finding;

/// One bare-`pub` item.
#[derive(Debug)]
struct PubItem {
    name: String,
    kind: &'static str,
    line: u32,
    /// Token range of the whole item, `pub` through its end.
    span: Range<usize>,
}

/// One identifier occurrence that may count as a use.
#[derive(Debug)]
struct Mention {
    index: usize,
    /// The self type of the innermost enclosing `impl` block, if any.
    impl_of: Option<String>,
}

/// Per-file facts for the rule.
#[derive(Debug, Default)]
pub(crate) struct FileNames {
    items: Vec<PubItem>,
    mentions: HashMap<String, Vec<Mention>>,
}

const ITEM_KINDS: [&str; 8] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static",
];
/// Kinds whose own `impl` blocks do not count as uses.
const TYPE_KINDS: [&str; 5] = ["struct", "enum", "union", "trait", "type"];

fn ident(ts: &[Tok], i: usize) -> Option<&str> {
    ts.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// Index just past the item starting at `start`: the `}` closing its
/// first brace block, or the first `;` outside braces.
fn item_end(ts: &[Tok], start: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in ts.iter().enumerate().skip(start) {
        match t.kind {
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
    }
    ts.len()
}

/// The item a bare `pub` at `i` introduces: its kind keyword and its
/// name. `None` for fields, `pub use`, `pub mod` and
/// restricted visibility.
fn pub_item(ts: &[Tok], i: usize) -> Option<(&'static str, &str)> {
    if ts.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let mut j = i + 1;
    // Qualifiers: `const fn`, `async fn`, `unsafe fn`, `extern "C" fn`.
    loop {
        match ident(ts, j) {
            Some("async" | "unsafe" | "extern") => j += 1,
            Some("const") if ident(ts, j + 1).is_some_and(|n| n == "fn" || n == "unsafe") => {
                j += 1;
            }
            _ if ts.get(j).is_some_and(|t| t.kind == TokKind::Literal) => j += 1,
            _ => break,
        }
    }
    let kind = ITEM_KINDS.into_iter().find(|k| ident(ts, j) == Some(*k))?;
    let mut name_at = j + 1;
    if kind == "static" && ident(ts, name_at) == Some("mut") {
        name_at += 1;
    }
    Some((kind, ident(ts, name_at)?))
}

/// Index just past the `>` closing the `<` at `open`; `->` inside a
/// bound is not a closing bracket.
fn close_angle(ts: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in ts.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && ts[k - 1].is_punct('-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k + 1;
            }
        }
    }
    ts.len()
}

/// The self type of an `impl` header (the tokens between `impl` and
/// its `{`): the last path segment after a top-level `for`, or after
/// the impl's own generics when there is none, so both
/// `impl<T: Into<u64>> Wrapper<T>` and `impl fmt::Display for Wrapper`
/// name `Wrapper`.
fn impl_self_type(header: &[Tok]) -> Option<String> {
    let mut begin = if header.first().is_some_and(|t| t.is_punct('<')) {
        close_angle(header, 0)
    } else {
        0
    };
    let mut end = header.len();
    let mut k = begin;
    while k < end {
        if header[k].is_punct('<') {
            k = close_angle(header, k);
            continue;
        }
        match ident(header, k) {
            Some("for") => begin = k + 1,
            Some("where") => end = k,
            _ => {}
        }
        k += 1;
    }
    last_segment(header.get(begin..end)?)
}

/// The last identifier at angle depth 0: `a::b::Name<T>` → `Name`.
fn last_segment(path: &[Tok]) -> Option<String> {
    let mut depth = 0i32;
    let mut last = None;
    for (k, t) in path.iter().enumerate() {
        match t.kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if !(k > 0 && path[k - 1].is_punct('-')) => depth -= 1,
            TokKind::Ident if depth == 0 && t.text != "dyn" && t.text != "mut" => {
                last = Some(t.text.clone());
            }
            _ => {}
        }
    }
    last
}

/// Pass 1 over one test-stripped token stream. `declares` is false
/// for caller-only files.
pub(crate) fn collect_file(ts: &[Tok], declares: bool) -> FileNames {
    let mut facts = FileNames::default();
    // Open `impl` blocks as (self type, index of the closing brace).
    let mut impls: Vec<(Option<String>, usize)> = Vec::new();
    let mut skip_until = 0usize;
    for (i, tok) in ts.iter().enumerate() {
        impls.retain(|&(_, end)| end > i);
        if tok.kind != TokKind::Ident || i < skip_until {
            continue;
        }
        match tok.text.as_str() {
            "pub" if ident(ts, i + 1) == Some("use") => {
                // A re-export names the item without using it.
                skip_until = item_end(ts, i);
                continue;
            }
            "pub" if declares => {
                if let Some((kind, name)) = pub_item(ts, i) {
                    facts.items.push(PubItem {
                        name: name.to_owned(),
                        kind,
                        line: tok.line,
                        span: i..item_end(ts, i),
                    });
                }
            }
            // An `impl` block, not `-> impl Trait` or `x: impl Trait`.
            "impl"
                if i == 0
                    || matches!(ts[i - 1].kind, TokKind::Punct(';' | '{' | '}' | ']'))
                    || ident(ts, i - 1) == Some("unsafe") =>
            {
                if let Some(brace) = (i + 1..ts.len()).find(|&k| ts[k].is_punct('{')) {
                    impls.push((impl_self_type(&ts[i + 1..brace]), item_end(ts, brace)));
                }
            }
            _ => {}
        }
        facts
            .mentions
            .entry(tok.text.clone())
            .or_default()
            .push(Mention {
                index: i,
                impl_of: impls.last().and_then(|(ty, _)| ty.clone()),
            });
    }
    facts
}

/// Pass 2: every declared item whose name no other code mentions.
/// Returns `(file index, finding)` pairs.
pub(crate) fn cross_file(files: &[FileNames]) -> Vec<(usize, Finding)> {
    let mut findings = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for item in &file.items {
            let is_type = TYPE_KINDS.contains(&item.kind);
            let used = files.iter().enumerate().any(|(mi, other)| {
                other.mentions.get(&item.name).is_some_and(|mentions| {
                    mentions.iter().any(|m| {
                        let own = mi == fi && item.span.contains(&m.index);
                        let own_impl = is_type && m.impl_of.as_deref() == Some(&item.name);
                        !own && !own_impl
                    })
                })
            });
            if !used {
                findings.push((
                    fi,
                    Finding {
                        rule: UNUSED_PUB,
                        line: item.line,
                        message: format!(
                            "`pub {} {}` is named by no other non-test code in the workspace; \
                             delete it or annotate why it stays",
                            item.kind, item.name
                        ),
                    },
                ));
            }
        }
    }
    findings
}
