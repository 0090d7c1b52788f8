//! Dataflow-aware lint rules that walk beyond single tokens: facts are
//! collected per file (atomic operation sites, per-function lock
//! acquisition sequences, hash-container bindings), then analyzed
//! across the whole workspace in a second pass.
//!
//! Receivers are matched **by name** (`ENABLED.load(..)` and a
//! hypothetical second `ENABLED` in another crate would be grouped
//! together); the workspace keeps its atomics uniquely named, and the
//! `// lint: allow(...)` escape hatch covers deliberate exceptions.

use super::lexer::{Tok, TokKind};
use super::rules::{ATOMIC_ORDERING, LOCK_ORDER, NONDET_ITERATION};
use super::Finding;

/// What an atomic call site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `load`
    Load,
    /// `store`
    Store,
    /// `fetch_*`, `swap`, `compare_exchange*` — read-modify-write.
    Rmw,
}

/// The `Ordering` argument at an atomic call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOrd {
    /// `Ordering::Relaxed`
    Relaxed,
    /// `Ordering::Acquire`
    Acquire,
    /// `Ordering::Release`
    Release,
    /// `Ordering::AcqRel`
    AcqRel,
    /// `Ordering::SeqCst`
    SeqCst,
}

impl AtomicOrd {
    const fn name(self) -> &'static str {
        match self {
            AtomicOrd::Relaxed => "Relaxed",
            AtomicOrd::Acquire => "Acquire",
            AtomicOrd::Release => "Release",
            AtomicOrd::AcqRel => "AcqRel",
            AtomicOrd::SeqCst => "SeqCst",
        }
    }

    /// Does a load with this ordering synchronize with a release
    /// store?
    const fn acquires(self) -> bool {
        matches!(
            self,
            AtomicOrd::Acquire | AtomicOrd::AcqRel | AtomicOrd::SeqCst
        )
    }

    /// Does a store with this ordering publish prior writes?
    const fn releases(self) -> bool {
        matches!(
            self,
            AtomicOrd::Release | AtomicOrd::AcqRel | AtomicOrd::SeqCst
        )
    }
}

/// One atomic operation site: receiver name, operation, ordering,
/// line. Public so regression tests can pin the orderings of audited
/// sites in the real sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    /// The receiver's final path segment (`ENABLED`, `cursor`, …).
    pub receiver: String,
    /// Load, store or RMW.
    pub op: AtomicOp,
    /// The first `Ordering::…` argument at the call.
    pub ordering: AtomicOrd,
    /// 1-based source line.
    pub line: u32,
}

/// Extracts every atomic operation site from `source` (test items
/// stripped), for dataflow analysis and for ordering-pin regression
/// tests over the real workspace sources.
#[must_use]
// lint: allow(unused-pub) — the ordering-pin tests read the real sources through it
pub fn atomic_sites(source: &str) -> Vec<AtomicSite> {
    let lexed = super::lexer::lex(source);
    let stripped = super::strip_test_items(&lexed.tokens);
    collect_atomics(&stripped)
}

const RMW_METHODS: [&str; 9] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

fn ident_at(ts: &[Tok], i: usize) -> Option<&str> {
    ts.get(i).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn punct_at(ts: &[Tok], i: usize, c: char) -> bool {
    ts.get(i).is_some_and(|t| t.is_punct(c))
}

/// Index of the `)` matching the `(` at `open`.
fn close_paren(ts: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < ts.len() {
        if ts[j].is_punct('(') {
            depth += 1;
        } else if ts[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    ts.len().saturating_sub(1)
}

/// The receiver's final path segment for a method call whose `.` sits
/// at `dot`: `cursor.load` → `cursor`, `self.flag.store` → `flag`,
/// `ring().lock` → `ring`. `None` for shapes the heuristic cannot
/// name (chained temporaries, indexing).
fn receiver_before(ts: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = dot - 1;
    match ts[prev].kind {
        TokKind::Ident => Some(ts[prev].text.clone()),
        TokKind::Punct(')') => {
            // Walk back to the matching '(' and name the call target.
            let mut depth = 0usize;
            let mut j = prev;
            loop {
                if ts[j].is_punct(')') {
                    depth += 1;
                } else if ts[j].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            if j == 0 {
                return None;
            }
            match ts[j - 1].kind {
                TokKind::Ident => Some(ts[j - 1].text.clone()),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The first `Ordering::X` inside `ts[open..=close]`.
fn ordering_in_args(ts: &[Tok], open: usize, close: usize) -> Option<AtomicOrd> {
    let mut j = open;
    while j + 3 <= close {
        if ident_at(ts, j) == Some("Ordering")
            && punct_at(ts, j + 1, ':')
            && punct_at(ts, j + 2, ':')
        {
            return match ident_at(ts, j + 3) {
                Some("Relaxed") => Some(AtomicOrd::Relaxed),
                Some("Acquire") => Some(AtomicOrd::Acquire),
                Some("Release") => Some(AtomicOrd::Release),
                Some("AcqRel") => Some(AtomicOrd::AcqRel),
                Some("SeqCst") => Some(AtomicOrd::SeqCst),
                _ => None,
            };
        }
        j += 1;
    }
    None
}

fn collect_atomics(ts: &[Tok]) -> Vec<AtomicSite> {
    let mut sites = Vec::new();
    for i in 0..ts.len() {
        let Some(name) = ident_at(ts, i) else {
            continue;
        };
        let op = if name == "load" {
            AtomicOp::Load
        } else if name == "store" {
            AtomicOp::Store
        } else if RMW_METHODS.contains(&name) {
            AtomicOp::Rmw
        } else {
            continue;
        };
        if i == 0 || !punct_at(ts, i - 1, '.') || !punct_at(ts, i + 1, '(') {
            continue;
        }
        let close = close_paren(ts, i + 1);
        // Only calls that actually pass an `Ordering::…` are atomic
        // operations; anything else named `load`/`store` is not.
        let Some(ordering) = ordering_in_args(ts, i + 1, close) else {
            continue;
        };
        let Some(receiver) = receiver_before(ts, i - 1) else {
            continue;
        };
        sites.push(AtomicSite {
            receiver,
            op,
            ordering,
            line: ts[i].line,
        });
    }
    sites
}

/// One `.lock()` acquisition inside a function body.
#[derive(Debug, Clone)]
struct LockSite {
    receiver: String,
    line: u32,
}

/// Per-function ordered lock acquisition sequences.
fn collect_lock_sequences(ts: &[Tok]) -> Vec<Vec<LockSite>> {
    let mut sequences: Vec<Vec<LockSite>> = Vec::new();
    // Stack of (brace_depth_at_open, sequence_index) for nested fns.
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    let mut pending_fn = false;
    let mut depth = 0usize;
    for i in 0..ts.len() {
        match ts[i].kind {
            TokKind::Ident if ts[i].text == "fn" => {
                pending_fn = true;
            }
            TokKind::Punct('{') => {
                depth += 1;
                if pending_fn {
                    pending_fn = false;
                    sequences.push(Vec::new());
                    fn_stack.push((depth, sequences.len() - 1));
                }
            }
            TokKind::Punct('}') => {
                if let Some(&(d, _)) = fn_stack.last() {
                    if d == depth {
                        fn_stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct(';') if pending_fn => {
                // Trait method signature without a body.
                pending_fn = false;
            }
            TokKind::Ident
                if ts[i].text == "lock"
                    && i > 0
                    && punct_at(ts, i - 1, '.')
                    && punct_at(ts, i + 1, '(') =>
            {
                if let (Some(&(_, seq)), Some(receiver)) =
                    (fn_stack.last(), receiver_before(ts, i - 1))
                {
                    sequences[seq].push(LockSite {
                        receiver,
                        line: ts[i].line,
                    });
                }
            }
            _ => {}
        }
    }
    sequences
}

/// Identifiers bound to `HashMap`/`HashSet` in this file (lets,
/// params, struct fields).
fn collect_hash_bindings(ts: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..ts.len() {
        if ts[i].kind != TokKind::Ident {
            continue;
        }
        let after = i + 1;
        let is_binding_punct = punct_at(ts, after, ':') && !punct_at(ts, after + 1, ':');
        let is_assign = punct_at(ts, after, '=') && !punct_at(ts, after + 1, '=');
        if !is_binding_punct && !is_assign {
            continue;
        }
        // Skip a `std :: collections ::` path prefix.
        let mut k = after + 1;
        while ident_at(ts, k) == Some("std")
            || ident_at(ts, k) == Some("collections")
            || punct_at(ts, k, ':')
        {
            k += 1;
        }
        if matches!(ident_at(ts, k), Some("HashMap" | "HashSet")) {
            names.push(ts[i].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers whose appearance downstream of an iteration makes the
/// order irrelevant (sorting, ordered re-collection, commutative
/// reductions).
const ORDER_SINKS: [&str; 14] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
];

fn has_order_sink(ts: &[Tok], from: usize) -> bool {
    let mut j = from;
    let limit = (from + 40).min(ts.len());
    while j < limit {
        match ts[j].kind {
            TokKind::Punct(';') | TokKind::Punct('{') => return false,
            TokKind::Ident if ORDER_SINKS.contains(&ts[j].text.as_str()) => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

fn nondet_iteration_findings(ts: &[Tok], hash_names: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let known = |name: &str| hash_names.iter().any(|n| n == name);
    for i in 0..ts.len() {
        // `X.iter()` / `X.keys()` / … with X hash-bound.
        if let Some(m) = ident_at(ts, i) {
            if ITER_METHODS.contains(&m)
                && i > 0
                && punct_at(ts, i - 1, '.')
                && punct_at(ts, i + 1, '(')
            {
                if let Some(receiver) = receiver_before(ts, i - 1) {
                    if known(&receiver) {
                        let close = close_paren(ts, i + 1);
                        if !has_order_sink(ts, close + 1) {
                            findings.push(Finding {
                                rule: NONDET_ITERATION,
                                line: ts[i].line,
                                message: format!(
                                    "iteration over hash container `{receiver}` has unspecified \
                                     order; sort, collect into a BTree*, or annotate an \
                                     order-insensitive use"
                                ),
                            });
                        }
                    }
                }
            }
            // `for PAT in [&][mut] [self.]X { … }` with X hash-bound.
            if m == "for" {
                let mut j = i + 1;
                let limit = (i + 16).min(ts.len());
                while j < limit && ident_at(ts, j) != Some("in") {
                    j += 1;
                }
                if j < limit {
                    let mut k = j + 1;
                    while punct_at(ts, k, '&') || ident_at(ts, k) == Some("mut") {
                        k += 1;
                    }
                    if ident_at(ts, k) == Some("self") && punct_at(ts, k + 1, '.') {
                        k += 2;
                    }
                    if let Some(name) = ident_at(ts, k) {
                        if known(name) && punct_at(ts, k + 1, '{') {
                            findings.push(Finding {
                                rule: NONDET_ITERATION,
                                line: ts[k].line,
                                message: format!(
                                    "`for` over hash container `{name}` has unspecified order; \
                                     sort first, or annotate an order-insensitive loop body"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    findings
}

/// Per-file facts feeding the cross-file pass.
#[derive(Debug)]
pub(crate) struct FileDataflow {
    pub atomics: Vec<AtomicSite>,
    pub lock_sequences: Vec<Vec<LockSiteOwned>>,
    pub nondet: Vec<Finding>,
}

/// Owned lock-site record (receiver, line) exported to the cross-file
/// pass.
pub(crate) type LockSiteOwned = (String, u32);

pub(crate) fn collect_file(ts: &[Tok]) -> FileDataflow {
    let hash_names = collect_hash_bindings(ts);
    FileDataflow {
        atomics: collect_atomics(ts),
        lock_sequences: collect_lock_sequences(ts)
            .into_iter()
            .map(|seq| seq.into_iter().map(|s| (s.receiver, s.line)).collect())
            .collect(),
        nondet: nondet_iteration_findings(ts, &hash_names),
    }
}

/// Cross-file pass: pairs Relaxed loads against Release-or-stronger
/// publishers (and Relaxed stores against Acquire-or-stronger loads)
/// per receiver name, and checks lock acquisition order consistency
/// across every function in the workspace. Returns `(file_index,
/// finding)` pairs.
pub(crate) fn cross_file(files: &[(String, FileDataflow)]) -> Vec<(usize, Finding)> {
    let mut findings = Vec::new();

    // --- atomic-ordering ---
    let mut by_receiver: Vec<(&str, Vec<(usize, &AtomicSite)>)> = Vec::new();
    for (fi, (_, df)) in files.iter().enumerate() {
        for site in &df.atomics {
            match by_receiver.iter_mut().find(|(r, _)| *r == site.receiver) {
                Some((_, sites)) => sites.push((fi, site)),
                None => by_receiver.push((&site.receiver, vec![(fi, site)])),
            }
        }
    }
    by_receiver.sort_by_key(|(r, _)| r.to_string());
    for (receiver, sites) in &by_receiver {
        let publisher = sites
            .iter()
            .find(|(_, s)| s.op != AtomicOp::Load && s.ordering.releases());
        let acquire_load = sites
            .iter()
            .find(|(_, s)| s.op == AtomicOp::Load && s.ordering.acquires());
        if let Some(&(pfi, pub_site)) = publisher {
            for &(fi, site) in sites {
                if site.op == AtomicOp::Load && site.ordering == AtomicOrd::Relaxed {
                    findings.push((
                        fi,
                        Finding {
                            rule: ATOMIC_ORDERING,
                            line: site.line,
                            message: format!(
                                "`{receiver}` is published with {} at {}:{} but loaded Relaxed \
                                 here; pair Acquire with Release, or relax the store if a mutex \
                                 already orders the data",
                                pub_site.ordering.name(),
                                files[pfi].0,
                                pub_site.line
                            ),
                        },
                    ));
                }
            }
        }
        if let Some(&(afi, acq_site)) = acquire_load {
            for &(fi, site) in sites {
                if site.op == AtomicOp::Store && site.ordering == AtomicOrd::Relaxed {
                    findings.push((
                        fi,
                        Finding {
                            rule: ATOMIC_ORDERING,
                            line: site.line,
                            message: format!(
                                "`{receiver}` is loaded with {} at {}:{} but stored Relaxed here; \
                                 an Acquire load needs a Release store to pair with",
                                acq_site.ordering.name(),
                                files[afi].0,
                                acq_site.line
                            ),
                        },
                    ));
                }
            }
        }
    }

    // --- lock-order ---
    // Directed acquisition edges a→b with their first site, workspace
    // wide; a cycle of length two (a→b somewhere, b→a elsewhere) is a
    // lock-order inversion at every participating site.
    // (first-lock, second-lock) → every (file index, line) acquiring
    // in that order.
    type LockEdges = Vec<((String, String), Vec<(usize, u32)>)>;
    let mut edges: LockEdges = Vec::new();
    for (fi, (_, df)) in files.iter().enumerate() {
        for seq in &df.lock_sequences {
            for (i, (first, _)) in seq.iter().enumerate() {
                for (second, line2) in seq.iter().skip(i + 1) {
                    if first == second {
                        continue;
                    }
                    let key = (first.clone(), second.clone());
                    match edges.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, sites)) => sites.push((fi, *line2)),
                        None => edges.push((key, vec![(fi, *line2)])),
                    }
                }
            }
        }
    }
    edges.sort_by(|a, b| a.0.cmp(&b.0));
    for ((a, b), sites) in &edges {
        if a >= b {
            continue;
        }
        let reverse = edges.iter().find(|((x, y), _)| x == b && y == a);
        if let Some((_, rev_sites)) = reverse {
            for &(fi, line) in sites {
                let (rfi, rline) = rev_sites[0];
                findings.push((
                    fi,
                    Finding {
                        rule: LOCK_ORDER,
                        line,
                        message: format!(
                            "`{b}` is locked after `{a}` here, but the opposite order is taken \
                             at {}:{rline}; pick one global acquisition order",
                            files[rfi].0
                        ),
                    },
                ));
            }
            for &(fi, line) in rev_sites {
                let (sfi, sline) = sites[0];
                findings.push((
                    fi,
                    Finding {
                        rule: LOCK_ORDER,
                        line,
                        message: format!(
                            "`{a}` is locked after `{b}` here, but the opposite order is taken \
                             at {}:{sline}; pick one global acquisition order",
                            files[sfi].0
                        ),
                    },
                ));
            }
        }
    }

    // --- nondet-iteration (collected per file, no cross-file state) ---
    for (fi, (_, df)) in files.iter().enumerate() {
        for f in &df.nondet {
            findings.push((fi, f.clone()));
        }
    }

    findings
}
