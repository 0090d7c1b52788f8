//! Ordering pins: the audited atomic protocol of the serving path,
//! extracted from the **real sources** via the lint engine's public
//! fact collector and pinned exactly.
//!
//! Every gate in this workspace follows one pattern, proven by the
//! `paraconv-analyze` model harnesses (`flight-ring`,
//! `publish-acquire`): the flag itself publishes nothing — it is
//! stored and loaded `Relaxed`, and the data behind it is ordered by
//! a mutex. Strengthening one side without the other re-introduces
//! the `atomic-ordering` lint finding and fails this pin.

use std::path::Path;

use paraconv_verify::lint::dataflow::{atomic_sites, AtomicOp, AtomicOrd, AtomicSite};

fn sites_of(rel: &str) -> Vec<AtomicSite> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let path = root.join(rel);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    atomic_sites(&source)
}

/// Asserts every site on `receiver` has the pinned ordering and that
/// the expected operations are present.
fn pin(rel: &str, receiver: &str, ordering: AtomicOrd, expect_ops: &[AtomicOp]) {
    let sites: Vec<AtomicSite> = sites_of(rel)
        .into_iter()
        .filter(|s| s.receiver == receiver)
        .collect();
    assert!(
        !sites.is_empty(),
        "{rel}: no atomic sites on `{receiver}` — pin out of date"
    );
    for s in &sites {
        assert_eq!(
            s.ordering, ordering,
            "{rel}:{}: `{receiver}.{:?}` drifted from the audited {ordering:?}",
            s.line, s.op
        );
    }
    for op in expect_ops {
        assert!(
            sites.iter().any(|s| s.op == *op),
            "{rel}: expected a {op:?} on `{receiver}`"
        );
    }
}

#[test]
fn obs_recorder_gate_is_symmetric_relaxed() {
    pin(
        "obs/src/recorder.rs",
        "ENABLED",
        AtomicOrd::Relaxed,
        &[AtomicOp::Load, AtomicOp::Store],
    );
}

#[test]
fn obs_recorder_counters_are_relaxed_rmw() {
    pin(
        "obs/src/recorder.rs",
        "LOGICAL_SEQ",
        AtomicOrd::Relaxed,
        &[AtomicOp::Rmw],
    );
    pin(
        "obs/src/recorder.rs",
        "NEXT_TID",
        AtomicOrd::Relaxed,
        &[AtomicOp::Rmw],
    );
}

#[test]
fn flight_recorder_gate_is_symmetric_relaxed() {
    pin(
        "obs/src/flight.rs",
        "FLIGHT_ACTIVE",
        AtomicOrd::Relaxed,
        &[AtomicOp::Load, AtomicOp::Store],
    );
}

#[test]
fn sweep_work_cursor_is_relaxed_rmw() {
    pin(
        "core/src/sweep.rs",
        "cursor",
        AtomicOrd::Relaxed,
        &[AtomicOp::Rmw],
    );
}

#[test]
fn no_lone_acquire_or_release_sites_anywhere_audited() {
    // A Release store or Acquire load appearing in these files without
    // its counterpart means a new protocol was introduced half-way;
    // force the author to pin it here.
    for rel in [
        "obs/src/recorder.rs",
        "obs/src/flight.rs",
        "core/src/sweep.rs",
    ] {
        for s in sites_of(rel) {
            assert_eq!(
                s.ordering,
                AtomicOrd::Relaxed,
                "{rel}:{}: unaudited non-Relaxed site on `{}`",
                s.line,
                s.receiver
            );
        }
    }
}
