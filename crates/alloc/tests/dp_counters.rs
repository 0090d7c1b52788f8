//! Observability contract of the incremental DP session.
//!
//! The `dp.*` counters are the evidence that the convergence-aware
//! refill actually skips rows: `dp.rows_reused` must count *every*
//! reused row — the shared item prefix and any suffix rows whose
//! recurrence converged — and `dp.cells_filled` must only charge for
//! rows that were genuinely recomputed. The historical bug was a
//! refill lower bound stuck at the first moved item, which both
//! refilled untouched rows and undercounted `dp.rows_reused`.
//!
//! The obs recorder is process-global; this binary holds every test
//! that enables it for the alloc crate, serialized on one lock, so the
//! counter deltas are exact.

use std::sync::{Mutex, MutexGuard};

use paraconv_alloc::{AllocItem, IncrementalDp};
use paraconv_graph::EdgeId;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn item(id: u32, space: u64, profit: u64) -> AllocItem {
    AllocItem::new(EdgeId::new(id), space, profit, id as u64)
}

/// Runs `f` with the recorder on and returns the exact deltas of
/// (`dp.rows_reused`, `dp.cells_filled`, `dp.incremental_hits`).
fn counted(f: impl FnOnce()) -> (u64, u64, u64) {
    paraconv_obs::reset();
    paraconv_obs::enable();
    f();
    paraconv_obs::disable();
    let snapshot = paraconv_obs::snapshot();
    (
        snapshot.counter("dp.rows_reused"),
        snapshot.counter("dp.cells_filled"),
        snapshot.counter("dp.incremental_hits"),
    )
}

#[test]
fn tail_perturbation_reuses_the_prefix() {
    let _guard = lock();
    let mut items: Vec<AllocItem> = (0..6).map(|i| item(i, 2, 3 + u64::from(i))).collect();
    let mut session = IncrementalDp::new();
    session.resolve(&items, 9);
    items[5] = item(5, 1, 40);
    let (reused, filled, hits) = counted(|| session.resolve(&items, 9));
    assert_eq!(reused, 5, "rows 0..5 share the item prefix");
    assert_eq!(filled, 10, "exactly one row of width capacity + 1");
    assert_eq!(hits, 1);
}

#[test]
fn converged_refill_skips_the_untouched_tail() {
    let _guard = lock();
    // Items 1 and 4 are oversized: their rows copy straight through,
    // so replacing them with other oversized items recomputes a row
    // that lands byte-identical on the stored one and the refill goes
    // clean again. The old first-moved-item lower bound would have
    // refilled rows 1..6 and reported rows_reused = 1.
    let mut items = vec![
        item(0, 2, 3),
        item(1, 50, 5),
        item(2, 1, 2),
        item(3, 4, 7),
        item(4, 60, 4),
        item(5, 3, 6),
    ];
    let mut session = IncrementalDp::new();
    session.resolve(&items, 9);
    items[1] = item(1, 70, 9);
    items[4] = item(4, 80, 1);
    let (reused, filled, hits) = counted(|| session.resolve(&items, 9));
    assert_eq!(
        reused, 4,
        "rows 0, 2, 3 and 5 are reused, not just the one-row prefix"
    );
    assert_eq!(filled, 20, "only the two moved rows are recomputed");
    assert_eq!(hits, 1);
}

#[test]
fn identical_resolves_recompute_nothing() {
    let _guard = lock();
    let items: Vec<AllocItem> = (0..4).map(|i| item(i, 1 + u64::from(i) % 3, 2)).collect();
    let mut session = IncrementalDp::new();
    session.resolve(&items, 6);
    let (reused, filled, hits) = counted(|| {
        session.resolve(&items, 6);
        session.resolve(&items, 3); // capacity move within the width
    });
    assert_eq!(reused, 8, "all four rows reused on both resolves");
    assert_eq!(filled, 0);
    assert_eq!(hits, 2);
}

#[test]
fn diverging_perturbation_still_refills_downstream_rows() {
    let _guard = lock();
    // A genuine value change in row 1 dirties every later row until it
    // converges; with distinct profits it never does, so only the
    // prefix is reused — the skip logic must not over-skip.
    let mut items = vec![item(0, 2, 3), item(1, 2, 5), item(2, 3, 7), item(3, 1, 11)];
    let mut session = IncrementalDp::new();
    session.resolve(&items, 9);
    items[1] = item(1, 2, 6);
    let (reused, filled, _) = counted(|| session.resolve(&items, 9));
    assert_eq!(reused, 1, "only row 0 precedes the moved item");
    assert_eq!(filled, 30, "rows 1..4 all recompute");
}

#[test]
fn a_cold_allocation_records_one_fill_and_no_reuse() {
    let _guard = lock();
    // `allocate` is a resolve on a fresh session: one full fill, one
    // backtrack, and none of the incremental counters.
    let items: Vec<AllocItem> = (0..5).map(|i| item(i, 1 + u64::from(i) % 3, 2)).collect();
    paraconv_obs::reset();
    paraconv_obs::enable();
    let allocation = paraconv_alloc::CacheAllocator::new(7).allocate(items);
    paraconv_obs::disable();
    let snapshot = paraconv_obs::snapshot();
    assert_eq!(allocation.total_profit(), 8);
    assert_eq!(snapshot.counter("dp.fills"), 1);
    assert_eq!(snapshot.counter("dp.cells_filled"), 5 * 8);
    assert_eq!(snapshot.counter("dp.reconstructs"), 1);
    assert_eq!(snapshot.counter("dp.incremental_hits"), 0);
    assert_eq!(snapshot.counter("dp.rows_reused"), 0);
    let per_fill = snapshot.histogram("dp.items_per_fill").expect("observed");
    assert_eq!((per_fill.count(), per_fill.sum()), (1, 5));
}
