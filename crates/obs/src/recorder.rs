//! The recording machinery: a process-wide atomic gate, per-thread
//! buffers and a merge into one global aggregate.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** Every instrumentation site costs one
//!    relaxed atomic load and a predictable branch when recording is
//!    off, so the simulator and schedulers keep their benchmark
//!    numbers.
//! 2. **No contention when enabled.** Records go to a thread-local
//!    [`LocalBuffer`]; the only lock is taken when a buffer flushes —
//!    on thread exit (sweep workers) or an explicit
//!    [`flush_thread`]/[`snapshot`].
//! 3. **Merge order must not matter.** Counters merge by sum, gauges
//!    by max, histograms bucket-wise — so `jobs=1` and `jobs=N` sweeps
//!    aggregate to identical [`MetricsSnapshot`]s.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{Histogram, MetricsSnapshot};

/// One completed span: a named phase with wall-clock timestamps,
/// destined for the Chrome trace export. Spans never enter metrics
/// snapshots (wall clock is not deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Phase name, e.g. `sched.kernel`.
    pub name: String,
    /// Category shown by Perfetto's filter UI, e.g. `sched`.
    pub cat: &'static str,
    /// Logical thread id (stable per OS thread within a process run).
    pub tid: u32,
    /// Start, microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

struct GlobalState {
    metrics: MetricsSnapshot,
    spans: Vec<SpanEvent>,
}

fn global() -> &'static Mutex<GlobalState> {
    static GLOBAL: OnceLock<Mutex<GlobalState>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Mutex::new(GlobalState {
            metrics: MetricsSnapshot::new(),
            spans: Vec::new(),
        })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Process-local sequence driving logical-clock timestamps.
static LOGICAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// True when `PARACONV_LOGICAL_TIME=1` was set at first use: span
/// timestamps come from a process-local atomic sequence instead of the
/// wall clock, making `--trace` output byte-reproducible. Checked once
/// and cached — flipping the variable mid-process has no effect.
#[must_use]
pub fn logical_time() -> bool {
    static LOGICAL: OnceLock<bool> = OnceLock::new();
    *LOGICAL.get_or_init(|| std::env::var("PARACONV_LOGICAL_TIME").is_ok_and(|v| v == "1"))
}

/// Microseconds since the recorder epoch (first use in the process) —
/// or, under [`logical_time`], the next value of a process-local
/// sequence, so every span start/end gets a distinct, reproducible
/// "timestamp".
#[must_use]
pub fn now_us() -> u64 {
    if logical_time() {
        return LOGICAL_SEQ.fetch_add(1, Ordering::Relaxed);
    }
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

struct LocalBuffer {
    tid: u32,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: Vec<SpanEvent>,
}

impl LocalBuffer {
    fn new() -> Self {
        LocalBuffer {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Merges this buffer's contents into the global aggregate and
    /// clears it.
    fn flush(&mut self) {
        if self.is_empty() {
            return;
        }
        let mut g = global()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, v) in std::mem::take(&mut self.counters) {
            *g.metrics.counters.entry(name.to_owned()).or_insert(0) += v;
        }
        for (name, v) in std::mem::take(&mut self.gauges) {
            let slot = g.metrics.gauges.entry(name.to_owned()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (name, h) in std::mem::take(&mut self.histograms) {
            g.metrics
                .histograms
                .entry(name.to_owned())
                .or_default()
                .merge(&h);
        }
        g.spans.append(&mut self.spans);
    }
}

impl Drop for LocalBuffer {
    /// Backstop flush on thread exit. Platforms do not guarantee that
    /// TLS destructors have completed by the time `join` returns, so
    /// instrumented worker threads (the sweep engine's pool) also call
    /// [`flush_thread`] explicitly before returning; this destructor
    /// only catches threads that forgot.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuffer> = RefCell::new(LocalBuffer::new());
}

fn with_local(f: impl FnOnce(&mut LocalBuffer)) {
    // try_with: records arriving while the thread is being torn down
    // (after TLS destruction) are dropped rather than panicking.
    let _ = LOCAL.try_with(|b| f(&mut b.borrow_mut()));
}

/// Is recording enabled? One relaxed atomic load — the cost of every
/// instrumentation site when observability is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Turns recording on.
pub fn enable() {
    set_enabled(true);
}

/// Turns recording off (already-buffered records are kept).
pub fn disable() {
    set_enabled(false);
}

/// Adds `delta` to the counter `name` (no-op while disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        with_local(|b| *b.counters.entry(name).or_insert(0) += delta);
    }
}

/// Raises the high-water gauge `name` to at least `value` (no-op while
/// disabled).
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if enabled() {
        with_local(|b| {
            let g = b.gauges.entry(name).or_insert(0);
            *g = (*g).max(value);
        });
    }
}

/// Records one histogram sample for `name` (no-op while disabled).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        with_local(|b| b.histograms.entry(name).or_default().record(value));
    }
}

/// An RAII phase marker: created by [`span`], records a [`SpanEvent`]
/// covering its lifetime when dropped. Inactive (and free) while
/// recording is disabled.
#[derive(Debug)]
pub struct SpanGuard {
    name: Option<String>,
    cat: &'static str,
    start_us: u64,
}

impl SpanGuard {
    /// A guard that records nothing.
    #[must_use]
    pub const fn inactive() -> Self {
        SpanGuard {
            name: None,
            cat: "",
            start_us: 0,
        }
    }

    /// Closes this span and opens the next one in the same category —
    /// the natural shape for a pipeline of back-to-back phases:
    ///
    /// ```
    /// let phase = paraconv_obs::span("sched.kernel", "sched");
    /// // ... phase 1 ...
    /// let phase = phase.next("sched.alloc");
    /// // ... phase 2 ...
    /// drop(phase);
    /// ```
    #[must_use]
    pub fn next(self, name: impl Into<String>) -> SpanGuard {
        let cat = self.cat;
        drop(self);
        if !enabled() {
            return SpanGuard::inactive();
        }
        SpanGuard {
            name: Some(name.into()),
            cat,
            start_us: now_us(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            let end = now_us();
            let span = SpanEvent {
                name,
                cat: self.cat,
                tid: current_tid(),
                ts_us: self.start_us,
                dur_us: end.saturating_sub(self.start_us),
            };
            with_local(|b| b.spans.push(span));
        }
    }
}

/// Opens a span named `name` in category `cat`; the span closes (and
/// is recorded) when the returned guard drops.
///
/// # Examples
///
/// ```
/// let _guard = paraconv_obs::span("sched.kernel", "sched");
/// // ... the phase ...
/// ```
#[must_use]
pub fn span(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inactive();
    }
    SpanGuard {
        name: Some(name.into()),
        cat,
        start_us: now_us(),
    }
}

/// The calling thread's logical id (assigned on first record).
#[must_use]
pub fn current_tid() -> u32 {
    let mut tid = 0;
    let _ = LOCAL.try_with(|b| tid = b.borrow().tid);
    tid
}

/// Merges the calling thread's buffer into the global aggregate.
///
/// Worker threads flush automatically on exit; long-lived threads
/// (such as the main thread) call this — or rely on [`snapshot`] /
/// [`take_spans`], which flush first — before reading aggregates.
pub fn flush_thread() {
    with_local(LocalBuffer::flush);
}

/// Flushes the calling thread and returns a copy of the merged
/// metrics. Buffers of *other* threads that have not called
/// [`flush_thread`] yet are not included; the sweep engine's workers
/// always flush before handing their results back.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    flush_thread();
    global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .metrics
        .clone()
}

/// Flushes the calling thread and drains all recorded spans.
#[must_use]
pub fn take_spans() -> Vec<SpanEvent> {
    flush_thread();
    std::mem::take(
        &mut global()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .spans,
    )
}

/// Clears the global aggregate and the calling thread's buffer.
///
/// Call only while no other instrumented thread is running (tests,
/// benchmark harness sections).
pub fn reset() {
    let _ = LOCAL.try_with(|b| {
        let mut b = b.borrow_mut();
        b.counters.clear();
        b.gauges.clear();
        b.histograms.clear();
        b.spans.clear();
    });
    let mut g = global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    g.metrics = MetricsSnapshot::new();
    g.spans.clear();
    LOGICAL_SEQ.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global recorder state is process-wide; tests that touch it
    /// serialize on this lock.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _l = test_lock();
        reset();
        disable();
        counter_add("t.disabled", 5);
        gauge_max("t.disabled.g", 5);
        observe("t.disabled.h", 5);
        let _span = span("t.disabled.span", "test");
        drop(_span);
        let snap = snapshot();
        assert_eq!(snap.counter("t.disabled"), 0);
        assert!(take_spans().is_empty());
    }

    #[test]
    fn enabled_recording_aggregates() {
        let _l = test_lock();
        reset();
        enable();
        counter_add("t.c", 2);
        counter_add("t.c", 3);
        gauge_max("t.g", 7);
        gauge_max("t.g", 4);
        observe("t.h", 9);
        {
            let _s = span("t.span", "test");
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.counter("t.c"), 5);
        assert_eq!(snap.gauge("t.g"), 7);
        assert_eq!(snap.histogram("t.h").unwrap().count(), 1);
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "t.span");
        assert_eq!(spans[0].cat, "test");
        reset();
    }

    #[test]
    fn threaded_totals_match_sequential_totals() {
        let _l = test_lock();
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..100u64 {
                        counter_add("t.par", 1);
                        gauge_max("t.par.peak", i);
                        observe("t.par.h", i);
                    }
                    // Workers hand their buffer off before exiting;
                    // the TLS-destructor flush alone can race `join`.
                    flush_thread();
                });
            }
        });
        disable();
        let par = snapshot();
        reset();

        enable();
        for _ in 0..4 {
            for i in 0..100u64 {
                counter_add("t.par", 1);
                gauge_max("t.par.peak", i);
                observe("t.par.h", i);
            }
        }
        disable();
        let seq = snapshot();
        reset();

        assert_eq!(par, seq);
        assert_eq!(par.counter("t.par"), 400);
        assert_eq!(par.gauge("t.par.peak"), 99);
        assert_eq!(par.histogram("t.par.h").unwrap().count(), 400);
    }

    #[test]
    fn span_durations_are_monotonic() {
        let _l = test_lock();
        reset();
        enable();
        {
            let _outer = span("t.outer", "test");
            let _inner = span("t.inner", "test");
        }
        disable();
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        // Inner drops first, so it is recorded first.
        assert_eq!(spans[0].name, "t.inner");
        assert!(spans[0].ts_us >= spans[1].ts_us);
        reset();
    }
}
