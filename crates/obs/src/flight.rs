//! The flight recorder: an always-on bounded ring of structured
//! events for postmortem capture.
//!
//! Long campaigns die with nothing but an error string unless the
//! process kept notes. The flight recorder is that notebook: a
//! process-wide ring buffer of the last [`FlightEvent`]s — schedule
//! milestones, fault injections, chaos replans — gated by one
//! [`AtomicBool`] exactly like the metric recorder, so an instrumented
//! hot path costs **one relaxed load** while the recorder is off. When a simulation error, verifier rejection or
//! chaos failure surfaces, the driver drains the ring into a
//! canonical-bytes postmortem artifact (see `paraconv-registry`).
//!
//! Events carry **simulated** cycles, never wallclock, and sequence
//! numbers are assigned under the ring lock — so a single-threaded
//! campaign produces byte-identical event windows on every run at
//! every `PARACONV_JOBS` width.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity: enough to cover the tail of a campaign
/// without letting a postmortem artifact grow unbounded.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One structured flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number (assigned at record time; survives
    /// ring eviction, so gaps reveal dropped history).
    pub seq: u64,
    /// Subsystem, e.g. `sched`, `sim`, `fault`, `chaos`.
    pub cat: String,
    /// What happened, e.g. `pe.fail_stop`, `replan`.
    pub label: String,
    /// Simulated cycle (or iteration index) the event is anchored to —
    /// never wallclock.
    pub cycle: u64,
    /// Event-specific payload (a PE index, retry count, task total…).
    pub value: u64,
}

static FLIGHT_ACTIVE: AtomicBool = AtomicBool::new(false);

struct FlightRing {
    next_seq: u64,
    capacity: usize,
    events: VecDeque<FlightEvent>,
}

fn ring() -> &'static Mutex<FlightRing> {
    static RING: OnceLock<Mutex<FlightRing>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(FlightRing {
            next_seq: 0,
            capacity: DEFAULT_FLIGHT_CAPACITY,
            events: VecDeque::new(),
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, FlightRing> {
    ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Is the flight recorder on? One relaxed atomic load — the cost of
/// every instrumented site while it is off.
#[inline]
#[must_use]
pub fn flight_active() -> bool {
    FLIGHT_ACTIVE.load(Ordering::Relaxed)
}

/// Turns the flight recorder on with a ring of `capacity` events
/// (clamped to at least 1). Previously buffered events are cleared and
/// the sequence restarts at 0 so repeated campaigns produce identical
/// histories.
pub fn flight_enable(capacity: usize) {
    let mut r = lock();
    r.capacity = capacity.max(1);
    r.events.clear();
    r.next_seq = 0;
    FLIGHT_ACTIVE.store(true, Ordering::Relaxed);
}

/// Turns the flight recorder off; buffered events stay readable via
/// [`flight_events`].
pub fn flight_disable() {
    FLIGHT_ACTIVE.store(false, Ordering::Relaxed);
}

/// Records one event (no-op while the recorder is off). The oldest
/// event is evicted once the ring is full.
pub fn flight_record(cat: impl Into<String>, label: impl Into<String>, cycle: u64, value: u64) {
    if !flight_active() {
        return;
    }
    let mut r = lock();
    let seq = r.next_seq;
    r.next_seq += 1;
    let event = FlightEvent {
        seq,
        cat: cat.into(),
        label: label.into(),
        cycle,
        value,
    };
    r.events.push_back(event);
    while r.events.len() > r.capacity {
        r.events.pop_front();
    }
}

/// A copy of the buffered events, oldest first.
#[must_use]
pub fn flight_events() -> Vec<FlightEvent> {
    lock().events.iter().cloned().collect()
}

/// Clears the ring, restarts the sequence at 0 and turns the recorder
/// off.
// lint: allow(unused-pub) — tests clear the process-global ring between cases
pub fn flight_reset() {
    flight_disable();
    let mut r = lock();
    r.events.clear();
    r.next_seq = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// Flight-recorder state is process-wide; tests serialize here.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: TestMutex<()> = TestMutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn inactive_recorder_drops_events() {
        let _l = test_lock();
        flight_reset();
        flight_record("sim", "replay.done", 10, 1);
        assert!(flight_events().is_empty());
    }

    #[test]
    fn active_recorder_numbers_events_in_order() {
        let _l = test_lock();
        flight_reset();
        flight_enable(8);
        flight_record("sched", "schedule.done", 0, 42);
        flight_record("fault", "pe.fail_stop", 17, 3);
        flight_disable();
        flight_record("sim", "after.disable", 99, 0);
        let events = flight_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].cat, "sched");
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].label, "pe.fail_stop");
        assert_eq!(events[1].cycle, 17);
        flight_reset();
    }

    #[test]
    fn full_ring_evicts_oldest_but_keeps_sequence() {
        let _l = test_lock();
        flight_reset();
        flight_enable(3);
        for i in 0..10u64 {
            flight_record("sim", "tick", i, i);
        }
        let events = flight_events();
        assert_eq!(events.len(), 3);
        // The last three events survive with their original numbers.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        flight_reset();
    }

    #[test]
    fn enable_restarts_history() {
        let _l = test_lock();
        flight_reset();
        flight_enable(4);
        flight_record("chaos", "replan", 5, 1);
        flight_enable(4);
        flight_record("chaos", "replan", 6, 2);
        let events = flight_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].cycle, 6);
        flight_reset();
    }
}
