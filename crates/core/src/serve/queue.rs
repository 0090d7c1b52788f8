//! The bounded admission queue: MPMC, non-blocking producers, blocking
//! consumers, and a drain flag for graceful shutdown.
//!
//! Admission control happens at `push`: a full queue rejects with a
//! typed [`PushError::Overloaded`] carrying the item back — the daemon
//! never buffers unboundedly, it sheds. Workers block in `pop` until
//! an item arrives or the queue is drained empty, at which point every
//! worker wakes and exits.
//!
//! The wait/notify protocol (one mutex, one condvar, a `draining`
//! flag checked under the lock) is exactly the model the
//! `serve-queue` harness in `paraconv-analyze` explores schedule-
//! exhaustively; the seeded `serve-queue-lost-wakeup` fixture shows
//! why the flag must be read under the same lock the sleeper holds.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back so the caller
    /// can shed it with a typed response instead of dropping it.
    Overloaded(T),
    /// The queue is draining; no new work is admitted.
    Draining(T),
}

/// A bounded MPMC queue with explicit load-shedding and drain.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    draining: bool,
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a queue that can never admit work
    /// would shed everything).
    #[must_use]
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity),
                draining: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking admission: enqueues `item` or refuses with a typed
    /// error carrying it back. Never waits — backpressure is the
    /// caller's signal to shed.
    ///
    /// # Errors
    ///
    /// [`PushError::Overloaded`] at capacity, [`PushError::Draining`]
    /// after [`drain`](Self::drain).
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(PushError::Draining(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Overloaded(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking consume: the next item in admission order, or `None`
    /// once the queue is draining **and** empty (the worker-exit
    /// signal). In-flight items are always finished before workers see
    /// `None` — drain never abandons admitted work.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.draining {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Re-admits work that was **already accepted** and then lost its
    /// worker (a simulated mid-plan kill). Bypasses both the capacity
    /// bound and the drain flag — an accepted request is never shed
    /// and never abandoned — and lands at the front so the retry does
    /// not pay the queue again.
    pub fn requeue(&self, item: T) {
        self.lock().items.push_front(item);
        self.available.notify_one();
    }

    /// Stops admission and wakes every blocked consumer. Items already
    /// queued are still handed out; only then do consumers see `None`.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.available.notify_all();
    }

    /// Items currently queued (racy by nature; for stats only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy; for stats only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_preserves_admission_order() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn overflow_returns_the_item_typed() {
        let q = BoundedQueue::new(2);
        q.push(10).unwrap();
        q.push(11).unwrap();
        assert_eq!(q.push(12), Err(PushError::Overloaded(12)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_rejects_new_work_but_hands_out_queued_items() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.drain();
        assert_eq!(q.push(2), Err(PushError::Draining(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_drain() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give consumers a chance to block, then drain.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.drain();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        const PRODUCERS: usize = 4;
        const ITEMS_EACH: usize = 256;
        let q = Arc::new(BoundedQueue::<usize>::new(8));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut landed = 0usize;
                    for i in 0..ITEMS_EACH {
                        let mut item = p * ITEMS_EACH + i;
                        // Spin on backpressure: the test wants every
                        // item through, a real caller would shed.
                        loop {
                            match q.push(item) {
                                Ok(()) => break,
                                Err(PushError::Overloaded(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Draining(_)) => unreachable!(),
                            }
                        }
                        landed += 1;
                    }
                    landed
                })
            })
            .collect();
        let mut sent = 0;
        for p in producers {
            sent += p.join().unwrap();
        }
        q.drain();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(sent, PRODUCERS * ITEMS_EACH);
        assert_eq!(all.len(), sent, "every admitted item is consumed once");
        all.dedup();
        assert_eq!(all.len(), sent, "no item is consumed twice");
    }
}
