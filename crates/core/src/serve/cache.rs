//! The two-level plan cache: in-memory map over the content-addressed
//! registry, with single-flight coalescing.
//!
//! * **Read path** — memory first, then the registry (read-through:
//!   a disk hit is promoted into memory). Either level counts as
//!   `serve.hits`; only a computation counts as `serve.misses`.
//! * **Single flight** — concurrent requests for the same cold key
//!   elect one leader; the followers block on the leader's result and
//!   count as hits. A storm of `k` identical cold requests therefore
//!   records **exactly** 1 miss and `k − 1` hits at any worker count,
//!   which is what the serve-storm tests assert byte-for-byte.
//! * **Write-through** — the leader lands the artifact in the registry
//!   (atomic rename, so a crash can never leave a torn object) and
//!   only then in memory. A failed disk write (`serve.cache_write_failed`)
//!   degrades to memory-only service — the request is still answered.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use paraconv_registry::Registry;

/// Where a served artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRole {
    /// In-memory hit.
    Hit,
    /// Registry (disk) hit, promoted into memory.
    DiskHit,
    /// Coalesced behind another request's in-flight computation.
    Coalesced,
    /// This request led the computation.
    Miss,
}

type FlightResult = Result<Arc<Vec<u8>>, String>;

#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<FlightResult>>,
    done: Condvar,
}

/// The serving cache. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct PlanCache {
    memory: Mutex<HashMap<String, Arc<Vec<u8>>>>,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    registry: Option<Registry>,
}

impl PlanCache {
    /// A cache over an optional persistent registry (memory-only when
    /// `None`).
    #[must_use]
    pub fn new(registry: Option<Registry>) -> PlanCache {
        PlanCache {
            memory: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// The backing registry, if any.
    #[must_use]
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// Returns the artifact for `key`, computing it at most once
    /// process-wide per cold key. `compute` runs only on the elected
    /// leader; `write_through` is false when a disk-full fault is
    /// being injected on this request (the artifact is still served,
    /// only the persistence is skipped and counted).
    ///
    /// # Errors
    ///
    /// The leader's `compute` error, verbatim (followers receive a
    /// clone of the same message).
    pub fn get_or_compute(
        &self,
        key: &str,
        write_through: bool,
        compute: impl FnOnce() -> Result<Vec<u8>, String>,
    ) -> (FlightResult, CacheRole) {
        if let Some(bytes) = self.lock_memory().get(key).cloned() {
            paraconv_obs::counter_add("serve.hits", 1);
            return (Ok(bytes), CacheRole::Hit);
        }

        // Join an existing flight or become the leader.
        let (flight, leader) = {
            let mut inflight = self.lock_inflight();
            // Re-check memory under the inflight lock: a leader that
            // finished between our two lock acquisitions has already
            // removed its flight entry and filled memory.
            if let Some(bytes) = self.lock_memory().get(key).cloned() {
                paraconv_obs::counter_add("serve.hits", 1);
                return (Ok(bytes), CacheRole::Hit);
            }
            match inflight.get(key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::default());
                    inflight.insert(key.to_owned(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };

        if !leader {
            let mut slot = flight
                .slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while slot.is_none() {
                slot = flight
                    .done
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            // lint: allow(no-unwrap) — the loop above guarantees Some.
            let result = slot.clone().unwrap();
            paraconv_obs::counter_add("serve.hits", 1);
            return (result, CacheRole::Coalesced);
        }

        // Leader: read through to the registry before computing.
        let (result, role) = match self.read_registry(key) {
            Some(bytes) => {
                paraconv_obs::counter_add("serve.hits", 1);
                paraconv_obs::counter_add("serve.disk_hits", 1);
                (Ok(Arc::new(bytes)), CacheRole::DiskHit)
            }
            None => {
                paraconv_obs::counter_add("serve.misses", 1);
                match compute() {
                    Ok(bytes) => {
                        if write_through {
                            if let Some(registry) = &self.registry {
                                if registry.put(key, &bytes).is_err() {
                                    paraconv_obs::counter_add("serve.cache_write_failed", 1);
                                }
                            }
                        } else {
                            paraconv_obs::counter_add("serve.cache_write_failed", 1);
                        }
                        (Ok(Arc::new(bytes)), CacheRole::Miss)
                    }
                    Err(e) => (Err(e), CacheRole::Miss),
                }
            }
        };

        if let Ok(bytes) = &result {
            self.lock_memory().insert(key.to_owned(), Arc::clone(bytes));
        }

        // Publish to followers and retire the flight. Removal happens
        // under the inflight lock *before* the notify, so a late
        // arrival either joins this (already-resolved) flight or
        // starts fresh against a now-filled memory cache.
        self.lock_inflight().remove(key);
        *flight
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result.clone());
        flight.done.notify_all();
        (result, role)
    }

    /// The resident artifact for `key`, if any. The chaos campaign
    /// uses this to prove every `ok` response maps to one decodable,
    /// byte-stable artifact even when disk writes were failed.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.lock_memory().get(key).cloned()
    }

    fn read_registry(&self, key: &str) -> Option<Vec<u8>> {
        // A corrupt object (bit rot caught by the registry's read-side
        // verification) is treated as a miss: the plan is recomputed
        // and the object overwritten — never served.
        self.registry
            .as_ref()
            .and_then(|r| r.get(key).ok().flatten())
    }

    fn lock_memory(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Vec<u8>>>> {
        self.memory
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Flight>>> {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_only_cache_computes_once() {
        let cache = PlanCache::new(None);
        let (first, role) = cache.get_or_compute("k", true, || Ok(vec![1, 2, 3]));
        assert_eq!(*first.unwrap(), vec![1, 2, 3]);
        assert_eq!(role, CacheRole::Miss);
        let (second, role) = cache.get_or_compute("k", true, || panic!("must not recompute"));
        assert_eq!(*second.unwrap(), vec![1, 2, 3]);
        assert_eq!(role, CacheRole::Hit);
    }

    #[test]
    fn storm_on_one_cold_key_computes_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = Arc::new(PlanCache::new(None));
        let computes = Arc::new(AtomicU64::new(0));
        const CLIENTS: usize = 16;
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                std::thread::spawn(move || {
                    let (result, _) = cache.get_or_compute("cold", true, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so followers coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(vec![7; 64])
                    });
                    result.unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(*t.join().unwrap(), vec![7; 64]);
        }
        assert_eq!(computes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn leader_error_propagates_to_followers() {
        let cache = PlanCache::new(None);
        let (result, _) = cache.get_or_compute("bad", true, || Err("poisoned".into()));
        assert_eq!(result.unwrap_err(), "poisoned");
        // A failed computation is not cached: the next request retries.
        let (retry, role) = cache.get_or_compute("bad", true, || Ok(vec![9]));
        assert_eq!(*retry.unwrap(), vec![9]);
        assert_eq!(role, CacheRole::Miss);
    }
}
