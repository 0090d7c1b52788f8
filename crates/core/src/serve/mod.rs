//! Planning-as-a-service: the hardened `paraconv serve` engine.
//!
//! [`ServeCore`] is the in-process heart of the daemon: a bounded
//! admission [queue](BoundedQueue) feeding a worker pool, a
//! two-level single-flight [plan cache](PlanCache) over the
//! content-addressed registry, and a per-tenant
//! [governor](TenantGovernor) (quotas + circuit breakers). The TCP
//! front end ([`daemon`]) and the load generator both drive this same
//! engine, so every robustness property is testable without a socket.
//!
//! The robustness contract:
//!
//! * **Admission control** — a full queue sheds with a typed
//!   `overloaded` response, so queued work is bounded. The
//!   [`PlanCache`] is not: it keeps every artifact it serves in
//!   memory until the daemon exits.
//! * **Deadlines** — each request carries a [`CancelToken`] armed by a
//!   watchdog; the scheduler and DP fill poll it cooperatively, so an
//!   expired request stops burning CPU within one phase.
//! * **No accepted request is lost** — every accepted request is
//!   answered exactly once, even across simulated worker kills
//!   (killed jobs are re-queued, keyed by attempt so the retry
//!   survives) and graceful drain (queued work finishes first).
//! * **No torn artifact** — the registry writes atomically and
//!   re-verifies `content_hash` on every read; a disk-full write
//!   degrades to memory-only service, never to a partial object.
//! * **Crash recovery** — [`ServeCore::new`] replays the registry
//!   (removing stranded temp files, corrupt objects and stale objects
//!   from another artifact format), so warm-key hit rates survive a
//!   kill.

mod cache;
pub mod daemon;
mod protocol;
mod queue;
mod tenant;

pub use cache::{CacheRole, PlanCache};
pub use protocol::{
    extract_id, parse_client_line, plan_line, ClientOp, PlanRequest, ProtocolError, ServeResponse,
    ServeStatus,
};
pub use queue::{BoundedQueue, PushError};
pub use tenant::{AdmitError, RequestOutcome, TenantGovernor, TenantStats};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use paraconv_fault::FaultSpec;
use paraconv_obs::{CancelScope, CancelToken};
use paraconv_registry::{request_key, ArtifactError, PlanBundle, PlanPolicy, Registry};
use paraconv_sched::{ParaConvScheduler, SchedError};
use paraconv_verify::VerifyError;
use serde_json::{Map, Number, Value};

/// Tuning knobs for a [`ServeCore`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool width.
    pub jobs: usize,
    /// Admission-queue capacity; beyond it requests are shed.
    pub queue_capacity: usize,
    /// Registry directory backing the cache (`None` = memory only).
    pub registry_path: Option<PathBuf>,
    /// Max in-flight requests per tenant.
    pub quota: u64,
    /// Consecutive poisoned requests tripping a tenant's breaker.
    pub breaker_threshold: u64,
    /// Rejections an open breaker holds before half-opening.
    pub breaker_cooldown: u64,
    /// Fault campaign injected into the serving path (chaos mode).
    pub fault: Option<FaultSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: crate::sweep::max_jobs(),
            queue_capacity: 64,
            registry_path: None,
            quota: 16,
            breaker_threshold: 3,
            breaker_cooldown: 8,
            fault: None,
        }
    }
}

/// A one-shot response slot the submitter blocks on.
#[derive(Debug, Default)]
pub struct Ticket {
    slot: Mutex<Option<ServeResponse>>,
    done: Condvar,
}

impl Ticket {
    /// Blocks until the worker answers.
    #[must_use]
    pub fn wait(&self) -> ServeResponse {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            slot = self
                .done
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn fulfil(&self, response: ServeResponse) {
        *self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(response);
        self.done.notify_all();
    }
}

/// What [`ServeCore::submit`] produced.
#[derive(Debug)]
pub enum Submission {
    /// Accepted: the answer arrives through the ticket.
    Accepted(Arc<Ticket>),
    /// Rejected (shed / invalid / quota / circuit / draining): the
    /// response is already final.
    Rejected(ServeResponse),
}

impl Submission {
    /// The final response, blocking on the ticket if accepted.
    #[must_use]
    pub fn wait(self) -> ServeResponse {
        match self {
            Submission::Accepted(ticket) => ticket.wait(),
            Submission::Rejected(response) => response,
        }
    }
}

/// Serving counters (the `stats` op payload). All counts are exact:
/// every submitted request lands in exactly one terminal counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests shed by admission control (queue full).
    pub shed: u64,
    /// Requests rejected because the daemon is draining.
    pub draining: u64,
    /// Facially-invalid requests (unknown benchmark, zero sizes).
    pub invalid: u64,
    /// Requests rejected by tenant quota.
    pub quota: u64,
    /// Requests rejected by an open circuit breaker.
    pub circuit_open: u64,
    /// Accepted requests answered `ok`.
    pub served: u64,
    /// Cache hits among served requests (memory, disk, or coalesced).
    pub hits: u64,
    /// Cold computations among served requests.
    pub misses: u64,
    /// Accepted requests that missed their deadline.
    pub deadline: u64,
    /// Accepted requests that failed in planning (poisoned).
    pub failed: u64,
    /// Simulated worker kills survived (request re-queued).
    pub worker_kills: u64,
    /// Slow-request delays injected.
    pub slow_injected: u64,
}

impl ServeStats {
    /// Canonical single-line JSON (alphabetical keys).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut obj = Map::new();
        for (name, value) in [
            ("accepted", self.accepted),
            ("circuit_open", self.circuit_open),
            ("deadline", self.deadline),
            ("draining", self.draining),
            ("failed", self.failed),
            ("hits", self.hits),
            ("invalid", self.invalid),
            ("misses", self.misses),
            ("quota", self.quota),
            ("served", self.served),
            ("shed", self.shed),
            ("slow_injected", self.slow_injected),
            ("worker_kills", self.worker_kills),
        ] {
            obj.insert(name.into(), Value::Number(Number::from_u64(value)));
        }
        serde_json::to_string(&Value::Object(obj))
    }
}

#[derive(Debug, Default)]
struct StatsCells {
    accepted: AtomicU64,
    shed: AtomicU64,
    draining: AtomicU64,
    invalid: AtomicU64,
    quota: AtomicU64,
    circuit_open: AtomicU64,
    served: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    deadline: AtomicU64,
    failed: AtomicU64,
    worker_kills: AtomicU64,
    slow_injected: AtomicU64,
}

/// One queued unit of work.
#[derive(Debug)]
struct Job {
    request: PlanRequest,
    seq: u64,
    attempt: u32,
    token: CancelToken,
    ticket: Arc<Ticket>,
    created: Instant,
}

/// Deadline watchdog: arms `(expiry, token)` pairs and cancels them
/// from one background thread. Wall-clock by necessity — tests that
/// need determinism use `deadline_ms = 0`, which cancels at submit.
#[derive(Debug, Default)]
struct Watchdog {
    armed: Mutex<Vec<(Instant, CancelToken)>>,
    changed: Condvar,
}

impl Watchdog {
    fn arm(&self, expiry: Instant, token: CancelToken) {
        self.lock().push((expiry, token));
        self.changed.notify_all();
    }

    fn shutdown(&self) {
        // An empty sentinel expiry in the past wakes the thread; the
        // drain flag it checks lives in ServeInner.
        self.changed.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(Instant, CancelToken)>> {
        self.armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct ServeInner {
    config: ServeConfig,
    queue: BoundedQueue<Job>,
    tenants: TenantGovernor,
    cache: PlanCache,
    seq: AtomicU64,
    stats: StatsCells,
    watchdog: Watchdog,
    stopping: std::sync::atomic::AtomicBool,
}

/// The serving engine. See the [module docs](self) for the contract.
#[derive(Debug)]
pub struct ServeCore {
    inner: Arc<ServeInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServeCore {
    /// Builds the engine: opens (and crash-recovers) the registry and
    /// sets up the queue, governor and cache. Workers do not run until
    /// [`start`](Self::start) — tests exploit that to fill the queue
    /// deterministically.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] if the registry cannot be opened or swept.
    pub fn new(config: ServeConfig) -> Result<ServeCore, ArtifactError> {
        let registry = match &config.registry_path {
            Some(path) => {
                let registry = Registry::open(path)?;
                let report = registry.recover()?;
                paraconv_obs::counter_add("serve.recovered_keys", report.intact.len() as u64);
                paraconv_obs::counter_add("serve.recovered_tmp", report.tmp_removed);
                paraconv_obs::counter_add("serve.recovered_corrupt", report.corrupt_removed);
                paraconv_obs::counter_add("serve.recovered_stale", report.stale_removed);
                Some(registry)
            }
            None => None,
        };
        let inner = Arc::new(ServeInner {
            queue: BoundedQueue::new(config.queue_capacity),
            tenants: TenantGovernor::new(
                config.quota,
                config.breaker_threshold,
                config.breaker_cooldown,
            ),
            cache: PlanCache::new(registry),
            seq: AtomicU64::new(0),
            stats: StatsCells::default(),
            watchdog: Watchdog::default(),
            stopping: std::sync::atomic::AtomicBool::new(false),
            config,
        });
        Ok(ServeCore {
            inner,
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Spawns the worker pool (idempotent) and the deadline watchdog.
    pub fn start(&self) {
        let mut workers = self.lock_workers();
        if !workers.is_empty() {
            return;
        }
        for _ in 0..self.inner.config.jobs.max(1) {
            let inner = Arc::clone(&self.inner);
            workers.push(std::thread::spawn(move || {
                while let Some(job) = inner.queue.pop() {
                    inner.process(job);
                }
                paraconv_obs::flush_thread();
            }));
        }
        let inner = Arc::clone(&self.inner);
        workers.push(std::thread::spawn(move || inner.watchdog_loop()));
    }

    /// Validates, admits and enqueues one request. Any rejection is
    /// final and immediate; an acceptance always produces exactly one
    /// response through the ticket.
    pub fn submit(&self, request: PlanRequest) -> Submission {
        let inner = &self.inner;
        // Facial validation happens before admission so poisoned
        // requests never touch the queue or the cache — and still feed
        // the tenant's circuit breaker.
        if let Err(detail) = validate(&request) {
            inner.tenants.record_poisoned(&request.tenant);
            inner.stats.invalid.fetch_add(1, Ordering::Relaxed);
            paraconv_obs::counter_add("serve.invalid", 1);
            return Submission::Rejected(ServeResponse::with_detail(
                request.id,
                ServeStatus::Invalid,
                detail,
            ));
        }
        match inner.tenants.admit(&request.tenant) {
            Err(AdmitError::QuotaExceeded) => {
                inner.stats.quota.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.quota_rejected", 1);
                return Submission::Rejected(ServeResponse::with_detail(
                    request.id,
                    ServeStatus::Quota,
                    "tenant in-flight quota exceeded",
                ));
            }
            Err(AdmitError::CircuitOpen) => {
                inner.stats.circuit_open.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.circuit_rejected", 1);
                return Submission::Rejected(ServeResponse::with_detail(
                    request.id,
                    ServeStatus::CircuitOpen,
                    "circuit breaker open for tenant",
                ));
            }
            Ok(()) => {}
        }
        let token = CancelToken::new();
        match request.deadline_ms {
            Some(0) => token.cancel(),
            Some(ms) => inner.watchdog.arm(
                // lint: allow(wallclock-rng) — request deadlines are wall-clock by contract
                Instant::now() + std::time::Duration::from_millis(ms),
                token.clone(),
            ),
            None => {}
        }
        let ticket = Arc::new(Ticket::default());
        let job = Job {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            attempt: 0,
            token,
            ticket: Arc::clone(&ticket),
            // lint: allow(wallclock-rng) — queue-wait timing, never part of a plan
            created: Instant::now(),
            request,
        };
        match inner.queue.push(job) {
            Ok(()) => {
                inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.accepted", 1);
                Submission::Accepted(ticket)
            }
            Err(PushError::Overloaded(job)) => {
                inner
                    .tenants
                    .complete(&job.request.tenant, RequestOutcome::Aborted);
                inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.shed", 1);
                Submission::Rejected(ServeResponse::with_detail(
                    job.request.id,
                    ServeStatus::Overloaded,
                    "admission queue full",
                ))
            }
            Err(PushError::Draining(job)) => {
                inner
                    .tenants
                    .complete(&job.request.tenant, RequestOutcome::Aborted);
                inner.stats.draining.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.rejected_draining", 1);
                Submission::Rejected(ServeResponse::with_detail(
                    job.request.id,
                    ServeStatus::Draining,
                    "daemon is draining",
                ))
            }
        }
    }

    /// Graceful drain: stop accepting, finish every queued and
    /// in-flight request, stop the workers and the watchdog. Returns
    /// the final counters. Idempotent.
    pub fn drain(&self) -> ServeStats {
        self.inner
            .stopping
            .store(true, std::sync::atomic::Ordering::Release);
        self.inner.queue.drain();
        self.inner.watchdog.shutdown();
        let workers = std::mem::take(&mut *self.lock_workers());
        for worker in workers {
            let _ = worker.join();
        }
        self.stats()
    }

    /// Current counters (exact; see [`ServeStats`]).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let cells = &self.inner.stats;
        let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        ServeStats {
            accepted: get(&cells.accepted),
            shed: get(&cells.shed),
            draining: get(&cells.draining),
            invalid: get(&cells.invalid),
            quota: get(&cells.quota),
            circuit_open: get(&cells.circuit_open),
            served: get(&cells.served),
            hits: get(&cells.hits),
            misses: get(&cells.misses),
            deadline: get(&cells.deadline),
            failed: get(&cells.failed),
            worker_kills: get(&cells.worker_kills),
            slow_injected: get(&cells.slow_injected),
        }
    }

    /// Per-tenant fairness counters.
    #[must_use]
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.inner.tenants.stats()
    }

    /// The cache (for tests and the load generator).
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    fn lock_workers(&self) -> std::sync::MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
        self.workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Facial request validation — everything checkable without planning.
fn validate(request: &PlanRequest) -> Result<(), String> {
    if crate::synth::benchmarks::by_name(&request.benchmark).is_none() {
        return Err(format!("unknown benchmark `{}`", request.benchmark));
    }
    if request.pes == 0 {
        return Err("pes must be positive".into());
    }
    if request.pes > crate::pim::MAX_PES {
        return Err(format!("pes must be at most {}", crate::pim::MAX_PES));
    }
    if request.iterations == 0 {
        return Err("iterations must be positive".into());
    }
    if request.tenant.is_empty() {
        return Err("tenant must be non-empty".into());
    }
    Ok(())
}

impl ServeInner {
    fn watchdog_loop(&self) {
        let mut armed = self.watchdog.lock();
        loop {
            if self.stopping.load(std::sync::atomic::Ordering::Acquire) {
                // Cancel whatever is still armed: draining workers
                // answer `deadline` rather than run past shutdown.
                for (_, token) in armed.drain(..) {
                    token.cancel();
                }
                return;
            }
            // lint: allow(wallclock-rng) — the watchdog fires wall-clock deadlines
            let now = Instant::now();
            armed.retain(|(expiry, token)| {
                if *expiry <= now {
                    token.cancel();
                    false
                } else {
                    true
                }
            });
            let wait = armed
                .iter()
                .map(|(expiry, _)| expiry.saturating_duration_since(now))
                .min()
                .unwrap_or(std::time::Duration::from_millis(50));
            let (guard, _) = self
                .watchdog
                .changed
                .wait_timeout(armed, wait.min(std::time::Duration::from_millis(50)))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            armed = guard;
        }
    }

    fn process(&self, job: Job) {
        let fault = self
            .config
            .fault
            .clone()
            .unwrap_or_else(|| FaultSpec::quiet(0));

        // Deadline already expired (or drain cancelled it): answer
        // without planning. Not the tenant's fault — no breaker food.
        if job.token.is_cancelled() {
            self.stats.deadline.fetch_add(1, Ordering::Relaxed);
            paraconv_obs::counter_add("serve.deadline", 1);
            self.tenants
                .complete(&job.request.tenant, RequestOutcome::Aborted);
            job.ticket.fulfil(ServeResponse::with_detail(
                job.request.id.clone(),
                ServeStatus::Deadline,
                "deadline expired before planning",
            ));
            return;
        }

        // Simulated worker kill: this worker "dies" mid-plan. The job
        // is re-queued (new attempt) before any response is written,
        // so the request is never lost — exactly the invariant the
        // chaos campaign asserts.
        if fault.worker_kill(job.seq, job.attempt) {
            self.stats.worker_kills.fetch_add(1, Ordering::Relaxed);
            paraconv_obs::counter_add("serve.worker_killed", 1);
            paraconv_obs::flight_record("serve", "worker.kill", job.seq, u64::from(job.attempt));
            self.queue.requeue(Job {
                attempt: job.attempt + 1,
                ..job
            });
            return;
        }

        // Slow-request injection: latency, not failure.
        let slow = fault.slow_request_delay_ms(job.seq);
        if slow > 0 {
            self.stats.slow_injected.fetch_add(1, Ordering::Relaxed);
            paraconv_obs::counter_add("serve.slow_injected", 1);
            std::thread::sleep(std::time::Duration::from_millis(slow));
        }

        let write_through = !fault.cache_write_fails(job.seq);
        let outcome = self.plan(&job, write_through);
        let tenant = job.request.tenant.clone();
        match outcome {
            Ok((key, role)) => {
                self.stats.served.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.served", 1);
                if role == CacheRole::Miss {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                }
                let micros = u64::try_from(job.created.elapsed().as_micros()).unwrap_or(u64::MAX);
                paraconv_obs::observe("serve.latency_us", micros);
                self.tenants.complete(&tenant, RequestOutcome::Served);
                job.ticket.fulfil(ServeResponse::ok(
                    job.request.id.clone(),
                    key,
                    role != CacheRole::Miss,
                ));
            }
            Err(PlanFailure::Cancelled) => {
                self.stats.deadline.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.deadline", 1);
                self.tenants.complete(&tenant, RequestOutcome::Aborted);
                job.ticket.fulfil(ServeResponse::with_detail(
                    job.request.id.clone(),
                    ServeStatus::Deadline,
                    "deadline expired during planning",
                ));
            }
            Err(PlanFailure::Poisoned(detail)) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                paraconv_obs::counter_add("serve.failed", 1);
                self.tenants.complete(&tenant, RequestOutcome::Poisoned);
                job.ticket.fulfil(ServeResponse::with_detail(
                    job.request.id.clone(),
                    ServeStatus::Error,
                    detail,
                ));
            }
        }
    }

    /// Builds the request's graph/config (failures are poisoned
    /// *before* the cache is consulted), then serves through the
    /// single-flight cache.
    fn plan(&self, job: &Job, write_through: bool) -> Result<(String, CacheRole), PlanFailure> {
        let request = &job.request;
        // lint: allow(no-unwrap) — validate() checked the name exists.
        let benchmark = crate::synth::benchmarks::by_name(&request.benchmark).unwrap();
        let graph = benchmark
            .graph()
            .map_err(|e| PlanFailure::Poisoned(format!("benchmark generation failed: {e}")))?;
        let config = crate::pim::PimConfig::neurocube(request.pes)
            .map_err(|e| PlanFailure::Poisoned(format!("invalid architecture: {e}")))?;
        let policy = PlanPolicy {
            allocation: request.policy,
            iterations: request.iterations,
        };
        let key = request_key(&graph, &config, &policy);
        let token = job.token.clone();
        let iterations = request.iterations;
        let (result, role) = self.cache.get_or_compute(&key, write_through, move || {
            let _scope = CancelScope::enter(token);
            let outcome = ParaConvScheduler::new(config.clone())
                .with_policy(policy.allocation)
                .schedule(&graph, iterations)
                .map_err(|e| match e {
                    SchedError::Cancelled => CANCELLED_SENTINEL.to_owned(),
                    other => format!("scheduling failed: {other}"),
                })?;
            crate::verify::verify_outcome(&graph, &outcome, &config).map_err(|e| match e {
                // The verifier's DP re-solve and plan walk poll the
                // token; only their typed cancellation is a deadline.
                VerifyError::Cancelled => CANCELLED_SENTINEL.to_owned(),
                other => format!("refusing to serve an unprovable plan: {other}"),
            })?;
            Ok(PlanBundle {
                graph,
                config,
                policy,
                outcome,
            }
            .encode())
        });
        match result {
            Ok(_) => Ok((key, role)),
            Err(e) if e == CANCELLED_SENTINEL => Err(PlanFailure::Cancelled),
            Err(e) => Err(PlanFailure::Poisoned(e)),
        }
    }
}

const CANCELLED_SENTINEL: &str = "__cancelled__";

#[derive(Debug)]
enum PlanFailure {
    Cancelled,
    Poisoned(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(benchmark: &str, pes: usize, iterations: u64) -> PlanRequest {
        PlanRequest {
            id: "r".into(),
            tenant: "tenant-a".into(),
            benchmark: benchmark.into(),
            pes,
            iterations,
            policy: crate::sched::AllocationPolicy::DynamicProgram,
            deadline_ms: None,
        }
    }

    #[test]
    fn validate_accepts_every_suite_benchmark() {
        for benchmark in crate::synth::benchmarks::all() {
            assert_eq!(validate(&request(benchmark.name(), 16, 8)), Ok(()));
        }
    }

    #[test]
    fn validate_bounds_the_pe_count_at_the_configs_limit() {
        let max = crate::pim::MAX_PES;
        assert_eq!(validate(&request("cat", max, 1)), Ok(()));
        let err = validate(&request("cat", max + 1, 1)).unwrap_err();
        assert!(err.contains(&max.to_string()), "{err}");
        // Whatever validate admits, the planner's config accepts.
        assert!(crate::pim::PimConfig::neurocube(max).is_ok());
    }

    #[test]
    fn validate_rejects_empty_arrays_and_empty_plans() {
        assert_eq!(
            validate(&request("cat", 0, 4)),
            Err("pes must be positive".into())
        );
        assert_eq!(
            validate(&request("cat", 16, 0)),
            Err("iterations must be positive".into())
        );
    }

    #[test]
    fn validate_rejects_unknown_benchmarks_and_anonymous_tenants() {
        let err = validate(&request("no-such-net", 16, 4)).unwrap_err();
        assert_eq!(err, "unknown benchmark `no-such-net`");
        let mut anonymous = request("cat", 16, 4);
        anonymous.tenant.clear();
        assert_eq!(validate(&anonymous), Err("tenant must be non-empty".into()));
    }
}
