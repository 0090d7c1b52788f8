//! Structured tracing and metrics for the Para-CONV stack
//! (`paraconv-obs`).
//!
//! Every layer of the pipeline — partition → retime → DP placement →
//! schedule → simulate → audit — instruments itself against this
//! crate: phase **spans** for a Perfetto-loadable timeline, and
//! **counters / gauges / histograms** for a deterministic metrics
//! snapshot. Recording is off by default and gated by one process-wide
//! atomic, so instrumented hot paths (the simulator's per-task loop,
//! the DP fill) cost a single relaxed load when observability is not
//! requested.
//!
//! Three properties the rest of the workspace relies on:
//!
//! * **Deterministic metrics.** Snapshots contain only simulated
//!   quantities merged with commutative operations, so a sweep run on
//!   one worker and on N workers exports byte-identical JSONL.
//! * **Contention-free recording.** Records land in thread-local
//!   buffers; merging happens on thread exit (sweep workers) or an
//!   explicit flush — never inside the recording fast path.
//! * **Leaf of the workspace.** The build environment has no registry
//!   access; this crate sits at the bottom of the workspace graph
//!   (only the vendored `serde_json` stand-in below it, supplying the
//!   one shared JSON string escaper) and serializes its own JSON.
//!
//! On top of the snapshot layer sit two serving-grade facilities:
//! [`Histogram::quantile`] (deterministic p50/p90/p99) and the
//! **flight recorder**
//! ([`flight_enable`]/[`flight_record`]) — a bounded ring of
//! structured events drained into postmortem artifacts when a
//! campaign dies.
//!
//! # Examples
//!
//! ```
//! use paraconv_obs as obs;
//!
//! obs::enable();
//! {
//!     let _phase = obs::span("demo.phase", "demo");
//!     obs::counter_add("demo.items", 3);
//!     obs::gauge_max("demo.peak", 7);
//!     obs::observe("demo.latency", 12);
//! }
//! obs::disable();
//!
//! let metrics = obs::snapshot();
//! assert_eq!(metrics.counter("demo.items"), 3);
//! // One JSON object per metric, sorted — safe to diff across runs.
//! assert!(metrics.to_jsonl().contains("\"demo.peak\""));
//!
//! let mut trace = obs::ChromeTrace::new();
//! trace.push_spans(0, &obs::take_spans());
//! assert!(trace.to_json().starts_with("{\"traceEvents\":"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cancel;
mod chrome;
mod flight;
pub mod json;
mod metrics;
mod recorder;

pub use cancel::{cancel_requested, CancelScope, CancelToken};
pub use chrome::{check_trace, ChromeEvent, ChromeTrace};
pub use flight::{
    flight_active, flight_disable, flight_enable, flight_events, flight_record, flight_reset,
    FlightEvent, DEFAULT_FLIGHT_CAPACITY,
};
pub use metrics::{
    check_metrics_jsonl, check_prometheus, prometheus_name, Histogram, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use recorder::{
    counter_add, current_tid, disable, enable, enabled, flush_thread, gauge_max, logical_time,
    now_us, observe, reset, set_enabled, snapshot, span, take_spans, SpanEvent, SpanGuard,
};
