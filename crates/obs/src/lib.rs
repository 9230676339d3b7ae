#![warn(missing_docs)]

//! `dsd-obs` — structured tracing and metrics for the designer stack.
//!
//! The two-level search (design solver over configuration solver) is an
//! opaque randomized optimizer; this crate makes it observable without
//! perturbing it. Three pieces:
//!
//! * a **tracing core** ([`Recorder`], [`span`], [`instant`]): span
//!   guards with monotonic timing, collected through per-thread buffers
//!   so portfolio workers never contend on the hot path;
//! * a **metrics registry** ([`MetricsRegistry`]): named counters,
//!   gauges, and log-linear [`Histogram`]s (e.g. `solver.eval_latency`,
//!   `cache.hit_ratio`, `recovery.schedule_len`), snapshotable to JSON;
//! * **exporters** ([`export`]): a JSONL solver trace (one event per
//!   greedy placement, refit move, cache hit/miss, scenario batch,
//!   progress event) and its lenient reader;
//! * a **self-profiler** ([`profile`]): folds the recorded span stream
//!   into a deterministic, mergeable call-path tree (per-node self and
//!   total time, call counts) behind `dsd obs profile` / `dsd obs
//!   flame`, the per-layer shares of `dsd-benchmark trace`, and the
//!   Chrome `trace_event` file loadable in `about:tracing` / Perfetto;
//! * **progress events** ([`progress`]): typed recorder events —
//!   incumbent improvements with the gap to the certificate bound, phase
//!   transitions, per-worker heartbeats — that a reader polls while the
//!   search runs (status lines) or reads back from a progress log or a
//!   trace (convergence curves);
//! * the workspace's **monotonic clock** ([`Stopwatch`]): the single
//!   helper every elapsed-time field is measured with.
//!
//! # Usage
//!
//! Instrumented code calls the free functions; they are no-ops unless a
//! recorder is installed on the current thread:
//!
//! ```
//! let recorder = dsd_obs::Recorder::new();
//! {
//!     let _guard = recorder.install();
//!     let mut span = dsd_obs::span("solve", "solver");
//!     span.arg("budget", 300u64);
//!     dsd_obs::add("solver.nodes_evaluated", 1);
//!     dsd_obs::observe("solver.eval_latency", 0.002);
//! } // guard drop flushes this thread's buffers
//! let trace = dsd_obs::export::trace_jsonl(&recorder.drain_events());
//! let metrics = recorder.metrics_snapshot();
//! assert_eq!(metrics.counter("solver.nodes_evaluated"), Some(1));
//! assert!(trace.contains("\"name\":\"solve\""));
//! ```
//!
//! # Overhead
//!
//! With no recorder installed every entry point is one thread-local
//! check (a < 2% target that no check gates, DESIGN.md §6e). Recording
//! never consumes randomness, so instrumented and uninstrumented searches
//! are bit-identical.

mod clock;
mod event;
pub mod export;
mod metrics;
pub mod profile;
pub mod progress;
mod recorder;

pub use clock::{duration_ns, Stopwatch};
pub use event::{ArgValue, Event, EventKind};
pub use metrics::{
    BucketSnapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    MoveRates,
};
pub use profile::{ProfileNode, ProfileRow, ProfileTree, PROFILE_SCHEMA_VERSION};
pub use progress::{ProgressEvent, ProgressKind};
pub use recorder::{
    add, current, enabled, flush, gauge, instant, instant_with, observe, span, InstallGuard,
    Recorder, Span,
};
