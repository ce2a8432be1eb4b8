//! Unified observability layer for the rlgraph workspace.
//!
//! One [`Recorder`] handle flows through every execution layer — the
//! static [`Session`], the define-by-run executor, the distributed
//! actor/learner runtime, and the discrete-event cluster simulator — and
//! provides:
//!
//! * **Metrics**: lock-cheap [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s with p50/p95/p99 estimation.
//! * **Spans**: RAII scopes on real threads, explicit-timestamp spans on
//!   named tracks for simulated actors.
//! * **Clocks**: the [`ClockSource`] abstraction lets identical
//!   instrumentation record wall-clock time ([`WallClock`]) in executors
//!   and virtual time ([`VirtualTime`]) inside the simulator.
//! * **Exporters**: a plain-text [`summary`] table and Chrome trace-event
//!   JSON ([`chrome_trace`]) loadable in `chrome://tracing` / Perfetto.
//! * **Distributed telemetry**: a compact [`TraceContext`] carried across
//!   RPC boundaries, per-process [`TraceDump`]s merged into one
//!   multi-process Chrome trace ([`merged_chrome_trace`]), a
//!   [`ClusterRegistry`] folding heartbeat-shipped
//!   [`MetricsSnapshot`] deltas into bounded time-series rings, and a
//!   flight recorder ([`Recorder::enable_flight`]) keeping the last N
//!   events for crash post-mortems.
//!
//! The default recorder is [`Recorder::disabled`]: every instrumentation
//! call then costs a single branch, so production paths pay nothing when
//! observability is off.
//!
//! ```
//! use rlgraph_obs::Recorder;
//!
//! let (rec, clock) = Recorder::virtual_time();
//! let worker = rec.track("worker-0");
//! rec.complete(worker, "collect", 0, 1_500);
//! clock.set_micros(1_500);
//! rec.counter("frames").add(128);
//! let json = rlgraph_obs::chrome_trace(&rec);
//! assert!(json.contains("\"ph\":\"X\""));
//! ```
//!
//! [`Session`]: https://docs.rs/rlgraph

#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod context;
pub mod export;
pub mod flight;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use clock::{seconds_to_micros, ClockSource, VirtualTime, WallClock};
pub use cluster::{ClusterRegistry, DeltaTracker, SeriesPoint, WindowStats};
pub use context::{ContextScope, TraceContext, FLAG_SAMPLED};
pub use export::{chrome_trace, summary, write_chrome_trace};
pub use flight::{FlightEvent, FlightKind};
pub use merge::{merged_chrome_trace, DumpEvent, DumpKind, ProcessTrace, TraceDump};
pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::{
    HistogramSummary, MetricsSnapshot, Recorder, SpanGuard, SpanTotal, DEFAULT_FLIGHT_CAPACITY,
};
pub use trace::TrackId;
