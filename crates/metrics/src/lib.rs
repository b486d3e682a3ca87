//! Process-wide cost accounting for the boolsubst engine.
//!
//! The trace subsystem (`boolsubst-trace`) answers "what happened to
//! pair (t, d)?" — per-event spans with stage timings. This crate
//! answers the aggregate question — "where does the time, memory, and
//! work actually go?" — with always-cheap typed instruments:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: lock-free atomic
//!   instruments handed out by a [`MetricsHandle`]-shared [`Registry`].
//!   Handles are resolved once (one interning lookup) and then every
//!   hot-path update is a single relaxed atomic op.
//! - [`mem`]: a counting global allocator behind the `mem-profile`
//!   feature, plus helpers to publish live/peak byte gauges.
//! - Sinks: [`prometheus_string`] (text exposition format),
//!   [`json_snapshot_string`] (routed through `boolsubst_trace::json`),
//!   and a live stderr [`Heartbeat`] ticker for long sweeps.
//!
//! Histogram bucketing reuses `boolsubst_trace::hist`'s log2 scheme
//! (65 buckets; bucket *i* ≥ 1 covers `[2^(i-1), 2^i - 1]`), so trace
//! report quantiles and metric histograms agree bucket for bucket.
//!
//! The attachment contract mirrors the tracer's: an engine holding an
//! `Option<MetricsHandle>` must produce bit-identical results whether
//! the handle is attached or not (pinned by the root crate's
//! `engine_parity` tests). Instruments only *observe*.

#![warn(missing_docs)]

pub mod heartbeat;
pub mod mem;
pub mod prometheus;
pub mod registry;
pub mod snapshot;

pub use heartbeat::{format_tick, Heartbeat, TickState};
pub use prometheus::prometheus_string;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsHandle, Registry, Snapshot,
};
pub use snapshot::json_snapshot_string;
