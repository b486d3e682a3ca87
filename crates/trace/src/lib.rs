#![warn(missing_docs)]
//! # boolsubst-trace — structured tracing for the substitution engine
//!
//! The engine's aggregate [`SubstStats`] block answers *how much* time the
//! sweep spent per stage; this crate answers *which pair burned it and
//! why*. It provides a zero-cost-when-off tracing layer the engine
//! threads through as an `Option<&mut Tracer>`:
//!
//! * a **span/event model** ([`PairRecord`], [`TraceEvent`])
//!   carrying target/divisor ids, per-stage nanos
//!   (enumerate/filter/sim/divide/apply), and a typed [`Outcome`]
//!   covering every reject reason the stats counters know about plus the
//!   SOP/POS/extended acceptance kinds;
//! * a **bounded ring-buffer recorder** ([`Tracer`]) — aggregates
//!   (histograms, funnel counts, top-K slowest pairs, per-target heat)
//!   stay exact even after the ring starts dropping old events;
//! * **log2-bucket latency histograms** ([`LatencyHistogram`]) per stage
//!   and per outcome;
//! * two **exporters** ([`export`]): newline-delimited JSON events and
//!   the Chrome trace-event format loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev);
//! * a human-readable [`TraceReport`] — reject-reason funnel,
//!   histograms, slowest pairs, hottest targets;
//! * a tiny std-only [`json`] writer/parser shared with the bench
//!   emitters and the CI trace validator.
//!
//! The disabled path is bit-identical and near-free: every hook is
//! guarded by an `Option` that the engine leaves `None` unless a tracer
//! was attached, and the tracer itself never touches the network.
//!
//! [`SubstStats`]: https://docs.rs/boolsubst-core

pub mod export;
pub mod hist;
pub mod json;
pub mod report;
pub mod span;
pub mod tracer;

pub use hist::{bucket_ceil, bucket_floor, bucket_index, LatencyHistogram, BUCKETS};
pub use report::TraceReport;
pub use span::{
    GuardScope, GuardTier, Outcome, PairGuard, PairRecord, ShadowUse, Stage, StageNanos, TraceEvent,
};
pub use tracer::{TargetAgg, Tracer};
