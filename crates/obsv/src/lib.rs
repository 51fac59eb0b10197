//! `pim-obsv` — observability layer for the PIM-Assembler platform.
//!
//! This crate provides the measurement surface the rest of the stack feeds:
//!
//! * [`Metric`] / [`CounterSet`] / [`Histogram`] — fixed-array integer
//!   counters and log2-bucketed histograms with **no heap allocation on the
//!   record path**. Every hot-path increment is an indexed add into an
//!   inline array ([`ContextObsv`]), mirroring the integer-exact
//!   `EnergyLedger` discipline: commutative `merge`/`since` deltas make the
//!   final numbers independent of execution interleaving.
//! * [`MetricsRegistry`] — per-stage × per-sub-array scoped accumulation
//!   keyed by a small [`ScopeId`]. Hot paths never touch the registry;
//!   deltas are folded in at stage boundaries.
//! * [`MetricsSnapshot`] — a flat, serde-free JSON snapshot
//!   (`--metrics-out metrics.json`) merged into `PerfReport`.
//! * [`SpanRecorder`] — begin/end spans for pipeline stages, checkpoint
//!   writes, the report's schedule and dispatcher batches in a bounded
//!   ring buffer, exportable as Chrome `trace_event` JSON (`--trace-out
//!   trace.json`, readable in `chrome://tracing` or Perfetto).
//! * [`json`] — the one JSON codec behind every artifact: the snapshot,
//!   the trace, the `pim-asm bench` report and the golden files. Numbers
//!   stay text (exact integers, writer-chosen float precision), the
//!   layout is two-space indent with one member per line, and the parser
//!   rejects anything else without panicking.
//! * [`StageBudget`] — a watchdog comparing live counters against expected
//!   bounds derived from the compiled AAP templates, surfaced through the
//!   `pim-verify` invariant checker.
//! * [`DispatchMetrics`] — lock-free dispatcher telemetry (batches, queue
//!   depth, barrier wait, per-worker items), split into execution-order
//!   *deterministic* counters and host-timing counters.
//!
//! The crate is dependency-free (std only) so it can sit underneath
//! `pim-dram` without widening the build graph.

#![warn(missing_docs)]

mod budget;
mod counters;
mod dispatch;
pub mod json;
mod registry;
mod snapshot;
mod span;

pub use budget::{BudgetLine, StageBudget};
pub use counters::{ContextObsv, CounterSet, HistKey, HistSet, Histogram, Metric};
pub use dispatch::{DispatchMetrics, MAX_TRACKED_WORKERS};
pub use registry::{MetricsRegistry, ScopeId, Stage, GLOBAL_SUBARRAY};
pub use snapshot::{MetricsSnapshot, SNAPSHOT_SCHEMA};
pub use span::{SpanEvent, SpanRecorder};
