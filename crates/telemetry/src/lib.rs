//! Dual-clock span tracing for the Tempus serving stack.
//!
//! A request crosses five layers (ingestion queue, admission, fleet
//! routing, array-ledger grant, backend execution) that live in **two
//! clock domains**: the service layers run on host wall time while
//! the ledger and backends run on deterministic device cycles. This
//! crate records both on one trace:
//!
//! - [`TraceEvent`]s are spans, instants or counter samples on a
//!   registered [`Track`](event::TrackMeta) — one track per worker
//!   thread (wall clock) and one per device array (cycle clock, with
//!   a declared period so both domains render on a single timeline).
//! - Recording goes through one [`TraceSink`] trait. The live
//!   implementation is a bounded **drop-oldest ring buffer** owned by
//!   the recording thread (lock-free on the hot path: no shared state
//!   is touched per event); the disabled implementation is a no-op
//!   [`NullSink`], so an untraced run pays one virtual call per
//!   *would-be* event and nothing else.
//! - The [`Telemetry`] hub collects drained rings, maintains the
//!   counter registry and per-stage duration histograms
//!   ([`TelemetrySummary`]), and exports the merged trace as
//!   Chrome/Perfetto `trace_event` JSON ([`TraceExport::to_perfetto_json`])
//!   or VCD waveforms ([`VcdSink`]).
//!
//! Tracing never changes what the system computes: every timestamp on
//! the device-cycle tracks comes from the deterministic ledger/backend
//! cycle model, and the serving layers assert bit-identical output
//! digests with tracing on and off (`trace_overhead` bench gate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hub;
pub mod json;
pub mod perfetto;
pub mod reservoir;
pub mod ring;
pub mod summary;
pub mod timeline;
pub mod vcd;

pub use event::{Clock, EventKind, Stage, TraceEvent, TrackId, TrackMeta};
pub use hub::{stage_unit, Telemetry, TraceExport, DEFAULT_RING_CAPACITY};
pub use reservoir::{percentile, Reservoir, SplitMix64};
pub use ring::{NullSink, RingSink, TraceSink};
pub use summary::{Counter, StageSummary, TelemetrySummary};
pub use timeline::{DeviceTimeline, PlacedSpan};
pub use vcd::VcdSink;
