//! # itb-obs — observability for the ITB/Myrinet reproduction
//!
//! One crate unifies what used to be three ad-hoc mechanisms (a per-NIC
//! free-form trace ring, the network's per-packet timeline notes and the
//! scattered `NetStats`/`NicStats` counters):
//!
//! * [`PacketTracer`] — a bounded, disabled-by-default recorder of typed
//!   packet-lifecycle [`Stage`] events (`host.inject`, `mcp.early_recv`,
//!   `mcp.itb_detect`, `mcp.itb_forward`, `net.link_acquire`,
//!   `net.link_block`, `host.deliver`, …), keyed by the network's stable
//!   packet id. Hot paths pay a single branch while tracing is off.
//! * [`MetricsFrame`] / [`MetricsSchema`] — the one sampling
//!   representation: positional counter and per-link values refilled in
//!   place, with names built once per run. [`Snapshot`] is its artifact
//!   shape (a sorted, name-keyed view serializable to JSON).
//! * [`export`] — artifact writers: JSONL event dumps, Chrome
//!   `trace_event` JSON (openable in Perfetto / `chrome://tracing`), a
//!   per-stage latency attribution that decomposes an end-to-end packet
//!   latency into injection / wormhole transit / ITB-hop / delivery, and a
//!   per-shard PDES window-utilization gantt built from
//!   `itb_sim::par` profiler records.
//! * [`timeline`] — a sim-time timeline sampler: periodic
//!   [`MetricsFrame`] deltas (driven by scheduled sim events, never
//!   wall-clock) streamed as a JSONL series of per-interval
//!   injected/delivered/link-load change.
//! * [`health`] — runtime health monitors: a sim-time no-progress stall
//!   watchdog, an end-of-run buffer-leak audit and a monotonic-counter
//!   conservation check, reported as a structured [`HealthReport`].
//! * [`observers`] — the one sidecar an integrating world holds: it builds
//!   both observers over one schema and feeds them each sampled frame
//!   against one shared previous sample.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod export;
pub mod frame;
pub mod health;
pub mod metrics;
pub mod observers;
pub mod stage;
pub mod timeline;
pub mod tracer;

pub use export::{attribute, spans, Attribution, ParTraceMeta, Span};
pub use frame::{LinkVals, MetricsFrame, MetricsSchema};
pub use health::{BufferAudit, HealthConfig, HealthMonitor, HealthReport, Violation};
pub use metrics::{LinkLoad, QuantileSummary, Snapshot};
pub use observers::{ObserverPlan, Observers};
pub use stage::Stage;
pub use timeline::{IntervalSample, TimelineSampler};
pub use tracer::{PacketTracer, StageEvent};
