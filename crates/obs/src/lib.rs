#![deny(missing_docs)]

//! Structured protocol-event tracing for the Shasta / SMP-Shasta
//! reproduction.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The protocol engine emits a stream of [`Event`]s — inline-check misses,
//! message sends and receives, downgrade progress, poll-point drains, line
//! locks, pending-state transitions, and execution-time slices — into a
//! [`Recorder`]. The recorder keeps a bounded per-processor ring of recent
//! events for timeline export and *streams* every time slice into a
//! [`Fig4Agg`], so the Figure 4 execution-time breakdown can be derived from
//! the event stream itself and cross-checked against the `shasta-stats`
//! counters (any divergence is a bug in one of the two paths). The same
//! zero-tolerance idea extends to Figures 6 and 7: [`MissAgg`] and
//! [`MsgAgg`] rederive the miss and message counters from the stream.
//!
//! On top of the raw stream sits the **sharing profiler**
//! ([`profile::ProfileAgg`]): per-block sharing histories classified into
//! patterns (read-mostly, migratory, producer–consumer, false-shared,
//! private), rolled up to `malloc` site labels, with a granularity advisor
//! that recommends per-allocation block-size hints
//! ([`profile::ProfileAgg::advise`]).
//!
//! Exporters:
//!
//! * [`chrome::to_chrome_json`] renders an [`EventLog`] in the Chrome
//!   `trace_event` JSON format, which opens in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) as a per-processor timeline.
//! * [`Fig4Agg::breakdown`] reproduces the per-processor Figure 4 breakdown
//!   from the slice stream alone.
//! * [`profile::ProfileAgg::advise`] emits one granularity recommendation
//!   per allocation site, with evidence.
//! * [`critpath::analyze`] reconstructs the run's causal DAG from the
//!   event stream and extracts the **critical path**: attributed
//!   compute / protocol / wire / queueing / sync segments that tile
//!   `[0, elapsed_cycles)` exactly (zero-tolerance accounting), rendered
//!   by `shasta_stats::critical_path_report`.
//!
//! Recording is compiled out entirely when the `obs` feature of
//! `shasta-core` is disabled; this crate itself is dependency-light (only
//! `shasta-stats`, for [`TimeCat`](shasta_stats::TimeCat) and
//! [`Breakdown`](shasta_stats::Breakdown)) and never allocates on the
//! record path once the rings are at capacity.
//!
//! See `docs/OBSERVABILITY.md` for the event schema, the ring-buffer
//! design, and a worked example that captures the Figure 2(b) downgrade
//! race.

pub mod chrome;
pub mod critpath;
mod event;
mod fig4;
pub mod hints;
pub mod metrics;
pub mod profile;
mod recorder;
mod rederive;

pub use critpath::{analyze, CritPath, PathCat, Segment};
pub use event::{Event, EventKind};
pub use fig4::Fig4Agg;
pub use hints::{hints_from_reports, HintFile, HintParseError, SiteHint};
pub use metrics::{Counter, Gauge, Histogram, HistogramHandle, Registry};
pub use profile::{ProfileAgg, Recommendation, SharingPattern, SiteReport, SpaceMap};
pub use recorder::{EventLog, ProcEvents, Recorder};
pub use rederive::{DowngradeAgg, MissAgg, MsgAgg};
