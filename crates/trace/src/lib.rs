//! `mt-trace` — structured event tracing and cycle-attribution profiling
//! for the MultiTitan simulator.
//!
//! The paper argues entirely with timing diagrams and cycle accounting
//! (Figs. 5–8, the §3 Livermore/Linpack tables); this crate is the
//! substrate that lets the reproduction make the same arguments about its
//! own runs. The simulator emits a stream of typed per-cycle
//! [`TraceEvent`]s — instruction transfers, vector element issue/retire,
//! load/store port activity, CPU completions, stalls with their cause,
//! cache hits and misses — into the [`EventSink`] a caller hands its run
//! loop. That stream is the only way to watch a run, and everything
//! downstream is *a consumer of it*:
//!
//! * [`Profiler`] folds the stream into per-PC histograms (productive
//!   cycles, stalls by cause, data-cache misses, elements issued) and
//!   renders a rustc-style "hot spots" report with source spans;
//! * [`chrome::trace_json`] exports Chrome trace-event JSON, loadable in
//!   Perfetto with one track per functional unit/port;
//! * the simulator's `Timeline` (Figs. 5–8 style diagrams) builds its
//!   rows from the same events;
//! * the CPU log (`mtasm run --trace`, `/run?trace=1`) is one
//!   [`TraceEvent::cpu_log_line`] per completion;
//! * [`MetricsRegistry`] aggregates named counters and histograms across
//!   kernels for the `BENCH_*.json` perf trajectory.
//!
//! # Zero cost when off
//!
//! Emission goes through the [`EventSink`] trait. The simulator's run
//! loop is generic over the sink, so a run with [`NullSink`]
//! monomorphizes every `sink.enabled()` guard to `false` and the
//! compiler removes both the event construction and the call — tracing
//! off costs nothing, which the `repro-*` binaries rely on.
//!
//! # Determinism
//!
//! Every report and exporter iterates `BTreeMap`s (never `HashMap`s) and
//! carries no wall-clock state, so two runs of the same program produce
//! byte-identical output — asserted by the golden-output tests.

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use event::{EventKind, StallCause, TraceEvent};
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{PcStats, Profiler, SourceResolver};
pub use sink::{replay, EventSink, NullSink};
