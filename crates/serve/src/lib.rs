//! `mt-serve` — a concurrent simulation service over the MultiTitan
//! toolchain.
//!
//! The repro binaries and `mtasm` run one program per process; this
//! crate turns the same toolchain into a long-lived service so many
//! clients (CI shards, sweeps, editors wanting lint-on-save) can share
//! one warm process. A tiny std-only HTTP/1.1 server accepts
//! assemble/run jobs and the pieces compose:
//!
//! * [`queue::JobQueue`] — bounded admission with per-client round-robin
//!   fairness; a full queue answers `429 Retry-After` without ever
//!   blocking the accept loop;
//! * [`server`] — a worker pool sized by core count, each worker owning
//!   one reusable [`mt_sim::Machine`] recycled per job
//!   (`Machine::reset_for_new_job` — proven bit-identical to a fresh
//!   machine by `tests/machine_reuse.rs`), with per-job cycle and
//!   watchdog limits surfacing as structured `RunError` documents;
//! * [`cache::ResultCache`] — content-addressed responses keyed by a
//!   hash of `(source, options)` with LRU eviction; legal because a run
//!   is a pure function of its job;
//! * [`metrics::ServeMetrics`] — queue depth, worker utilization, cache
//!   hit ratio, bounded HDR histograms (service cycles and per-stage
//!   wall-clock latency — O(1) memory in the request count), and
//!   sliding-window rates, behind `GET /metrics` in JSON or Prometheus
//!   text exposition (`?format=prometheus`);
//! * request spans ([`mt_obs::SpanSet`]) — every request is timed
//!   through `read-request` → `parse` → `cache-lookup` → `queue-wait` →
//!   `worker-service` ⊃ `sim-run` → `respond`; `?span-trace=1` embeds
//!   the request's Chrome trace (Perfetto-loadable) in the response.
//!
//! # Endpoints
//!
//! ```text
//! POST /assemble            body: assembly source → {words: [hex]}
//! POST /run?profile=1&lint=1&trace=1&cold=1&base=<hex>&cycles=<n>&watchdog=<n>&span-trace=1
//!                           body: assembly source → {stats, profile?, lint?, trace?, span_trace?}
//! GET  /metrics             service metrics document (JSON)
//! GET  /metrics?format=prometheus   Prometheus text exposition 0.0.4
//! GET  /healthz             liveness probe
//! ```
//!
//! A query key the route does not read, or any key given twice, answers
//! `400 bad-query` naming the key. Responses carry `X-Cache: hit|miss`;
//! bodies are byte-identical either way (`span_trace` is attached after
//! the cache, never stored in it).
//! Drive it with `mtasm client` (see the README's Serving section) or
//! plain `curl`.
//!
//! # Robustness (the mt-chaos work)
//!
//! * **Deadlines** — `?deadline-ms=` on a job endpoint sets an absolute
//!   wall-clock budget anchored at request arrival. A deadline burned
//!   in the queue sheds the job at dequeue with a structured
//!   `503 deadline-exceeded` *without occupying a worker*; a running
//!   job observes it at cooperative checkpoints inside the simulator
//!   ([`job::JobControl`], [`mt_sim::Machine::run_cancellable`]).
//! * **Supervision** — worker panics are caught; the machine is
//!   quarantined and rebuilt, `worker_panics` counts the event, and a
//!   worker thread that dies outright is respawned by a supervisor
//!   (`worker_respawns`). The pool never shrinks.
//! * **Slow-client defenses** — request head, body, and response write
//!   each run under absolute deadlines ([`http::DeadlineStream`]); a
//!   max-in-flight connection cap answers `503 overloaded`.
//! * **Bounded drain** — shutdown stops admission (`draining: true` in
//!   `/metrics`, job POSTs get `503 draining`), waits out a budget,
//!   cancels stragglers at their next checkpoint, and answers orphaned
//!   jobs with structured `503`s.
//! * **Accounting invariant** — every admitted job lands in exactly one
//!   terminal bucket: at quiescence `jobs_accepted == jobs_completed +
//!   jobs_rejected + jobs_shed + jobs_failed` (the `accounting` block
//!   in `/metrics`). The seeded chaos harness (`mt-chaos`, driven by
//!   `repro-chaos`, in process or with `--url` against a running
//!   server) asserts it after every scenario.

pub mod cache;
pub mod http;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod server;

pub use cache::ResultCache;
pub use http::DeadlineStream;
pub use job::{Endpoint, JobControl, JobRequest, JobResult, RunOptions};
pub use metrics::{Gauges, ServeMetrics};
pub use queue::JobQueue;
pub use server::{serve, ServerConfig, ServerHandle, KILL_MARKER, PANIC_MARKER};
