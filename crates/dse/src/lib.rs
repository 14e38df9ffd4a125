//! Design-space exploration over the parameterized machine.
//!
//! The paper defends one design point: a unified 52-register
//! vector/scalar file behind a shared latency-3 FPU with a single
//! load/store port. [`mt_sim::MachineConfig`] names that point's
//! coordinates; this crate moves along the axes and reports what the
//! neighborhood looks like:
//!
//! * [`grid`] — a declarative sweep specification: named knob axes with
//!   value lists, expanded cartesian or paired into concrete cells;
//! * [`runner`] — runs every (cell × kernel) pair through the ordinary
//!   kernel harness, fanned across cores by [`sweep`], and computes
//!   per-cell summaries (harmonic-mean warm MFLOPS, warm cycles per
//!   element, register-file bits) plus the Pareto frontier. Its one
//!   cell runner, [`CellSpec::run_loop`], also runs `POST /sweep`'s
//!   kernel-cell jobs;
//! * [`json`] — the byte-stable `mt-dse-v1` document behind
//!   `BENCH_dse.json` and `POST /sweep`, one renderer for both;
//! * [`sweep`] — the work-stealing parallel driver every `repro-*`
//!   binary fans its kernels through.
//!
//! The committed `BENCH_dse.json` is regenerated by
//! `cargo run --release -p mt-dse --bin repro-dse -- --json` and gated
//! byte-for-byte in CI (wall-clock fields excepted).

pub mod grid;
pub mod json;
pub mod runner;
pub mod sweep;

pub use grid::{Axis, GridMode, GridSpec};
pub use json::SCHEMA;
pub use runner::{pareto_front, parse_loops, run_grid, CellResult, CellSpec};
