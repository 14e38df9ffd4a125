//! `repro-perf`: the repository's end-to-end and per-layer benchmark.
//!
//! Four workloads cross the system's layers in different proportions:
//! `livermore-xlate` (Fig. 14 on the translated backend), `dse-grid` (the
//! committed design-space grid on the tick interpreter), `serve-miss`
//! (distinct programs through mt-serve, every request a cache miss) and
//! `serve-hit` (the same service answering from its cache). `BENCHMARK.json`
//! at the repository root names the workloads and metrics; `README.md`
//! next to this package explains them.

pub mod client;
pub mod compare;
pub mod gen;
pub mod host;
pub mod measure;
pub mod micro;
pub mod pin;
pub mod runner;
pub mod servework;
pub mod simwork;
pub mod spec;
pub mod stats;

use std::path::PathBuf;

/// Where traced runs write their Chrome traces and `all` its document:
/// `out/` inside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
