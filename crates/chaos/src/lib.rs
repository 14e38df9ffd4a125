//! `mt-chaos` — a seeded, service-level chaos harness for `mt-serve`.
//!
//! The serve crate's unit and e2e tests each poke one failure mode in
//! isolation; this crate replays a whole *campaign* of them against a
//! live server, in a pseudo-random but reproducible order, and checks
//! the properties that only hold if every recovery path actually works:
//!
//! * after **every** scenario the server still answers `GET /healthz`;
//! * the worker pool never shrinks — every injected worker death is
//!   matched by a supervisor respawn (`worker_respawns` in `/metrics`);
//! * the accounting partition balances at quiescence:
//!   `accepted == completed + rejected + shed + failed`;
//! * a trivial job still runs to a `200` at the end (the pool is not
//!   just alive but *serving*).
//!
//! Reproducibility follows the `mt-fault` contract: the scenario
//! sequence is a pure function of `(seed, scenarios, hooks)` drawn from
//! the same [`SplitMix64`] generator, so a CI failure is re-runnable
//! bit-for-bit with the printed seed. The report's *structural* fields
//! (schema, seed, scenario kinds, check verdicts) are deterministic;
//! wall-clock and load-race fields (`elapsed_ms`, raw accounting
//! counts) are tolerated by the `chaos` benchdiff profile.
//!
//! Two failure kinds — [`scenario::ScenarioKind::PanicJob`] and
//! [`scenario::ScenarioKind::KillWorker`] — need the server's opt-in
//! chaos hooks (`--chaos-hooks`); a hooks-off plan simply never draws
//! them, so a hooks-off campaign is safe to point at any server.
//!
//! Drive it with `repro-chaos`, which spawns an in-process hooked server,
//! or with `repro-chaos --url http://host:port [--hooks]`, which attacks
//! a server you already run.
//!
//! [`httpc`] is the workspace's one HTTP client for `mt-serve`; the
//! campaign, `mtasm client` and the serve crate's tests share it.

pub mod campaign;
pub mod httpc;
pub mod scenario;

pub use campaign::{run_campaign, CampaignReport};
pub use mt_fault::SplitMix64;
pub use scenario::{plan, ScenarioKind};

/// The chaos hook markers `mt-serve` recognizes in job sources.
///
/// Private copies: `mt-chaos` deliberately does not depend on
/// `mt-serve` (the `mtasm` binary links both, and `mt-serve` sits
/// downstream of `mt-asm`), and the strings are a wire protocol, not an
/// implementation detail — `crates/serve/src/server.rs` pins them with
/// constants of the same value.
pub const PANIC_MARKER: &str = "CHAOS-PANIC-WORKER";
/// See [`PANIC_MARKER`]; this one kills the worker thread outright.
pub const KILL_MARKER: &str = "CHAOS-KILL-WORKER";

/// The `X-Client-Id` of every campaign request: one fairness lane.
pub const CLIENT_ID: &str = "chaos";

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the scenario plan (and all per-scenario randomness).
    pub seed: u64,
    /// Number of scenarios to run.
    pub scenarios: usize,
    /// Whether the target was started with `--chaos-hooks`. When false
    /// the plan never draws `PanicJob`/`KillWorker`.
    pub expect_hooks: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            // The default draw covers all ten scenario kinds (checked
            // by a unit test) — CI's committed baseline exercises the
            // whole menu.
            seed: 0xC4A19,
            scenarios: 14,
            expect_hooks: false,
        }
    }
}
