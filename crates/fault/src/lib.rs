//! Deterministic fault injection for the MultiTitan simulator.
//!
//! This crate turns the cycle-level simulator into a resilience
//! instrument: a seeded plan of single-bit upsets (registers, PSW, FPU
//! pipeline latches, scoreboard, cache tag/state, memory words) is
//! replayed against each workload with golden-vs-injected differential
//! comparison, and every injection is classified as *masked*,
//! *detected* (the §2.3.1 overflow-abort machinery flagged it), *SDC*
//! (silent data corruption), *crash*, or *hang*.
//!
//! The whole campaign is a pure function of `(workloads, seed,
//! config)`: the PRNG is a fixed SplitMix64, the simulator is
//! deterministic, and the result document contains no wall-clock or
//! host-specific field — so `BENCH_fault.json` can be byte-diffed in CI.
//!
//! The crate is workload-agnostic: [`Workload::prepare`] takes any
//! set-up [`mt_sim::Machine`] plus an output oracle. The bench layer
//! adapts verified kernels; `mtasm fault` adapts bare assembled
//! programs via [`run_program_campaign`].
//!
//! # Example
//!
//! ```
//! use mt_fault::{run_program_campaign, CampaignConfig};
//! use mt_fparith::FpOp;
//! use mt_isa::{FReg, FpuAluInstr, Instr};
//! use mt_sim::Program;
//!
//! let prog = Program::assemble(&[
//!     Instr::Falu(FpuAluInstr::vector(FpOp::Add, FReg::new(16), FReg::new(0), FReg::new(8), 8).unwrap()),
//!     Instr::Halt,
//! ]).unwrap();
//! let cfg = CampaignConfig { injections: 10, ..CampaignConfig::default() };
//! let result = run_program_campaign(&prog, "vec-add", &cfg).unwrap();
//! assert_eq!(result.counts.total(), 10);
//! ```

pub mod campaign;
pub mod inject;
pub mod plan;
pub mod rng;

pub use campaign::{
    run_campaign, run_program_campaign, text_region, CampaignConfig, CampaignResult,
    InjectionRecord, Outcome, OutcomeCounts, VerifyFn, Workload,
};
pub use inject::apply;
pub use plan::{draw_injection, CacheId, FaultTarget, Injection, PlanBounds};
pub use rng::{parse_u64, SplitMix64};
