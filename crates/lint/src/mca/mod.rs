//! Static cycle/throughput analysis for MultiTitan programs,
//! differentially validated against the simulator.
//!
//! The simulator (`mt-sim`) tells you what a program *did*; this module
//! tells you what it *must* do, by replaying the same per-cycle hazard
//! rules over the program text without executing it. The two views are
//! tied together by construction: both sides read the instruction
//! latency/resource metadata from [`mt_isa::cost`], and the abstract
//! machine (`machine::AbstractMachine`) steps the CPU/FPU phases in
//! exactly the simulator's order — CPU hazard guards (integer load-use,
//! load/store port, FPU register hazard, IR busy), instruction effects,
//! branch redirect, then one FPU element-issue phase per cycle, then the
//! post-`halt` drain.
//!
//! # What the analyzer produces
//!
//! * [`straight_line`]: for branch-free code ending in `halt`, the
//!   complete warm-cache execution profile — total cycles, the full
//!   stall breakdown, and per-instruction attribution in the same
//!   categories as the measured [`mt_trace::Profiler`].
//! * [`loops`]: natural loops from the basic-block graph
//!   ([`crate::cfg`]), and for every loop whose body is a single
//!   straight-line path, the steady-state **cycles per iteration** and
//!   the binding bottleneck resource, found by iterating the abstract
//!   machine until its normalized state (`machine::StateKey`) repeats.
//!
//! # The exactness boundary
//!
//! MultiTitan timing is value-independent *except* for three channels,
//! which bound what a static analysis can promise:
//!
//! 1. **Branch direction.** A conditional branch's timing depends on
//!    which way it goes. Straight-line analysis refuses control flow
//!    ([`Skip::ControlFlow`]); loop analysis pins each in-body branch to
//!    the direction that stays on the loop path, so its prediction is
//!    exact *for iterations that take that path* and the loop-exit
//!    iteration differs only in the final redirect.
//! 2. **Addresses.** Cache hits and misses depend on the addresses a
//!    program computes. The analyzer models the **cache-warm** machine
//!    (every penalty zero), which is exactly the simulator's warm rerun
//!    for working sets that fit — the same protocol `repro-paper` uses —
//!    and a lower bound otherwise.
//! 3. **Arithmetic traps.** Overflow aborts a run early; the analyzer
//!    assumes the program completes.
//!
//! Inside that boundary the claim is not "close": straight-line
//! cache-warm predictions are **bit-identical** to `RunStats` from a
//! warm simulator rerun on the same [`mt_isa::cost::IssueTiming`],
//! enforced by a proptest differential suite over random programs on
//! random machines and golden-kernel tests in `tests/static_timing.rs`.
//! Outside it, loop steady states are validated against measured warm
//! profiles in `BENCH_mca.json` (±5% on kernel loops).
//!
//! # One static timing model, two clients
//!
//! The abstract machine is the repository's only static replay of the
//! simulator's timing. This module's analyses read its counters; the
//! provable §2.3.2 tier ([`crate::ordering`]) reads the ALU IR state that
//! `AbstractMachine::exec` hands back for each load and store, and
//! classifies overlaps with `mt_sim::ViolationKind::clashes`, the rule
//! the simulator's interlock and `mt_sim::ordering_violations`, its view
//! of a recorded run, use.

mod analysis;
pub mod json;
pub(crate) mod machine;
pub mod report;

pub use analysis::{loops, straight_line, LoopAnalysis, Prediction, Skip, SteadyState};
pub use machine::{Counters, PcPrediction};
