//! Static analysis for MultiTitan programs.
//!
//! `mt-lint` holds the repository's static analyzers. Both read the
//! decoded program and its control-flow graph ([`cfg`](mod@cfg)), and
//! both replay timing on one abstract machine, the repository's one
//! static timing model:
//!
//! * the cycle/throughput analyzer [`mca`] (`mtasm mca`, `repro-mca`):
//!   exact straight-line predictions and loop steady states;
//! * the linter, which checks assembled programs ([`mt_sim::Program`])
//!   against the software contracts the hardware does not enforce.
//!
//! The lints are:
//!
//! * the **§2.3.2 ordering rule** — an FPU load/store must not bypass a
//!   not-yet-issued element of an in-flight vector instruction it depends
//!   on. Two tiers: *provable* violations (errors) from running the
//!   straight-line entry block on the abstract timing machine under the
//!   machine's [`LintOptions::timing`] with warm caches, and *possible*
//!   hazards (warnings) from a timing-insensitive control-flow analysis that
//!   over-approximates the dynamic check of a recorded run
//!   ([`mt_sim::ordering_violations`]);
//! * **register dataflow** over the 52-register file and PSW —
//!   possibly-uninitialized reads, dead stores, and write-after-write
//!   clobbers inside overlapping vector register ranges;
//! * **structural rules** — register runs past R51, stride/VL
//!   combinations that alias the destination into a live source range
//!   mid-vector (with an allowlist for intentional Fig. 8 recurrences),
//!   `frecip` launches that do not match the 6-op Newton–Raphson division
//!   macro, store-shadow scheduling opportunities, and basic blocks no
//!   path from the entry reaches (unreachable code).
//!
//! Findings carry the text-section instruction index and absolute PC;
//! `mtasm lint` joins them with assembler source spans for rustc-style
//! diagnostics.
//!
//! # Example
//!
//! ```
//! use mt_isa::{FReg, FpuAluInstr, Instr};
//! use mt_fparith::FpOp;
//! use mt_sim::Program;
//!
//! // A VL-4 add followed immediately by a load into its pending source:
//! // the load executes while elements of the vector are still waiting to
//! // issue — a provable §2.3.2 violation.
//! let v = FpuAluInstr::vector(FpOp::Add, FReg::new(8), FReg::new(0), FReg::new(4), 4).unwrap();
//! let prog = Program::assemble(&[
//!     Instr::Falu(v),
//!     Instr::Fld { fr: FReg::new(2), base: mt_isa::IReg::ZERO, offset: 0 },
//!     Instr::Halt,
//! ]).unwrap();
//!
//! let findings = mt_lint::lint_program(&prog);
//! assert!(findings.iter().any(|f| f.lint == mt_lint::Lint::PossibleOrderingHazard
//!     || f.lint == mt_lint::Lint::OrderingViolation));
//! ```

use std::collections::HashSet;

use mt_isa::cost::IssueTiming;
use mt_sim::Program;

use crate::cfg::ProgramView;

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod mca;
pub mod ordering;
pub mod structural;

pub use diag::{Finding, Lint, Severity};

/// Analysis configuration.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Issue timing of the machine the program runs on; the provable
    /// ordering tier replays the entry block under it. Defaults to the
    /// paper's machine.
    pub timing: IssueTiming,
    /// Instruction indices allowed to alias their destination into a live
    /// source range (intentional recurrences like Fig. 8's Fibonacci).
    /// The assembler populates this from `lint: allow(recurrence)` comment
    /// annotations.
    pub allow_recurrence: HashSet<usize>,
}

/// Lints `program` with default options.
pub fn lint_program(program: &Program) -> Vec<Finding> {
    lint_program_with(program, &LintOptions::default())
}

/// Lints `program` with explicit options.
pub fn lint_program_with(program: &Program, opts: &LintOptions) -> Vec<Finding> {
    let view = &ProgramView::decode(program);
    let mut out = Vec::new();
    structural::range_overflow(view, &mut out);
    ordering::provable_violations(view, opts, &mut out);
    ordering::possible_hazards(view, &mut out);
    dataflow::uninitialized_reads(view, &mut out);
    dataflow::dead_stores(view, &mut out);
    structural::recurrence_alias(view, opts, &mut out);
    structural::malformed_division(view, &mut out);
    structural::store_shadow(view, &mut out);
    structural::unreachable_code(view, &mut out);

    // A proven violation subsumes the possible-hazard warning for the same
    // load/store.
    let proven: HashSet<usize> = out
        .iter()
        .filter(|f| f.lint == Lint::OrderingViolation)
        .map(|f| f.instr_index)
        .collect();
    out.retain(|f| !(f.lint == Lint::PossibleOrderingHazard && proven.contains(&f.instr_index)));

    out.sort_by_key(|f| {
        (
            f.instr_index,
            std::cmp::Reverse(f.severity()),
            f.lint.name(),
        )
    });
    out
}

/// Number of error-severity findings.
pub fn error_count(findings: &[Finding]) -> usize {
    findings
        .iter()
        .filter(|f| f.severity() == Severity::Error)
        .count()
}
