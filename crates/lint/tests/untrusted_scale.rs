//! Lint runs on untrusted text (`POST /run?lint=1`, `/assemble?lint=1`)
//! before any deadline checkpoint, so its cost must grow linearly with
//! the program. Each generator below loads one pass that a quadratic
//! algorithm would stall on: the `jr r31` return edges, liveness over a
//! chain of backward jumps, and the possible-hazard sets at a join of
//! many vectors.

use std::time::{Duration, Instant};

use mt_asm::parse;
use mt_lint::{lint_program, Finding, Lint};
use mt_sim::Program;

/// Generous wall-clock budget for one lint of up to 32,000 lines in an
/// unoptimized test build: linear passes take a fraction of a second,
/// quadratic ones tens of seconds.
const BUDGET: Duration = Duration::from_secs(5);

fn assemble(source: &str) -> Program {
    parse(source, 0x1_0000).expect("generated programs assemble")
}

fn lint_within_budget(what: &str, source: &str) -> Vec<Finding> {
    let program = assemble(source);
    let started = Instant::now();
    let findings = lint_program(&program);
    assert!(
        started.elapsed() < BUDGET,
        "{what}: lint took {:?}",
        started.elapsed()
    );
    findings
}

/// `jal fK` for every K, then every `fK: jr r31`.
fn calls_and_returns(n: usize) -> String {
    let mut s = String::new();
    for k in 0..n {
        s += &format!("jal f{k}\n");
    }
    for k in 0..n {
        s += &format!("f{k}: jr r31\n");
    }
    s
}

/// A chain of jumps to lower indices: entry jumps to `L{n}`, and each
/// `L{k}` jumps to `L{k-1}` down to a load and `halt`.
fn backward_chain(n: usize) -> String {
    let mut s = format!("j L{n}\nL0: fld R0, 0(r0)\nhalt\n");
    for k in 1..=n {
        s += &format!("L{k}: j L{}\n", k - 1);
    }
    s
}

/// `n` VL-2 vectors, each followed by a branch to `J`, so all `n` may be
/// in flight at the join; then `n` integer ops and a load of `load`.
fn vector_join(n: usize, load: &str) -> String {
    let mut s = String::from("li r2, 1\n");
    for _ in 0..n {
        s += "fadd R8..R9, R0..R1, R2..R3\nbne r2, r0, J\n";
    }
    s += "J:\n";
    for _ in 0..n {
        s += "addi r1, r1, 1\n";
    }
    s + &format!("fld {load}, 0(r0)\nhalt\n")
}

#[test]
fn many_call_sites_lint_in_linear_time() {
    let findings = lint_within_budget("16,000 jal/jr pairs", &calls_and_returns(16_000));
    // Past the return-edge cap every call site and callee stays reachable.
    assert!(findings.iter().all(|f| f.lint != Lint::UnreachableCode));
}

#[test]
fn backward_jump_chain_lints_in_linear_time() {
    let findings = lint_within_budget("16,000 backward jumps", &backward_chain(16_000));
    // The load reaches `halt`, where everything is live.
    assert!(findings.iter().all(|f| f.lint != Lint::DeadStore));
}

#[test]
fn wide_vector_join_lints_in_linear_time() {
    lint_within_budget("1,000 joined vectors", &vector_join(1_000, "R8"));
}

#[test]
fn a_join_past_the_tracking_cap_warns_once_without_naming_a_vector() {
    let hazards = |n: usize| -> Vec<Finding> {
        lint_program(&assemble(&vector_join(n, "R9")))
            .into_iter()
            .filter(|f| f.lint == Lint::PossibleOrderingHazard)
            .collect()
    };
    // At the cap every vector is named: element 1 of each writes R9.
    let named = hazards(16);
    assert_eq!(named.len(), 16, "{named:#?}");
    assert!(named.iter().all(|f| f.message.contains("transferred at")));
    // One more, and the load gets one warning that names none.
    let unnamed = hazards(17);
    assert_eq!(unnamed.len(), 1, "{unnamed:#?}");
    assert!(!unnamed[0].message.contains("transferred at"));
    assert_eq!(unnamed[0].instr_index, 1 + 2 * 17 + 17);
}
