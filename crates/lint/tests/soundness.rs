//! The static/dynamic soundness property: every ordering violation
//! `mt_sim::ordering_violations` finds in a recorded run is covered by a
//! static finding (provable or possible) at the same instruction.

use mt_fparith::FpOp;
use mt_isa::{FReg, FpuAluInstr, IReg, Instr};
use mt_lint::{lint_program, Lint};
use mt_sim::{ordering_violations, Machine, OrderingViolation, Program, SimConfig};
use proptest::prelude::*;

/// Vector arithmetic over the low 51 registers (so every stride/VL
/// combination stays in range). Sticking to add/sub/mul on the zeroed
/// register file keeps the PSW clean — no overflow aborts to squash
/// elements mid-vector.
fn falu() -> BoxedStrategy<Instr> {
    (
        0usize..3,
        0u8..36,
        0u8..36,
        0u8..36,
        1u8..=16,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(op, rr, ra, rb, vl, sra, srb)| {
            let op = [FpOp::Add, FpOp::Sub, FpOp::Mul][op];
            let instr = FpuAluInstr::new(
                op,
                FReg::new(rr),
                FReg::new(ra),
                FReg::new(rb),
                vl,
                sra,
                srb,
            )
            .expect("register runs fit by construction");
            Instr::Falu(instr)
        })
        .boxed()
}

fn fld() -> BoxedStrategy<Instr> {
    (0u8..52, 0i32..64)
        .prop_map(|(fr, k)| Instr::Fld {
            fr: FReg::new(fr),
            base: IReg::ZERO,
            offset: 8 * k,
        })
        .boxed()
}

fn fst() -> BoxedStrategy<Instr> {
    (0u8..52, 0i32..64)
        .prop_map(|(fr, k)| Instr::Fst {
            fr: FReg::new(fr),
            base: IReg::ZERO,
            offset: 8 * k,
        })
        .boxed()
}

fn instr() -> BoxedStrategy<Instr> {
    prop_oneof![falu(), fld(), fst()].boxed()
}

/// Runs `m` to halt with the run recorded and returns the §2.3.2 view of
/// it.
fn recorded_violations(m: &mut Machine) -> Vec<OrderingViolation> {
    let mut events = Vec::new();
    m.run_with_sink(&mut events)
        .expect("straight-line programs run to halt");
    ordering_violations(&events)
}

/// Guard against the property holding vacuously: this known-hazardous
/// program must make the dynamic checker fire, and the static analyzer
/// must cover it.
#[test]
fn property_is_not_vacuous() {
    let v = FpuAluInstr::vector(FpOp::Add, FReg::new(16), FReg::new(0), FReg::new(8), 8).unwrap();
    let prog = Program::assemble(&[
        Instr::Falu(v),
        Instr::Fld {
            fr: FReg::new(5),
            base: IReg::ZERO,
            offset: 0,
        },
        Instr::Halt,
    ])
    .unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    let violations = recorded_violations(&mut m);
    assert!(!violations.is_empty(), "dynamic checker must fire");
    let findings = lint_program(&prog);
    for v in &violations {
        assert!(
            findings.iter().any(|f| f.instr_index == v.instr_index
                && matches!(
                    f.lint,
                    Lint::OrderingViolation | Lint::PossibleOrderingHazard
                )),
            "violation {v} uncovered: {findings:#?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn dynamic_violations_are_statically_covered(
        body in prop::collection::vec(instr(), 1..24),
    ) {
        let mut instrs = body;
        instrs.push(Instr::Halt);
        let prog = Program::assemble(&instrs).expect("all generated instructions encode");

        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.warm_instructions(&prog); // warm fetch path: more CPU/FPU overlap,
                                    // hence more chances for violations
        let violations = recorded_violations(&mut m);

        let findings = lint_program(&prog);
        for v in &violations {
            let covered = findings.iter().any(|f| {
                f.instr_index == v.instr_index
                    && matches!(
                        f.lint,
                        Lint::OrderingViolation | Lint::PossibleOrderingHazard
                    )
            });
            prop_assert!(
                covered,
                "dynamic violation `{v}` not covered by any static finding.\n\
                 program:\n{}\nfindings: {findings:#?}",
                prog.disassemble().join("\n")
            );
        }
    }
}
