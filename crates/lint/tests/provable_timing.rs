//! The provable ordering tier against the simulator, on any machine:
//! for a straight-line program, the `ordering-violation` findings at each
//! instruction must be exactly the violations `mt_sim::ordering_violations`
//! finds there in the recorded warm rerun — same count, same kinds, same
//! order — under randomized issue timing.

use std::collections::BTreeMap;

use mt_fparith::FpOp;
use mt_isa::cost::IssueTiming;
use mt_isa::cpu::AluOp;
use mt_isa::{FReg, FpuAluInstr, IReg, Instr};
use mt_lint::{lint_program_with, Lint, LintOptions};
use mt_sim::{ordering_violations, Machine, MachineConfig, Program, SimConfig, ViolationKind};
use proptest::prelude::*;

/// Base registers preset to disjoint data regions and never written by
/// generated code: r1/r2 for FPU loads/stores (every FPU value stays
/// zero, so no overflow aborts a vector), r3 for integer loads/stores.
const REGION: [(u8, i32); 3] = [(1, 0x2000), (2, 0x3000), (3, 0x4000)];

/// Violations per instruction index, in reporting order.
type PerIndex = BTreeMap<usize, Vec<ViolationKind>>;

/// The simulator's violations on the recorded warm rerun (§3.2
/// protocol: a cold pass, then a rerun with every cache warm).
fn simulated(prog: &Program, timing: IssueTiming) -> PerIndex {
    let mut m = Machine::new(SimConfig {
        machine: MachineConfig {
            timing,
            ..MachineConfig::default()
        },
        ..SimConfig::default()
    });
    m.load_program(prog);
    for (r, addr) in REGION {
        m.set_ireg(IReg::new(r), addr);
    }
    m.run().expect("cold run halts");
    m.reset_for_rerun();
    for (r, addr) in REGION {
        m.set_ireg(IReg::new(r), addr);
    }
    let mut warm = Vec::new();
    m.run_with_sink(&mut warm).expect("warm run halts");
    let mut out = PerIndex::new();
    for v in ordering_violations(&warm) {
        out.entry(v.instr_index).or_default().push(v.kind);
    }
    out
}

/// The provable tier's findings under the same timing.
fn proven(prog: &Program, timing: IssueTiming) -> PerIndex {
    let opts = LintOptions {
        timing,
        ..LintOptions::default()
    };
    let mut out = PerIndex::new();
    for f in lint_program_with(prog, &opts) {
        if f.lint != Lint::OrderingViolation {
            continue;
        }
        let kind = if f.message.contains("clobbers a source") {
            ViolationKind::LoadClobbersPendingSource
        } else if f.message.contains("races the write") {
            ViolationKind::LoadIntoPendingDest
        } else {
            assert!(f.message.contains("reads the destination"), "{f:?}");
            ViolationKind::StoreReadsPendingDest
        };
        out.entry(f.instr_index).or_default().push(kind);
    }
    out
}

/// Asserts lint and the simulator agree; returns the violation count.
fn assert_agree(instrs: &[Instr], timing: IssueTiming) -> usize {
    let prog = Program::assemble(instrs).expect("generated instructions encode");
    let dynamic = simulated(&prog, timing);
    assert_eq!(
        proven(&prog, timing),
        dynamic,
        "{timing:?}\nprogram:\n{}",
        prog.disassemble().join("\n")
    );
    dynamic.values().map(Vec::len).sum()
}

fn fld(fr: u8) -> Instr {
    Instr::Fld {
        fr: FReg::new(fr),
        base: IReg::new(1),
        offset: 0,
    }
}

/// A load racing element 2 of a vector violates the rule on the
/// one-lane paper machine; with two lanes element 2 is the current,
/// interlocked element when the load arrives, so there is nothing to
/// report.
#[test]
fn lanes_change_what_is_provable() {
    let v = FpuAluInstr::vector(FpOp::Add, FReg::new(16), FReg::new(0), FReg::new(8), 4).unwrap();
    let prog = [Instr::Falu(v), fld(2), Instr::Halt];
    let paper = IssueTiming::multititan();
    assert_eq!(assert_agree(&prog, paper), 1);
    let two_lanes = IssueTiming {
        fpu_lanes: 2,
        ..paper
    };
    assert_eq!(assert_agree(&prog, two_lanes), 0);
}

fn gen_falu() -> BoxedStrategy<Instr> {
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
            let f = FpuAluInstr::new(
                op,
                FReg::new(rr),
                FReg::new(ra),
                FReg::new(rb),
                vl,
                sra,
                srb,
            )
            .expect("register runs fit by construction");
            Instr::Falu(f)
        })
        .boxed()
}

fn gen_fp_mem() -> BoxedStrategy<Instr> {
    (any::<bool>(), 0u8..52, 1u8..=2, 0i32..32)
        .prop_map(|(load, fr, base, k)| {
            let (fr, base, offset) = (FReg::new(fr), IReg::new(base), 8 * k);
            if load {
                Instr::Fld { fr, base, offset }
            } else {
                Instr::Fst { fr, base, offset }
            }
        })
        .boxed()
}

/// Integer work that shifts the FPU accesses in time: loads with a
/// load-use delay, stores holding the port, and ALU ops on their
/// results.
fn gen_int() -> BoxedStrategy<Instr> {
    (0usize..3, 5u8..9, 5u8..9, 0i32..16)
        .prop_map(|(kind, rd, rs, k)| match kind {
            0 => Instr::Lw {
                rd: IReg::new(rd),
                base: IReg::new(3),
                offset: 4 * k,
            },
            1 => Instr::Sw {
                rs: IReg::new(rs),
                base: IReg::new(3),
                offset: 4 * k,
            },
            _ => Instr::Alu {
                op: AluOp::Add,
                rd: IReg::new(rd),
                rs1: IReg::new(rs),
                rs2: IReg::new(rd),
            },
        })
        .boxed()
}

/// A machine around the paper's: every issue-timing knob drawn from a
/// small range that includes the paper's value.
fn gen_timing() -> BoxedStrategy<IssueTiming> {
    (1u64..=7, 1u64..=4, 1u64..=3, 1u64..=3, 0u64..=3, 0u64..=3)
        .prop_map(
            |(fpu_latency, fpu_lanes, load, store, int_delay, branch)| IssueTiming {
                fpu_latency,
                fpu_lanes,
                load_port_cycles: load,
                store_port_cycles: store,
                int_load_delay_cycles: int_delay,
                branch_penalty: branch,
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn provable_violations_match_checked_mode_on_any_timing(
        body in prop::collection::vec(
            prop_oneof![3 => gen_falu(), 4 => gen_fp_mem(), 2 => gen_int()],
            1..40,
        ),
        timing in gen_timing(),
    ) {
        let mut instrs = body;
        instrs.push(Instr::Halt);
        assert_agree(&instrs, timing);
    }
}
