//! The differential validation of the static analyzer.
//!
//! Tier 1 — exactness: on straight-line cache-warm programs the static
//! prediction must be **bit-identical** to the simulator's warm-rerun
//! `RunStats` and to the measured per-PC profile, across randomized
//! programs exercising every hazard class on randomized machines
//! (proptest) and hand-written worst cases.
//!
//! Tier 2 — loop steady states: for vectorizable kernel loops the
//! steady-state cycles-per-iteration must agree with the measured warm
//! profile (checked end-to-end in `repro-mca`; here on representative
//! kernels).

use mt_fparith::FpOp;
use mt_isa::cost::IssueTiming;
use mt_isa::cpu::{AluOp, BranchCond};
use mt_isa::{FReg, FpuAluInstr, IReg, Instr};
use mt_lint::cfg::ProgramView;
use mt_lint::mca::{loops, straight_line, Prediction, Skip};
use mt_sim::{Machine, MachineConfig, Program, RunStats, SimConfig};
use mt_trace::{Profiler, TraceEvent};
use proptest::prelude::*;

/// Pointer registers, preset to disjoint data regions and never written
/// by generated code. r1/r2 address the FP regions (only `fst` writes
/// them, and all FP values are zero, so no overflow can abort a vector);
/// r3/r4 address the integer regions.
const FP_BASES: [u8; 2] = [1, 2];
const INT_BASES: [u8; 2] = [3, 4];
const REGION: [(u8, i32); 4] = [(1, 0x2000), (2, 0x3000), (3, 0x4000), (4, 0x5000)];

/// Runs `prog` with the §3.2 protocol (cold pass, then warm rerun) on
/// the machine with issue timing `timing` and returns the warm
/// statistics plus the warm event stream.
fn warm_run(prog: &Program, timing: IssueTiming) -> (RunStats, Vec<TraceEvent>) {
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
    let mut events: Vec<TraceEvent> = Vec::new();
    let warm = m.run_with_sink(&mut events).expect("warm run halts");
    (warm, events)
}

/// Asserts the static prediction equals the measured warm run, counter
/// by counter and PC by PC.
fn assert_exact(prog: &Program, warm: &RunStats, events: &[TraceEvent], pred: &Prediction) {
    let ctx = || format!("program:\n{}", prog.disassemble().join("\n"));
    assert_eq!(pred.cycles, warm.cycles, "cycles; {}", ctx());
    assert_eq!(
        pred.counters.instructions,
        warm.instructions,
        "instructions; {}",
        ctx()
    );
    assert_eq!(
        pred.counters.drain_cycles,
        warm.drain_cycles,
        "drain; {}",
        ctx()
    );
    assert_eq!(pred.counters.stalls, warm.stalls, "stalls; {}", ctx());
    assert_eq!(
        pred.counters.transfers,
        warm.fpu.instructions_transferred,
        "transfers; {}",
        ctx()
    );
    assert_eq!(
        pred.counters.elements,
        warm.fpu.elements_issued,
        "elements; {}",
        ctx()
    );
    assert_eq!(pred.counters.flops, warm.fpu.flops, "flops; {}", ctx());
    assert_eq!(
        pred.counters.scoreboard_stalls,
        warm.fpu.scoreboard_stall_cycles,
        "scoreboard; {}",
        ctx()
    );
    assert_eq!(pred.counters.fpu_loads, warm.fpu.loads, "loads; {}", ctx());
    assert_eq!(
        pred.counters.fpu_stores,
        warm.fpu.stores,
        "stores; {}",
        ctx()
    );

    // Per-PC attribution must match the measured profile row for row.
    let profile = Profiler::from_events(events);
    for (&idx, p) in &pred.per_pc {
        let pc = prog.base + 4 * idx as u32;
        let row = profile.pc(pc).cloned().unwrap_or_default();
        assert_eq!(
            p.completions,
            row.completions,
            "completions @{idx}; {}",
            ctx()
        );
        assert_eq!(p.stalls, row.stalls, "stalls @{idx}; {}", ctx());
        assert_eq!(
            p.scoreboard_stalls,
            row.scoreboard_stalls,
            "scoreboard @{idx}; {}",
            ctx()
        );
        assert_eq!(p.elements, row.elements, "elements @{idx}; {}", ctx());
        assert_eq!(p.drain, row.drain, "drain @{idx}; {}", ctx());
    }
    // And nothing measured may be missing from the prediction.
    for (pc, row) in profile.rows() {
        let idx = ((pc - prog.base) / 4) as usize;
        if !pred.per_pc.contains_key(&idx) {
            assert_eq!(
                row.attributed_cycles(),
                0,
                "unpredicted row @{idx}; {}",
                ctx()
            );
        }
    }
}

fn check_program_on(instrs: Vec<Instr>, timing: IssueTiming) {
    let prog = Program::assemble(&instrs).expect("generated instructions encode");
    let (warm, events) = warm_run(&prog, timing);
    let view = ProgramView::decode(&prog);
    let pred = straight_line(&view, timing).expect("straight-line");
    assert_exact(&prog, &warm, &events, &pred);
}

/// [`check_program_on`] the paper's machine.
fn check_program(instrs: Vec<Instr>) {
    check_program_on(instrs, IssueTiming::multititan());
}

// ---------------------------------------------------------------------
// Hand-written worst cases, one per hazard class.
// ---------------------------------------------------------------------

fn fv(op: FpOp, rr: u8, ra: u8, rb: u8, vl: u8) -> Instr {
    Instr::Falu(FpuAluInstr::vector(op, FReg::new(rr), FReg::new(ra), FReg::new(rb), vl).unwrap())
}

fn fld(fr: u8, base: u8, offset: i32) -> Instr {
    Instr::Fld {
        fr: FReg::new(fr),
        base: IReg::new(base),
        offset,
    }
}

fn fst(fr: u8, base: u8, offset: i32) -> Instr {
    Instr::Fst {
        fr: FReg::new(fr),
        base: IReg::new(base),
        offset,
    }
}

#[test]
fn ir_busy_back_to_back_vectors() {
    check_program(vec![
        fv(FpOp::Add, 16, 0, 8, 8),
        fv(FpOp::Mul, 32, 24, 24, 8), // stalls until the first vector drains the IR
        Instr::Halt,
    ]);
}

#[test]
fn fpu_reg_hazard_store_of_inflight_result() {
    check_program(vec![
        fv(FpOp::Add, 16, 0, 8, 4),
        fst(16, 1, 0), // result not ready: scoreboard hazard, then element conflicts
        Instr::Halt,
    ]);
}

#[test]
fn int_load_use_interlock() {
    check_program(vec![
        Instr::Lw {
            rd: IReg::new(5),
            base: IReg::new(3),
            offset: 0,
        },
        Instr::Alu {
            op: AluOp::Add,
            rd: IReg::new(6),
            rs1: IReg::new(5),
            rs2: IReg::new(5),
        }, // 2-cycle load-use delay
        Instr::Halt,
    ]);
}

#[test]
fn ls_port_contention_store_then_load() {
    check_program(vec![
        Instr::Sw {
            rs: IReg::new(3),
            base: IReg::new(3),
            offset: 0,
        }, // stores hold the port 2 cycles
        fld(0, 1, 0),
        fld(1, 1, 8),
        Instr::Halt,
    ]);
}

#[test]
fn drain_outlives_halt() {
    check_program(vec![
        fld(0, 1, 0),
        fv(FpOp::Mul, 36, 0, 0, 16), // 16 elements still issuing at halt
        Instr::Halt,
    ]);
}

#[test]
fn scoreboard_chain_through_vector_elements() {
    check_program(vec![
        fld(8, 1, 0),
        fv(FpOp::Add, 16, 8, 8, 8),
        fv(FpOp::Mul, 24, 16, 16, 8), // reads the first vector's results as they retire
        Instr::Halt,
    ]);
}

// ---------------------------------------------------------------------
// Randomized differential: any straight-line program drawn from the full
// hazard-relevant instruction set predicts exactly.
// ---------------------------------------------------------------------

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
            Instr::Falu(
                FpuAluInstr::new(
                    op,
                    FReg::new(rr),
                    FReg::new(ra),
                    FReg::new(rb),
                    vl,
                    sra,
                    srb,
                )
                .expect("register runs fit by construction"),
            )
        })
        .boxed()
}

fn gen_fp_mem() -> BoxedStrategy<Instr> {
    (any::<bool>(), 0u8..52, 0usize..2, 0i32..32)
        .prop_map(|(load, fr, base, k)| {
            let base = IReg::new(FP_BASES[base]);
            let offset = 8 * k;
            if load {
                Instr::Fld {
                    fr: FReg::new(fr),
                    base,
                    offset,
                }
            } else {
                Instr::Fst {
                    fr: FReg::new(fr),
                    base,
                    offset,
                }
            }
        })
        .boxed()
}

fn gen_int() -> BoxedStrategy<Instr> {
    let alu = (0usize..4, 5u8..16, 0u8..16, 0u8..16).prop_map(|(op, rd, rs1, rs2)| Instr::Alu {
        op: [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Xor][op],
        rd: IReg::new(rd),
        rs1: IReg::new(rs1),
        rs2: IReg::new(rs2),
    });
    let addi = (5u8..16, 0u8..16, -64i32..64).prop_map(|(rd, rs1, imm)| Instr::Addi {
        rd: IReg::new(rd),
        rs1: IReg::new(rs1),
        imm,
    });
    let lui = (5u8..16, 0u32..1024).prop_map(|(rd, imm)| Instr::Lui {
        rd: IReg::new(rd),
        imm,
    });
    prop_oneof![alu, addi, lui].boxed()
}

fn gen_int_mem() -> BoxedStrategy<Instr> {
    (any::<bool>(), 5u8..16, 0usize..2, 0i32..32)
        .prop_map(|(load, r, base, k)| {
            let base = IReg::new(INT_BASES[base]);
            let offset = 4 * k;
            if load {
                Instr::Lw {
                    rd: IReg::new(r),
                    base,
                    offset,
                }
            } else {
                Instr::Sw {
                    rs: IReg::new(r),
                    base,
                    offset,
                }
            }
        })
        .boxed()
}

fn gen_misc() -> BoxedStrategy<Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::ClrPsw),
        (5u8..16).prop_map(|rd| Instr::Mfpsw { rd: IReg::new(rd) }),
    ]
    .boxed()
}

fn gen_instr() -> BoxedStrategy<Instr> {
    prop_oneof![
        3 => gen_falu(),
        3 => gen_fp_mem(),
        2 => gen_int(),
        2 => gen_int_mem(),
        1 => gen_misc(),
    ]
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
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn straight_line_prediction_is_bit_identical(
        body in prop::collection::vec(gen_instr(), 1..100),
        timing in gen_timing(),
    ) {
        let mut instrs = body;
        instrs.push(Instr::Halt);
        check_program_on(instrs, timing);
    }
}

// ---------------------------------------------------------------------
// Loop steady states on real kernels.
// ---------------------------------------------------------------------

/// daxpy-like strip loop: the steady state must be found, be exact
/// against the simulator's per-iteration cost, and identify the binding
/// resource.
#[test]
fn vector_strip_loop_reaches_a_steady_state() {
    use mt_asm::Asm;

    let mut a = Asm::new();
    let n = IReg::new(5);
    let p = IReg::new(1);
    a.li(n, 64);
    let top = a.here();
    for i in 0..8 {
        a.fld(FReg::new(i as u8), p, 8 * i);
    }
    a.falu(FpuAluInstr::vector(FpOp::Add, FReg::new(16), FReg::new(0), FReg::new(8), 8).unwrap());
    for i in 0..8 {
        a.fst(FReg::new(16 + i as u8), p, 8 * i);
    }
    a.addi(n, n, -8);
    a.branch(BranchCond::Ne, n, IReg::ZERO, top);
    a.halt();
    let prog = a.assemble(0).expect("assembles");

    let view = ProgramView::decode(&prog);
    let found = loops(&view, IssueTiming::multititan());
    assert_eq!(found.len(), 1, "one loop: {found:#?}");
    let l = &found[0];
    let ss = l.result.as_ref().expect("body is straight-line");
    assert!(ss.cycles > 0 && ss.iterations > 0);
    // 17 instructions per iteration plus interlocks: CPI must exceed the
    // issue floor and the machine must name a bottleneck.
    assert!(ss.cycles_per_iteration() >= 17.0, "{ss:#?}");
    assert!(!ss.bottleneck.is_empty());
}

/// A loop whose body branches internally is reported, but with
/// `Skip::NotStraightLine` — never a bogus number.
#[test]
fn data_dependent_body_is_skipped_not_guessed() {
    use mt_asm::Asm;

    let mut a = Asm::new();
    let n = IReg::new(5);
    let t = IReg::new(6);
    a.li(n, 16);
    let top = a.here();
    let skip = a.label();
    a.branch(BranchCond::Ge, t, IReg::ZERO, skip);
    a.addi(t, t, 1);
    a.bind(skip);
    a.addi(n, n, -1);
    a.branch(BranchCond::Ne, n, IReg::ZERO, top);
    a.halt();
    let prog = a.assemble(0).expect("assembles");

    let view = ProgramView::decode(&prog);
    let found = loops(&view, IssueTiming::multititan());
    assert_eq!(found.len(), 1);
    assert!(
        matches!(found[0].result, Err(Skip::NotStraightLine(_))),
        "{:#?}",
        found[0].result
    );
}

/// The straight-line analyzer refuses control flow instead of guessing.
#[test]
fn straight_line_refuses_branches() {
    let mut a = mt_asm::Asm::new();
    let l = a.label();
    a.nop();
    a.bind(l);
    a.halt();
    let prog = a.assemble(0).unwrap();
    let view = ProgramView::decode(&prog);
    assert!(straight_line(&view, IssueTiming::multititan()).is_ok());

    let mut a = mt_asm::Asm::new();
    let top = a.here();
    a.j(top);
    a.halt();
    let prog = a.assemble(0).unwrap();
    let view = ProgramView::decode(&prog);
    assert!(matches!(
        straight_line(&view, IssueTiming::multititan()),
        Err(Skip::ControlFlow(0))
    ));
}
