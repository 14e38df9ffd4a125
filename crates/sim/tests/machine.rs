//! Machine-level behaviour tests: CPU loops, memory timing, cold/warm cache
//! protocol, the dual-issue overlap, the §2.3.2 ordering view of a recorded
//! run, and failure modes.

use mt_fparith::FpOp;
use mt_isa::cpu::BranchCond;
use mt_isa::{FReg, FpuAluInstr, IReg, Instr};
use mt_sim::{
    ordering_violations, Backend, Machine, OrderingViolation, Program, RunError, SimConfig,
    Timeline, ViolationKind,
};
use mt_trace::TraceEvent;

fn r(i: u8) -> FReg {
    FReg::new(i)
}

fn ir(i: u8) -> IReg {
    IReg::new(i)
}

fn machine_with(instrs: &[Instr]) -> Machine {
    let prog = Program::assemble(instrs).expect("assembles");
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m
}

/// A counted loop summing integers 1..=10 with the CPU alone.
#[test]
fn cpu_counted_loop() {
    // r1 = counter, r2 = sum, r3 = limit.
    let m = &mut machine_with(&[
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 1,
        },
        Instr::Addi {
            rd: ir(2),
            rs1: ir(0),
            imm: 0,
        },
        Instr::Addi {
            rd: ir(3),
            rs1: ir(0),
            imm: 10,
        },
        // loop:
        Instr::Alu {
            op: mt_isa::cpu::AluOp::Add,
            rd: ir(2),
            rs1: ir(2),
            rs2: ir(1),
        },
        Instr::Addi {
            rd: ir(1),
            rs1: ir(1),
            imm: 1,
        },
        Instr::Branch {
            cond: BranchCond::Ge,
            rs1: ir(3),
            rs2: ir(1),
            offset: -3,
        },
        Instr::Halt,
    ]);
    let stats = m.run().unwrap();
    assert_eq!(m.ireg(ir(2)), 55);
    // 3 setup + 10×3 loop + halt = 34 instructions; the back-branch is
    // taken 9 times (the 10th falls through).
    assert_eq!(stats.instructions, 34);
    assert_eq!(stats.stalls.branch, 9);
}

#[test]
fn integer_load_store_and_delay_slot() {
    let m = &mut machine_with(&[
        Instr::Lw {
            rd: ir(1),
            base: ir(0),
            offset: 0x2000,
        },
        // Immediate use: must stall one cycle on the load interlock.
        Instr::Addi {
            rd: ir(2),
            rs1: ir(1),
            imm: 1,
        },
        Instr::Sw {
            rs: ir(2),
            base: ir(0),
            offset: 0x2004,
        },
        Instr::Halt,
    ]);
    m.mem.memory.write_u32(0x2000, 41);
    m.mem.try_load_u32(0x2000, None).unwrap(); // warm the line
    let stats = m.run().unwrap();
    assert_eq!(m.mem.memory.read_u32(0x2004), 42);
    assert_eq!(stats.stalls.int_load_hazard, 1, "one delay-slot interlock");
}

#[test]
fn store_port_is_busy_for_two_cycles() {
    let m = &mut machine_with(&[
        Instr::Fst {
            fr: r(0),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Fst {
            fr: r(1),
            base: ir(0),
            offset: 0x2008,
        },
        Instr::Fst {
            fr: r(2),
            base: ir(0),
            offset: 0x2010,
        },
        Instr::Halt,
    ]);
    m.mem.load_f64(0x2000);
    m.mem.load_f64(0x2010);
    m.fpu.regs_mut().write_vector(r(0), &[1.0, 2.0, 3.0]);
    let stats = m.run().unwrap();
    // Stores at cycles 0, 2, 4 — each back-to-back pair costs one port
    // stall ("back-to-back stores require two cycles", Fig. 13).
    assert_eq!(stats.stalls.ls_port_busy, 2);
    assert_eq!(m.mem.memory.read_f64(0x2010), 3.0);
}

#[test]
fn cold_cache_misses_freeze_issue() {
    let instrs = [
        Instr::Fld {
            fr: r(0),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Fld {
            fr: r(1),
            base: ir(0),
            offset: 0x2008,
        }, // same line: hit
        Instr::Fld {
            fr: r(2),
            base: ir(0),
            offset: 0x2010,
        }, // next line: miss
        Instr::Halt,
    ];
    let m = &mut machine_with(&instrs);
    m.mem.memory.write_f64(0x2000, 1.0);
    m.mem.memory.write_f64(0x2008, 2.0);
    m.mem.memory.write_f64(0x2010, 3.0);
    let stats = m.run().unwrap();
    assert_eq!(m.fpu.regs().read_f64(r(2)), 3.0);
    assert_eq!(stats.stalls.data_miss, 28, "two 14-cycle misses");
    assert_eq!(stats.dcache.misses, 2);
    assert_eq!(stats.dcache.hits, 1);
}

#[test]
fn warm_rerun_protocol_eliminates_data_misses() {
    let instrs = [
        Instr::Fld {
            fr: r(0),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Fld {
            fr: r(1),
            base: ir(0),
            offset: 0x2100,
        },
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);

    let cold = m.run().unwrap();
    assert!(cold.dcache.misses > 0);
    assert!(cold.ibuffer.misses > 0, "cold instruction fetch too");

    m.reset_for_rerun();
    let warm = m.run().unwrap();
    assert_eq!(warm.dcache.misses, 0);
    assert_eq!(warm.ibuffer.misses, 0);
    assert!(
        warm.cycles < cold.cycles,
        "warm {} must beat cold {}",
        warm.cycles,
        cold.cycles
    );
}

/// The two-operations-per-cycle overlap: loads issue while a vector's
/// elements issue, so the combined rate approaches 2 ops/cycle.
#[test]
fn dual_issue_overlaps_loads_with_vector_elements() {
    // One VL-16 multiply while 14 independent loads stream in.
    let mut instrs = vec![Instr::Falu(
        FpuAluInstr::vector(FpOp::Mul, r(16), r(0), r(32), 16).unwrap(),
    )];
    for i in 0..14 {
        instrs.push(Instr::Fld {
            fr: r(34 + i),
            base: ir(0),
            offset: 0x2000 + 8 * i as i32,
        });
    }
    instrs.push(Instr::Halt);

    let run_with = |serialized: bool| {
        let prog = Program::assemble(&instrs).unwrap();
        let mut m = Machine::new(SimConfig {
            serialized_issue: serialized,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        for i in 0..16u32 {
            m.mem.load_f64(0x2000 + 8 * i); // warm data
        }
        let stats = m.run().unwrap();
        (stats.cycles, stats.ops_per_cycle())
    };

    let (dual_cycles, dual_rate) = run_with(false);
    let (serial_cycles, _) = run_with(true);
    assert!(
        dual_rate > 1.5,
        "dual issue should approach 2 ops/cycle, got {dual_rate:.2}"
    );
    assert!(
        serial_cycles > dual_cycles + 10,
        "serialized issue must be much slower: {serial_cycles} vs {dual_cycles}"
    );
}

/// The serialized-issue gate is the guard's first check: an instruction
/// that waits both on the IR and on an integer load's delay slot is
/// charged `ir_busy`, on both backends.
#[test]
fn serialized_issue_charges_ir_busy_before_a_load_hazard() {
    let run_with = |serialized: bool, backend: Backend| {
        let prog = Program::assemble(&[
            Instr::Lw {
                rd: ir(1),
                base: ir(0),
                offset: 0x2000,
            },
            // Sixteen elements keep the IR busy past the load's delay.
            Instr::Falu(FpuAluInstr::vector(FpOp::Mul, r(16), r(0), r(32), 16).unwrap()),
            Instr::Addi {
                rd: ir(2),
                rs1: ir(1),
                imm: 1,
            },
            Instr::Halt,
        ])
        .unwrap();
        let mut config = SimConfig {
            serialized_issue: serialized,
            backend,
            ..SimConfig::default()
        };
        config.machine.timing.int_load_delay_cycles = 8;
        let mut m = Machine::new(config);
        m.load_program(&prog);
        m.warm_instructions(&prog);
        m.mem.memory.write_u32(0x2000, 41);
        m.mem.try_load_u32(0x2000, None).unwrap(); // warm the line
        let stats = m.run().unwrap();
        assert_eq!(m.ireg(ir(2)), 42);
        stats
    };
    for backend in [Backend::Tick, Backend::Xlate] {
        let dual = run_with(false, backend);
        assert!(dual.stalls.int_load_hazard > 0, "the add waits on the load");
        let serial = run_with(true, backend);
        assert_eq!(serial.stalls.int_load_hazard, 0, "{backend:?}");
        assert!(serial.stalls.ir_busy >= 8, "{backend:?}: {serial:?}");
    }
    assert_eq!(
        run_with(true, Backend::Tick),
        run_with(true, Backend::Xlate)
    );
}

#[test]
fn view_flags_store_before_element_issue() {
    // Store element 3's result register while the vector has only begun
    // issuing — the §2.3.2 case the compiler must break.
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fst {
            fr: r(23),
            base: ir(0),
            offset: 0x2000,
        }, // element 7's dest
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let violations = recorded_violations(&mut m);
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::StoreReadsPendingDest && v.reg == r(23)),
        "violations: {:?}",
        violations
    );
}

#[test]
fn view_flags_load_clobbering_pending_source() {
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fld {
            fr: r(7),
            base: ir(0),
            offset: 0x2000,
        }, // element 7 reads R7
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let violations = recorded_violations(&mut m);
    assert!(violations
        .iter()
        .any(|v| v.kind == ViolationKind::LoadClobbersPendingSource && v.reg == r(7)));
}

#[test]
fn view_flags_load_into_pending_dest() {
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fld {
            fr: r(23),
            base: ir(0),
            offset: 0x2000,
        }, // element 7 writes R23
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let violations = recorded_violations(&mut m);
    assert!(violations
        .iter()
        .any(|v| v.kind == ViolationKind::LoadIntoPendingDest && v.reg == r(23)));
}

#[test]
fn ordering_violation_display_carries_instr_index_and_pc() {
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fld {
            fr: r(7),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let violations = recorded_violations(&mut m);
    let v = violations.first().expect("violation fires");
    assert_eq!(v.instr_index, 1);
    assert_eq!(v.pc, prog.base + 4);
    let text = v.to_string();
    assert!(text.contains("instr #1"), "{text}");
    assert!(text.contains(&format!("{:#x}", v.pc)), "{text}");
}

#[test]
fn view_is_quiet_for_in_order_stores() {
    // Storing results in element order is the sanctioned pattern: each
    // store waits (scoreboard) for its element, never slipping ahead.
    let mut instrs = vec![Instr::Falu(
        FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 4).unwrap(),
    )];
    for i in 0..4 {
        instrs.push(Instr::Fst {
            fr: r(16 + i),
            base: ir(0),
            offset: 0x2000 + 8 * i as i32,
        });
    }
    instrs.push(Instr::Halt);
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    let violations = recorded_violations(&mut m);
    assert!(
        violations.is_empty(),
        "in-order stores are legal: {:?}",
        violations
    );
}

/// A vector whose element 0 overflows (§2.3.1) is squashed before the
/// load two cycles later: `R16..R23 := R0..R7 * R16` with element 1
/// waiting on element 0's R16, so the abort at cycle 3 meets the IR at
/// element 1 and a load of R2 (element 2 reads it) completes that cycle
/// against an empty IR. With finite operands the same load is flagged.
#[test]
fn overflow_abort_squashes_the_vector_the_view_tracks() {
    let instrs = [
        Instr::Falu(FpuAluInstr::vector_scalar(FpOp::Mul, r(16), r(0), r(16), 8).unwrap()),
        Instr::Nop,
        Instr::Nop,
        Instr::Fld {
            fr: r(2),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Halt,
    ];
    let run = |big: f64| {
        let mut m = machine_with(&instrs);
        m.mem.load_f64(0x2000);
        m.fpu.regs_mut().write_f64(r(0), big);
        m.fpu.regs_mut().write_f64(r(16), big);
        let mut events: Vec<TraceEvent> = Vec::new();
        let stats = m.run_with_sink(&mut events).unwrap();
        (stats.fpu.overflow_aborts, ordering_violations(&events))
    };
    let (aborts, violations) = run(1e308);
    assert_eq!(aborts, 1);
    assert!(violations.is_empty(), "squashed IR: {violations:?}");
    let (aborts, violations) = run(1.0);
    assert_eq!(aborts, 0);
    assert_eq!(
        violations
            .iter()
            .map(|v| (v.kind, v.reg))
            .collect::<Vec<_>>(),
        [(ViolationKind::LoadClobbersPendingSource, r(2))]
    );
}

/// A scalar that overflows while a later vector occupies the IR squashes
/// only itself: the vector stays, so a load of R5 (element 5 reads it)
/// in the abort's cycle is flagged.
#[test]
fn overflow_of_an_earlier_scalar_leaves_the_vector_in_the_ir() {
    let mut m = machine_with(&[
        Instr::Falu(FpuAluInstr::scalar(FpOp::Mul, r(40), r(41), r(41))),
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Nop,
        Instr::Fld {
            fr: r(5),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Halt,
    ]);
    m.mem.load_f64(0x2000);
    m.fpu.regs_mut().write_f64(r(41), 1e308);
    let mut events: Vec<TraceEvent> = Vec::new();
    let stats = m.run_with_sink(&mut events).unwrap();
    assert_eq!(stats.fpu.overflow_aborts, 1);
    let abort = events
        .iter()
        .find(|e| matches!(e.kind, mt_trace::EventKind::OverflowAbort { .. }))
        .expect("the scalar overflows");
    let violations = ordering_violations(&events);
    assert_eq!(
        violations
            .iter()
            .map(|v| (v.kind, v.reg, v.cycle))
            .collect::<Vec<_>>(),
        [(ViolationKind::LoadClobbersPendingSource, r(5), abort.cycle)]
    );
}

/// Runs `m` to halt with the run recorded and returns the §2.3.2 view of
/// it.
fn recorded_violations(m: &mut Machine) -> Vec<OrderingViolation> {
    let mut events: Vec<TraceEvent> = Vec::new();
    m.run_with_sink(&mut events).unwrap();
    ordering_violations(&events)
}

#[test]
fn cycle_limit_error() {
    let prog = Program::assemble(&[Instr::Jump {
        target: mt_sim::DEFAULT_TEXT_BASE / 4,
    }])
    .unwrap();
    let mut m = Machine::new(SimConfig {
        max_cycles: 1000,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    assert!(matches!(m.run(), Err(RunError::CycleLimit(1000))));
}

/// Regression: limits near `u64::MAX` mean "no limit". The boundary
/// sums `start + max_cycles + 1` and `last_progress + watchdog + 1`
/// wrapped in release builds, pinning the translated backend to a
/// boundary it never advanced past (a worker wedged forever), and
/// panicked on the overflow in debug builds.
#[test]
fn huge_limits_run_like_the_defaults() {
    // A short countdown loop: r1 = 5; loop: r1 -= 1; bne r1, r0, loop.
    let instrs = [
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 5,
        },
        Instr::Addi {
            rd: ir(1),
            rs1: ir(1),
            imm: -1,
        },
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: ir(1),
            rs2: ir(0),
            offset: -2,
        },
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    for backend in [Backend::Tick, Backend::Xlate] {
        let run = |config: SimConfig| {
            let mut m = Machine::new(SimConfig { backend, ..config });
            m.load_program(&prog);
            m.run()
        };
        let want = run(SimConfig::default()).unwrap();
        for config in [
            SimConfig {
                max_cycles: u64::MAX,
                ..SimConfig::default()
            },
            SimConfig {
                max_cycles: u64::MAX,
                watchdog_cycles: u64::MAX,
                ..SimConfig::default()
            },
            SimConfig {
                watchdog_cycles: u64::MAX - 5,
                ..SimConfig::default()
            },
        ] {
            let label = format!(
                "{backend}: max_cycles {} watchdog {}",
                config.max_cycles, config.watchdog_cycles
            );
            assert_eq!(run(config), Ok(want.clone()), "{label}");
        }
    }
}

#[test]
fn bad_instruction_error() {
    let mut m = Machine::new(SimConfig::default());
    // PC at zeroed memory: opcode 0 funct 0 is NOP — runs forever; point PC
    // at a word with a reserved FPU encoding instead.
    let prog = Program {
        words: vec![6u32 << 28],
        base: 0x1000,
        segments: Vec::new(),
    };
    m.load_program(&prog);
    match m.run() {
        Err(RunError::BadInstruction { pc, .. }) => assert_eq!(pc, 0x1000),
        other => panic!("expected BadInstruction, got {other:?}"),
    }
}

/// The CPU log of a recorded run: one line per completed instruction.
fn cpu_log(m: &mut Machine) -> Vec<String> {
    let mut events: Vec<TraceEvent> = Vec::new();
    m.run_with_sink(&mut events).unwrap();
    events.iter().filter_map(TraceEvent::cpu_log_line).collect()
}

#[test]
fn cpu_log_records_completed_instructions() {
    let m = &mut machine_with(&[
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 7,
        },
        Instr::Halt,
    ]);
    let log = cpu_log(m);
    assert_eq!(log.len(), 2);
    assert!(log[0].contains("addi r1, r0, 7"));
    assert!(log[1].contains("halt"));
}

#[test]
fn jal_and_jr_implement_calls() {
    // Every kind of control transfer, on both engines: a taken forward
    // branch, a not-taken one, a taken backward one (a three-trip loop),
    // jal, jr and j. A wrong target skips or repeats a leg's register
    // write, or changes the instruction count.
    let base = mt_sim::DEFAULT_TEXT_BASE;
    let word = |i| base / 4 + i;
    let addi = |rd, rs1, imm| Instr::Addi {
        rd: ir(rd),
        rs1: ir(rs1),
        imm,
    };
    let branch = |cond, rs1, offset| Instr::Branch {
        cond,
        rs1: ir(rs1),
        rs2: ir(0),
        offset,
    };
    let prog = Program::assemble(&[
        addi(1, 0, 3),                    // 0: r1 = 3 loop trips
        branch(BranchCond::Eq, 0, 1),     // 1: taken forward, to 3
        addi(9, 0, 99),                   // 2: skipped
        branch(BranchCond::Ne, 0, 5),     // 3: not taken (would go to 9)
        addi(2, 2, 1),                    // 4: loop body: r2 += 1
        addi(1, 1, -1),                   // 5: r1 -= 1
        branch(BranchCond::Ne, 1, -3),    // 6: taken backward, to 4, while r1 != 0
        Instr::Jal { target: word(11) },  // 7: call 11; r31 = word 8
        Instr::Jump { target: word(10) }, // 8: after the return, over 9
        addi(9, 0, 99),                   // 9: skipped
        Instr::Halt,                      // 10
        addi(4, 0, 41),                   // 11: subroutine: r4 = 41
        Instr::Jr { rs: ir(31) },         // 12: return to 8
    ])
    .expect("assembles");
    for backend in [Backend::Tick, Backend::Xlate] {
        let mut m = Machine::new(SimConfig {
            backend,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        let stats = m.run().unwrap();
        let regs = [1, 2, 4, 9].map(|i| m.ireg(ir(i)));
        assert_eq!(regs, [0, 3, 41, 0], "r1, r2, r4, r9 on {backend}");
        assert_eq!(
            m.ireg(ir(31)) as u32,
            base + 4 * 8,
            "return address on {backend}"
        );
        // 0, 1, 3, three trips of 4..=6, 7, 11, 12, 8, 10.
        assert_eq!(stats.instructions, 17, "{backend}");
    }
}

#[test]
fn determinism_same_program_same_cycles() {
    let build = || {
        let m = &mut machine_with(&[
            Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 4).unwrap()),
            Instr::Halt,
        ]);
        m.fpu.regs_mut().write_vector(r(0), &[1.0, 2.0, 3.0, 4.0]);
        m.fpu.regs_mut().write_vector(r(4), &[5.0, 6.0, 7.0, 8.0]);
        m.run().unwrap().cycles
    };
    assert_eq!(build(), build());
}

#[test]
fn full_range_interlock_makes_out_of_order_stores_correct() {
    // The Ardent-Titan-style hardware alternative of §2.3.2: storing a
    // *later* element's result register stalls until that element issues,
    // so the §2.3.2 software rule becomes unnecessary.
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fst {
            fr: r(23),
            base: ir(1),
            offset: 0,
        }, // element 7's dest
        Instr::Halt,
    ];
    let run = |full_range: bool| -> f64 {
        let prog = Program::assemble(&instrs).unwrap();
        let mut m = Machine::new(SimConfig {
            full_range_interlock: full_range,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        m.set_ireg(ir(1), 0x2000);
        m.mem.load_f64(0x2000); // warm the line
        m.fpu.regs_mut().write_vector(r(0), &[1.0; 8]);
        m.fpu.regs_mut().write_vector(r(8), &[2.0; 8]);
        m.run().unwrap();
        m.mem.memory.read_f64(0x2000)
    };
    // Baseline hardware: the store slips past the unissued element and
    // reads the stale register (the compiler was supposed to break the
    // vector).
    assert_eq!(run(false), 0.0, "stale value without the interlock");
    // Full-range interlock: the store waits for element 7.
    assert_eq!(run(true), 3.0, "correct value with the interlock");
}

#[test]
fn vectors_continue_long_after_an_interrupt() {
    // §2.3.1: "vector ALU instructions may continue long after an
    // interrupt. For example in the case of vector recursion … of length
    // 16, the last element would be written 48 cycles later."
    let m = &mut machine_with(&[
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(2), r(1), r(0), 16).unwrap()),
        Instr::Halt, // never reached: the interrupt fires first
    ]);
    m.fpu.regs_mut().write_f64(r(0), 1.0);
    m.fpu.regs_mut().write_f64(r(1), 1.0);
    m.interrupt_after(1); // right after the transfer
    let stats = m.run().unwrap();
    // The recursion still completes: Fib(17) in R17.
    assert_eq!(m.fpu.regs().read_f64(r(17)), 2584.0);
    // …and the drain ran the full 48 cycles from the transfer.
    assert_eq!(stats.cycles, 48);
    assert_eq!(stats.instructions, 1, "the CPU retired only the transfer");
}

#[test]
fn timeline_reproduces_figure_8() {
    let m = &mut machine_with(&[
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(2), r(1), r(0), 8).unwrap()),
        Instr::Halt,
    ]);
    let mut events: Vec<TraceEvent> = Vec::new();
    m.run_with_sink(&mut events).unwrap();
    let t = Timeline::from_events(&events, |_| None);
    // One transfer row + 8 element rows (halt records no timeline row).
    assert_eq!(t.len(), 9);
    let rendered = t.render(64);
    assert!(rendered.contains("R2 := R1 + R0"));
    assert!(rendered.contains("R9 := R8 + R7"));
    // Element k issues at cycle 3k (the dependent chain of Fig. 8).
    let issues: Vec<u64> = t
        .rows()
        .iter()
        .filter(|row| row.label.contains(":="))
        .map(|row| row.start)
        .collect();
    assert_eq!(issues, vec![0, 3, 6, 9, 12, 15, 18, 21]);
}

#[test]
fn mfpsw_reads_overflow_capture_and_clrpsw_clears() {
    // A vector whose element 2 overflows: the PSW must record R10 (the
    // first overflowing destination), readable by the CPU via mfpsw.
    let m = &mut machine_with(&[
        Instr::Falu(FpuAluInstr::vector(FpOp::Mul, r(8), r(0), r(4), 4).unwrap()),
        // The overflow is only architecturally visible once the element
        // retires (cycle 5); idle the CPU past it before reading the PSW.
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Mfpsw { rd: ir(1) },
        Instr::ClrPsw,
        Instr::Mfpsw { rd: ir(2) },
        Instr::Halt,
    ]);
    m.fpu
        .regs_mut()
        .write_vector(r(0), &[1.0, 2.0, f64::MAX, 4.0]);
    m.fpu
        .regs_mut()
        .write_vector(r(4), &[1.0, 2.0, f64::MAX, 4.0]);
    m.run().unwrap();
    let v = m.ireg(ir(1));
    assert_ne!(v & (1 << 15), 0, "overflow-dest valid bit");
    assert_eq!((v >> 8) & 0x3F, 10, "first overflowing destination is R10");
    assert_ne!(
        v & mt_fparith::Exceptions::OVERFLOW.bits() as i32,
        0,
        "overflow flag visible"
    );
    assert_eq!(m.ireg(ir(2)), 0, "clrpsw wiped the PSW");
}

/// The IEEE flags of scalar add/subtract/multiply reach `mfpsw` on both
/// backends: each group runs one operation, idles past its retirement,
/// reads the PSW and clears it. Flag bits: UNDERFLOW 2, INEXACT 4.
#[test]
fn mfpsw_reads_the_ieee_flags_of_scalar_operations() {
    let (tiny, min) = (f64::from_bits(1), f64::MIN_POSITIVE);
    let (below_one, small) = (1.0 - f64::EPSILON / 2.0, 1e-200);
    let (underflow, inexact) = (2, 4);
    // (operation, a, b, expected PSW word, expected result; `0.0` is +0)
    let groups = [
        (FpOp::Add, 1.0, 2.0, 0, 3.0),
        (FpOp::Add, 0.1, 0.2, inexact, 0.1 + 0.2),
        (FpOp::Sub, 3.7, 3.7, 0, 0.0),
        (FpOp::Mul, 0.0, 3.7, 0, 0.0),
        (FpOp::Sub, min, tiny, 0, f64::from_bits(0xF_FFFF_FFFF_FFFF)),
        (FpOp::Mul, small, small, underflow | inexact, small * small),
        (FpOp::Mul, min, below_one, inexact, min),
    ];
    let mut instrs = Vec::new();
    for (i, &(op, ..)) in groups.iter().enumerate() {
        let i = i as u8;
        instrs.push(Instr::Falu(FpuAluInstr::scalar(
            op,
            r(32 + i),
            r(2 * i),
            r(2 * i + 1),
        )));
        instrs.extend([Instr::Nop; 6]);
        instrs.push(Instr::Mfpsw { rd: ir(1 + i) });
        instrs.push(Instr::ClrPsw);
    }
    instrs.push(Instr::Halt);
    let prog = Program::assemble(&instrs).expect("assembles");
    for backend in [Backend::Tick, Backend::Xlate] {
        let mut m = Machine::new(SimConfig {
            backend,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        for (i, &(_, a, b, ..)) in groups.iter().enumerate() {
            m.fpu.regs_mut().write_vector(r(2 * i as u8), &[a, b]);
        }
        m.run().unwrap();
        for (i, &(op, a, b, psw, result)) in groups.iter().enumerate() {
            let i = i as u8;
            assert_eq!(
                m.ireg(ir(1 + i)),
                psw,
                "{op:?}({a:e}, {b:e}) PSW on {backend}"
            );
            assert_eq!(
                m.fpu.regs().read(r(32 + i)),
                result.to_bits(),
                "{op:?}({a:e}, {b:e}) result on {backend}"
            );
        }
    }
}

/// Regression (PR 3): fetch-miss stalls accrue per elapsed cycle like
/// every other cause. A run cut short *inside* a fetch penalty (here by an
/// interrupt, the same applies to `max_cycles`) must account exactly the
/// cycles that elapsed — the old code charged the whole penalty to the
/// miss cycle, making `accounted_cycles()` exceed `cycles`.
#[test]
fn interrupt_inside_fetch_penalty_keeps_accounting_exact() {
    for backend in [Backend::Tick, Backend::Xlate] {
        // Cold machine: the very first fetch pays the full 16-cycle
        // buffer + instruction-cache miss.
        let prog = Program::assemble(&[Instr::Nop, Instr::Halt]).expect("assembles");
        let mut m = Machine::new(SimConfig {
            backend,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.interrupt_after(5); // fires mid-penalty
        let stats = m.run().unwrap();
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.instructions, 0, "still waiting on the fetch");
        assert_eq!(
            stats.accounted_cycles(),
            stats.cycles,
            "partial fetch penalty must not over-account ({backend})"
        );
    }
}

/// A warm re-run narrates only itself: each run's stream goes to the
/// sink it was handed, and the machine keeps no log across runs.
#[test]
fn rerun_cpu_log_covers_that_run_only() {
    let m = &mut machine_with(&[
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 7,
        },
        Instr::Halt,
    ]);
    let first = cpu_log(m);
    assert!(!first.is_empty());
    m.reset_for_rerun();
    let second = cpu_log(m);
    // Same shape as the first run (cycle numbers keep counting across
    // reruns, so compare everything after the cycle column).
    assert_eq!(second.len(), first.len());
    for (a, b) in second.iter().zip(&first) {
        assert_eq!(&a[8..], &b[8..]);
    }
}

/// Regression (PR 4): the PSW is per-run supervisor state. Before the
/// fix, `reset_for_rerun` (and `load_program`) left the sticky exception
/// flags and the §2.3.1 overflow destination from the previous run in
/// place, so a warm re-run of an overflowing program observed stale
/// abort state instead of recording its own.
#[test]
fn rerun_starts_with_a_clean_psw() {
    let overflowing = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Mul, r(8), r(0), r(4), 4).unwrap()),
        Instr::Halt,
    ];
    let m = &mut machine_with(&overflowing);
    let init = |m: &mut Machine| {
        m.fpu
            .regs_mut()
            .write_vector(r(0), &[1.0, 2.0, f64::MAX, 4.0]);
        m.fpu
            .regs_mut()
            .write_vector(r(4), &[1.0, 2.0, f64::MAX, 4.0]);
    };
    init(m);
    m.run().unwrap();
    assert_eq!(m.fpu.psw().overflow_dest, Some(r(10)));
    assert!(m.fpu.psw().flags.contains(mt_fparith::Exceptions::OVERFLOW));

    // The re-run must start clean and then record its *own* abort.
    init(m);
    m.reset_for_rerun();
    assert_eq!(m.fpu.psw().overflow_dest, None, "stale overflow_dest");
    assert!(m.fpu.psw().flags.is_empty(), "stale sticky flags");
    m.run().unwrap();
    assert_eq!(m.fpu.psw().overflow_dest, Some(r(10)));

    // Loading a fresh program wipes it too.
    let prog = Program::assemble(&[Instr::Halt]).unwrap();
    m.load_program(&prog);
    assert_eq!(m.fpu.psw().overflow_dest, None);
    assert!(m.fpu.psw().flags.is_empty());
}

/// A stuck scoreboard reservation (the canonical injected fault) wedges
/// the register interlock; the no-retire watchdog converts the infinite
/// stall into a typed error instead of spinning to the cycle limit —
/// and reports it at the identical cycle on both backends, since the
/// translated backend clamps its hops to the watchdog horizon.
#[test]
fn watchdog_catches_stuck_scoreboard_under_both_backends() {
    let run_wedged = |backend: Backend| {
        let prog = Program::assemble(&[
            Instr::Falu(FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1))),
            Instr::Halt,
        ])
        .unwrap();
        let mut m = Machine::new(SimConfig {
            backend,
            watchdog_cycles: 100,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        // The injected fault: a reservation on a source register that
        // nothing in flight will ever clear.
        m.fpu.flip_scoreboard(r(0));
        let err = m.run().unwrap_err();
        (err, format!("{:?}", m.fpu.stats()))
    };
    let (tick_err, tick_stats) = run_wedged(Backend::Tick);
    let (xl_err, xl_stats) = run_wedged(Backend::Xlate);
    match &tick_err {
        RunError::Watchdog { idle_cycles, .. } => assert!(*idle_cycles > 100),
        other => panic!("expected watchdog, got {other:?}"),
    }
    assert_eq!(tick_err, xl_err, "watchdog must fire at the same point");
    assert_eq!(tick_stats, xl_stats);
}

/// `RunError` is a real error type: `Display` renders actionable
/// messages and `std::error::Error` lets it flow through `?` into
/// boxed-error contexts (the campaign driver relies on both).
#[test]
fn run_error_implements_display_and_error() {
    let err: Box<dyn std::error::Error> = Box::new(RunError::Watchdog {
        pc: 0x1_0040,
        idle_cycles: 500,
    });
    assert_eq!(
        err.to_string(),
        "watchdog: no progress for 500 cycles at pc 0x10040"
    );
    let limit = RunError::CycleLimit(42);
    assert_eq!(limit.to_string(), "no halt within 42 cycles");
}
