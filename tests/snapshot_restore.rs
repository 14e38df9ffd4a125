//! Property: checkpoint/restore is architecturally invisible.
//!
//! The fault campaign leans on three contracts of
//! `Machine::snapshot`/`Machine::restore`/`Machine::run_until`:
//!
//! 1. pausing a run at an arbitrary cycle and resuming reaches the same
//!    final state (registers, PSW, statistics counters, event stream)
//!    as the uninterrupted run — under both the tick interpreter and the
//!    translated backend (which must clamp its hops to the pause point);
//! 2. restoring a snapshot is a true rewind: two resumes from the same
//!    snapshot produce identical `RunStats` and identical final state;
//! 3. the whole round-trip holds over random programs covering every
//!    wait class (cold fetches, cache freezes, port conflicts,
//!    interlocks, IR-busy vectors, branch bubbles).
//!
//! `mt-serve` runs every job through `Machine::run_cancellable`, so the
//! same file holds its checkpoints to the pause contract: a checkpoint
//! is invisible until it fires, and a fired one leaves exactly the
//! state of a `run_until` pause at its cycle.

use multititan::fparith::op::ALL_OPS;
use multititan::isa::cpu::{AluOp, BranchCond};
use multititan::isa::{FReg, FpuAluInstr, IReg, Instr};
use multititan::sim::{ArchState, Backend, Machine, Program, RunError, SimConfig};
use multititan::trace::{NullSink, TraceEvent};
use proptest::prelude::*;

/// Base address of the data area the random loads/stores hit.
const DATA_BASE: i32 = 0x2000;

/// Everything cumulative a run leaves behind: the architectural state
/// plus the machine-lifetime FPU counters (cycle-exact equality of the
/// split run's counters implies each leg accounted identically).
#[derive(Debug, PartialEq)]
struct Final {
    arch: ArchState,
    fpu_stats: String,
}

fn observe(m: &Machine) -> Final {
    Final {
        arch: m.arch_state(),
        fpu_stats: format!("{:?}", m.fpu.stats()),
    }
}

/// Builds a cold machine with the program loaded and inputs written.
fn fresh(instrs: &[Instr], regs: &[u64], backend: Backend) -> Machine {
    let prog = Program::assemble(instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        backend,
        max_cycles: 1_000_000,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    m
}

/// One random body instruction (same coverage as the hot-loop
/// equivalence suite: every stall class the run loop knows about).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0usize..ALL_OPS.len(), 0u8..52, 0u8..52, 0u8..52, 1u8..=8).prop_filter_map(
            "in range",
            |(op, rr, ra, rb, vl)| {
                FpuAluInstr::new(
                    ALL_OPS[op],
                    FReg::new(rr),
                    FReg::new(ra),
                    FReg::new(rb),
                    vl,
                    true,
                    true,
                )
                .ok()
                .map(Instr::Falu)
            }
        ),
        (0u8..52, 0i32..32).prop_map(|(fr, k)| Instr::Fld {
            fr: FReg::new(fr),
            base: IReg::new(1),
            offset: 8 * k,
        }),
        (0u8..52, 0i32..32).prop_map(|(fr, k)| Instr::Fst {
            fr: FReg::new(fr),
            base: IReg::new(1),
            offset: 8 * k,
        }),
        (3u8..8, 0i32..32).prop_map(|(rd, k)| Instr::Lw {
            rd: IReg::new(rd),
            base: IReg::new(1),
            offset: 4 * k,
        }),
        (3u8..8, 0i32..32).prop_map(|(rs, k)| Instr::Sw {
            rs: IReg::new(rs),
            base: IReg::new(1),
            offset: 4 * k,
        }),
        (3u8..8, 3u8..8, 3u8..8).prop_map(|(rd, rs1, rs2)| Instr::Alu {
            op: AluOp::Add,
            rd: IReg::new(rd),
            rs1: IReg::new(rs1),
            rs2: IReg::new(rs2),
        }),
        Just(Instr::Nop),
        (3u8..8).prop_map(|rd| Instr::Mfpsw { rd: IReg::new(rd) }),
    ]
}

/// Setup, a random body, a 3-trip countdown loop over it, halt.
fn arb_program() -> impl Strategy<Value = Vec<Instr>> {
    prop::collection::vec(arb_instr(), 1..16).prop_map(|body| {
        let mut instrs = vec![Instr::Addi {
            rd: IReg::new(2),
            rs1: IReg::new(0),
            imm: 3,
        }];
        let loop_len = body.len() as i32;
        instrs.extend(body);
        instrs.push(Instr::Addi {
            rd: IReg::new(2),
            rs1: IReg::new(2),
            imm: -1,
        });
        instrs.push(Instr::Branch {
            cond: BranchCond::Ne,
            rs1: IReg::new(2),
            rs2: IReg::new(0),
            offset: -(loop_len + 2),
        });
        instrs.push(Instr::Halt);
        instrs
    })
}

fn arb_regs() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((-1.0e3f64..1.0e3).prop_map(|v| v.to_bits()), 52)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pausing at an arbitrary cycle, snapshotting, resuming — and
    /// rewinding to resume a second time — all reach the uninterrupted
    /// run's exact final state, on both backends.
    #[test]
    fn pause_snapshot_resume_is_invisible(
        instrs in arb_program(),
        regs in arb_regs(),
        quarter in 1u64..4,
        backend in prop_oneof![Just(Backend::Tick), Just(Backend::Xlate)],
    ) {
        // Uninterrupted reference.
        let mut whole = fresh(&instrs, &regs, backend);
        let whole_stats = whole.run().unwrap();
        let reference = observe(&whole);
        let stop = whole_stats.cycles * quarter / 4;

        // Paused run: stop mid-flight, snapshot, resume.
        let mut m = fresh(&instrs, &regs, backend);
        match m.run_until(stop, &mut NullSink).unwrap() {
            // `stop` landed inside the final drain span, which never
            // pauses; the completed run must already match.
            Some(_) => prop_assert_eq!(observe(&m), reference),
            None => {
                let snap = m.snapshot();
                let first = m.run().unwrap();
                let first_final = observe(&m);
                prop_assert_eq!(&first_final, &reference);

                // Rewind and resume again: a snapshot is a true fork
                // point, not a one-shot.
                m.restore(&snap);
                let second = m.run().unwrap();
                prop_assert_eq!(first, second);
                prop_assert_eq!(observe(&m), first_final);
            }
        }
    }

    /// With a sink attached (tick loop, events recorded), the pause is
    /// invisible to the event stream too: first-leg events plus
    /// second-leg events equal the uninterrupted stream exactly.
    #[test]
    fn pause_is_invisible_to_the_event_stream(
        instrs in arb_program(),
        regs in arb_regs(),
        quarter in 1u64..4,
    ) {
        let mut whole = fresh(&instrs, &regs, Backend::Tick);
        let mut whole_events: Vec<TraceEvent> = Vec::new();
        let whole_stats = whole.run_with_sink(&mut whole_events).unwrap();
        let reference = observe(&whole);
        let stop = whole_stats.cycles * quarter / 4;

        let mut m = fresh(&instrs, &regs, Backend::Tick);
        let mut events: Vec<TraceEvent> = Vec::new();
        match m.run_until(stop, &mut events).unwrap() {
            Some(_) => prop_assert_eq!(observe(&m), reference),
            None => {
                m.run_with_sink(&mut events).unwrap();
                prop_assert_eq!(observe(&m), reference);
                prop_assert_eq!(events, whole_events);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `run_cancellable` whose closure never answers `true` is the
    /// uninterrupted run — statistics, final state, and (with a sink)
    /// event stream. One that answers `true` on its `k`-th call stops at
    /// a cycle where a `run_until` pause leaves the same state, and the
    /// two machines resume to the same statistics and final state.
    #[test]
    fn checkpoints_are_invisible_until_they_fire(
        instrs in arb_program(),
        regs in arb_regs(),
        check_every in 1u64..64,
        k in 1u32..8,
        backend in prop_oneof![Just(Backend::Tick), Just(Backend::Xlate)],
    ) {
        let mut whole = fresh(&instrs, &regs, backend);
        let whole_stats = whole.run().unwrap();
        let reference = observe(&whole);

        let mut unfired = fresh(&instrs, &regs, backend);
        let stats = unfired
            .run_cancellable(&mut NullSink, check_every, &mut || false)
            .unwrap();
        prop_assert_eq!(&stats, &whole_stats);
        prop_assert_eq!(observe(&unfired), observe(&whole));

        let mut whole_events: Vec<TraceEvent> = Vec::new();
        fresh(&instrs, &regs, backend).run_with_sink(&mut whole_events).unwrap();
        let mut events: Vec<TraceEvent> = Vec::new();
        fresh(&instrs, &regs, backend)
            .run_cancellable(&mut events, check_every, &mut || false)
            .unwrap();
        prop_assert_eq!(events, whole_events);

        let mut fired = fresh(&instrs, &regs, backend);
        let mut calls = 0;
        let outcome = fired.run_cancellable(&mut NullSink, check_every, &mut || {
            calls += 1;
            calls == k
        });
        match outcome {
            // The program halted before the k-th checkpoint came due.
            Ok(stats) => {
                prop_assert!(calls < k);
                prop_assert_eq!(stats, whole_stats);
                prop_assert_eq!(observe(&fired), reference);
            }
            Err(RunError::Cancelled { cycle }) => {
                prop_assert_eq!(calls, k);
                let mut paused = fresh(&instrs, &regs, backend);
                prop_assert!(paused.run_until(cycle, &mut NullSink).unwrap().is_none());
                prop_assert_eq!(fired.snapshot().cycle(), cycle);
                prop_assert_eq!(paused.snapshot().cycle(), cycle);
                prop_assert_eq!(observe(&fired), observe(&paused));

                let resumed = fired.run().unwrap();
                prop_assert_eq!(resumed, paused.run().unwrap());
                prop_assert_eq!(observe(&fired), observe(&paused));
                prop_assert_eq!(observe(&fired), reference);
            }
            Err(e) => prop_assert!(false, "unexpected run error: {}", e),
        }
    }
}

/// A snapshot taken before any cycle restores the machine to its exact
/// pre-run state: a full run, a restore, and a rerun reproduce the same
/// statistics — the fault campaign's restore-per-injection pattern.
#[test]
fn restore_to_cycle_zero_reruns_identically() {
    let instrs = [
        Instr::Falu(FpuAluInstr::scalar(
            multititan::fparith::FpOp::Add,
            FReg::new(2),
            FReg::new(0),
            FReg::new(1),
        )),
        Instr::Halt,
    ];
    let regs: Vec<u64> = (0..52).map(|i| (i as f64).to_bits()).collect();
    let mut m = fresh(&instrs, &regs, Backend::default());
    let base = m.snapshot();
    assert_eq!(base.cycle(), 0);
    let first = m.run().unwrap();
    let first_final = observe(&m);
    m.restore(&base);
    let second = m.run().unwrap();
    assert_eq!(first, second);
    assert_eq!(observe(&m), first_final);
}
