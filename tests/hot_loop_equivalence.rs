//! Property: the simulator's fast engine is invisible.
//!
//! `Machine::run` has one reference engine, the tick interpreter, and one
//! fast engine, the translated backend (`Backend::Xlate`, the default),
//! whose predecoded micro-ops are each the decoded instruction and its cost
//! row, run through the interpreter's own guard and execute code, and
//! which hops over multi-cycle waits, synthesizing the per-cycle stall
//! accounting the tick loop would have produced. This file proves the
//! fast engine a pure optimization as a **two-way differential** (tick vs
//! xlate) over random programs that exercise every wait class: cold-fetch
//! penalties, data-cache freezes, load/store port conflicts, FPU register
//! interlocks, IR-busy vector transfers, branch bubbles, §2.3.1 overflow
//! aborts, and self-modifying text. Abnormal exits landing mid-block —
//! watchdog, cycle limit, external interrupt — must also agree, error for
//! error. The one fetch both engines share reads decoded instructions
//! from the translation, so the table itself is checked against the
//! decoder too.

use mt_xlate::TranslatedProgram;
use multititan::fparith::op::ALL_OPS;
use multititan::isa::cost::InstrCost;
use multititan::isa::cpu::{AluOp, BranchCond};
use multititan::isa::{FReg, FpuAluInstr, IReg, Instr};
use multititan::sim::{Backend, Machine, Program, RunError, RunStats, SimConfig};
use proptest::prelude::*;

/// Base address of the data area the random loads/stores hit (well clear
/// of the text at the default load address).
const DATA_BASE: i32 = 0x2000;

/// Everything architecturally observable after a run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    stats: RunStats,
    fregs: Vec<u64>,
    iregs: Vec<i32>,
    psw: String,
    fpu_stats: String,
}

/// Assembles and runs `instrs` under `backend`.
fn run_one(instrs: &[Instr], regs: &[u64], backend: Backend) -> Observed {
    let prog = Program::assemble(instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        backend,
        max_cycles: 1_000_000,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    // Deliberately cold caches: the first trip through the text pays
    // instruction-buffer misses, the loads pay data misses — the waits
    // the translated backend hops over must reproduce cycle-for-cycle.
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    let stats = m.run().unwrap();
    observe(&m, stats)
}

fn observe(m: &Machine, stats: RunStats) -> Observed {
    Observed {
        stats,
        fregs: (0..52).map(|i| m.fpu.read_reg(FReg::new(i))).collect(),
        iregs: (0..32).map(|i| m.ireg(IReg::new(i))).collect(),
        psw: format!("{:?}", m.fpu.psw()),
        fpu_stats: format!("{:?}", m.fpu.stats()),
    }
}

/// One random body instruction. Loads/stores use `r1` (preloaded with
/// `DATA_BASE`) so every access is in range and naturally aligned.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        // FPU vector/scalar arithmetic, the IR-busy + interlock source.
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
        // FPU loads/stores: data misses, port conflicts, load interlocks.
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
        // Integer loads/stores and ALU traffic.
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
        (3u8..8, -64i32..64).prop_map(|(rd, imm)| Instr::Addi {
            rd: IReg::new(rd),
            rs1: IReg::new(rd),
            imm,
        }),
        Just(Instr::Nop),
        (3u8..8).prop_map(|rd| Instr::Mfpsw { rd: IReg::new(rd) }),
        Just(Instr::ClrPsw),
    ]
}

/// A program: setup, a random body, then a 3-trip countdown loop over the
/// body (branch bubbles + the warm-text re-fetch path), then halt.
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
        // Target = pc + 1 + offset: jump back over the decrement and body.
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

/// Register images that drive the datapath into its corners: huge
/// magnitudes (multiply overflow → the §2.3.1 abort squash, which the
/// translated executor must replay element-for-element), tiny ones
/// (underflow/denormals), infinities, and NaN.
fn arb_regs_extreme() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            4 => (-1.0e3f64..1.0e3).prop_map(f64::to_bits),
            1 => Just(1.0e308f64.to_bits()),
            1 => Just((-1.0e308f64).to_bits()),
            1 => Just(1.0e-308f64.to_bits()),
            1 => Just(f64::INFINITY.to_bits()),
            1 => Just(f64::NAN.to_bits()),
        ],
        52,
    )
}

/// How a run that may abort ended: the outcome (stats or the typed
/// error), the final cycle, and the architectural state at that point.
#[derive(Debug, PartialEq)]
struct Ended {
    outcome: Result<RunStats, RunError>,
    cycle: u64,
    fregs: Vec<u64>,
    iregs: Vec<i32>,
    psw: String,
}

/// Runs to completion or abnormal exit under `backend` with the given
/// limits; abnormal exits land mid-program (and, under xlate,
/// mid-block).
fn run_to_end(
    instrs: &[Instr],
    regs: &[u64],
    backend: Backend,
    max_cycles: u64,
    watchdog: u64,
    interrupt_after: Option<u64>,
) -> Ended {
    let prog = Program::assemble(instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        backend,
        max_cycles,
        watchdog_cycles: watchdog,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    if let Some(cycles) = interrupt_after {
        m.interrupt_after(cycles);
    }
    let outcome = m.run();
    Ended {
        outcome,
        cycle: m.snapshot().cycle(),
        fregs: (0..52).map(|i| m.fpu.read_reg(FReg::new(i))).collect(),
        iregs: (0..32).map(|i| m.ireg(IReg::new(i))).collect(),
        psw: format!("{:?}", m.fpu.psw()),
    }
}

/// A self-modifying straight-line program: `pre` body, a store that
/// patches the text word at `target` (an instruction between the store
/// and the halt — the same basic block, so under xlate the write lands
/// *inside the currently-executing translated span*), `post` body, halt.
/// Returns `(instrs, target_word_index, patch_word)`; the runner parks
/// the patch word in `r10` and the text base in `r9`.
fn arb_smc_case() -> impl Strategy<Value = (Vec<Instr>, usize, u32)> {
    let patch = prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        (3u8..8, -64i32..64).prop_map(|(rd, imm)| Instr::Addi {
            rd: IReg::new(rd),
            rs1: IReg::new(rd),
            imm,
        }),
        (0usize..ALL_OPS.len(), 0u8..52, 0u8..52, 0u8..52).prop_map(|(op, rr, ra, rb)| {
            Instr::Falu(FpuAluInstr::scalar(
                ALL_OPS[op],
                FReg::new(rr),
                FReg::new(ra),
                FReg::new(rb),
            ))
        }),
        (0u8..52, 0i32..32).prop_map(|(fr, k)| Instr::Fld {
            fr: FReg::new(fr),
            base: IReg::new(1),
            offset: 8 * k,
        }),
    ];
    (
        prop::collection::vec(arb_instr(), 0..6),
        prop::collection::vec(arb_instr(), 1..8),
        patch,
        0usize..64,
    )
        .prop_map(|(pre, post, patch, pick)| {
            let target = pre.len() + 1 + pick % post.len();
            let mut instrs = pre;
            instrs.push(Instr::Sw {
                rs: IReg::new(10),
                base: IReg::new(9),
                offset: 4 * target as i32,
            });
            instrs.extend(post);
            instrs.push(Instr::Halt);
            (instrs, target, patch.encode().unwrap())
        })
}

/// Runs one self-modifying-text case under `backend`.
fn run_smc(instrs: &[Instr], regs: &[u64], patch_word: u32, backend: Backend) -> Observed {
    use multititan::sim::DEFAULT_TEXT_BASE;
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
    m.set_ireg(IReg::new(9), DEFAULT_TEXT_BASE as i32);
    m.set_ireg(IReg::new(10), patch_word as i32);
    let stats = m.run().expect("straight-line SMC program must halt");
    observe(&m, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two-way differential: the tick interpreter and the
    /// translated backend agree bit for bit — statistics,
    /// per-cause stall accounting, registers, PSW — and every cycle is
    /// attributed to a cause.
    #[test]
    fn xlate_equals_tick(instrs in arb_program(), regs in arb_regs()) {
        let tick = run_one(&instrs, &regs, Backend::Tick);
        let xl = run_one(&instrs, &regs, Backend::Xlate);
        prop_assert_eq!(&tick, &xl);
        prop_assert_eq!(
            xl.stats.accounted_cycles(), xl.stats.cycles,
            "xlate must attribute every cycle to a stall cause"
        );
    }

    /// The same agreement when the datapath hits its corners: overflow
    /// (the §2.3.1 abort squashes the rest of the vector, and the abort
    /// may land mid-block), underflow, infinities, NaN.
    #[test]
    fn overflow_abort_mid_block_agrees(instrs in arb_program(), regs in arb_regs_extreme()) {
        let tick = run_one(&instrs, &regs, Backend::Tick);
        let xl = run_one(&instrs, &regs, Backend::Xlate);
        prop_assert_eq!(&tick, &xl);
        prop_assert_eq!(xl.stats.accounted_cycles(), xl.stats.cycles);
    }

    /// Abnormal exits land identically: watchdog trips, cycle limits,
    /// and external interrupts cut a translated span mid-block, and the
    /// error (or the interrupt's clean halt), the final cycle, and the
    /// architectural state must match the interpreter's exactly.
    #[test]
    fn mid_block_exits_agree(
        instrs in arb_program(),
        regs in arb_regs(),
        max_cycles in 10u64..400,
        watchdog in 1u64..40,
        interrupt in prop_oneof![1 => Just(None), 3 => (3u64..300).prop_map(Some)],
    ) {
        let tick = run_to_end(&instrs, &regs, Backend::Tick, max_cycles, watchdog, interrupt);
        let xl = run_to_end(&instrs, &regs, Backend::Xlate, max_cycles, watchdog, interrupt);
        prop_assert_eq!(&tick, &xl, "xlate diverged from tick at an abnormal exit");
    }

    /// Self-modifying text: a store that patches an instruction *later
    /// in the same basic block* must take effect before that word's
    /// next fetch — the one fetch both engines share checks the
    /// write-watch at every fetch, not at block boundaries, and reads
    /// the word from memory once a write has landed.
    #[test]
    fn self_modifying_text_agrees((instrs, _target, patch) in arb_smc_case(), regs in arb_regs()) {
        let tick = run_smc(&instrs, &regs, patch, Backend::Tick);
        let xl = run_smc(&instrs, &regs, patch, Backend::Xlate);
        prop_assert_eq!(&tick, &xl);
        prop_assert_eq!(xl.stats.accounted_cycles(), xl.stats.cycles);
    }
}

/// Arbitrary text: random 32-bit soup mixed with valid encodings, so both
/// the decodable and the undecodable paths of the translation are hit.
fn arb_text() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            1 => any::<u32>(),
            1 => arb_instr().prop_map(|i| i.encode().unwrap()),
        ],
        1..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The translation is the decoder, word for word: both engines' fetch
    /// trusts `TranslatedProgram::uop` in place of `Instr::decode` while
    /// the text is unmodified, so at every aligned text PC the micro-op's
    /// instruction must be exactly the word's decoding (`None` for an
    /// undecodable word) and its cost row exactly the shared table's.
    /// Misaligned PCs and PCs outside the text have no micro-op.
    #[test]
    fn uop_table_matches_decode_at_every_pc(words in arb_text()) {
        let base = multititan::sim::DEFAULT_TEXT_BASE;
        let program = Program { words: words.clone(), base, segments: Vec::new() };
        let xp = TranslatedProgram::translate(&program);
        for (i, &word) in words.iter().enumerate() {
            let pc = base + 4 * i as u32;
            let uop = xp.uop(pc);
            prop_assert_eq!(uop.map(|u| u.instr), Instr::decode(word).ok(), "pc {:#x}", pc);
            if let Some(u) = uop {
                prop_assert_eq!(u.cost, InstrCost::of(&u.instr), "pc {:#x}", pc);
            }
            for misaligned in 1..4 {
                prop_assert!(xp.uop(pc + misaligned).is_none(), "pc {:#x}", pc + misaligned);
            }
        }
        let end = base + 4 * words.len() as u32;
        prop_assert!(xp.uop(end).is_none(), "the PC past the text");
        prop_assert!(xp.uop(base - 4).is_none(), "the PC before the text");
    }
}

/// Mutation check on the differential's assertions: `Observed`'s
/// equality must actually have the power to catch a single-field
/// divergence — a one-cycle drift, one mis-attributed stall, one
/// flipped result bit, a PSW flag — otherwise every proptest above is
/// vacuous.
#[test]
fn differential_assertions_detect_single_field_mutations() {
    let instrs = [
        Instr::Falu(FpuAluInstr::scalar(
            multititan::fparith::FpOp::Add,
            FReg::new(4),
            FReg::new(1),
            FReg::new(2),
        )),
        Instr::Halt,
    ];
    let regs: Vec<u64> = (0..52).map(|i| (i as f64).to_bits()).collect();
    let base = run_one(&instrs, &regs, Backend::Xlate);

    let mut cycles = base.clone();
    cycles.stats.cycles += 1;
    assert_ne!(base, cycles, "a one-cycle drift must be caught");

    let mut stall = base.clone();
    stall.stats.stalls.branch += 1;
    assert_ne!(base, stall, "a mis-attributed stall must be caught");

    let mut freg = base.clone();
    freg.fregs[4] ^= 1;
    assert_ne!(base, freg, "a flipped result bit must be caught");

    let mut ireg = base.clone();
    ireg.iregs[5] ^= 1;
    assert_ne!(base, ireg, "an integer register bit must be caught");

    let mut psw = base.clone();
    psw.psw.push('!');
    assert_ne!(base, psw, "a PSW difference must be caught");

    let mut instret = base.clone();
    instret.stats.instructions += 1;
    assert_ne!(base, instret, "an instruction-count drift must be caught");
}

/// The fixed corpus: every Livermore loop and every shipped example runs
/// bit-identically under both backends, cold and warm.
#[test]
fn corpus_is_bit_identical_across_backends() {
    use multititan::kernels::{harness, livermore};
    for n in 1..=24u8 {
        let kernel = livermore::by_number(n);
        let tick = harness::run_kernel_with(
            &kernel,
            SimConfig {
                backend: Backend::Tick,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let xl = harness::run_kernel_with(
            &kernel,
            SimConfig {
                backend: Backend::Xlate,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(tick.cold, xl.cold, "loop {n} cold");
        assert_eq!(tick.warm, xl.warm, "loop {n} warm");
    }

    for entry in std::fs::read_dir("examples/asm").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("s") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let program = multititan::asm::parse(&src, 0x1_0000).unwrap();
        let mut ended = Vec::new();
        for backend in [Backend::Tick, Backend::Xlate] {
            let mut m = Machine::new(SimConfig {
                backend,
                ..SimConfig::default()
            });
            m.load_program(&program);
            m.warm_instructions(&program);
            let stats = m
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            ended.push(observe(&m, stats));
        }
        assert_eq!(ended[0], ended[1], "{} diverged", path.display());
    }
}

/// The serialized-issue ablation (the path `repro-ablations`,
/// `repro-amdahl`, and the dse `split-8x64` cell take) is one machine on
/// both backends: every Livermore loop, cold and warm.
#[test]
fn serialized_corpus_is_bit_identical_across_backends() {
    use multititan::kernels::{harness, livermore};
    for n in 1..=24u8 {
        let kernel = livermore::by_number(n);
        let [tick, xl] = [Backend::Tick, Backend::Xlate].map(|backend| {
            harness::run_kernel_with(
                &kernel,
                SimConfig {
                    backend,
                    serialized_issue: true,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        });
        assert_eq!(tick.cold, xl.cold, "loop {n} cold (serialized issue)");
        assert_eq!(tick.warm, xl.warm, "loop {n} warm (serialized issue)");
    }
}

/// A write into the text segment invalidates the translation: from
/// then on the one fetch both backends share decodes the current memory
/// word.
#[test]
fn self_modifying_text_falls_back_to_slow_decode() {
    use multititan::sim::DEFAULT_TEXT_BASE;
    // Word 2 is a jump-to-self; the store ahead of it patches it to Halt.
    // A fetch that trusted the stale translation would spin to the cycle
    // limit; the fallback decodes the patched word and halts.
    let halt_word = Instr::Halt.encode().unwrap();
    let prog = Program::assemble(&[
        Instr::Addi {
            rd: IReg::new(3),
            rs1: IReg::new(0),
            imm: halt_word as i32,
        },
        Instr::Sw {
            rs: IReg::new(3),
            base: IReg::new(1), // r1 = text base (set below)
            offset: 8,          // word 2: the instruction after this store
        },
        Instr::Jump {
            target: DEFAULT_TEXT_BASE / 4 + 2, // self-loop until patched
        },
    ])
    .unwrap();
    for backend in [Backend::Tick, Backend::Xlate] {
        let mut m = Machine::new(SimConfig {
            backend,
            max_cycles: 100_000,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.set_ireg(IReg::new(1), DEFAULT_TEXT_BASE as i32);
        let stats = m.run().expect("patched text must halt");
        assert!(stats.instructions >= 3);
    }
}
