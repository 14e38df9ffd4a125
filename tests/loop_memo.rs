//! Property: the translated engine's loop-iteration memo is invisible.
//!
//! At a loop head the translated engine may replay a recorded iteration
//! instead of running it: the instructions' values and the element
//! arithmetic run, every outcome the timing depended on is checked
//! (following another recorded path where one differs), and the
//! recorded counters and end state are committed, writes still in
//! flight included (see `crates/sim/src/machine/memo.rs`). This file
//! holds it to five promises:
//!
//! 1. **it cannot silently switch off** — `Machine::memo_counts` shows
//!    replays covering at least three quarters of a Livermore pass;
//! 2. **it is exact on long loops** — generated loops of 2–64 trips with
//!    loop-carried FPU recurrences, strides that miss or alias in the
//!    data cache, data-dependent branches, `lw`/`sw`, `jr` back-edges,
//!    `mfpsw`, late overflows and underflows, and a trailing vector
//!    that the back-edge carries in flight, run bit-identically on the
//!    tick interpreter and the translated engine, on several machines,
//!    with every kind of pause landing inside replayed iterations and
//!    at every cycle before a replay's last writes retire;
//! 3. **it is exact on the design-space grid** — the grid's loops run
//!    bit-identically on both engines under every `BENCH_dse.json` cell;
//! 4. **it replays only what the predecode table holds** — a loop that
//!    patches its own body, in the text or in data memory, runs the new
//!    word on both engines;
//! 5. **one-off loop heads cost no budget** — a loop after thousands of
//!    heads seen once still replays.

use multititan::fparith::op::ALL_OPS;
use multititan::fparith::{Exceptions, FpOp};
use multititan::isa::cpu::{AluOp, BranchCond};
use multititan::isa::{FReg, FpuAluInstr, IReg, Instr};
use multititan::kernels::{harness, livermore};
use multititan::sim::{
    ArchState, Backend, Machine, MachineConfig, MemoCounts, Program, RunError, RunStats, SimConfig,
    DEFAULT_TEXT_BASE,
};
use multititan::trace::{Json, NullSink};
use proptest::prelude::*;
use proptest::TestRng;

/// Where iteration `k`'s data lives: `DATA_BASE + k * stride`, and the
/// alias pointer `r7` one data-cache size (64 KiB) above it.
const DATA_BASE: i32 = 0x2000;
const ALIAS: i32 = 64 * 1024;
/// The per-iteration flag words the data-dependent branch reads.
const FLAGS: i32 = 0x3F_0000;

/// One generated long loop.
#[derive(Debug, Clone)]
struct LongLoop {
    body: Vec<Instr>,
    trips: i32,
    /// Bytes the data pointers advance per iteration.
    stride: i32,
    /// A data-dependent branch over a tail load (`lw r8`), taken when
    /// the iteration's flag word is zero.
    branchy: bool,
    /// Bit `k % 64` set: iteration `k`'s flag word is zero.
    zero_flags: u64,
    /// Close the loop with `jr r9` instead of a conditional branch.
    jr: bool,
    /// A scalar recurrence `R44 := R44 × 10` that overflows in this
    /// iteration, aborting a vector there.
    overflow_at: Option<i32>,
    /// A recurrence `R46 := R46 × 1e-10` that underflows in this
    /// iteration: a PSW flag no earlier iteration raised.
    underflow_at: Option<i32>,
    /// A vector ALU op just before the closing branch: the back-edge
    /// then carries its writes in flight and, while it still issues, a
    /// partly issued vector.
    trailing: Option<Instr>,
}

impl LongLoop {
    /// The program: set-up, the loop, halt. The loop head is word 1.
    fn instrs(&self) -> Vec<Instr> {
        let r = IReg::new;
        let mut v = vec![Instr::Addi {
            rd: r(2),
            rs1: r(0),
            imm: self.trips,
        }];
        // Word 1: the loop head. The tail load's register is read first,
        // so an in-flight `lw r8` can interlock the next iteration.
        v.push(Instr::Alu {
            op: AluOp::Add,
            rd: r(4),
            rs1: r(4),
            rs2: r(8),
        });
        if self.overflow_at.is_some() {
            v.push(Instr::Falu(
                FpuAluInstr::vector(FpOp::Mul, FReg::new(44), FReg::new(44), FReg::new(48), 2)
                    .unwrap(),
            ));
        }
        if self.underflow_at.is_some() {
            v.push(Instr::Falu(FpuAluInstr::scalar(
                FpOp::Mul,
                FReg::new(46),
                FReg::new(46),
                FReg::new(47),
            )));
        }
        v.extend(self.body.iter().copied());
        if self.branchy {
            v.extend([
                Instr::Lw {
                    rd: r(6),
                    base: r(3),
                    offset: 0,
                },
                Instr::Addi {
                    rd: r(3),
                    rs1: r(3),
                    imm: 4,
                },
                Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: r(6),
                    rs2: r(0),
                    offset: 1,
                },
                Instr::Lw {
                    rd: r(8),
                    base: r(1),
                    offset: 8,
                },
            ]);
        }
        v.extend([
            Instr::Addi {
                rd: r(1),
                rs1: r(1),
                imm: self.stride,
            },
            Instr::Addi {
                rd: r(7),
                rs1: r(7),
                imm: self.stride,
            },
            Instr::Addi {
                rd: r(2),
                rs1: r(2),
                imm: -1,
            },
        ]);
        v.extend(self.trailing);
        let here = v.len() as i32;
        if self.jr {
            v.extend([
                Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: r(2),
                    rs2: r(0),
                    offset: 1,
                },
                Instr::Jr { rs: r(9) },
            ]);
        } else {
            v.push(Instr::Branch {
                cond: BranchCond::Ne,
                rs1: r(2),
                rs2: r(0),
                offset: 1 - (here + 1),
            });
        }
        v.push(Instr::Halt);
        v
    }

    /// The words the loop's loads and stores can touch.
    fn touched(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.trips).flat_map(move |k| {
            let base = (DATA_BASE + k * self.stride) as u32;
            (0..16u32).flat_map(move |w| [base + 4 * w, base + ALIAS as u32 + 4 * w])
        })
    }
}

/// One body instruction: FPU arithmetic (vectors up to 4 long, so the
/// IR is often empty again at the back-edge), FPU and integer memory
/// traffic through both data pointers, integer ALU work and `mfpsw`.
fn arb_body_instr() -> impl Strategy<Value = Instr> {
    let ptr = || prop_oneof![Just(IReg::new(1)), Just(IReg::new(7))];
    prop_oneof![
        4 => (0usize..ALL_OPS.len(), 0u8..40, 0u8..40, 0u8..40, 1u8..=4).prop_filter_map(
            "in range",
            |(op, rr, ra, rb, vl)| {
                FpuAluInstr::new(ALL_OPS[op], FReg::new(rr), FReg::new(ra), FReg::new(rb), vl, true, true)
                    .ok()
                    .map(Instr::Falu)
            }
        ),
        3 => (0u8..40, ptr(), 0i32..8).prop_map(|(fr, base, k)| Instr::Fld {
            fr: FReg::new(fr),
            base,
            offset: 8 * k,
        }),
        2 => (0u8..40, ptr(), 0i32..8).prop_map(|(fr, base, k)| Instr::Fst {
            fr: FReg::new(fr),
            base,
            offset: 8 * k,
        }),
        1 => (ptr(), 0i32..16).prop_map(|(base, k)| Instr::Lw {
            rd: IReg::new(5),
            base,
            offset: 4 * k,
        }),
        1 => (ptr(), 0i32..16).prop_map(|(base, k)| Instr::Sw {
            rs: IReg::new(4),
            base,
            offset: 4 * k,
        }),
        1 => Just(Instr::Alu {
            op: AluOp::Add,
            rd: IReg::new(4),
            rs1: IReg::new(4),
            rs2: IReg::new(5),
        }),
        1 => Just(Instr::Nop),
        1 => Just(Instr::Mfpsw { rd: IReg::new(5) }),
    ]
}

fn arb_loop() -> impl Strategy<Value = LongLoop> {
    (
        (
            prop::collection::vec(arb_body_instr(), 1..10),
            arb_trailing(),
        ),
        2i32..=64,
        prop_oneof![
            Just(8),
            Just(16),
            Just(24),
            Just(40),
            Just(2048),
            Just(32_776)
        ],
        any::<bool>(),
        any::<u64>(),
        prop_oneof![3 => Just(false), 1 => Just(true)],
        prop_oneof![3 => Just(None), 1 => (2i32..64).prop_map(Some)],
        prop_oneof![3 => Just(None), 1 => (2i32..64).prop_map(Some)],
    )
        .prop_map(
            |(
                (body, trailing),
                trips,
                stride,
                branchy,
                zero_flags,
                jr,
                overflow_at,
                underflow_at,
            )| {
                LongLoop {
                    body,
                    trips,
                    stride,
                    branchy,
                    zero_flags,
                    jr,
                    overflow_at,
                    underflow_at,
                    trailing,
                }
            },
        )
}

/// A vector ALU op of 2–8 elements for the back-edge, or none.
fn arb_trailing() -> impl Strategy<Value = Option<Instr>> {
    prop_oneof![
        1 => Just(None),
        1 => (
            0usize..ALL_OPS.len(),
            0u8..32,
            0u8..40,
            0u8..40,
            2u8..=8,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_filter_map("in range", |(op, rr, ra, rb, vl, sra, srb)| {
                FpuAluInstr::new(ALL_OPS[op], FReg::new(rr), FReg::new(ra), FReg::new(rb), vl, sra, srb)
                    .ok()
                    .map(|f| Some(Instr::Falu(f)))
            }),
    ]
}

/// The machines: the paper's, two and four lanes, FPU latency 1 and 5,
/// serialized issue, 2-way caches, and a long integer load delay without
/// a branch bubble (so a tail `lw` is still in its delay slot at the
/// loop head).
fn machines() -> Vec<(MachineConfig, bool)> {
    let parse = |s: &str| MachineConfig::parse(s).unwrap();
    vec![
        (MachineConfig::default(), false),
        (parse("fpu_lanes=2"), false),
        (parse("fpu_lanes=4"), false),
        (parse("fpu_latency=1"), false),
        (parse("fpu_latency=5"), false),
        (MachineConfig::default(), true),
        (parse("dcache_ways=2,icache_ways=2,ibuffer_ways=2"), false),
        (parse("int_load_delay_cycles=6,branch_penalty=0"), false),
    ]
}

/// A machine with `case` loaded and its inputs written: a register image
/// of moderate values (or extreme ones), the recurrences' seeds, the
/// pointers and the flag words.
fn machine(case: &LongLoop, regs: &[u64], cfg: (MachineConfig, bool), backend: Backend) -> Machine {
    let prog = Program::assemble(&case.instrs()).unwrap();
    let mut m = Machine::new(SimConfig {
        machine: cfg.0,
        serialized_issue: cfg.1,
        backend,
        max_cycles: 5_000_000,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    if let Some(k) = case.overflow_at {
        // 10^(308 - k) × 10^k overflows in iteration k.
        m.fpu
            .regs_mut()
            .write_f64(FReg::new(44), 10f64.powi(308 - k));
        m.fpu.regs_mut().write_f64(FReg::new(45), 1.0);
        m.fpu.regs_mut().write_f64(FReg::new(48), 10.0);
        m.fpu.regs_mut().write_f64(FReg::new(49), 2.0);
    }
    if let Some(k) = case.underflow_at {
        // 10^(10k - 300) × 10^(-10k) underflows in iteration k.
        m.fpu
            .regs_mut()
            .write_f64(FReg::new(46), 10f64.powi(10 * k - 300));
        m.fpu.regs_mut().write_f64(FReg::new(47), 1e-10);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    m.set_ireg(IReg::new(7), DATA_BASE + ALIAS);
    m.set_ireg(IReg::new(3), FLAGS);
    m.set_ireg(IReg::new(9), (DEFAULT_TEXT_BASE + 4) as i32);
    for k in 0..case.trips {
        let zero = case.zero_flags >> (k % 64) & 1 == 1;
        m.mem
            .memory
            .write_u32((FLAGS + 4 * k) as u32, u32::from(!zero));
        let base = (DATA_BASE + k * case.stride) as u32;
        m.mem.memory.write_f64(base, 1.5 + f64::from(k));
        m.mem.memory.write_u32(base + 8, k as u32);
    }
    m
}

/// The state a paused or finished run leaves: architectural state,
/// cycle, the machine's FPU counters and the words the loop can touch.
#[derive(Debug, PartialEq)]
struct State {
    cycle: u64,
    arch: ArchState,
    fpu: String,
    memory: Vec<u32>,
}

fn state(m: &Machine, case: &LongLoop) -> State {
    State {
        cycle: m.snapshot().cycle(),
        arch: m.arch_state(),
        fpu: format!("{:?}", m.fpu.stats()),
        memory: case.touched().map(|a| m.mem.memory.read_u32(a)).collect(),
    }
}

/// How a run is interrupted.
#[derive(Debug, Clone, Copy)]
enum Pause {
    /// Run to the end.
    None,
    /// `run_until` the given fraction (per mille) of the run, then
    /// resume.
    Stop(u64),
    /// Stop there, snapshot, finish, restore, finish again.
    Snapshot(u64),
    /// `interrupt_after` that fraction.
    Interrupt(u64),
    /// `run_cancellable` checking every so many cycles, cancelling at
    /// the given check.
    Cancel(u64, u32),
}

fn arb_pause() -> impl Strategy<Value = Pause> {
    prop_oneof![
        Just(Pause::None),
        (1u64..1000).prop_map(Pause::Stop),
        (1u64..1000).prop_map(Pause::Snapshot),
        (1u64..1000).prop_map(Pause::Interrupt),
        (1u64..200, 1u32..8).prop_map(|(every, n)| Pause::Cancel(every, n)),
    ]
}

/// Everything a run under `pause` shows: each paused state, then the
/// outcome and the state at the end.
fn observe(
    case: &LongLoop,
    regs: &[u64],
    cfg: (MachineConfig, bool),
    backend: Backend,
    pause: Pause,
    total: u64,
) -> Vec<(Option<Result<RunStats, RunError>>, State)> {
    let mut m = machine(case, regs, cfg, backend);
    let mut seen = Vec::new();
    let at = |permille: u64| (total * permille / 1000).max(1);
    match pause {
        Pause::None => {}
        Pause::Stop(p) | Pause::Snapshot(p) => {
            let out = m.run_until(at(p), &mut NullSink).map(|r| r.map(Ok));
            seen.push((out.unwrap_or_else(|e| Some(Err(e))), state(&m, case)));
            if let Pause::Snapshot(_) = pause {
                let snap = m.snapshot();
                let first = m.run();
                seen.push((Some(first), state(&m, case)));
                m.restore(&snap);
            }
        }
        Pause::Interrupt(p) => m.interrupt_after(at(p)),
        Pause::Cancel(every, n) => {
            let mut checks = 0;
            let out = m.run_cancellable(&mut NullSink, every, &mut || {
                checks += 1;
                checks == n
            });
            seen.push((Some(out), state(&m, case)));
        }
    }
    let out = m.run();
    seen.push((Some(out), state(&m, case)));
    seen
}

fn arb_regs() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        3 => prop::collection::vec((-1.0e3f64..1.0e3).prop_map(f64::to_bits), 40),
        1 => prop::collection::vec(
            prop_oneof![
                4 => (-1.0e3f64..1.0e3).prop_map(f64::to_bits),
                1 => Just(1.0e300f64.to_bits()),
                1 => Just(1.0e-300f64.to_bits()),
                1 => Just(f64::INFINITY.to_bits()),
            ],
            40,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Long loops run bit-identically on both engines — statistics,
    /// registers, PSW, memory — on every machine, with every pause.
    #[test]
    fn long_loops_replay_exactly(
        case in arb_loop(),
        regs in arb_regs(),
        which in 0usize..8,
        pause in arb_pause(),
    ) {
        let cfg = machines()[which];
        let total = {
            let mut m = machine(&case, &regs, cfg, Backend::Tick);
            m.run().map(|s| s.cycles).unwrap_or(1000)
        };
        let tick = observe(&case, &regs, cfg, Backend::Tick, pause, total);
        let xlate = observe(&case, &regs, cfg, Backend::Xlate, pause, total);
        prop_assert_eq!(tick, xlate);
    }

    /// Long loops whose back-edge always carries a trailing vector run
    /// bit-identically on both engines on the machines where it is
    /// still in flight at the loop head: the paper's, two and four
    /// lanes, and a five-cycle FPU.
    #[test]
    fn busy_back_edges_replay_exactly(
        case in arb_loop(),
        trailing in arb_trailing(),
        regs in arb_regs(),
        which in prop_oneof![Just(0usize), Just(1), Just(2), Just(4)],
        pause in arb_pause(),
    ) {
        let case = LongLoop { trailing: case.trailing.or(trailing).or(Some(Instr::Falu(
            FpuAluInstr::vector(FpOp::Add, FReg::new(8), FReg::new(8), FReg::new(0), 8).unwrap(),
        ))), ..case };
        let cfg = machines()[which];
        let total = {
            let mut m = machine(&case, &regs, cfg, Backend::Tick);
            m.run().map(|s| s.cycles).unwrap_or(1000)
        };
        let tick = observe(&case, &regs, cfg, Backend::Tick, pause, total);
        let xlate = observe(&case, &regs, cfg, Backend::Xlate, pause, total);
        prop_assert_eq!(tick, xlate);
    }
}

/// A replay whose path ends with writes in flight puts them back in the
/// pipeline, their registers holding the old values until they retire:
/// paused at every cycle of the run, and so at every cycle from such a
/// replay's end to the retirement of its writes, the translated engine
/// shows the tick interpreter's registers, PSW, counters and memory.
#[test]
fn writes_in_flight_at_a_replay_end_retire_on_time() {
    let case = LongLoop {
        body: vec![Instr::Fld {
            fr: FReg::new(0),
            base: IReg::new(1),
            offset: 0,
        }],
        trips: 40,
        stride: 8,
        branchy: false,
        zero_flags: 0,
        jr: false,
        overflow_at: None,
        underflow_at: None,
        // R8..R9 += R0..R1: both change on every trip.
        trailing: Some(Instr::Falu(
            FpuAluInstr::vector(FpOp::Add, FReg::new(8), FReg::new(8), FReg::new(0), 2).unwrap(),
        )),
    };
    let regs: Vec<u64> = (0..40).map(|i| (0.25 * f64::from(i)).to_bits()).collect();
    for which in [0, 1, 4] {
        let cfg = machines()[which];
        let total = machine(&case, &regs, cfg, Backend::Tick)
            .run()
            .unwrap()
            .cycles;
        let latency = machines()[which].0.timing.fpu_latency;
        let mut replayed = 0;
        let mut witnessed = 0;
        for c in 1..total {
            let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|backend| {
                let mut m = machine(&case, &regs, cfg, backend);
                assert_eq!(m.run_until(c, &mut NullSink), Ok(None), "paused at {c}");
                m
            });
            assert_eq!(
                state(&tick, &case),
                state(&xlate, &case),
                "machine {which}, cycle {c}"
            );
            // A replay committed at `c − 1` (the boundary `c` let it end
            // there), and a write from before `c − 1` is still in flight.
            let now = xlate.memo_counts().replayed;
            if now > replayed
                && xlate
                    .fpu
                    .writes_in_flight()
                    .any(|w| w.ready_at < c - 1 + latency)
            {
                witnessed += 1;
            }
            replayed = now;
        }
        assert!(
            witnessed >= 10,
            "machine {which}: {witnessed} replays ended busy"
        );
    }
}

/// Loop heads seen once spend no budget: 8,000 `jal fK` / `fK: jr r31`
/// pairs take a backward `jr r31` at every return, each a key seen once,
/// and end in a `jr r31` self-loop at `f0` (the last return lands there).
/// The memo forgets the keys seen once when they fill its budget, so the
/// self-loop still gets an entry and replays, and both engines agree over
/// 2,000,000 cycles.
#[test]
fn one_off_loop_heads_spend_no_budget() {
    let mut src = String::new();
    for k in 0..8000 {
        src += &format!("jal f{k}\n");
    }
    for k in 0..8000 {
        src += &format!("f{k}: jr r31\n");
    }
    let program = multititan::asm::parse(&src, DEFAULT_TEXT_BASE).unwrap();
    let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|backend| {
        let mut m = Machine::new(SimConfig {
            backend,
            ..SimConfig::default()
        });
        m.load_program(&program);
        m.interrupt_after(2_000_000);
        let stats = m.run().unwrap();
        (stats, m.arch_state(), m.memo_counts())
    });
    assert_eq!((&tick.0, &tick.1), (&xlate.0, &xlate.1));
    assert!(xlate.2.replayed > 0, "{:?}", xlate.2);
}

/// A loop head's timing state includes the integer loads still in their
/// delay slot: on a machine with a long load delay and no branch bubble,
/// a tail `lw` leaves `r8` pending at the head after each trip that takes
/// it, and the next trip's first instruction reads it. The flags come in
/// pairs, so each path runs from both kinds of head; a key without
/// `int_ready` would replay one head's timing from the other.
#[test]
fn pending_integer_load_is_part_of_the_key() {
    let case = LongLoop {
        body: vec![Instr::Nop],
        trips: 64,
        stride: 8,
        branchy: true,
        zero_flags: 0xCCCC_CCCC_CCCC_CCCC,
        jr: false,
        overflow_at: None,
        underflow_at: None,
        trailing: None,
    };
    let regs = vec![0; 40];
    let cfg = machines()[7];
    let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|backend| {
        let mut m = machine(&case, &regs, cfg, backend);
        let stats = m.run().unwrap();
        (stats, state(&m, &case), m.memo_counts())
    });
    assert_eq!((&tick.0, &tick.1), (&xlate.0, &xlate.1));
    assert!(xlate.2.replayed >= 40, "{:?}", xlate.2);
}

/// A loop head's key holds when each write in flight becomes due: on a
/// machine with an eight-cycle FPU, a scalar `fmul` just before a
/// data-dependent skip is still in flight at the loop head, due one
/// cycle later or sooner as the skip went, and the next trip's first
/// instruction, an `fst` of its result, waits for it. The flags come in
/// pairs, so each path runs from both kinds of head; a key without
/// `ready − C` would replay one head's wait from the other.
#[test]
fn in_flight_write_timing_is_part_of_the_key() {
    let flags: Vec<&str> = (0..64).map(|k| ["1", "1", "0", "0"][k % 4]).collect();
    let src = format!(
        "    li   r3, 0x3000
    li   r2, 64
    li   r4, 0x2000
loop:
    fst  R8, 0(r4)
    lw   r6, 0(r3)
    addi r3, r3, 4
    addi r2, r2, -1
    fmul R8, R8, R1
    beq  r6, r0, skip
    nop
    nop
skip:
    bne  r2, r0, loop
    halt
.data 0x3000
.word {}
",
        flags.join(", ")
    );
    let program = multititan::asm::parse(&src, DEFAULT_TEXT_BASE).unwrap();
    let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|backend| {
        let mut m = Machine::new(SimConfig {
            machine: MachineConfig::parse("fpu_latency=8").unwrap(),
            backend,
            ..SimConfig::default()
        });
        m.load_program(&program);
        m.fpu.regs_mut().write_f64(FReg::new(1), 1.5);
        m.fpu.regs_mut().write_f64(FReg::new(8), 1.0);
        let stats = m.run().unwrap();
        (stats, m.arch_state(), m.memo_counts())
    });
    assert_eq!((&tick.0, &tick.1), (&xlate.0, &xlate.1));
    assert!(xlate.2.replayed >= 20, "{:?}", xlate.2);
}

/// A replay that ends with no write in flight still raises the flags of
/// its last element writes when another path of its key ends busy: a
/// data-dependent skip leaves out a trailing `fadd R8..R9` on every trip
/// but the third, so the quiet loop head has a path that ends busy (that
/// trip) and one that ends quiet (the others), and the scalar
/// `fmul R46, R46, R47`, the quiet path's only element write, underflows
/// from the eleventh trip on, in replays from that head.
#[test]
fn a_quiet_replay_end_raises_its_last_flags() {
    let src = "    li   r3, 0x3000
    li   r2, 16
loop:
    fmul R46, R46, R47
    lw   r6, 0(r3)
    addi r3, r3, 4
    addi r2, r2, -1
    beq  r6, r0, skip
    fadd R8..R9, R8..R9, R0..R1
skip:
    bne  r2, r0, loop
    halt
.data 0x3000
.word 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
";
    let program = multititan::asm::parse(src, DEFAULT_TEXT_BASE).unwrap();
    let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|backend| {
        let mut m = Machine::new(SimConfig {
            backend,
            ..SimConfig::default()
        });
        m.load_program(&program);
        // 10^-200 × (10^-10)^11 is the first result below the normal
        // range.
        m.fpu.regs_mut().write_f64(FReg::new(46), 1e-200);
        m.fpu.regs_mut().write_f64(FReg::new(47), 1e-10);
        m.fpu.regs_mut().write_f64(FReg::new(0), 1.0);
        let stats = m.run().unwrap();
        (stats, m.arch_state(), m.memo_counts())
    });
    assert_eq!((&tick.0, &tick.1), (&xlate.0, &xlate.1));
    assert!(
        tick.1.psw.flags.contains(Exceptions::UNDERFLOW),
        "{:?}",
        tick.1.psw
    );
    assert!(xlate.2.replayed >= 8, "{:?}", xlate.2);
}

/// A fetch penalty decides how many elements issue before the fetched
/// instruction completes, so a key's paths branch on it ahead of those
/// elements. On a cold machine an eight-element `fadd` is still issuing
/// when a data-dependent branch enters a line no trip fetched before,
/// and the next trip that takes it finds the line in the instruction
/// buffer. With the far code 2 KiB past the loop head instead, it
/// evicts the head's buffer line, so the next trip's first fetch misses
/// while the `fadd` still issues: those paths part at their start. Each
/// path is kept; only the loop's exit is dropped.
#[test]
fn a_fetch_penalty_branches_ahead_of_the_elements_it_lets_issue() {
    let flags: Vec<&str> = (0..32)
        .map(|k| if k % 6 == 5 { "1" } else { "0" })
        .collect();
    let mid_path = format!(
        "    li   r3, 0x3000
    li   r2, 32
loop:
    lw   r6, 0(r3)
    addi r3, r3, 4
    fadd R16..R23, R0..R7, R8..R15
    addi r2, r2, -1
    bne  r6, r0, far
join:
    bne  r2, r0, loop
    halt
{}far:
    j    join
",
        "    nop\n".repeat(32),
    );
    // Seven words from `loop` to the padding: `far` is 2048 bytes on,
    // in the buffer line of `loop`.
    let at_start = format!(
        "    li   r3, 0x3000
    li   r2, 32
loop:
    lw   r6, 0(r3)
    addi r3, r3, 4
    addi r2, r2, -1
    bne  r6, r0, far
join:
    fadd R16..R23, R0..R7, R8..R15
    bne  r2, r0, loop
    halt
{}far:
    j    join
",
        "    nop\n".repeat(2048 / 4 - 7),
    );
    for src in [mid_path, at_start] {
        let src = format!("{src}.data 0x3000\n.word {}\n", flags.join(", "));
        let program = multititan::asm::parse(&src, DEFAULT_TEXT_BASE).unwrap();
        let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|backend| {
            let mut m = Machine::new(SimConfig {
                backend,
                ..SimConfig::default()
            });
            m.load_program(&program);
            let stats = m.run().unwrap();
            (stats, m.arch_state(), m.memo_counts())
        });
        assert_eq!((&tick.0, &tick.1), (&xlate.0, &xlate.1));
        assert_eq!(xlate.2.dropped, 1, "{:?}", xlate.2);
        assert!(xlate.2.replayed >= 20, "{:?}", xlate.2);
    }
}

/// The generated loops do exercise the memo: over a fixed sample, some
/// iterations are replayed, some replays roll back, and the exactness
/// property above therefore covers replays, commits and rollbacks.
#[test]
fn long_loops_record_replay_and_roll_back() {
    let mut rng = TestRng::from_name("long_loops_record_replay_and_roll_back");
    let mut totals = MemoCounts::default();
    for _ in 0..64 {
        let case = arb_loop().sample(&mut rng);
        let regs = arb_regs().sample(&mut rng);
        let mut m = machine(&case, &regs, machines()[0], Backend::Xlate);
        let _ = m.run();
        let c = m.memo_counts();
        totals.recorded += c.recorded;
        totals.replayed += c.replayed;
        totals.rolled_back += c.rolled_back;
    }
    assert!(totals.recorded > 0, "{totals:?}");
    assert!(totals.replayed > 100, "{totals:?}");
    assert!(totals.rolled_back > 0, "{totals:?}");
}

/// The memo cannot silently switch off: over a Livermore pass on the
/// paper machine (every loop cold, then warm, on one machine each),
/// replayed iterations cover at least three quarters of the
/// instructions, at least 90% on the loops whose iterations repeat
/// exactly and on LL 22, whose loop heads hold a vector still issuing,
/// and at least 75% on LL 15, whose loop heads hold a write in flight;
/// and the replays roll back fewer than 3,000 times.
#[test]
fn memo_covers_half_of_a_livermore_pass() {
    let mut instructions = 0;
    let mut replayed = 0;
    let mut rolled_back = 0;
    for n in 1..=24u8 {
        let kernel = livermore::by_number(n);
        let mut m = Machine::new(SimConfig::default());
        kernel.routine.install(&mut m);
        (kernel.init)(&mut m);
        let cold = m.run().unwrap();
        (kernel.verify)(&m).unwrap();
        (kernel.init)(&mut m);
        m.reset_for_rerun();
        let warm = m.run().unwrap();
        (kernel.verify)(&m).unwrap();
        let counts = m.memo_counts();
        let total = cold.instructions + warm.instructions;
        instructions += total;
        replayed += counts.instructions_replayed;
        rolled_back += counts.rolled_back;
        let floor = match n {
            1 | 3 | 5 | 7 | 11 | 12 | 22 | 23 | 24 => 90,
            15 => 75,
            _ => 0,
        };
        assert!(
            counts.instructions_replayed * 100 >= total * floor,
            "LL {n}: {} of {total} instructions replayed ({counts:?})",
            counts.instructions_replayed
        );
    }
    assert!(
        replayed * 4 >= instructions * 3,
        "{replayed} of {instructions} instructions replayed"
    );
    assert!(rolled_back < 3000, "{rolled_back} rollbacks");
}

/// The design-space grid's loops run bit-identically on both engines
/// under every machine of `BENCH_dse.json`, cold and warm.
/// `corpus_is_bit_identical_across_backends` and its serialized twin
/// cover the paper's machine only.
#[test]
fn dse_grid_loops_are_bit_identical_across_backends() {
    let doc = multititan::trace::json::parse(&std::fs::read_to_string("BENCH_dse.json").unwrap())
        .unwrap();
    // The latency × lanes cells, then the unified-vs-split comparison
    // (whose split machine runs with serialized issue).
    let cells: Vec<&Json> = ["cells", "comparison"]
        .iter()
        .flat_map(|part| doc.get(part).map(Json::items).unwrap_or_default())
        .collect();
    assert_eq!(cells.len(), 11, "the committed grid's cells");
    for cell in cells {
        let name = cell.get("name").and_then(Json::as_str).unwrap();
        let machine = cell.get("machine").and_then(Json::as_str).unwrap();
        let serialized = cell.get("serialized_issue") == Some(&Json::Bool(true));
        let machine = MachineConfig::parse(machine).unwrap();
        for n in [1u8, 3, 5, 7, 11, 12, 21, 23] {
            let kernel = livermore::by_number(n);
            let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|backend| {
                let config = SimConfig {
                    machine,
                    serialized_issue: serialized,
                    backend,
                    ..SimConfig::default()
                };
                harness::run_kernel_with(&kernel, config).unwrap()
            });
            assert_eq!(tick.cold, xlate.cold, "{name}: loop {n} cold");
            assert_eq!(tick.warm, xlate.warm, "{name}: loop {n} warm");
        }
    }
}

/// A loop that rewrites its own first instruction: 40 trips of
/// `addi r4, r4, 1`, which the 30th trip overwrites with
/// `addi r4, r4, 100`, so `r4` ends at 30 + 10 × 100. The text is
/// `jr r9; halt`, followed by the loop when `in_text`; otherwise the
/// loop is written into data memory. `jr r9` enters it and `jr r10`
/// leaves it for the `halt`.
fn self_patching_loop(in_text: bool, backend: Backend) -> (RunStats, ArchState, MemoCounts) {
    let r = IReg::new;
    let body = [
        Instr::Addi {
            rd: r(4),
            rs1: r(4),
            imm: 1,
        },
        Instr::Addi {
            rd: r(2),
            rs1: r(2),
            imm: -1,
        },
        // The 30th trip (`r2` = 10) falls through to the store.
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: r(2),
            rs2: r(3),
            offset: 1,
        },
        Instr::Sw {
            rs: r(6),
            base: r(9),
            offset: 0,
        },
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: r(2),
            rs2: r(0),
            offset: -5,
        },
        Instr::Jr { rs: r(10) },
    ];
    let mut text = vec![Instr::Jr { rs: r(9) }, Instr::Halt];
    let at = if in_text {
        text.extend(body);
        DEFAULT_TEXT_BASE + 8
    } else {
        0x8_0000
    };
    let mut m = Machine::new(SimConfig {
        backend,
        ..SimConfig::default()
    });
    m.load_program(&Program::assemble(&text).unwrap());
    if !in_text {
        for (i, instr) in body.iter().enumerate() {
            m.mem
                .memory
                .write_u32(at + 4 * i as u32, instr.encode().unwrap());
        }
    }
    let patch = Instr::Addi {
        rd: r(4),
        rs1: r(4),
        imm: 100,
    };
    m.set_ireg(r(2), 40);
    m.set_ireg(r(3), 10);
    m.set_ireg(r(6), patch.encode().unwrap() as i32);
    m.set_ireg(r(9), at as i32);
    m.set_ireg(r(10), (DEFAULT_TEXT_BASE + 4) as i32);
    let stats = m.run().unwrap();
    assert_eq!(m.ireg(r(4)), 30 + 10 * 100, "{backend}");
    (stats, m.arch_state(), m.memo_counts())
}

/// Once the text has been written, the memo neither replays nor
/// records: its recordings hold the words the table decoded at load.
/// The loop is replayed before its 30th trip patches it, and its last
/// ten trips must run the new word.
#[test]
fn a_text_write_ends_replays() {
    let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|b| self_patching_loop(true, b));
    assert_eq!((&tick.0, &tick.1), (&xlate.0, &xlate.1));
    assert!(xlate.2.replayed > 0, "{:?}", xlate.2);
}

/// A kept recording holds only instructions fetched from the predecode
/// table: a word outside the text can change without the text's write
/// watch noticing, and a replay does not fetch it again. The loop runs
/// from data memory, so every recording of it is dropped.
#[test]
fn code_outside_the_text_is_never_recorded() {
    let [tick, xlate] = [Backend::Tick, Backend::Xlate].map(|b| self_patching_loop(false, b));
    assert_eq!((&tick.0, &tick.1), (&xlate.0, &xlate.1));
    assert_eq!(xlate.2.recorded, 0, "{:?}", xlate.2);
}
