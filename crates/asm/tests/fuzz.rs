//! Fuzz-style property tests: the text assembler must never panic, must
//! produce decodable words when it succeeds, and parsing a program's own
//! disassembly-like source must be stable. Every program that assembles
//! is additionally pushed through the `mt-lint` static analyzer, which
//! must never panic regardless of how degenerate the program is, and a
//! program drawn from the assembler's grammar that the default machine
//! accepts must end alike on the tick and translated backends.

use mt_asm::parse;
use mt_fparith::op::ALL_OPS;
use mt_isa::cpu::AluOp;
use mt_isa::Instr;
use mt_lint::lint_program;
use mt_sim::{ArchState, Backend, Machine, MachineConfig, Program, RunError, RunStats, SimConfig};
use proptest::prelude::*;
use proptest::TestRng;

/// The integer ALU mnemonics (`AluOp`'s table is private to `mt-isa`;
/// `every_alu_mnemonic_is_drawn` holds this list to it).
const ALU: [&str; 10] = [
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "mul",
];

/// Programs of 1–32 lines drawn from what the assembler's grammar
/// accepts: every mnemonic in each of its operand forms, operands at and
/// just past their bounds, labels defined once, twice and never, and
/// `.data`/`.double`/`.word` segments at 0, near the top of the default
/// memory and misaligned. Half the programs stay inside every bound, so
/// they mostly assemble and reach the simulator; the other half draw an
/// operand past its bound now and then.
struct GrammarPrograms;

impl Strategy for GrammarPrograms {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let past_bounds = rng.below(2) == 0;
        Gen { rng, past_bounds }.program()
    }
}

struct Gen<'a> {
    rng: &'a mut TestRng,
    /// Whether this program may draw operands past their bounds.
    past_bounds: bool,
}

impl Gen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    /// `true` once in `n` draws.
    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// `true` once in `n` draws of a program that goes past bounds.
    fn past(&mut self, n: u64) -> bool {
        self.past_bounds && self.one_in(n)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn program(&mut self) -> String {
        let len = 1 + self.below(32) as usize;
        let labels = 1 + self.below(3);
        let mut lines: Vec<String> = (0..len).map(|_| self.line(labels)).collect();
        if self.below(4) != 0 {
            lines[len - 1] = "halt".to_string();
        }
        // Each label is defined once, or twice or never: on an
        // instruction's line, or on a line of its own before a directive.
        for k in 0..labels {
            let defs = match self.past_bounds {
                true => self.pick(&[0, 1, 1, 1, 1, 1, 1, 2]),
                false => 1,
            };
            for _ in 0..defs {
                let at = self.below(len as u64) as usize;
                let sep = if lines[at].starts_with('.') {
                    "\n"
                } else {
                    " "
                };
                lines[at] = format!("L{k}:{sep}{}", lines[at]);
            }
        }
        lines.join("\n")
    }

    fn line(&mut self, labels: u64) -> String {
        let label = format!("L{}", self.below(labels));
        match self.below(24) {
            0 => "nop".to_string(),
            1 => "halt".to_string(),
            2 => format!("mfpsw {}", self.ireg()),
            3 => "clrpsw".to_string(),
            4 | 5 => {
                let op = self.pick(&ALU);
                format!("{op} {}, {}, {}", self.ireg(), self.ireg(), self.ireg())
            }
            6 => format!("addi {}, {}, {}", self.ireg(), self.ireg(), self.simm(18)),
            7 => {
                let value = match self.below(3) {
                    0 => format!("{:#x}", self.data_base()),
                    1 => self
                        .pick(&["0x7fffffff", "-2147483648", "0xFFFFC000"])
                        .to_string(),
                    _ => self.simm(18),
                };
                format!("li {}, {value}", self.ireg())
            }
            8 => {
                let value = match self.below(8) {
                    0 => "0x7fffff".to_string(),
                    1 if self.past(2) => self.pick(&["0x800000", "-1"]).to_string(),
                    _ => self.below(64).to_string(),
                };
                format!("lui {}, {value}", self.ireg())
            }
            9 => {
                let m = self.pick(&["lw", "sw"]);
                format!("{m} {}, {}", self.ireg(), self.mem(18))
            }
            10 | 11 => {
                let m = self.pick(&["fld", "fst"]);
                format!("{m} {}, {}", self.freg(), self.mem(17))
            }
            12 => {
                // Strided: the offsets `offset + stride * i` must fit too.
                let m = self.pick(&["fldv", "fstv"]);
                let len = self.vlen();
                let stride = match self.below(8) {
                    0 => self.simm(17),
                    1 if self.past(2) => self.pick(&["0x7fffffff", "-2147483648"]).to_string(),
                    _ => self.pick(&["8", "16", "-8", "0"]).to_string(),
                };
                format!("{m} {}, {}, {stride}", self.frange(len), self.mem(17))
            }
            13 => {
                let (rr, ra, rb) = (self.freg(), self.freg(), self.freg());
                // The macro's two temporaries apart from the operands,
                // or one aliasing the dividend.
                let t0 = match self.past(8) {
                    true => ra.clone(),
                    false => format!("R{}", 40 + self.below(6)),
                };
                let t1 = format!("R{}", 46 + self.below(5));
                format!("fdiv {rr}, {ra}, {rb}, {t0}, {t1}")
            }
            14..=18 => self.falu(),
            19 | 20 => {
                let m = self.pick(&["beq", "bne", "blt", "bge"]);
                format!("{m} {}, {}, {label}", self.ireg(), self.ireg())
            }
            21 => format!("{} {label}", self.pick(&["j", "jal"])),
            22 => format!("jr {}", self.ireg()),
            // A data segment, or a value with no segment open.
            _ => {
                let data = match self.below(8) {
                    0 if self.past_bounds => return format!(".word {}", self.simm(18)),
                    0 | 1 => String::new(),
                    2 | 3 => format!("\n.word {}, {}", self.simm(18), self.simm(18)),
                    _ => self
                        .pick(&["\n.double 1.5, -0.25", "\n.double 1e300", "\n.double 3"])
                        .to_string(),
                };
                format!(".data {:#x}{data}", self.data_base())
            }
        }
    }

    /// An FPU ALU instruction in one of its operand forms: scalar, vector
    /// range, vector–scalar (the last source a single register), or with
    /// a source range of another length.
    fn falu(&mut self) -> String {
        let op = self.pick(&ALL_OPS);
        let sources = if op.is_unary() { 1 } else { 2 };
        let len = self.vlen();
        let form = match self.below(3) {
            _ if self.past(8) => 3,
            form => form,
        };
        let mut operands = vec![if form == 0 {
            self.freg()
        } else {
            self.frange(len)
        }];
        for s in 0..sources {
            operands.push(match form {
                0 => self.freg(),
                2 if s + 1 == sources => self.freg(),
                3 if s == 0 => {
                    let other = self.vlen();
                    self.frange(other)
                }
                _ => self.frange(len),
            });
        }
        format!("{} {}", op.mnemonic(), operands.join(", "))
    }

    /// A vector length: 1–16, or 0 or 17.
    fn vlen(&mut self) -> u8 {
        match self.below(16) {
            0 if self.past(2) => self.pick(&[0, 17]),
            _ => 1 + self.below(16) as u8,
        }
    }

    /// A register range of `len` elements, `R1..R0` for none (a
    /// descending range), or one that runs just past R51.
    fn frange(&mut self, len: u8) -> String {
        if len == 0 {
            return "R1..R0".to_string();
        }
        let room = 52 - u64::from(len.min(16));
        let first = match self.past(16) {
            true => room + 1,
            false => self.below(room + 1),
        };
        format!("R{first}..R{}", first + u64::from(len) - 1)
    }

    /// An integer register, mostly one of a few so values flow between
    /// instructions; r31 and r32 at the edge.
    fn ireg(&mut self) -> String {
        match self.below(16) {
            0 => "r31".to_string(),
            1 if self.past(2) => "r32".to_string(),
            _ => format!("r{}", self.below(6)),
        }
    }

    /// An FPU register; R51 and R52 at the edge.
    fn freg(&mut self) -> String {
        match self.below(16) {
            0 => "R51".to_string(),
            1 if self.past(2) => "R52".to_string(),
            _ => format!("R{}", self.below(24)),
        }
    }

    /// A signed immediate of a `bits`-wide field: mostly small, else
    /// either edge of the field or one past it.
    fn simm(&mut self, bits: u32) -> String {
        let max = (1i64 << (bits - 1)) - 1;
        match self.below(16) {
            0 => self.pick(&[max, -max - 1]).to_string(),
            1 if self.past(2) => self.pick(&[max + 1, -max - 2]).to_string(),
            2 => (self.below(2 * max as u64 + 2) as i64 - max - 1).to_string(),
            _ => (self.below(33) as i64 - 16).to_string(),
        }
    }

    /// A data-segment base: mostly a word-aligned spot, else the bottom
    /// of memory, a misaligned spot, the last doubleword of the default
    /// 4 MiB memory, a doubleword that crosses its end, or its end.
    fn data_base(&mut self) -> u32 {
        match self.below(8) {
            0..=3 => 0x2000,
            4 => 0x0,
            5 => 0x2003,
            6 => 0x3f_fff8,
            _ => self.pick(&[0x3f_fffc, 0x40_0000]),
        }
    }

    /// A memory operand `offset(base)` for a `bits`-wide offset field:
    /// mostly a doubleword-aligned offset, sometimes a misaligned one or
    /// an edge of the field.
    fn mem(&mut self, bits: u32) -> String {
        let offset = match self.below(8) {
            0 => self.simm(bits),
            1 => (4 * self.below(64)).to_string(),
            _ => (8 * self.below(32)).to_string(),
        };
        format!("{offset}({})", self.ireg())
    }
}

/// The fuzz draws only mnemonics the assembler knows, each ALU one once.
#[test]
fn every_alu_mnemonic_is_drawn() {
    let ops: Vec<AluOp> = ALU.iter().filter_map(|m| AluOp::from_mnemonic(m)).collect();
    assert_eq!(ops.len(), ALU.len());
    assert!(ops.iter().enumerate().all(|(i, op)| !ops[..i].contains(op)));
}

/// The grammar property reaches the simulator: of the 256 programs it
/// draws, at least a quarter assemble and pass the default machine's
/// checks.
#[test]
fn grammar_programs_mostly_reach_the_simulator() {
    let mut rng = TestRng::from_name("grammar_programs_assemble_lint_and_run_alike");
    let runnable = (0..256)
        .filter(|_| {
            let src = GrammarPrograms.sample(&mut rng);
            parse(&src, 0x1_0000)
                .is_ok_and(|p| MachineConfig::default().validate_program(&p).is_ok())
        })
        .count();
    assert!(
        runnable >= 64,
        "only {runnable} of 256 programs reach the simulator"
    );
}

/// A run of `program` on `backend` under the fuzz limits: its result and
/// the architectural state it ended in.
fn run_on(program: &Program, backend: Backend) -> (Result<RunStats, RunError>, ArchState) {
    let mut m = Machine::new(SimConfig {
        max_cycles: 20_000,
        watchdog_cycles: 2_000,
        backend,
        ..SimConfig::default()
    });
    m.load_program(program);
    let result = m.run();
    (result, m.arch_state())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Programs drawn from the grammar never panic the parser; every
    /// word of one that assembles decodes, and the linter survives it.
    /// One the default machine accepts runs on both backends to `Ok` or
    /// a typed error, and to the same one: equal statistics and
    /// architectural state, or equal errors.
    #[test]
    fn grammar_programs_assemble_lint_and_run_alike(src in GrammarPrograms) {
        let Ok(program) = parse(&src, 0x1_0000) else {
            return Ok(());
        };
        for &w in &program.words {
            prop_assert!(Instr::decode(w).is_ok(), "word {w:#010x} of:\n{src}");
        }
        let _ = lint_program(&program);
        if MachineConfig::default().validate_program(&program).is_err() {
            return Ok(());
        }
        let (tick, tick_arch) = run_on(&program, Backend::Tick);
        let (xlate, xlate_arch) = run_on(&program, Backend::Xlate);
        prop_assert_eq!(&tick, &xlate, "backends disagree on:\n{}", src);
        if tick.is_ok() {
            prop_assert_eq!(tick_arch, xlate_arch, "backends disagree on:\n{}", src);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary text never panics the parser.
    #[test]
    fn parse_never_panics(src in "\\PC{0,200}") {
        let _ = parse(&src, 0x1_0000);
    }

    /// Line-noise built from assembler-ish tokens never panics either, and
    /// when it assembles, every word decodes.
    #[test]
    fn tokeny_soup_is_handled(
        lines in prop::collection::vec(
            prop_oneof![
                Just("fadd R1, R2, R3".to_string()),
                Just("fadd R0..R7, R8..R15, R16..R23".to_string()),
                Just("addi r1, r1, 1".to_string()),
                Just("lw r2, 4(r1)".to_string()),
                Just("fld R0, 0(r1)".to_string()),
                Just("x: nop".to_string()),
                Just("j x".to_string()),
                Just("beq r1, r2, x".to_string()),
                Just("halt".to_string()),
                Just("; comment only".to_string()),
                Just("fdiv R2, R0, R1, R48, R49".to_string()),
                Just("frobnicate r1".to_string()),
                Just("fadd R60, R1, R2".to_string()),
                Just("addi r1, r1, 99999999".to_string()),
            ],
            0..24,
        )
    ) {
        let src = lines.join("\n");
        if let Ok(program) = parse(&src, 0x1_0000) {
            for &w in &program.words {
                prop_assert!(Instr::decode(w).is_ok(), "assembled word {w:#010x} must decode");
            }
            // The static analyzer must survive anything the assembler
            // accepts; findings are free-form, panics are bugs.
            let _ = lint_program(&program);
        }
    }

    /// Arbitrary *words* (not just assembler output) never panic the
    /// linter: undecodable slots, wild branch targets, and hand-mangled
    /// vector encodings all flow through the CFG and replay analyses.
    #[test]
    fn lint_survives_arbitrary_words(words in prop::collection::vec(any::<u32>(), 0..48)) {
        let program = mt_sim::Program {
            words,
            base: 0x1_0000,
            segments: Vec::new(),
        };
        let _ = lint_program(&program);
    }

    /// Valid immediate forms roundtrip through addi.
    #[test]
    fn addi_immediates_roundtrip(v in -131072i32..=131071) {
        let src = format!("addi r5, r0, {v}\nhalt\n");
        let program = parse(&src, 0x1_0000).unwrap();
        match Instr::decode(program.words[0]).unwrap() {
            Instr::Addi { imm, .. } => prop_assert_eq!(imm, v),
            other => prop_assert!(false, "expected addi, got {}", other),
        }
    }

    /// Every register name in range parses; everything above is rejected.
    #[test]
    fn register_name_bounds(n in 0u8..=80) {
        let fsrc = format!("frecip R{n}, R0\nhalt\n");
        prop_assert_eq!(parse(&fsrc, 0).is_ok(), n < 52, "R{}", n);
        let isrc = format!("addi r{n}, r0, 1\nhalt\n");
        prop_assert_eq!(parse(&isrc, 0).is_ok(), n < 32, "r{}", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The instruction decoder never panics on any 32-bit word — it
    /// returns `Ok` or a decode error, nothing else.
    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        let _ = Instr::decode(word);
    }

    /// The whole simulator survives *executing* arbitrary words: any
    /// 32-bit soup loaded as text must end in a typed result (`Ok`,
    /// `BadInstruction`, `MemoryFault`, `CycleLimit`, `Watchdog`) —
    /// never a panic — on both the tick and the translated backend, with
    /// arbitrary register contents steering wild loads, stores, and
    /// jumps. This is the no-panic hardening contract the fault
    /// campaign's crash classification rests on.
    #[test]
    fn machine_survives_arbitrary_text(
        words in prop::collection::vec(any::<u32>(), 1..64),
        regs in prop::collection::vec(any::<i32>(), 31),
        backend in prop_oneof![Just(mt_sim::Backend::Tick), Just(mt_sim::Backend::Xlate)],
    ) {
        let program = mt_sim::Program {
            words,
            base: 0x1_0000,
            segments: Vec::new(),
        };
        let mut m = mt_sim::Machine::new(mt_sim::SimConfig {
            max_cycles: 20_000,
            watchdog_cycles: 2_000,
            backend,
            ..mt_sim::SimConfig::default()
        });
        m.load_program(&program);
        for (i, &v) in regs.iter().enumerate() {
            m.set_ireg(mt_isa::IReg::new(i as u8 + 1), v);
        }
        let _ = m.run();
    }
}
