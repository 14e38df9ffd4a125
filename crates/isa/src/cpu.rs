//! The scalar CPU substrate instruction set.
//!
//! The paper specifies the FPU ALU format precisely (Fig. 3) but leaves the
//! CPU side at the block-diagram level, so this substrate defines a minimal
//! 32-bit RISC in the MultiTitan spirit: 32 integer registers (`r0` = 0),
//! register-to-register integer ALU operations, loads/stores, compare-and-
//! branch, and the two coprocessor memory operations (`fld`/`fst`) that move
//! 64-bit doubles between the data cache and the FPU register file.
//!
//! Encoding (all words 32 bits; the top 4 bits are the major opcode, and
//! opcode [`crate::fpu::FPU_ALU_OPCODE`] words are FPU ALU instructions):
//!
//! ```text
//! 0  SYS    |0000|rd:5|…|funct|              nop=0, halt=1, mfpsw=2, clrpsw=3
//! 1  ALU    |0001|rd:5|rs1:5|rs2:5|funct:13|
//! 2  ADDI   |0010|rd:5|rs1:5|imm:18s|
//! 3  LUI    |0011|rd:5|imm:23|                rd = imm << 14
//! 4  LW     |0100|rd:5|base:5|off:18s|        bytes
//! 5  SW     |0101|rs:5|base:5|off:18s|        bytes
//! 6  FALU   (Fig. 3 format, see `fpu`)
//! 7  FLD    |0111|fr:6|base:5|off:17s|        bytes, 8-aligned
//! 8  FST    |1000|fr:6|base:5|off:17s|        bytes, 8-aligned
//! 9  BEQ    |1001|rs1:5|rs2:5|off:18s|        words, relative to next pc
//! 10 BNE    |1010|...|
//! 11 BLT    |1011|...|                        signed compare
//! 12 BGE    |1100|...|
//! 13 J      |1101|target:28|                  absolute word address
//! 14 JAL    |1110|target:28|                  link in r31
//! 15 JR     |1111|rs1:5|
//! ```

use std::fmt;

use crate::fpu::{FpuAluInstr, FpuInstrError, FPU_ALU_OPCODE};
use crate::reg::{FReg, IReg};

/// Integer ALU operations (R-type funct values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by rs2 mod 32).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set-less-than, signed: rd = (rs1 < rs2) as i32.
    Slt,
    /// Integer multiply (low 32 bits).
    Mul,
}

impl AluOp {
    const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Mul,
    ];

    fn funct(self) -> u32 {
        self as u32
    }

    fn from_funct(f: u32) -> Option<AluOp> {
        AluOp::ALL.get(f as usize).copied()
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Mul => "mul",
        }
    }

    /// Parses an assembly mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<AluOp> {
        AluOp::ALL.into_iter().find(|op| op.mnemonic() == s)
    }
}

/// Compare-and-branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// rs1 == rs2
    Eq,
    /// rs1 != rs2
    Ne,
    /// rs1 < rs2 (signed)
    Lt,
    /// rs1 >= rs2 (signed)
    Ge,
}

impl BranchCond {
    /// Evaluates the condition.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
        }
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Stop simulation.
    Halt,
    /// Move the FPU PSW into an integer register: exception flags in bits
    /// 0–4, first-overflow destination specifier in bits 8–13 with bit 15
    /// as its valid flag ("the FPU PSW is conceptually in the register
    /// file", §2; the overflow capture is §2.3.1).
    Mfpsw {
        /// Destination integer register.
        rd: IReg,
    },
    /// Clear the FPU PSW (the supervisor write).
    ClrPsw,
    /// Integer register-register operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: IReg,
        /// First source.
        rs1: IReg,
        /// Second source.
        rs2: IReg,
    },
    /// Add immediate: `rd = rs1 + imm`.
    Addi {
        /// Destination.
        rd: IReg,
        /// Source.
        rs1: IReg,
        /// Signed immediate, 18 bits.
        imm: i32,
    },
    /// Load upper immediate: `rd = imm << 14`.
    Lui {
        /// Destination.
        rd: IReg,
        /// Unsigned immediate, 23 bits.
        imm: u32,
    },
    /// Load 32-bit word: `rd = mem32[rs(base) + offset]`.
    Lw {
        /// Destination.
        rd: IReg,
        /// Base address register.
        base: IReg,
        /// Signed byte offset, 18 bits.
        offset: i32,
    },
    /// Store 32-bit word.
    Sw {
        /// Value source.
        rs: IReg,
        /// Base address register.
        base: IReg,
        /// Signed byte offset, 18 bits.
        offset: i32,
    },
    /// Load a 64-bit double into an FPU register.
    Fld {
        /// FPU destination register.
        fr: FReg,
        /// Base address register.
        base: IReg,
        /// Signed byte offset, 17 bits (8-byte aligned).
        offset: i32,
    },
    /// Store a 64-bit double from an FPU register.
    Fst {
        /// FPU source register.
        fr: FReg,
        /// Base address register.
        base: IReg,
        /// Signed byte offset, 17 bits (8-byte aligned).
        offset: i32,
    },
    /// Compare-and-branch. Target = pc + 1 + offset (in words).
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compare source.
        rs1: IReg,
        /// Second compare source.
        rs2: IReg,
        /// Signed word offset from the instruction after the branch.
        offset: i32,
    },
    /// Unconditional jump to an absolute word address.
    Jump {
        /// Absolute word address.
        target: u32,
    },
    /// Jump and link: r31 receives the byte address of the next
    /// instruction (`pc + 4`), which `jr r31` returns to.
    Jal {
        /// Absolute word address.
        target: u32,
    },
    /// Jump to register.
    Jr {
        /// Register holding the byte address (as `jal` links it).
        rs: IReg,
    },
    /// An FPU ALU (vector/scalar arithmetic) instruction.
    Falu(FpuAluInstr),
}

/// Errors from [`Instr::encode`] / [`Instr::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown SYS funct or ALU funct.
    BadFunct(u32),
    /// An immediate does not fit its field.
    ImmediateOutOfRange {
        /// The offending value.
        value: i64,
        /// Field width in bits.
        bits: u32,
    },
    /// A jump target does not fit 28 bits.
    TargetOutOfRange(u32),
    /// An FPU register specifier exceeds 51.
    BadFReg(u8),
    /// Error in an embedded FPU ALU instruction.
    Fpu(FpuInstrError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadFunct(x) => write!(f, "unknown funct {x}"),
            DecodeError::ImmediateOutOfRange { value, bits } => {
                write!(f, "immediate {value} does not fit in {bits} bits")
            }
            DecodeError::TargetOutOfRange(t) => write!(f, "jump target {t:#x} exceeds 28 bits"),
            DecodeError::BadFReg(r) => write!(f, "FPU register {r} exceeds 51"),
            DecodeError::Fpu(e) => write!(f, "FPU instruction: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<FpuInstrError> for DecodeError {
    fn from(e: FpuInstrError) -> DecodeError {
        DecodeError::Fpu(e)
    }
}

fn check_simm(value: i32, bits: u32) -> Result<u32, DecodeError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if (value as i64) < min || (value as i64) > max {
        return Err(DecodeError::ImmediateOutOfRange {
            value: value as i64,
            bits,
        });
    }
    Ok((value as u32) & ((1 << bits) - 1))
}

fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

impl Instr {
    /// Encodes to a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns an error when an immediate, offset, or target does not fit
    /// its field.
    pub fn encode(&self) -> Result<u32, DecodeError> {
        let w = |op: u32, rest: u32| (op << 28) | rest;
        Ok(match *self {
            Instr::Nop => w(0, 0),
            Instr::Halt => w(0, 1),
            Instr::Mfpsw { rd } => w(0, ((rd.index() as u32) << 23) | 2),
            Instr::ClrPsw => w(0, 3),
            Instr::Alu { op, rd, rs1, rs2 } => w(
                1,
                ((rd.index() as u32) << 23)
                    | ((rs1.index() as u32) << 18)
                    | ((rs2.index() as u32) << 13)
                    | op.funct(),
            ),
            Instr::Addi { rd, rs1, imm } => w(
                2,
                ((rd.index() as u32) << 23) | ((rs1.index() as u32) << 18) | check_simm(imm, 18)?,
            ),
            Instr::Lui { rd, imm } => {
                if imm >= 1 << 23 {
                    return Err(DecodeError::ImmediateOutOfRange {
                        value: imm as i64,
                        bits: 23,
                    });
                }
                w(3, ((rd.index() as u32) << 23) | imm)
            }
            Instr::Lw { rd, base, offset } => w(
                4,
                ((rd.index() as u32) << 23)
                    | ((base.index() as u32) << 18)
                    | check_simm(offset, 18)?,
            ),
            Instr::Sw { rs, base, offset } => w(
                5,
                ((rs.index() as u32) << 23)
                    | ((base.index() as u32) << 18)
                    | check_simm(offset, 18)?,
            ),
            Instr::Falu(f) => f.encode(),
            Instr::Fld { fr, base, offset } => w(
                7,
                ((fr.index() as u32) << 22)
                    | ((base.index() as u32) << 17)
                    | check_simm(offset, 17)?,
            ),
            Instr::Fst { fr, base, offset } => w(
                8,
                ((fr.index() as u32) << 22)
                    | ((base.index() as u32) << 17)
                    | check_simm(offset, 17)?,
            ),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let op = match cond {
                    BranchCond::Eq => 9,
                    BranchCond::Ne => 10,
                    BranchCond::Lt => 11,
                    BranchCond::Ge => 12,
                };
                w(
                    op,
                    ((rs1.index() as u32) << 23)
                        | ((rs2.index() as u32) << 18)
                        | check_simm(offset, 18)?,
                )
            }
            Instr::Jump { target } => {
                if target >= 1 << 28 {
                    return Err(DecodeError::TargetOutOfRange(target));
                }
                w(13, target)
            }
            Instr::Jal { target } => {
                if target >= 1 << 28 {
                    return Err(DecodeError::TargetOutOfRange(target));
                }
                w(14, target)
            }
            Instr::Jr { rs } => w(15, (rs.index() as u32) << 23),
        })
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown functs, out-of-range FPU register
    /// specifiers, and malformed embedded FPU ALU instructions.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let op = word >> 28;
        let ireg5 = |sh: u32| IReg::new(((word >> sh) & 0x1F) as u8);
        let freg6 = |sh: u32| {
            FReg::try_new(((word >> sh) & 0x3F) as u8)
                .ok_or(DecodeError::BadFReg(((word >> sh) & 0x3F) as u8))
        };
        Ok(match op {
            0 => match word & 0x007F_FFFF {
                0 if word & 0x0FFF_FFFF == 0 => Instr::Nop,
                1 => Instr::Halt,
                2 => Instr::Mfpsw { rd: ireg5(23) },
                3 => Instr::ClrPsw,
                f => return Err(DecodeError::BadFunct(f)),
            },
            1 => Instr::Alu {
                op: AluOp::from_funct(word & 0x1FFF).ok_or(DecodeError::BadFunct(word & 0x1FFF))?,
                rd: ireg5(23),
                rs1: ireg5(18),
                rs2: ireg5(13),
            },
            2 => Instr::Addi {
                rd: ireg5(23),
                rs1: ireg5(18),
                imm: sign_extend(word & 0x3FFFF, 18),
            },
            3 => Instr::Lui {
                rd: ireg5(23),
                imm: word & 0x7F_FFFF,
            },
            4 => Instr::Lw {
                rd: ireg5(23),
                base: ireg5(18),
                offset: sign_extend(word & 0x3FFFF, 18),
            },
            5 => Instr::Sw {
                rs: ireg5(23),
                base: ireg5(18),
                offset: sign_extend(word & 0x3FFFF, 18),
            },
            FPU_ALU_OPCODE => Instr::Falu(FpuAluInstr::decode(word)?),
            7 => Instr::Fld {
                fr: freg6(22)?,
                base: ireg5(17),
                offset: sign_extend(word & 0x1FFFF, 17),
            },
            8 => Instr::Fst {
                fr: freg6(22)?,
                base: ireg5(17),
                offset: sign_extend(word & 0x1FFFF, 17),
            },
            9..=12 => Instr::Branch {
                cond: match op {
                    9 => BranchCond::Eq,
                    10 => BranchCond::Ne,
                    11 => BranchCond::Lt,
                    _ => BranchCond::Ge,
                },
                rs1: ireg5(23),
                rs2: ireg5(18),
                offset: sign_extend(word & 0x3FFFF, 18),
            },
            13 => Instr::Jump {
                target: word & 0x0FFF_FFFF,
            },
            14 => Instr::Jal {
                target: word & 0x0FFF_FFFF,
            },
            15 => Instr::Jr { rs: ireg5(23) },
            _ => unreachable!("op is 4 bits"),
        })
    }

    /// `true` for instructions that reference data memory.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Lw { .. } | Instr::Sw { .. } | Instr::Fld { .. } | Instr::Fst { .. }
        )
    }

    /// `true` for FPU loads/stores (the operations the Load/Store IR
    /// handles).
    pub fn is_fpu_mem(&self) -> bool {
        matches!(self, Instr::Fld { .. } | Instr::Fst { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::Mfpsw { rd } => write!(f, "mfpsw {rd}"),
            Instr::ClrPsw => write!(f, "clrpsw"),
            Instr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {imm}"),
            Instr::Lw { rd, base, offset } => write!(f, "lw {rd}, {offset}({base})"),
            Instr::Sw { rs, base, offset } => write!(f, "sw {rs}, {offset}({base})"),
            Instr::Fld { fr, base, offset } => write!(f, "fld {fr}, {offset}({base})"),
            Instr::Fst { fr, base, offset } => write!(f, "fst {fr}, {offset}({base})"),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", cond.mnemonic()),
            Instr::Jump { target } => write!(f, "j {target:#x}"),
            Instr::Jal { target } => write!(f, "jal {target:#x}"),
            Instr::Jr { rs } => write!(f, "jr {rs}"),
            Instr::Falu(i) => write!(f, "{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_fparith::FpOp;

    fn ir(i: u8) -> IReg {
        IReg::new(i)
    }

    fn roundtrip(i: Instr) {
        let w = i.encode().unwrap_or_else(|e| panic!("encode {i}: {e}"));
        assert_eq!(Instr::decode(w).unwrap(), i, "word {w:#010x}");
    }

    #[test]
    fn roundtrip_every_form() {
        roundtrip(Instr::Nop);
        roundtrip(Instr::Halt);
        roundtrip(Instr::Mfpsw { rd: ir(9) });
        roundtrip(Instr::ClrPsw);
        for op in AluOp::ALL {
            roundtrip(Instr::Alu {
                op,
                rd: ir(1),
                rs1: ir(2),
                rs2: ir(3),
            });
        }
        roundtrip(Instr::Addi {
            rd: ir(31),
            rs1: ir(0),
            imm: -131072,
        });
        roundtrip(Instr::Addi {
            rd: ir(1),
            rs1: ir(1),
            imm: 131071,
        });
        roundtrip(Instr::Lui {
            rd: ir(5),
            imm: (1 << 23) - 1,
        });
        roundtrip(Instr::Lw {
            rd: ir(4),
            base: ir(5),
            offset: -4,
        });
        roundtrip(Instr::Sw {
            rs: ir(4),
            base: ir(5),
            offset: 1024,
        });
        roundtrip(Instr::Fld {
            fr: FReg::new(51),
            base: ir(2),
            offset: -8,
        });
        roundtrip(Instr::Fst {
            fr: FReg::new(0),
            base: ir(2),
            offset: 65528,
        });
        for cond in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
        ] {
            roundtrip(Instr::Branch {
                cond,
                rs1: ir(6),
                rs2: ir(7),
                offset: -100,
            });
        }
        roundtrip(Instr::Jump {
            target: 0x0FFF_FFFF,
        });
        roundtrip(Instr::Jal { target: 42 });
        roundtrip(Instr::Jr { rs: ir(31) });
        roundtrip(Instr::Falu(FpuAluInstr::scalar(
            FpOp::Add,
            FReg::new(1),
            FReg::new(2),
            FReg::new(3),
        )));
    }

    #[test]
    fn immediates_out_of_range_rejected() {
        assert!(matches!(
            Instr::Addi {
                rd: ir(1),
                rs1: ir(0),
                imm: 131072
            }
            .encode(),
            Err(DecodeError::ImmediateOutOfRange { bits: 18, .. })
        ));
        assert!(matches!(
            Instr::Fld {
                fr: FReg::new(0),
                base: ir(0),
                offset: 1 << 16
            }
            .encode(),
            Err(DecodeError::ImmediateOutOfRange { bits: 17, .. })
        ));
        assert!(matches!(
            Instr::Jump { target: 1 << 28 }.encode(),
            Err(DecodeError::TargetOutOfRange(_))
        ));
    }

    #[test]
    fn branch_condition_eval() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(!BranchCond::Eq.eval(3, 4));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval(-1, 0));
        assert!(!BranchCond::Lt.eval(0, -1));
        assert!(BranchCond::Ge.eval(0, -1));
        assert!(BranchCond::Ge.eval(5, 5));
    }

    #[test]
    fn decode_rejects_bad_funct() {
        // SYS with funct 7.
        assert!(matches!(Instr::decode(7), Err(DecodeError::BadFunct(7))));
        // Nop demands a fully-zero word (stray rd bits are invalid).
        assert!(Instr::decode(1 << 23).is_err());
        // ALU with funct 10 exists (Mul); 11 does not.
        assert!(matches!(
            Instr::decode((1 << 28) | 11),
            Err(DecodeError::BadFunct(11))
        ));
    }

    #[test]
    fn decode_rejects_bad_fpu_register_in_fld() {
        // FLD with fr = 52.
        let word = (7u32 << 28) | (52 << 22);
        assert_eq!(Instr::decode(word), Err(DecodeError::BadFReg(52)));
    }

    #[test]
    fn falu_embeds_figure_3_format() {
        let i =
            FpuAluInstr::vector(FpOp::Mul, FReg::new(16), FReg::new(0), FReg::new(8), 4).unwrap();
        let w = Instr::Falu(i).encode().unwrap();
        assert_eq!(w >> 28, FPU_ALU_OPCODE);
        assert_eq!(Instr::decode(w).unwrap(), Instr::Falu(i));
    }

    #[test]
    fn display_disassembly() {
        assert_eq!(
            Instr::Addi {
                rd: ir(1),
                rs1: ir(2),
                imm: -5
            }
            .to_string(),
            "addi r1, r2, -5"
        );
        assert_eq!(
            Instr::Fld {
                fr: FReg::new(3),
                base: ir(4),
                offset: 16
            }
            .to_string(),
            "fld R3, 16(r4)"
        );
        assert_eq!(
            Instr::Branch {
                cond: BranchCond::Lt,
                rs1: ir(1),
                rs2: ir(2),
                offset: -3
            }
            .to_string(),
            "blt r1, r2, -3"
        );
    }

    #[test]
    fn memory_classification() {
        assert!(Instr::Lw {
            rd: ir(1),
            base: ir(2),
            offset: 0
        }
        .is_memory());
        assert!(Instr::Fst {
            fr: FReg::new(1),
            base: ir(2),
            offset: 0
        }
        .is_fpu_mem());
        assert!(!Instr::Nop.is_memory());
        assert!(!Instr::Lw {
            rd: ir(1),
            base: ir(2),
            offset: 0
        }
        .is_fpu_mem());
    }
}
