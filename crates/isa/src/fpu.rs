//! The 32-bit FPU ALU instruction format (Fig. 3 of the paper).
//!
//! ```text
//! |< 4 >|<  6  >|<  6  >|<  6  >|<2>|<2>|< 4 >|1|1|
//! |  op |  Rr   |  Ra   |  Rb   |unit|fnc| VL−1|SRa|SRb|
//! ```
//!
//! The vector-length field holds `VL − 1`, so lengths run 1–16. The SRa/SRb
//! *stride* bits choose whether each source specifier increments between
//! elements; the result specifier Rr always increments. A scalar operation
//! is simply a vector of length one. These few fields are the entire
//! architectural surface of the paper's vector capability.

use std::fmt;

use mt_fparith::FpOp;

use crate::reg::FReg;

/// The 4-bit major opcode identifying an FPU ALU instruction in the
/// instruction stream (the paper's Fig. 3 shows opcode 6).
pub const FPU_ALU_OPCODE: u32 = 6;

/// Maximum vector length expressible in the 4-bit `VL − 1` field.
pub const MAX_VECTOR_LEN: u8 = 16;

/// Errors constructing or decoding an FPU ALU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpuInstrError {
    /// Vector length outside `1..=16`.
    BadVectorLength(u8),
    /// A register run walks past R51 (checked per striding field).
    RegisterRunOutOfRange(FReg, u8),
    /// The word's major opcode is not `FPU_ALU_OPCODE`.
    NotFpuAlu(u32),
    /// The unit/func combination is reserved in Fig. 4.
    ReservedOperation { unit: u8, func: u8 },
    /// A register specifier exceeds 51.
    BadRegister(u8),
}

impl fmt::Display for FpuInstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FpuInstrError::BadVectorLength(v) => write!(f, "vector length {v} not in 1..=16"),
            FpuInstrError::RegisterRunOutOfRange(r, vl) => {
                write!(f, "register run {r}..+{vl} leaves the register file")
            }
            FpuInstrError::NotFpuAlu(w) => {
                write!(f, "word {w:#010x} is not an FPU ALU instruction")
            }
            FpuInstrError::ReservedOperation { unit, func } => {
                write!(f, "reserved operation: unit {unit} func {func}")
            }
            FpuInstrError::BadRegister(r) => write!(f, "register specifier {r} exceeds 51"),
        }
    }
}

impl std::error::Error for FpuInstrError {}

/// One FPU ALU instruction: a vector operation of length 1–16 over
/// consecutive registers.
///
/// Construct with [`FpuAluInstr::scalar`] / [`FpuAluInstr::vector`] /
/// [`FpuAluInstr::new`]; the constructors validate that every register run
/// implied by the length and stride bits stays inside the 52-register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpuAluInstr {
    /// Result register (first element).
    pub rr: FReg,
    /// First source register (first element).
    pub ra: FReg,
    /// Second source register (first element).
    pub rb: FReg,
    /// Operation.
    pub op: FpOp,
    /// Vector length, `1..=16`.
    pub vl: u8,
    /// Stride bit for Ra: when set, Ra increments between elements.
    pub sra: bool,
    /// Stride bit for Rb: when set, Rb increments between elements.
    pub srb: bool,
}

impl FpuAluInstr {
    /// Builds a fully general instruction.
    ///
    /// # Errors
    ///
    /// Rejects vector lengths outside `1..=16` and register runs that leave
    /// the register file (Rr always strides; Ra/Rb only when their stride
    /// bit is set).
    pub fn new(
        op: FpOp,
        rr: FReg,
        ra: FReg,
        rb: FReg,
        vl: u8,
        sra: bool,
        srb: bool,
    ) -> Result<FpuAluInstr, FpuInstrError> {
        if !(1..=MAX_VECTOR_LEN).contains(&vl) {
            return Err(FpuInstrError::BadVectorLength(vl));
        }
        let last = vl - 1;
        if rr.offset(last).is_none() {
            return Err(FpuInstrError::RegisterRunOutOfRange(rr, vl));
        }
        if sra && ra.offset(last).is_none() {
            return Err(FpuInstrError::RegisterRunOutOfRange(ra, vl));
        }
        if srb && rb.offset(last).is_none() {
            return Err(FpuInstrError::RegisterRunOutOfRange(rb, vl));
        }
        Ok(FpuAluInstr {
            rr,
            ra,
            rb,
            op,
            vl,
            sra,
            srb,
        })
    }

    /// Builds a scalar operation (vector length one).
    pub fn scalar(op: FpOp, rr: FReg, ra: FReg, rb: FReg) -> FpuAluInstr {
        FpuAluInstr::new(op, rr, ra, rb, 1, false, false)
            .expect("scalar instructions are always in range")
    }

    /// Builds a vector operation with both sources striding
    /// (`vector := vector op vector`).
    pub fn vector(
        op: FpOp,
        rr: FReg,
        ra: FReg,
        rb: FReg,
        vl: u8,
    ) -> Result<FpuAluInstr, FpuInstrError> {
        FpuAluInstr::new(op, rr, ra, rb, vl, true, true)
    }

    /// Builds a vector–scalar operation: Ra strides, Rb is a scalar
    /// broadcast (`vector := vector op scalar`).
    pub fn vector_scalar(
        op: FpOp,
        rr: FReg,
        ra: FReg,
        rb: FReg,
        vl: u8,
    ) -> Result<FpuAluInstr, FpuInstrError> {
        FpuAluInstr::new(op, rr, ra, rb, vl, true, false)
    }

    /// The registers read and written by element `i` (0-based), following
    /// the specifier-increment rule.
    ///
    /// # Panics
    ///
    /// Panics if `i >= vl`.
    #[inline]
    pub fn element(&self, i: u8) -> ElementRefs {
        assert!(
            i < self.vl,
            "element index {i} out of range for VL {}",
            self.vl
        );
        ElementRefs {
            rr: self.rr.offset(i).expect("validated at construction"),
            ra: if self.sra {
                self.ra.offset(i).expect("validated at construction")
            } else {
                self.ra
            },
            rb: if self.srb {
                self.rb.offset(i).expect("validated at construction")
            } else {
                self.rb
            },
        }
    }

    /// Encodes to the 32-bit format of Fig. 3.
    pub fn encode(&self) -> u32 {
        let (unit, func) = self.op.unit_func();
        (FPU_ALU_OPCODE << 28)
            | ((self.rr.index() as u32) << 22)
            | ((self.ra.index() as u32) << 16)
            | ((self.rb.index() as u32) << 10)
            | ((unit as u32) << 8)
            | ((func as u32) << 6)
            | (((self.vl - 1) as u32) << 2)
            | ((self.sra as u32) << 1)
            | (self.srb as u32)
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Rejects words whose major opcode is not [`FPU_ALU_OPCODE`], reserved
    /// unit/func combinations, out-of-range register specifiers, and
    /// register runs that leave the file.
    pub fn decode(word: u32) -> Result<FpuAluInstr, FpuInstrError> {
        if word >> 28 != FPU_ALU_OPCODE {
            return Err(FpuInstrError::NotFpuAlu(word));
        }
        let reg = |v: u32| FReg::try_new(v as u8).ok_or(FpuInstrError::BadRegister(v as u8));
        let rr = reg((word >> 22) & 0x3F)?;
        let ra = reg((word >> 16) & 0x3F)?;
        let rb = reg((word >> 10) & 0x3F)?;
        let unit = ((word >> 8) & 0x3) as u8;
        let func = ((word >> 6) & 0x3) as u8;
        let op = FpOp::from_unit_func(unit, func)
            .ok_or(FpuInstrError::ReservedOperation { unit, func })?;
        let vl = (((word >> 2) & 0xF) + 1) as u8;
        let sra = (word >> 1) & 1 == 1;
        let srb = word & 1 == 1;
        FpuAluInstr::new(op, rr, ra, rb, vl, sra, srb)
    }
}

/// The concrete registers touched by one vector element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementRefs {
    /// Element result register.
    pub rr: FReg,
    /// Element first source.
    pub ra: FReg,
    /// Element second source.
    pub rb: FReg,
}

impl fmt::Display for FpuAluInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Vector syntax: fadd R16..R19, R0..R3, R8  (ranges shown only for
        // striding fields).
        let range = |r: FReg, strides: bool| -> String {
            if self.vl > 1 && strides {
                format!("{}..{}", r, FReg::new(r.index() + self.vl - 1))
            } else {
                r.to_string()
            }
        };
        write!(
            f,
            "{} {}, {}",
            self.op,
            range(self.rr, true),
            range(self.ra, self.sra),
        )?;
        if !self.op.is_unary() {
            write!(f, ", {}", range(self.rb, self.srb))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> FReg {
        FReg::new(i)
    }

    #[test]
    fn scalar_roundtrip() {
        let i = FpuAluInstr::scalar(FpOp::Mul, r(10), r(20), r(30));
        assert_eq!(FpuAluInstr::decode(i.encode()).unwrap(), i);
        assert_eq!(i.vl, 1);
    }

    #[test]
    fn vector_roundtrip_all_ops() {
        for op in mt_fparith::op::ALL_OPS {
            let i = FpuAluInstr::vector(op, r(16), r(0), r(8), 8).unwrap();
            assert_eq!(FpuAluInstr::decode(i.encode()).unwrap(), i, "{op}");
        }
    }

    #[test]
    fn vl_field_is_length_minus_one() {
        let i = FpuAluInstr::vector(FpOp::Add, r(0), r(16), r(32), 16).unwrap();
        assert_eq!((i.encode() >> 2) & 0xF, 15);
        let i = FpuAluInstr::scalar(FpOp::Add, r(0), r(1), r(2));
        assert_eq!((i.encode() >> 2) & 0xF, 0);
    }

    #[test]
    fn length_validation() {
        assert_eq!(
            FpuAluInstr::new(FpOp::Add, r(0), r(1), r(2), 0, true, true),
            Err(FpuInstrError::BadVectorLength(0))
        );
        assert_eq!(
            FpuAluInstr::new(FpOp::Add, r(0), r(1), r(2), 17, true, true),
            Err(FpuInstrError::BadVectorLength(17))
        );
    }

    #[test]
    fn register_run_validation() {
        // Rr run R48..R55 leaves the file.
        assert!(matches!(
            FpuAluInstr::vector(FpOp::Add, r(48), r(0), r(8), 8),
            Err(FpuInstrError::RegisterRunOutOfRange(_, 8))
        ));
        // Non-striding source at R51 is fine even for long vectors.
        let i = FpuAluInstr::vector_scalar(FpOp::Mul, r(0), r(8), r(51), 16).unwrap();
        assert_eq!(i.element(15).rb, r(51));
        // But a striding source at R51 is not.
        assert!(FpuAluInstr::vector(FpOp::Mul, r(0), r(51), r(8), 2).is_err());
    }

    #[test]
    fn element_specifier_increment_rule() {
        // Fig. 6 linear-sum shape: R8 := R8 + R[7..0] reversed — here the
        // canonical version: sources stride, result strides.
        let i = FpuAluInstr::new(FpOp::Add, r(8), r(8), r(0), 8, false, true).unwrap();
        // Scalar Ra stays, Rb strides, Rr strides.
        let e0 = i.element(0);
        assert_eq!((e0.rr, e0.ra, e0.rb), (r(8), r(8), r(0)));
        let e7 = i.element(7);
        assert_eq!((e7.rr, e7.ra, e7.rb), (r(15), r(8), r(7)));
    }

    #[test]
    fn fibonacci_instruction_of_figure_8() {
        // R2 := R1 + R0 with VL 8: element i computes R(2+i) := R(1+i) + R(0+i).
        let fib = FpuAluInstr::vector(FpOp::Add, r(2), r(1), r(0), 8).unwrap();
        for i in 0..8 {
            let e = fib.element(i);
            assert_eq!(e.rr.index(), 2 + i);
            assert_eq!(e.ra.index(), 1 + i);
            assert_eq!(e.rb.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn element_index_bounds_checked() {
        let i = FpuAluInstr::scalar(FpOp::Add, r(0), r(1), r(2));
        i.element(1);
    }

    #[test]
    fn decode_rejects_foreign_opcodes() {
        assert!(matches!(
            FpuAluInstr::decode(0x1000_0000),
            Err(FpuInstrError::NotFpuAlu(_))
        ));
    }

    #[test]
    fn decode_rejects_reserved_unit_func() {
        // unit 0 is reserved: craft a word with unit=0.
        let word = FPU_ALU_OPCODE << 28;
        assert!(matches!(
            FpuAluInstr::decode(word),
            Err(FpuInstrError::ReservedOperation { unit: 0, .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_registers() {
        // Rr = 52.
        let word = (FPU_ALU_OPCODE << 28) | (52 << 22) | (1 << 8); // unit=1 func=0
        assert_eq!(
            FpuAluInstr::decode(word),
            Err(FpuInstrError::BadRegister(52))
        );
    }

    #[test]
    fn display_shows_vector_ranges() {
        let i = FpuAluInstr::vector_scalar(FpOp::Mul, r(16), r(0), r(32), 4).unwrap();
        assert_eq!(i.to_string(), "fmul R16..R19, R0..R3, R32");
        let s = FpuAluInstr::scalar(FpOp::Recip, r(5), r(6), r(0));
        assert_eq!(s.to_string(), "frecip R5, R6");
    }
}
