//! Assembler for the MultiTitan instruction set.
//!
//! The paper's evaluation required hand-coding every benchmark (§3), so this
//! crate provides two front ends over the `mt-isa` encoders:
//!
//! * [`Asm`] — a programmatic builder with labels, branch fixup, and the
//!   `li`/`fdiv` pseudo-instructions. The kernel library (`mt-kernels`) and
//!   the mini-Mahler code generator build programs through it.
//! * [`parse`] — a two-pass text assembler with the same feature set, using
//!   a range syntax for vector operands: `fadd R8..R11, R0..R3, R4..R7`
//!   strides both sources; a plain register operand is a scalar broadcast.
//!
//! # Example
//!
//! ```
//! use mt_asm::Asm;
//! use mt_isa::{FReg, IReg};
//! use mt_fparith::FpOp;
//!
//! let mut a = Asm::new();
//! let r1 = IReg::new(1);
//! a.li(r1, 0x2000);
//! a.fld(FReg::new(0), r1, 0);
//! a.fld(FReg::new(1), r1, 8);
//! a.fvector(FpOp::Add, FReg::new(2), FReg::new(0), FReg::new(1), 1).unwrap();
//! a.halt();
//! let program = a.assemble(0x1_0000).unwrap();
//! assert_eq!(program.len(), 5);
//! ```

pub mod builder;
pub mod diag;
pub mod error;
pub mod parser;
pub mod span;

pub use builder::{Asm, Label};
pub use diag::PlainDiagnostic;
pub use error::AsmError;
pub use parser::{parse, parse_hex_u32, parse_with_source_map};
pub use span::{SourceMap, SourceSpan};
