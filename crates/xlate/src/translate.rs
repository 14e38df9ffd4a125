//! Translation: each text word decoded once into a micro-op.
//!
//! The translator makes one pass over a program's text section and
//! emits one [`Uop`] per decodable word, indexed by `(pc - base) / 4`. A
//! micro-op carries what the execute stage would otherwise re-derive per
//! dynamic instruction:
//!
//! * the decoded instruction itself (no fetch-word decode),
//! * its [`InstrCost`] row — guard registers, load/store port use,
//!   FPU hazard registers, stall classes — (no per-attempt cost-table
//!   dispatch; a stalled instruction retries every cycle, so this is
//!   paid many times per dynamic instruction in interlocked code).
//!
//! Undecodable words translate to `None`: they cannot execute, and a
//! fetch that reaches one reads and decodes the word in memory, which
//! reports the `RunError::BadInstruction` fault. Nothing dynamic is
//! decided here — every hazard guard is still evaluated each cycle by
//! the executor against live machine state, and control-flow targets are
//! computed by the executor from the instruction, so translation can
//! never change architectural results or cycle accounting.

use mt_isa::cost::InstrCost;
use mt_isa::{Instr, Program};

/// One micro-op: a decoded instruction and its cost row.
#[derive(Debug, Clone, Copy)]
pub struct Uop {
    /// The decoded instruction.
    pub instr: Instr,
    /// The instruction's static issue-cost/hazard metadata, precomputed
    /// once at translation instead of per execute attempt.
    pub cost: InstrCost,
}

/// A program's text section decoded to micro-ops, indexed by PC.
///
/// This is the table the simulator's fetch reads: `uop(pc)` is its one
/// lookup, and the fetch stops reading it once the memory system
/// reports a write into the watched text range.
#[derive(Debug, Clone)]
pub struct TranslatedProgram {
    base: u32,
    uops: Vec<Option<Uop>>,
}

impl TranslatedProgram {
    /// Decodes every word of `program`'s text section.
    pub fn translate(program: &Program) -> TranslatedProgram {
        let uops = program
            .words
            .iter()
            .map(|&word| {
                let instr = Instr::decode(word).ok()?;
                Some(Uop {
                    instr,
                    cost: InstrCost::of(&instr),
                })
            })
            .collect();
        TranslatedProgram {
            base: program.base,
            uops,
        }
    }

    /// The micro-op at byte address `pc`, or `None` when `pc` is
    /// misaligned, outside the translated text, or an undecodable word
    /// — all cases the fetch reads and decodes from memory instead.
    #[inline]
    pub fn uop(&self, pc: u32) -> Option<&Uop> {
        let off = pc.wrapping_sub(self.base);
        if off & 3 != 0 {
            return None;
        }
        self.uops.get((off / 4) as usize)?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_isa::{IReg, DEFAULT_TEXT_BASE};

    #[test]
    fn cost_matches_the_shared_table() {
        let program = Program::assemble(&[
            Instr::Lw {
                rd: IReg::new(3),
                base: IReg::new(1),
                offset: 8,
            },
            Instr::Halt,
        ])
        .unwrap();
        let t = TranslatedProgram::translate(&program);
        let u = t.uop(DEFAULT_TEXT_BASE).unwrap();
        assert_eq!(u.cost, InstrCost::of(&u.instr));
        assert_eq!(u.cost.int_load_dest, Some(IReg::new(3)));
    }

    #[test]
    fn misaligned_out_of_range_and_undecodable_pcs_miss() {
        let raw = Program {
            base: DEFAULT_TEXT_BASE,
            words: vec![
                Instr::Nop.encode().unwrap(),
                7, // SYS with funct 7: does not decode
            ],
            segments: Vec::new(),
        };
        let t = TranslatedProgram::translate(&raw);
        assert!(t.uop(DEFAULT_TEXT_BASE).is_some());
        assert!(t.uop(DEFAULT_TEXT_BASE + 1).is_none(), "misaligned");
        assert!(t.uop(DEFAULT_TEXT_BASE + 4).is_none(), "undecodable");
        assert!(t.uop(DEFAULT_TEXT_BASE + 8).is_none(), "past text");
        assert!(t.uop(0).is_none(), "before text");
    }
}
