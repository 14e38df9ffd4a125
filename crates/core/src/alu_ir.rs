//! The ALU instruction register and vector re-issue engine (§2.1.1).
//!
//! Vector instructions are issued "by merely incrementing register fields in
//! the instruction register and issuing the resulting instructions with the
//! same mechanism used for scalar operations". This module is that
//! mechanism: the IR holds the current (remaining) instruction; after each
//! element issues, the vector-length field is decremented and the register
//! specifiers incremented (Rr always; Ra/Rb when their stride bit is set).
//! When the length reaches zero the instruction is cleared from the IR.
//!
//! While a vector is issuing, the IR is occupied and the CPU cannot transfer
//! another FPU ALU instruction — but it remains free to issue loads, stores,
//! and its own instructions, which is the source of the 2-ops/cycle overlap.

use mt_isa::fpu::ElementRefs;
use mt_isa::FpuAluInstr;

/// The instruction currently occupying the ALU IR, with re-issue state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveVector {
    /// The original instruction as transferred.
    pub instr: FpuAluInstr,
    /// Index of the next element to issue (0-based).
    pub next_element: u8,
    /// Identifier tying issued elements back to this instruction (used by
    /// the overflow-abort squash).
    pub id: u64,
    /// Registers of the next element, precomputed at load/advance — this
    /// is the "incremented register fields" the IR literally holds, and
    /// the issue stage and hazard checks read it several times per cycle.
    refs: ElementRefs,
}

impl ActiveVector {
    /// Registers of the next element to issue.
    #[inline]
    pub fn current_refs(&self) -> ElementRefs {
        self.refs
    }

    /// Elements not yet issued (including the current one).
    pub fn remaining(&self) -> u8 {
        self.instr.vl - self.next_element
    }
}

/// The FPU ALU instruction register.
#[derive(Debug, Clone, Default)]
pub struct AluIr {
    active: Option<ActiveVector>,
    next_id: u64,
}

impl AluIr {
    /// Creates an empty IR.
    pub fn new() -> AluIr {
        AluIr::default()
    }

    /// Returns `true` while an instruction occupies the IR (the CPU must
    /// stall any new FPU ALU transfer).
    #[inline]
    pub fn occupied(&self) -> bool {
        self.active.is_some()
    }

    /// The instruction currently in the IR, if any.
    #[inline]
    pub fn active(&self) -> Option<&ActiveVector> {
        self.active.as_ref()
    }

    /// Loads a newly transferred instruction under the next id.
    ///
    /// # Panics
    ///
    /// Panics if the IR is occupied — callers must check [`AluIr::occupied`]
    /// (the transfer handshake does in hardware).
    pub fn load(&mut self, instr: FpuAluInstr) {
        assert!(!self.occupied(), "ALU IR transfer while occupied");
        let id = self.next_id;
        self.next_id += 1;
        self.active = Some(ActiveVector {
            instr,
            next_element: 0,
            id,
            // Element 0 reads the specifiers as transferred.
            refs: ElementRefs {
                rr: instr.rr,
                ra: instr.ra,
                rb: instr.rb,
            },
        });
    }

    /// Advances past the just-issued element: decrements the length field
    /// and increments the specifiers, clearing the IR when the vector is
    /// exhausted. Returns the element index that was issued.
    ///
    /// # Panics
    ///
    /// Panics if the IR is empty.
    #[inline]
    pub fn advance(&mut self) -> u8 {
        let a = self.active.as_mut().expect("advance on empty ALU IR");
        let issued = a.next_element;
        a.next_element += 1;
        if a.next_element == a.instr.vl {
            self.active = None;
        } else {
            a.refs = a.instr.element(a.next_element);
        }
        issued
    }

    /// Advances the id counter past `n` transfers that happened without
    /// passing through the IR (a replayed loop iteration's).
    pub fn skip_ids(&mut self, n: u64) {
        self.next_id += n;
    }

    /// Puts the latest transfer back in the IR with `next` the next
    /// element to issue, or empties the IR (`None`): the state a replayed
    /// loop iteration ends in.
    pub fn resume(&mut self, state: Option<(FpuAluInstr, u8)>) {
        self.active = state.map(|(instr, next)| ActiveVector {
            instr,
            next_element: next,
            id: self.next_id - 1,
            refs: instr.element(next),
        });
    }

    /// Clears the IR (overflow abort discards remaining elements).
    pub fn squash(&mut self) {
        self.active = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_fparith::FpOp;
    use mt_isa::FReg;

    fn r(i: u8) -> FReg {
        FReg::new(i)
    }

    #[test]
    fn scalar_occupies_for_one_element() {
        let mut ir = AluIr::new();
        assert!(!ir.occupied());
        ir.load(FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1)));
        assert!(ir.occupied());
        assert_eq!(ir.advance(), 0);
        assert!(!ir.occupied(), "cleared after the single element");
    }

    #[test]
    fn vector_specifier_walk() {
        let mut ir = AluIr::new();
        // Fibonacci: R2 := R1 + R0, VL 4, both sources striding.
        ir.load(FpuAluInstr::vector(FpOp::Add, r(2), r(1), r(0), 4).unwrap());
        let mut seen = Vec::new();
        while ir.occupied() {
            let refs = ir.active().unwrap().current_refs();
            seen.push((refs.rr.index(), refs.ra.index(), refs.rb.index()));
            ir.advance();
        }
        assert_eq!(seen, vec![(2, 1, 0), (3, 2, 1), (4, 3, 2), (5, 4, 3)]);
    }

    #[test]
    fn scalar_source_does_not_increment() {
        let mut ir = AluIr::new();
        // R16..R19 := R0..R3 * R32 (Fig. 13 shape): Rb scalar.
        ir.load(FpuAluInstr::vector_scalar(FpOp::Mul, r(16), r(0), r(32), 4).unwrap());
        let mut rbs = Vec::new();
        while ir.occupied() {
            rbs.push(ir.active().unwrap().current_refs().rb.index());
            ir.advance();
        }
        assert_eq!(rbs, vec![32, 32, 32, 32]);
    }

    #[test]
    fn remaining_counts_down() {
        let mut ir = AluIr::new();
        ir.load(FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 3).unwrap());
        assert_eq!(ir.active().unwrap().remaining(), 3);
        ir.advance();
        assert_eq!(ir.active().unwrap().remaining(), 2);
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut ir = AluIr::new();
        ir.load(FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1)));
        let a = ir.active().unwrap().id;
        ir.advance();
        ir.load(FpuAluInstr::scalar(FpOp::Add, r(3), r(0), r(1)));
        let b = ir.active().unwrap().id;
        assert!(b > a);
    }

    #[test]
    fn squash_discards_remaining_elements() {
        let mut ir = AluIr::new();
        ir.load(FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 4).unwrap());
        ir.advance();
        ir.squash();
        assert!(!ir.occupied());
    }

    #[test]
    #[should_panic(expected = "while occupied")]
    fn transfer_while_occupied_panics() {
        let mut ir = AluIr::new();
        ir.load(FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 2).unwrap());
        ir.load(FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1)));
    }
}
