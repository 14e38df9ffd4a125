//! The programmatic assembler: emit instructions, bind labels, assemble.

use mt_fparith::div::{DivOperand, DIV_DATAFLOW};
use mt_fparith::FpOp;
use mt_isa::cpu::{AluOp, BranchCond};
use mt_isa::{FReg, FpuAluInstr, IReg, Instr};
use mt_sim::Program;

use crate::error::AsmError;
use crate::span::SourceSpan;

/// A label handle; create with [`Asm::label`], place with [`Asm::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum Item {
    Fixed(Instr),
    Branch {
        cond: BranchCond,
        rs1: IReg,
        rs2: IReg,
        target: Label,
    },
    Jump {
        target: Label,
        link: bool,
    },
}

/// The program builder.
///
/// Instructions are appended in order; control flow references [`Label`]s,
/// which are resolved to offsets/addresses at [`Asm::assemble`] time. Every
/// emitter that can fail validates eagerly so errors carry context.
#[derive(Debug, Default)]
pub struct Asm {
    items: Vec<Item>,
    labels: Vec<Option<usize>>,
    /// Source span applied to items as they are pushed (parallel to
    /// `items`); `None` entries for programmatically built instructions.
    spans: Vec<Option<SourceSpan>>,
    current_span: Option<SourceSpan>,
}

impl Asm {
    /// Creates an empty builder.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Creates an unbound label (bind it later with [`Asm::bind`]).
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(!self.is_bound(label), "label bound twice");
        self.labels[label.0] = Some(self.items.len());
    }

    /// Whether `label` has been bound.
    pub fn is_bound(&self, label: Label) -> bool {
        self.labels[label.0].is_some()
    }

    /// Creates a label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Number of instruction words emitted so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether execution can reach the current (end) position: `false`
    /// after `halt`, `jr`, and unconditional (non-linking) jumps, `true`
    /// otherwise (including when nothing has been emitted) — and always
    /// `true` while a label is bound right here, since a branch or jump
    /// elsewhere targets whatever gets emitted next. Lets callers append
    /// a trailing safety `halt` only when it is actually reachable.
    pub fn falls_through(&self) -> bool {
        if self.labels.contains(&Some(self.items.len())) {
            return true;
        }
        !matches!(
            self.items.last(),
            Some(Item::Fixed(
                Instr::Halt | Instr::Jr { .. } | Instr::Jump { .. }
            )) | Some(Item::Jump { link: false, .. })
        )
    }

    fn push(&mut self, item: Item) {
        self.items.push(item);
        self.spans.push(self.current_span);
    }

    /// Sets the source span recorded for subsequently emitted items
    /// (`None` to clear). The text assembler calls this per source line;
    /// pseudo-instructions expanding to several items share the span.
    pub fn set_span(&mut self, span: Option<SourceSpan>) -> &mut Asm {
        self.current_span = span;
        self
    }

    /// Appends a raw instruction.
    pub fn instr(&mut self, i: Instr) -> &mut Asm {
        self.push(Item::Fixed(i));
        self
    }

    /// `nop`
    pub fn nop(&mut self) -> &mut Asm {
        self.instr(Instr::Nop)
    }

    /// `halt`
    pub fn halt(&mut self) -> &mut Asm {
        self.instr(Instr::Halt)
    }

    /// Integer register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, rd: IReg, rs1: IReg, rs2: IReg) -> &mut Asm {
        self.instr(Instr::Alu { op, rd, rs1, rs2 })
    }

    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: IReg, rs1: IReg, imm: i32) -> &mut Asm {
        self.instr(Instr::Addi { rd, rs1, imm })
    }

    /// Load immediate pseudo-instruction: one `addi` when the value fits 18
    /// signed bits, otherwise `lui` + `addi` (two words).
    pub fn li(&mut self, rd: IReg, value: i32) -> &mut Asm {
        if (-(1 << 17)..(1 << 17)).contains(&value) {
            self.addi(rd, IReg::ZERO, value)
        } else {
            let hi = (value as u32) >> 14;
            let lo = (value as u32) & 0x3FFF;
            self.instr(Instr::Lui { rd, imm: hi });
            self.addi(rd, rd, lo as i32)
        }
    }

    /// `lw rd, offset(base)`
    pub fn lw(&mut self, rd: IReg, base: IReg, offset: i32) -> &mut Asm {
        self.instr(Instr::Lw { rd, base, offset })
    }

    /// `sw rs, offset(base)`
    pub fn sw(&mut self, rs: IReg, base: IReg, offset: i32) -> &mut Asm {
        self.instr(Instr::Sw { rs, base, offset })
    }

    /// `fld FR, offset(base)` — FPU register load.
    pub fn fld(&mut self, fr: FReg, base: IReg, offset: i32) -> &mut Asm {
        self.instr(Instr::Fld { fr, base, offset })
    }

    /// `fst FR, offset(base)` — FPU register store.
    pub fn fst(&mut self, fr: FReg, base: IReg, offset: i32) -> &mut Asm {
        self.instr(Instr::Fst { fr, base, offset })
    }

    /// Any FPU ALU instruction.
    pub fn falu(&mut self, i: FpuAluInstr) -> &mut Asm {
        self.instr(Instr::Falu(i))
    }

    /// Scalar FPU operation `op Rr, Ra, Rb` (vector length one).
    pub fn fscalar(&mut self, op: FpOp, rr: FReg, ra: FReg, rb: FReg) -> &mut Asm {
        self.falu(FpuAluInstr::scalar(op, rr, ra, rb))
    }

    /// Vector FPU operation with both sources striding.
    ///
    /// # Errors
    ///
    /// Propagates register-run/length validation errors.
    pub fn fvector(
        &mut self,
        op: FpOp,
        rr: FReg,
        ra: FReg,
        rb: FReg,
        vl: u8,
    ) -> Result<&mut Asm, AsmError> {
        let i =
            FpuAluInstr::vector(op, rr, ra, rb, vl).map_err(|e| AsmError::new(e.to_string()))?;
        Ok(self.falu(i))
    }

    /// Vector–scalar FPU operation: `Ra` strides, `Rb` broadcasts.
    ///
    /// # Errors
    ///
    /// Propagates register-run/length validation errors.
    pub fn fvector_scalar(
        &mut self,
        op: FpOp,
        rr: FReg,
        ra: FReg,
        rb: FReg,
        vl: u8,
    ) -> Result<&mut Asm, AsmError> {
        let i = FpuAluInstr::vector_scalar(op, rr, ra, rb, vl)
            .map_err(|e| AsmError::new(e.to_string()))?;
        Ok(self.falu(i))
    }

    /// Fully general FPU vector operation (explicit stride bits).
    ///
    /// # Errors
    ///
    /// Propagates register-run/length validation errors.
    #[allow(clippy::too_many_arguments)] // mirrors the instruction fields
    pub fn fvector_general(
        &mut self,
        op: FpOp,
        rr: FReg,
        ra: FReg,
        rb: FReg,
        vl: u8,
        sra: bool,
        srb: bool,
    ) -> Result<&mut Asm, AsmError> {
        let i = FpuAluInstr::new(op, rr, ra, rb, vl, sra, srb)
            .map_err(|e| AsmError::new(e.to_string()))?;
        Ok(self.falu(i))
    }

    /// The `fdiv` macro: expands to the six-operation Newton–Raphson
    /// division sequence of [`DIV_DATAFLOW`], computing `rr = ra / rb`
    /// using `t0`/`t1` as scratch registers.
    ///
    /// # Errors
    ///
    /// Rejects scratch registers aliasing the operands.
    pub fn fdiv(
        &mut self,
        rr: FReg,
        ra: FReg,
        rb: FReg,
        t0: FReg,
        t1: FReg,
    ) -> Result<&mut Asm, AsmError> {
        if t0 == t1 || [ra, rb].contains(&t0) || [ra, rb].contains(&t1) {
            return Err(AsmError::new(format!(
                "fdiv scratch registers {t0}/{t1} must not alias the operands"
            )));
        }
        let resolve = |o: DivOperand| match o {
            DivOperand::Dividend => ra,
            DivOperand::Divisor => rb,
            DivOperand::ScratchR => t0,
            DivOperand::ScratchC => t1,
            DivOperand::Dest => rr,
            DivOperand::Unused => FReg::new(0),
        };
        for step in DIV_DATAFLOW {
            self.fscalar(
                step.op,
                resolve(step.dst),
                resolve(step.src_a),
                resolve(step.src_b),
            );
        }
        Ok(self)
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: BranchCond, rs1: IReg, rs2: IReg, target: Label) -> &mut Asm {
        self.push(Item::Branch {
            cond,
            rs1,
            rs2,
            target,
        });
        self
    }

    /// `beq rs1, rs2, target`
    pub fn beq(&mut self, rs1: IReg, rs2: IReg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Eq, rs1, rs2, target)
    }

    /// `bne rs1, rs2, target`
    pub fn bne(&mut self, rs1: IReg, rs2: IReg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Ne, rs1, rs2, target)
    }

    /// `blt rs1, rs2, target`
    pub fn blt(&mut self, rs1: IReg, rs2: IReg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Lt, rs1, rs2, target)
    }

    /// `bge rs1, rs2, target`
    pub fn bge(&mut self, rs1: IReg, rs2: IReg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Ge, rs1, rs2, target)
    }

    /// Unconditional jump to a label.
    pub fn j(&mut self, target: Label) -> &mut Asm {
        self.push(Item::Jump {
            target,
            link: false,
        });
        self
    }

    /// Jump-and-link (call) to a label.
    pub fn jal(&mut self, target: Label) -> &mut Asm {
        self.push(Item::Jump { target, link: true });
        self
    }

    /// `jr rs` — return / indirect jump.
    pub fn jr(&mut self, rs: IReg) -> &mut Asm {
        self.instr(Instr::Jr { rs })
    }

    /// Resolves labels and encodes the program at `base`.
    ///
    /// # Errors
    ///
    /// Reports unbound labels, out-of-range branch offsets, and instruction
    /// encoding failures.
    pub fn assemble(self, base: u32) -> Result<Program, AsmError> {
        Ok(self.assemble_with_spans(base)?.0)
    }

    /// Like [`Asm::assemble`], also returning the per-word source spans
    /// recorded via [`Asm::set_span`] (one entry per instruction word).
    ///
    /// # Errors
    ///
    /// See [`Asm::assemble`].
    pub fn assemble_with_spans(
        self,
        base: u32,
    ) -> Result<(Program, Vec<Option<SourceSpan>>), AsmError> {
        let resolve = |l: Label| -> Result<usize, AsmError> {
            self.labels[l.0].ok_or_else(|| AsmError::new(format!("unbound label #{}", l.0)))
        };
        let mut instrs = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let instr = match *item {
                Item::Fixed(i) => i,
                Item::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let t = resolve(target)? as i64;
                    let offset = t - (idx as i64 + 1);
                    Instr::Branch {
                        cond,
                        rs1,
                        rs2,
                        offset: i32::try_from(offset).map_err(|_| {
                            AsmError::new(format!("branch offset {offset} out of range"))
                        })?,
                    }
                }
                Item::Jump { target, link } => {
                    let t = resolve(target)? as u32 + base / 4;
                    if link {
                        Instr::Jal { target: t }
                    } else {
                        Instr::Jump { target: t }
                    }
                }
            };
            instrs.push(instr);
        }
        let program =
            Program::assemble_at(&instrs, base).map_err(|e| AsmError::new(e.to_string()))?;
        Ok((program, self.spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_sim::{Machine, SimConfig};

    fn fr(i: u8) -> FReg {
        FReg::new(i)
    }

    fn ireg(i: u8) -> IReg {
        IReg::new(i)
    }

    fn run(program: &Program) -> Machine {
        let mut m = Machine::new(SimConfig::default());
        m.load_program(program);
        m.warm_instructions(program);
        m.run().expect("program halts");
        m
    }

    #[test]
    fn straight_line_program() {
        let mut a = Asm::new();
        a.li(ireg(1), 0x2000);
        a.fld(fr(0), ireg(1), 0);
        a.fld(fr(1), ireg(1), 8);
        a.fscalar(FpOp::Add, fr(2), fr(0), fr(1));
        a.fst(fr(2), ireg(1), 16);
        a.halt();
        let p = a.assemble(0x1_0000).unwrap();

        let mut m = Machine::new(SimConfig::default());
        m.load_program(&p);
        m.mem.memory.write_f64(0x2000, 1.5);
        m.mem.memory.write_f64(0x2008, 2.25);
        m.run().unwrap();
        assert_eq!(m.mem.memory.read_f64(0x2010), 3.75);
    }

    #[test]
    fn li_selects_narrow_and_wide_forms() {
        let mut a = Asm::new();
        a.li(ireg(1), 100);
        assert_eq!(a.len(), 1);
        a.li(ireg(2), 0x123456);
        assert_eq!(a.len(), 3, "wide li is lui+addi");
        a.li(ireg(3), -5);
        a.li(ireg(4), i32::MIN);
        a.li(ireg(5), i32::MAX);
        a.halt();
        let m = run(&a.assemble(0x1_0000).unwrap());
        assert_eq!(m.ireg(ireg(1)), 100);
        assert_eq!(m.ireg(ireg(2)), 0x123456);
        assert_eq!(m.ireg(ireg(3)), -5);
        assert_eq!(m.ireg(ireg(4)), i32::MIN);
        assert_eq!(m.ireg(ireg(5)), i32::MAX);
    }

    #[test]
    fn backward_branch_loop() {
        let mut a = Asm::new();
        a.li(ireg(1), 0); // counter
        a.li(ireg(2), 5); // limit
        let top = a.here();
        a.addi(ireg(1), ireg(1), 1);
        a.blt(ireg(1), ireg(2), top);
        a.halt();
        let m = run(&a.assemble(0x1_0000).unwrap());
        assert_eq!(m.ireg(ireg(1)), 5);
    }

    #[test]
    fn forward_branch_skips() {
        let mut a = Asm::new();
        let skip = a.label();
        a.li(ireg(1), 1);
        a.beq(ireg(0), ireg(0), skip);
        a.li(ireg(1), 99); // skipped
        a.bind(skip);
        a.halt();
        let m = run(&a.assemble(0x1_0000).unwrap());
        assert_eq!(m.ireg(ireg(1)), 1);
    }

    #[test]
    fn jump_and_call() {
        let mut a = Asm::new();
        let sub = a.label();
        let done = a.label();
        a.jal(sub);
        a.addi(ireg(2), ireg(1), 1);
        a.j(done);
        a.bind(sub);
        a.li(ireg(1), 41);
        a.jr(ireg(31));
        a.bind(done);
        a.halt();
        let m = run(&a.assemble(0x1_0000).unwrap());
        assert_eq!(m.ireg(ireg(2)), 42);
    }

    #[test]
    fn fdiv_macro_divides() {
        let mut a = Asm::new();
        a.fdiv(fr(2), fr(0), fr(1), fr(48), fr(49)).unwrap();
        a.halt();
        assert_eq!(a.len(), 7, "six operations + halt");
        let p = a.assemble(0x1_0000).unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&p);
        m.warm_instructions(&p);
        m.fpu.regs_mut().write_f64(fr(0), 21.0);
        m.fpu.regs_mut().write_f64(fr(1), 4.0);
        m.run().unwrap();
        assert_eq!(m.fpu.regs().read_f64(fr(2)), 5.25);
    }

    #[test]
    fn fdiv_rejects_aliased_scratch() {
        let mut a = Asm::new();
        assert!(a.fdiv(fr(2), fr(0), fr(1), fr(1), fr(49)).is_err());
        assert!(a.fdiv(fr(2), fr(0), fr(1), fr(48), fr(48)).is_err());
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.label();
        a.j(l);
        a.halt();
        let err = a.assemble(0x1_0000).unwrap_err();
        assert!(err.message.contains("unbound label"));
    }

    #[test]
    fn vector_emitters_validate() {
        let mut a = Asm::new();
        assert!(a.fvector(FpOp::Add, fr(48), fr(0), fr(8), 8).is_err());
        assert!(a.fvector(FpOp::Add, fr(16), fr(0), fr(8), 8).is_ok());
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }
}
