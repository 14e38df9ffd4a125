//! The Mahler routine builder and its compilation to machine code.

use std::fmt;

use mt_asm::Asm;
use mt_fparith::FpOp;
use mt_isa::cpu::{AluOp, BranchCond};
use mt_isa::{FReg, IReg, NUM_FPU_REGS};
use mt_sim::{Machine, Program};

/// Base address of the constant pool the compiled routine expects.
pub const CONST_POOL_BASE: u32 = 0xF000;

/// Default text base for compiled routines.
pub const TEXT_BASE: u32 = 0x1_0000;

/// A vector variable: a run of consecutive FPU registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vect {
    first: FReg,
    len: u8,
}

impl Vect {
    /// First register of the run.
    pub fn first(&self) -> FReg {
        self.first
    }

    /// Element count.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Always at least one element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A sub-vector (the paper: "any consecutive subsection of this vector
    /// can be used in a vector operation, provided that the offset and size
    /// of the subset is fixed at compile time").
    ///
    /// # Panics
    ///
    /// Panics if the subsection exceeds the variable.
    pub fn slice(&self, offset: u8, len: u8) -> Vect {
        assert!(
            offset + len <= self.len && len >= 1,
            "subsection {offset}+{len} exceeds vector of length {}",
            self.len
        );
        Vect {
            first: FReg::new(self.first.index() + offset),
            len,
        }
    }

    /// Element `i` as a scalar — unified vector/scalar addressing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn element(&self, i: u8) -> Scal {
        assert!(i < self.len);
        Scal {
            reg: FReg::new(self.first.index() + i),
        }
    }
}

/// A scalar floating-point variable (one FPU register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scal {
    reg: FReg,
}

impl Scal {
    /// The register holding the scalar.
    pub fn reg(&self) -> FReg {
        self.reg
    }
}

/// An integer variable (one CPU register) for addresses and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IVar {
    reg: IReg,
}

impl IVar {
    /// The register holding the variable.
    pub fn reg(&self) -> IReg {
        self.reg
    }
}

/// Compile-time errors: the register files are per-procedure resources and
/// exhausting them is an error, exactly as in the paper ("if the total
/// amount of space needed for the declared vectors and temporaries was too
/// large, a compile error was raised").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MahlerError {
    /// No run of FPU registers long enough remains.
    OutOfFpuRegisters {
        /// Registers requested.
        requested: u8,
        /// Registers remaining.
        available: u8,
    },
    /// No CPU register remains.
    OutOfIntRegisters,
    /// Elementwise operation on vectors of different lengths.
    LengthMismatch {
        /// Destination length.
        dst: u8,
        /// Offending source length.
        src: u8,
    },
    /// Vector length above the machine maximum of 16.
    TooLong(u8),
    /// Assembly-level failure.
    Asm(String),
}

impl fmt::Display for MahlerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MahlerError::OutOfFpuRegisters {
                requested,
                available,
            } => write!(
                f,
                "out of FPU registers: requested {requested}, {available} available"
            ),
            MahlerError::OutOfIntRegisters => write!(f, "out of integer registers"),
            MahlerError::LengthMismatch { dst, src } => {
                write!(f, "vector length mismatch: destination {dst}, source {src}")
            }
            MahlerError::TooLong(l) => write!(f, "vector length {l} exceeds the maximum of 16"),
            MahlerError::Asm(m) => write!(f, "assembly: {m}"),
        }
    }
}

impl std::error::Error for MahlerError {}

/// A compiled routine: the program text plus the constant pool it expects
/// in memory.
#[derive(Debug, Clone)]
pub struct CompiledRoutine {
    /// The encoded program.
    pub program: Program,
    /// `(address, bits)` pairs of the floating-point constant pool.
    pub consts: Vec<(u32, u64)>,
}

impl CompiledRoutine {
    /// Loads the program and writes the constant pool into a machine.
    pub fn install(&self, m: &mut Machine) {
        m.load_program(&self.program);
        for &(addr, bits) in &self.consts {
            m.mem.memory.write_u64(addr, bits);
        }
    }
}

/// Registers a still-issuing vector instruction may touch, as a bitmask
/// over the 52 FPU registers.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// First destination register and length, for the in-order-store fast
    /// path.
    dst_first: u8,
    dst_len: u8,
    /// Destination registers (a store may not read them, a load may not
    /// write them, before the vector finishes issuing).
    dst_mask: u64,
    /// Destinations plus source registers (a load may not clobber a source
    /// a yet-unissued element will read).
    full_mask: u64,
}

/// The routine builder.
#[derive(Debug)]
pub struct Mahler {
    asm: Asm,
    next_freg: u8,
    next_ireg: u8,
    consts: Vec<(u32, u64)>,
    /// Scratch registers for `fdiv`, allocated lazily.
    div_scratch: Option<(FReg, FReg)>,
    const_base_reg: Option<IReg>,
    /// §2.3.2 bookkeeping: the compiler must not let a load/store slip past
    /// unissued elements of a vector instruction it depends on.
    pending: Option<Pending>,
    /// Sink register for drain operations, allocated lazily.
    sink: Option<FReg>,
    /// Temporary for compares/conversions, allocated lazily.
    cmp_tmp: Option<FReg>,
    /// Whether r24 has been pointed at the scratch area yet.
    scratch_init: bool,
}

impl Default for Mahler {
    fn default() -> Mahler {
        Mahler::new()
    }
}

impl Mahler {
    /// Creates an empty routine.
    pub fn new() -> Mahler {
        Mahler {
            asm: Asm::new(),
            next_freg: 0,
            // r0 is the zero register; r25..r31 reserved for the compiler
            // (constant-pool base, loop limits, link register).
            next_ireg: 1,
            consts: Vec::new(),
            div_scratch: None,
            const_base_reg: None,
            pending: None,
            sink: None,
            cmp_tmp: None,
            scratch_init: false,
        }
    }

    fn range_mask(first: u8, len: u8) -> u64 {
        (((1u128 << len) - 1) << first) as u64
    }

    /// Records a just-emitted vector instruction's register footprint so a
    /// following load/store can be fenced (§2.3.2: "the compiler must break
    /// the vector … so that the normal scalar interlocks are effective").
    fn note_vector(&mut self, dst: Vect, srcs: &[Vect]) {
        if dst.len < 2 {
            // The hardware interlocks loads/stores against the current
            // element, which covers scalar (length-1) operations entirely.
            return;
        }
        let dst_mask = Self::range_mask(dst.first.index(), dst.len);
        let mut full_mask = dst_mask;
        for s in srcs {
            full_mask |= Self::range_mask(s.first.index(), s.len);
        }
        self.pending = Some(Pending {
            dst_first: dst.first.index(),
            dst_len: dst.len,
            dst_mask,
            full_mask,
        });
    }

    /// Fences before a load/store touching register `regs` if a pending
    /// vector could still be issuing elements that reference them. The
    /// fence is one FPU ALU no-op: its transfer cannot complete until the
    /// ALU IR has issued every element of the pending vector.
    fn fence_for(&mut self, mask: u64) -> Result<(), MahlerError> {
        let Some(p) = self.pending else { return Ok(()) };
        if p.full_mask & mask == 0 {
            return Ok(());
        }
        let sink = match self.sink {
            Some(s) => s,
            None => {
                let s = self.alloc_fregs(1)?;
                self.sink = Some(s);
                s
            }
        };
        self.asm.fscalar(FpOp::Add, sink, sink, sink);
        self.pending = None;
        Ok(())
    }

    /// Store variant of [`Mahler::fence_for`]: a store only conflicts with
    /// pending *destinations* (reading a source register is harmless).
    fn fence_for_store(&mut self, mask: u64) -> Result<(), MahlerError> {
        match self.pending {
            Some(p) if p.dst_mask & mask != 0 => self.fence_for(u64::MAX),
            _ => Ok(()),
        }
    }

    /// Registers still unallocated in the FPU file.
    pub fn fpu_registers_left(&self) -> u8 {
        NUM_FPU_REGS - self.next_freg
    }

    /// Allocates a vector variable of `len` consecutive registers.
    ///
    /// # Errors
    ///
    /// [`MahlerError::TooLong`] above 16 elements (the machine's maximum
    /// vector length); [`MahlerError::OutOfFpuRegisters`] when the file is
    /// exhausted — the paper's compile error.
    pub fn vector(&mut self, len: u8) -> Result<Vect, MahlerError> {
        if len == 0 || len > 16 {
            return Err(MahlerError::TooLong(len));
        }
        let first = self.alloc_fregs(len)?;
        Ok(Vect { first, len })
    }

    /// Allocates a scalar variable.
    ///
    /// # Errors
    ///
    /// [`MahlerError::OutOfFpuRegisters`] when the file is exhausted.
    pub fn scalar(&mut self) -> Result<Scal, MahlerError> {
        Ok(Scal {
            reg: self.alloc_fregs(1)?,
        })
    }

    /// Allocates an integer variable.
    ///
    /// # Errors
    ///
    /// [`MahlerError::OutOfIntRegisters`] when registers run out.
    pub fn ivar(&mut self) -> Result<IVar, MahlerError> {
        if self.next_ireg >= 25 {
            return Err(MahlerError::OutOfIntRegisters);
        }
        let reg = IReg::new(self.next_ireg);
        self.next_ireg += 1;
        Ok(IVar { reg })
    }

    fn alloc_fregs(&mut self, len: u8) -> Result<FReg, MahlerError> {
        if self.next_freg + len > NUM_FPU_REGS {
            return Err(MahlerError::OutOfFpuRegisters {
                requested: len,
                available: NUM_FPU_REGS - self.next_freg,
            });
        }
        let first = FReg::new(self.next_freg);
        self.next_freg += len;
        Ok(first)
    }

    /// Sets an integer variable to a constant.
    pub fn set_i(&mut self, v: IVar, value: i32) {
        self.asm.li(v.reg, value);
    }

    /// `dst = a op b` on integer variables.
    pub fn iop(&mut self, op: AluOp, dst: IVar, a: IVar, b: IVar) {
        self.asm.alu(op, dst.reg, a.reg, b.reg);
    }

    /// `dst = a + imm` on an integer variable.
    pub fn iadd_imm(&mut self, dst: IVar, a: IVar, imm: i32) {
        self.asm.addi(dst.reg, a.reg, imm);
    }

    /// Loads a floating-point constant into a scalar (constant-pool load).
    ///
    /// # Errors
    ///
    /// Register exhaustion while fencing a pending vector.
    pub fn load_const(&mut self, dst: Scal, value: f64) -> Result<(), MahlerError> {
        self.fence_for(Self::range_mask(dst.reg.index(), 1))?;
        let base = self.const_base();
        // Reuse an existing pool slot for an identical bit pattern.
        let bits = value.to_bits();
        let offset = match self.consts.iter().position(|&(_, b)| b == bits) {
            Some(i) => i,
            None => {
                self.consts
                    .push((CONST_POOL_BASE + 8 * self.consts.len() as u32, bits));
                self.consts.len() - 1
            }
        };
        self.asm.fld(dst.reg, base, 8 * offset as i32);
        Ok(())
    }

    fn const_base(&mut self) -> IReg {
        match self.const_base_reg {
            Some(r) => r,
            None => {
                let r = IReg::new(25);
                // Materialize the pool base once, at first use.
                self.asm.li(r, CONST_POOL_BASE as i32);
                self.const_base_reg = Some(r);
                r
            }
        }
    }

    /// Loads a memory vector: `len` scalar loads with the stride folded
    /// into the offsets (Fig. 9), starting at `byte_offset(base)`.
    ///
    /// # Errors
    ///
    /// Register exhaustion while fencing a pending vector.
    pub fn load(
        &mut self,
        dst: Vect,
        base: IVar,
        byte_offset: i32,
        stride_bytes: i32,
    ) -> Result<(), MahlerError> {
        self.fence_for(Self::range_mask(dst.first.index(), dst.len))?;
        for i in 0..dst.len {
            self.asm.fld(
                FReg::new(dst.first.index() + i),
                base.reg,
                byte_offset + i as i32 * stride_bytes,
            );
        }
        Ok(())
    }

    /// Stores a memory vector (series of scalar stores).
    ///
    /// Storing exactly the destination of the immediately preceding vector
    /// operation needs no fence: element-order stores interlock with the
    /// issuing elements, the paper's sanctioned overlap pattern.
    ///
    /// # Errors
    ///
    /// Register exhaustion while fencing a pending vector.
    pub fn store(
        &mut self,
        src: Vect,
        base: IVar,
        byte_offset: i32,
        stride_bytes: i32,
    ) -> Result<(), MahlerError> {
        let in_order_of_pending = matches!(
            self.pending,
            Some(p) if p.dst_first == src.first.index() && p.dst_len == src.len
        );
        if in_order_of_pending {
            self.pending = None;
        } else {
            self.fence_for_store(Self::range_mask(src.first.index(), src.len))?;
        }
        for i in 0..src.len {
            self.asm.fst(
                FReg::new(src.first.index() + i),
                base.reg,
                byte_offset + i as i32 * stride_bytes,
            );
        }
        Ok(())
    }

    /// Loads one scalar from memory.
    ///
    /// # Errors
    ///
    /// Register exhaustion while fencing a pending vector.
    pub fn load_scalar(
        &mut self,
        dst: Scal,
        base: IVar,
        byte_offset: i32,
    ) -> Result<(), MahlerError> {
        self.fence_for(Self::range_mask(dst.reg.index(), 1))?;
        self.asm.fld(dst.reg, base.reg, byte_offset);
        Ok(())
    }

    /// Stores one scalar to memory.
    ///
    /// # Errors
    ///
    /// Register exhaustion while fencing a pending vector.
    pub fn store_scalar(
        &mut self,
        src: Scal,
        base: IVar,
        byte_offset: i32,
    ) -> Result<(), MahlerError> {
        self.fence_for_store(Self::range_mask(src.reg.index(), 1))?;
        self.asm.fst(src.reg, base.reg, byte_offset);
        Ok(())
    }

    /// Elementwise `dst = a op b` between equal-length vectors — one vector
    /// instruction.
    ///
    /// # Errors
    ///
    /// [`MahlerError::LengthMismatch`] when lengths differ.
    pub fn vop(&mut self, op: FpOp, dst: Vect, a: Vect, b: Vect) -> Result<(), MahlerError> {
        if a.len != dst.len {
            return Err(MahlerError::LengthMismatch {
                dst: dst.len,
                src: a.len,
            });
        }
        if b.len != dst.len {
            return Err(MahlerError::LengthMismatch {
                dst: dst.len,
                src: b.len,
            });
        }
        self.asm
            .fvector(op, dst.first, a.first, b.first, dst.len)
            .map_err(|e| MahlerError::Asm(e.message))?;
        self.note_vector(dst, &[a, b]);
        Ok(())
    }

    /// Elementwise `dst = a op s` between a vector and a broadcast scalar.
    ///
    /// # Errors
    ///
    /// [`MahlerError::LengthMismatch`] when lengths differ.
    pub fn vop_scalar(&mut self, op: FpOp, dst: Vect, a: Vect, s: Scal) -> Result<(), MahlerError> {
        if a.len != dst.len {
            return Err(MahlerError::LengthMismatch {
                dst: dst.len,
                src: a.len,
            });
        }
        self.asm
            .fvector_scalar(op, dst.first, a.first, s.reg, dst.len)
            .map_err(|e| MahlerError::Asm(e.message))?;
        self.note_vector(
            dst,
            &[
                a,
                Vect {
                    first: s.reg,
                    len: 1,
                },
            ],
        );
        Ok(())
    }

    /// Scalar `dst = a op b`.
    pub fn sop(&mut self, op: FpOp, dst: Scal, a: Scal, b: Scal) {
        self.asm.fscalar(op, dst.reg, a.reg, b.reg);
    }

    /// Scalar division via the six-operation macro (scratch registers are
    /// allocated once per routine).
    ///
    /// # Errors
    ///
    /// [`MahlerError::OutOfFpuRegisters`] if the scratch pair cannot be
    /// allocated.
    pub fn sdiv(&mut self, dst: Scal, a: Scal, b: Scal) -> Result<(), MahlerError> {
        let (t0, t1) = match self.div_scratch {
            Some(pair) => pair,
            None => {
                let t0 = self.alloc_fregs(1)?;
                let t1 = self.alloc_fregs(1)?;
                self.div_scratch = Some((t0, t1));
                (t0, t1)
            }
        };
        self.asm
            .fdiv(dst.reg, a.reg, b.reg, t0, t1)
            .map_err(|e| MahlerError::Asm(e.message))?;
        Ok(())
    }

    /// Elementwise vector division via the six-operation Newton–Raphson
    /// sequence, each step a vector instruction (`recip` is a functional
    /// unit like any other, so division vectorizes). Needs two caller-
    /// provided scratch vectors of the destination's length.
    ///
    /// # Errors
    ///
    /// Length mismatches among the operands or scratch vectors.
    pub fn vdiv(
        &mut self,
        dst: Vect,
        a: Vect,
        b: Vect,
        t0: Vect,
        t1: Vect,
    ) -> Result<(), MahlerError> {
        for v in [a, b, t0, t1] {
            if v.len != dst.len {
                return Err(MahlerError::LengthMismatch {
                    dst: dst.len,
                    src: v.len,
                });
            }
        }
        // r = recip(b): unary — Ra strides, Rb ignored.
        self.asm
            .fvector_general(
                FpOp::Recip,
                t0.first,
                b.first,
                b.first,
                dst.len,
                true,
                false,
            )
            .map_err(|e| MahlerError::Asm(e.message))?;
        self.note_vector(t0, &[b]);
        self.vop(FpOp::IterStep, t1, b, t0)?;
        self.vop(FpOp::Mul, t0, t0, t1)?;
        self.vop(FpOp::IterStep, t1, b, t0)?;
        self.vop(FpOp::Mul, t0, t0, t1)?;
        self.vop(FpOp::Mul, dst, a, t0)?;
        Ok(())
    }

    /// The §3 summation operator: "performing a vector sum to add its two
    /// halves and then doing the same thing to the resulting smaller
    /// vector, until left with one or two scalar additions." Destroys the
    /// lower half of `v`; the total lands in `dst`.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors (none for valid variables).
    pub fn vsum(&mut self, dst: Scal, v: Vect) -> Result<(), MahlerError> {
        let mut len = v.len;
        let first = v.first.index();
        while len > 1 {
            let half = len / 2;
            if half >= 1 {
                if len == 2 {
                    // Final addition writes the destination directly.
                    self.asm
                        .fscalar(FpOp::Add, dst.reg, FReg::new(first), FReg::new(first + 1));
                    return Ok(());
                }
                self.asm
                    .fvector(
                        FpOp::Add,
                        FReg::new(first),
                        FReg::new(first),
                        FReg::new(first + half),
                        half,
                    )
                    .map_err(|e| MahlerError::Asm(e.message))?;
                self.note_vector(
                    Vect {
                        first: FReg::new(first),
                        len: half,
                    },
                    &[Vect {
                        first: FReg::new(first + half),
                        len: half,
                    }],
                );
            }
            if len % 2 == 1 {
                // Fold the odd element into the first lane.
                self.asm.fscalar(
                    FpOp::Add,
                    FReg::new(first),
                    FReg::new(first),
                    FReg::new(first + len - 1),
                );
            }
            len = half;
        }
        // Single-element vector: copy through the add unit with a zero from
        // the constant pool.
        let zero = self.scalar()?;
        self.load_const(zero, 0.0)?;
        self.asm.fscalar(FpOp::Add, dst.reg, v.first, zero.reg);
        Ok(())
    }

    /// A counted loop: `for (i = start; i < end; i += step) body`.
    ///
    /// The limit is rematerialized in the compiler-reserved register r26 at
    /// the bottom of every iteration, immediately before the branch, so
    /// counted loops nest safely (an inner loop is free to clobber r26).
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn counted_loop(
        &mut self,
        i: IVar,
        start: i32,
        end: i32,
        step: i32,
        body: impl FnOnce(&mut Mahler),
    ) {
        assert!(step > 0, "counted_loop requires a positive step");
        let limit = IReg::new(26);
        self.asm.li(i.reg, start);
        let top = self.asm.here();
        body(self);
        // Fence a vector still pending at the back edge: the next
        // iteration's first loads were emitted without knowledge of it.
        if self.pending.is_some() {
            let _ = self.fence_for(u64::MAX);
        }
        self.asm.addi(i.reg, i.reg, step);
        self.asm.li(limit, end);
        self.asm.branch(BranchCond::Lt, i.reg, limit, top);
    }

    /// Creates an unbound label for hand-rolled control flow.
    pub fn label(&mut self) -> mt_asm::Label {
        self.asm.label()
    }

    /// Binds a label at the current position.
    pub fn bind(&mut self, l: mt_asm::Label) {
        self.asm.bind(l);
    }

    /// Creates a label bound at the current position.
    pub fn here(&mut self) -> mt_asm::Label {
        self.asm.here()
    }

    /// Unconditional jump.
    pub fn jump(&mut self, l: mt_asm::Label) {
        self.asm.j(l);
    }

    /// Integer compare-and-branch between two variables.
    pub fn ibranch(&mut self, cond: BranchCond, a: IVar, b: IVar, target: mt_asm::Label) {
        self.asm.branch(cond, a.reg, b.reg, target);
    }

    /// Branch if an integer variable is zero / non-zero etc. against the
    /// hard-wired zero register.
    pub fn ibranch_zero(&mut self, cond: BranchCond, a: IVar, target: mt_asm::Label) {
        self.asm.branch(cond, a.reg, IReg::ZERO, target);
    }

    /// Loads a 32-bit integer word.
    ///
    /// # Errors
    ///
    /// Never fails today; `Result` for symmetry with the FPU loads.
    pub fn load_int(&mut self, dst: IVar, base: IVar, byte_offset: i32) -> Result<(), MahlerError> {
        self.asm.lw(dst.reg, base.reg, byte_offset);
        Ok(())
    }

    /// Stores a 32-bit integer word.
    pub fn store_int(&mut self, src: IVar, base: IVar, byte_offset: i32) {
        self.asm.sw(src.reg, base.reg, byte_offset);
    }

    /// Explicitly fences a pending vector instruction (call before
    /// hand-rolled control flow that could reorder loads/stores around it).
    ///
    /// # Errors
    ///
    /// Register exhaustion allocating the sink register.
    pub fn fence(&mut self) -> Result<(), MahlerError> {
        self.fence_for(u64::MAX)
    }

    /// Scratch memory used by the FPU↔CPU transfer helpers.
    pub const SCRATCH_ADDR: u32 = 0xEF00;

    fn scratch_base(&mut self) -> IReg {
        // r24 is reserved for the scratch pointer; materialized on first use.
        // Re-materializing on every helper keeps the register free between
        // uses at the cost of one instruction — helpers are rare, keep it
        // persistent instead.
        if !self.scratch_init {
            self.asm.li(IReg::new(24), Self::SCRATCH_ADDR as i32);
            self.scratch_init = true;
        }
        IReg::new(24)
    }

    fn cmp_tmp(&mut self) -> Result<FReg, MahlerError> {
        match self.cmp_tmp {
            Some(t) => Ok(t),
            None => {
                let t = self.alloc_fregs(1)?;
                self.cmp_tmp = Some(t);
                Ok(t)
            }
        }
    }

    /// Floating compare-and-branch: branches to `target` when
    /// `a cond b` holds (`Lt` and `Ge` conditions only — the sign-bit test
    /// the CPU can do on `a − b` through the shared cache). Operands must
    /// not be NaN.
    ///
    /// # Errors
    ///
    /// Register exhaustion for the comparison temporary.
    ///
    /// # Panics
    ///
    /// Panics for conditions other than `Lt`/`Ge`.
    pub fn fbranch(
        &mut self,
        cond: BranchCond,
        a: Scal,
        b: Scal,
        target: mt_asm::Label,
    ) -> Result<(), MahlerError> {
        assert!(
            matches!(cond, BranchCond::Lt | BranchCond::Ge),
            "float branches support Lt/Ge only (sign test on a − b)"
        );
        self.fence()?;
        let t = self.cmp_tmp()?;
        self.asm.fscalar(FpOp::Sub, t, a.reg, b.reg);
        let rs = self.scratch_base();
        self.asm.fst(t, rs, 0);
        let rt = IReg::new(27);
        self.asm.lw(rt, rs, 4); // high word carries the sign
        self.asm.branch(cond, rt, IReg::ZERO, target);
        Ok(())
    }

    /// Moves a float through `truncate` into an integer variable
    /// (round-toward-zero), via the shared cache.
    ///
    /// # Errors
    ///
    /// Register exhaustion for the conversion temporary.
    pub fn trunc_to_ivar(&mut self, dst: IVar, src: Scal) -> Result<(), MahlerError> {
        self.fence()?;
        let t = self.cmp_tmp()?;
        self.asm.fscalar(FpOp::Truncate, t, src.reg, FReg::new(0));
        let rs = self.scratch_base();
        self.asm.fst(t, rs, 0);
        self.asm.lw(dst.reg, rs, 0); // low 32 bits of the i64
        Ok(())
    }

    /// Moves an integer variable into a float scalar via the shared cache
    /// and the `float` conversion.
    ///
    /// # Errors
    ///
    /// Register exhaustion for the conversion temporary.
    pub fn ivar_to_scal(&mut self, dst: Scal, src: IVar) -> Result<(), MahlerError> {
        self.fence()?;
        let rs = self.scratch_base();
        let rt = IReg::new(27);
        self.asm.sw(src.reg, rs, 0);
        // Sign-extend the high word.
        let sh = IReg::new(28);
        self.asm.li(sh, 31);
        self.asm.alu(AluOp::Sra, rt, src.reg, sh);
        self.asm.sw(rt, rs, 4);
        let t = self.cmp_tmp()?;
        self.asm.fld(t, rs, 0);
        self.asm.fscalar(FpOp::Float, dst.reg, t, FReg::new(0));
        Ok(())
    }

    /// Direct access to the underlying assembler for constructs the Mahler
    /// layer does not express. Loads/stores emitted this way bypass the
    /// §2.3.2 fencing bookkeeping — call [`Mahler::fence`] first when a
    /// vector operation may still be issuing.
    pub fn asm_mut(&mut self) -> &mut Asm {
        &mut self.asm
    }

    /// Appends a `halt` and assembles the routine.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors (unbound labels cannot occur through this
    /// API; encoding errors can, e.g. huge offsets).
    pub fn finish(mut self) -> Result<CompiledRoutine, MahlerError> {
        // Safety-net halt, but only when execution can actually reach it —
        // a routine whose text already ends in `halt`/`jr`/`jump` (e.g. a
        // trailing subroutine) would otherwise grow an unreachable word.
        if self.asm.falls_through() {
            self.asm.halt();
        }
        let program = self
            .asm
            .assemble(TEXT_BASE)
            .map_err(|e| MahlerError::Asm(e.message))?;
        Ok(CompiledRoutine {
            program,
            consts: self.consts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_sim::SimConfig;

    fn run(r: &CompiledRoutine) -> Machine {
        let mut m = Machine::new(SimConfig::default());
        r.install(&mut m);
        m.warm_instructions(&r.program);
        m.run().expect("halts");
        m
    }

    #[test]
    fn allocation_is_consecutive_and_bounded() {
        let mut m = Mahler::new();
        let a = m.vector(8).unwrap();
        let b = m.vector(8).unwrap();
        assert_eq!(a.first().index(), 0);
        assert_eq!(b.first().index(), 8);
        assert_eq!(m.fpu_registers_left(), 36);
        // Paper: "often the 52 registers are used as six vectors of length
        // 8 and four scalars".
        for _ in 0..4 {
            m.vector(8).unwrap();
        }
        for _ in 0..4 {
            m.scalar().unwrap();
        }
        assert_eq!(m.fpu_registers_left(), 0);
        assert!(matches!(
            m.vector(8),
            Err(MahlerError::OutOfFpuRegisters {
                requested: 8,
                available: 0
            })
        ));
    }

    #[test]
    fn vector_length_limits() {
        let mut m = Mahler::new();
        assert!(matches!(m.vector(17), Err(MahlerError::TooLong(17))));
        assert!(matches!(m.vector(0), Err(MahlerError::TooLong(0))));
        assert!(m.vector(16).is_ok());
    }

    #[test]
    fn daxpy_strip_computes() {
        let mut m = Mahler::new();
        let x = m.vector(8).unwrap();
        let y = m.vector(8).unwrap();
        let a = m.scalar().unwrap();
        let xp = m.ivar().unwrap();
        let yp = m.ivar().unwrap();
        m.set_i(xp, 0x2000);
        m.set_i(yp, 0x3000);
        m.load_const(a, 3.0).unwrap();
        m.load(x, xp, 0, 8).unwrap();
        m.load(y, yp, 0, 8).unwrap();
        m.vop_scalar(FpOp::Mul, x, x, a).unwrap();
        m.vop(FpOp::Add, y, y, x).unwrap();
        m.store(y, yp, 0, 8).unwrap();
        let routine = m.finish().unwrap();

        let mut machine = Machine::new(SimConfig::default());
        routine.install(&mut machine);
        machine.warm_instructions(&routine.program);
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..8).map(|i| 10.0 * i as f64).collect();
        machine.mem.memory.write_f64_slice(0x2000, &xs);
        machine.mem.memory.write_f64_slice(0x3000, &ys);
        machine.run().unwrap();
        let got = machine.mem.memory.read_f64_slice(0x3000, 8);
        let want: Vec<f64> = (0..8).map(|i| 10.0 * i as f64 + 3.0 * i as f64).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn vsum_halving_reduction() {
        for len in [1u8, 2, 3, 5, 7, 8, 15, 16] {
            let mut m = Mahler::new();
            let v = m.vector(len).unwrap();
            let s = m.scalar().unwrap();
            let p = m.ivar().unwrap();
            m.set_i(p, 0x2000);
            m.load(v, p, 0, 8).unwrap();
            m.vsum(s, v).unwrap();
            m.store_scalar(s, p, 512).unwrap();
            let routine = m.finish().unwrap();

            let mut machine = Machine::new(SimConfig::default());
            routine.install(&mut machine);
            machine.warm_instructions(&routine.program);
            let data: Vec<f64> = (1..=len as i64).map(|i| i as f64).collect();
            machine.mem.memory.write_f64_slice(0x2000, &data);
            machine.run().unwrap();
            let want: f64 = data.iter().sum();
            assert_eq!(
                machine.mem.memory.read_f64(0x2200),
                want,
                "vsum of 1..={len}"
            );
        }
    }

    #[test]
    fn division_through_sdiv() {
        let mut m = Mahler::new();
        let a = m.scalar().unwrap();
        let b = m.scalar().unwrap();
        let q = m.scalar().unwrap();
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        m.load_scalar(a, p, 0).unwrap();
        m.load_scalar(b, p, 8).unwrap();
        m.sdiv(q, a, b).unwrap();
        m.store_scalar(q, p, 16).unwrap();
        let routine = m.finish().unwrap();

        let mut machine = Machine::new(SimConfig::default());
        routine.install(&mut machine);
        machine.warm_instructions(&routine.program);
        machine.mem.memory.write_f64(0x2000, 22.5);
        machine.mem.memory.write_f64(0x2008, 4.0);
        machine.run().unwrap();
        assert_eq!(machine.mem.memory.read_f64(0x2010), 5.625);
    }

    #[test]
    fn counted_loop_iterates() {
        let mut m = Mahler::new();
        let acc = m.scalar().unwrap();
        let one = m.scalar().unwrap();
        let i = m.ivar().unwrap();
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        m.load_const(one, 1.0).unwrap();
        m.load_const(acc, 0.0).unwrap();
        m.counted_loop(i, 0, 10, 1, |m| {
            m.sop(FpOp::Add, acc, acc, one);
        });
        m.store_scalar(acc, p, 0).unwrap();
        let machine = run(&m.finish().unwrap());
        assert_eq!(machine.mem.memory.read_f64(0x2000), 10.0);
    }

    #[test]
    fn subsections_and_element_addressing() {
        let mut m = Mahler::new();
        let v = m.vector(8).unwrap();
        let lo = v.slice(0, 4);
        let hi = v.slice(4, 4);
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        m.load(v, p, 0, 8).unwrap();
        // lo += hi, then write element 2 of the result (a scalar use of a
        // vector element — the unified register file at work).
        m.vop(FpOp::Add, lo, lo, hi).unwrap();
        m.store_scalar(lo.element(2), p, 256).unwrap();
        let mut machine = Machine::new(SimConfig::default());
        let routine = m.finish().unwrap();
        routine.install(&mut machine);
        machine.warm_instructions(&routine.program);
        machine
            .mem
            .memory
            .write_f64_slice(0x2000, &[1., 2., 3., 4., 10., 20., 30., 40.]);
        machine.run().unwrap();
        assert_eq!(machine.mem.memory.read_f64(0x2100), 33.0);
    }

    #[test]
    fn constant_pool_dedupes() {
        let mut m = Mahler::new();
        let a = m.scalar().unwrap();
        let b = m.scalar().unwrap();
        m.load_const(a, 2.5).unwrap();
        m.load_const(b, 2.5).unwrap();
        let r = m.finish().unwrap();
        assert_eq!(r.consts.len(), 1, "identical constants share a slot");
    }

    #[test]
    fn strided_memory_vectors() {
        // Stride-2 gather (every other element), per Fig. 9.
        let mut m = Mahler::new();
        let v = m.vector(4).unwrap();
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        m.load(v, p, 0, 16).unwrap();
        m.store(v, p, 512, 8).unwrap();
        let routine = m.finish().unwrap();
        let mut machine = Machine::new(SimConfig::default());
        routine.install(&mut machine);
        machine.warm_instructions(&routine.program);
        machine
            .mem
            .memory
            .write_f64_slice(0x2000, &[0., 1., 2., 3., 4., 5., 6., 7.]);
        machine.run().unwrap();
        assert_eq!(
            machine.mem.memory.read_f64_slice(0x2200, 4),
            vec![0., 2., 4., 6.]
        );
    }

    #[test]
    fn slice_bounds_checked() {
        let mut m = Mahler::new();
        let v = m.vector(4).unwrap();
        let result = std::panic::catch_unwind(|| v.slice(2, 3));
        assert!(result.is_err());
    }
}

#[cfg(test)]
mod helper_tests {
    use super::*;
    use mt_isa::cpu::BranchCond;
    use mt_sim::SimConfig;

    fn fresh() -> (Mahler, IVar) {
        let mut m = Mahler::new();
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        (m, p)
    }

    fn exec(r: &CompiledRoutine, setup: impl Fn(&mut Machine)) -> Machine {
        let mut machine = Machine::new(SimConfig::default());
        r.install(&mut machine);
        machine.warm_instructions(&r.program);
        setup(&mut machine);
        machine.run().expect("halts");
        machine
    }

    #[test]
    fn fbranch_lt_selects_minimum() {
        let (mut m, p) = fresh();
        let a = m.scalar().unwrap();
        let b = m.scalar().unwrap();
        m.load_scalar(a, p, 0).unwrap();
        m.load_scalar(b, p, 8).unwrap();
        let a_less = m.label();
        let done = m.label();
        m.fbranch(BranchCond::Lt, a, b, a_less).unwrap();
        m.store_scalar(b, p, 16).unwrap();
        m.jump(done);
        m.bind(a_less);
        m.store_scalar(a, p, 16).unwrap();
        m.bind(done);
        let r = m.finish().unwrap();

        let machine = exec(&r, |mm| {
            mm.mem.memory.write_f64(0x2000, 3.5);
            mm.mem.memory.write_f64(0x2008, -1.25);
        });
        assert_eq!(machine.mem.memory.read_f64(0x2010), -1.25);

        let machine = exec(&r, |mm| {
            mm.mem.memory.write_f64(0x2000, -9.0);
            mm.mem.memory.write_f64(0x2008, 4.0);
        });
        assert_eq!(machine.mem.memory.read_f64(0x2010), -9.0);
    }

    #[test]
    fn trunc_and_float_roundtrip_through_ivars() {
        let (mut m, p) = fresh();
        let x = m.scalar().unwrap();
        let y = m.scalar().unwrap();
        let i = m.ivar().unwrap();
        m.load_scalar(x, p, 0).unwrap();
        m.trunc_to_ivar(i, x).unwrap();
        m.iadd_imm(i, i, 100);
        m.ivar_to_scal(y, i).unwrap();
        m.store_scalar(y, p, 8).unwrap();
        let r = m.finish().unwrap();
        let machine = exec(&r, |mm| {
            mm.mem.memory.write_f64(0x2000, -7.9);
        });
        // trunc(−7.9) = −7; −7 + 100 = 93.
        assert_eq!(machine.mem.memory.read_f64(0x2008), 93.0);
    }

    #[test]
    fn hand_rolled_loop_with_labels() {
        let (mut m, p) = fresh();
        let acc = m.scalar().unwrap();
        let one = m.scalar().unwrap();
        let i = m.ivar().unwrap();
        let lim = m.ivar().unwrap();
        m.load_const(acc, 0.0).unwrap();
        m.load_const(one, 1.0).unwrap();
        m.set_i(i, 0);
        m.set_i(lim, 7);
        let top = m.here();
        m.sop(FpOp::Add, acc, acc, one);
        m.iadd_imm(i, i, 1);
        m.ibranch(BranchCond::Lt, i, lim, top);
        m.store_scalar(acc, p, 0).unwrap();
        let r = m.finish().unwrap();
        let machine = exec(&r, |_| {});
        assert_eq!(machine.mem.memory.read_f64(0x2000), 7.0);
    }

    #[test]
    fn load_store_int() {
        let (mut m, p) = fresh();
        let v = m.ivar().unwrap();
        m.load_int(v, p, 0).unwrap();
        m.iadd_imm(v, v, 5);
        m.store_int(v, p, 4);
        let r = m.finish().unwrap();
        let machine = exec(&r, |mm| mm.mem.memory.write_u32(0x2000, 37));
        assert_eq!(machine.mem.memory.read_u32(0x2004), 42);
    }
}
