//! Vector expression trees with lifetime-based temporary allocation.
//!
//! §3 of the paper: "Register allocation was done by checking lifetimes of
//! subexpressions, which gave the number of vector values live at any
//! point in the code. Knowing that value and the number of registers on
//! the FPU allows a compiler to choose vector lengths."
//!
//! This module is that allocator: a [`VExpr`] tree is labelled with the
//! number of simultaneously-live vector temporaries it needs
//! (Sethi–Ullman numbering adapted to vector registers, where named
//! variables live in place and cost nothing), the deeper side of every
//! operator is evaluated first to keep that number minimal, and
//! temporaries come from a per-routine pool that grows only to the
//! labelled maximum — exceeding the register file raises the paper's
//! compile error.

use mt_fparith::FpOp;

use crate::routine::{IVar, Mahler, MahlerError, Scal, Vect};

/// A vector-valued expression.
#[derive(Debug, Clone)]
pub enum VExpr {
    /// An existing vector variable (costs no temporary; used in place).
    Var(Vect),
    /// A memory vector: `len` elements at `byte_offset(base)` with the
    /// given stride in bytes (loaded into a temporary).
    Load {
        /// Base address variable.
        base: IVar,
        /// Byte offset of element 0.
        offset: i32,
        /// Byte stride between elements.
        stride: i32,
    },
    /// An elementwise binary operation.
    Bin(FpOp, Box<VExpr>, Box<VExpr>),
    /// A vector–constant operation (the constant is pooled).
    BinConst(FpOp, Box<VExpr>, f64),
}

impl VExpr {
    /// Convenience constructor for a variable leaf.
    pub fn var(v: Vect) -> VExpr {
        VExpr::Var(v)
    }

    /// Convenience constructor for a memory leaf.
    pub fn load(base: IVar, offset: i32, stride: i32) -> VExpr {
        VExpr::Load {
            base,
            offset,
            stride,
        }
    }

    /// `self op rhs`, elementwise.
    pub fn bin(self, op: FpOp, rhs: VExpr) -> VExpr {
        VExpr::Bin(op, Box::new(self), Box::new(rhs))
    }

    /// `self op constant` with the constant broadcast from the pool.
    pub fn bin_const(self, op: FpOp, c: f64) -> VExpr {
        VExpr::BinConst(op, Box::new(self), c)
    }

    /// The Sethi–Ullman label: how many vector temporaries evaluating this
    /// expression needs simultaneously. Named variables are free; a memory
    /// leaf needs one; a binary node needs `max` of its sides, plus one
    /// when they tie (both sides' results must be live at once).
    pub fn temps_needed(&self) -> u32 {
        match self {
            VExpr::Var(_) => 0,
            VExpr::Load { .. } => 1,
            VExpr::Bin(_, l, r) => {
                let (nl, nr) = (l.temps_needed(), r.temps_needed());
                if nl == nr {
                    // Both sides need a live result simultaneously; a
                    // Var/Var tie still produces one result to hold.
                    nl + 1
                } else {
                    nl.max(nr).max(1)
                }
            }
            VExpr::BinConst(_, l, _) => l.temps_needed().max(1),
        }
    }

    /// `true` if any leaf of the expression reads registers overlapping
    /// `[first, first+len)` — the aliasing test that decides whether the
    /// destination can double as the evaluation scratch.
    fn reads_range(&self, first: u8, len: u8) -> bool {
        let overlap = |v: &Vect| {
            let (a0, a1) = (v.first().index(), v.first().index() + v.len());
            let (b0, b1) = (first, first + len);
            a0 < b1 && b0 < a1
        };
        match self {
            VExpr::Var(v) => overlap(v),
            VExpr::Load { .. } => false,
            VExpr::Bin(_, l, r) => reads(l, first, len) || reads(r, first, len),
            VExpr::BinConst(_, l, _) => reads(l, first, len),
        }
    }
}

fn reads(e: &VExpr, first: u8, len: u8) -> bool {
    e.reads_range(first, len)
}

/// Where an evaluated subexpression lives.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// A named variable, read in place (must not be clobbered).
    Named(Vect),
    /// A pool temporary (writable, returned to the pool when consumed).
    Temp(usize, Vect),
}

impl Place {
    fn vect(&self) -> Vect {
        match *self {
            Place::Named(v) | Place::Temp(_, v) => v,
        }
    }
}

/// The evaluation context: a pool of vector temporaries of one length.
struct Pool {
    len: u8,
    temps: Vec<Vect>,
    free: Vec<usize>,
}

impl Pool {
    fn acquire(&mut self, m: &mut Mahler) -> Result<(usize, Vect), MahlerError> {
        if let Some(i) = self.free.pop() {
            return Ok((i, self.temps[i]));
        }
        let v = m.vector(self.len)?;
        self.temps.push(v);
        Ok((self.temps.len() - 1, v))
    }

    fn release(&mut self, place: Place) {
        if let Place::Temp(i, _) = place {
            self.free.push(i);
        }
    }
}

impl Mahler {
    /// Evaluates `expr` elementwise into `dst` (length `dst.len()`),
    /// allocating at most [`VExpr::temps_needed`] vector temporaries from
    /// the routine's pool (they are reused by later `assign` calls of the
    /// same length).
    ///
    /// When `dst` does not alias any variable read by `expr`, it serves as
    /// the outermost scratch and the final operation lands directly in it.
    ///
    /// # Errors
    ///
    /// The paper's compile error when the temporaries exceed the register
    /// file, and length mismatches between `dst` and variable leaves.
    pub fn assign(&mut self, dst: Vect, expr: &VExpr) -> Result<(), MahlerError> {
        let mut pool = Pool {
            len: dst.len(),
            temps: Vec::new(),
            free: Vec::new(),
        };
        let dst_free = !expr.reads_range(dst.first().index(), dst.len());
        let place = self.eval(expr, dst, dst_free, &mut pool)?;
        // Materialize into dst if the value ended up elsewhere.
        let v = place.vect();
        if v.first() != dst.first() {
            // Exact copy through the multiply unit: x · 1.0 preserves every
            // bit pattern, including −0 (x + 0.0 would flip −0 to +0).
            let one = self.expr_one()?;
            self.vop_scalar(FpOp::Mul, dst, v, one)?;
        }
        pool.release(place);
        Ok(())
    }

    /// Evaluates `expr` and reduces it with the §3 summation operator into
    /// the scalar `dst`.
    ///
    /// # Errors
    ///
    /// As [`Mahler::assign`].
    pub fn assign_sum(&mut self, dst: Scal, len: u8, expr: &VExpr) -> Result<(), MahlerError> {
        // The reduction destroys its input, so evaluate into a temporary
        // owned by this call.
        let scratch = self.vector(len)?;
        self.assign(scratch, expr)?;
        self.vsum(dst, scratch)
    }

    fn expr_one(&mut self) -> Result<Scal, MahlerError> {
        let one = self.scalar()?;
        self.load_const(one, 1.0)?;
        Ok(one)
    }

    fn eval(
        &mut self,
        expr: &VExpr,
        dst: Vect,
        dst_free: bool,
        pool: &mut Pool,
    ) -> Result<Place, MahlerError> {
        match expr {
            VExpr::Var(v) => {
                if v.len() != dst.len() {
                    return Err(MahlerError::LengthMismatch {
                        dst: dst.len(),
                        src: v.len(),
                    });
                }
                Ok(Place::Named(*v))
            }
            VExpr::Load {
                base,
                offset,
                stride,
            } => {
                let (i, t) = pool.acquire(self)?;
                self.load(t, *base, *offset, *stride)?;
                Ok(Place::Temp(i, t))
            }
            VExpr::Bin(op, l, r) => {
                // Deeper side first (Sethi–Ullman order).
                let (first, second, swapped) = if r.temps_needed() > l.temps_needed() {
                    (r.as_ref(), l.as_ref(), true)
                } else {
                    (l.as_ref(), r.as_ref(), false)
                };
                let pf = self.eval(first, dst, dst_free, pool)?;
                let ps = self.eval(second, dst, dst_free, pool)?;
                let (pl, pr) = if swapped { (ps, pf) } else { (pf, ps) };
                let out = self.result_place(&pl, &pr, dst, dst_free, pool)?;
                self.vop(*op, out.vect(), pl.vect(), pr.vect())?;
                self.release_consumed(pl, pr, &out, pool);
                Ok(out)
            }
            VExpr::BinConst(op, l, c) => {
                let s = self.scalar()?;
                self.load_const(s, *c)?;
                let pl = self.eval(l, dst, dst_free, pool)?;
                let out = self.result_place_unary(&pl, dst, dst_free, pool)?;
                self.vop_scalar(*op, out.vect(), pl.vect(), s)?;
                self.release_one(pl, &out, pool);
                Ok(out)
            }
        }
    }

    /// Chooses where a binary result goes: reuse an operand temporary,
    /// else the (non-aliasing) destination, else a fresh temporary.
    fn result_place(
        &mut self,
        pl: &Place,
        pr: &Place,
        dst: Vect,
        dst_free: bool,
        pool: &mut Pool,
    ) -> Result<Place, MahlerError> {
        match (pl, pr) {
            (Place::Temp(i, v), _) => Ok(Place::Temp(*i, *v)),
            (_, Place::Temp(i, v)) => Ok(Place::Temp(*i, *v)),
            _ if dst_free => Ok(Place::Named(dst)),
            _ => {
                let (i, v) = pool.acquire(self)?;
                Ok(Place::Temp(i, v))
            }
        }
    }

    fn result_place_unary(
        &mut self,
        pl: &Place,
        dst: Vect,
        dst_free: bool,
        pool: &mut Pool,
    ) -> Result<Place, MahlerError> {
        match pl {
            Place::Temp(i, v) => Ok(Place::Temp(*i, *v)),
            _ if dst_free => Ok(Place::Named(dst)),
            _ => {
                let (i, v) = pool.acquire(self)?;
                Ok(Place::Temp(i, v))
            }
        }
    }

    /// Returns operand temporaries that were not chosen as the result.
    fn release_consumed(&mut self, pl: Place, pr: Place, out: &Place, pool: &mut Pool) {
        for p in [pl, pr] {
            if let (Place::Temp(i, _), Place::Temp(oi, _)) = (&p, out) {
                if i != oi {
                    pool.release(p);
                }
            } else if matches!(p, Place::Temp(..)) && matches!(out, Place::Named(_)) {
                pool.release(p);
            }
        }
    }

    fn release_one(&mut self, pl: Place, out: &Place, pool: &mut Pool) {
        self.release_consumed(pl, Place::Named(out.vect()), out, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_sim::{Machine, SimConfig};

    fn run(m: Mahler, setup: impl Fn(&mut Machine)) -> Machine {
        let routine = m.finish().unwrap();
        let mut machine = Machine::new(SimConfig::default());
        routine.install(&mut machine);
        machine.warm_instructions(&routine.program);
        setup(&mut machine);
        machine.run().expect("halts");
        machine
    }

    #[test]
    fn sethi_ullman_labels() {
        let m = &mut Mahler::new();
        let p = m.ivar().unwrap();
        let v = m.vector(4).unwrap();
        let ld = || VExpr::load(p, 0, 8);
        assert_eq!(VExpr::var(v).temps_needed(), 0);
        assert_eq!(ld().temps_needed(), 1);
        // load op load: both live at once → 2.
        assert_eq!(ld().bin(FpOp::Add, ld()).temps_needed(), 2);
        // var op load: 1.
        assert_eq!(VExpr::var(v).bin(FpOp::Add, ld()).temps_needed(), 1);
        // A left-leaning chain of loads stays at 2 regardless of depth.
        let chain = ld()
            .bin(FpOp::Add, ld())
            .bin(FpOp::Mul, ld())
            .bin(FpOp::Sub, ld());
        assert_eq!(chain.temps_needed(), 2);
        // A balanced tree of 4 loads needs 3.
        let balanced = ld()
            .bin(FpOp::Add, ld())
            .bin(FpOp::Mul, ld().bin(FpOp::Add, ld()));
        assert_eq!(balanced.temps_needed(), 3);
    }

    #[test]
    fn loop1_as_an_expression() {
        // x[k] = q + y[k]·(r·z[k+10] + t·z[k+11]) over one strip.
        let (q, r, t) = (0.05, 0.5, 0.25);
        let mut m = Mahler::new();
        let dst = m.vector(8).unwrap();
        let (py, pz, px) = (m.ivar().unwrap(), m.ivar().unwrap(), m.ivar().unwrap());
        m.set_i(py, 0x2000);
        m.set_i(pz, 0x3000);
        m.set_i(px, 0x4000);
        let expr = VExpr::load(pz, 80, 8)
            .bin_const(FpOp::Mul, r)
            .bin(FpOp::Add, VExpr::load(pz, 88, 8).bin_const(FpOp::Mul, t))
            .bin(FpOp::Mul, VExpr::load(py, 0, 8))
            .bin_const(FpOp::Add, q);
        m.assign(dst, &expr).unwrap();
        m.store(dst, px, 0, 8).unwrap();

        let machine = run(m, |mm| {
            for k in 0..8u32 {
                mm.mem.memory.write_f64(0x2000 + 8 * k, 1.0 + k as f64);
            }
            for k in 0..19u32 {
                mm.mem.memory.write_f64(0x3000 + 8 * k, 0.1 * k as f64);
            }
        });
        for k in 0..8usize {
            let y = 1.0 + k as f64;
            let z10 = 0.1 * (k + 10) as f64;
            let z11 = 0.1 * (k + 11) as f64;
            let want = (z10 * r + z11 * t) * y + q;
            let got = machine.mem.memory.read_f64(0x4000 + 8 * k as u32);
            assert!((got - want).abs() < 1e-12, "x[{k}] = {got}, want {want}");
        }
    }

    #[test]
    fn destination_aliasing_is_detected() {
        // dst appears on both sides: y = y·y + y must still be correct.
        let mut m = Mahler::new();
        let y = m.vector(4).unwrap();
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        m.load(y, p, 0, 8).unwrap();
        let expr = VExpr::var(y)
            .bin(FpOp::Mul, VExpr::var(y))
            .bin(FpOp::Add, VExpr::var(y));
        m.assign(y, &expr).unwrap();
        m.store(y, p, 64, 8).unwrap();
        let machine = run(m, |mm| {
            for k in 0..4u32 {
                mm.mem.memory.write_f64(0x2000 + 8 * k, 2.0 + k as f64);
            }
        });
        for k in 0..4usize {
            let v = 2.0 + k as f64;
            assert_eq!(
                machine.mem.memory.read_f64(0x2040 + 8 * k as u32),
                v * v + v
            );
        }
    }

    #[test]
    fn reduction_through_assign_sum() {
        // q = Σ x[k]·z[k] — the §2.1.1 dot product via the expression layer.
        let mut m = Mahler::new();
        let q = m.scalar().unwrap();
        let (px, pz, pq) = (m.ivar().unwrap(), m.ivar().unwrap(), m.ivar().unwrap());
        m.set_i(px, 0x2000);
        m.set_i(pz, 0x2100);
        m.set_i(pq, 0x2200);
        let expr = VExpr::load(px, 0, 8).bin(FpOp::Mul, VExpr::load(pz, 0, 8));
        m.assign_sum(q, 8, &expr).unwrap();
        m.store_scalar(q, pq, 0).unwrap();
        let machine = run(m, |mm| {
            for k in 0..8u32 {
                mm.mem.memory.write_f64(0x2000 + 8 * k, k as f64);
                mm.mem.memory.write_f64(0x2100 + 8 * k, 2.0);
            }
        });
        let want: f64 = (0..8).map(|k| 2.0 * k as f64).sum();
        assert_eq!(machine.mem.memory.read_f64(0x2200), want);
    }

    #[test]
    fn temp_pool_is_bounded_by_the_label() {
        // A balanced 4-load tree labelled 3 must not allocate more than 3
        // vector temporaries (24 registers at length 8).
        let mut m = Mahler::new();
        let dst = m.vector(8).unwrap();
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        let before = m.fpu_registers_left();
        let ld = || VExpr::load(p, 0, 8);
        let expr = ld()
            .bin(FpOp::Add, ld())
            .bin(FpOp::Mul, ld().bin(FpOp::Add, ld()));
        assert_eq!(expr.temps_needed(), 3);
        m.assign(dst, &expr).unwrap();
        let used = before - m.fpu_registers_left();
        // 3 temporaries plus at most two support scalars (the §2.3.2 fence
        // sink and the copy zero).
        assert!(
            used <= 3 * 8 + 2,
            "allocated {used} registers for a 3-temp expression"
        );
    }

    #[test]
    fn register_exhaustion_is_the_papers_compile_error() {
        let mut m = Mahler::new();
        // Eat almost the whole file first.
        for _ in 0..5 {
            m.vector(8).unwrap();
        }
        let dst = m.vector(8).unwrap(); // 48 used
        let p = m.ivar().unwrap();
        m.set_i(p, 0x2000);
        let ld = || VExpr::load(p, 0, 8);
        // Needs two temporaries (16 registers): only 4 remain.
        let expr = ld().bin(FpOp::Add, ld());
        match m.assign(dst, &expr) {
            Err(MahlerError::OutOfFpuRegisters { .. }) => {}
            other => panic!("expected the compile error, got {other:?}"),
        }
    }
}
