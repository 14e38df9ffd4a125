//! End-to-end detection-path tests: a corrupted operand really does
//! trip the §2.3.1 overflow-abort machinery, and the campaign really
//! does classify that as `Detected`.

use mt_fault::{apply, FaultTarget};
use mt_fparith::FpOp;
use mt_isa::{FReg, FpuAluInstr, Instr};
use mt_sim::{Machine, Program, SimConfig};
use mt_trace::NullSink;

/// A single-bit exponent flip on a multiply operand pushes the product
/// past the largest finite double, and the §2.3.1 machinery — not the
/// output check — flags it: the abort counter rises and the PSW records
/// the destination. This is the organic "detected" path, exercised
/// deterministically rather than hoping a random plan hits it.
#[test]
fn exponent_flip_on_multiply_operand_is_detected_by_overflow_abort() {
    let prog = Program::assemble(&[
        Instr::Falu(FpuAluInstr::scalar(
            FpOp::Mul,
            FReg::new(2),
            FReg::new(0),
            FReg::new(0),
        )),
        Instr::Halt,
    ])
    .unwrap();

    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.fpu.regs_mut().write_f64(FReg::new(0), 2.0);
    let base = m.snapshot();

    // Golden: 2.0² = 4.0, no abort, clean PSW.
    let golden = m.run().unwrap();
    assert_eq!(m.fpu.regs().read_f64(FReg::new(2)), 4.0);
    assert_eq!(m.fpu.stats().overflow_aborts, 0);
    assert!(m.fpu.psw().overflow_dest.is_none());

    // Injected: pause before the first cycle, flip exponent bit 61 of
    // the operand (2.0 -> 2^513), resume. The square (2^1026) overflows.
    m.restore(&base);
    assert!(
        m.run_until(0, &mut NullSink).unwrap().is_none(),
        "must pause at cycle 0"
    );
    apply(&mut m, &FaultTarget::FpuReg { reg: 0, bit: 61 });
    let injected = m.run().unwrap();
    assert_eq!(m.fpu.stats().overflow_aborts, 1);
    assert_eq!(m.fpu.psw().overflow_dest, Some(FReg::new(2)));
    // Same instruction count either way — the abort squashes the
    // result, not the instruction stream.
    assert_eq!(golden.instructions, injected.instructions);
}
