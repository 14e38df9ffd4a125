//! Structural lints: encoding-level range checks, stride/VL aliasing,
//! division macro shape, and store-port scheduling.

use std::collections::HashMap;

use mt_fparith::div::{DivOperand, DIV_DATAFLOW};
use mt_fparith::FpOp;
use mt_isa::cpu::DecodeError;
use mt_isa::fpu::FpuInstrError;
use mt_isa::{FReg, FpuAluInstr, IReg, Instr};

use crate::cfg::ProgramView;
use crate::diag::{Finding, Lint};
use crate::LintOptions;

/// Raw words whose FPU register run walks past R51 (or whose register
/// specifier exceeds 51). The assembler and `FpuAluInstr::new` refuse to
/// construct these, so they only appear in hand-encoded words — but such a
/// word would address nonexistent registers on real hardware.
pub fn range_overflow(prog: &ProgramView, out: &mut Vec<Finding>) {
    for (idx, slot) in prog.slots.iter().enumerate() {
        if slot.instr.is_some() {
            continue;
        }
        let err = match Instr::decode(slot.word) {
            Err(e) => e,
            Ok(_) => continue,
        };
        let message = match err {
            DecodeError::Fpu(FpuInstrError::RegisterRunOutOfRange(r, vl)) => {
                format!("register run {r}..+{vl} walks past R51")
            }
            DecodeError::Fpu(FpuInstrError::BadRegister(r)) | DecodeError::BadFReg(r) => {
                format!("register specifier {r} exceeds R51")
            }
            _ => continue, // other undecodable words are not range problems
        };
        out.push(Finding {
            lint: Lint::RangeOverflow,
            instr_index: idx,
            pc: prog.pc(idx),
            message,
        });
    }
}

/// Does `f` write its own live source range mid-vector? True when a later
/// element reads a register an earlier element already overwrote — the
/// Fig. 8 recurrence pattern. Intentional recurrences are silenced via the
/// `lint: allow(recurrence)` source annotation (or
/// [`LintOptions::allow_recurrence`] programmatically).
fn aliases_source(f: &FpuAluInstr) -> Option<FReg> {
    let rr = f.rr.index();
    for (src, strides, is_rb) in [(f.ra, f.sra, false), (f.rb, f.srb, true)] {
        if is_rb && f.op.is_unary() {
            continue;
        }
        let s = src.index();
        let hit = if strides {
            // Element e reads s+e; it was overwritten by element s+e−rr,
            // which has already issued exactly when s < rr < s+vl.
            s < rr && rr < s + f.vl
        } else {
            // A broadcast source is re-read every element; destination
            // element s−rr overwrites it with vl−1−(s−rr) reads to go.
            rr <= s && s < rr + f.vl - 1
        };
        if hit {
            return Some(src);
        }
    }
    None
}

/// Stride-bit/VL combinations that fold the destination run into a live
/// source range mid-vector.
pub fn recurrence_alias(prog: &ProgramView, opts: &LintOptions, out: &mut Vec<Finding>) {
    for idx in prog.reachable() {
        let Some(Instr::Falu(f)) = prog.slots[idx].instr else {
            continue;
        };
        if f.vl < 2 || opts.allow_recurrence.contains(&idx) {
            continue;
        }
        if let Some(src) = aliases_source(&f) {
            out.push(Finding {
                lint: Lint::RecurrenceAlias,
                instr_index: idx,
                pc: prog.pc(idx),
                message: format!(
                    "`{f}` overwrites source {src} mid-vector, so later elements read \
                     results, not inputs; if this recurrence is intentional (Fig. 8), \
                     annotate the line with `lint: allow(recurrence)`"
                ),
            });
        }
    }
}

/// `frecip` launches that are not followed by the six-operation
/// Newton–Raphson division macro of §2.2.3 (`DIV_DATAFLOW`). The matcher
/// unifies register roles (divisor, dividend, two scratches, destination)
/// across the sequence, so any register assignment the assembler's `fdiv`
/// would emit passes.
pub fn malformed_division(prog: &ProgramView, out: &mut Vec<Finding>) {
    for idx in prog.reachable() {
        let Some(Instr::Falu(f)) = prog.slots[idx].instr else {
            continue;
        };
        if f.op != FpOp::Recip {
            continue;
        }
        if let Err(why) = match_division(prog, idx) {
            out.push(Finding {
                lint: Lint::MalformedDivision,
                instr_index: idx,
                pc: prog.pc(idx),
                message: format!(
                    "`frecip` does not start the 6-op Newton\u{2013}Raphson division \
                     sequence (§2.2.3): {why}"
                ),
            });
        }
    }
}

fn match_division(prog: &ProgramView, start: usize) -> Result<(), String> {
    let mut roles: HashMap<DivOperand, FReg> = HashMap::new();
    let mut bind = |role: DivOperand, reg: FReg, step: usize| -> Result<(), String> {
        match roles.get(&role) {
            Some(&bound) if bound != reg => Err(format!(
                "step {step} uses {reg} where the sequence established {bound} as \
                 its {role:?}"
            )),
            Some(_) => Ok(()),
            None => {
                roles.insert(role, reg);
                Ok(())
            }
        }
    };
    for (k, step) in DIV_DATAFLOW.iter().enumerate() {
        let idx = start + k;
        let Some(Instr::Falu(f)) = prog.slots.get(idx).and_then(|s| s.instr) else {
            return Err(format!("step {k} is not an FPU ALU instruction"));
        };
        if f.op != step.op {
            return Err(format!("step {k} is `{}`, expected `{}`", f.op, step.op));
        }
        if f.vl != 1 {
            return Err(format!(
                "step {k} is a vector (VL {}), macro steps are scalar",
                f.vl
            ));
        }
        bind(step.src_a, f.ra, k)?;
        if step.src_b != DivOperand::Unused {
            bind(step.src_b, f.rb, k)?;
        }
        bind(step.dst, f.rr, k)?;
    }
    Ok(())
}

/// Back-to-back stores where the very next instruction is an independent
/// integer operation: stores occupy the memory port for two cycles
/// (§2.4), so the second store stalls one cycle in the first store's
/// shadow — a cycle the scheduler could fill by hoisting that operation
/// between the stores.
pub fn store_shadow(prog: &ProgramView, out: &mut Vec<Finding>) {
    for idx in prog.reachable() {
        if idx + 2 >= prog.slots.len() {
            continue;
        }
        if !is_store(&prog.slots[idx].instr) {
            continue;
        }
        let second_reads = match prog.slots[idx + 1].instr {
            Some(Instr::Fst { base, .. }) => vec![base],
            Some(Instr::Sw { rs, base, .. }) => vec![rs, base],
            _ => continue,
        };
        let writes: IReg = match prog.slots[idx + 2].instr {
            Some(Instr::Alu { rd, .. })
            | Some(Instr::Addi { rd, .. })
            | Some(Instr::Lui { rd, .. }) => rd,
            _ => continue,
        };
        if second_reads.contains(&writes) {
            continue; // hoisting would change the second store's operands
        }
        out.push(Finding {
            lint: Lint::StoreShadow,
            instr_index: idx + 1,
            pc: prog.pc(idx + 1),
            message: "this store stalls one cycle in the previous store's shadow \
                      (stores hold the port two cycles, §2.4); the following integer \
                      op is independent and could be hoisted between them"
                .to_string(),
        });
    }
}

fn is_store(instr: &Option<Instr>) -> bool {
    matches!(instr, Some(Instr::Fst { .. }) | Some(Instr::Sw { .. }))
}

/// Basic blocks no control-flow path from the entry reaches. One finding
/// per unreachable block, anchored at its leader. Blocks whose leader does
/// not decode are skipped — data words interleaved with text are not
/// "code" — and the reachability itself inherits the `jal`/`jr` return
/// resolution of [`ProgramView::successors`], so post-call code counts as
/// reachable whenever the return edge is provable.
pub fn unreachable_code(prog: &ProgramView, out: &mut Vec<Finding>) {
    let mut reachable = vec![false; prog.slots.len()];
    for idx in prog.reachable() {
        reachable[idx] = true;
    }
    for block in prog.basic_blocks() {
        if reachable[block.start] || prog.slots[block.start].instr.is_none() {
            continue;
        }
        let len = block.end - block.start;
        out.push(Finding {
            lint: Lint::UnreachableCode,
            instr_index: block.start,
            pc: prog.pc(block.start),
            message: format!(
                "no control-flow path from the entry reaches this block \
                 ({len} instruction{})",
                if len == 1 { "" } else { "s" }
            ),
        });
    }
}
