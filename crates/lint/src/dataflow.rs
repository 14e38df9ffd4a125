//! Register dataflow over the 52-register FPU file and the PSW.
//!
//! Two classic passes at element granularity (a VL-n vector instruction is
//! treated as its n element operations in issue order, so recurrences like
//! Fig. 8's Fibonacci — where later elements read earlier elements'
//! results — are modelled exactly):
//!
//! * a forward *must-initialized* analysis reporting reads of registers no
//!   program path has written (notes: the host harness may legitimately
//!   preload the register file before `run`);
//! * a backward *liveness* analysis reporting stores that are overwritten
//!   on every path before any read. Dead defs produced by a vector
//!   instruction are classed as write-after-write clobbers inside
//!   overlapping vector register ranges and carry warning severity.
//!
//! Bit layout: bits 0–51 are `R0..R51`; bit 52 is the PSW.

use mt_isa::{FReg, Instr};

use crate::cfg::ProgramView;
use crate::diag::{Finding, Lint};

const PSW_BIT: u32 = 52;
const ALL_LIVE: u64 = (1 << 53) - 1;

fn bit(r: FReg) -> u64 {
    1u64 << r.index()
}

/// Per-instruction (use, def) transfer at element granularity, in issue
/// order. `uses` excludes registers defined earlier within the same
/// instruction (a recurrence read is satisfied internally).
fn transfer(instr: &Instr) -> (u64, u64) {
    let mut uses = 0u64;
    let mut defs = 0u64;
    match instr {
        Instr::Falu(f) => {
            for e in 0..f.vl {
                let refs = f.element(e);
                uses |= bit(refs.ra) & !defs;
                if !f.op.is_unary() {
                    uses |= bit(refs.rb) & !defs;
                }
                defs |= bit(refs.rr);
            }
            // Exception flags accumulate into the PSW (§2.3.1).
            uses |= 1 << PSW_BIT;
            defs |= 1 << PSW_BIT;
        }
        Instr::Fld { fr, .. } => defs |= bit(*fr),
        Instr::Fst { fr, .. } => uses |= bit(*fr),
        Instr::Mfpsw { .. } => uses |= 1 << PSW_BIT,
        Instr::ClrPsw => defs |= 1 << PSW_BIT,
        _ => {}
    }
    (uses, defs)
}

/// Reads of FPU registers that no path from entry has written.
pub fn uninitialized_reads(prog: &ProgramView, out: &mut Vec<Finding>) {
    let n = prog.slots.len();
    // Forward must-analysis: a register counts as initialized at a point
    // only if *every* path to it contains a write. `None` = not yet
    // visited. The PSW starts initialized (hardware reset state).
    let mut init_in: Vec<Option<u64>> = vec![None; n];
    if n == 0 {
        return;
    }
    init_in[0] = Some(1 << PSW_BIT);
    let mut work = vec![0usize];
    while let Some(idx) = work.pop() {
        let inflow = init_in[idx].unwrap_or(0);
        let outflow = match &prog.slots[idx].instr {
            Some(i) => inflow | transfer(i).1,
            None => inflow,
        };
        for succ in prog.successors(idx) {
            let merged = match init_in[succ] {
                None => outflow,
                Some(existing) => existing & outflow,
            };
            if init_in[succ] != Some(merged) {
                init_in[succ] = Some(merged);
                work.push(succ);
            }
        }
    }

    for (idx, entry) in init_in.iter().enumerate() {
        let Some(mut init) = *entry else {
            continue; // unreachable
        };
        let Some(instr) = prog.slots[idx].instr else {
            continue;
        };
        // One finding per instruction, listing every unwritten register it
        // reads, to keep wide vector reads from flooding the report.
        let mut unwritten: Vec<FReg> = Vec::new();
        let note = |reg: FReg, init: u64, unwritten: &mut Vec<FReg>| {
            if init & bit(reg) == 0 && !unwritten.contains(&reg) {
                unwritten.push(reg);
            }
        };
        match instr {
            Instr::Falu(f) => {
                for e in 0..f.vl {
                    let refs = f.element(e);
                    note(refs.ra, init, &mut unwritten);
                    if !f.op.is_unary() {
                        note(refs.rb, init, &mut unwritten);
                    }
                    init |= bit(refs.rr);
                }
            }
            Instr::Fst { fr, .. } => note(fr, init, &mut unwritten),
            _ => {}
        }
        if !unwritten.is_empty() {
            let list = unwritten
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push(Finding {
                lint: Lint::UninitializedRead,
                instr_index: idx,
                pc: prog.pc(idx),
                message: format!(
                    "{list} {} read here but written on no path from entry \
                     (did the harness preload {}?)",
                    if unwritten.len() == 1 { "is" } else { "are" },
                    if unwritten.len() == 1 { "it" } else { "them" },
                ),
            });
        }
    }
}

/// Defs that every path overwrites before reading. Scalar dead defs are
/// [`Lint::DeadStore`]; dead defs inside a vector's destination run are
/// [`Lint::VectorWawClobber`] (the overlapping-range WAW case).
pub fn dead_stores(prog: &ProgramView, out: &mut Vec<Finding>) {
    let n = prog.slots.len();
    // Backward liveness. At analysis exits (halt, jr, undecodable words,
    // falling off the end) everything is live: the host inspects the
    // register file after a run, so only defs provably overwritten before
    // any read are dead. Every set starts full and only shrinks, so a
    // worklist revisits an instruction at most once per register its
    // successors drop.
    let succs: Vec<Vec<usize>> = (0..n).map(|idx| prog.successors(idx)).collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(idx);
        }
    }
    let mut live_out: Vec<u64> = vec![ALL_LIVE; n];
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(idx) = work.pop() {
        let mut out_set = if succs[idx].is_empty() { ALL_LIVE } else { 0 };
        for &s in &succs[idx] {
            let (uses, defs) = match &prog.slots[s].instr {
                Some(i) => transfer(i),
                None => (ALL_LIVE, 0), // undecodable: assume anything read
            };
            out_set |= uses | (live_out[s] & !defs);
        }
        if out_set != live_out[idx] {
            live_out[idx] = out_set;
            work.extend(&preds[idx]);
        }
    }

    let reachable = prog.reachable();
    for &idx in &reachable {
        let Some(instr) = prog.slots[idx].instr else {
            continue;
        };
        match instr {
            Instr::Falu(f) if f.vl >= 2 => {
                // Walk elements backward: element e's def is dead iff its
                // register is not in the live set after this element
                // (which includes later elements' uses).
                let mut live = live_out[idx];
                let mut dead = Vec::new();
                for e in (0..f.vl).rev() {
                    let refs = f.element(e);
                    if live & bit(refs.rr) == 0 {
                        dead.push((e, refs.rr));
                    }
                    live &= !bit(refs.rr);
                    live |= bit(refs.ra);
                    if !f.op.is_unary() {
                        live |= bit(refs.rb);
                    }
                }
                for (e, rr) in dead.into_iter().rev() {
                    out.push(Finding {
                        lint: Lint::VectorWawClobber,
                        instr_index: idx,
                        pc: prog.pc(idx),
                        message: format!(
                            "element {e} of `{f}` writes {rr}, but an overlapping \
                             vector write clobbers it before any read"
                        ),
                    });
                }
            }
            Instr::Falu(f) if live_out[idx] & bit(f.rr) == 0 => {
                out.push(Finding {
                    lint: Lint::DeadStore,
                    instr_index: idx,
                    pc: prog.pc(idx),
                    message: format!(
                        "result {} of `{f}` is overwritten on every path before \
                         being read",
                        f.rr
                    ),
                });
            }
            Instr::Fld { fr, .. } if live_out[idx] & bit(fr) == 0 => {
                out.push(Finding {
                    lint: Lint::DeadStore,
                    instr_index: idx,
                    pc: prog.pc(idx),
                    message: format!(
                        "load into {fr} is overwritten on every path before \
                         being read"
                    ),
                });
            }
            _ => {}
        }
    }
}
