//! The §2.3.2 ordering analyzer.
//!
//! The hardware interlocks an FPU load/store only against the *current*
//! (next-to-issue) element of an in-flight vector; dependencies on later
//! elements are the compiler's responsibility ("the compiler must break the
//! vector"). Two tiers of static analysis enforce that rule:
//!
//! * **Possible hazards** (warnings): a control-flow worklist tracks which
//!   vector instructions *may* still be issuing when each load/store
//!   executes, with no timing assumptions. Any overlap between the
//!   load/store register and elements `1..VL` of a possibly-in-flight
//!   vector is flagged; where more than `MAX_TRACKED_VECTORS` vectors
//!   may be in flight, the load/store gets one warning that names none.
//!   This tier is a sound over-approximation of the dynamic check,
//!   [`mt_sim::ordering_violations`] over a recorded run: every dynamic
//!   `OrderingViolation` is covered by one of these findings (a property
//!   the cross-crate tests assert on random programs).
//! * **Provable violations** (errors): the straight-line entry block run
//!   on the abstract timing machine of [`crate::mca`] under the program's
//!   [`LintOptions::timing`], assuming warm caches (the paper's kernel
//!   protocol) and no overflow aborts — the same model the cycle
//!   analyzer uses, held bit-identical to the simulator. A hazard that
//!   fires under that timing is a definite program bug.
//!
//! Both tiers classify overlaps with [`ViolationKind::clashes`], the rule
//! the simulator's interlock and [`mt_sim::ordering_violations`] use.

use mt_isa::{FReg, FpuAluInstr, Instr};
use mt_sim::ViolationKind;

use crate::cfg::ProgramView;
use crate::diag::{Finding, Lint};
use crate::mca::machine::AbstractMachine;
use crate::LintOptions;

/// Cycle bound on the provable tier's replay: lint runs on untrusted
/// text (`POST /run?lint=1`), and any real entry block finishes far
/// sooner.
const MAX_REPLAY_CYCLES: u64 = 100_000;

/// Most vectors the possible-hazard tier names as maybe in flight at one
/// instruction. The sets grow at control-flow joins, so untrusted text
/// can make them as large as the program; a set past the cap stands for
/// any vector, stops growing, and gets one warning that names none.
const MAX_TRACKED_VECTORS: usize = 16;

/// What a load/store of `reg` does to pending `element` of `vector`.
fn describe(kind: ViolationKind, reg: FReg, vector: &FpuAluInstr, element: u8) -> String {
    let (access, clash) = match kind {
        ViolationKind::LoadClobbersPendingSource => ("load", "clobbers a source"),
        ViolationKind::LoadIntoPendingDest => ("load", "races the write"),
        ViolationKind::StoreReadsPendingDest => ("store", "reads the destination"),
    };
    format!("{access} of {reg} {clash} of pending element {element} of `{vector}`")
}

/// Overlaps between a load/store of `fr` and elements `first..VL` of
/// `vector` (the elements the hardware does not interlock).
fn overlaps(
    vector: FpuAluInstr,
    first: u8,
    fr: FReg,
    is_load: bool,
) -> impl Iterator<Item = (ViolationKind, u8)> {
    let unary = vector.op.is_unary();
    (first..vector.vl).flat_map(move |e| {
        let kinds = ViolationKind::clashes(vector.element(e), unary, fr, is_load);
        kinds.into_iter().flatten().map(move |kind| (kind, e))
    })
}

/// The possible-hazard tier: flow-sensitive, timing-insensitive.
pub fn possible_hazards(prog: &ProgramView, out: &mut Vec<Finding>) {
    let n = prog.slots.len();
    // Per-instruction entry state: the set of vector instructions (by
    // index) that may still occupy the ALU IR when control reaches it.
    // Executing any Falu proves the IR was empty (transfers stall
    // otherwise), so its out-state is itself alone; scalars (VL 1) have no
    // uninterlocked elements and propagate the empty set.
    let mut state: Vec<Option<Vec<usize>>> = vec![None; n];
    if n == 0 {
        return;
    }
    state[0] = Some(Vec::new());
    let mut work = vec![0usize];
    while let Some(idx) = work.pop() {
        let inflow = state[idx].clone().unwrap_or_default();
        let outflow = match prog.slots[idx].instr {
            Some(Instr::Falu(f)) => {
                if f.vl >= 2 {
                    vec![idx]
                } else {
                    Vec::new()
                }
            }
            _ => inflow,
        };
        for succ in prog.successors(idx) {
            let merged = match &state[succ] {
                None => Some(outflow.clone()),
                Some(existing) if existing.len() > MAX_TRACKED_VECTORS => None,
                Some(existing) => {
                    let mut m = existing.clone();
                    let mut grew = false;
                    for &v in &outflow {
                        if !m.contains(&v) {
                            m.push(v);
                            grew = true;
                        }
                    }
                    grew.then_some(m)
                }
            };
            if let Some(m) = merged {
                state[succ] = Some(m);
                work.push(succ);
            }
        }
    }

    for (idx, entry) in state.iter().enumerate() {
        let Some(inflow) = entry else {
            continue; // unreachable
        };
        let (fr, is_load) = match prog.slots[idx].instr {
            Some(Instr::Fld { fr, .. }) => (fr, true),
            Some(Instr::Fst { fr, .. }) => (fr, false),
            _ => continue,
        };
        if inflow.len() > MAX_TRACKED_VECTORS {
            let access = if is_load { "load into" } else { "store of" };
            out.push(Finding {
                lint: Lint::PossibleOrderingHazard,
                instr_index: idx,
                pc: prog.pc(idx),
                message: format!(
                    "{access} {fr} may execute while any of more than {MAX_TRACKED_VECTORS} \
                     vector instructions is still issuing; if one of them references \
                     {fr} in a later element, break it (§2.3.2)"
                ),
            });
            continue;
        }
        for &vec_idx in inflow {
            let Some(Instr::Falu(vector)) = prog.slots[vec_idx].instr else {
                continue;
            };
            // The hardware interlocks only the current element; with no
            // timing information any element from 1 up may be pending.
            for (kind, element) in overlaps(vector, 1, fr, is_load) {
                out.push(Finding {
                    lint: Lint::PossibleOrderingHazard,
                    instr_index: idx,
                    pc: prog.pc(idx),
                    message: format!(
                        "{} (transferred at instr #{vec_idx}); if the vector may still \
                         be issuing here, break it (§2.3.2)",
                        describe(kind, fr, &vector, element)
                    ),
                });
            }
        }
    }
}

/// The provable tier: the straight-line entry block (up to the first
/// control transfer, `halt`, undecodable word, or 100 000 cycles) on the
/// abstract timing machine. A load/store reports every overlap with the
/// elements after the current one of the vector it found in the ALU IR
/// when it executed — what [`mt_sim::ordering_violations`] reports for a
/// recorded run, under proven timing.
pub fn provable_violations(prog: &ProgramView, opts: &LintOptions, out: &mut Vec<Finding>) {
    let mut machine = AbstractMachine::new(opts.timing);
    for (idx, slot) in prog.slots.iter().enumerate() {
        let Some(instr) = slot.instr else { break };
        let access = match instr {
            Instr::Halt
            | Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::Jal { .. }
            | Instr::Jr { .. } => break,
            Instr::Fld { fr, .. } => Some((fr, true)),
            Instr::Fst { fr, .. } => Some((fr, false)),
            _ => None,
        };
        if machine.cycle > MAX_REPLAY_CYCLES {
            break;
        }
        let ir = machine.exec(idx, &instr, false);
        let (Some((fr, is_load)), Some(ir)) = (access, ir) else {
            continue;
        };
        for (kind, element) in overlaps(ir.instr, ir.next_element + 1, fr, is_load) {
            out.push(Finding {
                lint: Lint::OrderingViolation,
                instr_index: idx,
                pc: prog.pc(idx),
                message: format!(
                    "{} (transferred at instr #{}) under nominal warm-cache \
                     timing: break the vector (§2.3.2)",
                    describe(kind, fr, &ir.instr, element),
                    ir.src
                ),
            });
        }
    }
}
