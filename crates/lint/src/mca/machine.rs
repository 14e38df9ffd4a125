//! The abstract timing machine: a value-free replay of the simulator's
//! per-cycle hazard logic.
//!
//! `AbstractMachine` advances exactly the state the warm-cache timing
//! of `mt_sim::Machine` depends on — per-register ready horizons, the
//! load/store port, the fetch redirect, and the FPU ALU instruction
//! register — using the shared [`mt_isa::cost::InstrCost`] table, and
//! charges stall cycles to instruction indices in the same categories
//! and the same order as the simulator. On straight-line cache-warm
//! code its accounting is bit-identical to `RunStats` (enforced by
//! proptest in `tests/static_timing.rs`); see the module docs for the
//! exactness boundary. `AbstractMachine::exec` also hands back the ALU
//! IR each instruction found, which is what the provable ordering tier
//! ([`crate::ordering`]) checks loads and stores against.

use std::collections::BTreeMap;

use mt_isa::cost::{InstrCost, IssueTiming, FPU_LOAD_VISIBLE_AFTER};
use mt_isa::{FReg, FpuAluInstr, Instr, NUM_FPU_REGS};
use mt_sim::{StallBreakdown, ViolationKind};
use mt_trace::StallCause;

/// Aggregate predicted counters, mirroring the fields of
/// `mt_sim::RunStats` that are statically determined on warm code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// CPU instructions completed.
    pub instructions: u64,
    /// Cycles draining the FPU after `halt`.
    pub drain_cycles: u64,
    /// CPU stall cycles by cause.
    pub stalls: StallBreakdown,
    /// FPU ALU instructions transferred into the IR.
    pub transfers: u64,
    /// Vector elements issued.
    pub elements: u64,
    /// Floating-point operations issued.
    pub flops: u64,
    /// FPU-side scoreboard stall cycles (concurrent with CPU cycles; not
    /// part of the cycle identity).
    pub scoreboard_stalls: u64,
    /// FPU loads (`fld`) completed.
    pub fpu_loads: u64,
    /// FPU stores (`fst`) completed.
    pub fpu_stores: u64,
}

/// Per-instruction-index predicted attribution, mirroring the measured
/// `mt_trace::PcStats` categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcPrediction {
    /// Completions of this instruction.
    pub completions: u64,
    /// Stall cycles charged at this instruction, indexed by
    /// [`StallCause::index`].
    pub stalls: [u64; 7],
    /// Scoreboard stall cycles attributed to this (transferring)
    /// instruction.
    pub scoreboard_stalls: u64,
    /// Vector elements issued on behalf of this instruction.
    pub elements: u64,
    /// Drain cycles attributed to this instruction.
    pub drain: u64,
}

impl PcPrediction {
    /// Total CPU stall cycles charged here.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Cycles this instruction accounts for (completions + stalls +
    /// drain), the same identity as the measured profile.
    pub fn attributed_cycles(&self) -> u64 {
        self.completions + self.stall_cycles() + self.drain
    }
}

/// The FPU ALU instruction register: the transferred instruction and the
/// next element to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IrState {
    /// The transferred instruction.
    pub instr: FpuAluInstr,
    /// The next element to issue (the one the hardware interlocks).
    pub next_element: u8,
    /// Instruction index the transfer came from (attribution).
    pub src: usize,
}

/// A normalized machine state: every horizon expressed relative to the
/// current cycle. Two cycles with equal keys behave identically forever
/// given the same future instruction stream — the basis of the loop
/// steady-state detection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct StateKey {
    int_ready: [u64; 32],
    freg_ready: [u64; NUM_FPU_REGS as usize],
    ls_free: u64,
    fetch_ready: u64,
    ir: Option<(u32, u8)>,
}

/// The abstract timing machine. Create one per analyzed path; drive it
/// with [`AbstractMachine::exec`] per dynamic instruction and finish
/// with [`AbstractMachine::drain`].
#[derive(Debug, Clone)]
pub(crate) struct AbstractMachine {
    timing: IssueTiming,
    /// Current cycle (equals predicted total cycles after drain).
    pub cycle: u64,
    int_ready: [u64; 32],
    freg_ready: [u64; NUM_FPU_REGS as usize],
    ls_free_at: u64,
    fetch_ready_at: u64,
    ir: Option<IrState>,
    /// Index of the last transferred ALU instruction; scoreboard and
    /// drain cycles are attributed here, as in the simulator.
    last_ir_src: usize,
    /// Aggregate counters.
    pub counters: Counters,
    /// Per-instruction-index attribution.
    pub per_pc: BTreeMap<usize, PcPrediction>,
}

impl AbstractMachine {
    /// A machine at cycle 0 with every resource free, matching the state
    /// `Machine::reset_for_rerun` establishes for a warm run.
    pub fn new(timing: IssueTiming) -> AbstractMachine {
        AbstractMachine {
            timing,
            cycle: 0,
            int_ready: [0; 32],
            freg_ready: [0; NUM_FPU_REGS as usize],
            ls_free_at: 0,
            fetch_ready_at: 0,
            ir: None,
            last_ir_src: 0,
            counters: Counters::default(),
            per_pc: BTreeMap::new(),
        }
    }

    fn reserved(&self, r: FReg) -> bool {
        self.freg_ready[r.index() as usize] > self.cycle
    }

    /// The simulator's `current_element_conflict` under the default
    /// (paper, current-element-only) interlock.
    fn element_conflict(&self, fr: FReg, is_load: bool) -> bool {
        self.ir.is_some_and(|ir| {
            let refs = ir.instr.element(ir.next_element);
            ViolationKind::clashes(refs, ir.instr.op.is_unary(), fr, is_load) != [None, None]
        })
    }

    /// The FPU's issue phase, run once per cycle after the CPU phase:
    /// up to `fpu_lanes` consecutive elements issue in order, stopping at
    /// the first scoreboard-blocked one; only the first lane's blocked
    /// attempt charges a stall — the same per-cycle schedule and
    /// accounting as the simulator's `issue_and_record`.
    fn issue_phase(&mut self) {
        for lane in 0..self.timing.fpu_lanes.max(1) {
            let Some(ir) = self.ir else { return };
            let refs = ir.instr.element(ir.next_element);
            let blocked = self.reserved(refs.ra)
                || (!ir.instr.op.is_unary() && self.reserved(refs.rb))
                || self.reserved(refs.rr);
            if blocked {
                if lane == 0 {
                    self.counters.scoreboard_stalls += 1;
                    self.per_pc.entry(ir.src).or_default().scoreboard_stalls += 1;
                }
                return;
            }
            self.freg_ready[refs.rr.index() as usize] = self.cycle + self.timing.fpu_latency;
            self.counters.elements += 1;
            if ir.instr.op.is_flop() {
                self.counters.flops += 1;
            }
            let at = self.per_pc.entry(ir.src).or_default();
            at.elements += 1;
            self.ir = if ir.next_element + 1 == ir.instr.vl {
                None
            } else {
                Some(IrState {
                    next_element: ir.next_element + 1,
                    ..ir
                })
            };
        }
    }

    fn charge(&mut self, idx: usize, cause: StallCause) {
        debug_assert_ne!(cause, StallCause::Branch, "branch is charged in bulk");
        self.counters.stalls.add(cause, 1);
        self.per_pc.entry(idx).or_default().stalls[cause.index()] += 1;
    }

    /// The hazard guard of the CPU's execute phase, in the hardware's
    /// order. Returns the stall cause blocking `instr` this cycle.
    fn guard(&self, cost: &InstrCost, _instr: &Instr) -> Option<StallCause> {
        if cost
            .int_guard_regs()
            .any(|r| self.int_ready[r.index() as usize] > self.cycle)
        {
            return Some(StallCause::IntLoadHazard);
        }
        if cost.port.is_some() && self.ls_free_at > self.cycle {
            return Some(StallCause::LsPortBusy);
        }
        if let Some((fr, is_load)) = cost.fpu_mem {
            if self.reserved(fr) || self.element_conflict(fr, is_load) {
                return Some(StallCause::FpuRegHazard);
            }
        }
        if cost.fpu_transfer && self.ir.is_some() {
            return Some(StallCause::IrBusy);
        }
        None
    }

    /// Executes one dynamic instruction to completion: branch-bubble
    /// wait, hazard-stall cycles (each charged at `idx`), then the
    /// instruction's resource effects — exactly the simulator's per-cycle
    /// schedule with all cache penalties at zero. `taken` tells a
    /// conditional branch which way the analyzed path goes; it is
    /// ignored for every other instruction (`jump`/`jal`/`jr` always
    /// redirect). Returns the ALU IR as the instruction found it when it
    /// executed, before its own effects and that cycle's issue phase.
    pub fn exec(&mut self, idx: usize, instr: &Instr, taken: bool) -> Option<IrState> {
        // Branch bubble: fetch not ready, no stall accrues (the bubble
        // was charged in bulk at the branch), the issue phase still runs.
        while self.cycle < self.fetch_ready_at {
            self.issue_phase();
            self.cycle += 1;
        }
        let cost = InstrCost::of(instr);
        while let Some(cause) = self.guard(&cost, instr) {
            self.charge(idx, cause);
            self.issue_phase();
            self.cycle += 1;
        }
        let found = self.ir;
        // Effects, from the shared cost table.
        if let Some(port) = cost.port {
            self.ls_free_at = self.cycle + self.timing.port_cycles(port);
        }
        if let Some(rd) = cost.int_load_dest {
            self.int_ready[rd.index() as usize] = self.cycle + self.timing.int_load_delay_cycles;
        }
        if let Some((fr, is_load)) = cost.fpu_mem {
            if is_load {
                self.freg_ready[fr.index() as usize] = self.cycle + FPU_LOAD_VISIBLE_AFTER;
                self.counters.fpu_loads += 1;
            } else {
                self.counters.fpu_stores += 1;
            }
        }
        if cost.fpu_transfer {
            let Instr::Falu(f) = instr else {
                unreachable!("fpu_transfer is set only for Falu")
            };
            self.ir = Some(IrState {
                instr: *f,
                next_element: 0,
                src: idx,
            });
            self.last_ir_src = idx;
            self.counters.transfers += 1;
        }
        let redirects = match instr {
            Instr::Branch { .. } => taken,
            Instr::Jump { .. } | Instr::Jal { .. } | Instr::Jr { .. } => true,
            _ => false,
        };
        if redirects {
            self.counters.stalls.branch += self.timing.branch_penalty;
            self.per_pc.entry(idx).or_default().stalls[StallCause::Branch.index()] +=
                self.timing.branch_penalty;
            self.fetch_ready_at = self.cycle + 1 + self.timing.branch_penalty;
        }
        self.counters.instructions += 1;
        self.per_pc.entry(idx).or_default().completions += 1;
        self.issue_phase();
        self.cycle += 1;
        found
    }

    /// Drains the FPU after `halt`: the simulator's post-halt loop, with
    /// every drain cycle attributed to the last transferred instruction.
    pub fn drain(&mut self) {
        while self.ir.is_some() || self.freg_ready.iter().any(|&t| t > self.cycle) {
            self.counters.drain_cycles += 1;
            self.per_pc.entry(self.last_ir_src).or_default().drain += 1;
            self.issue_phase();
            self.cycle += 1;
        }
    }

    /// The machine state normalized to the current cycle; equal keys at
    /// two different cycles mean identical behaviour from there on.
    pub fn state_key(&self) -> StateKey {
        StateKey {
            int_ready: self.int_ready.map(|t| t.saturating_sub(self.cycle)),
            freg_ready: self.freg_ready.map(|t| t.saturating_sub(self.cycle)),
            ls_free: self.ls_free_at.saturating_sub(self.cycle),
            fetch_ready: self.fetch_ready_at.saturating_sub(self.cycle),
            ir: self.ir.map(|ir| (ir.instr.encode(), ir.next_element)),
        }
    }
}
