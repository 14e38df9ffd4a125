//! Per-instruction issue-cost and hazard metadata — the single source of
//! truth shared by the cycle simulator (`mt-sim`) and the static
//! cycle/throughput analyzer (`mt_lint::mca`).
//!
//! The timing model of the paper is statically knowable: a fixed 3-cycle
//! FPU latency, one load/store port (stores hold it two cycles, §2.4),
//! one integer load delay slot, a one-cycle taken-branch bubble, and the
//! scoreboard/IR interlocks of §2.3. This module captures that model as
//! data:
//!
//! * [`IssueTiming`] — the machine's cycle-cost parameters (previously
//!   private to `mt-sim`);
//! * [`InstrCost`] — which interlocks each instruction's execute stage
//!   checks, in guard order, and which resources it occupies on success.
//!
//! The simulator's execute stage and the analyzer's abstract timing
//! machine both consume these tables, so a change to the model (say a
//! different store port occupancy) propagates to both and they cannot
//! drift. The differential tests in `tests/static_timing.rs` enforce the
//! agreement bit for bit.

use mt_fparith::OP_LATENCY_CYCLES;

use crate::cpu::Instr;
use crate::reg::{FReg, IReg};

/// Cycles after the memory port latches FPU load data before an ALU
/// element issuing may read it ("data usable by an element issuing the
/// next cycle").
pub const FPU_LOAD_VISIBLE_AFTER: u64 = 1;

/// Cycle costs of instruction issue on the MultiTitan substrate.
///
/// All values are *beyond* any cache-miss penalty; the paper's kernel
/// figures (Figs. 5–8) assume warm caches, which is also the model the
/// static analyses of `mt-lint` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueTiming {
    /// Cycles a store occupies the load/store port (§2.4: "stores take
    /// two cycles").
    pub store_port_cycles: u64,
    /// Cycles a load occupies the load/store port.
    pub load_port_cycles: u64,
    /// Extra delay-slot cycles before an integer load's destination may be
    /// used (one load delay slot beyond port occupancy).
    pub int_load_delay_cycles: u64,
    /// FPU functional-unit latency in cycles (3 on the real machine).
    pub fpu_latency: u64,
    /// Cycles a taken branch costs beyond the branch itself.
    pub branch_penalty: u64,
    /// Element-issue lanes of the FPU ALU: how many consecutive vector
    /// elements the IR may issue (and hence retire) per cycle. The real
    /// machine has one lane; design-space sweeps widen it Ara-style.
    /// Elements still issue strictly in order — a scoreboard-blocked
    /// element blocks the lanes behind it — and only the first blocked
    /// attempt of a cycle charges a scoreboard stall, so `fpu_lanes = 1`
    /// is bit-identical to the pre-parameterized machine.
    pub fpu_lanes: u64,
}

impl IssueTiming {
    /// The paper's machine: 2-cycle stores, 1-cycle loads, one integer
    /// load delay slot, latency-3 FPU, 1-cycle branch bubble.
    pub fn multititan() -> IssueTiming {
        IssueTiming {
            store_port_cycles: 2,
            load_port_cycles: 1,
            int_load_delay_cycles: 2,
            fpu_latency: OP_LATENCY_CYCLES,
            branch_penalty: 1,
            fpu_lanes: 1,
        }
    }

    /// Port occupancy of one access direction.
    pub fn port_cycles(&self, port: PortUse) -> u64 {
        match port {
            PortUse::Load => self.load_port_cycles,
            PortUse::Store => self.store_port_cycles,
        }
    }
}

impl Default for IssueTiming {
    fn default() -> IssueTiming {
        IssueTiming::multititan()
    }
}

/// Which direction an instruction drives the single load/store port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortUse {
    /// One-cycle occupancy ([`IssueTiming::load_port_cycles`]).
    Load,
    /// Two-cycle occupancy ([`IssueTiming::store_port_cycles`], §2.4).
    Store,
}

/// Static issue metadata for one instruction: the interlocks its execute
/// stage checks (in the hardware's guard order — integer load interlock,
/// then load/store port, then FPU register hazard) and the resources it
/// reserves when it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrCost {
    /// CPU registers checked against the integer load interlock before
    /// the instruction may execute (`None` slots unused). The zero
    /// register is checked like any other: an integer load targeting
    /// `r0` discards its value but still occupies the delay slot.
    pub int_guards: [Option<IReg>; 2],
    /// Load/store port use, when the instruction is a memory access.
    pub port: Option<PortUse>,
    /// Destination of an integer load — enters the load delay slot
    /// ([`IssueTiming::int_load_delay_cycles`]) when the load executes.
    pub int_load_dest: Option<IReg>,
    /// FPU register driven over the memory port: `(register, is_load)`.
    /// Checked against the scoreboard and the IR's current element before
    /// execute; a load additionally reserves the register until the data
    /// becomes visible ([`FPU_LOAD_VISIBLE_AFTER`]).
    pub fpu_mem: Option<(FReg, bool)>,
    /// Whether the instruction transfers into the FPU ALU IR (stalling
    /// "issue busy" while a previous vector still occupies it).
    pub fpu_transfer: bool,
    /// Elements the instruction will issue through the single FPU lane
    /// once transferred (the vector length; zero for non-FPU-ALU
    /// instructions).
    pub element_issues: u64,
}

impl InstrCost {
    /// The cost/hazard metadata of `instr`.
    pub fn of(instr: &Instr) -> InstrCost {
        let mut c = InstrCost {
            int_guards: [None, None],
            port: None,
            int_load_dest: None,
            fpu_mem: None,
            fpu_transfer: false,
            element_issues: 0,
        };
        match *instr {
            Instr::Alu { rs1, rs2, .. } | Instr::Branch { rs1, rs2, .. } => {
                c.int_guards = [Some(rs1), Some(rs2)];
            }
            Instr::Addi { rs1, .. } => c.int_guards = [Some(rs1), None],
            Instr::Jr { rs } => c.int_guards = [Some(rs), None],
            Instr::Lw { rd, base, .. } => {
                c.int_guards = [Some(base), None];
                c.port = Some(PortUse::Load);
                c.int_load_dest = Some(rd);
            }
            Instr::Sw { rs, base, .. } => {
                c.int_guards = [Some(base), Some(rs)];
                c.port = Some(PortUse::Store);
            }
            Instr::Fld { fr, base, .. } => {
                c.int_guards = [Some(base), None];
                c.port = Some(PortUse::Load);
                c.fpu_mem = Some((fr, true));
            }
            Instr::Fst { fr, base, .. } => {
                c.int_guards = [Some(base), None];
                c.port = Some(PortUse::Store);
                c.fpu_mem = Some((fr, false));
            }
            Instr::Falu(f) => {
                c.fpu_transfer = true;
                c.element_issues = f.vl as u64;
            }
            // Nop, Halt, Mfpsw, ClrPsw, Lui, Jump, Jal never stall.
            Instr::Nop
            | Instr::Halt
            | Instr::Mfpsw { .. }
            | Instr::ClrPsw
            | Instr::Lui { .. }
            | Instr::Jump { .. }
            | Instr::Jal { .. } => {}
        }
        c
    }

    /// The registers of [`InstrCost::int_guards`], skipping unused slots.
    pub fn int_guard_regs(&self) -> impl Iterator<Item = IReg> + '_ {
        self.int_guards.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{AluOp, BranchCond};
    use crate::fpu::FpuAluInstr;
    use mt_fparith::FpOp;

    /// The paper's machine is whatever the *default* knobs say it is —
    /// asserting against `IssueTiming::default()` (not literals) keeps
    /// this test meaningful while non-default configurations exist: a
    /// drift between `multititan()` and the defaults the rest of the
    /// stack assumes is the bug being guarded against.
    #[test]
    fn multititan_matches_default_knobs() {
        let t = IssueTiming::multititan();
        let d = IssueTiming::default();
        assert_eq!(t, d, "default config IS the paper machine");
        assert_eq!(t.store_port_cycles, d.store_port_cycles);
        assert_eq!(t.load_port_cycles, d.load_port_cycles);
        assert_eq!(t.fpu_latency, OP_LATENCY_CYCLES);
        assert_eq!(t.fpu_lanes, d.fpu_lanes, "one element lane");
        assert_eq!(t.port_cycles(PortUse::Store), d.store_port_cycles);
        assert_eq!(t.port_cycles(PortUse::Load), d.load_port_cycles);
    }

    #[test]
    fn guard_sets_follow_the_execute_stage() {
        let r = IReg::new;
        let sw = InstrCost::of(&Instr::Sw {
            rs: r(5),
            base: r(1),
            offset: 0,
        });
        assert_eq!(sw.int_guards, [Some(r(1)), Some(r(5))]);
        assert_eq!(sw.port, Some(PortUse::Store));
        assert_eq!(sw.int_load_dest, None);

        let lw = InstrCost::of(&Instr::Lw {
            rd: r(7),
            base: r(2),
            offset: 4,
        });
        assert_eq!(lw.int_load_dest, Some(r(7)));
        assert_eq!(lw.port, Some(PortUse::Load));

        let fld = InstrCost::of(&Instr::Fld {
            fr: FReg::new(3),
            base: r(2),
            offset: 8,
        });
        assert_eq!(fld.fpu_mem, Some((FReg::new(3), true)));

        let br = InstrCost::of(&Instr::Branch {
            cond: BranchCond::Lt,
            rs1: r(3),
            rs2: r(4),
            offset: -2,
        });
        assert_eq!(br.int_guard_regs().count(), 2);

        let alu = InstrCost::of(&Instr::Alu {
            op: AluOp::Add,
            rd: r(5),
            rs1: r(6),
            rs2: r(7),
        });
        assert_eq!(alu.port, None);
        assert!(!alu.fpu_transfer);
    }

    #[test]
    fn vector_instruction_reports_its_element_count() {
        let v =
            FpuAluInstr::vector(FpOp::Add, FReg::new(8), FReg::new(0), FReg::new(4), 6).unwrap();
        let c = InstrCost::of(&Instr::Falu(v));
        assert!(c.fpu_transfer);
        assert_eq!(c.element_issues, 6);
        assert_eq!(c.int_guard_regs().count(), 0);
    }
}
