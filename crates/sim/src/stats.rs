//! Run statistics: cycle and FLOP accounting, stall breakdowns, cache
//! behaviour, and the §2.3.2 ordering diagnostics of a recorded run
//! ([`ordering_violations`]).

use std::fmt;

use mt_core::FpuStats;
use mt_fparith::latency::mflops;
use mt_isa::cost::InstrCost;
use mt_isa::fpu::ElementRefs;
use mt_isa::{FReg, FpuAluInstr};
use mt_mem::CacheStats;
use mt_trace::{EventKind, StallCause, TraceEvent};

/// Why the CPU could not complete an instruction in a given cycle: one
/// counter per [`StallCause`], in its order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// FPU ALU transfer blocked: the ALU IR was still issuing a vector.
    pub ir_busy: u64,
    /// Memory operation blocked: the load/store port was busy.
    pub ls_port_busy: u64,
    /// FPU load/store blocked on a reserved FPU register.
    pub fpu_reg_hazard: u64,
    /// CPU instruction blocked on an integer load delay interlock.
    pub int_load_hazard: u64,
    /// Instruction fetch penalties (instruction buffer / cache misses).
    pub fetch: u64,
    /// Data-cache miss freeze cycles.
    pub data_miss: u64,
    /// Taken-branch bubbles.
    pub branch: u64,
}

impl StallBreakdown {
    /// Charges `cycles` stall cycles to `cause`'s counter.
    #[inline]
    pub fn add(&mut self, cause: StallCause, cycles: u64) {
        *match cause {
            StallCause::IrBusy => &mut self.ir_busy,
            StallCause::LsPortBusy => &mut self.ls_port_busy,
            StallCause::FpuRegHazard => &mut self.fpu_reg_hazard,
            StallCause::IntLoadHazard => &mut self.int_load_hazard,
            StallCause::Fetch => &mut self.fetch,
            StallCause::DataMiss => &mut self.data_miss,
            StallCause::Branch => &mut self.branch,
        } += cycles;
    }

    /// The stalls accrued since `earlier`, a snapshot of the same
    /// counters.
    pub fn since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            ir_busy: self.ir_busy - earlier.ir_busy,
            ls_port_busy: self.ls_port_busy - earlier.ls_port_busy,
            fpu_reg_hazard: self.fpu_reg_hazard - earlier.fpu_reg_hazard,
            int_load_hazard: self.int_load_hazard - earlier.int_load_hazard,
            fetch: self.fetch - earlier.fetch,
            data_miss: self.data_miss - earlier.data_miss,
            branch: self.branch - earlier.branch,
        }
    }

    /// Adds `delta`, the stalls of another stretch of execution.
    pub(crate) fn add_all(&mut self, delta: &StallBreakdown) {
        self.ir_busy += delta.ir_busy;
        self.ls_port_busy += delta.ls_port_busy;
        self.fpu_reg_hazard += delta.fpu_reg_hazard;
        self.int_load_hazard += delta.int_load_hazard;
        self.fetch += delta.fetch;
        self.data_miss += delta.data_miss;
        self.branch += delta.branch;
    }

    /// Total stall cycles.
    pub fn total(&self) -> u64 {
        self.ir_busy
            + self.ls_port_busy
            + self.fpu_reg_hazard
            + self.int_load_hazard
            + self.fetch
            + self.data_miss
            + self.branch
    }
}

/// The kind of §2.3.2 ordering rule violated ([`ordering_violations`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A load wrote a register that a not-yet-issued element of an earlier
    /// vector instruction still has to *read* (the element will see the new
    /// value instead of the program-order value).
    LoadClobbersPendingSource,
    /// A load targets a register that a not-yet-issued element will write
    /// (the element's later write will clobber the load).
    LoadIntoPendingDest,
    /// A store read a register that a not-yet-issued element of an earlier
    /// vector instruction will write (the store sees the stale value).
    StoreReadsPendingDest,
}

impl ViolationKind {
    /// The §2.3.2 overlap rule, shared by the simulator's interlock,
    /// [`ordering_violations`] and both static analyzers: the ways a load
    /// (`is_load`) or store of `fr` clashes with one vector element
    /// touching `refs`, in reporting order (`[None, None]` when they do
    /// not clash). A load clashes with an element that reads its register
    /// (`ra`, or `rb` unless the op is `unary`) or writes it (`rr`); a
    /// store clashes only with an element that writes it.
    #[inline]
    pub fn clashes(
        refs: ElementRefs,
        unary: bool,
        fr: FReg,
        is_load: bool,
    ) -> [Option<ViolationKind>; 2] {
        let writes = refs.rr == fr;
        if is_load {
            let reads = refs.ra == fr || (!unary && refs.rb == fr);
            [
                reads.then_some(ViolationKind::LoadClobbersPendingSource),
                writes.then_some(ViolationKind::LoadIntoPendingDest),
            ]
        } else {
            [writes.then_some(ViolationKind::StoreReadsPendingDest), None]
        }
    }
}

/// One §2.3.2 ordering diagnostic of [`ordering_violations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingViolation {
    /// Cycle of the offending load/store.
    pub cycle: u64,
    /// What went wrong.
    pub kind: ViolationKind,
    /// The register involved.
    pub reg: FReg,
    /// Program counter of the offending load/store.
    pub pc: u32,
    /// Index of the offending load/store in the program's text section
    /// (`(pc - entry) / 4`), matching `mt-lint` finding indices.
    pub instr_index: usize,
}

impl fmt::Display for OrderingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instr #{} (pc {:#x}), cycle {}: {:?} on {} (compiler must break the vector, §2.3.2)",
            self.instr_index, self.pc, self.cycle, self.kind, self.reg
        )
    }
}

/// The §2.3.2 software rule over a recorded run
/// ([`crate::Machine::run_with_sink`] into a `Vec<TraceEvent>`): each FPU
/// load or store that completed while an element of the in-flight vector
/// beyond the interlocked current one referenced its register yields that
/// element's [`ViolationKind::clashes`], in element order, stamped with
/// the load/store's cycle, `pc` and `instr_index`.
///
/// The view follows the ALU IR through the events: `Transfer` loads it,
/// `ElementIssue` advances it and its last element empties it, and an
/// `OverflowAbort` at cycle C empties it when its occupant transferred at
/// or before C − latency (the overflowing element issued `latency` cycles
/// earlier, so it is the occupant's exactly then). A cycle's events come
/// in phase order (retire, CPU, issue), so a load or store's
/// `CpuComplete` sees the IR the machine's interlock saw. The stream must
/// start with an idle FPU, as every run from `load_program`,
/// `reset_for_rerun` or `reset_for_new_job` does; the streams of a paused
/// and resumed run may be concatenated.
pub fn ordering_violations(events: &[TraceEvent]) -> Vec<OrderingViolation> {
    // The IR's occupant: instruction, next element, transfer cycle.
    let mut ir: Option<(FpuAluInstr, u8, u64)> = None;
    let mut latency = 0;
    let mut violations = Vec::new();
    for event in events {
        match event.kind {
            EventKind::Transfer { instr, .. } => ir = Some((instr, 0, event.cycle)),
            EventKind::ElementIssue {
                element,
                latency: l,
                ..
            } => {
                latency = l;
                ir = ir
                    .map(|(instr, _, at)| (instr, element + 1, at))
                    .filter(|(instr, next, _)| *next < instr.vl);
            }
            EventKind::OverflowAbort { .. }
                if ir.is_some_and(|(_, _, at)| at + latency <= event.cycle) =>
            {
                ir = None;
            }
            EventKind::CpuComplete {
                pc,
                instr_index,
                instr,
            } => {
                let (Some((fr, is_load)), Some((vector, next, _))) =
                    (InstrCost::of(&instr).fpu_mem, ir)
                else {
                    continue;
                };
                let unary = vector.op.is_unary();
                for e in next + 1..vector.vl {
                    for kind in ViolationKind::clashes(vector.element(e), unary, fr, is_load)
                        .into_iter()
                        .flatten()
                    {
                        violations.push(OrderingViolation {
                            cycle: event.cycle,
                            kind,
                            reg: fr,
                            pc,
                            instr_index: instr_index as usize,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    violations
}

/// Statistics of one run (or the delta of a warm re-run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total cycles from entry to halt.
    pub cycles: u64,
    /// CPU instructions completed.
    pub instructions: u64,
    /// Cycles spent draining the FPU after the CPU halted (§2.3.1: vector
    /// ALU instructions continue long after the CPU stops).
    pub drain_cycles: u64,
    /// FPU counters (elements, FLOPs, loads, stores, …).
    pub fpu: FpuStats,
    /// CPU stall breakdown.
    pub stalls: StallBreakdown,
    /// Data cache behaviour.
    pub dcache: CacheStats,
    /// Instruction cache behaviour.
    pub icache: CacheStats,
    /// Instruction buffer behaviour.
    pub ibuffer: CacheStats,
}

impl RunStats {
    /// Double-precision MFLOPS at the 40 ns clock.
    pub fn mflops(&self) -> f64 {
        mflops(self.fpu.flops, self.cycles)
    }

    /// CPU instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Total operations (CPU instructions + FPU elements) per cycle — the
    /// metric behind the paper's "two operations per cycle" peak.
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.instructions + self.fpu.elements_issued) as f64 / self.cycles as f64
        }
    }

    /// Cycles explained by the accounting model: every cycle either
    /// completes a CPU instruction, is charged to exactly one stall cause,
    /// or drains the FPU after halt. For a plain run-to-halt (no external
    /// interrupt, no cycle-limit abort) this equals [`RunStats::cycles`] —
    /// the invariant `tests/observability.rs` asserts over every shipped
    /// kernel.
    pub fn accounted_cycles(&self) -> u64 {
        self.instructions + self.stalls.total() + self.drain_cycles
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cycles, {} instructions (IPC {:.2}), {} FP elements, {:.2} MFLOPS",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.fpu.elements_issued,
            self.mflops()
        )?;
        writeln!(
            f,
            "stalls: ir_busy {} ls_port {} fpu_hazard {} int_hazard {} fetch {} dmiss {} branch {}",
            self.stalls.ir_busy,
            self.stalls.ls_port_busy,
            self.stalls.fpu_reg_hazard,
            self.stalls.int_load_hazard,
            self.stalls.fetch,
            self.stalls.data_miss,
            self.stalls.branch
        )?;
        if self.drain_cycles > 0 {
            writeln!(f, "fpu drain after halt: {} cycles", self.drain_cycles)?;
        }
        write!(f, "dcache: {} | ibuffer: {}", self.dcache, self.ibuffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mflops_accounting() {
        let stats = RunStats {
            cycles: 35,
            fpu: FpuStats {
                flops: 28,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((stats.mflops() - 20.0).abs() < 1e-9, "Fig. 13 anchor");
    }

    #[test]
    fn rates_handle_zero_cycles() {
        let stats = RunStats::default();
        assert_eq!(stats.mflops(), 0.0);
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.ops_per_cycle(), 0.0);
    }

    #[test]
    fn breakdown_total() {
        let b = StallBreakdown {
            ir_busy: 1,
            ls_port_busy: 2,
            fpu_reg_hazard: 3,
            int_load_hazard: 4,
            fetch: 5,
            data_miss: 6,
            branch: 7,
        };
        assert_eq!(b.total(), 28);
    }

    #[test]
    fn add_charges_each_cause_to_its_own_counter() {
        let mut b = StallBreakdown::default();
        for (i, cause) in StallCause::ALL.into_iter().enumerate() {
            b.add(cause, i as u64 + 1);
        }
        let want = StallBreakdown {
            ir_busy: 1,
            ls_port_busy: 2,
            fpu_reg_hazard: 3,
            int_load_hazard: 4,
            fetch: 5,
            data_miss: 6,
            branch: 7,
        };
        assert_eq!(b, want);
        let earlier = b;
        b.add(StallCause::Fetch, 10);
        assert_eq!(
            b.since(&earlier),
            StallBreakdown {
                fetch: 10,
                ..StallBreakdown::default()
            }
        );
    }

    #[test]
    fn display_is_informative() {
        let s = RunStats {
            cycles: 10,
            instructions: 5,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("10 cycles"));
        assert!(text.contains("stalls:"));
    }
}
