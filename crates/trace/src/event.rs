//! The typed event stream: what happened, in which cycle, attributed to
//! which instruction.
//!
//! Events carry the program counter and text-section instruction index of
//! the instruction they belong to, so any consumer can attribute cycles
//! to source lines (through the assembler's `SourceMap`) without the
//! simulator knowing about source text at all. Vector elements and
//! post-halt drain cycles are attributed to the FPU ALU instruction that
//! transferred the vector — the same convention the paper's timing
//! diagrams use.

use std::fmt;

use mt_fparith::FpOp;
use mt_isa::fpu::ElementRefs;
use mt_isa::{FReg, FpuAluInstr, Instr};

/// Why the CPU could not complete its pending instruction this cycle.
///
/// Mirrors the simulator's `StallBreakdown` field for field; the
/// accounting-invariant tests assert that the per-cause event totals sum
/// exactly to the aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// FPU ALU transfer blocked: the ALU IR was still issuing a vector.
    IrBusy,
    /// Memory operation blocked: the load/store port was busy.
    LsPortBusy,
    /// FPU load/store blocked on a reserved FPU register.
    FpuRegHazard,
    /// CPU instruction blocked on an integer load delay interlock.
    IntLoadHazard,
    /// Instruction fetch penalty (instruction buffer / cache miss).
    Fetch,
    /// Data-cache miss freeze.
    DataMiss,
    /// Taken-branch bubble.
    Branch,
}

impl StallCause {
    /// All causes, in the `StallBreakdown` field order.
    pub const ALL: [StallCause; 7] = [
        StallCause::IrBusy,
        StallCause::LsPortBusy,
        StallCause::FpuRegHazard,
        StallCause::IntLoadHazard,
        StallCause::Fetch,
        StallCause::DataMiss,
        StallCause::Branch,
    ];

    /// Stable index into per-cause arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human-readable name (stable; used in reports and exports).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::IrBusy => "ir-busy",
            StallCause::LsPortBusy => "ls-port",
            StallCause::FpuRegHazard => "fpu-hazard",
            StallCause::IntLoadHazard => "int-hazard",
            StallCause::Fetch => "fetch",
            StallCause::DataMiss => "dcache-miss",
            StallCause::Branch => "branch",
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An FPU ALU instruction transferred from the CPU into the ALU IR
    /// (the address-bus cycle, `T` in the paper's diagrams).
    Transfer {
        /// PC of the transferring instruction.
        pc: u32,
        /// Text-section index of the transferring instruction.
        instr_index: u32,
        /// The transferred vector/scalar instruction.
        instr: FpuAluInstr,
    },
    /// One vector/scalar element issued into the functional units.
    ElementIssue {
        /// PC of the FPU ALU instruction the element belongs to.
        pc: u32,
        /// Text-section index of that instruction.
        instr_index: u32,
        /// The operation.
        op: FpOp,
        /// Element number within the vector (0-based).
        element: u8,
        /// The element's concrete register references.
        refs: ElementRefs,
        /// Functional-unit latency; the result retires at
        /// `cycle + latency`.
        latency: u64,
    },
    /// An element's result became architecturally visible.
    ElementRetire {
        /// Instruction identity assigned by the ALU IR at transfer.
        instr_id: u64,
        /// Element number within the vector.
        element: u8,
        /// Destination register written.
        dest: FReg,
    },
    /// A load's data became architecturally visible.
    LoadRetire {
        /// Destination register written.
        dest: FReg,
    },
    /// A vector overflow abort (§2.3.1) squashed the instruction's
    /// remaining elements.
    OverflowAbort {
        /// Destination of the overflowing element (recorded in the PSW).
        dest: FReg,
        /// Elements discarded (in flight + unissued).
        squashed: u64,
    },
    /// A data-cache access by a load/store (integer or floating-point).
    DcacheAccess {
        /// PC of the load/store.
        pc: u32,
        /// Text-section index of the load/store.
        instr_index: u32,
        /// `true` for stores (two port cycles), `false` for loads.
        store: bool,
        /// `true` when the access missed.
        miss: bool,
        /// Miss penalty in cycles (0 on a hit).
        penalty: u64,
    },
    /// The CPU completed an instruction this cycle (one per productive
    /// cycle; `c` in the timeline legend).
    CpuComplete {
        /// PC of the completed instruction.
        pc: u32,
        /// Text-section index of the completed instruction.
        instr_index: u32,
        /// The instruction.
        instr: Instr,
    },
    /// The CPU could not complete an instruction for `cycles` cycles.
    /// Multi-cycle penalties (miss freezes, branch bubbles, fetch
    /// penalties) are emitted once with the full span; per-cycle retries
    /// are emitted with `cycles == 1`.
    Stall {
        /// PC of the instruction held up (the fetched/fetching one).
        pc: u32,
        /// Text-section index of that instruction.
        instr_index: u32,
        /// Why.
        cause: StallCause,
        /// Number of cycles covered by this event.
        cycles: u64,
    },
    /// The ALU IR held an element whose operands or destination were
    /// still reserved (FPU-side stall; not a CPU stall cycle).
    ScoreboardStall {
        /// PC of the FPU ALU instruction in the IR.
        pc: u32,
        /// Text-section index of that instruction.
        instr_index: u32,
    },
    /// One post-halt cycle in which an in-flight vector kept issuing or
    /// draining after the CPU stopped (§2.3.1).
    Drain {
        /// PC of the last transferred FPU ALU instruction.
        pc: u32,
        /// Text-section index of that instruction.
        instr_index: u32,
    },
}

/// One event of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Cycle in which the event happened (monotone non-decreasing within
    /// a recorded stream).
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The instruction attribution `(pc, instr_index)` of the event, if
    /// it has one. Retirements carry register/identity information only —
    /// consumers that need their provenance join on `instr_id`.
    pub fn attribution(&self) -> Option<(u32, u32)> {
        match self.kind {
            EventKind::Transfer {
                pc, instr_index, ..
            }
            | EventKind::ElementIssue {
                pc, instr_index, ..
            }
            | EventKind::DcacheAccess {
                pc, instr_index, ..
            }
            | EventKind::CpuComplete {
                pc, instr_index, ..
            }
            | EventKind::Stall {
                pc, instr_index, ..
            }
            | EventKind::ScoreboardStall { pc, instr_index }
            | EventKind::Drain { pc, instr_index } => Some((pc, instr_index)),
            EventKind::ElementRetire { .. }
            | EventKind::LoadRetire { .. }
            | EventKind::OverflowAbort { .. } => None,
        }
    }

    /// The CPU log's line for this event — cycle, PC and disassembly of a
    /// completed instruction (`mtasm run --trace`, `/run?trace=1`) — or
    /// `None` for every event that is not a [`EventKind::CpuComplete`].
    /// The log is a view of the stream, not a second record of the run.
    pub fn cpu_log_line(&self) -> Option<String> {
        match self.kind {
            EventKind::CpuComplete { pc, instr, .. } => {
                Some(format!("{:>8}  {pc:#07x}  {instr}", self.cycle))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_indices_are_dense_and_ordered() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn attribution_covers_attributable_kinds() {
        let ev = TraceEvent {
            cycle: 3,
            kind: EventKind::Stall {
                pc: 0x1_0004,
                instr_index: 1,
                cause: StallCause::Branch,
                cycles: 1,
            },
        };
        assert_eq!(ev.attribution(), Some((0x1_0004, 1)));
        let retire = TraceEvent {
            cycle: 3,
            kind: EventKind::LoadRetire { dest: FReg::new(0) },
        };
        assert_eq!(retire.attribution(), None);
    }

    #[test]
    fn cpu_log_line_formats_completions_only() {
        let done = TraceEvent {
            cycle: 12,
            kind: EventKind::CpuComplete {
                pc: 0x1_0004,
                instr_index: 1,
                instr: Instr::Halt,
            },
        };
        assert_eq!(
            done.cpu_log_line().as_deref(),
            Some("      12  0x10004  halt")
        );
        let stall = TraceEvent {
            cycle: 12,
            kind: EventKind::Stall {
                pc: 0x1_0004,
                instr_index: 1,
                cause: StallCause::Fetch,
                cycles: 3,
            },
        };
        assert_eq!(stall.cpu_log_line(), None);
    }
}
