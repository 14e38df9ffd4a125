//! The assembled FPU and its per-cycle interface.
//!
//! The whole-system simulator drives the FPU with a strict phase order each
//! cycle, which encodes the paper's timing exactly:
//!
//! 1. [`Fpu::begin_cycle`] — retirement: completed writes become
//!    architecturally visible and their reservations clear. An operation
//!    issued at cycle *t* is readable by operations issuing at *t + 3*
//!    (loads at *t + 1*), giving the 3-cycle latency "including the time
//!    required to bypass the result into a successive computation".
//! 2. CPU actions — transferring a new ALU instruction into the IR
//!    ([`Fpu::try_transfer`]), driving the memory port
//!    ([`Fpu::load_write`] / [`Fpu::read_reg`]).
//! 3. [`Fpu::issue`] — the ALU IR issues its current element through the
//!    scalar issue path if the scoreboard permits.
//!
//! Because the CPU phase precedes the issue phase, an instruction
//! transferred at cycle *t* issues its first element at *t* (as in Fig. 5),
//! while the IR only frees for the *next* transfer in the cycle after its
//! last element issues (as in Fig. 7).

use mt_fparith::{execute, Exceptions, FpOp, OP_LATENCY_CYCLES};
use mt_isa::{FReg, FpuAluInstr};
use mt_trace::{EventKind, EventSink, NullSink, TraceEvent};

use crate::alu_ir::AluIr;
use crate::pipeline::{InFlight, Pipeline, WriteSource};
use crate::psw::Psw;
use crate::regfile::RegisterFile;
use crate::scoreboard::Scoreboard;

/// Cycles between an FPU load's issue and its data being readable by an ALU
/// element ("single-cycle load/store latency from the cache", §2.2.1).
pub const LOAD_VISIBLE_AFTER: u64 = mt_isa::cost::FPU_LOAD_VISIBLE_AFTER;

/// Result of one issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// An element issued this cycle.
    Issued {
        /// The operation issued.
        op: FpOp,
        /// Destination register of the element.
        dest: FReg,
        /// The element's full register references (for tracing).
        refs: mt_isa::fpu::ElementRefs,
        /// Which element of the vector issued (0 for scalars).
        element: u8,
    },
    /// The IR holds an element but a scoreboard reservation blocked it.
    Stalled,
    /// The IR is empty.
    Idle,
}

/// Counters accumulated by the FPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpuStats {
    /// ALU instructions transferred from the CPU.
    pub instructions_transferred: u64,
    /// Vector elements issued (scalars count as one element).
    pub elements_issued: u64,
    /// Elements counted as floating-point operations (MFLOPS numerator).
    pub flops: u64,
    /// Cycles in which the IR held an element that could not issue.
    pub scoreboard_stall_cycles: u64,
    /// FPU loads written through the memory port.
    pub loads: u64,
    /// FPU stores read through the memory port.
    pub stores: u64,
    /// Vector overflow aborts (§2.3.1).
    pub overflow_aborts: u64,
    /// Elements discarded by overflow aborts.
    pub elements_squashed: u64,
}

impl FpuStats {
    /// The counts accrued since `earlier`, a snapshot of the same
    /// counters.
    pub fn since(&self, earlier: &FpuStats) -> FpuStats {
        FpuStats {
            instructions_transferred: self.instructions_transferred
                - earlier.instructions_transferred,
            elements_issued: self.elements_issued - earlier.elements_issued,
            flops: self.flops - earlier.flops,
            scoreboard_stall_cycles: self.scoreboard_stall_cycles - earlier.scoreboard_stall_cycles,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            overflow_aborts: self.overflow_aborts - earlier.overflow_aborts,
            elements_squashed: self.elements_squashed - earlier.elements_squashed,
        }
    }

    /// Adds `delta`, the counts of another stretch of execution.
    pub fn add(&mut self, delta: &FpuStats) {
        self.instructions_transferred += delta.instructions_transferred;
        self.elements_issued += delta.elements_issued;
        self.flops += delta.flops;
        self.scoreboard_stall_cycles += delta.scoreboard_stall_cycles;
        self.loads += delta.loads;
        self.stores += delta.stores;
        self.overflow_aborts += delta.overflow_aborts;
        self.elements_squashed += delta.elements_squashed;
    }
}

/// The MultiTitan FPU.
#[derive(Debug, Clone)]
pub struct Fpu {
    regs: RegisterFile,
    scoreboard: Scoreboard,
    ir: AluIr,
    pipeline: Pipeline,
    psw: Psw,
    stats: FpuStats,
    latency: u64,
}

impl Default for Fpu {
    fn default() -> Fpu {
        Fpu::new()
    }
}

impl Fpu {
    /// Creates an idle FPU with a zeroed register file and the paper's
    /// 3-cycle functional-unit latency.
    pub fn new() -> Fpu {
        Fpu::with_latency(OP_LATENCY_CYCLES)
    }

    /// Creates an FPU with a non-standard functional-unit latency (used by
    /// the §2.2 ablation studies; the real machine is 3 cycles).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn with_latency(latency: u64) -> Fpu {
        assert!(latency > 0, "functional-unit latency must be at least 1");
        Fpu {
            regs: RegisterFile::new(),
            scoreboard: Scoreboard::new(),
            ir: AluIr::new(),
            pipeline: Pipeline::new(),
            psw: Psw::new(),
            stats: FpuStats::default(),
            latency,
        }
    }

    /// The configured functional-unit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Phase 1: retires every write that becomes visible at `cycle`,
    /// accumulating PSW flags and applying the overflow-abort rule.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.begin_cycle_with(cycle, &mut NullSink);
    }

    /// [`Fpu::begin_cycle`] with an event sink: each retiring write emits
    /// an [`EventKind::ElementRetire`] or [`EventKind::LoadRetire`], and
    /// an overflow abort emits [`EventKind::OverflowAbort`] carrying the
    /// number of squashed elements.
    #[inline]
    pub fn begin_cycle_with<S: EventSink>(&mut self, cycle: u64, sink: &mut S) {
        while let Some(retired) = self.pipeline.pop_ready(cycle) {
            self.regs.write(retired.dest, retired.value);
            self.scoreboard.clear(retired.dest);
            self.psw.accumulate(retired.flags);

            match retired.source {
                WriteSource::AluElement { instr_id, element } => {
                    if sink.enabled() {
                        sink.event(&TraceEvent {
                            cycle,
                            kind: EventKind::ElementRetire {
                                instr_id,
                                element,
                                dest: retired.dest,
                            },
                        });
                    }
                    if retired.flags.contains(Exceptions::OVERFLOW) {
                        let squashed = self.overflow_abort(instr_id, element, retired.dest);
                        if sink.enabled() {
                            sink.event(&TraceEvent {
                                cycle,
                                kind: EventKind::OverflowAbort {
                                    dest: retired.dest,
                                    squashed,
                                },
                            });
                        }
                    }
                }
                WriteSource::Load => {
                    if sink.enabled() {
                        sink.event(&TraceEvent {
                            cycle,
                            kind: EventKind::LoadRetire { dest: retired.dest },
                        });
                    }
                }
            }
        }
    }

    /// §2.3.1: discard all remaining elements of the overflowing vector
    /// instruction — both unissued (clear the IR) and in flight (squash) —
    /// and record the first overflowing destination in the PSW. Returns
    /// the number of elements discarded.
    fn overflow_abort(&mut self, instr_id: u64, element: u8, dest: FReg) -> u64 {
        self.psw.record_overflow(dest);
        self.stats.overflow_aborts += 1;
        let mut squashed = 0u64;
        for squashed_dest in self.pipeline.squash_after(instr_id, element) {
            self.scoreboard.clear(squashed_dest);
            squashed += 1;
        }
        if let Some(active) = self.ir.active() {
            if active.id == instr_id {
                squashed += active.remaining() as u64;
                self.ir.squash();
            }
        }
        self.stats.elements_squashed += squashed;
        squashed
    }

    /// Phase 2 (CPU): attempts to transfer an ALU instruction into the IR.
    /// Returns `false` (CPU must stall) while a previous vector is still
    /// issuing.
    pub fn try_transfer(&mut self, instr: FpuAluInstr) -> bool {
        if self.ir.occupied() {
            return false;
        }
        self.ir.load(instr);
        self.stats.instructions_transferred += 1;
        true
    }

    /// Phase 3: the IR attempts to issue its current element through the
    /// scalar issue path. Operands are read and the operation executed at
    /// issue; the result becomes visible `OP_LATENCY_CYCLES` later.
    #[inline]
    pub fn issue(&mut self, cycle: u64) -> IssueOutcome {
        self.issue_lane(cycle, true)
    }

    /// One lane's issue attempt of a (possibly multi-lane) issue cycle.
    ///
    /// Identical to [`Fpu::issue`] except that a scoreboard-blocked
    /// element only charges a stall cycle when `charge_stall` is set: on a
    /// machine with `fpu_lanes > 1` the simulator retries the IR up to
    /// `fpu_lanes` times per cycle, and only the *first* blocked attempt
    /// represents a cycle the hardware spent stalled — later lanes going
    /// unused after an earlier element issued is ordinary issue-width
    /// under-utilization, not a stall. With `charge_stall = true` this is
    /// exactly the single-lane machine's accounting.
    #[inline]
    pub fn issue_lane(&mut self, cycle: u64, charge_stall: bool) -> IssueOutcome {
        let Some(active) = self.ir.active() else {
            return IssueOutcome::Idle;
        };
        let refs = active.current_refs();
        let op = active.instr.op;
        let id = active.id;

        if self.element_blocked(op, refs) {
            if charge_stall {
                self.stats.scoreboard_stall_cycles += 1;
            }
            return IssueOutcome::Stalled;
        }

        let a = self.regs.read(refs.ra);
        let b = self.regs.read(refs.rb);
        let (value, flags) = execute(op, a, b);
        let element = self.ir.advance();
        self.scoreboard.reserve(refs.rr);
        self.pipeline.push(InFlight {
            ready_at: cycle + self.latency,
            dest: refs.rr,
            value,
            flags,
            source: WriteSource::AluElement {
                instr_id: id,
                element,
            },
        });
        self.stats.elements_issued += 1;
        if op.is_flop() {
            self.stats.flops += 1;
        }
        IssueOutcome::Issued {
            op,
            dest: refs.rr,
            refs,
            element,
        }
    }

    /// Returns `true` if an outstanding operation will write `r` — the
    /// memory-port scoreboard check ("1 read for loads and stores").
    #[inline]
    pub fn reg_reserved(&self, r: FReg) -> bool {
        self.scoreboard.is_reserved(r)
    }

    /// Memory port, load direction: latches data for register `r`; the
    /// value is readable by ALU elements issuing at `cycle + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is reserved — the load/store control checks the
    /// scoreboard before driving the port.
    pub fn load_write(&mut self, r: FReg, bits: u64, cycle: u64) {
        assert!(
            !self.reg_reserved(r),
            "load drives {r} while it is reserved: the L/S control must stall"
        );
        self.scoreboard.reserve(r);
        self.pipeline.push(InFlight {
            ready_at: cycle + LOAD_VISIBLE_AFTER,
            dest: r,
            value: bits,
            flags: Exceptions::empty(),
            source: WriteSource::Load,
        });
        self.stats.loads += 1;
    }

    /// Memory port, store direction: reads register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is reserved (the L/S control must stall the store).
    pub fn read_reg_for_store(&mut self, r: FReg) -> u64 {
        assert!(
            !self.reg_reserved(r),
            "store reads {r} while it is reserved: the L/S control must stall"
        );
        self.stats.stores += 1;
        self.regs.read(r)
    }

    /// Reads a register (architectural state; test/inspection use).
    pub fn read_reg(&self, r: FReg) -> u64 {
        self.regs.read(r)
    }

    /// Writes a register directly, bypassing timing (workload setup).
    pub fn write_reg_direct(&mut self, r: FReg, bits: u64) {
        self.regs.write(r, bits);
    }

    /// The register file (inspection).
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable register file access (workload setup).
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// The PSW.
    pub fn psw(&self) -> &Psw {
        &self.psw
    }

    /// Clears the PSW (supervisor write).
    pub fn clear_psw(&mut self) {
        self.psw.clear();
    }

    /// Mutable PSW access (fault-injection hook).
    pub fn psw_mut(&mut self) -> &mut Psw {
        &mut self.psw
    }

    /// Fault-injection hook: flips `r`'s scoreboard reservation bit.
    /// Setting a bit with no in-flight write models a stuck reservation —
    /// the issue and load/store logic will wait forever for a retirement
    /// that is not coming, which is exactly what the simulator's watchdog
    /// exists to catch. The issue paths all check `is_reserved` before
    /// acting, so a flipped bit stalls or misorders but never trips the
    /// internal `debug_assert`s.
    pub fn flip_scoreboard(&mut self, r: FReg) {
        self.scoreboard.toggle(r);
    }

    /// Fault-injection hook: flips one bit of an in-flight result latch
    /// (see [`Pipeline::flip_value_bit`]). Returns `false` when the
    /// pipeline is empty — a masked fault by construction.
    pub fn flip_in_flight_value(&mut self, slot: usize, bit: u32) -> bool {
        self.pipeline.flip_value_bit(slot, bit)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FpuStats {
        &self.stats
    }

    /// Returns `true` while the ALU IR is occupied (a transfer would stall).
    #[inline]
    pub fn ir_busy(&self) -> bool {
        self.ir.occupied()
    }

    /// The instruction currently occupying the IR, if any (the
    /// simulator's load/store interlock inspects its unissued elements;
    /// `mt_sim::ordering_violations` follows the same IR through a
    /// recorded run's events).
    pub fn ir_active(&self) -> Option<&crate::alu_ir::ActiveVector> {
        self.ir.active()
    }

    /// Returns `true` while anything is in flight or pending issue.
    pub fn busy(&self) -> bool {
        self.ir.occupied() || !self.pipeline.is_empty()
    }

    /// Commits a stretch of execution that wrote its loads and element
    /// results straight into the register file, leaving the pipeline and
    /// the IR as they were at its start: drops the first `retired` writes
    /// in flight (their values are written already), adds the stretch's
    /// counters, moves the IR's instruction ids past its transfers, ORs
    /// the flags of what retired in it into the PSW, puts back in flight
    /// the writes it `issued` that are still on their way (their
    /// registers hold the old values), and leaves `ir` in the IR — what
    /// the transfers, issues and retirements of that stretch would have
    /// left behind.
    #[inline]
    pub fn commit_replayed(
        &mut self,
        delta: &FpuStats,
        flags: Exceptions,
        retired: usize,
        issued: &[InFlight],
        ir: Option<(FpuAluInstr, u8)>,
    ) {
        for _ in 0..retired {
            let w = self
                .pipeline
                .pop_ready(u64::MAX)
                .expect("a write in flight");
            self.scoreboard.clear(w.dest);
        }
        self.stats.add(delta);
        self.ir.skip_ids(delta.instructions_transferred);
        self.psw.accumulate(flags);
        for &w in issued {
            self.scoreboard.reserve(w.dest);
            self.pipeline.push(w);
        }
        self.ir.resume(ir);
        debug_assert_eq!(
            self.scoreboard.count() as usize,
            self.pipeline.len(),
            "a replay leaves one reservation per write in flight"
        );
    }

    /// The writes in flight, in retirement order.
    pub fn writes_in_flight(&self) -> impl Iterator<Item = &InFlight> + '_ {
        self.pipeline.iter()
    }

    /// Number of outstanding register reservations (equals the number of
    /// in-flight writes — an invariant the property tests assert).
    pub fn reservations(&self) -> u32 {
        self.scoreboard.count()
    }

    /// Number of operations in the functional-unit pipelines.
    pub fn in_flight(&self) -> usize {
        self.pipeline.len()
    }

    /// The earliest cycle at which an in-flight write will retire, if any —
    /// the FPU-side event horizon the simulator's translated backend must
    /// not hop past while a wait can lapse at a retirement.
    #[inline]
    pub fn next_retire_at(&self) -> Option<u64> {
        self.pipeline.next_ready_at()
    }

    /// Whether the IR's current element would be scoreboard-blocked if it
    /// tried to issue this cycle; `None` when the IR is empty. A
    /// side-effect-free probe of exactly the interlock [`Fpu::issue`]
    /// applies — the simulator's translated backend uses it to decide
    /// whether the issue stage pins the simulation to per-cycle stepping.
    #[inline]
    pub fn issue_blocked(&self) -> Option<bool> {
        let active = self.ir.active()?;
        Some(self.element_blocked(active.instr.op, active.current_refs()))
    }

    /// The normal scalar interlock on one element: both sources readable
    /// (the second only when the op is binary) and the destination free.
    #[inline(always)]
    fn element_blocked(&self, op: FpOp, refs: mt_isa::fpu::ElementRefs) -> bool {
        self.scoreboard.is_reserved(refs.ra)
            || (!op.is_unary() && self.scoreboard.is_reserved(refs.rb))
            || self.scoreboard.is_reserved(refs.rr)
    }

    /// Adds `n` synthesized scoreboard-stall cycles: the translated
    /// backend's accounting for skipped cycles in which the IR would have
    /// retried its blocked element and stalled again. The reservations
    /// that block it clear only at a retirement, so the caller must have
    /// clamped the skipped span to [`Fpu::next_retire_at`].
    #[inline]
    pub fn add_scoreboard_stalls(&mut self, n: u64) {
        self.stats.scoreboard_stall_cycles += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> FReg {
        FReg::new(i)
    }

    /// Runs the FPU alone for `cycles`, attempting transfer of queued
    /// instructions in order; returns the cycle after which everything
    /// drained.
    fn run(fpu: &mut Fpu, program: &[FpuAluInstr], max_cycles: u64) -> u64 {
        let mut queue = program
            .iter()
            .copied()
            .collect::<std::collections::VecDeque<_>>();
        for cycle in 0..max_cycles {
            fpu.begin_cycle(cycle);
            if let Some(&instr) = queue.front() {
                if fpu.try_transfer(instr) {
                    queue.pop_front();
                }
            }
            fpu.issue(cycle);
            if queue.is_empty() && !fpu.busy() {
                return cycle;
            }
        }
        panic!("FPU did not drain in {max_cycles} cycles");
    }

    #[test]
    fn scalar_add_three_cycle_latency() {
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_f64(r(0), 1.25);
        fpu.regs_mut().write_f64(r(1), 2.5);
        let add = FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1));

        fpu.begin_cycle(0);
        assert!(fpu.try_transfer(add));
        assert!(matches!(fpu.issue(0), IssueOutcome::Issued { .. }));
        assert!(fpu.reg_reserved(r(2)));

        fpu.begin_cycle(1);
        assert!(fpu.reg_reserved(r(2)), "not visible at cycle 1");
        fpu.begin_cycle(2);
        assert!(fpu.reg_reserved(r(2)), "not visible at cycle 2");
        fpu.begin_cycle(3);
        assert!(!fpu.reg_reserved(r(2)), "visible at cycle 3");
        assert_eq!(fpu.regs().read_f64(r(2)), 3.75);
    }

    #[test]
    fn vector_elements_issue_one_per_cycle() {
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_vector(r(0), &[1.0, 2.0, 3.0, 4.0]);
        fpu.regs_mut().write_vector(r(4), &[10.0, 20.0, 30.0, 40.0]);
        let v = FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 4).unwrap();

        let done = run(
            &mut Fpu::clone(&{
                let mut f = Fpu::new();
                f.regs_mut().write_vector(r(0), &[1.0, 2.0, 3.0, 4.0]);
                f.regs_mut().write_vector(r(4), &[10.0, 20.0, 30.0, 40.0]);
                f
            }),
            &[v],
            100,
        );
        // Elements issue cycles 0..3, last retires at 6: drained when
        // begin_cycle(6) has run and nothing is pending.
        assert_eq!(done, 6);

        run(&mut fpu, &[v], 100);
        assert_eq!(
            fpu.regs().read_vector(r(8), 4),
            vec![11.0, 22.0, 33.0, 44.0]
        );
        assert_eq!(fpu.stats().elements_issued, 4);
        assert_eq!(fpu.stats().flops, 4);
    }

    #[test]
    fn fibonacci_recurrence_of_figure_8() {
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_f64(r(0), 1.0);
        fpu.regs_mut().write_f64(r(1), 1.0);
        let fib = FpuAluInstr::vector(FpOp::Add, r(2), r(1), r(0), 8).unwrap();
        run(&mut fpu, &[fib], 100);
        let got = fpu.regs().read_vector(r(0), 10);
        assert_eq!(
            got,
            vec![1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0]
        );
    }

    #[test]
    fn dependent_chain_spaces_elements_three_cycles() {
        // Fig. 6 equivalent: the linear reduction as a running-register
        // chain — element i reads element i−1's result, so issues are 3
        // cycles apart and 8 elements take 8×3 = 24 cycles of issue span.
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_vector(r(0), &[1.0; 8]); // sum 8 ones
        fpu.regs_mut().write_f64(r(8), 0.0);
        let chain = FpuAluInstr::vector(FpOp::Add, r(9), r(8), r(0), 8).unwrap();
        let done = run(&mut fpu, &[chain], 200);
        assert_eq!(fpu.regs().read_f64(r(16)), 8.0);
        // Element 0 issues at cycle 0; element i at 3i; last at 21, retiring
        // at 24 — the Fig. 6 anchor.
        assert_eq!(done, 24);
        assert_eq!(
            fpu.stats().scoreboard_stall_cycles,
            7 * 2,
            "2 stall cycles between each pair"
        );
    }

    #[test]
    fn vector_scalar_broadcast() {
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_vector(r(0), &[1.0, 2.0, 3.0, 4.0]);
        fpu.regs_mut().write_f64(r(32), 10.0);
        let v = FpuAluInstr::vector_scalar(FpOp::Mul, r(16), r(0), r(32), 4).unwrap();
        run(&mut fpu, &[v], 100);
        assert_eq!(
            fpu.regs().read_vector(r(16), 4),
            vec![10.0, 20.0, 30.0, 40.0]
        );
    }

    #[test]
    fn transfer_stalls_while_vector_issuing() {
        let mut fpu = Fpu::new();
        let v = FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 4).unwrap();
        let s = FpuAluInstr::scalar(FpOp::Add, r(20), r(16), r(17));

        fpu.begin_cycle(0);
        assert!(fpu.try_transfer(v));
        fpu.issue(0);
        for cycle in 1..4 {
            fpu.begin_cycle(cycle);
            assert!(!fpu.try_transfer(s), "IR busy at cycle {cycle}");
            fpu.issue(cycle);
        }
        // Last element issued at cycle 3; IR free at cycle 4.
        fpu.begin_cycle(4);
        assert!(fpu.try_transfer(s));
    }

    #[test]
    fn load_data_visible_next_cycle() {
        let mut fpu = Fpu::new();
        fpu.begin_cycle(0);
        fpu.load_write(r(5), 9.5f64.to_bits(), 0);
        assert!(fpu.reg_reserved(r(5)));
        fpu.begin_cycle(1);
        assert!(!fpu.reg_reserved(r(5)));
        assert_eq!(fpu.regs().read_f64(r(5)), 9.5);
    }

    #[test]
    #[should_panic(expected = "must stall")]
    fn load_to_reserved_register_panics() {
        let mut fpu = Fpu::new();
        let add = FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1));
        fpu.begin_cycle(0);
        fpu.try_transfer(add);
        fpu.issue(0);
        fpu.load_write(r(2), 0, 0);
    }

    #[test]
    #[should_panic(expected = "must stall")]
    fn store_of_reserved_register_panics() {
        let mut fpu = Fpu::new();
        let add = FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1));
        fpu.begin_cycle(0);
        fpu.try_transfer(add);
        fpu.issue(0);
        fpu.read_reg_for_store(r(2));
    }

    #[test]
    fn overflow_aborts_remaining_elements() {
        let mut fpu = Fpu::new();
        // Element 1 overflows; elements 2 and 3 must be discarded.
        fpu.regs_mut()
            .write_vector(r(0), &[1.0, f64::MAX, 3.0, 4.0]);
        fpu.regs_mut()
            .write_vector(r(4), &[1.0, f64::MAX, 30.0, 40.0]);
        // Pre-set result registers to sentinels to observe the discard.
        fpu.regs_mut().write_vector(r(8), &[-1.0, -1.0, -1.0, -1.0]);
        let v = FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 4).unwrap();

        let mut queued = Some(v);
        for cycle in 0..20 {
            fpu.begin_cycle(cycle);
            if let Some(i) = queued {
                if fpu.try_transfer(i) {
                    queued = None;
                }
            }
            fpu.issue(cycle);
        }
        assert_eq!(fpu.regs().read_f64(r(8)), 2.0, "element 0 retained");
        assert_eq!(
            fpu.regs().read_f64(r(9)),
            f64::INFINITY,
            "overflowing element writes its (infinite) result"
        );
        assert_eq!(fpu.regs().read_f64(r(10)), -1.0, "element 2 discarded");
        assert_eq!(fpu.regs().read_f64(r(11)), -1.0, "element 3 discarded");
        assert_eq!(fpu.psw().overflow_dest, Some(r(9)));
        assert_eq!(fpu.stats().overflow_aborts, 1);
        assert_eq!(fpu.stats().elements_squashed, 2);
        assert!(!fpu.busy(), "nothing left in flight after abort");
        assert!(
            !fpu.reg_reserved(r(10)) && !fpu.reg_reserved(r(11)),
            "squashed reservations cleared"
        );
    }

    #[test]
    fn scalar_overflow_records_psw_without_squash() {
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_f64(r(0), f64::MAX);
        fpu.regs_mut().write_f64(r(1), f64::MAX);
        let s = FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1));
        run(&mut fpu, &[s], 10);
        assert_eq!(fpu.psw().overflow_dest, Some(r(2)));
        assert_eq!(fpu.stats().elements_squashed, 0);
    }

    #[test]
    fn back_to_back_dependent_scalars() {
        // Fig. 5 inner dependency: issue stalls until operands retire.
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_f64(r(0), 1.0);
        fpu.regs_mut().write_f64(r(1), 2.0);
        let a = FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1)); // = 3
        let b = FpuAluInstr::scalar(FpOp::Add, r(3), r(2), r(2)); // = 6

        let mut queue = vec![a, b];
        let mut issue_cycles = Vec::new();
        for cycle in 0..12 {
            fpu.begin_cycle(cycle);
            if let Some(&i) = queue.first() {
                if fpu.try_transfer(i) {
                    queue.remove(0);
                }
            }
            if matches!(fpu.issue(cycle), IssueOutcome::Issued { .. }) {
                issue_cycles.push(cycle);
            }
        }
        // a at 0; b transferred at 1 but stalls until a retires at 3.
        assert_eq!(issue_cycles, vec![0, 3]);
        assert_eq!(fpu.regs().read_f64(r(3)), 6.0);
    }

    #[test]
    fn reciprocal_and_division_sequence_through_the_pipeline() {
        let mut fpu = Fpu::new();
        fpu.regs_mut().write_f64(r(0), 10.0); // dividend
        fpu.regs_mut().write_f64(r(1), 4.0); // divisor
                                             // The 6-op Newton–Raphson division macro (r48/r49 scratch).
        let seq = [
            FpuAluInstr::scalar(FpOp::Recip, r(48), r(1), r(0)),
            FpuAluInstr::scalar(FpOp::IterStep, r(49), r(1), r(48)),
            FpuAluInstr::scalar(FpOp::Mul, r(48), r(48), r(49)),
            FpuAluInstr::scalar(FpOp::IterStep, r(49), r(1), r(48)),
            FpuAluInstr::scalar(FpOp::Mul, r(48), r(48), r(49)),
            FpuAluInstr::scalar(FpOp::Mul, r(2), r(0), r(48)),
        ];
        let done = run(&mut fpu, &seq, 100);
        assert_eq!(fpu.regs().read_f64(r(2)), 2.5);
        // Six dependent 3-cycle ops: 18 cycles, the 720 ns of Fig. 10.
        assert_eq!(done, 18);
    }

    #[test]
    fn stats_track_loads_and_stores() {
        let mut fpu = Fpu::new();
        fpu.begin_cycle(0);
        fpu.load_write(r(1), 5.0f64.to_bits(), 0);
        fpu.begin_cycle(1);
        assert_eq!(fpu.read_reg_for_store(r(1)), 5.0f64.to_bits());
        assert_eq!(fpu.stats().loads, 1);
        assert_eq!(fpu.stats().stores, 1);
    }
}
