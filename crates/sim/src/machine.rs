//! The machine: CPU substrate + FPU + memory hierarchy, stepped by cycle.

use std::sync::Arc;

use mt_core::{Fpu, Psw};
use mt_isa::cost::InstrCost;
use mt_isa::cpu::AluOp;
use mt_isa::{FReg, IReg, Instr};
use mt_mem::{Journal, MemError, MemorySystem};
use mt_trace::{EventKind, EventSink, NullSink, StallCause, TraceEvent};
use mt_xlate::{TranslatedProgram, Uop};

use crate::config::MachineConfig;
use crate::stats::{RunStats, StallBreakdown, ViolationKind};
use mt_isa::Program;

mod memo;

pub use memo::MemoCounts;

/// Which execution backend [`Machine::run`] drives.
///
/// Both backends produce bit-identical results — architectural outcome,
/// [`RunStats`] including the per-cause stall breakdown, cache statistics,
/// and [`RunError`] behavior (`tests/hot_loop_equivalence.rs` proves it
/// over generated programs and the kernel corpus). The tick interpreter
/// is the specification; the translated backend is the fast engine: it
/// runs the interpreter's own fetch, guard and execute code, and hops
/// over multi-cycle waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The reference cycle interpreter: fetch, guard evaluation, and
    /// execution, one cycle at a time. Always used while an enabled event
    /// sink is attached.
    Tick,
    /// The span engine: the run loop executes instructions back to back
    /// through the interpreter's fetch, guard and execute code, taking
    /// each wait in one hop. Both engines fetch the same way: the micro-op
    /// [`Machine::load_program`] predecoded for the PC
    /// ([`mt_xlate::TranslatedProgram`]: each word's decoded instruction
    /// and cost row) while no write has landed in the text, else the word
    /// read from memory and decoded.
    #[default]
    Xlate,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "tick" => Ok(Backend::Tick),
            "xlate" => Ok(Backend::Xlate),
            other => Err(format!("unknown backend {other:?} (expected tick|xlate)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Tick => "tick",
            Backend::Xlate => "xlate",
        })
    }
}

/// Simulator configuration. Watching a run is not a setting: hand the
/// run an [`EventSink`] ([`Machine::run_with_sink`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The simulated microarchitecture: issue timing (FPU latency, port
    /// occupancy, load delay, branch bubble, element lanes), memory
    /// hierarchy geometry, and register-file bounds. Defaults to the
    /// paper's machine; `mt-dse` sweeps it.
    pub machine: MachineConfig,
    /// Abort with [`RunError::CycleLimit`] after this many cycles.
    pub max_cycles: u64,
    /// Ablation: serialize the Load/Store and ALU instruction registers —
    /// the CPU stalls completely while a vector is issuing, destroying the
    /// two-operations-per-cycle overlap of §2.4.
    pub serialized_issue: bool,
    /// Alternative hardware of §2.3.2 (the approach "taken in the recently
    /// announced Ardent Titan"): compare loads/stores against the register
    /// ranges of *every* unissued element of the in-flight vector, not just
    /// the current one. Removes the compiler's vector-breaking duty at the
    /// cost of "a fair amount of hardware"; provided for the ablation
    /// study.
    pub full_range_interlock: bool,
    /// No-progress watchdog: abort with [`RunError::Watchdog`] once this
    /// many consecutive cycles elapse in which no CPU instruction completes
    /// and no FPU element or load issues. `0` (the default) disables it.
    /// Legitimate stall spans are bounded by a cache-miss penalty or a
    /// scoreboard wait that retires within the FPU latency, so any
    /// threshold of 1000+ only trips on genuinely wedged state — a
    /// fault-injected stuck scoreboard bit, corrupted interlock timing —
    /// that would otherwise spin to [`SimConfig::max_cycles`]. The
    /// translated backend clamps its hops so both backends report the
    /// watchdog at the identical cycle.
    pub watchdog_cycles: u64,
    /// Execution backend (see [`Backend`]). Results are bit-identical
    /// either way; the default, `Backend::Xlate`, is the fast path and
    /// `Backend::Tick` the reference.
    pub backend: Backend,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            machine: MachineConfig::default(),
            max_cycles: 200_000_000,
            serialized_issue: false,
            full_range_interlock: false,
            watchdog_cycles: 0,
            backend: Backend::default(),
        }
    }
}

/// Why a run ended abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle limit elapsed before `halt`.
    CycleLimit(u64),
    /// The program counter left the loaded program or hit an undecodable
    /// word.
    BadInstruction {
        /// Program counter of the bad word.
        pc: u32,
        /// Decoder message.
        message: String,
    },
    /// A fetch, load, or store computed a misaligned or out-of-range
    /// address (a wild PC from a corrupted `jr`, a load through a garbage
    /// base register). The run terminates with a typed error instead of
    /// panicking — the process survives arbitrary program words.
    MemoryFault {
        /// PC of the faulting instruction (or the faulting fetch address).
        pc: u32,
        /// The rejected access.
        fault: MemError,
    },
    /// The no-progress watchdog fired ([`SimConfig::watchdog_cycles`]):
    /// the machine is wedged — no instruction completed and no FPU element
    /// issued for the configured span.
    Watchdog {
        /// PC the CPU was parked at when the watchdog fired.
        pc: u32,
        /// Consecutive cycles without progress.
        idle_cycles: u64,
    },
    /// A cooperative cancellation checkpoint
    /// ([`Machine::run_cancellable`]) asked the run to stop — the service
    /// layer's request deadline expired or the server began draining. The
    /// machine state is exactly the paused state a [`Machine::run_until`]
    /// stop at the same cycle would leave.
    Cancelled {
        /// Machine cycle at which the run was abandoned.
        cycle: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleLimit(n) => write!(f, "no halt within {n} cycles"),
            RunError::BadInstruction { pc, message } => {
                write!(f, "bad instruction at {pc:#x}: {message}")
            }
            RunError::MemoryFault { pc, fault } => {
                write!(f, "memory fault at pc {pc:#x}: {fault}")
            }
            RunError::Watchdog { pc, idle_cycles } => {
                write!(
                    f,
                    "watchdog: no progress for {idle_cycles} cycles at pc {pc:#x}"
                )
            }
            RunError::Cancelled { cycle } => {
                write!(
                    f,
                    "run cancelled at a cooperative checkpoint (cycle {cycle})"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// A complete machine checkpoint, taken by [`Machine::snapshot`] and
/// consumed by [`Machine::restore`]. Opaque by design: the only supported
/// operations are restoring it and reading the cycle it was taken at —
/// everything else (registers, caches, in-flight pipeline state, pending
/// instruction, statistics) round-trips bit-identically through it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Boxed so a `Snapshot` on the stack stays pointer-sized; the fault
    /// campaign holds one golden snapshot per kernel across hundreds of
    /// restores.
    machine: Box<Machine>,
}

impl Snapshot {
    /// The cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.machine.cpu.cycle
    }
}

/// The software-visible architectural state: integer registers, FPU
/// registers (bit patterns), and the PSW. Comparable with `==`, so a
/// differential harness (e.g. the fault campaign's bare-program oracle)
/// can ask "did this run end in the same place as the golden run?"
/// without enumerating fields. Memory is deliberately excluded — it is
/// workload-defined which words are outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// CPU integer registers r0..r31 (r0 always 0).
    pub iregs: [i32; 32],
    /// FPU register bit patterns R0..R51.
    pub fregs: [u64; mt_isa::NUM_FPU_REGS as usize],
    /// The FPU program status word.
    pub psw: Psw,
}

/// Where an executed instruction sends the CPU ([`Machine::perform`]).
#[derive(Clone, Copy)]
enum Exec {
    /// Completed; the PC falls through to the next word.
    Next,
    /// Completed; the PC moves to this byte address (a taken branch or a
    /// jump).
    Jump(u32),
    /// Completed and the machine is halting.
    Halted,
}

/// Where [`Machine::span`] stopped.
#[derive(PartialEq, Eq)]
enum SpanStop {
    /// At a boundary cycle (stop point, interrupt, cycle-limit, watchdog
    /// deadline) or a halt: the outer run loop's checks decide what
    /// happens, exactly as after a tick.
    Boundary,
    /// A taken backward branch just completed: a loop head, where the
    /// loop-iteration memo may take over ([`Machine::at_loop_head`]).
    LoopHead,
}

/// One MultiTitan processor: Fig. 1's CPU, FPU and memory hierarchy,
/// and the loaded program's predecoded text.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The FPU (public for workload setup and result inspection).
    pub fpu: Fpu,
    /// The memory hierarchy (public for workload setup).
    pub mem: MemorySystem,
    config: SimConfig,
    cpu: Cpu,
    /// The loaded program's text decoded to micro-ops (built by every
    /// [`Machine::load_program`]): the PC-indexed table
    /// [`Machine::fetch`] reads while no write has landed in the text.
    /// `Arc` keeps [`Machine::snapshot`]/clone cheap: the table is
    /// immutable, so every checkpoint shares it.
    xlate: Option<Arc<TranslatedProgram>>,
    /// The translated engine's loop-iteration memo: a cache of recorded
    /// iterations, not machine state. Clones (and so snapshots) start
    /// with an empty one; a new program or job clears it.
    memo: memo::Memo,
}

/// The CPU's state: its registers, PC, timing horizons and counters.
/// One value, so a new machine or job starts from `Cpu::default()` and a
/// rolled-back memo replay restores the whole of it.
#[derive(Debug, Clone, Copy, Default)]
struct Cpu {
    iregs: [i32; 32],
    /// Cycle at which each integer register's pending load completes.
    int_ready: [u64; 32],
    pc: u32,
    entry: u32,
    cycle: u64,
    /// Next cycle the data port accepts an operation.
    ls_free_at: u64,
    /// Issue freeze horizon from a data-cache miss (lock-step stall).
    freeze_until: u64,
    /// Earliest cycle the next fetch may begin (taken-branch bubble).
    fetch_ready_at: u64,
    /// The fetched instruction waiting to execute, with its cost row.
    pending: Option<Uop>,
    pending_ready_at: u64,
    halted: bool,
    /// Cycle at which an external interrupt redirects the CPU (§2.3.1);
    /// the FPU keeps issuing and retiring vector elements regardless.
    interrupt_at: Option<u64>,
    instructions: u64,
    stalls: StallBreakdown,
    /// Cycles spent draining the FPU after halt (accumulates across runs;
    /// per-run deltas land in [`RunStats::drain_cycles`]).
    drain_cycles: u64,
    /// PC of the ALU instruction currently (or last) occupying the IR —
    /// FPU-side events (element issues, scoreboard stalls, drain cycles)
    /// are attributed to it.
    ir_pc: u32,
    ir_index: u32,
    /// Last cycle at which the machine provably made progress (a CPU
    /// instruction completed or an FPU element/load issued) — the
    /// watchdog's reference point. Always `<= cycle`.
    last_progress: u64,
}

/// Forwards one event when the sink wants it. With [`NullSink`] the whole
/// call monomorphizes away, so emission sites cost nothing when tracing
/// is off.
#[inline(always)]
fn emit<S: EventSink>(sink: &mut S, cycle: u64, kind: EventKind) {
    if sink.enabled() {
        sink.event(&TraceEvent { cycle, kind });
    }
}

impl Machine {
    /// Creates a machine with cold caches and no program loaded.
    pub fn new(config: SimConfig) -> Machine {
        Machine {
            fpu: Fpu::with_latency(config.machine.timing.fpu_latency),
            mem: MemorySystem::new(config.machine.mem),
            config,
            cpu: Cpu::default(),
            xlate: None,
            memo: memo::Memo::default(),
        }
    }

    /// Loads a program's text and data segments into memory and sets the
    /// entry point.
    pub fn load_program(&mut self, program: &Program) {
        for (i, &w) in program.words.iter().enumerate() {
            self.mem.memory.write_u32(program.base + 4 * i as u32, w);
        }
        for seg in &program.segments {
            self.mem.memory.write_bytes(seg.base, &seg.bytes);
        }
        self.cpu.pc = program.base;
        self.cpu.entry = program.base;
        self.cpu.halted = false;
        // A freshly loaded program starts with a clear PSW: sticky flags
        // and the §2.3.1 overflow destination are per-program supervisor
        // state, not residue of whatever ran before.
        self.fpu.clear_psw();
        self.xlate = Some(Arc::new(TranslatedProgram::translate(program)));
        self.memo.clear();
        // Watch the installed text: while no write has landed on it (by
        // any path, including direct workload pokes at `mem.memory`), a
        // fetch may trust the translation without re-reading the word.
        let text_end = program.base + 4 * program.words.len() as u32;
        self.mem.memory.watch_range(program.base, text_end);
    }

    /// Touches every text line through the instruction buffer and cache so
    /// a run starts with warm instruction fetch (the paper's figures assume
    /// no instruction-buffer misses in kernels).
    pub fn warm_instructions(&mut self, program: &Program) {
        for i in 0..program.words.len() {
            self.mem.fetch_timing(program.base + 4 * i as u32, None);
        }
    }

    /// Reads a CPU integer register.
    pub fn ireg(&self, r: IReg) -> i32 {
        self.cpu.iregs[r.index() as usize]
    }

    /// Writes a CPU integer register (setup; writes to `r0` are ignored).
    pub fn set_ireg(&mut self, r: IReg, value: i32) {
        if !r.is_zero() {
            self.cpu.iregs[r.index() as usize] = value;
        }
    }

    /// Schedules an external interrupt: `cycles` from now the CPU stops
    /// executing the program (as if redirected to a handler). Per §2.3.1
    /// the FPU is *not* stopped — "vector ALU instructions may continue
    /// long after an interrupt" — so an in-flight vector keeps issuing and
    /// retiring elements; [`Machine::run`] returns once it drains.
    pub fn interrupt_after(&mut self, cycles: u64) {
        self.cpu.interrupt_at = Some(self.cpu.cycle + cycles);
    }

    /// Resets execution state (PC, pipeline timing, stall counters) for a
    /// re-run while *keeping* memory and cache contents — the warm-cache
    /// protocol of §3.2. Register files are preserved too; workloads that
    /// need fresh inputs rewrite them before the second run.
    pub fn reset_for_rerun(&mut self) {
        self.cpu.pc = self.cpu.entry;
        self.cpu.halted = false;
        self.cpu.pending = None;
        // Advance past any residual timing state rather than rewinding, so
        // in-flight bookkeeping can never leak into the next run.
        assert!(!self.fpu.busy(), "reset_for_rerun with FPU busy");
        self.cpu.ls_free_at = self.cpu.cycle;
        self.cpu.freeze_until = self.cpu.cycle;
        self.cpu.fetch_ready_at = self.cpu.cycle;
        self.cpu.int_ready = [0; 32];
        self.cpu.last_progress = self.cpu.cycle;
        // An interrupt armed for a cycle the previous run never reached
        // must not ambush the re-run: `interrupt_after` is per-run state.
        self.cpu.interrupt_at = None;
        // FPU-side attribution (drain cycles, scoreboard stalls) must not
        // point at the previous run's last transfer.
        self.cpu.ir_pc = self.cpu.entry;
        self.cpu.ir_index = 0;
        // The PSW is sticky across instructions, not across runs: a re-run
        // must observe its *own* exception flags and overflow destination,
        // exactly as if the program had been loaded fresh.
        self.fpu.clear_psw();
    }

    /// Resets the machine to the state [`Machine::new`]`(config)` would
    /// build — fresh registers, zeroed memory, cold caches, cleared PSW,
    /// no pending interrupt, zeroed statistics — while keeping the cache
    /// arrays when the memory geometry is unchanged. Memory pages are
    /// dropped, so a large job leaves no backing behind.
    ///
    /// This is the worker-recycling path: a long-lived service worker owns
    /// one `Machine` and runs *arbitrary, unrelated* programs back to
    /// back, so unlike [`Machine::reset_for_rerun`] (the §3.2 warm-rerun
    /// protocol, which deliberately preserves memory, caches, and register
    /// files) nothing at all may survive from the previous job: results
    /// must be bit-identical to a freshly constructed machine, which
    /// `tests/machine_reuse.rs` proves across random job pairs.
    pub fn reset_for_new_job(&mut self, config: SimConfig) {
        self.mem.reset();
        if config.machine.mem != self.config.machine.mem {
            self.mem = MemorySystem::new(config.machine.mem);
        }
        self.fpu = Fpu::with_latency(config.machine.timing.fpu_latency);
        self.config = config;
        self.cpu = Cpu::default();
        self.xlate = None;
        self.memo.clear();
    }

    /// What the translated engine's loop-iteration memo has done since
    /// the program was loaded: iterations recorded, replayed and rolled
    /// back, loop heads skipped by reason, and instructions replayed. A
    /// side channel for tests and studies, outside [`RunStats`]: a
    /// replay changes no statistic.
    pub fn memo_counts(&self) -> MemoCounts {
        self.memo.counts()
    }

    /// Runs from the current PC until `halt`, returning the statistics of
    /// this run (deltas — safe to call repeatedly for warm re-runs). The
    /// run is unwatched: it is [`Machine::run_with_sink`] over
    /// [`NullSink`], so emission costs nothing.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleLimit`] if the program does not halt,
    /// [`RunError::BadInstruction`] on an undecodable word,
    /// [`RunError::MemoryFault`] on a misaligned or out-of-range fetch,
    /// load, or store, or [`RunError::Watchdog`] when
    /// [`SimConfig::watchdog_cycles`] elapse without progress.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        self.run_with_sink(&mut NullSink)
    }

    /// [`Machine::run`] with an event sink — the one way to watch a run.
    /// The run loop is generic over the sink, so a no-op sink compiles to
    /// the untraced loop while a recording or folding sink sees every
    /// typed event as it happens. The CPU log
    /// ([`mt_trace::TraceEvent::cpu_log_line`]), the
    /// [`crate::Timeline`], the profile and the Chrome trace are all views
    /// of that stream, built by the caller from what its sink recorded.
    pub fn run_with_sink<S: EventSink>(&mut self, sink: &mut S) -> Result<RunStats, RunError> {
        self.run_loop(sink, None, None)
            .map(|stats| stats.expect("a run without a stop point always completes"))
    }

    /// Runs until `halt` *or* until the machine's cycle reaches `stop_at`,
    /// whichever comes first, emitting into `sink` — the fault-injection
    /// campaign's way of pausing a golden replay at an exact cycle to
    /// corrupt state, then resuming with [`Machine::run`]. Returns
    /// `Ok(None)` when the run paused at the stop point (resume later;
    /// statistics will cover the remainder as its own delta) and
    /// `Ok(Some(stats))` when the program halted before reaching it.
    /// Translated spans clamp to the stop point, so a paused machine sits
    /// at exactly `stop_at` regardless of the backend, and a paused and
    /// resumed stream equals the uninterrupted one. Once the CPU halts,
    /// the FPU drain runs to completion even across `stop_at` — an
    /// injection cycle inside the drain span classifies as
    /// completed-early.
    pub fn run_until<S: EventSink>(
        &mut self,
        stop_at: u64,
        sink: &mut S,
    ) -> Result<Option<RunStats>, RunError> {
        self.run_loop(sink, Some(stop_at), None)
    }

    /// [`Machine::run_with_sink`] with a cooperative cancellation
    /// checkpoint: every `check_every` cycles the run pauses (the
    /// translated backend clamps its hops to the checkpoint, exactly as it
    /// clamps to a [`Machine::run_until`] stop point) and asks
    /// `cancelled`; a `true` answer abandons the run with
    /// [`RunError::Cancelled`], leaving the machine in the same state a
    /// `run_until` pause at that cycle would. A run that is never
    /// cancelled is bit-identical to [`Machine::run_with_sink`] — same
    /// statistics, same events, same architectural results — because the
    /// checkpoint is a clamp inside one run loop, not a re-entry
    /// (re-entry would reset the cycle-limit budget and report per-slice
    /// statistics deltas). `tests/snapshot_restore.rs` holds both
    /// promises over random programs.
    ///
    /// This is the service layer's request-deadline and drain-cancel hook:
    /// the closure typically compares `Instant::now()` against a deadline
    /// or loads an [`std::sync::atomic::AtomicBool`].
    ///
    /// # Errors
    ///
    /// Everything [`Machine::run`] returns, plus [`RunError::Cancelled`].
    pub fn run_cancellable<S: EventSink>(
        &mut self,
        sink: &mut S,
        check_every: u64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> Result<RunStats, RunError> {
        self.run_loop(sink, None, Some((check_every, cancelled)))
            .map(|stats| stats.expect("a run without a stop point always completes"))
    }

    /// Captures the complete machine state — architectural (registers,
    /// PSW, memory) and microarchitectural (in-flight pipeline writes,
    /// scoreboard, cache residency, pending instruction, every timing
    /// horizon, accumulated statistics) — so a later
    /// [`Machine::restore`] resumes bit-identically, under both the tick
    /// interpreter and the translated backend.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            machine: Box::new(self.clone()),
        }
    }

    /// Restores the state captured by [`Machine::snapshot`]. The machine
    /// becomes indistinguishable from the one that took the snapshot:
    /// resuming produces the same cycles, statistics, events, and
    /// architectural results.
    pub fn restore(&mut self, snapshot: &Snapshot) {
        *self = (*snapshot.machine).clone();
    }

    /// Copies out the software-visible architectural state (see
    /// [`ArchState`]).
    pub fn arch_state(&self) -> ArchState {
        let mut fregs = [0u64; mt_isa::NUM_FPU_REGS as usize];
        for (i, slot) in fregs.iter_mut().enumerate() {
            *slot = self.fpu.regs().read(FReg::new(i as u8));
        }
        ArchState {
            iregs: self.cpu.iregs,
            fregs,
            psw: self.fpu.psw().clone(),
        }
    }

    /// The one run loop behind the four public entry points: runs until
    /// `halt`, the optional stop point (`Ok(None)`), or a cancellation
    /// checkpoint that answers `true`.
    fn run_loop<S: EventSink>(
        &mut self,
        sink: &mut S,
        stop_at: Option<u64>,
        mut checkpoint: Option<(u64, &mut dyn FnMut() -> bool)>,
    ) -> Result<Option<RunStats>, RunError> {
        let start = self.cpu;
        let start_fpu = *self.fpu.stats();
        let dcache0 = self.mem.dcache_stats();
        let icache0 = self.mem.icache_stats();
        let ibuffer0 = self.mem.ibuffer_stats();

        // The translated backend emits no per-cycle events, so watched
        // runs stay on the reference interpreter, whose code paths the
        // events instrument. The choice holds for the whole run.
        let use_xlate = self.config.backend == Backend::Xlate && !sink.enabled();
        // First cycle at which the tick loop would report CycleLimit; a
        // hop may land there but never beyond. Saturating, so a limit near
        // `u64::MAX` cannot wrap into a boundary no span advances past.
        let limit_cycle = (start.cycle + 1).saturating_add(self.config.max_cycles);
        let watchdog = self.config.watchdog_cycles;
        // First cycle at which the cancellation closure runs; advanced by
        // `check_every` after each (negative) answer. Translated spans
        // clamp their hops here the same way they clamp to `stop_at`, so
        // a checkpoint is reached within one engine dispatch of falling
        // due no matter how the span executes.
        let mut next_check = checkpoint
            .as_ref()
            .map(|(every, _)| start.cycle.saturating_add((*every).max(1)));

        while !self.cpu.halted {
            if let Some(stop) = stop_at {
                if self.cpu.cycle >= stop {
                    self.catch_up_retires();
                    return Ok(None);
                }
            }
            if let Some((every, cancelled)) = checkpoint.as_mut() {
                let due = next_check.expect("checkpoint always has a due cycle");
                if self.cpu.cycle >= due {
                    if cancelled() {
                        self.catch_up_retires();
                        return Err(RunError::Cancelled {
                            cycle: self.cpu.cycle,
                        });
                    }
                    next_check = Some(self.cpu.cycle.saturating_add((*every).max(1)));
                }
            }
            // The clamp handed to the translated backend: the real stop
            // point or the next cancellation checkpoint, whichever is
            // sooner. Pausing at the checkpoint and re-entering the loop
            // is exactly the proven run_until pause path, so a run that is
            // never cancelled stays bit-identical to an unclamped one.
            let bound = match (stop_at, next_check) {
                (Some(s), Some(c)) => Some(s.min(c)),
                (s, c) => s.or(c),
            };
            if let Some(at) = self.cpu.interrupt_at {
                if self.cpu.cycle >= at {
                    self.cpu.halted = true;
                    self.cpu.interrupt_at = None;
                    break;
                }
            }
            if self.cpu.cycle - start.cycle > self.config.max_cycles {
                self.catch_up_retires();
                return Err(RunError::CycleLimit(self.config.max_cycles));
            }
            if watchdog > 0 && self.cpu.cycle - self.cpu.last_progress > watchdog {
                self.catch_up_retires();
                return Err(RunError::Watchdog {
                    pc: self.cpu.pc,
                    idle_cycles: self.cpu.cycle - self.cpu.last_progress,
                });
            }
            if use_xlate {
                // The span pauses at a boundary cycle (stop point,
                // interrupt, cycle limit, watchdog deadline) or halts: the
                // checks above re-run at the new cycle, exactly as the
                // tick loop would.
                self.xlate_span(limit_cycle, bound)?;
            } else {
                self.step(sink)?;
            }
        }
        // Drain the FPU: a vector may continue issuing and retiring long
        // after the CPU halts (§2.3.1's "vector ALU instructions may
        // continue long after an interrupt"). Drain cycles are attributed
        // to the transferring ALU instruction.
        loop {
            self.fpu.begin_cycle_with(self.cpu.cycle, sink);
            if !self.fpu.busy() {
                break;
            }
            // A healthy drain is bounded (every reservation retires within
            // the FPU latency), but a fault-injected stuck scoreboard bit
            // can block the IR forever with nothing left in flight — the
            // watchdog catches that here too.
            if watchdog > 0 && self.cpu.cycle - self.cpu.last_progress > watchdog {
                return Err(RunError::Watchdog {
                    pc: self.cpu.ir_pc,
                    idle_cycles: self.cpu.cycle - self.cpu.last_progress,
                });
            }
            emit(
                sink,
                self.cpu.cycle,
                EventKind::Drain {
                    pc: self.cpu.ir_pc,
                    instr_index: self.cpu.ir_index,
                },
            );
            self.cpu.drain_cycles += 1;
            self.issue_and_record(sink);
            self.cpu.cycle += 1;
        }

        let delta = |a: mt_mem::CacheStats, b: mt_mem::CacheStats| mt_mem::CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            writebacks: a.writebacks - b.writebacks,
        };
        Ok(Some(RunStats {
            cycles: self.cpu.cycle - start.cycle,
            instructions: self.cpu.instructions - start.instructions,
            drain_cycles: self.cpu.drain_cycles - start.drain_cycles,
            fpu: self.fpu.stats().since(&start_fpu),
            stalls: self.cpu.stalls.since(&start.stalls),
            dcache: delta(self.mem.dcache_stats(), dcache0),
            icache: delta(self.mem.icache_stats(), icache0),
            ibuffer: delta(self.mem.ibuffer_stats(), ibuffer0),
        }))
    }

    /// Applies FPU retirements the translated backend has deferred, at a
    /// point where the run leaves the loop without a drain (a `run_until`
    /// pause, a cycle-limit or watchdog abort). The translated backend
    /// hops over cycles and lets `begin_cycle` at the next processed
    /// cycle retire the span's writes — invisible while the run
    /// continues, but at an exit the deferred writes would leak into the
    /// observed architectural state. The tick loop ran phase 1
    /// on every cycle up to `C-1`, so retire exactly that much; a write
    /// due at `C` itself stays in flight there too (the loop exits before
    /// `C`'s phase 1). No-op under pure tick-by-tick, where nothing is
    /// ever deferred.
    fn catch_up_retires(&mut self) {
        if matches!(self.fpu.next_retire_at(), Some(r) if r < self.cpu.cycle) {
            self.fpu.begin_cycle(self.cpu.cycle - 1);
        }
    }

    /// If an instruction with this cost row would stall this cycle,
    /// returns the stall cause it charges and the first cycle at which
    /// the blocking condition could lapse (`u64::MAX` when only an FPU
    /// retirement can lift it — the caller clamps to the next one, which
    /// the hazard guarantees exists). `None` means the instruction would
    /// execute.
    ///
    /// The hazard guards in the hardware's order — the serialized-issue
    /// ablation's IR gate, the integer load interlock, the load/store
    /// port, the FPU register hazard, the IR — the last four read from
    /// the shared [`mt_isa::cost::InstrCost`] table, which `mt-lint`
    /// replays statically. Both engines ask it and nothing else: the
    /// tick loop charges the cause for one cycle, the span hops to the
    /// horizon. The horizons are exact because nothing that feeds the
    /// guards (`int_ready`, `ls_free_at`, the IR, the scoreboard) changes
    /// while both the CPU and the issue stage stall. Always inlined: left
    /// to LLVM, its two callers call out-of-line copies, one guard call
    /// per instruction attempt.
    #[inline(always)]
    fn cost_stall_horizon(&self, cost: &InstrCost) -> Option<(StallCause, u64)> {
        // Ablation: with serialized issue no instruction proceeds while
        // the ALU IR is still issuing a vector.
        if self.config.serialized_issue && self.fpu.ir_busy() {
            return Some((StallCause::IrBusy, u64::MAX));
        }
        if cost.int_guard_regs().any(|r| self.int_blocked(r)) {
            // Blocked until the last checked register is ready (free ones
            // are ready already).
            let ready = cost
                .int_guard_regs()
                .map(|r| self.cpu.int_ready[r.index() as usize])
                .max()
                .expect("a blocked guard set is nonempty");
            return Some((StallCause::IntLoadHazard, ready));
        }
        if cost.port.is_some() && self.cpu.cycle < self.cpu.ls_free_at {
            return Some((StallCause::LsPortBusy, self.cpu.ls_free_at));
        }
        if let Some((fr, is_load)) = cost.fpu_mem {
            if self.fpu.reg_reserved(fr) || self.current_element_conflict(fr, is_load) {
                return Some((StallCause::FpuRegHazard, u64::MAX));
            }
        }
        if cost.fpu_transfer && self.fpu.ir_busy() {
            return Some((StallCause::IrBusy, u64::MAX));
        }
        None
    }

    /// Lets a CPU wait elapse toward `horizon` (`u64::MAX` when only an
    /// FPU retirement can lift it) with the issue stage running
    /// alongside, exactly as that many tick cycles would: an IR that
    /// *would issue* pins the wait to one cycle (each issue writes the
    /// scoreboard); otherwise the whole wait is taken in one hop,
    /// clamped to `boundary` and — when the wait can lapse at a
    /// retirement (a scoreboard-blocked IR, or no horizon of its own) —
    /// to the next FPU retirement, charging `stall` and any scoreboard
    /// stalls per skipped cycle. `stall` is `None` for a branch bubble,
    /// which was charged in bulk at the branch. A wait on an occupied IR
    /// calls this once per cycle from [`Machine::issue_until_ir_empty`].
    #[inline]
    fn hop_wait<S: EventSink>(
        &mut self,
        stall: Option<StallCause>,
        horizon: u64,
        boundary: u64,
        sink: &mut S,
    ) {
        let ir_stalled = match self.fpu.issue_blocked() {
            Some(false) => {
                if let Some(cause) = stall {
                    self.cpu.stalls.add(cause, 1);
                }
                self.issue_and_record(sink);
                self.cpu.cycle += 1;
                return;
            }
            blocked => blocked.is_some(),
        };
        let mut t = horizon;
        if ir_stalled || horizon == u64::MAX {
            if let Some(retire) = self.fpu.next_retire_at() {
                t = t.min(retire);
            }
        }
        t = t.min(boundary);
        debug_assert!(t > self.cpu.cycle, "a wait implies a future horizon");
        debug_assert!(t < u64::MAX, "unbounded wait must clamp to a retire");
        let skipped = t - self.cpu.cycle;
        if let Some(cause) = stall {
            self.cpu.stalls.add(cause, skipped);
        }
        if ir_stalled {
            self.fpu.add_scoreboard_stalls(skipped);
        }
        self.cpu.cycle = t;
    }

    /// Runs a CPU wait on an occupied IR (`IrBusy`: a pending transfer,
    /// or any instruction under serialized issue) until the IR empties or
    /// `boundary` is reached. Nothing on the CPU side can change before
    /// the IR empties, so the vector's elements issue in a loop of their
    /// own — one element per cycle through the scalar issue path, as the
    /// paper re-issues the IR (§2.1.1) — without re-entering the span:
    /// each turn is the [`Machine::hop_wait`] the span would make (an
    /// issuing element is single-stepped, a blocked one hops to the next
    /// retirement), then phase 1's retirements at the new cycle. An
    /// overflow abort squashing the IR ends the loop like a last element.
    /// `boundary` may be stale (the watchdog term grows as elements issue),
    /// which only returns early; the span re-checks its boundary and the
    /// guards on return.
    fn issue_until_ir_empty<S: EventSink>(&mut self, boundary: u64, sink: &mut S) {
        loop {
            self.hop_wait(Some(StallCause::IrBusy), u64::MAX, boundary, sink);
            if self.cpu.cycle >= boundary {
                return;
            }
            if matches!(self.fpu.next_retire_at(), Some(r) if r <= self.cpu.cycle) {
                self.fpu.begin_cycle(self.cpu.cycle);
            }
            if !self.fpu.ir_busy() {
                return;
            }
        }
    }

    /// The translated backend: runs instructions until a boundary cycle
    /// or a halt — the per-cycle semantics of [`Machine::step`] with the
    /// no-op FPU phases skipped (a `begin_cycle` with no retirement due
    /// and an `issue` with an empty IR do nothing), and every multi-cycle
    /// wait — freeze, branch bubble, fetch penalty, interlock — taken in
    /// one hop with the per-cycle stall accounting the skipped ticks
    /// would have accrued.
    ///
    /// Equivalence argument, per cycle phase (DESIGN.md §13 spells out
    /// the full case analysis):
    ///
    /// * the outer loop's stop/interrupt/limit/watchdog checks are
    ///   hoisted to a `boundary` cycle — below it they all pass
    ///   trivially, and the span returns at it so the outer loop re-runs
    ///   them in the tick loop's order;
    /// * retirements are processed by `begin_cycle` only on cycles where
    ///   one is due; on any other cycle it is a pure no-op (the pipeline
    ///   front is not ready);
    /// * fetches are the interpreter's own ([`Machine::fetch`]): the
    ///   predecoded micro-op while the text is unwritten, else the word
    ///   read from memory and decoded, so a PC outside the text, a bad
    ///   word or a patched one runs or faults exactly as under the
    ///   interpreter;
    /// * guard evaluation asks [`Machine::cost_stall_horizon`] — the
    ///   interpreter's guard — with the cost row latched with the pending
    ///   instruction, as the interpreter does;
    /// * waits go through [`Machine::hop_wait`], which hops only over
    ///   cycles nothing could change in: a scoreboard-*blocked* IR merely
    ///   re-stalls, and a wait that can lapse at a retirement is clamped
    ///   to the next one. Waits indifferent to retirements skip across
    ///   them: `pop_ready` retires strictly in readiness order, so the
    ///   next `begin_cycle` retires the span's writes into the same
    ///   registers, scoreboard, and PSW as cycle-by-cycle processing;
    /// * a wait on an occupied IR runs the vector out in
    ///   [`Machine::issue_until_ir_empty`]: the same `hop_wait` and
    ///   phase-1 steps per cycle, without the span's re-checks, which
    ///   cannot change their answer until the IR empties;
    /// * execution and completion are the interpreter's own
    ///   ([`Machine::perform`], [`Machine::complete`]) over [`NullSink`];
    /// * the issue stage runs whenever the IR is occupied; with an empty
    ///   IR `issue` returns `Idle` without side effects;
    /// * at a loop head the memo may replay whole iterations
    ///   ([`Machine::at_loop_head`]; DESIGN.md §13 gives its argument).
    fn xlate_span(&mut self, limit_cycle: u64, stop_at: Option<u64>) -> Result<(), RunError> {
        // The static part of the span's boundary, which it never
        // crosses ([`Machine::span_boundary`]).
        let mut static_boundary = limit_cycle;
        if let Some(stop) = stop_at {
            static_boundary = static_boundary.min(stop);
        }
        if let Some(at) = self.cpu.interrupt_at {
            static_boundary = static_boundary.min(at);
        }
        while self.span(static_boundary, &mut NullSink)? == SpanStop::LoopHead {
            if self.at_loop_head(static_boundary)? == SpanStop::Boundary {
                break;
            }
        }
        Ok(())
    }

    /// The span's boundary at the current cycle: the first cycle the
    /// outer loop's checks could fire at. Only the watchdog term varies
    /// (with `last_progress`, which only advances), so the static part
    /// is hoisted out of the span.
    #[inline(always)]
    fn span_boundary(&self, static_boundary: u64) -> u64 {
        match self.config.watchdog_cycles {
            0 => static_boundary,
            w => static_boundary.min((self.cpu.last_progress + 1).saturating_add(w)),
        }
    }

    /// The span proper: runs instructions until a boundary or a loop
    /// head, the cycle after a taken backward branch completed, once its
    /// retirements are in; the memo decides what happens there
    /// ([`Machine::at_loop_head`]). With [`NullSink`] every emission
    /// compiles away.
    fn span<S: EventSink>(
        &mut self,
        static_boundary: u64,
        sink: &mut S,
    ) -> Result<SpanStop, RunError> {
        // Set when a taken backward branch completes: this cycle is a
        // loop head.
        let mut head = false;
        loop {
            let boundary = self.span_boundary(static_boundary);
            if self.cpu.cycle >= boundary {
                return Ok(SpanStop::Boundary);
            }

            // Phase 1: retirements — only on cycles one is due.
            if let Some(retire) = self.fpu.next_retire_at() {
                if retire <= self.cpu.cycle {
                    self.fpu.begin_cycle(self.cpu.cycle);
                }
            }

            if head {
                return Ok(SpanStop::LoopHead);
            }

            // Data-miss freeze: CPU and issue both gated; hop to the
            // horizon (retirements mid-span are processed at the target,
            // in the same readiness order).
            if self.cpu.cycle < self.cpu.freeze_until {
                self.cpu.cycle = self.cpu.freeze_until.min(boundary);
                continue;
            }

            // Phase 2: the CPU's slice.
            let uop = match self.cpu.pending {
                None if self.cpu.cycle < self.cpu.fetch_ready_at => {
                    // Branch bubble (charged at the branch): only the
                    // issue stage runs until the fetch window opens.
                    self.hop_wait(None, self.cpu.fetch_ready_at, boundary, sink);
                    continue;
                }
                None => {
                    if self.fetch(sink)? {
                        // The penalty's first cycle elapses.
                        if self.fpu.ir_busy() {
                            self.issue_and_record(sink);
                        }
                        self.cpu.cycle += 1;
                        continue;
                    }
                    self.cpu.pending.expect("just fetched")
                }
                Some(_) if self.cpu.cycle < self.cpu.pending_ready_at => {
                    // Fetch penalty elapsing: one fetch-stall cycle each.
                    self.hop_wait(
                        Some(StallCause::Fetch),
                        self.cpu.pending_ready_at,
                        boundary,
                        sink,
                    );
                    continue;
                }
                // Pending and ready.
                Some(uop) => uop,
            };

            // Guards, from the latched cost row. The retire clamp of
            // a stalled wait can only bind above `cycle`, because phase 1
            // already processed every retirement due.
            match self.cost_stall_horizon(&uop.cost) {
                Some((StallCause::IrBusy, _)) => {
                    self.issue_until_ir_empty(boundary, sink);
                    continue;
                }
                Some((cause, horizon)) => {
                    self.hop_wait(Some(cause), horizon, boundary, sink);
                    continue;
                }
                None => {}
            }

            // Execute and complete — the interpreter's own arms — then
            // phase 3: the issue stage, skipped when the IR is empty
            // (`issue` would return `Idle` without effects).
            let exec = self.perform(uop.instr, sink, None)?;
            head = matches!(exec, Exec::Jump(to) if to <= self.cpu.pc);
            self.complete(uop.instr, exec, sink);
            if self.fpu.ir_busy() {
                self.issue_and_record(sink);
            }
            self.cpu.cycle += 1;
            if self.cpu.halted {
                return Ok(SpanStop::Boundary);
            }
        }
    }

    /// Advances the machine by one cycle.
    fn step<S: EventSink>(&mut self, sink: &mut S) -> Result<(), RunError> {
        self.fpu.begin_cycle_with(self.cpu.cycle, sink);
        if self.cpu.cycle >= self.cpu.freeze_until {
            self.cpu_step(sink)?;
            self.issue_and_record(sink);
        }
        self.cpu.cycle += 1;
        Ok(())
    }

    /// Index of the current PC in the program text, matching `mt-lint`
    /// finding indices and assembler source spans.
    fn instr_index(&self) -> u32 {
        self.cpu.pc.wrapping_sub(self.cpu.entry) / 4
    }

    /// Lets the ALU IR issue through this cycle's element lanes, emitting
    /// each issue (or the scoreboard stall) attributed to the transferring
    /// instruction. The paper's machine has one lane; with
    /// `fpu_lanes > 1` up to that many consecutive elements issue per
    /// cycle, strictly in order — a blocked element blocks the lanes
    /// behind it, and an intra-cycle dependence blocks naturally because
    /// the earlier lane's issue reserves its destination before the later
    /// lane checks the scoreboard. Only the *first* lane's blocked
    /// attempt charges a scoreboard stall (later lanes going unused is
    /// issue-width under-utilization, not a stall), so at `fpu_lanes = 1`
    /// this is exactly the single-`issue` call it replaces. The
    /// translated backend composes unchanged: its [`Fpu::issue_blocked`]
    /// probe asks about the first element, and a cycle whose first
    /// element would issue is always single-stepped through this
    /// function.
    fn issue_and_record<S: EventSink>(&mut self, sink: &mut S) {
        for lane in 0..self.config.machine.timing.fpu_lanes.max(1) {
            match self.fpu.issue_lane(self.cpu.cycle, lane == 0) {
                mt_core::IssueOutcome::Issued {
                    op, refs, element, ..
                } => {
                    self.cpu.last_progress = self.cpu.cycle;
                    emit(
                        sink,
                        self.cpu.cycle,
                        EventKind::ElementIssue {
                            pc: self.cpu.ir_pc,
                            instr_index: self.cpu.ir_index,
                            op,
                            element,
                            refs,
                            latency: self.fpu.latency(),
                        },
                    )
                }
                mt_core::IssueOutcome::Stalled => {
                    if lane == 0 {
                        emit(
                            sink,
                            self.cpu.cycle,
                            EventKind::ScoreboardStall {
                                pc: self.cpu.ir_pc,
                                instr_index: self.cpu.ir_index,
                            },
                        );
                    }
                    break;
                }
                mt_core::IssueOutcome::Idle => break,
            }
        }
    }

    /// The CPU's slice of the cycle: fetch if needed, then try to execute.
    fn cpu_step<S: EventSink>(&mut self, sink: &mut S) -> Result<(), RunError> {
        if self.cpu.pending.is_none() {
            if self.cpu.cycle < self.cpu.fetch_ready_at {
                return Ok(()); // branch bubble (accounted at the branch)
            }
            if self.fetch(sink)? {
                return Ok(());
            }
        }
        if self.cpu.cycle < self.cpu.pending_ready_at {
            self.cpu.stalls.fetch += 1;
            return Ok(()); // fetch penalty elapsing
        }
        let uop = self.cpu.pending.expect("pending instruction present");
        if let Some((cause, _)) = self.cost_stall_horizon(&uop.cost) {
            self.emit_stall(sink, cause, 1);
            return Ok(());
        }
        let exec = self.perform(uop.instr, sink, None)?;
        self.complete(uop.instr, exec, sink);
        Ok(())
    }

    /// Fetches the instruction at the current PC, for both engines, and
    /// latches its micro-op ([`Machine::latch_fetch`]); returns whether
    /// the fetch stalls. While no write has landed in the text (the watch
    /// [`Machine::load_program`] set), the predecoded micro-op at a PC
    /// that has one is the decoded word, so only the fetch's cache-path
    /// timing is paid. Any other fetch reads and decodes the word in
    /// memory, which faults on a misaligned or out-of-range PC and
    /// reports an undecodable word exactly.
    #[inline(always)]
    fn fetch<S: EventSink>(&mut self, sink: &mut S) -> Result<bool, RunError> {
        let (uop, penalty) = match self.table_uop(self.cpu.pc) {
            Some(&uop) => (uop, self.mem.fetch_timing(self.cpu.pc, None)),
            None => self.fetch_from_memory()?,
        };
        Ok(self.latch_fetch(uop, penalty, sink))
    }

    /// The predecoded micro-op at `pc`, while the text is unwritten.
    #[inline(always)]
    fn table_uop(&self, pc: u32) -> Option<&Uop> {
        match &self.xlate {
            Some(xp) if self.mem.memory.watch_writes() == 0 => xp.uop(pc),
            _ => None,
        }
    }

    /// [`Machine::fetch`] at a PC the table does not vouch for.
    #[cold]
    #[inline(never)]
    fn fetch_from_memory(&mut self) -> Result<(Uop, u64), RunError> {
        let pc = self.cpu.pc;
        let (word, penalty) = self
            .mem
            .try_fetch(pc)
            .map_err(|fault| RunError::MemoryFault { pc, fault })?;
        let instr = Instr::decode(word).map_err(|e| RunError::BadInstruction {
            pc,
            message: e.to_string(),
        })?;
        let cost = InstrCost::of(&instr);
        Ok((Uop { instr, cost }, penalty))
    }

    /// Latches the instruction fetched at the current PC as the pending
    /// one, with its cost row, and returns whether its fetch stalls.
    /// Fetch stalls accrue one cycle at a time as the penalty elapses
    /// (this cycle is the first), so a run that ends mid-penalty has
    /// charged exactly the elapsed cycles; the event still reports the
    /// whole penalty up front.
    #[inline(always)]
    fn latch_fetch<S: EventSink>(&mut self, uop: Uop, penalty: u64, sink: &mut S) -> bool {
        self.cpu.pending = Some(uop);
        self.cpu.pending_ready_at = self.cpu.cycle + penalty;
        if penalty == 0 {
            return false;
        }
        self.cpu.stalls.fetch += 1;
        emit(
            sink,
            self.cpu.cycle,
            EventKind::Stall {
                pc: self.cpu.pc,
                instr_index: self.instr_index(),
                cause: StallCause::Fetch,
                cycles: penalty,
            },
        );
        true
    }

    /// Completes the instruction at the current PC once
    /// [`Machine::perform`] ran it, for both engines: counts it, marks
    /// progress for the watchdog, frees the fetch slot, reports the
    /// completion, and moves the PC or halts.
    fn complete<S: EventSink>(&mut self, instr: Instr, exec: Exec, sink: &mut S) {
        self.cpu.instructions += 1;
        self.cpu.last_progress = self.cpu.cycle;
        self.cpu.pending = None;
        emit(
            sink,
            self.cpu.cycle,
            EventKind::CpuComplete {
                pc: self.cpu.pc,
                instr_index: self.instr_index(),
                instr,
            },
        );
        match exec {
            Exec::Next => self.cpu.pc = self.cpu.pc.wrapping_add(4),
            Exec::Jump(target) => self.cpu.pc = target,
            Exec::Halted => self.cpu.halted = true,
        }
    }

    /// Charges `cycles` CPU stall cycles to `cause` and emits them at the
    /// current PC.
    fn emit_stall<S: EventSink>(&mut self, sink: &mut S, cause: StallCause, cycles: u64) {
        self.cpu.stalls.add(cause, cycles);
        emit(
            sink,
            self.cpu.cycle,
            EventKind::Stall {
                pc: self.cpu.pc,
                instr_index: self.instr_index(),
                cause,
                cycles,
            },
        );
    }

    /// `true` when `r` has a load in its delay slot (interlock).
    fn int_blocked(&self, r: IReg) -> bool {
        self.cpu.cycle < self.cpu.int_ready[r.index() as usize]
    }

    /// Executes `instr` at the current PC — the one copy of the
    /// instruction semantics, run by both engines once
    /// [`Machine::cost_stall_horizon`] found no hazard, with no journal,
    /// and by a memo replay with its journal. A journaled run saves every
    /// memory and cache change there for rollback, writes an `fld`'s
    /// register at once, and leaves the FPU's counts and IR alone: the
    /// replay commits the recording's counts, and a transfer's elements
    /// are steps of their own (DESIGN.md §13). Always inlined, like the
    /// guard: the span runs it once per instruction.
    #[inline(always)]
    fn perform<S: EventSink>(
        &mut self,
        instr: Instr,
        sink: &mut S,
        journal: Option<&mut Journal>,
    ) -> Result<Exec, RunError> {
        let replay = journal.is_some();
        let pc = self.cpu.pc;
        match instr {
            Instr::Nop => Ok(Exec::Next),
            Instr::Halt => Ok(Exec::Halted),

            Instr::Mfpsw { rd } => {
                let psw = self.fpu.psw();
                let mut v = psw.flags.bits() as i32;
                if let Some(dest) = psw.overflow_dest {
                    v |= (dest.index() as i32) << 8 | 1 << 15;
                }
                self.set_ireg(rd, v);
                Ok(Exec::Next)
            }

            Instr::ClrPsw => {
                self.fpu.clear_psw();
                Ok(Exec::Next)
            }

            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.ireg(rs1);
                let b = self.ireg(rs2);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Sll => ((a as u32) << (b as u32 & 31)) as i32,
                    AluOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
                    AluOp::Sra => a >> (b as u32 & 31),
                    AluOp::Slt => (a < b) as i32,
                    AluOp::Mul => a.wrapping_mul(b),
                };
                self.set_ireg(rd, v);
                Ok(Exec::Next)
            }

            Instr::Addi { rd, rs1, imm } => {
                self.set_ireg(rd, self.ireg(rs1).wrapping_add(imm));
                Ok(Exec::Next)
            }

            Instr::Lui { rd, imm } => {
                self.set_ireg(rd, ((imm << 14) & 0xFFFF_C000) as i32);
                Ok(Exec::Next)
            }

            Instr::Lw { rd, base, offset } => {
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                let (value, penalty) = self
                    .mem
                    .try_load_u32(addr, journal)
                    .map_err(|fault| RunError::MemoryFault { pc, fault })?;
                self.set_ireg(rd, value as i32);
                // One load delay slot beyond any miss stall.
                self.cpu.int_ready[rd.index() as usize] =
                    self.cpu.cycle + penalty + self.config.machine.timing.int_load_delay_cycles;
                self.data_access(sink, false, penalty);
                Ok(Exec::Next)
            }

            Instr::Sw { rs, base, offset } => {
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                let value = self.ireg(rs) as u32;
                let penalty = self
                    .mem
                    .try_store_u32(addr, value, journal)
                    .map_err(|fault| RunError::MemoryFault { pc, fault })?;
                self.data_access(sink, true, penalty);
                Ok(Exec::Next)
            }

            Instr::Fld { fr, base, offset } => {
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                let (bits, penalty) = self
                    .mem
                    .try_load_f64(addr, journal)
                    .map_err(|fault| RunError::MemoryFault { pc, fault })?;
                if replay {
                    self.fpu.write_reg_direct(fr, bits);
                } else {
                    self.fpu.load_write(fr, bits, self.cpu.cycle + penalty);
                }
                self.data_access(sink, false, penalty);
                Ok(Exec::Next)
            }

            Instr::Fst { fr, base, offset } => {
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                let penalty = self
                    .mem
                    .try_store_f64(addr, self.fpu.read_reg(fr), journal)
                    .map_err(|fault| RunError::MemoryFault { pc, fault })?;
                if !replay {
                    // The store happened: count it (the guard held the
                    // register free). A faulting one is not counted.
                    self.fpu.read_reg_for_store(fr);
                }
                self.data_access(sink, true, penalty);
                Ok(Exec::Next)
            }

            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                if cond.eval(self.ireg(rs1), self.ireg(rs2)) {
                    self.take_branch_bubble(sink);
                    let target = (pc / 4).wrapping_add(1).wrapping_add(offset as u32);
                    Ok(Exec::Jump(target.wrapping_mul(4)))
                } else {
                    Ok(Exec::Next)
                }
            }

            Instr::Jump { target } => {
                self.take_branch_bubble(sink);
                Ok(Exec::Jump(target.wrapping_mul(4)))
            }

            Instr::Jal { target } => {
                self.set_ireg(IReg::new(31), pc.wrapping_add(4) as i32);
                self.take_branch_bubble(sink);
                Ok(Exec::Jump(target.wrapping_mul(4)))
            }

            Instr::Jr { rs } => {
                self.take_branch_bubble(sink);
                Ok(Exec::Jump(self.ireg(rs) as u32))
            }

            Instr::Falu(f) => {
                if !replay {
                    let transferred = self.fpu.try_transfer(f);
                    debug_assert!(transferred, "the IR guard held this transfer");
                }
                // Subsequent FPU-side events (element issues, scoreboard
                // stalls, drain) belong to this instruction.
                self.cpu.ir_pc = pc;
                self.cpu.ir_index = self.instr_index();
                emit(
                    sink,
                    self.cpu.cycle,
                    EventKind::Transfer {
                        pc,
                        instr_index: self.cpu.ir_index,
                        instr: f,
                    },
                );
                Ok(Exec::Next)
            }
        }
    }

    fn take_branch_bubble<S: EventSink>(&mut self, sink: &mut S) {
        let penalty = self.config.machine.timing.branch_penalty;
        self.cpu.fetch_ready_at = self.cpu.cycle + 1 + penalty;
        if penalty > 0 {
            self.emit_stall(sink, StallCause::Branch, penalty);
        }
    }

    /// Books the data-port access of the instruction at the current PC:
    /// the port stays busy beyond any miss penalty (a store takes two
    /// cycles, §2.4), and a data-cache miss freezes instruction issue for
    /// the penalty (the lock-step pipeline), while in-flight FPU results
    /// keep draining.
    fn data_access<S: EventSink>(&mut self, sink: &mut S, store: bool, penalty: u64) {
        let t = &self.config.machine.timing;
        let port = if store {
            t.store_port_cycles
        } else {
            t.load_port_cycles
        };
        self.cpu.ls_free_at = self.cpu.cycle + penalty + port;
        emit(
            sink,
            self.cpu.cycle,
            EventKind::DcacheAccess {
                pc: self.cpu.pc,
                instr_index: self.instr_index(),
                store,
                miss: penalty > 0,
                penalty,
            },
        );
        if penalty > 0 {
            self.cpu.freeze_until = self.cpu.cycle + 1 + penalty;
            self.emit_stall(sink, StallCause::DataMiss, penalty);
        }
    }

    /// The §2.3.2 hardware execution constraint: a load/store is held off
    /// while the *current* (next-to-issue) element of the ALU IR references
    /// its register. "If dependencies occur between loads and stores or
    /// elements in a vector other than the first, the compiler must break
    /// the vector" — the first unissued element is interlocked by this
    /// comparator against the IR's live specifier fields; later elements
    /// are software's responsibility, which [`crate::ordering_violations`]
    /// checks over a recorded run.
    fn current_element_conflict(&self, fr: FReg, is_load: bool) -> bool {
        let Some(active) = self.fpu.ir_active() else {
            return false;
        };
        let unary = active.instr.op.is_unary();
        let clashes = |refs| ViolationKind::clashes(refs, unary, fr, is_load) != [None, None];
        if !self.config.full_range_interlock {
            // Interlock against the current element only (the hardware the
            // paper builds; §2.3.2): its refs sit precomputed in the IR.
            return clashes(active.current_refs());
        }
        // Ardent-Titan-style hardware: check every unissued element's
        // register ranges (§2.3.2's first approach).
        (active.next_element..active.instr.vl).any(|e| clashes(active.instr.element(e)))
    }
}
