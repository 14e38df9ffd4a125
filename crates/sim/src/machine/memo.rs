//! The translated engine's loop-iteration memo, after FastSim (Schnarr
//! & Larus, "Fast Out-of-Order Processor Simulation Using Memoization",
//! ASPLOS 1998).
//!
//! The paper's loops settle into a steady state: each strip repeats the
//! same loads, vector transfer, stores and counter branch, and its timing
//! depends only on the timing state at the loop head and on a few
//! outcomes — fetch and data-cache penalties, branch directions, overflow.
//! At a *loop head* (a taken backward branch just completed) whose FPU is
//! quiescent, the memo keys the timing state relative to the cycle. The
//! second time a key is seen the span records the iteration that follows;
//! afterwards the iteration is *replayed*: each instruction runs through
//! `perform` with the replay's journal, each element's result is written
//! at once, every outcome the timing depended on is checked against the
//! recording (a data-cache penalty as the freeze horizon `perform` left),
//! and the recorded end state and counter deltas are committed. Any
//! mismatch rolls the replay back through the journal without a trace
//! and the span runs the iteration. DESIGN.md §13 gives the argument.

use std::collections::HashMap;

use mt_core::{FpuStats, RegisterFile};
use mt_fparith::{execute, Exceptions, FpOp};
use mt_isa::fpu::ElementRefs;
use mt_isa::Instr;
use mt_mem::Journal;
use mt_trace::{EventKind, EventSink, NullSink, StallCause, TraceEvent};

use super::{Exec, Machine, RunError, SpanStop};
use crate::stats::StallBreakdown;

/// Recordings kept per key: the outcome paths one timing state leads to
/// (the steady path, the loop exit, the two sides of a data-dependent
/// branch, a hit and a miss).
const PATHS_PER_KEY: usize = 4;
/// The memo's memory budget per machine; once spent, nothing new is
/// recorded (what is recorded still replays).
const BUDGET_BYTES: usize = 256 * 1024;
/// Steps (instructions plus element issues) of the longest iteration
/// recorded.
const MAX_STEPS: usize = 4096;
/// A key is given up once its replays have rolled back this many times
/// more than four times as often as they succeeded. Most rollbacks come
/// early in the iteration, at its first data-cache penalty, and cost far
/// less than a replay saves.
const ROLLBACK_CUTOFF: u32 = 16;
/// A key with no recording is given up after this many dropped
/// recordings; a key with recordings stops recording new paths.
const DROP_CUTOFF: u32 = 2;

/// What the loop-iteration memo did since the program was loaded
/// ([`Machine::memo_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Iterations recorded and kept.
    pub recorded: u64,
    /// Iterations replayed and committed.
    pub replayed: u64,
    /// Replays rolled back at an outcome that differed from the
    /// recording.
    pub rolled_back: u64,
    /// CPU instructions completed by committed replays.
    pub instructions_replayed: u64,
    /// Recordings dropped: the iteration ended with the FPU busy, held
    /// `mfpsw`, `clrpsw`, `halt` or an overflow abort, was too long, ran
    /// an instruction the predecode table does not hold, or the span
    /// stopped at a boundary inside it.
    pub dropped: u64,
    /// Loop heads skipped because the FPU was not quiescent.
    pub skipped_busy: u64,
    /// Loop heads skipped because their timing state did not fit a key
    /// (more than two integer loads in their delay slots).
    pub skipped_key: u64,
    /// Loop heads skipped because every recording would have run past
    /// the span's boundary.
    pub skipped_boundary: u64,
    /// Loop heads skipped because their key was given up.
    pub skipped_cut: u64,
    /// Loop heads skipped because the memo's budget was spent.
    pub skipped_full: u64,
}

/// The timing state at a quiescent loop head, relative to the cycle `C`:
/// six words. The machine's configuration is not in it — a memo belongs
/// to one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    pc: u32,
    /// `fetch_ready_at − C`, saturated at 0.
    fetch: u32,
    /// `ls_free_at − C`, saturated at 0.
    ls: u32,
    /// `freeze_until − C`, saturated at 0.
    freeze: u32,
    /// The integer registers still in a load delay slot, in register
    /// order, as `(int_ready[r] − C) << 5 | r`; 0 pads.
    ints: [u32; 2],
}

/// One recorded event of an iteration, in the order it happened.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Fetch at the PC with a penalty of `fetch` cycles, execute `instr`
    /// at cycle `C + at` with a data-cache penalty of `data`, and go on
    /// at `next`.
    Instr {
        instr: Instr,
        next: u32,
        at: u32,
        fetch: u32,
        data: u32,
    },
    /// One element issue: `refs.rr := op(refs.ra, refs.rb)`.
    Element { op: FpOp, refs: ElementRefs },
}

/// A recorded iteration: its steps, and what it changes relative to its
/// start at cycle `C`.
#[derive(Debug)]
struct Recording {
    steps: Box<[Step]>,
    cycles: u64,
    instructions: u64,
    /// `last_progress − C` and `pending_ready_at − C` at the end.
    last_progress: u64,
    pending_ready: u64,
    stalls: StallBreakdown,
    fpu: FpuStats,
    /// What was replayed right after this recording: the entry of its
    /// end key, so a steady-state loop chains replays without hashing,
    /// and the path to try there first.
    next: Option<(u32, Guess)>,
}

/// Which of a key's paths to try first: the last winner, with one bit of
/// hysteresis, so a loop's exit path (one win per loop) does not displace
/// its steady path while paths that alternate each get tried first in
/// turn.
#[derive(Debug, Clone, Copy, Default)]
struct Guess {
    path: usize,
    sure: bool,
}

impl Guess {
    fn update(&mut self, winner: usize) {
        if winner == self.path {
            self.sure = true;
        } else if self.sure {
            self.sure = false;
        } else {
            self.path = winner;
        }
    }
}

/// Everything recorded from one key.
#[derive(Debug, Default)]
struct Entry {
    paths: Vec<Recording>,
    /// The path to try first when no link says otherwise.
    first: Guess,
    /// Whether the key was seen before: an iteration is recorded only
    /// from a key's second visit, so one-off loop heads (a loop's last
    /// trip into straight-line code) cost no recording.
    seen: bool,
    replays: u32,
    rollbacks: u32,
    drops: u32,
}

impl Entry {
    fn given_up(&self) -> bool {
        self.rollbacks > 4 * self.replays + ROLLBACK_CUTOFF
            || (self.paths.is_empty() && self.drops >= DROP_CUTOFF)
    }

    fn may_record(&self) -> bool {
        self.paths.len() < PATHS_PER_KEY && self.drops < DROP_CUTOFF
    }
}

/// The memo: a cache of recorded iterations, not machine state. A clone
/// is empty, so snapshots neither carry nor restore it, and `Debug` shows
/// only its counts. Allocated at the first loop head.
#[derive(Default)]
pub(super) struct Memo(Option<Box<Store>>);

impl Clone for Memo {
    fn clone(&self) -> Memo {
        Memo(None)
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Memo({:?})", self.counts())
    }
}

impl Memo {
    /// Forgets every recording and count (a new program or job).
    pub(super) fn clear(&mut self) {
        self.0 = None;
    }

    pub(super) fn counts(&self) -> MemoCounts {
        self.0.as_ref().map(|s| s.counts).unwrap_or_default()
    }
}

/// The recordings and what the memo needs to replay them.
#[derive(Debug, Default)]
struct Store {
    index: HashMap<Key, u32>,
    entries: Vec<Entry>,
    bytes: usize,
    counts: MemoCounts,
    recorder: Recorder,
    journal: Journal,
}

impl Store {
    /// The entry of `key`, created if the budget allows.
    fn entry(&mut self, key: Key) -> Option<u32> {
        if let Some(&e) = self.index.get(&key) {
            return Some(e);
        }
        let cost = std::mem::size_of::<(Key, u32)>() + std::mem::size_of::<Entry>();
        if self.bytes + cost > BUDGET_BYTES {
            return None;
        }
        let e = self.entries.len() as u32;
        self.entries.push(Entry::default());
        self.index.insert(key, e);
        self.bytes += cost;
        Some(e)
    }
}

/// The span's event sink while it records an iteration: the fetch and
/// data-cache penalties, the completed instructions and the element
/// issues, from the events the span already emits.
#[derive(Debug, Default)]
struct Recorder {
    steps: Vec<Step>,
    base: u64,
    /// Penalties of the instruction about to complete.
    fetch: u64,
    data: u64,
    /// Index of the last `Step::Instr`, whose `next` the next completion
    /// fills in.
    last: Option<usize>,
    replayable: bool,
}

impl Recorder {
    fn begin(&mut self, base: u64) {
        self.steps.clear();
        self.base = base;
        self.fetch = 0;
        self.data = 0;
        self.last = None;
        self.replayable = true;
    }

    fn push(&mut self, step: Step) {
        if self.steps.len() < MAX_STEPS {
            self.steps.push(step);
        } else {
            self.replayable = false;
        }
    }

    /// Sets the last instruction's successor.
    fn link(&mut self, pc: u32) {
        if let Some(Step::Instr { next, .. }) = self.last.and_then(|i| self.steps.get_mut(i)) {
            *next = pc;
        }
    }
}

impl EventSink for Recorder {
    /// A recording that can no longer be replayed takes no more events.
    fn enabled(&self) -> bool {
        self.replayable
    }

    fn event(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::Stall {
                cause: StallCause::Fetch,
                cycles,
                ..
            } => self.fetch = cycles,
            EventKind::DcacheAccess { penalty, .. } => self.data = penalty,
            EventKind::ElementIssue { op, refs, .. } => self.push(Step::Element { op, refs }),
            EventKind::CpuComplete { pc, instr, .. } => {
                self.link(pc);
                let fields = (
                    u32::try_from(ev.cycle - self.base),
                    u32::try_from(self.fetch),
                    u32::try_from(self.data),
                );
                // The PSW reads and writes would see flags a replay ORs
                // in only at its end; a halt ends the run.
                let psw_or_halt =
                    matches!(instr, Instr::Mfpsw { .. } | Instr::ClrPsw | Instr::Halt);
                match fields {
                    (Ok(at), Ok(fetch), Ok(data)) if !psw_or_halt => {
                        self.last = Some(self.steps.len());
                        self.push(Step::Instr {
                            instr,
                            next: 0,
                            at,
                            fetch,
                            data,
                        });
                    }
                    _ => self.replayable = false,
                }
                self.fetch = 0;
                self.data = 0;
            }
            _ => {}
        }
    }
}

/// The machine at a loop head: the counters a recording's deltas start
/// from, and the state a rolled-back replay restores (the memory system
/// has a journal of its own).
struct Head {
    cycle: u64,
    instructions: u64,
    stalls: StallBreakdown,
    fpu: FpuStats,
    fregs: RegisterFile,
    iregs: [i32; 32],
    int_ready: [u64; 32],
    pc: u32,
    ls_free_at: u64,
    freeze_until: u64,
    fetch_ready_at: u64,
    ir_pc: u32,
    ir_index: u32,
}

impl Machine {
    /// At a loop head the span reached, decides what happens there:
    /// runs past it (a written text, a busy FPU, a given-up key), replays
    /// recorded iterations from here while their outcomes hold, or
    /// records the iteration after a timing state not yet seen. Returns [`SpanStop::Boundary`] when the span it ran to
    /// record stopped at a boundary, else [`SpanStop::LoopHead`]: the
    /// machine is at a loop head, for the span to go on from.
    pub(super) fn at_loop_head(&mut self, static_boundary: u64) -> Result<SpanStop, RunError> {
        let mut memo = self.memo.0.take().unwrap_or_default();
        let stop = self.memo_loop(&mut memo, static_boundary);
        self.memo.0 = Some(memo);
        stop
    }

    fn memo_loop(&mut self, memo: &mut Store, static_boundary: u64) -> Result<SpanStop, RunError> {
        // The recording just replayed, as `(entry, path)`, and its link.
        let mut replayed: Option<(u32, usize)> = None;
        let mut link: Option<(u32, Guess)> = None;
        // The iteration being recorded: its entry and its loop head.
        let mut recording: Option<(u32, Head)> = None;
        loop {
            // Every head here passed the span's loop top: the span's own
            // (its boundary checked, what was due retired), or a
            // committed replay's, which ends below the boundary it was
            // checked against (the boundary only grows) and leaves
            // nothing in flight.
            let boundary = self.span_boundary(static_boundary);
            debug_assert!(
                self.cycle < boundary && self.fpu.next_retire_at().is_none_or(|r| r > self.cycle),
                "a loop head passed the span's loop top"
            );
            // By reference: a head is a kilobyte, and this runs at every
            // replayed head.
            if let Some((entry, head)) = &recording {
                self.finish_recording(memo, *entry, head);
                recording = None;
            }
            // A recording replays the instructions the table decoded,
            // which a write into the text may have made stale. (A
            // committed replay wrote none: a text write rolls it back.)
            if self.mem.memory.watch_writes() != 0 {
                return Ok(SpanStop::LoopHead);
            }
            if !self.fpu.quiescent() {
                memo.counts.skipped_busy += 1;
                return Ok(SpanStop::LoopHead);
            }
            let (entry, first) = match link.take() {
                Some(linked) => linked,
                None => {
                    let Some(key) = self.head_key() else {
                        memo.counts.skipped_key += 1;
                        return Ok(SpanStop::LoopHead);
                    };
                    let Some(e) = memo.entry(key) else {
                        memo.counts.skipped_full += 1;
                        return Ok(SpanStop::LoopHead);
                    };
                    (e, memo.entries[e as usize].first)
                }
            };

            let Store {
                entries,
                counts,
                journal,
                ..
            } = memo;
            let e = &mut entries[entry as usize];
            if e.given_up() {
                counts.skipped_cut += 1;
                return Ok(SpanStop::LoopHead);
            }
            let mut crossed = false;
            let mut hit = None;
            let tries = (first.path < e.paths.len()).then_some(first.path);
            for i in tries
                .into_iter()
                .chain((0..e.paths.len()).filter(|&i| i != first.path))
            {
                // The span's boundary at the head bounds it for the
                // whole iteration: `last_progress` only grows.
                if self.cycle + e.paths[i].cycles >= boundary {
                    crossed = true;
                } else if self.replay(&e.paths[i], journal) {
                    hit = Some(i);
                    break;
                } else {
                    counts.rolled_back += 1;
                    e.rollbacks += 1;
                }
            }
            let prev = replayed.take();
            if let Some(i) = hit {
                e.replays += 1;
                counts.replayed += 1;
                counts.instructions_replayed += e.paths[i].instructions;
                link = e.paths[i].next;
                let mut guess = first;
                guess.update(i);
                match prev {
                    Some((pe, pi)) => entries[pe as usize].paths[pi].next = Some((entry, guess)),
                    None => entries[entry as usize].first = guess,
                }
                replayed = Some((entry, i));
                continue;
            }
            if crossed {
                counts.skipped_boundary += 1;
                return Ok(SpanStop::LoopHead);
            }
            if !std::mem::replace(&mut e.seen, true)
                || !e.may_record()
                || memo.bytes >= BUDGET_BYTES
            {
                return Ok(SpanStop::LoopHead);
            }
            // Record the iteration the span runs now.
            memo.recorder.begin(self.cycle);
            let head = self.head();
            match self.span(static_boundary, &mut memo.recorder)? {
                SpanStop::Boundary => {
                    memo.counts.dropped += 1;
                    memo.entries[entry as usize].drops += 1;
                    return Ok(SpanStop::Boundary);
                }
                SpanStop::LoopHead => recording = Some((entry, head)),
            }
        }
    }

    /// The machine at the current cycle, a loop head.
    fn head(&self) -> Head {
        Head {
            cycle: self.cycle,
            instructions: self.instructions,
            stalls: self.stalls,
            fpu: *self.fpu.stats(),
            fregs: self.fpu.regs().clone(),
            iregs: self.iregs,
            int_ready: self.int_ready,
            pc: self.pc,
            ls_free_at: self.ls_free_at,
            freeze_until: self.freeze_until,
            fetch_ready_at: self.fetch_ready_at,
            ir_pc: self.ir_pc,
            ir_index: self.ir_index,
        }
    }

    /// The key of the timing state at the current cycle, or `None` when
    /// it does not fit one. The FPU must be quiescent.
    fn head_key(&self) -> Option<Key> {
        let now = self.cycle;
        let rel = |t: u64| u32::try_from(t.saturating_sub(now)).ok();
        let mut ints = [0u32; 2];
        let mut n = 0;
        for (r, &ready) in self.int_ready.iter().enumerate() {
            if ready > now {
                let d = u32::try_from(ready - now).ok().filter(|&d| d < 1 << 27)?;
                *ints.get_mut(n)? = d << 5 | r as u32;
                n += 1;
            }
        }
        Some(Key {
            pc: self.pc,
            fetch: rel(self.fetch_ready_at)?,
            ls: rel(self.ls_free_at)?,
            freeze: rel(self.freeze_until)?,
            ints,
        })
    }

    /// Keeps the iteration just recorded from `head` if it can be
    /// replayed: the FPU is quiescent again (every write issued in it
    /// also retired in it), every instruction it ran was fetched from the
    /// predecode table, and nothing made it unreplayable.
    fn finish_recording(&mut self, memo: &mut Store, entry: u32, head: &Head) {
        let rec = &mut memo.recorder;
        rec.link(self.pc);
        let fpu = self.fpu.stats().since(&head.fpu);
        if !rec.replayable
            || !self.fpu.quiescent()
            || fpu.overflow_aborts > 0
            || !self.fetched_from_table(head.pc, &rec.steps)
        {
            memo.counts.dropped += 1;
            memo.entries[entry as usize].drops += 1;
            return;
        }
        let recording = Recording {
            steps: rec.steps.as_slice().into(),
            cycles: self.cycle - head.cycle,
            instructions: self.instructions - head.instructions,
            last_progress: self.last_progress - head.cycle,
            pending_ready: self.pending_ready_at - head.cycle,
            stalls: self.stalls.since(&head.stalls),
            fpu,
            next: None,
        };
        memo.bytes +=
            std::mem::size_of::<Recording>() + recording.steps.len() * std::mem::size_of::<Step>();
        memo.entries[entry as usize].paths.push(recording);
        memo.counts.recorded += 1;
    }

    /// Whether every instruction of `steps`, run from `pc`, was fetched
    /// from the predecode table: the table holds its PC, and the text is
    /// still unwritten (so it was for the whole iteration). A word
    /// outside the text can change without the text's write watch
    /// noticing, and a replay does not fetch it again. Each
    /// instruction's PC is its predecessor's `next`.
    fn fetched_from_table(&self, mut pc: u32, steps: &[Step]) -> bool {
        steps.iter().all(|step| match *step {
            Step::Instr { next, .. } => self.table_uop(std::mem::replace(&mut pc, next)).is_some(),
            Step::Element { .. } => true,
        })
    }

    /// Replays `rec` from the loop head at the current cycle, or rolls
    /// back without a trace and returns `false` at the first outcome
    /// that differs from the recording.
    fn replay(&mut self, rec: &Recording, journal: &mut Journal) -> bool {
        let head = self.head();
        self.mem.begin_journal(journal);
        let mut flags = Exceptions::empty();
        if !self.replay_steps(&rec.steps, head.cycle, journal, &mut flags) {
            self.mem.roll_back(journal);
            *self.fpu.regs_mut() = head.fregs;
            self.iregs = head.iregs;
            self.int_ready = head.int_ready;
            self.pc = head.pc;
            self.cycle = head.cycle;
            self.ls_free_at = head.ls_free_at;
            self.freeze_until = head.freeze_until;
            self.fetch_ready_at = head.fetch_ready_at;
            self.stalls = head.stalls;
            self.ir_pc = head.ir_pc;
            self.ir_index = head.ir_index;
            return false;
        }
        // Commit: `perform` left the horizons, registers and PC exactly
        // as the span would have; the counters come from the recording.
        self.cycle = head.cycle + rec.cycles;
        self.instructions += rec.instructions;
        self.stalls = head.stalls;
        self.stalls.add_all(&rec.stalls);
        self.fpu.commit_replayed(&rec.fpu, flags);
        self.last_progress = head.cycle + rec.last_progress;
        self.pending_ready_at = head.cycle + rec.pending_ready;
        true
    }

    /// Runs a recording's steps: each instruction through `perform` with
    /// the replay's `journal` at its recorded cycle, each element's
    /// arithmetic written at issue. Returns `false` at the first fetch
    /// penalty, data-cache penalty or successor PC that differs from the
    /// recording, at a memory fault or a write into the text, and at an
    /// overflowing element.
    fn replay_steps(
        &mut self,
        steps: &[Step],
        base: u64,
        journal: &mut Journal,
        flags: &mut Exceptions,
    ) -> bool {
        for step in steps {
            match *step {
                Step::Instr {
                    instr,
                    next,
                    at,
                    fetch,
                    data,
                } => {
                    if self.mem.fetch_timing(self.pc, Some(journal)) != u64::from(fetch) {
                        return false;
                    }
                    self.cycle = base + u64::from(at);
                    // The recorded schedule runs each instruction at or
                    // after the previous freeze, so the freeze horizon
                    // `perform` leaves gives this step's data-cache
                    // penalty: `apply_miss` sets it to `cycle + 1 +
                    // penalty` on a miss and leaves it at or below `cycle`
                    // otherwise.
                    debug_assert!(self.freeze_until <= self.cycle, "a step in a freeze");
                    let to = match self.perform(instr, &mut NullSink, Some(journal)) {
                        Ok(Exec::Next) => self.pc.wrapping_add(4),
                        Ok(Exec::Jump(to)) => to,
                        Ok(Exec::Halted) | Err(_) => return false,
                    };
                    let penalty = self.freeze_until.saturating_sub(self.cycle + 1);
                    // A write into the text makes the span stop before its
                    // next fetch.
                    let text_written = matches!(instr, Instr::Sw { .. } | Instr::Fst { .. })
                        && self.mem.memory.watch_writes() != 0;
                    if penalty != u64::from(data) || to != next || text_written {
                        return false;
                    }
                    self.pc = to;
                }
                Step::Element { op, refs } => {
                    let regs = self.fpu.regs();
                    let (value, f) = execute(op, regs.read(refs.ra), regs.read(refs.rb));
                    if f.contains(Exceptions::OVERFLOW) {
                        return false;
                    }
                    *flags |= f;
                    self.fpu.write_reg_direct(refs.rr, value);
                }
            }
        }
        true
    }
}
