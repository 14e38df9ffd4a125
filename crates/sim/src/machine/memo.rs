//! The translated engine's loop-iteration memo, after FastSim (Schnarr
//! & Larus, "Fast Out-of-Order Processor Simulation Using Memoization",
//! ASPLOS 1998).
//!
//! The paper's loops settle into a steady state: each strip repeats the
//! same loads, vector transfer, stores and counter branch, and its timing
//! depends only on the timing state at the loop head and on a few
//! outcomes — fetch and data-cache penalties, branch directions, overflow.
//! At a *loop head* (a taken backward branch just completed) the memo
//! keys the timing state relative to the cycle, the FPU's included: up to
//! two writes in flight and a partly issued vector in the IR. The second
//! time a key is seen the span records the iteration that follows;
//! afterwards the iteration is *replayed*: each instruction runs through
//! `perform` with the replay's journal, each write's result is written at
//! once, every outcome the timing depended on is checked against the
//! recording (a data-cache penalty as the freeze horizon `perform` left),
//! and the recorded end state and counter deltas are committed, the
//! writes still in flight at the end put back in the pipeline. A key's
//! recordings share their common prefix as a tree: where an outcome
//! differs from the path being replayed, the replay follows the recording
//! that saw it. Only when none did does it roll back through the journal
//! without a trace, and the span runs the iteration. DESIGN.md §13 gives
//! the argument.

use std::collections::HashMap;
use std::mem::size_of;

use mt_core::pipeline::{InFlight, WriteSource};
use mt_core::{FpuStats, RegisterFile};
use mt_fparith::{execute, Exceptions, FpOp};
use mt_isa::fpu::ElementRefs;
use mt_isa::{FReg, FpuAluInstr, Instr};
use mt_mem::Journal;
use mt_trace::{EventKind, EventSink, NullSink, StallCause, TraceEvent};

use super::{Cpu, Exec, Machine, RunError, SpanStop};
use crate::stats::StallBreakdown;

/// Paths kept per key: the outcome paths one timing state leads to (the
/// steady path, the loop exit, each side of each data-dependent branch,
/// hits and misses).
const PATHS_PER_KEY: usize = 32;
/// The memo's memory budget per machine: keys, entries and recordings.
/// When it is spent the keys seen only once are forgotten; when that
/// frees nothing, nothing new is recorded (what is recorded still
/// replays).
const BUDGET_BYTES: usize = 256 * 1024;
/// Steps (instructions plus element issues) of the longest iteration
/// recorded.
const MAX_STEPS: usize = 4096;
/// A key is given up once its replays have rolled back this many times
/// more than four times as often as they succeeded.
const ROLLBACK_CUTOFF: u32 = 16;
/// A key with no recording is given up after this many dropped
/// recordings; a key with recordings stops recording new paths.
const DROP_CUTOFF: u32 = 2;
/// FPU writes in flight a key holds.
const WRITES: usize = 2;
/// The end of a chain of alternatives.
const NO_ALT: u32 = u32::MAX;
/// A never-read placeholder for a write in flight.
const NO_WRITE: InFlight = InFlight {
    ready_at: 0,
    dest: FReg::new(0),
    value: 0,
    flags: Exceptions::empty(),
    source: WriteSource::Load,
};

/// What the loop-iteration memo did since the program was loaded
/// ([`Machine::memo_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Iterations recorded and kept.
    pub recorded: u64,
    /// Iterations replayed and committed.
    pub replayed: u64,
    /// Replays rolled back: at an outcome no recording of their key saw,
    /// an overflowing write, a memory fault or a write into the text.
    pub rolled_back: u64,
    /// CPU instructions completed by committed replays.
    pub instructions_replayed: u64,
    /// Recordings dropped: the iteration ended with more FPU state than
    /// a key holds, held `mfpsw`, `clrpsw`, `halt` or an overflow abort,
    /// was too long, ran an instruction the predecode table does not
    /// hold, repeated a recorded path, found the budget spent, or the
    /// span stopped at a boundary inside it.
    pub dropped: u64,
    /// Loop heads skipped because the FPU held more than a key holds:
    /// more than two writes in flight, or a reservation that is no
    /// write's (a stuck bit).
    pub skipped_busy: u64,
    /// Loop heads skipped because their CPU timing state did not fit a
    /// key (more than two integer loads in their delay slots).
    pub skipped_key: u64,
    /// Loop heads skipped because the path replayed from them would
    /// have run past the span's boundary.
    pub skipped_boundary: u64,
    /// Loop heads skipped because their key was given up.
    pub skipped_cut: u64,
    /// Loop heads skipped because the memo's budget was spent.
    pub skipped_full: u64,
}

/// The timing state at a loop head, relative to the cycle `C`: ten
/// words. The machine's configuration is not in it — a memo belongs to
/// one machine.
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
    /// The FPU's writes in flight, in retirement order, as
    /// `(ready_at − C) << 6 | register`; 0 pads.
    writes: [u32; WRITES],
    /// When the IR is occupied: its transfer PC and next element.
    ir: Option<(u32, u8)>,
}

/// The FPU's part of a [`Key`]: its `writes` and `ir`.
type FpuKey = ([u32; WRITES], Option<(u32, u8)>);

/// One recorded instruction: executed at cycle `C + at` with a
/// data-cache penalty of `data`; the path goes on at `next`, fetched
/// with a penalty of `fetch` cycles (0 after the path's last
/// instruction, which fetches nothing). The next fetch is an outcome of
/// this step, not of the next instruction's: its penalty decides how
/// many elements issue before the next instruction completes, so the
/// tree branches on it ahead of those elements.
#[derive(Debug, Clone, Copy)]
struct Executed {
    instr: Instr,
    next: u32,
    at: u32,
    fetch: u16,
    data: u16,
    /// The next recorded alternative at this step: the same instruction
    /// after the same prefix, with another outcome ([`NO_ALT`] ends the
    /// chain).
    alt: u32,
}

/// One recorded event of an iteration, in the order it happened, or the
/// start or end of a path.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A path's start: its first instruction was fetched with a penalty
    /// of `fetch` cycles; `alt` chains the other recorded penalties.
    Start {
        fetch: u16,
        alt: u32,
    },
    Instr(Executed),
    /// One element issue: `refs.rr := op(refs.ra, refs.rb)`.
    Element {
        op: FpOp,
        refs: ElementRefs,
    },
    /// The end of a path: [`Entry::ends`]`[path]`.
    End {
        path: u32,
    },
}

impl Step {
    /// A branch point's recorded outcome — the next fetch penalty, and
    /// for an instruction its data-cache penalty and successor — and
    /// its next alternative.
    fn outcome(&self) -> ((u16, u16, u32), u32) {
        match *self {
            Step::Start { fetch, alt } => ((fetch, 0, 0), alt),
            Step::Instr(x) => ((x.fetch, x.data, x.next), x.alt),
            _ => unreachable!("an alternative is a start or an instruction"),
        }
    }
}

/// The first alternative of the chain at `steps[n]` (a start or an
/// instruction) that recorded `outcome`, or the chain's last one when no
/// path did.
#[inline(always)]
fn follow(steps: &[Step], mut n: u32, outcome: (u16, u16, u32)) -> Result<u32, u32> {
    loop {
        let (seen, alt) = steps[n as usize].outcome();
        if seen == outcome {
            return Ok(n);
        }
        if alt == NO_ALT {
            return Err(n);
        }
        n = alt;
    }
}

/// An element a path issued that is still in flight at its end.
#[derive(Debug, Clone, Copy)]
struct Issued {
    dest: FReg,
    /// `ready_at − C`.
    ready: u64,
    /// Its vector's instruction id, relative to the transfers before `C`
    /// (−1 is the IR's at `C`).
    instr: i64,
    element: u8,
}

/// The end of a recorded path: what it changes relative to its start at
/// cycle `C`.
#[derive(Debug)]
struct End {
    cycles: u64,
    instructions: u64,
    /// `last_progress − C` and `pending_ready_at − C` at the end.
    last_progress: u64,
    pending_ready: u64,
    stalls: StallBreakdown,
    fpu: FpuStats,
    /// The elements still in flight at the end, in retirement order: the
    /// path's last element steps.
    issued: Box<[Issued]>,
    /// The IR at the end: its instruction and next element.
    ir: Option<(FpuAluInstr, u8)>,
    /// The entry of the end key, once a replay of this path was followed
    /// by a head with an entry, so a steady-state loop chains replays
    /// without hashing.
    link: Option<u32>,
}

/// Everything recorded from one key.
#[derive(Debug, Default)]
struct Entry {
    /// The recorded paths as a tree: `steps[0]` starts every path, each
    /// step is followed by the next in the vector, and the `alt` chain
    /// of a start or an instruction holds the recorded outcomes of that
    /// step after the same prefix.
    steps: Vec<Step>,
    ends: Vec<End>,
    /// The fewest cycles of any path.
    shortest: u64,
    replays: u32,
    rollbacks: u32,
    drops: u32,
}

/// Where a new path leaves the tree.
struct Graft {
    /// Its first step not on a recorded path.
    from: usize,
    /// The alternative it follows in the chain of its first new step
    /// (`None` for the first path).
    after: Option<u32>,
}

impl Entry {
    fn given_up(&self) -> bool {
        self.rollbacks > 4 * self.replays + ROLLBACK_CUTOFF
            || (self.ends.is_empty() && self.drops >= DROP_CUTOFF)
    }

    fn may_record(&self) -> bool {
        self.drops < DROP_CUTOFF
    }

    /// Where the recorded `steps` leave the tree: they follow every
    /// alternative with their outcomes until one step has an outcome no
    /// path recorded. `None` when they repeat a recorded path.
    fn graft(&self, steps: &[Step]) -> Option<Graft> {
        if self.steps.is_empty() {
            return Some(Graft {
                from: 0,
                after: None,
            });
        }
        let mut i = 0u32;
        for (s, step) in steps.iter().enumerate() {
            match (step, &self.steps[i as usize]) {
                (Step::Element { .. }, Step::Element { .. }) => i += 1,
                (Step::Start { .. }, Step::Start { .. }) | (Step::Instr(_), Step::Instr(_)) => {
                    match follow(&self.steps, i, step.outcome().0) {
                        Ok(n) => {
                            if let (Step::Instr(x), Step::Instr(r)) =
                                (&self.steps[n as usize], step)
                            {
                                debug_assert_eq!(
                                    (x.instr, x.at),
                                    (r.instr, r.at),
                                    "one outcome, one step"
                                );
                            }
                            i = n + 1;
                        }
                        Err(last) => {
                            return Some(Graft {
                                from: s,
                                after: Some(last),
                            })
                        }
                    }
                }
                // The same outcomes led the span elsewhere: the key
                // missed some timing state.
                _ => {
                    debug_assert!(false, "a recording strays from its prefix");
                    return None;
                }
            }
        }
        None
    }

    /// Forgets every path; returns the bytes they took.
    fn forget_paths(&mut self) -> usize {
        let bytes = self.steps.len() * size_of::<Step>() + self.ends.len() * size_of::<End>();
        self.steps = Vec::new();
        self.ends = Vec::new();
        bytes
    }

    /// Adds a path's steps from where it leaves the tree, and its end.
    /// The vectors grow exactly, so they take the bytes charged for them.
    fn add(&mut self, steps: &[Step], graft: Graft, end: End) {
        let first = self.steps.len() as u32;
        self.steps.reserve_exact(steps.len() - graft.from + 1);
        self.ends.reserve_exact(1);
        if let Some(n) = graft.after {
            if let Step::Start { alt, .. } | Step::Instr(Executed { alt, .. }) =
                &mut self.steps[n as usize]
            {
                *alt = first;
            }
        }
        self.steps.extend_from_slice(&steps[graft.from..]);
        self.steps.push(Step::End {
            path: self.ends.len() as u32,
        });
        self.shortest = if self.ends.is_empty() {
            end.cycles
        } else {
            self.shortest.min(end.cycles)
        };
        self.ends.push(end);
    }
}

/// A key's place in the index: seen once, or with an entry.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Seen,
    Entry(u32),
}

/// What a loop head's key has in the index.
enum Visit {
    /// Its entry.
    Entry(u32),
    /// Nothing: this is its first visit, now noted.
    First,
    /// Nothing, and the budget is spent.
    Full,
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
    index: HashMap<Key, Slot>,
    /// How many keys of `index` were seen only once.
    seen: usize,
    entries: Vec<Entry>,
    bytes: usize,
    counts: MemoCounts,
    recorder: Recorder,
    journal: Journal,
}

/// What one key of the index costs.
const SLOT_BYTES: usize = size_of::<(Key, Slot)>();

impl Store {
    /// Takes `cost` bytes from the budget, forgetting the keys seen only
    /// once if that makes room; `false` when nothing does.
    fn charge(&mut self, cost: usize) -> bool {
        if self.bytes + cost > BUDGET_BYTES && self.seen > 0 {
            self.index.retain(|_, slot| matches!(slot, Slot::Entry(_)));
            self.bytes -= self.seen * SLOT_BYTES;
            self.seen = 0;
        }
        if self.bytes + cost > BUDGET_BYTES {
            return false;
        }
        self.bytes += cost;
        true
    }

    /// Visits `key`: notes it at its first visit, and gives it an entry
    /// at its second, so a one-off loop head (a loop's last trip into
    /// straight-line code) costs no entry.
    fn visit(&mut self, key: Key) -> Visit {
        let e = self.entries.len() as u32;
        match self.index.get_mut(&key) {
            Some(&mut Slot::Entry(e)) => return Visit::Entry(e),
            // Charged as an entry's from here on: forgetting the keys
            // seen once does not count it.
            Some(slot) => *slot = Slot::Entry(e),
            None => {
                if !self.charge(SLOT_BYTES) {
                    return Visit::Full;
                }
                self.index.insert(key, Slot::Seen);
                self.seen += 1;
                return Visit::First;
            }
        }
        self.seen -= 1;
        if !self.charge(size_of::<Entry>()) {
            self.index.insert(key, Slot::Seen);
            self.seen += 1;
            return Visit::Full;
        }
        self.entries.push(Entry::default());
        Visit::Entry(e)
    }
}

/// The span's event sink while it records an iteration: the fetch and
/// data-cache penalties, the completed instructions and the element
/// issues, from the events the span already emits.
#[derive(Debug, Default)]
struct Recorder {
    steps: Vec<Step>,
    base: u64,
    /// The data-cache penalty of the instruction about to complete.
    data: u64,
    /// Index of the last start or instruction step, whose next fetch
    /// penalty, and for an instruction its successor, come next.
    last: usize,
    replayable: bool,
}

impl Recorder {
    fn begin(&mut self, base: u64) {
        self.steps.clear();
        self.steps.push(Step::Start {
            fetch: 0,
            alt: NO_ALT,
        });
        self.base = base;
        self.data = 0;
        self.last = 0;
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
        if let Some(Step::Instr(x)) = self.steps.get_mut(self.last) {
            x.next = pc;
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
            } => match (self.steps.get_mut(self.last), u16::try_from(cycles)) {
                (
                    Some(Step::Start { fetch, .. } | Step::Instr(Executed { fetch, .. })),
                    Ok(cycles),
                ) => *fetch = cycles,
                _ => self.replayable = false,
            },
            EventKind::DcacheAccess { penalty, .. } => self.data = penalty,
            EventKind::ElementIssue { op, refs, .. } => self.push(Step::Element { op, refs }),
            EventKind::CpuComplete { pc, instr, .. } => {
                self.link(pc);
                let fields = (
                    u32::try_from(ev.cycle - self.base),
                    u16::try_from(self.data),
                );
                // The PSW reads and writes would see flags a replay ORs
                // in only at its end; a halt ends the run.
                let psw_or_halt =
                    matches!(instr, Instr::Mfpsw { .. } | Instr::ClrPsw | Instr::Halt);
                match fields {
                    (Ok(at), Ok(data)) if !psw_or_halt => {
                        self.last = self.steps.len();
                        self.push(Step::Instr(Executed {
                            instr,
                            next: 0,
                            at,
                            fetch: 0,
                            data,
                            alt: NO_ALT,
                        }));
                    }
                    _ => self.replayable = false,
                }
                self.data = 0;
            }
            _ => {}
        }
    }
}

/// The machine at a loop head: the state a rolled-back replay restores
/// (the whole CPU and the FP register file; the memory system has a
/// journal of its own), and the counters a recording's deltas start from.
struct Head {
    cpu: Cpu,
    fpu: FpuStats,
    fregs: RegisterFile,
    /// The FPU's writes in flight, in retirement order: the first
    /// `in_flight`.
    writes: [InFlight; WRITES],
    in_flight: usize,
}

/// One element write of a replay: its register's value before and after.
#[derive(Debug, Clone, Copy)]
struct Written {
    dest: FReg,
    old: u64,
    value: u64,
    flags: Exceptions,
}

/// A replay's last [`WRITES`] element writes, which its path may leave
/// in flight, in a ring, and the flags of every element before them.
#[derive(Debug)]
struct Tail {
    writes: [Written; WRITES],
    /// Element writes so far.
    len: usize,
    flags: Exceptions,
}

impl Tail {
    fn new() -> Tail {
        let none = Written {
            dest: FReg::new(0),
            old: 0,
            value: 0,
            flags: Exceptions::empty(),
        };
        Tail {
            writes: [none; WRITES],
            len: 0,
            flags: Exceptions::empty(),
        }
    }

    /// Adds a write, folding the flags of the one it pushes out (none
    /// while the ring fills: its slots start without flags).
    #[inline(always)]
    fn push(&mut self, w: Written) {
        let slot = &mut self.writes[self.len % WRITES];
        self.flags |= slot.flags;
        *slot = w;
        self.len += 1;
    }

    /// The `j`-th element write, one of the last [`WRITES`].
    fn get(&self, j: usize) -> &Written {
        debug_assert!(
            j < self.len && j + WRITES >= self.len,
            "a write of the ring"
        );
        &self.writes[j % WRITES]
    }
}

/// How a replay ended.
enum Replay {
    /// Committed the path to this end.
    Committed(u32),
    /// Rolled back: an outcome no path recorded, an overflow, a fault or
    /// a write into the text.
    Missed,
    /// Rolled back: the path it followed ends at or past the boundary.
    Crossed,
}

impl Machine {
    /// At a loop head the span reached, decides what happens there:
    /// runs past it (a written text, an unkeyable head, a given-up key),
    /// replays recorded iterations from here while some path's outcomes
    /// hold, or records the iteration after an outcome not yet seen.
    /// Returns [`SpanStop::Boundary`] when the span it ran to record
    /// stopped at a boundary, else [`SpanStop::LoopHead`]: the machine is
    /// at a loop head, for the span to go on from.
    pub(super) fn at_loop_head(&mut self, static_boundary: u64) -> Result<SpanStop, RunError> {
        let mut memo = self.memo.0.take().unwrap_or_default();
        let stop = self.memo_loop(&mut memo, static_boundary);
        self.memo.0 = Some(memo);
        stop
    }

    fn memo_loop(&mut self, memo: &mut Store, static_boundary: u64) -> Result<SpanStop, RunError> {
        // The path just replayed, as `(entry, end)`, and its link.
        let mut replayed: Option<(u32, u32)> = None;
        let mut link: Option<u32> = None;
        // The iteration being recorded: its entry and its loop head.
        let mut recording: Option<(u32, Head)> = None;
        loop {
            // Every head here passed the span's loop top: the span's own
            // (its boundary checked, what was due retired), or a
            // committed replay's, which ends below the boundary it was
            // checked against and leaves in flight only writes due later.
            let boundary = self.span_boundary(static_boundary);
            debug_assert!(
                self.cpu.cycle < boundary
                    && self.fpu.next_retire_at().is_none_or(|r| r > self.cpu.cycle),
                "a loop head passed the span's loop top"
            );
            // By reference: a head is a kilobyte, and this runs at every
            // recorded head.
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
            let entry = match link.take() {
                Some(linked) => linked,
                None => {
                    let Some(fpu) = self.fpu_key() else {
                        memo.counts.skipped_busy += 1;
                        return Ok(SpanStop::LoopHead);
                    };
                    let Some(key) = self.head_key(fpu) else {
                        memo.counts.skipped_key += 1;
                        return Ok(SpanStop::LoopHead);
                    };
                    match memo.visit(key) {
                        Visit::Entry(e) => {
                            if let Some((pe, end)) = replayed {
                                memo.entries[pe as usize].ends[end as usize].link = Some(e);
                            }
                            e
                        }
                        Visit::First => return Ok(SpanStop::LoopHead),
                        Visit::Full => {
                            memo.counts.skipped_full += 1;
                            return Ok(SpanStop::LoopHead);
                        }
                    }
                }
            };
            replayed = None;

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
            if !e.ends.is_empty() {
                // The span's boundary at the head bounds it for the
                // whole iteration: `last_progress` only grows.
                let outcome = if self.cpu.cycle + e.shortest >= boundary {
                    Replay::Crossed
                } else {
                    self.replay(e, journal, boundary)
                };
                match outcome {
                    Replay::Committed(end) => {
                        e.replays += 1;
                        counts.replayed += 1;
                        counts.instructions_replayed += e.ends[end as usize].instructions;
                        link = e.ends[end as usize].link;
                        replayed = Some((entry, end));
                        continue;
                    }
                    Replay::Crossed => {
                        counts.skipped_boundary += 1;
                        return Ok(SpanStop::LoopHead);
                    }
                    Replay::Missed => {
                        counts.rolled_back += 1;
                        e.rollbacks += 1;
                    }
                }
            }
            if !e.may_record() {
                return Ok(SpanStop::LoopHead);
            }
            // Record the iteration the span runs now.
            memo.recorder.begin(self.cpu.cycle);
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

    /// The machine at the current cycle, a loop head: a copy of the CPU,
    /// the FP register file, the FPU's counters and its writes in flight.
    fn head(&self) -> Head {
        let mut writes = [NO_WRITE; WRITES];
        let mut in_flight = 0;
        for (slot, w) in writes.iter_mut().zip(self.fpu.writes_in_flight()) {
            *slot = *w;
            in_flight += 1;
        }
        Head {
            cpu: self.cpu,
            fpu: *self.fpu.stats(),
            fregs: self.fpu.regs().clone(),
            writes,
            in_flight,
        }
    }

    /// The key of the timing state at the current cycle with the FPU's
    /// part `fpu`, or `None` when it does not fit one.
    fn head_key(&self, (writes, ir): FpuKey) -> Option<Key> {
        let now = self.cpu.cycle;
        let rel = |t: u64| u32::try_from(t.saturating_sub(now)).ok();
        let mut ints = [0u32; 2];
        let mut n = 0;
        for (r, &ready) in self.cpu.int_ready.iter().enumerate() {
            if ready > now {
                let d = u32::try_from(ready - now).ok().filter(|&d| d < 1 << 27)?;
                *ints.get_mut(n)? = d << 5 | r as u32;
                n += 1;
            }
        }
        Some(Key {
            pc: self.cpu.pc,
            fetch: rel(self.cpu.fetch_ready_at)?,
            ls: rel(self.cpu.ls_free_at)?,
            freeze: rel(self.cpu.freeze_until)?,
            ints,
            writes,
            ir,
        })
    }

    /// The FPU's part of the key at the current cycle: the writes in
    /// flight and the IR. `None` when it holds more than a key does: more
    /// than two writes, a reservation that is no write's, or an IR whose
    /// transfer PC does not name its instruction in the table.
    fn fpu_key(&self) -> Option<FpuKey> {
        let mut writes = [0u32; WRITES];
        let mut n = 0;
        for w in self.fpu.writes_in_flight() {
            let ready = w.ready_at.checked_sub(self.cpu.cycle)?;
            let ready = u32::try_from(ready).ok().filter(|&d| d < 1 << 26)?;
            *writes.get_mut(n)? = ready << 6 | u32::from(w.dest.index());
            n += 1;
        }
        // One reservation per write, each on its own register.
        if self.fpu.reservations() as usize != n
            || !self
                .fpu
                .writes_in_flight()
                .all(|w| self.fpu.reg_reserved(w.dest))
        {
            return None;
        }
        let ir = match self.fpu.ir_active() {
            None => None,
            Some(active) => {
                let named = self.table_uop(self.cpu.ir_pc).map(|u| u.instr);
                if named != Some(Instr::Falu(active.instr)) {
                    return None;
                }
                Some((self.cpu.ir_pc, active.next_element))
            }
        };
        Some((writes, ir))
    }

    /// Keeps the iteration just recorded from `head` if it can be
    /// replayed: it ends in an FPU state a key holds, every instruction
    /// it ran was fetched from the predecode table, and nothing made it
    /// unreplayable. It joins the tree of its key's paths where its
    /// outcomes leave every recorded one.
    fn finish_recording(&mut self, memo: &mut Store, entry: u32, head: &Head) {
        memo.recorder.link(self.cpu.pc);
        let rec = &memo.recorder;
        let fpu = self.fpu.stats().since(&head.fpu);
        let kept = (rec.replayable
            && fpu.overflow_aborts == 0
            && self.fetched_from_table(head.cpu.pc, &rec.steps))
        .then(|| self.path_end(head, &rec.steps, fpu))
        .flatten()
        .and_then(|end| Some((memo.entries[entry as usize].graft(&rec.steps)?, end)));
        let Some((graft, end)) = kept else {
            memo.counts.dropped += 1;
            memo.entries[entry as usize].drops += 1;
            return;
        };
        let steps = rec.steps.len();
        let cost = |from: usize| (steps - from + 1) * size_of::<Step>() + size_of::<End>();
        let graft = if memo.entries[entry as usize].ends.len() >= PATHS_PER_KEY {
            // The key starts its tree over with the new path.
            memo.bytes -= memo.entries[entry as usize].forget_paths();
            Graft {
                from: 0,
                after: None,
            }
        } else {
            graft
        };
        let graft = if memo.charge(cost(graft.from)) {
            graft
        } else {
            // Every key starts its tree over, so a warm loop's paths
            // displace its cold ones.
            for e in &mut memo.entries {
                memo.bytes -= e.forget_paths();
            }
            if !memo.charge(cost(0)) {
                memo.counts.dropped += 1;
                return;
            }
            Graft {
                from: 0,
                after: None,
            }
        };
        memo.entries[entry as usize].add(&memo.recorder.steps, graft, end);
        memo.counts.recorded += 1;
    }

    /// The end of the path just recorded from `head` with `steps`: its
    /// deltas, the elements it leaves in flight and the IR. `None` when
    /// the FPU holds more than a key does.
    fn path_end(&self, head: &Head, steps: &[Step], fpu: FpuStats) -> Option<End> {
        self.fpu_key()?;
        // The head's writes due later are still in flight, first; the
        // others are the path's last element steps.
        let survivors = head.writes[..head.in_flight]
            .iter()
            .filter(|w| w.ready_at > self.cpu.cycle)
            .count();
        let mut elements = steps.iter().rev().filter_map(|s| match s {
            Step::Element { refs, .. } => Some(refs.rr),
            _ => None,
        });
        let late: Vec<&InFlight> = self.fpu.writes_in_flight().skip(survivors).collect();
        let mut issued = Vec::with_capacity(late.len());
        for w in late.iter().rev() {
            let WriteSource::AluElement { instr_id, element } = w.source else {
                return None;
            };
            if elements.next() != Some(w.dest) {
                debug_assert!(false, "a write in flight is the path's last element");
                return None;
            }
            issued.push(Issued {
                dest: w.dest,
                ready: w.ready_at - head.cpu.cycle,
                instr: instr_id as i64 - head.fpu.instructions_transferred as i64,
                element,
            });
        }
        issued.reverse();
        Some(End {
            cycles: self.cpu.cycle - head.cpu.cycle,
            instructions: self.cpu.instructions - head.cpu.instructions,
            last_progress: self.cpu.last_progress - head.cpu.cycle,
            pending_ready: self.cpu.pending_ready_at - head.cpu.cycle,
            stalls: self.cpu.stalls.since(&head.cpu.stalls),
            fpu,
            issued: issued.into(),
            ir: self.fpu.ir_active().map(|a| (a.instr, a.next_element)),
            link: None,
        })
    }

    /// Whether every instruction of `steps`, run from `pc`, was fetched
    /// from the predecode table: the table holds its PC, and the text is
    /// still unwritten (so it was for the whole iteration). A word
    /// outside the text can change without the text's write watch
    /// noticing, and a replay does not fetch it again. Each
    /// instruction's PC is its predecessor's `next`.
    fn fetched_from_table(&self, mut pc: u32, steps: &[Step]) -> bool {
        steps.iter().all(|step| match *step {
            Step::Instr(x) => self.table_uop(std::mem::replace(&mut pc, x.next)).is_some(),
            _ => true,
        })
    }

    /// Replays the path of `e`'s tree that the outcomes lead to, from
    /// the loop head at the current cycle, and commits it if it ends
    /// before `boundary`; otherwise rolls back without a trace: the
    /// memory system through the journal, and the whole CPU and the FP
    /// register file from the head (the pipeline and IR were not
    /// touched).
    fn replay(&mut self, e: &Entry, journal: &mut Journal, boundary: u64) -> Replay {
        let head = self.head();
        self.mem.begin_journal(journal);
        let mut tail = Tail::new();
        let outcome = match self.replay_steps(&e.steps, &head, journal, &mut tail) {
            Some(path) if head.cpu.cycle + e.ends[path as usize].cycles < boundary => {
                self.commit(&e.ends[path as usize], &head, &tail);
                return Replay::Committed(path);
            }
            Some(_) => Replay::Crossed,
            None => Replay::Missed,
        };
        self.mem.roll_back(journal);
        *self.fpu.regs_mut() = head.fregs;
        self.cpu = head.cpu;
        outcome
    }

    /// Commits the replay of the path to `end` from `head`: `perform`
    /// left the horizons, registers and PC exactly as the span would
    /// have, except for the writes in flight; the counters come from the
    /// recording.
    fn commit(&mut self, end: &End, head: &Head, tail: &Tail) {
        let now = head.cpu.cycle + end.cycles;
        let mut issued = [NO_WRITE; WRITES];
        let (flags, retired) = self.settle_writes(end, head, tail, now, &mut issued);
        self.cpu.cycle = now;
        self.cpu.instructions += end.instructions;
        self.cpu.stalls = head.cpu.stalls;
        self.cpu.stalls.add_all(&end.stalls);
        self.fpu.commit_replayed(
            &end.fpu,
            flags,
            retired,
            &issued[..end.issued.len()],
            end.ir,
        );
        self.cpu.last_progress = head.cpu.cycle + end.last_progress;
        self.cpu.pending_ready_at = head.cpu.cycle + end.pending_ready;
    }

    /// The writes in flight at a replay's head and end, at cycle `now`:
    /// the path's last element writes get their old values back and are
    /// `issued` again; the head's writes retired on the way, or are still
    /// in flight with their old values back. Returns the flags of what
    /// retired (every element write the path does not leave in flight)
    /// and how many of the head's writes did.
    fn settle_writes(
        &mut self,
        end: &End,
        head: &Head,
        tail: &Tail,
        now: u64,
        issued: &mut [InFlight; WRITES],
    ) -> (Exceptions, usize) {
        let mut flags = tail.flags;
        let late = end.issued.len();
        debug_assert!(
            late <= tail.len,
            "a path leaves its last elements in flight"
        );
        let first_late = tail.len - late;
        for j in tail.len.saturating_sub(WRITES)..first_late {
            flags |= tail.get(j).flags;
        }
        for (k, i) in end.issued.iter().enumerate() {
            let w = tail.get(first_late + k);
            debug_assert_eq!(w.dest, i.dest, "the path's last elements");
            self.fpu.write_reg_direct(w.dest, w.old);
            issued[k] = InFlight {
                ready_at: head.cpu.cycle + i.ready,
                dest: w.dest,
                value: w.value,
                flags: w.flags,
                source: WriteSource::AluElement {
                    instr_id: (head.fpu.instructions_transferred as i64 + i.instr) as u64,
                    element: i.element,
                },
            };
        }
        let mut retired = 0;
        for w in &head.writes[..head.in_flight] {
            if w.ready_at <= now {
                flags |= w.flags;
                retired += 1;
            } else {
                self.fpu.write_reg_direct(w.dest, head.fregs.read(w.dest));
            }
        }
        (flags, retired)
    }

    /// Runs the steps of the path the outcomes lead to from `head`: the
    /// writes in flight there are written at once, then each instruction
    /// runs through `perform` with the replay's `journal` at its recorded
    /// cycle and each element's arithmetic is written at issue, the last
    /// two kept in `tail`. The walk follows the start that recorded the
    /// first fetch penalty, and after each instruction the alternative
    /// that recorded its data-cache penalty, successor PC and the next
    /// fetch penalty. Returns the path's end, or `None` at an outcome no
    /// alternative recorded, at a memory fault or a write into the text,
    /// and at an overflowing write.
    fn replay_steps(
        &mut self,
        steps: &[Step],
        head: &Head,
        journal: &mut Journal,
        tail: &mut Tail,
    ) -> Option<u32> {
        // No one reads a register between a write's issue and its
        // retirement, so those in flight at the head are written now.
        for w in &head.writes[..head.in_flight] {
            if w.flags.contains(Exceptions::OVERFLOW) {
                return None;
            }
            self.fpu.write_reg_direct(w.dest, w.value);
        }
        let base = head.cpu.cycle;
        // The path's start branches on the first fetch.
        let fetch = self.mem.fetch_timing(self.cpu.pc, Some(journal));
        let mut i = follow(steps, 0, (u16::try_from(fetch).ok()?, 0, 0)).ok()? + 1;
        loop {
            match steps[i as usize] {
                Step::Instr(ref x) => {
                    self.cpu.cycle = base + u64::from(x.at);
                    // The recorded schedule runs each instruction at or
                    // after the previous freeze, so the freeze horizon
                    // `perform` leaves gives this step's data-cache
                    // penalty: `data_access` sets it to `cycle + 1 +
                    // penalty` on a miss and leaves it at or below `cycle`
                    // otherwise.
                    debug_assert!(self.cpu.freeze_until <= self.cpu.cycle, "a frozen step");
                    let (to, last) = match self.perform(x.instr, &mut NullSink, Some(journal)) {
                        Ok(Exec::Next) => (self.cpu.pc.wrapping_add(4), false),
                        Ok(Exec::Jump(to)) => (to, to <= self.cpu.pc),
                        Ok(Exec::Halted) | Err(_) => return None,
                    };
                    let penalty = self.cpu.freeze_until.saturating_sub(self.cpu.cycle + 1);
                    // A write into the text makes the span stop before its
                    // next fetch.
                    if matches!(x.instr, Instr::Sw { .. } | Instr::Fst { .. })
                        && self.mem.memory.watch_writes() != 0
                    {
                        return None;
                    }
                    // A taken backward branch ends the path at a loop
                    // head. After any other instruction the span fetches
                    // the next one before anything else reaches the
                    // fetch path, so the replay fetches it now.
                    let fetch = if last {
                        0
                    } else {
                        self.mem.fetch_timing(to, Some(journal))
                    };
                    let n = if (u64::from(x.fetch), u64::from(x.data), x.next)
                        == (fetch, penalty, to)
                    {
                        i
                    } else {
                        let outcome =
                            (u16::try_from(fetch).ok()?, u16::try_from(penalty).ok()?, to);
                        follow(steps, i, outcome).ok()?
                    };
                    self.cpu.pc = to;
                    i = n + 1;
                }
                Step::Element { op, refs } => {
                    let regs = self.fpu.regs();
                    let (value, flags) = execute(op, regs.read(refs.ra), regs.read(refs.rb));
                    if flags.contains(Exceptions::OVERFLOW) {
                        return None;
                    }
                    tail.push(Written {
                        dest: refs.rr,
                        old: regs.read(refs.rr),
                        value,
                        flags,
                    });
                    self.fpu.write_reg_direct(refs.rr, value);
                    i += 1;
                }
                Step::End { path } => return Some(path),
                Step::Start { .. } => unreachable!("a path starts once"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_isa::cpu::{AluOp, BranchCond};
    use mt_isa::IReg;

    /// A path's start, its first fetch taking `fetch` cycles.
    fn start(fetch: u16) -> Step {
        Step::Start { fetch, alt: NO_ALT }
    }

    /// A recorded instruction step with these outcomes.
    fn step(instr: Instr, data: u16, next: u32, fetch: u16) -> Step {
        Step::Instr(Executed {
            instr,
            next,
            at: 1,
            fetch,
            data,
            alt: NO_ALT,
        })
    }

    fn end(cycles: u64) -> End {
        End {
            cycles,
            instructions: 2,
            last_progress: 0,
            pending_ready: 0,
            stalls: StallBreakdown::default(),
            fpu: FpuStats::default(),
            issued: Box::new([]),
            ir: None,
            link: None,
        }
    }

    /// The length of the chain of alternatives at `steps[n]`.
    fn chain(steps: &[Step], mut n: u32) -> usize {
        let mut len = 1;
        loop {
            match steps[n as usize].outcome().1 {
                NO_ALT => return len,
                alt => n = alt,
            }
            len += 1;
        }
    }

    /// Three paths that share a load and leave it at a branch: taken
    /// after a hit, not taken after a hit, taken after a miss. The tree
    /// shares the start and the load and chains the three outcomes of
    /// the branch, and the walk follows the alternative that recorded
    /// an outcome, or none.
    #[test]
    fn a_walk_follows_only_the_alternative_with_its_outcome() {
        let load = Instr::Lw {
            rd: IReg::new(5),
            base: IReg::new(1),
            offset: 0,
        };
        let branch = Instr::Branch {
            cond: BranchCond::Ne,
            rs1: IReg::new(5),
            rs2: IReg::new(0),
            offset: -2,
        };
        let paths = [
            [start(0), step(load, 0, 0x104, 0), step(branch, 0, 0x100, 0)],
            [start(0), step(load, 0, 0x104, 0), step(branch, 0, 0x108, 0)],
            [
                start(0),
                step(load, 14, 0x104, 0),
                step(branch, 0, 0x100, 0),
            ],
        ];
        let mut e = Entry::default();
        for (k, path) in paths.iter().enumerate() {
            let graft = e.graft(path).expect("a new path");
            e.add(path, graft, end(10 + k as u64));
        }
        assert!(e.graft(&paths[1]).is_none(), "a recorded path");
        // One start; the load after it, its miss chained to it; the
        // hit's branch with its other outcome chained.
        assert_eq!(chain(&e.steps, 0), 1, "{:?}", e.steps);
        assert_eq!(chain(&e.steps, 1), 2, "{:?}", e.steps);
        assert_eq!(chain(&e.steps, 2), 2, "{:?}", e.steps);
        let miss = follow(&e.steps, 1, (0, 14, 0x104)).unwrap();
        assert_ne!(miss, 1);
        let hit = follow(&e.steps, 1, (0, 0, 0x104)).unwrap();
        assert_eq!(hit, 1);
        let not_taken = follow(&e.steps, hit + 1, (0, 0, 0x108)).unwrap();
        let taken = follow(&e.steps, hit + 1, (0, 0, 0x100)).unwrap();
        assert_ne!(not_taken, taken);
        for (n, path) in [(taken, 0), (not_taken, 1)] {
            assert!(matches!(e.steps[n as usize + 1], Step::End { path: p } if p == path));
        }
        assert!(matches!(e.steps[miss as usize + 2], Step::End { path: 2 }));
        // No path recorded a fetch penalty after the branch, nor a miss
        // that falls through: the walk rolls back there.
        assert!(follow(&e.steps, hit + 1, (2, 0, 0x100)).is_err());
        assert!(follow(&e.steps, miss + 1, (0, 0, 0x108)).is_err());
        assert_eq!(e.shortest, 10);
    }

    /// A fetch penalty decides how many elements issue before the
    /// fetched instruction completes, so it is the outcome of the step
    /// before them: two paths that differ only there branch at that
    /// step, ahead of the elements, and each keeps its own.
    #[test]
    fn a_fetch_penalty_branches_ahead_of_the_elements_it_lets_issue() {
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: IReg::new(4),
            rs1: IReg::new(4),
            rs2: IReg::new(5),
        };
        let element = Step::Element {
            op: FpOp::Add,
            refs: ElementRefs {
                rr: FReg::new(8),
                ra: FReg::new(8),
                rb: FReg::new(0),
            },
        };
        let warm = [
            start(0),
            step(add, 0, 0x104, 0),
            element,
            step(add, 0, 0x108, 0),
        ];
        let cold = [
            start(0),
            step(add, 0, 0x104, 3),
            element,
            element,
            element,
            step(add, 0, 0x108, 0),
        ];
        let mut e = Entry::default();
        let graft = e.graft(&warm).unwrap();
        e.add(&warm, graft, end(5));
        let graft = e.graft(&cold).expect("a new path");
        assert_eq!((graft.from, graft.after), (1, Some(1)));
        e.add(&cold, graft, end(8));
        let n = follow(&e.steps, 1, (3, 0, 0x104)).unwrap() as usize;
        assert_ne!(n, 1);
        assert!(e.steps[n + 1..n + 4]
            .iter()
            .all(|s| matches!(s, Step::Element { .. })));
        assert!(matches!(e.steps[n + 4], Step::Instr(_)));
        assert!(matches!(e.steps[n + 5], Step::End { path: 1 }));
        assert!(matches!(e.steps[4], Step::End { path: 0 }));
    }
}
