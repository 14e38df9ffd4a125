//! The in-flight operation pipeline shared by the three functional units.
//!
//! Every unit is fully pipelined with the same 3-cycle latency, so "the
//! functional unit write port to the register file need not be reserved or
//! checked for availability before instruction issue" (§2.3.1): at most one
//! operation retires per cycle because at most one issues per cycle. The
//! pipeline here also carries FPU loads (which retire one cycle after
//! issue), reusing the same write port and reservation-clear path.

use mt_fparith::Exceptions;
use mt_isa::FReg;

/// Where an in-flight write came from (for statistics and squash rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteSource {
    /// An ALU element: instruction id and element index.
    AluElement {
        /// Id assigned by the ALU IR at transfer.
        instr_id: u64,
        /// Element index within the vector.
        element: u8,
    },
    /// An FPU load from the memory port.
    Load,
}

/// One outstanding register write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Cycle at the start of which the write becomes architecturally
    /// visible (readable by operations issuing in that cycle).
    pub ready_at: u64,
    /// Destination register.
    pub dest: FReg,
    /// Result bit pattern.
    pub value: u64,
    /// Exceptions raised by the operation.
    pub flags: Exceptions,
    /// Origin of the write.
    pub source: WriteSource,
}

/// Ring capacity. Every in-flight write holds a scoreboard reservation on
/// a distinct register (issue and the load port both stall on a reserved
/// destination), so at most [`mt_isa::NUM_FPU_REGS`] operations can be in
/// flight; the next power of two keeps index wrap a mask.
const CAP: usize = 64;

/// The in-flight write queue, kept sorted by `(ready_at, issue order)` in
/// a fixed ring (this sits on the simulator's per-cycle hot path — no
/// allocator, wrap by mask): pushes insert in place (almost always at the
/// back — a newly issued operation usually completes last), so the
/// per-cycle retire check is a single compare against the front and
/// retirement is a head bump.
#[derive(Debug, Clone)]
pub struct Pipeline {
    buf: [InFlight; CAP],
    head: u32,
    len: u32,
}

/// A never-read placeholder filling unused ring slots.
const EMPTY_SLOT: InFlight = InFlight {
    ready_at: 0,
    dest: FReg::new(0),
    value: 0,
    flags: Exceptions::empty(),
    source: WriteSource::Load,
};

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline {
            buf: [EMPTY_SLOT; CAP],
            head: 0,
            len: 0,
        }
    }
}

/// Equality is over the logical in-flight sequence, not ring layout.
impl PartialEq for Pipeline {
    fn eq(&self, other: &Pipeline) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Pipeline {}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    #[inline]
    fn slot(&self, logical: u32) -> usize {
        (self.head.wrapping_add(logical) as usize) & (CAP - 1)
    }

    /// The in-flight operations in retirement order.
    pub fn iter(&self) -> impl Iterator<Item = &InFlight> + '_ {
        (0..self.len).map(|i| &self.buf[self.slot(i)])
    }

    /// Inserts a newly issued operation, keeping the queue sorted by
    /// `ready_at` with ties in issue order (insertion after every earlier
    /// operation with the same `ready_at`).
    #[inline]
    pub fn push(&mut self, op: InFlight) {
        assert!((self.len as usize) < CAP, "pipeline ring overflow");
        // Walk back over operations completing strictly later, shifting
        // each up one slot; almost always zero iterations.
        let mut i = self.len;
        while i > 0 && self.buf[self.slot(i - 1)].ready_at > op.ready_at {
            self.buf[self.slot(i)] = self.buf[self.slot(i - 1)];
            i -= 1;
        }
        self.buf[self.slot(i)] = op;
        self.len += 1;
    }

    /// Removes and returns the next operation whose result is visible at
    /// `cycle`: the earliest `ready_at`, ties broken by issue order — the
    /// front of the sorted queue. The simulator's per-cycle retire loop
    /// calls it until it answers `None`, so the common cycles (zero or
    /// one retirement) cost one compare and never touch the allocator.
    #[inline]
    pub fn pop_ready(&mut self, cycle: u64) -> Option<InFlight> {
        if self.len == 0 || self.buf[self.head as usize & (CAP - 1)].ready_at > cycle {
            return None;
        }
        let op = self.buf[self.head as usize & (CAP - 1)];
        self.head = self.head.wrapping_add(1);
        self.len -= 1;
        Some(op)
    }

    /// Squashes in-flight ALU elements of instruction `instr_id` with
    /// element index greater than `after_element` (the overflow-abort rule:
    /// "vector instructions that overflow on one element discard all
    /// remaining elements after the overflow", §2.3.1). Returns the
    /// destination registers of the squashed elements so the caller can
    /// clear their reservations.
    pub fn squash_after(&mut self, instr_id: u64, after_element: u8) -> Vec<FReg> {
        let mut squashed = Vec::new();
        let mut kept = 0u32;
        for i in 0..self.len {
            let op = self.buf[self.slot(i)];
            match op.source {
                WriteSource::AluElement {
                    instr_id: id,
                    element,
                } if id == instr_id && element > after_element => squashed.push(op.dest),
                _ => {
                    self.buf[self.slot(kept)] = op;
                    kept += 1;
                }
            }
        }
        self.len = kept;
        squashed
    }

    /// Fault-injection hook: flips bit `bit % 64` of the `slot % len`-th
    /// in-flight result latch. Returns `false` (a masked fault by
    /// construction) when nothing is in flight. Only the *value* is
    /// corrupted — destination and timing stay intact, modelling a particle
    /// strike on a pipeline data latch rather than on control state.
    pub fn flip_value_bit(&mut self, slot: usize, bit: u32) -> bool {
        if self.len == 0 {
            return false;
        }
        let index = self.slot((slot % self.len as usize) as u32);
        self.buf[index].value ^= 1 << (bit % 64);
        true
    }

    /// Number of operations in flight.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest cycle at which something will retire, if anything is in
    /// flight (the simulator's translated backend clamps its hops to it).
    #[inline]
    pub fn next_ready_at(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            Some(self.buf[self.head as usize & (CAP - 1)].ready_at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ready_at: u64, dest: u8, value: u64, source: WriteSource) -> InFlight {
        InFlight {
            ready_at,
            dest: FReg::new(dest),
            value,
            flags: Exceptions::empty(),
            source,
        }
    }

    #[test]
    fn retires_at_ready_cycle() {
        let mut p = Pipeline::new();
        p.push(op(3, 1, 10, WriteSource::Load));
        assert!(p.pop_ready(2).is_none());
        assert_eq!(p.pop_ready(3).map(|r| r.value), Some(10));
        assert!(p.pop_ready(3).is_none());
        assert!(p.is_empty());
    }

    #[test]
    fn retires_in_issue_order() {
        let mut p = Pipeline::new();
        p.push(op(4, 1, 1, WriteSource::Load));
        p.push(op(3, 2, 2, WriteSource::Load));
        assert_eq!(p.pop_ready(10).map(|r| r.dest), Some(FReg::new(2)));
        assert_eq!(p.pop_ready(10).map(|r| r.dest), Some(FReg::new(1)));
    }

    #[test]
    fn squash_after_element_discards_later_only() {
        let mut p = Pipeline::new();
        for e in 0..4u8 {
            p.push(op(
                3 + e as u64,
                8 + e,
                e as u64,
                WriteSource::AluElement {
                    instr_id: 7,
                    element: e,
                },
            ));
        }
        // A load and another instruction's element survive.
        p.push(op(5, 20, 99, WriteSource::Load));
        p.push(op(
            5,
            30,
            98,
            WriteSource::AluElement {
                instr_id: 8,
                element: 3,
            },
        ));
        let squashed = p.squash_after(7, 1);
        assert_eq!(squashed, vec![FReg::new(10), FReg::new(11)]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn next_ready_at() {
        let mut p = Pipeline::new();
        assert_eq!(p.next_ready_at(), None);
        p.push(op(9, 0, 0, WriteSource::Load));
        p.push(op(5, 1, 0, WriteSource::Load));
        assert_eq!(p.next_ready_at(), Some(5));
    }
}
