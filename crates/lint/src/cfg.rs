//! Decoded program view, control-flow successors, and the basic-block
//! partition the flow-sensitive lints and [`crate::mca`]'s loop timing
//! are built on.

use mt_isa::{IReg, Instr, Program};

/// One text word: raw encoding plus its decoding, when valid.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// The raw instruction word.
    pub word: u32,
    /// The decoded instruction (`None` when the word does not decode).
    pub instr: Option<Instr>,
}

/// Most `jr r31` → return-point edges a view resolves. Past it every
/// `jr r31` ends the flow analyses, as when the `r31` proof fails: lint
/// runs on untrusted text (`POST /run?lint=1`), and the edges number the
/// `jr r31`s times the call sites. Reachability still follows the proof
/// ([`ProgramView::reachable`]).
const MAX_RETURN_EDGES: usize = 4096;

/// A program decoded for analysis.
#[derive(Debug, Clone)]
pub struct ProgramView {
    /// Base address of the text section.
    pub base: u32,
    /// One slot per text word.
    pub slots: Vec<Slot>,
    /// The `jal` return points when only `jal` writes `r31` (see
    /// `jal_return_points`), else `None`.
    returns: Option<Vec<usize>>,
    /// Whether [`ProgramView::successors`] of a `jr r31` lists the
    /// return points: the proof holds and the edges number at most
    /// `MAX_RETURN_EDGES`.
    return_edges: bool,
}

impl ProgramView {
    /// Decodes every word of `program`'s text section.
    pub fn decode(program: &Program) -> ProgramView {
        let slots: Vec<Slot> = program
            .words
            .iter()
            .map(|&word| Slot {
                word,
                instr: Instr::decode(word).ok(),
            })
            .collect();
        let returns = jal_return_points(&slots);
        let jr31 = slots.iter().filter(|s| is_jr31(s.instr)).count();
        ProgramView {
            base: program.base,
            return_edges: returns
                .as_ref()
                .is_some_and(|r| r.len() * jr31 <= MAX_RETURN_EDGES),
            returns,
            slots,
        }
    }

    /// Absolute address of instruction `idx`.
    pub fn pc(&self, idx: usize) -> u32 {
        self.base + 4 * idx as u32
    }

    /// Control-flow successors of instruction `idx`, restricted to indices
    /// inside the text section.
    ///
    /// `halt` and undecodable slots end analysis. Indirect jumps are
    /// resolved as far as is provable and end analysis otherwise:
    ///
    /// * `jr r31` where `r31` is written **only** by `jal` instructions
    ///   (checked over the whole text section) flows to every `jal`
    ///   return point — an over-approximation, since a specific `jr`
    ///   dynamically returns only to the call sites that can actually
    ///   reach it, but a sound one: every dynamic successor is in the
    ///   set. See `jal_return_points`.
    /// * `jr r31` in a program with any other `r31` write, `jr r31` when
    ///   the return edges would exceed `MAX_RETURN_EDGES`, and `jr` of
    ///   any other register remain analysis-ending: the target is a
    ///   runtime value the view does not bound. Analyses treat such an
    ///   instruction like `halt` — paths through it are simply not
    ///   tracked, which keeps the ordering/dataflow passes sound for the
    ///   code they do reach but blind past a computed jump.
    pub fn successors(&self, idx: usize) -> Vec<usize> {
        let Some(instr) = self.slots[idx].instr else {
            return Vec::new();
        };
        let in_range = |i: i64| -> Option<usize> {
            (0..self.slots.len() as i64)
                .contains(&i)
                .then_some(i as usize)
        };
        let mut next = Vec::new();
        match instr {
            Instr::Halt => {}
            Instr::Jr { rs } if rs == IReg::new(31) && self.return_edges => {
                next.extend(self.returns.iter().flatten());
            }
            Instr::Jr { .. } => {}
            Instr::Jump { target } | Instr::Jal { target } => {
                next.extend(in_range(target as i64 - (self.base / 4) as i64));
            }
            Instr::Branch { offset, .. } => {
                next.extend(in_range(idx as i64 + 1));
                next.extend(in_range(idx as i64 + 1 + offset as i64));
            }
            _ => next.extend(in_range(idx as i64 + 1)),
        }
        next.dedup();
        next
    }

    /// Indices reachable from the entry (index 0), in index order.
    ///
    /// When only `jal` writes `r31`, the first reachable `jr r31` reaches
    /// every `jal` return point, whether or not
    /// [`ProgramView::successors`] carries the edges: past
    /// `MAX_RETURN_EDGES`, `jr r31` ends the flow analyses but not
    /// reachability, so code after the call sites is not reported
    /// unreachable.
    pub fn reachable(&self) -> Vec<usize> {
        let mut seen = vec![false; self.slots.len()];
        let mut order = Vec::new();
        let mut work = Vec::new();
        if !self.slots.is_empty() {
            seen[0] = true;
            work.push(0);
        }
        let mut returns = self.returns.as_deref();
        while let Some(idx) = work.pop() {
            order.push(idx);
            let mut succs = self.successors(idx);
            if is_jr31(self.slots[idx].instr) {
                succs.extend(returns.take().into_iter().flatten());
            }
            for s in succs {
                if !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        order.sort_unstable();
        order
    }

    /// Whether the slot at `idx` ends a basic block: control flow, halt,
    /// or a word that does not decode (analysis-ending).
    fn is_terminator(&self, idx: usize) -> bool {
        matches!(
            self.slots[idx].instr,
            None | Some(
                Instr::Halt
                    | Instr::Branch { .. }
                    | Instr::Jump { .. }
                    | Instr::Jal { .. }
                    | Instr::Jr { .. }
            )
        )
    }

    /// Partitions the whole text section (reachable or not) into basic
    /// blocks, in text order (block 0 is the entry): maximal runs of
    /// slots with one entry (the leader) and one exit (the last slot).
    /// Block edges follow [`ProgramView::successors`] of each block's
    /// last slot, so they inherit its `jal`/`jr` resolution and its
    /// conservatism, and a block is reachable exactly when its leader is
    /// in [`ProgramView::reachable`].
    pub fn basic_blocks(&self) -> Vec<BasicBlock> {
        let n = self.slots.len();
        if n == 0 {
            return Vec::new();
        }
        // Leaders: the entry, every successor of a terminator, and the
        // slot after a terminator (a fall-through entry even when the
        // terminator never falls through — the next block simply has no
        // edge from it then).
        let mut leader = vec![false; n];
        leader[0] = true;
        for idx in 0..n {
            if self.is_terminator(idx) {
                if idx + 1 < n {
                    leader[idx + 1] = true;
                }
                for s in self.successors(idx) {
                    leader[s] = true;
                }
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for idx in 0..n {
            block_of[idx] = blocks.len();
            let ends = idx + 1 == n || leader[idx + 1];
            if ends {
                blocks.push(BasicBlock {
                    start,
                    end: idx + 1,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = idx + 1;
            }
        }
        // Edges: the last slot's successors, mapped to their blocks
        // (every successor of a terminator is a leader; a non-terminator
        // last slot falls through to the next leader).
        let succ_lists: Vec<Vec<usize>> = blocks
            .iter()
            .map(|b| {
                let mut succs: Vec<usize> = self
                    .successors(b.end - 1)
                    .into_iter()
                    .map(|s| block_of[s])
                    .collect();
                succs.sort_unstable();
                succs.dedup();
                succs
            })
            .collect();
        for (id, succs) in succ_lists.iter().enumerate() {
            for &s in succs {
                blocks[s].preds.push(id);
            }
            blocks[id].succs = succs.clone();
        }
        blocks
    }
}

/// Whether `instr` is `jr r31`, a return.
fn is_jr31(instr: Option<Instr>) -> bool {
    matches!(instr, Some(Instr::Jr { rs }) if rs == IReg::new(31))
}

/// Return points established by `jal` call sites, when every value `r31`
/// can ever hold is provably a `jal` return address.
///
/// The proof obligation is whole-program: if **no** decoded instruction
/// other than `jal` writes `r31` (undecodable words cannot execute — the
/// simulator faults on them — so they never write anything), then the
/// only values a `jr r31` can observe are the `call site + 1` addresses
/// the `jal`s established, and its successor set is exactly those return
/// points. Any other `r31` write anywhere (a computed return address, a
/// spill/reload through memory would appear as `lw r31, ...`) voids the
/// proof and this returns `None`.
fn jal_return_points(slots: &[Slot]) -> Option<Vec<usize>> {
    let mut returns = Vec::new();
    for (idx, slot) in slots.iter().enumerate() {
        let Some(instr) = slot.instr else { continue };
        match instr {
            Instr::Jal { .. } if idx + 1 < slots.len() => {
                returns.push(idx + 1);
            }
            Instr::Alu { rd, .. }
            | Instr::Addi { rd, .. }
            | Instr::Lui { rd, .. }
            | Instr::Lw { rd, .. }
            | Instr::Mfpsw { rd }
                if rd == IReg::new(31) =>
            {
                return None;
            }
            _ => {}
        }
    }
    Some(returns)
}

/// One basic block of [`ProgramView::basic_blocks`].
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Index of the first slot (the leader).
    pub start: usize,
    /// One past the last slot.
    pub end: usize,
    /// Successor block ids, sorted and deduplicated.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

impl BasicBlock {
    /// The slot indices of the block.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_isa::cpu::BranchCond;
    use mt_isa::IReg;

    fn assemble(instrs: &[Instr]) -> ProgramView {
        ProgramView::decode(&Program::assemble(instrs).unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let v = assemble(&[Instr::Nop, Instr::Nop, Instr::Halt]);
        let blocks = v.basic_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].indices(), 0..3);
        assert_eq!(v.reachable(), vec![0, 1, 2]);
    }

    #[test]
    fn backward_branch_forms_a_loop_block() {
        // 0: nop            <- header/latch target
        // 1: blt r0,r1,-2   -> 0
        // 2: halt
        let v = assemble(&[
            Instr::Nop,
            Instr::Branch {
                cond: BranchCond::Lt,
                rs1: IReg::new(0),
                rs2: IReg::new(1),
                offset: -2,
            },
            Instr::Halt,
        ]);
        let blocks = v.basic_blocks();
        assert_eq!(blocks.len(), 2, "{blocks:?}");
        assert_eq!(blocks[0].indices(), 0..2);
        assert_eq!(blocks[0].succs, vec![0, 1], "loop + exit");
        assert_eq!(blocks[0].preds, vec![0]);
    }

    #[test]
    fn jal_return_points_resolve_when_r31_is_call_only() {
        // 0: jal 3 (sub)   1: nop (return point)   2: halt
        // 3: nop (sub)     4: jr r31
        let base = mt_isa::DEFAULT_TEXT_BASE / 4;
        let v = assemble(&[
            Instr::Jal { target: base + 3 },
            Instr::Nop,
            Instr::Halt,
            Instr::Nop,
            Instr::Jr { rs: IReg::new(31) },
        ]);
        assert_eq!(v.successors(0), vec![3], "call edge");
        assert_eq!(v.successors(4), vec![1], "resolved return edge");
        assert_eq!(v.reachable(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn any_other_r31_write_voids_the_return_proof() {
        let base = mt_isa::DEFAULT_TEXT_BASE / 4;
        let v = assemble(&[
            Instr::Jal { target: base + 3 },
            Instr::Nop,
            Instr::Halt,
            Instr::Addi {
                rd: IReg::new(31),
                rs1: IReg::new(0),
                imm: 8,
            },
            Instr::Jr { rs: IReg::new(31) },
        ]);
        assert_eq!(v.successors(4), Vec::<usize>::new(), "analysis-ending");
    }

    #[test]
    fn return_edges_past_the_cap_end_analysis() {
        // `calls` call sites of one subroutine, `jr r31`: `calls` edges.
        let base = mt_isa::DEFAULT_TEXT_BASE / 4;
        let view = |calls: usize| {
            let sub = base + 2 * calls as u32 + 1;
            let mut instrs = Vec::new();
            for _ in 0..calls {
                instrs.extend([Instr::Jal { target: sub }, Instr::Nop]);
            }
            instrs.extend([Instr::Halt, Instr::Jr { rs: IReg::new(31) }]);
            assemble(&instrs)
        };
        let jr = 2 * MAX_RETURN_EDGES + 1;
        assert_eq!(
            view(MAX_RETURN_EDGES).successors(jr).len(),
            MAX_RETURN_EDGES
        );
        assert!(view(MAX_RETURN_EDGES + 1).successors(jr + 2).is_empty());
    }

    #[test]
    fn returns_past_the_cap_stay_reachable() {
        // 65 `jal fK` and 65 `fK: jr r31`: 4,225 return edges.
        let base = mt_isa::DEFAULT_TEXT_BASE / 4;
        let n = 65;
        let calls = (0..n).map(|k| Instr::Jal {
            target: base + n + k,
        });
        let mut instrs: Vec<Instr> = calls.collect();
        instrs.extend((0..n).map(|_| Instr::Jr { rs: IReg::new(31) }));
        let v = assemble(&instrs);
        assert!(v.successors(n as usize).is_empty(), "no return edges");
        assert_eq!(v.reachable(), (0..2 * n as usize).collect::<Vec<_>>());
    }

    #[test]
    fn non_r31_jr_stays_analysis_ending() {
        let v = assemble(&[Instr::Jr { rs: IReg::new(5) }, Instr::Halt]);
        assert_eq!(v.successors(0), Vec::<usize>::new());
    }
}
