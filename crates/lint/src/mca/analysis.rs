//! Program-level analyses on top of the abstract timing machine:
//! whole-program straight-line prediction and loop steady states.

use std::collections::HashMap;

use mt_isa::cost::IssueTiming;
use mt_isa::Instr;

use super::machine::{AbstractMachine, Counters, PcPrediction, StateKey};
use crate::cfg::{BasicBlock, ProgramView};

/// Why a program or loop could not be analyzed exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skip {
    /// A word that does not decode at this index.
    Undecodable(usize),
    /// Control flow at this index (straight-line analysis only).
    ControlFlow(usize),
    /// Execution runs off the end of the text without `halt`.
    NoHalt,
    /// A loop-body block has branching control flow inside the loop
    /// (data-dependent path), so no single steady-state path exists.
    NotStraightLine(usize),
    /// The loop body did not reach a periodic steady state within the
    /// iteration budget (never observed for bounded-horizon resources;
    /// a safety net).
    NoConvergence,
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skip::Undecodable(i) => write!(f, "undecodable word at instruction #{i}"),
            Skip::ControlFlow(i) => write!(f, "control flow at instruction #{i}"),
            Skip::NoHalt => write!(f, "execution runs past the end of the text"),
            Skip::NotStraightLine(i) => {
                write!(f, "data-dependent control flow inside the loop at #{i}")
            }
            Skip::NoConvergence => write!(f, "no periodic steady state found"),
        }
    }
}

/// Exact prediction for a straight-line program (or program prefix).
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Total predicted cycles, including the post-halt drain.
    pub cycles: u64,
    /// Aggregate predicted counters.
    pub counters: Counters,
    /// Per-instruction-index attribution.
    pub per_pc: std::collections::BTreeMap<usize, PcPrediction>,
}

/// Exact static prediction of a straight-line cache-warm run from index
/// 0 to `halt`. Errors with [`Skip::ControlFlow`] on any branch or jump:
/// this is the bit-identical tier — control flow belongs to the loop
/// analysis.
pub fn straight_line(view: &ProgramView, timing: IssueTiming) -> Result<Prediction, Skip> {
    let mut m = AbstractMachine::new(timing);
    let mut idx = 0;
    loop {
        let Some(slot) = view.slots.get(idx) else {
            return Err(Skip::NoHalt);
        };
        let Some(instr) = slot.instr else {
            return Err(Skip::Undecodable(idx));
        };
        match instr {
            Instr::Branch { .. } | Instr::Jump { .. } | Instr::Jal { .. } | Instr::Jr { .. } => {
                return Err(Skip::ControlFlow(idx));
            }
            Instr::Halt => {
                m.exec(idx, &instr, false);
                m.drain();
                return Ok(Prediction {
                    cycles: m.cycle,
                    counters: m.counters,
                    per_pc: m.per_pc,
                });
            }
            _ => {
                m.exec(idx, &instr, false);
            }
        }
        idx += 1;
    }
}

/// One natural loop and, when its body is a single path, its steady
/// state.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// Instruction index of the loop header (first instruction executed
    /// each iteration).
    pub header: usize,
    /// Instruction index of the latch (the back-edge branch).
    pub latch: usize,
    /// The steady-state path, in execution order (header → latch), when
    /// the body is straight-line.
    pub body: Vec<usize>,
    /// The analysis result.
    pub result: Result<SteadyState, Skip>,
}

/// The periodic steady state of a loop body.
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// Cycles per period (a period may span several iterations when the
    /// hazard pattern alternates).
    pub cycles: u64,
    /// Iterations per period.
    pub iterations: u64,
    /// Iterations executed before the machine entered the periodic
    /// state (the pipeline warm-up).
    pub warmup_iterations: u64,
    /// Counter deltas over one period.
    pub counters: Counters,
    /// Per-instruction-index attribution over one period.
    pub per_pc: std::collections::BTreeMap<usize, PcPrediction>,
    /// The resource binding the loop: the largest per-period cycle
    /// consumer among issue slots and the stall categories.
    pub bottleneck: &'static str,
}

impl SteadyState {
    /// Steady-state cycles per iteration.
    pub fn cycles_per_iteration(&self) -> f64 {
        self.cycles as f64 / self.iterations as f64
    }
}

/// Upper bound on iterations simulated before giving up on periodicity.
/// Every resource horizon is bounded (FPU latency, port occupancy, VL),
/// so the normalized state space is small; real loops repeat within a
/// couple of iterations.
const MAX_STEADY_ITERATIONS: u64 = 256;

/// Finds every natural loop in the block partition (DFS back edges) and
/// computes its steady state where the body is a single path. Loops are
/// returned in header order.
pub fn loops(view: &ProgramView, timing: IssueTiming) -> Vec<LoopAnalysis> {
    let blocks = view.basic_blocks();
    let mut out: Vec<LoopAnalysis> = back_edges(&blocks)
        .into_iter()
        .map(|(latch, header)| analyze_loop(view, &blocks, timing, header, latch))
        .collect();
    // Several back edges can share a header (`continue`-style latches);
    // keep the outermost body (largest latch) per header.
    out.sort_by_key(|l| (l.header, std::cmp::Reverse(l.latch)));
    out.dedup_by_key(|l| l.header);
    out
}

/// DFS back edges `(from, to)` where `to` is an ancestor on the current
/// DFS stack — the loop latch→header edges of a reducible CFG.
fn back_edges(blocks: &[BasicBlock]) -> Vec<(usize, usize)> {
    let n = blocks.len();
    let mut edges = Vec::new();
    if n == 0 {
        return edges;
    }
    // Iterative DFS with an explicit on-stack marker.
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    state[0] = 1;
    while let Some(top) = stack.last_mut() {
        let (b, next) = *top;
        let succs = &blocks[b].succs;
        if next < succs.len() {
            top.1 += 1;
            let s = succs[next];
            match state[s] {
                0 => {
                    state[s] = 1;
                    stack.push((s, 0));
                }
                1 => edges.push((b, s)),
                _ => {}
            }
        } else {
            state[b] = 2;
            stack.pop();
        }
    }
    edges
}

/// The natural loop of `latch → header`: all blocks that reach the latch
/// without passing through the header.
fn natural_loop(blocks: &[BasicBlock], header: usize, latch: usize) -> Vec<bool> {
    let mut in_loop = vec![false; blocks.len()];
    in_loop[header] = true;
    let mut work = vec![latch];
    while let Some(b) = work.pop() {
        if in_loop[b] {
            continue;
        }
        in_loop[b] = true;
        for &p in &blocks[b].preds {
            work.push(p);
        }
    }
    in_loop
}

fn analyze_loop(
    view: &ProgramView,
    blocks: &[BasicBlock],
    timing: IssueTiming,
    header: usize,
    latch: usize,
) -> LoopAnalysis {
    let in_loop = natural_loop(blocks, header, latch);
    let header_idx = blocks[header].start;
    let latch_idx = blocks[latch].end - 1;

    // The steady-state path: follow the unique in-loop successor from the
    // header back around to the header. Any block with zero or several
    // in-loop successors means the path is data-dependent — bail.
    let mut chain = Vec::new();
    let mut b = header;
    loop {
        chain.push(b);
        let in_loop_succs: Vec<usize> = blocks[b]
            .succs
            .iter()
            .copied()
            .filter(|&s| in_loop[s])
            .collect();
        let [next] = in_loop_succs[..] else {
            return LoopAnalysis {
                header: header_idx,
                latch: latch_idx,
                body: Vec::new(),
                result: Err(Skip::NotStraightLine(blocks[b].end - 1)),
            };
        };
        if next == header {
            break;
        }
        if chain.contains(&next) {
            // An inner cycle that never returns to this header (nested
            // loop shapes): not a single path.
            return LoopAnalysis {
                header: header_idx,
                latch: latch_idx,
                body: Vec::new(),
                result: Err(Skip::NotStraightLine(blocks[next].start)),
            };
        }
        b = next;
    }

    // Flatten to instruction indices and precompute per-instruction
    // taken-ness along the path.
    let mut path: Vec<usize> = Vec::new();
    for &blk in &chain {
        path.extend(blocks[blk].indices());
    }
    if let Some(bad) = path
        .iter()
        .copied()
        .find(|&i| view.slots[i].instr.is_none())
    {
        return LoopAnalysis {
            header: header_idx,
            latch: latch_idx,
            body: Vec::new(),
            result: Err(Skip::Undecodable(bad)),
        };
    }
    let steps: Vec<(usize, Instr, bool)> = path
        .iter()
        .enumerate()
        .map(|(k, &idx)| {
            let instr = view.slots[idx].instr.unwrap();
            let next_idx = path.get(k + 1).copied().unwrap_or(path[0]);
            // A conditional branch is taken iff the path does not fall
            // through; jumps always redirect (the machine knows).
            let taken = next_idx != idx + 1;
            (idx, instr, taken)
        })
        .collect();

    // Iterate the body from a clean machine until the normalized state
    // repeats: the cycle/counter deltas over the period are the steady
    // state.
    let mut m = AbstractMachine::new(timing);
    type Snapshot = (
        u64,
        u64,
        Counters,
        std::collections::BTreeMap<usize, PcPrediction>,
    );
    let mut seen: HashMap<StateKey, Snapshot> = HashMap::new();
    for iter in 0..MAX_STEADY_ITERATIONS {
        let key = m.state_key();
        if let Some((first_iter, first_cycle, first_counters, first_per_pc)) = seen.get(&key) {
            let iterations = iter - first_iter;
            let cycles = m.cycle - first_cycle;
            let counters = delta_counters(&m.counters, first_counters);
            let per_pc = delta_per_pc(&m.per_pc, first_per_pc);
            let bottleneck = bottleneck_of(&counters);
            return LoopAnalysis {
                header: header_idx,
                latch: latch_idx,
                body: path,
                result: Ok(SteadyState {
                    cycles,
                    iterations,
                    warmup_iterations: *first_iter,
                    counters,
                    per_pc,
                    bottleneck,
                }),
            };
        }
        seen.insert(key, (iter, m.cycle, m.counters, m.per_pc.clone()));
        for (idx, instr, taken) in &steps {
            m.exec(*idx, instr, *taken);
        }
    }
    LoopAnalysis {
        header: header_idx,
        latch: latch_idx,
        body: path,
        result: Err(Skip::NoConvergence),
    }
}

fn delta_counters(now: &Counters, then: &Counters) -> Counters {
    Counters {
        instructions: now.instructions - then.instructions,
        drain_cycles: now.drain_cycles - then.drain_cycles,
        stalls: now.stalls.since(&then.stalls),
        transfers: now.transfers - then.transfers,
        elements: now.elements - then.elements,
        flops: now.flops - then.flops,
        scoreboard_stalls: now.scoreboard_stalls - then.scoreboard_stalls,
        fpu_loads: now.fpu_loads - then.fpu_loads,
        fpu_stores: now.fpu_stores - then.fpu_stores,
    }
}

fn delta_per_pc(
    now: &std::collections::BTreeMap<usize, PcPrediction>,
    then: &std::collections::BTreeMap<usize, PcPrediction>,
) -> std::collections::BTreeMap<usize, PcPrediction> {
    now.iter()
        .map(|(&idx, p)| {
            let base = then.get(&idx).copied().unwrap_or_default();
            let mut stalls = [0u64; 7];
            for (i, s) in stalls.iter_mut().enumerate() {
                *s = p.stalls[i] - base.stalls[i];
            }
            (
                idx,
                PcPrediction {
                    completions: p.completions - base.completions,
                    stalls,
                    scoreboard_stalls: p.scoreboard_stalls - base.scoreboard_stalls,
                    elements: p.elements - base.elements,
                    drain: p.drain - base.drain,
                },
            )
        })
        .filter(|(_, p)| *p != PcPrediction::default())
        .collect()
}

/// The per-period cycle consumers, largest first: the binding resource.
fn bottleneck_of(c: &Counters) -> &'static str {
    let candidates: [(&'static str, u64); 6] = [
        ("issue", c.instructions),
        ("ir-busy", c.stalls.ir_busy),
        ("ls-port", c.stalls.ls_port_busy),
        ("fpu-hazard", c.stalls.fpu_reg_hazard),
        ("int-hazard", c.stalls.int_load_hazard),
        ("branch", c.stalls.branch),
    ];
    candidates
        .into_iter()
        .max_by_key(|&(_, v)| v)
        .map(|(name, _)| name)
        .unwrap()
}
