//! Fault targets and deterministic plan generation.
//!
//! A *plan* is a list of [`Injection`]s — (cycle, target) pairs — drawn
//! from a seeded [`SplitMix64`] stream. The plan
//! is a pure function of the seed and the [`PlanBounds`] (which are
//! themselves derived from the deterministic golden run), so a campaign
//! is reproducible from its seed alone.

use crate::rng::SplitMix64;

/// Which cache a [`FaultTarget::CacheLine`] flip lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheId {
    /// The 64 KB direct-mapped data cache.
    Data,
    /// The 64 KB direct-mapped instruction cache.
    Instr,
    /// The 2 KB on-chip instruction buffer.
    Buffer,
}

/// One architectural or microarchitectural bit to disturb.
///
/// Targets mirror the real MultiTitan's soft-error surface: register
/// file cells, the PSW, the FPU pipeline value latches, the scoreboard,
/// cache tag/state arrays, and main-memory words. Every variant is
/// applied through a semantic hook on the corresponding structure (see
/// [`crate::inject::apply`]), never by poking simulator internals that
/// have no hardware analogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// Flip `bit` (0..32) of CPU integer register `reg` (1..32 — r0 is
    /// hardwired zero and not a storage cell).
    IntReg {
        /// Register index, 1..32.
        reg: u8,
        /// Bit position, 0..32.
        bit: u32,
    },
    /// Flip `bit` (0..64) of FPU register `reg` (0..52).
    FpuReg {
        /// Register index, 0..52.
        reg: u8,
        /// Bit position, 0..64.
        bit: u32,
    },
    /// Disturb the program status word: bits 0..5 flip one exception
    /// flag; bit 5 toggles the recorded overflow destination
    /// (§2.3.1's abort bookkeeping).
    Psw {
        /// Sub-field selector, 0..6.
        bit: u32,
    },
    /// Flip `bit` (0..64) of the value latch of an in-flight FPU
    /// pipeline slot. A no-op when the pipeline is empty at the
    /// injection cycle (classified as masked).
    PipelineLatch {
        /// In-flight slot selector (wrapped modulo occupancy).
        slot: usize,
        /// Bit position, 0..64.
        bit: u32,
    },
    /// Toggle the scoreboard reservation of FPU register `reg`. Setting
    /// a bit nobody will clear wedges dependent instructions — the
    /// canonical prey of the no-retire watchdog.
    Scoreboard {
        /// Register index, 0..52.
        reg: u8,
    },
    /// Flip cache line state: bit 0 = valid, bit 1 = dirty, bits 2..34
    /// = tag bits (a tag-array parity error). The caches model timing
    /// and residency only, so this perturbs hit/miss behaviour and
    /// writeback traffic but can never corrupt data values.
    CacheLine {
        /// Which cache.
        cache: CacheId,
        /// Line selector (wrapped modulo the cache's line count).
        line: usize,
        /// State bit, 0..34.
        bit: u32,
    },
    /// Flip `bit` (0..32) of the 32-bit memory word at `addr` (word
    /// aligned). Text-region flips corrupt instructions; data-region
    /// flips corrupt operands.
    MemoryWord {
        /// Word-aligned byte address.
        addr: u32,
        /// Bit position, 0..32.
        bit: u32,
    },
}

impl FaultTarget {
    /// Stable short name of the structure this target lands in — the
    /// key prefix of the per-structure metric counters.
    pub fn structure(&self) -> &'static str {
        match self {
            FaultTarget::IntReg { .. } => "int_reg",
            FaultTarget::FpuReg { .. } => "fpu_reg",
            FaultTarget::Psw { .. } => "psw",
            FaultTarget::PipelineLatch { .. } => "pipeline",
            FaultTarget::Scoreboard { .. } => "scoreboard",
            FaultTarget::CacheLine { .. } => "cache",
            FaultTarget::MemoryWord { .. } => "memory",
        }
    }
}

/// One planned fault: disturb `target` when the machine reaches `cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Cycle at which the fault strikes (the machine is paused exactly
    /// there, the bit is flipped, and the run resumes).
    pub cycle: u64,
    /// What to flip.
    pub target: FaultTarget,
}

/// The sampling space for one workload's injections.
#[derive(Debug, Clone)]
pub struct PlanBounds {
    /// Cycle count of the fault-free run; injection cycles are drawn
    /// from `0..golden_cycles`.
    pub golden_cycles: u64,
    /// Candidate memory regions as `(base, words)` pairs — typically
    /// the text segment and the data arrays. Must be non-empty with
    /// every region at least one word.
    pub regions: Vec<(u32, u32)>,
}

/// Draws one injection from the random stream.
///
/// The draw order (cycle, kind, fields) is part of the reproducibility
/// contract: changing it changes every plan, so treat it as frozen.
pub fn draw_injection(rng: &mut SplitMix64, bounds: &PlanBounds) -> Injection {
    let cycle = rng.below(bounds.golden_cycles.max(1));
    // Weighted kind selection out of 100. The weights bias toward the
    // large structures (registers, memory) the way raw cell counts do.
    let target = match rng.below(100) {
        0..=14 => FaultTarget::IntReg {
            reg: 1 + rng.below(31) as u8,
            bit: rng.below(32) as u32,
        },
        15..=39 => FaultTarget::FpuReg {
            reg: rng.below(u64::from(mt_isa::NUM_FPU_REGS)) as u8,
            bit: rng.below(64) as u32,
        },
        40..=49 => FaultTarget::Psw {
            bit: rng.below(6) as u32,
        },
        50..=59 => FaultTarget::PipelineLatch {
            slot: rng.below(4) as usize,
            bit: rng.below(64) as u32,
        },
        60..=69 => FaultTarget::Scoreboard {
            reg: rng.below(u64::from(mt_isa::NUM_FPU_REGS)) as u8,
        },
        70..=79 => FaultTarget::CacheLine {
            cache: match rng.below(3) {
                0 => CacheId::Data,
                1 => CacheId::Instr,
                _ => CacheId::Buffer,
            },
            line: rng.below(4096) as usize,
            bit: rng.below(34) as u32,
        },
        _ => {
            let (base, words) = bounds.regions[rng.below(bounds.regions.len() as u64) as usize];
            FaultTarget::MemoryWord {
                addr: base + 4 * rng.below(u64::from(words.max(1))) as u32,
                bit: rng.below(32) as u32,
            }
        }
    };
    Injection { cycle, target }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> PlanBounds {
        PlanBounds {
            golden_cycles: 1000,
            regions: vec![(0x1_0000, 64), (0x10_0000, 256)],
        }
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let draw_all = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (0..200)
                .map(|_| draw_injection(&mut rng, &bounds()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_all(0xA5), draw_all(0xA5));
        assert_ne!(draw_all(0xA5), draw_all(0xA6));
    }

    #[test]
    fn draws_respect_bounds() {
        let mut rng = SplitMix64::new(7);
        let b = bounds();
        for _ in 0..2000 {
            let inj = draw_injection(&mut rng, &b);
            assert!(inj.cycle < b.golden_cycles);
            match inj.target {
                FaultTarget::IntReg { reg, bit } => {
                    assert!((1..32).contains(&reg) && bit < 32);
                }
                FaultTarget::FpuReg { reg, bit } => {
                    assert!(reg < mt_isa::NUM_FPU_REGS && bit < 64);
                }
                FaultTarget::Psw { bit } => assert!(bit < 6),
                FaultTarget::MemoryWord { addr, bit } => {
                    assert!(addr.is_multiple_of(4) && bit < 32);
                    let in_region = b
                        .regions
                        .iter()
                        .any(|&(base, words)| addr >= base && addr < base + 4 * words);
                    assert!(in_region, "addr {addr:#x} outside every region");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn every_structure_appears_in_a_large_plan() {
        let mut rng = SplitMix64::new(0xA5);
        let b = bounds();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            seen.insert(draw_injection(&mut rng, &b).target.structure());
        }
        for name in [
            "int_reg",
            "fpu_reg",
            "psw",
            "pipeline",
            "scoreboard",
            "cache",
            "memory",
        ] {
            assert!(seen.contains(name), "no {name} faults in 500 draws");
        }
    }
}
