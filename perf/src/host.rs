//! The host-speed reference: how fast this CPU is running right now.
//!
//! On a shared VM the host's other tenants slow this machine's CPUs by
//! different amounts at different times: by a few percent from one second
//! to the next, and by half or more for seconds to minutes at a stretch.
//! Every time the benchmark takes is stretched by the same slowdown, so
//! two runs of the same code can differ by far more than any bound a
//! regression gate could use, and no statistic over a run removes it when
//! the whole run is slow.
//!
//! What removes most of it is timing, between the short rounds of a
//! phase, a fixed piece of work that no change to the repository can
//! touch: a tiny register machine that decodes and executes a fixed
//! program over a 128 KiB memory. It is the same kind of work as the
//! simulator: dispatch on a decoded word, register-file reads and writes,
//! wide multiplies, data-dependent branches, loads and stores past L1. Its
//! time over [`NOMINAL_PROBE_NS`] is the *host factor* `h` of that moment
//! (above 1 when the host runs slower than nominal). The end-to-end
//! metrics are reported at nominal host speed: a time is divided by the
//! `h` of its round and a rate multiplied by it. The report prints the raw
//! values and the host factors next to them.

use std::time::Instant;

use crate::gen::SplitMix64;

/// Memory of the reference machine, in 64-bit words (128 KiB: past L1,
/// inside L2).
const MEM_WORDS: usize = 1 << 14;
/// Instructions of the fixed reference program.
const PROGRAM_LEN: usize = 64;
/// Seed of the fixed reference program.
const PROGRAM_SEED: u64 = 0x4854_5350_4545_4421;
/// Steps of the reference machine per probe.
const STEPS_PER_PROBE: u64 = 300_000;
/// One probe's time at nominal host speed: the time it takes on the
/// machine the baseline in `README.md` was measured on (a 2.1 GHz Xeon
/// VM) when no other tenant slows it.
pub const NOMINAL_PROBE_NS: f64 = 700_000.0;

/// The reference machine: sixteen registers, a memory, and a program
/// counter into the fixed program.
pub struct Reference {
    program: [u32; PROGRAM_LEN],
    regs: [u64; 16],
    mem: Vec<u64>,
    pc: usize,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    /// The machine with its fixed program.
    pub fn new() -> Reference {
        let mut rng = SplitMix64::new(PROGRAM_SEED);
        let mut program = [0u32; PROGRAM_LEN];
        for word in &mut program {
            *word = rng.next_u64() as u32;
        }
        Reference {
            program,
            regs: [0; 16],
            mem: vec![0; MEM_WORDS],
            pc: 0,
        }
    }

    /// Puts the machine back in its starting state, so that every probe
    /// does exactly the same work.
    fn reset(&mut self) {
        for (i, r) in self.regs.iter_mut().enumerate() {
            *r = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
        }
        self.mem.fill(0);
        self.pc = 0;
    }

    /// Executes `steps` instructions; returns a checksum of the registers.
    fn run(&mut self, steps: u64) -> u64 {
        const MASK: usize = MEM_WORDS - 1;
        let (regs, mem) = (&mut self.regs, &mut self.mem);
        let mut pc = self.pc;
        for _ in 0..steps {
            let w = self.program[pc];
            pc = (pc + 1) % PROGRAM_LEN;
            let (d, a, b) = (
                (w >> 3) as usize & 15,
                (w >> 7) as usize & 15,
                (w >> 11) as usize & 15,
            );
            let imm = w >> 15;
            let (x, y) = (regs[a], regs[b]);
            match w & 7 {
                0 => regs[d] = x.wrapping_add(y),
                1 => regs[d] = x ^ y.rotate_left(imm & 63),
                2 => regs[d] = ((u128::from(x) * u128::from(y | 1)) >> 64) as u64 ^ y,
                3 => regs[d] = mem[x as usize & MASK].wrapping_add(y),
                4 => mem[x as usize & MASK] = y ^ u64::from(imm),
                5 => {
                    if x & 1 == 1 {
                        pc = (pc + (imm as usize & 7)) % PROGRAM_LEN;
                    }
                }
                6 => regs[d] = u64::from(x.leading_zeros()).wrapping_add(y << 1) | 1,
                _ => {
                    regs[d] = x
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        .wrapping_add(u64::from(imm))
                }
            }
        }
        self.pc = pc;
        regs.iter().fold(0, |acc, r| acc.rotate_left(5) ^ r)
    }

    /// Times one probe of the fixed work from the starting state and
    /// returns the host factor: its time over [`NOMINAL_PROBE_NS`].
    pub fn factor(&mut self) -> f64 {
        self.reset();
        let start = Instant::now();
        std::hint::black_box(self.run(std::hint::black_box(STEPS_PER_PROBE)));
        start.elapsed().as_secs_f64() * 1e9 / NOMINAL_PROBE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_does_the_same_work() {
        let mut r = Reference::new();
        r.reset();
        let first = r.run(10_000);
        r.reset();
        assert_eq!(r.run(10_000), first);
        // The state does not collapse to a fixed point.
        assert_ne!(r.run(10_000), first);
        assert!(r.regs.iter().filter(|&&v| v != 0).count() > 8);
        assert!(r.mem.iter().filter(|&&v| v != 0).count() > 100);
    }

    #[test]
    fn a_probe_reports_a_positive_factor() {
        let f = Reference::new().factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }
}
