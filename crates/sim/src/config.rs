//! The parameterized microarchitecture: every knob of the simulated
//! machine in one validated, canonically-serializable value.
//!
//! The paper argues for a *point* in a design space — a unified
//! 52-register vector/scalar file behind a shared latency-3 FPU with one
//! load/store port and direct-mapped board-level caches. PRs 1–9 built
//! that point; [`MachineConfig`] names its coordinates so the
//! design-space-exploration engine (`mt-dse`) can move along each axis:
//!
//! * **issue timing** ([`IssueTiming`]): FPU latency, load/store port
//!   occupancy, integer load-use delay, branch bubble, and element-issue
//!   lanes;
//! * **memory hierarchy** ([`MemConfig`]): capacity, line size,
//!   associativity, and miss penalty of the data cache, instruction
//!   cache, and on-chip instruction buffer, plus main-memory size (the
//!   fetch penalty of a machine is its instruction-side miss penalties);
//! * **register-file bounds**: how many FPU registers and how long a
//!   vector a program may use. These are *validation* bounds — the
//!   physical arrays stay at the ISA's 52×64-bit file so encodings are
//!   unchanged — and they feed the Pareto cost axis
//!   ([`MachineConfig::reg_file_bits`]).
//!
//! `MachineConfig::default()` is bit-identical to the pre-config machine
//! on both backends (`tests/machine_config.rs` proves it with proptest
//! and the full kernel corpus).

use mt_isa::cost::IssueTiming;
use mt_isa::{Instr, Program};
use mt_mem::MemConfig;

/// A complete description of one simulated machine. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Cycle costs of instruction issue.
    pub timing: IssueTiming,
    /// Memory hierarchy geometry and penalties.
    pub mem: MemConfig,
    /// FPU registers a program may reference (1..=52). Programs touching
    /// a register at or above this bound are rejected by
    /// [`MachineConfig::validate_program`]; the physical file stays 52
    /// entries so default-config execution is untouched.
    pub num_fpu_regs: u8,
    /// Longest vector a program may issue (1..=16). Same bound semantics
    /// as `num_fpu_regs`.
    pub max_vector_len: u8,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::multititan()
    }
}

/// The knob names [`MachineConfig::set_knob`] accepts, in canonical
/// order — also the axis names of `mt-dse` grid specs and the `?config=`
/// query parameter of `POST /run`.
pub const KNOB_NAMES: &[&str] = &[
    "fpu_latency",
    "fpu_lanes",
    "load_port_cycles",
    "store_port_cycles",
    "int_load_delay_cycles",
    "branch_penalty",
    "dcache_bytes",
    "dcache_line",
    "dcache_ways",
    "dcache_miss",
    "icache_bytes",
    "icache_line",
    "icache_ways",
    "icache_miss",
    "ibuffer_bytes",
    "ibuffer_line",
    "ibuffer_ways",
    "ibuffer_miss",
    "memory_bytes",
    "num_fpu_regs",
    "max_vector_len",
];

impl MachineConfig {
    /// The paper's machine — identical to `MachineConfig::default()`.
    pub fn multititan() -> MachineConfig {
        MachineConfig {
            timing: IssueTiming::multititan(),
            mem: MemConfig::multititan(),
            num_fpu_regs: mt_isa::NUM_FPU_REGS,
            max_vector_len: mt_isa::fpu::MAX_VECTOR_LEN,
        }
    }

    /// Total register-file bits this configuration pays for — the
    /// hardware-cost axis of the Pareto summary. The unified file is
    /// `num_fpu_regs` × 64 bits (the paper's 52 × 64 = 3328); a classical
    /// split design's 8 vector registers of 64 elements would be
    /// 8 × 64 × 64 = 32768.
    pub fn reg_file_bits(&self) -> u64 {
        self.num_fpu_regs as u64 * 64
    }

    /// Checks every knob for internal consistency. Returns the first
    /// problem as a human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        let t = &self.timing;
        check_range("fpu_latency", t.fpu_latency, 1, 64)?;
        check_range(
            "fpu_lanes",
            t.fpu_lanes,
            1,
            mt_isa::fpu::MAX_VECTOR_LEN as u64,
        )?;
        check_range("load_port_cycles", t.load_port_cycles, 1, 64)?;
        check_range("store_port_cycles", t.store_port_cycles, 1, 64)?;
        check_range("int_load_delay_cycles", t.int_load_delay_cycles, 0, 64)?;
        check_range("branch_penalty", t.branch_penalty, 0, 64)?;
        validate_cache("dcache", &self.mem.data_cache)?;
        validate_cache("icache", &self.mem.instr_cache)?;
        validate_cache("ibuffer", &self.mem.instr_buffer)?;
        check_range(
            "memory_bytes",
            self.mem.memory_bytes as u64,
            64 * 1024,
            1 << 30,
        )?;
        if !self.mem.memory_bytes.is_multiple_of(4) {
            return Err("memory_bytes must be a multiple of 4".to_string());
        }
        check_range(
            "num_fpu_regs",
            self.num_fpu_regs as u64,
            1,
            mt_isa::NUM_FPU_REGS as u64,
        )?;
        check_range(
            "max_vector_len",
            self.max_vector_len as u64,
            1,
            mt_isa::fpu::MAX_VECTOR_LEN as u64,
        )?;
        Ok(())
    }

    /// Sets one knob by name (see [`KNOB_NAMES`]). Does *not* re-validate:
    /// call [`MachineConfig::validate`] after the last set, as
    /// [`MachineConfig::parse`] does, so multi-knob edits can pass through
    /// transiently inconsistent states.
    pub fn set_knob(&mut self, name: &str, value: u64) -> Result<(), String> {
        let as_u32 = |v: u64| -> u32 { v.min(u32::MAX as u64) as u32 };
        match name {
            "fpu_latency" => self.timing.fpu_latency = value,
            "fpu_lanes" => self.timing.fpu_lanes = value,
            "load_port_cycles" => self.timing.load_port_cycles = value,
            "store_port_cycles" => self.timing.store_port_cycles = value,
            "int_load_delay_cycles" => self.timing.int_load_delay_cycles = value,
            "branch_penalty" => self.timing.branch_penalty = value,
            "dcache_bytes" => self.mem.data_cache.size_bytes = as_u32(value),
            "dcache_line" => self.mem.data_cache.line_bytes = as_u32(value),
            "dcache_ways" => self.mem.data_cache.ways = as_u32(value),
            "dcache_miss" => self.mem.data_cache.miss_penalty = value,
            "icache_bytes" => self.mem.instr_cache.size_bytes = as_u32(value),
            "icache_line" => self.mem.instr_cache.line_bytes = as_u32(value),
            "icache_ways" => self.mem.instr_cache.ways = as_u32(value),
            "icache_miss" => self.mem.instr_cache.miss_penalty = value,
            "ibuffer_bytes" => self.mem.instr_buffer.size_bytes = as_u32(value),
            "ibuffer_line" => self.mem.instr_buffer.line_bytes = as_u32(value),
            "ibuffer_ways" => self.mem.instr_buffer.ways = as_u32(value),
            "ibuffer_miss" => self.mem.instr_buffer.miss_penalty = value,
            "memory_bytes" => self.mem.memory_bytes = value.min(usize::MAX as u64) as usize,
            "num_fpu_regs" => self.num_fpu_regs = value.min(u8::MAX as u64) as u8,
            "max_vector_len" => self.max_vector_len = value.min(u8::MAX as u64) as u8,
            other => {
                return Err(format!(
                    "unknown machine knob {other:?} (expected one of: {})",
                    KNOB_NAMES.join(", ")
                ))
            }
        }
        Ok(())
    }

    /// Reads one knob by name — the inverse of [`MachineConfig::set_knob`].
    pub fn get_knob(&self, name: &str) -> Option<u64> {
        let t = &self.timing;
        Some(match name {
            "fpu_latency" => t.fpu_latency,
            "fpu_lanes" => t.fpu_lanes,
            "load_port_cycles" => t.load_port_cycles,
            "store_port_cycles" => t.store_port_cycles,
            "int_load_delay_cycles" => t.int_load_delay_cycles,
            "branch_penalty" => t.branch_penalty,
            "dcache_bytes" => self.mem.data_cache.size_bytes as u64,
            "dcache_line" => self.mem.data_cache.line_bytes as u64,
            "dcache_ways" => self.mem.data_cache.ways as u64,
            "dcache_miss" => self.mem.data_cache.miss_penalty,
            "icache_bytes" => self.mem.instr_cache.size_bytes as u64,
            "icache_line" => self.mem.instr_cache.line_bytes as u64,
            "icache_ways" => self.mem.instr_cache.ways as u64,
            "icache_miss" => self.mem.instr_cache.miss_penalty,
            "ibuffer_bytes" => self.mem.instr_buffer.size_bytes as u64,
            "ibuffer_line" => self.mem.instr_buffer.line_bytes as u64,
            "ibuffer_ways" => self.mem.instr_buffer.ways as u64,
            "ibuffer_miss" => self.mem.instr_buffer.miss_penalty,
            "memory_bytes" => self.mem.memory_bytes as u64,
            "num_fpu_regs" => self.num_fpu_regs as u64,
            "max_vector_len" => self.max_vector_len as u64,
            _ => return None,
        })
    }

    /// Parses a `knob=value,knob=value` override string applied on top of
    /// the default machine, then validates the result. The empty string
    /// yields the default config.
    pub fn parse(spec: &str) -> Result<MachineConfig, String> {
        let mut config = MachineConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed knob {part:?} (expected name=value)"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("knob {name:?} has a non-numeric value {value:?}"))?;
            config.set_knob(name.trim(), value)?;
        }
        config.validate()?;
        Ok(config)
    }

    /// The canonical serialization of every knob, in [`KNOB_NAMES`] order —
    /// the machine-identity component of the service result-cache key. Two
    /// configs have equal key material iff they are equal, so a `lanes=2`
    /// run can never hit a `lanes=1` cache entry.
    pub fn key_material(&self) -> String {
        KNOB_NAMES
            .iter()
            .map(|name| {
                let v = self.get_knob(name).expect("every listed knob is readable");
                format!("{name}={v}")
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Checks a program against this machine's register-file bounds:
    /// every decodable FPU instruction must keep its register references
    /// below `num_fpu_regs` and its vector length at or below
    /// `max_vector_len`. Undecodable words are ignored here — they fault
    /// at execution time with a typed [`crate::RunError`] regardless of
    /// the configuration.
    pub fn validate_program(&self, program: &Program) -> Result<(), String> {
        let reg_ok = |r: mt_isa::FReg| r.index() < self.num_fpu_regs;
        for (i, &word) in program.words.iter().enumerate() {
            let Ok(instr) = Instr::decode(word) else {
                continue;
            };
            let pc = program.base + 4 * i as u32;
            match instr {
                Instr::Falu(f) => {
                    if f.vl > self.max_vector_len {
                        return Err(format!(
                            "instruction at {pc:#x}: vector length {} exceeds the \
                             configured max_vector_len {}",
                            f.vl, self.max_vector_len
                        ));
                    }
                    for e in 0..f.vl {
                        let refs = f.element(e);
                        for r in [refs.ra, refs.rb, refs.rr] {
                            if !reg_ok(r) {
                                return Err(format!(
                                    "instruction at {pc:#x}: element {e} references {r}, \
                                     beyond the configured num_fpu_regs {}",
                                    self.num_fpu_regs
                                ));
                            }
                        }
                    }
                }
                Instr::Fld { fr, .. } | Instr::Fst { fr, .. } if !reg_ok(fr) => {
                    return Err(format!(
                        "instruction at {pc:#x}: {fr} is beyond the configured \
                         num_fpu_regs {}",
                        self.num_fpu_regs
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

fn check_range(name: &str, value: u64, min: u64, max: u64) -> Result<(), String> {
    if value < min || value > max {
        return Err(format!("{name} = {value} is outside [{min}, {max}]"));
    }
    Ok(())
}

/// Most lines one cache may hold: 2^20 lines are 16 MiB of line state,
/// which every service worker allocates when it rebuilds its machine for
/// a job. The largest geometry the paper or any sweep uses is 64 KB.
const MAX_CACHE_LINES: u32 = 1 << 20;

/// Most ways one cache may have: every access scans its set's ways.
const MAX_CACHE_WAYS: u32 = 64;

fn validate_cache(name: &str, c: &mt_mem::CacheConfig) -> Result<(), String> {
    if !c.line_bytes.is_power_of_two() || c.line_bytes < 4 {
        return Err(format!(
            "{name}_line = {} must be a power of two >= 4",
            c.line_bytes
        ));
    }
    if c.size_bytes == 0 || !c.size_bytes.is_multiple_of(c.line_bytes) {
        return Err(format!(
            "{name}_bytes = {} must be a nonzero multiple of the {}-byte line",
            c.size_bytes, c.line_bytes
        ));
    }
    if c.lines() > MAX_CACHE_LINES {
        return Err(format!(
            "{name}_bytes = {} is {} lines of {} bytes (max {MAX_CACHE_LINES} lines)",
            c.size_bytes,
            c.lines(),
            c.line_bytes
        ));
    }
    if c.ways == 0 || c.ways > MAX_CACHE_WAYS || !c.lines().is_multiple_of(c.ways) {
        return Err(format!(
            "{name}_ways = {} must be in [1, {MAX_CACHE_WAYS}] and divide the line count {}",
            c.ways,
            c.lines()
        ));
    }
    if c.miss_penalty > 10_000 {
        return Err(format!(
            "{name}_miss = {} is implausibly large (max 10000)",
            c.miss_penalty
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let c = MachineConfig::default();
        assert_eq!(c.timing, IssueTiming::multititan());
        assert_eq!(c.mem, MemConfig::multititan());
        assert_eq!(c.num_fpu_regs, mt_isa::NUM_FPU_REGS);
        assert_eq!(c.max_vector_len, mt_isa::fpu::MAX_VECTOR_LEN);
        assert!(c.validate().is_ok());
        assert_eq!(c.reg_file_bits(), 52 * 64);
    }

    #[test]
    fn every_knob_round_trips_through_set_and_get() {
        for &name in KNOB_NAMES {
            let mut c = MachineConfig::default();
            let original = c.get_knob(name).unwrap();
            // A distinct, knob-appropriate new value.
            let fresh = match name {
                n if n.ends_with("_bytes") => original * 2,
                n if n.ends_with("_line") => original * 2,
                _ => original + 1,
            };
            c.set_knob(name, fresh).unwrap();
            assert_eq!(c.get_knob(name), Some(fresh), "{name}");
            assert_ne!(c, MachineConfig::default(), "{name} must change identity");
        }
    }

    #[test]
    fn key_material_distinguishes_every_knob() {
        let base = MachineConfig::default().key_material();
        for &name in KNOB_NAMES {
            let mut c = MachineConfig::default();
            let fresh = match name {
                n if n.ends_with("_bytes") || n.ends_with("_line") => c.get_knob(name).unwrap() * 2,
                _ => c.get_knob(name).unwrap() + 1,
            };
            c.set_knob(name, fresh).unwrap();
            assert_ne!(c.key_material(), base, "{name} must alter the key");
        }
    }

    #[test]
    fn parse_applies_overrides_and_validates() {
        let c = MachineConfig::parse("fpu_latency=5,fpu_lanes=2").unwrap();
        assert_eq!(c.timing.fpu_latency, 5);
        assert_eq!(c.timing.fpu_lanes, 2);
        assert_eq!(c.mem, MemConfig::multititan(), "unlisted knobs untouched");

        assert_eq!(MachineConfig::parse("").unwrap(), MachineConfig::default());
        assert!(MachineConfig::parse("fpu_latency=0").is_err(), "latency 0");
        assert!(MachineConfig::parse("bogus=1").is_err(), "unknown knob");
        assert!(MachineConfig::parse("fpu_latency").is_err(), "no value");
        assert!(
            MachineConfig::parse("fpu_latency=x").is_err(),
            "non-numeric"
        );
        assert!(
            MachineConfig::parse("dcache_line=24").is_err(),
            "line size must be a power of two"
        );
        assert!(
            MachineConfig::parse("dcache_ways=3").is_err(),
            "ways must divide the line count"
        );
        // Resource bounds: a cache is allocated per worker per job, so
        // its geometry is capped at 2^20 lines and 64 ways.
        assert!(
            MachineConfig::parse("dcache_bytes=4294967280,dcache_line=4").is_err(),
            "a billion lines would allocate 16 GiB"
        );
        assert!(
            MachineConfig::parse("dcache_ways=268435456").is_err(),
            "268M ways would be scanned per access"
        );
        assert!(
            MachineConfig::parse("dcache_ways=128").is_err(),
            "128 ways divide the default line count but exceed the cap"
        );
        assert!(
            MachineConfig::parse("icache_bytes=33554432").is_err(),
            "2^21 lines exceed the cap"
        );
        let largest = MachineConfig::parse("dcache_bytes=16777216,dcache_ways=64").unwrap();
        assert_eq!(
            largest.mem.data_cache.lines(),
            1 << 20,
            "the cap is inclusive"
        );
    }

    #[test]
    fn validate_program_enforces_bounds() {
        use mt_fparith::FpOp;
        use mt_isa::{FReg, FpuAluInstr};
        let v =
            FpuAluInstr::vector(FpOp::Add, FReg::new(8), FReg::new(0), FReg::new(4), 4).unwrap();
        let program = Program {
            base: 0x1_0000,
            words: vec![
                Instr::Falu(v).encode().unwrap(),
                Instr::Halt.encode().unwrap(),
            ],
            segments: Vec::new(),
        };

        assert!(MachineConfig::default().validate_program(&program).is_ok());

        let short_vl = MachineConfig {
            max_vector_len: 2,
            ..MachineConfig::default()
        };
        assert!(short_vl.validate_program(&program).is_err(), "vl 4 > 2");

        // Element 3 writes R11, beyond an 8-register file.
        let few_regs = MachineConfig {
            num_fpu_regs: 8,
            ..MachineConfig::default()
        };
        assert!(few_regs.validate_program(&program).is_err());

        let enough = MachineConfig {
            num_fpu_regs: 12,
            ..MachineConfig::default()
        };
        assert!(enough.validate_program(&program).is_ok());
    }
}
