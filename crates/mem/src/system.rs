//! The assembled memory hierarchy of one MultiTitan processor.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};
use crate::memory::{MemError, Memory};

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Main memory size in bytes.
    pub memory_bytes: usize,
    /// Data cache geometry.
    pub data_cache: CacheConfig,
    /// External instruction cache geometry.
    pub instr_cache: CacheConfig,
    /// On-chip instruction buffer geometry.
    pub instr_buffer: CacheConfig,
}

impl MemConfig {
    /// The paper's parameters with 4 MB of main memory.
    pub const fn multititan() -> MemConfig {
        MemConfig {
            memory_bytes: 4 * 1024 * 1024,
            data_cache: CacheConfig::multititan_data(),
            instr_cache: CacheConfig::multititan_instr(),
            instr_buffer: CacheConfig::multititan_ibuffer(),
        }
    }

    /// The paper's caches over a custom memory size (for large workloads).
    pub const fn multititan_with_memory(memory_bytes: usize) -> MemConfig {
        MemConfig {
            memory_bytes,
            ..MemConfig::multititan()
        }
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig::multititan()
    }
}

/// Main memory plus the three caches, with the access paths the simulator
/// uses: data accesses through the shared data cache, instruction fetches
/// through the instruction buffer backed by the external instruction cache.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// Main memory (public: workloads initialize arrays directly).
    pub memory: Memory,
    dcache: Cache,
    icache: Cache,
    ibuffer: Cache,
}

impl MemorySystem {
    /// Builds a cold hierarchy.
    pub fn new(config: MemConfig) -> MemorySystem {
        MemorySystem {
            memory: Memory::new(config.memory_bytes),
            dcache: Cache::new(config.data_cache),
            icache: Cache::new(config.instr_cache),
            ibuffer: Cache::new(config.instr_buffer),
        }
    }

    /// Data read of a 64-bit double for the FPU; returns `(bits, penalty)`.
    #[inline]
    pub fn load_f64(&mut self, addr: u32) -> (u64, u64) {
        let penalty = self.dcache.access(addr, AccessKind::Read);
        (self.memory.read_u64(addr), penalty)
    }

    /// Data write of a 64-bit double from the FPU; returns the penalty.
    #[inline]
    pub fn store_f64(&mut self, addr: u32, bits: u64) -> u64 {
        let penalty = self.dcache.access(addr, AccessKind::Write);
        self.memory.write_u64(addr, bits);
        penalty
    }

    /// Data read of a 32-bit integer word for the CPU.
    #[inline]
    pub fn load_u32(&mut self, addr: u32) -> (u32, u64) {
        let penalty = self.dcache.access(addr, AccessKind::Read);
        (self.memory.read_u32(addr), penalty)
    }

    /// Data write of a 32-bit integer word from the CPU.
    #[inline]
    pub fn store_u32(&mut self, addr: u32, value: u32) -> u64 {
        let penalty = self.dcache.access(addr, AccessKind::Write);
        self.memory.write_u32(addr, value);
        penalty
    }

    /// Fallible [`MemorySystem::load_f64`]: validates the address *before*
    /// touching the cache, so a faulting access leaves residency and
    /// statistics exactly as they were (a rejected access never reached
    /// the board-level cache on real hardware either).
    #[inline]
    pub fn try_load_f64(&mut self, addr: u32) -> Result<(u64, u64), MemError> {
        self.memory.try_check(addr, 8)?;
        Ok(self.load_f64(addr))
    }

    /// Fallible [`MemorySystem::store_f64`] (address validated before the
    /// cache access).
    #[inline]
    pub fn try_store_f64(&mut self, addr: u32, bits: u64) -> Result<u64, MemError> {
        self.memory.try_check(addr, 8)?;
        Ok(self.store_f64(addr, bits))
    }

    /// Fallible [`MemorySystem::load_u32`] (address validated before the
    /// cache access).
    #[inline]
    pub fn try_load_u32(&mut self, addr: u32) -> Result<(u32, u64), MemError> {
        self.memory.try_check(addr, 4)?;
        Ok(self.load_u32(addr))
    }

    /// Fallible [`MemorySystem::store_u32`] (address validated before the
    /// cache access).
    #[inline]
    pub fn try_store_u32(&mut self, addr: u32, value: u32) -> Result<u64, MemError> {
        self.memory.try_check(addr, 4)?;
        Ok(self.store_u32(addr, value))
    }

    /// Instruction fetch: first the on-chip buffer, then the external
    /// instruction cache. Returns `(word, penalty)` where the penalty
    /// accumulates both levels' misses.
    pub fn fetch(&mut self, addr: u32) -> (u32, u64) {
        let penalty = self.fetch_timing(addr);
        (self.memory.read_u32(addr), penalty)
    }

    /// Fallible [`MemorySystem::fetch`]: a wild PC (misaligned or beyond
    /// memory) is rejected before it can disturb the instruction caches.
    #[inline]
    pub fn try_fetch(&mut self, addr: u32) -> Result<(u32, u64), MemError> {
        self.memory.try_check(addr, 4)?;
        Ok(self.fetch(addr))
    }

    /// The cache-path side effects and penalty of [`MemorySystem::fetch`]
    /// without reading the word — for callers that can prove they already
    /// hold the text at `addr` (the simulator's translated-text fetch).
    #[inline]
    pub fn fetch_timing(&mut self, addr: u32) -> u64 {
        let mut penalty = self.ibuffer.access(addr, AccessKind::Read);
        if penalty > 0 {
            penalty += self.icache.access(addr, AccessKind::Read);
        }
        penalty
    }

    /// Cold-start: invalidates all three caches (statistics survive; use
    /// [`MemorySystem::reset_stats`] to clear them).
    pub fn flush_caches(&mut self) {
        self.dcache.flush();
        self.icache.flush();
        self.ibuffer.flush();
    }

    /// Full reset to the just-built state: memory back to all zeros (its
    /// pages dropped), all three caches cold, all statistics zero.
    /// Equivalent to `MemorySystem::new` with the same config, minus the
    /// cache allocations — the recycling path for a worker that runs
    /// arbitrary programs back to back.
    pub fn reset(&mut self) {
        self.memory.clear();
        self.flush_caches();
        self.reset_stats();
    }

    /// Clears all cache statistics without touching residency.
    pub fn reset_stats(&mut self) {
        self.dcache.reset_stats();
        self.icache.reset_stats();
        self.ibuffer.reset_stats();
    }

    /// Data cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// External instruction cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// Instruction buffer statistics.
    pub fn ibuffer_stats(&self) -> CacheStats {
        self.ibuffer.stats()
    }

    /// Mutable data cache (fault-injection hook).
    pub fn dcache_mut(&mut self) -> &mut Cache {
        &mut self.dcache
    }

    /// Mutable external instruction cache (fault-injection hook).
    pub fn icache_mut(&mut self) -> &mut Cache {
        &mut self.icache
    }

    /// Mutable instruction buffer (fault-injection hook).
    pub fn ibuffer_mut(&mut self) -> &mut Cache {
        &mut self.ibuffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_path_roundtrip_with_penalties() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        assert_eq!(s.store_f64(0x100, 7.5f64.to_bits()), 14, "cold write miss");
        let (bits, p) = s.load_f64(0x100);
        assert_eq!(f64::from_bits(bits), 7.5);
        assert_eq!(p, 0, "line resident after write-allocate");
    }

    #[test]
    fn fetch_goes_through_both_levels() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        s.memory.write_u32(0x40, 0xABCD);
        let (w, p) = s.fetch(0x40);
        assert_eq!(w, 0xABCD);
        // Buffer miss (2) + instruction cache miss (14).
        assert_eq!(p, 16);
        // Now both levels are warm.
        assert_eq!(s.fetch(0x40).1, 0);
    }

    #[test]
    fn ibuffer_conflict_refills_from_warm_icache() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        // 2 KB buffer: addresses 0 and 2048 conflict in the buffer but not
        // in the 64 KB instruction cache.
        s.fetch(0);
        s.fetch(2048);
        let (_, p) = s.fetch(0);
        assert_eq!(p, 2, "buffer miss, instruction cache hit");
    }

    #[test]
    fn flush_makes_caches_cold_again() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        s.load_f64(0x200);
        s.flush_caches();
        assert_eq!(s.load_f64(0x200).1, 14);
    }

    #[test]
    fn rejected_access_leaves_caches_untouched() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        s.load_f64(0x100);
        let before = (s.dcache_stats(), s.ibuffer_stats(), s.icache_stats());
        assert!(s.try_load_f64(0x104).is_err(), "misaligned");
        assert!(s.try_store_u32(0xFFFF_FFF0, 1).is_err(), "out of bounds");
        assert!(s.try_fetch(0x2).is_err(), "misaligned fetch");
        assert_eq!(
            (s.dcache_stats(), s.ibuffer_stats(), s.icache_stats()),
            before,
            "a faulting access must not perturb cache state or statistics"
        );
        let (bits, p) = s.try_load_f64(0x100).unwrap();
        assert_eq!((bits, p), (0, 0), "resident line still hits");
    }

    #[test]
    fn reset_is_indistinguishable_from_new() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        s.memory.write_f64(0x200, 3.25);
        s.memory.watch_range(0x200, 0x210);
        s.memory.write_f64(0x208, 1.0);
        s.load_f64(0x200);
        s.store_u32(0x300, 7);
        s.fetch(0x40);
        s.reset();
        let fresh = MemorySystem::new(MemConfig::multititan());
        assert_eq!(s.memory.read_f64(0x200), 0.0, "contents cleared");
        assert_eq!(s.memory.watch_writes(), 0, "watch cleared");
        assert_eq!(s.dcache_stats(), fresh.dcache_stats());
        assert_eq!(s.icache_stats(), fresh.icache_stats());
        assert_eq!(s.ibuffer_stats(), fresh.ibuffer_stats());
        // Residency gone too: the first access misses cold again.
        assert_eq!(s.load_f64(0x200).1, 14);
        assert_eq!(s.fetch(0x40).1, 16);
    }

    #[test]
    fn warm_run_protocol() {
        // The §3.2 warm-cache protocol: run once, reset stats, run again.
        let mut s = MemorySystem::new(MemConfig::multititan());
        for i in 0..64 {
            s.load_f64(i * 8);
        }
        s.reset_stats();
        for i in 0..64 {
            s.load_f64(i * 8);
        }
        assert_eq!(s.dcache_stats().misses, 0);
        assert_eq!(s.dcache_stats().hits, 64);
    }
}
