//! The assembled memory hierarchy of one MultiTitan processor.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheJournal, CacheStats};
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

/// What the accessors of a [`MemorySystem`] given a journal changed, so
/// [`MemorySystem::roll_back`] can undo a speculative run of accesses
/// without a trace. Reused across runs: [`MemorySystem::begin_journal`]
/// empties it.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    dcache: CacheJournal,
    icache: CacheJournal,
    ibuffer: CacheJournal,
    /// `(address, width, replaced bytes)` of each journaled store.
    words: Vec<(u32, u8, u64)>,
    /// [`Memory`]'s write counters at the start.
    marks: (usize, u64),
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

    /// Data read of a 64-bit double, for workload setup that warms
    /// lines; returns `(bits, penalty)`. Panics on a misaligned or
    /// out-of-range address.
    #[inline]
    pub fn load_f64(&mut self, addr: u32) -> (u64, u64) {
        let penalty = self.dcache.access(addr, AccessKind::Read);
        (self.memory.read_u64(addr), penalty)
    }

    /// Data read of a 64-bit double for the FPU; returns `(bits,
    /// penalty)`. Like every `try_*` accessor it validates the address
    /// *before* touching the cache, so a faulting access leaves
    /// residency and statistics exactly as they were (a rejected access
    /// never reached the board-level cache on real hardware either). The
    /// one check covers the data access too, which reads its page
    /// unchecked. With a `journal`, the access saves what it changes
    /// there for [`MemorySystem::roll_back`]; so do the other `try_*`
    /// accessors and [`MemorySystem::fetch_timing`].
    #[inline]
    pub fn try_load_f64(
        &mut self,
        addr: u32,
        journal: Option<&mut Journal>,
    ) -> Result<(u64, u64), MemError> {
        let (bytes, penalty) = self.read(addr, journal)?;
        Ok((u64::from_le_bytes(bytes), penalty))
    }

    /// Data write of a 64-bit double from the FPU; returns the penalty.
    #[inline]
    pub fn try_store_f64(
        &mut self,
        addr: u32,
        bits: u64,
        journal: Option<&mut Journal>,
    ) -> Result<u64, MemError> {
        self.write(addr, bits.to_le_bytes(), journal)
    }

    /// Data read of a 32-bit integer word for the CPU; returns `(value,
    /// penalty)`.
    #[inline]
    pub fn try_load_u32(
        &mut self,
        addr: u32,
        journal: Option<&mut Journal>,
    ) -> Result<(u32, u64), MemError> {
        let (bytes, penalty) = self.read(addr, journal)?;
        Ok((u32::from_le_bytes(bytes), penalty))
    }

    /// Data write of a 32-bit integer word from the CPU; returns the
    /// penalty.
    #[inline]
    pub fn try_store_u32(
        &mut self,
        addr: u32,
        value: u32,
        journal: Option<&mut Journal>,
    ) -> Result<u64, MemError> {
        self.write(addr, value.to_le_bytes(), journal)
    }

    /// The data read behind the `try_load_*` accessors: one address
    /// check, the data-cache probe, then an unchecked page read.
    #[inline(always)]
    fn read<const N: usize>(
        &mut self,
        addr: u32,
        journal: Option<&mut Journal>,
    ) -> Result<([u8; N], u64), MemError> {
        self.memory.try_check(addr, N as u32)?;
        let penalty =
            self.dcache
                .access_with(addr, AccessKind::Read, journal.map(|j| &mut j.dcache));
        Ok((self.memory.read_n_unchecked(addr), penalty))
    }

    /// The data write behind the `try_store_*` accessors; a journaled
    /// write also saves the bytes it replaces.
    #[inline(always)]
    fn write<const N: usize>(
        &mut self,
        addr: u32,
        data: [u8; N],
        journal: Option<&mut Journal>,
    ) -> Result<u64, MemError> {
        self.memory.try_check(addr, N as u32)?;
        let dcache = journal.map(|j| {
            let mut old = [0; 8];
            old[..N].copy_from_slice(&self.memory.read_n_unchecked::<N>(addr));
            j.words.push((addr, N as u8, u64::from_le_bytes(old)));
            &mut j.dcache
        });
        let penalty = self.dcache.access_with(addr, AccessKind::Write, dcache);
        self.memory.write_n_unchecked(addr, data);
        Ok(penalty)
    }

    /// Instruction fetch: first the on-chip buffer, then the external
    /// instruction cache. Returns `(word, penalty)` where the penalty
    /// accumulates both levels' misses. A wild PC (misaligned or beyond
    /// memory) is rejected before it can disturb the instruction caches.
    #[inline]
    pub fn try_fetch(&mut self, addr: u32) -> Result<(u32, u64), MemError> {
        self.memory.try_check(addr, 4)?;
        let penalty = self.fetch_timing(addr, None);
        let word = u32::from_le_bytes(self.memory.read_n_unchecked(addr));
        Ok((word, penalty))
    }

    /// The cache-path side effects and penalty of
    /// [`MemorySystem::try_fetch`] without checking the address or
    /// reading the word — for callers that can prove they already hold
    /// the text at `addr` (the simulator's translated-text fetch) or
    /// discard it (warming the instruction caches) — saving what it
    /// changes in `journal` when there is one. Always inlined, like
    /// `read` and `write`: it runs once per fetch.
    #[inline(always)]
    pub fn fetch_timing(&mut self, addr: u32, journal: Option<&mut Journal>) -> u64 {
        let (ibuffer, icache) = match journal {
            Some(j) => (Some(&mut j.ibuffer), Some(&mut j.icache)),
            None => (None, None),
        };
        let mut penalty = self.ibuffer.access_with(addr, AccessKind::Read, ibuffer);
        if penalty > 0 {
            penalty += self.icache.access_with(addr, AccessKind::Read, icache);
        }
        penalty
    }

    /// Starts `journal` afresh at the hierarchy's current state.
    pub fn begin_journal(&self, journal: &mut Journal) {
        self.dcache.begin_journal(&mut journal.dcache);
        self.icache.begin_journal(&mut journal.icache);
        self.ibuffer.begin_journal(&mut journal.ibuffer);
        journal.words.clear();
        journal.marks = self.memory.write_marks();
    }

    /// Undoes every journaled access since [`MemorySystem::begin_journal`]:
    /// memory words, cache lines and every counter read as it was, and
    /// the write watch counts none of the undone writes.
    pub fn roll_back(&mut self, journal: &mut Journal) {
        for (addr, len, old) in journal.words.drain(..).rev() {
            let bytes = old.to_le_bytes();
            if len == 8 {
                self.memory.put_back(addr, bytes);
            } else {
                self.memory
                    .put_back::<4>(addr, bytes[..4].try_into().unwrap());
            }
        }
        self.memory.set_write_marks(journal.marks);
        self.dcache.roll_back(&mut journal.dcache);
        self.icache.roll_back(&mut journal.icache);
        self.ibuffer.roll_back(&mut journal.ibuffer);
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
    use proptest::prelude::*;

    #[test]
    fn data_path_roundtrip_with_penalties() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        let store = s.try_store_f64(0x100, 7.5f64.to_bits(), None);
        assert_eq!(store, Ok(14), "cold write miss");
        let (bits, p) = s.load_f64(0x100);
        assert_eq!(f64::from_bits(bits), 7.5);
        assert_eq!(p, 0, "line resident after write-allocate");
    }

    #[test]
    fn fetch_goes_through_both_levels() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        s.memory.write_u32(0x40, 0xABCD);
        // Buffer miss (2) + instruction cache miss (14).
        assert_eq!(s.try_fetch(0x40), Ok((0xABCD, 16)));
        // Now both levels are warm.
        assert_eq!(s.try_fetch(0x40), Ok((0xABCD, 0)));
    }

    #[test]
    fn ibuffer_conflict_refills_from_warm_icache() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        // 2 KB buffer: addresses 0 and 2048 conflict in the buffer but not
        // in the 64 KB instruction cache.
        s.try_fetch(0).unwrap();
        s.try_fetch(2048).unwrap();
        let (_, p) = s.try_fetch(0).unwrap();
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
        assert!(s.try_load_f64(0x104, None).is_err(), "misaligned");
        assert!(
            s.try_store_u32(0xFFFF_FFF0, 1, None).is_err(),
            "out of bounds"
        );
        assert!(s.try_fetch(0x2).is_err(), "misaligned fetch");
        assert_eq!(
            (s.dcache_stats(), s.ibuffer_stats(), s.icache_stats()),
            before,
            "a faulting access must not perturb cache state or statistics"
        );
        let (bits, p) = s.try_load_f64(0x100, None).unwrap();
        assert_eq!((bits, p), (0, 0), "resident line still hits");
    }

    /// The base of the watched text range: stores into its first 64
    /// bytes count as text writes.
    const TEXT: u32 = 0x400;
    /// A tag no generated access uses: the probe's eviction lines.
    const EVICT: u32 = 8 * 64 * 1024;

    /// Word `word` (0–7: two lines) of line group `group` (0–2, 2 KiB
    /// apart) under tag `tag` (0–3, 64 KiB apart): accesses share sets
    /// in every cache, whose set strides all divide 64 KiB.
    fn word_addr(tag: u32, group: u32, word: u32) -> u32 {
        TEXT + tag * 64 * 1024 + group * 2048 + word * 4
    }

    /// Every word a generated access may touch.
    fn words() -> impl Iterator<Item = u32> {
        (0..4).flat_map(|t| (0..3).flat_map(move |g| (0..8).map(move |w| word_addr(t, g, w))))
    }

    fn arb_addr() -> impl Strategy<Value = u32> {
        (0u32..4, 0u32..3, 0u32..8).prop_map(|(t, g, w)| word_addr(t, g, w))
    }

    #[derive(Debug, Clone, Copy)]
    enum Access {
        Load { addr: u32, wide: bool },
        Store { addr: u32, wide: bool, value: u64 },
        Fetch(u32),
    }

    /// Loads and stores of both widths (a wide one at the 8-aligned word
    /// at or below its address), faulting ones (misaligned or past the
    /// end of memory) and fetches.
    fn arb_access() -> impl Strategy<Value = Access> {
        let at = || {
            (arb_addr(), any::<bool>())
                .prop_map(|(addr, wide)| (if wide { addr & !7 } else { addr }, wide))
        };
        prop_oneof![
            4 => at().prop_map(|(addr, wide)| Access::Load { addr, wide }),
            4 => (at(), any::<u64>())
                .prop_map(|((addr, wide), value)| Access::Store { addr, wide, value }),
            1 => (arb_addr(), any::<bool>(), any::<bool>()).prop_map(|(addr, wide, store)| {
                let addr = if wide { addr | 4 } else { 0xFFFF_FFF0 };
                if store {
                    Access::Store { addr, wide, value: 1 }
                } else {
                    Access::Load { addr, wide }
                }
            }),
            2 => arb_addr().prop_map(Access::Fetch),
        ]
    }

    /// Runs one access; returns the value read (0 for stores and
    /// fetches) and the penalty.
    fn apply(
        s: &mut MemorySystem,
        access: Access,
        journal: Option<&mut Journal>,
    ) -> Result<(u64, u64), MemError> {
        match access {
            Access::Load { addr, wide: true } => s.try_load_f64(addr, journal),
            Access::Load { addr, wide: false } => s
                .try_load_u32(addr, journal)
                .map(|(v, p)| (u64::from(v), p)),
            Access::Store { addr, wide, value } => if wide {
                s.try_store_f64(addr, value, journal)
            } else {
                s.try_store_u32(addr, value as u32, journal)
            }
            .map(|p| (0, p)),
            Access::Fetch(addr) => Ok((0, s.fetch_timing(addr, journal))),
        }
    }

    /// Everything a journaled run may change, observed without changing
    /// it: every cache's statistics, every word an access may touch, and
    /// the write counters.
    fn observe(s: &MemorySystem) -> ([CacheStats; 3], Vec<u32>, usize, u64) {
        (
            [s.dcache_stats(), s.icache_stats(), s.ibuffer_stats()],
            words().map(|a| s.memory.read_u32(a)).collect(),
            s.memory.high_water(),
            s.memory.watch_writes(),
        )
    }

    /// Residency, dirty bits and LRU order, seen through penalties and
    /// statistics: one new line in each set the run can touch evicts
    /// that set's least recently used way (written back if dirty), then
    /// every line the run can touch is read and fetched again.
    fn probe(mut s: MemorySystem) -> (Vec<u64>, [CacheStats; 3]) {
        let lines: Vec<u32> = words().step_by(4).collect();
        let mut penalties = Vec::new();
        for &line in lines.iter().take(6) {
            penalties.push(s.try_load_u32(line + EVICT, None).unwrap().1);
            penalties.push(s.fetch_timing(line + EVICT, None));
        }
        for &line in &lines {
            penalties.push(s.try_load_u32(line, None).unwrap().1);
            penalties.push(s.fetch_timing(line, None));
        }
        (
            penalties,
            [s.dcache_stats(), s.icache_stats(), s.ibuffer_stats()],
        )
    }

    /// A hierarchy with the paper's sizes and 1, 2 or 4 ways per cache.
    fn system(ways: [u32; 3]) -> MemorySystem {
        let with = |cfg: CacheConfig, w: u32| CacheConfig {
            ways: 1 << w,
            ..cfg
        };
        let mut s = MemorySystem::new(MemConfig {
            data_cache: with(CacheConfig::multititan_data(), ways[0]),
            instr_cache: with(CacheConfig::multititan_instr(), ways[1]),
            instr_buffer: with(CacheConfig::multititan_ibuffer(), ways[2]),
            ..MemConfig::multititan()
        });
        s.memory.watch_range(TEXT, TEXT + 64);
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rolling back a journaled run of accesses leaves the hierarchy
        /// as it was at `begin_journal`, and the journal changes nothing
        /// the run does.
        #[test]
        fn roll_back_undoes_journaled_accesses(
            ways in (0u32..3, 0u32..3, 0u32..3),
            prefix in prop::collection::vec(arb_access(), 0..32),
            run in prop::collection::vec(arb_access(), 0..32),
        ) {
            let mut s = system([ways.0, ways.1, ways.2]);
            for &access in &prefix {
                let _ = apply(&mut s, access, None);
            }
            let before = s.clone();
            let mut plain = s.clone();
            let mut journal = Journal::default();
            s.begin_journal(&mut journal);
            for &access in &run {
                let journaled = apply(&mut s, access, Some(&mut journal));
                prop_assert_eq!(journaled, apply(&mut plain, access, None), "{:?}", access);
            }
            prop_assert_eq!(observe(&s), observe(&plain), "the journal changed the run");
            prop_assert_eq!(probe(s.clone()), probe(plain), "the journal changed the run");
            s.roll_back(&mut journal);
            prop_assert_eq!(observe(&s), observe(&before), "roll_back left a trace");
            prop_assert_eq!(probe(s), probe(before), "roll_back left a trace");
        }
    }

    #[test]
    fn reset_is_indistinguishable_from_new() {
        let mut s = MemorySystem::new(MemConfig::multititan());
        s.memory.write_f64(0x200, 3.25);
        s.memory.watch_range(0x200, 0x210);
        s.memory.write_f64(0x208, 1.0);
        s.load_f64(0x200);
        s.try_store_u32(0x300, 7, None).unwrap();
        s.try_fetch(0x40).unwrap();
        s.reset();
        let fresh = MemorySystem::new(MemConfig::multititan());
        assert_eq!(s.memory.read_f64(0x200), 0.0, "contents cleared");
        assert_eq!(s.memory.watch_writes(), 0, "watch cleared");
        assert_eq!(s.dcache_stats(), fresh.dcache_stats());
        assert_eq!(s.icache_stats(), fresh.icache_stats());
        assert_eq!(s.ibuffer_stats(), fresh.ibuffer_stats());
        // Residency gone too: the first access misses cold again.
        assert_eq!(s.load_f64(0x200).1, 14);
        assert_eq!(s.try_fetch(0x40).unwrap().1, 16);
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
