//! Direct-mapped write-back cache timing model.
//!
//! The paper's data cache is 64 KB direct-mapped with 16-byte lines and a
//! 14-cycle miss penalty (§2). Only residency and timing are modelled: data
//! lives in main memory, which is exact for a uniprocessor. The write policy
//! is write-back with write-allocate; the paper quotes a single miss-penalty
//! number, so a dirty-line writeback is folded into that same penalty
//! (recorded separately in the statistics).
//!
//! Every instruction fetch and data access of the simulator probes one of
//! these, so the direct-mapped geometry (every cache of the paper's
//! machine) takes its own path: one tag compare against the set's only
//! line, with no way scan and no recency bookkeeping. Associative
//! geometries (`ways > 1`, the design-space knob) keep LRU access stamps
//! beside the lines and replace the least recently used way.

use std::fmt;

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Geometry and timing of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity: lines per set. `1` is direct-mapped (the paper's
    /// machine); higher values use LRU replacement within a set. Timing is
    /// unchanged — associativity only affects which accesses miss.
    pub ways: u32,
    /// Cycles added to an access that misses.
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// The MultiTitan 64 KB data cache: 16-byte lines, direct-mapped,
    /// 14-cycle misses.
    pub const fn multititan_data() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 14,
        }
    }

    /// The MultiTitan 64 KB external instruction cache. The paper quotes
    /// one 14-cycle miss penalty for the board-level caches.
    pub const fn multititan_instr() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 14,
        }
    }

    /// The 2 KB on-chip instruction buffer. A buffer miss refills from the
    /// external instruction cache; the 2-cycle penalty is our documented
    /// substrate assumption (the paper only says results assume no I-buffer
    /// misses in inner loops, which holds for every kernel we run).
    pub const fn multititan_ibuffer() -> CacheConfig {
        CacheConfig {
            size_bytes: 2 * 1024,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 2,
        }
    }

    /// Number of lines.
    pub const fn lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets (lines ÷ ways).
    pub const fn sets(&self) -> u32 {
        self.lines() / self.ways
    }
}

/// Hit/miss statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that evicted a dirty line.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`, or `None` for an untouched cache — a cache
    /// that served no accesses has no ratio, and reporting `1.0` let a
    /// kernel that never touched the dcache claim a perfect hit rate.
    pub fn hit_ratio(&self) -> Option<f64> {
        if self.accesses() == 0 {
            None
        } else {
            Some(self.hits as f64 / self.accesses() as f64)
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ratio = match self.hit_ratio() {
            Some(r) => format!("{:.1}% hit", r * 100.0),
            None => "- hit".to_string(),
        };
        write!(
            f,
            "{} hits / {} misses ({ratio}), {} writebacks",
            self.hits, self.misses, self.writebacks
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
}

/// What a run of accesses given a journal changed, saved before each
/// change so [`Cache::roll_back`] can put the cache back exactly:
/// residency, dirty bits, LRU stamps and statistics.
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheJournal {
    /// `(line index, old line, old LRU stamp)`, oldest first.
    saved: Vec<(u32, Line, u64)>,
    /// Statistics and LRU clock at [`Cache::begin_journal`].
    stats: CacheStats,
    tick: u64,
}

/// Saves line `index` before an access changes it, when the access has a
/// journal.
#[inline(always)]
fn save(journal: &mut Option<&mut CacheJournal>, index: usize, line: Line, stamp: u64) {
    if let Some(j) = journal {
        j.saved.push((index as u32, line, stamp));
    }
}

/// A set-associative write-back cache (timing/residency model); `ways = 1`
/// is the paper's direct-mapped geometry, probed without a way scan and
/// without LRU stamps, which exist only at `ways > 1`.
///
/// ```
/// use mt_mem::{Cache, CacheConfig, AccessKind};
/// let mut c = Cache::new(CacheConfig::multititan_data());
/// assert_eq!(c.access(0x1000, AccessKind::Read), 14); // cold miss
/// assert_eq!(c.access(0x1008, AccessKind::Read), 0);  // same 16-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Lines stored set-major: set `s`'s ways occupy
    /// `lines[s * ways .. (s + 1) * ways]`.
    lines: Vec<Line>,
    /// Access-order stamp of each line, indexed like `lines`, for LRU
    /// victim selection; empty at `ways = 1`, where there is no choice.
    last_used: Vec<u64>,
    stats: CacheStats,
    /// Monotone access counter driving the LRU stamps (`ways > 1` only).
    tick: u64,
    /// `log2(line_bytes)` — the model is on the simulator's per-access hot
    /// path, so index/tag extraction uses shifts and masks, not divisions.
    line_shift: u32,
    /// `log2(sets)` when the set count is a power of two (always, for
    /// the paper's geometries); odd set counts fall back to div/mod.
    index_shift: Option<u32>,
}

impl Cache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (line size not a power of
    /// two, capacity not a whole number of lines, or a way count that does
    /// not divide the line count).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size power of two"
        );
        assert!(
            config.size_bytes.is_multiple_of(config.line_bytes),
            "size multiple of line size"
        );
        assert!(config.ways >= 1, "at least one way");
        assert!(
            config.lines().is_multiple_of(config.ways),
            "ways must divide the line count"
        );
        Cache {
            config,
            lines: vec![Line::default(); config.lines() as usize],
            last_used: if config.ways > 1 {
                vec![0; config.lines() as usize]
            } else {
                Vec::new()
            },
            stats: CacheStats::default(),
            tick: 0,
            line_shift: config.line_bytes.trailing_zeros(),
            index_shift: config
                .sets()
                .is_power_of_two()
                .then(|| config.sets().trailing_zeros()),
        }
    }

    /// Splits an address into (set index, tag).
    #[inline]
    fn index_and_tag(&self, addr: u32) -> (usize, u32) {
        let line_addr = addr >> self.line_shift;
        match self.index_shift {
            Some(s) => ((line_addr & ((1 << s) - 1)) as usize, line_addr >> s),
            None => (
                (line_addr % self.config.sets()) as usize,
                line_addr / self.config.sets(),
            ),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Performs one access and returns the stall penalty in cycles
    /// (0 on hit, `miss_penalty` on miss).
    #[inline]
    pub fn access(&mut self, addr: u32, kind: AccessKind) -> u64 {
        self.access_with(addr, kind, None)
    }

    /// Starts `journal` afresh at the cache's current state.
    pub(crate) fn begin_journal(&self, journal: &mut CacheJournal) {
        journal.saved.clear();
        journal.stats = self.stats;
        journal.tick = self.tick;
    }

    /// Undoes every access given `journal` since
    /// [`Cache::begin_journal`], newest first.
    pub(crate) fn roll_back(&mut self, journal: &mut CacheJournal) {
        for (index, line, stamp) in journal.saved.drain(..).rev() {
            self.lines[index as usize] = line;
            if let Some(s) = self.last_used.get_mut(index as usize) {
                *s = stamp;
            }
        }
        self.stats = journal.stats;
        self.tick = journal.tick;
    }

    /// [`Cache::access`] that first saves into `journal`, when there is
    /// one, whatever it changes, for [`Cache::roll_back`].
    #[inline(always)]
    pub(crate) fn access_with(
        &mut self,
        addr: u32,
        kind: AccessKind,
        mut journal: Option<&mut CacheJournal>,
    ) -> u64 {
        let (set, tag) = self.index_and_tag(addr);
        if self.config.ways > 1 {
            return self.access_set(set, tag, kind, journal);
        }
        let line = &mut self.lines[set];
        if line.valid && line.tag == tag {
            self.stats.hits += 1;
            if kind == AccessKind::Write {
                save(&mut journal, set, *line, 0);
                line.dirty = true;
            }
            return 0;
        }
        self.fill(set, tag, kind, journal)
    }

    /// [`Cache::access`] for an associative geometry: scans the set's
    /// ways and keeps the LRU stamps.
    fn access_set(
        &mut self,
        set: usize,
        tag: u32,
        kind: AccessKind,
        mut journal: Option<&mut CacheJournal>,
    ) -> u64 {
        let ways = self.config.ways as usize;
        let base = set * ways;
        self.tick += 1;
        let tick = self.tick;

        // Hit in any way of the set?
        for (i, (line, last_used)) in self.lines[base..base + ways]
            .iter_mut()
            .zip(&mut self.last_used[base..base + ways])
            .enumerate()
        {
            if line.valid && line.tag == tag {
                save(&mut journal, base + i, *line, *last_used);
                self.stats.hits += 1;
                *last_used = tick;
                if kind == AccessKind::Write {
                    line.dirty = true;
                }
                return 0;
            }
        }

        // Miss: fill an invalid way if one exists, else evict the LRU way.
        let victim = base
            + self.lines[base..base + ways]
                .iter()
                .position(|l| !l.valid)
                .unwrap_or_else(|| {
                    self.last_used[base..base + ways]
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &stamp)| stamp)
                        .map(|(i, _)| i)
                        .expect("a set has at least one way")
                });
        let penalty = self.fill(victim, tag, kind, journal);
        self.last_used[victim] = tick;
        penalty
    }

    /// A miss that evicts line `index`: counts the miss, and a writeback
    /// when the victim is dirty, fills the line with `tag`, and returns
    /// the miss penalty.
    fn fill(
        &mut self,
        index: usize,
        tag: u32,
        kind: AccessKind,
        mut journal: Option<&mut CacheJournal>,
    ) -> u64 {
        self.stats.misses += 1;
        let stamp = self.last_used.get(index).copied().unwrap_or(0);
        let line = &mut self.lines[index];
        save(&mut journal, index, *line, stamp);
        if line.valid && line.dirty {
            self.stats.writebacks += 1;
        }
        *line = Line {
            valid: true,
            dirty: kind == AccessKind::Write,
            tag,
        };
        self.config.miss_penalty
    }

    /// Returns `true` if the line containing `addr` is resident.
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.index_and_tag(addr);
        let ways = self.config.ways as usize;
        let base = set * ways;
        self.lines[base..base + ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Fault-injection hook: flips one bit of a line's state machine —
    /// bit 0 the valid bit, bit 1 the dirty bit, higher bits the tag
    /// (`bit - 2`, modulo 32). Since the caches model timing and residency
    /// only (data lives in main memory), a flipped line perturbs hit/miss
    /// behaviour and writeback counts but never corrupts data — exactly a
    /// parity error in a real tag array.
    pub fn flip_line_state(&mut self, line: usize, bit: u32) {
        let index = line % self.lines.len();
        let line = &mut self.lines[index];
        match bit {
            0 => line.valid = !line.valid,
            1 => line.dirty = !line.dirty,
            b => line.tag ^= 1 << ((b - 2) % 32),
        }
    }

    /// Invalidates every line (cold start) without clearing statistics.
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
        self.last_used.fill(0);
    }

    /// Clears statistics without touching residency (used between the
    /// priming and measured passes of a warm-cache run).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 lines of 16 bytes for easy conflict construction.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 14,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(0, AccessKind::Read), 14);
        assert_eq!(c.access(8, AccessKind::Read), 0);
        assert_eq!(c.access(15, AccessKind::Read), 0);
        assert_eq!(c.access(16, AccessKind::Read), 14, "next line misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn conflict_eviction() {
        let mut c = small();
        // Addresses 0 and 64 map to the same index (4 lines × 16 bytes).
        assert_eq!(c.access(0, AccessKind::Read), 14);
        assert_eq!(c.access(64, AccessKind::Read), 14);
        assert_eq!(c.access(0, AccessKind::Read), 14, "evicted by 64");
        assert!(c.probe(0));
        assert!(!c.probe(64));
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        assert_eq!(c.stats().writebacks, 0);
        c.access(64, AccessKind::Read); // evicts dirty line 0
        assert_eq!(c.stats().writebacks, 1);
        c.access(128, AccessKind::Read); // evicts clean line
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, marks dirty
        c.access(64, AccessKind::Read);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_forgets_residency_but_keeps_stats() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.access(0, AccessKind::Read), 14);
    }

    #[test]
    fn reset_stats_keeps_residency() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.access(0, AccessKind::Read), 0, "still resident");
    }

    #[test]
    fn multititan_geometry() {
        let c = CacheConfig::multititan_data();
        assert_eq!(c.lines(), 4096);
        assert_eq!(c.sets(), 4096, "direct-mapped: one line per set");
        assert_eq!(c.ways, 1);
        assert_eq!(c.miss_penalty, 14);
        let b = CacheConfig::multititan_ibuffer();
        assert_eq!(b.lines(), 128);
    }

    #[test]
    fn two_way_set_holds_conflicting_lines() {
        // Same 64-byte capacity as `small()`, but 2 sets × 2 ways: the
        // direct-mapped conflict pair (0, 64) now coexists in one set.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2,
            miss_penalty: 14,
        });
        assert_eq!(c.access(0, AccessKind::Read), 14);
        assert_eq!(c.access(64, AccessKind::Read), 14);
        assert_eq!(c.access(0, AccessKind::Read), 0, "both resident");
        assert_eq!(c.access(64, AccessKind::Read), 0);
        assert!(c.probe(0) && c.probe(64));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_way() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2,
            miss_penalty: 14,
        });
        // Three tags mapping to set 0 (2 sets of 32 bytes: stride 64).
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        c.access(0, AccessKind::Read); // 64 is now LRU
        c.access(128, AccessKind::Read); // evicts 64
        assert!(c.probe(0), "recently used way survives");
        assert!(!c.probe(64), "LRU way evicted");
        assert!(c.probe(128));
    }

    #[test]
    fn fully_associative_dirty_eviction_writes_back() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32,
            line_bytes: 16,
            ways: 2,
            miss_penalty: 14,
        });
        c.access(0, AccessKind::Write);
        c.access(16, AccessKind::Read);
        c.access(32, AccessKind::Read); // evicts dirty line 0
        assert_eq!(c.stats().writebacks, 1);
        assert!(!c.probe(0));
    }

    #[test]
    fn hit_ratio() {
        let mut c = small();
        assert_eq!(c.stats().hit_ratio(), None, "untouched cache has no ratio");
        assert!(
            c.stats().to_string().contains("(- hit)"),
            "untouched cache displays '-': {}",
            c.stats()
        );
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        assert_eq!(c.stats().hit_ratio(), Some(0.75));
        assert!(c.stats().to_string().contains("(75.0% hit)"));
    }

    #[test]
    fn whole_capacity_streams_without_conflicts() {
        let mut c = Cache::new(CacheConfig::multititan_data());
        for line in 0..4096u32 {
            c.access(line * 16, AccessKind::Read);
        }
        // Second sweep hits everywhere.
        for line in 0..4096u32 {
            assert_eq!(c.access(line * 16, AccessKind::Read), 0);
        }
        assert_eq!(c.stats().misses, 4096);
        assert_eq!(c.stats().hits, 4096);
    }
}
