//! Property tests: the cache against a naive set-major LRU reference
//! model. Both simulator backends share this cache, so the xlate ≡ tick
//! differential cannot see a cache bug; these tests can.

use mt_mem::{AccessKind, Cache, CacheConfig, CacheStats};
use proptest::prelude::*;

/// One line of the reference model: the state `flip_line_state` flips.
#[derive(Debug, Clone, Copy, Default)]
struct ModelLine {
    valid: bool,
    dirty: bool,
    tag: u32,
}

/// Naive reference: lines stored set-major like the cache's, plus each
/// set's ways ordered least recently used first. A fresh or flushed set
/// lists its ways in index order, so untouched ways are evicted lowest
/// index first.
struct Model {
    config: CacheConfig,
    lines: Vec<ModelLine>,
    recency: Vec<Vec<usize>>,
    stats: CacheStats,
}

impl Model {
    fn new(config: CacheConfig) -> Model {
        let mut model = Model {
            config,
            lines: Vec::new(),
            recency: Vec::new(),
            stats: CacheStats::default(),
        };
        model.flush();
        model
    }

    /// (set, tag) of `addr`, by division.
    fn locate(&self, addr: u32) -> (usize, u32) {
        let line = addr / self.config.line_bytes;
        (
            (line % self.config.sets()) as usize,
            line / self.config.sets(),
        )
    }

    /// Index into `lines` of the way of `set` holding `tag`, if resident.
    fn find(&self, set: usize, tag: u32) -> Option<usize> {
        let ways = self.config.ways as usize;
        (0..ways)
            .find(|&w| {
                let l = self.lines[set * ways + w];
                l.valid && l.tag == tag
            })
            .map(|w| set * ways + w)
    }

    fn touch(&mut self, set: usize, way: usize) {
        let order = &mut self.recency[set];
        order.retain(|&w| w != way);
        order.push(way);
    }

    /// One access; returns the penalty.
    fn access(&mut self, addr: u32, kind: AccessKind) -> u64 {
        let (set, tag) = self.locate(addr);
        let ways = self.config.ways as usize;
        let write = kind == AccessKind::Write;
        if let Some(i) = self.find(set, tag) {
            self.stats.hits += 1;
            self.lines[i].dirty |= write;
            self.touch(set, i - set * ways);
            return 0;
        }
        self.stats.misses += 1;
        let way = (0..ways)
            .find(|&w| !self.lines[set * ways + w].valid)
            .unwrap_or(self.recency[set][0]);
        let victim = &mut self.lines[set * ways + way];
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = ModelLine {
            valid: true,
            dirty: write,
            tag,
        };
        self.touch(set, way);
        self.config.miss_penalty
    }

    fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.locate(addr);
        self.find(set, tag).is_some()
    }

    fn flip_line_state(&mut self, line: usize, bit: u32) {
        let len = self.lines.len();
        let l = &mut self.lines[line % len];
        match bit {
            0 => l.valid = !l.valid,
            1 => l.dirty = !l.dirty,
            b => l.tag ^= 1 << ((b - 2) % 32),
        }
    }

    fn flush(&mut self) {
        self.lines = vec![ModelLine::default(); self.config.lines() as usize];
        self.recency = (0..self.config.sets())
            .map(|_| (0..self.config.ways as usize).collect())
            .collect();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_matches_reference_model(
        accesses in prop::collection::vec((0u32..65536, any::<bool>()), 1..400),
        size_pow in 6u32..12,
        line_pow in 2u32..6,
    ) {
        prop_assume!(size_pow > line_pow);
        let config = CacheConfig {
            size_bytes: 1 << size_pow,
            line_bytes: 1 << line_pow,
            ways: 1,
            miss_penalty: 14,
        };
        let mut cache = Cache::new(config);
        let mut model = Model::new(config);

        for &(addr, write) in &accesses {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            prop_assert_eq!(cache.access(addr, kind), model.access(addr, kind), "addr {:#x}", addr);
        }
        prop_assert_eq!(cache.stats(), model.stats);
    }

    #[test]
    fn set_associative_cache_matches_lru_reference(
        accesses in prop::collection::vec((0u32..65536, any::<bool>()), 1..400),
        size_pow in 6u32..12,
        line_pow in 2u32..6,
        way_pow in 0u32..4,
    ) {
        prop_assume!(size_pow > line_pow + way_pow);
        let config = CacheConfig {
            size_bytes: 1 << size_pow,
            line_bytes: 1 << line_pow,
            ways: 1 << way_pow,
            miss_penalty: 14,
        };
        let mut cache = Cache::new(config);
        let mut model = Model::new(config);

        for &(addr, write) in &accesses {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            prop_assert_eq!(cache.access(addr, kind), model.access(addr, kind), "addr {:#x}", addr);
            prop_assert_eq!(cache.probe(addr), true, "just-accessed line resident");
        }
        prop_assert_eq!(cache.stats(), model.stats);
    }

    /// Small geometries driven over a few conflicting lines per set, with
    /// flushes, statistics resets and fault-injection flips interleaved:
    /// after every step the penalty, residency of every line in play, and
    /// the statistics equal the model's.
    #[test]
    fn cache_matches_model_under_flushes_resets_and_flips(
        way_pow in 0u32..3,
        sets in 1u32..=8,
        line_pow in 4u32..6,
        steps in prop::collection::vec(
            (0u32..16, 0u32..1024, any::<bool>(), 0usize..64, 0u32..40),
            1..300,
        ),
    ) {
        let ways = 1 << way_pow;
        let line_bytes = 1 << line_pow;
        let config = CacheConfig {
            size_bytes: sets * ways * line_bytes,
            line_bytes,
            ways,
            miss_penalty: 14,
        };
        let mut cache = Cache::new(config);
        let mut model = Model::new(config);
        // Two more tags per set than it has ways, so every set evicts.
        let in_play = sets * (ways + 2);

        for (i, &(op, pick, write, line, bit)) in steps.iter().enumerate() {
            match op {
                0 => {
                    cache.flush();
                    model.flush();
                }
                1 => {
                    cache.reset_stats();
                    model.stats = CacheStats::default();
                }
                2 | 3 => {
                    cache.flip_line_state(line, bit);
                    model.flip_line_state(line, bit);
                }
                _ => {
                    let addr = (pick % in_play) * line_bytes + pick % line_bytes;
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    prop_assert_eq!(
                        cache.access(addr, kind),
                        model.access(addr, kind),
                        "step {} {:?} {:#x}", i, kind, addr
                    );
                }
            }
            for l in 0..in_play {
                let addr = l * line_bytes;
                prop_assert_eq!(cache.probe(addr), model.probe(addr), "step {} line {:#x}", i, addr);
            }
            prop_assert_eq!(cache.stats(), model.stats, "step {}", i);
        }
    }

    #[test]
    fn probe_agrees_with_next_access(
        accesses in prop::collection::vec(0u32..4096, 1..100),
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 14,
        });
        for &addr in &accesses {
            let resident = cache.probe(addr);
            let penalty = cache.access(addr, AccessKind::Read);
            prop_assert_eq!(resident, penalty == 0);
        }
    }

    #[test]
    fn stats_are_conserved(
        accesses in prop::collection::vec((0u32..8192, any::<bool>()), 0..200),
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 16,
            ways: 1,
            miss_penalty: 14,
        });
        for &(addr, write) in &accesses {
            cache.access(addr, if write { AccessKind::Write } else { AccessKind::Read });
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses(), accesses.len() as u64);
        prop_assert!(s.writebacks <= s.misses);
    }
}
