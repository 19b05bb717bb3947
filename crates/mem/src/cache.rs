//! A timing-only set-associative cache with LRU replacement and an MSHR
//! file bounding outstanding misses.
//!
//! The cache tracks tags, not data: the functional value of every address
//! lives in the simulator's `SparseMemory`. An access therefore answers
//! only "hit or miss, and when can the core use the result".

use crate::config::CacheConfig;
use std::ops::Range;

/// Whether an access reads or writes (write-allocate, write-back policy;
/// writes that hit are not distinguished from reads in timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read (load or instruction fetch).
    Read,
    /// Write (store).
    Write,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Cycles an access was delayed because every MSHR was busy.
    pub mshr_stall_cycles: u64,
}

/// One way of a materialised set. LRU stamps start at 1, so `lru == 0`
/// marks a way not filled since its set's block was made.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    lru: u64,
}

/// Result of probing one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    Hit,
    /// Miss; the access must go to the next level. Contains the cycle at
    /// which an MSHR became available (≥ the request time when the MSHR
    /// file was full, or when a same-line miss will be resolved).
    Miss {
        issue_at: u64,
        merged: bool,
    },
}

/// A timing-only set-associative cache.
///
/// Tag state is materialised per set on first fill: `slots` maps each set
/// to its `ways`-wide block in `lines` (0 = never filled), so a cache
/// costs the sets it has touched, not its capacity.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u32,
    line_bits: u32,
    /// Per set: 1 + the index of its block in `lines`, or 0 if unfilled.
    slots: Vec<u32>,
    /// The materialised sets' ways, one block per set in first-fill order.
    lines: Vec<Line>,
    /// Outstanding misses: (line address, resolve time).
    mshrs: Vec<(u64, u64)>,
    lru_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            line_bits: cfg.line.trailing_zeros(),
            slots: vec![0; sets as usize],
            lines: Vec::new(),
            mshrs: Vec::new(),
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Hit latency of this level.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Bytes of tag state held: the slot index plus the materialised sets.
    pub(crate) fn state_bytes(&self) -> u64 {
        (self.slots.len() * size_of::<u32>() + self.lines.len() * size_of::<Line>()) as u64
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr % self.sets as u64) as usize
    }

    /// The range of `lines` holding the set of `line_addr`, if filled.
    fn block(&self, line_addr: u64) -> Option<Range<usize>> {
        let slot = self.slots[self.set_of(line_addr)] as usize;
        let w = self.cfg.ways as usize;
        (slot != 0).then(|| (slot - 1) * w..slot * w)
    }

    /// Probes the tag array at `now`; on a hit the line's LRU stamp is
    /// refreshed. On a miss an MSHR is allocated (waiting for a free one
    /// if necessary) and the caller sends the access down a level; it must
    /// then call [`Cache::fill`] with the resolve time.
    pub(crate) fn probe(&mut self, addr: u64, now: u64) -> Probe {
        let la = self.line_addr(addr);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        if let Some(block) = self.block(la) {
            if let Some(line) = self.lines[block].iter_mut().find(|l| l.lru != 0 && l.tag == la) {
                line.lru = clock;
                self.stats.hits += 1;
                return Probe::Hit;
            }
        }
        self.stats.misses += 1;
        // Retire resolved MSHRs.
        self.mshrs.retain(|&(_, t)| t > now);
        // Merge with an outstanding miss to the same line.
        if let Some(&(_, t)) = self.mshrs.iter().find(|&&(l, _)| l == la) {
            return Probe::Miss { issue_at: t, merged: true };
        }
        let issue_at = if (self.mshrs.len() as u32) < self.cfg.mshrs {
            now
        } else {
            // All MSHRs busy: wait for the earliest to resolve.
            let earliest = self.mshrs.iter().map(|&(_, t)| t).min().unwrap_or(now);
            self.stats.mshr_stall_cycles += earliest.saturating_sub(now);
            self.mshrs.retain(|&(_, t)| t > earliest);
            earliest
        };
        Probe::Miss { issue_at, merged: false }
    }

    /// Registers the resolve time of a miss issued by [`Cache::probe`] and
    /// installs the line (LRU victim) so subsequent probes hit.
    pub(crate) fn fill(&mut self, addr: u64, resolve_at: u64) {
        let la = self.line_addr(addr);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        self.mshrs.push((la, resolve_at));
        let block = match self.block(la) {
            Some(block) => block,
            None => {
                // First fill of this set: append a block of invalid ways.
                // A set has at most one block, so the count fits a u32.
                let w = self.cfg.ways as usize;
                let start = self.lines.len();
                self.lines.resize(start + w, Line::default());
                let set = self.set_of(la);
                self.slots[set] = (self.lines.len() / w) as u32;
                start..start + w
            }
        };
        // Reuse the first invalid way (lru 0) if present, else evict the
        // LRU way: `min_by_key` returns the first of equal minima.
        let victim =
            self.lines[block].iter_mut().min_by_key(|l| l.lru).expect("cache has at least one way");
        *victim = Line { tag: la, lru: clock };
    }

    /// Invalidates every line (used when the MSU resets a little core).
    pub fn flush(&mut self) {
        self.slots.fill(0);
        self.lines.clear();
        self.mshrs.clear();
    }

    /// True if the address is resident. The L1D stream prefetcher calls
    /// this up to twice on every data access.
    pub fn contains(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        self.block(la).is_some_and(|b| self.lines[b].iter().any(|l| l.lru != 0 && l.tag == la))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn tiny_config() -> CacheConfig {
        // 2 sets x 2 ways x 64B lines = 256 B.
        CacheConfig { size: 256, ways: 2, line: 64, mshrs: 2, hit_latency: 1 }
    }

    fn tiny() -> Cache {
        Cache::new(tiny_config())
    }

    /// The dense tag array `Cache` replaced, kept as the reference model
    /// of its replacement order: every line exists from construction and
    /// carries an explicit valid bit.
    struct DenseCache {
        cfg: CacheConfig,
        sets: u32,
        line_bits: u32,
        lines: Vec<(u64, bool, u64)>,
        mshrs: Vec<(u64, u64)>,
        lru_clock: u64,
        stats: CacheStats,
    }

    impl DenseCache {
        fn new(cfg: CacheConfig) -> DenseCache {
            let sets = cfg.sets();
            DenseCache {
                cfg,
                sets,
                line_bits: cfg.line.trailing_zeros(),
                lines: vec![(0, false, 0); (sets * cfg.ways) as usize],
                mshrs: Vec::new(),
                lru_clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_slice(&mut self, la: u64) -> &mut [(u64, bool, u64)] {
            let w = self.cfg.ways as usize;
            let set = (la % self.sets as u64) as usize;
            &mut self.lines[set * w..(set + 1) * w]
        }

        fn probe(&mut self, addr: u64, now: u64) -> Probe {
            let la = addr >> self.line_bits;
            self.lru_clock += 1;
            let clock = self.lru_clock;
            for (tag, valid, lru) in self.set_slice(la) {
                if *valid && *tag == la {
                    *lru = clock;
                    self.stats.hits += 1;
                    return Probe::Hit;
                }
            }
            self.stats.misses += 1;
            self.mshrs.retain(|&(_, t)| t > now);
            if let Some(&(_, t)) = self.mshrs.iter().find(|&&(l, _)| l == la) {
                return Probe::Miss { issue_at: t, merged: true };
            }
            let issue_at = if (self.mshrs.len() as u32) < self.cfg.mshrs {
                now
            } else {
                let earliest = self.mshrs.iter().map(|&(_, t)| t).min().unwrap_or(now);
                self.stats.mshr_stall_cycles += earliest.saturating_sub(now);
                self.mshrs.retain(|&(_, t)| t > earliest);
                earliest
            };
            Probe::Miss { issue_at, merged: false }
        }

        /// Installs the line like `Cache::fill`; true if it evicted a
        /// valid line.
        fn fill(&mut self, addr: u64, resolve_at: u64) -> bool {
            let la = addr >> self.line_bits;
            self.lru_clock += 1;
            let clock = self.lru_clock;
            self.mshrs.push((la, resolve_at));
            let victim = self
                .set_slice(la)
                .iter_mut()
                .min_by_key(|&&mut (_, valid, lru)| if valid { lru + 1 } else { 0 })
                .expect("cache has at least one way");
            let evicted = victim.1;
            *victim = (la, true, clock);
            evicted
        }

        fn flush(&mut self) {
            for line in &mut self.lines {
                line.1 = false;
            }
            self.mshrs.clear();
        }

        fn contains(&self, addr: u64) -> bool {
            let la = addr >> self.line_bits;
            let w = self.cfg.ways as usize;
            let set = (la % self.sets as u64) as usize;
            self.lines[set * w..(set + 1) * w].iter().any(|&(tag, valid, _)| valid && tag == la)
        }
    }

    /// SplitMix64: a seeded stream with no dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives `Cache` and `DenseCache` with one seeded stream of probes
    /// (each miss filled, as the hierarchy does), bare fills and flushes
    /// over `ways + 2` lines per set, so sets overflow and evict. After
    /// every step both must agree on the probe result, the statistics
    /// and the residency of every line in the stream.
    fn agrees_with_dense_reference(cfg: CacheConfig, seed: u64, steps: usize) {
        let mut sparse = Cache::new(cfg);
        let mut dense = DenseCache::new(cfg);
        let line = u64::from(cfg.line);
        let lines = (u64::from(cfg.ways) + 2) * u64::from(cfg.sets());
        let mut rng = seed;
        let mut now = 0u64;
        let mut evictions = 0u64;
        for step in 0..steps {
            now += next(&mut rng) % 4;
            let addr = (next(&mut rng) % lines) * line + next(&mut rng) % line;
            let latency = 1 + next(&mut rng) % 40;
            match next(&mut rng) % 100 {
                0..=59 => {
                    let p = sparse.probe(addr, now);
                    assert_eq!(p, dense.probe(addr, now), "probe at step {step}");
                    if let Probe::Miss { issue_at, merged: false } = p {
                        sparse.fill(addr, issue_at + latency);
                        evictions += u64::from(dense.fill(addr, issue_at + latency));
                    }
                }
                60..=97 => {
                    sparse.fill(addr, now + latency);
                    evictions += u64::from(dense.fill(addr, now + latency));
                }
                _ => {
                    sparse.flush();
                    dense.flush();
                }
            }
            assert_eq!(sparse.stats(), dense.stats, "stats at step {step}");
            for a in (0..lines).map(|l| l * line) {
                assert_eq!(sparse.contains(a), dense.contains(a), "{a:#x} at step {step}");
            }
        }
        assert!(dense.stats.hits > 0 && evictions > 0, "the stream must hit and evict");
    }

    #[test]
    fn sparse_tags_match_the_dense_reference_on_the_toy_geometry() {
        for seed in 0..8 {
            agrees_with_dense_reference(tiny_config(), seed, 4_000);
        }
    }

    #[test]
    fn sparse_tags_match_the_dense_reference_on_the_little_core_l1d() {
        for seed in 0..4 {
            agrees_with_dense_reference(HierarchyConfig::little_core().l1d, seed, 5_000);
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(c.probe(0x100, 0), Probe::Miss { issue_at: 0, merged: false }));
        c.fill(0x100, 10);
        assert_eq!(c.probe(0x100, 11), Probe::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_hits() {
        let mut c = tiny();
        c.probe(0x100, 0);
        c.fill(0x100, 5);
        // Any address on the same 64 B line hits.
        assert_eq!(c.probe(0x13F, 6), Probe::Hit);
        assert!(matches!(c.probe(0x140, 6), Probe::Miss { .. }));
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Set 0 holds line addresses with (la % 2 == 0): 0x000, 0x080, 0x100 ...
        c.probe(0x000, 0);
        c.fill(0x000, 1);
        c.probe(0x080, 2);
        c.fill(0x080, 3);
        // Touch 0x000 so 0x080 becomes LRU.
        assert_eq!(c.probe(0x000, 4), Probe::Hit);
        c.probe(0x100, 5);
        c.fill(0x100, 6);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080), "LRU way should have been evicted");
        assert!(c.contains(0x100));
    }

    #[test]
    fn mshr_merging() {
        let mut c = tiny();
        assert!(matches!(c.probe(0x200, 0), Probe::Miss { merged: false, .. }));
        c.fill(0x200, 50);
        // A different word on the same missing line merges with the MSHR.
        // (The line is installed at fill, so probe again on a *different*
        // line mapping to the same set to check non-merge behaviour.)
        let p = c.probe(0x280, 1);
        assert!(matches!(p, Probe::Miss { merged: false, .. }));
    }

    #[test]
    fn mshr_full_delays_issue() {
        let mut c =
            Cache::new(CacheConfig { size: 256, ways: 2, line: 64, mshrs: 1, hit_latency: 1 });
        c.probe(0x000, 0);
        c.fill(0x000, 100);
        // Second miss while the only MSHR is busy: issue waits until 100.
        match c.probe(0x040, 1) {
            Probe::Miss { issue_at, merged } => {
                assert_eq!(issue_at, 100);
                assert!(!merged);
            }
            p => panic!("expected miss, got {p:?}"),
        }
        assert!(c.stats().mshr_stall_cycles >= 99);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.probe(0x100, 0);
        c.fill(0x100, 1);
        assert!(c.contains(0x100));
        c.flush();
        assert!(!c.contains(0x100));
        assert!(matches!(c.probe(0x100, 10), Probe::Miss { .. }));
    }
}
