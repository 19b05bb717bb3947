//! The multi-level memory hierarchy: L1 → L2 → LLC → DRAM.

use crate::cache::{AccessKind, Cache, Probe};
use crate::config::HierarchyConfig;
use crate::dram::Dram;

/// Which level ultimately served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ServedBy {
    L1,
    L2,
    Llc,
    Dram,
}

/// Timing outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available to the core.
    pub ready_at: u64,
    /// Level that served the access.
    pub served_by: ServedBy,
}

/// A complete cache hierarchy plus DRAM, owned by one clock domain.
///
/// # Example
///
/// ```
/// use meek_mem::{AccessKind, HierarchyConfig, MemHierarchy, ServedBy};
///
/// let mut mem = MemHierarchy::new(HierarchyConfig::big_core());
/// let cold = mem.data_access(0x8000_0000, AccessKind::Read, 0);
/// assert_eq!(cold.served_by, ServedBy::Dram);
/// let warm = mem.data_access(0x8000_0000, AccessKind::Read, cold.ready_at + 1);
/// assert_eq!(warm.served_by, ServedBy::L1);
/// assert!(warm.ready_at - cold.ready_at - 1 < cold.ready_at);
/// ```
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    dram: Dram,
}

impl MemHierarchy {
    /// Builds a cold hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemHierarchy {
        MemHierarchy {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
            dram: Dram::new(cfg.dram_latency, cfg.dram_max_requests, cfg.dram_issue_interval),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Fetches an instruction line through L1I.
    pub fn inst_fetch(&mut self, addr: u64, now: u64) -> AccessOutcome {
        self.access_through_l1(addr, now, /* is_inst */ true)
    }

    /// Performs a data access through L1D, with next-line prefetch on a
    /// miss when configured.
    pub fn data_access(&mut self, addr: u64, _kind: AccessKind, now: u64) -> AccessOutcome {
        // Stream detection: prefetch when the preceding line is resident
        // (a sequential walk) and the next is not — and keep prefetching
        // on hits so the stream stays ahead (tagged-prefetch behaviour).
        // Random misses do not pollute the MSHRs with useless fills.
        let stream = self.cfg.prefetch_next_line
            && addr >= 64
            && self.l1d.contains(addr - 64)
            && !self.l1d.contains((addr & !63) + 64);
        let outcome = self.access_through_l1(addr, now, /* is_inst */ false);
        if stream {
            // Fire-and-forget fill of the next line; its latency is
            // hidden behind the in-flight demand traffic.
            let next = (addr & !63) + 64;
            let _ = self.access_through_l1(next, now, false);
        }
        outcome
    }

    fn access_through_l1(&mut self, addr: u64, now: u64, is_inst: bool) -> AccessOutcome {
        let l1 = if is_inst { &mut self.l1i } else { &mut self.l1d };
        let l1_lat = l1.hit_latency();
        match l1.probe(addr, now) {
            Probe::Hit => AccessOutcome { ready_at: now + l1_lat, served_by: ServedBy::L1 },
            Probe::Miss { issue_at, merged } => {
                if merged {
                    return AccessOutcome { ready_at: issue_at, served_by: ServedBy::L2 };
                }
                let (resolve, served_by) = self.lower_levels(addr, issue_at + l1_lat);
                let l1 = if is_inst { &mut self.l1i } else { &mut self.l1d };
                l1.fill(addr, resolve);
                AccessOutcome { ready_at: resolve, served_by }
            }
        }
    }

    fn lower_levels(&mut self, addr: u64, now: u64) -> (u64, ServedBy) {
        let l2_lat = self.l2.hit_latency();
        match self.l2.probe(addr, now) {
            Probe::Hit => (now + l2_lat, ServedBy::L2),
            Probe::Miss { issue_at, merged } => {
                if merged {
                    return (issue_at, ServedBy::Llc);
                }
                let t = issue_at + l2_lat;
                let llc_lat = self.llc.hit_latency();
                let (resolve, served_by) = match self.llc.probe(addr, t) {
                    Probe::Hit => (t + llc_lat, ServedBy::Llc),
                    Probe::Miss { issue_at, merged } => {
                        if merged {
                            (issue_at, ServedBy::Dram)
                        } else {
                            let done = self.dram.access(issue_at + llc_lat);
                            self.llc.fill(addr, done);
                            (done, ServedBy::Dram)
                        }
                    }
                };
                self.l2.fill(addr, resolve);
                (resolve, served_by)
            }
        }
    }

    /// Bytes of tag state the four cache levels hold: each level's per-set
    /// slot index plus the sets it has materialised. It follows the access
    /// stream only, so it is a machine-independent work counter.
    pub fn state_bytes(&self) -> u64 {
        [&self.l1i, &self.l1d, &self.l2, &self.llc].iter().map(|c| c.state_bytes()).sum()
    }

    /// Total DRAM requests issued.
    pub fn dram_requests(&self) -> u64 {
        self.dram.requests
    }

    /// Invalidates the private L1s (leaves shared levels warm) — used on
    /// context switches of the little cores.
    pub fn flush_l1(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn small() -> MemHierarchy {
        MemHierarchy::new(HierarchyConfig {
            l1i: CacheConfig { size: 256, ways: 2, line: 64, mshrs: 2, hit_latency: 1 },
            l1d: CacheConfig { size: 256, ways: 2, line: 64, mshrs: 2, hit_latency: 2 },
            l2: CacheConfig { size: 1024, ways: 4, line: 64, mshrs: 4, hit_latency: 10 },
            llc: CacheConfig { size: 4096, ways: 4, line: 64, mshrs: 4, hit_latency: 30 },
            dram_latency: 100,
            dram_max_requests: 4,
            dram_issue_interval: 1,
            prefetch_next_line: false,
        })
    }

    #[test]
    fn cold_access_reaches_dram() {
        let mut m = small();
        let o = m.data_access(0x1000, AccessKind::Read, 0);
        assert_eq!(o.served_by, ServedBy::Dram);
        // 2 (L1) + 10 (L2) + 30 (LLC) + >=100 (DRAM, incl. issue interval)
        assert!(o.ready_at >= 142, "ready_at = {}", o.ready_at);
        assert_eq!(m.dram_requests(), 1);
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut m = small();
        let cold = m.data_access(0x1000, AccessKind::Read, 0);
        let warm = m.data_access(0x1000, AccessKind::Read, cold.ready_at);
        assert_eq!(warm.served_by, ServedBy::L1);
        assert_eq!(warm.ready_at, cold.ready_at + 2);
    }

    #[test]
    fn l1_evicted_line_hits_l2() {
        let mut m = small();
        // Fill L1 set 0 beyond capacity: L1 has 2 sets, lines 0x000/0x080/0x100 map to set 0.
        for (i, a) in [0x000u64, 0x080, 0x100].iter().enumerate() {
            let t = 1000 * (i as u64 + 1);
            m.data_access(*a, AccessKind::Read, t);
        }
        // 0x000 was evicted from L1 but lives in L2.
        let o = m.data_access(0x000, AccessKind::Read, 10_000);
        assert_eq!(o.served_by, ServedBy::L2);
    }

    #[test]
    fn inst_and_data_are_separate_l1s() {
        let mut m = small();
        let d = m.data_access(0x2000, AccessKind::Read, 0);
        // Same line via the I-side must miss L1I (but hit a lower level).
        let i = m.inst_fetch(0x2000, d.ready_at);
        assert_ne!(i.served_by, ServedBy::L1);
    }

    #[test]
    fn flush_l1_keeps_l2_warm() {
        let mut m = small();
        let cold = m.data_access(0x3000, AccessKind::Read, 0);
        m.flush_l1();
        let o = m.data_access(0x3000, AccessKind::Read, cold.ready_at + 10);
        assert_eq!(o.served_by, ServedBy::L2);
    }

    #[test]
    fn doc_example_shape() {
        let mut m = MemHierarchy::new(HierarchyConfig::big_core());
        let cold = m.data_access(0x8000_0000, AccessKind::Read, 0);
        assert_eq!(cold.served_by, ServedBy::Dram);
        let warm = m.data_access(0x8000_0000, AccessKind::Read, cold.ready_at + 1);
        assert_eq!(warm.served_by, ServedBy::L1);
    }
}
