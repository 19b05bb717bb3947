//! Fault injection into forwarded data (paper §V-B).
//!
//! Faults are injected "in the forwarded data from the F2 connected to
//! the big core, e.g., data and address of memory operations and
//! architectural register data, simulating the hardware faults without
//! disrupting the big core's normal execution". Exactly that: the
//! injector flips one bit of a packet as the DEU hands it to the fabric;
//! the big core's architectural execution is untouched, and the checker
//! must notice the divergence.
//!
//! A fault resolves on the verdicts of its packet's *consumers*: the
//! segments whose checkers read the flipped bit, taken from the packet's
//! destination mask and the checker assignment when it enters the
//! fabric. A run-time record is read by its own segment's checker; a
//! checkpoint is the ERCP of its segment and the SRCP of the next, for
//! whichever of the two checkers the mask names. The first failing
//! consumer verdict is the fault's detection, all consumers passing is
//! its mask, and a consumer verdict still missing when the run drains
//! leaves it pending. Verdicts of other segments never touch it.

use crate::segments::SegmentManager;
use meek_fabric::{Packet, Payload};
use meek_isa::state::RegCheckpoint;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Where to flip a bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Address of a forwarded memory record.
    MemAddr,
    /// Data of a forwarded memory record.
    MemData,
    /// A register value inside a forwarded checkpoint.
    RcpRegister,
    /// A data bit in the LSQ window between cache and DEU — the span
    /// footnote 2 protects with carried cache parity. The flip strikes
    /// *after* the parity bits were copied, so the DEU's forwarding-time
    /// double-check catches it immediately and re-reads the clean data:
    /// always detected, with ~one-cycle latency, without failing any
    /// segment.
    LsqParity,
    /// A data bit of a cache read (load result) as forwarded to the
    /// checker. Unlike [`FaultSite::MemData`] this only strikes load
    /// records: the corrupted value feeds the replay's dependent
    /// computation and surfaces at a downstream store or the ERCP.
    CacheData,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::MemAddr,
        FaultSite::MemData,
        FaultSite::RcpRegister,
        FaultSite::LsqParity,
        FaultSite::CacheData,
    ];

    /// Inverse of [`FaultSite::name`] (the fuzz corpus `.seed` files
    /// name sites this way).
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == name)
    }

    /// Stable lower-case name — the column/field value every output
    /// (campaign CSV/JSONL, the sim event stream) writes.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::MemAddr => "mem_addr",
            FaultSite::MemData => "mem_data",
            FaultSite::RcpRegister => "rcp_register",
            FaultSite::LsqParity => "lsq_parity",
            FaultSite::CacheData => "cache_data",
        }
    }
}

/// A pending fault: armed at a commit index, fires on the next matching
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Commit index (instructions retired) at which the fault arms.
    pub arm_at_commit: u64,
    /// Which field to corrupt.
    pub site: FaultSite,
    /// Bit to flip (masked to the field width).
    pub bit: u32,
}

/// The register index a [`FaultSite::RcpRegister`] fault with `bit`
/// corrupts — a pseudo-random live register in `x1..x31`. Exposed so
/// external oracles (the difftest coverage prover) can reproduce the
/// exact architectural effect of an injected checkpoint fault.
pub fn rcp_register_index(bit: u32) -> usize {
    (bit as usize * 7 + 3) % 31 + 1
}

/// The clean (pre-flip) value of the packet field a fault corrupted,
/// captured at injection time. A masked verdict alone says "the
/// candidate segments verified clean"; this record is what lets an
/// external oracle *prove* the mask benign by re-running the golden
/// program with and without the corruption applied.
#[derive(Debug, Clone, PartialEq)]
pub enum CorruptedField {
    /// A run-time memory record, as forwarded before the flip.
    Mem {
        /// Effective address of the logged access.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Load result / store payload before corruption.
        data: u64,
        /// `true` for stores.
        is_store: bool,
    },
    /// A checkpoint register: the flipped `x` index (see
    /// [`rcp_register_index`]) and the whole clean checkpoint (boxed:
    /// a checkpoint is 65 words, far larger than the memory variant).
    Register {
        /// Index into `RegCheckpoint::x`.
        index: usize,
        /// The checkpoint as it was before the flip.
        clean_cp: Box<RegCheckpoint>,
    },
}

/// An injected fault whose consumers all verified clean: every checker
/// that read the flipped bit passed its segment, so the bit was
/// (apparently) architecturally dead. Distinguished from *pending*
/// faults (a consumer verdict still missing at drain) in [`RunReport`]:
/// a masked fault has positive evidence of cleanliness, a pending fault
/// has none.
///
/// [`RunReport`]: crate::report::RunReport
#[derive(Debug, Clone, PartialEq)]
pub struct MaskRecord {
    /// The fault as specified.
    pub spec: FaultSpec,
    /// Big-core cycle of injection.
    pub injected_cycle: u64,
    /// Segment whose forwarded data was corrupted.
    pub seg: u32,
    /// Commit count when the fault armed. The corrupted packet is the
    /// first matching-site packet extracted after this commit index —
    /// the anchor an external golden re-run needs to locate the fault.
    pub armed_at_commit: u64,
    /// Clean value of the corrupted field.
    pub field: CorruptedField,
    /// First commit index of the detection surface the checkers
    /// actually had for this corruption: the fault segment's start for
    /// memory-record faults, the *successor* segment's start (= the
    /// boundary the corrupted checkpoint was cut at) for checkpoint
    /// faults, which only their SRCP consumer can mask (a flipped ERCP
    /// register always fails the compare). Segment boundaries re-seed
    /// every checker from the big core's clean shadow, so nothing
    /// outside this range could ever have exposed the flip — an external
    /// prover replaying past it over-convicts.
    pub surface_start: u64,
    /// One-past-the-end commit index of the detection surface. `None`
    /// when the closing boundary never occurred (the run drained inside
    /// the surface segment): the surface extends to the end of the run.
    pub surface_end: Option<u64>,
}

/// Outcome of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRecord {
    /// Where the bit was flipped.
    pub site: FaultSite,
    /// Big-core cycle of injection.
    pub injected_cycle: u64,
    /// Big-core cycle of detection (checker mismatch report).
    pub detected_cycle: u64,
    /// Detection latency in nanoseconds.
    pub latency_ns: f64,
    /// The consumer segment whose failing verdict detected the fault
    /// (for a parity-window detection, the segment being extracted).
    pub seg: u32,
    /// Big-core cycles from this detection to the completed recovery
    /// (rollback + re-execution + clean re-verification) it triggered.
    /// `None` in detect-only runs — and for parity-window detections,
    /// which are corrected in place and need no rollback.
    pub recovery_cycles: Option<u64>,
}

/// The paper's random fault distribution (§V-B): sites drawn uniformly
/// from {memory address, memory data, checkpoint register}, a random
/// bit, arm points spread evenly over `arm_span` committed
/// instructions. The single source of the distribution — serial runs
/// (`SimBuilder::faults`) and the sharded campaign engine both sample
/// from here, so the figures and campaign records measure the same
/// thing.
pub fn random_fault_specs(n: usize, arm_span: u64, rng: &mut SmallRng) -> Vec<FaultSpec> {
    let mut faults = Vec::with_capacity(n);
    for i in 0..n {
        // `ALL[..3]` is memory address, memory data, checkpoint register.
        let site = FaultSite::ALL[..3][rng.gen_range(0..3)];
        let arm_at = (i as u64 + 1) * arm_span / (n as u64 + 1);
        faults.push(FaultSpec { arm_at_commit: arm_at, site, bit: rng.gen_range(0..64) });
    }
    faults
}

#[derive(Debug, Clone)]
struct InFlight {
    spec: FaultSpec,
    injected: u64,
    fseg: u32,
    armed_at_commit: u64,
    field: CorruptedField,
    /// Consumers of the corrupted packet whose verdict is still owed.
    awaiting: Vec<u32>,
}

impl InFlight {
    fn mask_record(&self, surface: (u64, Option<u64>)) -> MaskRecord {
        MaskRecord {
            spec: self.spec,
            injected_cycle: self.injected,
            seg: self.fseg,
            armed_at_commit: self.armed_at_commit,
            field: self.field.clone(),
            surface_start: surface.0,
            surface_end: surface.1,
        }
    }
}

/// Injector state machine: Idle -> Armed -> InFlight -> (recorded).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    queue: Vec<FaultSpec>,
    armed: Option<(FaultSpec, u64)>,
    in_flight: Option<InFlight>,
    /// Faults ever queued; a rollback's re-queue is not a new fault.
    queued: usize,
    /// Completed detections.
    pub detections: Vec<DetectionRecord>,
    /// Faults whose consumers all verified *clean*: the flip landed on
    /// architecturally dead data. The checker never reported
    /// them, so every entry must be provable benign — the difftest
    /// coverage oracle re-runs the golden program with the recorded
    /// corruption and fails loudly if behaviour diverges.
    pub masked: Vec<MaskRecord>,
    /// When `true`, armed faults do not fire: the recovery subsystem's
    /// golden escalation re-executes a repeatedly-failing region with
    /// injection suppressed, modelling a fully-trusted re-run.
    pub suppressed: bool,
    /// `(site, segment, cycle)` of every corruption that actually fired
    /// since the last [`FaultInjector::take_injections`] — drained each
    /// cycle by the system to emit typed `FaultInjected` events.
    injection_log: Vec<(FaultSite, u32, u64)>,
    /// Commit index at which each segment's closing boundary fell,
    /// reported by the DEU ([`FaultInjector::on_boundary`]). Mask
    /// records carry the bounds so external provers replay exactly the
    /// detection surface the checkers had. Entries of rolled-back
    /// segments are dropped and re-recorded during re-execution.
    seg_end: BTreeMap<u32, u64>,
}

impl FaultInjector {
    /// Creates an injector with a queue of faults (sorted by arm time).
    pub fn new(faults: Vec<FaultSpec>) -> FaultInjector {
        let mut inj = FaultInjector {
            queue: Vec::new(),
            armed: None,
            in_flight: None,
            queued: 0,
            detections: Vec::new(),
            masked: Vec::new(),
            suppressed: false,
            injection_log: Vec::new(),
            seg_end: BTreeMap::new(),
        };
        inj.enqueue(faults);
        inj
    }

    /// Adds `faults` to the queue as new faults.
    pub(crate) fn enqueue(&mut self, faults: Vec<FaultSpec>) {
        self.queued += faults.len();
        self.requeue(faults);
    }

    /// Puts `faults` back in the queue, kept sorted so `pop` yields the
    /// earliest arm point.
    fn requeue(&mut self, faults: Vec<FaultSpec>) {
        self.queue.extend(faults);
        self.queue.sort_by_key(|f| f.arm_at_commit);
        self.queue.reverse();
    }

    /// Faults ever queued. Each ends exactly once: detected, masked, or
    /// [unresolved](FaultInjector::unresolved).
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// Whether no fault was ever queued: nothing waits to arm, nothing
    /// fired and nothing resolved. Such an injector's only state that
    /// depends on the run is the segment boundaries, which a faulty run
    /// records identically until its first fault arms.
    pub(crate) fn is_fault_free(&self) -> bool {
        self.queued == 0
    }

    /// Records that segment `seg`'s closing boundary fell at commit
    /// index `end_commit` — called by the DEU at every RCP (and at the
    /// final checkpoint). The bounds flow into [`MaskRecord`]s so the
    /// coverage prover replays only the segment(s) the checkers saw.
    pub fn on_boundary(&mut self, seg: u32, end_commit: u64) {
        self.seg_end.insert(seg, end_commit);
    }

    /// The detection-surface commit bounds for a fault injected into
    /// segment `fseg`: the fault segment itself for run-time records,
    /// the successor segment for checkpoint faults (the corrupted
    /// RcpEnd seeds `fseg + 1`'s replay as its SRCP).
    fn surface_of(&self, site: FaultSite, fseg: u32) -> (u64, Option<u64>) {
        match site {
            FaultSite::RcpRegister => (
                self.seg_end.get(&fseg).copied().unwrap_or(0),
                self.seg_end.get(&(fseg + 1)).copied(),
            ),
            _ => (
                fseg.checked_sub(1).and_then(|p| self.seg_end.get(&p).copied()).unwrap_or(0),
                self.seg_end.get(&fseg).copied(),
            ),
        }
    }

    /// Whether a fault is currently in flight (awaiting a consumer's
    /// verdict).
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Faults remaining in the queue (not yet armed).
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }

    /// Faults with no outcome yet: still queued, armed but not fired,
    /// or in flight awaiting a consumer's verdict. At the end of a run
    /// this is what the campaign reports as *pending* — typically a
    /// fault that never fired, or a tail fault whose consumer never
    /// delivered a verdict.
    pub fn unresolved(&self) -> usize {
        self.queue.len() + self.armed.is_some() as usize + self.in_flight.is_some() as usize
    }

    /// Drains the `(site, segment, cycle)` log of corruptions that
    /// fired since the last call.
    pub fn take_injections(&mut self) -> Vec<(FaultSite, u32, u64)> {
        std::mem::take(&mut self.injection_log)
    }

    /// Arms the next fault once the commit counter passes its trigger.
    /// One fault is outstanding at a time so latencies are unambiguous.
    pub fn advance(&mut self, committed: u64) {
        if self.armed.is_none() && self.in_flight.is_none() {
            if let Some(&f) = self.queue.last() {
                if committed >= f.arm_at_commit {
                    self.queue.pop();
                    // Record the commit count at arming: the corrupted
                    // packet is the first matching-site packet extracted
                    // after this many commits — the anchor the coverage
                    // oracle's golden re-run uses to locate the fault.
                    self.armed = Some((f, committed));
                }
            }
        }
    }

    /// Offers `pkt`, a packet of segment `seg`, to the injector just
    /// before it enters the fabric; if a matching fault is armed, one bit
    /// is flipped in place and the fault waits on the packet's consumers
    /// as `seg_mgr` assigns their checkers now.
    pub fn maybe_corrupt(
        &mut self,
        pkt: &mut Packet,
        now: u64,
        seg: u32,
        seg_mgr: &SegmentManager,
    ) {
        if self.suppressed {
            return;
        }
        let Some((f, armed_at_commit)) = self.armed else { return };
        let field = match (&mut pkt.payload, f.site) {
            (Payload::Mem { addr, size, data, is_store, .. }, FaultSite::MemAddr) => {
                let clean = CorruptedField::Mem {
                    addr: *addr,
                    size: *size,
                    data: *data,
                    is_store: *is_store,
                };
                *addr ^= 1 << (f.bit % 64);
                Some(clean)
            }
            // A CacheData fault models corrupted cache *read* data:
            // it strikes the first forwarded load record after arming;
            // stores carry LSQ data, not cache reads, and leave the
            // fault armed.
            (Payload::Mem { is_store: true, .. }, FaultSite::CacheData) => None,
            (
                Payload::Mem { addr, size, data, is_store, .. },
                FaultSite::MemData | FaultSite::CacheData,
            ) => {
                let clean = CorruptedField::Mem {
                    addr: *addr,
                    size: *size,
                    data: *data,
                    is_store: *is_store,
                };
                // Flip within the access width so the corruption is live.
                let width_bits = (*size as u32) * 8;
                *data ^= 1 << (f.bit % width_bits);
                Some(clean)
            }
            (Payload::RcpEnd { cp, .. }, FaultSite::RcpRegister) => {
                // Flip a bit of a (pseudo-randomly chosen) live register.
                let idx = rcp_register_index(f.bit);
                let clean = CorruptedField::Register { index: idx, clean_cp: Box::new(**cp) };
                cp.x[idx] ^= 1 << (f.bit % 64);
                Some(clean)
            }
            _ => None,
        };
        if let Some(field) = field {
            let awaiting = consumers(pkt, seg, seg_mgr);
            debug_assert!(!awaiting.is_empty(), "no checker reads corrupted {pkt:?}");
            self.armed = None;
            self.injection_log.push((f.site, seg, now));
            self.in_flight = Some(InFlight {
                spec: f,
                injected: now,
                fseg: seg,
                armed_at_commit,
                field,
                awaiting,
            });
        }
    }

    /// Offers the LSQ-window parity double-check point to the injector.
    /// If a [`FaultSite::LsqParity`] fault is armed, it strikes here:
    /// the returned bit is flipped into the parity-checked window copy
    /// (the caller's per-byte parity check then fails, exactly as
    /// footnote 2's carried cache parity would catch it), the clean
    /// data is re-read, and the fault resolves as an immediate
    /// detection — it never reaches the fabric or a checker.
    pub fn lsq_parity_strike(&mut self, now: u64, seg: u32, ns_per_cycle: f64) -> Option<u32> {
        if self.suppressed {
            return None;
        }
        let (f, _) = self.armed?;
        if f.site != FaultSite::LsqParity {
            return None;
        }
        self.armed = None;
        self.injection_log.push((FaultSite::LsqParity, seg, now));
        self.detections.push(DetectionRecord {
            site: FaultSite::LsqParity,
            injected_cycle: now,
            detected_cycle: now + 1,
            latency_ns: ns_per_cycle,
            seg,
            recovery_cycles: None,
        });
        Some(f.bit)
    }

    /// Squashes injector state for a recovery rollback to `first_seg`:
    /// a fault still owed a verdict by a squashed segment can never get
    /// it — the rollback wiped its corrupted packet — so it re-queues and
    /// fires again during re-execution. Resolved faults (detected or
    /// masked) are untouched.
    pub fn on_rollback(&mut self, first_seg: u32) {
        if self.in_flight.as_ref().is_some_and(|fl| fl.awaiting.iter().any(|&s| s >= first_seg)) {
            let spec = self.in_flight.take().expect("checked above").spec;
            self.requeue(vec![spec]);
        }
        // Boundaries of squashed segments are stale: re-execution will
        // re-record them as the segments re-commit.
        self.seg_end.retain(|&s, _| s < first_seg);
    }

    /// Reports segment `seg`'s verdict to the injector. It bears on the
    /// fault in flight only if `seg` is one of its consumers: a fail is
    /// the fault's detection, and the last consumer passing is its mask
    /// (recorded in [`FaultInjector::masked`]).
    pub fn on_segment_verified(&mut self, seg: u32, pass: bool, now: u64, ns_per_cycle: f64) {
        let Some(fl) = &mut self.in_flight else { return };
        let Some(i) = fl.awaiting.iter().position(|&s| s == seg) else { return };
        fl.awaiting.swap_remove(i);
        if pass && !fl.awaiting.is_empty() {
            return;
        }
        let fl = self.in_flight.take().expect("matched above");
        if pass {
            let surface = self.surface_of(fl.spec.site, fl.fseg);
            self.masked.push(fl.mask_record(surface));
        } else {
            self.detections.push(DetectionRecord {
                site: fl.spec.site,
                injected_cycle: fl.injected,
                detected_cycle: now,
                latency_ns: (now - fl.injected) as f64 * ns_per_cycle,
                seg,
                recovery_cycles: None,
            });
        }
    }
}

/// The consumers of `pkt`, a packet of segment `seg` entering the fabric:
/// the segments whose checker, as `seg_mgr` assigns them now, is in the
/// packet's destination mask. A run-time record can only be read by
/// `seg`'s checker; a checkpoint is also the SRCP of `seg + 1`.
fn consumers(pkt: &Packet, seg: u32, seg_mgr: &SegmentManager) -> Vec<u32> {
    let last = match pkt.payload {
        Payload::RcpEnd { .. } => seg + 1,
        _ => seg,
    };
    (seg..=last).filter(|&s| seg_mgr.checker_of(s).is_some_and(|c| pkt.dest.contains(c))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_fabric::DestMask;
    use meek_isa::state::RegCheckpoint;
    use meek_littlecore::{LittleCore, LittleCoreConfig};
    use rand::SeedableRng;

    /// A segment manager with `segs` open on checkers 0, 1, … in order.
    fn open(segs: &[u32]) -> SegmentManager {
        let mut littles: Vec<LittleCore> = (0..segs.len())
            .map(|i| LittleCore::new(i, LittleCoreConfig::optimized(), 17))
            .collect();
        let mut mgr = SegmentManager::new();
        for &seg in segs {
            mgr.try_open(seg, &mut littles).expect("an idle checker per segment");
        }
        mgr
    }

    /// A store record of segment `seg` for checker 0.
    fn mem_pkt(seg: u32) -> Packet {
        Packet {
            seq: 0,
            dest: DestMask::single(0),
            payload: Payload::Mem { seg, addr: 0x1000, size: 8, data: 0xAB, is_store: true },
            created_at: 0,
        }
    }

    /// The checkpoint closing segment `seg`, sent to `dest`.
    fn rcp_pkt(seg: u32, dest: DestMask) -> Packet {
        Packet {
            seq: 0,
            dest,
            payload: Payload::RcpEnd {
                seg,
                inst_count: 100,
                cp: Box::new(RegCheckpoint::zeroed(0x1000)),
            },
            created_at: 0,
        }
    }

    fn injector(site: FaultSite, bit: u32) -> FaultInjector {
        FaultInjector::new(vec![FaultSpec { arm_at_commit: 0, site, bit }])
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::from_name("bogus"), None);
    }

    #[test]
    fn corrupts_exactly_one_outstanding_fault() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 10,
            site: FaultSite::MemData,
            bit: 3,
        }]);
        let mgr = open(&[1]);
        inj.advance(5);
        let mut p = mem_pkt(1);
        inj.maybe_corrupt(&mut p, 100, 1, &mgr);
        assert_eq!(p, mem_pkt(1), "not armed yet");
        inj.advance(10);
        inj.maybe_corrupt(&mut p, 100, 1, &mgr);
        match p.payload {
            Payload::Mem { data, .. } => assert_eq!(data, 0xAB ^ 8),
            _ => unreachable!(),
        }
        assert!(inj.busy());
        // A second packet is NOT corrupted.
        let mut q = mem_pkt(1);
        inj.maybe_corrupt(&mut q, 101, 1, &mgr);
        assert_eq!(q, mem_pkt(1));
    }

    #[test]
    fn latency_recorded_on_detection() {
        let mut inj = injector(FaultSite::MemAddr, 5);
        inj.advance(0);
        let mut p = mem_pkt(4);
        inj.maybe_corrupt(&mut p, 1000, 4, &open(&[4]));
        inj.on_segment_verified(4, false, 4200, 0.3125);
        assert_eq!(inj.detections.len(), 1);
        let d = &inj.detections[0];
        assert_eq!(d.injected_cycle, 1000);
        assert_eq!(d.detected_cycle, 4200);
        assert!((d.latency_ns - 3200.0 * 0.3125).abs() < 1e-9);
        assert!(!inj.busy());
        assert!(inj.masked.is_empty());
    }

    #[test]
    fn rcp_fault_may_detect_in_next_segment() {
        let mut inj = injector(FaultSite::RcpRegister, 9);
        inj.advance(0);
        // Multicast: segment 3's checker (core 0) reads it as its ERCP,
        // segment 4's (core 1) as its SRCP.
        let mut p = rcp_pkt(3, DestMask::single(0).with(1));
        inj.maybe_corrupt(&mut p, 500, 3, &open(&[3, 4]));
        assert!(inj.busy());
        inj.on_segment_verified(3, true, 600, 0.3125);
        assert!(inj.busy(), "still awaiting segment 4, the other consumer");
        inj.on_segment_verified(4, false, 900, 0.3125);
        assert_eq!(inj.detections.len(), 1);
        assert_eq!(inj.detections[0].seg, 4);
    }

    #[test]
    fn masked_mem_fault_records_clean_field() {
        let mut inj = injector(FaultSite::MemData, 2);
        inj.advance(17);
        let mut p = mem_pkt(2);
        inj.maybe_corrupt(&mut p, 50, 2, &open(&[2]));
        // Segment 2 verifies clean: the flip landed on dead data.
        inj.on_segment_verified(2, true, 400, 0.3125);
        assert!(!inj.busy());
        assert_eq!(inj.masked.len(), 1);
        let m = &inj.masked[0];
        assert_eq!(m.seg, 2);
        assert_eq!(m.armed_at_commit, 17, "arming commit index is the re-run anchor");
        assert_eq!(
            m.field,
            CorruptedField::Mem { addr: 0x1000, size: 8, data: 0xAB, is_store: true },
            "the clean pre-flip record must be captured"
        );
    }

    #[test]
    fn a_checkpoint_only_the_next_segment_reads_masks_on_its_pass() {
        // Segment 5's checkpoint owed to segment 6's checker (core 1)
        // alone: segment 5's checker (core 0) never reads this copy.
        let mut inj = injector(FaultSite::RcpRegister, 11);
        inj.advance(0);
        let mut p = rcp_pkt(5, DestMask::single(1));
        inj.maybe_corrupt(&mut p, 500, 5, &open(&[5, 6]));
        // Neither segment 5's verdict nor a later segment's bears on it.
        inj.on_segment_verified(5, false, 700, 0.3125);
        inj.on_segment_verified(7, false, 800, 0.3125);
        assert!(inj.detections.is_empty(), "no consumer failed");
        assert!(inj.busy());
        inj.on_segment_verified(6, true, 900, 0.3125);
        assert!(!inj.busy());
        assert_eq!(inj.unresolved(), 0, "masked at its consumer's pass, not pending");
        assert_eq!(inj.masked.len(), 1);
        match &inj.masked[0].field {
            CorruptedField::Register { index, clean_cp } => {
                assert_eq!(*index, rcp_register_index(11));
                assert_eq!(**clean_cp, RegCheckpoint::zeroed(0x1000));
            }
            f => panic!("wrong field kind: {f:?}"),
        }
    }

    #[test]
    fn a_consumers_late_fail_is_the_detection() {
        // Segment 10's slow checker reports the corrupted ERCP long after
        // the SRCP consumer and later segments verified clean.
        let mut inj = injector(FaultSite::RcpRegister, 7);
        inj.advance(100);
        let mut p = rcp_pkt(10, DestMask::single(0).with(1));
        inj.maybe_corrupt(&mut p, 500, 10, &open(&[10, 11]));
        for seg in 11..=15 {
            inj.on_segment_verified(seg, true, 600 + seg as u64, 0.3125);
        }
        assert!(inj.busy(), "segment 10's verdict is still owed");
        assert!(inj.masked.is_empty());
        inj.on_segment_verified(10, false, 2_000, 0.3125);
        assert_eq!(inj.detections.len(), 1, "the late fail verdict is the detection");
        assert_eq!(inj.detections[0].seg, 10);
        assert!(inj.masked.is_empty());
        assert_eq!(inj.unresolved(), 0);
    }

    #[test]
    fn a_checkpoint_masks_once_both_its_consumers_pass() {
        let mut inj = injector(FaultSite::RcpRegister, 7);
        inj.advance(0);
        let mut p = rcp_pkt(10, DestMask::single(0).with(1));
        inj.maybe_corrupt(&mut p, 500, 10, &open(&[10, 11]));
        inj.on_segment_verified(11, true, 600, 0.3125);
        assert!(inj.masked.is_empty(), "segment 10 read it too");
        inj.on_segment_verified(10, true, 2_000, 0.3125);
        assert_eq!(inj.masked.len(), 1);
        assert!(inj.detections.is_empty());
        assert_eq!(inj.unresolved(), 0);
    }

    #[test]
    fn unfired_fault_stays_pending_at_drain() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 1_000_000,
            site: FaultSite::MemAddr,
            bit: 0,
        }]);
        inj.advance(10);
        assert_eq!(inj.unresolved(), 1, "a fault that never armed is pending, not masked");
        assert!(inj.masked.is_empty());
    }

    #[test]
    fn lsq_parity_fault_detects_at_the_window() {
        let mut inj = injector(FaultSite::LsqParity, 13);
        inj.advance(0);
        // The parity fault must not touch forwarded packets…
        let mut p = mem_pkt(2);
        inj.maybe_corrupt(&mut p, 90, 2, &open(&[2]));
        assert_eq!(p, mem_pkt(2));
        // …it strikes at the LSQ parity double-check.
        assert_eq!(inj.lsq_parity_strike(100, 2, 0.3125), Some(13));
        assert!(!inj.busy(), "parity detections never occupy the pipeline");
        assert_eq!(inj.detections.len(), 1);
        let d = &inj.detections[0];
        assert_eq!(d.site, FaultSite::LsqParity);
        assert_eq!(d.detected_cycle, d.injected_cycle + 1);
        assert!(d.latency_ns > 0.0);
        assert_eq!(inj.lsq_parity_strike(101, 2, 0.3125), None, "one-shot");
    }

    #[test]
    fn cache_data_fault_skips_stores_and_strikes_loads() {
        let mut inj = injector(FaultSite::CacheData, 4);
        let mgr = open(&[1]);
        inj.advance(0);
        let mut store = mem_pkt(1); // is_store: true
        inj.maybe_corrupt(&mut store, 50, 1, &mgr);
        assert_eq!(store, mem_pkt(1), "stores carry LSQ data, not cache reads");
        assert!(!inj.busy());
        let mut load = Packet {
            seq: 1,
            dest: DestMask::single(0),
            payload: Payload::Mem { seg: 1, addr: 0x2000, size: 4, data: 0xF0, is_store: false },
            created_at: 0,
        };
        inj.maybe_corrupt(&mut load, 51, 1, &mgr);
        match load.payload {
            Payload::Mem { data, .. } => assert_eq!(data, 0xF0 ^ 0x10),
            _ => unreachable!(),
        }
        assert!(inj.busy());
        inj.on_segment_verified(1, false, 500, 0.3125);
        assert_eq!(inj.detections.len(), 1);
        assert_eq!(inj.detections[0].site, FaultSite::CacheData);
    }

    #[test]
    fn suppressed_injector_holds_fire() {
        let mut inj = injector(FaultSite::MemData, 1);
        let mgr = open(&[1]);
        inj.advance(0);
        inj.suppressed = true;
        let mut p = mem_pkt(1);
        inj.maybe_corrupt(&mut p, 10, 1, &mgr);
        assert_eq!(p, mem_pkt(1), "golden re-execution must see no corruption");
        inj.suppressed = false;
        inj.maybe_corrupt(&mut p, 11, 1, &mgr);
        assert_ne!(p, mem_pkt(1), "the armed fault fires once suppression lifts");
    }

    #[test]
    fn rollback_requeues_unresolved_faults_of_squashed_segments() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 7,
            site: FaultSite::MemData,
            bit: 2,
        }]);
        inj.advance(10);
        let mut p = mem_pkt(5);
        inj.maybe_corrupt(&mut p, 100, 5, &open(&[5]));
        assert!(inj.busy());
        // Rollback to segment 4 squashes segment 5's corrupted packet.
        inj.on_rollback(4);
        assert!(!inj.busy());
        assert_eq!(inj.remaining(), 1, "the fault re-queues and will fire again");
        assert_eq!(inj.queued(), 1, "a re-queued fault is not a new fault");
        // A rollback *behind* the fault's segment leaves it alone.
        inj.advance(10);
        let mut q = mem_pkt(6);
        inj.maybe_corrupt(&mut q, 200, 6, &open(&[6]));
        assert!(inj.busy());
        inj.on_rollback(7);
        assert!(inj.busy(), "segment 6 predates the rollback point");
    }

    #[test]
    fn corrupted_register_index_is_shared() {
        // The oracle-side reconstruction must use the same mapping the
        // injector does.
        for bit in 0..64 {
            let idx = rcp_register_index(bit);
            assert!((1..32).contains(&idx), "bit {bit} -> x{idx}");
        }
    }

    #[test]
    fn random_campaign_is_ordered_and_sized() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut inj = FaultInjector::new(random_fault_specs(100, 1_000_000, &mut rng));
        let mut last = 0;
        let mut n = 0;
        while let Some(f) = inj.queue.pop() {
            assert!(f.arm_at_commit >= last);
            last = f.arm_at_commit;
            n += 1;
        }
        assert_eq!(n, 100);
    }
}
