//! Fault injection into forwarded data (paper §V-B).
//!
//! Faults are injected "in the forwarded data from the F2 connected to
//! the big core, e.g., data and address of memory operations and
//! architectural register data, simulating the hardware faults without
//! disrupting the big core's normal execution". Exactly that: the
//! injector flips one bit of a packet as the DEU hands it to the fabric;
//! the big core's architectural execution is untouched, and the checker
//! must notice the divergence.

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
    /// Inverse of [`FaultSite::name`] — lives beside it so adding a
    /// variant forces both mappings to be updated together.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        match name {
            "mem_addr" => Some(FaultSite::MemAddr),
            "mem_data" => Some(FaultSite::MemData),
            "rcp_register" => Some(FaultSite::RcpRegister),
            "lsq_parity" => Some(FaultSite::LsqParity),
            "cache_data" => Some(FaultSite::CacheData),
            _ => None,
        }
    }

    /// Stable lower-case name — the column/field value every sink
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

/// An injected fault whose candidate segments all verified clean — the
/// flipped bit was (apparently) architecturally dead. Distinguished
/// from *pending* faults (no verdict at all) in [`RunReport`]:
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
    /// faults. Segment boundaries re-seed every checker from the big
    /// core's clean shadow, so nothing outside this range could ever
    /// have exposed the flip — an external prover replaying past it
    /// over-convicts.
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
    /// Segment in which the fault was detected.
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
        let site = match rng.gen_range(0..3) {
            0 => FaultSite::MemAddr,
            1 => FaultSite::MemData,
            _ => FaultSite::RcpRegister,
        };
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
    fseg_passed: bool,
    next_passed: bool,
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
    /// Faults with positive clean evidence (successor segment verified)
    /// whose own segment's verdict is still outstanding. They no longer
    /// occupy the injection pipeline, but a late *fail* verdict for a
    /// candidate segment upgrades them to a detection — the old
    /// "unreachable after 4 segments" heuristic silently dropped those
    /// late detections and misreported them as masked.
    tentative: Vec<InFlight>,
    /// Completed detections.
    pub detections: Vec<DetectionRecord>,
    /// Faults whose candidate segments all verified *clean*: the flip
    /// landed on architecturally dead data. The checker never reported
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
            tentative: Vec::new(),
            detections: Vec::new(),
            masked: Vec::new(),
            suppressed: false,
            injection_log: Vec::new(),
            seg_end: BTreeMap::new(),
        };
        inj.enqueue(faults);
        inj
    }

    /// Adds `faults` to the queue, kept sorted so `pop` yields the
    /// earliest arm point.
    pub(crate) fn enqueue(&mut self, faults: Vec<FaultSpec>) {
        self.queue.extend(faults);
        self.queue.sort_by_key(|f| f.arm_at_commit);
        self.queue.reverse();
    }

    /// Whether no fault was ever queued: nothing waits to arm, nothing
    /// fired and nothing resolved. Such an injector's only state that
    /// depends on the run is the segment boundaries, which a faulty run
    /// records identically until its first fault arms.
    pub(crate) fn is_fault_free(&self) -> bool {
        self.unresolved() == 0 && self.detections.is_empty() && self.masked.is_empty()
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

    /// Whether a fault is currently in flight (awaiting detection).
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Faults remaining in the queue (not yet armed).
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }

    /// Faults with no verdict yet: still queued, armed but not fired,
    /// in flight awaiting a segment verdict, or tentatively masked with
    /// their own segment's verdict outstanding. At end of run
    /// ([`FaultInjector::resolve_at_drain`]) tentatives settle to
    /// masked; what remains is what the campaign must report as
    /// *pending* — typically a tail fault whose corrupted checkpoint
    /// was the program's last, so no successor segment ever delivered a
    /// verdict.
    pub fn unresolved(&self) -> usize {
        self.queue.len()
            + self.armed.is_some() as usize
            + self.in_flight.is_some() as usize
            + self.tentative.len()
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

    /// Offers a packet to the injector just before it enters the fabric;
    /// if a matching fault is armed, one bit is flipped in place.
    pub fn maybe_corrupt(&mut self, pkt: &mut Packet, now: u64, seg: u32) {
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
            self.armed = None;
            self.injection_log.push((f.site, seg, now));
            self.in_flight = Some(InFlight {
                spec: f,
                injected: now,
                fseg: seg,
                armed_at_commit,
                field,
                fseg_passed: false,
                next_passed: false,
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
    /// a fault whose corrupted packet belonged to a squashed segment
    /// never got (and can never get) a verdict — its corruption was
    /// wiped with the segment — so it re-queues and fires again during
    /// re-execution. Resolved faults (detected or masked) are untouched.
    pub fn on_rollback(&mut self, first_seg: u32) {
        let mut requeue = Vec::new();
        if self.in_flight.as_ref().is_some_and(|fl| fl.fseg >= first_seg) {
            requeue.push(self.in_flight.take().expect("checked above").spec);
        }
        let mut i = 0;
        while i < self.tentative.len() {
            if self.tentative[i].fseg >= first_seg {
                requeue.push(self.tentative.remove(i).spec);
            } else {
                i += 1;
            }
        }
        if !requeue.is_empty() {
            self.enqueue(requeue);
        }
        // Boundaries of squashed segments are stale: re-execution will
        // re-record them as the segments re-commit.
        self.seg_end.retain(|&s, _| s < first_seg);
    }

    /// Reports a segment verification result to the injector.
    ///
    /// A memory-record fault must be detected while its own segment
    /// replays; a checkpoint fault is the ERCP of segment `fseg` *and*
    /// the SRCP of `fseg + 1`, so detection may land in either (segments
    /// can complete out of order across cores). A fault whose candidate
    /// segments all verified clean is recorded in
    /// [`FaultInjector::masked`].
    pub fn on_segment_verified(&mut self, seg: u32, pass: bool, now: u64, ns_per_cycle: f64) {
        // Tentatively-masked faults first. A tentative's successor
        // segment has already verified clean (that is how it became
        // tentative), so the only verdict still owed is its *own*
        // segment's: a fail upgrades the tentative to a (late)
        // detection, a clean verdict confirms the mask.
        if let Some(pos) = self.tentative.iter().position(|fl| seg == fl.fseg) {
            let fl = self.tentative.remove(pos);
            if pass {
                let surface = self.surface_of(fl.spec.site, fl.fseg);
                self.masked.push(fl.mask_record(surface));
            } else {
                let latency_ns = (now - fl.injected) as f64 * ns_per_cycle;
                self.detections.push(DetectionRecord {
                    site: fl.spec.site,
                    injected_cycle: fl.injected,
                    detected_cycle: now,
                    latency_ns,
                    seg,
                    recovery_cycles: None,
                });
                return; // the fail verdict is this fault's detection
            }
        }
        let surface = self.in_flight.as_ref().map(|fl| self.surface_of(fl.spec.site, fl.fseg));
        let Some(fl) = &mut self.in_flight else { return };
        let surface = surface.expect("computed from the same in-flight fault");
        if seg < fl.fseg {
            return;
        }
        if !pass {
            let latency_ns = (now - fl.injected) as f64 * ns_per_cycle;
            self.detections.push(DetectionRecord {
                site: fl.spec.site,
                injected_cycle: fl.injected,
                detected_cycle: now,
                latency_ns,
                seg,
                recovery_cycles: None,
            });
            self.in_flight = None;
            return;
        }
        match fl.spec.site {
            FaultSite::LsqParity => {
                unreachable!("parity faults detect at forwarding time and are never in flight")
            }
            FaultSite::MemAddr | FaultSite::MemData | FaultSite::CacheData => {
                if seg == fl.fseg {
                    let rec = fl.mask_record(surface);
                    self.masked.push(rec);
                    self.in_flight = None;
                }
            }
            FaultSite::RcpRegister => {
                if seg == fl.fseg {
                    fl.fseg_passed = true;
                } else if seg == fl.fseg + 1 {
                    fl.next_passed = true;
                }
                if fl.next_passed && fl.fseg_passed {
                    let rec = fl.mask_record(surface);
                    self.masked.push(rec);
                    self.in_flight = None;
                } else if fl.next_passed && seg > fl.fseg + 4 {
                    // `fseg`'s own verdict can predate the injection (its
                    // checker may have concluded before the corrupted
                    // packet existed) — or it may simply be slow. Well
                    // past the concurrency window, release the pipeline
                    // but keep the fault *tentative*: if `fseg`'s verdict
                    // does arrive late, it still settles this fault
                    // instead of being silently dropped.
                    let fl = fl.clone();
                    self.tentative.push(fl);
                    self.in_flight = None;
                }
            }
        }
    }

    /// Delivers end-of-run verdicts for the in-flight fault once no more
    /// segment verifications can arrive (the system has drained).
    ///
    /// Without this, a checkpoint fault whose *successor* segment
    /// verified clean but whose own segment's verdict predated the
    /// injection stays `in_flight` forever and is reported as *pending*
    /// — indistinguishable from a fault that never fired — even though
    /// the evidence says it was masked. At drain, a fault whose every
    /// delivered candidate verdict was clean resolves to masked; a fault
    /// with no verdict at all (e.g. a corrupted final checkpoint with no
    /// successor segment) stays pending.
    pub fn resolve_at_drain(&mut self) {
        // Tentatives whose own-segment verdict never arrived: the clean
        // successor verdict stands — masked.
        for fl in std::mem::take(&mut self.tentative) {
            let surface = self.surface_of(fl.spec.site, fl.fseg);
            self.masked.push(fl.mask_record(surface));
        }
        let Some(fl) = self.in_flight.take() else { return };
        let masked = match fl.spec.site {
            FaultSite::LsqParity => {
                unreachable!("parity faults detect at forwarding time and are never in flight")
            }
            // A memory-record fault is judged only by its own segment;
            // no verdict by drain means the record was never replayed.
            FaultSite::MemAddr | FaultSite::MemData | FaultSite::CacheData => false,
            // Either candidate segment verifying clean is positive
            // evidence: the corrupted ERCP matched the replay, or the
            // corrupted SRCP replayed to a clean ERCP.
            FaultSite::RcpRegister => fl.fseg_passed || fl.next_passed,
        };
        if masked {
            let surface = self.surface_of(fl.spec.site, fl.fseg);
            self.masked.push(fl.mask_record(surface));
        } else {
            self.in_flight = Some(fl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_fabric::DestMask;
    use rand::SeedableRng;

    fn mem_pkt() -> Packet {
        Packet {
            seq: 0,
            dest: DestMask::single(0),
            payload: Payload::Mem { seg: 1, addr: 0x1000, size: 8, data: 0xAB, is_store: true },
            created_at: 0,
        }
    }

    #[test]
    fn site_names_round_trip() {
        for site in [
            FaultSite::MemAddr,
            FaultSite::MemData,
            FaultSite::RcpRegister,
            FaultSite::LsqParity,
            FaultSite::CacheData,
        ] {
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
        inj.advance(5);
        let mut p = mem_pkt();
        inj.maybe_corrupt(&mut p, 100, 1);
        assert_eq!(p, mem_pkt(), "not armed yet");
        inj.advance(10);
        inj.maybe_corrupt(&mut p, 100, 1);
        match p.payload {
            Payload::Mem { data, .. } => assert_eq!(data, 0xAB ^ 8),
            _ => unreachable!(),
        }
        assert!(inj.busy());
        // A second packet is NOT corrupted.
        let mut q = mem_pkt();
        inj.maybe_corrupt(&mut q, 101, 1);
        assert_eq!(q, mem_pkt());
    }

    #[test]
    fn latency_recorded_on_detection() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::MemAddr,
            bit: 5,
        }]);
        inj.advance(0);
        let mut p = mem_pkt();
        inj.maybe_corrupt(&mut p, 1000, 4);
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
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::RcpRegister,
            bit: 9,
        }]);
        inj.advance(0);
        let mut p = Packet {
            seq: 0,
            dest: DestMask::single(0),
            payload: Payload::RcpEnd {
                seg: 3,
                inst_count: 100,
                cp: Box::new(meek_isa::state::RegCheckpoint::zeroed(0)),
            },
            created_at: 0,
        };
        inj.maybe_corrupt(&mut p, 500, 3);
        assert!(inj.busy());
        // Segment 3 verifies clean (fault was in its ERCP *as forwarded*,
        // but detection can land in segment 4 whose SRCP it corrupts).
        inj.on_segment_verified(3, true, 600, 0.3125);
        assert!(inj.busy(), "still awaiting detection in segment 4");
        inj.on_segment_verified(4, false, 900, 0.3125);
        assert_eq!(inj.detections.len(), 1);
    }

    #[test]
    fn masked_mem_fault_records_clean_field() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::MemData,
            bit: 2,
        }]);
        inj.advance(17);
        let mut p = mem_pkt();
        inj.maybe_corrupt(&mut p, 50, 2);
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
    fn rcp_mask_resolves_at_drain_not_pending() {
        // The latent reporting bug: fseg's verdict predates the
        // injection, the successor verifies clean, the run drains — the
        // fault used to stay in_flight forever and count as pending.
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::RcpRegister,
            bit: 11,
        }]);
        inj.advance(0);
        let mut p = Packet {
            seq: 0,
            dest: DestMask::single(0),
            payload: Payload::RcpEnd {
                seg: 5,
                inst_count: 100,
                cp: Box::new(meek_isa::state::RegCheckpoint::zeroed(0x1000)),
            },
            created_at: 0,
        };
        inj.maybe_corrupt(&mut p, 500, 5);
        // Only the successor's verdict arrives (clean); segment 5's
        // checker concluded before the corrupted ERCP existed.
        inj.on_segment_verified(6, true, 900, 0.3125);
        assert!(inj.busy(), "no drain yet: still awaiting fseg's (impossible) verdict");
        assert_eq!(inj.unresolved(), 1);
        inj.resolve_at_drain();
        assert!(!inj.busy());
        assert_eq!(inj.unresolved(), 0, "resolved masked, not pending");
        assert_eq!(inj.masked.len(), 1);
        match &inj.masked[0].field {
            CorruptedField::Register { index, clean_cp } => {
                assert_eq!(*index, rcp_register_index(11));
                assert_eq!(**clean_cp, meek_isa::state::RegCheckpoint::zeroed(0x1000));
            }
            f => panic!("wrong field kind: {f:?}"),
        }
    }

    #[test]
    fn late_fail_verdict_upgrades_tentative_mask_to_detection() {
        // The lost-detection bug: successor segments verify clean and
        // race past the concurrency window, then the corrupted
        // segment's own checker finally fails. The old heuristic had
        // already written the fault off as masked; now the tentative
        // record turns the late verdict into a detection.
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::RcpRegister,
            bit: 7,
        }]);
        inj.advance(100);
        let mut p = Packet {
            seq: 0,
            dest: DestMask::single(0),
            payload: Payload::RcpEnd {
                seg: 10,
                inst_count: 100,
                cp: Box::new(meek_isa::state::RegCheckpoint::zeroed(0x1000)),
            },
            created_at: 0,
        };
        inj.maybe_corrupt(&mut p, 500, 10);
        inj.on_segment_verified(11, true, 600, 0.3125); // successor clean
        for seg in 12..=15 {
            inj.on_segment_verified(seg, true, 600 + seg as u64, 0.3125);
        }
        assert!(!inj.busy(), "well past the window: pipeline released");
        assert!(inj.masked.is_empty(), "but not yet declared masked");
        assert_eq!(inj.unresolved(), 1, "tentative counts as unresolved");
        // Segment 10's slow checker finally reports the corrupted ERCP.
        inj.on_segment_verified(10, false, 2_000, 0.3125);
        assert_eq!(inj.detections.len(), 1, "late fail verdict must become a detection");
        assert_eq!(inj.detections[0].seg, 10);
        assert!(inj.masked.is_empty());
        assert_eq!(inj.unresolved(), 0);
    }

    #[test]
    fn tentative_confirms_masked_on_clean_own_verdict() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::RcpRegister,
            bit: 7,
        }]);
        inj.advance(0);
        let mut p = Packet {
            seq: 0,
            dest: DestMask::single(0),
            payload: Payload::RcpEnd {
                seg: 10,
                inst_count: 100,
                cp: Box::new(meek_isa::state::RegCheckpoint::zeroed(0x1000)),
            },
            created_at: 0,
        };
        inj.maybe_corrupt(&mut p, 500, 10);
        for seg in 11..=15 {
            inj.on_segment_verified(seg, true, 600, 0.3125);
        }
        inj.on_segment_verified(10, true, 2_000, 0.3125);
        assert_eq!(inj.masked.len(), 1, "own clean verdict confirms the mask");
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
        inj.resolve_at_drain();
        assert_eq!(inj.unresolved(), 1, "a fault that never armed is pending, not masked");
        assert!(inj.masked.is_empty());
    }

    #[test]
    fn lsq_parity_fault_detects_at_the_window() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::LsqParity,
            bit: 13,
        }]);
        inj.advance(0);
        // The parity fault must not touch forwarded packets…
        let mut p = mem_pkt();
        inj.maybe_corrupt(&mut p, 90, 2);
        assert_eq!(p, mem_pkt());
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
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::CacheData,
            bit: 4,
        }]);
        inj.advance(0);
        let mut store = mem_pkt(); // is_store: true
        inj.maybe_corrupt(&mut store, 50, 1);
        assert_eq!(store, mem_pkt(), "stores carry LSQ data, not cache reads");
        assert!(!inj.busy());
        let mut load = Packet {
            seq: 1,
            dest: DestMask::single(0),
            payload: Payload::Mem { seg: 1, addr: 0x2000, size: 4, data: 0xF0, is_store: false },
            created_at: 0,
        };
        inj.maybe_corrupt(&mut load, 51, 1);
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
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 0,
            site: FaultSite::MemData,
            bit: 1,
        }]);
        inj.advance(0);
        inj.suppressed = true;
        let mut p = mem_pkt();
        inj.maybe_corrupt(&mut p, 10, 1);
        assert_eq!(p, mem_pkt(), "golden re-execution must see no corruption");
        inj.suppressed = false;
        inj.maybe_corrupt(&mut p, 11, 1);
        assert_ne!(p, mem_pkt(), "the armed fault fires once suppression lifts");
    }

    #[test]
    fn rollback_requeues_unresolved_faults_of_squashed_segments() {
        let mut inj = FaultInjector::new(vec![FaultSpec {
            arm_at_commit: 7,
            site: FaultSite::MemData,
            bit: 2,
        }]);
        inj.advance(10);
        let mut p = mem_pkt();
        inj.maybe_corrupt(&mut p, 100, 5);
        assert!(inj.busy());
        // Rollback to segment 4 squashes segment 5's corrupted packet.
        inj.on_rollback(4);
        assert!(!inj.busy());
        assert_eq!(inj.remaining(), 1, "the fault re-queues and will fire again");
        // A rollback *behind* the fault's segment leaves it alone.
        inj.advance(10);
        let mut q = mem_pkt();
        inj.maybe_corrupt(&mut q, 200, 6);
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
