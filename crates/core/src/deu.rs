//! The Data Extraction Unit (paper §III-A, Fig. 3).
//!
//! The DEU sits on the commit stage as a read-only observation channel:
//! its Commit Detector watches opcode/funct fields of retiring
//! instructions, extracts *run-time data* (load/store addresses and
//! data, CSR read results) between checkpoints and *status data* (the
//! architectural register files) at checkpoints, and hands packets to
//! the forwarding fabric through the per-commit-path DC-Buffers.
//!
//! Because the timing model is commit-order-functional, the DEU keeps a
//! commit-order **shadow register state** — the model equivalent of
//! reading the PRFs through the preempting controller of Fig. 3 — and
//! snapshots it into a [`RegCheckpoint`] at every RCP.
//!
//! RCPs are taken when (paper §II): the targeted LSL is full (segment
//! record budget), the instruction timeout (5 000) is reached, or the
//! kernel is trapped. Checkpoint transfers are chunked to the fabric's
//! datapath width and streamed in the background through the status
//! FIFOs, multicast to the checkers of both adjacent segments when both
//! can receive (selective broadcast); when no little core is free for
//! the next segment, the SRCP transfer is *owed* and sent as soon as the
//! OS hands the DEU a checker — and in the meantime the big core's
//! commit of further logged instructions stalls, which is exactly the
//! computation-bound backpressure of §V-D.

use crate::fault::FaultInjector;
use crate::segments::SegmentManager;
use meek_bigcore::{CommitDecision, CommitHook, CommitStall};
use meek_fabric::{DestMask, Fabric, Packet, PacketKind, PacketSink, Payload};
use meek_isa::state::RegCheckpoint;
use meek_isa::{Retired, WbDest};
use meek_littlecore::LittleCore;
use meek_mem::byte_parity;
use meek_recover::RecoveryManager;
use std::collections::{BTreeMap, VecDeque};

/// Nanoseconds per big-core cycle at 3.2 GHz (Table II).
pub const BIG_CORE_NS_PER_CYCLE: f64 = 0.3125;

/// An in-flight checkpoint transfer (chunked over status packets).
#[derive(Debug, Clone)]
struct Transfer {
    seg: u32,
    inst_count: u64,
    cp: RegCheckpoint,
    dest: DestMask,
    next_chunk: u8,
    total: u8,
}

/// An SRCP transfer that could not be multicast because the next
/// segment had no checker yet.
#[derive(Debug, Clone)]
struct OwedSrcp {
    /// The segment whose checker, once assigned, must receive this.
    seg_to_open: u32,
    cp: RegCheckpoint,
    inst_count: u64,
}

/// DEU state: shadow registers, segmentation counters, and the transfer
/// queue.
#[derive(Debug, Clone)]
pub struct DeuState {
    shadow: RegCheckpoint,
    /// Commit-order CSR shadow (RCPs exclude CSRs; recovery rollback
    /// must restore them, so the DEU tracks CSR write side-effects the
    /// same way it shadows the PRFs).
    pub(crate) shadow_csrs: BTreeMap<u16, u64>,
    /// Cumulative instructions committed — the commit-index anchor for
    /// pinned recovery checkpoints.
    pub(crate) committed_total: u64,
    seq: u64,
    /// Current (open) segment id; segment ids start at 1.
    pub seg: u32,
    insts_in_seg: u64,
    records_in_seg: u64,
    record_budget: u64,
    timeout: u64,
    kernel_trap_pending: bool,
    transfers: VecDeque<Transfer>,
    owed: Option<OwedSrcp>,
    lane_rr: usize,
    lanes: usize,
    chunks_per_cp: u8,
    /// Set once the final checkpoint has been queued at end of run.
    pub finalized: bool,
    /// RCPs taken.
    pub rcps: u64,
    /// Run-time packets pushed.
    pub runtime_packets: u64,
    /// LSQ parity double-checks performed (footnote 2).
    pub parity_checks: u64,
    /// Parity mismatches caught in the LSQ window (faults injected into
    /// LSQ data rather than the fabric would land here).
    pub parity_errors: u64,
}

impl DeuState {
    /// Creates a DEU for a big core with `lanes` commit paths, a fabric
    /// carrying `payload_words` 64-bit words per packet, and the given
    /// segmentation parameters.
    pub fn new(
        lanes: usize,
        payload_words: u32,
        record_budget: u64,
        timeout: u64,
        initial: RegCheckpoint,
    ) -> DeuState {
        let total_words = RegCheckpoint::WORDS as u32;
        let chunks = total_words.div_ceil(payload_words) as u8;
        DeuState {
            shadow: initial,
            shadow_csrs: BTreeMap::new(),
            committed_total: 0,
            seq: 0,
            seg: 1,
            insts_in_seg: 0,
            records_in_seg: 0,
            record_budget,
            timeout,
            kernel_trap_pending: false,
            transfers: VecDeque::new(),
            owed: None,
            lane_rr: 0,
            lanes,
            chunks_per_cp: chunks,
            finalized: false,
            rcps: 0,
            runtime_packets: 0,
            parity_checks: 0,
            parity_errors: 0,
        }
    }

    /// Status chunks one checkpoint occupies in an LSL.
    pub fn chunks_per_cp(&self) -> usize {
        self.chunks_per_cp as usize
    }

    /// Instructions committed in the open segment.
    pub fn insts_in_seg(&self) -> u64 {
        self.insts_in_seg
    }

    /// A copy of the commit-order shadow registers (the PRF view the DEU
    /// reads at an RCP).
    pub fn shadow_checkpoint(&self) -> RegCheckpoint {
        self.shadow
    }

    /// Whether a segment boundary is due before the next commit.
    fn boundary_due(&self) -> bool {
        self.records_in_seg >= self.record_budget
            || self.insts_in_seg >= self.timeout
            || self.kernel_trap_pending
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn next_lane(&mut self) -> usize {
        self.lane_rr = (self.lane_rr + 1) % self.lanes;
        self.lane_rr
    }

    /// Queues a checkpoint transfer.
    pub(crate) fn queue_transfer(
        &mut self,
        seg: u32,
        inst_count: u64,
        cp: RegCheckpoint,
        dest: DestMask,
    ) {
        self.transfers.push_back(Transfer {
            seg,
            inst_count,
            cp,
            dest,
            next_chunk: 0,
            total: self.chunks_per_cp,
        });
    }

    /// Streams queued checkpoint chunks into the DC-Buffers. Called once
    /// per big-core cycle; pushes as many chunks as the status FIFOs
    /// accept this cycle. `seg_mgr`'s assignments name the checkers that
    /// read each checkpoint as it leaves.
    pub fn pump_transfers(
        &mut self,
        fabric: &mut Fabric,
        injector: &mut FaultInjector,
        seg_mgr: &SegmentManager,
        now: u64,
    ) {
        while !self.transfers.is_empty() {
            // The lane rotates on a refused push too.
            let lane = self.next_lane();
            if !fabric.can_push(lane, PacketKind::Status) {
                break;
            }
            let t = self.transfers.front_mut().expect("front exists");
            let is_last = t.next_chunk + 1 == t.total;
            let payload = if is_last {
                Payload::RcpEnd { seg: t.seg, inst_count: t.inst_count, cp: Box::new(t.cp) }
            } else {
                Payload::RcpChunk { seg: t.seg, chunk: t.next_chunk, total: t.total }
            };
            let mut pkt = Packet { seq: 0, dest: t.dest, payload, created_at: now };
            if is_last {
                injector.maybe_corrupt(&mut pkt, now, t.seg, seg_mgr);
            }
            t.next_chunk += 1;
            if t.next_chunk == t.total {
                self.transfers.pop_front();
            }
            pkt.seq = self.next_seq();
            fabric.try_push(lane, pkt).expect("admission checked");
        }
    }

    /// Whether all checkpoint data has left the DEU.
    pub fn transfers_drained(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Rewinds the DEU to the start of segment `seg` — the extraction
    /// half of a recovery rollback. In-flight transfers and the owed
    /// SRCP are squashed (the fabric flush drops their already-pushed
    /// chunks), the shadow state snaps to the restored checkpoint, and
    /// segmentation restarts at the rolled-back boundary.
    pub(crate) fn rollback(
        &mut self,
        seg: u32,
        cp: RegCheckpoint,
        csrs: BTreeMap<u16, u64>,
        commit_index: u64,
    ) {
        self.seg = seg;
        self.insts_in_seg = 0;
        self.records_in_seg = 0;
        self.kernel_trap_pending = false;
        self.shadow = cp;
        self.shadow_csrs = csrs;
        self.committed_total = commit_index;
        self.transfers.clear();
        self.owed = None;
        self.finalized = false;
    }
}

/// The DEU wired to the rest of the system for one big-core `tick` —
/// implements the big core's [`CommitHook`] observation channel.
pub struct DeuHook<'a> {
    /// DEU state.
    pub deu: &'a mut DeuState,
    /// The forwarding fabric (F2 or AXI).
    pub fabric: &'a mut Fabric,
    /// The little cores (for LSL admission queries and assignment).
    pub littles: &'a mut [LittleCore],
    /// Segment-to-checker scheduling.
    pub seg_mgr: &'a mut SegmentManager,
    /// Fault injector (corrupts forwarded packets).
    pub injector: &'a mut FaultInjector,
    /// Recovery manager (pins a checkpoint at every segment boundary;
    /// inert when the policy is disabled).
    pub recover: &'a mut RecoveryManager,
}

impl DeuHook<'_> {
    /// Ensures segment `seg` has a checker, delivering any owed SRCP to
    /// the newly assigned core. Returns the checker id if available.
    pub(crate) fn ensure_checker(&mut self, seg: u32) -> Option<usize> {
        if let Some(c) = self.seg_mgr.checker_of(seg) {
            return Some(c);
        }
        let c = self.seg_mgr.try_open(seg, self.littles)?;
        if let Some(owed) = self.deu.owed.take() {
            if owed.seg_to_open == seg {
                // Deliver the SRCP the multicast could not reach earlier —
                // unless the core carries it as its own previous ERCP.
                if !self.littles[c].carries(seg - 1) {
                    self.deu.queue_transfer(
                        owed.seg_to_open - 1,
                        owed.inst_count,
                        owed.cp,
                        DestMask::single(c),
                    );
                }
            } else {
                self.deu.owed = Some(owed);
            }
        }
        Some(c)
    }

    /// Handles a due segment boundary before committing an instruction.
    /// Returns `None` when commit may proceed, or a stall verdict.
    fn handle_boundary(&mut self, _now: u64) -> Option<CommitDecision> {
        let cur = self.deu.seg;
        // The current segment's checker receives the checkpoint as its
        // ERCP — unless it already delivered a (failure) verdict while
        // the segment was still committing.
        let cur_checker = if self.seg_mgr.is_concluded(cur) {
            None
        } else {
            match self.seg_mgr.checker_of(cur).or_else(|| self.ensure_checker(cur)) {
                Some(c) => Some(c),
                None => return Some(CommitDecision::Stall(CommitStall::LittleCore)),
            }
        };
        let mut dest = DestMask::default();
        if let Some(c) = cur_checker {
            dest = dest.with(c);
        }
        let cp = self.deu.shadow;
        let inst_count = self.deu.insts_in_seg;
        match self.seg_mgr.try_open(cur + 1, self.littles) {
            Some(next_checker) => {
                dest = dest.with(next_checker);
            }
            None => {
                // Selective broadcast: send now to the ready checker,
                // owe the SRCP to the eventual checker of cur + 1.
                self.deu.owed = Some(OwedSrcp { seg_to_open: cur + 1, cp, inst_count });
            }
        }
        if !dest.is_empty() {
            self.deu.queue_transfer(cur, inst_count, cp, dest);
        }
        // The injector learns where each segment's boundary fell so mask
        // records can carry exact detection-surface commit bounds.
        self.injector.on_boundary(cur, self.deu.committed_total);
        self.deu.rcps += 1;
        self.deu.seg = cur + 1;
        self.deu.insts_in_seg = 0;
        self.deu.records_in_seg = 0;
        self.deu.kernel_trap_pending = false;
        // The boundary state is the new segment's start checkpoint:
        // pinned until its verdict drains, it is what a detection in
        // segment `cur + 1` rolls back to.
        if self.recover.enabled() {
            self.recover.pin_checkpoint(
                cur + 1,
                self.deu.committed_total,
                cp,
                self.deu.shadow_csrs.clone(),
            );
        }
        None
    }

    /// Builds and pushes the run-time packet for a retiring instruction.
    fn push_runtime(&mut self, lane: usize, ret: &Retired, now: u64) -> Option<CommitDecision> {
        let seg = self.deu.seg;
        let payload = if let Some(m) = ret.mem {
            // Footnote 2: double-check the parity carried through the
            // LSQ window before the data leaves the core. An injected
            // LSQ-window flip strikes after the cache parity was copied,
            // so the check fails, the error is counted, and the clean
            // data is re-read — the corruption never leaves the core.
            self.deu.parity_checks += 1;
            let carried = byte_parity(m.data);
            let window_data = match self.injector.lsq_parity_strike(now, seg, BIG_CORE_NS_PER_CYCLE)
            {
                Some(bit) => m.data ^ (1 << (bit % (m.size as u32 * 8))),
                None => m.data,
            };
            if !meek_mem::check_parity(window_data, carried) {
                self.deu.parity_errors += 1;
            }
            Payload::Mem { seg, addr: m.addr, size: m.size, data: m.data, is_store: m.is_store }
        } else if let Some((addr, data)) = ret.csr_read {
            Payload::Csr { seg, addr, data }
        } else {
            return None;
        };
        if self.seg_mgr.is_concluded(seg) {
            // The checker already reported this segment (a detection
            // fired mid-segment); the remaining records have no consumer.
            return None;
        }
        let Some(checker) = self.ensure_checker(seg) else {
            return Some(CommitDecision::Stall(CommitStall::LittleCore));
        };
        if !self.fabric.can_push(lane, PacketKind::Runtime) {
            let reason = if !self.littles[checker].lsl.can_accept(PacketKind::Runtime) {
                CommitStall::LittleCore
            } else {
                CommitStall::DataForward
            };
            return Some(CommitDecision::Stall(reason));
        }
        let mut pkt = Packet { seq: 0, dest: DestMask::single(checker), payload, created_at: now };
        self.injector.maybe_corrupt(&mut pkt, now, seg, self.seg_mgr);
        pkt.seq = self.deu.next_seq();
        self.fabric.try_push(lane, pkt).expect("admission checked");
        self.deu.runtime_packets += 1;
        self.deu.records_in_seg += 1;
        None
    }

    fn update_shadow(&mut self, ret: &Retired) {
        match ret.wb {
            Some((WbDest::Int(r), v)) if r.index() != 0 => {
                self.deu.shadow.x[r.index() as usize] = v;
            }
            Some((WbDest::Int(_), _)) => {} // x0 writes are architectural no-ops
            Some((WbDest::Fp(r), v)) => self.deu.shadow.f[r.index() as usize] = v,
            None => {}
        }
        if let Some((addr, v)) = ret.csr_write {
            self.deu.shadow_csrs.insert(addr, v);
        }
        self.deu.shadow.pc = ret.next_pc;
    }
}

impl CommitHook for DeuHook<'_> {
    fn on_commit(&mut self, lane: usize, ret: &Retired, now: u64) -> CommitDecision {
        if self.deu.boundary_due() {
            if let Some(stall) = self.handle_boundary(now) {
                return stall;
            }
        }
        if let Some(stall) = self.push_runtime(lane, ret, now) {
            return stall;
        }
        self.update_shadow(ret);
        self.deu.insts_in_seg += 1;
        self.deu.committed_total += 1;
        if ret.is_kernel_trap {
            self.deu.kernel_trap_pending = true;
        }
        CommitDecision::Proceed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSite, FaultSpec};
    use meek_fabric::{DcBufferConfig, FabricKind};
    use meek_isa::inst::{AluImmOp, Inst};
    use meek_isa::{ExecClass, Reg};
    use meek_littlecore::LittleCoreConfig;

    fn fake_retired(seg_pc: u64, mem: Option<meek_isa::MemAccess>, trap: bool) -> Retired {
        let inst = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 1 };
        Retired {
            pc: seg_pc,
            raw: 0,
            inst,
            class: if mem.is_some() { ExecClass::Load } else { ExecClass::IntAlu },
            next_pc: seg_pc + 4,
            branch: None,
            mem,
            csr_read: None,
            csr_write: None,
            is_kernel_trap: trap,
            syscall: None,
            wb: Some((WbDest::Int(Reg::X1), 7)),
        }
    }

    struct Rig {
        deu: DeuState,
        fabric: Fabric,
        littles: Vec<LittleCore>,
        seg_mgr: SegmentManager,
        injector: FaultInjector,
        recover: RecoveryManager,
    }

    impl Rig {
        fn new(n_little: usize, budget: u64, timeout: u64) -> Rig {
            let mut rig = Rig {
                deu: DeuState::new(4, 4, budget, timeout, RegCheckpoint::zeroed(0x1000)),
                fabric: Fabric::new(FabricKind::F2, 4, DcBufferConfig::default()),
                littles: (0..n_little)
                    .map(|i| LittleCore::new(i, LittleCoreConfig::optimized(), 17))
                    .collect(),
                seg_mgr: SegmentManager::new(),
                injector: FaultInjector::new(vec![]),
                recover: RecoveryManager::new(meek_recover::RecoveryPolicy::default()),
            };
            // Segment 1 opens at b.hook time.
            rig.seg_mgr.try_open(1, &mut rig.littles).expect("core available");
            rig
        }

        fn hook(&mut self) -> DeuHook<'_> {
            DeuHook {
                deu: &mut self.deu,
                fabric: &mut self.fabric,
                littles: &mut self.littles,
                seg_mgr: &mut self.seg_mgr,
                injector: &mut self.injector,
                recover: &mut self.recover,
            }
        }
    }

    #[test]
    fn timeout_triggers_rcp() {
        let mut rig = Rig::new(2, 1_000_000, 10);
        for i in 0..10 {
            let r = fake_retired(0x1000 + i * 4, None, false);
            assert_eq!(rig.hook().on_commit(0, &r, i), CommitDecision::Proceed);
        }
        assert_eq!(rig.deu.rcps, 0);
        // The 11th commit crosses the timeout boundary.
        let r = fake_retired(0x1028, None, false);
        assert_eq!(rig.hook().on_commit(0, &r, 10), CommitDecision::Proceed);
        assert_eq!(rig.deu.rcps, 1);
        assert_eq!(rig.deu.seg, 2);
        assert_eq!(rig.deu.insts_in_seg(), 1);
    }

    #[test]
    fn record_budget_triggers_rcp() {
        let mut rig = Rig::new(2, 3, 1_000_000);
        for i in 0..4 {
            let mem = Some(meek_isa::MemAccess {
                addr: 0x8000 + i * 8,
                size: 8,
                data: i,
                is_store: false,
            });
            let r = fake_retired(0x1000 + i * 4, mem, false);
            assert_eq!(rig.hook().on_commit(0, &r, i), CommitDecision::Proceed, "commit {i}");
        }
        assert_eq!(rig.deu.rcps, 1, "boundary after 3 records");
        assert_eq!(rig.deu.seg, 2);
    }

    #[test]
    fn kernel_trap_triggers_rcp() {
        let mut rig = Rig::new(2, 1_000_000, 1_000_000);
        let r = fake_retired(0x1000, None, true);
        rig.hook().on_commit(0, &r, 0);
        assert_eq!(rig.deu.rcps, 0);
        let r2 = fake_retired(0x1004, None, false);
        rig.hook().on_commit(0, &r2, 1);
        assert_eq!(rig.deu.rcps, 1, "RCP right after the trap");
    }

    #[test]
    fn single_core_owes_srcp_and_makes_progress() {
        let mut rig = Rig::new(1, 2, 1_000_000);
        // Fill segment 1's budget.
        for i in 0..2 {
            let mem = Some(meek_isa::MemAccess {
                addr: 0x8000 + i * 8,
                size: 8,
                data: i,
                is_store: false,
            });
            let r = fake_retired(0x1000 + i * 4, mem, false);
            assert_eq!(rig.hook().on_commit(0, &r, i), CommitDecision::Proceed);
        }
        // Boundary: the only core is busy with segment 1, so the next
        // segment cannot open — but the ERCP is still emitted (owed
        // SRCP), and the boundary itself does not stall commit of
        // non-memory instructions.
        let r = fake_retired(0x1010, None, false);
        assert_eq!(rig.hook().on_commit(0, &r, 3), CommitDecision::Proceed);
        assert_eq!(rig.deu.rcps, 1);
        assert_eq!(rig.deu.seg, 2);
        // A memory op in segment 2 cannot be logged yet: no checker.
        let mem = Some(meek_isa::MemAccess { addr: 0x9000, size: 8, data: 1, is_store: true });
        let r = fake_retired(0x1014, mem, false);
        assert_eq!(rig.hook().on_commit(0, &r, 4), CommitDecision::Stall(CommitStall::LittleCore));
    }

    /// Drives a one-checker rig past segment 1's boundary, so the SRCP of
    /// segment 2 is owed, then frees the checker with `carried` in its
    /// carried slot and logs a record of segment 2. Returns whether the
    /// owed SRCP was queued for the checker.
    fn owed_srcp_sent_to_a_checker_carrying(carried: u32) -> bool {
        let mut rig = Rig::new(1, 1, 1_000_000);
        let mem = |addr| Some(meek_isa::MemAccess { addr, size: 8, data: 1, is_store: false });
        rig.hook().on_commit(0, &fake_retired(0x1000, mem(0x8000), false), 0);
        rig.hook().on_commit(0, &fake_retired(0x1004, None, false), 1);
        assert_eq!(rig.deu.seg, 2);
        rig.deu.pump_transfers(&mut rig.fabric, &mut rig.injector, &rig.seg_mgr, 2);
        assert!(rig.deu.transfers_drained(), "segment 1's ERCP is on its way");
        // Segment 1's verdict frees the checker.
        rig.seg_mgr.finish(1, true);
        rig.littles[0].reset();
        rig.littles[0].seed_carried_srcp(carried, RegCheckpoint::zeroed(0x1004));
        let load = fake_retired(0x1008, mem(0x8008), false);
        assert_eq!(rig.hook().on_commit(0, &load, 3), CommitDecision::Proceed);
        assert_eq!(rig.seg_mgr.checker_of(2), Some(0));
        !rig.deu.transfers_drained()
    }

    #[test]
    fn a_checker_carrying_the_owed_srcp_is_not_sent_it_again() {
        assert!(!owed_srcp_sent_to_a_checker_carrying(1));
        assert!(owed_srcp_sent_to_a_checker_carrying(0));
    }

    #[test]
    fn shadow_tracks_writebacks() {
        let mut rig = Rig::new(2, 1_000_000, 1_000_000);
        let r = fake_retired(0x1000, None, false);
        rig.hook().on_commit(0, &r, 0);
        assert_eq!(rig.deu.shadow.x[1], 7);
        assert_eq!(rig.deu.shadow.pc, 0x1004);
    }

    #[test]
    fn chunking_matches_fabric_width() {
        let deu = DeuState::new(4, 4, 10, 10, RegCheckpoint::zeroed(0));
        assert_eq!(deu.chunks_per_cp(), 17); // ceil(65 / 4)
        let deu2 = DeuState::new(4, 2, 10, 10, RegCheckpoint::zeroed(0));
        assert_eq!(deu2.chunks_per_cp(), 33); // ceil(65 / 2)
    }

    #[test]
    fn a_fault_offered_to_a_full_dc_buffer_stays_armed_until_the_push_fits() {
        let mut rig = Rig::new(2, 1_000_000, 1_000_000);
        let spec = FaultSpec { arm_at_commit: 0, site: FaultSite::MemData, bit: 3 };
        rig.injector = FaultInjector::new(vec![spec]);
        rig.injector.advance(0);
        // Fill lane 0's run-time FIFO.
        for seq in 100.. {
            let payload = Payload::Csr { seg: 1, addr: 0x300, data: seq };
            let pkt = Packet { seq, dest: DestMask::single(1), payload, created_at: 0 };
            if rig.fabric.try_push(0, pkt).is_err() {
                break;
            }
        }
        let mem = Some(meek_isa::MemAccess { addr: 0x8000, size: 8, data: 5, is_store: false });
        let load = fake_retired(0x1000, mem, false);
        let stall = CommitDecision::Stall(CommitStall::DataForward);
        assert_eq!(rig.hook().on_commit(0, &load, 0), stall);
        assert!(!rig.injector.busy(), "the refused packet was never corrupted");
        assert!(rig.injector.take_injections().is_empty(), "no injection logged");
        assert_eq!(rig.injector.unresolved(), 1, "the fault is still armed");
        assert_eq!(rig.deu.runtime_packets, 0);
        // Room opens up: the retried push carries the corruption.
        rig.fabric.flush();
        assert_eq!(rig.hook().on_commit(0, &load, 1), CommitDecision::Proceed);
        assert!(rig.injector.busy(), "the fault fired on the retried push");
        assert_eq!(rig.injector.take_injections(), vec![(FaultSite::MemData, 1, 1)]);
        assert_eq!(rig.deu.runtime_packets, 1);
    }

    #[test]
    fn pump_streams_checkpoints() {
        let mut rig = Rig::new(2, 1, 1_000_000);
        // One record then a boundary.
        let mem = Some(meek_isa::MemAccess { addr: 0x8000, size: 8, data: 5, is_store: false });
        rig.hook().on_commit(0, &fake_retired(0x1000, mem, false), 0);
        rig.hook().on_commit(0, &fake_retired(0x1004, None, false), 1);
        assert_eq!(rig.deu.rcps, 1);
        assert!(!rig.deu.transfers_drained());
        for now in 2..50 {
            rig.deu.pump_transfers(&mut rig.fabric, &mut rig.injector, &rig.seg_mgr, now);
        }
        assert!(rig.deu.transfers_drained());
    }
}
