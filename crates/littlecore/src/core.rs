//! The little-core pipeline model and checker state machine.
//!
//! The checker thread's programming model (Algorithm 2 of the paper) is
//! realised as a phase machine driven by the MSU:
//!
//! 1. **WaitSrcp** — the `while (MEEK.NewSRCP()->invalid);` busy loop,
//!    waiting for the segment's Start-RCP to be assembled in the LSL;
//! 2. **Apply** — `l.apply`, streaming the checkpoint into the register
//!    files;
//! 3. **Replay** — re-executing the segment's instructions with the
//!    Memory-Access stage multiplexed onto the LSL;
//! 4. **Compare** — the End-RCP register-file comparison, after which
//!    `l.rslt` reports pass/fail and the core returns to WaitSrcp.
//!
//! Memory-operation mismatches (address, size, value, record type) are
//! detected *during* replay, directly in the LSL (paper footnote 1);
//! register corruptions are caught at the ERCP comparison.

use crate::config::LittleCoreConfig;
use crate::lsl::{LoadStoreLog, RuntimeRecord, StatusRecord};
use meek_fabric::{Packet, PacketKind, PacketSink};
use meek_isa::exec;
use meek_isa::inst::{ExecClass, Inst};
use meek_isa::state::{CheckpointMismatch, RegCheckpoint};
use meek_isa::{decode, ArchState, Bus, PreDecoded, Reg, SparseMemory};
use meek_mem::MemHierarchy;
use std::sync::Arc;

/// What diverged when a check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchKind {
    /// A replayed load computed a different effective address.
    LoadAddr,
    /// A replayed store computed a different effective address.
    StoreAddr,
    /// A replayed store produced different data.
    StoreData,
    /// Access width differed from the logged record.
    AccessSize,
    /// The log supplied a record of the wrong type (load vs store vs CSR).
    RecordType,
    /// A replayed CSR access targeted a different CSR.
    CsrAddr,
    /// Replay raised a trap the main thread did not (e.g. a corrupted
    /// SRCP PC steering fetch into non-code bytes). Carries the fetch
    /// that failed so the diagnostic pins down *where* replay left the
    /// decodable code image.
    ReplayTrap {
        /// PC of the undecodable fetch.
        pc: u64,
        /// The word that failed to decode.
        word: u32,
    },
    /// The ERCP register-file comparison failed.
    Register(CheckpointMismatch),
}

/// The checker's verdict on one segment (`l.rslt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentVerdict {
    /// Segment id.
    pub seg: u32,
    /// `true` if every comparison matched.
    pub pass: bool,
    /// First divergence observed, if any.
    pub mismatch: Option<MismatchKind>,
}

/// Stall/activity accounting for one little core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LittleCoreStats {
    /// Instructions replayed.
    pub replayed_insts: u64,
    /// Cycles spent replaying (issue + structural stalls).
    pub busy_cycles: u64,
    /// Cycles spent waiting for LSL data (SRCP or run-time records).
    pub wait_data_cycles: u64,
    /// Cycles spent in `l.apply` checkpoint restores.
    pub apply_cycles: u64,
    /// Cycles spent in ERCP comparisons.
    pub compare_cycles: u64,
    /// Stall cycles attributable to the divider.
    pub div_stall_cycles: u64,
    /// Stall cycles attributable to the FPU.
    pub fp_stall_cycles: u64,
    /// Stall cycles attributable to I-cache misses.
    pub icache_stall_cycles: u64,
    /// Segments fully verified.
    pub segments_checked: u64,
    /// Segments that failed verification.
    pub mismatches: u64,
}

#[derive(Debug, Clone)]
enum Phase {
    /// Algorithm 2 line 19: busy-wait for the SRCP.
    WaitSrcp,
    /// `l.apply` in progress.
    Apply { remaining: u64 },
    /// Replaying the current segment.
    Replay,
    /// ERCP register comparison in progress.
    Compare { remaining: u64, result: Option<MismatchKind> },
}

/// Outcome of one replay-phase step.
enum StepResult {
    /// An instruction issued (or an I-cache miss stalled the fetch);
    /// `busy_until` has been advanced past the cost.
    Busy,
    /// The core is starved of LSL data at this cycle.
    Starved,
    /// The segment boundary was reached; the phase is now `Compare`
    /// with the comparison result already latched.
    ToCompare,
    /// Replay diverged from the log; the segment fails without an ERCP
    /// comparison.
    Diverged(MismatchKind),
}

/// One little core with MSU and LSL, running a checker thread.
///
/// [`LittleCore::check`] drives the checker, one little-core cycle at a
/// time in the system or a whole segment at a time in the oracles;
/// forwarded packets arrive in [`LittleCore::lsl`] through the fabric's
/// `PacketSink` interface.
#[derive(Debug, Clone)]
pub struct LittleCore {
    /// Core id (the index the fabric's `DestMask` refers to).
    pub id: usize,
    cfg: LittleCoreConfig,
    /// The Load-Store Log (exposed so the fabric can deliver into it).
    pub lsl: LoadStoreLog,
    hier: MemHierarchy,
    arch: ArchState,
    phase: Phase,
    /// Segment currently assigned by the scheduler (`None` = idle core).
    assignment: Option<u32>,
    /// SRCP retained from the previous segment's ERCP (single-core case:
    /// checkpoint n is both ERCP of n and SRCP of n+1).
    carried_srcp: Option<StatusRecord>,
    /// The ERCP being waited for / compared against.
    ercp: Option<StatusRecord>,
    /// Replay progress within the current segment.
    replayed: u64,
    /// Destination register of the previous instruction if it was a load
    /// (for the load-use bubble).
    last_load_dest: Option<Reg>,
    /// Little-cycle until which the pipeline is busy.
    busy_until: u64,
    stats: LittleCoreStats,
    /// Pre-decoded code table shared with the other execution ways
    /// (installed by the system; replay falls back to word decode for
    /// PCs it does not cover).
    predecoded: Option<Arc<PreDecoded>>,
    /// Initial CSR file of the program under check (loaded images carry
    /// e.g. the OS-surface enable CSR). Checkpoints deliberately exclude
    /// CSRs, so the system seeds these at `b.hook` time and re-seeds
    /// them whenever the core is reset.
    initial_csrs: Option<Arc<std::collections::BTreeMap<u16, u64>>>,
}

impl LittleCore {
    /// Creates an idle little core whose LSL receives checkpoints in
    /// `chunks_per_cp` fabric chunks each.
    pub fn new(id: usize, cfg: LittleCoreConfig, chunks_per_cp: usize) -> LittleCore {
        LittleCore {
            id,
            cfg,
            lsl: LoadStoreLog::new(cfg.lsl, chunks_per_cp),
            hier: MemHierarchy::new(cfg.hierarchy),
            arch: ArchState::new(0),
            phase: Phase::WaitSrcp,
            assignment: None,
            carried_srcp: None,
            ercp: None,
            replayed: 0,
            last_load_dest: None,
            busy_until: 0,
            stats: LittleCoreStats::default(),
            predecoded: None,
            initial_csrs: None,
        }
    }

    /// Installs a pre-decoded view of the program image, replacing
    /// per-instruction word decode in the replay loop with table
    /// lookups. The table must describe the same code `check`'s `imem`
    /// holds.
    pub fn install_predecode(&mut self, pd: Arc<PreDecoded>) {
        self.predecoded = Some(pd);
    }

    /// Installs the program's initial CSR file into the replay state,
    /// and remembers it so [`LittleCore::reset`] re-seeds it. Register
    /// checkpoints exclude CSRs by design, so without this a replayed
    /// `ecall` of a loaded image would see the OS-surface gate CSR as
    /// zero and diverge from the golden way.
    pub fn install_initial_csrs(&mut self, csrs: Arc<std::collections::BTreeMap<u16, u64>>) {
        for (&addr, &v) in csrs.iter() {
            self.arch.set_csr(addr, v);
        }
        self.initial_csrs = Some(csrs);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LittleCoreStats {
        self.stats
    }

    /// Bytes of cache tag state this core's hierarchy has materialised
    /// ([`MemHierarchy::state_bytes`]).
    pub fn cache_state_bytes(&self) -> u64 {
        self.hier.state_bytes()
    }

    /// The segment currently assigned, if any.
    pub fn assignment(&self) -> Option<u32> {
        self.assignment
    }

    /// Whether the core is between segments (can take a new assignment).
    pub fn is_idle(&self) -> bool {
        self.assignment.is_none()
    }

    /// Assigns a segment to verify. Called by the scheduler after
    /// `b.hook`/`l.mode` reserve this core's LSL for the checker thread.
    ///
    /// # Panics
    ///
    /// Panics if the core already has an assignment.
    pub fn assign(&mut self, seg: u32) {
        assert!(self.assignment.is_none(), "core {} already has an assignment", self.id);
        self.assignment = Some(seg);
        self.phase = Phase::WaitSrcp;
        self.replayed = 0;
    }

    /// Whether the carried slot holds checkpoint `seg`: the ERCP of
    /// segment `seg` this core verified, kept as the SRCP of segment
    /// `seg + 1`.
    pub fn carries(&self, seg: u32) -> bool {
        self.carried_srcp.as_ref().is_some_and(|r| r.seg == seg)
    }

    /// Replay progress (instructions replayed in the current segment).
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Runs the checker from little-cycle `now` through `deadline`: the
    /// only entry point of the segment protocol (wait for the SRCP,
    /// apply it, replay against the LSL, compare the ERCP). `imem` is
    /// the shared read-only program image.
    ///
    /// An `Apply` or `Compare` countdown spends at most the cycles left
    /// before `deadline`, so a call with `deadline == now` advances
    /// exactly one cycle. The system drives its checkers that way,
    /// because their per-cycle LSL occupancy is what the fabric's
    /// backpressure observes. The oracles pre-deliver a whole segment
    /// into the LSL and pass a far deadline instead: one call then
    /// fast-forwards countdowns and busy windows until the segment
    /// closes or the LSL starves, with the same verdict, statistics
    /// and architectural effects as the per-cycle drive.
    ///
    /// Returns the little-cycle the core is next runnable at, and the
    /// segment's verdict if one was reached (the returned cycle is then
    /// the one after it). No verdict means the core starved (no SRCP,
    /// no run-time record, or no assignment) or reached `deadline`.
    pub fn check(
        &mut self,
        now: u64,
        imem: &SparseMemory,
        deadline: u64,
    ) -> (u64, Option<SegmentVerdict>) {
        let mut vnow = now.max(self.busy_until);
        let Some(seg) = self.assignment else {
            return (vnow, None);
        };
        let verdict = loop {
            if vnow > deadline {
                break None;
            }
            // The cycles a countdown may spend in this call; saturating,
            // so a `u64::MAX` deadline cannot overflow.
            let budget = (deadline - vnow).saturating_add(1);
            match &mut self.phase {
                Phase::WaitSrcp => {
                    let Some(srcp) = self.take_srcp(seg) else {
                        self.stats.wait_data_cycles += 1;
                        vnow += 1;
                        break None;
                    };
                    self.arch.apply_checkpoint(&srcp.cp);
                    self.phase = Phase::Apply { remaining: self.cfg.apply_latency };
                    vnow += 1;
                }
                Phase::Apply { remaining } => {
                    let spent = budget.min(*remaining);
                    *remaining -= spent;
                    self.stats.apply_cycles += spent;
                    vnow += spent;
                    if *remaining == 0 {
                        self.phase = Phase::Replay;
                        self.last_load_dest = None;
                    }
                }
                Phase::Replay => match self.replay_step(vnow, seg, imem) {
                    StepResult::Busy => vnow = self.busy_until,
                    StepResult::Starved => {
                        self.stats.wait_data_cycles += 1;
                        vnow += 1;
                        break None;
                    }
                    StepResult::ToCompare => vnow += 1,
                    StepResult::Diverged(kind) => {
                        vnow += 1;
                        break Some(self.finish_segment(seg, Some(kind)));
                    }
                },
                Phase::Compare { remaining, result } => {
                    let spent = budget.min(*remaining);
                    *remaining -= spent;
                    self.stats.compare_cycles += spent;
                    vnow += spent;
                    if *remaining == 0 {
                        let mismatch = *result;
                        break Some(self.finish_segment(seg, mismatch));
                    }
                }
            }
        };
        self.busy_until = vnow;
        (vnow, verdict)
    }

    /// The SRCP of segment `seg`, which is checkpoint `seg - 1`: carried
    /// over when this core verified segment `seg - 1`, else taken from
    /// the LSL. Stale checkpoints are dropped first either way.
    fn take_srcp(&mut self, seg: u32) -> Option<StatusRecord> {
        self.lsl.drop_stale_status(seg - 1);
        if self.carries(seg - 1) {
            self.carried_srcp.take()
        } else {
            self.lsl.take_status(seg - 1)
        }
    }

    /// The Mini-Decoder: the `(raw, decoded)` pair for the current PC,
    /// through the pre-decoded table when one is installed and covers
    /// the PC, falling back to a word fetch+decode from `imem`.
    #[inline]
    fn fetch_decoded(&self, imem: &SparseMemory) -> (u32, Option<Inst>) {
        if let Some(entry) = self.predecoded.as_deref().and_then(|pd| pd.lookup(self.arch.pc)) {
            return entry;
        }
        let raw = imem.peek_inst(self.arch.pc);
        (raw, decode(raw).ok())
    }

    fn replay_step(&mut self, now: u64, seg: u32, imem: &SparseMemory) -> StepResult {
        // Do we know the segment length yet?
        if self.ercp.is_none() {
            self.ercp = self.lsl.take_status(seg);
        }
        let end = self.ercp.as_ref().map(|r| r.inst_count);
        if end.is_some_and(|end| self.replayed >= end) {
            self.phase =
                Phase::Compare { remaining: self.cfg.compare_latency, result: self.compare_ercp() };
            return StepResult::ToCompare;
        }
        self.lsl.drop_stale_runtime(seg);
        // Without the ERCP we may only replay while the next run-time
        // record provably belongs to this segment — this keeps the
        // checker behind the main thread (the paper's deadlock fix) and
        // prevents overrunning the unknown segment boundary.
        if end.is_none() && self.lsl.peek_runtime().is_none_or(|r| r.seg() != seg) {
            return StepResult::Starved;
        }
        // Fetch through the 4 KB I-cache.
        let fetch = self.hier.inst_fetch(self.arch.pc, now);
        if fetch.ready_at > now + 1 {
            let stall = fetch.ready_at - now - 1;
            self.stats.icache_stall_cycles += stall;
            self.busy_until = fetch.ready_at - 1;
            // The instruction issues when fetch resolves; charge the wait
            // and fall through next tick.
            return StepResult::Busy;
        }
        let (raw, decoded) = self.fetch_decoded(imem);
        let Some(inst) = decoded else {
            return StepResult::Diverged(MismatchKind::ReplayTrap { pc: self.arch.pc, word: raw });
        };
        // Structural timing: issue cost in cycles beyond this one.
        let mut extra = 0u64;
        match inst.class() {
            ExecClass::IntDiv => {
                let c = self.cfg.div_latency() - 1;
                self.stats.div_stall_cycles += c;
                extra += c;
            }
            ExecClass::IntMul => {
                let c = self.cfg.mul_latency - 1;
                extra += c;
            }
            ExecClass::FpDiv => {
                let c = self.cfg.fdiv_latency - 1;
                self.stats.fp_stall_cycles += c;
                extra += c;
            }
            ExecClass::FpAdd | ExecClass::FpMul => {
                let c = self.cfg.fp_issue_cost() - 1;
                self.stats.fp_stall_cycles += c;
                extra += c;
            }
            _ => {}
        }
        // Load-use bubble.
        if let Some(dest) = self.last_load_dest {
            if inst.int_srcs().iter().flatten().any(|&r| r == dest) {
                extra += 1;
            }
        }
        self.last_load_dest = None;
        // Execute, with memory multiplexed onto the LSL.
        let outcome = self.replay_inst(seg, inst, raw);
        self.replayed += 1;
        self.stats.replayed_insts += 1;
        match outcome {
            Ok(redirect) => {
                if redirect {
                    extra += self.cfg.branch_penalty;
                }
                self.stats.busy_cycles += 1 + extra;
                self.busy_until = now + 1 + extra;
                if let Inst::Load { rd, .. } = inst {
                    self.last_load_dest = Some(rd);
                }
                // Check for segment end right away so the Compare phase
                // begins on the next cycle.
                StepResult::Busy
            }
            Err(kind) => StepResult::Diverged(kind),
        }
    }

    /// Replays one instruction; `Ok(true)` means the PC was redirected.
    fn replay_inst(&mut self, seg: u32, inst: Inst, raw: u32) -> Result<bool, MismatchKind> {
        let pc = self.arch.pc;
        match inst {
            Inst::Load { rs1, offset, .. } | Inst::Fld { rs1, offset, .. } => {
                let size = if let Inst::Load { op, .. } = inst { op.size() } else { 8 };
                let data = self.replay_access(seg, rs1, offset, size, None)?;
                match inst {
                    Inst::Load { rd, .. } => self.arch.set_x(rd, data),
                    Inst::Fld { rd, .. } => self.arch.set_f(rd, data),
                    _ => unreachable!("matched a load"),
                }
            }
            Inst::Store { rs1, offset, .. } | Inst::Fsd { rs1, offset, .. } => {
                let (size, data) = match inst {
                    Inst::Store { op, rs2, .. } => {
                        let size = op.size();
                        let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
                        (size, self.arch.x(rs2) & mask)
                    }
                    Inst::Fsd { rs2, .. } => (8, self.arch.f(rs2)),
                    _ => unreachable!("matched a store"),
                };
                self.replay_access(seg, rs1, offset, size, Some(data))?;
            }
            Inst::Csr { rd, csr, .. } => {
                // Non-repeatable: take the logged value (paper footnote 1).
                let RuntimeRecord::Csr { addr, data, .. } = self.next_record(seg)? else {
                    return Err(MismatchKind::RecordType);
                };
                if addr != csr {
                    return Err(MismatchKind::CsrAddr);
                }
                // Only the read value is architecturally visible to the
                // replay; the write side-effect is re-applied to the
                // local CSR file for completeness.
                self.arch.set_csr(csr, data);
                self.arch.set_x(rd, data);
            }
            _ => {
                // Repeatable instructions replay functionally; they cannot
                // touch memory (Load/Store/Csr handled above).
                let r = exec::execute(&mut self.arch, &mut NoMem, pc, raw, inst);
                return Ok(r.branch.is_some_and(|b| b.taken));
            }
        }
        self.arch.pc = pc.wrapping_add(4);
        Ok(false)
    }

    /// Pops the next run-time record, which must belong to `seg`.
    fn next_record(&mut self, seg: u32) -> Result<RuntimeRecord, MismatchKind> {
        self.lsl.pop_runtime().filter(|r| r.seg() == seg).ok_or(MismatchKind::RecordType)
    }

    /// Matches a replayed `size`-byte access at `rs1 + offset` against
    /// the next memory record of `seg`: a load when `store` is `None`,
    /// else a store whose payload must equal the logged data. Returns
    /// the logged data.
    fn replay_access(
        &mut self,
        seg: u32,
        rs1: Reg,
        offset: i32,
        size: u8,
        store: Option<u64>,
    ) -> Result<u64, MismatchKind> {
        let addr = self.arch.x(rs1).wrapping_add(offset as i64 as u64) & !(size as u64 - 1);
        let RuntimeRecord::Mem { addr: raddr, size: rsize, data, is_store, .. } =
            self.next_record(seg)?
        else {
            return Err(MismatchKind::RecordType);
        };
        if is_store != store.is_some() {
            return Err(MismatchKind::RecordType);
        }
        if rsize != size {
            return Err(MismatchKind::AccessSize);
        }
        if raddr != addr {
            return Err(if is_store { MismatchKind::StoreAddr } else { MismatchKind::LoadAddr });
        }
        if store.is_some_and(|payload| payload != data) {
            return Err(MismatchKind::StoreData);
        }
        Ok(data)
    }

    fn compare_ercp(&self) -> Option<MismatchKind> {
        let ercp = self.ercp.as_ref().expect("compare requires ERCP");
        let ours = self.arch.checkpoint();
        ercp.cp.first_mismatch(&ours).map(MismatchKind::Register)
    }

    fn finish_segment(&mut self, seg: u32, mismatch: Option<MismatchKind>) -> SegmentVerdict {
        self.stats.segments_checked += 1;
        if mismatch.is_some() {
            self.stats.mismatches += 1;
        }
        // Retain the ERCP: it is the SRCP of segment seg + 1 if this core
        // is assigned that segment next.
        self.carried_srcp = self.ercp.take();
        // Drop any unconsumed run-time records of this segment (a detected
        // divergence abandons the remainder of the log).
        while self.lsl.peek_runtime().map(|r| r.seg()) == Some(seg) {
            self.lsl.pop_runtime();
        }
        self.assignment = None;
        self.replayed = 0;
        self.phase = Phase::WaitSrcp;
        SegmentVerdict { seg, pass: mismatch.is_none(), mismatch }
    }

    /// Warms the code image into the shared cache levels (the big core
    /// has already been executing this program, so the little core's
    /// instruction misses hit a warm shared L2 rather than DRAM). The
    /// private 4 KB L1I is flushed afterwards so its capacity pressure
    /// stays realistic.
    pub fn prewarm_code(&mut self, base: u64, len: u64) {
        let mut addr = base & !63;
        while addr < base + len {
            let _ = self.hier.inst_fetch(addr, 0);
            let _ = self.hier.inst_fetch(addr, 0);
            addr += 64;
        }
        self.hier.flush_l1();
    }

    /// Seeds the SRCP for the very first segment (checkpoint 0 — the
    /// program's initial architectural state, synthesised by the OS at
    /// `b.hook` time rather than forwarded through the fabric).
    pub fn seed_initial_checkpoint(&mut self, cp: RegCheckpoint) {
        self.seed_carried_srcp(0, cp);
    }

    /// Seeds checkpoint `prev_seg` (the SRCP of segment `prev_seg + 1`)
    /// directly into the carried slot. Used at boot (checkpoint 0) and
    /// by the recovery subsystem when a rollback re-opens a segment
    /// whose start checkpoint is pinned in the big core's checkpoint
    /// store rather than resident in any LSL.
    pub fn seed_carried_srcp(&mut self, prev_seg: u32, cp: RegCheckpoint) {
        self.carried_srcp = Some(StatusRecord { seg: prev_seg, inst_count: 0, cp });
    }

    /// Resets the checker for reuse by the scheduler: the LSL, the
    /// private L1 and the segment state are cleared (a recovery rollback
    /// squashes every checker this way before re-opening a segment).
    pub fn reset(&mut self) {
        self.lsl.clear();
        self.hier.flush_l1();
        self.phase = Phase::WaitSrcp;
        self.assignment = None;
        self.carried_srcp = None;
        self.ercp = None;
        self.replayed = 0;
        self.busy_until = 0;
        self.last_load_dest = None;
        if let Some(csrs) = self.initial_csrs.clone() {
            for (&addr, &v) in csrs.iter() {
                self.arch.set_csr(addr, v);
            }
        }
    }
}

/// The fabric delivers into a checker's Load-Store Log: a little core is
/// the packet sink its `DestMask` bit names.
impl PacketSink for LittleCore {
    #[inline]
    fn can_accept(&self, kind: PacketKind) -> bool {
        self.lsl.can_accept(kind)
    }

    #[inline]
    fn deliver(&mut self, pkt: Packet, now: u64) {
        self.lsl.deliver(pkt, now);
    }
}

/// A `Bus` for replay of non-memory instructions: any access is a logic
/// error, because loads/stores/CSRs are intercepted before execution.
struct NoMem;

impl Bus for NoMem {
    fn read(&mut self, _addr: u64, _size: u8) -> u64 {
        unreachable!("non-memory instruction accessed memory during replay")
    }

    fn write(&mut self, _addr: u64, _size: u8, _val: u64) {
        unreachable!("non-memory instruction accessed memory during replay")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_fabric::{DestMask, Packet, PacketSink, Payload};
    use meek_isa::encode;
    use meek_isa::inst::{AluImmOp, AluOp, BranchOp, LoadOp, StoreOp};

    const CHUNKS: usize = 17;

    /// Builds a tiny program, runs it functionally to produce the log and
    /// checkpoints, and returns (imem, srcp, records, ercp, n_insts).
    fn golden_run(insts: &[Inst]) -> (SparseMemory, RegCheckpoint, Vec<Packet>, RegCheckpoint) {
        let words: Vec<u32> = insts.iter().map(encode).collect();
        let mut mem = SparseMemory::new();
        mem.load_program(0x1000, &words);
        // Data region init.
        for i in 0..64u64 {
            mem.write(0x8000 + i * 8, 8, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let mut st = ArchState::new(0x1000);
        st.set_x(Reg::X5, 0x8000);
        let srcp = st.checkpoint();
        let end_pc = 0x1000 + 4 * words.len() as u64;
        let mut pkts = Vec::new();
        let mut seq = 0u64;
        while st.pc < end_pc {
            let r = exec::step(&mut st, &mut mem).expect("golden run must not trap");
            if let Some(m) = r.mem {
                pkts.push(Packet {
                    seq,
                    dest: DestMask::single(0),
                    payload: Payload::Mem {
                        seg: 1,
                        addr: m.addr,
                        size: m.size,
                        data: m.data,
                        is_store: m.is_store,
                    },
                    created_at: 0,
                });
                seq += 1;
            }
            if let Some((addr, data)) = r.csr_read {
                pkts.push(Packet {
                    seq,
                    dest: DestMask::single(0),
                    payload: Payload::Csr { seg: 1, addr, data },
                    created_at: 0,
                });
                seq += 1;
            }
        }
        (mem, srcp, pkts, st.checkpoint())
    }

    fn make_core() -> LittleCore {
        LittleCore::new(0, LittleCoreConfig::optimized(), CHUNKS)
    }

    fn deliver_ercp(core: &mut LittleCore, seg: u32, inst_count: u64, cp: RegCheckpoint) {
        core.lsl.deliver(
            Packet {
                seq: u64::MAX,
                dest: DestMask::single(0),
                payload: Payload::RcpEnd { seg, inst_count, cp: Box::new(cp) },
                created_at: 0,
            },
            0,
        );
    }

    /// A core assigned segment 1 from `srcp`, with `pkts` and the ERCP
    /// of `inst_count` instructions already in its LSL.
    fn loaded_core(
        srcp: RegCheckpoint,
        pkts: &[Packet],
        inst_count: u64,
        ercp: RegCheckpoint,
    ) -> LittleCore {
        let mut core = make_core();
        core.seed_initial_checkpoint(srcp);
        core.assign(1);
        for p in pkts {
            core.lsl.deliver(p.clone(), 0);
        }
        deliver_ercp(&mut core, 1, inst_count, ercp);
        core
    }

    /// Drives `core` one cycle per call from cycle 0; returns the verdict
    /// and the cycle it was reached in.
    fn run_to_event(
        core: &mut LittleCore,
        imem: &SparseMemory,
        limit: u64,
    ) -> (SegmentVerdict, u64) {
        for now in 0..limit {
            if let (_, Some(verdict)) = core.check(now, imem, now) {
                return (verdict, now);
            }
        }
        panic!("no verdict within {limit} cycles");
    }

    fn test_program() -> Vec<Inst> {
        vec![
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 7 },
            Inst::Load { op: LoadOp::Ld, rd: Reg::X2, rs1: Reg::X5, offset: 0 },
            Inst::Alu { op: AluOp::Add, rd: Reg::X3, rs1: Reg::X1, rs2: Reg::X2 },
            Inst::Store { op: StoreOp::Sd, rs1: Reg::X5, rs2: Reg::X3, offset: 8 },
            Inst::Load { op: LoadOp::Lw, rd: Reg::X4, rs1: Reg::X5, offset: 16 },
            Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 8 },
            // skipped by the taken branch
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X6, rs1: Reg::X0, imm: 99 },
            Inst::Store { op: StoreOp::Sd, rs1: Reg::X5, rs2: Reg::X4, offset: 24 },
        ]
    }

    /// The branch at index 5 skips index 6, so 7 instructions execute.
    const EXECUTED: u64 = 7;

    /// Flips bit `bit` of the first logged store's data.
    fn corrupt_store_data(pkts: &mut [Packet], bit: u32) {
        for p in pkts {
            if let Payload::Mem { data, is_store: true, .. } = &mut p.payload {
                *data ^= 1 << bit;
                break;
            }
        }
    }

    #[test]
    fn clean_replay_passes() {
        let (imem, srcp, pkts, ercp) = golden_run(&test_program());
        let mut core = loaded_core(srcp, &pkts, EXECUTED, ercp);
        let (verdict, _) = run_to_event(&mut core, &imem, 10_000);
        assert_eq!(verdict, SegmentVerdict { seg: 1, pass: true, mismatch: None });
        assert_eq!(core.stats().replayed_insts, EXECUTED);
        assert_eq!(core.stats().mismatches, 0);
    }

    #[test]
    fn corrupted_load_data_detected_at_store_or_ercp() {
        let (imem, srcp, mut pkts, ercp) = golden_run(&test_program());
        // Corrupt the load's logged data (fault in forwarded run-time data).
        for p in &mut pkts {
            if let Payload::Mem { data, is_store: false, .. } = &mut p.payload {
                *data ^= 1 << 17;
                break;
            }
        }
        let mut core = loaded_core(srcp, &pkts, EXECUTED, ercp);
        let (verdict, _) = run_to_event(&mut core, &imem, 10_000);
        assert!(!verdict.pass);
        // The corrupted x2 propagates into x3, stored at offset 8:
        // detected as StoreData in the LSL, before the ERCP.
        assert_eq!(verdict.mismatch, Some(MismatchKind::StoreData));
    }

    #[test]
    fn corrupted_store_addr_detected() {
        let (imem, srcp, mut pkts, ercp) = golden_run(&test_program());
        for p in &mut pkts {
            if let Payload::Mem { addr, is_store: true, .. } = &mut p.payload {
                *addr ^= 0x40;
                break;
            }
        }
        let mut core = loaded_core(srcp, &pkts, EXECUTED, ercp);
        let (verdict, _) = run_to_event(&mut core, &imem, 10_000);
        assert!(!verdict.pass);
        assert_eq!(verdict.mismatch, Some(MismatchKind::StoreAddr));
    }

    #[test]
    fn corrupted_ercp_register_detected_at_compare() {
        let (imem, srcp, pkts, mut ercp) = golden_run(&test_program());
        ercp.x[3] ^= 0x8000; // corrupt forwarded status data
        let mut core = loaded_core(srcp, &pkts, EXECUTED, ercp);
        let (verdict, _) = run_to_event(&mut core, &imem, 10_000);
        assert!(!verdict.pass);
        assert!(matches!(
            verdict.mismatch,
            Some(MismatchKind::Register(CheckpointMismatch::X { index: 3, .. }))
        ));
    }

    #[test]
    fn replay_waits_for_data() {
        let (imem, srcp, pkts, ercp) = golden_run(&test_program());
        let mut core = make_core();
        core.seed_initial_checkpoint(srcp);
        core.assign(1);
        // Run 100 cycles with no data: the core applies the SRCP then
        // waits (it cannot replay ahead of the log).
        for now in 0..100 {
            core.check(now, &imem, now);
        }
        assert!(core.stats().wait_data_cycles > 0);
        assert_eq!(core.stats().replayed_insts, 0, "must not run ahead of the log");
        for p in pkts {
            core.lsl.deliver(p, 100);
        }
        deliver_ercp(&mut core, 1, EXECUTED, ercp);
        let verdict = (100..10_000).find_map(|now| core.check(now, &imem, now).1);
        assert_eq!(verdict.map(|v| v.pass), Some(true));
    }

    #[test]
    fn div_heavy_replay_is_slower_on_default_rocket() {
        use meek_isa::inst::MulDivOp;
        let mut prog =
            vec![Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 1000 }];
        for _ in 0..32 {
            prog.push(Inst::MulDiv { op: MulDivOp::Div, rd: Reg::X2, rs1: Reg::X1, rs2: Reg::X1 });
        }
        let (imem, srcp, pkts, ercp) = golden_run(&prog);
        let n = prog.len() as u64;

        let run_with = |cfg: LittleCoreConfig| {
            let mut core = LittleCore::new(0, cfg, CHUNKS);
            core.seed_initial_checkpoint(srcp);
            core.assign(1);
            for p in pkts.clone() {
                core.lsl.deliver(p, 0);
            }
            deliver_ercp(&mut core, 1, n, ercp);
            let (_, cycles) = run_to_event(&mut core, &imem, 100_000);
            cycles
        };
        let fast = run_with(LittleCoreConfig::optimized());
        let slow = run_with(LittleCoreConfig::default_rocket());
        assert!(
            slow > fast + 32 * 40,
            "1-bit divider ({slow} cyc) must be far slower than 8-unroll ({fast} cyc)"
        );
    }

    #[test]
    fn burst_verdict_matches_ticked_replay() {
        // One far-deadline call must reach exactly the verdict, the
        // statistics and the timing of the per-cycle drive, whichever
        // way the segment closes: a clean pass, a store mismatch caught
        // during replay, or a register mismatch at the ERCP comparison.
        let (imem, srcp, pkts, ercp) = golden_run(&test_program());
        let mut store_fault = pkts.clone();
        corrupt_store_data(&mut store_fault, 9);
        let mut bad_ercp = ercp;
        bad_ercp.x[3] ^= 0x8000;
        let inputs = [
            (&pkts, ercp, None),
            (&store_fault, ercp, Some(MismatchKind::StoreData)),
            (
                &pkts,
                bad_ercp,
                Some(MismatchKind::Register(CheckpointMismatch::X {
                    index: 3,
                    expected: bad_ercp.x[3],
                    actual: ercp.x[3],
                })),
            ),
        ];
        for (records, ercp, mismatch) in inputs {
            let mut ticked = loaded_core(srcp, records, EXECUTED, ercp);
            let (ticked_verdict, at) = run_to_event(&mut ticked, &imem, 10_000);
            let mut burst = loaded_core(srcp, records, EXECUTED, ercp);
            let (next, burst_verdict) = burst.check(0, &imem, u64::MAX);
            assert_eq!(ticked_verdict.mismatch, mismatch);
            assert_eq!(burst_verdict, Some(ticked_verdict));
            assert_eq!(burst.stats(), ticked.stats());
            assert_eq!(next, at + 1, "the call returns the cycle after the verdict");
            assert!(burst.is_idle());
        }
    }

    #[test]
    fn burst_detects_corruption_like_ticked_replay() {
        let (imem, srcp, mut pkts, ercp) = golden_run(&test_program());
        corrupt_store_data(&mut pkts, 9);
        let mut core = loaded_core(srcp, &pkts, EXECUTED, ercp);
        let (_, verdict) = core.check(0, &imem, 10_000);
        let verdict = verdict.expect("the call reaches a verdict");
        assert!(!verdict.pass);
        assert_eq!(verdict.mismatch, Some(MismatchKind::StoreData));
    }

    #[test]
    fn burst_starves_without_data_and_resumes() {
        let (imem, srcp, pkts, ercp) = golden_run(&test_program());
        let mut core = make_core();
        core.seed_initial_checkpoint(srcp);
        core.assign(1);
        // No run-time records delivered: the call applies the SRCP and
        // then starves instead of running ahead of the log.
        let (resume_at, verdict) = core.check(0, &imem, 10_000);
        assert_eq!(verdict, None);
        assert_eq!(core.stats().replayed_insts, 0, "must not run ahead of the log");
        for p in pkts {
            core.lsl.deliver(p, resume_at);
        }
        deliver_ercp(&mut core, 1, EXECUTED, ercp);
        let (_, verdict) = core.check(resume_at, &imem, resume_at + 10_000);
        assert_eq!(verdict, Some(SegmentVerdict { seg: 1, pass: true, mismatch: None }));
        assert_eq!(core.stats().replayed_insts, EXECUTED);
    }

    #[test]
    fn burst_carries_srcp_across_segments() {
        let (imem, srcp, pkts, ercp) = golden_run(&test_program());
        let mut core = loaded_core(srcp, &pkts, EXECUTED, ercp);
        let (t, verdict) = core.check(0, &imem, 10_000);
        assert!(matches!(verdict, Some(SegmentVerdict { seg: 1, pass: true, .. })));
        // Segment 2: empty segment ending in the same state, verified
        // off the carried ERCP-as-SRCP.
        core.assign(2);
        deliver_ercp(&mut core, 2, 0, ercp);
        let (_, verdict) = core.check(t, &imem, t + 1_000);
        assert!(matches!(verdict, Some(SegmentVerdict { seg: 2, pass: true, .. })));
    }

    #[test]
    fn reassignment_after_completion() {
        let (imem, srcp, pkts, ercp) = golden_run(&test_program());
        let mut core = loaded_core(srcp, &pkts, EXECUTED, ercp);
        let (_, t) = run_to_event(&mut core, &imem, 10_000);
        assert!(core.is_idle());
        // The ERCP of segment 1 was carried as the SRCP of segment 2.
        core.assign(2);
        // Provide segment 2: empty segment (0 instructions) ending in the
        // same state.
        deliver_ercp(&mut core, 2, 0, ercp);
        let verdict = ((t + 1)..(t + 1000)).find_map(|now| core.check(now, &imem, now).1);
        assert_eq!(
            verdict,
            Some(SegmentVerdict { seg: 2, pass: true, mismatch: None }),
            "second segment must verify using the carried SRCP"
        );
    }
}
