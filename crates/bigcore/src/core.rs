//! The out-of-order engine: fetch, dispatch, issue, execute, 4-wide
//! commit, with the MEEK observation channel at the commit boundary.

use crate::config::BigCoreConfig;
use crate::tage::{Btb, Ras, Tage};
use meek_isa::inst::{ExecClass, Inst};
use meek_isa::{Reg, Retired};
use meek_mem::{AccessKind, MemHierarchy};
use std::collections::VecDeque;

/// Why the commit stage is stalled by the DEU/fabric (the Fig. 9
/// decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitStall {
    /// The DC-Buffer cannot accept the extracted data this cycle.
    DataCollect,
    /// Downstream fabric congestion (DC-Buffer full because the NoC/bus
    /// cannot drain it).
    DataForward,
    /// The little cores cannot keep up: target LSL full or no free
    /// checker to open a new segment.
    LittleCore,
}

/// A commit-slot verdict from the [`CommitHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitDecision {
    /// Let the instruction retire.
    Proceed,
    /// Block this commit slot (and the rest of the commit group) this
    /// cycle for the given reason.
    Stall(CommitStall),
}

/// The MEEK observation channel: invoked for each retiring instruction at
/// commit, exactly where the paper's DEU taps the core (Fig. 3). The
/// system layer implements the DEU/RCP logic behind this trait; the core
/// itself stays un-invasive.
pub trait CommitHook {
    /// Called once per commit slot with the retiring instruction.
    fn on_commit(&mut self, lane: usize, ret: &Retired, now: u64) -> CommitDecision;
}

/// The vanilla core: checking disabled (`b.check(DISABLE)`), all commits
/// proceed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl CommitHook for NullHook {
    fn on_commit(&mut self, _lane: usize, _ret: &Retired, _now: u64) -> CommitDecision {
        CommitDecision::Proceed
    }
}

/// Counters of the big core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BigCoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Conditional-branch direction mispredicts.
    pub direction_mispredicts: u64,
    /// Indirect/target mispredicts (BTB/RAS).
    pub target_mispredicts: u64,
    /// Cycles the commit group was cut short by DC-Buffer admission.
    pub stall_collect: u64,
    /// Cycles cut short by fabric congestion.
    pub stall_forward: u64,
    /// Cycles cut short waiting on little cores.
    pub stall_little: u64,
    /// Cycles fetch was blocked by a full ROB.
    pub rob_full_cycles: u64,
    /// Cycles fetch was blocked by a full IQ.
    pub iq_full_cycles: u64,
    /// Cycles fetch was blocked by a full LDQ.
    pub ldq_full_cycles: u64,
    /// Cycles fetch was blocked by a full STQ.
    pub stq_full_cycles: u64,
    /// Sum of ROB occupancy over cycles (mean occupancy = this / cycles).
    pub occupancy_sum: u64,
    /// Issue-queue entries the issue stage examined: a deterministic
    /// measure of scheduler work, bounded by the IQ occupancy per cycle.
    pub issue_examined: u64,
}

impl BigCoreStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// Functional units still free in the current issue cycle.
struct FreeUnits {
    alu: u32,
    mem: u32,
    jump: u32,
    csr: u32,
    fpm: u32,
    div: u32,
}

impl FreeUnits {
    fn new(cfg: &BigCoreConfig, divider_free: bool) -> FreeUnits {
        // The FP/Mul pipe issues one op per cycle; the iterative divider
        // (SonicBOOM's separate FDiv/SqrtUnit) blocks until complete.
        FreeUnits {
            alu: cfg.int_alu,
            mem: cfg.mem_ports,
            jump: cfg.jump_units,
            csr: cfg.csr_units,
            fpm: cfg.fp_muldiv,
            div: u32::from(divider_free),
        }
    }

    fn exhausted(&self) -> bool {
        self.alu == 0
            && self.mem == 0
            && self.jump == 0
            && self.csr == 0
            && self.fpm == 0
            && self.div == 0
    }

    /// Reserves a unit for `class`; `false` when none is free.
    fn take(&mut self, class: ExecClass) -> bool {
        let unit = match class {
            ExecClass::IntAlu | ExecClass::Branch => &mut self.alu,
            ExecClass::Load | ExecClass::Store => &mut self.mem,
            ExecClass::Jump => &mut self.jump,
            ExecClass::Csr | ExecClass::System | ExecClass::Meek => &mut self.csr,
            ExecClass::IntDiv | ExecClass::FpDiv => &mut self.div,
            _ => &mut self.fpm,
        };
        if *unit == 0 {
            return false;
        }
        *unit -= 1;
        true
    }
}

/// Producer-dependency bound: two integer sources plus three FP sources
/// is the widest any instruction gets (FMA).
const MAX_DEPS: usize = 5;

#[derive(Debug, Clone)]
struct Uop {
    seq: u64,
    ret: Retired,
    /// Producer seqs this uop waits on (first `ndeps` slots).
    deps: [u64; MAX_DEPS],
    ndeps: u8,
    /// Lower bound on the cycle this uop can issue: the front-end depth
    /// at dispatch, raised whenever the issue scan finds a producer not
    /// yet complete. The scan skips the uop until then without
    /// re-walking its producers. It never exceeds the first cycle at
    /// which every producer has completed, so issue decisions are
    /// identical to an every-cycle recheck of the producers.
    ready_at: u64,
    issued: bool,
    complete_at: u64,
    is_load: bool,
    is_store: bool,
}

/// The out-of-order superscalar core.
///
/// Drive it with [`BigCore::tick`], passing a functional oracle that
/// yields the program's dynamic instruction stream in commit order.
///
/// The issue stage scans the issue queue (dispatched, unissued uops in
/// age order), not the ROB, and skips each uop until its `ready_at`
/// bound. A uop waiting on a producer that has not issued yet sets that
/// bound to the producer's own bound plus `min_latency`, the smallest
/// completion latency any uop can have, so chains behind a cache miss
/// are not re-polled every cycle. `min_latency` is 1 for every shipped
/// configuration; it is 0 when a configured unit or L1D hit latency is
/// 0, because then a consumer can issue in its producer's cycle.
#[derive(Debug, Clone)]
pub struct BigCore {
    cfg: BigCoreConfig,
    tage: Tage,
    btb: Btb,
    ras: Ras,
    hier: MemHierarchy,
    window: VecDeque<Uop>,
    pending: Option<Retired>,
    next_seq: u64,
    /// The issue queue: seqs of dispatched, unissued uops in age order.
    iq: Vec<u64>,
    /// Smallest completion latency any uop can have (see [`BigCore`]).
    min_latency: u64,
    ldq_count: u32,
    stq_count: u32,
    int_prf_free: u32,
    fp_prf_free: u32,
    int_producer: [Option<u64>; 32],
    fp_producer: [Option<u64>; 32],
    /// Fetch blocked until the mispredicted branch with this seq resolves.
    fetch_stalled_on: Option<u64>,
    fetch_resume_at: u64,
    cur_fetch_line: Option<u64>,
    div_busy_until: u64,
    /// `(seq, addr & !7)` of issued, uncommitted stores — the
    /// store-to-load forwarding CAM, maintained incrementally instead of
    /// being rebuilt from a full window scan every cycle.
    store_addrs: Vec<(u64, u64)>,
    oracle_done: bool,
    stats: BigCoreStats,
}

impl BigCore {
    /// Creates a core in reset.
    pub fn new(cfg: BigCoreConfig) -> BigCore {
        BigCore {
            cfg,
            tage: Tage::new(cfg.tage),
            btb: Btb::new(cfg.tage.btb_entries),
            ras: Ras::new(cfg.tage.ras_entries),
            hier: MemHierarchy::new(cfg.hierarchy),
            window: VecDeque::new(),
            pending: None,
            next_seq: 0,
            iq: Vec::with_capacity(cfg.iq as usize),
            // Fixed-latency classes take 1 cycle, and a load no less than
            // an L1D hit (a miss merged into an outstanding MSHR resolves
            // after the current cycle).
            min_latency: [
                cfg.mul_latency,
                cfg.div_latency,
                cfg.fp_add_latency,
                cfg.fp_mul_latency,
                cfg.fp_div_latency,
                cfg.hierarchy.l1d.hit_latency,
            ]
            .into_iter()
            .fold(1, u64::min),
            ldq_count: 0,
            stq_count: 0,
            int_prf_free: cfg.int_prf.saturating_sub(32),
            fp_prf_free: cfg.fp_prf.saturating_sub(32),
            int_producer: [None; 32],
            fp_producer: [None; 32],
            fetch_stalled_on: None,
            fetch_resume_at: 0,
            cur_fetch_line: None,
            div_busy_until: 0,
            store_addrs: Vec::new(),
            oracle_done: false,
            stats: BigCoreStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BigCoreConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BigCoreStats {
        self.stats
    }

    /// Whether all fetched instructions have committed and the oracle is
    /// exhausted.
    pub fn is_drained(&self) -> bool {
        self.oracle_done && self.window.is_empty() && self.pending.is_none()
    }

    /// In-flight instructions (ROB occupancy).
    pub fn rob_occupancy(&self) -> usize {
        self.window.len()
    }

    /// Squashes every in-flight (uncommitted) instruction and re-anchors
    /// the commit counter at `committed` — the big-core half of a
    /// recovery rollback. The ROB, issue queue, LSQ, rename state and
    /// PRF free lists reset as a full-pipeline flush would; fetch
    /// resumes after the redirect penalty, and the oracle is re-polled
    /// (the caller rewinds it to the matching instruction index).
    /// Cumulative stats other than `committed` are preserved: squashed
    /// fetches and stalls really happened.
    pub fn rollback(&mut self, now: u64, committed: u64) {
        self.window.clear();
        self.pending = None;
        self.iq.clear();
        self.ldq_count = 0;
        self.stq_count = 0;
        self.int_prf_free = self.cfg.int_prf.saturating_sub(32);
        self.fp_prf_free = self.cfg.fp_prf.saturating_sub(32);
        self.int_producer = [None; 32];
        self.fp_producer = [None; 32];
        self.fetch_stalled_on = None;
        self.fetch_resume_at = now + self.cfg.redirect_penalty;
        self.cur_fetch_line = None;
        self.div_busy_until = 0;
        self.store_addrs.clear();
        self.oracle_done = false;
        self.stats.committed = committed;
    }

    /// Bytes of cache tag state this core's hierarchy has materialised
    /// ([`MemHierarchy::state_bytes`]).
    pub fn cache_state_bytes(&self) -> u64 {
        self.hier.state_bytes()
    }

    /// Pre-warms the instruction cache over `[base, base + len)` —
    /// used by harnesses that measure steady-state behaviour (real
    /// workloads loop, so their code is resident after the first
    /// iteration).
    pub fn prewarm_icache(&mut self, base: u64, len: u64) {
        let mut addr = base & !63;
        while addr < base + len {
            let _ = self.hier.inst_fetch(addr, 0);
            let _ = self.hier.inst_fetch(addr, 0);
            addr += 64;
        }
    }

    fn uop_by_seq(&self, seq: u64) -> Option<&Uop> {
        let base = self.window.front()?.seq;
        if seq < base {
            return None; // already committed => complete
        }
        self.window.get((seq - base) as usize)
    }

    /// `Ok(())` when every producer has completed; otherwise a lower
    /// bound on the cycle the answer could change: the latest issued
    /// producer's completion, or an unissued producer's own `ready_at`
    /// plus `min_latency`, and never before next cycle.
    fn deps_ready(&self, uop: &Uop, now: u64) -> Result<(), u64> {
        let mut wake = 0u64;
        for &d in &uop.deps[..uop.ndeps as usize] {
            match self.uop_by_seq(d) {
                None => {}
                Some(p) if !p.issued => wake = wake.max(now + 1).max(p.ready_at + self.min_latency),
                Some(p) if p.complete_at > now => wake = wake.max(p.complete_at),
                Some(_) => {}
            }
        }
        if wake == 0 {
            Ok(())
        } else {
            Err(wake)
        }
    }

    /// One big-core cycle: commit, issue, fetch.
    ///
    /// `oracle` yields the next dynamic instruction (commit order);
    /// `hook` is the DEU observation channel. Returns the number of
    /// instructions committed this cycle.
    pub fn tick<H: CommitHook>(
        &mut self,
        now: u64,
        oracle: &mut dyn FnMut() -> Option<Retired>,
        hook: &mut H,
    ) -> u32 {
        self.stats.cycles += 1;
        self.stats.occupancy_sum += self.window.len() as u64;
        let committed = self.commit(now, hook);
        self.issue(now);
        self.fetch(now, oracle);
        committed
    }

    /// Runs the core from cycle 0 until it drains `oracle`, with no
    /// commit hook: the vanilla core, the denominator of every slowdown
    /// figure. The caller builds and prewarms the core. Returns the
    /// cycle count.
    pub fn run_to_drain(&mut self, oracle: &mut dyn FnMut() -> Option<Retired>) -> u64 {
        let mut now = 0;
        while !self.is_drained() {
            self.tick(now, oracle, &mut NullHook);
            now += 1;
        }
        now
    }

    fn commit<H: CommitHook>(&mut self, now: u64, hook: &mut H) -> u32 {
        let mut committed = 0;
        for lane in 0..self.cfg.width as usize {
            let Some(head) = self.window.front() else { break };
            if !head.issued || head.complete_at > now {
                break;
            }
            match hook.on_commit(lane, &head.ret, now) {
                CommitDecision::Proceed => {
                    let uop = self.window.pop_front().expect("head exists");
                    if uop.is_load {
                        self.ldq_count -= 1;
                    }
                    if uop.is_store {
                        self.stq_count -= 1;
                        if let Some(pos) = self.store_addrs.iter().position(|&(s, _)| s == uop.seq)
                        {
                            self.store_addrs.swap_remove(pos);
                        }
                    }
                    if let Some(rd) = uop.ret.inst.int_dest() {
                        if rd != Reg::X0 {
                            self.int_prf_free += 1;
                        }
                    }
                    if uop.ret.inst.fp_dest().is_some() {
                        self.fp_prf_free += 1;
                    }
                    self.stats.committed += 1;
                    committed += 1;
                }
                CommitDecision::Stall(reason) => {
                    match reason {
                        CommitStall::DataCollect => self.stats.stall_collect += 1,
                        CommitStall::DataForward => self.stats.stall_forward += 1,
                        CommitStall::LittleCore => self.stats.stall_little += 1,
                    }
                    break;
                }
            }
        }
        committed
    }

    fn latency(&self, class: ExecClass) -> u64 {
        match class {
            ExecClass::IntAlu | ExecClass::Branch | ExecClass::Jump => 1,
            ExecClass::IntMul => self.cfg.mul_latency,
            ExecClass::IntDiv => self.cfg.div_latency,
            ExecClass::FpAdd => self.cfg.fp_add_latency,
            ExecClass::FpMul => self.cfg.fp_mul_latency,
            ExecClass::FpDiv => self.cfg.fp_div_latency,
            ExecClass::Store => 1,
            ExecClass::Csr | ExecClass::System | ExecClass::Meek => 1,
            ExecClass::Load => unreachable!("loads query the hierarchy"),
        }
    }

    /// The issue stage: walks the issue queue oldest first, skipping each
    /// uop before its `ready_at`, until every functional unit is taken.
    fn issue(&mut self, now: u64) {
        let Some(base) = self.window.front().map(|u| u.seq) else { return };
        let mut free = FreeUnits::new(&self.cfg, now >= self.div_busy_until);
        // Compact the queue in place: issued seqs drop out, the rest keep
        // their age order.
        let mut iq = std::mem::take(&mut self.iq);
        let (mut next, mut kept) = (0, 0);
        while next < iq.len() && !free.exhausted() {
            let seq = iq[next];
            next += 1;
            let i = (seq - base) as usize;
            let uop = &self.window[i];
            if uop.ready_at <= now {
                match self.deps_ready(uop, now) {
                    Err(wake) => self.window[i].ready_at = wake,
                    Ok(()) if free.take(uop.ret.class) => {
                        self.issue_uop(i, now);
                        continue;
                    }
                    Ok(()) => {}
                }
            }
            iq[kept] = seq;
            kept += 1;
        }
        self.stats.issue_examined += next as u64;
        iq.copy_within(next.., kept);
        iq.truncate(iq.len() - (next - kept));
        self.iq = iq;
    }

    /// Issues the uop at window index `i` on a unit the caller reserved:
    /// sets its completion, records a store's address for forwarding,
    /// occupies the divider and resolves a fetch block on the uop.
    fn issue_uop(&mut self, i: usize, now: u64) {
        let uop = &self.window[i];
        let class = uop.ret.class;
        let complete_at = if class == ExecClass::Load {
            let addr = uop.ret.mem.expect("load has mem").addr;
            let seq = uop.seq;
            // Store-to-load forwarding from older in-flight stores.
            let forwarded = self.store_addrs.iter().any(|&(s, a)| s < seq && a == addr & !7);
            if forwarded {
                now + 2
            } else {
                self.hier.data_access(addr, AccessKind::Read, now).ready_at
            }
        } else {
            now + self.latency(class)
        };
        let uop = &mut self.window[i];
        uop.issued = true;
        uop.complete_at = complete_at;
        if uop.is_store {
            if let Some(m) = uop.ret.mem {
                self.store_addrs.push((uop.seq, m.addr & !7));
            }
        }
        if class == ExecClass::IntDiv || class == ExecClass::FpDiv {
            // The iterative divider is unpipelined.
            self.div_busy_until = complete_at;
        }
        // Resolve a fetch block when the offending branch issues.
        if self.fetch_stalled_on == Some(uop.seq) {
            self.fetch_stalled_on = None;
            self.fetch_resume_at = complete_at + self.cfg.redirect_penalty;
        }
    }

    fn fetch(&mut self, now: u64, oracle: &mut dyn FnMut() -> Option<Retired>) {
        if self.fetch_stalled_on.is_some() || now < self.fetch_resume_at {
            return;
        }
        for _slot in 0..self.cfg.width {
            if self.window.len() as u32 >= self.cfg.rob {
                self.stats.rob_full_cycles += 1;
                break;
            }
            if self.iq.len() as u32 >= self.cfg.iq {
                self.stats.iq_full_cycles += 1;
                break;
            }
            let Some(ret) = self.pending.take().or_else(|| {
                let r = oracle();
                if r.is_none() {
                    self.oracle_done = true;
                }
                r
            }) else {
                break;
            };
            // Structure-specific admission.
            let is_load = ret.class == ExecClass::Load;
            let is_store = ret.class == ExecClass::Store;
            if is_load && self.ldq_count >= self.cfg.ldq {
                self.stats.ldq_full_cycles += 1;
                self.pending = Some(ret);
                break;
            }
            if is_store && self.stq_count >= self.cfg.stq {
                self.stats.stq_full_cycles += 1;
                self.pending = Some(ret);
                break;
            }
            let needs_int_prf = ret.inst.int_dest().is_some_and(|r| r != Reg::X0);
            if needs_int_prf && self.int_prf_free == 0 {
                self.pending = Some(ret);
                break;
            }
            let needs_fp_prf = ret.inst.fp_dest().is_some();
            if needs_fp_prf && self.fp_prf_free == 0 {
                self.pending = Some(ret);
                break;
            }
            // I-cache timing per line.
            let line = ret.pc >> 6;
            if self.cur_fetch_line != Some(line) {
                let outcome = self.hier.inst_fetch(ret.pc, now);
                self.cur_fetch_line = Some(line);
                if outcome.ready_at > now + 1 {
                    self.fetch_resume_at = outcome.ready_at;
                    self.pending = Some(ret);
                    break;
                }
            }
            // Commit resources are available: dispatch.
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut deps = [0u64; MAX_DEPS];
            let mut ndeps = 0u8;
            for src in ret.inst.int_srcs().into_iter().flatten() {
                if src != Reg::X0 {
                    if let Some(p) = self.int_producer[src.index() as usize] {
                        deps[ndeps as usize] = p;
                        ndeps += 1;
                    }
                }
            }
            for src in ret.inst.fp_srcs().into_iter().flatten() {
                if let Some(p) = self.fp_producer[src.index() as usize] {
                    deps[ndeps as usize] = p;
                    ndeps += 1;
                }
            }
            if let Some(rd) = ret.inst.int_dest() {
                if rd != Reg::X0 {
                    self.int_producer[rd.index() as usize] = Some(seq);
                    self.int_prf_free -= 1;
                }
            }
            if let Some(rd) = ret.inst.fp_dest() {
                self.fp_producer[rd.index() as usize] = Some(seq);
                self.fp_prf_free -= 1;
            }
            if is_load {
                self.ldq_count += 1;
            }
            if is_store {
                self.stq_count += 1;
            }
            self.iq.push(seq);
            self.stats.fetched += 1;

            // Branch prediction.
            let mut end_group = false;
            let mut mispredict = false;
            if let Some(b) = ret.branch {
                match ret.inst {
                    Inst::Branch { .. } => {
                        let predicted = self.tage.predict(ret.pc);
                        self.tage.update(ret.pc, b.taken, predicted);
                        if predicted != b.taken {
                            mispredict = true;
                            self.stats.direction_mispredicts += 1;
                        } else if b.taken {
                            if self.btb.lookup(ret.pc) != Some(b.target) {
                                // Direct branch: the target comes out of
                                // decode — a front-end re-steer bubble,
                                // not an execute-stage flush.
                                self.fetch_resume_at = (now + 1 + self.cfg.btb_resteer_penalty)
                                    .max(self.fetch_resume_at);
                                self.stats.target_mispredicts += 1;
                            }
                            end_group = true;
                        }
                        if b.taken {
                            self.btb.update(ret.pc, b.target);
                        }
                    }
                    Inst::Jal { rd, .. } => {
                        // Direct jump: target decoded in the front end.
                        if rd == Reg::X1 {
                            self.ras.push(ret.pc + 4);
                        }
                        end_group = true;
                    }
                    Inst::Jalr { rd, rs1, .. } => {
                        let is_return = rs1 == Reg::X1 && rd == Reg::X0;
                        let predicted_target =
                            if is_return { self.ras.pop() } else { self.btb.lookup(ret.pc) };
                        if predicted_target != Some(b.target) {
                            mispredict = true;
                            self.stats.target_mispredicts += 1;
                        }
                        if rd == Reg::X1 {
                            self.ras.push(ret.pc + 4);
                        }
                        self.btb.update(ret.pc, b.target);
                        end_group = true;
                    }
                    _ => {
                        end_group = true;
                    }
                }
                // Fetch continues at the (possibly taken) target next cycle.
                self.cur_fetch_line = Some(ret.next_pc >> 6);
            }

            self.window.push_back(Uop {
                seq,
                ret,
                deps,
                ndeps,
                ready_at: now + self.cfg.frontend_depth,
                issued: false,
                complete_at: u64::MAX,
                is_load,
                is_store,
            });

            if mispredict {
                self.fetch_stalled_on = Some(seq);
                break;
            }
            if end_group {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_isa::exec;
    use meek_isa::inst::{AluImmOp, BranchOp, LoadOp, MulDivOp, StoreOp};
    use meek_isa::{encode, ArchState, Bus, SparseMemory};
    use meek_workloads::{parsec3, spec_int_2006, Workload};

    /// The functional oracle of `insts` loaded at 0x1000, with x5
    /// pointing at 32 KB of data; it ends past the last instruction or
    /// at a trap.
    fn program_oracle(insts: &[Inst]) -> impl FnMut() -> Option<Retired> {
        let words: Vec<u32> = insts.iter().map(encode).collect();
        let mut mem = SparseMemory::new();
        mem.load_program(0x1000, &words);
        for i in 0..4096u64 {
            mem.write(0x10_0000 + i * 8, 8, i);
        }
        let mut st = ArchState::new(0x1000);
        st.set_x(Reg::X5, 0x10_0000);
        let end = 0x1000 + 4 * words.len() as u64;
        let mut done = false;
        move || {
            if done || st.pc >= end {
                return None;
            }
            match exec::step(&mut st, &mut mem) {
                Ok(r) => Some(r),
                Err(_) => {
                    done = true;
                    None
                }
            }
        }
    }

    /// Runs `insts` on the vanilla core; returns (cycles, committed).
    fn run_program(insts: &[Inst], max_cycles: u64) -> (u64, u64) {
        let mut core = BigCore::new(BigCoreConfig::sonic_boom());
        core.prewarm_icache(0x1000, 4 * insts.len() as u64);
        let mut hook = NullHook;
        let mut oracle = program_oracle(insts);
        for now in 0..max_cycles {
            core.tick(now, &mut oracle, &mut hook);
            if core.is_drained() {
                return (now + 1, core.stats().committed);
            }
        }
        panic!("core did not drain in {max_cycles} cycles (committed {})", core.stats().committed);
    }

    fn straightline_alu(n: usize) -> Vec<Inst> {
        // Independent chains across 8 registers: high ILP.
        (0..n)
            .map(|i| Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::from_index((1 + (i % 8)) as u8),
                rs1: Reg::from_index((1 + (i % 8)) as u8),
                imm: 1,
            })
            .collect()
    }

    #[test]
    fn superscalar_alu_ipc_near_two() {
        // 2 int ALUs bound ALU-only IPC at 2.
        let (cycles, committed) = run_program(&straightline_alu(2000), 100_000);
        let ipc = committed as f64 / cycles as f64;
        assert!(ipc > 1.5, "ALU IPC {ipc:.2} too low");
        assert!(ipc <= 2.05, "ALU IPC {ipc:.2} exceeds ALU bandwidth");
    }

    /// A single dependence chain of `n` adds.
    fn dependent_chain(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|_| Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X6, rs1: Reg::X6, imm: 1 })
            .collect()
    }

    /// 200 dependent-source divides behind one constant.
    fn div_chain() -> Vec<Inst> {
        std::iter::once(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X7, rs1: Reg::X0, imm: 1000 })
            .chain((0..200).map(|_| Inst::MulDiv {
                op: MulDivOp::Div,
                rd: Reg::X8,
                rs1: Reg::X7,
                rs2: Reg::X7,
            }))
            .collect()
    }

    /// Scattered loads at 2 KB stride: cold misses the stream
    /// prefetcher cannot cover (no adjacent-line residency).
    fn scattered_loads() -> Vec<Inst> {
        let mut insts = Vec::new();
        for i in 0..256 {
            insts.push(Inst::Load {
                op: LoadOp::Ld,
                rd: Reg::X6,
                rs1: Reg::X5,
                offset: ((i * 251) % 256) * 8,
            });
            insts.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X5, rs1: Reg::X5, imm: 2040 });
        }
        insts
    }

    /// A store to x5+0 loaded straight back, 200 times.
    fn store_load_pairs() -> Vec<Inst> {
        let mut insts = Vec::new();
        for _ in 0..200 {
            insts.push(Inst::Store { op: StoreOp::Sd, rs1: Reg::X5, rs2: Reg::X7, offset: 0 });
            insts.push(Inst::Load { op: LoadOp::Ld, rd: Reg::X8, rs1: Reg::X5, offset: 0 });
        }
        insts
    }

    #[test]
    fn dependent_chain_is_serial() {
        // A single dependence chain: IPC near 1.
        let (cycles, committed) = run_program(&dependent_chain(2000), 100_000);
        let ipc = committed as f64 / cycles as f64;
        assert!(ipc < 1.1, "dependent chain IPC {ipc:.2} should be ~1");
    }

    #[test]
    fn div_chain_much_slower_than_alu() {
        let (div_cycles, _) = run_program(&div_chain(), 100_000);
        let (alu_cycles, _) = run_program(&straightline_alu(201), 100_000);
        assert!(
            div_cycles > alu_cycles + 200 * 10,
            "divides ({div_cycles}) must be far slower than ALU ({alu_cycles})"
        );
    }

    #[test]
    fn cold_loads_stall_warm_loads_fly() {
        let (cold, _) = run_program(&scattered_loads(), 1_000_000);
        // Same loads but hitting one line repeatedly.
        let mut warm = Vec::new();
        for _ in 0..256 {
            warm.push(Inst::Load { op: LoadOp::Ld, rd: Reg::X6, rs1: Reg::X5, offset: 0 });
        }
        let (hot, _) = run_program(&warm, 1_000_000);
        assert!(cold > hot, "cold loads ({cold}) must cost more than L1 hits ({hot})");
    }

    /// A loop executed 500 times, whose inner branch is either always
    /// not-taken (learnable) or driven by an LCG bit (unpredictable).
    fn branchy_loop(random: bool) -> Vec<Inst> {
        let mut v = vec![
            // x20 = 500 iterations; x21 = LCG state.
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X20, rs1: Reg::X0, imm: 500 },
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X21, rs1: Reg::X0, imm: 1234 },
            // x22 = 1103515245 (glibc LCG multiplier, odd).
            Inst::Lui { rd: Reg::X22, imm: 0x41C65 },
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X22, rs1: Reg::X22, imm: -403 },
        ];
        let loop_start = v.len();
        if random {
            // x21 = x21 * x22 + 1309; x9 = (x21 >> 17) & 1.
            v.push(Inst::MulDiv { op: MulDivOp::Mul, rd: Reg::X21, rs1: Reg::X21, rs2: Reg::X22 });
            v.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X21, rs1: Reg::X21, imm: 1309 });
            v.push(Inst::AluImm { op: AluImmOp::Srli, rd: Reg::X9, rs1: Reg::X21, imm: 17 });
            v.push(Inst::AluImm { op: AluImmOp::Andi, rd: Reg::X9, rs1: Reg::X9, imm: 1 });
        } else {
            v.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X9, rs1: Reg::X0, imm: 1 });
            v.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X9, rs1: Reg::X9, imm: 0 });
            v.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X9, rs1: Reg::X9, imm: 0 });
            v.push(Inst::AluImm { op: AluImmOp::Andi, rd: Reg::X9, rs1: Reg::X9, imm: 1 });
        }
        // if x9 == 0 skip one filler instruction
        v.push(Inst::Branch { op: BranchOp::Beq, rs1: Reg::X9, rs2: Reg::X0, offset: 8 });
        v.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X10, rs1: Reg::X10, imm: 1 });
        // x20 -= 1; bne x20, x0, loop_start
        v.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X20, rs1: Reg::X20, imm: -1 });
        let back = (loop_start as i32 - v.len() as i32) * 4;
        v.push(Inst::Branch { op: BranchOp::Bne, rs1: Reg::X20, rs2: Reg::X0, offset: back });
        v
    }

    #[test]
    fn predictable_loop_outruns_random_branches() {
        let (biased_cycles, biased_n) = run_program(&branchy_loop(false), 1_000_000);
        let (random_cycles, random_n) = run_program(&branchy_loop(true), 1_000_000);
        // Similar dynamic lengths; the random one must be clearly slower.
        assert!(biased_n.abs_diff(random_n) < 600);
        assert!(
            random_cycles as f64 > biased_cycles as f64 * 1.2,
            "random branches ({random_cycles}) must cost more than biased ({biased_cycles})"
        );
    }

    #[test]
    fn store_load_forwarding() {
        // Forwarding keeps store/load pairs to one address fast.
        let (cycles, committed) = run_program(&store_load_pairs(), 100_000);
        assert_eq!(committed, 400);
        let ipc = committed as f64 / cycles as f64;
        assert!(ipc > 0.8, "forwarded store/load pairs should sustain ~1 IPC, got {ipc:.2}");
    }

    #[test]
    fn commit_hook_stall_throttles_core() {
        struct StallEveryOther {
            n: u64,
        }
        impl CommitHook for StallEveryOther {
            fn on_commit(&mut self, _lane: usize, _ret: &Retired, _now: u64) -> CommitDecision {
                self.n += 1;
                if self.n.is_multiple_of(2) {
                    CommitDecision::Stall(CommitStall::DataCollect)
                } else {
                    CommitDecision::Proceed
                }
            }
        }
        let insts = straightline_alu(1000);
        let words: Vec<u32> = insts.iter().map(encode).collect();
        let mut mem = SparseMemory::new();
        mem.load_program(0x1000, &words);
        let mut st = ArchState::new(0x1000);
        let end = 0x1000 + 4 * words.len() as u64;
        let mut core = BigCore::new(BigCoreConfig::sonic_boom());
        let mut hook = StallEveryOther { n: 0 };
        let oracle = move |st: &mut ArchState, mem: &mut SparseMemory| {
            if st.pc >= end {
                None
            } else {
                exec::step(st, mem).ok()
            }
        };
        let mut now = 0;
        while !core.is_drained() && now < 100_000 {
            let mut o = || oracle(&mut st, &mut mem);
            core.tick(now, &mut o, &mut hook);
            now += 1;
        }
        assert!(core.is_drained());
        let s = core.stats();
        assert!(s.stall_collect > 0, "hook stalls must be accounted");
        let ipc = s.ipc();
        assert!(ipc < 1.5, "a stalling hook must throttle commit (ipc {ipc:.2})");
    }

    #[test]
    fn narrow_core_is_slower() {
        let insts = straightline_alu(2000);
        let run_with = |cfg: BigCoreConfig| -> u64 {
            let words: Vec<u32> = insts.iter().map(encode).collect();
            let mut mem = SparseMemory::new();
            mem.load_program(0x1000, &words);
            let mut st = ArchState::new(0x1000);
            let end = 0x1000 + 4 * words.len() as u64;
            let mut core = BigCore::new(cfg);
            let mut hook = NullHook;
            let mut now = 0;
            while !core.is_drained() && now < 1_000_000 {
                let mut o = || if st.pc >= end { None } else { exec::step(&mut st, &mut mem).ok() };
                core.tick(now, &mut o, &mut hook);
                now += 1;
            }
            now
        };
        let full = run_with(BigCoreConfig::sonic_boom());
        let half = run_with(BigCoreConfig::scaled(0.5));
        assert!(half > full, "half-scaled core ({half}) must be slower than full ({full})");
    }

    #[test]
    fn drained_reports_correctly() {
        let (cycles, committed) = run_program(&straightline_alu(10), 10_000);
        assert_eq!(committed, 10);
        assert!(cycles > 6, "front-end depth implies a minimum latency");
    }

    /// The whole-window walk the issue queue replaced, with every
    /// producer rechecked every cycle: the reference the scheduler is
    /// held to. It never writes `ready_at`, which so stays the
    /// dispatch-time front-end bound.
    fn issue_by_window_walk(core: &mut BigCore, now: u64) {
        let mut free = FreeUnits::new(&core.cfg, now >= core.div_busy_until);
        for i in 0..core.window.len() {
            if free.exhausted() {
                break;
            }
            let uop = &core.window[i];
            if uop.issued || !front_end_and_producers_ready(core, uop, now) {
                continue;
            }
            if free.take(uop.ret.class) {
                let seq = uop.seq;
                core.issue_uop(i, now);
                core.iq.retain(|&s| s != seq);
            }
        }
    }

    /// The per-producer rule on a reference-model uop: past its
    /// front-end depth, and every producer committed or issued and
    /// complete by `now`.
    fn front_end_and_producers_ready(core: &BigCore, uop: &Uop, now: u64) -> bool {
        uop.ready_at <= now
            && uop.deps[..uop.ndeps as usize]
                .iter()
                .all(|&d| core.uop_by_seq(d).is_none_or(|p| p.issued && p.complete_at <= now))
    }

    /// Ticks a core under test with [`BigCore::tick`] and a reference
    /// core with [`issue_by_window_walk`] on the same instruction
    /// stream until both drain. After every cycle it checks that the
    /// issue queue holds exactly the window's unissued seqs in age
    /// order, that no uop the scan skips for its `ready_at` is ready
    /// under the per-producer rule, and that both cores issued the same
    /// uops at the same cycles. Returns the core under test.
    fn lockstep(
        cfg: BigCoreConfig,
        mut oracle: impl FnMut() -> Option<Retired>,
        mut reference_oracle: impl FnMut() -> Option<Retired>,
        warm: (u64, u64),
    ) -> BigCore {
        let mut core = BigCore::new(cfg);
        let mut reference = BigCore::new(cfg);
        core.prewarm_icache(warm.0, warm.1);
        reference.prewarm_icache(warm.0, warm.1);
        let mut now = 0u64;
        while !core.is_drained() {
            assert!(now < 2_000_000, "no drain");
            core.tick(now, &mut oracle, &mut NullHook);
            reference.stats.cycles += 1;
            reference.stats.occupancy_sum += reference.window.len() as u64;
            reference.commit(now, &mut NullHook);
            issue_by_window_walk(&mut reference, now);
            reference.fetch(now, &mut reference_oracle);

            let unissued: Vec<u64> =
                core.window.iter().filter(|u| !u.issued).map(|u| u.seq).collect();
            assert_eq!(core.iq, unissued, "cycle {now}: the IQ is the unissued window");
            assert_eq!(core.window.len(), reference.window.len(), "cycle {now}");
            for (u, r) in core.window.iter().zip(&reference.window) {
                assert_eq!(
                    (u.seq, u.issued, u.complete_at),
                    (r.seq, r.issued, r.complete_at),
                    "cycle {now}: issue decisions differ from the window walk"
                );
                if !u.issued && u.ready_at > now {
                    assert!(
                        !front_end_and_producers_ready(&reference, r, now),
                        "cycle {now}: seq {} skipped until {} but ready",
                        u.seq,
                        u.ready_at
                    );
                }
            }
            assert_eq!(
                BigCoreStats { issue_examined: 0, ..core.stats },
                reference.stats,
                "cycle {now}"
            );
            now += 1;
        }
        assert!(reference.is_drained());
        core
    }

    fn lockstep_program(cfg: BigCoreConfig, insts: &[Inst]) -> BigCore {
        let warm = (0x1000, 4 * insts.len() as u64);
        lockstep(cfg, program_oracle(insts), program_oracle(insts), warm)
    }

    fn lockstep_workload(cfg: BigCoreConfig, wl: &Workload, insts: u64) -> BigCore {
        let (mut a, mut b) = (wl.run(insts), wl.run(insts));
        let warm = (wl.entry(), 4 * wl.static_len as u64);
        lockstep(cfg, || a.next_retired(), || b.next_retired(), warm)
    }

    #[test]
    fn the_issue_queue_issues_as_the_window_walk_on_unit_programs() {
        let cfg = BigCoreConfig::sonic_boom();
        for insts in [
            straightline_alu(500),
            dependent_chain(500),
            div_chain(),
            scattered_loads(),
            branchy_loop(true),
            store_load_pairs(),
        ] {
            let core = lockstep_program(cfg, &insts);
            assert_eq!(core.min_latency, 1);
            let s = core.stats();
            assert!(s.issue_examined >= s.committed, "every uop is examined at least once");
        }
    }

    #[test]
    fn the_issue_queue_issues_as_the_window_walk_on_profiles() {
        let profiles = [&spec_int_2006()[3], &spec_int_2006()[0], &parsec3()[0]];
        for p in profiles {
            lockstep_workload(BigCoreConfig::sonic_boom(), &Workload::build(p, 1), 3_000);
        }
    }

    #[test]
    fn a_zero_cycle_multiplier_lets_consumers_issue_with_their_producer() {
        let cfg = BigCoreConfig { mul_latency: 0, ..BigCoreConfig::sonic_boom() };
        let core = lockstep_program(cfg, &branchy_loop(true));
        assert_eq!(core.min_latency, 0);
        lockstep_workload(cfg, &Workload::build(&parsec3()[0], 1), 3_000);
    }
}
