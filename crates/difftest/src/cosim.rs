//! The three-way co-simulation oracle.
//!
//! One fuzzed program is executed three ways and lock-stepped:
//!
//! 1. **Golden** — the `meek-isa` functional interpreter, stepping a
//!    fresh architectural state over a fresh memory image. Its retired
//!    stream and checkpoints are the reference.
//! 2. **LittleCore replay** — a real checker core fed the golden run's
//!    forwarded data (memory records, CSR results, checkpoints), one
//!    segment at a time, exactly as the fabric would deliver it. Every
//!    replayed segment must verify clean; the first mismatch is
//!    reported with its [`MismatchKind`] and a disassembled trace
//!    window.
//! 3. **Full system** — the whole MEEK SoC (big core, DEU, fabric,
//!    checker cluster) runs the program as a workload; its commit
//!    stream is the big core's and every segment it forwards must
//!    verify against the littlecore cluster.
//!
//! A clean program must agree across all three; any disagreement is a
//! [`Divergence`] — a bug in one of the models (or a real escape in the
//! detection architecture), pinpointed for shrinking.

use crate::coverage::arm_span;
use crate::fuzz::FuzzProgram;
use crate::Case;
use meek_core::{RunError, Sim};
use meek_fabric::{DestMask, Packet, PacketSink, Payload};
use meek_isa::disasm::{disasm_window, disasm_word};
use meek_isa::state::RegCheckpoint;
use meek_isa::{step_predecoded, ArchState, Retired, Trap};
use meek_littlecore::{CheckerEvent, LittleCore, LittleCoreConfig, MismatchKind};
use meek_telemetry::prof;
use meek_workloads::Workload;
use std::fmt;

/// Status chunks one checkpoint occupies at the F2 fabric's chunking
/// (65 words / 4 per packet), so the golden-trace checker stays on the
/// fabric's real geometry.
const CHUNKS_PER_CP: usize = 17;

/// Dynamic instructions of context in divergence trace windows.
const WINDOW: usize = 8;

/// Dynamic-instruction ceiling for a golden run; fuzzed programs are
/// orders of magnitude shorter, so hitting this means non-termination.
pub const GOLDEN_CAP: u64 = 500_000;

/// Cache tag state ([`meek_core::MeekSystem::cache_state_bytes`]) the
/// clean-run snapshots of one case may hold in total. A snapshot of a
/// fuzzed program or a single kernel holds about 200 KB, so two fit; one
/// of the fused kernel set holds 3.4 MB, so it keeps none, and the cases
/// whose runs are longest do not hold extra copies of the SoC.
const SNAPSHOT_BYTES: u64 = 1 << 20;

/// Configuration of one [`Case`]: its co-simulation and its faults.
#[derive(Debug, Clone, Copy)]
pub struct CosimConfig {
    /// Instructions per replay segment in the lock-step littlecore way.
    pub seg_len: u64,
    /// Checker cores in the full-system way and in every fault run.
    pub n_little: usize,
    /// Faults in the case's plan ([`Case::plan`]).
    pub faults: usize,
    /// Whether the case's faults go through the recovery oracle
    /// ([`Case::recover`]) rather than detect-only classification.
    pub recover: bool,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig { seg_len: 192, n_little: 4, faults: 3, recover: false }
    }
}

/// The first architectural disagreement between the three executions.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The golden interpreter trapped — the fuzzer emitted a program
    /// that is not trap-free along its executed path (a fuzzer bug) or
    /// a shrink candidate broke its own control flow.
    GoldenTrap {
        /// Trapping PC.
        pc: u64,
        /// The word that failed to decode.
        word: u32,
        /// Disassembly around the trap.
        window: String,
    },
    /// The littlecore replay disagreed with the golden stream.
    Replay {
        /// Segment (1-based) in which the mismatch fired.
        seg: u32,
        /// What diverged.
        kind: MismatchKind,
        /// Dynamic instruction index (into the golden trace) of the
        /// failing comparison.
        at_index: u64,
        /// Disassembled golden-trace window ending at the divergence.
        window: String,
    },
    /// The littlecore replay made no progress within its cycle budget.
    ReplayStuck {
        /// Segment that hung.
        seg: u32,
        /// Replay progress when the budget expired.
        replayed: u64,
    },
    /// The full-system run disagreed with the golden run (commit count,
    /// segment verdicts), or did not drain (a [`RunError::Livelock`],
    /// reported as `liveness panic: …`).
    System {
        /// What went wrong.
        detail: String,
    },
}

impl Divergence {
    /// Stable snake-case name of the divergence kind (payload-free) —
    /// the discriminator the shrinker holds fixed while minimising, and
    /// a coverage-feature key for the fuzzer.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Divergence::GoldenTrap { .. } => "golden_trap",
            Divergence::Replay { .. } => "replay",
            Divergence::ReplayStuck { .. } => "replay_stuck",
            Divergence::System { .. } => "system",
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::GoldenTrap { pc, word, window } => {
                write!(f, "golden interpreter trapped at {pc:#x} (word {word:#010x})\n{window}")
            }
            Divergence::Replay { seg, kind, at_index, window } => {
                write!(
                    f,
                    "littlecore replay diverged in segment {seg} at dynamic index {at_index}: \
                     {kind:?}\n{window}"
                )
            }
            Divergence::ReplayStuck { seg, replayed } => {
                write!(f, "littlecore replay stuck in segment {seg} after {replayed} instructions")
            }
            Divergence::System { detail } => write!(f, "full-system divergence: {detail}"),
        }
    }
}

/// A completed golden (reference) execution.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The retired-instruction stream.
    pub trace: Vec<Retired>,
    /// Architectural registers after the last instruction.
    pub final_cp: RegCheckpoint,
    /// Full architectural state after the last instruction (registers
    /// plus CSRs — the recovery oracle compares CSRs too).
    pub final_state: ArchState,
    /// Memory after the last instruction (code + data), for the
    /// recovery oracle's golden-equal final-state check.
    pub final_mem: meek_isa::SparseMemory,
    /// Paused copies of the co-simulation's clean full-system run, in
    /// commit order, that detect-only classification forks fault runs
    /// from (only a [`Case`] that will classify takes them).
    pub(crate) snapshots: Vec<Sim>,
}

/// Runs the golden interpreter over the built program `wl` to program
/// exit or `cap` instructions. A [`Case`] caps it at [`GOLDEN_CAP`]; the
/// shrinker and the fuzz engine pre-screen candidates at a lower cap, so
/// a relink-manufactured infinite loop costs only `cap` steps to discard.
///
/// # Errors
///
/// Returns [`Divergence::GoldenTrap`] if the program traps.
pub fn golden_run_in(wl: &Workload, cap: u64) -> Result<GoldenRun, Divergence> {
    let mut mem = wl.image().clone();
    let pd = wl.predecoded();
    let mut st = wl.initial_state().clone();
    let mut trace = Vec::new();
    while st.pc != wl.exit_pc() && (trace.len() as u64) < cap {
        match step_predecoded(&mut st, &mut mem, pd) {
            Ok(r) => trace.push(r),
            Err(Trap::IllegalInstruction { pc, word }) => {
                let start = pc.saturating_sub(16).max(wl.entry());
                return Err(Divergence::GoldenTrap {
                    pc,
                    word,
                    window: disasm_window(wl.image(), start, 9, pc),
                });
            }
        }
    }
    Ok(GoldenRun {
        trace,
        final_cp: st.checkpoint(),
        final_state: st,
        final_mem: mem,
        snapshots: Vec::new(),
    })
}

/// Renders the golden-trace window ending at dynamic index `at` — the
/// "what was executing when it diverged" view.
fn trace_window(golden: &GoldenRun, at: usize, n: usize) -> String {
    let lo = at.saturating_sub(n.saturating_sub(1));
    let mut out = String::new();
    for (j, r) in golden.trace[lo..=at.min(golden.trace.len() - 1)].iter().enumerate() {
        let idx = lo + j;
        let cursor = if idx == at { "=>" } else { "  " };
        out.push_str(&format!("{cursor} [{idx}] {:#08x}: {}\n", r.pc, disasm_word(r.raw)));
    }
    out
}

/// Result of one three-way co-simulation.
#[derive(Debug, Clone)]
pub struct CosimVerdict {
    /// Dynamic instructions the golden run retired.
    pub executed: u64,
    /// Segments lock-step-replayed on the littlecore way.
    pub segments: u32,
    /// Big-core cycles the full-system way took (0 if it diverged).
    pub system_cycles: u64,
    /// First disagreement, if any.
    pub divergence: Option<Divergence>,
}

/// [`Case::new`] of `prog`'s image, returning the verdict and the golden
/// run with the built image. Kept for the benchmark harness until it
/// moves to [`Case`].
#[doc(hidden)]
pub fn run_full(
    prog: &FuzzProgram,
    cfg: &CosimConfig,
) -> (CosimVerdict, Option<(GoldenRun, Workload)>) {
    let wl = {
        let _span = prof::span("image_build");
        prog.workload()
    };
    let (verdict, golden) = Case::cosimulate(&wl, cfg);
    (verdict, golden.map(|g| (g, wl)))
}

/// [`Case::new`], returning the verdict and the golden run. Kept for the
/// benchmark harness until it moves to [`Case`].
#[doc(hidden)]
pub fn run_workload(wl: &Workload, cfg: &CosimConfig) -> (CosimVerdict, Option<GoldenRun>) {
    Case::cosimulate(wl, cfg)
}

/// Ways 2 and 3 against a golden run of `wl`, pushing the snapshots
/// [`system_check`] takes into `snapshots` when given.
pub(crate) fn check_ways(
    wl: &Workload,
    golden: &GoldenRun,
    cfg: &CosimConfig,
    snapshots: Option<&mut Vec<Sim>>,
) -> CosimVerdict {
    let mut verdict = CosimVerdict {
        executed: golden.trace.len() as u64,
        segments: 0,
        system_cycles: 0,
        divergence: None,
    };
    if golden.trace.is_empty() {
        return verdict;
    }
    let replay = {
        let _span = prof::span("lockstep_replay");
        replay_lockstep(wl, golden, cfg)
    };
    match replay {
        Ok(segments) => verdict.segments = segments,
        Err(d) => {
            verdict.divergence = Some(d);
            return verdict;
        }
    }
    let system = {
        let _span = prof::span("system_check");
        system_check(wl, golden, cfg, snapshots)
    };
    match system {
        Ok(cycles) => verdict.system_cycles = cycles,
        Err(d) => verdict.divergence = Some(d),
    }
    verdict
}

/// Way 2: feeds the golden run's forwarded data to a real littlecore,
/// one segment at a time, and demands a clean verdict for every one.
fn replay_lockstep(
    wl: &Workload,
    golden: &GoldenRun,
    cfg: &CosimConfig,
) -> Result<u32, Divergence> {
    let mut checker = Checker::new(wl, wl.initial_state().checkpoint());
    let n = golden.trace.len();
    let seg_len = cfg.seg_len.max(1) as usize;
    let n_segs = n.div_ceil(seg_len);
    let mut now = 0u64;
    // Replaying the segment's end state requires the checkpoint *after*
    // its last instruction; track it by replaying the writebacks the
    // golden trace already carries.
    let mut shadow = wl.initial_state().clone();
    for seg_idx in 0..n_segs {
        let seg = (seg_idx + 1) as u32;
        let start = seg_idx * seg_len;
        let end = (start + seg_len).min(n);
        // ERCP: the golden architectural state after the segment's last
        // instruction, reconstructed from the trace's writeback records
        // (the same commit-order view the DEU shadows).
        for r in &golden.trace[start..end] {
            apply_writeback(&mut shadow, r);
        }
        let replayed_before = checker.core.stats().replayed_insts;
        // A missing verdict means the replay starved (or spun past the
        // deadline) — it can never catch up, because nothing more will
        // be delivered.
        let (resumed_at, ev) =
            checker.check(seg, &golden.trace[start..end], None, shadow.checkpoint(), now);
        now = resumed_at + 1;
        let in_seg = checker.core.stats().replayed_insts - replayed_before;
        match ev {
            Some(CheckerEvent::SegmentVerified { seg: vseg, pass, mismatch }) => {
                if !pass {
                    // The failing comparison is the last replayed
                    // instruction (LSL mismatches) or the segment end
                    // (ERCP register mismatches).
                    let at = (start as u64 + in_seg.saturating_sub(1)).min(n as u64 - 1);
                    return Err(Divergence::Replay {
                        seg: vseg,
                        kind: mismatch.expect("failed segment carries a mismatch"),
                        at_index: at,
                        window: trace_window(golden, at as usize, WINDOW),
                    });
                }
            }
            _ => return Err(Divergence::ReplayStuck { seg, replayed: in_seg }),
        }
    }
    Ok(n_segs as u32)
}

/// A littlecore checker fed golden-trace windows, the way the fabric
/// delivers a segment's forwarded data — the lock-step way above, and
/// the coverage prover's replay twin.
pub(crate) struct Checker<'w> {
    pub(crate) core: LittleCore,
    wl: &'w Workload,
    seq: u64,
}

impl<'w> Checker<'w> {
    /// A checker for `wl` whose first segment starts from `srcp`.
    pub(crate) fn new(wl: &'w Workload, srcp: RegCheckpoint) -> Checker<'w> {
        let mut core = LittleCore::new(0, LittleCoreConfig::optimized(), CHUNKS_PER_CP);
        core.install_predecode(wl.predecoded().clone());
        core.seed_initial_checkpoint(srcp);
        let initial_csrs = wl.initial_state().csr_snapshot();
        if !initial_csrs.is_empty() {
            core.install_initial_csrs(std::sync::Arc::new(initial_csrs));
        }
        Checker { core, wl, seq: 0 }
    }

    /// Assigns segment `seg`, delivers every memory and CSR record of
    /// `window` at cycle `now` — the memory record at window index
    /// `corrupt.0` with the corrupted `(addr, data)` instead — then the
    /// end checkpoint `ercp`, and replays the segment. With the whole
    /// record window already in the LSL, the batched fast path consumes
    /// it in one call. Returns the cycle the core resumes at and its
    /// verdict, `None` if it starved or overran its deadline.
    pub(crate) fn check(
        &mut self,
        seg: u32,
        window: &[Retired],
        corrupt: Option<(usize, u64, u64)>,
        ercp: RegCheckpoint,
        now: u64,
    ) -> (u64, Option<CheckerEvent>) {
        self.core.assign(seg);
        let mut send = |payload| {
            let packet =
                Packet { seq: self.seq, dest: DestMask::single(0), payload, created_at: now };
            self.core.lsl.deliver(packet, now);
            self.seq += 1;
        };
        for (i, r) in window.iter().enumerate() {
            if let Some(m) = r.mem {
                let (addr, data) = match corrupt {
                    Some((at, addr, data)) if at == i => (addr, data),
                    _ => (m.addr, m.data),
                };
                let is_store = m.is_store;
                send(Payload::Mem { seg, addr, size: m.size, data, is_store });
            }
            if let Some((addr, data)) = r.csr_read {
                send(Payload::Csr { seg, addr, data });
            }
        }
        let inst_count = window.len() as u64;
        send(Payload::RcpEnd { seg, inst_count, cp: Box::new(ercp) });
        self.core.check_burst(now, self.wl.image(), now + 400 * inst_count + 50_000)
    }
}

/// Applies a retired instruction's writeback to a commit-order shadow
/// state (the DEU's view), so segment-end checkpoints can be cut at
/// arbitrary trace indices. Shared with the coverage prover, which cuts
/// its replay-twin checkpoints at recorded segment boundaries.
pub(crate) fn apply_writeback(shadow: &mut ArchState, r: &Retired) {
    use meek_isa::WbDest;
    if let Some((dest, v)) = r.wb {
        match dest {
            WbDest::Int(reg) => shadow.set_x(reg, v),
            WbDest::Fp(freg) => shadow.set_f(freg, v),
        }
    }
    shadow.pc = r.next_pc;
}

/// Way 3: the full MEEK SoC runs the program; the big core's commit
/// stream must match the golden count and every forwarded segment must
/// verify clean on the checker cluster.
///
/// With `snapshots`, the run pauses at a third and at two thirds of the
/// [`arm_span`] that fault plans draw arm points from, and a clone of it
/// is kept at each pause while the kept clones hold at most
/// [`SNAPSHOT_BYTES`] of cache state. A pause ticks no cycle the run
/// would not, so the verdict is the same with or without them.
fn system_check(
    wl: &Workload,
    golden: &GoldenRun,
    cfg: &CosimConfig,
    snapshots: Option<&mut Vec<Sim>>,
) -> Result<u64, Divergence> {
    let n = golden.trace.len() as u64;
    let mut sim = Sim::builder(wl, n)
        .little_cores(cfg.n_little)
        .build_unobserved()
        .expect("cosim configuration is valid");
    let livelock = |e: RunError| Divergence::System { detail: format!("liveness panic: {e}") };
    if let Some(snapshots) = snapshots {
        let mut bytes = 0;
        for third in 1..=2 {
            sim.run_to_commit(arm_span(n) * third / 3).map_err(livelock)?;
            bytes += sim.system().cache_state_bytes();
            if bytes > SNAPSHOT_BYTES {
                break;
            }
            let _span = prof::span("snapshot");
            snapshots.push(sim.clone());
        }
    }
    let report = sim.try_run().map_err(livelock)?.report;
    if report.committed != n {
        return Err(Divergence::System {
            detail: format!(
                "big core committed {} instructions, golden retired {n}",
                report.committed
            ),
        });
    }
    if report.failed_segments != 0 {
        return Err(Divergence::System {
            detail: format!(
                "{} of {} forwarded segments failed verification on a fault-free run",
                report.failed_segments,
                report.failed_segments + report.verified_segments
            ),
        });
    }
    if !report.detections.is_empty() || report.missed_faults != 0 {
        return Err(Divergence::System {
            detail: format!(
                "phantom fault activity: {} detections, {} masked, with no injector",
                report.detections.len(),
                report.missed_faults
            ),
        });
    }
    if report.verified_segments != report.rcps {
        return Err(Divergence::System {
            detail: format!(
                "{} RCPs taken but {} segments verified",
                report.rcps, report.verified_segments
            ),
        });
    }
    Ok(report.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{fuzz_program, FuzzConfig};

    #[test]
    fn clean_programs_cosim_clean() {
        for seed in 0..6 {
            let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
            let case = Case::new(&wl, &CosimConfig::default());
            let v = case.verdict();
            assert!(
                v.divergence.is_none(),
                "seed {seed} diverged: {}",
                v.divergence.clone().unwrap()
            );
            assert!(v.executed > 0);
            assert!(v.segments >= 1);
            assert!(v.system_cycles > 0);
        }
    }

    #[test]
    fn corrupted_golden_data_is_caught_by_replay() {
        // Sanity that the lock-step way actually *can* fail: corrupt one
        // forwarded store's data by corrupting the trace copy.
        let wl = fuzz_program(3, &FuzzConfig::default()).workload();
        let mut golden = golden_run_in(&wl, GOLDEN_CAP).expect("clean");
        let victim = golden
            .trace
            .iter()
            .position(|r| r.mem.is_some_and(|m| m.is_store))
            .expect("fuzzed programs store");
        if let Some(m) = &mut golden.trace[victim].mem {
            m.data ^= 1 << 5;
        }
        let d = replay_lockstep(&wl, &golden, &CosimConfig::default())
            .expect_err("corruption must be detected");
        match d {
            Divergence::Replay { kind, window, .. } => {
                assert!(
                    matches!(
                        kind,
                        MismatchKind::StoreData
                            | MismatchKind::StoreAddr
                            | MismatchKind::Register(_)
                    ),
                    "unexpected kind {kind:?}"
                );
                assert!(window.contains("=>"), "window must mark the divergence:\n{window}");
            }
            d => panic!("unexpected divergence {d}"),
        }
    }

    #[test]
    fn snapshots_fit_their_cache_state_budget() {
        // A fuzzed program keeps a snapshot at each third of its arm span.
        let wl = fuzz_program(0, &FuzzConfig::default()).workload();
        let cfg = CosimConfig::default();
        let case = Case::new(&wl, &cfg);
        let golden = case.golden().expect("golden run");
        let commits: Vec<u64> = golden.snapshots.iter().map(|s| s.system().committed()).collect();
        let span = arm_span(case.verdict().executed);
        assert!(
            matches!(commits[..], [a, b] if a >= span / 3 && b >= span * 2 / 3 && a < b),
            "snapshots at {commits:?} for an arm span of {span}"
        );
        let bytes: u64 = golden.snapshots.iter().map(|s| s.system().cache_state_bytes()).sum();
        assert!(bytes <= SNAPSHOT_BYTES, "{bytes} bytes of cache state kept");
        // The kept wrapper takes the same snapshots.
        let (_, kept) = run_workload(&wl, &cfg);
        let kept: Vec<u64> =
            kept.expect("golden run").snapshots.iter().map(|s| s.system().committed()).collect();
        assert_eq!(kept, commits);
        // Pausing for them does not change the clean run, and a case that
        // will not classify (recovery, or no faults) keeps none.
        let unpaused = Case::with_golden(&wl, golden.clone(), &cfg);
        assert_eq!(format!("{:?}", case.verdict()), format!("{:?}", unpaused.verdict()));
        for cfg in [CosimConfig { recover: true, ..cfg }, CosimConfig { faults: 0, ..cfg }] {
            let case = Case::new(&wl, &cfg);
            assert_eq!(format!("{:?}", case.verdict()), format!("{:?}", unpaused.verdict()));
            assert!(case.golden().expect("golden run").snapshots.is_empty(), "{cfg:?}");
        }
        // One snapshot of the fused kernel set is over the budget alone.
        let fused = meek_progs::WorkloadSet::all().fuse();
        let case = Case::new(&fused, &cfg);
        assert!(
            case.verdict().divergence.is_none(),
            "{}",
            case.verdict().divergence.clone().unwrap()
        );
        assert!(case.golden().expect("golden run").snapshots.is_empty());
    }

    #[test]
    fn seg_len_does_not_change_the_verdict() {
        let wl = fuzz_program(11, &FuzzConfig::default()).workload();
        for seg_len in [7, 64, 1000] {
            let cfg = CosimConfig { seg_len, faults: 0, ..CosimConfig::default() };
            let case = Case::new(&wl, &cfg);
            let d = &case.verdict().divergence;
            assert!(d.is_none(), "seg_len {seg_len}: {}", d.clone().unwrap());
        }
    }
}
