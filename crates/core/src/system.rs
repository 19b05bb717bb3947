//! The assembled MEEK SoC: one big core, N little cores, the forwarding
//! fabric, and the OS-side segment scheduling, simulated across the two
//! clock domains of Fig. 2 (3.2 GHz big core / 1.6 GHz little cores).

use crate::deu::{DeuHook, DeuState, BIG_CORE_NS_PER_CYCLE};
use crate::fault::{FaultInjector, FaultSite, FaultSpec};
use crate::report::{RunReport, StallBreakdown};
use crate::segments::SegmentManager;
use crate::sim::SimEvent;
use meek_bigcore::{BigCore, BigCoreConfig};
use meek_fabric::{DcBufferConfig, DestMask, Fabric};
use meek_isa::{ArchState, SparseMemory};
use meek_littlecore::{LittleCore, LittleCoreConfig, SegmentVerdict};
use meek_recover::{RecoveryManager, RecoveryPolicy};
use meek_workloads::{Workload, WorkloadRun};

pub use meek_fabric::FabricKind;

/// Configuration of a complete MEEK system.
#[derive(Debug, Clone)]
pub struct MeekConfig {
    /// Number of little (checker) cores hooked to the big core.
    pub n_little: usize,
    /// Little-core microarchitecture.
    pub little: LittleCoreConfig,
    /// Big-core microarchitecture.
    pub big: BigCoreConfig,
    /// Interconnect choice.
    pub fabric: FabricKind,
    /// Per-lane DC-Buffer capacity (the depth ablation's axis).
    pub dc_buffer: DcBufferConfig,
    /// Instruction timeout per segment (Table II: 5 000).
    pub seg_timeout: u64,
    /// Recovery policy: disabled by default (the paper's detect-only
    /// pipeline); [`RecoveryPolicy::enabled`] turns detections into
    /// checkpoint rollbacks and re-execution.
    pub recovery: RecoveryPolicy,
}

impl Default for MeekConfig {
    fn default() -> Self {
        MeekConfig {
            n_little: 4,
            little: LittleCoreConfig::optimized(),
            big: BigCoreConfig::sonic_boom(),
            fabric: FabricKind::F2,
            dc_buffer: DcBufferConfig::default(),
            seg_timeout: 5_000,
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl MeekConfig {
    /// The paper's Table II configuration with `n` little cores.
    pub fn with_little_cores(n: usize) -> MeekConfig {
        MeekConfig { n_little: n, ..MeekConfig::default() }
    }

    /// [`MeekConfig::with_little_cores`] plus an enabled recovery
    /// policy: the full detect→rollback→re-execute→verify loop.
    pub fn with_recovery(n: usize, policy: RecoveryPolicy) -> MeekConfig {
        MeekConfig { n_little: n, recovery: policy, ..MeekConfig::default() }
    }
}

/// The full system under simulation.
///
/// Every field is a plain value, so a clone is an independent system
/// that continues from the same cycle.
#[derive(Clone)]
pub struct MeekSystem {
    cfg: MeekConfig,
    big: BigCore,
    littles: Vec<LittleCore>,
    fabric: Fabric,
    deu: DeuState,
    seg_mgr: SegmentManager,
    injector: FaultInjector,
    recover: RecoveryManager,
    run: WorkloadRun,
    image: SparseMemory,
    now: u64,
    app_done_cycle: Option<u64>,
    verified_segments: u64,
    failed_segments: u64,
    /// Structured events accumulated since the last drain (the
    /// `sim::Sim` runner drains them every cycle into its observers).
    events: Vec<SimEvent>,
    /// Detections already surfaced as events (watermark into
    /// `injector.detections`).
    detections_seen: usize,
}

impl MeekSystem {
    /// Builds a system around `workload`, capped at `max_insts` dynamic
    /// instructions, on the fabric `cfg` names, with `faults` as its
    /// fault-injection plan. Performs the OS-side
    /// setup: `b.hook` of the little cores, `l.mode(CHECK)`, seeding of
    /// checkpoint 0 (the program's initial state) on segment 1's
    /// checker, and `b.check(ENABLE)`. Only reachable through
    /// `sim::SimBuilder`, the sole construction path.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_little` is zero.
    pub(crate) fn new(
        cfg: MeekConfig,
        workload: &Workload,
        max_insts: u64,
        faults: Vec<FaultSpec>,
    ) -> MeekSystem {
        assert!(cfg.n_little > 0, "MEEK needs at least one little core");
        let mut run = workload.run(max_insts);
        if cfg.recovery.enabled {
            run.enable_undo();
        }
        let initial_cp = run.initial_checkpoint();
        let mut recover = RecoveryManager::new(cfg.recovery);
        // Checkpoint 0 — the program's initial state — is segment 1's
        // start checkpoint; pin it so even a first-segment detection
        // has a rollback target.
        recover.pin_checkpoint(1, 0, initial_cp, run.state().csr_snapshot());
        let lanes = cfg.big.width as usize;
        let fabric = Fabric::new(cfg.fabric, lanes, cfg.dc_buffer);
        // The record budget is the LSL run-time capacity: an RCP is
        // forced when the targeted LSL is full.
        let mut deu = DeuState::new(
            lanes,
            cfg.fabric.payload_words(),
            cfg.little.lsl.runtime_capacity as u64,
            cfg.seg_timeout,
            initial_cp,
        );
        // The CSR shadow must start from the workload's initial CSR file
        // (not empty): rollback *replaces* the run's CSRs with the pinned
        // snapshot, and a snapshot missing the initial CSRs — the OS-mode
        // gate in particular — would silently flip syscall semantics for
        // everything re-executed after recovery.
        deu.shadow_csrs = run.state().csr_snapshot();
        let chunks = deu.chunks_per_cp();
        // Checkpoints exclude CSRs, so a program whose *initial* state
        // carries CSRs (loaded images: the OS-surface gate) must have
        // them seeded into every checker's replay state directly.
        let initial_csrs = {
            let snap = workload.initial_state().csr_snapshot();
            (!snap.is_empty()).then(|| std::sync::Arc::new(snap))
        };
        let mut littles: Vec<LittleCore> = (0..cfg.n_little)
            .map(|i| {
                let mut lc = LittleCore::new(i, cfg.little, chunks);
                // The shared L2/LLC are warm with the program by the time
                // checker threads are hooked.
                lc.prewarm_code(workload.entry(), 4 * workload.static_len as u64);
                // Replay consumes the workload's pre-decoded record
                // table instead of re-decoding words per instruction.
                lc.install_predecode(workload.predecoded().clone());
                if let Some(csrs) = &initial_csrs {
                    lc.install_initial_csrs(csrs.clone());
                }
                lc
            })
            .collect();
        let mut big = BigCore::new(cfg.big);
        // Steady-state measurement: the loop body is resident after the
        // first iteration on real hardware.
        big.prewarm_icache(workload.entry(), 4 * workload.static_len as u64);
        let mut seg_mgr = SegmentManager::new();
        let first = seg_mgr.try_open(1, &mut littles).expect("a little core is idle at boot");
        littles[first].seed_initial_checkpoint(initial_cp);
        MeekSystem {
            cfg,
            big,
            littles,
            fabric,
            deu,
            seg_mgr,
            injector: FaultInjector::new(faults),
            recover,
            run,
            image: workload.image().clone(),
            now: 0,
            app_done_cycle: None,
            verified_segments: 0,
            failed_segments: 0,
            events: Vec::new(),
            detections_seen: 0,
        }
    }

    /// Drains the events recorded since the last call.
    pub(crate) fn take_events(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    /// Liveness context of a [`crate::sim::RunError::Livelock`]: the drain
    /// predicate's inputs plus a per-little-core snapshot (assignment,
    /// idle flag, LSL occupancies, replay progress) — enough to see
    /// which core or queue wedged. A hung run emits no further events,
    /// so this snapshot is the one diagnostic an attached observer
    /// cannot reconstruct.
    pub(crate) fn liveness_context(&self) -> String {
        let littles: Vec<String> = self
            .littles
            .iter()
            .map(|l| {
                format!(
                    "core{}(assign={:?} idle={} lsl_rt={} lsl_st={} replayed={})",
                    l.id,
                    l.assignment(),
                    l.is_idle(),
                    l.lsl.runtime_len(),
                    l.lsl.status_len(),
                    l.replayed(),
                )
            })
            .collect();
        format!(
            "committed {}, seg {}, verified {}, failed {}, rob {}, drained={} finalized={} \
             transfers_drained={} fabric_empty={} recovery_in_flight={} littles=[{}]",
            self.big.stats().committed,
            self.deu.seg,
            self.verified_segments,
            self.failed_segments,
            self.big.rob_occupancy(),
            self.big.is_drained(),
            self.deu.finalized,
            self.deu.transfers_drained(),
            self.fabric.is_empty(),
            self.recover.in_flight(),
            littles.join(", ")
        )
    }

    /// Current big-core cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Instructions the big core has committed so far.
    pub fn committed(&self) -> u64 {
        self.big.stats().committed
    }

    /// Bytes of cache tag state materialised so far across the big core
    /// and every little core ([`RunReport::cache_state_bytes`] at this
    /// cycle).
    pub fn cache_state_bytes(&self) -> u64 {
        self.big.cache_state_bytes()
            + self.littles.iter().map(LittleCore::cache_state_bytes).sum::<u64>()
    }

    /// Queues `faults` on a system that has run fault-free so far — the
    /// second half of [`crate::sim::Sim::fork`]. Every arm point must lie
    /// past [`MeekSystem::committed`]: the injector then starts exactly
    /// where a run built with `faults` would stand at this cycle.
    ///
    /// # Panics
    ///
    /// Panics if the system was built with faults.
    pub(crate) fn queue_faults(&mut self, faults: Vec<FaultSpec>) {
        assert!(self.injector.is_fault_free(), "only a fault-free run forks");
        self.injector.enqueue(faults);
    }

    /// Instructions currently occupying the big core's re-order buffer.
    pub fn rob_occupancy(&self) -> usize {
        self.big.rob_occupancy()
    }

    /// Packets queued in the forwarding fabric's DC-buffers right now.
    pub fn fabric_depth(&self) -> usize {
        self.fabric.depth()
    }

    /// The checker-pool load signal behind
    /// [`TickSample`](crate::sim::TickSample): how many little cores
    /// are idle right now, and the total LSL backlog (run-time +
    /// status entries) summed across all of them.
    pub fn littlecore_load(&self) -> (usize, usize) {
        let idle = self.littles.iter().filter(|l| l.is_idle()).count();
        let lsl = self.littles.iter().map(|l| l.lsl.runtime_len() + l.lsl.status_len()).sum();
        (idle, lsl)
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MeekConfig {
        &self.cfg
    }

    /// One big-core cycle of the whole SoC.
    pub fn tick(&mut self) {
        let now = self.now;
        // Little clock domain: every second big cycle (1.6 GHz).
        if now.is_multiple_of(2) {
            let tl = now / 2;
            for lc in &mut self.littles {
                if let (_, Some(SegmentVerdict { seg, pass, .. })) = lc.check(tl, &self.image, tl) {
                    self.seg_mgr.finish(seg, pass);
                    self.events.push(SimEvent::SegmentClosed { seg, pass, cycle: now });
                    if pass {
                        self.verified_segments += 1;
                    } else {
                        self.failed_segments += 1;
                    }
                    self.injector.on_segment_verified(seg, pass, now, BIG_CORE_NS_PER_CYCLE);
                    if pass {
                        let out = self.recover.on_verified(seg, now);
                        if let Some(through) = out.release_through {
                            self.run.release_undo_through(through);
                        }
                        if out.episode_closed {
                            self.events.push(SimEvent::RollbackCompleted { seg, cycle: now });
                            // Golden escalation (if any) ends with the
                            // episode; annotate the detections this
                            // recovery closed with their latency.
                            self.injector.suppressed = false;
                            let started = out.episode_started.unwrap_or(now);
                            for d in self.injector.detections.iter_mut().filter(|d| {
                                d.recovery_cycles.is_none()
                                    && d.detected_cycle >= started
                                    && d.site != FaultSite::LsqParity
                            }) {
                                d.recovery_cycles = Some(now - d.detected_cycle);
                            }
                        }
                    } else {
                        // FailAction::Scheduled queues a rollback that
                        // executes once older verdicts are final;
                        // Ignored/GiveUp leave detect-only behaviour.
                        let _ = self.recover.on_failed(seg, now);
                    }
                }
            }
        }
        // A scheduled rollback fires once every older segment's verdict
        // is final (they might fail too and deepen the target).
        if let Some(target) = self.recover.pending_target() {
            if self.seg_mgr.concluded_through() >= target.saturating_sub(1) {
                self.execute_rollback(now);
            }
        }
        if self.recover.enabled() {
            self.recover.note_storage(self.run.undo_bytes());
        }
        // DEU background streaming of checkpoint chunks.
        self.deu.pump_transfers(&mut self.fabric, &mut self.injector, &self.seg_mgr, now);
        // Fabric moves packets toward the LSLs.
        self.fabric.tick(now, &mut self.littles);
        // Big clock domain.
        if self.big.is_drained() && self.app_done_cycle.is_none() {
            self.app_done_cycle = Some(now);
        }
        if !self.big.is_drained() {
            let MeekSystem { big, littles, fabric, deu, seg_mgr, injector, recover, run, .. } =
                self;
            let mut oracle = || run.next_retired();
            let mut hook = DeuHook { deu, fabric, littles, seg_mgr, injector, recover };
            big.tick(now, &mut oracle, &mut hook);
        } else {
            self.finalize(now);
        }
        self.injector.advance(self.big.stats().committed);
        self.collect_component_events(now);
        self.now += 1;
    }

    /// Drains the sub-component event logs (segment opens, fired
    /// corruptions, new detections) into the system's event stream,
    /// stamped with this cycle.
    fn collect_component_events(&mut self, now: u64) {
        for (seg, checker) in self.seg_mgr.take_opened() {
            self.events.push(SimEvent::SegmentOpened { seg, checker, cycle: now });
        }
        for (site, seg, cycle) in self.injector.take_injections() {
            self.events.push(SimEvent::FaultInjected { site, seg, cycle });
        }
        while self.detections_seen < self.injector.detections.len() {
            let record = self.injector.detections[self.detections_seen];
            self.events.push(SimEvent::FaultDetected { record });
            self.detections_seen += 1;
        }
    }

    /// Executes the scheduled rollback: restores the oracle (registers,
    /// CSRs, memory via the undo-log), squashes the big-core pipeline
    /// and every in-flight packet, voids suspect verdicts, resets the
    /// checker cluster, and re-opens the target segment with its start
    /// checkpoint seeded as the carried SRCP.
    fn execute_rollback(&mut self, now: u64) {
        let committed = self.big.stats().committed;
        let (target, golden) = self.recover.take_rollback(committed);
        self.events.push(SimEvent::RollbackStarted { seg: target.seg, golden, cycle: now });
        self.run.rollback(target.commit_index, &target.cp, target.csrs.clone());
        self.big.rollback(now + self.cfg.recovery.restore_cycles, target.commit_index);
        self.fabric.flush();
        for lc in &mut self.littles {
            lc.reset();
        }
        let voided_passes = self.seg_mgr.rollback(target.seg);
        self.verified_segments -= voided_passes;
        self.deu.rollback(target.seg, target.cp, target.csrs, target.commit_index);
        let checker = self
            .seg_mgr
            .try_open(target.seg, &mut self.littles)
            .expect("every checker is idle right after the squash");
        self.littles[checker].seed_carried_srcp(target.seg.wrapping_sub(1), target.cp);
        self.injector.on_rollback(target.seg);
        self.injector.suppressed = golden;
        // The application is no longer "done": it has re-execution
        // ahead of it, and that time is part of the measured run.
        self.app_done_cycle = None;
    }

    /// Emits the final checkpoint once the program has fully committed.
    fn finalize(&mut self, now: u64) {
        if self.deu.finalized {
            return;
        }
        let MeekSystem { littles, fabric, deu, seg_mgr, injector, recover, .. } = self;
        let mut hook = DeuHook { deu, fabric, littles, seg_mgr, injector, recover };
        if hook.finalize_segment(now) {
            self.deu.finalized = true;
        }
    }

    /// Whether everything has drained: program committed, checkpoints
    /// forwarded, fabric empty, all checkers idle, and no recovery
    /// (scheduled rollback or open failure episode) outstanding.
    pub fn is_complete(&self) -> bool {
        self.big.is_drained()
            && self.deu.finalized
            && self.deu.transfers_drained()
            && self.fabric.is_empty()
            && self.littles.iter().all(LittleCore::is_idle)
            && !self.recover.in_flight()
    }

    /// Final architectural state of the application (the functional
    /// oracle's registers, PC and CSRs). After a recovered run this
    /// must equal a fault-free golden execution — the invariant
    /// `meek-difftest --recover` enforces.
    pub fn final_state(&self) -> &ArchState {
        self.run.state()
    }

    /// Final functional memory of the application (same oracle role as
    /// [`MeekSystem::final_state`]).
    pub fn final_memory(&self) -> &SparseMemory {
        self.run.memory()
    }

    /// The fault injector, for the run loop's halt and accounting
    /// checks.
    pub(crate) fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Builds the run report at any point.
    pub fn report(&self) -> RunReport {
        let big = self.big.stats();
        RunReport {
            cycles: self.now,
            app_cycles: self.app_done_cycle.unwrap_or(self.now),
            ns: self.now as f64 * BIG_CORE_NS_PER_CYCLE,
            committed: big.committed,
            big,
            fabric: self.fabric.stats(),
            littles: self.littles.iter().map(|l| l.stats()).collect(),
            verified_segments: self.verified_segments,
            failed_segments: self.failed_segments,
            stalls: StallBreakdown {
                data_collect: big.stall_collect,
                data_forward: big.stall_forward,
                little_core: big.stall_little,
            },
            detections: self.injector.detections.clone(),
            masked_faults: self.injector.masked.clone(),
            pending_faults: self.injector.unresolved(),
            rcps: self.deu.rcps,
            cache_state_bytes: self.cache_state_bytes(),
            recovery: *self.recover.report(),
        }
    }
}

impl DeuHook<'_> {
    /// Queues the final checkpoint (no successor segment). Returns
    /// `true` once queued.
    pub(crate) fn finalize_segment(&mut self, _now: u64) -> bool {
        let seg = self.deu.seg;
        if self.seg_mgr.is_concluded(seg) {
            return true; // verdict already delivered mid-segment
        }
        let Some(checker) = self.ensure_checker(seg) else {
            return false;
        };
        let cp = self.deu.shadow_checkpoint();
        let inst_count = self.deu.insts_in_seg();
        self.deu.queue_transfer(seg, inst_count, cp, DestMask::single(checker));
        self.injector.on_boundary(seg, self.deu.committed_total);
        self.deu.rcps += 1;
        true
    }
}

/// Simulation liveness bound for a run of `max_insts` dynamic
/// instructions: generous enough that only a genuine deadlock trips
/// it. [`crate::sim::SimBuilder`] derives every run's bound from this.
pub fn cycle_cap(max_insts: u64) -> u64 {
    (max_insts * 400).max(20_000_000)
}

/// Runs `workload` on the vanilla big core (checking disabled) and
/// returns the cycle count — the denominator of every slowdown figure.
pub fn run_vanilla(cfg: &BigCoreConfig, workload: &Workload, max_insts: u64) -> u64 {
    let mut big = BigCore::new(*cfg);
    big.prewarm_icache(workload.entry(), 4 * workload.static_len as u64);
    let mut run = workload.run(max_insts);
    big.run_to_drain(&mut || run.next_retired())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSite, FaultSpec};
    use crate::sim::{Sim, TraceLog};
    use meek_workloads::parsec3;

    fn small_workload() -> Workload {
        Workload::build(&parsec3()[0], 11)
    }

    #[test]
    fn meek_system_is_send() {
        // The campaign engine builds and runs whole systems on worker
        // threads; a non-Send field sneaking into the SoC would break
        // that at a distance, so pin it here.
        fn assert_send<T: Send>() {}
        assert_send::<MeekSystem>();
        assert_send::<MeekConfig>();
        assert_send::<crate::report::RunReport>();
    }

    /// Clones `sim` where it stands, then runs the original and the clone
    /// to completion, the original first: a clone sharing any state with
    /// its source would finish differently. Returns the common report.
    fn finish_with_clone(sim: Sim) -> RunReport {
        let fork = sim.clone();
        let a = sim.try_run().expect("the source drains");
        let b = fork.try_run().expect("the clone drains");
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        assert_eq!(a.final_state(), b.final_state());
        assert!(a.final_memory().content_eq(b.final_memory()));
        a.report
    }

    const FAULT: FaultSpec = FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 };

    #[test]
    fn a_clone_between_injection_and_detection_finishes_identically() {
        let wl = small_workload();
        let mut sim =
            Sim::builder(&wl, 12_000).faults(vec![FAULT]).build_unobserved().expect("valid");
        let sys = sim.system_mut();
        loop {
            assert!(!sys.is_complete(), "the fault never fired");
            sys.tick();
            if sys.take_events().iter().any(|e| matches!(e, SimEvent::FaultInjected { .. })) {
                break;
            }
        }
        assert_eq!(sys.injector.unresolved(), 1, "cloned before the detection");
        assert!(sys.fabric_depth() > 0, "the corrupted record is still in a DC-Buffer");
        let report = finish_with_clone(sim);
        assert_eq!(report.detections.len(), 1);
    }

    #[test]
    fn a_clone_mid_rollback_episode_finishes_identically() {
        let wl = small_workload();
        let mut sim = Sim::builder(&wl, 12_000)
            .fabric(FabricKind::Axi)
            .recovery(RecoveryPolicy::enabled())
            .faults(vec![FAULT])
            .build_unobserved()
            .expect("valid");
        let sys = sim.system_mut();
        while !sys.recover.in_flight() {
            assert!(!sys.is_complete(), "the fault never started a rollback episode");
            sys.tick();
        }
        let report = finish_with_clone(sim);
        assert_eq!(report.recovery.rollbacks, 1);
        assert_eq!(report.recovery.recovered, 1);
    }

    #[test]
    fn clean_run_verifies_every_segment() {
        let wl = small_workload();
        let report = Sim::builder(&wl, 15_000).build().expect("valid").run().report;
        assert_eq!(report.failed_segments, 0);
        assert!(report.verified_segments > 0);
        assert_eq!(report.committed, 15_000);
        assert_eq!(report.rcps, report.verified_segments);
    }

    #[test]
    fn slowdown_is_small_with_four_cores() {
        let wl = small_workload();
        let cfg = MeekConfig::default();
        let vanilla = run_vanilla(&cfg.big, &wl, 15_000);
        let report = Sim::builder(&wl, 15_000).build().expect("valid").run().report;
        let slowdown = report.slowdown_vs(vanilla);
        assert!(slowdown < 1.6, "4-core slowdown {slowdown:.3} unreasonably high");
        assert!(slowdown >= 1.0 - 1e-9);
    }

    #[test]
    fn injected_fault_is_detected() {
        let wl = small_workload();
        let report = Sim::builder(&wl, 12_000)
            .faults(vec![FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 }])
            .build()
            .expect("valid")
            .run()
            .report;
        assert_eq!(report.detections.len(), 1, "masked: {:?}", report.masked_faults);
        assert!(report.masked_faults.is_empty());
        assert_eq!(report.failed_segments, 1);
        let d = &report.detections[0];
        assert!(d.latency_ns > 0.0);
        assert!(d.detected_cycle > d.injected_cycle);
    }

    #[test]
    fn single_little_core_still_completes() {
        let wl = small_workload();
        let report = Sim::builder(&wl, 6_000).little_cores(1).build().expect("valid").run().report;
        assert_eq!(report.failed_segments, 0);
        assert!(report.verified_segments > 0);
    }

    #[test]
    fn more_little_cores_never_slower() {
        let wl = small_workload();
        let run_n = |n: usize| {
            Sim::builder(&wl, 10_000).little_cores(n).build().expect("valid").run().report.cycles
        };
        let two = run_n(2);
        let four = run_n(4);
        assert!(four <= two + two / 10, "4 cores ({four}) should not be slower than 2 ({two})");
    }

    #[test]
    fn detected_fault_recovers_to_clean_completion() {
        let wl = small_workload();
        let fault = FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 };
        let detect_only =
            Sim::builder(&wl, 12_000).faults(vec![fault]).build().expect("valid").run().report;
        assert!(detect_only.recovery.rollbacks == 0 && detect_only.detections.len() == 1);
        assert_eq!(detect_only.detections[0].recovery_cycles, None);

        let outcome = Sim::builder(&wl, 12_000)
            .recovery(RecoveryPolicy::enabled())
            .faults(vec![fault])
            .build()
            .expect("valid")
            .run();
        let report = &outcome.report;
        assert_eq!(report.detections.len(), 1);
        let r = &report.recovery;
        assert_eq!(r.rollbacks, 1, "one detection, one rollback: {r:?}");
        assert_eq!(r.recovered, 1);
        assert_eq!(r.unrecovered, 0);
        assert!(r.reexecuted_insts > 0);
        assert!(r.recovery_cycles_total > 0);
        assert!(r.storage_bytes_hwm > 0);
        let cycles = report.detections[0].recovery_cycles;
        assert!(cycles.is_some_and(|c| c > 0), "detection must carry its recovery latency");
        // The run still commits everything and the re-executed segment
        // verifies clean: recovery restored, re-ran, and re-checked.
        assert_eq!(report.committed, 12_000);
        assert_eq!(report.failed_segments, 1);
        // Final state equals a fault-free run of the same workload.
        let clean = Sim::builder(&wl, 12_000).build().expect("valid").run();
        assert_eq!(outcome.final_state(), clean.final_state(), "recovery must be state-preserving");
    }

    #[test]
    fn recovery_survives_a_fault_barrage() {
        let wl = small_workload();
        let faults = (0..6)
            .map(|i| FaultSpec {
                arm_at_commit: 1_500 + i * 2_000,
                site: match i % 3 {
                    0 => FaultSite::MemAddr,
                    1 => FaultSite::MemData,
                    _ => FaultSite::RcpRegister,
                },
                bit: (i as u32 * 11 + 3) % 48,
            })
            .collect();
        let outcome = Sim::builder(&wl, 15_000)
            .recovery(RecoveryPolicy::enabled())
            .faults(faults)
            .build()
            .expect("valid")
            .run();
        let report = &outcome.report;
        let r = &report.recovery;
        assert_eq!(r.unrecovered, 0, "every detection must recover: {r:?}");
        assert_eq!(r.recovered, report.detections.len() as u64 - lsq(report));
        assert_eq!(report.committed, 15_000);
        let clean = Sim::builder(&wl, 15_000).build().expect("valid").run();
        assert_eq!(outcome.final_state(), clean.final_state());
    }

    /// The outcomes of a run: detections, masks and pending faults.
    fn outcomes(report: &RunReport) -> usize {
        report.detections.len() + report.masked_faults.len() + report.pending_faults
    }

    #[test]
    fn a_fault_requeued_by_a_rollback_still_ends_once() {
        // A checkpoint barrage dense enough that a fault fires before the
        // previous detection's rollback executes, which squashes it.
        let wl = small_workload();
        let faults = (0..12)
            .map(|i| FaultSpec {
                arm_at_commit: 1_000 + i * 300,
                site: FaultSite::RcpRegister,
                bit: (i as u32 * 11 + 3) % 48,
            })
            .collect();
        let mut trace = TraceLog::new(0);
        let report = Sim::builder(&wl, 15_000)
            .recovery(RecoveryPolicy::enabled())
            .faults(faults)
            .observe(&mut trace)
            .build()
            .expect("valid")
            .run()
            .report;
        let fired = trace.snapshot().iter().filter(|e| e.name() == "fault_injected").count();
        assert!(fired > 12, "no rollback re-queued a fault: {fired} injections");
        assert_eq!(outcomes(&report), 12, "{report:?}");
    }

    #[test]
    fn one_checker_ends_each_of_many_faults_once() {
        let wl = small_workload();
        let mut rng = rand::SeedableRng::seed_from_u64(0x1C);
        let faults = crate::fault::random_fault_specs(12, 14_000, &mut rng);
        let report = Sim::builder(&wl, 15_000)
            .little_cores(1)
            .faults(faults)
            .build()
            .expect("valid")
            .run()
            .report;
        assert!(report.detections.len() > 1, "{report:?}");
        assert_eq!(outcomes(&report), 12);
    }

    fn lsq(report: &RunReport) -> u64 {
        report.detections.iter().filter(|d| d.site == FaultSite::LsqParity).count() as u64
    }

    #[test]
    fn lsq_parity_fault_detected_without_failing_a_segment() {
        let wl = small_workload();
        let report = Sim::builder(&wl, 12_000)
            .faults(vec![FaultSpec { arm_at_commit: 3_000, site: FaultSite::LsqParity, bit: 21 }])
            .build()
            .expect("valid")
            .run()
            .report;
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.detections[0].site, FaultSite::LsqParity);
        assert_eq!(report.failed_segments, 0, "parity catches it before any checker sees it");
        assert!(report.big.cycles > 0);
        assert!(report.masked_faults.is_empty());
    }

    #[test]
    fn cache_data_fault_is_detected_by_replay() {
        let wl = small_workload();
        let report = Sim::builder(&wl, 12_000)
            .faults(vec![FaultSpec { arm_at_commit: 3_000, site: FaultSite::CacheData, bit: 5 }])
            .build()
            .expect("valid")
            .run()
            .report;
        assert_eq!(
            report.detections.len() + report.masked_faults.len(),
            1,
            "a load-data flip is either detected or provably dead: {report:?}"
        );
    }

    #[test]
    fn axi_fabric_completes() {
        let wl = small_workload();
        let report =
            Sim::builder(&wl, 8_000).fabric(FabricKind::Axi).build().expect("valid").run().report;
        assert_eq!(report.failed_segments, 0);
    }

    #[test]
    fn fabric_kind_names_roundtrip() {
        for kind in FabricKind::ALL {
            assert_eq!(FabricKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FabricKind::from_name("bogus"), None);
    }
}
