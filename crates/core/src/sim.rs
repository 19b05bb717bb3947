//! Typed, validating simulation construction and structured run
//! introspection — the one composable entry point every harness
//! (campaign engine, difftest oracles, benches, examples) builds its
//! systems through.
//!
//! Historically each downstream crate hand-assembled a [`MeekSystem`]
//! through a different ad-hoc sequence (`new` vs `with_fabric`, then
//! `set_faults`/`set_injector`, then a manually computed cycle cap
//! threaded into `run_to_completion`) and introspected runs through
//! preformatted debug strings. [`SimBuilder`] replaces all of that:
//!
//! * every knob (workload, little-core count, fabric kind, recovery
//!   policy, fault plan, instruction budget) is set on one builder,
//!   and degenerate combinations are rejected with a typed
//!   [`BuildError`] instead of a mid-run panic;
//! * the simulation liveness bound is derived internally from the
//!   instruction budget ([`cycle_cap`], at least 400 cycles per
//!   instruction) — widened automatically for recovery-enabled runs,
//!   whose rollbacks legitimately re-execute work. No caller sets it:
//!   only a run that is stuck comes near it. The bound counts cycles
//!   from cycle 0, so a clone of a run part-way through keeps the bound
//!   of its source;
//! * [`Sim::run_to_commit`] is the one loop that ticks a system: it
//!   advances a run in place until a commit count is reached, so a
//!   caller can pause a run, clone it and carry on. [`Sim::try_run`] is
//!   `run_to_commit` with no commit target plus the finish: it yields a
//!   structured [`RunOutcome`] — the familiar [`RunReport`] plus the
//!   final architectural state and a per-segment [`SegmentSpan`]
//!   timeline — or [`RunError::Livelock`] when the system fails to
//!   drain within the bound. [`Sim::run`] is `try_run` for callers to
//!   whom a livelock is a simulator bug: it panics with the error's
//!   text. Oracles call `try_run` and turn a livelock into a verdict;
//!   any other panic is a bug and propagates;
//! * [`Sim::fork`] turns a paused fault-free run into the faulty run a
//!   builder with the same faults would have reached by that cycle, as
//!   long as every fault arms past the commit count the run stands at
//!   ([`BuildError::FaultBeforeFork`] otherwise). Fault classification
//!   forks each fault from a snapshot of the clean run instead of
//!   re-simulating the fault-free prefix;
//! * instead of polling strings, callers attach [`Observer`]s: the
//!   system hands each one every [`SimEvent`] (segment opened/closed,
//!   fault injected/detected, rollback started/completed) and the
//!   occupancy samples it asks for. The caller owns the observer and
//!   the run borrows it, so the caller reads it directly after the run.
//!
//! # Quickstart
//!
//! ```
//! use meek_core::sim::{Sim, TraceLog};
//! use meek_core::{FaultSite, FaultSpec};
//! use meek_workloads::{parsec3, Workload};
//!
//! let wl = Workload::build(&parsec3()[0], 1);
//! let mut trace = TraceLog::new(0);
//! let outcome = Sim::builder(&wl, 12_000)
//!     .little_cores(4)
//!     .faults(vec![FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 }])
//!     .observe(&mut trace)
//!     .build()
//!     .expect("valid configuration")
//!     .try_run()
//!     .expect("the system drains");
//! assert_eq!(outcome.report.detections.len(), 1);
//! let detected = trace.snapshot().into_iter().filter(|e| e.name() == "fault_detected").count();
//! assert_eq!(detected, 1);
//! assert!(outcome.timeline.iter().any(|span| span.pass == Some(false)));
//! ```
//!
//! # Validation
//!
//! ```
//! use meek_core::sim::{BuildError, Sim};
//! use meek_workloads::{parsec3, Workload};
//!
//! let wl = Workload::build(&parsec3()[0], 1);
//! let err = Sim::builder(&wl, 10_000).little_cores(0).build().unwrap_err();
//! assert_eq!(err, BuildError::NoLittleCores);
//! ```

use crate::fault::{DetectionRecord, FaultSite, FaultSpec};
use crate::report::RunReport;
use crate::system::{cycle_cap, FabricKind, MeekConfig, MeekSystem};
use meek_fabric::DestMask;
use meek_isa::{ArchState, SparseMemory};
use meek_littlecore::LittleCoreConfig;
use meek_recover::RecoveryPolicy;
use meek_workloads::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// One structured simulation event, stamped with the big-core cycle it
/// happened on. This is what [`Observer`]s receive and what
/// `meek_telemetry::JsonlEventSink` serialises.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A segment was opened on (assigned to) a checker core.
    SegmentOpened {
        /// Segment id (1-based).
        seg: u32,
        /// Little core chosen by the scheduler.
        checker: usize,
        /// Big-core cycle of the assignment.
        cycle: u64,
    },
    /// A segment's verdict was delivered and its checker released.
    SegmentClosed {
        /// Segment id.
        seg: u32,
        /// `true` = verified clean, `false` = mismatch (a detection).
        pass: bool,
        /// Big-core cycle of the verdict.
        cycle: u64,
    },
    /// An armed fault fired: one bit of forwarded data (or the LSQ
    /// parity window) was actually corrupted.
    FaultInjected {
        /// Corrupted site.
        site: FaultSite,
        /// Segment whose data was corrupted.
        seg: u32,
        /// Big-core cycle of the flip.
        cycle: u64,
    },
    /// A checker (or the parity double-check) reported an injected
    /// fault. The record is a snapshot at detection time — its
    /// `recovery_cycles` annotation lands later, in the final report.
    FaultDetected {
        /// The detection as recorded by the injector.
        record: DetectionRecord,
    },
    /// A recovery rollback began executing (oracle rewind, pipeline
    /// squash, fabric flush).
    RollbackStarted {
        /// Segment being rolled back to (re-executed from).
        seg: u32,
        /// Whether this retry escalated to golden (injection-suppressed)
        /// re-execution.
        golden: bool,
        /// Big-core cycle the rollback fired.
        cycle: u64,
    },
    /// A failure episode closed: the re-executed region verified clean.
    RollbackCompleted {
        /// The re-verified segment that closed the episode.
        seg: u32,
        /// Big-core cycle of the closing verdict.
        cycle: u64,
    },
}

impl SimEvent {
    /// The big-core cycle this event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            SimEvent::SegmentOpened { cycle, .. }
            | SimEvent::SegmentClosed { cycle, .. }
            | SimEvent::FaultInjected { cycle, .. }
            | SimEvent::RollbackStarted { cycle, .. }
            | SimEvent::RollbackCompleted { cycle, .. } => cycle,
            SimEvent::FaultDetected { ref record } => record.detected_cycle,
        }
    }

    /// Stable snake-case event name (the JSONL `"event"` field).
    pub fn name(&self) -> &'static str {
        match self {
            SimEvent::SegmentOpened { .. } => "segment_opened",
            SimEvent::SegmentClosed { .. } => "segment_closed",
            SimEvent::FaultInjected { .. } => "fault_injected",
            SimEvent::FaultDetected { .. } => "fault_detected",
            SimEvent::RollbackStarted { .. } => "rollback_started",
            SimEvent::RollbackCompleted { .. } => "rollback_completed",
        }
    }
}

/// Run instrumentation: the system hands every [`SimEvent`] to
/// [`Observer::event`] as the simulation produces it, and a
/// [`TickSample`] to [`Observer::sample`] on the cycles the observer
/// asks for.
///
/// Every method has a default — implement only what you need. An
/// observer is a plain value the caller owns: [`SimBuilder::observe`]
/// borrows it for the run, and the caller reads it directly once
/// [`Sim::try_run`] or [`Sim::run`] has consumed the [`Sim`].
pub trait Observer: Send {
    /// One structured event, in the order the system produced it.
    fn event(&mut self, _ev: &SimEvent) {}
    /// Per-cycle occupancy sample (ROB, fabric backlog), taken right
    /// after the cycle's tick. Only called on cycles for which
    /// [`Observer::wants_sample_at`] returned `true` — keep it cheap.
    fn sample(&mut self, _cycle: u64, _sample: TickSample) {}
    /// The run drained; final report available. Flush buffers here.
    fn finished(&mut self, _report: &RunReport) {}
    /// Whether this observer does anything at all. [`Sim::try_run`] skips
    /// the whole per-cycle sample path when this returns `false`; the
    /// zero-sized [`NoObserver`] pins it to `false` so unobserved runs
    /// compile the hooks away entirely.
    fn is_enabled(&self) -> bool {
        true
    }
    /// Whether this observer wants a [`TickSample`] for `cycle`.
    /// [`Sim::try_run`] builds the (ROB + fabric occupancy) sample only on
    /// cycles where some attached observer answers `true`, so stride-N
    /// samplers no longer force per-cycle sample construction. The
    /// conservative default is every cycle.
    fn wants_sample_at(&self, _cycle: u64) -> bool {
        true
    }
}

/// The zero-sized "nobody is watching" observer — the default type
/// parameter of [`Sim`]. Runs built with
/// [`SimBuilder::build_unobserved`] monomorphize against it, so every
/// per-cycle hook (sample construction, event dispatch) is statically
/// dead code instead of an empty dynamic dispatch loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoObserver;

impl Observer for NoObserver {
    fn is_enabled(&self) -> bool {
        false
    }

    fn wants_sample_at(&self, _cycle: u64) -> bool {
        false
    }
}

/// The observers one [`SimBuilder::build`] run borrows, driven in
/// attachment order — what [`Sim`] monomorphizes against when observed.
/// The caller owns each observer; the set holds only the borrows, so
/// the per-cycle dispatch stays a single static call on the set.
#[derive(Default)]
pub struct ObserverSet<'a>(Vec<&'a mut dyn Observer>);

impl Observer for ObserverSet<'_> {
    fn event(&mut self, ev: &SimEvent) {
        for obs in &mut self.0 {
            obs.event(ev);
        }
    }

    fn sample(&mut self, cycle: u64, sample: TickSample) {
        for obs in &mut self.0 {
            obs.sample(cycle, sample);
        }
    }

    fn finished(&mut self, report: &RunReport) {
        for obs in &mut self.0 {
            obs.finished(report);
        }
    }

    fn is_enabled(&self) -> bool {
        !self.0.is_empty()
    }

    fn wants_sample_at(&self, cycle: u64) -> bool {
        self.0.iter().any(|obs| obs.wants_sample_at(cycle))
    }
}

/// One cycle's occupancy snapshot, handed to [`Observer::sample`] —
/// the structured source for time-series figures (ROB occupancy and
/// fabric depth over time) and for coverage buckets in the fuzzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickSample {
    /// Instructions resident in the big core's re-order buffer.
    pub rob_occupancy: usize,
    /// Packets queued across the forwarding fabric's DC-buffers.
    pub fabric_depth: usize,
    /// Checker (little) cores currently idle — no segment assigned.
    /// Together with `lsl_occupancy` this is the load signal
    /// runtime-adaptive checker allocation reacts to.
    pub littles_idle: usize,
    /// Load-store-log entries (run-time + status packets awaiting
    /// replay) summed across every checker core.
    pub lsl_occupancy: usize,
}

/// A bounded ring buffer of the most recent [`SimEvent`]s — the
/// structured replacement for the old one-line debug-state strings
/// when diagnosing a stuck or misbehaving run.
///
/// Attach it with `observe(&mut trace)` and read
/// [`TraceLog::snapshot`] once the run is over.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    capacity: usize,
    events: VecDeque<SimEvent>,
    dropped: u64,
}

impl TraceLog {
    /// A ring keeping the last `capacity` events (0 = unbounded).
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog { capacity, ..TraceLog::default() }
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<SimEvent> {
        self.events.iter().cloned().collect()
    }

    /// Events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Observer for TraceLog {
    fn event(&mut self, ev: &SimEvent) {
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev.clone());
    }

    fn wants_sample_at(&self, _cycle: u64) -> bool {
        false // event-stream only: never consumes TickSamples
    }
}

/// One retained row of a [`SamplingObserver`] time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRow {
    /// Big-core cycle the sample was taken on.
    pub cycle: u64,
    /// ROB occupancy that cycle.
    pub rob_occupancy: usize,
    /// Fabric backlog (queued packets) that cycle.
    pub fabric_depth: usize,
    /// Idle checker cores that cycle.
    pub littles_idle: usize,
    /// Total LSL backlog across checker cores that cycle.
    pub lsl_occupancy: usize,
}

/// Built-in per-cycle occupancy sampler: records the ROB-occupancy and
/// fabric-depth time series of a run (the ROADMAP's time-series-figure
/// observer, surfaced as `meek-campaign --sample`).
///
/// Attach it with `observe(&mut sampler)` and read the series once the
/// run is over. A `stride` of `n` keeps every `n`-th cycle (cycle 0
/// included); 1 keeps everything.
#[derive(Clone, Debug)]
pub struct SamplingObserver {
    rows: Vec<SampleRow>,
    stride: u64,
}

impl SamplingObserver {
    /// A sampler keeping every `stride`-th cycle.
    ///
    /// A `stride` of 0 is explicitly clamped to 1 (sample every cycle):
    /// a zero stride has no meaningful grid, and library callers get
    /// the densest series rather than a panic. Front-ends that treat 0
    /// as a user error (the campaign CLI rejects `--sample 0`) must
    /// validate before constructing the observer.
    pub fn new(stride: u64) -> SamplingObserver {
        SamplingObserver { rows: Vec::new(), stride: stride.max(1) }
    }

    /// The rows retained so far, in cycle order.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Renders the series as CSV rows
    /// `cycle,rob,fabric_depth,littles_idle,lsl_occupancy` (no
    /// header), each line prefixed with `prefix` verbatim — campaign
    /// shards pass `"workload,shard,"` so a merged file stays
    /// self-describing.
    pub fn render_csv(&self, prefix: &str) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{prefix}{},{},{},{},{}\n",
                r.cycle, r.rob_occupancy, r.fabric_depth, r.littles_idle, r.lsl_occupancy
            ));
        }
        out
    }
}

impl Observer for SamplingObserver {
    fn sample(&mut self, cycle: u64, sample: TickSample) {
        if cycle.is_multiple_of(self.stride) {
            self.rows.push(SampleRow {
                cycle,
                rob_occupancy: sample.rob_occupancy,
                fabric_depth: sample.fabric_depth,
                littles_idle: sample.littles_idle,
                lsl_occupancy: sample.lsl_occupancy,
            });
        }
    }

    fn wants_sample_at(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.stride)
    }
}

/// A rejected [`SimBuilder`] configuration. Every variant is a
/// degenerate combination the old constructors either panicked on or
/// silently mis-simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// MEEK needs at least one little (checker) core.
    NoLittleCores,
    /// A run of zero dynamic instructions has no segments to verify.
    ZeroInstructionBudget,
    /// More little cores than a fabric destination mask can address
    /// ([`DestMask::MAX_CORES`], one bit per core).
    TooManyLittleCores {
        /// The requested little-core count.
        requested: usize,
    },
    /// Recovery was enabled with `rollback_depth == 0`: a rollback
    /// with no checkpoint to reach is unexecutable.
    RecoveryWithoutCheckpoints,
    /// A fault arms at or past the instruction budget: it could never
    /// fire, and would be misreported as pending.
    FaultBeyondBudget {
        /// The offending arm point.
        arm_at_commit: u64,
        /// The run's dynamic instruction budget.
        budget: u64,
    },
    /// [`Sim::fork`] was given a fault that arms at or before the
    /// commit count the forked run has already reached: a run built
    /// with the fault would have armed it in the shared prefix.
    FaultBeforeFork {
        /// The offending arm point.
        arm_at_commit: u64,
        /// Instructions the forked run had committed.
        committed: u64,
    },
    /// The workload's entry PC is not 4-aligned. RV64 (without the C
    /// extension) fetches 4-byte-aligned words; a misaligned entry can
    /// only come from a mis-assembled or mis-declared image.
    MisalignedEntry {
        /// The offending entry PC.
        entry: u64,
    },
    /// The word at the workload's entry PC does not decode — the image
    /// has no code there (wrong load address, wrong entry metadata), so
    /// a run would trap on its first fetch and be misreported as a
    /// cycle-cap liveness failure.
    EntryNotExecutable {
        /// The entry PC with no decodable instruction.
        entry: u64,
        /// The word found there.
        word: u32,
    },
    /// The workload's declared writable data window overlaps its code
    /// span: stores would self-modify code that every execution way
    /// pre-decoded at build time, silently diverging replay from fetch.
    DataWindowOverlapsCode {
        /// Declared window base.
        data_base: u64,
        /// Declared window size in bytes.
        data_size: u64,
        /// Code span start (the entry PC).
        code_base: u64,
        /// Code span end (one past the last static instruction).
        code_end: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoLittleCores => write!(f, "MEEK needs at least one little core"),
            BuildError::ZeroInstructionBudget => {
                write!(f, "instruction budget must be positive")
            }
            BuildError::TooManyLittleCores { requested } => write!(
                f,
                "{requested} little cores requested, but MEEK addresses at most {}",
                DestMask::MAX_CORES
            ),
            BuildError::RecoveryWithoutCheckpoints => {
                write!(f, "recovery enabled with rollback_depth 0: no checkpoint to roll back to")
            }
            BuildError::FaultBeyondBudget { arm_at_commit, budget } => write!(
                f,
                "fault arms at commit {arm_at_commit}, at or past the {budget}-instruction budget"
            ),
            BuildError::FaultBeforeFork { arm_at_commit, committed } => write!(
                f,
                "fault arms at commit {arm_at_commit}, at or before the fork point's \
                 {committed} commits"
            ),
            BuildError::MisalignedEntry { entry } => {
                write!(f, "entry PC {entry:#x} is not 4-aligned")
            }
            BuildError::EntryNotExecutable { entry, word } => write!(
                f,
                "no decodable instruction at entry PC {entry:#x} (found word {word:#010x})"
            ),
            BuildError::DataWindowOverlapsCode { data_base, data_size, code_base, code_end } => {
                write!(
                    f,
                    "data window [{data_base:#x}, {:#x}) overlaps code span \
                     [{code_base:#x}, {code_end:#x})",
                    data_base + data_size
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Checks the configuration-level invariants [`SimBuilder::build`]
/// enforces, without needing a workload. Front-ends that accept a
/// [`MeekConfig`] from outside (e.g. the campaign engine's spec) call
/// this once up front so a degenerate config surfaces as a typed error
/// on the caller's thread instead of a panic on a worker.
///
/// # Errors
///
/// Returns [`BuildError::NoLittleCores`],
/// [`BuildError::TooManyLittleCores`] or
/// [`BuildError::RecoveryWithoutCheckpoints`] for the corresponding
/// degenerate configurations.
pub fn validate_config(cfg: &MeekConfig) -> Result<(), BuildError> {
    if cfg.n_little == 0 {
        return Err(BuildError::NoLittleCores);
    }
    if cfg.n_little > DestMask::MAX_CORES {
        return Err(BuildError::TooManyLittleCores { requested: cfg.n_little });
    }
    if cfg.recovery.enabled && cfg.recovery.rollback_depth == 0 {
        return Err(BuildError::RecoveryWithoutCheckpoints);
    }
    Ok(())
}

/// Builder for a [`Sim`]: one validated, composable construction path
/// for every MEEK scenario — fabric × recovery × fault matrices
/// included.
pub struct SimBuilder<'a> {
    workload: &'a Workload,
    insts: u64,
    cfg: MeekConfig,
    faults: Vec<FaultSpec>,
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> SimBuilder<'a> {
    /// A builder for `insts` dynamic instructions of `workload`, at the
    /// paper's Table II defaults (4 little cores, F2 fabric, recovery
    /// off).
    pub fn new(workload: &'a Workload, insts: u64) -> SimBuilder<'a> {
        SimBuilder {
            workload,
            insts,
            cfg: MeekConfig::default(),
            faults: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// Replaces the whole system configuration (the campaign engine's
    /// path: its spec carries a prebuilt [`MeekConfig`]). Individual
    /// setters called afterwards still apply on top.
    pub fn config(mut self, cfg: MeekConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Number of little (checker) cores.
    pub fn little_cores(mut self, n: usize) -> Self {
        self.cfg.n_little = n;
        self
    }

    /// Little-core microarchitecture. Its LSL run-time capacity is the
    /// segment record budget: an RCP is forced when the targeted LSL
    /// is full.
    pub fn little_config(mut self, little: LittleCoreConfig) -> Self {
        self.cfg.little = little;
        self
    }

    /// Interconnect choice (the Fig. 9 ablation axis).
    pub fn fabric(mut self, kind: FabricKind) -> Self {
        self.cfg.fabric = kind;
        self
    }

    /// Instruction timeout per segment (Table II: 5 000).
    pub fn segment_timeout(mut self, timeout: u64) -> Self {
        self.cfg.seg_timeout = timeout;
        self
    }

    /// Recovery policy (checkpoint/rollback/re-execution knobs).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.cfg.recovery = policy;
        self
    }

    /// Fault-injection plan (e.g. [`crate::random_fault_specs`]).
    pub fn faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an [`Observer`] for the run; may be called repeatedly.
    /// Observers are driven in attachment order. The run borrows the
    /// observer, so the caller reads it directly once [`Sim::try_run`]
    /// or [`Sim::run`] has consumed the [`Sim`].
    pub fn observe(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }

    /// Validates the configuration and assembles the system.
    ///
    /// The liveness bound is derived from the instruction budget
    /// ([`cycle_cap`]); recovery-enabled runs automatically widen it by
    /// a retry-budget-aware multiplier (rollback re-execution can
    /// legitimately repeat committed work once per retry, plus the
    /// golden escalation pass).
    ///
    /// # Errors
    ///
    /// Returns a typed [`BuildError`] for every degenerate
    /// combination; see the enum's variants.
    pub fn build(self) -> Result<Sim<ObserverSet<'a>>, BuildError> {
        self.assemble(ObserverSet)
    }

    /// Like [`SimBuilder::build`], but monomorphizes the run against
    /// the zero-sized [`NoObserver`]: no observers exist, so the
    /// per-cycle hook path (sample construction, event dispatch)
    /// compiles away entirely. This is the hot path for oracle-style
    /// callers that only need the [`RunOutcome`] — the difftest
    /// cosimulator, fault classification, recovery verification and the
    /// benches.
    ///
    /// # Errors
    ///
    /// Returns the same typed [`BuildError`]s as [`SimBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if observers were attached — attaching via
    /// [`SimBuilder::observe`] and then discarding silently would be a
    /// caller bug.
    pub fn build_unobserved(self) -> Result<Sim<NoObserver>, BuildError> {
        self.assemble(|observers| {
            assert!(observers.is_empty(), "observers attached to an unobserved build");
            NoObserver
        })
    }

    /// The shared validation + assembly behind both build flavours;
    /// `observer` turns the attached observers into the run's `O`.
    fn assemble<O: Observer>(
        self,
        observer: impl FnOnce(Vec<&'a mut dyn Observer>) -> O,
    ) -> Result<Sim<O>, BuildError> {
        if self.insts == 0 {
            return Err(BuildError::ZeroInstructionBudget);
        }
        validate_config(&self.cfg)?;
        // Image-shape validation: degenerate loaded images used to run
        // straight into the cycle-cap livelock; reject them with
        // typed errors instead.
        let entry = self.workload.entry();
        if !entry.is_multiple_of(4) {
            return Err(BuildError::MisalignedEntry { entry });
        }
        let entry_word = self.workload.image().peek_inst(entry);
        if meek_isa::decode(entry_word).is_err() {
            return Err(BuildError::EntryNotExecutable { entry, word: entry_word });
        }
        if let Some((data_base, data_size)) = self.workload.data_window() {
            let code_end = entry + 4 * self.workload.static_len as u64;
            if data_base < code_end && data_base + data_size > entry {
                return Err(BuildError::DataWindowOverlapsCode {
                    data_base,
                    data_size,
                    code_base: entry,
                    code_end,
                });
            }
        }
        check_budget(&self.faults, self.insts)?;
        let sys = MeekSystem::new(self.cfg, self.workload, self.insts, self.faults);
        // Each failure episode may re-execute committed work once per
        // retry, and golden escalation adds one more pass.
        let recovery = &sys.config().recovery;
        let passes = if recovery.enabled { 2 + recovery.max_retries as u64 } else { 1 };
        let max_cycles = cycle_cap(self.insts).saturating_mul(passes);
        Ok(Sim {
            sys,
            budget: self.insts,
            max_cycles,
            observer: observer(self.observers),
            halt_on_first_detection: false,
            timeline: BTreeMap::new(),
        })
    }
}

/// Rejects a fault that arms at or past the `budget`-instruction run:
/// it could never fire.
fn check_budget(faults: &[FaultSpec], budget: u64) -> Result<(), BuildError> {
    match faults.iter().map(|f| f.arm_at_commit).max() {
        Some(arm_at_commit) if arm_at_commit >= budget => {
            Err(BuildError::FaultBeyondBudget { arm_at_commit, budget })
        }
        _ => Ok(()),
    }
}

/// A validated, ready-to-run simulation, monomorphized over its
/// observer: [`SimBuilder::build`] yields `Sim<ObserverSet>` (the
/// borrowed observers, dispatched dynamically), and
/// [`SimBuilder::build_unobserved`] yields `Sim<NoObserver>` whose
/// per-cycle hook path is statically dead. Obtain one from
/// [`Sim::builder`]; advance it with [`Sim::run_to_commit`] and consume
/// it with [`Sim::try_run`] or [`Sim::run`]. An unobserved `Sim` clones
/// into an independent run that continues from the same cycle, and a
/// fault-free one [`Sim::fork`]s into a faulty run.
#[derive(Clone)]
pub struct Sim<O: Observer = NoObserver> {
    sys: MeekSystem,
    /// The dynamic instruction budget the run was built with.
    budget: u64,
    max_cycles: u64,
    observer: O,
    halt_on_first_detection: bool,
    /// Per-segment spans so far, keyed by segment.
    timeline: BTreeMap<u32, SegmentSpan>,
}

impl<O: Observer> fmt::Debug for Sim<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("max_cycles", &self.max_cycles)
            .field("observed", &self.observer.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Sim<NoObserver> {
    /// Starts a builder — the canonical construction path for every
    /// MEEK simulation.
    pub fn builder(workload: &Workload, insts: u64) -> SimBuilder<'_> {
        SimBuilder::new(workload, insts)
    }

    /// Clones this fault-free run where it stands and queues `faults` on
    /// the clone. The clone then finishes exactly as a run built with
    /// `faults` does: before its first fault arms, a run's fault
    /// injector holds nothing but its queue, so a fault-free run that
    /// has committed fewer instructions than every arm point *is* the
    /// faulty run at this cycle. Fault classification forks each fault
    /// from a snapshot of the clean run instead of re-simulating the
    /// shared prefix.
    ///
    /// # Errors
    ///
    /// [`BuildError::FaultBeforeFork`] if a fault arms at or before
    /// [`MeekSystem::committed`], and [`BuildError::FaultBeyondBudget`]
    /// if one arms at or past the budget, as [`SimBuilder::build`]
    /// rejects it.
    ///
    /// # Panics
    ///
    /// Panics if this run was built with faults.
    pub fn fork(&self, faults: Vec<FaultSpec>) -> Result<Sim, BuildError> {
        check_budget(&faults, self.budget)?;
        let committed = self.sys.committed();
        match faults.iter().map(|f| f.arm_at_commit).min() {
            Some(arm_at_commit) if arm_at_commit <= committed => {
                Err(BuildError::FaultBeforeFork { arm_at_commit, committed })
            }
            _ => {
                let mut fork = self.clone();
                fork.sys.queue_faults(faults);
                Ok(fork)
            }
        }
    }
}

impl<O: Observer> Sim<O> {
    /// The derived liveness bound: cycles, counted from cycle 0, the
    /// run may take before [`Sim::try_run`] gives up with
    /// [`RunError::Livelock`].
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// The underlying system (advanced introspection between manual
    /// ticks; most callers only need [`Sim::try_run`]).
    pub fn system(&self) -> &MeekSystem {
        &self.sys
    }

    /// Mutable access for tests that tick the system by hand before
    /// handing the rest of the run to [`Sim::try_run`].
    #[cfg(test)]
    pub(crate) fn system_mut(&mut self) -> &mut MeekSystem {
        &mut self.sys
    }

    /// Stops the run as soon as no fault is unresolved — every queued
    /// fault is detected or masked — instead of draining the system. A
    /// run without faults stops before its first cycle.
    ///
    /// This is a fast path for detect-only oracles that consume nothing
    /// but a single fault's [`DetectionRecord`] or
    /// [`MaskRecord`](crate::fault::MaskRecord): each is complete the
    /// moment the injector records it, so halting there returns an
    /// identical verdict at a fraction of the simulated cycles. Every
    /// other report field (cycle counts, stall decomposition) then
    /// reflects the truncated run, so callers that read beyond the fault
    /// outcomes must not use this. Recovery-enabled runs should not halt
    /// either: recovery annotates the detection after the fact.
    pub fn halt_on_first_detection(mut self) -> Self {
        self.halt_on_first_detection = true;
        self
    }

    /// Ticks the run, driving every attached [`Observer`], until at
    /// least `commits` instructions have committed, the system drains,
    /// or (after [`Sim::halt_on_first_detection`]) every fault has
    /// resolved.
    /// This is the one loop that ticks a [`MeekSystem`]; stopping it and
    /// calling it again ticks exactly the cycles one call would.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Livelock`] once the run reaches cycle
    /// [`Sim::max_cycles`] without draining.
    pub fn run_to_commit(&mut self, commits: u64) -> Result<(), RunError> {
        while !self.sys.is_complete() && self.sys.committed() < commits {
            if self.halt_on_first_detection && self.sys.injector().unresolved() == 0 {
                break;
            }
            if self.sys.now() >= self.max_cycles {
                return Err(RunError::Livelock {
                    cycle: self.sys.now(),
                    max_cycles: self.max_cycles,
                    context: self.sys.liveness_context(),
                });
            }
            self.sys.tick();
            let cycle = self.sys.now() - 1;
            for ev in self.sys.take_events() {
                apply_to_timeline(&mut self.timeline, &ev);
                self.observer.event(&ev);
            }
            if self.observer.is_enabled() && self.observer.wants_sample_at(cycle) {
                let (littles_idle, lsl_occupancy) = self.sys.littlecore_load();
                let sample = TickSample {
                    rob_occupancy: self.sys.rob_occupancy(),
                    fabric_depth: self.sys.fabric_depth(),
                    littles_idle,
                    lsl_occupancy,
                };
                self.observer.sample(cycle, sample);
            }
        }
        Ok(())
    }

    /// Runs the simulation to drain ([`Sim::run_to_commit`] with no
    /// commit target) and returns the structured outcome. A fault whose
    /// consumer verdict never came is pending in the report.
    ///
    /// Debug builds check that every queued fault ends exactly once:
    /// detected, masked or pending.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Livelock`] if the system fails to drain
    /// within [`Sim::max_cycles`]. Observers then get no
    /// [`Observer::finished`] call.
    pub fn try_run(mut self) -> Result<RunOutcome, RunError> {
        self.run_to_commit(u64::MAX)?;
        let report = self.sys.report();
        debug_assert_eq!(
            report.detections.len() + report.masked_faults.len() + report.pending_faults,
            self.sys.injector().queued(),
            "a fault did not end exactly once: {:?} {:?}",
            report.detections,
            report.masked_faults
        );
        self.observer.finished(&report);
        Ok(RunOutcome { report, timeline: self.timeline.into_values().collect(), sys: self.sys })
    }

    /// [`Sim::try_run`] for callers to whom a livelock is a simulator
    /// bug (figures, examples, tests and the campaign engine).
    ///
    /// # Panics
    ///
    /// Panics with the [`RunError`]'s text if the system fails to drain
    /// within the derived cycle bound.
    pub fn run(self) -> RunOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Why a [`Sim::try_run`] produced no [`RunOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The system did not drain within the derived liveness bound: a
    /// deadlock or livelock in the modelled pipeline.
    Livelock {
        /// Big-core cycle at which the bound was reached.
        cycle: u64,
        /// The bound, in cycles from cycle 0: a clone or fork of a run
        /// keeps the bound of the run it came from.
        max_cycles: u64,
        /// The drain predicate's inputs and a per-little-core snapshot
        /// (assignment, idle flag, LSL occupancies, replay progress).
        context: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Livelock { max_cycles, context, .. } => {
                write!(f, "system failed to drain within {max_cycles} cycles: {context}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// One segment's life in the run timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpan {
    /// Segment id (1-based).
    pub seg: u32,
    /// The checker core the segment last ran on.
    pub checker: usize,
    /// Cycle of the segment's first open.
    pub opened_cycle: u64,
    /// Cycle of the (final) verdict, if one was delivered.
    pub closed_cycle: Option<u64>,
    /// The final verdict, if delivered.
    pub pass: Option<bool>,
    /// Times the segment was re-opened by recovery rollbacks.
    pub reopens: u32,
}

fn apply_to_timeline(timeline: &mut BTreeMap<u32, SegmentSpan>, ev: &SimEvent) {
    match *ev {
        SimEvent::SegmentOpened { seg, checker, cycle } => {
            timeline
                .entry(seg)
                .and_modify(|span| {
                    span.checker = checker;
                    span.reopens += 1;
                    // A re-opened segment's earlier verdict was voided.
                    span.closed_cycle = None;
                    span.pass = None;
                })
                .or_insert(SegmentSpan {
                    seg,
                    checker,
                    opened_cycle: cycle,
                    closed_cycle: None,
                    pass: None,
                    reopens: 0,
                });
        }
        SimEvent::SegmentClosed { seg, pass, cycle } => {
            if let Some(span) = timeline.get_mut(&seg) {
                span.closed_cycle = Some(cycle);
                span.pass = Some(pass);
            }
        }
        _ => {}
    }
}

/// The structured result of one [`Sim::try_run`]: the familiar report plus
/// final architectural state and the per-segment timeline.
pub struct RunOutcome {
    /// The run report (cycles, stalls, detections, recovery metrics).
    pub report: RunReport,
    /// Per-segment spans in segment order: open/close cycles, verdict,
    /// checker assignment, rollback re-opens.
    pub timeline: Vec<SegmentSpan>,
    sys: MeekSystem,
}

impl RunOutcome {
    /// Final architectural state of the application (the functional
    /// oracle's registers, PC and CSRs). After a recovered run this
    /// must equal a fault-free golden execution.
    pub fn final_state(&self) -> &ArchState {
        self.sys.final_state()
    }

    /// Final functional memory of the application (same oracle role as
    /// [`RunOutcome::final_state`]).
    pub fn final_memory(&self) -> &SparseMemory {
        self.sys.final_memory()
    }

    /// The drained system, for introspection the report does not cover.
    pub fn system(&self) -> &MeekSystem {
        &self.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_workloads::parsec3;

    fn small_workload() -> Workload {
        Workload::build(&parsec3()[0], 11)
    }

    #[test]
    fn zero_little_cores_is_a_typed_error() {
        let wl = small_workload();
        let err = Sim::builder(&wl, 1_000).little_cores(0).build().unwrap_err();
        assert_eq!(err, BuildError::NoLittleCores);
        assert!(err.to_string().contains("little core"));
    }

    #[test]
    fn more_little_cores_than_a_destination_mask_addresses_is_a_typed_error() {
        let wl = small_workload();
        let err = Sim::builder(&wl, 1_000).little_cores(17).build().unwrap_err();
        assert_eq!(err, BuildError::TooManyLittleCores { requested: 17 });
        assert_eq!(err.to_string(), "17 little cores requested, but MEEK addresses at most 16");
        assert_eq!(validate_config(&MeekConfig::with_little_cores(17)), Err(err));
        assert!(Sim::builder(&wl, 1_000).little_cores(16).build().is_ok());
    }

    #[test]
    fn zero_instruction_budget_is_a_typed_error() {
        let wl = small_workload();
        let err = Sim::builder(&wl, 0).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroInstructionBudget);
    }

    #[test]
    fn recovery_without_checkpoints_is_a_typed_error() {
        let wl = small_workload();
        let policy = RecoveryPolicy { rollback_depth: 0, ..RecoveryPolicy::enabled() };
        let err = Sim::builder(&wl, 1_000).recovery(policy).build().unwrap_err();
        assert_eq!(err, BuildError::RecoveryWithoutCheckpoints);
        // Depth 0 is fine while recovery is off (the knob is inert).
        let policy = RecoveryPolicy { rollback_depth: 0, ..RecoveryPolicy::default() };
        assert!(Sim::builder(&wl, 1_000).recovery(policy).build().is_ok());
    }

    #[test]
    fn fault_beyond_the_budget_is_a_typed_error() {
        let wl = small_workload();
        let spec = FaultSpec { arm_at_commit: 1_000, site: FaultSite::MemAddr, bit: 1 };
        let err = Sim::builder(&wl, 1_000).faults(vec![spec]).build().unwrap_err();
        assert_eq!(err, BuildError::FaultBeyondBudget { arm_at_commit: 1_000, budget: 1_000 });
        // One instruction of slack makes it valid.
        assert!(Sim::builder(&wl, 1_001).faults(vec![spec]).build().is_ok());
    }

    /// A tiny hand-built loaded image: one `addi` at `entry`, used by the
    /// image-shape rejection tests below.
    fn image_workload(entry: u64) -> Workload {
        use meek_isa::inst::AluImmOp;
        use meek_isa::{encode, Inst, Reg};
        let mut image = SparseMemory::new();
        let addi = encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 1 });
        image.load_program(entry & !3, &[addi, addi]);
        Workload::from_image("image-test", image, entry, (entry & !3) + 8, 2, ArchState::new(entry))
    }

    #[test]
    fn misaligned_entry_is_a_typed_error() {
        let wl = image_workload(0x1002);
        let err = Sim::builder(&wl, 1_000).build().unwrap_err();
        assert_eq!(err, BuildError::MisalignedEntry { entry: 0x1002 });
        assert!(err.to_string().contains("4-aligned"));
    }

    #[test]
    fn undecodable_entry_word_is_a_typed_error() {
        // An image with nothing loaded at the entry PC reads back as an
        // all-zero word, which is not a valid RV64 instruction.
        let wl = Workload::from_image(
            "empty-entry",
            SparseMemory::new(),
            0x4000,
            0x4008,
            2,
            ArchState::new(0x4000),
        );
        let err = Sim::builder(&wl, 1_000).build().unwrap_err();
        assert_eq!(err, BuildError::EntryNotExecutable { entry: 0x4000, word: 0 });
        assert!(err.to_string().contains("entry PC"));
    }

    #[test]
    fn data_window_overlapping_code_is_a_typed_error() {
        // Code span is [0x1000, 0x1008); a window starting mid-span must
        // be rejected, while one starting at the span end is fine.
        let wl = image_workload(0x1000).with_data_window(0x1004, 0x100);
        let err = Sim::builder(&wl, 1_000).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::DataWindowOverlapsCode {
                data_base: 0x1004,
                data_size: 0x100,
                code_base: 0x1000,
                code_end: 0x1008,
            }
        );
        assert!(err.to_string().contains("overlaps code"));
        let wl = image_workload(0x1000).with_data_window(0x1008, 0x100);
        assert!(Sim::builder(&wl, 1_000).build().is_ok());
    }

    #[test]
    fn clean_run_produces_a_consistent_timeline() {
        let wl = small_workload();
        let outcome = Sim::builder(&wl, 10_000).build().expect("valid").run();
        assert_eq!(outcome.report.failed_segments, 0);
        assert_eq!(outcome.timeline.len() as u64, outcome.report.verified_segments);
        let mut prev = 0;
        for span in &outcome.timeline {
            assert_eq!(span.seg, prev + 1, "timeline is dense in segment order");
            prev = span.seg;
            assert_eq!(span.pass, Some(true));
            assert_eq!(span.reopens, 0);
            assert!(span.closed_cycle.is_some_and(|c| c > span.opened_cycle));
            assert!(span.checker < 4);
        }
    }

    #[test]
    fn observers_see_the_fault_lifecycle() {
        let wl = small_workload();
        let mut trace = TraceLog::new(0);
        let outcome = Sim::builder(&wl, 12_000)
            .faults(vec![FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 }])
            .observe(&mut trace)
            .build()
            .expect("valid")
            .run();
        assert_eq!(outcome.report.detections.len(), 1);
        let events = trace.snapshot();
        let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
        assert_eq!(count("fault_injected"), 1);
        assert_eq!(count("fault_detected"), 1);
        let fails =
            events.iter().filter(|e| matches!(e, SimEvent::SegmentClosed { pass: false, .. }));
        assert_eq!(fails.count(), 1);
        assert_eq!(count("segment_opened"), count("segment_closed"), "every segment concluded");
        // The story is told in order.
        let injected = events
            .iter()
            .position(|e| matches!(e, SimEvent::FaultInjected { .. }))
            .expect("injection logged");
        let detected = events
            .iter()
            .position(|e| matches!(e, SimEvent::FaultDetected { .. }))
            .expect("detection logged");
        assert!(injected < detected);
        assert!(events.windows(2).all(|w| w[0].cycle() <= w[1].cycle()), "cycle-ordered");
        // The failed segment shows in the timeline.
        let failed: Vec<_> = outcome.timeline.iter().filter(|s| s.pass == Some(false)).collect();
        assert_eq!(failed.len() as u64, outcome.report.failed_segments);
    }

    #[test]
    fn halted_run_preserves_the_first_detection_record() {
        // The detect-only fast path must surface the exact detection
        // record the drained run would — site, cycles, latency — while
        // simulating strictly fewer (or equal) cycles.
        let wl = small_workload();
        let spec = FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 };
        let full = Sim::builder(&wl, 12_000)
            .faults(vec![spec])
            .build_unobserved()
            .expect("valid")
            .run()
            .report;
        let halted = Sim::builder(&wl, 12_000)
            .faults(vec![spec])
            .build_unobserved()
            .expect("valid")
            .halt_on_first_detection()
            .run()
            .report;
        assert_eq!(full.detections.len(), 1);
        assert_eq!(halted.detections.first(), full.detections.first());
        assert!(halted.cycles <= full.cycles, "{} > {}", halted.cycles, full.cycles);
    }

    #[test]
    fn a_halted_run_stops_at_its_mask() {
        let wl = small_workload();
        let spec = FaultSpec { arm_at_commit: 3_700, site: FaultSite::CacheData, bit: 5 };
        let sim =
            || Sim::builder(&wl, 12_000).faults(vec![spec]).build_unobserved().expect("valid");
        let full = sim().run().report;
        let halted = sim().halt_on_first_detection().run().report;
        assert_eq!(full.masked_faults.len(), 1, "{full:?}");
        assert_eq!(halted.masked_faults, full.masked_faults);
        assert_eq!(halted.pending_faults, 0);
        assert!(halted.cycles < full.cycles, "{} >= {}", halted.cycles, full.cycles);
    }

    #[test]
    fn recovery_run_emits_rollback_events_and_reopens() {
        let wl = small_workload();
        let mut trace = TraceLog::new(0);
        let outcome = Sim::builder(&wl, 12_000)
            .recovery(RecoveryPolicy::enabled())
            .faults(vec![FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 }])
            .observe(&mut trace)
            .build()
            .expect("valid")
            .run();
        assert_eq!(outcome.report.recovery.rollbacks, 1);
        let events = trace.snapshot();
        let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
        assert_eq!(count("rollback_started"), 1);
        assert_eq!(count("rollback_completed"), 1);
        assert!(
            outcome.timeline.iter().any(|s| s.reopens > 0),
            "a rollback must re-open its target segment"
        );
        // Re-opened segments end verified: recovery re-checked them.
        for span in &outcome.timeline {
            assert_eq!(span.pass, Some(true), "segment {} unverified after recovery", span.seg);
        }
    }

    #[test]
    fn trace_log_ring_evicts_oldest() {
        let wl = small_workload();
        let mut trace = TraceLog::new(4);
        let outcome = Sim::builder(&wl, 10_000).observe(&mut trace).build().expect("valid").run();
        let events = trace.snapshot();
        assert_eq!(events.len(), 4);
        assert!(trace.dropped() > 0);
        // The tail of the run: the last event is a clean verdict
        // (segments can conclude out of order across checkers, so it
        // need not be the highest-numbered segment).
        match events.last().expect("non-empty") {
            SimEvent::SegmentClosed { seg, pass: true, .. } => {
                assert!(*seg as u64 <= outcome.report.verified_segments);
            }
            other => panic!("unexpected tail event {other:?}"),
        }
    }

    #[test]
    fn sampling_observer_records_the_occupancy_time_series() {
        let wl = small_workload();
        let mut sampler = SamplingObserver::new(8);
        let outcome = Sim::builder(&wl, 10_000).observe(&mut sampler).build().expect("valid").run();
        let rows = sampler.rows();
        assert_eq!(rows.len() as u64, outcome.report.cycles.div_ceil(8));
        assert_eq!(rows[0].cycle, 0);
        assert!(rows.windows(2).all(|w| w[1].cycle == w[0].cycle + 8), "stride-8 grid");
        assert!(rows.iter().any(|r| r.rob_occupancy > 0), "the ROB fills during the run");
        assert!(rows.iter().any(|r| r.fabric_depth > 0), "forwarding traffic must appear");
        assert!(rows.iter().any(|r| r.lsl_occupancy > 0), "checker LSLs must fill");
        assert!(
            rows.iter().any(|r| r.littles_idle < MeekConfig::default().n_little),
            "some sample must catch a busy checker"
        );
        let csv = sampler.render_csv("mcf,3,");
        assert_eq!(csv.lines().count(), rows.len());
        assert!(csv.starts_with("mcf,3,0,"), "prefix and cycle lead each row: {csv}");
        assert!(
            csv.lines().all(|l| l.split(',').count() == 7),
            "prefix + cycle,rob,fabric,idle,lsl on every row: {csv}"
        );
        // A stride-1 sampler sees every cycle.
        let mut dense = SamplingObserver::new(1);
        let outcome = Sim::builder(&wl, 5_000).observe(&mut dense).build().expect("valid").run();
        assert_eq!(dense.rows().len() as u64, outcome.report.cycles);
    }

    #[test]
    fn a_run_past_its_bound_is_a_typed_livelock() {
        let wl = small_workload();
        let mut sim = Sim::builder(&wl, 5_000).build_unobserved().expect("valid");
        sim.max_cycles = 100;
        let Err(err) = sim.clone().try_run() else { panic!("drained within 100 cycles") };
        let RunError::Livelock { cycle, max_cycles, ref context } = err;
        assert_eq!((cycle, max_cycles), (100, 100));
        assert!(context.starts_with("committed "), "liveness context: {context}");
        assert!(err.to_string().starts_with("system failed to drain within 100 cycles: "));
        // `run` panics with the same text.
        let Err(payload) = std::thread::spawn(move || sim.run()).join() else {
            panic!("run returned past its bound")
        };
        assert_eq!(payload.downcast_ref::<String>(), Some(&err.to_string()));
    }

    #[test]
    fn a_clone_keeps_its_sources_liveness_bound() {
        let wl = small_workload();
        let mut sim = Sim::builder(&wl, 5_000).build_unobserved().expect("valid");
        sim.max_cycles = 100;
        for _ in 0..40 {
            sim.system_mut().tick();
        }
        let clone = sim.clone();
        for run in [sim, clone] {
            let Err(RunError::Livelock { cycle, max_cycles, .. }) = run.try_run() else {
                panic!("drained within 100 cycles")
            };
            assert_eq!((cycle, max_cycles), (100, 100));
        }
    }

    const FORK_FAULT: FaultSpec =
        FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemAddr, bit: 9 };

    #[test]
    fn fork_rejects_arms_it_cannot_reach_with_typed_errors() {
        let wl = small_workload();
        let mut clean = Sim::builder(&wl, 12_000).build_unobserved().expect("valid");
        clean.run_to_commit(3_000).expect("no livelock");
        let committed = clean.system().committed();
        assert!((3_000..4_000).contains(&committed), "paused at {committed} commits");
        let at = |arm_at_commit| FaultSpec { arm_at_commit, ..FORK_FAULT };
        let err = clean.fork(vec![at(committed + 1), at(committed)]).unwrap_err();
        assert_eq!(err, BuildError::FaultBeforeFork { arm_at_commit: committed, committed });
        assert!(err.to_string().contains("at or before the fork point"), "{err}");
        assert_eq!(
            clean.fork(vec![at(0)]).unwrap_err(),
            BuildError::FaultBeforeFork { arm_at_commit: 0, committed }
        );
        assert_eq!(
            clean.fork(vec![at(12_000)]).unwrap_err(),
            BuildError::FaultBeyondBudget { arm_at_commit: 12_000, budget: 12_000 }
        );
        assert!(clean.fork(vec![at(committed + 1), at(11_999)]).is_ok());
    }

    #[test]
    #[should_panic(expected = "only a fault-free run forks")]
    fn forking_a_faulty_run_panics() {
        let wl = small_workload();
        let faulty = Sim::builder(&wl, 12_000).faults(vec![FORK_FAULT]).build_unobserved();
        let _ = faulty.expect("valid").fork(vec![FaultSpec { arm_at_commit: 5_000, ..FORK_FAULT }]);
    }

    /// Pauses a clean run on `fabric` at 3 600 commits, forks it with a
    /// cache-data flip that masks and an address flip that is detected,
    /// and checks that the fork finishes exactly like a run built with
    /// both faults: report, final state, memory and timeline.
    fn assert_fork_finishes_like_a_build(fabric: FabricKind) {
        let plan = vec![
            FaultSpec { arm_at_commit: 3_700, site: FaultSite::CacheData, bit: 5 },
            FaultSpec { arm_at_commit: 8_000, site: FaultSite::MemAddr, bit: 9 },
        ];
        let wl = small_workload();
        let builder = || Sim::builder(&wl, 12_000).fabric(fabric);
        let mut clean = builder().build_unobserved().expect("valid");
        clean.run_to_commit(3_600).expect("no livelock");
        let committed = clean.system().committed();
        let fork = clean.fork(plan.clone()).expect("the faults arm past the fork point");
        let forked = fork.try_run().expect("the fork drains");
        let built = builder().faults(plan).build_unobserved().expect("valid");
        let built = built.try_run().expect("the build drains");
        assert_eq!(format!("{:?}", forked.report), format!("{:?}", built.report));
        assert_eq!(forked.final_state(), built.final_state());
        assert!(forked.final_memory().content_eq(built.final_memory()));
        assert_eq!(forked.timeline, built.timeline);
        let report = &forked.report;
        assert_eq!((report.detections.len(), report.masked_faults.len()), (1, 1), "{fabric:?}");
        // The masked fault's detection surface opens at a segment
        // boundary the clean run recorded before the fork, so the fork
        // must carry the boundaries along with the rest of the run.
        assert!(report.masked_faults[0].surface_start <= committed, "{fabric:?}: {report:?}");
        // The fork shares nothing with its source, which still runs clean.
        let clean = clean.try_run().expect("the source drains");
        assert!(clean.report.detections.is_empty() && clean.report.failed_segments == 0);
    }

    #[test]
    fn a_mid_run_fork_of_a_clean_f2_run_finishes_like_a_build() {
        assert_fork_finishes_like_a_build(FabricKind::F2);
    }

    #[test]
    fn a_mid_run_fork_of_a_clean_axi_run_finishes_like_a_build() {
        assert_fork_finishes_like_a_build(FabricKind::Axi);
    }

    #[test]
    fn recovery_widens_the_derived_cap_automatically() {
        let wl = small_workload();
        let policy = RecoveryPolicy::enabled(); // max_retries 3
        let sim = Sim::builder(&wl, 5_000).recovery(policy).build().expect("valid");
        assert_eq!(sim.max_cycles(), (2 + 3) * cycle_cap(5_000));
    }

    #[test]
    fn sim_is_send() {
        // Campaign workers build and run sims on worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<Sim>();
        assert_send::<Sim<ObserverSet<'static>>>();
        assert_send::<RunOutcome>();
        assert_send::<SimEvent>();
        assert_send::<TraceLog>();
    }

    #[test]
    fn unobserved_build_matches_observed_build() {
        let wl = small_workload();
        let observed = Sim::builder(&wl, 10_000).build().expect("valid").run();
        let unobserved = Sim::builder(&wl, 10_000).build_unobserved().expect("valid").run();
        assert_eq!(observed.report.cycles, unobserved.report.cycles);
        assert_eq!(observed.report.committed, unobserved.report.committed);
        assert_eq!(observed.report.verified_segments, unobserved.report.verified_segments);
        assert_eq!(observed.report.failed_segments, unobserved.report.failed_segments);
        assert_eq!(observed.final_state().checkpoint(), unobserved.final_state().checkpoint());
        assert_eq!(observed.timeline.len(), unobserved.timeline.len());
    }

    #[test]
    fn cache_state_bytes_follow_what_the_run_touched() {
        // Dense tag arrays for this SoC would be 5 922 816 B (370 176
        // lines of 16 B over the big core and 4 little cores), all of it
        // written before the first cycle.
        let wl = small_workload();
        let sim = Sim::builder(&wl, 1_000).little_cores(4).build_unobserved().expect("valid");
        let bytes = sim.run().report.cache_state_bytes;
        assert!(bytes > 0 && bytes < 512 * 1024, "cache_state_bytes = {bytes}");
    }

    #[test]
    #[should_panic(expected = "observers attached")]
    fn unobserved_build_with_observers_panics() {
        let wl = small_workload();
        let _ = Sim::builder(&wl, 1_000).observe(&mut TraceLog::new(1)).build_unobserved();
    }

    /// An observer that declines sampling and treats any delivered
    /// sample as a bug — the regression guard for the hoisted
    /// "anyone sampling this cycle?" check.
    #[derive(Default)]
    struct RefusesSamples {
        events: u64,
    }

    impl Observer for RefusesSamples {
        fn event(&mut self, _ev: &SimEvent) {
            self.events += 1;
        }

        fn sample(&mut self, cycle: u64, _sample: TickSample) {
            panic!("TickSample built on cycle {cycle} although nobody wants samples");
        }

        fn wants_sample_at(&self, _cycle: u64) -> bool {
            false
        }
    }

    #[test]
    fn sample_path_is_dead_when_no_observer_wants_samples() {
        let wl = small_workload();
        let mut obs = RefusesSamples::default();
        let outcome = Sim::builder(&wl, 5_000).observe(&mut obs).build().expect("valid").run();
        // Events still reach the observer; the sample path never ran.
        assert!(obs.events >= 2 * outcome.report.verified_segments, "{} events", obs.events);
        // The zero-sized unobserved path reports itself hook-free.
        assert!(!NoObserver.is_enabled());
        assert!(!NoObserver.wants_sample_at(0));
        assert!(!ObserverSet::default().is_enabled());
    }

    #[test]
    fn sampling_stride_zero_is_clamped_to_one() {
        // The documented contract: stride 0 samples every cycle, exactly
        // like stride 1 (the campaign CLI rejects 0 before getting here).
        let mut sampler = SamplingObserver::new(0);
        assert!(sampler.wants_sample_at(0));
        assert!(sampler.wants_sample_at(1));
        assert!(sampler.wants_sample_at(7));
        let wl = small_workload();
        let outcome = Sim::builder(&wl, 3_000).observe(&mut sampler).build().expect("valid").run();
        assert_eq!(sampler.rows().len() as u64, outcome.report.cycles);
    }
}
