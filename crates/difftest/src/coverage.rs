//! The fault-coverage oracle.
//!
//! For every injected [`FaultSpec`] the full-system run must end in one
//! of three defensible states:
//!
//! * **Detected** — a checker reported the corrupted segment;
//! * **Masked, proven benign** — no checker fired, but a *replay twin*
//!   (a littlecore replay of the detection surface the checkers had —
//!   the fault segment, or the successor segment a corrupted checkpoint
//!   seeds — with only the recorded corruption applied) verifies clean,
//!   proving the flipped bit could not reach any compared artifact:
//!   every load and store address, every store value, every CSR access,
//!   and the boundary register file match the fault-free run;
//! * **Pending** — the fault never fired (armed too late for any
//!   matching packet) or its verdict structurally cannot arrive.
//!
//! Anything else — a masked fault whose replay twin *does* mismatch
//! (the checker should have caught it), a corruption anchor that cannot
//! be reconciled with the golden trace, a run that never drains
//! ([`RunError::Livelock`]) — is an **escape**, and escapes fail
//! loudly: they are exactly the silent-data-corruption events the MEEK
//! architecture exists to prevent. A panic is not a verdict: it is a
//! simulator bug, and propagates.

use crate::cosim::{Checker, GoldenRun};
use meek_core::{CorruptedField, FaultSite, FaultSpec, MaskRecord, RunError, RunReport, Sim};
use meek_isa::state::RegCheckpoint;
use meek_littlecore::SegmentVerdict;
use meek_telemetry::prof;
use meek_workloads::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Classification of one injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// A checker reported the corrupted segment.
    Detected {
        /// Injection-to-detection latency in nanoseconds.
        latency_ns: f64,
    },
    /// No checker fired, and the replay twin proved the corruption
    /// unable to reach any compared artifact.
    MaskedProvenBenign,
    /// The fault never received a verdict (and never corrupted live
    /// comparison data): still queued, armed without a matching packet,
    /// or structurally unverdictable.
    Pending,
    /// A corruption the checkers missed that the replay twin shows (or
    /// cannot disprove) to be able to reach compared state.
    Escaped {
        /// Why this is an escape.
        reason: String,
    },
}

impl FaultOutcome {
    /// Whether this outcome is an escape.
    pub fn is_escape(&self) -> bool {
        matches!(self, FaultOutcome::Escaped { .. })
    }
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOutcome::Detected { latency_ns } => write!(f, "detected ({latency_ns:.1} ns)"),
            FaultOutcome::MaskedProvenBenign => write!(f, "masked (proven benign)"),
            FaultOutcome::Pending => write!(f, "pending (no verdict)"),
            FaultOutcome::Escaped { reason } => write!(f, "ESCAPED: {reason}"),
        }
    }
}

/// The arm points a fault plan draws from for a program that retires
/// `executed` instructions: `0..arm_span(executed)`, the front 60 % of
/// the run, so verdicts can land before drain.
pub fn arm_span(executed: u64) -> u64 {
    (executed * 6 / 10).max(1)
}

/// The order a fault plan cycles through the sites: the three fabric
/// sites of §V-B, then the LSQ parity window and cache data bits.
/// [`fault_plan`] and the fuzzer's plan mutation both index it.
pub const PLAN_SITES: [FaultSite; 5] = [
    FaultSite::RcpRegister,
    FaultSite::MemData,
    FaultSite::MemAddr,
    FaultSite::LsqParity,
    FaultSite::CacheData,
];

/// A per-case fault plan: `n` faults cycling through [`PLAN_SITES`],
/// arm points spread over [`arm_span`].
pub fn fault_plan(seed: u64, n: usize, executed: u64) -> Vec<FaultSpec> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA_017);
    let span = arm_span(executed);
    (0..n)
        .map(|i| {
            let site = PLAN_SITES[i % PLAN_SITES.len()];
            FaultSpec { arm_at_commit: rng.gen_range(0..span), site, bit: rng.gen_range(0..64) }
        })
        .collect()
}

/// [`crate::Case::classify`] against a golden run and built program the
/// caller holds. Kept for the benchmark harness until it moves to
/// [`crate::Case`].
#[doc(hidden)]
pub fn classify_in(
    golden: &GoldenRun,
    wl: &Workload,
    spec: FaultSpec,
    n_little: usize,
) -> FaultOutcome {
    classify(golden, wl, spec, n_little)
}

/// Injects `spec` into a detect-only full-system run of the program
/// built as `wl` on `n_little` checkers and classifies the outcome
/// against the golden reference.
///
/// The run forks from the latest of the golden run's clean-run
/// snapshots that precedes the arm point on `n_little` checkers, so the
/// fault-free prefix is not simulated again; without one it is built
/// from scratch. Under `debug_assertions` a forked run is checked
/// against the from-scratch build.
pub(crate) fn classify(
    golden: &GoldenRun,
    wl: &Workload,
    spec: FaultSpec,
    n_little: usize,
) -> FaultOutcome {
    let n = golden.trace.len() as u64;
    if n == 0 {
        // A program that exits immediately retires nothing: the fault
        // can never fire, which is exactly the pending verdict.
        return FaultOutcome::Pending;
    }
    let scratch = || {
        Sim::builder(wl, n)
            .little_cores(n_little)
            .faults(vec![spec])
            .build_unobserved()
            .expect("coverage configuration is valid")
    };
    // Detect-only classification consumes nothing but the first
    // detection record, so the run may halt the moment it lands.
    let halted = |sim: Sim| sim.halt_on_first_detection().try_run().map(|outcome| outcome.report);
    let report = match fork_point(golden, spec, n_little) {
        Some(snapshot) => {
            let fork = {
                let _span = prof::span("fork");
                snapshot.fork(vec![spec]).expect("coverage configuration is valid")
            };
            let report = halted(fork);
            debug_assert_eq!(
                format!("{report:?}"),
                format!("{:?}", halted(scratch())),
                "the fork of {spec:?} finished unlike its from-scratch build"
            );
            report
        }
        None => halted(scratch()),
    };
    match report {
        Ok(report) => judge(golden, wl, spec, &report),
        Err(RunError::Livelock { .. }) => {
            FaultOutcome::Escaped { reason: format!("system failed to drain with fault {spec:?}") }
        }
    }
}

/// The latest of `golden`'s clean-run snapshots that `spec`'s run can
/// fork from: one on `n_little` checkers that has committed fewer
/// instructions than the arm point.
fn fork_point(golden: &GoldenRun, spec: FaultSpec, n_little: usize) -> Option<&Sim> {
    golden.snapshots.iter().rev().find(|s| {
        s.system().committed() < spec.arm_at_commit && s.system().config().n_little == n_little
    })
}

/// Classifies a completed run's report against the golden reference —
/// shared by detect-only [`classify`], the recovery oracle and
/// [`crate::Case::judge`].
pub(crate) fn judge(
    golden: &GoldenRun,
    wl: &Workload,
    spec: FaultSpec,
    report: &RunReport,
) -> FaultOutcome {
    if let Some(d) = report.detections.first() {
        return FaultOutcome::Detected { latency_ns: d.latency_ns };
    }
    if let Some(mask) = report.masked_faults.first() {
        return prove_benign(golden, wl, mask);
    }
    if report.pending_faults > 0 {
        return FaultOutcome::Pending;
    }
    FaultOutcome::Escaped { reason: format!("fault {spec:?} vanished without a verdict") }
}

/// Proves a masked fault benign by replay twin, or convicts it as an
/// escape.
///
/// The twin replays exactly the detection surface the real checkers had
/// — the fault segment for a run-time record flip, the successor
/// segment for a checkpoint-register flip (its SRCP) — on a littlecore,
/// with the recorded corruption applied and the fault-free golden state
/// at the surface's closing boundary as the end checkpoint. Segment
/// boundaries re-seed every checker from the big core's clean shadow,
/// so corruption that survives the surface in *registers* without
/// touching a compared artifact (addresses, store data, CSR accesses,
/// the boundary register file) is architecturally erased at the next
/// boundary; replaying further would over-convict. If the twin verifies
/// clean, the mask is benign; if it mismatches, the real system should
/// have detected it, and the masked verdict is an escape.
fn prove_benign(golden: &GoldenRun, wl: &Workload, mask: &MaskRecord) -> FaultOutcome {
    let n = golden.trace.len();
    let start = (mask.surface_start as usize).min(n);
    let end = mask.surface_end.map_or(n, |e| (e as usize).min(n));
    match &mask.field {
        &CorruptedField::Mem { addr, size, data, is_store } => {
            // The corrupted packet is the first matching memory record
            // extracted after arming: first trace index >= armed commit
            // count with a memory access (a *load* for cache-data
            // faults, which skip stores).
            let loads_only = mask.spec.site == FaultSite::CacheData;
            let from = (mask.armed_at_commit as usize).min(n);
            let Some(idx) = golden.trace[from..]
                .iter()
                .position(|r| r.mem.is_some_and(|m| !(loads_only && m.is_store)))
                .map(|p| p + from)
            else {
                return FaultOutcome::Escaped {
                    reason: format!("masked memory fault has no anchoring access: {mask:?}"),
                };
            };
            let m = golden.trace[idx].mem.expect("anchored on a memory access");
            if (m.addr, m.size, m.data, m.is_store) != (addr, size, data, is_store) {
                return FaultOutcome::Escaped {
                    reason: format!(
                        "mask anchor mismatch: trace has {m:?} where injector recorded {:?}",
                        mask.field
                    ),
                };
            }
            if idx < start || idx >= end {
                return FaultOutcome::Escaped {
                    reason: format!(
                        "mask anchor at trace index {idx} falls outside the recorded \
                         detection surface [{start}, {end}): {mask:?}"
                    ),
                };
            }
            let (caddr, cdata) = match mask.spec.site {
                FaultSite::MemAddr => (addr ^ (1 << (mask.spec.bit % 64)), data),
                FaultSite::MemData | FaultSite::CacheData => {
                    (addr, data ^ (1 << (mask.spec.bit % (size as u32 * 8))))
                }
                FaultSite::RcpRegister => unreachable!("register fault with a memory field"),
                FaultSite::LsqParity => {
                    unreachable!("parity faults always detect; they never mask")
                }
            };
            let srcp = state_at(golden, wl, start);
            replay_twin(golden, wl, start, end, srcp, Some((idx - start, caddr, cdata)), mask)
        }
        CorruptedField::Register { index, clean_cp } => {
            // The corrupted checkpoint was cut at the surface's opening
            // boundary; the golden state there must equal the recorded
            // clean checkpoint, or the mask evidence is inconsistent.
            if state_at(golden, wl, start) != **clean_cp {
                return FaultOutcome::Escaped {
                    reason: format!(
                        "masked checkpoint fault's clean state does not match the golden \
                         state at its boundary (commit {start}): {mask:?}"
                    ),
                };
            }
            let mut srcp = **clean_cp;
            srcp.x[*index] ^= 1 << (mask.spec.bit % 64);
            replay_twin(golden, wl, start, end, srcp, None, mask)
        }
    }
}

/// The golden architectural registers after `k` retired instructions —
/// the workload's initial state folded forward through the trace's
/// writeback records (the same commit-order view the DEU shadows).
fn state_at(golden: &GoldenRun, wl: &Workload, k: usize) -> RegCheckpoint {
    let mut shadow = wl.initial_state().clone();
    for r in &golden.trace[..k] {
        crate::cosim::apply_writeback(&mut shadow, r);
    }
    shadow.checkpoint()
}

/// Replays `golden.trace[start..end]` on a littlecore as one segment:
/// SRCP = `srcp` (possibly corrupted), run-time records from the golden
/// trace — with the memory record at `corrupt`'s index into the surface
/// replaced by the corrupted `(addr, data)` — and the fault-free golden
/// registers at `end` as the ERCP.
fn replay_twin(
    golden: &GoldenRun,
    wl: &Workload,
    start: usize,
    end: usize,
    srcp: RegCheckpoint,
    corrupt: Option<(usize, u64, u64)>,
    mask: &MaskRecord,
) -> FaultOutcome {
    let ercp = if end == golden.trace.len() { golden.final_cp } else { state_at(golden, wl, end) };
    let (_, ev) = Checker::new(wl, srcp).check(1, &golden.trace[start..end], corrupt, ercp, 0);
    match ev {
        Some(SegmentVerdict { pass: true, .. }) => FaultOutcome::MaskedProvenBenign,
        Some(SegmentVerdict { mismatch, .. }) => FaultOutcome::Escaped {
            reason: format!(
                "replay twin caught the masked corruption as {:?} — the checkers \
                 should have: {mask:?}",
                mismatch.expect("failed segment carries a mismatch")
            ),
        },
        None => FaultOutcome::Escaped {
            reason: format!("replay twin made no progress with the corruption: {mask:?}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{golden_run_in, CosimConfig, GOLDEN_CAP};
    use crate::fuzz::{fuzz_program, FuzzConfig};
    use crate::Case;

    /// `golden` without its clean-run snapshots: every fault classified
    /// against it builds its run from scratch.
    fn without_snapshots(golden: &GoldenRun) -> GoldenRun {
        GoldenRun { snapshots: Vec::new(), ..golden.clone() }
    }

    #[test]
    fn forked_runs_classify_like_from_scratch_builds() {
        let mut forks = 0;
        for seed in 0..40u64 {
            let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
            let case = Case::new(&wl, &CosimConfig::default());
            let d = &case.verdict().divergence;
            assert!(d.is_none(), "seed {seed}: {}", d.clone().unwrap());
            let golden = case.golden().expect("a clean co-simulation carries its golden run");
            let scratch = without_snapshots(golden);
            let plan = case.plan(seed);
            // Besides the plan: an arm at 0, and arms at and just past
            // each snapshot's commit count, where the choice of snapshot
            // changes.
            let edges = golden.snapshots.iter().map(|s| s.system().committed());
            let arms = std::iter::once(0).chain(edges.flat_map(|c| [c, c + 1]));
            let specs = plan.iter().copied().chain(
                arms.zip(plan.iter().cycle())
                    .map(|(arm_at_commit, f)| FaultSpec { arm_at_commit, ..*f }),
            );
            for spec in specs {
                forks += u32::from(fork_point(golden, spec, 4).is_some());
                // The kept wrapper, on a golden run without snapshots,
                // judges like the case's forked run.
                assert_eq!(
                    case.classify(spec),
                    classify_in(&scratch, &wl, spec, 4),
                    "seed {seed}, {spec:?}"
                );
            }
        }
        // Each case forks at least the two arms just past its snapshots.
        assert!(forks >= 80, "only {forks} runs forked");
    }

    #[test]
    fn another_checker_count_builds_from_scratch() {
        let wl = fuzz_program(3, &FuzzConfig::default()).workload();
        let case = Case::new(&wl, &CosimConfig::default());
        let golden = case.golden().expect("a clean co-simulation carries its golden run");
        let last = golden.snapshots.last().expect("a fuzz case keeps snapshots");
        let spec = FaultSpec {
            arm_at_commit: last.system().committed() + 1,
            site: FaultSite::MemData,
            bit: 3,
        };
        assert!(fork_point(golden, spec, 4).is_some(), "the snapshots ran on 4 checkers");
        assert!(fork_point(golden, spec, 2).is_none());
        assert_eq!(
            classify(golden, &wl, spec, 2),
            classify(&without_snapshots(golden), &wl, spec, 2)
        );
    }

    #[test]
    fn injected_faults_never_escape() {
        let mut detected = 0;
        let mut masked = 0;
        let mut pending = 0;
        for seed in 0..8u64 {
            let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
            let case = Case::new(&wl, &CosimConfig::default());
            let d = &case.verdict().divergence;
            assert!(d.is_none(), "seed {seed}: {}", d.clone().unwrap());
            for spec in case.plan(seed) {
                match case.classify(spec) {
                    FaultOutcome::Detected { latency_ns } => {
                        assert!(latency_ns > 0.0);
                        detected += 1;
                    }
                    FaultOutcome::MaskedProvenBenign => masked += 1,
                    FaultOutcome::Pending => pending += 1,
                    FaultOutcome::Escaped { reason } => {
                        panic!("seed {seed}, {spec:?}: {reason}")
                    }
                }
            }
        }
        assert!(detected > 0, "most faults must be detected ({detected}/{masked}/{pending})");
    }

    #[test]
    fn replay_twin_convicts_a_live_corruption() {
        // Hand a fabricated mask record for a *store data* corruption —
        // something the LSL comparison catches immediately — and check
        // the prover convicts rather than excuses it.
        let wl = fuzz_program(5, &FuzzConfig::default()).workload();
        let golden = golden_run_in(&wl, GOLDEN_CAP).expect("clean");
        let idx = golden
            .trace
            .iter()
            .position(|r| r.mem.is_some_and(|m| m.is_store))
            .expect("fuzzed programs store");
        let m = golden.trace[idx].mem.unwrap();
        let mask = MaskRecord {
            spec: FaultSpec { arm_at_commit: idx as u64, site: FaultSite::MemData, bit: 2 },
            injected_cycle: 100,
            seg: 1,
            armed_at_commit: idx as u64,
            field: CorruptedField::Mem { addr: m.addr, size: m.size, data: m.data, is_store: true },
            surface_start: 0,
            surface_end: None,
        };
        let outcome = prove_benign(&golden, &wl, &mask);
        assert!(outcome.is_escape(), "a live store corruption must convict, got {outcome}");
    }

    #[test]
    fn fault_plan_is_deterministic_and_bounded() {
        let a = fault_plan(9, 10, 1000);
        let b = fault_plan(9, 10, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|f| f.arm_at_commit < 600 && f.bit < 64));
        let sites: std::collections::HashSet<_> =
            a.iter().map(|f| format!("{:?}", f.site)).collect();
        assert_eq!(sites.len(), 5, "all five sites appear");
    }
}
