//! The recovery oracle: *every injected-and-detected fault must end
//! with a final state equal to the golden interpreter's.*
//!
//! Detection proves the checkers saw the corruption; recovery must
//! prove the system then put the architecture back. Each fault is
//! injected into a recovery-enabled full-system run, and the verdict
//! combines the usual coverage classification (detected /
//! masked-proven-benign / pending / escaped — the same replay-twin
//! prover as detect-only mode) with the recovery invariants:
//!
//! * every non-parity detection carries a completed recovery
//!   (`recovery_cycles` annotated, `unrecovered == 0`);
//! * the run still commits exactly the golden instruction count;
//! * the final registers, CSRs **and memory** equal the golden run's —
//!   a rollback that mis-rewinds the undo-log or drops a CSR would
//!   corrupt the very state recovery exists to protect, and fails
//!   loudly here.

use crate::cosim::GoldenRun;
use crate::coverage::{self, FaultOutcome};
use meek_core::{FabricKind, FaultSite, FaultSpec, RecoveryPolicy, RunError, RunOutcome, Sim};
use meek_workloads::Workload;
use std::fmt;

/// Recovery-side verdict for one injected fault (paired with the
/// coverage [`FaultOutcome`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryVerdict {
    /// The fault was detected and every triggered episode recovered to
    /// a golden-equal final state.
    Recovered {
        /// Rollbacks the episode(s) took.
        rollbacks: u64,
        /// Worst-case episode latency in big-core cycles.
        max_cycles: u64,
    },
    /// Nothing to recover (fault masked, pending, or caught in the
    /// parity window) — and the final state still equals golden.
    NothingToRecover,
    /// A detection finished the run without a completed recovery.
    Unrecovered {
        /// What was left dangling.
        reason: String,
    },
    /// The recovered run's final architectural state (registers, CSRs
    /// or memory) disagrees with the golden interpreter — the recovery
    /// machinery itself corrupted state.
    StateDiverged {
        /// First disagreement found.
        reason: String,
    },
}

impl RecoveryVerdict {
    /// Whether this verdict fails the recovery oracle.
    pub fn is_failure(&self) -> bool {
        matches!(self, RecoveryVerdict::Unrecovered { .. } | RecoveryVerdict::StateDiverged { .. })
    }
}

impl fmt::Display for RecoveryVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryVerdict::Recovered { rollbacks, max_cycles } => {
                write!(f, "recovered ({rollbacks} rollback(s), worst {max_cycles} cycles)")
            }
            RecoveryVerdict::NothingToRecover => write!(f, "nothing to recover"),
            RecoveryVerdict::Unrecovered { reason } => write!(f, "UNRECOVERED: {reason}"),
            RecoveryVerdict::StateDiverged { reason } => write!(f, "STATE DIVERGED: {reason}"),
        }
    }
}

/// [`crate::Case::recover`] against a golden run and built program the
/// caller holds. Kept for the benchmark harness until it moves to
/// [`crate::Case`].
#[doc(hidden)]
pub fn verify_recovery_in(
    golden: &GoldenRun,
    wl: &Workload,
    spec: FaultSpec,
    n_little: usize,
    fabric: FabricKind,
) -> (FaultOutcome, RecoveryVerdict) {
    verify(golden, wl, spec, n_little, fabric)
}

/// Injects `spec` into a recovery-enabled system run of the program
/// built as `wl` on interconnect `fabric`, and returns the coverage
/// classification plus the recovery verdict.
pub(crate) fn verify(
    golden: &GoldenRun,
    wl: &Workload,
    spec: FaultSpec,
    n_little: usize,
    fabric: FabricKind,
) -> (FaultOutcome, RecoveryVerdict) {
    let n = golden.trace.len() as u64;
    if n == 0 {
        // Nothing retires, so the fault never fires and nothing can
        // need recovery — same verdicts the detect-only oracle gives.
        return (FaultOutcome::Pending, RecoveryVerdict::NothingToRecover);
    }
    let run = Sim::builder(wl, n)
        .little_cores(n_little)
        .fabric(fabric)
        .recovery(RecoveryPolicy::enabled())
        .faults(vec![spec])
        .build_unobserved()
        .expect("recovery oracle configuration is valid")
        .try_run();
    match run {
        Ok(outcome) => judge(golden, coverage::judge(golden, wl, spec, &outcome.report), &outcome),
        Err(RunError::Livelock { .. }) => (
            FaultOutcome::Escaped {
                reason: format!("recovery-enabled system failed to drain with fault {spec:?}"),
            },
            RecoveryVerdict::Unrecovered { reason: "liveness panic".into() },
        ),
    }
}

/// The recovery invariants proper, applied to a completed
/// recovery-enabled run after its coverage classification: golden-equal
/// commit count, final state, and memory, plus a completed rollback for
/// every non-parity detection.
pub(crate) fn judge(
    golden: &GoldenRun,
    coverage: FaultOutcome,
    run: &RunOutcome,
) -> (FaultOutcome, RecoveryVerdict) {
    let n = golden.trace.len() as u64;
    let report = &run.report;
    if coverage.is_escape() {
        return (coverage, RecoveryVerdict::Unrecovered { reason: "coverage escape".into() });
    }

    // Invariant 1: the run re-committed to exactly the golden count.
    if report.committed != n {
        let reason = format!(
            "recovered run committed {} instructions, golden retired {n}",
            report.committed
        );
        return (coverage, RecoveryVerdict::StateDiverged { reason });
    }
    // Invariant 2: final state equals the golden interpreter's —
    // registers, CSRs, and memory.
    if run.final_state() != &golden.final_state {
        let cp = run.final_state().checkpoint();
        let reason = match golden.final_cp.first_mismatch(&cp) {
            Some(m) => format!("final registers diverged: {m:?}"),
            None => "final CSR state diverged".to_string(),
        };
        return (coverage, RecoveryVerdict::StateDiverged { reason });
    }
    if !run.final_memory().content_eq(&golden.final_mem) {
        let reason = "final memory diverged from the golden run".to_string();
        return (coverage, RecoveryVerdict::StateDiverged { reason });
    }
    // Invariant 3: every rollback-triggering detection completed its
    // recovery.
    let r = &report.recovery;
    if r.unrecovered > 0 {
        let reason = format!("{} episode(s) abandoned: {r:?}", r.unrecovered);
        return (coverage, RecoveryVerdict::Unrecovered { reason });
    }
    if let Some(d) = report
        .detections
        .iter()
        .find(|d| d.site != FaultSite::LsqParity && d.recovery_cycles.is_none())
    {
        let reason = format!("detection in segment {} has no completed recovery", d.seg);
        return (coverage, RecoveryVerdict::Unrecovered { reason });
    }

    let verdict = if r.rollbacks > 0 {
        RecoveryVerdict::Recovered { rollbacks: r.rollbacks, max_cycles: r.max_recovery_cycles }
    } else {
        RecoveryVerdict::NothingToRecover
    };
    (coverage, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{run_workload, CosimConfig};
    use crate::fuzz::{fuzz_program, FuzzConfig};
    use crate::Case;

    #[test]
    fn empty_golden_trace_reports_pending_not_panic() {
        // A program that exits immediately retires nothing; the oracles
        // must report the fault pending (the pre-SimBuilder behaviour),
        // not panic on a zero instruction budget.
        let prog = fuzz_program(0, &FuzzConfig::default());
        let st = meek_isa::ArchState::new(prog.entry());
        let golden = GoldenRun {
            trace: Vec::new(),
            final_cp: st.checkpoint(),
            final_state: st,
            final_mem: prog.image(),
            snapshots: Vec::new(),
        };
        let spec = FaultSpec { arm_at_commit: 0, site: FaultSite::MemData, bit: 1 };
        let wl = prog.workload();
        let case = Case::with_golden(&wl, golden, &CosimConfig::default());
        assert!(case.plan(0).is_empty(), "a case that retires nothing plans no fault");
        let (outcome, verdict) = case.recover(spec);
        assert_eq!(outcome, FaultOutcome::Pending);
        assert_eq!(verdict, RecoveryVerdict::NothingToRecover);
        assert_eq!(case.classify(spec), FaultOutcome::Pending);
    }

    #[test]
    fn detected_faults_recover_to_golden_state() {
        let cfg = CosimConfig { faults: 5, recover: true, ..CosimConfig::default() };
        let mut recovered = 0u64;
        for seed in 0..6u64 {
            let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
            let case = Case::new(&wl, &cfg);
            let d = &case.verdict().divergence;
            assert!(d.is_none(), "seed {seed}: {}", d.clone().unwrap());
            for spec in case.plan(seed) {
                let (outcome, verdict) = case.recover(spec);
                assert!(
                    !verdict.is_failure(),
                    "seed {seed}, {spec:?}: {verdict} (coverage {outcome})"
                );
                if let RecoveryVerdict::Recovered { rollbacks, max_cycles } = verdict {
                    assert!(rollbacks > 0 && max_cycles > 0);
                    recovered += 1;
                }
            }
        }
        assert!(recovered > 0, "the plan must trigger at least one real recovery");
    }

    #[test]
    fn the_kept_wrapper_verifies_like_the_case() {
        // The benchmark harness co-simulates through `run_workload` and
        // verifies through `verify_recovery_in`; both must judge every
        // fault exactly as the case the CLI runs.
        let fuzzed = (0..3).map(|seed| fuzz_program(seed, &FuzzConfig::default()).workload());
        let kernels = meek_progs::KERNELS[..2].iter().map(meek_progs::suite::workload);
        let cfg = CosimConfig { recover: true, ..CosimConfig::default() };
        let mut recovered = 0;
        for (seed, wl) in (0u64..).zip(fuzzed.chain(kernels)) {
            let case = Case::new(&wl, &cfg);
            let (_, golden) = run_workload(&wl, &CosimConfig::default());
            let golden = golden.expect("clean golden run");
            let plan = case.plan(seed);
            assert!(!plan.is_empty(), "`{}` plans faults", wl.name);
            for spec in plan {
                let verdicts = case.recover(spec);
                assert_eq!(verdicts, verify_recovery_in(&golden, &wl, spec, 4, FabricKind::F2));
                recovered += u32::from(matches!(verdicts.1, RecoveryVerdict::Recovered { .. }));
            }
        }
        assert!(recovered > 0, "the plans must trigger at least one real recovery");
    }
}
