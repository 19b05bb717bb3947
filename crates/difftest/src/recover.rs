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
use crate::coverage::{classify_with_in, FaultOutcome};
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

/// Injects `spec` into a recovery-enabled system run of the program
/// built as `wl` on interconnect `fabric`, and returns the coverage
/// classification plus the recovery verdict. The fabric is the
/// recovery × fabric-ablation axis: rollback correctness must hold
/// whether the corrupted data travelled the bespoke F2 or the AXI
/// baseline. Taking the built [`Workload`] lets a fault plan of N specs
/// share one image build and pre-decode pass instead of repeating both
/// per fault.
pub fn verify_recovery_in(
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
        Ok(outcome) => verify_recovery_outcome_in(golden, wl, spec, &outcome),
        Err(RunError::Livelock { .. }) => (
            FaultOutcome::Escaped {
                reason: format!("recovery-enabled system failed to drain with fault {spec:?}"),
            },
            RecoveryVerdict::Unrecovered { reason: "liveness panic".into() },
        ),
    }
}

/// Classifies an already-completed recovery-enabled [`RunOutcome`]
/// against the golden reference — the post-run half of
/// [`verify_recovery_in`], exposed so harnesses that attach their own
/// observers to the run (the coverage-guided fuzzer) reuse the exact
/// oracle instead of re-implementing its invariants.
pub fn verify_recovery_outcome_in(
    golden: &GoldenRun,
    wl: &Workload,
    spec: FaultSpec,
    run: &RunOutcome,
) -> (FaultOutcome, RecoveryVerdict) {
    finish_recovery_verdict(golden, classify_with_in(golden, wl, spec, &run.report), run)
}

/// The recovery invariants proper, applied after coverage
/// classification: golden-equal commit count, final state, and memory,
/// plus a completed rollback for every non-parity detection.
fn finish_recovery_verdict(
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
    use crate::cosim::golden_run;
    use crate::coverage::fault_plan;
    use crate::fuzz::{fuzz_program, FuzzConfig};

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
        let (outcome, verdict) = verify_recovery_in(&golden, &wl, spec, 4, FabricKind::F2);
        assert_eq!(outcome, FaultOutcome::Pending);
        assert_eq!(verdict, RecoveryVerdict::NothingToRecover);
        assert_eq!(crate::coverage::classify_in(&golden, &wl, spec, 4), FaultOutcome::Pending);
    }

    #[test]
    fn detected_faults_recover_to_golden_state() {
        let mut recovered = 0u64;
        for seed in 0..6u64 {
            let prog = fuzz_program(seed, &FuzzConfig::default());
            let golden = golden_run(&prog).expect("clean");
            let wl = prog.workload();
            for spec in fault_plan(seed, 5, golden.trace.len() as u64) {
                let (outcome, verdict) = verify_recovery_in(&golden, &wl, spec, 4, FabricKind::F2);
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
}
