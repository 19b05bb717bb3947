//! What one timed phase produced, in simulated terms, and the
//! accounting checks it must pass.
//!
//! Everything here is a pure function of the seed and the amount of
//! work, never of host speed: the traced and untraced phases of one run
//! must produce equal tallies, and two runs of one seed equal ones.

use meek_difftest::{FaultOutcome, RecoveryVerdict};

/// Simulated-domain results of one timed phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Oracle operations run: co-simulations, fault verdicts, shards.
    pub attempted: u64,
    /// One line per operation whose verdict failed (divergence, escape,
    /// failed recovery, a shard that could not drain): the case, its
    /// seed and the fault spec.
    pub failures: Vec<String>,
    /// Faults injected.
    pub injected: u64,
    /// Faults a checker detected.
    pub detected: u64,
    /// Faults masked (proven benign, or architecturally dead).
    pub masked: u64,
    /// Faults left without a verdict.
    pub pending: u64,
    /// Faults the checkers missed that the replay twin convicts.
    pub escaped: u64,
    /// Detection latency (ns) of every detected fault.
    pub latencies_ns: Vec<f64>,
    /// Instructions committed by the runs `sim_ipc` is taken from.
    pub committed: u64,
    /// Big-core cycles of the same runs.
    pub cycles: u64,
    /// Masked faults proven benign by a replay twin.
    pub masked_proved: u64,
    /// Sum over detections of injection cycle / run cycles, when the
    /// loop sees fault-run reports (campaign shards).
    pub prefix_frac_sum: f64,
    /// Recovery rollbacks.
    pub rollbacks: u64,
    /// Worst recovery episode, in big-core cycles.
    pub worst_recovery_cycles: u64,
    /// FNV-1a digest of the records the loop streamed, when it streams.
    pub digest: u64,
}

impl Tally {
    /// Counts one failed operation.
    pub fn fail(&mut self, line: String) {
        self.failures.push(line);
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Tallies one fault verdict from the coverage oracle; returns
    /// whether the operation failed (an escape).
    pub fn fault(&mut self, outcome: &FaultOutcome) -> bool {
        self.injected += 1;
        match outcome {
            FaultOutcome::Detected { latency_ns } => {
                self.detected += 1;
                self.latencies_ns.push(*latency_ns);
            }
            FaultOutcome::MaskedProvenBenign => {
                self.masked += 1;
                self.masked_proved += 1;
            }
            FaultOutcome::Pending => self.pending += 1,
            FaultOutcome::Escaped { .. } => self.escaped += 1,
        }
        outcome.is_escape()
    }

    /// Tallies one recovery verdict; returns whether it failed. Only
    /// `Recovered` and `NothingToRecover` pass.
    pub fn recovery(&mut self, verdict: &RecoveryVerdict) -> bool {
        match verdict {
            RecoveryVerdict::Recovered { rollbacks, max_cycles } => {
                self.rollbacks += rollbacks;
                self.worst_recovery_cycles = self.worst_recovery_cycles.max(*max_cycles);
                false
            }
            RecoveryVerdict::NothingToRecover => false,
            RecoveryVerdict::Unrecovered { .. } | RecoveryVerdict::StateDiverged { .. } => true,
        }
    }

    /// The fault books must balance: every injected fault ends detected,
    /// masked, pending or escaped exactly once, with one latency per
    /// detection.
    pub fn check(&self) -> Result<(), String> {
        let sum = self.detected + self.masked + self.pending + self.escaped;
        if sum != self.injected {
            return Err(format!(
                "fault accounting broken: {} detected + {} masked + {} pending + {} escaped \
                 = {sum}, but {} injected",
                self.detected, self.masked, self.pending, self.escaped, self.injected
            ));
        }
        if self.latencies_ns.len() as u64 != self.detected {
            return Err(format!(
                "{} latencies recorded for {} detections",
                self.latencies_ns.len(),
                self.detected
            ));
        }
        if self.failed() > self.attempted {
            return Err(format!("{} failed of {} attempted", self.failed(), self.attempted));
        }
        Ok(())
    }
}

/// A campaign shard's books: every fault it queued ends detected, masked
/// or pending (a shard has no replay twin, so nothing escapes).
pub fn check_shard(
    faults: usize,
    detected: usize,
    masked: u64,
    pending: usize,
) -> Result<(), String> {
    if detected as u64 + masked + pending as u64 == faults as u64 {
        Ok(())
    } else {
        Err(format!(
            "shard accounting broken: {detected} detected + {masked} masked + {pending} pending \
             != {faults} faults"
        ))
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start at [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> Tally {
        let mut t = Tally { attempted: 5, ..Tally::default() };
        for o in [
            FaultOutcome::Detected { latency_ns: 12.5 },
            FaultOutcome::Detected { latency_ns: 40.0 },
            FaultOutcome::MaskedProvenBenign,
            FaultOutcome::Pending,
            FaultOutcome::Escaped { reason: "replay twin mismatched".into() },
        ] {
            if t.fault(&o) {
                t.fail(format!("{o}"));
            }
        }
        t
    }

    #[test]
    fn balanced_books_pass() {
        let t = balanced();
        assert_eq!((t.detected, t.masked, t.pending, t.escaped, t.injected), (2, 1, 1, 1, 5));
        assert_eq!(t.failed(), 1, "an escape is a failed operation");
        assert_eq!(t.masked_proved, 1);
        t.check().expect("balanced");
    }

    #[test]
    fn a_lost_fault_breaks_the_books() {
        let mut t = balanced();
        t.injected += 1;
        assert!(t.check().unwrap_err().contains("fault accounting broken"));
    }

    #[test]
    fn a_detection_without_latency_breaks_the_books() {
        let mut t = balanced();
        t.latencies_ns.pop();
        assert!(t.check().is_err());
    }

    #[test]
    fn failures_must_have_been_attempted() {
        let mut t = balanced();
        t.attempted = 0;
        assert!(t.check().is_err(), "more failed than attempted");
    }

    #[test]
    fn only_recovered_or_nothing_to_recover_pass() {
        let mut t = Tally::default();
        assert!(!t.recovery(&RecoveryVerdict::Recovered { rollbacks: 2, max_cycles: 900 }));
        assert!(!t.recovery(&RecoveryVerdict::Recovered { rollbacks: 1, max_cycles: 300 }));
        assert!(!t.recovery(&RecoveryVerdict::NothingToRecover));
        assert!(t.recovery(&RecoveryVerdict::Unrecovered { reason: "x".into() }));
        assert!(t.recovery(&RecoveryVerdict::StateDiverged { reason: "x".into() }));
        assert_eq!((t.rollbacks, t.worst_recovery_cycles), (3, 900));
    }

    #[test]
    fn shard_books() {
        check_shard(25, 20, 3, 2).expect("balanced");
        assert!(check_shard(25, 20, 3, 1).is_err());
        assert!(check_shard(25, 21, 3, 2).is_err());
    }
}
