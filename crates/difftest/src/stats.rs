//! The one count of a difftest run: [`Tally`] folds [`CaseReport`]s into
//! the numbers `meek-difftest`'s summary lines, its `--stats` table and
//! `meek-serve`'s job counters all read, so they reconcile by
//! construction.
//!
//! The `--stats` table's percentiles come from log2 histograms
//! ([`meek_telemetry::Hist`]), so each reported value is the *upper
//! bound* of the bucket holding that rank (exact to within a factor of
//! two), and the whole table is a pure function of the run —
//! byte-identical at any `--threads` because the caller folds cases in
//! case order.

use crate::case::CaseReport;
use crate::coverage::FaultOutcome;
use crate::recover::RecoveryVerdict;
use meek_telemetry::Hist;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts over a run's cases. Fold each [`CaseReport`] in with
/// [`Tally::add`], in case order.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Cases folded in.
    pub cases: u64,
    /// Instructions co-simulated.
    pub executed: u64,
    /// Lock-step segments replayed.
    pub segments: u64,
    /// Full-system cycles simulated.
    pub cycles: u64,
    /// Cases whose three-way co-simulation diverged.
    pub divergences: u64,
    /// Faults classified.
    pub faults: u64,
    /// Faults detected.
    pub detected: u64,
    /// Faults proven benign.
    pub masked: u64,
    /// Faults still pending when their run ended.
    pub pending: u64,
    /// Faults that escaped.
    pub escapes: u64,
    /// Sum of the detections' latencies, in nanoseconds.
    pub latency_sum_ns: f64,
    /// Detections that recovered to a golden-equal final state.
    pub recovered: u64,
    /// Rollbacks those recoveries took.
    pub rollbacks: u64,
    /// Cycles of the longest recovery episode.
    pub worst_recovery_cycles: u64,
    /// Detections whose recovery did not complete.
    pub unrecovered: u64,
    /// Detections that recovered to a state unequal to the golden run's.
    pub state_diverged: u64,
    /// Detection latency (ns) by fault site.
    latency: BTreeMap<&'static str, Hist>,
}

impl Tally {
    /// Folds one case in.
    pub fn add(&mut self, r: &CaseReport) {
        self.cases += 1;
        self.executed += r.verdict.executed;
        self.segments += r.verdict.segments as u64;
        self.cycles += r.verdict.system_cycles;
        self.divergences += u64::from(r.verdict.divergence.is_some());
        for (spec, outcome, recovery) in &r.faults {
            self.faults += 1;
            match outcome {
                FaultOutcome::Detected { latency_ns } => {
                    self.detected += 1;
                    self.latency_sum_ns += latency_ns;
                    self.latency.entry(spec.site.name()).or_default().observe(*latency_ns as u64);
                }
                FaultOutcome::MaskedProvenBenign => self.masked += 1,
                FaultOutcome::Pending => self.pending += 1,
                FaultOutcome::Escaped { .. } => self.escapes += 1,
            }
            match recovery {
                Some(RecoveryVerdict::Recovered { rollbacks, max_cycles }) => {
                    self.recovered += 1;
                    self.rollbacks += rollbacks;
                    self.worst_recovery_cycles = self.worst_recovery_cycles.max(*max_cycles);
                }
                Some(RecoveryVerdict::Unrecovered { .. }) => self.unrecovered += 1,
                Some(RecoveryVerdict::StateDiverged { .. }) => self.state_diverged += 1,
                Some(RecoveryVerdict::NothingToRecover) | None => {}
            }
        }
    }

    /// Detections that failed to recover, for any reason.
    pub fn failed_recoveries(&self) -> u64 {
        self.unrecovered + self.state_diverged
    }

    /// Whether the run found no divergence, no escape and no failed
    /// recovery.
    pub fn clean(&self) -> bool {
        self.divergences == 0 && self.escapes == 0 && self.failed_recoveries() == 0
    }

    /// Latency observations across all sites: one per detection.
    pub fn latency_count(&self) -> u64 {
        self.latency.values().map(|h| h.count).sum()
    }

    /// The job counters `meek-serve` keeps: the case totals always, and
    /// each outcome count once it is non-zero.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let always = [
            ("cases", self.cases),
            ("executed", self.executed),
            ("segments", self.segments),
            ("cycles", self.cycles),
        ];
        let seen = [
            ("divergences", self.divergences),
            ("faults", self.faults),
            ("detected", self.detected),
            ("masked", self.masked),
            ("pending", self.pending),
            ("escapes", self.escapes),
            ("recovered", self.recovered),
            ("unrecovered", self.unrecovered),
            ("state_diverged", self.state_diverged),
        ];
        always
            .into_iter()
            .chain(seen.into_iter().filter(|&(_, n)| n > 0))
            .map(|(k, n)| (k.to_string(), n))
            .collect()
    }

    /// The `--stats` percentile table: one row per fault site plus an
    /// `all` roll-up row, columns `count p50 p90 p99 max` in nanoseconds
    /// (log2-bucket upper bounds). Empty when nothing was detected.
    pub fn render_table(&self) -> String {
        let mut all = Hist::default();
        for h in self.latency.values() {
            all.merge(h);
        }
        if all.count == 0 {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "detection latency by fault site (ns, log2-bucket upper bounds):");
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "site", "count", "p50", "p90", "p99", "max"
        );
        let row = |out: &mut String, name: &str, h: &Hist| {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max_bound()
            );
        };
        for (site, h) in &self.latency {
            row(&mut out, site, h);
        }
        row(&mut out, "all", &all);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{CosimVerdict, Divergence};
    use meek_core::{FaultSite, FaultSpec};

    fn case(
        faults: Vec<(FaultSite, FaultOutcome, Option<RecoveryVerdict>)>,
        diverged: bool,
    ) -> CaseReport {
        let verdict =
            CosimVerdict { executed: 100, segments: 2, system_cycles: 300, divergence: None };
        let mut r = CaseReport { case_seed: 1, workload: "t", verdict, faults: Vec::new() };
        if diverged {
            let window = String::new();
            r.verdict.divergence = Some(Divergence::GoldenTrap { pc: 0, word: 0, window });
        }
        r.faults = faults
            .into_iter()
            .map(|(site, outcome, recovery)| {
                (FaultSpec { site, arm_at_commit: 0, bit: 0 }, outcome, recovery)
            })
            .collect();
        r
    }

    fn detected(site: FaultSite, ns: f64) -> (FaultSite, FaultOutcome, Option<RecoveryVerdict>) {
        (site, FaultOutcome::Detected { latency_ns: ns }, None)
    }

    #[test]
    fn the_table_reconciles_with_the_verdict_counters() {
        let mut t = Tally::default();
        t.add(&case(
            vec![
                detected(FaultSite::MemData, 100.0),
                detected(FaultSite::MemAddr, 200.0),
                detected(FaultSite::MemData, 300.0),
                (FaultSite::CacheData, FaultOutcome::MaskedProvenBenign, None),
                (FaultSite::LsqParity, FaultOutcome::Pending, None),
            ],
            false,
        ));
        assert_eq!(t.faults, 5);
        assert_eq!(t.detected, 3);
        assert_eq!(t.latency_count(), t.detected, "one latency observation per detection");
        assert_eq!(t.latency_sum_ns, 600.0);
        let table = t.render_table();
        assert!(table.contains("mem_data"), "{table}");
        assert!(table.contains("all"), "{table}");
        let all_row = table.lines().last().unwrap();
        let cols: Vec<&str> = all_row.split_whitespace().collect();
        assert_eq!(cols[1], "3", "the all-row count is the detection total: {table}");
    }

    #[test]
    fn no_detections_means_no_table() {
        let mut t = Tally::default();
        t.add(&case(vec![(FaultSite::MemData, FaultOutcome::Pending, None)], false));
        assert_eq!(t.render_table(), "");
        assert_eq!(t.faults, 1);
    }

    #[test]
    fn serve_counters_carry_an_outcome_only_once_it_is_seen() {
        let mut t = Tally::default();
        let keys = |t: &Tally| t.counters().into_keys().collect::<Vec<_>>().join(",");
        t.add(&case(Vec::new(), false));
        assert_eq!(keys(&t), "cases,cycles,executed,segments");
        t.add(&case(vec![detected(FaultSite::RcpRegister, 50.0)], false));
        assert_eq!(keys(&t), "cases,cycles,detected,executed,faults,segments");
        let recovered = Some(RecoveryVerdict::Recovered { rollbacks: 2, max_cycles: 40 });
        let lost = Some(RecoveryVerdict::StateDiverged { reason: "x".into() });
        let escaped = FaultOutcome::Escaped { reason: "y".into() };
        t.add(&case(
            vec![
                (FaultSite::MemData, FaultOutcome::Detected { latency_ns: 9.0 }, recovered),
                (FaultSite::MemData, escaped, lost),
            ],
            true,
        ));
        let c = t.counters();
        assert_eq!(
            keys(&t),
            "cases,cycles,detected,divergences,escapes,executed,faults,recovered,segments,\
             state_diverged"
        );
        assert_eq!((c["cases"], c["faults"], c["detected"], c["escapes"]), (3, 3, 2, 1));
        assert_eq!((t.rollbacks, t.worst_recovery_cycles, t.failed_recoveries()), (2, 40, 1));
        assert_eq!(t.latency_count(), t.detected);
        assert!(!t.clean());
    }
}
