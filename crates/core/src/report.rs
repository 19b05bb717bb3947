//! Run reports: everything the experiment harnesses need to regenerate
//! the paper's figures.

use crate::fault::{DetectionRecord, MaskRecord};
use meek_bigcore::BigCoreStats;
use meek_fabric::FabricStats;
use meek_littlecore::LittleCoreStats;
use meek_recover::RecoveryReport;

/// Commit-stall decomposition (Fig. 9's three components).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles stalled absorbing extracted data into the DC-Buffers.
    pub data_collect: u64,
    /// Cycles stalled on interconnect bandwidth.
    pub data_forward: u64,
    /// Cycles stalled waiting for little-core capacity.
    pub little_core: u64,
}

impl StallBreakdown {
    /// Total MEEK-induced stall cycles.
    pub fn total(&self) -> u64 {
        self.data_collect + self.data_forward + self.little_core
    }

    /// Splits a `total_overhead` (in slowdown terms, e.g. 0.05 = 5%)
    /// proportionally to the three stall categories — used by the
    /// Fig. 9 harness to draw the stacked decomposition.
    pub fn proportions(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (self.data_collect as f64 / t, self.data_forward as f64 / t, self.little_core as f64 / t)
    }
}

/// The result of one MEEK system run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Big-core cycles simulated until full drain (application commit
    /// plus the checker tail).
    pub cycles: u64,
    /// Big-core cycles until the application itself finished committing
    /// — the paper's slowdown denominator measures application
    /// completion; outstanding checker work continues in the background.
    pub app_cycles: u64,
    /// Wall-clock nanoseconds (at 3.2 GHz).
    pub ns: f64,
    /// Instructions committed by the big core.
    pub committed: u64,
    /// Big-core counters.
    pub big: BigCoreStats,
    /// Fabric counters.
    pub fabric: FabricStats,
    /// Per-little-core counters.
    pub littles: Vec<LittleCoreStats>,
    /// Segments that verified clean.
    pub verified_segments: u64,
    /// Segments that failed verification (detections).
    pub failed_segments: u64,
    /// Stall decomposition.
    pub stalls: StallBreakdown,
    /// Fault detections recorded by the injector.
    pub detections: Vec<DetectionRecord>,
    /// Injected faults whose consumers all verified clean (the flipped
    /// bit was architecturally dead), with the clean pre-flip field each
    /// corruption replaced — enough for an external golden re-run to
    /// prove every mask benign (or expose it as an escape).
    pub masked_faults: Vec<MaskRecord>,
    /// Injected faults with *no* outcome when the run ended: still
    /// queued, armed but never fired, or awaiting a consumer verdict
    /// that never came. Disjoint from both detections and masks.
    pub pending_faults: usize,
    /// RCPs taken.
    pub rcps: u64,
    /// Bytes of cache tag state materialised over the big core and every
    /// little core: a deterministic measure of the cache state a run
    /// touched.
    pub cache_state_bytes: u64,
    /// Recovery-subsystem metrics (all-zero in detect-only runs):
    /// rollbacks, recovery latency, re-executed instructions, and the
    /// checkpoint/undo-log storage high-water mark.
    pub recovery: RecoveryReport,
}

impl RunReport {
    /// Slowdown relative to a vanilla (checking-disabled) run of the
    /// same workload: application completion time, as the paper measures
    /// it (backpressure stalls are included; the final segments' checker
    /// tail proceeds in the background).
    pub fn slowdown_vs(&self, vanilla_cycles: u64) -> f64 {
        self.app_cycles as f64 / vanilla_cycles as f64
    }
}

/// Geometric mean of a slice of positive values (used for the paper's
/// geomean rows).
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_breakdown_totals() {
        let s = StallBreakdown { data_collect: 10, data_forward: 30, little_core: 60 };
        assert_eq!(s.total(), 100);
        let (c, f, l) = s.proportions();
        assert!((c - 0.1).abs() < 1e-12);
        assert!((f - 0.3).abs() < 1e-12);
        assert!((l - 0.6).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.1]) - 1.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "geomean of empty slice")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }
}
