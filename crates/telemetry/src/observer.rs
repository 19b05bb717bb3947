//! [`MetricsObserver`]: the [`Observer`] that turns the sim's events
//! and samples into [`Registry`] distributions.
//!
//! Everything recorded here is sim-domain (cycles, commits, counts) —
//! no host time — so a registry accumulated over a run, rendered with
//! [`Registry::render`], is byte-identical for identical runs
//! regardless of worker threading, and registries from many runs merge
//! deterministically in any fixed order ([`Registry::merge`]).
//!
//! The metric vocabulary (all names static, labels from stable
//! `name()` enums):
//!
//! | key | kind | meaning |
//! |---|---|---|
//! | `segments_opened` | counter | segment assignments (re-opens included) |
//! | `verdicts{kind=pass\|fail}` | counter | segment verdicts by kind |
//! | `segment_length_cycles` | hist | open→verdict span per segment |
//! | `faults_injected{site=...}` | counter | armed faults that fired |
//! | `faults_detected{site=...}` | counter | detections by fault site |
//! | `detection_latency_cycles{site=...}` | hist | inject→detect latency by site |
//! | `rollbacks{kind=retry\|golden}` | counter | recovery rollbacks by escalation |
//! | `rollback_depth_segments` | hist | segments unwound per rollback |
//! | `rollback_latency_cycles` | hist | rollback start→clean re-verification |
//! | `rob_occupancy` | hist | sampled big-core ROB occupancy |
//! | `fabric_depth` | hist | sampled DC-buffer backlog |
//! | `lsl_occupancy` | hist | sampled total LSL entries across checkers |
//! | `littles_idle` | hist | sampled count of idle checker cores |
//! | `samples` | counter | samples taken (stride grid) |
//! | `littlecore_busy_cycles{core=N}` | counter | per-checker busy cycles (final report) |
//! | `littlecore_replayed_insts{core=N}` | counter | per-checker replayed instructions |
//! | `runs` / `cycles_total` / `app_cycles_total` / `committed_total` | counter | per-run report totals |
//! | `cache_state_bytes_total` | counter | cache tag-state bytes the runs materialised |
//! | `bigcore_issue_examined_total` | counter | issue-queue entries the big core's issue stage examined |
//! | `ipc_milli` | hist | committed×1000 / app-cycles per run |

use crate::registry::Registry;
use meek_core::sim::{Observer, SimEvent, TickSample};
use meek_core::RunReport;
use std::collections::BTreeMap;

/// A metrics-collecting observer: attach it with
/// `SimBuilder::observe(&mut metrics)` and read the [`Registry`] after
/// the run(s). One observer may watch many runs in sequence; the
/// registry accumulates.
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    reg: Registry,
    /// Open cycle per in-flight segment (verdict closes it).
    open: BTreeMap<u32, u64>,
    /// Rollback-start cycle per segment being re-executed.
    rollback_from: BTreeMap<u32, u64>,
    /// Highest segment id opened so far — rollback depth is measured
    /// against the head of the segment stream.
    latest_seg: u32,
    stride: u64,
}

impl MetricsObserver {
    /// An observer sampling occupancy histograms every `stride`-th
    /// cycle (0 is clamped to 1; events are always recorded).
    pub fn new(stride: u64) -> MetricsObserver {
        MetricsObserver {
            reg: Registry::default(),
            open: BTreeMap::new(),
            rollback_from: BTreeMap::new(),
            latest_seg: 0,
            stride: stride.max(1),
        }
    }

    /// The accumulated registry.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// The accumulated registry's stable text form
    /// ([`Registry::render`]).
    pub fn render(&self) -> String {
        self.reg.render()
    }
}

impl Observer for MetricsObserver {
    fn event(&mut self, ev: &SimEvent) {
        let reg = &mut self.reg;
        match *ev {
            SimEvent::SegmentOpened { seg, cycle, .. } => {
                reg.inc("segments_opened", 1);
                self.open.insert(seg, cycle);
                self.latest_seg = self.latest_seg.max(seg);
            }
            SimEvent::SegmentClosed { seg, pass, cycle } => {
                let kind = if pass { "pass" } else { "fail" };
                reg.inc(format!("verdicts{{kind={kind}}}"), 1);
                if let Some(opened) = self.open.remove(&seg) {
                    reg.observe("segment_length_cycles", cycle.saturating_sub(opened));
                }
            }
            SimEvent::FaultInjected { site, .. } => {
                reg.inc(format!("faults_injected{{site={}}}", site.name()), 1);
            }
            SimEvent::FaultDetected { ref record } => {
                let site = record.site.name();
                reg.inc(format!("faults_detected{{site={site}}}"), 1);
                reg.observe(
                    format!("detection_latency_cycles{{site={site}}}"),
                    record.detected_cycle.saturating_sub(record.injected_cycle),
                );
            }
            SimEvent::RollbackStarted { seg, golden, cycle } => {
                let kind = if golden { "golden" } else { "retry" };
                reg.inc(format!("rollbacks{{kind={kind}}}"), 1);
                self.rollback_from.entry(seg).or_insert(cycle);
                reg.observe(
                    "rollback_depth_segments",
                    u64::from(self.latest_seg.saturating_sub(seg)),
                );
            }
            SimEvent::RollbackCompleted { seg, cycle } => {
                if let Some(started) = self.rollback_from.remove(&seg) {
                    reg.observe("rollback_latency_cycles", cycle.saturating_sub(started));
                }
            }
        }
    }

    fn sample(&mut self, cycle: u64, sample: TickSample) {
        if !cycle.is_multiple_of(self.stride) {
            return;
        }
        let reg = &mut self.reg;
        reg.inc("samples", 1);
        reg.observe("rob_occupancy", sample.rob_occupancy as u64);
        reg.observe("fabric_depth", sample.fabric_depth as u64);
        reg.observe("lsl_occupancy", sample.lsl_occupancy as u64);
        reg.observe("littles_idle", sample.littles_idle as u64);
    }

    fn finished(&mut self, report: &RunReport) {
        let reg = &mut self.reg;
        reg.inc("runs", 1);
        reg.inc("cycles_total", report.cycles);
        reg.inc("app_cycles_total", report.app_cycles);
        reg.inc("committed_total", report.committed);
        reg.inc("cache_state_bytes_total", report.cache_state_bytes);
        reg.inc("bigcore_issue_examined_total", report.big.issue_examined);
        reg.observe("ipc_milli", report.committed * 1000 / report.app_cycles.max(1));
        for (i, lc) in report.littles.iter().enumerate() {
            reg.inc(format!("littlecore_busy_cycles{{core={i}}}"), lc.busy_cycles);
            reg.inc(format!("littlecore_replayed_insts{{core={i}}}"), lc.replayed_insts);
        }
        // A run can end with segments still open (halt-on-detection)
        // or rollbacks unresolved; clear the per-run scratch so the
        // next observed run starts clean.
        self.open.clear();
        self.rollback_from.clear();
        self.latest_seg = 0;
    }

    fn wants_sample_at(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.stride)
    }
}
