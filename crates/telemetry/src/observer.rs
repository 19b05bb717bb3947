//! [`MetricsObserver`]: the [`Observer`] consumer that turns the sim's
//! event and sample hooks into [`Registry`] distributions.
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
use meek_core::sim::{Observer, TickSample};
use meek_core::{DetectionRecord, FaultSite, RunReport};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct State {
    reg: Registry,
    /// Open cycle per in-flight segment (verdict closes it).
    open: BTreeMap<u32, u64>,
    /// Rollback-start cycle per segment being re-executed.
    rollback_from: BTreeMap<u32, u64>,
    /// Highest segment id opened so far — rollback depth is measured
    /// against the head of the segment stream.
    latest_seg: u32,
}

/// A cheap cloneable metrics-collecting observer, in the mould of
/// `SamplingObserver`: keep one handle, attach the clone via
/// `SimBuilder::observe`, read the [`Registry`] after the run(s). One
/// handle may observe many runs in sequence; the registry accumulates.
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    inner: Arc<Mutex<State>>,
    stride: u64,
}

impl MetricsObserver {
    /// An observer sampling occupancy histograms every `stride`-th
    /// cycle (0 is clamped to 1; events are always recorded).
    pub fn new(stride: u64) -> MetricsObserver {
        MetricsObserver { inner: Arc::new(Mutex::new(State::default())), stride: stride.max(1) }
    }

    /// A snapshot of the accumulated registry.
    pub fn registry(&self) -> Registry {
        self.inner.lock().expect("metrics observer lock").reg.clone()
    }

    /// The accumulated registry's stable text form
    /// ([`Registry::render`]).
    pub fn render(&self) -> String {
        self.inner.lock().expect("metrics observer lock").reg.render()
    }

    fn with<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        f(&mut self.inner.lock().expect("metrics observer lock"))
    }
}

impl Observer for MetricsObserver {
    fn segment_opened(&mut self, seg: u32, _checker: usize, cycle: u64) {
        self.with(|st| {
            st.reg.inc("segments_opened", 1);
            st.open.insert(seg, cycle);
            st.latest_seg = st.latest_seg.max(seg);
        });
    }

    fn segment_closed(&mut self, seg: u32, pass: bool, cycle: u64) {
        self.with(|st| {
            let kind = if pass { "pass" } else { "fail" };
            st.reg.inc(format!("verdicts{{kind={kind}}}"), 1);
            if let Some(opened) = st.open.remove(&seg) {
                st.reg.observe("segment_length_cycles", cycle.saturating_sub(opened));
            }
        });
    }

    fn fault_injected(&mut self, site: FaultSite, _seg: u32, _cycle: u64) {
        self.with(|st| st.reg.inc(format!("faults_injected{{site={}}}", site.name()), 1));
    }

    fn fault_detected(&mut self, record: &DetectionRecord) {
        self.with(|st| {
            let site = record.site.name();
            st.reg.inc(format!("faults_detected{{site={site}}}"), 1);
            st.reg.observe(
                format!("detection_latency_cycles{{site={site}}}"),
                record.detected_cycle.saturating_sub(record.injected_cycle),
            );
        });
    }

    fn rollback_started(&mut self, seg: u32, golden: bool, cycle: u64) {
        self.with(|st| {
            let kind = if golden { "golden" } else { "retry" };
            st.reg.inc(format!("rollbacks{{kind={kind}}}"), 1);
            st.rollback_from.entry(seg).or_insert(cycle);
            st.reg.observe("rollback_depth_segments", u64::from(st.latest_seg.saturating_sub(seg)));
        });
    }

    fn rollback_completed(&mut self, seg: u32, cycle: u64) {
        self.with(|st| {
            if let Some(started) = st.rollback_from.remove(&seg) {
                st.reg.observe("rollback_latency_cycles", cycle.saturating_sub(started));
            }
        });
    }

    fn sample(&mut self, cycle: u64, sample: TickSample) {
        if !cycle.is_multiple_of(self.stride) {
            return;
        }
        self.with(|st| {
            st.reg.inc("samples", 1);
            st.reg.observe("rob_occupancy", sample.rob_occupancy as u64);
            st.reg.observe("fabric_depth", sample.fabric_depth as u64);
            st.reg.observe("lsl_occupancy", sample.lsl_occupancy as u64);
            st.reg.observe("littles_idle", sample.littles_idle as u64);
        });
    }

    fn finished(&mut self, report: &RunReport) {
        self.with(|st| {
            st.reg.inc("runs", 1);
            st.reg.inc("cycles_total", report.cycles);
            st.reg.inc("app_cycles_total", report.app_cycles);
            st.reg.inc("committed_total", report.committed);
            st.reg.inc("cache_state_bytes_total", report.cache_state_bytes);
            st.reg.inc("bigcore_issue_examined_total", report.big.issue_examined);
            st.reg.observe("ipc_milli", report.committed * 1000 / report.app_cycles.max(1));
            for (i, lc) in report.littles.iter().enumerate() {
                st.reg.inc(format!("littlecore_busy_cycles{{core={i}}}"), lc.busy_cycles);
                st.reg.inc(format!("littlecore_replayed_insts{{core={i}}}"), lc.replayed_insts);
            }
            // A run can end with segments still open (halt-on-detection)
            // or rollbacks unresolved; clear the per-run scratch so the
            // next observed run starts clean.
            st.open.clear();
            st.rollback_from.clear();
            st.latest_seg = 0;
        });
    }

    fn wants_sample_at(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.stride)
    }
}
