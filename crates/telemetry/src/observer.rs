//! The observers that export a run: [`MetricsObserver`] turns the
//! sim's events and samples into [`Registry`] distributions, and
//! [`JsonlEventSink`] writes each event as one JSON line
//! ([`event_json`]).
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

use crate::json::Json;
use crate::registry::Registry;
use meek_core::sim::{Observer, SimEvent, TickSample};
use meek_core::RunReport;
use std::collections::BTreeMap;
use std::io::{self, Write};

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

    /// The accumulated registry, consuming the observer.
    pub fn into_registry(self) -> Registry {
        self.reg
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

/// Renders one event as a flat, stable JSON object — the line format
/// of [`JsonlEventSink`] and `meek-campaign --trace`.
pub fn event_json(ev: &SimEvent) -> Json {
    event_line(Vec::new(), ev)
}

/// The `lead` members followed by the event's name and fields.
fn event_line(mut members: Vec<(String, Json)>, ev: &SimEvent) -> Json {
    let fields: Vec<(&str, Json)> = match *ev {
        SimEvent::SegmentOpened { seg, checker, cycle } => {
            vec![("seg", seg.into()), ("checker", checker.into()), ("cycle", cycle.into())]
        }
        SimEvent::SegmentClosed { seg, pass, cycle } => {
            vec![("seg", seg.into()), ("pass", pass.into()), ("cycle", cycle.into())]
        }
        SimEvent::FaultInjected { site, seg, cycle } => {
            vec![("site", site.name().into()), ("seg", seg.into()), ("cycle", cycle.into())]
        }
        SimEvent::FaultDetected { ref record } => vec![
            ("site", record.site.name().into()),
            ("injected_cycle", record.injected_cycle.into()),
            ("detected_cycle", record.detected_cycle.into()),
            ("latency_ns", Json::fixed(record.latency_ns, 3)),
            ("seg", record.seg.into()),
        ],
        SimEvent::RollbackStarted { seg, golden, cycle } => {
            vec![("seg", seg.into()), ("golden", golden.into()), ("cycle", cycle.into())]
        }
        SimEvent::RollbackCompleted { seg, cycle } => {
            vec![("seg", seg.into()), ("cycle", cycle.into())]
        }
    };
    members.push(("event".into(), ev.name().into()));
    members.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(members)
}

/// Serialises every event as one JSON line ([`event_json`]) — the
/// observer behind `meek-campaign --trace`. The first write error is
/// latched and stops the sink, so a full disk cannot silently truncate
/// a trace: [`JsonlEventSink::into_inner`] returns it.
pub struct JsonlEventSink<W: Write + Send> {
    out: W,
    /// Fields that lead every line (e.g. `workload` and `shard`) —
    /// context for traces that interleave many runs in one file.
    context: Vec<(String, Json)>,
    error: Option<io::Error>,
}

impl<W: Write + Send> JsonlEventSink<W> {
    /// A sink writing event lines to `out`, each led by the `context`
    /// fields (none for a single-run trace).
    pub fn new<'a>(
        out: W,
        context: impl IntoIterator<Item = (&'a str, Json)>,
    ) -> JsonlEventSink<W> {
        let context = context.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        JsonlEventSink { out, context, error: None }
    }

    /// Consumes the sink, returning the writer (or the first latched
    /// write error).
    ///
    /// # Errors
    ///
    /// The first error a write or the end-of-run flush returned.
    pub fn into_inner(self) -> io::Result<W> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl<W: Write + Send> Observer for JsonlEventSink<W> {
    fn event(&mut self, ev: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event_line(self.context.clone(), ev).render();
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    fn finished(&mut self, _report: &RunReport) {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
    }

    fn wants_sample_at(&self, _cycle: u64) -> bool {
        false // serialises the event stream: never consumes TickSamples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_core::fault::DetectionRecord;
    use meek_core::{FaultSite, FaultSpec, Sim};
    use meek_workloads::{parsec3, Workload};

    #[test]
    fn jsonl_sink_serialises_the_stream() {
        let wl = Workload::build(&parsec3()[0], 11);
        let context = [("shard", Json::from(7u32)), ("workload", Json::from("a \"quoted\" name"))];
        let mut sink = JsonlEventSink::new(Vec::new(), context);
        let outcome = Sim::builder(&wl, 6_000)
            .faults(vec![FaultSpec { arm_at_commit: 2_000, site: FaultSite::MemData, bit: 3 }])
            .observe(&mut sink)
            .build()
            .expect("valid")
            .run();
        let bytes = sink.into_inner().expect("an in-memory trace cannot fail");
        let text = String::from_utf8(bytes).expect("utf8");
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with("{\"shard\":7,\"workload\":\""), "bad line: {line}");
            assert!(line.ends_with('}'));
            // The context value holds quotes; the line still parses.
            let v = Json::parse(line).expect("every line is one JSON object");
            assert_eq!(v.get("workload").and_then(Json::as_str), Some("a \"quoted\" name"));
            assert!(v.get("event").and_then(Json::as_str).is_some(), "{line}");
        }
        let opened = text.matches("\"event\":\"segment_opened\"").count() as u64;
        assert_eq!(opened, outcome.report.verified_segments + outcome.report.failed_segments);
        assert_eq!(text.matches("\"event\":\"fault_injected\"").count(), 1);
        fn assert_send<T: Send>() {}
        assert_send::<JsonlEventSink<Vec<u8>>>();
    }

    #[test]
    fn event_json_is_flat_and_stable() {
        assert_eq!(
            event_json(&SimEvent::SegmentOpened { seg: 3, checker: 1, cycle: 99 }).render(),
            "{\"event\":\"segment_opened\",\"seg\":3,\"checker\":1,\"cycle\":99}"
        );
        assert_eq!(
            event_json(&SimEvent::SegmentClosed { seg: 3, pass: false, cycle: 120 }).render(),
            "{\"event\":\"segment_closed\",\"seg\":3,\"pass\":false,\"cycle\":120}"
        );
        assert_eq!(
            event_json(&SimEvent::FaultInjected { site: FaultSite::MemAddr, seg: 2, cycle: 7 })
                .render(),
            "{\"event\":\"fault_injected\",\"site\":\"mem_addr\",\"seg\":2,\"cycle\":7}"
        );
        let rec = DetectionRecord {
            site: FaultSite::RcpRegister,
            injected_cycle: 10,
            detected_cycle: 42,
            latency_ns: 10.0,
            seg: 2,
            recovery_cycles: None,
        };
        assert_eq!(
            event_json(&SimEvent::FaultDetected { record: rec }).render(),
            "{\"event\":\"fault_detected\",\"site\":\"rcp_register\",\"injected_cycle\":10,\
             \"detected_cycle\":42,\"latency_ns\":10.000,\"seg\":2}"
        );
        assert_eq!(
            event_json(&SimEvent::RollbackStarted { seg: 5, golden: true, cycle: 1 }).render(),
            "{\"event\":\"rollback_started\",\"seg\":5,\"golden\":true,\"cycle\":1}"
        );
        assert_eq!(
            event_json(&SimEvent::RollbackCompleted { seg: 5, cycle: 2 }).render(),
            "{\"event\":\"rollback_completed\",\"seg\":5,\"cycle\":2}"
        );
    }
}
