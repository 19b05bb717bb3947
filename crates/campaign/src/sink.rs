//! Pluggable campaign output: every detection streams through a set of
//! [`RecordSink`]s as its shard's results are re-sequenced into
//! deterministic order — CSV and JSON-lines writers for offline
//! analysis, and an in-memory aggregator for latency percentiles.

use meek_core::fault::DetectionRecord;
use meek_telemetry::{obj, Json, Registry};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// One detection, qualified by where in the campaign grid it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRecord {
    /// Benchmark name.
    pub workload: &'static str,
    /// Shard position within the workload.
    pub shard: u32,
    /// The checker's detection, as recorded by the fault injector.
    pub detection: DetectionRecord,
}

impl CampaignRecord {
    /// CSV header matching [`CampaignRecord::csv_row`].
    pub const CSV_HEADER: &'static str =
        "workload,shard,site,injected_cycle,detected_cycle,latency_ns,seg,recovered,\
         recovery_cycles";

    /// One CSV row (no newline). The recovery-latency columns are `0,0`
    /// for detect-only campaigns and for parity-window detections
    /// (corrected in place, nothing to roll back).
    pub fn csv_row(&self) -> String {
        let d = &self.detection;
        format!(
            "{},{},{},{},{},{:.3},{},{},{}",
            self.workload,
            self.shard,
            d.site.name(),
            d.injected_cycle,
            d.detected_cycle,
            d.latency_ns,
            d.seg,
            u8::from(d.recovery_cycles.is_some()),
            d.recovery_cycles.unwrap_or(0)
        )
    }

    /// One JSON object (no newline). Fields are flat and stable.
    pub fn json_line(&self) -> String {
        let d = &self.detection;
        obj! {
            "workload": self.workload, "shard": self.shard, "site": d.site.name(),
            "injected_cycle": d.injected_cycle, "detected_cycle": d.detected_cycle,
            "latency_ns": Json::fixed(d.latency_ns, 3), "seg": d.seg,
            "recovered": d.recovery_cycles.is_some(),
            "recovery_cycles": d.recovery_cycles.unwrap_or(0),
        }
        .render()
    }
}

/// Per-shard roll-up delivered to sinks after the shard's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// Benchmark name.
    pub workload: &'static str,
    /// Shard position within the workload.
    pub shard: u32,
    /// Faults queued for injection.
    pub faults: usize,
    /// Faults detected by the checkers.
    pub detected: usize,
    /// Injected faults whose candidate segments verified clean (the
    /// flipped bit was architecturally dead).
    pub masked: u64,
    /// Faults with no verdict when the shard drained: still queued,
    /// armed but never fired, or awaiting a verdict that cannot come
    /// (e.g. a corrupted final checkpoint with no successor segment).
    pub pending: usize,
    /// Segments verified clean.
    pub verified_segments: u64,
    /// Segments whose replay mismatched.
    pub failed_segments: u64,
    /// Big-core cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Recovery rollbacks executed (0 in detect-only campaigns).
    pub rollbacks: u64,
    /// Failure episodes fully recovered (pass verdict after rollback).
    pub recovered: u64,
    /// Failure episodes abandoned by the recovery policy.
    pub unrecovered: u64,
    /// High-water mark of recovery storage (pinned checkpoints plus
    /// undo-log) in modelled bytes.
    pub storage_bytes_hwm: u64,
}

/// Receives campaign results in deterministic (shard, record) order.
pub trait RecordSink {
    /// Called once per detection, in shard order then injection order.
    fn on_record(&mut self, rec: &CampaignRecord) -> io::Result<()>;

    /// Called once per shard (before [`RecordSink::on_shard`]) with
    /// the shard's serialised JSONL event trace — complete lines, each
    /// already carrying `workload`/`shard` context fields. Empty when
    /// event tracing is off. Most sinks ignore it; [`TraceSink`]
    /// writes it through.
    fn on_trace(&mut self, _jsonl: &[u8]) -> io::Result<()> {
        Ok(())
    }

    /// Called once per shard (before [`RecordSink::on_shard`]) with the
    /// shard's occupancy time series as CSV rows
    /// `workload,shard,cycle,rob_occupancy,fabric_depth,littles_idle,lsl_occupancy`.
    /// Empty when sampling is off. Most sinks ignore it; [`SampleSink`]
    /// writes it through.
    fn on_samples(&mut self, _csv: &[u8]) -> io::Result<()> {
        Ok(())
    }

    /// Called once per shard (before [`RecordSink::on_shard`]) with the
    /// shard's metrics registry, empty when metrics collection is off.
    /// Most sinks ignore it; [`MetricsSink`] merges the registries in
    /// call (= shard) order.
    fn on_metrics(&mut self, _shard: &Registry) -> io::Result<()> {
        Ok(())
    }

    /// Called once per shard, after all its records.
    fn on_shard(&mut self, _summary: &ShardSummary) -> io::Result<()> {
        Ok(())
    }

    /// Called once, after every shard.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams the structured per-shard event traces (`--trace`): one JSON
/// line per [`meek_core::SimEvent`], in deterministic shard order —
/// the typed replacement for the old debug-string diagnostics.
pub struct TraceSink<W: Write> {
    out: W,
}

impl<W: Write> TraceSink<W> {
    /// A trace sink writing to `out`.
    pub fn new(out: W) -> TraceSink<W> {
        TraceSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RecordSink for TraceSink<W> {
    fn on_record(&mut self, _rec: &CampaignRecord) -> io::Result<()> {
        Ok(())
    }

    fn on_trace(&mut self, jsonl: &[u8]) -> io::Result<()> {
        self.out.write_all(jsonl)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Streams the per-shard occupancy time series (`--sample`): CSV rows
/// `workload,shard,cycle,rob_occupancy,fabric_depth,littles_idle,lsl_occupancy`
/// in deterministic shard order — the data behind ROB-occupancy /
/// fabric-depth time-series figures and the adaptive-checking load
/// signal.
pub struct SampleSink<W: Write> {
    out: W,
    wrote_header: bool,
}

impl<W: Write> SampleSink<W> {
    /// A sample sink writing to `out`.
    pub fn new(out: W) -> SampleSink<W> {
        SampleSink { out, wrote_header: false }
    }

    /// A sample sink appending to a writer that already holds the CSV
    /// header — the resume path, where earlier shards' output survived
    /// a restart and the header must not repeat.
    pub fn resuming(out: W) -> SampleSink<W> {
        SampleSink { out, wrote_header: true }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RecordSink for SampleSink<W> {
    fn on_record(&mut self, _rec: &CampaignRecord) -> io::Result<()> {
        Ok(())
    }

    fn on_samples(&mut self, csv: &[u8]) -> io::Result<()> {
        if csv.is_empty() {
            return Ok(());
        }
        if !self.wrote_header {
            writeln!(
                self.out,
                "workload,shard,cycle,rob_occupancy,fabric_depth,littles_idle,lsl_occupancy"
            )?;
            self.wrote_header = true;
        }
        self.out.write_all(csv)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Merges the per-shard metrics registries (`--metrics`) and writes the
/// merged [`Registry::render`] text once at [`RecordSink::finish`].
/// Registries arrive in deterministic shard order and
/// [`Registry::merge`] is integer-only, so the merged output is
/// byte-identical at any thread count.
pub struct MetricsSink<W: Write> {
    out: W,
    merged: Registry,
}

impl<W: Write> MetricsSink<W> {
    /// A metrics sink writing the merged registry to `out`.
    pub fn new(out: W) -> MetricsSink<W> {
        MetricsSink { out, merged: Registry::new() }
    }

    /// The merge state accumulated so far.
    pub fn registry(&self) -> &Registry {
        &self.merged
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RecordSink for MetricsSink<W> {
    fn on_record(&mut self, _rec: &CampaignRecord) -> io::Result<()> {
        Ok(())
    }

    fn on_metrics(&mut self, shard: &Registry) -> io::Result<()> {
        self.merged.merge(shard);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.write_all(self.merged.render().as_bytes())?;
        self.out.flush()
    }
}

/// Streams records as CSV (header written lazily before the first row).
pub struct CsvSink<W: Write> {
    out: W,
    wrote_header: bool,
}

impl<W: Write> CsvSink<W> {
    /// A CSV sink writing to `out`.
    pub fn new(out: W) -> CsvSink<W> {
        CsvSink { out, wrote_header: false }
    }

    /// A CSV sink appending to a writer that already holds the header —
    /// the resume path, where earlier shards' output survived a restart
    /// and the header must not repeat.
    pub fn resuming(out: W) -> CsvSink<W> {
        CsvSink { out, wrote_header: true }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RecordSink for CsvSink<W> {
    fn on_record(&mut self, rec: &CampaignRecord) -> io::Result<()> {
        if !self.wrote_header {
            writeln!(self.out, "{}", CampaignRecord::CSV_HEADER)?;
            self.wrote_header = true;
        }
        writeln!(self.out, "{}", rec.csv_row())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Streams records as JSON-lines.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> JsonlSink<W> {
    /// A JSON-lines sink writing to `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RecordSink for JsonlSink<W> {
    fn on_record(&mut self, rec: &CampaignRecord) -> io::Result<()> {
        writeln!(self.out, "{}", rec.json_line())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Latency statistics for one workload (or the whole campaign).
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    latencies_ns: Vec<f64>,
    /// Faults detected.
    pub detected: usize,
    /// Faults masked (candidate segments verified clean).
    pub masked: u64,
    /// Faults with no verdict when their shard drained.
    pub pending: usize,
    /// Faults queued.
    pub faults: usize,
    /// Recovery rollbacks executed.
    pub rollbacks: u64,
    /// Failure episodes fully recovered.
    pub recovered: u64,
    /// Failure episodes the recovery policy abandoned.
    pub unrecovered: u64,
}

impl LatencyStats {
    /// Mean latency in ns (0 if no detections).
    pub fn mean_ns(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        self.latencies_ns.iter().sum::<f64>() / self.latencies_ns.len() as f64
    }

    /// Worst-case latency in ns (0 if no detections).
    pub fn max_ns(&self) -> f64 {
        self.latencies_ns.iter().cloned().fold(0.0, f64::max)
    }

    /// Latency percentile `p` in `[0, 1]` (0 if no detections); assumes
    /// `finalize` sorted the samples.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} out of [0, 1]");
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies_ns.len() as f64 * p).ceil() as usize)
            .clamp(1, self.latencies_ns.len());
        self.latencies_ns[rank - 1]
    }

    /// Fraction of detections under `bound_ns` (1 if no detections).
    pub fn fraction_under(&self, bound_ns: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 1.0;
        }
        self.latencies_ns.iter().filter(|&&l| l < bound_ns).count() as f64
            / self.latencies_ns.len() as f64
    }

    /// Density histogram over `buckets` buckets of `bucket_ns` each;
    /// overflow clamps into the last bucket.
    pub fn histogram(&self, bucket_ns: f64, buckets: usize) -> Vec<f64> {
        let mut hist = vec![0u32; buckets];
        for &l in &self.latencies_ns {
            let b = ((l / bucket_ns) as usize).min(buckets - 1);
            hist[b] += 1;
        }
        let n = self.latencies_ns.len().max(1) as f64;
        hist.into_iter().map(|h| h as f64 / n).collect()
    }

    /// The raw (sorted, after finalize) latency samples.
    pub fn latencies_ns(&self) -> &[f64] {
        &self.latencies_ns
    }

    fn finalize(&mut self) {
        self.latencies_ns.sort_by(f64::total_cmp);
    }
}

/// In-memory aggregation: per-workload and campaign-wide latency
/// distributions, detection and mask counts.
#[derive(Debug, Default)]
pub struct AggregateSink {
    per_workload: BTreeMap<&'static str, LatencyStats>,
    overall: LatencyStats,
    finished: bool,
}

impl AggregateSink {
    /// An empty aggregator.
    pub fn new() -> AggregateSink {
        AggregateSink::default()
    }

    /// Per-workload stats, keyed by benchmark name (call after the
    /// campaign finishes).
    pub fn per_workload(&self) -> &BTreeMap<&'static str, LatencyStats> {
        assert!(self.finished, "aggregate read before finish()");
        &self.per_workload
    }

    /// Campaign-wide stats (call after the campaign finishes).
    pub fn overall(&self) -> &LatencyStats {
        assert!(self.finished, "aggregate read before finish()");
        &self.overall
    }
}

impl RecordSink for AggregateSink {
    fn on_record(&mut self, rec: &CampaignRecord) -> io::Result<()> {
        let l = rec.detection.latency_ns;
        self.per_workload.entry(rec.workload).or_default().latencies_ns.push(l);
        self.overall.latencies_ns.push(l);
        Ok(())
    }

    fn on_shard(&mut self, s: &ShardSummary) -> io::Result<()> {
        let w = self.per_workload.entry(s.workload).or_default();
        w.detected += s.detected;
        w.masked += s.masked;
        w.pending += s.pending;
        w.faults += s.faults;
        w.rollbacks += s.rollbacks;
        w.recovered += s.recovered;
        w.unrecovered += s.unrecovered;
        self.overall.detected += s.detected;
        self.overall.masked += s.masked;
        self.overall.pending += s.pending;
        self.overall.faults += s.faults;
        self.overall.rollbacks += s.rollbacks;
        self.overall.recovered += s.recovered;
        self.overall.unrecovered += s.unrecovered;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        for stats in self.per_workload.values_mut() {
            stats.finalize();
        }
        self.overall.finalize();
        self.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_core::fault::FaultSite;

    fn rec(workload: &'static str, shard: u32, latency_ns: f64) -> CampaignRecord {
        CampaignRecord {
            workload,
            shard,
            detection: DetectionRecord {
                site: FaultSite::MemData,
                injected_cycle: 100,
                detected_cycle: 420,
                latency_ns,
                seg: 3,
                recovery_cycles: None,
            },
        }
    }

    fn recovered_rec(workload: &'static str, shard: u32, cycles: u64) -> CampaignRecord {
        let mut r = rec(workload, shard, 80.0);
        r.detection.recovery_cycles = Some(cycles);
        r
    }

    #[test]
    fn csv_is_stable_and_headed() {
        let mut sink = CsvSink::new(Vec::new());
        sink.on_record(&rec("mcf", 1, 100.0)).unwrap();
        sink.on_record(&recovered_rec("mcf", 2, 5_120)).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            "workload,shard,site,injected_cycle,detected_cycle,latency_ns,seg,recovered,\
             recovery_cycles\n\
             mcf,1,mem_data,100,420,100.000,3,0,0\n\
             mcf,2,mem_data,100,420,80.000,3,1,5120\n"
        );
    }

    #[test]
    fn jsonl_is_one_flat_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_record(&rec("astar", 0, 62.5)).unwrap();
        sink.on_record(&recovered_rec("astar", 0, 900)).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            text,
            "{\"workload\":\"astar\",\"shard\":0,\"site\":\"mem_data\",\
             \"injected_cycle\":100,\"detected_cycle\":420,\"latency_ns\":62.500,\"seg\":3,\
             \"recovered\":false,\"recovery_cycles\":0}\n\
             {\"workload\":\"astar\",\"shard\":0,\"site\":\"mem_data\",\
             \"injected_cycle\":100,\"detected_cycle\":420,\"latency_ns\":80.000,\"seg\":3,\
             \"recovered\":true,\"recovery_cycles\":900}\n"
        );
    }

    #[test]
    fn aggregate_percentiles() {
        let mut agg = AggregateSink::new();
        for i in 1..=100 {
            agg.on_record(&rec("a", 0, i as f64)).unwrap();
        }
        agg.on_shard(&ShardSummary {
            workload: "a",
            shard: 0,
            faults: 110,
            detected: 100,
            masked: 10,
            pending: 0,
            verified_segments: 5,
            failed_segments: 100,
            cycles: 1,
            committed: 1,
            rollbacks: 40,
            recovered: 39,
            unrecovered: 1,
            storage_bytes_hwm: 4096,
        })
        .unwrap();
        agg.finish().unwrap();
        let s = agg.overall();
        assert_eq!(s.detected, 100);
        assert_eq!(s.masked, 10);
        assert_eq!(s.rollbacks, 40);
        assert_eq!(s.recovered, 39);
        assert_eq!(s.unrecovered, 1);
        assert!((s.mean_ns() - 50.5).abs() < 1e-9);
        assert_eq!(s.percentile_ns(0.5), 50.0);
        assert_eq!(s.percentile_ns(0.99), 99.0);
        assert_eq!(s.percentile_ns(1.0), 100.0);
        assert_eq!(s.max_ns(), 100.0);
        assert!((s.fraction_under(51.0) - 0.5).abs() < 1e-9);
        let hist = s.histogram(50.0, 3);
        assert!((hist[0] - 0.49).abs() < 1e-9, "49 of 100 under 50ns");
        assert!((hist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregate_is_sane() {
        let mut agg = AggregateSink::new();
        agg.finish().unwrap();
        assert_eq!(agg.overall().mean_ns(), 0.0);
        assert_eq!(agg.overall().percentile_ns(0.999), 0.0);
        assert_eq!(agg.overall().fraction_under(3000.0), 1.0);
    }
}
