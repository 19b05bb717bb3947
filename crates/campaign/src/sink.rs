//! Campaign output: what one shard produces ([`ShardResult`]) and how
//! it renders — detections as CSV rows or JSON lines, the occupancy
//! series as CSV — plus the one fold of shard counters
//! ([`ShardSummary::add`]) behind the campaign totals, the per-workload
//! latency table ([`LatencyStats`]) and `meek-serve`'s job counters.

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

/// One shard's counters. Folded with [`ShardSummary::add`], the same
/// struct holds a workload's or a whole campaign's totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

impl ShardSummary {
    /// Folds `other`'s counters into these: every count adds up, and the
    /// storage high-water mark keeps the larger. `workload` and `shard`
    /// are left as they are.
    pub fn add(&mut self, other: &ShardSummary) {
        self.faults += other.faults;
        self.detected += other.detected;
        self.masked += other.masked;
        self.pending += other.pending;
        self.verified_segments += other.verified_segments;
        self.failed_segments += other.failed_segments;
        self.cycles += other.cycles;
        self.committed += other.committed;
        self.rollbacks += other.rollbacks;
        self.recovered += other.recovered;
        self.unrecovered += other.unrecovered;
        self.storage_bytes_hwm = self.storage_bytes_hwm.max(other.storage_bytes_hwm);
    }

    /// The counters as `(field name, value)` pairs — a `meek-serve`
    /// campaign job's counters.
    pub fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("faults", self.faults as u64),
            ("detected", self.detected as u64),
            ("masked", self.masked),
            ("pending", self.pending as u64),
            ("verified_segments", self.verified_segments),
            ("failed_segments", self.failed_segments),
            ("cycles", self.cycles),
            ("committed", self.committed),
            ("rollbacks", self.rollbacks),
            ("recovered", self.recovered),
            ("unrecovered", self.unrecovered),
            ("storage_bytes_hwm", self.storage_bytes_hwm),
        ]
    }

    /// Inverse of [`ShardSummary::counters`]: a counter missing from
    /// `counters` reads 0, and `workload` and `shard` stay blank.
    pub fn from_counters(counters: &BTreeMap<String, u64>) -> ShardSummary {
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        ShardSummary {
            faults: get("faults") as usize,
            detected: get("detected") as usize,
            masked: get("masked"),
            pending: get("pending") as usize,
            verified_segments: get("verified_segments"),
            failed_segments: get("failed_segments"),
            cycles: get("cycles"),
            committed: get("committed"),
            rollbacks: get("rollbacks"),
            recovered: get("recovered"),
            unrecovered: get("unrecovered"),
            storage_bytes_hwm: get("storage_bytes_hwm"),
            ..ShardSummary::default()
        }
    }
}

/// Result of one shard's simulation: its detections, its counters, and
/// the optional trace, sample and metrics channels. A campaign hands
/// these out in shard order; `meek-serve` gets them from
/// [`crate::run_shard`] one by one. Either way a shard renders itself,
/// so every front end writes the same bytes.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Detection records in injection order.
    pub records: Vec<CampaignRecord>,
    /// The shard's summary counters.
    pub summary: ShardSummary,
    /// Serialised JSONL event trace (empty when tracing is off).
    pub trace: Vec<u8>,
    /// The occupancy time series as CSV rows without a header (empty
    /// when sampling is off).
    pub samples: Vec<u8>,
    /// The shard's metrics registry (empty when metrics collection is
    /// off).
    pub metrics: Registry,
}

impl ShardResult {
    /// Writes the detections as CSV rows, led by
    /// [`CampaignRecord::CSV_HEADER`] when `header` is set and there is a
    /// first row. A caller asks for the header until its file holds one.
    pub fn write_records_csv(&self, out: &mut impl Write, header: bool) -> io::Result<()> {
        if header && !self.records.is_empty() {
            writeln!(out, "{}", CampaignRecord::CSV_HEADER)?;
        }
        self.records.iter().try_for_each(|r| writeln!(out, "{}", r.csv_row()))
    }

    /// Writes the detections as JSON lines.
    pub fn write_records_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        self.records.iter().try_for_each(|r| writeln!(out, "{}", r.json_line()))
    }

    /// Writes the occupancy series as CSV rows, led by their header when
    /// `header` is set and there is a first row.
    pub fn write_samples_csv(&self, out: &mut impl Write, header: bool) -> io::Result<()> {
        if header && !self.samples.is_empty() {
            writeln!(
                out,
                "workload,shard,cycle,rob_occupancy,fabric_depth,littles_idle,lsl_occupancy"
            )?;
        }
        out.write_all(&self.samples)
    }
}

/// Receives records one at a time. Kept with [`CsvSink`] only for the
/// benchmark harness; a campaign renders through [`ShardResult`].
#[doc(hidden)]
pub trait RecordSink {
    /// Called once per detection.
    fn on_record(&mut self, rec: &CampaignRecord) -> io::Result<()>;

    /// Called once per shard, after its records.
    fn on_shard(&mut self, _summary: &ShardSummary) -> io::Result<()> {
        Ok(())
    }
}

/// Streams records as CSV, the header written before the first row:
/// the bytes of [`ShardResult::write_records_csv`] over a whole
/// campaign.
#[doc(hidden)]
pub struct CsvSink<W: Write> {
    out: W,
    wrote_header: bool,
}

impl<W: Write> CsvSink<W> {
    /// A CSV sink writing to `out`.
    pub fn new(out: W) -> CsvSink<W> {
        CsvSink { out, wrote_header: false }
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
}

/// Counters and detection latencies for one workload (or the whole
/// campaign), as [`crate::CampaignSummary`] reports them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// The shards' counters, folded with [`ShardSummary::add`]
    /// (`workload` and `shard` stay blank).
    pub counts: ShardSummary,
    latencies_ns: Vec<f64>,
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

    /// Latency percentile `p` in `[0, 1]` (0 if no detections).
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

    /// The raw latency samples, sorted.
    pub fn latencies_ns(&self) -> &[f64] {
        &self.latencies_ns
    }

    /// Folds in one shard: its counters and its detections' latencies.
    pub(crate) fn add(&mut self, shard: &ShardResult) {
        self.counts.add(&shard.summary);
        self.latencies_ns.extend(shard.records.iter().map(|r| r.detection.latency_ns));
    }

    /// Sorts the samples; the percentiles read them sorted.
    pub(crate) fn finalize(&mut self) {
        self.latencies_ns.sort_by(f64::total_cmp);
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

    fn shard(records: Vec<CampaignRecord>, samples: &str) -> ShardResult {
        ShardResult {
            records,
            summary: ShardSummary::default(),
            trace: Vec::new(),
            samples: samples.as_bytes().to_vec(),
            metrics: Registry::new(),
        }
    }

    #[test]
    fn csv_is_stable_and_headed() {
        let first = shard(vec![rec("mcf", 1, 100.0)], "");
        let second = shard(vec![recovered_rec("mcf", 2, 5_120)], "");
        let mut out = Vec::new();
        shard(Vec::new(), "").write_records_csv(&mut out, true).unwrap();
        assert!(out.is_empty(), "no header without a row to lead");
        first.write_records_csv(&mut out, true).unwrap();
        second.write_records_csv(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "workload,shard,site,injected_cycle,detected_cycle,latency_ns,seg,recovered,\
             recovery_cycles\n\
             mcf,1,mem_data,100,420,100.000,3,0,0\n\
             mcf,2,mem_data,100,420,80.000,3,1,5120\n"
        );
        // The benchmark harness's sink writes the same bytes.
        let mut sink = CsvSink::new(Vec::new());
        for r in first.records.iter().chain(&second.records) {
            sink.on_record(r).unwrap();
        }
        assert_eq!(sink.into_inner(), text.into_bytes());
    }

    #[test]
    fn samples_lead_with_their_header_once() {
        let mut out = Vec::new();
        shard(Vec::new(), "").write_samples_csv(&mut out, true).unwrap();
        shard(Vec::new(), "mcf,0,0,1,2,3,4\n").write_samples_csv(&mut out, true).unwrap();
        shard(Vec::new(), "mcf,1,0,5,6,7,8\n").write_samples_csv(&mut out, false).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "workload,shard,cycle,rob_occupancy,fabric_depth,littles_idle,lsl_occupancy\n\
             mcf,0,0,1,2,3,4\nmcf,1,0,5,6,7,8\n"
        );
    }

    #[test]
    fn jsonl_is_one_flat_object_per_line() {
        let mut out = Vec::new();
        shard(vec![rec("astar", 0, 62.5), recovered_rec("astar", 0, 900)], "")
            .write_records_jsonl(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
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
    fn the_fold_adds_counts_keeps_the_storage_peak_and_round_trips() {
        let a = ShardSummary {
            workload: "a",
            shard: 1,
            faults: 10,
            detected: 7,
            masked: 2,
            pending: 1,
            verified_segments: 30,
            failed_segments: 8,
            cycles: 9_000,
            committed: 4_000,
            rollbacks: 7,
            recovered: 6,
            unrecovered: 1,
            storage_bytes_hwm: 4_096,
        };
        let b = ShardSummary { storage_bytes_hwm: 1_024, ..a.clone() };
        let mut total = ShardSummary::default();
        total.add(&a);
        total.add(&b);
        assert_eq!((total.workload, total.shard), ("", 0), "the fold leaves the identity blank");
        for ((name, sum), (_, one)) in total.counters().into_iter().zip(a.counters()) {
            let want = if name == "storage_bytes_hwm" { one } else { 2 * one };
            assert_eq!(sum, want, "{name}");
        }
        let map: BTreeMap<String, u64> =
            total.counters().into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(ShardSummary::from_counters(&map), total);
        assert_eq!(ShardSummary::from_counters(&BTreeMap::new()), ShardSummary::default());
    }

    #[test]
    fn aggregate_percentiles() {
        let mut s = LatencyStats::default();
        let mut result = shard((1..=100).rev().map(|i| rec("a", 0, i as f64)).collect(), "");
        result.summary = ShardSummary {
            workload: "a",
            faults: 110,
            detected: 100,
            masked: 10,
            rollbacks: 40,
            recovered: 39,
            unrecovered: 1,
            ..ShardSummary::default()
        };
        s.add(&result);
        s.finalize();
        assert_eq!(s.counts.detected, 100);
        assert_eq!(s.counts.masked, 10);
        assert_eq!(s.counts.rollbacks, 40);
        assert_eq!(s.counts.recovered, 39);
        assert_eq!(s.counts.unrecovered, 1);
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
        let mut s = LatencyStats::default();
        s.finalize();
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.percentile_ns(0.999), 0.0);
        assert_eq!(s.fraction_under(3000.0), 1.0);
    }
}
