//! The campaign engine: expands a [`CampaignSpec`] into shards, runs
//! them on the work-stealing [`Executor`], and streams every shard's
//! detections through the configured sinks in deterministic order.
//!
//! Each worker builds its own simulation through the typed
//! [`meek_core::SimBuilder`] (systems are `Send` but a simulation is
//! single-threaded by nature); the *programs* under test are built
//! once per benchmark in a shared [`WorkloadCache`] and shared by
//! reference, so codegen cost is O(benchmarks), not O(faults). With
//! [`CampaignSpec::trace_events`] set, each shard additionally
//! attaches the JSONL event observer and ships its structured trace
//! through the sinks' trace channel; with a non-zero
//! [`CampaignSpec::sample_stride`], a [`SamplingObserver`] ships each
//! shard's ROB-occupancy / fabric-depth time series the same way.

use crate::executor::Executor;
use crate::sink::{CampaignRecord, RecordSink, ShardSummary};
use crate::spec::{CampaignSpec, CampaignWorkload, ShardSpec, DEFAULT_METRICS_STRIDE};
use meek_core::{validate_config, SamplingObserver, Sim};
use meek_telemetry::{JsonlEventSink, MetricsObserver, Registry};
use meek_workloads::WorkloadCache;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Campaign-wide roll-up returned by [`run_campaign`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Shards simulated.
    pub shards: usize,
    /// Faults queued across all shards.
    pub faults: usize,
    /// Faults detected by the checkers.
    pub detected: usize,
    /// Faults masked (flipped bit was architecturally dead).
    pub masked: u64,
    /// Faults with no verdict when their shard drained.
    pub pending: usize,
    /// Segments verified clean across all shards.
    pub verified_segments: u64,
    /// Segments that failed verification across all shards.
    pub failed_segments: u64,
    /// Big-core cycles simulated (sum over shards).
    pub sim_cycles: u64,
    /// Instructions committed (sum over shards).
    pub committed: u64,
    /// Distinct programs synthesised.
    pub workloads_built: usize,
    /// Recovery rollbacks executed across all shards.
    pub rollbacks: u64,
    /// Failure episodes fully recovered across all shards.
    pub recovered: u64,
    /// Failure episodes abandoned across all shards.
    pub unrecovered: u64,
    /// Largest recovery-storage high-water mark any shard reached.
    pub storage_bytes_hwm: u64,
}

/// Result of one shard's simulation, in deterministic shard order.
///
/// Public so external schedulers (`meek-serve`) can run shards
/// individually via [`run_shard`] and persist results at shard
/// granularity; the batch path consumes these through [`run_campaign`].
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Detection records in injection order.
    pub records: Vec<CampaignRecord>,
    /// The shard's summary counters.
    pub summary: ShardSummary,
    /// Serialised JSONL event trace (empty when tracing is off).
    pub trace: Vec<u8>,
    /// Serialised occupancy time series (empty when sampling is off).
    pub samples: Vec<u8>,
    /// The shard's metrics registry (empty when metrics collection is
    /// off).
    pub metrics: Registry,
}

/// An empty result for a shard skipped after campaign cancellation.
fn cancelled_shard(shard: &ShardSpec) -> ShardResult {
    ShardResult {
        records: Vec::new(),
        summary: ShardSummary {
            workload: shard.workload,
            shard: shard.shard_in_workload,
            faults: 0,
            detected: 0,
            masked: 0,
            pending: 0,
            verified_segments: 0,
            failed_segments: 0,
            cycles: 0,
            committed: 0,
            rollbacks: 0,
            recovered: 0,
            unrecovered: 0,
            storage_bytes_hwm: 0,
        },
        trace: Vec::new(),
        samples: Vec::new(),
        metrics: Registry::new(),
    }
}

/// Runs one shard: build (or reuse) the program, queue the shard's
/// faults, simulate to drain, and package the detections.
///
/// The caller must have validated `spec.config` (see
/// [`meek_core::validate_config`]); [`run_campaign`] does so up front,
/// and `meek-serve` validates at job admission.
pub fn run_shard(spec: &CampaignSpec, cache: &WorkloadCache, shard: &ShardSpec) -> ShardResult {
    let source = &spec.workloads[shard.workload_idx];
    let seed = spec.workload_seed(source.name());
    let workload = match source {
        CampaignWorkload::Profile(p) => cache.get(p, seed),
        CampaignWorkload::Prog(k) => {
            cache.get_with(k.name, seed, || meek_progs::suite::workload(k))
        }
        CampaignWorkload::ProgSet => {
            cache.get_with(meek_progs::SET_NAME, seed, || meek_progs::WorkloadSet::all().fuse())
        }
    };
    let faults = shard.fault_specs();
    let n_faults = faults.len();
    // With tracing on, the JSONL event observer serialises the shard's
    // structured event stream; every line carries the shard's identity
    // so the re-sequenced global trace stays self-describing.
    let mut trace = spec.trace_events.then(|| {
        let context =
            [("workload", shard.workload.into()), ("shard", shard.shard_in_workload.into())];
        JsonlEventSink::new(Vec::new(), context)
    });
    // With sampling on, a SamplingObserver keeps the shard's ROB /
    // fabric-depth time series, rendered with shard identity columns.
    let mut sampler = (spec.sample_stride > 0).then(|| SamplingObserver::new(spec.sample_stride));
    // With metrics on, a MetricsObserver accumulates the shard's
    // registry (latency/occupancy histograms, verdict counters); it
    // rides the metrics channel and is merged in shard order by the
    // sink, keeping the campaign-wide registry thread-count invariant.
    let mut metrics = spec.metrics.then(|| {
        let stride =
            if spec.sample_stride > 0 { spec.sample_stride } else { DEFAULT_METRICS_STRIDE };
        MetricsObserver::new(stride)
    });
    let mut builder =
        Sim::builder(&workload, shard.insts).config(spec.config.clone()).faults(faults);
    if let Some(t) = &mut trace {
        builder = builder.observe(t);
    }
    if let Some(s) = &mut sampler {
        builder = builder.observe(s);
    }
    if let Some(m) = &mut metrics {
        builder = builder.observe(m);
    }
    // Infallible: run_campaign validated the config up front, and
    // shard fault plans always arm inside the instruction budget.
    let report = builder.build().expect("validated by run_campaign").run().report;
    let pending = report.pending_faults;
    let records: Vec<CampaignRecord> = report
        .detections
        .iter()
        .map(|d| CampaignRecord {
            workload: shard.workload,
            shard: shard.shard_in_workload,
            detection: *d,
        })
        .collect();
    ShardResult {
        summary: ShardSummary {
            workload: shard.workload,
            shard: shard.shard_in_workload,
            faults: n_faults,
            detected: records.len(),
            masked: report.missed_faults,
            pending,
            verified_segments: report.verified_segments,
            failed_segments: report.failed_segments,
            cycles: report.cycles,
            committed: report.committed,
            rollbacks: report.recovery.rollbacks,
            recovered: report.recovery.recovered,
            unrecovered: report.recovery.unrecovered,
            storage_bytes_hwm: report.recovery.storage_bytes_hwm,
        },
        records,
        trace: trace
            .map(|t| t.into_inner().expect("an in-memory trace cannot fail"))
            .unwrap_or_default(),
        samples: sampler
            .map(|s| {
                s.render_csv(&format!("{},{},", shard.workload, shard.shard_in_workload))
                    .into_bytes()
            })
            .unwrap_or_default(),
        metrics: metrics.map(MetricsObserver::into_registry).unwrap_or_default(),
    }
}

/// Runs the whole campaign on `executor`, streaming records and shard
/// summaries through `sinks` in shard order (records within a shard
/// stay in injection order). Returns the campaign roll-up.
///
/// Results are **independent of the executor's thread count**: shards
/// are self-contained, their RNG streams are derived from the spec, and
/// sink delivery is re-sequenced into shard order.
///
/// # Errors
///
/// Returns a degenerate `spec.config` (zero little cores, recovery
/// without checkpoints) as an error up front, and the first sink I/O
/// error thereafter; simulation itself does not fail (a shard that
/// cannot drain is a liveness bug and panics).
pub fn run_campaign(
    spec: &CampaignSpec,
    executor: &Executor,
    sinks: &mut [&mut dyn RecordSink],
) -> io::Result<CampaignSummary> {
    // Surface a bad config as a typed error on the caller's thread —
    // the per-shard builds below are then infallible.
    validate_config(&spec.config).map_err(io::Error::other)?;
    let shards = spec.shards();
    let cache = WorkloadCache::new();
    let mut summary = CampaignSummary { shards: shards.len(), ..CampaignSummary::default() };
    let mut sink_err: Option<io::Error> = None;
    // Set on the first sink error: a full campaign can be hours of
    // simulation, all of it discarded once the run is doomed, so
    // workers skip any shard they pick up after the flag is raised.
    let cancelled = AtomicBool::new(false);
    executor.map_ordered(
        &shards,
        |_idx, shard| {
            if cancelled.load(Ordering::Relaxed) {
                cancelled_shard(shard)
            } else {
                run_shard(spec, &cache, shard)
            }
        },
        |_idx, result: ShardResult| {
            let s = &result.summary;
            summary.faults += s.faults;
            summary.detected += s.detected;
            summary.masked += s.masked;
            summary.pending += s.pending;
            summary.verified_segments += s.verified_segments;
            summary.failed_segments += s.failed_segments;
            summary.sim_cycles += s.cycles;
            summary.committed += s.committed;
            summary.rollbacks += s.rollbacks;
            summary.recovered += s.recovered;
            summary.unrecovered += s.unrecovered;
            summary.storage_bytes_hwm = summary.storage_bytes_hwm.max(s.storage_bytes_hwm);
            if sink_err.is_some() {
                return; // keep draining workers, stop writing
            }
            for sink in sinks.iter_mut() {
                let r = result
                    .records
                    .iter()
                    .try_for_each(|rec| sink.on_record(rec))
                    .and_then(|()| sink.on_trace(&result.trace))
                    .and_then(|()| sink.on_samples(&result.samples))
                    .and_then(|()| sink.on_metrics(&result.metrics))
                    .and_then(|()| sink.on_shard(s));
                if let Err(e) = r {
                    sink_err = Some(e);
                    cancelled.store(true, Ordering::Relaxed);
                    break;
                }
            }
        },
    );
    if let Some(e) = sink_err {
        return Err(e);
    }
    for sink in sinks.iter_mut() {
        sink.finish()?;
    }
    summary.workloads_built = cache.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{AggregateSink, CsvSink};
    use meek_workloads::parsec3;

    fn tiny_spec() -> CampaignSpec {
        // blackscholes: the smallest code footprint in the PARSEC set.
        let profiles = vec![parsec3()[0].clone()];
        let mut spec = CampaignSpec::new(profiles, 6, 0xD15EA5E);
        spec.faults_per_shard = 3;
        spec
    }

    #[test]
    fn every_fault_is_accounted_for() {
        let spec = tiny_spec();
        let mut agg = AggregateSink::new();
        let summary = {
            let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut agg];
            run_campaign(&spec, &Executor::new(2), &mut sinks).unwrap()
        };
        assert_eq!(summary.shards, 2);
        assert_eq!(summary.faults, 6);
        assert_eq!(
            summary.detected + summary.masked as usize + summary.pending,
            summary.faults,
            "fault bookkeeping must balance: {summary:?}"
        );
        assert!(summary.detected > 0, "a campaign this size must detect something");
        // A corrupted checkpoint is both one segment's ERCP and the
        // next one's SRCP, so a single detection can fail two segments.
        assert!(summary.failed_segments >= summary.detected as u64);
        assert_eq!(summary.workloads_built, 1, "one benchmark, one build");
        let overall = agg.overall();
        assert_eq!(overall.detected, summary.detected);
        assert!(overall.mean_ns() > 0.0);
    }

    #[test]
    fn recovery_campaign_recovers_every_detection() {
        let mut spec = tiny_spec();
        spec.config = meek_core::MeekConfig::with_recovery(4, meek_core::RecoveryPolicy::enabled());
        let mut agg = AggregateSink::new();
        let summary = {
            let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut agg];
            run_campaign(&spec, &Executor::new(2), &mut sinks).unwrap()
        };
        assert!(summary.detected > 0);
        assert!(summary.rollbacks > 0, "detections must trigger rollbacks: {summary:?}");
        assert_eq!(summary.unrecovered, 0, "every episode must recover: {summary:?}");
        assert!(summary.recovered > 0 && summary.recovered <= summary.rollbacks, "{summary:?}");
        assert!(summary.storage_bytes_hwm > 0, "checkpoints and undo-log must be accounted");
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let spec = tiny_spec();
        let run_with = |executor: Executor| {
            let mut csv = CsvSink::new(Vec::new());
            let summary = {
                let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut csv];
                run_campaign(&spec, &executor, &mut sinks).unwrap()
            };
            (summary, csv.into_inner())
        };
        let (s1, bytes1) = run_with(Executor::new(1));
        let (s4, bytes4) = run_with(Executor::new(4));
        assert_eq!(s1, s4);
        assert_eq!(bytes1, bytes4, "CSV output must be byte-identical across thread counts");
        // A bounded streaming window throttles the schedule, never the
        // bytes.
        let (sw, bytes_w) = run_with(Executor::new(4).stream_window(1));
        assert_eq!(s1, sw);
        assert_eq!(bytes1, bytes_w, "stream window must not change output");
    }

    #[test]
    fn metrics_registry_is_thread_count_invariant_and_reconciles() {
        let mut spec = tiny_spec();
        spec.metrics = true;
        let run_with = |threads: usize| {
            let mut agg = AggregateSink::new();
            let mut metrics = crate::sink::MetricsSink::new(Vec::new());
            let summary = {
                let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut agg, &mut metrics];
                run_campaign(&spec, &Executor::new(threads), &mut sinks).unwrap()
            };
            (summary, metrics.registry().clone(), metrics.into_inner())
        };
        let (s1, reg, m1) = run_with(1);
        let (_, _, m4) = run_with(4);
        let (_, _, m8) = run_with(8);
        assert_eq!(m1, m4, "metrics must be byte-identical across thread counts");
        assert_eq!(m1, m8);
        assert_eq!(m1, reg.render().into_bytes(), "the sink writes the registry it merged");
        // One simulation per shard, and every detection accounted for:
        // the per-site counter family and the latency histogram must
        // both sum to exactly the campaign-wide detection total.
        assert_eq!(reg.counter("runs"), s1.shards as u64);
        let detected: u64 =
            reg.counters().filter(|(k, _)| k.starts_with("faults_detected{")).map(|(_, v)| v).sum();
        assert_eq!(detected, s1.detected as u64, "per-site detections must reconcile");
        let latency: u64 = reg
            .hists()
            .filter(|(k, _)| k.starts_with("detection_latency_cycles{"))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(latency, detected, "one latency observation per detection");
        assert!(
            reg.counter("bigcore_issue_examined_total") >= reg.counter("committed_total"),
            "the issue scan examines every committed uop at least once"
        );
        assert!(
            reg.hist("rob_occupancy").is_some_and(|h| h.count > 0),
            "the default stride must leave time-series samples"
        );
    }

    #[test]
    fn degenerate_config_is_rejected_up_front() {
        // A bad config must surface as an error from run_campaign, not
        // a panic on a worker thread mid-campaign.
        let mut spec = tiny_spec();
        spec.config.recovery =
            meek_core::RecoveryPolicy { rollback_depth: 0, ..meek_core::RecoveryPolicy::enabled() };
        let mut agg = AggregateSink::new();
        let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut agg];
        let err = run_campaign(&spec, &Executor::new(2), &mut sinks).unwrap_err();
        assert!(err.to_string().contains("rollback_depth 0"), "{err}");
    }

    #[test]
    fn sink_errors_propagate() {
        struct FailingSink;
        impl RecordSink for FailingSink {
            fn on_record(&mut self, _rec: &CampaignRecord) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }
        let spec = tiny_spec();
        let mut failing = FailingSink;
        let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut failing];
        let err = run_campaign(&spec, &Executor::new(2), &mut sinks).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
