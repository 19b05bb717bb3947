//! The campaign engine: expands a [`CampaignSpec`] into shards, runs
//! them on the work-stealing [`Executor`], and hands every shard's
//! [`ShardResult`] to the caller in deterministic order.
//!
//! Each worker builds its own simulation through the typed
//! [`meek_core::SimBuilder`] (systems are `Send` but a simulation is
//! single-threaded by nature); the *programs* under test are built
//! once per benchmark in a shared [`WorkloadCache`] and shared by
//! reference, so codegen cost is O(benchmarks), not O(faults). With
//! [`CampaignSpec::trace_events`] set, each shard additionally
//! attaches the JSONL event observer and carries its structured trace
//! in [`ShardResult::trace`]; with a non-zero
//! [`CampaignSpec::sample_stride`], a [`SamplingObserver`] leaves each
//! shard's ROB-occupancy / fabric-depth time series in
//! [`ShardResult::samples`].

use crate::executor::Executor;
use crate::sink::{CampaignRecord, LatencyStats, ShardResult, ShardSummary};
use crate::spec::{CampaignSpec, CampaignWorkload, ShardSpec, DEFAULT_METRICS_STRIDE};
use meek_core::{validate_config, SamplingObserver, Sim};
use meek_telemetry::{JsonlEventSink, MetricsObserver};
use meek_workloads::WorkloadCache;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Campaign-wide roll-up returned by [`run_campaign`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignSummary {
    /// Shards simulated.
    pub shards: usize,
    /// Distinct programs synthesised.
    pub workloads_built: usize,
    /// Every shard's counters and detection latencies.
    pub overall: LatencyStats,
    /// The same per workload, keyed by benchmark name.
    pub per_workload: BTreeMap<&'static str, LatencyStats>,
}

impl CampaignSummary {
    /// Folds in one shard, campaign-wide and in its workload's row.
    fn add(&mut self, shard: &ShardResult) {
        self.overall.add(shard);
        self.per_workload.entry(shard.summary.workload).or_default().add(shard);
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
    // registry (latency/occupancy histograms, verdict counters); callers
    // merge the shards' registries in shard order, keeping the
    // campaign-wide registry thread-count invariant.
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
            masked: report.masked_faults.len() as u64,
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

/// Runs the whole campaign on `executor`, handing each shard's result
/// to `on_shard` in shard order (records within a shard stay in
/// injection order). Returns the campaign roll-up.
///
/// Results are **independent of the executor's thread count**: shards
/// are self-contained, their RNG streams are derived from the spec, and
/// results are re-sequenced into shard order before `on_shard` sees
/// them.
///
/// # Errors
///
/// Returns a degenerate `spec.config` (zero little cores, recovery
/// without checkpoints) as an error up front, and the first error
/// `on_shard` returns thereafter, after which `on_shard` is not called
/// again; simulation itself does not fail (a shard that cannot drain
/// is a liveness bug and panics).
pub fn run_campaign(
    spec: &CampaignSpec,
    executor: &Executor,
    mut on_shard: impl FnMut(&ShardResult) -> io::Result<()>,
) -> io::Result<CampaignSummary> {
    // Surface a bad config as a typed error on the caller's thread —
    // the per-shard builds below are then infallible.
    validate_config(&spec.config).map_err(io::Error::other)?;
    let shards = spec.shards();
    let cache = WorkloadCache::new();
    let mut summary = CampaignSummary { shards: shards.len(), ..CampaignSummary::default() };
    let mut failed: Option<io::Error> = None;
    // Set on the first output error: a full campaign can be hours of
    // simulation, all of it discarded once the run is doomed, so
    // workers skip any shard they pick up after the flag is raised.
    let cancelled = AtomicBool::new(false);
    executor.map_ordered(
        &shards,
        |_idx, shard| (!cancelled.load(Ordering::Relaxed)).then(|| run_shard(spec, &cache, shard)),
        |_idx, result: Option<ShardResult>| {
            // After an output error nothing more is folded or written
            // (a skipped shard always comes after that error).
            let Some(result) = result.filter(|_| failed.is_none()) else { return };
            summary.add(&result);
            if let Err(e) = on_shard(&result) {
                failed = Some(e);
                cancelled.store(true, Ordering::Relaxed);
            }
        },
    );
    if let Some(e) = failed {
        return Err(e);
    }
    summary.overall.finalize();
    summary.per_workload.values_mut().for_each(LatencyStats::finalize);
    summary.workloads_built = cache.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_telemetry::Registry;
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
        let summary = run_campaign(&spec, &Executor::new(2), |_| Ok(())).unwrap();
        let c = &summary.overall.counts;
        assert_eq!(summary.shards, 2);
        assert_eq!(c.faults, 6);
        assert_eq!(
            c.detected + c.masked as usize + c.pending,
            c.faults,
            "fault bookkeeping must balance: {summary:?}"
        );
        assert!(c.detected > 0, "a campaign this size must detect something");
        // A corrupted checkpoint is both one segment's ERCP and the
        // next one's SRCP, so a single detection can fail two segments.
        assert!(c.failed_segments >= c.detected as u64);
        assert_eq!(summary.workloads_built, 1, "one benchmark, one build");
        assert_eq!(summary.overall.latencies_ns().len(), c.detected);
        assert!(summary.overall.mean_ns() > 0.0);
        assert_eq!(summary.per_workload["blackscholes"], summary.overall, "one workload");
    }

    #[test]
    fn recovery_campaign_recovers_every_detection() {
        let mut spec = tiny_spec();
        spec.config = meek_core::MeekConfig::with_recovery(4, meek_core::RecoveryPolicy::enabled());
        let summary = run_campaign(&spec, &Executor::new(2), |_| Ok(())).unwrap();
        let c = &summary.overall.counts;
        assert!(c.detected > 0);
        assert!(c.rollbacks > 0, "detections must trigger rollbacks: {summary:?}");
        assert_eq!(c.unrecovered, 0, "every episode must recover: {summary:?}");
        assert!(c.recovered > 0 && c.recovered <= c.rollbacks, "{summary:?}");
        assert!(c.storage_bytes_hwm > 0, "checkpoints and undo-log must be accounted");
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let spec = tiny_spec();
        let run_with = |executor: Executor| {
            let mut csv = Vec::new();
            let summary = run_campaign(&spec, &executor, |shard| {
                let header = csv.is_empty();
                shard.write_records_csv(&mut csv, header)
            })
            .unwrap();
            (summary, csv)
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
            let mut merged = Registry::new();
            let summary = run_campaign(&spec, &Executor::new(threads), |shard| {
                merged.merge(&shard.metrics);
                Ok(())
            })
            .unwrap();
            (summary, merged)
        };
        let (s1, reg) = run_with(1);
        let m1 = reg.render();
        assert_eq!(m1, run_with(4).1.render(), "metrics must be byte-identical across threads");
        assert_eq!(m1, run_with(8).1.render());
        // One simulation per shard, and every detection accounted for:
        // the per-site counter family and the latency histogram must
        // both sum to exactly the campaign-wide detection total.
        assert_eq!(reg.counter("runs"), s1.shards as u64);
        let detected: u64 =
            reg.counters().filter(|(k, _)| k.starts_with("faults_detected{")).map(|(_, v)| v).sum();
        assert_eq!(detected, s1.overall.counts.detected as u64, "per-site detections reconcile");
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
        let err = run_campaign(&spec, &Executor::new(2), |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("rollback_depth 0"), "{err}");
    }

    #[test]
    fn an_output_error_stops_the_campaign() {
        let spec = tiny_spec();
        assert_eq!(spec.shards().len(), 2);
        let mut calls = 0;
        let err = run_campaign(&spec, &Executor::new(2), |shard| {
            calls += 1;
            assert_eq!(shard.summary.shard, 0, "the first shard comes first");
            Err(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(calls, 1, "no shard is handed out after the error");
    }
}
