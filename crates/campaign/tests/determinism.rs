//! Campaign determinism: the same `CampaignSpec` + seed must produce
//! byte-identical `DetectionRecord` streams at `--threads 1` and
//! `--threads 8`, and re-running a spec must reproduce a prior
//! campaign exactly.

use meek_campaign::{run_campaign, CampaignSpec, CampaignSummary, Executor};
use meek_workloads::parsec3;

/// Two benchmarks, three shards each — enough to exercise cross-thread
/// interleaving and the reorder buffer without a long test.
fn spec() -> CampaignSpec {
    let profiles: Vec<_> = parsec3()
        .into_iter()
        .filter(|p| p.name == "blackscholes" || p.name == "swaptions")
        .collect();
    let mut spec = CampaignSpec::new(profiles, 12, 0x5EED_CAFE);
    spec.faults_per_shard = 4;
    spec
}

/// A campaign's output files, rendered as `meek-campaign` writes them.
#[derive(Debug, Default, PartialEq)]
struct Files {
    csv: Vec<u8>,
    jsonl: Vec<u8>,
    trace: Vec<u8>,
    samples: Vec<u8>,
}

fn run(spec: &CampaignSpec, threads: usize) -> (CampaignSummary, Files) {
    let mut f = Files::default();
    let summary = run_campaign(spec, &Executor::new(threads), |shard| {
        let header = f.csv.is_empty();
        shard.write_records_csv(&mut f.csv, header)?;
        shard.write_records_jsonl(&mut f.jsonl)?;
        f.trace.extend_from_slice(&shard.trace);
        let header = f.samples.is_empty();
        shard.write_samples_csv(&mut f.samples, header)
    })
    .expect("campaign runs");
    (summary, f)
}

#[test]
fn one_thread_and_eight_threads_produce_identical_records() {
    let (s1, f1) = run(&spec(), 1);
    let (s8, f8) = run(&spec(), 8);

    assert_eq!(s1, s8, "campaign summaries, latency samples included, must match");
    assert_eq!(f1.csv, f8.csv, "CSV byte streams must be identical");
    assert_eq!(f1.jsonl, f8.jsonl, "JSONL byte streams must be identical");

    // The campaign actually did something worth comparing.
    assert_eq!(s1.overall.counts.faults, 24);
    assert!(s1.overall.counts.detected > 0, "no detections: {s1:?}");
    assert_eq!(s1.overall.latencies_ns().len(), s1.overall.counts.detected);
    assert!(!f1.csv.is_empty());
}

#[test]
fn rerunning_the_same_spec_reproduces_the_campaign() {
    let (a, files_a) = run(&spec(), 3);
    let (b, files_b) = run(&spec(), 3);
    assert_eq!(a, b);
    assert_eq!(files_a, files_b);
}

#[test]
fn recovery_campaign_is_thread_count_invariant() {
    // The same contract with the full detect->rollback->re-execute
    // loop in play: rollbacks re-execute instructions, annotate
    // detections with recovery latencies, and none of it may depend on
    // worker scheduling.
    let mut spec = spec();
    spec.config = meek_core::MeekConfig::with_recovery(4, meek_core::RecoveryPolicy::enabled());
    let (s1, f1) = run(&spec, 1);
    let (s8, f8) = run(&spec, 8);
    assert_eq!(s1, s8);
    assert_eq!(f1.csv, f8.csv, "recovery CSV must be byte-identical across thread counts");
    assert_eq!(f1.jsonl, f8.jsonl);
    let c = &s1.overall.counts;
    assert!(c.rollbacks > 0, "the campaign must actually recover something: {s1:?}");
    assert_eq!(c.unrecovered, 0);
    let text = String::from_utf8(f1.csv).unwrap();
    assert!(
        text.lines().next().unwrap().ends_with("recovered,recovery_cycles"),
        "records must carry the recovery-latency columns"
    );
    // At least one record must carry a real per-detection recovery
    // annotation (recovered=1 with a nonzero cycle count), not just
    // summary-level rollback totals.
    assert!(
        text.lines().skip(1).any(|l| {
            let mut cols = l.rsplit(',');
            let cycles = cols.next();
            cols.next() == Some("1") && cycles.is_some_and(|c| c != "0")
        }),
        "no record carries a completed recovery annotation:\n{text}"
    );
}

#[test]
fn event_trace_is_thread_count_invariant() {
    // `--trace` attaches the JSONL event observer to every shard; the
    // re-sequenced global trace must obey the same byte-identity
    // contract as the record files.
    let mut traced = spec();
    traced.trace_events = true;
    let (_, f1) = run(&traced, 1);
    let (_, f8) = run(&traced, 8);
    assert_eq!(f1.trace, f8.trace, "event trace must be byte-identical across thread counts");
    assert_eq!(f1.csv, f8.csv);
    let text = String::from_utf8(f1.trace).unwrap();
    assert!(!text.is_empty(), "tracing was enabled: the trace must not be empty");
    for line in text.lines() {
        assert!(
            line.starts_with("{\"workload\":\"") && line.contains("\"shard\":"),
            "every line must be shard-contextualised: {line}"
        );
        assert!(line.contains("\"event\":\""), "every line is one typed event: {line}");
    }
    // The stream carries the fault lifecycle, not just segment chatter.
    assert!(text.contains("\"event\":\"fault_injected\""));
    assert!(text.contains("\"event\":\"fault_detected\""));
    assert!(text.contains("\"event\":\"segment_closed\""));
    // Tracing must not perturb the simulation itself.
    assert_eq!(f1.csv, run(&spec(), 4).1.csv, "tracing must not change the records");
}

#[test]
fn occupancy_samples_are_thread_count_invariant() {
    // `--sample` attaches the per-cycle SamplingObserver to every
    // shard; the re-sequenced time series obeys the same byte-identity
    // contract, and must not perturb the records.
    let mut sampled = spec();
    sampled.sample_stride = 32;
    let (_, f1) = run(&sampled, 1);
    let (_, f8) = run(&sampled, 8);
    assert_eq!(f1.samples, f8.samples, "sample series must be byte-identical across threads");
    assert_eq!(f1.csv, f8.csv);
    let text = String::from_utf8(f1.samples).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("workload,shard,cycle,rob_occupancy,fabric_depth,littles_idle,lsl_occupancy"),
        "the series leads with its header"
    );
    let mut saw_rob = false;
    let mut saw_fabric = false;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 7, "seven columns per row: {line}");
        assert!(cols[0] == "blackscholes" || cols[0] == "swaptions", "{line}");
        assert!(cols[2].parse::<u64>().unwrap() % 32 == 0, "stride-32 grid: {line}");
        saw_rob |= cols[3] != "0";
        saw_fabric |= cols[4] != "0";
    }
    assert!(saw_rob, "the ROB must fill at some sampled cycle");
    assert!(saw_fabric, "the fabric must queue packets at some sampled cycle");
    // Sampling must not change the simulation itself.
    assert_eq!(f1.csv, run(&spec(), 4).1.csv, "sampling must not change the records");
}

#[test]
fn different_seeds_produce_different_campaigns() {
    let base = spec();
    let mut reseeded = spec();
    reseeded.seed ^= 0xFFFF;
    assert_ne!(
        run(&base, 4).1.csv,
        run(&reseeded, 4).1.csv,
        "the seed must actually steer the campaign"
    );
}
