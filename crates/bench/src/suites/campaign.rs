//! Benchmarks for the sharded campaign engine: end-to-end campaign
//! throughput on one thread (the deterministic unit of work) and the
//! shard path with the streaming observers attached — the costs that
//! bound how many faults a fleet budget buys, batch CLI and
//! `meek-serve` alike.

use criterion::{black_box, Criterion, Throughput};
use meek_campaign::{run_campaign, CampaignSpec, Executor};
use meek_workloads::parsec3;

const FAULTS: usize = 30;

fn spec() -> CampaignSpec {
    // blackscholes: the smallest code footprint in the PARSEC set.
    let mut spec = CampaignSpec::new(vec![parsec3()[0].clone()], FAULTS, 0xBA5E);
    spec.faults_per_shard = 10;
    spec
}

fn run(spec: &CampaignSpec) -> usize {
    let summary = run_campaign(spec, &Executor::new(1), |_| Ok(())).expect("campaign runs");
    let detected = summary.overall.counts.detected;
    assert!(detected > 0);
    detected
}

fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.throughput(Throughput::Elements(FAULTS as u64));
    g.bench_function("detect_30_faults_1_thread", |b| {
        let spec = spec();
        b.iter(|| run(black_box(&spec)))
    });
    g.bench_function("observed_30_faults_1_thread", |b| {
        // The serve/streaming configuration: JSONL event trace plus the
        // sampling observer on every shard.
        let mut spec = spec();
        spec.trace_events = true;
        spec.sample_stride = 64;
        b.iter(|| run(black_box(&spec)))
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_campaign(c);
}
