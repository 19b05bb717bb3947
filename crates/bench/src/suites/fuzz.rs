//! Micro-benchmarks for the coverage-guided fuzzing engine:
//! mutation-operator throughput, feature-extraction rate over a golden
//! run, and whole-candidate evaluation via a short guided campaign —
//! the numbers that bound how many iterations a fuzzing budget buys.

use criterion::{black_box, Criterion, Throughput};
use meek_difftest::{cosim, fuzz_program, golden_run_in, FuzzConfig};
use meek_fuzz::{
    golden_features, mutate, run_fuzz, Corpus, CoverageMap, Dictionary, FuzzSettings, MutationOp,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_mutation(c: &mut Criterion) {
    let subject = fuzz_program(1, &FuzzConfig::default()).insts();
    let donor = fuzz_program(2, &FuzzConfig::default()).insts();
    let dict = Dictionary::from_suite();
    let mut g = c.benchmark_group("fuzz");
    g.throughput(Throughput::Elements(1));
    for op in [MutationOp::Splice, MutationOp::Delete, MutationOp::MixShift, MutationOp::DictSplice]
    {
        let mut rng = SmallRng::seed_from_u64(7);
        g.bench_function(&format!("mutate_{op:?}").to_lowercase(), |b| {
            b.iter(|| {
                mutate(black_box(&subject), &donor, dict.fragments(), op, &mut rng).map(|v| v.len())
            })
        });
    }
    g.finish();
}

fn bench_coverage(c: &mut Criterion) {
    let wl = fuzz_program(3, &FuzzConfig::default()).workload();
    let golden = golden_run_in(&wl, cosim::GOLDEN_CAP).expect("clean");
    let mut g = c.benchmark_group("fuzz");
    g.throughput(Throughput::Elements(golden.trace.len() as u64));
    g.bench_function("golden_features", |b| {
        b.iter(|| {
            let map = CoverageMap::new();
            golden_features(black_box(&golden), &map);
            map.take_features().len()
        })
    });
    g.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let settings = FuzzSettings {
        iters: 8,
        seed: 11,
        threads: 1,
        static_len: 100,
        faults_per_case: 1,
        batch: 8,
        ..FuzzSettings::default()
    };
    let mut g = c.benchmark_group("fuzz");
    g.throughput(Throughput::Elements(settings.iters));
    g.bench_function("guided_campaign_8_iters", |b| {
        b.iter(|| {
            let (report, _, features) = run_fuzz(black_box(&settings), Corpus::new(0));
            assert!(report.clean());
            features.len()
        })
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_mutation(c);
    bench_coverage(c);
    bench_campaign(c);
}
