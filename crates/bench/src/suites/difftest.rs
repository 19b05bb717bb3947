//! Micro-benchmarks for the difftest pipeline: program fuzzing rate,
//! golden-interpreter throughput on fuzzed code, and the full three-way
//! co-simulation — the numbers that bound how many cases a CI budget
//! buys.

use criterion::{black_box, Criterion, Throughput};
use meek_difftest::{cosim, fuzz_program, golden_run_in, Case, CosimConfig, FuzzConfig};

fn bench_fuzz(c: &mut Criterion) {
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(1));
    let mut seed = 0u64;
    g.bench_function("fuzz_program", |b| {
        b.iter(|| {
            seed += 1;
            black_box(fuzz_program(seed, &FuzzConfig::default())).words.len()
        })
    });
    g.finish();
}

/// The golden run of `prog`, image build included.
fn golden_len(prog: &meek_difftest::FuzzProgram) -> u64 {
    golden_run_in(&prog.workload(), cosim::GOLDEN_CAP).expect("clean").trace.len() as u64
}

fn bench_golden(c: &mut Criterion) {
    let prog = fuzz_program(1, &FuzzConfig::default());
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(golden_len(&prog)));
    g.bench_function("golden_run", |b| b.iter(|| golden_len(black_box(&prog))));
    g.finish();
}

fn bench_cosim(c: &mut Criterion) {
    let prog = fuzz_program(2, &FuzzConfig::default());
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(golden_len(&prog)));
    g.bench_function("three_way_cosim", |b| {
        b.iter(|| {
            let wl = black_box(&prog).workload();
            let case = Case::new(&wl, &CosimConfig::default());
            assert!(case.verdict().divergence.is_none());
            case.verdict().executed
        })
    });
    g.finish();
}

fn bench_case_rate(c: &mut Criterion) {
    // One representative case measured end-to-end exactly as the CLI
    // runs it — fuzz, three-way co-simulation, then the default 3-fault
    // classification plan — so the baseline gate locks in the whole
    // per-case cost (`meek-difftest` cases/sec), not just the co-sim.
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(1));
    g.bench_function("difftest_cases_per_sec", |b| {
        b.iter(|| {
            let wl = fuzz_program(black_box(7), &FuzzConfig::default()).workload();
            let case = Case::new(&wl, &CosimConfig::default());
            assert!(case.verdict().divergence.is_none());
            let mut classified = 0usize;
            for spec in case.plan(7) {
                assert!(!case.classify(spec).is_escape());
                classified += 1;
            }
            classified
        })
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_fuzz(c);
    bench_golden(c);
    bench_cosim(c);
    bench_case_rate(c);
}
