//! Micro-benchmarks for the real-program workload path: assembling the
//! committed benchmark suite, golden-interpreting a kernel, and one
//! suite case end-to-end through the three-way co-simulation plus
//! fault classification — the per-case cost `meek-difftest --suite
//! progs` and `meek-campaign --suite progs` pay.

use criterion::{black_box, Criterion, Throughput};
use meek_difftest::{Case, CosimConfig};
use meek_progs::{assemble, kernel, run_golden, suite, KERNELS, KERNEL_INST_CAP};

fn bench_assemble(c: &mut Criterion) {
    let mut g = c.benchmark_group("progs");
    g.throughput(Throughput::Elements(KERNELS.len() as u64));
    g.bench_function("assemble_suite", |b| {
        b.iter(|| {
            let mut words = 0usize;
            for k in KERNELS {
                words +=
                    assemble(k.name, black_box(k.source)).expect("kernel assembles").code.len();
            }
            words
        })
    });
    g.finish();
}

fn bench_golden(c: &mut Criterion) {
    let k = kernel("qsort").expect("qsort is committed");
    let wl = suite::workload(k);
    let reference = run_golden(&wl, KERNEL_INST_CAP);
    assert!(reference.exited, "qsort must run to its exit syscall");
    let mut g = c.benchmark_group("progs");
    g.throughput(Throughput::Elements(reference.retired));
    g.bench_function("golden_kernel_qsort", |b| {
        b.iter(|| run_golden(black_box(&wl), KERNEL_INST_CAP).retired)
    });
    g.finish();
}

fn bench_case_rate(c: &mut Criterion) {
    // One representative suite case measured end-to-end exactly as the
    // CLIs run it — the memoised rotation workload, a three-way
    // co-simulation, then the default 3-fault classification plan — so
    // the baseline gate locks in the per-case cost of a real-program
    // case.
    let cfg = CosimConfig::default();
    let mut g = c.benchmark_group("progs");
    g.throughput(Throughput::Elements(1));
    g.bench_function("progs_cases_per_sec", |b| {
        b.iter(|| {
            let case = Case::new(meek_progs::rotation_workload(black_box(0)), &cfg);
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
    bench_assemble(c);
    bench_golden(c);
    bench_case_rate(c);
}
