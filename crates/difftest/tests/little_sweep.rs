//! Difftest co-simulation across checker-cluster widths: every config
//! from 1 to 8 little cores must co-simulate fuzzed programs cleanly,
//! classify injected faults without escapes, and produce byte-identical
//! reports regardless of how many worker threads fan the grid out —
//! the same determinism contract the `meek-difftest` CLI ships with.

use meek_campaign::Executor;
use meek_difftest::{fuzz_program, Case, CosimConfig, FuzzConfig};

/// The (little-core count, program seed) sweep grid.
fn grid() -> Vec<(usize, u64)> {
    (1..=8usize).flat_map(|n| [(n, 3u64), (n, 17)]).collect()
}

/// One case's full report, rendered to a stable string so runs can be
/// compared byte-for-byte.
fn run_cell(n_little: usize, seed: u64) -> String {
    let cfg = CosimConfig { n_little, faults: 2, ..CosimConfig::default() };
    let wl = fuzz_program(seed, &FuzzConfig { static_len: 120 }).workload();
    let case = Case::new(&wl, &cfg);
    let v = case.verdict();
    let mut out = format!(
        "n={n_little} seed={seed} executed={} segments={} divergence={:?}",
        v.executed,
        v.segments,
        v.divergence.as_ref().map(|d| d.to_string())
    );
    for spec in case.plan(seed) {
        out.push_str(&format!(" | {spec:?} -> {}", case.classify(spec)));
    }
    out
}

#[test]
fn every_cluster_width_cosims_clean_and_classifies_without_escapes() {
    for (n, seed) in grid() {
        let report = run_cell(n, seed);
        assert!(report.contains("divergence=None"), "width {n}, seed {seed} diverged: {report}");
        assert!(!report.contains("ESCAPED"), "width {n}, seed {seed} escaped: {report}");
    }
}

#[test]
fn sweep_report_is_byte_identical_at_any_thread_count() {
    let cells = grid();
    let run_with = |threads: usize| -> Vec<String> {
        let mut reports = Vec::new();
        Executor::new(threads).map_ordered(
            &cells,
            |_idx, &(n, seed)| run_cell(n, seed),
            |_idx, r: String| reports.push(r),
        );
        reports
    };
    let one = run_with(1);
    let four = run_with(4);
    assert_eq!(one, four, "fan-out must not change a single byte of the sweep report");
    assert_eq!(one.len(), cells.len());
}
