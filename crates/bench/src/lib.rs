//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's tables and figures.
//!
//! Every binary prints the paper-style rows to stdout and writes a CSV
//! under `results/` (`MEEK_RESULTS_DIR` override). Run sizes are tuned
//! for minutes-scale regeneration: set `MEEK_SIM_INSTS` for longer
//! perf runs (fig 6/8/9, ablations), `MEEK_FAULTS` for larger fig 7
//! fault campaigns, and `MEEK_THREADS` to bound the parallel
//! harnesses (0 = all hardware threads).

pub mod suites;

use meek_campaign::Executor;
use meek_core::{run_vanilla, MeekConfig, RunReport, Sim};
use meek_workloads::{BenchmarkProfile, Workload};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Default dynamic instruction budget per run.
pub const DEFAULT_SIM_INSTS: u64 = 60_000;

/// Dynamic instructions per run (`MEEK_SIM_INSTS` env override).
pub fn sim_insts() -> u64 {
    std::env::var("MEEK_SIM_INSTS").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_SIM_INSTS)
}

/// Faults per workload for the detection-latency campaign
/// (`MEEK_FAULTS` env override; the paper uses 5 000–10 000).
pub fn fault_count() -> usize {
    std::env::var("MEEK_FAULTS").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

/// Worker threads for the experiment harnesses (`MEEK_THREADS` env
/// override; 0 = one per hardware thread).
pub fn threads() -> usize {
    std::env::var("MEEK_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The shared executor the experiment binaries fan out on. Output stays
/// deterministic regardless of `MEEK_THREADS`: the executor re-sequences
/// results into task order.
pub fn executor() -> Executor {
    Executor::new(threads())
}

/// The results directory (created on demand): `MEEK_RESULTS_DIR` if
/// set, else `results/` at the repository root — so campaign output
/// works outside the source tree (containers, CI, installed binaries).
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var_os("MEEK_RESULTS_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    };
    fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create results dir {}: {e}", dir.display()));
    dir
}

/// Writes CSV rows (with header) to `results/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    println!("\n[csv] {}", path.display());
}

/// A vanilla + MEEK measurement pair for one workload.
pub struct MeekMeasurement {
    /// Benchmark name.
    pub name: &'static str,
    /// Vanilla big-core cycles.
    pub vanilla_cycles: u64,
    /// MEEK run report.
    pub report: RunReport,
}

impl MeekMeasurement {
    /// Slowdown of the MEEK run.
    pub fn slowdown(&self) -> f64 {
        self.report.slowdown_vs(self.vanilla_cycles)
    }
}

/// Runs one workload under vanilla and MEEK configurations.
pub fn measure_meek(
    profile: &BenchmarkProfile,
    cfg: MeekConfig,
    insts: u64,
    seed: u64,
) -> MeekMeasurement {
    let wl = Workload::build(profile, seed);
    measure_meek_workload(profile.name, &wl, cfg, insts)
}

/// Like [`measure_meek`], but on a pre-built workload — the harnesses
/// share one build per benchmark (via `meek_workloads::WorkloadCache`)
/// across the MEEK run and every baseline.
pub fn measure_meek_workload(
    name: &'static str,
    wl: &Workload,
    cfg: MeekConfig,
    insts: u64,
) -> MeekMeasurement {
    let vanilla_cycles = run_vanilla(&cfg.big, wl, insts);
    let report = Sim::builder(wl, insts)
        .config(cfg)
        .build_unobserved()
        .expect("harness config is valid")
        .run()
        .report;
    MeekMeasurement { name, vanilla_cycles, report }
}

/// Pretty-prints a slowdown as the paper's figures do.
pub fn fmt_slowdown(s: f64) -> String {
    format!("{s:.3}")
}

/// Prints a figure/table banner.
pub fn banner(title: &str, caption: &str) {
    println!("================================================================");
    println!("{title}");
    println!("{caption}");
    println!("================================================================");
}
