//! Figure 7: detection-latency density with 4 little cores.
//!
//! Faults are injected into the forwarded data (memory addresses/data
//! and checkpoint register values) at random commit points; latency is
//! measured from injection to the checker's mismatch report. The paper
//! injects 5 000–10 000 faults per workload; set `MEEK_FAULTS` to match
//! (default is a quicker campaign with the same distribution shape).
//!
//! The campaign runs on the sharded `meek-campaign` engine: shards fan
//! out across `MEEK_THREADS` worker threads (default: all hardware
//! threads) and the numbers are identical whatever the thread count.

use meek_bench::{banner, executor, fault_count, write_csv};
use meek_campaign::{run_campaign, CampaignSpec};
use meek_workloads::parsec3;
use std::time::Instant;

const BUCKET_NS: f64 = 200.0;
const BUCKETS: usize = 15; // 0..3000 ns, matching the figure's x-axis

fn main() {
    let per_workload = fault_count();
    let spec = CampaignSpec::new(parsec3(), per_workload, 0xFA_17);
    let ex = executor();
    banner(
        "Fig. 7 — Detection latency, 4 little cores (unit: ns)",
        &format!(
            "{per_workload} random faults per PARSEC workload, {} shards on {} threads",
            spec.shards().len(),
            ex.threads()
        ),
    );
    let started = Instant::now();
    let summary = run_campaign(&spec, &ex, |_| Ok(())).expect("the default config is valid");
    let mut rows = Vec::new();
    println!(
        "{:<14} {:>6} {:>7} {:>7} {:>8} {:>9} {:>9} {:>8}",
        "benchmark", "inj", "det", "masked", "pending", "mean(ns)", "max(ns)", "<3us"
    );
    for (name, stats) in &summary.per_workload {
        let c = &stats.counts;
        println!(
            "{:<14} {:>6} {:>7} {:>7} {:>8} {:>9.1} {:>9.1} {:>7.2}%",
            name,
            c.faults,
            c.detected,
            c.masked,
            c.pending,
            stats.mean_ns(),
            stats.max_ns(),
            stats.fraction_under(3000.0) * 100.0
        );
        // Density histogram for the CSV (one row per bucket).
        for (b, density) in stats.histogram(BUCKET_NS, BUCKETS).into_iter().enumerate() {
            rows.push(format!("{},{},{:.4}", name, (b as f64 + 0.5) * BUCKET_NS, density));
        }
    }
    let overall = &summary.overall;
    println!("\ntotal samples: {}", overall.counts.detected);
    println!("overall mean: {:.1} ns (paper: < 1 us)", overall.mean_ns());
    println!(
        "99.9th percentile: {:.1} ns (paper: 3 us covers > 99.9%)",
        overall.percentile_ns(0.999)
    );
    println!("worst case: {:.1} ns (paper: up to 2.7 us)", overall.max_ns());
    println!(
        "(masked = the flipped bit landed on an architecturally dead value — \n\
         no architectural error existed to detect; pending = no verdict by end of run)"
    );
    println!(
        "campaign: {} faults across {} shards in {:.2?} ({:.0} faults/s)",
        overall.counts.faults,
        summary.shards,
        started.elapsed(),
        overall.counts.faults as f64 / started.elapsed().as_secs_f64().max(1e-9)
    );
    write_csv("fig7_latency.csv", "benchmark,bucket_center_ns,density", &rows);
}
