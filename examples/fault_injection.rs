//! Fault-injection campaign (Fig. 7 style): random bit flips in the
//! forwarded data of one PARSEC workload, with a detection-latency
//! histogram.
//!
//! ```sh
//! cargo run --release --example fault_injection [benchmark] [n_faults]
//! ```

use meek_core::{random_fault_specs, Sim};
use meek_workloads::{parsec3, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = args.get(1).map(String::as_str).unwrap_or("ferret");
    let n_faults: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);

    let profile = parsec3()
        .into_iter()
        .find(|p| p.name == bench)
        .unwrap_or_else(|| panic!("unknown PARSEC benchmark {bench}"));
    let insts = (n_faults as u64 * 1_500).max(50_000);
    println!("{bench}: injecting {n_faults} random faults over {insts} instructions\n");

    let workload = Workload::build(&profile, 7);
    let mut rng = SmallRng::seed_from_u64(0xDEAD);
    let report = Sim::builder(&workload, insts)
        .faults(random_fault_specs(n_faults, insts, &mut rng))
        .build()
        .expect("a valid campaign configuration")
        .run()
        .report;

    let mut lat: Vec<f64> = report.detections.iter().map(|d| d.latency_ns).collect();
    lat.sort_by(f64::total_cmp);
    assert!(!lat.is_empty(), "campaign produced no detections");

    // Text histogram, 200 ns buckets (the paper's Fig. 7 axis).
    let max = lat.last().copied().unwrap_or(0.0);
    let buckets = ((max / 200.0).ceil() as usize + 1).min(25);
    let mut hist = vec![0usize; buckets];
    for &l in &lat {
        hist[((l / 200.0) as usize).min(buckets - 1)] += 1;
    }
    let peak = hist.iter().copied().max().unwrap_or(1);
    println!("latency histogram (ns):");
    for (i, &h) in hist.iter().enumerate() {
        let bar = "#".repeat(h * 50 / peak.max(1));
        println!("{:>5}-{:<5} {:>5} {}", i * 200, (i + 1) * 200, h, bar);
    }

    let mean = lat.iter().sum::<f64>() / lat.len() as f64;
    println!("\ndetections: {} / {} faults", lat.len(), n_faults);
    println!("mean latency: {mean:.0} ns (paper: < 1000 ns)");
    println!("worst case:   {max:.0} ns (paper: up to 2700 ns)");
    println!("missed faults: {}", report.masked_faults.len());
}
