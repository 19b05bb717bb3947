//! Little-core scalability sweep (Fig. 8 style): how the slowdown falls
//! as checker cores are added.
//!
//! ```sh
//! cargo run --release --example scalability [benchmark]
//! ```

use meek_core::{run_vanilla, MeekConfig, Sim};
use meek_workloads::{parsec3, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = args.get(1).map(String::as_str).unwrap_or("swaptions");
    let profile = parsec3()
        .into_iter()
        .find(|p| p.name == bench)
        .unwrap_or_else(|| panic!("unknown PARSEC benchmark {bench}"));

    let insts = 40_000;
    let workload = Workload::build(&profile, 21);
    let vanilla = run_vanilla(&MeekConfig::default().big, &workload, insts);
    println!("{bench}: vanilla = {vanilla} cycles\n");
    println!("{:>6} {:>10} {:>10} {:>12}", "cores", "cycles", "slowdown", "little-stall");

    let mut prev: Option<f64> = None;
    for n in 1..=8 {
        let report = Sim::builder(&workload, insts)
            .little_cores(n)
            .build()
            .expect("a valid configuration")
            .run()
            .report;
        let s = report.slowdown_vs(vanilla);
        println!("{n:>6} {:>10} {:>10.3} {:>12}", report.cycles, s, report.stalls.little_core);
        if let Some(p) = prev {
            assert!(
                s <= p * 1.10,
                "adding a core must not make things notably worse ({p:.3} -> {s:.3})"
            );
        }
        prev = Some(s);
    }
    println!("\nthe slowdown declines superlinearly with core count (paper §V-C).");
}
