//! Quickstart: build a MEEK simulation through `SimBuilder` (one
//! BOOM-class big core, four Rocket-class checker cores), run a
//! workload under verification, and show an injected fault being
//! caught — with an `Observer` the example owns watching the run
//! instead of polled debug strings.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use meek_core::{run_vanilla, FaultSite, FaultSpec, MeekConfig, Sim, TraceLog};
use meek_workloads::{parsec3, Workload};

fn main() {
    // 1. Pick a workload profile and synthesise a program for it.
    let profile = parsec3().into_iter().find(|p| p.name == "blackscholes").expect("profile");
    let workload = Workload::build(&profile, 42);
    let insts = 30_000;

    // 2. Baseline: the vanilla big core with checking disabled.
    let cfg = MeekConfig::default(); // Table II: 4 little cores, F2 fabric
    let vanilla_cycles = run_vanilla(&cfg.big, &workload, insts);
    println!("vanilla big core: {vanilla_cycles} cycles");

    // 3. The same program under MEEK verification. The builder
    //    validates the configuration and derives the cycle cap; the
    //    outcome carries the report plus a per-segment timeline.
    let outcome = Sim::builder(&workload, insts)
        .little_cores(4)
        .build()
        .expect("a valid configuration")
        .run();
    let report = &outcome.report;
    println!(
        "MEEK (4 little cores): {} cycles — slowdown {:.3} ({:.1}% overhead)",
        report.cycles,
        report.slowdown_vs(vanilla_cycles),
        (report.slowdown_vs(vanilla_cycles) - 1.0) * 100.0
    );
    println!(
        "segments verified: {} (RCPs taken: {}), failures: {}",
        report.verified_segments, report.rcps, report.failed_segments
    );
    let first = outcome.timeline.first().expect("at least one segment");
    println!(
        "timeline: segment 1 opened at cycle {} on checker {}, verdict at cycle {}",
        first.opened_cycle,
        first.checker,
        first.closed_cycle.expect("concluded")
    );

    // 4. Inject a single bit flip into the forwarded data and watch the
    //    checkers catch it — through an observer this time.
    //    The run borrows the trace; we read it once the run is over.
    let mut trace = TraceLog::new(0);
    let report = Sim::builder(&workload, insts)
        .faults(vec![FaultSpec { arm_at_commit: 10_000, site: FaultSite::MemAddr, bit: 13 }])
        .observe(&mut trace)
        .build()
        .expect("a valid configuration")
        .run()
        .report;
    let d = report.detections.first().expect("the fault must be detected");
    println!(
        "\ninjected a bit flip in a forwarded address at commit 10000:\n  \
         detected in segment {} after {:.0} ns (paper: avg < 1 us)",
        d.seg, d.latency_ns
    );
    let events = trace.snapshot();
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
    println!(
        "observer saw {} segment verdicts, {} injection(s), {} detection(s)",
        count("segment_closed"),
        count("fault_injected"),
        count("fault_detected")
    );
    assert!(report.masked_faults.is_empty());
    assert_eq!(count("fault_detected"), 1);
}
