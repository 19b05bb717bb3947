//! End-to-end integration: workload synthesis → big-core execution →
//! DEU extraction → fabric → checker replay, across every profile.

use meek_core::{run_vanilla, FabricKind, MeekConfig, RunReport, Sim, SimBuilder};
use meek_workloads::{parsec3, spec_int_2006, Workload};

const INSTS: u64 = 8_000;

/// A default-configuration builder for the shared instruction budget.
fn sim(wl: &Workload) -> SimBuilder<'_> {
    Sim::builder(wl, INSTS)
}

fn run(wl: &Workload) -> RunReport {
    sim(wl).build().expect("valid").run().report
}

#[test]
fn every_parsec_profile_verifies_cleanly() {
    for p in &parsec3() {
        let wl = Workload::build(p, 0xE2E);
        let r = run(&wl);
        assert_eq!(r.failed_segments, 0, "{}: spurious failure", p.name);
        assert!(r.verified_segments > 0, "{}: nothing verified", p.name);
        assert_eq!(r.committed, INSTS, "{}", p.name);
    }
}

#[test]
fn every_spec_profile_verifies_cleanly() {
    for p in &spec_int_2006() {
        let wl = Workload::build(p, 0xE2E);
        let r = run(&wl);
        assert_eq!(r.failed_segments, 0, "{}: spurious failure", p.name);
        assert!(r.verified_segments > 0, "{}: nothing verified", p.name);
    }
}

#[test]
fn axi_fabric_also_verifies_cleanly() {
    let p = &parsec3()[2]; // dedup
    let wl = Workload::build(p, 0xA31);
    let r = sim(&wl).fabric(FabricKind::Axi).build().expect("valid").run().report;
    assert_eq!(r.failed_segments, 0);
    assert!(r.verified_segments > 0);
}

#[test]
fn segment_count_matches_rcps() {
    let p = &parsec3()[0];
    let wl = Workload::build(p, 0x5E6);
    let r = run(&wl);
    assert_eq!(r.rcps, r.verified_segments, "every RCP closes exactly one verified segment");
}

#[test]
fn kernel_traps_force_extra_rcps() {
    // dedup has syscalls (kernel traps) in its profile; the same dynamic
    // length must produce more segments than its record budget implies.
    let dedup = parsec3().into_iter().find(|p| p.name == "dedup").expect("profile");
    let wl = Workload::build(&dedup, 0x6E4);
    let r = run(&wl);
    let mut run = wl.run(INSTS);
    let mut traps = 0;
    while let Some(ret) = run.next_retired() {
        traps += u64::from(ret.is_kernel_trap);
    }
    assert!(traps > 0, "profile must trap");
    let min_segments_from_budget = INSTS / 192; // record budget bound only
    assert!(
        r.verified_segments > min_segments_from_budget.min(traps),
        "traps must add boundaries (verified {}, traps {traps})",
        r.verified_segments
    );
}

#[test]
fn slowdown_sane_across_core_counts() {
    let p = &parsec3()[7]; // swaptions, the stress case
    let wl = Workload::build(p, 0x5CA);
    let vanilla = run_vanilla(&MeekConfig::default().big, &wl, INSTS);
    let mut prev = f64::MAX;
    for n in [2usize, 4, 6] {
        let r = sim(&wl).little_cores(n).build().expect("valid").run().report;
        let s = r.app_cycles as f64 / vanilla as f64;
        assert!(s >= 0.999, "MEEK cannot be faster than vanilla ({s})");
        assert!(s < prev * 1.05, "more cores must not hurt ({prev:.3} -> {s:.3} at {n})");
        prev = s;
    }
}

#[test]
fn deterministic_end_to_end() {
    let p = &parsec3()[1];
    let wl = Workload::build(p, 0xDE7);
    let once = |wl: &Workload| {
        let r = run(wl);
        (r.cycles, r.verified_segments, r.committed)
    };
    assert_eq!(once(&wl), once(&wl), "simulation must be deterministic");
}
