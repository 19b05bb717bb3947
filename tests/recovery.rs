//! Recovery soundness, end to end at the workspace level: with a
//! [`RecoveryPolicy`] enabled, a detected fault must not end the run —
//! the system rolls back to the last verified checkpoint, re-executes,
//! re-verifies, and finishes with the *same* architectural state a
//! fault-free run produces, across workloads, fault sites, and
//! checker-cluster widths.

use meek_core::{FaultSite, FaultSpec, RecoveryPolicy, RunOutcome, Sim};
use meek_workloads::{parsec3, Workload};

const INSTS: u64 = 12_000;

fn recovered_run(wl: &Workload, n_little: usize, faults: Vec<FaultSpec>) -> RunOutcome {
    Sim::builder(wl, INSTS)
        .little_cores(n_little)
        .recovery(RecoveryPolicy::enabled())
        .faults(faults)
        .build()
        .expect("valid")
        .run()
}

fn clean_run(wl: &Workload, n_little: usize) -> RunOutcome {
    Sim::builder(wl, INSTS).little_cores(n_little).build().expect("valid").run()
}

#[test]
fn every_fault_site_recovers_to_the_clean_final_state() {
    let wl = Workload::build(&parsec3()[3], 0xEC0); // ferret
    let clean = clean_run(&wl, 4);
    for site in [
        FaultSite::MemAddr,
        FaultSite::MemData,
        FaultSite::RcpRegister,
        FaultSite::CacheData,
        FaultSite::LsqParity,
    ] {
        let outcome = recovered_run(&wl, 4, vec![FaultSpec { arm_at_commit: 5_000, site, bit: 9 }]);
        let report = &outcome.report;
        assert_eq!(report.committed, INSTS, "{site:?}: run must still finish");
        assert_eq!(report.recovery.unrecovered, 0, "{site:?}: {:?}", report.recovery);
        assert_eq!(
            outcome.final_state(),
            clean.final_state(),
            "{site:?}: recovery must restore the clean final state"
        );
        assert!(
            outcome.final_memory().content_eq(clean.final_memory()),
            "{site:?}: final memory must match the clean run"
        );
    }
}

#[test]
fn recovery_works_at_every_cluster_width() {
    let wl = Workload::build(&parsec3()[0], 0x11); // blackscholes
    for n_little in [1usize, 2, 4, 8] {
        let outcome = recovered_run(
            &wl,
            n_little,
            vec![FaultSpec { arm_at_commit: 4_000, site: FaultSite::MemData, bit: 5 }],
        );
        let clean = clean_run(&wl, n_little);
        let report = &outcome.report;
        assert_eq!(report.recovery.unrecovered, 0, "width {n_little}: {:?}", report.recovery);
        if !report.detections.is_empty() {
            assert!(report.recovery.rollbacks > 0, "width {n_little}");
        }
        assert_eq!(outcome.final_state(), clean.final_state(), "width {n_little}");
    }
}

#[test]
fn recovery_latency_and_storage_are_reported() {
    let wl = Workload::build(&parsec3()[0], 7);
    let outcome = recovered_run(
        &wl,
        4,
        vec![FaultSpec { arm_at_commit: 6_000, site: FaultSite::MemAddr, bit: 17 }],
    );
    let report = &outcome.report;
    let r = &report.recovery;
    assert_eq!(r.rollbacks, 1);
    assert_eq!(r.recovered, 1);
    assert!(r.mean_recovery_cycles().is_some_and(|m| m > 0.0));
    assert!(r.max_recovery_cycles >= r.recovery_cycles_total / r.recovered.max(1));
    assert!(r.storage_bytes_hwm > 0, "checkpoints + undo-log must be accounted");
    assert!(r.pinned_checkpoints_hwm >= 1);
    assert!(r.reexecuted_insts > 0, "rollback must have squashed committed work");
    // The detection carries its per-record recovery latency.
    assert!(report.detections[0].recovery_cycles.is_some_and(|c| c > 0));
    // Recovery costs time: the run is slower than the clean one — and
    // the timeline shows the rolled-back segment's re-open.
    let clean = clean_run(&wl, 4);
    assert!(report.cycles > clean.report.cycles);
    assert!(
        outcome.timeline.iter().any(|span| span.reopens > 0),
        "the rollback target must be re-opened in the timeline"
    );
}

#[test]
fn deep_rollback_recovers_to_the_clean_final_state() {
    // rollback_depth 2: every detection rewinds one checkpoint further
    // than its own segment's start. More work squashed, same invariant
    // — and the deeper target's checkpoint must still be pinned when
    // the rollback fires even if its own segment already passed.
    let wl = Workload::build(&parsec3()[3], 0xD2); // ferret
    let outcome = Sim::builder(&wl, INSTS)
        .recovery(RecoveryPolicy::with_depth(2))
        .faults(vec![
            FaultSpec { arm_at_commit: 3_000, site: FaultSite::MemData, bit: 12 },
            FaultSpec { arm_at_commit: 7_000, site: FaultSite::RcpRegister, bit: 4 },
        ])
        .build()
        .expect("valid")
        .run();
    let report = &outcome.report;
    assert_eq!(report.committed, INSTS);
    assert_eq!(report.recovery.unrecovered, 0, "{:?}", report.recovery);
    assert_eq!(report.recovery.recovered as usize, report.detections.len());
    let clean = clean_run(&wl, 4);
    assert_eq!(outcome.final_state(), clean.final_state());
    assert!(outcome.final_memory().content_eq(clean.final_memory()));
}

#[test]
fn detect_only_policy_still_dies_detected() {
    // The default policy must keep PR-2 semantics bit for bit: a
    // detection, no rollback, no recovery metrics.
    let wl = Workload::build(&parsec3()[0], 3);
    let report = Sim::builder(&wl, INSTS)
        .faults(vec![FaultSpec { arm_at_commit: 5_000, site: FaultSite::MemAddr, bit: 3 }])
        .build()
        .expect("valid")
        .run()
        .report;
    assert_eq!(report.detections.len(), 1);
    assert_eq!(report.recovery, Default::default());
    assert_eq!(report.detections[0].recovery_cycles, None);
}
