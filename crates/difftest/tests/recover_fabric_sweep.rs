//! Recovery × fabric-ablation coverage (ROADMAP item): rollback
//! correctness must hold under *every* interconnect, not just the
//! bespoke F2 the paper evaluates. A fault whose corrupted packet
//! travelled the AXI baseline squashes, rewinds and re-executes through
//! different buffering and timing — and the final architectural state
//! (registers, CSRs, memory) must still equal the golden
//! interpreter's under each [`FabricKind`].

use meek_core::{FabricKind, FaultSpec, RecoveryPolicy, Sim};
use meek_difftest::{fuzz_program, Case, CosimConfig, FaultOutcome, FuzzConfig, RecoveryVerdict};
use meek_workloads::Workload;

fn cfg(faults: usize) -> CosimConfig {
    CosimConfig { faults, recover: true, ..CosimConfig::default() }
}

/// `spec` through the recovery oracle on `fabric`: the case's own F2
/// run, or a run on another fabric built here and judged by the case.
fn verify(
    case: &Case,
    wl: &Workload,
    spec: FaultSpec,
    fabric: FabricKind,
) -> (FaultOutcome, RecoveryVerdict) {
    if fabric == FabricKind::F2 {
        return case.recover(spec);
    }
    let run = Sim::builder(wl, case.verdict().executed)
        .little_cores(4)
        .fabric(fabric)
        .recovery(RecoveryPolicy::enabled())
        .faults(vec![spec])
        .build_unobserved()
        .expect("valid configuration")
        .try_run()
        .unwrap_or_else(|e| panic!("{fabric:?}, {spec:?}: {e}"));
    let (outcome, recovery) = case.judge(spec, &run);
    (outcome, recovery.expect("the run had recovery enabled"))
}

#[test]
fn every_fabric_kind_recovers_to_the_golden_final_state() {
    let mut recovered_per_fabric = [0u64; 2];
    for (fi, fabric) in [FabricKind::F2, FabricKind::Axi].into_iter().enumerate() {
        for seed in 0..3u64 {
            let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
            let case = Case::new(&wl, &cfg(3));
            assert!(case.verdict().divergence.is_none(), "seed {seed} co-simulates clean");
            for spec in case.plan(seed) {
                let (outcome, verdict) = verify(&case, &wl, spec, fabric);
                assert!(
                    !verdict.is_failure(),
                    "{fabric:?}, seed {seed}, {spec:?}: {verdict} (coverage {outcome})"
                );
                if let RecoveryVerdict::Recovered { rollbacks, max_cycles } = verdict {
                    assert!(rollbacks > 0 && max_cycles > 0);
                    recovered_per_fabric[fi] += 1;
                }
            }
        }
    }
    // The sweep is only meaningful if both fabrics actually exercised
    // the detect -> rollback -> re-execute -> verify loop.
    for (fi, fabric) in [FabricKind::F2, FabricKind::Axi].into_iter().enumerate() {
        assert!(
            recovered_per_fabric[fi] > 0,
            "{fabric:?}: the fault plan must trigger at least one real recovery"
        );
    }
}

#[test]
fn fabric_choice_does_not_change_fault_verdicts() {
    // The interconnect moves the same records with different timing;
    // detection/mask classification is an architectural property and
    // must agree across fabrics for an identical fault plan.
    let wl = fuzz_program(7, &FuzzConfig::default()).workload();
    let case = Case::new(&wl, &cfg(4));
    assert!(case.verdict().divergence.is_none(), "seed 7 co-simulates clean");
    for spec in case.plan(7) {
        let (f2, vf2) = verify(&case, &wl, spec, FabricKind::F2);
        let (axi, vaxi) = verify(&case, &wl, spec, FabricKind::Axi);
        assert!(!vf2.is_failure() && !vaxi.is_failure(), "{spec:?}: {vf2} / {vaxi}");
        assert_eq!(
            std::mem::discriminant(&f2),
            std::mem::discriminant(&axi),
            "{spec:?} classified differently across fabrics: F2 {f2}, AXI {axi}"
        );
    }
}
