//! Recovery × fabric-ablation coverage (ROADMAP item): rollback
//! correctness must hold under *every* interconnect, not just the
//! bespoke F2 the paper evaluates. A fault whose corrupted packet
//! travelled the AXI baseline squashes, rewinds and re-executes through
//! different buffering and timing — and the final architectural state
//! (registers, CSRs, memory) must still equal the golden
//! interpreter's under each [`FabricKind`].

use meek_core::FabricKind;
use meek_difftest::{
    fault_plan, fuzz_program, golden_run, verify_recovery_in, FuzzConfig, RecoveryVerdict,
};

#[test]
fn every_fabric_kind_recovers_to_the_golden_final_state() {
    let mut recovered_per_fabric = [0u64; 2];
    for (fi, fabric) in [FabricKind::F2, FabricKind::Axi].into_iter().enumerate() {
        for seed in 0..3u64 {
            let prog = fuzz_program(seed, &FuzzConfig::default());
            let golden = golden_run(&prog).expect("clean fuzzed program");
            let wl = prog.workload();
            for spec in fault_plan(seed, 3, golden.trace.len() as u64) {
                let (outcome, verdict) = verify_recovery_in(&golden, &wl, spec, 4, fabric);
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
    let prog = fuzz_program(7, &FuzzConfig::default());
    let golden = golden_run(&prog).expect("clean fuzzed program");
    let wl = prog.workload();
    for spec in fault_plan(7, 4, golden.trace.len() as u64) {
        let (f2, vf2) = verify_recovery_in(&golden, &wl, spec, 4, FabricKind::F2);
        let (axi, vaxi) = verify_recovery_in(&golden, &wl, spec, 4, FabricKind::Axi);
        assert!(!vf2.is_failure() && !vaxi.is_failure(), "{spec:?}: {vf2} / {vaxi}");
        assert_eq!(
            std::mem::discriminant(&f2),
            std::mem::discriminant(&axi),
            "{spec:?} classified differently across fabrics: F2 {f2}, AXI {axi}"
        );
    }
}
