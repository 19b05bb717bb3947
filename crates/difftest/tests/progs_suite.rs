//! Suite oracle for the committed real-program kernels: every kernel
//! (and the fused all-kernel set) must co-simulate three ways with zero
//! divergences, classify a fixed-seed fault barrage with zero escapes,
//! and — with recovery enabled — end every detected fault in a
//! golden-equal final state. This is the permanent, debug-sized
//! counterpart of the release CLI's `--suite progs` run.

use meek_difftest::{Case, CosimConfig, FaultOutcome};
use meek_progs::{suite, WorkloadSet, KERNELS};
use meek_workloads::Workload;

/// The barrage seed is fixed so the plan (and thus the oracle verdicts)
/// never drift between runs or machines.
const BARRAGE_SEED: u64 = 0xD1FF_7E57;

/// Every suite workload, plus the fused set as a ninth entry — the same
/// rotation `meek-difftest --suite progs` drives.
fn suite_workloads() -> Vec<(String, Workload)> {
    let mut wls: Vec<(String, Workload)> =
        KERNELS.iter().map(|k| (k.name.to_string(), suite::workload(k))).collect();
    let set = WorkloadSet::all();
    wls.push((set.display_name(), set.fuse()));
    wls
}

fn cosim_clean<'w>(name: &str, wl: &'w Workload, cfg: &CosimConfig) -> Case<'w> {
    let case = Case::new(wl, cfg);
    let verdict = case.verdict();
    if let Some(d) = &verdict.divergence {
        panic!("{name}: three-way co-simulation diverged: {d}");
    }
    assert!(verdict.executed > 0, "{name}: retired nothing");
    case
}

/// Every kernel and the fused set co-simulate cleanly across the
/// golden, littlecore-replay, and full-system ways.
#[test]
fn every_kernel_cosims_clean_three_ways() {
    for (name, wl) in suite_workloads() {
        cosim_clean(&name, &wl, &CosimConfig { faults: 0, ..CosimConfig::default() });
    }
}

/// A fixed-seed fault barrage over the whole suite: no injected fault
/// may escape detect-only classification, and with recovery enabled
/// every fault must end in a golden-equal final state.
///
/// Two faults per workload keeps the debug-mode runtime tier-1-friendly;
/// the CLI smoke (`--suite progs --faults N`) scales the same barrage up
/// in release builds.
#[test]
fn fault_barrage_has_zero_escapes_and_recovers() {
    let cfg = CosimConfig { faults: 2, ..CosimConfig::default() };
    for (wi, (name, wl)) in suite_workloads().into_iter().enumerate() {
        let case = cosim_clean(&name, &wl, &cfg);
        let seed = BARRAGE_SEED ^ (wi as u64).wrapping_mul(0x9E37_79B9);
        for spec in case.plan(seed) {
            let outcome = case.classify(spec);
            assert!(
                !matches!(outcome, FaultOutcome::Escaped { .. }),
                "{name}: fault {spec:?} ESCAPED: {outcome}"
            );
            let (r_outcome, verdict) = case.recover(spec);
            assert!(
                !matches!(r_outcome, FaultOutcome::Escaped { .. }),
                "{name}: fault {spec:?} escaped under recovery: {r_outcome}"
            );
            assert!(!verdict.is_failure(), "{name}: fault {spec:?}: {verdict}");
        }
    }
}
