//! Differential agreement between `meek-analyze` and the dynamic
//! oracles it fronts for:
//!
//! * every mutation operator's output passes the analyzer with zero
//!   violations (trap *forecasts* are fine — mutants legitimately
//!   trap, and the engine rejects them on the forecast);
//! * every trap forecast is a proof: the golden interpreter traps
//!   after exactly the forecast number of retirements;
//! * every analyzer-accepted loop-free program runs trap-free on the
//!   golden interpreter within the forecast dynamic-length bound;
//! * the committed benchmark kernels and the fused multi-workload set
//!   are accepted under the strict loader contract.

use meek_difftest::{fuzz_program, golden_run_in, FuzzConfig, FuzzProgram};
use meek_fuzz::{mutate, Dictionary, MutationOp};
use meek_isa::Inst;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const OPS: [MutationOp; 5] = [
    MutationOp::Splice,
    MutationOp::Delete,
    MutationOp::MixShift,
    MutationOp::BranchRetarget,
    MutationOp::DictSplice,
];

fn decoded(words: &[u32]) -> Vec<Inst> {
    words.iter().filter_map(|&w| meek_isa::decode(w).ok()).collect()
}

/// Checks one program against the fuzz contract and, when the analyzer
/// makes a dynamic claim (trap forecast or length bound), against the
/// golden interpreter.
fn check_agreement(words: &[u32], what: &str) {
    let report = meek_analyze::analyze_words(words, &FuzzProgram::spec());
    assert!(report.violations.is_empty(), "{what}: unexpected violations:\n{report}");
    const CAP: u64 = 120_000;
    let golden = golden_run_in(&FuzzProgram::from_words(words).workload(), CAP);
    if let Some(forecast) = report.guaranteed_trap {
        let err = golden.as_ref().err();
        assert!(err.is_some(), "{what}: forecast `{forecast}` but the golden run was clean");
    } else if let Some(bound) = report.straightline_bound {
        let run = golden.unwrap_or_else(|d| panic!("{what}: golden trap on a clean program: {d}"));
        assert!(
            (run.trace.len() as u64) <= bound,
            "{what}: golden retired {} > forecast bound {bound}",
            run.trace.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh fuzzed programs are spotless: no violations, no trap
    /// forecast, and the analyzer's structural counters see the
    /// preamble's three anchor writes.
    #[test]
    fn fresh_programs_are_clean(seed in any::<u64>()) {
        let prog = fuzz_program(seed, &FuzzConfig { static_len: 60 });
        let report = meek_analyze::analyze_words(&prog.words, &FuzzProgram::spec());
        prop_assert!(report.clean(), "seed {seed:#x}:\n{report}");
        prop_assert_eq!(report.anchor_writes, 3);
        prop_assert!(report.reachable > 0);
    }

    /// Every operator's output, across seeds, agrees with the golden
    /// interpreter on every dynamic claim the analyzer makes.
    #[test]
    fn mutants_agree_with_the_golden_interpreter(seed in any::<u64>()) {
        let subject = decoded(&fuzz_program(seed, &FuzzConfig { static_len: 50 }).words);
        let donor = decoded(&fuzz_program(seed ^ 0xD0D0, &FuzzConfig { static_len: 50 }).words);
        let dict = Dictionary::from_suite();
        let mut rng = SmallRng::seed_from_u64(seed);
        for op in OPS {
            for _ in 0..4 {
                if let Some(out) = mutate(&subject, &donor, dict.fragments(), op, &mut rng) {
                    let words: Vec<u32> = out.iter().map(meek_isa::encode).collect();
                    check_agreement(&words, &format!("{op:?} on seed {seed:#x}"));
                }
            }
        }
    }
}

/// The committed kernels and the fused set pass the *strict* loader
/// contract — the same admission bar `meek-serve` applies.
#[test]
fn suite_programs_pass_the_strict_contract() {
    for k in &meek_progs::KERNELS {
        let prog = meek_progs::suite::program(k);
        let report = meek_progs::analyze_program(&prog);
        assert!(report.clean(), "{}:\n{report}", prog.name);
    }
    let fused = meek_progs::WorkloadSet::all().fuse();
    let report = meek_progs::analyze_workload(&fused);
    assert!(report.clean(), "{report}");
}
