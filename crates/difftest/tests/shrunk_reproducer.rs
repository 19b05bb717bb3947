//! Shrunk reproducer — regression guard for the fault-coverage
//! oracle's benign-prover semantics.
//!
//! Produced by the relinking shrinker (`meek_difftest::shrink_insts`)
//! from fuzz seed `0xc3f5ed682ccfae2a` (272 -> 34 instructions), the
//! case that originally misclassified as an ESCAPE: a forwarded
//! load-data corruption (`lbu a1`) whose taint enters the CSR file
//! (`csrrs .., a1`), is read back on the next loop iteration and
//! stored — architecturally live, yet invisible to every comparison
//! the MEEK checkers make, because replay drops CSR-write side effects
//! and re-seeds CSR reads from the forwarded log. The checker verdict
//! ("masked") is sound for the big core's clean execution, and the
//! benign-prover must agree by replaying under *replay semantics*, not
//! raw architectural semantics.

use meek_core::{FaultSite, FaultSpec};
use meek_difftest::{classify_in, cosim, golden_run, CosimConfig, FaultOutcome, FuzzProgram};

const WORDS: &[u32] = &[
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00200a93, // addi s5, zero, 2
    0x00000013, // addi zero, zero, 0
    0x341295f3, // csrrw a1, 0x341, t0
    0xfabe20a3, // sw a1, -95(t3)
    0xf8ee4583, // lbu a1, -114(t3)
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x3415a0f3, // csrrs ra, 0x341, a1
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0x00000013, // addi zero, zero, 0
    0xfffa8a93, // addi s5, s5, -1
    0x000a8463, // beq s5, zero, 8
    0xfcdff06f, // jal zero, -52
];

/// The fault the original case injected, re-anchored by the shrinker.
const SPEC: FaultSpec = FaultSpec { arm_at_commit: 23, site: FaultSite::MemData, bit: 33 };

#[test]
fn shrunk_case_c3f5ed68_cosims_clean() {
    let prog = FuzzProgram::from_words(WORDS);
    let verdict = cosim::run(&prog, &CosimConfig::default());
    assert!(
        verdict.divergence.is_none(),
        "three-way divergence reappeared: {}",
        verdict.divergence.unwrap()
    );
}

#[test]
fn shrunk_case_c3f5ed68_masked_csr_transit_proves_benign() {
    let prog = FuzzProgram::from_words(WORDS);
    let golden = golden_run(&prog).expect("shrunk program is trap-free");
    let outcome = classify_in(&golden, &prog.workload(), SPEC, 4);
    assert_eq!(
        outcome,
        FaultOutcome::MaskedProvenBenign,
        "the CSR-transit corruption must classify as masked-proven-benign, got {outcome}"
    );
}
