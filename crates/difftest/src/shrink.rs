//! Test-case minimisation: shrinks a divergent fuzzed program to a
//! small reproducer and emits it as a ready-to-commit `#[test]`.
//!
//! Fuzzed programs encode control flow positionally (branch and `jal`
//! offsets), so naive element removal breaks almost every candidate —
//! the first removed instruction under a loop's back-edge sends the
//! program into a decode trap and the shrinker stalls. The minimiser
//! here removes ranges **and relinks** every PC-relative offset that
//! spans them (a target inside the removed range snaps to the first
//! surviving instruction), which makes the whole program shrinkable.
//! On top of that run the vendored `proptest` shim's shrinkers: plain
//! `shrink::vec` for residual removals and `shrink::elements` for NOP
//! canonicalisation of the survivors.

use crate::cosim::{golden_run_in, CosimConfig, Divergence};
use crate::fuzz::FuzzProgram;
use crate::Case;
use meek_isa::disasm::disasm_word;
use meek_isa::inst::{AluImmOp, Inst};
use meek_isa::Reg;

/// Removes `insts[start..end]`, rewriting every branch/`jal` offset
/// that crosses the removed range so surviving control flow still
/// targets the same surviving instructions. A target *inside* the
/// range snaps to the first instruction after it.
///
/// `jalr` offsets are link-register-relative, but the fuzzer's two
/// indirect-jump idioms make their targets positionally decodable, so
/// they relink too:
///
/// * `jal rs1, +4; jalr _, rs1, off` — the link register holds the
///   jalr's own address, so `off` is pc-relative in disguise;
/// * `auipc rd, 0; addi rd, rd, Δ; jalr _, rd, 0` — `Δ` is the byte
///   displacement from the `auipc`, rebuilt against the adjusted
///   indices.
///
/// Without this, any removal between an indirect jump and its target
/// breaks the candidate and indirect-jump reproducers stop shrinking.
pub fn remove_range_relinked(insts: &[Inst], start: usize, end: usize) -> Vec<Inst> {
    let out = remove_range_relinked_inner(insts, start, end);
    // Relink post-condition: removing a range from a program whose
    // jumps were all in bounds must leave them all in bounds.
    debug_assert!(
        meek_analyze::jump_targets_ok(&out) || !meek_analyze::jump_targets_ok(insts),
        "remove_range_relinked broke a jump target (range {start}..{end})"
    );
    out
}

fn remove_range_relinked_inner(insts: &[Inst], start: usize, end: usize) -> Vec<Inst> {
    let removed = end - start;
    // Adjusted index of original index j after the removal.
    let adj = |j: i64| -> i64 {
        if j < start as i64 {
            j
        } else if j < end as i64 {
            start as i64
        } else {
            j - removed as i64
        }
    };
    let kept = |j: usize| !(start..end).contains(&j);
    insts
        .iter()
        .enumerate()
        .filter(|(i, _)| kept(*i))
        .map(|(i, inst)| {
            // New offset for a pc-relative displacement anchored at
            // original index `anchor`.
            let relink_at = |anchor: usize, offset: i32| -> i32 {
                let target = anchor as i64 + offset as i64 / 4;
                ((adj(target) - adj(anchor as i64)) * 4) as i32
            };
            match *inst {
                Inst::Branch { op, rs1, rs2, offset } => {
                    Inst::Branch { op, rs1, rs2, offset: relink_at(i, offset) }
                }
                Inst::Jal { rd, offset } => Inst::Jal { rd, offset: relink_at(i, offset) },
                Inst::Jalr { rd, rs1, offset } => {
                    // jal rs1, +4 directly before: rs1 == this jalr's
                    // own address, so the offset anchors here.
                    let paired = i > 0
                        && kept(i - 1)
                        && matches!(insts[i - 1], Inst::Jal { rd: link, offset: 4 } if link == rs1);
                    if paired {
                        Inst::Jalr { rd, rs1, offset: relink_at(i, offset) }
                    } else {
                        Inst::Jalr { rd, rs1, offset }
                    }
                }
                Inst::AluImm { op: AluImmOp::Addi, rd, rs1, imm } if rd == rs1 => {
                    // The middle of an auipc/addi/jalr triplet: the
                    // immediate anchors at the auipc one slot back.
                    let triplet = i > 0
                        && i + 1 < insts.len()
                        && kept(i - 1)
                        && kept(i + 1)
                        && imm % 4 == 0
                        && matches!(insts[i - 1], Inst::Auipc { rd: a, imm: 0 } if a == rd)
                        && matches!(
                            insts[i + 1],
                            Inst::Jalr { rs1: j, offset: 0, .. } if j == rd
                        );
                    if triplet {
                        Inst::AluImm { op: AluImmOp::Addi, rd, rs1, imm: relink_at(i - 1, imm) }
                    } else {
                        Inst::AluImm { op: AluImmOp::Addi, rd, rs1, imm }
                    }
                }
                other => other,
            }
        })
        .collect()
}

/// Shrinks an instruction sequence against an arbitrary failure
/// predicate: the `proptest` shim's ddmin with [`remove_range_relinked`]
/// as the removal operator, then its plain vector shrinker (for
/// removals that need no relinking), then NOP canonicalisation of the
/// survivors.
pub fn shrink_insts<F: FnMut(&[Inst]) -> bool>(insts: Vec<Inst>, mut fails: F) -> Vec<Inst> {
    let cur = proptest::shrink::vec_with(insts, remove_range_relinked_range, |c| fails(c));
    let cur = proptest::shrink::vec(cur, |c| fails(c));
    let nop = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 };
    proptest::shrink::elements(cur, |_| vec![nop], |c| fails(c))
}

/// [`remove_range_relinked`] in the argument order the shim's
/// [`proptest::shrink::vec_with`] removal operator expects.
fn remove_range_relinked_range(insts: &[Inst], start: usize, end: usize) -> Vec<Inst> {
    remove_range_relinked(insts, start, end)
}

/// Discriminates divergences by *kind* (not payload), so shrinking
/// keeps reproducing the same class of failure while indices and
/// windows change.
fn same_kind(a: &Divergence, b: &Divergence) -> bool {
    matches!(
        (a, b),
        (Divergence::Replay { .. }, Divergence::Replay { .. })
            | (Divergence::ReplayStuck { .. }, Divergence::ReplayStuck { .. })
            | (Divergence::System { .. }, Divergence::System { .. })
            | (Divergence::GoldenTrap { .. }, Divergence::GoldenTrap { .. })
    )
}

/// Shrinks a program that diverges under `cfg` to a (locally) minimal
/// one that still diverges with the same kind. Returns the program
/// unchanged if it does not actually diverge.
pub fn minimize(prog: &FuzzProgram, cfg: &CosimConfig) -> FuzzProgram {
    // Candidates are only co-simulated, never faulted.
    let cfg = CosimConfig { faults: 0, ..*cfg };
    let Some(original) = Case::new(&prog.workload(), &cfg).verdict().divergence.clone() else {
        return prog.clone();
    };
    // A candidate that traps the golden interpreter broke its own
    // control flow, and one that runs away (relinking can manufacture
    // unbounded loops) is no reproducer either — pre-screen with a
    // bounded golden run before paying for the full three-way.
    const RUNAWAY: u64 = 200_000;
    let fails = |cand: &[Inst]| {
        let wl = FuzzProgram::from_insts(cand).workload();
        match golden_run_in(&wl, RUNAWAY) {
            Err(d) => return same_kind(&original, &d),
            Ok(g) if g.trace.len() as u64 >= RUNAWAY => return false,
            Ok(_) => {}
        }
        match &Case::new(&wl, &cfg).verdict().divergence {
            Some(d) => same_kind(&original, d),
            None => false,
        }
    };
    FuzzProgram::from_insts(&shrink_insts(prog.insts(), fails))
}

/// Emits a self-contained, ready-to-commit `#[test]` asserting the
/// program co-simulates divergence-free — the regression guard to land
/// next to the fix.
pub fn emit_test(name: &str, prog: &FuzzProgram, provenance: &str) -> String {
    let mut words = String::new();
    for w in &prog.words {
        words.push_str(&format!("        {w:#010x}, // {}\n", disasm_word(*w)));
    }
    format!(
        "/// {provenance}\n\
         #[test]\n\
         fn {name}() {{\n\
         \x20   let words: &[u32] = &[\n\
         {words}\
         \x20   ];\n\
         \x20   let wl = meek_difftest::FuzzProgram::from_words(words).workload();\n\
         \x20   let case = meek_difftest::Case::new(&wl, &meek_difftest::CosimConfig::default());\n\
         \x20   if let Some(d) = &case.verdict().divergence {{\n\
         \x20       panic!(\"three-way divergence reappeared: {{d}}\");\n\
         \x20   }}\n\
         }}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{fuzz_program, FuzzConfig};
    use meek_isa::inst::BranchOp;

    #[test]
    fn relink_preserves_targets_across_removal() {
        // 0: beq +12 (-> 3)   1: nop   2: nop   3: jal -8 (-> 1)
        let nop = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 };
        let prog = vec![
            Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 12 },
            nop,
            nop,
            Inst::Jal { rd: Reg::X0, offset: -8 },
        ];
        // Remove index 1: branch target 3 -> 2; jal (now at 2) target 1 -> 1.
        let out = remove_range_relinked(&prog, 1, 2);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 8 }
        );
        assert_eq!(out[2], Inst::Jal { rd: Reg::X0, offset: -4 });
        // Remove the jal's own target: it snaps to the first survivor
        // after the range — the jal itself, a self-loop the shrink
        // predicate will reject as a candidate.
        let out2 = remove_range_relinked(&prog, 1, 3);
        assert_eq!(out2.len(), 2);
        assert_eq!(out2[1], Inst::Jal { rd: Reg::X0, offset: 0 });
    }

    #[test]
    fn relink_rebuilds_jal_jalr_pair_offsets() {
        let nop = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 };
        // 0: jal x1, +4   1: jalr x2, x1, +12 (-> 4)   2: nop   3: nop   4: nop
        let prog = vec![
            Inst::Jal { rd: Reg::X1, offset: 4 },
            Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 12 },
            nop,
            nop,
            nop,
        ];
        // Remove index 2: the jalr's target (4) slides to 3.
        let out = remove_range_relinked(&prog, 2, 3);
        assert_eq!(out[1], Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 8 });
        // Without the jal anchor the jalr's offset must not be touched
        // (its base register is an arbitrary run-time value).
        let unanchored = vec![nop, Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 12 }, nop, nop];
        let out2 = remove_range_relinked(&unanchored, 2, 3);
        assert_eq!(out2[1], Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 12 });
    }

    #[test]
    fn relink_rebuilds_auipc_addi_jalr_triplets() {
        let nop = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 };
        // 0: auipc x1, 0   1: addi x1, x1, 20 (-> 5)   2: jalr x2, x1, 0
        // 3: nop   4: nop   5: nop
        let prog = vec![
            Inst::Auipc { rd: Reg::X1, imm: 0 },
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X1, imm: 20 },
            Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 0 },
            nop,
            nop,
            nop,
        ];
        // Remove the two skipped nops: target index 5 snaps to 3.
        let out = remove_range_relinked(&prog, 3, 5);
        assert_eq!(out.len(), 4);
        assert_eq!(out[1], Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X1, imm: 12 });
        // A plain rd==rs1 addi with no auipc/jalr neighbours keeps its
        // immediate — it is arithmetic, not an address.
        let plain = vec![
            nop,
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X3, rs1: Reg::X3, imm: 20 },
            nop,
            nop,
        ];
        let out2 = remove_range_relinked(&plain, 2, 3);
        assert_eq!(
            out2[1],
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X3, rs1: Reg::X3, imm: 20 }
        );
    }

    #[test]
    fn indirect_jump_reproducers_shrink_through_their_chains() {
        // A program whose "failure" is: an indirect jump executes and
        // the run terminates. ddmin must strip all the ballast while
        // relinking both indirect-jump idioms.
        let nop = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 };
        let mut prog = vec![nop; 6];
        prog.extend([
            Inst::Auipc { rd: Reg::X1, imm: 0 },
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X1, imm: 20 },
            Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 0 },
            nop,
            nop,
        ]);
        prog.extend(vec![nop; 6]);
        let fails = |cand: &[Inst]| {
            let wl = FuzzProgram::from_insts(cand).workload();
            match golden_run_in(&wl, crate::cosim::GOLDEN_CAP) {
                Ok(g) => g.trace.iter().any(|r| r.branch.is_some_and(|b| b.is_indirect)),
                Err(_) => false,
            }
        };
        assert!(fails(&prog));
        let min = shrink_insts(prog, fails);
        assert!(
            min.len() <= 3,
            "the triplet alone reproduces; relinking must let the rest go, got {min:?}"
        );
        assert!(min.iter().any(|i| matches!(i, Inst::Jalr { .. })));
    }

    #[test]
    fn shrink_insts_collapses_around_the_load_bearing_instruction() {
        // Failure: the program contains an ecall that actually executes.
        let prog = fuzz_program(21, &FuzzConfig { static_len: 120 });
        let insts = prog.insts();
        let fails = |cand: &[Inst]| {
            let wl = FuzzProgram::from_insts(cand).workload();
            match golden_run_in(&wl, crate::cosim::GOLDEN_CAP) {
                Ok(g) => g.trace.iter().any(|r| r.is_kernel_trap),
                Err(_) => false,
            }
        };
        if !fails(&insts) {
            return; // this seed has no kernel trap; nothing to exercise
        }
        let min = shrink_insts(insts.clone(), fails);
        assert!(min.len() <= 2, "a lone ecall suffices, got {} instructions", min.len());
        assert!(min.iter().any(|i| matches!(i, Inst::Ecall | Inst::Ebreak)));
    }

    #[test]
    fn clean_program_minimizes_to_itself() {
        let prog = fuzz_program(1, &FuzzConfig { static_len: 40 });
        let min = minimize(&prog, &CosimConfig::default());
        assert_eq!(min, prog, "no divergence, nothing to shrink");
    }

    #[test]
    fn emitted_test_contains_the_program_and_harness() {
        let prog = fuzz_program(2, &FuzzConfig { static_len: 20 });
        let t = emit_test("shrunk_case_2", &prog, "shrunk from seed 2");
        assert!(t.contains("#[test]"));
        assert!(t.contains("fn shrunk_case_2()"));
        assert!(t.contains("from_words"));
        assert!(t.contains(&format!("{:#010x}", prog.words[0])));
        assert!(t.lines().count() > prog.words.len(), "one line per word plus harness");
    }
}
