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
//! [`splice_relinked`] is that relinker, for removals and insertions
//! alike: `meek-fuzz`'s mutator inserts with it. On top of that run
//! the vendored `proptest` shim's shrinkers: plain `shrink::vec` for
//! residual removals and `shrink::elements` for NOP canonicalisation
//! of the survivors.

use crate::cosim::{golden_run_in, CosimConfig, Divergence};
use crate::fuzz::FuzzProgram;
use crate::Case;
use meek_isa::disasm::disasm_word;
use meek_isa::inst::{AluImmOp, Inst};
use meek_isa::Reg;

/// Whether `insts[at]` and `insts[at + 1]` form the indirect-jump pair
/// `jal rs1, +4; jalr _, rs1, off`. The link register then holds the
/// `jalr`'s own address, so `off` is pc-relative to the `jalr`.
pub fn jump_pair_at(insts: &[Inst], at: usize) -> bool {
    matches!(
        insts.get(at..at + 2),
        Some(&[Inst::Jal { rd, offset: 4 }, Inst::Jalr { rs1, .. }]) if rd == rs1
    )
}

/// If `insts[at..at + 3]` is the indirect-jump triplet
/// `auipc rd, 0; addi rd, rd, Δ; jalr _, rd, 0` with a word-aligned
/// `Δ`, returns `Δ`: the jump target's byte displacement from the
/// `auipc`.
pub fn jump_triplet_at(insts: &[Inst], at: usize) -> Option<i32> {
    let [Inst::Auipc { rd, imm: 0 }, addi, Inst::Jalr { rs1: base, offset: 0, .. }] =
        *insts.get(at..at + 3)?
    else {
        return None;
    };
    match addi {
        Inst::AluImm { op: AluImmOp::Addi, rd: d, rs1, imm }
            if d == rd && rs1 == rd && base == rd && imm % 4 == 0 =>
        {
            Some(imm)
        }
        _ => None,
    }
}

/// Replaces `insts[start..end]` with `payload`, rewriting every
/// PC-relative offset of the surviving instructions so their control
/// flow still reaches the same surviving instructions. A removal is an
/// empty `payload`, an insertion an empty range. A target inside the
/// replaced range snaps to the first instruction after it; offsets
/// inside `payload` are left alone (distances inside a contiguous block
/// survive the move).
///
/// `jalr` offsets are register-relative, but the fuzzer's two
/// indirect-jump idioms make their targets positionally decodable, so
/// they relink too while the splice leaves the idiom whole:
///
/// * the pair ([`jump_pair_at`]): `jal rs1, +4; jalr _, rs1, off`, whose
///   `off` anchors at the `jalr`;
/// * the triplet ([`jump_triplet_at`]): `auipc rd, 0; addi rd, rd, Δ;
///   jalr _, rd, 0`, whose `Δ` anchors at the `auipc`.
///
/// Without this, any removal between an indirect jump and its target
/// breaks the candidate and indirect-jump reproducers stop shrinking.
///
/// # Panics
///
/// Panics unless `start <= end <= insts.len()`.
pub fn splice_relinked(insts: &[Inst], start: usize, end: usize, payload: &[Inst]) -> Vec<Inst> {
    let (s, e) = (start as i64, end as i64);
    let shift = payload.len() as i64 - (e - s);
    // Index in the output of original index `j`.
    let adj = |j: i64| if j < s { j } else { j.max(e) + shift };
    // New offset of a pc-relative displacement anchored at original
    // index `anchor`.
    let relink_at = |anchor: usize, offset: i32| {
        let anchor = anchor as i64;
        ((adj(anchor + offset as i64 / 4) - adj(anchor)) * 4) as i32
    };
    // Whether `insts[j - 1]` and `insts[j]` both survive and stay
    // adjacent, as an idiom needs.
    let joined = |j: usize| j > 0 && !(start..=end).contains(&j);
    let relink = |i: usize, inst: &Inst| match *inst {
        Inst::Branch { op, rs1, rs2, offset } => {
            Inst::Branch { op, rs1, rs2, offset: relink_at(i, offset) }
        }
        Inst::Jal { rd, offset } => Inst::Jal { rd, offset: relink_at(i, offset) },
        Inst::Jalr { rd, rs1, offset } if joined(i) && jump_pair_at(insts, i - 1) => {
            Inst::Jalr { rd, rs1, offset: relink_at(i, offset) }
        }
        Inst::AluImm { op, rd, rs1, .. } if joined(i) && joined(i + 1) => {
            match jump_triplet_at(insts, i - 1) {
                Some(imm) => Inst::AluImm { op, rd, rs1, imm: relink_at(i - 1, imm) },
                None => *inst,
            }
        }
        other => other,
    };
    let mut out = Vec::with_capacity(insts.len() - (end - start) + payload.len());
    out.extend(insts[..start].iter().enumerate().map(|(i, inst)| relink(i, inst)));
    out.extend_from_slice(payload);
    out.extend(insts[end..].iter().enumerate().map(|(i, inst)| relink(end + i, inst)));
    // Relink post-condition: splicing a payload with in-bounds jumps
    // into a program with in-bounds jumps must leave them all in bounds.
    debug_assert!(
        meek_analyze::jump_targets_ok(&out)
            || !(meek_analyze::jump_targets_ok(insts) && meek_analyze::jump_targets_ok(payload)),
        "splice_relinked broke a jump target (range {start}..{end}, payload {})",
        payload.len()
    );
    out
}

/// Shrinks an instruction sequence against an arbitrary failure
/// predicate: the `proptest` shim's ddmin with [`splice_relinked`]
/// removals, then its plain vector shrinker (for removals that need no
/// relinking), then NOP canonicalisation of the survivors.
pub fn shrink_insts<F: FnMut(&[Inst]) -> bool>(insts: Vec<Inst>, mut fails: F) -> Vec<Inst> {
    let remove = |c: &[Inst], start, end| splice_relinked(c, start, end, &[]);
    let cur = proptest::shrink::vec_with(insts, remove, |c| fails(c));
    let cur = proptest::shrink::vec(cur, |c| fails(c));
    let nop = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 };
    proptest::shrink::elements(cur, |_| vec![nop], |c| fails(c))
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
        let out = splice_relinked(&prog, 1, 2, &[]);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 8 }
        );
        assert_eq!(out[2], Inst::Jal { rd: Reg::X0, offset: -4 });
        // Remove the jal's own target: it snaps to the first survivor
        // after the range — the jal itself, a self-loop the shrink
        // predicate will reject as a candidate.
        let out2 = splice_relinked(&prog, 1, 3, &[]);
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
        let out = splice_relinked(&prog, 2, 3, &[]);
        assert_eq!(out[1], Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 8 });
        // Without the jal anchor the jalr's offset must not be touched
        // (its base register is an arbitrary run-time value).
        let unanchored = vec![nop, Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 12 }, nop, nop];
        let out2 = splice_relinked(&unanchored, 2, 3, &[]);
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
        let out = splice_relinked(&prog, 3, 5, &[]);
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
        let out2 = splice_relinked(&plain, 2, 3, &[]);
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
