//! Typed-verdict tests: deliberately-broken programs must yield the
//! matching violation, well-formed idioms must come back clean and
//! precise, and every trap forecast must agree with the golden
//! interpreter.

use super::*;
use meek_isa::exec::step;
use meek_isa::inst::{AluImmOp, AluOp, BranchOp, Inst, StoreOp};
use meek_isa::{encode, ArchState, Bus, Reg, SparseMemory};

const CODE: u64 = 0x1000;

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst {
    Inst::AluImm { op: AluImmOp::Addi, rd, rs1, imm }
}

fn sd(rs1: Reg, rs2: Reg, offset: i32) -> Inst {
    Inst::Store { op: StoreOp::Sd, rs1, rs2, offset }
}

fn report(insts: &[Inst], spec: &ProgramSpec) -> AnalysisReport {
    analyze_insts(insts, spec)
}

/// Runs the golden interpreter on the bare-spec program and returns
/// `Some(retired)` if it traps within `max` steps.
fn golden_trap_step(insts: &[Inst], spec: &ProgramSpec, max: u64) -> Option<u64> {
    let mut mem = SparseMemory::new();
    for (i, inst) in insts.iter().enumerate() {
        mem.write(spec.code_base + 4 * i as u64, 4, encode(inst) as u64);
    }
    let mut st = ArchState::new(spec.code_base);
    let exit_pc = spec.code_base + 4 * insts.len() as u64;
    for retired in 0..max {
        if st.pc == exit_pc {
            return None;
        }
        if step(&mut st, &mut mem).is_err() {
            return Some(retired);
        }
    }
    None
}

#[test]
fn anchor_clobber_is_flagged_only_under_strict_anchors() {
    let prog = [addi(Reg::X26, Reg::X0, 5), addi(Reg::X1, Reg::X0, 1)];
    let mut spec = ProgramSpec::bare("t", CODE);
    spec.strict_anchors = true;
    let r = report(&prog, &spec);
    assert_eq!(r.violations, vec![Violation::AnchorClobber { index: 0, reg: Reg::X26 }]);
    assert_eq!(r.anchor_writes, 1);

    let lax = report(&prog, &ProgramSpec::bare("t", CODE));
    assert!(lax.clean(), "{lax}");
    assert_eq!(lax.anchor_writes, 1);
}

#[test]
fn provable_out_of_window_store_is_flagged_under_strict_window() {
    // x5 = 0x30_0000, a megabyte past the window.
    let prog = [Inst::Lui { rd: Reg::X5, imm: 0x300 }, sd(Reg::X5, Reg::X6, 0)];
    let mut spec = ProgramSpec::bare("t", CODE);
    spec.window = Some(Window { base: 0x20_0000, size: 0x1000, slack: 0 });
    spec.strict_window = true;
    let r = report(&prog, &spec);
    assert_eq!(
        r.violations,
        vec![Violation::OutOfWindow { index: 1, lo: 0x30_0000, hi: 0x30_0007 }]
    );
    assert_eq!(r.resolved_accesses, 1);

    // The same store with the strictness off is merely counted.
    spec.strict_window = false;
    assert!(report(&prog, &spec).violations.is_empty());
}

#[test]
fn wild_and_misaligned_static_jumps_are_flagged() {
    let wild = [Inst::Jal { rd: Reg::X0, offset: 20 }, addi(Reg::X1, Reg::X0, 1)];
    let r = report(&wild, &ProgramSpec::bare("t", CODE));
    assert_eq!(r.violations, vec![Violation::WildJump { index: 0, target: 5 }]);

    let misaligned = [Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 2 }];
    let r = report(&misaligned, &ProgramSpec::bare("t", CODE));
    assert_eq!(r.violations, vec![Violation::MisalignedJump { index: 0, offset: 2 }]);
}

#[test]
fn store_into_the_code_span_is_self_modifying() {
    // x5 = 0x1000 = code_base; the store lands on instruction 0.
    let prog = [Inst::Lui { rd: Reg::X5, imm: 1 }, sd(Reg::X5, Reg::X6, 0)];
    let r = report(&prog, &ProgramSpec::bare("t", CODE));
    assert_eq!(
        r.violations,
        vec![Violation::SelfModifyingStore { index: 1, lo: 0x1000, hi: 0x1007 }]
    );
}

#[test]
fn undecodable_word_is_flagged_and_forecast() {
    let spec = ProgramSpec::bare("t", CODE);
    let r = analyze_words(&[0u32], &spec);
    assert_eq!(r.violations, vec![Violation::Undecodable { index: 0, word: 0 }]);
    let t = r.guaranteed_trap.expect("fetch of a zero word must trap");
    assert_eq!((t.step, t.target), (0, CODE));
}

#[test]
fn wild_concrete_jalr_yields_a_forecast_matching_the_golden_interpreter() {
    let prog = [
        Inst::Lui { rd: Reg::X5, imm: 0x400 },
        Inst::Jalr { rd: Reg::X0, rs1: Reg::X5, offset: 0 },
    ];
    let spec = ProgramSpec::bare("t", CODE);
    let r = report(&prog, &spec);
    assert!(r.violations.is_empty(), "a trapping program is not malformed: {r}");
    let t = r.guaranteed_trap.expect("jump to unmapped 0x40_0000 must trap");
    assert_eq!((t.step, t.index, t.target), (2, 1, 0x40_0000));
    assert_eq!(golden_trap_step(&prog, &spec, 100), Some(t.step), "forecast must be exact");
    assert_eq!(r.indeterminate_jumps, 1);

    // And static_reject (the fuzz fast path) agrees.
    let words: Vec<u32> = prog.iter().map(encode).collect();
    assert_eq!(static_reject(&words, &spec), Some(t));
}

#[test]
fn running_off_the_code_is_forecast_only_when_the_exit_is_elsewhere() {
    // `lui a0, -1` and nothing after it: the next fetch is the word
    // past the code.
    let prog = [Inst::Lui { rd: Reg::X10, imm: -1 }];
    let mut spec = ProgramSpec::bare("t", CODE);
    assert_eq!(spec.exit, ExitModel::FallsOffEnd);
    let r = report(&prog, &spec);
    assert!(r.clean(), "falling off the end is the exit: {r}");
    assert_eq!(golden_trap_step(&prog, &spec, 100), None);

    spec.exit = ExitModel::HaltPc(meek_isa::HALT_PC);
    let r = report(&prog, &spec);
    assert!(r.violations.is_empty(), "a trapping program is not malformed: {r}");
    let t = r.guaranteed_trap.expect("the word after the code is unmapped");
    assert_eq!((t.step, t.index, t.target), (1, 0, CODE + 4));
    let words: Vec<u32> = prog.iter().map(encode).collect();
    assert_eq!(static_reject(&words, &spec), Some(t));

    // Something mapped at that word may decode: no claim.
    spec.mapped = vec![(CODE + 4, 4)];
    assert_eq!(report(&prog, &spec).guaranteed_trap, None);
}

#[test]
fn the_verdict_line_names_a_guaranteed_trap() {
    let prog = [Inst::Lui { rd: Reg::X10, imm: -1 }];
    let mut spec = ProgramSpec::bare("t", CODE);
    assert!(report(&prog, &spec).to_string().ends_with("  verdict: clean\n"));

    spec.exit = ExitModel::HaltPc(meek_isa::HALT_PC);
    let text = report(&prog, &spec).to_string();
    assert!(text.contains("  guaranteed trap: fetch at 0x1004 after 1 retired (from [0])\n"));
    assert!(text.ends_with("  verdict: guaranteed trap\n"), "{text}");

    let text = analyze_words(&[0u32], &ProgramSpec::bare("t", CODE)).to_string();
    assert!(text.contains("  verdict: 1 violation(s) and a guaranteed trap\n"), "{text}");
}

#[test]
fn mapped_spans_suppress_wild_jump_forecasts() {
    let prog = [
        Inst::Lui { rd: Reg::X5, imm: 0x400 },
        Inst::Jalr { rd: Reg::X0, rs1: Reg::X5, offset: 0 },
    ];
    let mut spec = ProgramSpec::bare("t", CODE);
    spec.mapped = vec![(0x40_0000, 0x1000)];
    assert_eq!(report(&prog, &spec).guaranteed_trap, None);
}

#[test]
fn straight_line_programs_get_an_exact_bound() {
    let prog = [addi(Reg::X1, Reg::X0, 1), addi(Reg::X2, Reg::X1, 2), addi(Reg::X3, Reg::X2, 3)];
    let r = report(&prog, &ProgramSpec::bare("t", CODE));
    assert!(r.clean(), "{r}");
    assert!(!r.has_loops);
    assert_eq!(r.straightline_bound, Some(3));
    assert_eq!(r.reachable, 3);
    assert_eq!(r.blocks, 1);
}

#[test]
fn back_edges_defeat_the_bound() {
    let prog = [
        addi(Reg::X1, Reg::X1, 1),
        Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: -4 },
    ];
    let r = report(&prog, &ProgramSpec::bare("t", CODE));
    assert!(r.has_loops);
    assert_eq!(r.straightline_bound, None);
}

#[test]
fn a_skipped_branch_arm_still_bounds_the_longest_path() {
    // Unknown condition: both arms traversed, bound = longest path.
    let prog = [
        Inst::MulDiv { op: meek_isa::inst::MulDivOp::Mul, rd: Reg::X1, rs1: Reg::X2, rs2: Reg::X3 },
        Inst::Branch { op: BranchOp::Bne, rs1: Reg::X1, rs2: Reg::X0, offset: 8 },
        addi(Reg::X4, Reg::X0, 1),
        addi(Reg::X5, Reg::X0, 2),
    ];
    let r = report(&prog, &ProgramSpec::bare("t", CODE));
    assert!(r.clean(), "{r}");
    assert_eq!(r.straightline_bound, Some(4));
    assert!(r.blocks >= 2);
}

#[test]
fn resolved_jalr_to_the_exit_is_clean() {
    // lui x5, 0x1 -> 0x1000; jalr 8(x5) == exit pc for a 2-inst program.
    let prog =
        [Inst::Lui { rd: Reg::X5, imm: 1 }, Inst::Jalr { rd: Reg::X0, rs1: Reg::X5, offset: 8 }];
    let r = report(&prog, &ProgramSpec::bare("t", CODE));
    assert!(r.clean(), "{r}");
    assert_eq!(r.resolved_jumps, 1);
    assert_eq!(r.indeterminate_jumps, 0);
    assert_eq!(r.straightline_bound, Some(2));
}

#[test]
fn the_fuzz_preamble_idiom_resolves_the_data_window() {
    // The generator's anchor preamble plus a masked repoint and store:
    // the access interval must resolve to exactly the window.
    let prog = [
        Inst::Lui { rd: Reg::X26, imm: 0x200 },
        Inst::Lui { rd: Reg::X27, imm: 1 },
        addi(Reg::X27, Reg::X27, -1),
        Inst::Alu { op: AluOp::And, rd: Reg::X30, rs1: Reg::X9, rs2: Reg::X27 },
        Inst::Alu { op: AluOp::Add, rd: Reg::X28, rs1: Reg::X26, rs2: Reg::X30 },
        sd(Reg::X28, Reg::X5, 0),
    ];
    let mut spec = ProgramSpec::bare("t", CODE);
    spec.window = Some(Window { base: 0x20_0000, size: 0x1000, slack: 0 });
    spec.strict_window = true;
    let r = report(&prog, &spec);
    assert!(r.clean(), "{r}");
    assert_eq!(r.resolved_accesses, 1);
    assert_eq!(r.unknown_accesses, 0);
    assert_eq!(r.anchor_writes, 3);
}

#[test]
fn a_guaranteed_exit_syscall_makes_trailing_padding_unreachable() {
    // Fused-image shape: exit stub, then a zero-padded gap.
    let words = vec![encode(&addi(Reg::X17, Reg::X0, 93)), encode(&Inst::Ecall), 0, 0];
    let mut spec = ProgramSpec::bare("t", CODE);
    spec.os_enabled = true;
    spec.contiguous = false;
    let r = analyze_words(&words, &spec);
    assert!(r.clean(), "{r}");
    assert_eq!(r.reachable, 2);

    // With the syscall number unknown, the fallthrough edge reaches the
    // padding and the bad word is a genuine (reachable) violation.
    let unknown = vec![encode(&Inst::Ecall), 0];
    let r = analyze_words(&unknown, &spec);
    assert_eq!(r.violations, vec![Violation::Undecodable { index: 1, word: 0 }]);
}

#[test]
fn analyzer_accepted_loop_free_programs_do_not_trap_the_golden_interpreter() {
    let spec = ProgramSpec::bare("t", CODE);
    let cases: Vec<Vec<Inst>> = vec![
        vec![
            addi(Reg::X1, Reg::X0, 7),
            Inst::Alu { op: AluOp::Add, rd: Reg::X2, rs1: Reg::X1, rs2: Reg::X1 },
        ],
        vec![
            Inst::Jal { rd: Reg::X1, offset: 8 },
            addi(Reg::X9, Reg::X0, 1),
            addi(Reg::X2, Reg::X0, 1),
        ],
        vec![
            Inst::Lui { rd: Reg::X5, imm: 1 },
            Inst::Jalr { rd: Reg::X0, rs1: Reg::X5, offset: 8 },
        ],
    ];
    for prog in &cases {
        let r = report(prog, &spec);
        assert!(r.clean(), "{r}");
        let bound = r.straightline_bound.expect("loop-free case");
        assert_eq!(golden_trap_step(prog, &spec, bound + 8), None, "{r}");
    }
}

#[test]
fn fragment_contract_rejections_are_typed() {
    use cfg::FragmentReject;
    assert_eq!(check_fragment(&[addi(Reg::X26, Reg::X0, 1)]), Err(FragmentReject::AnchorWrite(0)));
    assert_eq!(check_fragment(&[addi(Reg::X28, Reg::X0, 1)]), Err(FragmentReject::PointerWrite(0)));
    assert_eq!(
        check_fragment(&[Inst::Jal { rd: Reg::X0, offset: 8 }]),
        Err(FragmentReject::PcRelative(0))
    );
    assert_eq!(
        check_fragment(&[Inst::Branch {
            op: BranchOp::Beq,
            rs1: Reg::X0,
            rs2: Reg::X0,
            offset: 16
        }]),
        Err(FragmentReject::EscapingBranch(0))
    );
    assert_eq!(check_fragment(&[addi(Reg::X1, Reg::X0, 1), sd(Reg::X28, Reg::X1, 8)]), Ok(()));
}

#[test]
fn jump_targets_ok_matches_the_relink_invariant() {
    assert!(jump_targets_ok(&[Inst::Jal { rd: Reg::X0, offset: 4 }]));
    assert!(!jump_targets_ok(&[Inst::Jal { rd: Reg::X0, offset: 8 }]));
    assert!(!jump_targets_ok(&[Inst::Jal { rd: Reg::X0, offset: -4 }]));
}
