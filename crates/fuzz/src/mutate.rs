//! Mutation operators over fuzzed programs — the shrinker's relink
//! machinery run in reverse.
//!
//! `meek-difftest`'s [`splice_relinked`] replaces a range of a program
//! and relinks every PC-relative offset that crosses it; the minimiser
//! removes ranges with it, and this module inserts with it. On top of
//! it, plus point mutations, sit the operators the coverage-guided
//! engine schedules:
//!
//! * **splice** — copy a self-contained range from a donor corpus
//!   program into the subject, widening every crossing offset;
//! * **delete** — remove a range, shrinker-style;
//! * **mix shift** — replace one computational instruction with a
//!   freshly generated one (same register discipline as the fuzzer);
//! * **branch retarget** — move a conditional branch's forward target;
//! * **fault-plan mutation** — handled by the engine (the plan is a
//!   function of the mutated program's dynamic length).
//!
//! Every operator preserves two invariants the oracles rely on:
//!
//! * **decodability** — candidates round-trip `encode`/`decode`
//!   ([`decodable`] gates every emitted program), so a mutated word
//!   list is always a well-formed RV64 program;
//! * **the data-window discipline** — no operator removes, replaces,
//!   or inserts an instruction that writes the fuzzer's anchor
//!   registers (`x26`/`x27`, the data-window base and mask), so memory
//!   traffic stays inside the window and can never overwrite code
//!   (self-modifying code would diverge the replay way, whose fetch
//!   path models an incoherent I-cache). Non-termination and stray
//!   traps the relinking can still manufacture are rejected by the
//!   engine's bounded golden pre-screen, exactly like shrink
//!   candidates.

use meek_difftest::{jump_pair_at, jump_triplet_at, splice_relinked};
#[cfg(test)]
use meek_isa::inst::BranchOp;
use meek_isa::inst::{AluImmOp, AluOp, CsrOp, FpCmpOp, FpOp, Inst, LoadOp, MulDivOp, StoreOp};
use meek_isa::{decodable, writes_anchor, FReg, Reg, R_PTR};
use rand::rngs::SmallRng;
use rand::Rng;

/// Registers random replacement instructions may write — the seed
/// fuzzer's pool (structural registers excluded).
const POOL: [Reg; 16] = [
    Reg::X1,
    Reg::X2,
    Reg::X3,
    Reg::X4,
    Reg::X5,
    Reg::X6,
    Reg::X7,
    Reg::X8,
    Reg::X9,
    Reg::X10,
    Reg::X11,
    Reg::X12,
    Reg::X13,
    Reg::X14,
    Reg::X15,
    Reg::X31,
];

/// CSR addresses fuzzed CSR traffic targets (mirrors the seed fuzzer).
const CSRS: [u16; 4] = [0x340, 0x341, 0x342, 0xC00];

/// Whether `insts[start..end]` is *self-contained*: every control-flow
/// target stays inside the range (branches and `jal`s), and `jalr`s
/// appear only inside a complete in-range pair or triplet idiom
/// ([`jump_pair_at`], [`jump_triplet_at`]) — the donor ranges splice
/// may copy without manufacturing wild jumps.
pub fn self_contained(insts: &[Inst], start: usize, end: usize) -> bool {
    let range = &insts[start..end];
    // Whether the target `bytes` from range index `k` lies in the range
    // or just past its end.
    let lands =
        |k: usize, bytes: i32| (0..=range.len() as i64).contains(&(k as i64 + bytes as i64 / 4));
    range.iter().enumerate().all(|(k, inst)| match *inst {
        Inst::Branch { offset, .. } | Inst::Jal { offset, .. } => lands(k, offset),
        Inst::Jalr { offset, .. } if k > 0 && jump_pair_at(range, k - 1) => lands(k, offset),
        // A triplet's displacement anchors at its `auipc`; any other
        // `jalr` is an unanchored indirect jump with a wild target.
        Inst::Jalr { .. } => k
            .checked_sub(2)
            .and_then(|at| jump_triplet_at(range, at))
            .is_some_and(|delta| lands(k - 2, delta)),
        _ => true,
    })
}

/// One freshly generated computational instruction (never control
/// flow, never an anchor write) — the mix-shift replacement vocabulary,
/// mirroring the seed fuzzer's register discipline.
pub fn random_simple_inst(rng: &mut SmallRng) -> Inst {
    let reg = |rng: &mut SmallRng| POOL[rng.gen_range(0..POOL.len())];
    let freg = |rng: &mut SmallRng| FReg::new(rng.gen_range(0..8));
    match rng.gen_range(0..10) {
        0..=2 => {
            const OPS: [AluOp; 10] = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Sll,
                AluOp::Xor,
                AluOp::Srl,
                AluOp::Sra,
                AluOp::Or,
                AluOp::And,
                AluOp::Addw,
                AluOp::Subw,
            ];
            let op = OPS[rng.gen_range(0..OPS.len())];
            Inst::Alu { op, rd: reg(rng), rs1: reg(rng), rs2: reg(rng) }
        }
        3..=4 => {
            const OPS: [AluImmOp; 6] = [
                AluImmOp::Addi,
                AluImmOp::Xori,
                AluImmOp::Ori,
                AluImmOp::Andi,
                AluImmOp::Slti,
                AluImmOp::Addiw,
            ];
            let op = OPS[rng.gen_range(0..OPS.len())];
            Inst::AluImm { op, rd: reg(rng), rs1: reg(rng), imm: rng.gen_range(-2048..2048) }
        }
        5 => {
            const OPS: [MulDivOp; 6] = [
                MulDivOp::Mul,
                MulDivOp::Mulh,
                MulDivOp::Div,
                MulDivOp::Rem,
                MulDivOp::Mulw,
                MulDivOp::Remu,
            ];
            let op = OPS[rng.gen_range(0..OPS.len())];
            Inst::MulDiv { op, rd: reg(rng), rs1: reg(rng), rs2: reg(rng) }
        }
        6 => {
            // Memory through the data pointer only: the window
            // discipline that keeps stores away from code.
            let offset = rng.gen_range(-256..256);
            match rng.gen_range(0..6) {
                0 => Inst::Load { op: LoadOp::Lb, rd: reg(rng), rs1: R_PTR, offset },
                1 => Inst::Load { op: LoadOp::Lw, rd: reg(rng), rs1: R_PTR, offset },
                2 => Inst::Load { op: LoadOp::Ld, rd: reg(rng), rs1: R_PTR, offset },
                3 => Inst::Store { op: StoreOp::Sb, rs1: R_PTR, rs2: reg(rng), offset },
                4 => Inst::Store { op: StoreOp::Sh, rs1: R_PTR, rs2: reg(rng), offset },
                _ => Inst::Store { op: StoreOp::Sd, rs1: R_PTR, rs2: reg(rng), offset },
            }
        }
        7 => {
            const OPS: [CsrOp; 6] =
                [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc, CsrOp::Rwi, CsrOp::Rsi, CsrOp::Rci];
            let op = OPS[rng.gen_range(0..OPS.len())];
            let csr = CSRS[rng.gen_range(0..CSRS.len())];
            Inst::Csr { op, rd: reg(rng), rs1: reg(rng), csr }
        }
        8 => {
            const OPS: [FpOp; 6] =
                [FpOp::FaddD, FpOp::FsubD, FpOp::FmulD, FpOp::FsgnjD, FpOp::FminD, FpOp::FmaxD];
            let op = OPS[rng.gen_range(0..OPS.len())];
            Inst::Fp { op, rd: freg(rng), rs1: freg(rng), rs2: freg(rng) }
        }
        _ => {
            const OPS: [FpCmpOp; 3] = [FpCmpOp::FeqD, FpCmpOp::FltD, FpCmpOp::FleD];
            let op = OPS[rng.gen_range(0..OPS.len())];
            Inst::FpCmp { op, rd: reg(rng), rs1: freg(rng), rs2: freg(rng) }
        }
    }
}

/// The mutation operators the engine schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Copy a self-contained donor range into the subject.
    Splice,
    /// Remove a range (relinked).
    Delete,
    /// Replace one computational instruction with a fresh one.
    MixShift,
    /// Move a conditional branch's forward target.
    BranchRetarget,
    /// Insert a dictionary fragment (real-program idioms harvested from
    /// the benchmark suite and shrunk discoverers).
    DictSplice,
}

impl MutationOp {
    /// Stable lower-snake name — the report and metrics vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::Splice => "splice",
            MutationOp::Delete => "delete",
            MutationOp::MixShift => "mix_shift",
            MutationOp::BranchRetarget => "branch_retarget",
            MutationOp::DictSplice => "dict_splice",
        }
    }
}

/// Every operator, in schedule order.
pub const OPS: [MutationOp; 5] = [
    MutationOp::Splice,
    MutationOp::Delete,
    MutationOp::MixShift,
    MutationOp::BranchRetarget,
    MutationOp::DictSplice,
];

/// Longest candidate the engine will evaluate (keeps branch offsets
/// inside their encodings and evaluation cost bounded).
pub const MAX_LEN: usize = 1024;

/// Applies `op` to `subject` (donor feeds splice, `dict` feeds
/// dictionary splice), driven by `rng`. Returns `None` when the
/// operator cannot apply (no eligible site) or the result violates an
/// invariant — the engine then falls back to a fresh program. A `Some`
/// result is guaranteed decodable, anchor-safe and at most [`MAX_LEN`]
/// long.
pub fn mutate(
    subject: &[Inst],
    donor: &[Inst],
    dict: &[Vec<Inst>],
    op: MutationOp,
    rng: &mut SmallRng,
) -> Option<Vec<Inst>> {
    if subject.is_empty() {
        return None;
    }
    let out = match op {
        MutationOp::Splice => {
            if donor.is_empty() {
                return None;
            }
            // Pick a short donor range and retry a few times for a
            // self-contained, anchor-free one.
            let mut range = None;
            for _ in 0..8 {
                let len = rng.gen_range(1..=12.min(donor.len()));
                let start = rng.gen_range(0..=donor.len() - len);
                let (s, e) = (start, start + len);
                if self_contained(donor, s, e) && !donor[s..e].iter().any(writes_anchor) {
                    range = Some((s, e));
                    break;
                }
            }
            let (s, e) = range?;
            let at = rng.gen_range(0..=subject.len());
            splice_relinked(subject, at, at, &donor[s..e])
        }
        MutationOp::Delete => {
            let len = rng.gen_range(1..=8.min(subject.len()));
            let start = rng.gen_range(0..=subject.len() - len);
            if subject[start..start + len].iter().any(writes_anchor) {
                return None;
            }
            splice_relinked(subject, start, start + len, &[])
        }
        MutationOp::MixShift => {
            // Replace a computational instruction in place: positions
            // that are control flow, anchors, or idiom middles are
            // skipped (a few retries, then give up).
            let mut out = subject.to_vec();
            let mut done = false;
            for _ in 0..8 {
                let i = rng.gen_range(0..out.len());
                let replaceable = !matches!(
                    out[i],
                    Inst::Branch { .. }
                        | Inst::Jal { .. }
                        | Inst::Jalr { .. }
                        | Inst::Auipc { .. }
                        | Inst::Ecall
                        | Inst::Ebreak
                ) && !writes_anchor(&out[i]);
                // Never rewrite the addi of an auipc/addi/jalr triplet.
                let triplet_mid = i > 0
                    && i + 1 < out.len()
                    && matches!(out[i - 1], Inst::Auipc { .. })
                    && matches!(out[i + 1], Inst::Jalr { .. });
                if replaceable && !triplet_mid {
                    out[i] = random_simple_inst(rng);
                    done = true;
                    break;
                }
            }
            if !done {
                return None;
            }
            out
        }
        MutationOp::BranchRetarget => {
            let mut out = subject.to_vec();
            let branches: Vec<usize> = out
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, Inst::Branch { .. }))
                .map(|(i, _)| i)
                .collect();
            if branches.is_empty() {
                return None;
            }
            let i = branches[rng.gen_range(0..branches.len())];
            let room = out.len() - i - 1;
            if room == 0 {
                return None;
            }
            // A new forward target 1..=8 instructions ahead (staying in
            // the program): forward-only, so no new loop appears.
            let k = rng.gen_range(1..=room.min(8)) as i32;
            if let Inst::Branch { offset, .. } = &mut out[i] {
                *offset = 4 * (k + 1);
            }
            out
        }
        MutationOp::DictSplice => {
            if dict.is_empty() {
                return None;
            }
            // Dictionary fragments are sanitised at harvest time
            // (self-contained, anchor-free, in-window memory), so any
            // fragment inserts anywhere.
            let frag = &dict[rng.gen_range(0..dict.len())];
            let at = rng.gen_range(0..=subject.len());
            splice_relinked(subject, at, at, frag)
        }
    };
    if out.len() > MAX_LEN || out.is_empty() || !decodable(&out) {
        return None;
    }
    // Post-condition: every emitted mutant satisfies the static program
    // contract — the analyzer may forecast a legitimate trap (orphaned
    // indirect jumps happen), but never a contract violation.
    debug_assert!(
        {
            let report = meek_analyze::analyze_insts(&out, &meek_difftest::FuzzProgram::spec());
            report.violations.is_empty()
        },
        "{op:?} produced a contract-violating mutant: {}",
        meek_analyze::analyze_insts(&out, &meek_difftest::FuzzProgram::spec()),
    );
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_difftest::{fuzz_program, FuzzConfig};
    use rand::SeedableRng;

    fn nop() -> Inst {
        Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 }
    }

    #[test]
    fn insert_relinks_crossing_offsets() {
        // 0: beq +12 (-> 3)   1: nop   2: nop   3: jal -8 (-> 1)
        let prog = vec![
            Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 12 },
            nop(),
            nop(),
            Inst::Jal { rd: Reg::X0, offset: -8 },
        ];
        let payload = [random_simple_inst(&mut SmallRng::seed_from_u64(1))];
        // Insert at 2: the branch (0 -> 3) crosses, the jal (3 -> 1) crosses.
        let out = splice_relinked(&prog, 2, 2, &payload);
        assert_eq!(out.len(), 5);
        assert_eq!(
            out[0],
            Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 16 }
        );
        assert_eq!(out[4], Inst::Jal { rd: Reg::X0, offset: -12 });
        // Insert before everything: both endpoints shift, offsets keep.
        let out = splice_relinked(&prog, 0, 0, &payload);
        assert_eq!(out[1], prog[0]);
        assert_eq!(out[4], prog[3]);
        // Insert past the end: nothing crosses.
        let out = splice_relinked(&prog, 4, 4, &payload);
        assert_eq!(&out[..4], &prog[..]);
    }

    #[test]
    fn insert_relinks_pair_and_triplet_idioms() {
        // 0: jal x1,+4  1: jalr x2,x1,+12 (-> 4)  2: nop  3: nop  4: nop
        let pair = vec![
            Inst::Jal { rd: Reg::X1, offset: 4 },
            Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 12 },
            nop(),
            nop(),
            nop(),
        ];
        let payload = [nop(), nop()];
        let out = splice_relinked(&pair, 3, 3, &payload);
        assert_eq!(out[1], Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 20 });
        // Inserting *between* the pair breaks the anchor: offset kept.
        let out = splice_relinked(&pair, 1, 1, &payload);
        assert_eq!(out[3], Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 12 });

        // 0: auipc x1  1: addi x1,x1,20 (-> 5)  2: jalr x2,x1  3..5: nop
        let tri = vec![
            Inst::Auipc { rd: Reg::X1, imm: 0 },
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X1, imm: 20 },
            Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 0 },
            nop(),
            nop(),
            nop(),
        ];
        let out = splice_relinked(&tri, 4, 4, &payload);
        assert_eq!(out[1], Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X1, imm: 28 });
    }

    #[test]
    fn self_containment_classifies_ranges() {
        let prog = vec![
            nop(),
            Inst::Branch { op: BranchOp::Bne, rs1: Reg::X1, rs2: Reg::X0, offset: 8 },
            nop(),
            nop(),
            Inst::Jalr { rd: Reg::X2, rs1: Reg::X5, offset: 0 },
            nop(),
        ];
        assert!(self_contained(&prog, 1, 4), "branch targets inside the range");
        assert!(!self_contained(&prog, 1, 2), "branch escapes a 1-wide range");
        assert!(!self_contained(&prog, 3, 5), "unanchored jalr is wild");
        let tri = vec![
            Inst::Auipc { rd: Reg::X1, imm: 0 },
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X1, imm: 12 },
            Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 0 },
            nop(),
        ];
        assert!(self_contained(&tri, 0, 4), "complete triplet targeting in-range");
        assert!(!self_contained(&tri, 1, 4), "beheaded triplet is wild");
    }

    #[test]
    fn every_operator_preserves_decodability_and_anchors() {
        let mut rng = SmallRng::seed_from_u64(0xA1B2);
        let mut produced = [0usize; OPS.len()];
        let dict = crate::dict::Dictionary::from_suite();
        for seed in 0..8u64 {
            let subject = fuzz_program(seed, &FuzzConfig { static_len: 120 }).insts();
            let donor = fuzz_program(seed ^ 0xFF, &FuzzConfig { static_len: 120 }).insts();
            let anchors_before = subject.iter().filter(|i| writes_anchor(i)).count();
            for (k, &op) in OPS.iter().enumerate() {
                for _ in 0..16 {
                    if let Some(out) = mutate(&subject, &donor, dict.fragments(), op, &mut rng) {
                        produced[k] += 1;
                        assert!(decodable(&out), "{op:?} broke decodability (seed {seed})");
                        assert!(out.len() <= MAX_LEN);
                        assert_eq!(
                            out.iter().filter(|i| writes_anchor(i)).count(),
                            anchors_before,
                            "{op:?} touched an anchor register write (seed {seed})"
                        );
                    }
                }
            }
        }
        for (k, &op) in OPS.iter().enumerate() {
            assert!(produced[k] > 0, "{op:?} never produced a candidate");
        }
    }

    #[test]
    fn random_simple_insts_are_safe_vocabulary() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..500 {
            let i = random_simple_inst(&mut rng);
            assert!(decodable(&[i]));
            assert!(!writes_anchor(&i));
            assert!(!matches!(
                i,
                Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Auipc { .. }
            ));
            if let Inst::Load { rs1, .. } | Inst::Store { rs1, .. } = i {
                assert_eq!(rs1, R_PTR, "memory goes through the data pointer");
            }
        }
    }
}
