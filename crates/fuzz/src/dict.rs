//! The splice dictionary: instruction fragments harvested from real
//! programs.
//!
//! The seed fuzzer's vocabulary is synthetic; the benchmark suite in
//! `meek-progs` carries the idioms real code is made of — tight
//! load/op/store loops, compare ladders, trap barrages, stack
//! shuffles. Harvesting short fragments from the assembled kernels
//! (and, during a run, from shrunk discovering programs) gives the
//! mutator a second donor pool with exactly those shapes, spliced in by
//! the [`DictSplice`](crate::mutate::MutationOp::DictSplice) operator.
//!
//! Every fragment is *sanitised* to the fuzzer's invariants before it
//! enters the dictionary:
//!
//! * no write to the anchor registers (`x26`/`x27`) or the data pointer
//!   (`x28`) — the window discipline survives any splice;
//! * memory traffic is rebased onto the data pointer with a bounded
//!   offset, so a kernel's `lbu a0, 0(t0)` becomes in-window traffic;
//! * no `jal`/`jalr`/`auipc` (their targets are meaningless outside the
//!   donor program) and no OS-surface CSR traffic;
//! * conditional branches are kept only when their target stays inside
//!   the fragment, so a fragment never manufactures a wild jump.
//!
//! Harvesting is deterministic: fragments are scanned in program order
//! at fixed window sizes and deduplicated by encoding, so the
//! dictionary — and everything downstream of it — is a pure function of
//! the harvested programs.

use meek_isa::inst::Inst;
use meek_isa::{decode, encode, R_PTR};
use std::collections::BTreeSet;

/// Window sizes the harvester scans, smallest first.
const WINDOWS: [usize; 3] = [3, 6, 12];

/// Fragments the dictionary keeps at most (first harvested wins — the
/// suite seeds the pool, run-time harvests extend it).
pub const DICT_CAP: usize = 768;

/// Bound on rebased memory offsets (matches the mix-shift vocabulary).
const MEM_OFFSET_BOUND: i32 = 256;

/// A deduplicated pool of sanitised instruction fragments.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    fragments: Vec<Vec<Inst>>,
    seen: BTreeSet<Vec<u32>>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// A dictionary seeded from every committed benchmark kernel.
    pub fn from_suite() -> Dictionary {
        let mut dict = Dictionary::new();
        for k in &meek_progs::KERNELS {
            let prog = meek_progs::suite::program(k);
            let insts: Vec<Inst> = prog.code.iter().filter_map(|&w| decode(w).ok()).collect();
            dict.harvest(&insts);
        }
        dict
    }

    /// The fragments, in harvest order.
    pub fn fragments(&self) -> &[Vec<Inst>] {
        &self.fragments
    }

    /// Fragment count.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether the dictionary has no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Harvests fragments from encoded words (undecodable words split
    /// the program into separately scanned spans). Returns how many new
    /// fragments entered the dictionary.
    pub fn harvest_words(&mut self, words: &[u32]) -> usize {
        let mut added = 0;
        let mut span: Vec<Inst> = Vec::new();
        for &w in words {
            match decode(w) {
                Ok(i) => span.push(i),
                Err(_) => {
                    added += self.harvest(&span);
                    span.clear();
                }
            }
        }
        added + self.harvest(&span)
    }

    /// Scans `insts` at every `WINDOWS` size and keeps each window
    /// that sanitises cleanly. Returns how many fragments were new.
    pub fn harvest(&mut self, insts: &[Inst]) -> usize {
        let mut added = 0;
        for &w in &WINDOWS {
            if insts.len() < w {
                continue;
            }
            for start in 0..=insts.len() - w {
                if self.fragments.len() >= DICT_CAP {
                    return added;
                }
                if let Some(frag) = sanitize_window(&insts[start..start + w]) {
                    let key: Vec<u32> = frag.iter().map(encode).collect();
                    if self.seen.insert(key) {
                        self.fragments.push(frag);
                        added += 1;
                    }
                }
            }
        }
        added
    }
}

/// Sanitises one candidate window into a fragment, or rejects it.
///
/// The per-instruction *transforms* live here (memory rebased onto the
/// data pointer with clamped offsets); the *rejection* predicate is the
/// analyzer's fragment contract ([`meek_analyze::check_fragment`]),
/// applied to the transformed window — anchor/pointer writes,
/// PC-relative instructions, OS-gate CSR traffic, escaping branches and
/// undecodable results all reject through the same typed check the
/// rest of the toolchain uses.
fn sanitize_window(window: &[Inst]) -> Option<Vec<Inst>> {
    let clamp = |off: i32| off.clamp(-MEM_OFFSET_BOUND, MEM_OFFSET_BOUND - 1);
    let out: Vec<Inst> = window
        .iter()
        .map(|inst| match *inst {
            Inst::Load { op, rd, offset, .. } => {
                Inst::Load { op, rd, rs1: R_PTR, offset: clamp(offset) }
            }
            Inst::Store { op, rs2, offset, .. } => {
                Inst::Store { op, rs1: R_PTR, rs2, offset: clamp(offset) }
            }
            Inst::Fld { rd, offset, .. } => Inst::Fld { rd, rs1: R_PTR, offset: clamp(offset) },
            Inst::Fsd { rs2, offset, .. } => Inst::Fsd { rs1: R_PTR, rs2, offset: clamp(offset) },
            other => other,
        })
        .collect();
    meek_analyze::check_fragment(&out).is_ok().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::self_contained;
    use meek_isa::inst::{AluImmOp, BranchOp, LoadOp, StoreOp};
    use meek_isa::{decodable, dest_reg, writes_anchor, Reg};

    #[test]
    fn the_suite_seeds_a_useful_dictionary() {
        let dict = Dictionary::from_suite();
        assert!(dict.len() > 50, "eight kernels must yield many fragments: {}", dict.len());
        assert!(dict.len() <= DICT_CAP);
        for frag in dict.fragments() {
            assert!(decodable(frag));
            assert!(self_contained(frag, 0, frag.len()), "fragment has a wild jump: {frag:?}");
            for inst in frag {
                assert!(!writes_anchor(inst), "anchor write harvested: {inst:?}");
                assert_ne!(dest_reg(inst), Some(R_PTR), "data-pointer write harvested: {inst:?}");
                if let Inst::Load { rs1, .. }
                | Inst::Store { rs1, .. }
                | Inst::Fld { rs1, .. }
                | Inst::Fsd { rs1, .. } = inst
                {
                    assert_eq!(*rs1, R_PTR, "memory not rebased: {inst:?}");
                }
            }
        }
        // The trap-heavy kernel's ecall/ebreak idioms must survive.
        assert!(
            dict.fragments().iter().any(|f| f.iter().any(|i| matches!(i, Inst::Ebreak))),
            "trap fragments missing"
        );
    }

    #[test]
    fn harvesting_is_deterministic_and_deduplicated() {
        let a = Dictionary::from_suite();
        let b = Dictionary::from_suite();
        assert_eq!(a.fragments(), b.fragments());
        let keys: BTreeSet<Vec<u32>> =
            a.fragments().iter().map(|f| f.iter().map(encode).collect()).collect();
        assert_eq!(keys.len(), a.len(), "fragments must be distinct");
        // Harvesting the same material again adds nothing.
        let mut c = a.clone();
        for k in &meek_progs::KERNELS {
            let prog = meek_progs::suite::program(k);
            assert_eq!(c.harvest_words(&prog.code), 0);
        }
    }

    #[test]
    fn sanitiser_enforces_the_invariants() {
        let nop = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 };
        // Anchor writes and escaping branches are rejected outright.
        let anchor = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X26, rs1: Reg::X0, imm: 1 };
        assert!(sanitize_window(&[nop, anchor, nop]).is_none());
        let escaping = Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: -16 };
        assert!(sanitize_window(&[nop, escaping, nop]).is_none());
        let ptr_write = Inst::AluImm { op: AluImmOp::Addi, rd: R_PTR, rs1: R_PTR, imm: 8 };
        assert!(sanitize_window(&[nop, ptr_write, nop]).is_none());
        // Memory is rebased and clamped; in-window branches survive.
        let wild_load = Inst::Load { op: LoadOp::Lw, rd: Reg::X5, rs1: Reg::X9, offset: 2000 };
        let inward = Inst::Branch { op: BranchOp::Bne, rs1: Reg::X5, rs2: Reg::X0, offset: 4 };
        let store = Inst::Store { op: StoreOp::Sd, rs1: Reg::X7, rs2: Reg::X5, offset: -4 };
        let frag = sanitize_window(&[wild_load, inward, store]).expect("sanitises");
        assert_eq!(frag[0], Inst::Load { op: LoadOp::Lw, rd: Reg::X5, rs1: R_PTR, offset: 255 });
        assert_eq!(frag[2], Inst::Store { op: StoreOp::Sd, rs1: R_PTR, rs2: Reg::X5, offset: -4 });
    }
}
