//! Concrete pre-screen: a bounded, exact walk that proves a trap.
//!
//! Unlike the abstract interpreter, this walk follows *one* path — the
//! concrete one — modelling only instructions whose result it can
//! reproduce bit-for-bit (it folds ALU ops with the executor's own
//! [`alu`] and [`alu_imm`]). The moment anything is uncertain (an
//! unknown branch operand, a store through an unknown pointer,
//! OS-surface traffic, a MEEK op) it gives up and returns `None`: "no
//! claim". The only positive answer is a [`TrapForecast`],
//! and a forecast is a *proof*: the golden interpreter, started from
//! the same spec, will raise `IllegalInstruction` after exactly the
//! forecast number of retirements. The fuzz engine leans on that
//! guarantee to reject doomed mutants without running them.
//!
//! Soundness subtleties handled here:
//! - stores are tracked as byte spans; a fetch overlapping any prior
//!   store gives up (the decoded text may be stale), and a wild-jump
//!   claim requires the target to be disjoint from the code span,
//!   every mapped data span, *and* every recorded store;
//! - a walk that runs past the step budget, or records too many
//!   stores to check cheaply, gives up rather than approximating.

use crate::{ExitModel, ProgramSpec, TrapForecast};
use meek_isa::exec::{alu, alu_imm};
use meek_isa::inst::{BranchOp, Inst};
use meek_isa::{Reg, CSR_OS_ENABLE};

/// Retirement budget before the walk gives up.
const BUDGET: u64 = 4096;
/// Recorded-store cap before the walk gives up (keeps the per-fetch
/// overlap check O(1) in practice).
const MAX_WRITES: usize = 64;

/// Walks the program concretely; `Some` is a proof of an
/// `IllegalInstruction` trap after `step` retirements (see module
/// docs), `None` claims nothing.
pub fn concrete_walk(decoded: &[Option<Inst>], spec: &ProgramSpec) -> Option<TrapForecast> {
    let n = decoded.len();
    let code_lo = spec.code_base;
    let code_hi = code_lo + 4 * n as u64;
    let exit_pc = match spec.exit {
        ExitModel::FallsOffEnd => code_hi,
        ExitModel::HaltPc(h) => h,
    };

    let mut regs: [Option<u64>; 32] = [None; 32];
    for (r, slot) in regs.iter_mut().enumerate() {
        *slot = Some(if r == 0 { 0 } else { spec.entry_regs[r] });
    }
    let mut writes: Vec<(u64, u64)> = Vec::new(); // inclusive byte spans
    let mut idx = 0usize;
    let mut step = 0u64;

    let get = |regs: &[Option<u64>; 32], r: Reg| -> Option<u64> {
        if r == Reg::X0 {
            Some(0)
        } else {
            regs[r.index() as usize]
        }
    };

    loop {
        if step >= BUDGET {
            return None;
        }
        if idx >= n {
            // The last instruction fell through to the word after the
            // code. Under `FallsOffEnd` that word is the exit.
            let trap = n > 0 && code_hi != exit_pc && unbacked(spec, code_hi, &writes, code_hi);
            return trap.then(|| TrapForecast { step, index: n - 1, target: code_hi });
        }
        let pc = code_lo + 4 * idx as u64;
        if overlaps(&writes, pc, pc + 3) {
            return None; // a store may have rewritten this word
        }
        let Some(inst) = decoded[idx] else {
            // The image word at this slot does not decode and no store
            // touched it: the fetch traps.
            return Some(TrapForecast { step, index: idx, target: pc });
        };

        // Resolve control flow; `jump` validates an absolute target.
        let jump = |step: u64, idx: usize, target: u64| -> Walk {
            if target == exit_pc {
                return Walk::GiveUp;
            }
            if (code_lo..code_hi).contains(&target) {
                return if (target - code_lo).is_multiple_of(4) {
                    Walk::Goto(((target - code_lo) / 4) as usize)
                } else {
                    Walk::GiveUp
                };
            }
            if unbacked(spec, code_hi, &writes, target) {
                Walk::Trap(TrapForecast { step, index: idx, target })
            } else {
                Walk::GiveUp
            }
        };

        let mut next = Walk::Goto(idx + 1);
        match inst {
            Inst::Lui { rd, imm } => {
                set(&mut regs, rd, Some(((imm as i64) << 12) as u64));
            }
            Inst::Auipc { rd, imm } => {
                set(&mut regs, rd, Some(pc.wrapping_add(((imm as i64) << 12) as u64)));
            }
            Inst::Jal { rd, offset } => {
                set(&mut regs, rd, Some(pc.wrapping_add(4)));
                next = jump(step + 1, idx, pc.wrapping_add(offset as i64 as u64));
            }
            Inst::Jalr { rd, rs1, offset } => {
                let base = get(&regs, rs1)?;
                set(&mut regs, rd, Some(pc.wrapping_add(4)));
                next = jump(step + 1, idx, base.wrapping_add(offset as i64 as u64) & !1);
            }
            Inst::Branch { op, rs1, rs2, offset } => {
                let (Some(a), Some(b)) = (get(&regs, rs1), get(&regs, rs2)) else {
                    return None;
                };
                let taken = match op {
                    BranchOp::Beq => a == b,
                    BranchOp::Bne => a != b,
                    BranchOp::Blt => (a as i64) < (b as i64),
                    BranchOp::Bge => (a as i64) >= (b as i64),
                    BranchOp::Bltu => a < b,
                    BranchOp::Bgeu => a >= b,
                };
                if taken {
                    next = jump(step + 1, idx, pc.wrapping_add(offset as i64 as u64));
                }
            }
            Inst::Load { rd, .. } => set(&mut regs, rd, None),
            Inst::Store { op, rs1, offset, .. } => {
                if !record(&mut writes, get(&regs, rs1), offset, op.size() as u64) {
                    return None;
                }
            }
            Inst::Fsd { rs1, offset, .. } => {
                if !record(&mut writes, get(&regs, rs1), offset, 8) {
                    return None;
                }
            }
            Inst::Fld { .. } => {}
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = get(&regs, rs1).map(|a| alu_imm(op, a, imm));
                set(&mut regs, rd, v);
            }
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = match (get(&regs, rs1), get(&regs, rs2)) {
                    (Some(a), Some(b)) => Some(alu(op, a, b)),
                    _ => None,
                };
                set(&mut regs, rd, v);
            }
            Inst::MulDiv { rd, .. }
            | Inst::FpCmp { rd, .. }
            | Inst::FcvtLD { rd, .. }
            | Inst::FmvXD { rd, .. } => set(&mut regs, rd, None),
            Inst::Csr { csr, rd, .. } => {
                if csr == CSR_OS_ENABLE {
                    return None; // OS surface may flip mid-walk
                }
                set(&mut regs, rd, None);
            }
            Inst::Ecall => {
                if spec.os_enabled {
                    return None; // syscall dispatch is out of scope
                }
            }
            Inst::Meek(_) => return None,
            Inst::Ebreak
            | Inst::Fence
            | Inst::Fp { .. }
            | Inst::FmaddD { .. }
            | Inst::FcvtDL { .. }
            | Inst::FmvDX { .. } => {}
        }

        step += 1;
        match next {
            Walk::Goto(i) => idx = i,
            Walk::GiveUp => return None,
            Walk::Trap(f) => return Some(f),
        }
    }
}

enum Walk {
    Goto(usize),
    GiveUp,
    Trap(TrapForecast),
}

fn set(regs: &mut [Option<u64>; 32], r: Reg, v: Option<u64>) {
    if r != Reg::X0 {
        regs[r.index() as usize] = v;
    }
}

/// Whether nothing can live at the word `target`: it misses the code
/// span (ending at `code_hi`), every mapped span and every recorded
/// store, so its fetch reads zeroes, which do not decode.
fn unbacked(spec: &ProgramSpec, code_hi: u64, writes: &[(u64, u64)], target: u64) -> bool {
    let Some(end) = target.checked_add(3) else { return false };
    let in_code = target < code_hi && end >= spec.code_base;
    let in_mapped = spec
        .mapped
        .iter()
        .any(|&(base, len)| base.checked_add(len).is_some_and(|e| target < e && end >= base));
    !in_code && !in_mapped && !overlaps(writes, target, end)
}

fn overlaps(writes: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    writes.iter().any(|&(wlo, whi)| lo <= whi && hi >= wlo)
}

/// Records a store's byte span; `false` means the walk must give up
/// (unknown address or too many spans to track).
fn record(writes: &mut Vec<(u64, u64)>, base: Option<u64>, offset: i32, size: u64) -> bool {
    let Some(base) = base else { return false };
    if writes.len() >= MAX_WRITES {
        return false;
    }
    let addr = base.wrapping_add(offset as i64 as u64) & !(size - 1);
    writes.push((addr, addr + size - 1));
    true
}
