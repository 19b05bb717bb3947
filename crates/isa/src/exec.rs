//! Functional execution: one architectural step per call, producing a
//! [`Retired`] record — the dynamic-instruction stream that both timing
//! models (big core, little core) consume.

use crate::decode::{decode, DecodeError};
use crate::inst::{
    AluImmOp, AluOp, BranchOp, CsrOp, ExecClass, FpCmpOp, FpOp, Inst, LoadOp, MulDivOp,
};
use crate::meek::MeekOp;
use crate::mem::Bus;
use crate::os::{Syscall, CSR_INSTRET, CSR_OS_ENABLE, HALT_PC, SYS_EXIT, SYS_PUTCHAR};
use crate::reg::{FReg, Reg};
use crate::state::ArchState;
use std::fmt;

/// An architectural trap raised by [`step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// The fetched word did not decode.
    IllegalInstruction {
        /// PC of the offending fetch.
        pc: u64,
        /// The word that failed to decode.
        word: u32,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Trap::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#x}")
            }
        }
    }
}

impl std::error::Error for Trap {}

impl From<(u64, DecodeError)> for Trap {
    fn from((pc, e): (u64, DecodeError)) -> Trap {
        Trap::IllegalInstruction { pc, word: e.word }
    }
}

/// A data-memory access performed by a retired instruction.
///
/// For loads, `data` is the value written to the destination register
/// (after sign/zero extension) — exactly what the LSL must supply during
/// replay. For stores, `data` is the stored value masked to `size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective (alignment-masked) address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Load result or store payload.
    pub data: u64,
    /// `true` for stores.
    pub is_store: bool,
}

/// Control-flow outcome of a retired branch or jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch was taken (always `true` for jumps).
    pub taken: bool,
    /// The target if taken.
    pub target: u64,
    /// `true` for conditional branches, `false` for JAL/JALR/l.jal.
    pub is_conditional: bool,
    /// `true` when the target comes from a register (JALR), making the
    /// target itself predictable only via the RAS/BTB.
    pub is_indirect: bool,
}

/// Destination of a register writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbDest {
    /// An integer register.
    Int(Reg),
    /// A floating-point register.
    Fp(FReg),
}

/// The record of one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// PC of the instruction.
    pub pc: u64,
    /// Raw machine word.
    pub raw: u32,
    /// Decoded form.
    pub inst: Inst,
    /// Execution class (cached from `inst.class()`).
    pub class: ExecClass,
    /// Architectural next PC.
    pub next_pc: u64,
    /// Branch outcome, if this is a control-flow instruction.
    pub branch: Option<BranchInfo>,
    /// Memory access, if this is a load or store.
    pub mem: Option<MemAccess>,
    /// CSR read value, if this is a CSR instruction — a "non-repeatable"
    /// result that the DEU must forward for replay (paper §II footnote).
    pub csr_read: Option<(u16, u64)>,
    /// CSR write side-effect `(addr, new value)`, if this is a CSR
    /// instruction. Replay drops CSR writes by design, but the recovery
    /// subsystem's commit-order shadow must track them so a rollback
    /// restores the full architectural state, CSRs included.
    pub csr_write: Option<(u16, u64)>,
    /// `true` for ECALL/EBREAK: enters the kernel, which forces an RCP
    /// (segment boundary) in MEEK.
    pub is_kernel_trap: bool,
    /// The OS-surface syscall performed, if this is an `ecall` and the
    /// surface is enabled (see [`crate::os`]). Syscalls never touch
    /// memory or clobber registers, so replay needs no extra records.
    pub syscall: Option<Syscall>,
    /// Register writeback performed (value read back after execution) —
    /// used by the DEU's commit-order shadow state.
    pub wb: Option<(WbDest, u64)>,
}

fn sext(v: u64, bits: u32) -> u64 {
    ((v << (64 - bits)) as i64 >> (64 - bits)) as u64
}

/// Executes one instruction at `st.pc`, updating `st` and `mem`.
///
/// # Errors
///
/// Returns [`Trap::IllegalInstruction`] if the fetched word does not
/// decode. All implemented instructions execute without trapping (the
/// executor masks memory addresses to natural alignment; the workload
/// generator only emits aligned accesses).
pub fn step<B: Bus>(st: &mut ArchState, mem: &mut B) -> Result<Retired, Trap> {
    let pc = st.pc;
    let raw = mem.fetch(pc);
    let inst = decode(raw).map_err(|e| Trap::from((pc, e)))?;
    Ok(execute(st, mem, pc, raw, inst))
}

/// Executes an already-decoded instruction (used by [`step`] and by the
/// little-core model, which decodes through its own Mini-Decoder).
pub fn execute<B: Bus>(st: &mut ArchState, mem: &mut B, pc: u64, raw: u32, inst: Inst) -> Retired {
    let mut next_pc = pc.wrapping_add(4);
    let mut branch = None;
    let mut mem_access = None;
    let mut csr_read = None;
    let mut csr_write = None;
    let mut is_kernel_trap = false;
    let mut syscall = None;

    match inst {
        Inst::Lui { rd, imm } => st.set_x(rd, ((imm as i64) << 12) as u64),
        Inst::Auipc { rd, imm } => st.set_x(rd, pc.wrapping_add(((imm as i64) << 12) as u64)),
        Inst::Jal { rd, offset } => {
            let target = pc.wrapping_add(offset as i64 as u64);
            st.set_x(rd, pc.wrapping_add(4));
            next_pc = target;
            branch =
                Some(BranchInfo { taken: true, target, is_conditional: false, is_indirect: false });
        }
        Inst::Jalr { rd, rs1, offset } => {
            let target = st.x(rs1).wrapping_add(offset as i64 as u64) & !1;
            st.set_x(rd, pc.wrapping_add(4));
            next_pc = target;
            branch =
                Some(BranchInfo { taken: true, target, is_conditional: false, is_indirect: true });
        }
        Inst::Branch { op, rs1, rs2, offset } => {
            let (a, b) = (st.x(rs1), st.x(rs2));
            let taken = match op {
                BranchOp::Beq => a == b,
                BranchOp::Bne => a != b,
                BranchOp::Blt => (a as i64) < (b as i64),
                BranchOp::Bge => (a as i64) >= (b as i64),
                BranchOp::Bltu => a < b,
                BranchOp::Bgeu => a >= b,
            };
            let target = pc.wrapping_add(offset as i64 as u64);
            if taken {
                next_pc = target;
            }
            branch = Some(BranchInfo { taken, target, is_conditional: true, is_indirect: false });
        }
        Inst::Load { op, rd, rs1, offset } => {
            let size = op.size();
            let addr = st.x(rs1).wrapping_add(offset as i64 as u64) & !(size as u64 - 1);
            let v = mem.read(addr, size);
            let v = match op {
                LoadOp::Lb => sext(v, 8),
                LoadOp::Lh => sext(v, 16),
                LoadOp::Lw => sext(v, 32),
                LoadOp::Ld | LoadOp::Lbu | LoadOp::Lhu | LoadOp::Lwu => v,
            };
            st.set_x(rd, v);
            mem_access = Some(MemAccess { addr, size, data: v, is_store: false });
        }
        Inst::Store { op, rs1, rs2, offset } => {
            let size = op.size();
            let addr = st.x(rs1).wrapping_add(offset as i64 as u64) & !(size as u64 - 1);
            let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
            let data = st.x(rs2) & mask;
            mem.write(addr, size, data);
            mem_access = Some(MemAccess { addr, size, data, is_store: true });
        }
        Inst::AluImm { op, rd, rs1, imm } => st.set_x(rd, alu_imm(op, st.x(rs1), imm)),
        Inst::Alu { op, rd, rs1, rs2 } => st.set_x(rd, alu(op, st.x(rs1), st.x(rs2))),
        Inst::MulDiv { op, rd, rs1, rs2 } => {
            let (a, b) = (st.x(rs1), st.x(rs2));
            let v = muldiv(op, a, b);
            st.set_x(rd, v);
        }
        Inst::Fld { rd, rs1, offset } => {
            let addr = st.x(rs1).wrapping_add(offset as i64 as u64) & !7;
            let v = mem.read(addr, 8);
            st.set_f(rd, v);
            mem_access = Some(MemAccess { addr, size: 8, data: v, is_store: false });
        }
        Inst::Fsd { rs1, rs2, offset } => {
            let addr = st.x(rs1).wrapping_add(offset as i64 as u64) & !7;
            let data = st.f(rs2);
            mem.write(addr, 8, data);
            mem_access = Some(MemAccess { addr, size: 8, data, is_store: true });
        }
        Inst::Fp { op, rd, rs1, rs2 } => {
            let (a, b) = (f64::from_bits(st.f(rs1)), f64::from_bits(st.f(rs2)));
            let v = match op {
                FpOp::FaddD => a + b,
                FpOp::FsubD => a - b,
                FpOp::FmulD => a * b,
                FpOp::FdivD => a / b,
                FpOp::FsqrtD => a.sqrt(),
                FpOp::FsgnjD => a.copysign(b),
                FpOp::FminD => a.min(b),
                FpOp::FmaxD => a.max(b),
            };
            st.set_f(rd, v.to_bits());
        }
        Inst::FpCmp { op, rd, rs1, rs2 } => {
            let (a, b) = (f64::from_bits(st.f(rs1)), f64::from_bits(st.f(rs2)));
            let v = match op {
                FpCmpOp::FeqD => (a == b) as u64,
                FpCmpOp::FltD => (a < b) as u64,
                FpCmpOp::FleD => (a <= b) as u64,
            };
            st.set_x(rd, v);
        }
        Inst::FmaddD { rd, rs1, rs2, rs3 } => {
            let (a, b, c) =
                (f64::from_bits(st.f(rs1)), f64::from_bits(st.f(rs2)), f64::from_bits(st.f(rs3)));
            st.set_f(rd, a.mul_add(b, c).to_bits());
        }
        Inst::FcvtDL { rd, rs1 } => st.set_f(rd, (st.x(rs1) as i64 as f64).to_bits()),
        Inst::FcvtLD { rd, rs1 } => {
            let v = f64::from_bits(st.f(rs1));
            // RISC-V FCVT.L.D saturating semantics (NaN -> i64::MAX).
            let out = if v.is_nan() || v >= i64::MAX as f64 {
                i64::MAX
            } else if v <= i64::MIN as f64 {
                i64::MIN
            } else {
                v as i64
            };
            st.set_x(rd, out as u64);
        }
        Inst::FmvXD { rd, rs1 } => st.set_x(rd, st.f(rs1)),
        Inst::FmvDX { rd, rs1 } => st.set_f(rd, st.x(rs1)),
        Inst::Csr { op, rd, rs1, csr } if csr == CSR_INSTRET && st.csr(CSR_OS_ENABLE) != 0 => {
            // With the OS surface enabled, 0xC02 is the retired-
            // instruction counter: reads return the count, writes are
            // dropped. The read value is forwarded for replay like any
            // other non-repeatable CSR result; there is no write
            // side-effect for the recovery shadow to track (the counter
            // is rewound by the rollback itself).
            let old = st.instret();
            let _ = (op, rs1);
            st.set_x(rd, old);
            csr_read = Some((csr, old));
        }
        Inst::Csr { op, rd, rs1, csr } => {
            let old = st.csr(csr);
            // Immediate forms use the rs1 field as a 5-bit zimm.
            let operand = if op.is_imm() { rs1.index() as u64 } else { st.x(rs1) };
            let new = match op {
                CsrOp::Rw | CsrOp::Rwi => operand,
                CsrOp::Rs | CsrOp::Rsi => old | operand,
                CsrOp::Rc | CsrOp::Rci => old & !operand,
            };
            st.set_csr(csr, new);
            st.set_x(rd, old);
            csr_read = Some((csr, old));
            csr_write = Some((csr, new));
        }
        Inst::Fence => {}
        Inst::Ecall => {
            is_kernel_trap = true;
            if st.csr(CSR_OS_ENABLE) != 0 {
                match st.x(Reg::X17) {
                    SYS_EXIT => {
                        syscall = Some(Syscall::Exit { code: st.x(Reg::X10) });
                        next_pc = HALT_PC;
                        branch = Some(BranchInfo {
                            taken: true,
                            target: HALT_PC,
                            is_conditional: false,
                            is_indirect: true,
                        });
                    }
                    SYS_PUTCHAR => {
                        syscall = Some(Syscall::Putchar { byte: st.x(Reg::X10) as u8 });
                    }
                    // Unknown syscall numbers are no-ops (still kernel
                    // traps, so they still force an RCP boundary).
                    _ => {}
                }
            }
        }
        Inst::Ebreak => is_kernel_trap = true,
        Inst::Meek(op) => match op {
            // Functional semantics of the MEEK ops are system-level; the
            // MSU (little core) and OS model give them real behaviour.
            // Standalone functional execution treats them as register
            // no-ops so programs containing them remain executable.
            MeekOp::LJal { rs1 } => {
                let target = st.x(rs1) & !1;
                next_pc = target;
                branch = Some(BranchInfo {
                    taken: true,
                    target,
                    is_conditional: false,
                    is_indirect: true,
                });
            }
            MeekOp::LRslt { rd } => st.set_x(rd, 1),
            _ => {}
        },
    }

    st.pc = next_pc;
    st.bump_instret();
    let wb = if let Some(rd) = inst.int_dest() {
        Some((WbDest::Int(rd), st.x(rd)))
    } else {
        inst.fp_dest().map(|rd| (WbDest::Fp(rd), st.f(rd)))
    };
    Retired {
        pc,
        raw,
        inst,
        class: inst.class(),
        next_pc,
        branch,
        mem: mem_access,
        csr_read,
        csr_write,
        is_kernel_trap,
        syscall,
        wb,
    }
}

/// The `AluImm` result for `op` on operand `a`: the one statement of
/// the OP-IMM rules, shared by [`execute`] and the static analyzer.
#[inline]
pub fn alu_imm(op: AluImmOp, a: u64, imm: i32) -> u64 {
    let i = imm as i64 as u64;
    match op {
        AluImmOp::Addi => a.wrapping_add(i),
        AluImmOp::Slti => ((a as i64) < (i as i64)) as u64,
        AluImmOp::Sltiu => (a < i) as u64,
        AluImmOp::Xori => a ^ i,
        AluImmOp::Ori => a | i,
        AluImmOp::Andi => a & i,
        AluImmOp::Slli => a << (imm & 0x3F),
        AluImmOp::Srli => a >> (imm & 0x3F),
        AluImmOp::Srai => ((a as i64) >> (imm & 0x3F)) as u64,
        AluImmOp::Addiw => sext(a.wrapping_add(i) & 0xFFFF_FFFF, 32),
        AluImmOp::Slliw => sext((a as u32 as u64) << (imm & 0x1F) & 0xFFFF_FFFF, 32),
        AluImmOp::Srliw => sext((a as u32 >> (imm & 0x1F)) as u64, 32),
        AluImmOp::Sraiw => ((a as i32) >> (imm & 0x1F)) as i64 as u64,
    }
}

/// The `Alu` result for `op` on operands `a` and `b`: the one statement
/// of the OP rules, shared by [`execute`] and the static analyzer.
#[inline]
pub fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 0x3F),
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 0x3F),
        AluOp::Sra => ((a as i64) >> (b & 0x3F)) as u64,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Addw => sext(a.wrapping_add(b) & 0xFFFF_FFFF, 32),
        AluOp::Subw => sext(a.wrapping_sub(b) & 0xFFFF_FFFF, 32),
        AluOp::Sllw => sext(((a as u32) << (b & 0x1F)) as u64, 32),
        AluOp::Srlw => sext((a as u32 >> (b & 0x1F)) as u64, 32),
        AluOp::Sraw => ((a as i32) >> (b & 0x1F)) as i64 as u64,
    }
}

fn muldiv(op: MulDivOp, a: u64, b: u64) -> u64 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
        MulDivOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
        MulDivOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
        MulDivOp::Div => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                u64::MAX
            } else if a == i64::MIN && b == -1 {
                a as u64
            } else {
                (a / b) as u64
            }
        }
        MulDivOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        MulDivOp::Rem => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                a as u64
            } else if a == i64::MIN && b == -1 {
                0
            } else {
                (a % b) as u64
            }
        }
        MulDivOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        MulDivOp::Mulw => sext((a as u32).wrapping_mul(b as u32) as u64, 32),
        MulDivOp::Divw => {
            let (a, b) = (a as i32, b as i32);
            let v = if b == 0 {
                -1
            } else if a == i32::MIN && b == -1 {
                a
            } else {
                a / b
            };
            v as i64 as u64
        }
        MulDivOp::Divuw => {
            let (a, b) = (a as u32, b as u32);
            sext(a.checked_div(b).unwrap_or(u32::MAX) as u64, 32)
        }
        MulDivOp::Remw => {
            let (a, b) = (a as i32, b as i32);
            let v = if b == 0 {
                a
            } else if a == i32::MIN && b == -1 {
                0
            } else {
                a % b
            };
            v as i64 as u64
        }
        MulDivOp::Remuw => {
            let (a, b) = (a as u32, b as u32);
            let v = if b == 0 { a } else { a % b };
            sext(v as u64, 32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::StoreOp;
    use crate::mem::SparseMemory;
    use crate::os::{Syscall, CSR_INSTRET, CSR_OS_ENABLE, HALT_PC, SYS_EXIT, SYS_PUTCHAR};

    fn run(prog: &[Inst]) -> (ArchState, SparseMemory) {
        let mut mem = SparseMemory::new();
        let words: Vec<u32> = prog.iter().map(encode).collect();
        mem.load_program(0x1000, &words);
        let mut st = ArchState::new(0x1000);
        for _ in 0..prog.len() {
            step(&mut st, &mut mem).expect("no trap");
        }
        (st, mem)
    }

    /// Differential check of [`alu_imm`] and [`alu`], the rules the
    /// static analyzer folds constants with, against the executor over a
    /// grid of operand values. Each op runs as an encoded word through
    /// [`step`], so the encoder's and decoder's immediate and shift-amount
    /// fields are held to the same rules.
    #[test]
    fn scalar_semantics_match_the_executor() {
        const OPERANDS: [u64; 8] = [
            0,
            1,
            0xFFF,
            0x8000_0000,
            0xFFFF_FFFF,
            0x7FFF_FFFF_FFFF_FFFF,
            u64::MAX,
            0x1234_5678_9ABC_DEF0,
        ];
        const IMMS: [i32; 6] = [0, 1, -1, 2047, -2048, 63];
        let exec = |inst: Inst, a: u64, b: u64| {
            let mut mem = SparseMemory::new();
            mem.load_program(0x1000, &[encode(&inst)]);
            let mut st = ArchState::new(0x1000);
            st.set_x(Reg::X6, a);
            st.set_x(Reg::X7, b);
            step(&mut st, &mut mem).expect("no trap");
            st.x(Reg::X5)
        };
        for &a in &OPERANDS {
            for &imm in &IMMS {
                for &op in AluImmOp::ALL {
                    let imm = match op {
                        AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => imm & 0x3F,
                        AluImmOp::Slliw | AluImmOp::Srliw | AluImmOp::Sraiw => imm & 0x1F,
                        _ => imm,
                    };
                    let inst = Inst::AluImm { op, rd: Reg::X5, rs1: Reg::X6, imm };
                    assert_eq!(exec(inst, a, 0), alu_imm(op, a, imm), "{op:?} a={a:#x} imm={imm}");
                }
            }
            for &b in &OPERANDS {
                for &op in AluOp::ALL {
                    let inst = Inst::Alu { op, rd: Reg::X5, rs1: Reg::X6, rs2: Reg::X7 };
                    assert_eq!(exec(inst, a, b), alu(op, a, b), "{op:?} a={a:#x} b={b:#x}");
                }
            }
        }
    }

    #[test]
    fn arith_basics() {
        let (st, _) = run(&[
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 100 },
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X2, rs1: Reg::X0, imm: -3 },
            Inst::Alu { op: AluOp::Add, rd: Reg::X3, rs1: Reg::X1, rs2: Reg::X2 },
            Inst::Alu { op: AluOp::Sub, rd: Reg::X4, rs1: Reg::X1, rs2: Reg::X2 },
            Inst::Alu { op: AluOp::Sltu, rd: Reg::X5, rs1: Reg::X1, rs2: Reg::X2 },
            Inst::Alu { op: AluOp::Slt, rd: Reg::X6, rs1: Reg::X2, rs2: Reg::X1 },
        ]);
        assert_eq!(st.x(Reg::X3), 97);
        assert_eq!(st.x(Reg::X4), 103);
        assert_eq!(st.x(Reg::X5), 1); // -3 as unsigned is huge
        assert_eq!(st.x(Reg::X6), 1);
    }

    #[test]
    fn word_ops_sign_extend() {
        let (st, _) = run(&[
            // lui x1, 0x80000 — decoded imm is the sign-extended 20-bit field
            Inst::Lui { rd: Reg::X1, imm: -524288 },
            Inst::AluImm { op: AluImmOp::Addiw, rd: Reg::X2, rs1: Reg::X1, imm: 0 },
        ]);
        assert_eq!(st.x(Reg::X1), 0xFFFF_FFFF_8000_0000);
        assert_eq!(st.x(Reg::X2), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn div_rem_edge_cases() {
        assert_eq!(muldiv(MulDivOp::Div, 7, 0), u64::MAX);
        assert_eq!(muldiv(MulDivOp::Div, i64::MIN as u64, -1i64 as u64), i64::MIN as u64);
        assert_eq!(muldiv(MulDivOp::Rem, 7, 0), 7);
        assert_eq!(muldiv(MulDivOp::Rem, i64::MIN as u64, -1i64 as u64), 0);
        assert_eq!(muldiv(MulDivOp::Divu, 7, 0), u64::MAX);
        assert_eq!(muldiv(MulDivOp::Remu, 7, 0), 7);
        assert_eq!(muldiv(MulDivOp::Div, -7i64 as u64, 2), (-3i64) as u64);
        assert_eq!(muldiv(MulDivOp::Rem, -7i64 as u64, 2), (-1i64) as u64);
        assert_eq!(
            muldiv(MulDivOp::Divw, i32::MIN as u32 as u64, -1i64 as u64),
            i32::MIN as i64 as u64
        );
        assert_eq!(muldiv(MulDivOp::Divw, 10, 0), u64::MAX);
        assert_eq!(muldiv(MulDivOp::Mulhu, u64::MAX, u64::MAX), u64::MAX - 1);
        assert_eq!(muldiv(MulDivOp::Mulh, -1i64 as u64, -1i64 as u64), 0);
    }

    #[test]
    fn loads_and_stores() {
        let (st, mem) = run(&[
            Inst::Lui { rd: Reg::X1, imm: 0x10 }, // x1 = 0x10000
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X2, rs1: Reg::X0, imm: -1 },
            Inst::Store { op: StoreOp::Sd, rs1: Reg::X1, rs2: Reg::X2, offset: 0 },
            Inst::Load { op: LoadOp::Lw, rd: Reg::X3, rs1: Reg::X1, offset: 0 },
            Inst::Load { op: LoadOp::Lwu, rd: Reg::X4, rs1: Reg::X1, offset: 0 },
            Inst::Load { op: LoadOp::Lbu, rd: Reg::X5, rs1: Reg::X1, offset: 3 },
        ]);
        let mut mem = mem;
        assert_eq!(mem.read(0x10000, 8), u64::MAX);
        assert_eq!(st.x(Reg::X3), u64::MAX); // lw sign-extends
        assert_eq!(st.x(Reg::X4), 0xFFFF_FFFF); // lwu zero-extends
        assert_eq!(st.x(Reg::X5), 0xFF);
    }

    #[test]
    fn retired_mem_record() {
        let mut mem = SparseMemory::new();
        mem.load_program(
            0x1000,
            &[
                encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 0x40 }),
                encode(&Inst::Store { op: StoreOp::Sw, rs1: Reg::X1, rs2: Reg::X1, offset: 4 }),
                encode(&Inst::Load { op: LoadOp::Lw, rd: Reg::X2, rs1: Reg::X1, offset: 4 }),
            ],
        );
        let mut st = ArchState::new(0x1000);
        step(&mut st, &mut mem).unwrap();
        let s = step(&mut st, &mut mem).unwrap();
        assert_eq!(s.mem, Some(MemAccess { addr: 0x44, size: 4, data: 0x40, is_store: true }));
        let l = step(&mut st, &mut mem).unwrap();
        assert_eq!(l.mem, Some(MemAccess { addr: 0x44, size: 4, data: 0x40, is_store: false }));
        assert_eq!(l.class, ExecClass::Load);
    }

    #[test]
    fn branch_outcomes() {
        let mut mem = SparseMemory::new();
        mem.load_program(
            0x1000,
            &[
                encode(&Inst::Branch { op: BranchOp::Beq, rs1: Reg::X0, rs2: Reg::X0, offset: 8 }),
                encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 1 }),
                encode(&Inst::Branch { op: BranchOp::Bne, rs1: Reg::X0, rs2: Reg::X0, offset: 8 }),
            ],
        );
        let mut st = ArchState::new(0x1000);
        let b = step(&mut st, &mut mem).unwrap();
        assert_eq!(
            b.branch,
            Some(BranchInfo {
                taken: true,
                target: 0x1008,
                is_conditional: true,
                is_indirect: false
            })
        );
        assert_eq!(st.pc, 0x1008);
        let nb = step(&mut st, &mut mem).unwrap();
        assert!(!nb.branch.unwrap().taken);
        assert_eq!(st.pc, 0x100C);
        assert_eq!(st.x(Reg::X1), 0); // skipped instruction never executed
    }

    #[test]
    fn jal_jalr_link() {
        let mut mem = SparseMemory::new();
        mem.load_program(
            0x1000,
            &[
                encode(&Inst::Jal { rd: Reg::X1, offset: 8 }),
                encode(&Inst::Ecall), // skipped
                encode(&Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 4 }),
            ],
        );
        let mut st = ArchState::new(0x1000);
        step(&mut st, &mut mem).unwrap();
        assert_eq!(st.x(Reg::X1), 0x1004);
        assert_eq!(st.pc, 0x1008);
        let j = step(&mut st, &mut mem).unwrap();
        assert!(j.branch.unwrap().is_indirect);
        assert_eq!(st.pc, 0x1008); // x1 + 4 = 0x1008
        assert_eq!(st.x(Reg::X2), 0x100C);
    }

    #[test]
    fn csr_semantics_and_record() {
        let mut mem = SparseMemory::new();
        mem.load_program(
            0x1000,
            &[
                encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 0xFF }),
                encode(&Inst::Csr { op: CsrOp::Rw, rd: Reg::X2, rs1: Reg::X1, csr: 0x340 }),
                encode(&Inst::Csr { op: CsrOp::Rc, rd: Reg::X3, rs1: Reg::X1, csr: 0x340 }),
                encode(&Inst::Csr { op: CsrOp::Rsi, rd: Reg::X4, rs1: Reg::X5, csr: 0x340 }),
            ],
        );
        let mut st = ArchState::new(0x1000);
        step(&mut st, &mut mem).unwrap();
        let w = step(&mut st, &mut mem).unwrap();
        assert_eq!(w.csr_read, Some((0x340, 0)));
        assert_eq!(st.csr(0x340), 0xFF);
        let c = step(&mut st, &mut mem).unwrap();
        assert_eq!(c.csr_read, Some((0x340, 0xFF)));
        assert_eq!(st.csr(0x340), 0);
        step(&mut st, &mut mem).unwrap();
        assert_eq!(st.csr(0x340), 5); // zimm = index of x5
    }

    #[test]
    fn ecall_marks_kernel_trap() {
        let mut mem = SparseMemory::new();
        mem.load_program(0x1000, &[encode(&Inst::Ecall)]);
        let mut st = ArchState::new(0x1000);
        let r = step(&mut st, &mut mem).unwrap();
        assert!(r.is_kernel_trap);
        assert!(r.syscall.is_none(), "OS surface is off by default");
        assert_eq!(st.pc, 0x1004);
    }

    #[test]
    fn ecall_exit_redirects_to_halt_when_enabled() {
        let mut mem = SparseMemory::new();
        mem.load_program(0x1000, &[encode(&Inst::Ecall)]);
        let mut st = ArchState::new(0x1000);
        st.set_csr(CSR_OS_ENABLE, 1);
        st.set_x(Reg::X17, SYS_EXIT);
        st.set_x(Reg::X10, 7);
        let r = step(&mut st, &mut mem).unwrap();
        assert!(r.is_kernel_trap);
        assert_eq!(r.syscall, Some(Syscall::Exit { code: 7 }));
        assert_eq!(r.next_pc, HALT_PC);
        assert_eq!(st.pc, HALT_PC);
        let b = r.branch.unwrap();
        assert!(b.taken && b.is_indirect && !b.is_conditional);
        assert_eq!(b.target, HALT_PC);
    }

    #[test]
    fn ecall_putchar_records_byte_without_side_effects() {
        let mut mem = SparseMemory::new();
        mem.load_program(0x1000, &[encode(&Inst::Ecall)]);
        let mut st = ArchState::new(0x1000);
        st.set_csr(CSR_OS_ENABLE, 1);
        st.set_x(Reg::X17, SYS_PUTCHAR);
        st.set_x(Reg::X10, 0x141); // only the low byte is the character
        let r = step(&mut st, &mut mem).unwrap();
        assert_eq!(r.syscall, Some(Syscall::Putchar { byte: 0x41 }));
        assert_eq!(r.mem, None, "syscalls must never touch memory");
        assert_eq!(st.pc, 0x1004);
        assert_eq!(st.x(Reg::X10), 0x141, "syscalls must not clobber registers");
    }

    #[test]
    fn ecall_unknown_number_is_noop_trap() {
        let mut mem = SparseMemory::new();
        mem.load_program(0x1000, &[encode(&Inst::Ecall)]);
        let mut st = ArchState::new(0x1000);
        st.set_csr(CSR_OS_ENABLE, 1);
        st.set_x(Reg::X17, 1234);
        let r = step(&mut st, &mut mem).unwrap();
        assert!(r.is_kernel_trap);
        assert!(r.syscall.is_none());
        assert_eq!(st.pc, 0x1004);
    }

    #[test]
    fn instret_csr_counts_retirements_when_enabled() {
        let mut mem = SparseMemory::new();
        mem.load_program(
            0x1000,
            &[
                encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 1 }),
                encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X1, imm: 1 }),
                encode(&Inst::Csr { op: CsrOp::Rs, rd: Reg::X2, rs1: Reg::X0, csr: CSR_INSTRET }),
                // A write attempt must be dropped, not stored.
                encode(&Inst::Csr { op: CsrOp::Rw, rd: Reg::X3, rs1: Reg::X1, csr: CSR_INSTRET }),
                encode(&Inst::Csr { op: CsrOp::Rs, rd: Reg::X4, rs1: Reg::X0, csr: CSR_INSTRET }),
            ],
        );
        let mut st = ArchState::new(0x1000);
        st.set_csr(CSR_OS_ENABLE, 1);
        for _ in 0..5 {
            step(&mut st, &mut mem).unwrap();
        }
        assert_eq!(st.x(Reg::X2), 2, "two instructions retired before the first read");
        assert_eq!(st.x(Reg::X3), 3);
        assert_eq!(st.x(Reg::X4), 4, "the csrrw must not have stored x1 into the counter");
        assert_eq!(st.instret(), 5);
    }

    #[test]
    fn instret_csr_is_plain_storage_when_disabled() {
        let mut mem = SparseMemory::new();
        mem.load_program(
            0x1000,
            &[
                encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 9 }),
                encode(&Inst::Csr { op: CsrOp::Rw, rd: Reg::X2, rs1: Reg::X1, csr: CSR_INSTRET }),
                encode(&Inst::Csr { op: CsrOp::Rs, rd: Reg::X3, rs1: Reg::X0, csr: CSR_INSTRET }),
            ],
        );
        let mut st = ArchState::new(0x1000);
        for _ in 0..3 {
            step(&mut st, &mut mem).unwrap();
        }
        assert_eq!(st.x(Reg::X3), 9, "legacy CSR semantics must be untouched");
        assert_eq!(st.csr(CSR_INSTRET), 9);
    }

    #[test]
    fn fp_basics() {
        let mut mem = SparseMemory::new();
        let two = 2.0f64.to_bits();
        let three = 3.0f64.to_bits();
        mem.write(0x2000, 8, two);
        mem.write(0x2008, 8, three);
        mem.load_program(
            0x1000,
            &[
                encode(&Inst::Lui { rd: Reg::X1, imm: 2 }), // x1 = 0x2000
                encode(&Inst::Fld { rd: FReg::new(1), rs1: Reg::X1, offset: 0 }),
                encode(&Inst::Fld { rd: FReg::new(2), rs1: Reg::X1, offset: 8 }),
                encode(&Inst::Fp {
                    op: FpOp::FmulD,
                    rd: FReg::new(3),
                    rs1: FReg::new(1),
                    rs2: FReg::new(2),
                }),
                encode(&Inst::Fp {
                    op: FpOp::FdivD,
                    rd: FReg::new(4),
                    rs1: FReg::new(1),
                    rs2: FReg::new(2),
                }),
                encode(&Inst::FpCmp {
                    op: FpCmpOp::FltD,
                    rd: Reg::X2,
                    rs1: FReg::new(1),
                    rs2: FReg::new(2),
                }),
                encode(&Inst::FcvtLD { rd: Reg::X3, rs1: FReg::new(3) }),
            ],
        );
        let mut st = ArchState::new(0x1000);
        for _ in 0..7 {
            step(&mut st, &mut mem).unwrap();
        }
        assert_eq!(f64::from_bits(st.f(FReg::new(3))), 6.0);
        assert!((f64::from_bits(st.f(FReg::new(4))) - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(st.x(Reg::X2), 1);
        assert_eq!(st.x(Reg::X3), 6);
    }

    #[test]
    fn fcvt_saturation() {
        let mut st = ArchState::new(0);
        let mut mem = SparseMemory::new();
        st.set_f(FReg::new(1), f64::NAN.to_bits());
        let r = execute(&mut st, &mut mem, 0, 0, Inst::FcvtLD { rd: Reg::X1, rs1: FReg::new(1) });
        assert_eq!(st.x(Reg::X1), i64::MAX as u64);
        assert_eq!(r.class, ExecClass::FpAdd);
        st.set_f(FReg::new(1), 1e300f64.to_bits());
        execute(&mut st, &mut mem, 0, 0, Inst::FcvtLD { rd: Reg::X2, rs1: FReg::new(1) });
        assert_eq!(st.x(Reg::X2), i64::MAX as u64);
        st.set_f(FReg::new(1), (-1e300f64).to_bits());
        execute(&mut st, &mut mem, 0, 0, Inst::FcvtLD { rd: Reg::X3, rs1: FReg::new(1) });
        assert_eq!(st.x(Reg::X3), i64::MIN as u64);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = SparseMemory::new();
        mem.write(0x1000, 4, 0);
        let mut st = ArchState::new(0x1000);
        assert_eq!(step(&mut st, &mut mem), Err(Trap::IllegalInstruction { pc: 0x1000, word: 0 }));
    }

    #[test]
    fn meek_ljal_redirects() {
        let mut st = ArchState::new(0x1000);
        let mut mem = SparseMemory::new();
        st.set_x(Reg::X5, 0x4000);
        let r = execute(&mut st, &mut mem, 0x1000, 0, Inst::Meek(MeekOp::LJal { rs1: Reg::X5 }));
        assert_eq!(st.pc, 0x4000);
        assert!(r.branch.unwrap().is_indirect);
    }

    #[test]
    fn misaligned_addresses_are_masked() {
        let mut mem = SparseMemory::new();
        mem.write(0x100, 8, 0x1122_3344_5566_7788);
        let mut st = ArchState::new(0);
        st.set_x(Reg::X1, 0x103); // misaligned base for a word load
        execute(
            &mut st,
            &mut mem,
            0,
            0,
            Inst::Load { op: LoadOp::Lw, rd: Reg::X2, rs1: Reg::X1, offset: 0 },
        );
        // masked down to 0x100
        assert_eq!(st.x(Reg::X2), 0x5566_7788);
    }
}
