//! A small disassembler for debugging traces and failed checks.

use crate::inst::{FpOp, Inst};
use std::fmt;

/// Wrapper that formats an [`Inst`] as assembly text.
///
/// # Example
///
/// ```
/// use meek_isa::{disasm::Disasm, Inst, Reg};
/// use meek_isa::inst::{AluImmOp};
///
/// let i = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X10, rs1: Reg::X11, imm: -4 };
/// assert_eq!(Disasm(&i).to_string(), "addi a0, a1, -4");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Disasm<'a>(pub &'a Inst);

impl fmt::Display for Disasm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.0 {
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm & 0xFFFFF),
            Inst::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm & 0xFFFFF),
            Inst::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Inst::Branch { op, rs1, rs2, offset } => {
                write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic())
            }
            Inst::Load { op, rd, rs1, offset } => {
                write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic())
            }
            Inst::Store { op, rs1, rs2, offset } => {
                write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic()),
            Inst::Alu { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Inst::MulDiv { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::Fld { rd, rs1, offset } => write!(f, "fld {rd}, {offset}({rs1})"),
            Inst::Fsd { rs1, rs2, offset } => write!(f, "fsd {rs2}, {offset}({rs1})"),
            Inst::Fp { op, rd, rs1, .. } if op == FpOp::FsqrtD => {
                write!(f, "{} {rd}, {rs1}", op.mnemonic())
            }
            Inst::Fp { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Inst::FpCmp { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Inst::FmaddD { rd, rs1, rs2, rs3 } => write!(f, "fmadd.d {rd}, {rs1}, {rs2}, {rs3}"),
            Inst::FcvtDL { rd, rs1 } => write!(f, "fcvt.d.l {rd}, {rs1}"),
            Inst::FcvtLD { rd, rs1 } => write!(f, "fcvt.l.d {rd}, {rs1}"),
            Inst::FmvXD { rd, rs1 } => write!(f, "fmv.x.d {rd}, {rs1}"),
            Inst::FmvDX { rd, rs1 } => write!(f, "fmv.d.x {rd}, {rs1}"),
            Inst::Csr { op, rd, rs1, csr } if op.is_imm() => {
                write!(f, "{} {rd}, {csr:#x}, {}", op.mnemonic(), rs1.index())
            }
            Inst::Csr { op, rd, rs1, csr } => write!(f, "{} {rd}, {csr:#x}, {rs1}", op.mnemonic()),
            Inst::Fence => write!(f, "fence"),
            Inst::Ecall => write!(f, "ecall"),
            Inst::Ebreak => write!(f, "ebreak"),
            Inst::Meek(op) => write!(f, "{op}"),
        }
    }
}

/// Disassembles a raw machine word, falling back to a `.word` directive
/// when the word does not decode — the form trace windows want, since a
/// divergence investigation must render corrupt fetches too.
pub fn disasm_word(raw: u32) -> String {
    match crate::decode::decode(raw) {
        Ok(inst) => Disasm(&inst).to_string(),
        Err(_) => format!(".word {raw:#010x}"),
    }
}

/// Renders a disassembled window of `n` instructions starting at
/// `start_pc`, one `pc: disassembly` line per word, marking `mark_pc`
/// with a `=>` cursor. Used by the difftest divergence reports.
pub fn disasm_window(
    image: &crate::mem::SparseMemory,
    start_pc: u64,
    n: usize,
    mark_pc: u64,
) -> String {
    let mut out = String::new();
    for i in 0..n {
        // PCs wrap mod 2^64 like all byte addresses: a trap window near
        // the top of the address space renders across the wrap.
        let pc = start_pc.wrapping_add(4 * i as u64);
        let cursor = if pc == mark_pc { "=>" } else { "  " };
        let line = disasm_word(image.peek_inst(pc));
        out.push_str(&format!("{cursor} {pc:#08x}: {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{LoadOp, StoreOp};
    use crate::reg::{FReg, Reg};

    #[test]
    fn undecodable_word_renders_as_directive() {
        assert_eq!(disasm_word(0), ".word 0x00000000");
        assert_eq!(
            disasm_word(crate::encode(&Inst::Ecall)),
            "ecall",
            "decodable words disassemble normally"
        );
    }

    #[test]
    fn window_marks_the_cursor_line() {
        let mut mem = crate::mem::SparseMemory::new();
        mem.load_program(0x1000, &[crate::encode(&Inst::Ecall), crate::encode(&Inst::Fence)]);
        let w = disasm_window(&mem, 0x1000, 2, 0x1004);
        assert!(w.contains("   0x001000: ecall"), "window:\n{w}");
        assert!(w.contains("=> 0x001004: fence"), "window:\n{w}");
    }

    #[test]
    fn formats() {
        let cases: [(Inst, &str); 7] = [
            (Inst::Lui { rd: Reg::X10, imm: 0x12345 }, "lui a0, 0x12345"),
            (Inst::Jal { rd: Reg::X1, offset: -8 }, "jal ra, -8"),
            (
                Inst::Load { op: LoadOp::Ld, rd: Reg::X10, rs1: Reg::X2, offset: 16 },
                "ld a0, 16(sp)",
            ),
            (
                Inst::Store { op: StoreOp::Sd, rs1: Reg::X2, rs2: Reg::X10, offset: 16 },
                "sd a0, 16(sp)",
            ),
            (
                Inst::Fp {
                    op: FpOp::FdivD,
                    rd: FReg::new(1),
                    rs1: FReg::new(2),
                    rs2: FReg::new(3),
                },
                "fdiv.d f1, f2, f3",
            ),
            (Inst::Ecall, "ecall"),
            (Inst::Meek(crate::meek::MeekOp::LApply { rs1: Reg::X10 }), "l.apply a0"),
        ];
        for (inst, expect) in cases {
            assert_eq!(Disasm(&inst).to_string(), expect);
        }
    }
}
