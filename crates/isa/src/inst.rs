//! Decoded instruction representation and execution classes.

use crate::meek::MeekOp;
use crate::reg::{FReg, Reg};

/// Declares an op enum from one `Variant => "mnemonic"` list and
/// generates `ALL` (every variant, in declaration order), `mnemonic()`
/// and `from_mnemonic()`: the one place an op's assembly spelling is
/// written, so no variant can be missing from `ALL` or from either
/// direction of the mapping.
macro_rules! op_enum {
    ($(#[$doc:meta])* $name:ident { $($variant:ident => $mnemonic:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum $name {
            $($variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The assembly mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$variant => $mnemonic,)+
                }
            }

            /// The variant whose assembly mnemonic is `mnemonic`.
            pub fn from_mnemonic(mnemonic: &str) -> Option<$name> {
                match mnemonic {
                    $($mnemonic => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

op_enum! {
    /// Conditional branch comparison.
    BranchOp {
        Beq => "beq",
        Bne => "bne",
        Blt => "blt",
        Bge => "bge",
        Bltu => "bltu",
        Bgeu => "bgeu",
    }
}

op_enum! {
    /// Load width/signedness.
    LoadOp {
        Lb => "lb",
        Lh => "lh",
        Lw => "lw",
        Ld => "ld",
        Lbu => "lbu",
        Lhu => "lhu",
        Lwu => "lwu",
    }
}

impl LoadOp {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }
}

op_enum! {
    /// Store width.
    StoreOp {
        Sb => "sb",
        Sh => "sh",
        Sw => "sw",
        Sd => "sd",
    }
}

impl StoreOp {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }
}

op_enum! {
    /// Register-register integer ALU operation (OP / OP-32 major opcodes).
    AluOp {
        Add => "add",
        Sub => "sub",
        Sll => "sll",
        Slt => "slt",
        Sltu => "sltu",
        Xor => "xor",
        Srl => "srl",
        Sra => "sra",
        Or => "or",
        And => "and",
        Addw => "addw",
        Subw => "subw",
        Sllw => "sllw",
        Srlw => "srlw",
        Sraw => "sraw",
    }
}

op_enum! {
    /// Register-immediate integer ALU operation (OP-IMM / OP-IMM-32).
    AluImmOp {
        Addi => "addi",
        Slti => "slti",
        Sltiu => "sltiu",
        Xori => "xori",
        Ori => "ori",
        Andi => "andi",
        Slli => "slli",
        Srli => "srli",
        Srai => "srai",
        Addiw => "addiw",
        Slliw => "slliw",
        Srliw => "srliw",
        Sraiw => "sraiw",
    }
}

op_enum! {
    /// RV64M multiply/divide operation.
    MulDivOp {
        Mul => "mul",
        Mulh => "mulh",
        Mulhsu => "mulhsu",
        Mulhu => "mulhu",
        Div => "div",
        Divu => "divu",
        Rem => "rem",
        Remu => "remu",
        Mulw => "mulw",
        Divw => "divw",
        Divuw => "divuw",
        Remw => "remw",
        Remuw => "remuw",
    }
}

impl MulDivOp {
    /// Whether this is a divider-path operation (DIV/REM family).
    pub fn is_div(self) -> bool {
        matches!(
            self,
            MulDivOp::Div
                | MulDivOp::Divu
                | MulDivOp::Rem
                | MulDivOp::Remu
                | MulDivOp::Divw
                | MulDivOp::Divuw
                | MulDivOp::Remw
                | MulDivOp::Remuw
        )
    }
}

op_enum! {
    /// Double-precision floating-point compute operation.
    FpOp {
        FaddD => "fadd.d",
        FsubD => "fsub.d",
        FmulD => "fmul.d",
        FdivD => "fdiv.d",
        FsqrtD => "fsqrt.d",
        FsgnjD => "fsgnj.d",
        FminD => "fmin.d",
        FmaxD => "fmax.d",
    }
}

op_enum! {
    /// Floating-point compare (writes an integer register).
    FpCmpOp {
        FeqD => "feq.d",
        FltD => "flt.d",
        FleD => "fle.d",
    }
}

op_enum! {
    /// CSR access operation (Zicsr).
    CsrOp {
        Rw => "csrrw",
        Rs => "csrrs",
        Rc => "csrrc",
        Rwi => "csrrwi",
        Rsi => "csrrsi",
        Rci => "csrrci",
    }
}

impl CsrOp {
    /// Whether the `rs1` field holds a 5-bit immediate (`zimm`) rather
    /// than a register.
    pub fn is_imm(self) -> bool {
        matches!(self, CsrOp::Rwi | CsrOp::Rsi | CsrOp::Rci)
    }
}

/// A decoded RISC-V (plus MEEK-ISA) instruction.
///
/// The variants cover RV64IM, Zicsr, the double-precision subset the
/// workload generator uses, and the seven MEEK custom instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Inst {
    Lui {
        rd: Reg,
        imm: i32,
    },
    Auipc {
        rd: Reg,
        imm: i32,
    },
    Jal {
        rd: Reg,
        offset: i32,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    Load {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    Store {
        op: StoreOp,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    AluImm {
        op: AluImmOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    MulDiv {
        op: MulDivOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Fld {
        rd: FReg,
        rs1: Reg,
        offset: i32,
    },
    Fsd {
        rs1: Reg,
        rs2: FReg,
        offset: i32,
    },
    Fp {
        op: FpOp,
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
    },
    FpCmp {
        op: FpCmpOp,
        rd: Reg,
        rs1: FReg,
        rs2: FReg,
    },
    FmaddD {
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
        rs3: FReg,
    },
    FcvtDL {
        rd: FReg,
        rs1: Reg,
    },
    FcvtLD {
        rd: Reg,
        rs1: FReg,
    },
    FmvXD {
        rd: Reg,
        rs1: FReg,
    },
    FmvDX {
        rd: FReg,
        rs1: Reg,
    },
    Csr {
        op: CsrOp,
        rd: Reg,
        rs1: Reg,
        csr: u16,
    },
    Fence,
    Ecall,
    Ebreak,
    /// A MEEK-ISA custom instruction (Table I of the paper).
    Meek(MeekOp),
}

/// Coarse execution class used by the timing models to pick a functional
/// unit and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ExecClass {
    IntAlu,
    IntMul,
    IntDiv,
    FpAdd,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,
    Jump,
    Csr,
    System,
    Meek,
}

impl Inst {
    /// The execution class of this instruction, used for functional-unit
    /// selection and latency lookup by both core timing models.
    pub fn class(&self) -> ExecClass {
        match self {
            Inst::Lui { .. } | Inst::Auipc { .. } | Inst::Alu { .. } | Inst::AluImm { .. } => {
                ExecClass::IntAlu
            }
            Inst::Jal { .. } | Inst::Jalr { .. } => ExecClass::Jump,
            Inst::Branch { .. } => ExecClass::Branch,
            Inst::Load { .. } | Inst::Fld { .. } => ExecClass::Load,
            Inst::Store { .. } | Inst::Fsd { .. } => ExecClass::Store,
            Inst::MulDiv { op, .. } => {
                if op.is_div() {
                    ExecClass::IntDiv
                } else {
                    ExecClass::IntMul
                }
            }
            Inst::Fp { op, .. } => match op {
                FpOp::FdivD | FpOp::FsqrtD => ExecClass::FpDiv,
                FpOp::FmulD => ExecClass::FpMul,
                _ => ExecClass::FpAdd,
            },
            Inst::FmaddD { .. } => ExecClass::FpMul,
            Inst::FpCmp { .. }
            | Inst::FcvtDL { .. }
            | Inst::FcvtLD { .. }
            | Inst::FmvXD { .. }
            | Inst::FmvDX { .. } => ExecClass::FpAdd,
            Inst::Csr { .. } => ExecClass::Csr,
            Inst::Fence | Inst::Ecall | Inst::Ebreak => ExecClass::System,
            Inst::Meek(_) => ExecClass::Meek,
        }
    }

    /// Whether this instruction reads or writes data memory.
    pub fn is_mem(&self) -> bool {
        matches!(self.class(), ExecClass::Load | ExecClass::Store)
    }

    /// Whether this is a control-flow instruction (branch or jump).
    pub fn is_control(&self) -> bool {
        matches!(self.class(), ExecClass::Branch | ExecClass::Jump)
    }

    /// Integer destination register, if the instruction writes one
    /// (excluding writes to `x0`, which are architectural no-ops but are
    /// still reported here; the executor discards them).
    pub fn int_dest(&self) -> Option<Reg> {
        match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::MulDiv { rd, .. }
            | Inst::FpCmp { rd, .. }
            | Inst::FcvtLD { rd, .. }
            | Inst::FmvXD { rd, .. }
            | Inst::Csr { rd, .. } => Some(rd),
            Inst::Meek(op) => op.int_dest(),
            _ => None,
        }
    }

    /// Integer source registers (up to two).
    pub fn int_srcs(&self) -> [Option<Reg>; 2] {
        match *self {
            Inst::Jalr { rs1, .. }
            | Inst::Load { rs1, .. }
            | Inst::AluImm { rs1, .. }
            | Inst::Fld { rs1, .. }
            | Inst::FcvtDL { rs1, .. }
            | Inst::FmvDX { rs1, .. }
            | Inst::Csr { rs1, .. } => [Some(rs1), None],
            Inst::Branch { rs1, rs2, .. }
            | Inst::Alu { rs1, rs2, .. }
            | Inst::MulDiv { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Store { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Inst::Fsd { rs1, .. } => [Some(rs1), None],
            Inst::Meek(op) => op.int_srcs(),
            _ => [None, None],
        }
    }

    /// Floating-point source registers (up to three).
    pub fn fp_srcs(&self) -> [Option<FReg>; 3] {
        match *self {
            Inst::Fp { rs1, rs2, .. } | Inst::FpCmp { rs1, rs2, .. } => {
                [Some(rs1), Some(rs2), None]
            }
            Inst::FmaddD { rs1, rs2, rs3, .. } => [Some(rs1), Some(rs2), Some(rs3)],
            Inst::Fsd { rs2, .. } => [Some(rs2), None, None],
            Inst::FcvtLD { rs1, .. } | Inst::FmvXD { rs1, .. } => [Some(rs1), None, None],
            _ => [None, None, None],
        }
    }

    /// Floating-point destination register, if any.
    pub fn fp_dest(&self) -> Option<FReg> {
        match *self {
            Inst::Fld { rd, .. }
            | Inst::Fp { rd, .. }
            | Inst::FmaddD { rd, .. }
            | Inst::FcvtDL { rd, .. }
            | Inst::FmvDX { rd, .. } => Some(rd),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        let addi = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 1 };
        assert_eq!(addi.class(), ExecClass::IntAlu);
        let div = Inst::MulDiv { op: MulDivOp::Div, rd: Reg::X1, rs1: Reg::X2, rs2: Reg::X3 };
        assert_eq!(div.class(), ExecClass::IntDiv);
        let mul = Inst::MulDiv { op: MulDivOp::Mulw, rd: Reg::X1, rs1: Reg::X2, rs2: Reg::X3 };
        assert_eq!(mul.class(), ExecClass::IntMul);
        let fdiv =
            Inst::Fp { op: FpOp::FdivD, rd: FReg::new(1), rs1: FReg::new(2), rs2: FReg::new(3) };
        assert_eq!(fdiv.class(), ExecClass::FpDiv);
        let ld = Inst::Load { op: LoadOp::Ld, rd: Reg::X1, rs1: Reg::X2, offset: 0 };
        assert_eq!(ld.class(), ExecClass::Load);
        assert!(ld.is_mem());
        let b = Inst::Branch { op: BranchOp::Beq, rs1: Reg::X1, rs2: Reg::X2, offset: 8 };
        assert!(b.is_control());
        assert_eq!(b.int_dest(), None);
    }

    #[test]
    fn sizes() {
        assert_eq!(LoadOp::Lb.size(), 1);
        assert_eq!(LoadOp::Lhu.size(), 2);
        assert_eq!(LoadOp::Lwu.size(), 4);
        assert_eq!(LoadOp::Ld.size(), 8);
        assert_eq!(StoreOp::Sb.size(), 1);
        assert_eq!(StoreOp::Sd.size(), 8);
    }

    #[test]
    fn srcs_and_dests() {
        let st = Inst::Store { op: StoreOp::Sd, rs1: Reg::X2, rs2: Reg::X3, offset: 16 };
        assert_eq!(st.int_srcs(), [Some(Reg::X2), Some(Reg::X3)]);
        assert_eq!(st.int_dest(), None);
        let alu = Inst::Alu { op: AluOp::Add, rd: Reg::X5, rs1: Reg::X6, rs2: Reg::X7 };
        assert_eq!(alu.int_dest(), Some(Reg::X5));
        let fld = Inst::Fld { rd: FReg::new(4), rs1: Reg::X2, offset: 0 };
        assert_eq!(fld.fp_dest(), Some(FReg::new(4)));
        assert_eq!(fld.int_srcs()[0], Some(Reg::X2));
    }

    #[test]
    fn op_tables_round_trip_and_spell_each_mnemonic_once() {
        // The assembler tries the tables in turn, so a mnemonic shared by
        // two enums would silently assemble as the first.
        let mut owner = std::collections::HashMap::new();
        macro_rules! check {
            ($($ty:ident),+) => {$(
                for (i, &op) in $ty::ALL.iter().enumerate() {
                    assert_eq!($ty::from_mnemonic(op.mnemonic()), Some(op));
                    assert!(!$ty::ALL[..i].contains(&op), "{op:?} twice in ALL");
                    if let Some(other) = owner.insert(op.mnemonic(), stringify!($ty)) {
                        panic!("`{}` is both {other} and {op:?}", op.mnemonic());
                    }
                }
            )+};
        }
        check!(BranchOp, LoadOp, StoreOp, AluOp, AluImmOp, MulDivOp, FpOp, FpCmpOp, CsrOp);
        assert_eq!(owner.len(), 75, "the nine enums hold 75 ops");
        assert_eq!(AluOp::from_mnemonic("addi"), None);
    }

    #[test]
    fn div_detection() {
        assert!(MulDivOp::Div.is_div());
        assert!(MulDivOp::Remuw.is_div());
        assert!(!MulDivOp::Mul.is_div());
        assert!(!MulDivOp::Mulhu.is_div());
    }
}
