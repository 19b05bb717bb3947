//! The MEEK ISA extension (Table I of the paper).
//!
//! The seven custom instructions occupy the *custom-0* major opcode
//! (`0b000_1011`), with `funct3` selecting the operation. The big-core
//! instructions (`b.*`) and `l.mode` are privileged (kernel mode); the
//! remaining little-core instructions run in user mode.
//!
//! | Instruction        | Priv | Description                                          |
//! |--------------------|------|------------------------------------------------------|
//! | `b.hook rs1, rs2`  | 1    | Hook big core `rs1` with little core `rs2`.          |
//! | `b.check rs1`      | 1    | Enable/disable checking capacity (the DEU).          |
//! | `l.mode rs1, rs2`  | 1    | Switch little core `rs1`'s mode to `rs2`.            |
//! | `l.record rs1`     | 0    | Record architectural registers to address `rs1`.     |
//! | `l.apply rs1`      | 0    | Apply architectural registers from address `rs1`.    |
//! | `l.jal rs1`        | 0    | Jump to `rs1` (PC of main thread).                   |
//! | `l.rslt rd`        | 0    | Return the check results.                            |

use crate::reg::Reg;
use std::fmt;

/// A decoded MEEK-ISA instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeekOp {
    /// `b.hook rs1, rs2` — associate big core (id in `rs1`) with little core
    /// (id in `rs2`). Privileged.
    BHook { rs1: Reg, rs2: Reg },
    /// `b.check rs1` — enable (`rs1 != 0`) or disable the DEU. Privileged.
    BCheck { rs1: Reg },
    /// `l.mode rs1, rs2` — switch little core `rs1` to mode `rs2`
    /// (0 = application, 1 = check). Privileged.
    LMode { rs1: Reg, rs2: Reg },
    /// `l.record rs1` — snapshot architectural registers to address `rs1`.
    LRecord { rs1: Reg },
    /// `l.apply rs1` — overwrite architectural registers from address `rs1`
    /// (in check mode, from the LSL's SRCP record).
    LApply { rs1: Reg },
    /// `l.jal rs1` — redirect the PC to the value in `rs1` (the main
    /// thread's segment start PC). Treated as branch-like by the pipeline.
    LJal { rs1: Reg },
    /// `l.rslt rd` — write the check result (1 = pass, 0 = mismatch) to `rd`.
    LRslt { rd: Reg },
}

impl MeekOp {
    /// The `funct3` minor opcode used in the binary encoding.
    pub fn funct3(self) -> u8 {
        match self {
            MeekOp::BHook { .. } => 0,
            MeekOp::BCheck { .. } => 1,
            MeekOp::LMode { .. } => 2,
            MeekOp::LRecord { .. } => 3,
            MeekOp::LApply { .. } => 4,
            MeekOp::LJal { .. } => 5,
            MeekOp::LRslt { .. } => 6,
        }
    }

    /// Whether the instruction requires kernel privilege (Table I).
    ///
    /// `b.hook`/`b.check` can cause contention on the little cores and
    /// `l.mode` can cause erroneous execution from unintended memory
    /// accesses, so all three are privileged and reached via OS syscall.
    pub fn is_privileged(self) -> bool {
        matches!(self, MeekOp::BHook { .. } | MeekOp::BCheck { .. } | MeekOp::LMode { .. })
    }

    /// Mnemonic string, e.g. `"b.hook"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MeekOp::BHook { .. } => "b.hook",
            MeekOp::BCheck { .. } => "b.check",
            MeekOp::LMode { .. } => "l.mode",
            MeekOp::LRecord { .. } => "l.record",
            MeekOp::LApply { .. } => "l.apply",
            MeekOp::LJal { .. } => "l.jal",
            MeekOp::LRslt { .. } => "l.rslt",
        }
    }

    /// Integer destination register, if any (`l.rslt` only).
    pub fn int_dest(self) -> Option<Reg> {
        match self {
            MeekOp::LRslt { rd } => Some(rd),
            _ => None,
        }
    }

    /// Integer source registers.
    pub fn int_srcs(self) -> [Option<Reg>; 2] {
        match self {
            MeekOp::BHook { rs1, rs2 } | MeekOp::LMode { rs1, rs2 } => [Some(rs1), Some(rs2)],
            MeekOp::BCheck { rs1 }
            | MeekOp::LRecord { rs1 }
            | MeekOp::LApply { rs1 }
            | MeekOp::LJal { rs1 } => [Some(rs1), None],
            MeekOp::LRslt { .. } => [None, None],
        }
    }
}

impl fmt::Display for MeekOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MeekOp::BHook { rs1, rs2 } => write!(f, "b.hook {rs1}, {rs2}"),
            MeekOp::BCheck { rs1 } => write!(f, "b.check {rs1}"),
            MeekOp::LMode { rs1, rs2 } => write!(f, "l.mode {rs1}, {rs2}"),
            MeekOp::LRecord { rs1 } => write!(f, "l.record {rs1}"),
            MeekOp::LApply { rs1 } => write!(f, "l.apply {rs1}"),
            MeekOp::LJal { rs1 } => write!(f, "l.jal {rs1}"),
            MeekOp::LRslt { rd } => write!(f, "l.rslt {rd}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_matches_table1() {
        assert!(MeekOp::BHook { rs1: Reg::X1, rs2: Reg::X2 }.is_privileged());
        assert!(MeekOp::BCheck { rs1: Reg::X1 }.is_privileged());
        assert!(MeekOp::LMode { rs1: Reg::X1, rs2: Reg::X2 }.is_privileged());
        assert!(!MeekOp::LRecord { rs1: Reg::X1 }.is_privileged());
        assert!(!MeekOp::LApply { rs1: Reg::X1 }.is_privileged());
        assert!(!MeekOp::LJal { rs1: Reg::X1 }.is_privileged());
        assert!(!MeekOp::LRslt { rd: Reg::X1 }.is_privileged());
    }

    #[test]
    fn funct3_unique() {
        let ops = [
            MeekOp::BHook { rs1: Reg::X1, rs2: Reg::X2 },
            MeekOp::BCheck { rs1: Reg::X1 },
            MeekOp::LMode { rs1: Reg::X1, rs2: Reg::X2 },
            MeekOp::LRecord { rs1: Reg::X1 },
            MeekOp::LApply { rs1: Reg::X1 },
            MeekOp::LJal { rs1: Reg::X1 },
            MeekOp::LRslt { rd: Reg::X1 },
        ];
        let mut seen = std::collections::HashSet::new();
        for op in ops {
            assert!(seen.insert(op.funct3()), "duplicate funct3 for {op}");
        }
    }

    #[test]
    fn display() {
        assert_eq!(MeekOp::BHook { rs1: Reg::X10, rs2: Reg::X11 }.to_string(), "b.hook a0, a1");
        assert_eq!(MeekOp::LRslt { rd: Reg::X10 }.to_string(), "l.rslt a0");
    }

    #[test]
    fn dests_and_srcs() {
        assert_eq!(MeekOp::LRslt { rd: Reg::X5 }.int_dest(), Some(Reg::X5));
        assert_eq!(MeekOp::LJal { rs1: Reg::X6 }.int_srcs(), [Some(Reg::X6), None]);
        assert_eq!(MeekOp::LJal { rs1: Reg::X6 }.int_dest(), None);
    }
}
