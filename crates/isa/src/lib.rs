//! RISC-V instruction-set substrate for the MEEK simulator.
//!
//! This crate implements the parts of RV64 that the MEEK reproduction needs:
//!
//! * decoded instruction representation ([`Inst`]) for RV64IM, the Zicsr
//!   CSR instructions, a double-precision floating-point subset, and the
//!   seven custom **MEEK-ISA** instructions of the paper's Table I; each
//!   op enum spells its own assembly mnemonics ([`BranchOp::mnemonic`],
//!   [`BranchOp::from_mnemonic`]), for the disassembler and assemblers;
//! * binary [`encode()`](encode())/[`decode()`](decode()) in both directions (the workload generator
//!   emits real machine code; the core models decode it);
//! * a functional executor ([`exec`]) that advances an [`ArchState`] over a
//!   [`Bus`] and produces a [`Retired`] record per instruction — the dynamic
//!   stream consumed by the timing models in `meek-bigcore` and
//!   `meek-littlecore` — with its integer ALU rules ([`exec::alu`],
//!   [`exec::alu_imm`]) exposed for the static analyzer to fold with;
//! * a disassembler for debugging.
//!
//! # Example
//!
//! ```
//! use meek_isa::inst::AluImmOp;
//! use meek_isa::{encode, exec, ArchState, Inst, Reg, SparseMemory};
//!
//! // addi x5, x0, 42 ; addi x6, x5, 1
//! let prog = [
//!     encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X5, rs1: Reg::X0, imm: 42 }),
//!     encode(&Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X6, rs1: Reg::X5, imm: 1 }),
//! ];
//! let mut mem = SparseMemory::new();
//! mem.load_program(0x1000, &prog);
//! let mut st = ArchState::new(0x1000);
//! exec::step(&mut st, &mut mem).unwrap();
//! exec::step(&mut st, &mut mem).unwrap();
//! assert_eq!(st.x(Reg::X6), 43);
//! ```

pub mod decode;
pub mod disasm;
pub mod encode;
pub mod exec;
pub mod inst;
pub mod invariants;
pub mod meek;
pub mod mem;
pub mod os;
pub mod predecode;
pub mod reg;
pub mod state;

pub use decode::{decode, DecodeError};
pub use encode::encode;
pub use exec::{step, MemAccess, Retired, Trap, WbDest};
pub use inst::{BranchOp, ExecClass, Inst, LoadOp, StoreOp};
pub use invariants::{decodable, dest_reg, writes_anchor, ANCHOR_REGS, R_PTR};
pub use meek::MeekOp;
pub use mem::{Bus, SparseMemory};
pub use os::{Syscall, CSR_INSTRET, CSR_OS_ENABLE, HALT_PC, SYS_EXIT, SYS_PUTCHAR};
pub use predecode::{step_predecoded, PreDecoded};
pub use reg::{FReg, Reg};
pub use state::ArchState;
