//! Multi-workload sets: several assembled programs fused into one
//! image with a scheduler stub that context-switches between them
//! mid-run.
//!
//! Each member program is assembled into its own code slot and given
//! its own data window. The generated scheduler stub runs them in
//! order: before each program it installs that program's data-window
//! discipline (`x26` base, `x27` mask, `sp` at the window top) and
//! calls its `main`; after the last program it issues the exit syscall.
//! The context switches are ordinary instructions, so every execution
//! way — golden interpreter, big-core feed, little-core replay — and
//! the full fault-injection/recovery machinery handle a fused set with
//! no special cases.

use crate::asm::{assemble_with, AsmConfig, Program};
use crate::loader::{pack_words, DATA_WINDOW, STACK_RESERVE};
use crate::suite::Kernel;
use meek_isa::inst::AluImmOp;
use meek_isa::{encode, ArchState, Inst, Reg, SparseMemory, CSR_OS_ENABLE, HALT_PC};
use meek_workloads::Workload;

/// Entry address of the generated scheduler stub.
pub const STUB_BASE: u64 = 0x1000;

/// Code-slot stride: program `i`'s code goes at `CODE_SLOT * (i + 1)`.
pub const CODE_SLOT: u64 = 0x8000;

/// First data window; program `i`'s window is `DATA_WINDOW` further.
pub const DATA_BASE: u64 = 0x1000_0000;

/// An ordered selection of suite kernels to fuse into one run.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    kernels: Vec<&'static Kernel>,
}

impl WorkloadSet {
    /// Builds a set from kernel names, in the given order.
    pub fn from_names(names: &[&str]) -> Result<WorkloadSet, String> {
        if names.is_empty() {
            return Err("a workload set needs at least one kernel".into());
        }
        let kernels = names
            .iter()
            .map(|n| crate::suite::kernel(n).ok_or_else(|| format!("unknown kernel `{n}`")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WorkloadSet { kernels })
    }

    /// The full suite, in canonical order.
    pub fn all() -> WorkloadSet {
        WorkloadSet { kernels: crate::suite::KERNELS.iter().collect() }
    }

    /// Member kernels, in run order.
    pub fn kernels(&self) -> &[&'static Kernel] {
        &self.kernels
    }

    /// The exact console output of a clean fused run: each member's
    /// output, concatenated in run order.
    pub fn expected_console(&self) -> String {
        self.kernels.iter().map(|k| k.expected_console).collect()
    }

    /// A `+`-joined display name.
    pub fn display_name(&self) -> String {
        self.kernels.iter().map(|k| k.name).collect::<Vec<_>>().join("+")
    }

    /// Assembles every member into its slot and fuses them into one
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if a committed kernel fails to assemble (a repo bug).
    pub fn fuse(&self) -> Workload {
        let programs: Vec<Program> = self
            .kernels
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let cfg = AsmConfig {
                    code_base: CODE_SLOT * (i as u64 + 1),
                    data_base: DATA_BASE + i as u64 * DATA_WINDOW,
                };
                match assemble_with(k.name, k.source, &cfg) {
                    Ok(p) => p,
                    Err(e) => panic!("kernel `{}` fails to assemble: {e}", k.name),
                }
            })
            .collect();
        match fuse_programs(&self.display_name(), &programs) {
            Ok(wl) => wl,
            Err(e) => panic!("fusing `{}` failed: {e}", self.display_name()),
        }
    }
}

/// Fuses pre-assembled programs (each defining `main`, each laid out in
/// a disjoint code slot above [`STUB_BASE`] with a [`DATA_WINDOW`]-byte
/// data window) into a single workload driven by a generated scheduler
/// stub.
pub fn fuse_programs(name: &str, programs: &[Program]) -> Result<Workload, String> {
    if programs.is_empty() {
        return Err("cannot fuse an empty program list".into());
    }
    let mut stub: Vec<Inst> = Vec::new();
    let mut jal_patch: Vec<(usize, u64)> = Vec::new(); // (stub index, target addr)
    for prog in programs {
        let Some(&main) = prog.symbols.get("main") else {
            return Err(format!("program `{}` does not define `main`", prog.name));
        };
        if prog.data.len() as u64 + STACK_RESERVE > DATA_WINDOW {
            return Err(format!("program `{}` overflows its data window", prog.name));
        }
        let window_top = prog.data_base + DATA_WINDOW;
        // The window bases are DATA_WINDOW-aligned, so a bare lui loads
        // each of these constants exactly.
        debug_assert_eq!(window_top & 0xFFF, 0);
        debug_assert_eq!(prog.data_base & 0xFFF, 0);
        stub.push(Inst::Lui { rd: Reg::X2, imm: (window_top >> 12) as i32 });
        stub.push(Inst::Lui { rd: Reg::X26, imm: (prog.data_base >> 12) as i32 });
        stub.push(Inst::Lui { rd: Reg::X27, imm: (DATA_WINDOW >> 12) as i32 });
        stub.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X27, rs1: Reg::X27, imm: -1 });
        jal_patch.push((stub.len(), main));
        stub.push(Inst::Jal { rd: Reg::X1, offset: 0 }); // patched below
    }
    stub.push(Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X17, rs1: Reg::X0, imm: 93 });
    stub.push(Inst::Ecall);
    for (idx, target) in jal_patch {
        let pc = STUB_BASE + 4 * idx as u64;
        let offset = target.wrapping_sub(pc) as i64;
        if offset % 2 != 0 || !(-(1 << 20)..(1 << 20)).contains(&offset) {
            return Err(format!("scheduler jal to {target:#x} out of range"));
        }
        stub[idx] = Inst::Jal { rd: Reg::X1, offset: offset as i32 };
    }

    let mut image = SparseMemory::new();
    let stub_words: Vec<u32> = stub.iter().map(encode).collect();
    image.load_program(STUB_BASE, &stub_words);
    let mut code_end = STUB_BASE + 4 * stub_words.len() as u64;
    let mut window_end = DATA_BASE + DATA_WINDOW;
    for prog in programs {
        if prog.code_base < code_end {
            return Err(format!("program `{}` overlaps earlier code", prog.name));
        }
        image.load_program(prog.code_base, &prog.code);
        code_end = prog.code_base + 4 * prog.code.len() as u64;
        if !prog.data.is_empty() {
            image.load_program(prog.data_base, &pack_words(&prog.data));
        }
        window_end = window_end.max(prog.data_base + DATA_WINDOW);
    }

    let mut initial = ArchState::new(STUB_BASE);
    initial.set_csr(CSR_OS_ENABLE, 1);
    let static_len = ((code_end - STUB_BASE) / 4) as usize;
    let window_span = (window_end - DATA_BASE).next_power_of_two();
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    Ok(Workload::from_image(leaked, image, STUB_BASE, HALT_PC, static_len, initial)
        .with_data_window(DATA_BASE, window_span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::run_golden;

    #[test]
    fn fused_pair_runs_both_kernels_in_order() {
        let set = WorkloadSet::from_names(&["memcpy", "recurse"]).unwrap();
        let wl = set.fuse();
        let out = run_golden(&wl, 500_000).unwrap();
        assert!(out.exited, "fused pair hit the cap");
        assert_eq!(out.console_text(), "memcpy ok\nrecurse ok\n");
    }

    #[test]
    fn full_suite_fuses_and_context_switches_cleanly() {
        let set = WorkloadSet::all();
        let wl = set.fuse();
        let out = run_golden(&wl, 500_000).unwrap();
        assert!(out.exited, "fused suite hit the cap");
        assert_eq!(out.console_text(), set.expected_console());
    }

    #[test]
    fn unknown_kernel_names_are_rejected() {
        assert!(WorkloadSet::from_names(&["memcpy", "nope"]).is_err());
        assert!(WorkloadSet::from_names(&[]).is_err());
    }

    #[test]
    fn fused_workload_declares_a_covering_data_window() {
        let set = WorkloadSet::from_names(&["list", "strsearch", "syscalls"]).unwrap();
        let wl = set.fuse();
        let (base, size) = wl.data_window().unwrap();
        assert_eq!(base, DATA_BASE);
        assert!(size >= 3 * DATA_WINDOW, "window must cover all three slots");
        assert!(size.is_power_of_two());
    }
}
