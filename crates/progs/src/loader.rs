//! Turns an assembled [`Program`] into a runnable
//! [`meek_workloads::Workload`] image.
//!
//! Loaded programs follow the same conventions the synthetic workload
//! sources do, so every execution way (golden interpreter, big-core
//! oracle feed, little-core replay) runs them unchanged:
//!
//! * `x26`/`x27` hold the writable data window's base and mask — the
//!   x26/x27 data-window discipline the fuzzer and codegen already obey;
//! * `sp` starts at the top of that window and grows down into it;
//! * the OS surface CSR ([`meek_isa::CSR_OS_ENABLE`]) is pre-set, so
//!   `ecall` exit/putchar and the retired-instruction CSR work;
//! * the exit PC is [`meek_isa::HALT_PC`] — programs leave via the exit
//!   syscall, not by running off the end.

use crate::asm::Program;
use meek_isa::{ArchState, Reg, SparseMemory, Trap, CSR_OS_ENABLE, HALT_PC};
use meek_workloads::Workload;

/// Default per-program writable window: 64 KiB of data + stack.
pub const DATA_WINDOW: u64 = 0x1_0000;

/// Bytes at the top of the window reserved for the stack.
pub const STACK_RESERVE: u64 = 4096;

/// Packs little-endian bytes into the word stream `SparseMemory` loads.
pub(crate) fn pack_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks(4)
        .map(|c| {
            let mut w = [0u8; 4];
            w[..c.len()].copy_from_slice(c);
            u32::from_le_bytes(w)
        })
        .collect()
}

/// Builds the initial architectural state for a program whose data
/// window is `window` bytes at `data_base`.
fn initial_state(entry: u64, data_base: u64, window: u64) -> ArchState {
    let mut st = ArchState::new(entry);
    st.set_x(Reg::X2, data_base + window); // sp at window top, grows down
    st.set_x(Reg::X26, data_base); // window base
    st.set_x(Reg::X27, window - 1); // window mask
    st.set_csr(CSR_OS_ENABLE, 1);
    st
}

/// Loads `prog` as a standalone workload with a [`DATA_WINDOW`]-byte
/// window at its data base. The loader contract is not checked here:
/// the committed kernels are pinned clean by a test, and `meek-progs
/// run` checks a user's program with [`crate::analyze_program`].
///
/// # Errors
///
/// Returns a message if the program's initialised data plus
/// [`STACK_RESERVE`] overflows the window.
pub fn workload(prog: &Program) -> Result<Workload, String> {
    if prog.data.len() as u64 + STACK_RESERVE > DATA_WINDOW {
        return Err(format!(
            "{}: {} data bytes overflow the {DATA_WINDOW}-byte window",
            prog.name,
            prog.data.len()
        ));
    }
    let mut image = SparseMemory::new();
    image.load_program(prog.code_base, &prog.code);
    if !prog.data.is_empty() {
        image.load_program(prog.data_base, &pack_words(&prog.data));
    }
    let name: &'static str = Box::leak(prog.name.clone().into_boxed_str());
    Ok(Workload::from_image(
        name,
        image,
        prog.code_base,
        HALT_PC,
        prog.code.len(),
        initial_state(prog.code_base, prog.data_base, DATA_WINDOW),
    )
    .with_data_window(prog.data_base, DATA_WINDOW))
}

/// The result of a functional (golden-interpreter) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Bytes the program wrote through the putchar syscall.
    pub console: Vec<u8>,
    /// Instructions retired.
    pub retired: u64,
    /// Whether the program reached its exit PC (`false` means it hit
    /// the instruction cap first).
    pub exited: bool,
}

impl RunOutcome {
    /// The console as UTF-8 (lossy) for display.
    pub fn console_text(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }
}

/// Runs `wl` to completion (or `max_insts`) on the golden interpreter.
///
/// # Errors
///
/// The trap of a program that executes a word that does not decode,
/// such as one that runs off the end of its code.
pub fn run_golden(wl: &Workload, max_insts: u64) -> Result<RunOutcome, Trap> {
    let mut run = wl.run(max_insts);
    while run.try_next_retired()?.is_some() {}
    Ok(RunOutcome {
        console: run.console(),
        retired: run.executed(),
        exited: run.state().pc == wl.exit_pc(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    const HELLO: &str = r#"
_start:
    call main
    li a7, 93
    ecall
main:
    addi sp, sp, -16
    sd ra, 0(sp)
    la t0, msg
loop:
    lbu a0, 0(t0)
    beqz a0, done
    li a7, 64
    ecall
    addi t0, t0, 1
    j loop
done:
    ld ra, 0(sp)
    addi sp, sp, 16
    ret
.data
msg:
    .asciz "hello\n"
"#;

    #[test]
    fn hello_world_runs_to_exit() {
        let prog = assemble("hello", HELLO).unwrap();
        let wl = workload(&prog).unwrap();
        let out = run_golden(&wl, 10_000).unwrap();
        assert!(out.exited, "program must reach the exit syscall");
        assert_eq!(out.console_text(), "hello\n");
        assert!(out.retired > 10);
    }

    #[test]
    fn loader_sets_window_discipline_registers() {
        let prog = assemble("hello", HELLO).unwrap();
        let wl = workload(&prog).unwrap();
        let st = wl.initial_state();
        assert_eq!(st.x(Reg::X26), prog.data_base);
        assert_eq!(st.x(Reg::X27), DATA_WINDOW - 1);
        assert_eq!(st.x(Reg::X2), prog.data_base + DATA_WINDOW);
        assert_eq!(st.csr(CSR_OS_ENABLE), 1);
        assert_eq!(wl.data_window(), Some((prog.data_base, DATA_WINDOW)));
        assert_eq!(wl.exit_pc(), HALT_PC);
    }

    #[test]
    fn capped_run_reports_no_exit() {
        let prog = assemble("hello", HELLO).unwrap();
        let wl = workload(&prog).unwrap();
        let out = run_golden(&wl, 5).unwrap();
        assert!(!out.exited);
        assert_eq!(out.retired, 5);
    }

    #[test]
    fn a_program_that_runs_off_its_code_is_a_trap_not_a_panic() {
        let prog = assemble("off", "lui a0, -1").unwrap();
        let trap = run_golden(&workload(&prog).unwrap(), 100).unwrap_err();
        assert_eq!(trap, Trap::IllegalInstruction { pc: prog.code_base + 4, word: 0 });
    }

    #[test]
    fn data_that_overflows_the_window_is_an_error() {
        let source = format!("_start:\n    li a7, 93\n    ecall\n.data\n    .zero {DATA_WINDOW}\n");
        let err = workload(&assemble("big", &source).unwrap()).unwrap_err();
        assert!(err.contains("overflow the 65536-byte window"), "{err}");
    }
}
