//! The in-repo benchmark suite: eight assembled RV64 kernels committed
//! as `.s` sources, each self-checking and reporting through the
//! console syscall.
//!
//! Every kernel follows the same shape: a `_start` stub that calls
//! `main` and issues the exit syscall, a `main` that does the work and
//! prints `"<name> ok\n"` (or `BAD`) via putchar, and a `.data` section
//! for messages and buffers. The `main` entry point is what
//! [`crate::set`] uses to fuse kernels into multi-workload programs.

use crate::asm::{assemble, Program};
use crate::loader;
use meek_workloads::Workload;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One committed benchmark kernel.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Suite-unique kernel name (also the workload name).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// The committed assembly source.
    pub source: &'static str,
    /// The exact console output of a clean run.
    pub expected_console: &'static str,
}

/// The full suite, in canonical order.
pub const KERNELS: [Kernel; 8] = [
    Kernel {
        name: "memcpy",
        description: "byte-loop copy of a patterned 64-byte buffer, verified",
        source: include_str!("../kernels/memcpy.s"),
        expected_console: "memcpy ok\n",
    },
    Kernel {
        name: "qsort",
        description: "recursive Lomuto quicksort of 24 LCG values, order-checked",
        source: include_str!("../kernels/qsort.s"),
        expected_console: "qsort ok\n",
    },
    Kernel {
        name: "crc32",
        description: "bitwise reflected CRC-32 of a classic test vector",
        source: include_str!("../kernels/crc32.s"),
        expected_console: "crc32 414fa339\n",
    },
    Kernel {
        name: "matmul",
        description: "5x5 integer matrix multiply, row sums verified",
        source: include_str!("../kernels/matmul.s"),
        expected_console: "matmul ok\n",
    },
    Kernel {
        name: "list",
        description: "linked-list build and pointer-chasing traversal",
        source: include_str!("../kernels/list.s"),
        expected_console: "list ok\n",
    },
    Kernel {
        name: "strsearch",
        description: "naive substring search past a near-miss prefix",
        source: include_str!("../kernels/strsearch.s"),
        expected_console: "strsearch ok\n",
    },
    Kernel {
        name: "syscalls",
        description: "trap barrage: unknown syscalls, ebreaks, instret CSR reads",
        source: include_str!("../kernels/syscalls.s"),
        expected_console: "syscalls ok\n",
    },
    Kernel {
        name: "recurse",
        description: "naive recursive Fibonacci, 13 stack frames deep",
        source: include_str!("../kernels/recurse.s"),
        expected_console: "recurse ok\n",
    },
];

/// Looks a kernel up by name.
pub fn kernel(name: &str) -> Option<&'static Kernel> {
    KERNELS.iter().find(|k| k.name == name)
}

/// Assembles a kernel's committed source.
///
/// # Panics
///
/// Panics if the committed source fails to assemble — that is a repo
/// bug, caught by the suite tests.
pub fn program(k: &Kernel) -> Program {
    match assemble(k.name, k.source) {
        Ok(p) => p,
        Err(e) => panic!("committed kernel `{}` fails to assemble: {e}", k.name),
    }
}

/// Assembles and loads a kernel as a standalone [`Workload`].
pub fn workload(k: &Kernel) -> Workload {
    loader::workload(&program(k))
}

/// A generous per-kernel dynamic instruction cap: the largest suite
/// kernel retires ~20k instructions.
pub const KERNEL_INST_CAP: u64 = 200_000;

/// The campaign-facing name of the fused all-kernel multi-workload set
/// (its per-kernel `display_name` is not `'static`).
pub const SET_NAME: &str = "progs-set";

/// Cases in the canonical suite rotation: each kernel once, then the
/// fused all-kernel set.
pub fn rotation_len() -> u64 {
    KERNELS.len() as u64 + 1
}

/// The canonical benchmark rotation shared by `meek-difftest --suite
/// progs` and `meek-serve` difftest jobs: kernels in canonical order,
/// then the fused all-kernel multi-workload set. Each program is
/// assembled on first use and memoised for the process lifetime.
pub fn rotation_workload(case: u64) -> &'static Workload {
    static ROTATION: [OnceLock<Workload>; KERNELS.len() + 1] =
        [const { OnceLock::new() }; KERNELS.len() + 1];
    let slot = (case % rotation_len()) as usize;
    ROTATION[slot].get_or_init(|| match KERNELS.get(slot) {
        Some(k) => workload(k),
        None => crate::set::WorkloadSet::all().fuse(),
    })
}

/// Dynamic instruction counts of every suite workload (and the fused
/// set, under [`SET_NAME`]), measured once on the golden interpreter
/// and memoised for the process lifetime. Fault campaigns use these to
/// bound shard budgets and arm windows to what a program actually
/// retires — a committed kernel runs once and exits, unlike a
/// profile-synthesised loop that fills any budget.
fn dynamic_lens() -> &'static BTreeMap<&'static str, u64> {
    static LENS: OnceLock<BTreeMap<&'static str, u64>> = OnceLock::new();
    LENS.get_or_init(|| {
        let names = KERNELS.iter().map(|k| k.name).chain([SET_NAME]);
        (0..rotation_len())
            .zip(names)
            .map(|(case, name)| {
                (name, crate::loader::run_golden(rotation_workload(case), KERNEL_INST_CAP).retired)
            })
            .collect()
    })
}

/// Instructions `k` retires on a clean golden run (memoised).
pub fn dynamic_len(k: &Kernel) -> u64 {
    dynamic_lens()[k.name]
}

/// Instructions the fused all-kernel set retires on a clean golden run
/// (memoised).
pub fn set_dynamic_len() -> u64 {
    dynamic_lens()[SET_NAME]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::run_golden;

    #[test]
    fn every_kernel_assembles() {
        for k in &KERNELS {
            let p = program(k);
            assert!(!p.code.is_empty(), "{}", k.name);
            assert!(p.symbols.contains_key("main"), "{} must define `main`", k.name);
        }
    }

    #[test]
    fn every_kernel_runs_clean_on_the_golden_interpreter() {
        for k in &KERNELS {
            let out = run_golden(&workload(k), KERNEL_INST_CAP);
            assert!(out.exited, "{} hit the instruction cap", k.name);
            assert_eq!(out.console_text(), k.expected_console, "{} console", k.name);
        }
    }

    #[test]
    fn crc32_output_matches_an_independent_implementation() {
        // Mirror the kernel's algorithm in Rust over the same bytes.
        let msg = b"The quick brown fox jumps over the lazy dog";
        let mut crc: u32 = !0;
        for &b in msg {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        let expected = format!("crc32 {:08x}\n", !crc);
        assert_eq!(kernel("crc32").unwrap().expected_console, expected);
    }

    #[test]
    fn kernel_names_are_unique_and_resolvable() {
        for k in &KERNELS {
            assert_eq!(kernel(k.name).unwrap().name, k.name);
        }
        assert!(kernel("nonexistent").is_none());
    }
}
