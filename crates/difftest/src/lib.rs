//! **meek-difftest** — differential fuzzing and fault-coverage oracle
//! for the MEEK simulator.
//!
//! The MEEK paper's central claim is that the checker cores catch *any*
//! architectural divergence of the big core. Until now the replay path
//! was exercised only by profile-driven workloads and hand-written
//! tests; nothing adversarially searched for programs where the three
//! executions disagree, or for injected faults the checkers silently
//! miss. This crate closes that gap with four pieces:
//!
//! * a **seed-deterministic program fuzzer** ([`fuzz`]) emitting
//!   arbitrary instruction mixes with real control flow, misaligned and
//!   overlapping memory traffic, CSR churn and kernel traps;
//! * a **three-way co-simulation oracle** ([`cosim`]) lock-stepping the
//!   big core's commit stream, the golden `meek-isa` interpreter, and a
//!   littlecore replay, reporting the first divergence with a
//!   disassembled trace window;
//! * a **fault-coverage oracle** ([`coverage`]) that classifies every
//!   injected [`FaultSpec`] as detected, masked-proven-benign (a golden
//!   twin re-run with and without the corruption behaves identically),
//!   or **escaped** — and escapes fail loudly;
//! * a **shrinker** ([`shrink`]) that minimises a divergent program and
//!   emits it as a ready-to-commit `#[test]`;
//! * a **recovery oracle** ([`recover`], CLI `--recover`) that re-runs
//!   every fault with checkpoint/rollback recovery enabled and demands
//!   that each detected fault end with a final architectural state
//!   (registers, CSRs, memory) equal to the golden interpreter's.
//!
//! The `meek-difftest` CLI fans cases out over the `meek-campaign`
//! executor; its report is byte-identical for a given seed at any
//! `--threads`.
//!
//! # Example
//!
//! ```
//! use meek_difftest::{cosim, fuzz_program, CosimConfig, FuzzConfig};
//!
//! let prog = fuzz_program(7, &FuzzConfig { static_len: 60 });
//! let verdict = cosim::run(&prog, &CosimConfig::default());
//! assert!(verdict.divergence.is_none(), "{}", verdict.divergence.unwrap());
//! assert!(verdict.executed > 0);
//! ```
//!
//! [`FaultSpec`]: meek_core::FaultSpec

pub mod cosim;
pub mod coverage;
pub mod fuzz;
pub mod recover;
pub mod shrink;
pub mod stats;

pub use cosim::{
    golden_run, golden_run_bounded, golden_run_in, run_workload, CosimConfig, CosimVerdict,
    Divergence, GoldenRun,
};
pub use coverage::{arm_span, classify_in, classify_with_in, fault_plan, FaultOutcome};
pub use fuzz::{fuzz_program, FuzzConfig, FuzzProgram};
pub use recover::{verify_recovery_in, verify_recovery_outcome_in, RecoveryVerdict};
pub use shrink::{emit_test, minimize, remove_range_relinked, shrink_insts};
pub use stats::DifftestStats;
