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
//! Every caller drives the oracles through one [`Case`]. A
//! [`DifftestJob`] is the case grid as its front ends name it: the
//! `meek-difftest` CLI reads one from its flags and serve from a job's
//! JSON, and both run [`run_case`] per grid cell and fold the reports
//! into one [`Tally`]. The CLI fans cases out over the `meek-campaign`
//! executor, and its report is byte-identical for a given seed at any
//! `--threads`.
//!
//! # Example
//!
//! ```
//! use meek_difftest::{fuzz_program, Case, CosimConfig, FuzzConfig};
//!
//! let wl = fuzz_program(7, &FuzzConfig { static_len: 60 }).workload();
//! let case = Case::new(&wl, &CosimConfig::default());
//! assert!(case.verdict().divergence.is_none());
//! for spec in case.plan(7) {
//!     assert!(!case.classify(spec).is_escape());
//! }
//! ```
//!
//! [`FaultSpec`]: meek_core::FaultSpec

mod case;
pub mod cosim;
pub mod coverage;
pub mod fuzz;
mod job;
pub mod recover;
pub mod shrink;
pub mod stats;

pub use case::{case_seed, run_case, Case, CaseReport, Suite};
pub use cosim::{golden_run_in, CosimConfig, CosimVerdict, Divergence, GoldenRun};
#[doc(hidden)]
pub use coverage::classify_in;
pub use coverage::{arm_span, fault_plan, FaultOutcome, PLAN_SITES};
pub use fuzz::{fuzz_program, FuzzConfig, FuzzProgram};
pub use job::DifftestJob;
#[doc(hidden)]
pub use recover::verify_recovery_in;
pub use recover::RecoveryVerdict;
pub use shrink::{
    emit_test, jump_pair_at, jump_triplet_at, minimize, shrink_insts, splice_relinked,
};
pub use stats::Tally;
