//! Memory-hierarchy timing models for the MEEK simulator.
//!
//! The functional contents of memory live in `meek_isa::SparseMemory`;
//! this crate models *when* accesses complete: set-associative caches with
//! LRU replacement and MSHR-limited miss handling, a bandwidth-limited
//! DRAM, and the multi-level [`MemHierarchy`] of the paper's Table II.
//!
//! Tag state is materialised per set on first fill, so a cold hierarchy
//! costs a small per-set index rather than its full capacity, and
//! [`MemHierarchy::state_bytes`] counts what a run has touched. Each
//! little core models the SoC L2/LLC with its own tag copy, so the
//! shared levels are built once per core, not shared between them.
//!
//! It also provides the [`parity`] helpers modelling the paper's LSQ
//! protection (footnote 2: cache parity bits are copied into the LSQ and
//! double-checked when data is forwarded to the F2 fabric).
//!
//! All latencies are expressed in cycles of whichever clock domain owns
//! the hierarchy; the configs in [`config`] are written for the big core's
//! 3.2 GHz domain and the little cores' 1.6 GHz domain respectively.

pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod parity;
pub mod undo;

pub use cache::{AccessKind, Cache, CacheStats};
pub use config::{CacheConfig, HierarchyConfig};
pub use dram::Dram;
pub use hierarchy::{AccessOutcome, MemHierarchy, ServedBy};
pub use parity::{byte_parity, check_parity, Parity};
pub use undo::{JournaledMem, UndoEntry, UndoLog, UNDO_ENTRY_BYTES};
