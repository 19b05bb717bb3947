//! The MEEK little core: an in-order, 5-stage scalar core (Rocket-class)
//! upgraded with the **Mode Switch Unit** (MSU) and the **Load-Store Log**
//! (LSL) so it can run checker threads (paper §III-C, Fig. 4).
//!
//! The model is the core in *check* mode: the MSU has applied a Start
//! Register Checkpoint (SRCP) to the architectural registers and the
//! Memory-Access stage is multiplexed onto the LSL, so loads return the
//! logged data, stores are compared against the logged address and
//! value, and the segment ends with an End-RCP register-file comparison.
//! [`LittleCore::check`] is the only entry point of that protocol: the
//! system calls it once per little-core cycle, the oracles once per
//! segment.
//!
//! Timing follows a classic 5-stage in-order pipeline: CPI 1 plus
//! structural stalls (iterative divider, FPU pipeline depth, load-use
//! bubble, taken-branch redirect, I-cache misses). The divider unroll
//! factor and FPU depth are the paper's §III-C "performance-gap
//! mitigation" knobs, ablated in Fig. 10.

pub mod config;
pub mod core;
pub mod lsl;

pub use crate::core::{LittleCore, LittleCoreStats, MismatchKind, SegmentVerdict};
pub use config::{LittleCoreConfig, LslConfig};
pub use lsl::{LoadStoreLog, RuntimeRecord, StatusRecord};
