//! **meek-fuzz** — coverage-guided differential fuzzing for the MEEK
//! simulator.
//!
//! `meek-difftest` (PR 2) searches the program × fault space at random;
//! random generation plateaus quickly because the interesting detection
//! corner cases live in *rare combinations* of microarchitectural
//! behaviour — deep fabric backlogs, masked faults at particular sites,
//! trap → CSR sequences, overlapping-access patterns. This crate closes
//! the ROADMAP's coverage-guided-fuzzing item by making exploration
//! *feedback-driven*:
//!
//! * [`coverage`] hashes structured run behaviour into named feature
//!   buckets — instruction-class edges/triples, branch and memory
//!   shapes, CSR transit edges, trap contexts, segment geometry,
//!   verdict × fault-site pairs, fabric-depth / ROB / rollback-depth
//!   high-water buckets. The [`CoverageMap`] is a
//!   [`meek_core::Observer`], fed by the typed `SimEvent` stream and
//!   per-cycle occupancy samples of the very runs the oracle judges.
//! * [`corpus`] keeps the programs that *first discovered* a feature,
//!   with deterministic eviction and byte-stable on-disk persistence.
//! * [`mod@mutate`] is the difftest shrinker's relinker
//!   ([`splice_relinked`]) run in reverse: splice, delete, instruction
//!   mix-shift, branch retarget, dictionary splice — plus fault-plan
//!   mutation in the engine — all preserving decodability and the
//!   data-window discipline.
//! * [`dict`] harvests sanitised real-program fragments from the
//!   `meek-progs` benchmark suite (and from shrunk discoverers during a
//!   run) as the dictionary-splice donor pool.
//! * [`engine`] schedules candidates over the campaign executor in
//!   deterministic rounds, drawing mutation parents by *rarity weight*
//!   (inverse global hit count of the features an entry owns, see
//!   [`parent_weight`]): a fuzz run's corpus directory and
//!   [`FuzzReport`] are byte-identical at any `--threads`.
//!
//! The `meek-fuzz` CLI fronts the engine; `--compare-random` runs the
//! same budget through the purely-random difftest baseline and demands
//! that guided search discover strictly more distinct features.
//!
//! # Example
//!
//! ```
//! use meek_fuzz::{run_fuzz, Corpus, FuzzSettings};
//!
//! let settings = FuzzSettings {
//!     iters: 6,
//!     static_len: 60,
//!     faults_per_case: 1,
//!     threads: 2,
//!     ..FuzzSettings::default()
//! };
//! let (report, corpus, features) = run_fuzz(&settings, Corpus::new(0));
//! assert!(report.clean(), "{report}");
//! assert!(features.len() > 0 && !corpus.is_empty());
//! ```
//!
//! [`CoverageMap`]: coverage::CoverageMap
//! [`splice_relinked`]: meek_difftest::splice_relinked
//! [`FuzzReport`]: report::FuzzReport

pub mod corpus;
pub mod coverage;
pub mod dict;
pub mod engine;
pub mod mutate;
pub mod report;

pub use corpus::{Corpus, CorpusEntry};
pub use coverage::{bucket, feature_id, golden_features, CoverageMap, FeatureSet};
pub use dict::Dictionary;
pub use engine::{parent_weight, run_fuzz, FuzzSettings, EVAL_CAP};
pub use mutate::{mutate, random_simple_inst, self_contained, MutationOp};
pub use report::FuzzReport;
