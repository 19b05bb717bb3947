//! meek-analyze: a static verifier for the RV64 programs every layer of
//! the MEEK reproduction manufactures.
//!
//! MEEK's premise is checking a big OoO core against cheap independent
//! checkers; this crate applies the same idea one level up — a cheap
//! *static* check over the programs we feed the system, run before any
//! simulation. Three cooperating passes produce one
//! [`AnalysisReport`]:
//!
//! * [`mod@cfg`] — decode + control-flow structure: every static branch and
//!   `jal` target must be 4-aligned and in bounds, `jalr`s are counted
//!   as indeterminate unless the value analysis later resolves them,
//!   and (for loader-owned programs) the anchor registers must never be
//!   written.
//! * [`absint`] — a small abstract interpretation (constant/interval
//!   register tracking seeded by the loader's x26/x27 data-window
//!   contract) that walks the CFG to a fixpoint, proving data-window
//!   containment for statically-resolvable loads/stores, absence of
//!   self-modifying stores, and a conservative dynamic-length bound for
//!   loop-free programs.
//! * [`prescreen`] — an exact bounded concrete walk of the entry path
//!   that forecasts *guaranteed* golden-interpreter traps (wild
//!   concrete jumps into unmapped memory, undecodable fetches). The
//!   fuzz engine uses it to reject provably-trapping mutants without
//!   paying for a golden run.
//!
//! Both value passes fold integer ALU ops with the golden executor's
//! own rules ([`meek_isa::exec::alu`] and [`meek_isa::exec::alu_imm`]),
//! so a constant the analyzer derives is, by construction, the value
//! the interpreter computes.
//!
//! The report separates **violations** (provable breaches of the
//! program contract: every flagged program is genuinely malformed) from
//! the **trap forecast** (a mutated program may legitimately trap — the
//! fuzz engine rejects it exactly like the golden pre-screen would).
//! Facts the analysis cannot resolve are *counted*, never flagged:
//! verdicts cover the statically-decidable subset and are free of false
//! positives by construction.

pub mod absint;
pub mod cfg;
pub mod prescreen;

use meek_isa::inst::Inst;
use meek_isa::{decode, Reg};
use std::fmt;

pub use absint::AbsVal;
pub use cfg::{check_fragment, jump_targets_ok, FragmentReject};
pub use prescreen::concrete_walk;

/// A program's writable data window, with the tolerance its oracles
/// grant around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First byte of the window (the x26 anchor value).
    pub base: u64,
    /// Window size in bytes (x27 holds `size - 1`).
    pub size: u64,
    /// Accesses within `slack` bytes of either edge are tolerated —
    /// the fuzzer's clamped offsets can graze past the window and its
    /// difftest oracles accept that.
    pub slack: u64,
}

impl Window {
    /// Whether the byte span `[lo, hi]` is provably disjoint from the
    /// window plus its slack.
    pub fn disjoint(&self, lo: u64, hi: u64) -> bool {
        let wlo = self.base.saturating_sub(self.slack);
        let whi = self.base.saturating_add(self.size).saturating_add(self.slack);
        hi < wlo || lo >= whi
    }
}

/// How a program terminates cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitModel {
    /// Execution falls off the last instruction (the fuzzer's exit PC
    /// is one past the end of the program).
    FallsOffEnd,
    /// Execution redirects to a halt PC (the loader's syscall exit).
    HaltPc(u64),
}

/// The static contract a program is analyzed against — what the loader
/// or generator guarantees about the entry state and memory layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Program name, echoed into the report.
    pub name: String,
    /// Address of instruction index 0.
    pub code_base: u64,
    /// How the program exits.
    pub exit: ExitModel,
    /// Integer register file at entry (`x0` ignored). All-zero for
    /// fuzzed programs; the loader contract (sp, x26, x27) for loaded
    /// images.
    pub entry_regs: [u64; 32],
    /// The writable data window, if the program declares one.
    pub window: Option<Window>,
    /// Whether the OS syscall surface starts enabled (`ecall` may exit).
    pub os_enabled: bool,
    /// Whether every word must decode (fuzzed programs are contiguous;
    /// fused images contain never-fetched zero padding between code
    /// slots, where only *reachable* undecodable words count).
    pub contiguous: bool,
    /// Whether the anchor registers are loader-owned: any program text
    /// writing x26/x27 is a violation. Off for fuzzed programs (their
    /// preamble materialises the anchors) and fused sets (the scheduler
    /// stub re-anchors per member).
    pub strict_anchors: bool,
    /// Whether a provably out-of-window access is a violation. On for
    /// loaded programs; off for fuzzed programs, where the window
    /// discipline is structural (all memory goes through the masked
    /// data pointer) and the oracles tolerate slack.
    pub strict_window: bool,
    /// Extra memory spans `(base, len)` that hold initialised data —
    /// the trap forecast never claims a fetch from these will trap.
    pub mapped: Vec<(u64, u64)>,
}

impl ProgramSpec {
    /// A minimal spec: code at `code_base`, all registers zero, exit by
    /// falling off the end, nothing mapped, nothing strict.
    pub fn bare(name: &str, code_base: u64) -> ProgramSpec {
        ProgramSpec {
            name: name.to_string(),
            code_base,
            exit: ExitModel::FallsOffEnd,
            entry_regs: [0; 32],
            window: None,
            os_enabled: false,
            contiguous: true,
            strict_anchors: false,
            strict_window: false,
            mapped: Vec::new(),
        }
    }
}

/// A provable breach of the program contract. Every variant is
/// definitive: the analysis only flags what it can prove, so a single
/// violation means the program is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The word at `index` does not decode (and, for non-contiguous
    /// images, is statically reachable).
    Undecodable {
        /// Instruction index.
        index: usize,
        /// The offending word.
        word: u32,
    },
    /// A branch or `jal` at `index` targets outside the program.
    WildJump {
        /// Instruction index of the jump.
        index: usize,
        /// Target in instruction-index units (may be negative).
        target: i64,
    },
    /// A branch or `jal` displacement at `index` is not 4-aligned.
    MisalignedJump {
        /// Instruction index of the jump.
        index: usize,
        /// The byte displacement.
        offset: i64,
    },
    /// Program text writes a loader-owned anchor register.
    AnchorClobber {
        /// Instruction index of the write.
        index: usize,
        /// The anchor register written (x26 or x27).
        reg: Reg,
    },
    /// A load/store at `index` is provably outside the data window
    /// (every possible address misses the window plus slack).
    OutOfWindow {
        /// Instruction index of the access.
        index: usize,
        /// Lowest possible accessed byte.
        lo: u64,
        /// Highest possible accessed byte.
        hi: u64,
    },
    /// A store at `index` provably lands inside the code span —
    /// self-modifying code, which the replay way (incoherent I-cache
    /// model) cannot follow.
    SelfModifyingStore {
        /// Instruction index of the store.
        index: usize,
        /// Lowest possible stored byte.
        lo: u64,
        /// Highest possible stored byte.
        hi: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::Undecodable { index, word } => {
                write!(f, "[{index}] word {word:#010x} does not decode")
            }
            Violation::WildJump { index, target } => {
                write!(f, "[{index}] jump targets instruction {target} (outside the program)")
            }
            Violation::MisalignedJump { index, offset } => {
                write!(f, "[{index}] jump displacement {offset} is not 4-aligned")
            }
            Violation::AnchorClobber { index, reg } => {
                write!(f, "[{index}] writes loader-owned anchor register {reg:?}")
            }
            Violation::OutOfWindow { index, lo, hi } => {
                write!(f, "[{index}] access {lo:#x}..={hi:#x} provably misses the data window")
            }
            Violation::SelfModifyingStore { index, lo, hi } => {
                write!(f, "[{index}] store {lo:#x}..={hi:#x} provably lands in the code span")
            }
        }
    }
}

/// A forecast that the golden interpreter is *guaranteed* to trap on
/// this program — not a contract violation (mutated fuzz candidates
/// legitimately trap; the engine rejects them), but a verdict the fuzz
/// pre-screen can act on without running the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapForecast {
    /// Instructions retired before the trapping fetch.
    pub step: u64,
    /// Instruction index of the last retired instruction.
    pub index: usize,
    /// PC of the fetch that traps.
    pub target: u64,
}

impl fmt::Display for TrapForecast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "guaranteed trap: fetch at {:#x} after {} retired (from [{}])",
            self.target, self.step, self.index
        )
    }
}

/// The typed result of analyzing one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Program name (from the spec).
    pub name: String,
    /// Static instruction slots analyzed.
    pub len: usize,
    /// Provable contract breaches (empty for every well-formed program).
    pub violations: Vec<Violation>,
    /// Proof that the golden interpreter traps on the entry path.
    pub guaranteed_trap: Option<TrapForecast>,
    /// Basic blocks among statically-reached code.
    pub blocks: usize,
    /// Static CFG edges among statically-reached code.
    pub edges: usize,
    /// Instruction slots the analysis reached from the entry.
    pub reachable: usize,
    /// Writes to the anchor registers in program text (the fuzz
    /// preamble owns exactly three).
    pub anchor_writes: usize,
    /// Reachable indirect jumps whose target the value analysis could
    /// not resolve (analysis stops following the path there).
    pub indeterminate_jumps: usize,
    /// Reachable indirect jumps resolved to a static target.
    pub resolved_jumps: usize,
    /// Reachable memory accesses with a provable address interval.
    pub resolved_accesses: usize,
    /// Reachable memory accesses with unresolvable addresses.
    pub unknown_accesses: usize,
    /// Whether the statically-reached CFG contains a cycle.
    pub has_loops: bool,
    /// For loop-free programs with no indeterminate jumps: an upper
    /// bound on dynamically retired instructions.
    pub straightline_bound: Option<u64>,
}

impl AnalysisReport {
    /// Whether the program passes every verdict: no violations and no
    /// guaranteed trap.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.guaranteed_trap.is_none()
    }

    /// The verdict in words: `clean`, the violation count, a guaranteed
    /// trap, or both findings.
    pub fn verdict(&self) -> String {
        match (self.violations.len(), self.guaranteed_trap.is_some()) {
            (0, false) => "clean".into(),
            (0, true) => "guaranteed trap".into(),
            (n, false) => format!("{n} violation(s)"),
            (n, true) => format!("{n} violation(s) and a guaranteed trap"),
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} insts, {} blocks, {} edges, {} reachable{}",
            self.name,
            self.len,
            self.blocks,
            self.edges,
            self.reachable,
            if self.has_loops { ", loops" } else { "" },
        )?;
        writeln!(
            f,
            "  jumps: {} resolved, {} indeterminate; accesses: {} resolved, {} unknown; anchor writes: {}",
            self.resolved_jumps,
            self.indeterminate_jumps,
            self.resolved_accesses,
            self.unknown_accesses,
            self.anchor_writes,
        )?;
        match self.straightline_bound {
            Some(b) => writeln!(f, "  loop-free: dynamic length <= {b}")?,
            None => writeln!(f, "  no static dynamic-length bound")?,
        }
        if let Some(t) = &self.guaranteed_trap {
            writeln!(f, "  {t}")?;
        }
        writeln!(f, "  verdict: {}", self.verdict())?;
        for v in &self.violations {
            writeln!(f, "    {v}")?;
        }
        Ok(())
    }
}

/// Analyzes a program given as raw instruction words.
pub fn analyze_words(words: &[u32], spec: &ProgramSpec) -> AnalysisReport {
    let decoded: Vec<Option<Inst>> = words.iter().map(|&w| decode(w).ok()).collect();
    analyze_decoded(words, &decoded, spec)
}

/// Analyzes a program given as decoded instructions (all slots valid).
pub fn analyze_insts(insts: &[Inst], spec: &ProgramSpec) -> AnalysisReport {
    let words: Vec<u32> = insts.iter().map(meek_isa::encode).collect();
    let decoded: Vec<Option<Inst>> = insts.iter().copied().map(Some).collect();
    analyze_decoded(&words, &decoded, spec)
}

fn analyze_decoded(words: &[u32], decoded: &[Option<Inst>], spec: &ProgramSpec) -> AnalysisReport {
    let structure = cfg::scan(words, decoded, spec);
    let flow = absint::run(decoded, spec, structure.os_touched);
    let trap = prescreen::concrete_walk(decoded, spec);
    let mut violations = structure.violations;
    violations.extend(flow.violations.iter().copied());
    violations.sort_by_key(violation_order);
    violations.dedup();
    AnalysisReport {
        name: spec.name.clone(),
        len: decoded.len(),
        violations,
        guaranteed_trap: trap,
        blocks: flow.blocks,
        edges: flow.edges,
        reachable: flow.reachable,
        anchor_writes: structure.anchor_writes,
        indeterminate_jumps: flow.indeterminate_jumps,
        resolved_jumps: flow.resolved_jumps,
        resolved_accesses: flow.resolved_accesses,
        unknown_accesses: flow.unknown_accesses,
        has_loops: flow.has_loops,
        straightline_bound: flow.straightline_bound,
    }
}

/// Fast static pre-screen for the fuzz engine: `Some` only when the
/// golden interpreter is guaranteed to trap on this program.
pub fn static_reject(words: &[u32], spec: &ProgramSpec) -> Option<TrapForecast> {
    let decoded: Vec<Option<Inst>> = words.iter().map(|&w| decode(w).ok()).collect();
    prescreen::concrete_walk(&decoded, spec)
}

fn violation_order(v: &Violation) -> (usize, usize) {
    match *v {
        Violation::Undecodable { index, .. } => (index, 0),
        Violation::WildJump { index, .. } => (index, 1),
        Violation::MisalignedJump { index, .. } => (index, 2),
        Violation::AnchorClobber { index, .. } => (index, 3),
        Violation::OutOfWindow { index, .. } => (index, 4),
        Violation::SelfModifyingStore { index, .. } => (index, 5),
    }
}

#[cfg(test)]
mod tests;
