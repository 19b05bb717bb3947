//! Program synthesis: turns a [`BenchmarkProfile`] into a real, runnable
//! RISC-V program with the profile's dynamic character.
//!
//! The generated program is one large loop of profile-mixed instructions:
//!
//! * loads/stores address the profile's working set through two pointer
//!   registers — one re-pointed pseudo-randomly (xorshift), one streaming
//!   sequentially — in the profile's `random_access` proportion;
//! * conditional branches are either statically biased (learnable by
//!   TAGE) or compare pseudo-random chain registers (data-driven, i.e.
//!   effectively unpredictable), in the profile's
//!   `branch_predictability` proportion; all conditional branches target
//!   the next instruction, so both outcomes retire the same dynamic
//!   stream while still exercising the predictor and redirect machinery;
//! * integer/FP compute forms dependence chains over a small register
//!   pool, periodically re-seeded from the xorshift state so values stay
//!   live (and so corrupted replay data visibly propagates to stores and
//!   checkpoints);
//! * divides use a guaranteed non-zero divisor register.
//!
//! Class selection is *deficit-driven*: each step emits the class whose
//! realised fraction lags its target most, with addressing/support
//! instructions booked against the ALU budget, so realised mixes track
//! the profile closely.

use crate::profile::BenchmarkProfile;
use meek_isa::inst::{AluImmOp, AluOp, BranchOp, FpOp, Inst, LoadOp, MulDivOp, StoreOp};
use meek_isa::state::RegCheckpoint;
use meek_isa::{
    encode, step_predecoded, ArchState, Bus, FReg, PreDecoded, Reg, Retired, SparseMemory, Trap,
};
use meek_mem::{JournaledMem, UndoLog};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Base address of the generated code.
pub const CODE_BASE: u64 = 0x1000;
/// Base address of the working-set data region.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Address of the FP constant pool.
const FP_CONST_BASE: u64 = 0x00F0_0000;

// Register conventions of the generated code.
const R_BASE: Reg = Reg::X5; // data base pointer
const CHAIN: [Reg; 6] = [Reg::X6, Reg::X7, Reg::X8, Reg::X9, Reg::X10, Reg::X11];
const R_DIVISOR: Reg = Reg::X12; // non-zero divide guard
const R_XS: Reg = Reg::X14; // xorshift state
const R_TMP: Reg = Reg::X15; // scratch
const R_RANDPTR: Reg = Reg::X18; // pseudo-random pointer
const R_STREAMPTR: Reg = Reg::X19; // streaming pointer
const R_LOOP: Reg = Reg::X20; // loop counter
const R_MASK: Reg = Reg::X24; // working-set mask (full)
const R_HOTMASK: Reg = Reg::X25; // hot-region mask (L1-resident tier)
const R_MIDMASK: Reg = Reg::X26; // warm-region mask (L2-resident tier)

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Alu,
    Load,
    Store,
    Branch,
    Mul,
    Div,
    FpAdd,
    FpMul,
    FpDiv,
}

const CLASSES: [Class; 9] = [
    Class::Alu,
    Class::Load,
    Class::Store,
    Class::Branch,
    Class::Mul,
    Class::Div,
    Class::FpAdd,
    Class::FpMul,
    Class::FpDiv,
];

/// A generated workload: program image plus entry metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (from the profile).
    pub name: &'static str,
    image: SparseMemory,
    entry: u64,
    exit_pc: u64,
    /// Static instructions in the program.
    pub static_len: usize,
    initial: ArchState,
    /// Declared writable data window `(base, size)`, when the program
    /// source knows it (codegen working set, fuzz pointer-masked window,
    /// loaded-image `.data` span). `None` for images with no declared
    /// window.
    data_window: Option<(u64, u64)>,
    /// The code span decoded once at construction — every execution way
    /// (golden oracle, big-core feed, little-core replay) consumes this
    /// table instead of re-decoding words in its hot loop.
    predecoded: Arc<PreDecoded>,
}

impl Workload {
    /// Synthesises a program for `profile` with a deterministic `seed`.
    pub fn build(profile: &BenchmarkProfile, seed: u64) -> Workload {
        Generator::new(profile, seed).generate()
    }

    /// Wraps an arbitrary pre-built program image as a workload, so
    /// external generators (the difftest fuzzer) can run programs the
    /// profile-driven codegen would never emit through the full MEEK
    /// system. The program must be trap-free along its executed path and
    /// reach `exit_pc` (or the run cap) like generated workloads do.
    pub fn from_image(
        name: &'static str,
        image: SparseMemory,
        entry: u64,
        exit_pc: u64,
        static_len: usize,
        initial: ArchState,
    ) -> Workload {
        let predecoded = Arc::new(PreDecoded::from_image(&image, entry, static_len));
        Workload { name, image, entry, exit_pc, static_len, initial, data_window: None, predecoded }
    }

    /// Declares the program's writable data window `(base, size)` — the
    /// span its stores are confined to. `SimBuilder` validates declared
    /// windows against the code span, and loaded images use it to obey
    /// the x26/x27 base/mask data discipline.
    pub fn with_data_window(mut self, base: u64, size: u64) -> Workload {
        self.data_window = Some((base, size));
        self
    }

    /// The declared writable data window `(base, size)`, if any.
    pub fn data_window(&self) -> Option<(u64, u64)> {
        self.data_window
    }

    /// The architectural state a run starts from (loaded images carry
    /// non-trivial initial register/CSR state: stack pointer, data-window
    /// base/mask registers, the OS-surface enable CSR).
    pub fn initial_state(&self) -> &ArchState {
        &self.initial
    }

    /// The read-only program image (little cores fetch from this).
    pub fn image(&self) -> &SparseMemory {
        &self.image
    }

    /// Entry PC.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// PC one past the last instruction — reaching it ends a run.
    pub fn exit_pc(&self) -> u64 {
        self.exit_pc
    }

    /// The pre-decoded code table, shared by every execution way.
    pub fn predecoded(&self) -> &Arc<PreDecoded> {
        &self.predecoded
    }

    /// Starts a functional run capped at `max_insts` retired instructions.
    pub fn run(&self, max_insts: u64) -> WorkloadRun {
        WorkloadRun {
            st: self.initial.clone(),
            mem: self.image.clone(),
            exit_pc: self.exit_pc,
            executed: 0,
            cap: max_insts,
            undo: None,
            console: Vec::new(),
            predecoded: Arc::clone(&self.predecoded),
        }
    }
}

/// A functional execution of a [`Workload`]: the oracle that feeds the
/// big-core timing model and the DEU.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    st: ArchState,
    mem: SparseMemory,
    exit_pc: u64,
    executed: u64,
    cap: u64,
    /// Write journal for rollback (recovery-enabled runs only).
    undo: Option<UndoLog>,
    /// Console bytes from `putchar` syscalls, tagged with the retirement
    /// index that produced each byte so a rollback can truncate exactly.
    console: Vec<(u64, u8)>,
    predecoded: Arc<PreDecoded>,
}

impl WorkloadRun {
    /// Executes and returns the next instruction, or `None` at the cap or
    /// program exit.
    ///
    /// # Panics
    ///
    /// Panics if the generated program traps — generated programs are
    /// trap-free by construction, so a trap is a generator bug. Programs
    /// a user supplies run through [`WorkloadRun::try_next_retired`].
    pub fn next_retired(&mut self) -> Option<Retired> {
        self.step(|Trap::IllegalInstruction { pc, word }| {
            panic!("generated program trapped at {pc:#x} (word {word:#010x})")
        })
    }

    /// [`WorkloadRun::next_retired`], with a trap returned instead of
    /// a panic; the run stays at the trapping instruction.
    ///
    /// # Errors
    ///
    /// The trap the next instruction raised.
    pub fn try_next_retired(&mut self) -> Result<Option<Retired>, Trap> {
        let mut trap = None;
        let retired = self.step(|t| trap = Some(t));
        trap.map_or(Ok(retired), Err)
    }

    /// One step, handing a trap to `trapped`. Generic so the oracle
    /// feed's panic inlines and `Retired` is written straight into
    /// `next_retired`'s result.
    #[inline(always)]
    fn step(&mut self, trapped: impl FnOnce(Trap)) -> Option<Retired> {
        if self.executed >= self.cap || self.st.pc == self.exit_pc {
            return None;
        }
        let stepped = match &mut self.undo {
            Some(log) => {
                let mut bus = JournaledMem::new(&mut self.mem, log, self.executed + 1);
                step_predecoded(&mut self.st, &mut bus, &self.predecoded)
            }
            None => step_predecoded(&mut self.st, &mut self.mem, &self.predecoded),
        };
        match stepped {
            Ok(r) => {
                self.executed += 1;
                if let Some(meek_isa::Syscall::Putchar { byte }) = r.syscall {
                    self.console.push((self.executed, byte));
                }
                Some(r)
            }
            Err(trap) => {
                trapped(trap);
                None
            }
        }
    }

    /// Instructions retired so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Turns on write journaling so the run becomes rewindable. Must be
    /// enabled before execution starts — a journal that misses early
    /// writes cannot rewind through them.
    ///
    /// # Panics
    ///
    /// Panics if any instruction has already executed.
    pub fn enable_undo(&mut self) {
        assert_eq!(self.executed, 0, "undo journaling must be enabled before execution");
        self.undo = Some(UndoLog::new());
    }

    /// Current undo-journal footprint in modelled bytes (0 when
    /// journaling is off).
    pub fn undo_bytes(&self) -> u64 {
        self.undo.as_ref().map_or(0, UndoLog::bytes)
    }

    /// Releases journal entries for instructions at or before
    /// `commit_index` — their checkpoint has verified, so no rollback
    /// can reach past them anymore.
    pub fn release_undo_through(&mut self, commit_index: u64) {
        if let Some(log) = &mut self.undo {
            log.release_through(commit_index);
        }
    }

    /// Rewinds the run to the state it had after `commit_index`
    /// instructions: memory through the undo journal, registers and PC
    /// from `cp`, CSRs from `csrs`. Execution resumes from there and
    /// deterministically re-retires the squashed instructions.
    ///
    /// # Panics
    ///
    /// Panics if journaling is off, if the run has not reached
    /// `commit_index` yet, or if the journal was already released past
    /// the target.
    pub fn rollback(&mut self, commit_index: u64, cp: &RegCheckpoint, csrs: BTreeMap<u16, u64>) {
        assert!(
            self.executed >= commit_index,
            "cannot roll forward: executed {} < target {commit_index}",
            self.executed
        );
        let log = self.undo.as_mut().expect("rollback requires undo journaling");
        log.rewind(&mut self.mem, commit_index);
        self.st.apply_checkpoint(cp);
        self.st.restore_csr_snapshot(csrs);
        self.st.set_instret(commit_index);
        self.console.retain(|&(idx, _)| idx <= commit_index);
        self.executed = commit_index;
    }

    /// The run's functional memory (final-state oracles compare this
    /// against a golden re-execution).
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// The architectural state before the first instruction — checkpoint
    /// 0, the SRCP of segment 1.
    pub fn initial_checkpoint(&self) -> RegCheckpoint {
        if self.executed == 0 {
            self.st.checkpoint()
        } else {
            panic!("initial_checkpoint must be taken before execution starts")
        }
    }

    /// Current architectural state (for end-of-run assertions).
    pub fn state(&self) -> &ArchState {
        &self.st
    }

    /// The console bytes emitted by `putchar` syscalls so far, in
    /// retirement order. Bytes from instructions squashed by a rollback
    /// are gone — the console reflects the committed stream only.
    pub fn console(&self) -> Vec<u8> {
        self.console.iter().map(|&(_, b)| b).collect()
    }
}

struct Generator<'p> {
    profile: &'p BenchmarkProfile,
    rng: SmallRng,
    prog: Vec<Inst>,
    counts: [u64; 9],
    mask: u64,
    chain_idx: usize,
    fp_chain_idx: usize,
    rand_uses: u32,
    stream_imm: i32,
    has_fp: bool,
    /// Error-diffusion accumulators: keep branch composition exact
    /// rather than seed-dependent (predictable fraction, taken bias).
    acc_predictable: f64,
    acc_taken: f64,
}

impl<'p> Generator<'p> {
    fn new(profile: &'p BenchmarkProfile, seed: u64) -> Generator<'p> {
        let mask = (profile.working_set.next_power_of_two() - 1) & !7;
        let m = &profile.mix;
        Generator {
            profile,
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED_0E7A),
            prog: Vec::new(),
            counts: [0; 9],
            mask,
            chain_idx: 0,
            fp_chain_idx: 0,
            rand_uses: 0,
            stream_imm: 0,
            has_fp: m.fp_add + m.fp_mul + m.fp_div > 0.0,
            acc_predictable: 0.0,
            acc_taken: 0.0,
        }
    }

    fn target(&self, c: Class) -> f64 {
        let m = &self.profile.mix;
        match c {
            Class::Alu => m.alu(),
            Class::Load => m.load,
            Class::Store => m.store,
            Class::Branch => m.branch,
            Class::Mul => m.mul,
            Class::Div => m.div,
            Class::FpAdd => m.fp_add,
            Class::FpMul => m.fp_mul,
            Class::FpDiv => m.fp_div,
        }
    }

    fn emit(&mut self, c: Class, inst: Inst) {
        self.prog.push(inst);
        self.counts[CLASSES.iter().position(|&x| x == c).expect("class listed")] += 1;
    }

    fn load_const(&mut self, rd: Reg, val: u64) {
        assert!(val < 0x7FFF_F800, "constant {val:#x} out of li range");
        let lo = ((val & 0xFFF) as i32) << 20 >> 20;
        let hi = (val.wrapping_sub(lo as i64 as u64) >> 12) as i32;
        if hi != 0 {
            self.emit(Class::Alu, Inst::Lui { rd, imm: hi });
            if lo != 0 {
                self.emit(Class::Alu, Inst::AluImm { op: AluImmOp::Addi, rd, rs1: rd, imm: lo });
            }
        } else {
            self.emit(Class::Alu, Inst::AluImm { op: AluImmOp::Addi, rd, rs1: Reg::X0, imm: lo });
        }
    }

    fn chain(&mut self) -> Reg {
        self.chain_idx = (self.chain_idx + 1) % CHAIN.len();
        CHAIN[self.chain_idx]
    }

    fn fp_chain(&mut self) -> FReg {
        self.fp_chain_idx = (self.fp_chain_idx + 1) % 4;
        FReg::new(self.fp_chain_idx as u8)
    }

    /// xorshift64 update of the pseudo-random state (6 ALU instructions).
    fn emit_xorshift(&mut self) {
        for (op, sh) in [(AluImmOp::Slli, 13), (AluImmOp::Srli, 7), (AluImmOp::Slli, 17)] {
            self.emit(Class::Alu, Inst::AluImm { op, rd: R_TMP, rs1: R_XS, imm: sh });
            self.emit(Class::Alu, Inst::Alu { op: AluOp::Xor, rd: R_XS, rs1: R_XS, rs2: R_TMP });
        }
    }

    /// Produces the pointer register for one memory access, emitting any
    /// pointer-maintenance instructions.
    fn mem_ptr(&mut self) -> Reg {
        if self.rng.gen_bool(self.profile.random_access) {
            self.rand_uses += 1;
            if self.rand_uses % 8 == 1 {
                // Re-point the random pointer: xorshift, mask, rebase.
                // Real applications exhibit tiered working-set locality
                // (the classic hot/warm/cold decomposition): most
                // scattered accesses land in an L1-resident hot set, most
                // of the rest in an L2-resident warm set, and only a thin
                // tail walks the full working set.
                let roll: f64 = self.rng.gen();
                let mask = if roll < 0.85 {
                    R_HOTMASK
                } else if roll < 0.98 {
                    R_MIDMASK
                } else {
                    R_MASK
                };
                self.emit_xorshift();
                self.emit(
                    Class::Alu,
                    Inst::Alu { op: AluOp::And, rd: R_TMP, rs1: R_XS, rs2: mask },
                );
                self.emit(
                    Class::Alu,
                    Inst::Alu { op: AluOp::Add, rd: R_RANDPTR, rs1: R_BASE, rs2: R_TMP },
                );
            }
            R_RANDPTR
        } else {
            self.stream_imm += 8;
            if self.stream_imm >= 2040 {
                self.stream_imm = 0;
                // Advance and wrap the streaming pointer within the set.
                self.emit(
                    Class::Alu,
                    Inst::AluImm {
                        op: AluImmOp::Addi,
                        rd: R_STREAMPTR,
                        rs1: R_STREAMPTR,
                        imm: 2040,
                    },
                );
                self.emit(
                    Class::Alu,
                    Inst::Alu { op: AluOp::Sub, rd: R_TMP, rs1: R_STREAMPTR, rs2: R_BASE },
                );
                self.emit(
                    Class::Alu,
                    Inst::Alu { op: AluOp::And, rd: R_TMP, rs1: R_TMP, rs2: R_MASK },
                );
                self.emit(
                    Class::Alu,
                    Inst::Alu { op: AluOp::Add, rd: R_STREAMPTR, rs1: R_BASE, rs2: R_TMP },
                );
            }
            R_STREAMPTR
        }
    }

    fn mem_imm(&mut self, ptr: Reg) -> i32 {
        if ptr == R_STREAMPTR {
            self.stream_imm
        } else {
            self.rng.gen_range(0..255) * 8
        }
    }

    fn emit_class(&mut self, c: Class) {
        match c {
            Class::Alu => {
                let rd = self.chain();
                let rs1 = CHAIN[self.rng.gen_range(0..CHAIN.len())];
                let rs2 = CHAIN[self.rng.gen_range(0..CHAIN.len())];
                let imm = self.rng.gen_range(-2048..2048);
                let inst = match self.rng.gen_range(0..6) {
                    0 => Inst::Alu { op: AluOp::Add, rd, rs1, rs2: R_XS },
                    1 => Inst::Alu { op: AluOp::Xor, rd, rs1, rs2 },
                    2 => Inst::AluImm { op: AluImmOp::Addi, rd, rs1, imm },
                    3 => Inst::Alu { op: AluOp::Sub, rd, rs1, rs2 },
                    4 => Inst::AluImm { op: AluImmOp::Xori, rd, rs1, imm },
                    _ => Inst::Alu { op: AluOp::Or, rd, rs1, rs2 },
                };
                self.emit(c, inst);
            }
            Class::Load => {
                let ptr = self.mem_ptr();
                let imm = self.mem_imm(ptr);
                if self.has_fp && self.rng.gen_bool(0.3) {
                    let rd = self.fp_chain();
                    self.emit(c, Inst::Fld { rd, rs1: ptr, offset: imm });
                } else {
                    let rd = self.chain();
                    self.emit(c, Inst::Load { op: LoadOp::Ld, rd, rs1: ptr, offset: imm });
                }
            }
            Class::Store => {
                let ptr = self.mem_ptr();
                let imm = self.mem_imm(ptr);
                if self.has_fp && self.rng.gen_bool(0.3) {
                    let rs2 = self.fp_chain();
                    self.emit(c, Inst::Fsd { rs1: ptr, rs2, offset: imm });
                } else {
                    let rs2 = CHAIN[self.rng.gen_range(0..CHAIN.len())];
                    self.emit(c, Inst::Store { op: StoreOp::Sd, rs1: ptr, rs2, offset: imm });
                }
            }
            Class::Branch => {
                // All conditional branches target the next instruction, so
                // direction varies (exercising the predictor) while the
                // dynamic path stays linear. Composition is error-diffused
                // rather than sampled, so a profile's branch behaviour —
                // and therefore the big core's IPC — does not wander with
                // the generation seed.
                self.acc_predictable += self.profile.branch_predictability;
                if self.acc_predictable >= 1.0 {
                    self.acc_predictable -= 1.0;
                    self.acc_taken += 0.7;
                    let op = if self.acc_taken >= 1.0 {
                        self.acc_taken -= 1.0;
                        BranchOp::Beq // always taken
                    } else {
                        BranchOp::Bne // never taken
                    };
                    self.emit(c, Inst::Branch { op, rs1: Reg::X0, rs2: Reg::X0, offset: 4 });
                } else {
                    let rs1 = CHAIN[self.rng.gen_range(0..CHAIN.len())];
                    let rs2 = CHAIN[self.rng.gen_range(0..CHAIN.len())];
                    self.emit(c, Inst::Branch { op: BranchOp::Blt, rs1, rs2, offset: 4 });
                }
            }
            Class::Mul => {
                let rd = self.chain();
                let rs1 = CHAIN[self.rng.gen_range(0..CHAIN.len())];
                self.emit(c, Inst::MulDiv { op: MulDivOp::Mul, rd, rs1, rs2: R_XS });
            }
            Class::Div => {
                let rd = self.chain();
                let rs1 = CHAIN[self.rng.gen_range(0..CHAIN.len())];
                self.emit(c, Inst::MulDiv { op: MulDivOp::Div, rd, rs1, rs2: R_DIVISOR });
            }
            Class::FpAdd => {
                let rd = self.fp_chain();
                let rs1 = FReg::new(self.rng.gen_range(0..4));
                self.emit(c, Inst::Fp { op: FpOp::FaddD, rd, rs1, rs2: FReg::new(4) });
            }
            Class::FpMul => {
                let rd = self.fp_chain();
                let rs1 = FReg::new(self.rng.gen_range(0..4));
                self.emit(c, Inst::Fp { op: FpOp::FmulD, rd, rs1, rs2: FReg::new(4) });
            }
            Class::FpDiv => {
                let rd = self.fp_chain();
                let rs1 = FReg::new(self.rng.gen_range(0..4));
                self.emit(c, Inst::Fp { op: FpOp::FdivD, rd, rs1, rs2: FReg::new(5) });
            }
        }
    }

    fn generate(mut self) -> Workload {
        // ---- Preamble ----
        self.load_const(R_BASE, DATA_BASE);
        let xs_seed = (0x2545_F491 ^ (self.rng.gen::<u32>() as u64 | 1)) & 0x3FFF_FFFF | 1;
        self.load_const(R_XS, xs_seed);
        self.load_const(R_MASK, self.mask.min(0x7FFF_F000));
        let hot_mask = (self.mask.min(16 * 1024 - 1)) & !7;
        self.load_const(R_HOTMASK, hot_mask);
        let mid_mask = (self.mask.min(256 * 1024 - 1)) & !7;
        self.load_const(R_MIDMASK, mid_mask);
        self.emit(
            Class::Alu,
            Inst::AluImm { op: AluImmOp::Addi, rd: R_DIVISOR, rs1: Reg::X0, imm: 3 },
        );
        self.emit(
            Class::Alu,
            Inst::Alu { op: AluOp::Add, rd: R_RANDPTR, rs1: R_BASE, rs2: Reg::X0 },
        );
        self.emit(
            Class::Alu,
            Inst::Alu { op: AluOp::Add, rd: R_STREAMPTR, rs1: R_BASE, rs2: Reg::X0 },
        );
        // Loop counter: effectively unbounded; the run cap governs length.
        self.load_const(R_LOOP, 0x0FFF_FFFF);
        // FP constant pool + chain seeds.
        self.load_const(R_TMP, FP_CONST_BASE);
        for i in 0..6u8 {
            self.emit(
                Class::Load,
                Inst::Fld { rd: FReg::new(i), rs1: R_TMP, offset: (i as i32) * 8 },
            );
        }
        // Seed integer chain registers from the xorshift state.
        for (i, &r) in CHAIN.iter().enumerate() {
            self.emit(
                Class::Alu,
                Inst::AluImm { op: AluImmOp::Addi, rd: r, rs1: R_XS, imm: (i as i32 + 1) * 97 },
            );
        }

        // ---- Loop body (deficit-driven class selection) ----
        let body_start = self.prog.len();
        let footprint = self.profile.code_footprint as usize;
        let syscall_p = self.profile.syscall_per_10k as f64 / 10_000.0;
        let mut emitted_ecall = false;
        while self.prog.len() - body_start < footprint {
            let total: u64 = self.counts.iter().sum();
            let mut best = Class::Alu;
            let mut best_deficit = f64::MIN;
            for &c in &CLASSES {
                let i = CLASSES.iter().position(|&x| x == c).expect("listed");
                if self.target(c) <= 0.0 {
                    continue;
                }
                // Relative shortfall: normalising by the target keeps the
                // support-instruction overshoot (booked to ALU) from
                // starving low-frequency classes like stores.
                let t = self.target(c);
                let deficit = (t * (total + 1) as f64 - self.counts[i] as f64) / t;
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = c;
                }
            }
            self.emit_class(best);
            if syscall_p > 0.0 && self.rng.gen_bool(syscall_p) {
                self.prog.push(Inst::Ecall);
                emitted_ecall = true;
            }
            // Periodically fold fresh entropy into the integer chain.
            if self.prog.len().is_multiple_of(64) {
                self.emit_xorshift();
                let rd = self.chain();
                self.emit(Class::Alu, Inst::Alu { op: AluOp::Add, rd, rs1: rd, rs2: R_XS });
            }
        }

        if syscall_p > 0.0 && !emitted_ecall {
            // Guarantee the configured kernel-trap behaviour appears.
            self.prog.push(Inst::Ecall);
        }

        // ---- Loop control ----
        // counter -= 1; exit when zero (skip the back-jump); else jump back.
        self.emit(
            Class::Alu,
            Inst::AluImm { op: AluImmOp::Addi, rd: R_LOOP, rs1: R_LOOP, imm: -1 },
        );
        self.prog.push(Inst::Branch { op: BranchOp::Beq, rs1: R_LOOP, rs2: Reg::X0, offset: 8 });
        let back = (body_start as i64 - self.prog.len() as i64) * 4;
        assert!(back >= -(1 << 20), "loop body too large for a J-type back-jump ({back})");
        self.prog.push(Inst::Jal { rd: Reg::X0, offset: back as i32 });

        // ---- Assemble the image ----
        let words: Vec<u32> = self.prog.iter().map(encode).collect();
        let mut image = SparseMemory::new();
        image.load_program(CODE_BASE, &words);
        // FP constant pool: two near-one constants + four chain seeds.
        for (i, v) in [1.0000003f64, 1.0000007, 1.5, 2.25, 3.5, 0.75].iter().enumerate() {
            image.write(FP_CONST_BASE + 8 * i as u64, 8, v.to_bits());
        }
        // Initialise the head of the working set with pseudo-random data.
        let mut xs = 0x9E37_79B9_7F4A_7C15u64 | 1;
        let init_len = self.profile.working_set.min(256 * 1024);
        for off in (0..init_len).step_by(8) {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            image.write(DATA_BASE + off, 8, xs);
        }

        let initial = ArchState::new(CODE_BASE);
        Workload::from_image(
            self.profile.name,
            image,
            CODE_BASE,
            CODE_BASE + 4 * words.len() as u64,
            words.len(),
            initial,
        )
        .with_data_window(DATA_BASE, self.profile.working_set.next_power_of_two())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{parsec3, spec_int_2006};
    use meek_isa::ExecClass;
    use std::collections::HashMap;

    fn class_histogram(profile: &BenchmarkProfile, n: u64) -> (HashMap<&'static str, u64>, u64) {
        let wl = Workload::build(profile, 7);
        let mut run = wl.run(n);
        let mut h: HashMap<&'static str, u64> = HashMap::new();
        let mut total = 0;
        while let Some(r) = run.next_retired() {
            let key = match r.class {
                ExecClass::IntAlu => "alu",
                ExecClass::Load => "load",
                ExecClass::Store => "store",
                ExecClass::Branch => "branch",
                ExecClass::IntMul => "mul",
                ExecClass::IntDiv => "div",
                ExecClass::FpAdd => "fp_add",
                ExecClass::FpMul => "fp_mul",
                ExecClass::FpDiv => "fp_div",
                ExecClass::Jump => "jump",
                ExecClass::Csr => "csr",
                ExecClass::System => "system",
                ExecClass::Meek => "meek",
            };
            *h.entry(key).or_default() += 1;
            total += 1;
        }
        (h, total)
    }

    #[test]
    fn all_profiles_generate_and_run() {
        for p in spec_int_2006().into_iter().chain(parsec3()) {
            let wl = Workload::build(&p, 1);
            let mut run = wl.run(20_000);
            let mut n = 0;
            while run.next_retired().is_some() {
                n += 1;
            }
            assert_eq!(n, 20_000, "{} must run to the cap without trapping", p.name);
        }
    }

    #[test]
    fn deterministic_generation() {
        let p = &parsec3()[0];
        let a = Workload::build(p, 99);
        let b = Workload::build(p, 99);
        assert_eq!(a.static_len, b.static_len);
        let mut ra = a.run(5_000);
        let mut rb = b.run(5_000);
        loop {
            match (ra.next_retired(), rb.next_retired()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = &parsec3()[0];
        let a = Workload::build(p, 1);
        let b = Workload::build(p, 2);
        let wa: Vec<u32> = (0..64).map(|i| a.image().peek_inst(CODE_BASE + 4 * i)).collect();
        let wb: Vec<u32> = (0..64).map(|i| b.image().peek_inst(CODE_BASE + 4 * i)).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn realized_mix_tracks_profile() {
        for p in [&spec_int_2006()[3] /* mcf */, &parsec3()[7] /* swaptions */] {
            let (h, total) = class_histogram(p, 60_000);
            let frac = |k: &str| *h.get(k).unwrap_or(&0) as f64 / total as f64;
            assert!(
                (frac("load") - p.mix.load).abs() < 0.06,
                "{}: load {:.3} vs target {:.3}",
                p.name,
                frac("load"),
                p.mix.load
            );
            assert!(
                (frac("store") - p.mix.store).abs() < 0.05,
                "{}: store {:.3} vs target {:.3}",
                p.name,
                frac("store"),
                p.mix.store
            );
            assert!(
                (frac("branch") - p.mix.branch).abs() < 0.05,
                "{}: branch {:.3} vs target {:.3}",
                p.name,
                frac("branch"),
                p.mix.branch
            );
            if p.mix.div > 0.0 {
                assert!(frac("div") > 0.0, "{}: expected divides", p.name);
            }
        }
    }

    #[test]
    fn swaptions_divides_dominate_suite() {
        let profiles = parsec3();
        let mut div_fracs: Vec<(&str, f64)> = profiles
            .iter()
            .map(|p| {
                let (h, total) = class_histogram(p, 30_000);
                let d = (*h.get("div").unwrap_or(&0) + *h.get("fp_div").unwrap_or(&0)) as f64;
                (p.name, d / total as f64)
            })
            .collect();
        div_fracs.sort_by(|a, b| b.1.total_cmp(&a.1));
        assert_eq!(div_fracs[0].0, "swaptions", "ranking: {div_fracs:?}");
    }

    #[test]
    fn memory_accesses_stay_in_working_set() {
        let p = &spec_int_2006()[3]; // mcf, 64 MB WS
        let wl = Workload::build(p, 5);
        let mut run = wl.run(30_000);
        let span = p.working_set.next_power_of_two();
        while let Some(r) = run.next_retired() {
            if let Some(m) = r.mem {
                if m.addr >= FP_CONST_BASE && m.addr < FP_CONST_BASE + 64 {
                    continue; // constant pool
                }
                assert!(
                    m.addr >= DATA_BASE && m.addr < DATA_BASE + span,
                    "access {:#x} outside working set",
                    m.addr
                );
            }
        }
    }

    #[test]
    fn syscalls_appear_when_configured() {
        let p = parsec3().into_iter().find(|p| p.name == "dedup").unwrap();
        let wl = Workload::build(&p, 3);
        let mut run = wl.run(50_000);
        let mut traps = 0;
        while let Some(r) = run.next_retired() {
            if r.is_kernel_trap {
                traps += 1;
            }
        }
        assert!(traps > 0, "dedup profile must hit kernel traps");
    }

    #[test]
    fn initial_checkpoint_before_run_only() {
        let p = &parsec3()[0];
        let wl = Workload::build(p, 1);
        let run = wl.run(100);
        let cp = run.initial_checkpoint();
        assert_eq!(cp.pc, CODE_BASE);
    }
}
