//! Seed-deterministic random RISC-V program synthesis.
//!
//! Where `meek-workloads` generates programs whose *statistics* match a
//! benchmark profile, this fuzzer goes after the corners the profile
//! generator deliberately avoids: arbitrary per-program instruction
//! mixes, *really taken* forward branches, nested counted loops,
//! `jal`/`jalr` chains, misaligned and overlapping memory accesses of
//! every width, CSR traffic through all six instruction forms, and
//! trap-inducing `ecall`/`ebreak` sequences. Every generated program is
//! terminating by construction (control flow only moves forward, except
//! counter-bounded back-edges), trap-free along the executed path, and a
//! pure function of its seed.
//!
//! A [`FuzzProgram`] is just the encoded instruction words: the memory
//! image (code plus a fixed pseudo-random data window) is reconstructed
//! from the words alone, so a shrunk word list round-trips into an
//! executable reproducer without carrying the original seed around.

use meek_isa::inst::{
    AluImmOp, AluOp, BranchOp, CsrOp, FpCmpOp, FpOp, Inst, LoadOp, MulDivOp, StoreOp,
};
use meek_isa::{encode, ArchState, Bus, FReg, PreDecoded, Reg, SparseMemory};
use meek_workloads::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Base address of fuzzed code.
pub const CODE_BASE: u64 = 0x1000;
/// Base address of the data window all memory traffic lands in.
pub const DATA_BASE: u64 = 0x20_0000;
/// Size of the data window in bytes (power of two). Small on purpose:
/// accesses of different widths overlap constantly.
pub const DATA_WINDOW: u64 = 4096;

// Register conventions of fuzzed code. The pools deliberately exclude
// the structural registers so random writes cannot send a pointer out
// of the data window or corrupt a loop counter (which would break the
// termination guarantee, not the simulator).
const R_BASE: Reg = Reg::X26; // = DATA_BASE
const R_MASK: Reg = Reg::X27; // = DATA_WINDOW - 1 (low bits kept: misalignment)
const R_PTR: Reg = Reg::X28; // current data pointer
const R_LOOP: Reg = Reg::X29; // inner-loop counter
const R_SCRATCH: Reg = Reg::X30; // pointer-masking scratch
const R_OUTER: Reg = Reg::X21; // outer-loop counter

/// Integer registers random instructions may write.
const POOL: [Reg; 16] = [
    Reg::X1,
    Reg::X2,
    Reg::X3,
    Reg::X4,
    Reg::X5,
    Reg::X6,
    Reg::X7,
    Reg::X8,
    Reg::X9,
    Reg::X10,
    Reg::X11,
    Reg::X12,
    Reg::X13,
    Reg::X14,
    Reg::X15,
    Reg::X31,
];

/// CSR addresses fuzzed CSR traffic targets (mscratch and friends).
const CSRS: [u16; 4] = [0x340, 0x341, 0x342, 0xC00];

/// Tuning knobs for one fuzzed program.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Approximate static instruction count of the loop body (the
    /// preamble and loop control add a few dozen more).
    pub static_len: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { static_len: 220 }
    }
}

/// A fuzzed program: the encoded instruction words. Everything else
/// (image, entry, data) is derived deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzProgram {
    /// Encoded machine words, loaded at [`CODE_BASE`].
    pub words: Vec<u32>,
}

impl FuzzProgram {
    /// Wraps decoded instructions.
    pub fn from_insts(insts: &[Inst]) -> FuzzProgram {
        FuzzProgram { words: insts.iter().map(encode).collect() }
    }

    /// Wraps raw machine words (the shrunk-reproducer entry point).
    pub fn from_words(words: &[u32]) -> FuzzProgram {
        FuzzProgram { words: words.to_vec() }
    }

    /// Decodes the program back into instructions (for shrinking and
    /// display). Undecodable words are dropped — fuzzed programs never
    /// contain any.
    pub fn insts(&self) -> Vec<Inst> {
        self.words.iter().filter_map(|&w| meek_isa::decode(w).ok()).collect()
    }

    /// Entry PC.
    pub fn entry(&self) -> u64 {
        CODE_BASE
    }

    /// PC one past the last instruction — reaching it ends the run.
    pub fn exit_pc(&self) -> u64 {
        CODE_BASE + 4 * self.words.len() as u64
    }

    /// Builds the memory image: code at [`CODE_BASE`], plus the fixed
    /// pseudo-random fill of the data window. The fill is independent of
    /// the program seed so a word list alone reproduces a run exactly.
    pub fn image(&self) -> SparseMemory {
        let mut image = SparseMemory::new();
        image.load_program(CODE_BASE, &self.words);
        let mut xs = 0x0DD0_5EED_C0FF_EE11u64 | 1;
        for off in (0..DATA_WINDOW).step_by(8) {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            image.write(DATA_BASE + off, 8, xs);
        }
        image
    }

    /// Pre-decodes the code span once for the hot drivers (golden
    /// interpreter, lock-step replay, coverage twin). Fuzzed code is
    /// never self-modified, so the table stays valid for the whole run.
    pub fn predecoded(&self) -> PreDecoded {
        PreDecoded::from_image(&self.image(), CODE_BASE, self.words.len())
    }

    /// The static contract fuzzed programs are analyzed against: code
    /// at [`CODE_BASE`], all registers zero at entry, exit by falling
    /// off the end, the fixed data window (with the 512-byte slack the
    /// difftest oracles tolerate) pre-filled and mapped, OS surface
    /// off. Anchor/window strictness stays off — the generated preamble
    /// materialises the anchors itself and mutants may legally wander.
    pub fn spec() -> meek_analyze::ProgramSpec {
        let mut spec = meek_analyze::ProgramSpec::bare("fuzz", CODE_BASE);
        spec.window = Some(meek_analyze::Window { base: DATA_BASE, size: DATA_WINDOW, slack: 512 });
        spec.mapped = vec![(DATA_BASE, DATA_WINDOW)];
        spec
    }

    /// Wraps the program as a `meek-workloads` workload so the full MEEK
    /// system (big core, DEU, fabric, checkers) can run it.
    pub fn workload(&self) -> Workload {
        Workload::from_image(
            "difftest",
            self.image(),
            self.entry(),
            self.exit_pc(),
            self.words.len(),
            ArchState::new(self.entry()),
        )
        .with_data_window(DATA_BASE, DATA_WINDOW)
    }
}

/// Per-program production weights, themselves randomised per seed so
/// the corpus spans wildly different instruction mixes (ALU-only
/// torture loops through memory-saturated overlap stews).
struct Weights {
    alu: u32,
    mem: u32,
    branch: u32,
    looped: u32,
    jump: u32,
    csr: u32,
    fp: u32,
    trap: u32,
}

impl Weights {
    fn sample(rng: &mut SmallRng) -> Weights {
        Weights {
            alu: rng.gen_range(4..40),
            mem: rng.gen_range(4..40),
            branch: rng.gen_range(2..16),
            looped: rng.gen_range(1..6),
            jump: rng.gen_range(1..8),
            csr: rng.gen_range(0..6),
            fp: rng.gen_range(0..24),
            trap: rng.gen_range(0..3),
        }
    }

    fn total(&self) -> u32 {
        self.alu + self.mem + self.branch + self.looped + self.jump + self.csr + self.fp + self.trap
    }
}

struct Fuzzer {
    rng: SmallRng,
    prog: Vec<Inst>,
    weights: Weights,
}

/// Generates one fuzzed program from `seed`.
pub fn fuzz_program(seed: u64, cfg: &FuzzConfig) -> FuzzProgram {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF_7E57);
    let weights = Weights::sample(&mut rng);
    let mut f = Fuzzer { rng, prog: Vec::new(), weights };
    f.generate(cfg.static_len);
    FuzzProgram::from_insts(&f.prog)
}

impl Fuzzer {
    fn reg(&mut self) -> Reg {
        POOL[self.rng.gen_range(0..POOL.len())]
    }

    /// A source register: usually from the pool, sometimes a structural
    /// register (read-only use is safe) or x0.
    fn src(&mut self) -> Reg {
        match self.rng.gen_range(0..10) {
            0 => R_PTR,
            1 => R_SCRATCH,
            2 => Reg::X0,
            _ => self.reg(),
        }
    }

    fn freg(&mut self) -> FReg {
        FReg::new(self.rng.gen_range(0..8))
    }

    fn emit(&mut self, i: Inst) {
        self.prog.push(i);
    }

    /// `li rd, value` for small non-negative values.
    fn load_const(&mut self, rd: Reg, val: u64) {
        assert!(val < 0x7FFF_F800, "constant {val:#x} out of li range");
        let lo = ((val & 0xFFF) as i32) << 20 >> 20;
        let hi = (val.wrapping_sub(lo as i64 as u64) >> 12) as i32;
        if hi != 0 {
            self.emit(Inst::Lui { rd, imm: hi });
            if lo != 0 {
                self.emit(Inst::AluImm { op: AluImmOp::Addi, rd, rs1: rd, imm: lo });
            }
        } else {
            self.emit(Inst::AluImm { op: AluImmOp::Addi, rd, rs1: Reg::X0, imm: lo });
        }
    }

    /// One random computational instruction (never control flow, never a
    /// structural-register write) — the filler inside branch shadows and
    /// loop bodies.
    fn emit_simple(&mut self) {
        let choice = self.rng.gen_range(0..10);
        match choice {
            0..=3 => self.emit_alu(),
            4..=5 => self.emit_mem(),
            6 => self.emit_csr(),
            7..=8 => self.emit_fp(),
            _ => self.emit_muldiv(),
        }
    }

    fn emit_alu(&mut self) {
        let rd = self.reg();
        let rs1 = self.src();
        let rs2 = self.src();
        if self.rng.gen_bool(0.5) {
            let op = AluOp::ALL[self.rng.gen_range(0..AluOp::ALL.len())];
            self.emit(Inst::Alu { op, rd, rs1, rs2 });
        } else {
            let op = AluImmOp::ALL[self.rng.gen_range(0..AluImmOp::ALL.len())];
            let imm = match op {
                AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => self.rng.gen_range(0..64),
                AluImmOp::Slliw | AluImmOp::Srliw | AluImmOp::Sraiw => self.rng.gen_range(0..32),
                _ => self.rng.gen_range(-2048..2048),
            };
            self.emit(Inst::AluImm { op, rd, rs1, imm });
        }
    }

    fn emit_muldiv(&mut self) {
        let op = MulDivOp::ALL[self.rng.gen_range(0..MulDivOp::ALL.len())];
        let (rd, rs1, rs2) = (self.reg(), self.src(), self.src());
        // Divide-by-zero and overflow corners are defined in RV64M;
        // leaving them reachable is the point.
        self.emit(Inst::MulDiv { op, rd, rs1, rs2 });
    }

    /// Re-points the data pointer from a random register, keeping it in
    /// the window but at *any* byte alignment.
    fn repoint(&mut self) {
        let src = self.reg();
        self.emit(Inst::Alu { op: AluOp::And, rd: R_SCRATCH, rs1: src, rs2: R_MASK });
        self.emit(Inst::Alu { op: AluOp::Add, rd: R_PTR, rs1: R_BASE, rs2: R_SCRATCH });
    }

    fn emit_mem(&mut self) {
        if self.rng.gen_bool(0.4) {
            self.repoint();
        }
        // Misaligned on purpose: any byte offset; the executor masks to
        // natural alignment exactly like the cores do, and the small
        // window makes different widths overlap the same bytes.
        let offset = self.rng.gen_range(-256..256);
        let rd = self.reg();
        let rs2 = self.src();
        let fr = self.freg();
        match self.rng.gen_range(0..14) {
            0 => self.emit(Inst::Load { op: LoadOp::Lb, rd, rs1: R_PTR, offset }),
            1 => self.emit(Inst::Load { op: LoadOp::Lh, rd, rs1: R_PTR, offset }),
            2 => self.emit(Inst::Load { op: LoadOp::Lw, rd, rs1: R_PTR, offset }),
            3 => self.emit(Inst::Load { op: LoadOp::Ld, rd, rs1: R_PTR, offset }),
            4 => self.emit(Inst::Load { op: LoadOp::Lbu, rd, rs1: R_PTR, offset }),
            5 => self.emit(Inst::Load { op: LoadOp::Lhu, rd, rs1: R_PTR, offset }),
            6 => self.emit(Inst::Load { op: LoadOp::Lwu, rd, rs1: R_PTR, offset }),
            7 => self.emit(Inst::Store { op: StoreOp::Sb, rs1: R_PTR, rs2, offset }),
            8 => self.emit(Inst::Store { op: StoreOp::Sh, rs1: R_PTR, rs2, offset }),
            9 => self.emit(Inst::Store { op: StoreOp::Sw, rs1: R_PTR, rs2, offset }),
            10 => self.emit(Inst::Store { op: StoreOp::Sd, rs1: R_PTR, rs2, offset }),
            11 => self.emit(Inst::Fld { rd: fr, rs1: R_PTR, offset }),
            12 => self.emit(Inst::Fsd { rs1: R_PTR, rs2: fr, offset }),
            _ => {
                // Load-store pair on the same pointer: guaranteed overlap.
                self.emit(Inst::Load { op: LoadOp::Ld, rd, rs1: R_PTR, offset });
                self.emit(Inst::Store { op: StoreOp::Sw, rs1: R_PTR, rs2: rd, offset });
            }
        }
    }

    fn emit_csr(&mut self) {
        let op = CsrOp::ALL[self.rng.gen_range(0..CsrOp::ALL.len())];
        let csr = CSRS[self.rng.gen_range(0..CSRS.len())];
        let (rd, rs1) = (self.reg(), self.reg());
        self.emit(Inst::Csr { op, rd, rs1, csr });
    }

    fn emit_fp(&mut self) {
        let (fd, f1, f2, f3) = (self.freg(), self.freg(), self.freg(), self.freg());
        let (rd, rs) = (self.reg(), self.src());
        match self.rng.gen_range(0..8) {
            0 => {
                let op = FpOp::ALL[self.rng.gen_range(0..FpOp::ALL.len())];
                self.emit(Inst::Fp { op, rd: fd, rs1: f1, rs2: f2 });
            }
            1 => {
                let op = FpCmpOp::ALL[self.rng.gen_range(0..FpCmpOp::ALL.len())];
                self.emit(Inst::FpCmp { op, rd, rs1: f1, rs2: f2 });
            }
            2 => self.emit(Inst::FmaddD { rd: fd, rs1: f1, rs2: f2, rs3: f3 }),
            3 => self.emit(Inst::FcvtDL { rd: fd, rs1: rs }),
            4 => self.emit(Inst::FcvtLD { rd, rs1: f1 }),
            5 => self.emit(Inst::FmvXD { rd, rs1: f1 }),
            6 => self.emit(Inst::FmvDX { rd: fd, rs1: rs }),
            _ => {
                let offset = self.rng.gen_range(-128..128);
                self.emit(Inst::Fld { rd: fd, rs1: R_PTR, offset });
            }
        }
    }

    /// A conditional branch with a *real* taken path: it skips `k`
    /// emitted instructions when taken, so the dynamic stream genuinely
    /// forks on data values (unlike the workload generator's
    /// next-instruction branches).
    fn emit_branch(&mut self) {
        let op = BranchOp::ALL[self.rng.gen_range(0..BranchOp::ALL.len())];
        let k = self.rng.gen_range(1..=4);
        let (rs1, rs2) = (self.src(), self.src());
        self.emit(Inst::Branch { op, rs1, rs2, offset: 4 * (k + 1) });
        for _ in 0..k {
            self.emit_simple();
        }
    }

    /// A counter-bounded inner loop: the only backward edges in fuzzed
    /// code, so termination is structural.
    fn emit_loop(&mut self) {
        let iters = self.rng.gen_range(1..=6);
        let body = self.rng.gen_range(1..=5);
        self.emit(Inst::AluImm { op: AluImmOp::Addi, rd: R_LOOP, rs1: Reg::X0, imm: iters });
        let top = self.prog.len();
        for _ in 0..body {
            self.emit_simple();
        }
        self.emit(Inst::AluImm { op: AluImmOp::Addi, rd: R_LOOP, rs1: R_LOOP, imm: -1 });
        let back = (top as i32 - self.prog.len() as i32) * 4;
        self.emit(Inst::Branch { op: BranchOp::Bne, rs1: R_LOOP, rs2: Reg::X0, offset: back });
    }

    /// Unconditional jumps: a forward `jal` over dead code, a
    /// `jal`+`jalr` pair exercising indirect control flow with a
    /// link-register-derived target, or an `auipc`/`addi`/`jalr`
    /// triplet computing its target as a pc-relative constant (the
    /// classic materialised-address indirect-jump idiom).
    fn emit_jump(&mut self) {
        match self.rng.gen_range(0..3) {
            0 => {
                let k = self.rng.gen_range(1..=3);
                let rd = if self.rng.gen_bool(0.5) { Reg::X0 } else { self.reg() };
                self.emit(Inst::Jal { rd, offset: 4 * (k + 1) });
                for _ in 0..k {
                    self.emit_simple(); // dead code: fetched by nobody
                }
            }
            1 => {
                // jal x1, +4 lands on the jalr; jalr jumps to x1 + 4(k+1),
                // skipping k instructions — an indirect branch whose target
                // is a run-time register value.
                let k = self.rng.gen_range(0..=2);
                self.emit(Inst::Jal { rd: Reg::X1, offset: 4 });
                self.emit(Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 4 * (k + 1) });
                for _ in 0..k {
                    self.emit_simple();
                }
            }
            _ => {
                // auipc x1, 0 materialises its own address; the addi
                // adds the instruction-count displacement to the target
                // (3 + k slots ahead); the jalr jumps through it.
                let k = self.rng.gen_range(0..=2);
                self.emit(Inst::Auipc { rd: Reg::X1, imm: 0 });
                self.emit(Inst::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::X1,
                    rs1: Reg::X1,
                    imm: 4 * (3 + k),
                });
                self.emit(Inst::Jalr { rd: Reg::X2, rs1: Reg::X1, offset: 0 });
                for _ in 0..k {
                    self.emit_simple();
                }
            }
        }
    }

    fn emit_body_item(&mut self) {
        let w = &self.weights;
        let roll = self.rng.gen_range(0..w.total());
        let mut acc = w.alu;
        if roll < acc {
            if self.rng.gen_bool(0.75) {
                self.emit_alu();
            } else {
                self.emit_muldiv();
            }
            return;
        }
        acc += w.mem;
        if roll < acc {
            self.emit_mem();
            return;
        }
        acc += w.branch;
        if roll < acc {
            self.emit_branch();
            return;
        }
        acc += w.looped;
        if roll < acc {
            self.emit_loop();
            return;
        }
        acc += w.jump;
        if roll < acc {
            self.emit_jump();
            return;
        }
        acc += w.csr;
        if roll < acc {
            self.emit_csr();
            return;
        }
        acc += w.fp;
        if roll < acc {
            self.emit_fp();
            return;
        }
        // Kernel traps end MEEK segments; both flavours must appear.
        if self.rng.gen_bool(0.5) {
            self.emit(Inst::Ecall);
        } else {
            self.emit(Inst::Ebreak);
        }
    }

    fn generate(&mut self, static_len: usize) {
        // ---- Preamble: structural registers, then noisy pool seeds ----
        self.load_const(R_BASE, DATA_BASE);
        self.load_const(R_MASK, DATA_WINDOW - 1);
        self.emit(Inst::Alu { op: AluOp::Add, rd: R_PTR, rs1: R_BASE, rs2: Reg::X0 });
        for &rd in &POOL {
            let hi = self.rng.gen_range(-524288..524288);
            let lo = self.rng.gen_range(-2048..2048);
            self.emit(Inst::Lui { rd, imm: hi });
            self.emit(Inst::AluImm { op: AluImmOp::Addi, rd, rs1: rd, imm: lo });
        }
        // FP registers: converted and raw-moved integer noise.
        for i in 0..8u8 {
            let rs1 = POOL[self.rng.gen_range(0..POOL.len())];
            if i % 2 == 0 {
                self.emit(Inst::FcvtDL { rd: FReg::new(i), rs1 });
            } else {
                self.emit(Inst::FmvDX { rd: FReg::new(i), rs1 });
            }
        }
        let outer = self.rng.gen_range(1..=4);
        self.emit(Inst::AluImm { op: AluImmOp::Addi, rd: R_OUTER, rs1: Reg::X0, imm: outer });

        // ---- Body ----
        let top = self.prog.len();
        while self.prog.len() - top < static_len {
            self.emit_body_item();
        }

        // ---- Outer loop control ----
        self.emit(Inst::AluImm { op: AluImmOp::Addi, rd: R_OUTER, rs1: R_OUTER, imm: -1 });
        self.emit(Inst::Branch { op: BranchOp::Beq, rs1: R_OUTER, rs2: Reg::X0, offset: 8 });
        let back = (top as i64 - self.prog.len() as i64) * 4;
        assert!(back >= -(1 << 20), "fuzzed body too large for a J-type back-jump");
        self.emit(Inst::Jal { rd: Reg::X0, offset: back as i32 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_isa::exec;

    #[test]
    fn same_seed_same_program() {
        let a = fuzz_program(42, &FuzzConfig::default());
        let b = fuzz_program(42, &FuzzConfig::default());
        assert_eq!(a, b);
        let c = fuzz_program(43, &FuzzConfig::default());
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn words_roundtrip_through_decode() {
        let p = fuzz_program(7, &FuzzConfig::default());
        assert_eq!(p.insts().len(), p.words.len(), "every fuzzed word must decode");
        assert_eq!(FuzzProgram::from_insts(&p.insts()), p);
    }

    #[test]
    fn programs_terminate_without_trapping() {
        for seed in 0..24 {
            let p = fuzz_program(seed, &FuzzConfig::default());
            let mut mem = p.image();
            let mut st = ArchState::new(p.entry());
            let mut n = 0u64;
            while st.pc != p.exit_pc() {
                exec::step(&mut st, &mut mem)
                    .unwrap_or_else(|t| panic!("seed {seed}: trap {t} after {n} insts"));
                n += 1;
                assert!(n < 500_000, "seed {seed}: runaway program");
            }
            assert!(n >= FuzzConfig::default().static_len as u64 / 2, "seed {seed}: too short");
        }
    }

    #[test]
    fn memory_traffic_stays_in_the_window_and_misaligns() {
        let mut misaligned = 0u64;
        let mut widths = std::collections::HashSet::new();
        for seed in 0..12 {
            let p = fuzz_program(seed, &FuzzConfig::default());
            let mut mem = p.image();
            let mut st = ArchState::new(p.entry());
            while st.pc != p.exit_pc() {
                let r = exec::step(&mut st, &mut mem).expect("trap-free");
                if let Some(m) = r.mem {
                    assert!(
                        m.addr >= DATA_BASE.saturating_sub(512)
                            && m.addr < DATA_BASE + DATA_WINDOW + 512,
                        "access {:#x} far outside the data window",
                        m.addr
                    );
                    widths.insert(m.size);
                    // The *pre-masking* base pointer is what misaligns;
                    // masked effective addresses are width-aligned.
                    if m.addr % 8 != 0 {
                        misaligned += 1;
                    }
                }
            }
        }
        assert!(misaligned > 0, "sub-doubleword-aligned accesses must occur");
        assert!(widths.len() >= 3, "multiple access widths must occur: {widths:?}");
    }

    #[test]
    fn control_flow_and_traps_actually_happen() {
        let mut taken = 0u64;
        let mut not_taken = 0u64;
        let mut indirect = 0u64;
        let mut kernel_traps = 0u64;
        let mut csr_reads = 0u64;
        for seed in 0..24 {
            let p = fuzz_program(seed, &FuzzConfig::default());
            let mut mem = p.image();
            let mut st = ArchState::new(p.entry());
            while st.pc != p.exit_pc() {
                let r = exec::step(&mut st, &mut mem).expect("trap-free");
                if let Some(b) = r.branch {
                    if b.is_conditional {
                        if b.taken {
                            taken += 1;
                        } else {
                            not_taken += 1;
                        }
                    }
                    if b.is_indirect {
                        indirect += 1;
                    }
                }
                kernel_traps += r.is_kernel_trap as u64;
                csr_reads += r.csr_read.is_some() as u64;
            }
        }
        assert!(taken > 50, "taken conditional branches: {taken}");
        assert!(not_taken > 50, "fall-through conditional branches: {not_taken}");
        assert!(indirect > 0, "jalr must appear");
        assert!(kernel_traps > 0, "ecall/ebreak must appear");
        assert!(csr_reads > 0, "CSR traffic must appear");
    }
}
