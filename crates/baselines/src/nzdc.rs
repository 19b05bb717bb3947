//! Nzdc: near-zero silent data corruption — the software (compiler)
//! duplication baseline of Fig. 6 (Didehban & Shrivastava, DAC'16).
//!
//! nZDC duplicates the computation into a shadow register file, loads
//! once and copies the value into the shadow space, and inserts
//! checking sequences before every store and branch so corrupted values
//! cannot escape to memory or control flow. We model the transform at
//! the dynamic-stream level: the original instruction stream is expanded
//! with shadow and check instructions (register-renamed into an
//! otherwise-unused part of the architectural register file so the OoO
//! core can extract the same ILP a compiled binary would), and the
//! expanded stream runs on the *unmodified* big core.
//!
//! The paper reports Nzdc failing to compile gcc, omnetpp, xalancbmk and
//! freqmine; the harness skips those via
//! [`BenchmarkProfile::nzdc_compilable`](meek_workloads::BenchmarkProfile).

use meek_bigcore::{BigCore, BigCoreConfig};
use meek_isa::inst::{AluImmOp, AluOp, BranchOp, ExecClass, Inst};
use meek_isa::{Reg, Retired};
use meek_workloads::Workload;

/// Shadow-register mapping: the generated workloads use a known subset
/// of the integer file, so every used register has a distinct shadow.
fn shadow_reg(r: Reg) -> Reg {
    match r {
        // Live registers of the generated code get distinct shadows.
        Reg::X6 => Reg::X1,
        Reg::X7 => Reg::X2,
        Reg::X8 => Reg::X3,
        Reg::X9 => Reg::X4,
        Reg::X10 => Reg::X13,
        Reg::X11 => Reg::X16,
        Reg::X14 => Reg::X17,
        Reg::X15 => Reg::X21,
        Reg::X18 => Reg::X22,
        Reg::X19 => Reg::X23,
        Reg::X20 => Reg::X27,
        // Loop-invariant base/mask/divisor registers are written once in
        // the preamble; their shadows may share a scratch register.
        Reg::X5 | Reg::X12 | Reg::X24 | Reg::X25 | Reg::X26 => Reg::X28,
        other => other, // unused by the generator; identity is harmless
    }
}

fn remap(inst: &Inst) -> Option<Inst> {
    Some(match *inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            Inst::Alu { op, rd: shadow_reg(rd), rs1: shadow_reg(rs1), rs2: shadow_reg(rs2) }
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            Inst::AluImm { op, rd: shadow_reg(rd), rs1: shadow_reg(rs1), imm }
        }
        Inst::MulDiv { op, rd, rs1, rs2 } => {
            Inst::MulDiv { op, rd: shadow_reg(rd), rs1: shadow_reg(rs1), rs2: shadow_reg(rs2) }
        }
        Inst::Lui { rd, imm } => Inst::Lui { rd: shadow_reg(rd), imm },
        Inst::Auipc { rd, imm } => Inst::Auipc { rd: shadow_reg(rd), imm },
        // FP shadows reuse the same FP registers' upper half in real
        // nZDC; model the duplicate as an identical FP op (the FPU is
        // the bottleneck either way).
        Inst::Fp { .. } | Inst::FmaddD { .. } | Inst::FpCmp { .. } => *inst,
        _ => return None,
    })
}

/// Synthesises the `Retired` record of an inserted (shadow or check)
/// instruction at the same fetch point as the original.
fn synth(base: &Retired, inst: Inst) -> Retired {
    Retired {
        pc: base.pc,
        raw: 0,
        inst,
        class: inst.class(),
        next_pc: base.pc.wrapping_add(4),
        branch: None,
        mem: None,
        csr_read: None,
        csr_write: None,
        is_kernel_trap: false,
        syscall: None,
        wb: None,
    }
}

/// A never-taken check branch (compare main vs shadow; jump to the
/// error handler on mismatch — which never fires in a fault-free run).
fn check_branch(base: &Retired, rs1: Reg, rs2: Reg) -> Retired {
    let inst = Inst::Branch { op: BranchOp::Bne, rs1, rs2: shadow_reg(rs2), offset: 4 };
    let mut r = synth(base, inst);
    r.branch = Some(meek_isa::exec::BranchInfo {
        taken: false,
        target: base.pc.wrapping_add(4),
        is_conditional: true,
        is_indirect: false,
    });
    let _ = rs1;
    r
}

/// An iterator adaptor expanding an original dynamic stream into its
/// Nzdc-instrumented equivalent.
pub struct NzdcStream<F> {
    oracle: F,
    queue: Vec<Retired>,
    /// Original (pre-transform) instructions consumed.
    pub original: u64,
    /// Instructions emitted after expansion.
    pub emitted: u64,
}

impl<F: FnMut() -> Option<Retired>> NzdcStream<F> {
    /// Wraps an oracle.
    pub fn new(oracle: F) -> NzdcStream<F> {
        NzdcStream { oracle, queue: Vec::new(), original: 0, emitted: 0 }
    }

    /// Next transformed instruction.
    pub fn next_retired(&mut self) -> Option<Retired> {
        if let Some(r) = self.queue.pop() {
            self.emitted += 1;
            return Some(r);
        }
        let r = (self.oracle)()?;
        self.original += 1;
        self.emitted += 1;
        // `queue` is popped from the back, so push in reverse order.
        match r.class {
            ExecClass::IntAlu
            | ExecClass::IntMul
            | ExecClass::IntDiv
            | ExecClass::FpAdd
            | ExecClass::FpMul
            | ExecClass::FpDiv => {
                if let Some(sh) = remap(&r.inst) {
                    self.queue.push(synth(&r, sh));
                }
            }
            ExecClass::Load => {
                // nZDC performs the load twice — master and shadow both
                // read memory, so a corrupted load value cannot silently
                // poison only one stream.
                if let Inst::Load { op, rd, rs1, offset } = r.inst {
                    let mut dup = synth(&r, Inst::Load { op, rd: shadow_reg(rd), rs1, offset });
                    dup.class = ExecClass::Load;
                    dup.mem = r.mem;
                    self.queue.push(dup);
                } else if let Some(rd) = r.inst.int_dest() {
                    let mv =
                        Inst::AluImm { op: AluImmOp::Addi, rd: shadow_reg(rd), rs1: rd, imm: 0 };
                    self.queue.push(synth(&r, mv));
                }
            }
            ExecClass::Store => {
                // nZDC's store integrity check: compare address/data with
                // the shadows before the store, then load the value back
                // and verify it reached memory:
                // [cmp-addr, cmp-data(branch), store, load-back, check].
                let srcs = r.inst.int_srcs();
                if let ([Some(rs1), Some(rs2)], Inst::Store { op, rs1: sr1, offset, .. }) =
                    (srcs, r.inst)
                {
                    let lb_op = match op {
                        meek_isa::StoreOp::Sb => meek_isa::LoadOp::Lbu,
                        meek_isa::StoreOp::Sh => meek_isa::LoadOp::Lhu,
                        meek_isa::StoreOp::Sw => meek_isa::LoadOp::Lwu,
                        meek_isa::StoreOp::Sd => meek_isa::LoadOp::Ld,
                    };
                    self.queue.push(check_branch(&r, rs2, rs2));
                    let mut back =
                        synth(&r, Inst::Load { op: lb_op, rd: shadow_reg(rs2), rs1: sr1, offset });
                    back.class = ExecClass::Load;
                    back.mem = r.mem.map(|mut m| {
                        m.is_store = false;
                        m
                    });
                    self.queue.push(back);
                    self.queue.push(r);
                    self.queue.push(synth(
                        &r,
                        Inst::Alu { op: AluOp::Xor, rd: Reg::X31, rs1, rs2: shadow_reg(rs1) },
                    ));
                } else {
                    self.queue.push(r);
                }
                return self.next_from_queue();
            }
            ExecClass::Branch => {
                // Verify the condition operands before branching.
                let srcs = r.inst.int_srcs();
                self.queue.push(r);
                if let [Some(rs1), _] = srcs {
                    self.queue.push(check_branch(&r, rs1, rs1));
                }
                return self.next_from_queue();
            }
            _ => {}
        }
        Some(r)
    }

    fn next_from_queue(&mut self) -> Option<Retired> {
        let r = self.queue.pop();
        debug_assert!(r.is_some());
        r
    }

    /// Dynamic expansion factor so far.
    pub fn expansion(&self) -> f64 {
        if self.original == 0 {
            1.0
        } else {
            self.emitted as f64 / self.original as f64
        }
    }
}

/// Runs `workload` under the Nzdc transform on the unmodified big core;
/// returns `(cycles, expansion_factor)`.
pub fn run_nzdc(cfg: &BigCoreConfig, workload: &Workload, max_insts: u64) -> (u64, f64) {
    let mut big = BigCore::new(*cfg);
    // nZDC roughly doubles the code footprint; warm both halves.
    big.prewarm_icache(workload.entry(), 8 * workload.static_len as u64);
    let mut run = workload.run(max_insts);
    let mut stream = NzdcStream::new(move || run.next_retired());
    let cycles = big.run_to_drain(&mut || stream.next_retired());
    (cycles, stream.expansion())
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_workloads::{parsec3, spec_int_2006};

    #[test]
    fn expansion_near_two() {
        let wl = Workload::build(&spec_int_2006()[1], 5); // bzip2
        let mut run = wl.run(20_000);
        let mut stream = NzdcStream::new(move || run.next_retired());
        while stream.next_retired().is_some() {}
        let x = stream.expansion();
        assert!(x > 1.7 && x < 2.8, "nZDC expansion {x:.2} out of plausible range");
    }

    #[test]
    fn nzdc_slower_than_vanilla() {
        let wl = Workload::build(&parsec3()[0], 3);
        let cfg = BigCoreConfig::sonic_boom();
        let mut big = BigCore::new(cfg);
        big.prewarm_icache(wl.entry(), 4 * wl.static_len as u64);
        let mut run = wl.run(10_000);
        let vanilla = big.run_to_drain(&mut || run.next_retired());
        let (nzdc, _) = run_nzdc(&cfg, &wl, 10_000);
        assert!(nzdc > vanilla, "nzdc ({nzdc}) must be slower than vanilla ({vanilla})");
    }

    #[test]
    fn shadow_map_is_injective_on_live_regs() {
        let live = [
            Reg::X6,
            Reg::X7,
            Reg::X8,
            Reg::X9,
            Reg::X10,
            Reg::X11,
            Reg::X14,
            Reg::X15,
            Reg::X18,
            Reg::X19,
            Reg::X20,
        ];
        let all_used = [
            Reg::X5,
            Reg::X6,
            Reg::X7,
            Reg::X8,
            Reg::X9,
            Reg::X10,
            Reg::X11,
            Reg::X12,
            Reg::X14,
            Reg::X15,
            Reg::X18,
            Reg::X19,
            Reg::X20,
            Reg::X24,
            Reg::X25,
            Reg::X26,
        ];
        let mut seen = std::collections::HashSet::new();
        for r in live {
            let s = shadow_reg(r);
            assert!(!all_used.contains(&s), "shadow of {r} collides with a used register");
            assert!(seen.insert(s), "shadow of {r} not unique");
        }
    }
}
