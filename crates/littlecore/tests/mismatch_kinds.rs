//! Exhaustive `MismatchKind` coverage: every divergence class the
//! checker can report, provoked by targeted corruption of the LSL
//! run-time way or the SRCP/ERCP status data.
//!
//! One small program exercises a load, a store, and a CSR access; each
//! test corrupts exactly one forwarded artifact and asserts the replay
//! fails with exactly the expected kind.

use meek_fabric::{DestMask, Packet, PacketSink, Payload};
use meek_isa::inst::{AluImmOp, AluOp, CsrOp, Inst, LoadOp, StoreOp};
use meek_isa::state::{CheckpointMismatch, RegCheckpoint};
use meek_isa::{encode, exec, ArchState, Bus, Reg, SparseMemory};
use meek_littlecore::{LittleCore, LittleCoreConfig, MismatchKind};

const CHUNKS: usize = 17;
const SEG: u32 = 1;

/// The probe program: one load, one CSR access, one store — every
/// record class the LSL carries.
fn program() -> Vec<Inst> {
    vec![
        Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X1, rs1: Reg::X0, imm: 7 },
        Inst::Load { op: LoadOp::Ld, rd: Reg::X2, rs1: Reg::X5, offset: 0 },
        Inst::Csr { op: CsrOp::Rw, rd: Reg::X3, rs1: Reg::X1, csr: 0x340 },
        Inst::Alu { op: AluOp::Add, rd: Reg::X4, rs1: Reg::X1, rs2: Reg::X2 },
        Inst::Store { op: StoreOp::Sd, rs1: Reg::X5, rs2: Reg::X4, offset: 8 },
    ]
}

struct GoldenParts {
    imem: SparseMemory,
    srcp: RegCheckpoint,
    packets: Vec<Packet>,
    ercp: RegCheckpoint,
    n: u64,
}

/// Executes the program functionally and collects the forwarded data a
/// clean DEU would extract.
fn golden() -> GoldenParts {
    let insts = program();
    let words: Vec<u32> = insts.iter().map(encode).collect();
    let mut mem = SparseMemory::new();
    mem.load_program(0x1000, &words);
    mem.write(0x8000, 8, 0xFEED_F00D_CAFE_0123);
    let mut st = ArchState::new(0x1000);
    st.set_x(Reg::X5, 0x8000);
    let srcp = st.checkpoint();
    let end = 0x1000 + 4 * words.len() as u64;
    let mut packets = Vec::new();
    let mut seq = 0u64;
    let mut n = 0u64;
    while st.pc < end {
        let r = exec::step(&mut st, &mut mem).expect("golden run is trap-free");
        n += 1;
        if let Some(m) = r.mem {
            packets.push(Packet {
                seq,
                dest: DestMask::single(0),
                payload: Payload::Mem {
                    seg: SEG,
                    addr: m.addr,
                    size: m.size,
                    data: m.data,
                    is_store: m.is_store,
                },
                created_at: 0,
            });
            seq += 1;
        }
        if let Some((addr, data)) = r.csr_read {
            packets.push(Packet {
                seq,
                dest: DestMask::single(0),
                payload: Payload::Csr { seg: SEG, addr, data },
                created_at: 0,
            });
            seq += 1;
        }
    }
    GoldenParts { imem: mem, srcp, packets, ercp: st.checkpoint(), n }
}

/// Runs a replay with `corrupt` applied to the golden parts and
/// returns the failing mismatch (panics on a clean pass).
fn replay_with(corrupt: impl FnOnce(&mut GoldenParts)) -> MismatchKind {
    let mut parts = golden();
    corrupt(&mut parts);
    let mut core = LittleCore::new(0, LittleCoreConfig::optimized(), CHUNKS);
    core.seed_initial_checkpoint(parts.srcp);
    core.assign(SEG);
    for p in parts.packets {
        core.lsl.deliver(p, 0);
    }
    core.lsl.deliver(
        Packet {
            seq: u64::MAX,
            dest: DestMask::single(0),
            payload: Payload::RcpEnd { seg: SEG, inst_count: parts.n, cp: Box::new(parts.ercp) },
            created_at: 0,
        },
        0,
    );
    for now in 0..100_000 {
        if let (_, Some(verdict)) = core.check(now, &parts.imem, now) {
            assert!(!verdict.pass, "corruption must not verify clean");
            return verdict.mismatch.expect("failed segment carries a mismatch");
        }
    }
    panic!("no verdict");
}

fn corrupt_mem<F: FnMut(&mut u64, &mut u8, &mut u64, bool)>(parts: &mut GoldenParts, mut f: F) {
    for p in &mut parts.packets {
        if let Payload::Mem { addr, size, data, is_store, .. } = &mut p.payload {
            f(addr, size, data, *is_store);
        }
    }
}

#[test]
fn sanity_clean_replay_passes() {
    let parts = golden();
    let mut core = LittleCore::new(0, LittleCoreConfig::optimized(), CHUNKS);
    core.seed_initial_checkpoint(parts.srcp);
    core.assign(SEG);
    for p in parts.packets {
        core.lsl.deliver(p, 0);
    }
    core.lsl.deliver(
        Packet {
            seq: u64::MAX,
            dest: DestMask::single(0),
            payload: Payload::RcpEnd { seg: SEG, inst_count: parts.n, cp: Box::new(parts.ercp) },
            created_at: 0,
        },
        0,
    );
    for now in 0..100_000 {
        if let (_, Some(verdict)) = core.check(now, &parts.imem, now) {
            assert!(verdict.pass, "uncorrupted replay must pass");
            return;
        }
    }
    panic!("no verdict");
}

#[test]
fn load_addr_mismatch() {
    let kind = replay_with(|parts| {
        corrupt_mem(parts, |addr, _, _, is_store| {
            if !is_store {
                *addr ^= 0x100;
            }
        });
    });
    assert_eq!(kind, MismatchKind::LoadAddr);
}

#[test]
fn store_addr_mismatch() {
    let kind = replay_with(|parts| {
        corrupt_mem(parts, |addr, _, _, is_store| {
            if is_store {
                *addr ^= 0x40;
            }
        });
    });
    assert_eq!(kind, MismatchKind::StoreAddr);
}

#[test]
fn store_data_mismatch() {
    let kind = replay_with(|parts| {
        corrupt_mem(parts, |_, _, data, is_store| {
            if is_store {
                *data ^= 1 << 13;
            }
        });
    });
    assert_eq!(kind, MismatchKind::StoreData);
}

#[test]
fn access_size_mismatch() {
    let kind = replay_with(|parts| {
        corrupt_mem(parts, |_, size, _, is_store| {
            if !is_store {
                *size = 4; // the ld expects an 8-byte record
            }
        });
    });
    assert_eq!(kind, MismatchKind::AccessSize);
}

#[test]
fn record_type_mismatch() {
    // Flip the load record into a store record: right address and data,
    // wrong record class.
    let kind = replay_with(|parts| {
        corrupt_mem(parts, |_, _, _, _| {});
        for p in &mut parts.packets {
            if let Payload::Mem { is_store, .. } = &mut p.payload {
                if !*is_store {
                    *is_store = true;
                    break;
                }
            }
        }
    });
    assert_eq!(kind, MismatchKind::RecordType);
}

#[test]
fn csr_addr_mismatch() {
    let kind = replay_with(|parts| {
        for p in &mut parts.packets {
            if let Payload::Csr { addr, .. } = &mut p.payload {
                *addr = 0x341; // the csrrw targets 0x340
            }
        }
    });
    assert_eq!(kind, MismatchKind::CsrAddr);
}

#[test]
fn replay_trap_on_corrupted_srcp_pc() {
    // A corrupted SRCP PC steers fetch into non-code bytes; the
    // Mini-Decoder rejects the zero word and the checker reports a
    // replay trap carrying the faulting PC and the raw word it refused.
    let kind = replay_with(|parts| {
        parts.srcp.pc = 0x9000;
    });
    assert_eq!(kind, MismatchKind::ReplayTrap { pc: 0x9000, word: 0 });
}

#[test]
fn replay_trap_reports_the_undecodable_word_and_pc() {
    // Corrupt the third code word in place: the replay trap must carry
    // exactly the garbage bits the Mini-Decoder saw and where.
    let kind = replay_with(|parts| {
        parts.imem.write(0x1008, 4, 0xFFFF_FFFF);
    });
    assert_eq!(kind, MismatchKind::ReplayTrap { pc: 0x1008, word: 0xFFFF_FFFF });
}

#[test]
fn register_mismatch_at_ercp_compare() {
    let kind = replay_with(|parts| {
        parts.ercp.x[4] ^= 1 << 22;
    });
    // Replayed x4 = x1 + x2 = 7 + the loaded doubleword; the "expected"
    // side carries the corrupted forwarded checkpoint.
    let clean_x4 = 0xFEED_F00D_CAFE_0123u64.wrapping_add(7);
    assert_eq!(
        kind,
        MismatchKind::Register(CheckpointMismatch::X {
            index: 4,
            expected: clean_x4 ^ (1 << 22),
            actual: clean_x4,
        })
    );
}

#[test]
fn fp_register_mismatch_reported_distinctly() {
    let kind = replay_with(|parts| {
        parts.ercp.f[2] ^= 1;
    });
    assert!(
        matches!(kind, MismatchKind::Register(CheckpointMismatch::F { index: 2, .. })),
        "unexpected kind {kind:?}"
    );
}
