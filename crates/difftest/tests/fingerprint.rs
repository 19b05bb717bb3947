//! Cycle-exact fingerprint of the timing model: one line per run of a
//! fixed set — the vanilla big core and a 4-checker F2 system on every
//! SPEC/PARSEC profile, a 2-checker AXI system on a few profiles, every
//! benchmark-rotation program run whole, 16 fuzzed programs, and one
//! recovery-enabled fault run per kernel — pinned byte for byte against
//! `tests/goldens/fingerprint.txt`.
//!
//! A refactor of the big core, the fabric or the checkers that is meant
//! to be timing-neutral must leave this file unchanged; the paper's
//! shape tests (`tests/shapes.rs`) are the looser check on top. Each
//! field is written by name, so a new stats field does not churn the
//! golden. The big core's issue work over the same runs is pinned on
//! its own line in `tests/goldens/issue_work.txt`, so a scheduler
//! change that does more work for the same timing fails exactly.
//! Regenerate after a deliberate change with
//! `MEEK_REGEN_GOLDEN=1 cargo test -p meek-difftest --test fingerprint`
//! and explain the diff.

use meek_bigcore::{BigCore, BigCoreStats};
use meek_core::{
    run_vanilla, FabricKind, FaultSite, FaultSpec, MeekConfig, RecoveryPolicy, RunReport, Sim,
};
use meek_difftest::{fuzz_program, FuzzConfig};
use meek_progs::{dynamic_len, rotation_len, rotation_workload, set_dynamic_len, KERNELS};
use meek_workloads::{parsec3, spec_int_2006, BenchmarkProfile, Workload};
use std::fmt::Write;
use std::path::PathBuf;

/// Instructions per profile run: enough to leave the cold start and
/// fill the window, small enough for the debug test build.
const PROFILE_INSTS: u64 = 2_000;
/// Profiles that also run on the 2-checker AXI system.
const AXI_PROFILES: [&str; 3] = ["mcf", "gcc", "blackscholes"];
/// Fuzzed-program seeds.
const FUZZ_SEEDS: u64 = 16;
/// Instruction budget of a fuzzed program; most end before it.
const FUZZ_INSTS: u64 = 3_000;

/// The fingerprint lines, and the big core's issue work over the same
/// runs.
#[derive(Default)]
struct Fingerprint {
    lines: Vec<String>,
    issue_examined: u64,
    big_cycles: u64,
}

impl Fingerprint {
    fn big_core(&mut self, mut line: String, s: &BigCoreStats) -> String {
        write!(
            line,
            " committed={} fetched={} dir_mispredicts={} target_mispredicts={} stall_collect={} \
             stall_forward={} stall_little={} rob_full={} iq_full={} ldq_full={} stq_full={} \
             occupancy_sum={}",
            s.committed,
            s.fetched,
            s.direction_mispredicts,
            s.target_mispredicts,
            s.stall_collect,
            s.stall_forward,
            s.stall_little,
            s.rob_full_cycles,
            s.iq_full_cycles,
            s.ldq_full_cycles,
            s.stq_full_cycles,
            s.occupancy_sum,
        )
        .unwrap();
        self.issue_examined += s.issue_examined;
        self.big_cycles += s.cycles;
        line
    }

    fn vanilla(&mut self, name: &str, s: &BigCoreStats) {
        let line = self.big_core(format!("vanilla {name} cycles={}", s.cycles), s);
        self.lines.push(line);
    }

    fn system(&mut self, tag: &str, name: &str, r: &RunReport) {
        let head = format!("{tag} {name} cycles={} app_cycles={}", r.cycles, r.app_cycles);
        let mut line = self.big_core(head, &BigCoreStats { committed: r.committed, ..r.big });
        let busy: Vec<_> = r.littles.iter().map(|l| l.busy_cycles.to_string()).collect();
        let replayed: Vec<_> = r.littles.iter().map(|l| l.replayed_insts.to_string()).collect();
        let detections: Vec<_> = r
            .detections
            .iter()
            .map(|d| format!("{}+{}", d.detected_cycle, d.detected_cycle - d.injected_cycle))
            .collect();
        write!(
            line,
            " busy=[{}] replayed=[{}] delivered={} detections=[{}] rollbacks={}",
            busy.join(","),
            replayed.join(","),
            r.fabric.delivered,
            detections.join(","),
            r.recovery.rollbacks,
        )
        .unwrap();
        self.lines.push(line);
    }

    fn append(&mut self, other: Fingerprint) {
        self.lines.extend(other.lines);
        self.issue_examined += other.issue_examined;
        self.big_cycles += other.big_cycles;
    }
}

/// The vanilla big core's counters, driven as [`run_vanilla`] drives it.
fn vanilla(wl: &Workload, insts: u64) -> BigCoreStats {
    let mut big = BigCore::new(MeekConfig::default().big);
    big.prewarm_icache(wl.entry(), 4 * wl.static_len as u64);
    let mut run = wl.run(insts);
    big.run_to_drain(&mut || run.next_retired());
    big.stats()
}

fn run(wl: &Workload, insts: u64, little: usize, fabric: FabricKind) -> RunReport {
    Sim::builder(wl, insts)
        .little_cores(little)
        .fabric(fabric)
        .build_unobserved()
        .expect("valid configuration")
        .try_run()
        .expect("the system drains")
        .report
}

/// The runs of one profile: vanilla, F2 and, for some, AXI.
fn profile_runs(p: &BenchmarkProfile) -> Fingerprint {
    let wl = Workload::build(p, 1);
    let mut fp = Fingerprint::default();
    fp.vanilla(p.name, &vanilla(&wl, PROFILE_INSTS));
    fp.system("f2x4", p.name, &run(&wl, PROFILE_INSTS, 4, FabricKind::F2));
    if AXI_PROFILES.contains(&p.name) {
        fp.system("axix2", p.name, &run(&wl, PROFILE_INSTS, 2, FabricKind::Axi));
    }
    fp
}

/// Every run of the fingerprint.
fn fingerprint() -> Fingerprint {
    // Two workers over the profiles: building their images is most of
    // this test's time in a debug build.
    let profiles: Vec<_> = spec_int_2006().into_iter().chain(parsec3()).collect();
    let mut fp = Fingerprint::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = profiles
            .chunks(profiles.len().div_ceil(2))
            .map(|chunk| {
                s.spawn(move || {
                    let mut fp = Fingerprint::default();
                    chunk.iter().for_each(|p| fp.append(profile_runs(p)));
                    fp
                })
            })
            .collect();
        workers.into_iter().for_each(|w| fp.append(w.join().expect("profile worker")));
    });
    for case in 0..rotation_len() {
        let wl = rotation_workload(case);
        let insts = KERNELS.get(case as usize).map_or_else(set_dynamic_len, dynamic_len);
        fp.system("progs", wl.name, &run(wl, insts, 4, FabricKind::F2));
    }
    for seed in 0..FUZZ_SEEDS {
        let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
        fp.system("fuzz", &format!("seed{seed}"), &run(&wl, FUZZ_INSTS, 4, FabricKind::F2));
    }
    let mut rollbacks = 0;
    for (case, k) in KERNELS.iter().enumerate() {
        let wl = rotation_workload(case as u64);
        let insts = dynamic_len(k);
        let spec = FaultSpec { arm_at_commit: insts / 2, site: FaultSite::MemData, bit: 5 };
        let r = Sim::builder(wl, insts)
            .little_cores(4)
            .recovery(RecoveryPolicy::enabled())
            .faults(vec![spec])
            .build_unobserved()
            .expect("valid configuration")
            .try_run()
            .expect("the system drains")
            .report;
        rollbacks += r.recovery.rollbacks;
        fp.system("recover", k.name, &r);
    }
    assert!(rollbacks > 0, "the recovery runs must roll the big core back");
    fp
}

/// `text` against the committed golden `name`, line by line; rewritten
/// first under `MEEK_REGEN_GOLDEN`.
fn check_golden(name: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
    if std::env::var_os("MEEK_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("tests/goldens/{name} missing — run with MEEK_REGEN_GOLDEN=1"));
    for (i, (now, was)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(now, was, "{name} line {} drifted", i + 1);
    }
    assert_eq!(text.lines().count(), golden.lines().count(), "{name}: the run set changed");
}

#[test]
fn the_timing_model_matches_its_fingerprint() {
    let fp = fingerprint();
    check_golden("fingerprint.txt", &fp.lines.iter().map(|l| format!("{l}\n")).collect::<String>());
    check_golden(
        "issue_work.txt",
        &format!("issue_examined={} big_cycles={}\n", fp.issue_examined, fp.big_cycles),
    );
}

#[test]
fn the_vanilla_lines_drive_the_core_as_run_vanilla_does() {
    let wl = Workload::build(&parsec3()[0], 1);
    let cycles = run_vanilla(&MeekConfig::default().big, &wl, PROFILE_INSTS);
    assert_eq!(vanilla(&wl, PROFILE_INSTS).cycles, cycles);
}
