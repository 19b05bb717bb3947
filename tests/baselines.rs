//! Baseline comparators behave per the paper: Nzdc (software
//! duplication) and EA-LockStep both cost far more than MEEK.

use meek_baselines::{ea_lockstep_config, run_ea_lockstep, run_nzdc, NzdcStream};
use meek_core::{run_vanilla, MeekConfig, Sim};
use meek_workloads::{parsec3, spec_int_2006, Workload};

const INSTS: u64 = 10_000;

#[test]
fn meek_beats_both_baselines() {
    // The Fig. 6 ordering: MEEK < EA-LockStep < Nzdc.
    let p = spec_int_2006().into_iter().find(|p| p.name == "hmmer").expect("profile");
    let wl = Workload::build(&p, challenge_seed());
    let cfg = MeekConfig::default();
    let vanilla = run_vanilla(&cfg.big, &wl, INSTS);
    let meek_report = Sim::builder(&wl, INSTS).build().expect("valid").run().report;
    let meek = meek_report.app_cycles as f64 / vanilla as f64;
    let lockstep = run_ea_lockstep(4, &wl, INSTS) as f64 / vanilla as f64;
    let (nz, _) = run_nzdc(&cfg.big, &wl, INSTS);
    let nzdc = nz as f64 / vanilla as f64;
    assert!(meek < lockstep, "MEEK ({meek:.3}) must beat EA-LockStep ({lockstep:.3})");
    assert!(lockstep < nzdc, "EA-LockStep ({lockstep:.3}) must beat Nzdc ({nzdc:.3})");
}

const fn challenge_seed() -> u64 {
    0xA5
}

#[test]
fn nzdc_expansion_matches_published_range() {
    // nZDC reports roughly 2.2x dynamic instructions on SPEC-class code.
    for p in spec_int_2006().iter().filter(|p| p.nzdc_compilable).take(4) {
        let wl = Workload::build(p, 0x42);
        let mut run = wl.run(INSTS);
        let mut stream = NzdcStream::new(move || run.next_retired());
        while stream.next_retired().is_some() {}
        let x = stream.expansion();
        assert!(
            (1.6..3.0).contains(&x),
            "{}: expansion {x:.2} outside the published range",
            p.name
        );
    }
}

#[test]
fn nzdc_duplicates_loads() {
    let p = &spec_int_2006()[3]; // mcf: load heavy
    let wl = Workload::build(p, 0x43);
    let mut run = wl.run(INSTS);
    let mut orig_loads = 0u64;
    {
        let mut probe = wl.run(INSTS);
        while let Some(r) = probe.next_retired() {
            orig_loads += u64::from(matches!(r.class, meek_isa::ExecClass::Load));
        }
    }
    let mut stream = NzdcStream::new(move || run.next_retired());
    let mut nz_loads = 0u64;
    while let Some(r) = stream.next_retired() {
        nz_loads += u64::from(matches!(r.class, meek_isa::ExecClass::Load));
    }
    assert!(
        nz_loads >= orig_loads * 2,
        "nZDC performs every load twice (+ store load-backs): {nz_loads} vs {orig_loads}"
    );
}

#[test]
fn ea_lockstep_area_equivalence() {
    use meek_area::{big_core_scaled_area, ea_lockstep_scale, meek_area_overhead, BOOM_AREA_MM2};
    let pair = 2.0 * big_core_scaled_area(ea_lockstep_scale(4));
    let meek_total = BOOM_AREA_MM2 * (1.0 + meek_area_overhead(4));
    assert!((pair - meek_total).abs() < 1e-9, "the comparison is area-fair by construction");
}

#[test]
fn ea_lockstep_config_shrinks_caches_too() {
    let cfg = ea_lockstep_config(4);
    let full = MeekConfig::default().big;
    assert!(cfg.hierarchy.l1d.size < full.hierarchy.l1d.size);
    assert!(cfg.hierarchy.l1d.mshrs < full.hierarchy.l1d.mshrs);
}

#[test]
fn nzdc_skips_uncompilable_benchmarks() {
    let failing: Vec<&str> = spec_int_2006()
        .iter()
        .chain(parsec3().iter())
        .filter(|p| !p.nzdc_compilable)
        .map(|p| p.name)
        .collect();
    assert_eq!(failing, ["gcc", "omnetpp", "xalancbmk", "freqmine"], "paper footnote 6");
}
