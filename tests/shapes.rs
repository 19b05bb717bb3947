//! Result-shape regression tests: the qualitative claims of the paper's
//! evaluation must hold in the reproduction (DESIGN.md §6). These are
//! small versions of the Fig. 6/7/8/9/10 harnesses with assertions
//! instead of tables.

use meek_core::report::geomean;
use meek_core::{random_fault_specs, run_vanilla, FabricKind, MeekConfig, RunReport, Sim};
use meek_littlecore::LittleCoreConfig;
use meek_workloads::{parsec3, spec_int_2006, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const INSTS: u64 = 20_000;

fn measure(cfg: MeekConfig, wl: &Workload) -> RunReport {
    Sim::builder(wl, INSTS).config(cfg).build().expect("valid").run().report
}

fn slowdown(cfg: MeekConfig, wl: &Workload, vanilla: u64) -> f64 {
    measure(cfg, wl).app_cycles as f64 / vanilla as f64
}

#[test]
fn fig7_shape_detections_land_within_3us() {
    // The paper: 3 us covers over 99.9 % of detections. Ten faults per
    // SPEC and PARSEC profile give about 160 detections, so 99.9 %
    // leaves none beyond 3 us.
    let (insts, faults) = (40_000, 10);
    let mut latencies = Vec::new();
    for (i, p) in spec_int_2006().iter().chain(&parsec3()).enumerate() {
        let wl = Workload::build(p, 0xF7);
        let mut rng = SmallRng::seed_from_u64(0xF7 + i as u64);
        let report = Sim::builder(&wl, insts)
            .faults(random_fault_specs(faults, insts * 7 / 10, &mut rng))
            .build()
            .expect("valid")
            .run()
            .report;
        latencies.extend(report.detections.iter().map(|d| d.latency_ns));
    }
    let n = latencies.len();
    assert!(n >= 100, "too few detections to read a 99.9 % bound: {n}");
    let late = latencies.iter().filter(|&&ns| ns > 3_000.0).count();
    assert!(late as f64 <= 0.001 * n as f64, "{late} of {n} detections took over 3 us");
}

#[test]
fn fig8_shape_superlinear_decline() {
    // Geomean over a 3-benchmark sample: slowdown falls superlinearly
    // from 2 to 4 to 6 cores.
    let mut s2 = Vec::new();
    let mut s4 = Vec::new();
    let mut s6 = Vec::new();
    for p in [&parsec3()[0], &parsec3()[5], &parsec3()[7]] {
        let wl = Workload::build(p, 0xF8);
        let vanilla = run_vanilla(&MeekConfig::default().big, &wl, INSTS);
        s2.push(slowdown(MeekConfig::with_little_cores(2), &wl, vanilla));
        s4.push(slowdown(MeekConfig::with_little_cores(4), &wl, vanilla));
        s6.push(slowdown(MeekConfig::with_little_cores(6), &wl, vanilla));
    }
    let (g2, g4, g6) = (geomean(&s2), geomean(&s4), geomean(&s6));
    assert!(g2 > g4 && g4 >= g6, "monotone decline: {g2:.3} {g4:.3} {g6:.3}");
    // Superlinear: the 2->4 drop dwarfs the 4->6 drop.
    assert!((g2 - g4) > 2.0 * (g4 - g6), "superlinear decline expected: {g2:.3} {g4:.3} {g6:.3}");
    assert!(g2 > 1.25, "2 cores must visibly throttle ({g2:.3})");
    assert!(g4 < 1.25, "4 cores must mostly keep up ({g4:.3})");
}

#[test]
fn fig6_shape_swaptions_is_worst() {
    // Swaptions' division density makes it MEEK's worst PARSEC case.
    let mut worst = ("", 0.0f64);
    let mut swaptions = 0.0;
    for p in &parsec3() {
        let wl = Workload::build(p, 0xF6);
        let vanilla = run_vanilla(&MeekConfig::default().big, &wl, INSTS);
        let s = slowdown(MeekConfig::default(), &wl, vanilla);
        if s > worst.1 {
            worst = (p.name, s);
        }
        if p.name == "swaptions" {
            swaptions = s;
        }
    }
    assert_eq!(worst.0, "swaptions", "worst = {} at {:.3}", worst.0, worst.1);
    assert!(swaptions > 1.08, "swaptions must show clear overhead ({swaptions:.3})");
}

#[test]
fn fig9_shape_axi_worse_than_f2() {
    // The AXI-Interconnect's narrow bus must cost visibly more than F2,
    // and its overhead must be dominated by forwarding stalls.
    let mut axi = Vec::new();
    let mut f2 = Vec::new();
    let mut fwd_dominant = 0;
    for p in [&parsec3()[1], &parsec3()[2], &parsec3()[5]] {
        let wl = Workload::build(p, 0xF9);
        let vanilla = run_vanilla(&MeekConfig::default().big, &wl, INSTS);
        let cfg = MeekConfig { fabric: FabricKind::Axi, ..MeekConfig::default() };
        let r = measure(cfg, &wl);
        axi.push(r.app_cycles as f64 / vanilla as f64);
        if r.stalls.data_forward > r.stalls.little_core {
            fwd_dominant += 1;
        }
        f2.push(slowdown(MeekConfig::default(), &wl, vanilla));
    }
    let (ga, gf) = (geomean(&axi), geomean(&f2));
    assert!(ga > gf + 0.02, "AXI ({ga:.3}) must cost more than F2 ({gf:.3})");
    assert!(fwd_dominant >= 2, "AXI overhead should be forwarding-bound");
}

#[test]
fn fig10_shape_optimized_little_core_wins_on_div_workloads() {
    // 4 optimized little cores vs 4 default Rockets on swaptions: the
    // divider/FPU gap must show, and 4 optimized must be comparable to
    // 6 default (the paper's §V-D claim).
    let swaptions = parsec3().into_iter().find(|p| p.name == "swaptions").expect("profile");
    let wl = Workload::build(&swaptions, 0xF10);
    let vanilla = run_vanilla(&MeekConfig::default().big, &wl, INSTS);
    let opt4 = slowdown(
        MeekConfig { little: LittleCoreConfig::optimized(), ..MeekConfig::default() },
        &wl,
        vanilla,
    );
    let def4 = slowdown(
        MeekConfig { little: LittleCoreConfig::default_rocket(), ..MeekConfig::default() },
        &wl,
        vanilla,
    );
    let def6 = slowdown(
        MeekConfig {
            little: LittleCoreConfig::default_rocket(),
            n_little: 6,
            ..MeekConfig::default()
        },
        &wl,
        vanilla,
    );
    assert!(def4 > opt4 * 1.1, "default Rocket must lag clearly ({def4:.3} vs {opt4:.3})");
    assert!(
        (opt4 - def6).abs() < 0.35,
        "4 optimized ({opt4:.3}) should be comparable to 6 default ({def6:.3})"
    );
}

#[test]
fn table3_shape_area_overhead() {
    // 25.8% measured here vs 24% estimated by DSN'18 — close in total,
    // very different in composition (the paper's gap analysis).
    let [ours, dsn] = meek_area::table3();
    assert!((ours.overhead - 0.258).abs() < 0.002);
    assert!((dsn.overhead - 0.24).abs() < 0.01);
    assert!(ours.wrapper_mm2.is_some() && dsn.wrapper_mm2.is_none());
    assert_eq!(ours.n_little * 3, dsn.n_little); // 4 vs 12 cores
}
