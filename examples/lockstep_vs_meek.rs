//! Head-to-head at equal silicon: MEEK versus an Equivalent-Area
//! LockStep pair (Fig. 6 style, one workload).
//!
//! ```sh
//! cargo run --release --example lockstep_vs_meek [benchmark]
//! ```

use meek_area::{ea_lockstep_scale, meek_area_overhead, BOOM_AREA_MM2};
use meek_baselines::{ea_lockstep_config, run_ea_lockstep};
use meek_core::{run_vanilla, MeekConfig, Sim};
use meek_workloads::{parsec3, spec_int_2006, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = args.get(1).map(String::as_str).unwrap_or("hmmer");
    let profile = spec_int_2006()
        .into_iter()
        .chain(parsec3())
        .find(|p| p.name == bench)
        .unwrap_or_else(|| panic!("unknown benchmark {bench}"));

    let insts = 40_000;
    let workload = Workload::build(&profile, 5);
    let cfg = MeekConfig::default();

    println!("area budget (28 nm):");
    println!("  BOOM alone:        {BOOM_AREA_MM2:.3} mm2");
    println!(
        "  MEEK (4 littles):  {:.3} mm2 (+{:.1}%)",
        BOOM_AREA_MM2 * (1.0 + meek_area_overhead(4)),
        meek_area_overhead(4) * 100.0
    );
    println!(
        "  EA-LockStep pair:  2 x {:.3}-scaled BOOM = same total silicon\n",
        ea_lockstep_scale(4)
    );

    let vanilla = run_vanilla(&cfg.big, &workload, insts);
    let meek =
        Sim::builder(&workload, insts).build().expect("a valid configuration").run().report.cycles;
    let lockstep = run_ea_lockstep(4, &workload, insts);
    let ls_cfg = ea_lockstep_config(4);

    println!("{bench} ({insts} instructions):");
    println!("  vanilla BOOM:  {vanilla} cycles (1.000)");
    println!("  MEEK:          {meek} cycles ({:.3})", meek as f64 / vanilla as f64);
    println!(
        "  EA-LockStep:   {lockstep} cycles ({:.3})  [core scaled to width {}, ROB {}]",
        lockstep as f64 / vanilla as f64,
        ls_cfg.width,
        ls_cfg.rob
    );
    println!(
        "\nMEEK buys full-coverage detection with idle little cores;\n\
         lockstep pays for it by shrinking the core you actually run on."
    );
}
