//! Ablation: DC-Buffer depth and F2 bandwidth / selective broadcast
//! (design choices called out in DESIGN.md §7).
//!
//! The dual-channel buffers absorb commit bursts; the HM-NoC's
//! two-packets-per-cycle and multicast are what keep the fabric off the
//! critical path (paper §III-B).
//!
//! Every sweep point is an independent simulation, so the whole grid
//! fans out on the `meek-campaign` executor (`MEEK_THREADS` workers);
//! results are printed in sweep order regardless of thread count.

use meek_bench::{banner, executor, sim_insts, write_csv};
use meek_core::{run_vanilla, FabricKind, MeekConfig, RunReport, Sim};
use meek_fabric::DcBufferConfig;
use meek_workloads::{parsec3, Workload};

/// One point of the sweep grid.
#[derive(Clone, Copy)]
enum Point {
    /// Built-in fabric comparison (F2 vs AXI system configuration).
    Fabric(&'static str, FabricKind),
    /// F2 with both DC-Buffer channels swept to `depth`.
    DcDepth(usize),
}

fn simulate(point: Point, wl: &Workload, insts: u64) -> RunReport {
    let builder = match point {
        Point::Fabric(_, kind) => Sim::builder(wl, insts).fabric(kind),
        Point::DcDepth(depth) => {
            // The status channel is twice as deep, as in the default.
            let dc_buffer = DcBufferConfig { runtime_depth: depth, status_depth: depth * 2 };
            Sim::builder(wl, insts).config(MeekConfig { dc_buffer, ..MeekConfig::default() })
        }
    };
    builder.build_unobserved().expect("ablation grid points are valid").run().report
}

fn main() {
    let insts = sim_insts();
    let ex = executor();
    banner(
        "Ablation — DC-Buffer depth and fabric bandwidth (bodytrack, 4 cores)",
        &format!("{insts} dynamic instructions per point, {} threads", ex.threads()),
    );
    let p = parsec3().into_iter().find(|p| p.name == "bodytrack").expect("profile");
    let wl = Workload::build(&p, 0xAB2);
    let vanilla = run_vanilla(&MeekConfig::default().big, &wl, insts);
    let mut rows = Vec::new();

    let fabric_points = [
        Point::Fabric("F2 (256b, 2/cyc)", FabricKind::F2),
        Point::Fabric("AXI (128b, 1/beat)", FabricKind::Axi),
    ];
    let depth_points: Vec<Point> = [1usize, 2, 4, 8, 16].map(Point::DcDepth).to_vec();
    let grid: Vec<Point> = fabric_points.iter().chain(depth_points.iter()).copied().collect();
    let reports = ex.map(&grid, |_i, &point| simulate(point, &wl, insts));

    // Fabric bandwidth comparison at fixed DC depth (uses the built-in
    // F2 vs AXI system configurations).
    println!("\nInterconnect comparison:");
    println!("{:>18} {:>10} {:>10} {:>10}", "fabric", "slowdown", "txns", "mcastSave");
    for (point, r) in grid.iter().zip(&reports).take(fabric_points.len()) {
        let Point::Fabric(name, _) = point else { unreachable!("grid starts with fabrics") };
        println!(
            "{name:>18} {:>10.3} {:>10} {:>10}",
            r.slowdown_vs(vanilla),
            r.fabric.transactions,
            r.fabric.multicast_saved
        );
        rows.push(format!(
            "fabric,{name},{:.4},{},{}",
            r.slowdown_vs(vanilla),
            r.fabric.transactions,
            r.fabric.multicast_saved
        ));
    }

    // Selective broadcast value: count the transactions a unicast-only
    // fabric needs for the same traffic (status data goes to two cores).
    println!("\nSelective broadcast (measured on raw fabrics, same packet mix):");
    let (f2, axi) = (FabricKind::F2.payload_words(), FabricKind::Axi.payload_words());
    println!("  F2 payload: {f2} words/packet; AXI payload: {axi} words/packet");
    println!(
        "  a 65-word checkpoint costs {} F2 chunks vs {} AXI beats x2 destinations",
        65u32.div_ceil(f2),
        65u32.div_ceil(axi)
    );

    // DC-Buffer depth sweep (F2): smaller buffers push burst pressure
    // into commit stalls.
    println!("\nDC-Buffer depth sweep (F2):");
    println!("{:>8} {:>10} {:>10}", "depth", "slowdown", "collect+fwd");
    for (point, r) in grid.iter().zip(&reports).skip(fabric_points.len()) {
        let Point::DcDepth(depth) = point else { unreachable!("grid tail is depths") };
        println!(
            "{depth:>8} {:>10.3} {:>10}",
            r.slowdown_vs(vanilla),
            r.stalls.data_collect + r.stalls.data_forward
        );
        rows.push(format!(
            "dc_depth,{depth},{:.4},{},",
            r.slowdown_vs(vanilla),
            r.stalls.data_collect + r.stalls.data_forward
        ));
    }
    write_csv("ablation_dc.csv", "sweep,value,slowdown,a,b", &rows);
}
