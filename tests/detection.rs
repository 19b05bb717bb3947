//! Detection soundness: injected faults in forwarded data must be caught
//! by the checkers, within FTTI-compatible latency.

use meek_core::{random_fault_specs, FaultSite, FaultSpec, Sim};
use meek_workloads::{parsec3, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run_one_fault(site: FaultSite, bit: u32, seed: u64) -> meek_core::RunReport {
    let p = &parsec3()[3]; // ferret
    let wl = Workload::build(p, seed);
    Sim::builder(&wl, 12_000)
        .faults(vec![FaultSpec { arm_at_commit: 5_000, site, bit }])
        .build()
        .expect("valid")
        .run()
        .report
}

#[test]
fn address_faults_always_detected() {
    // Address corruptions are compared directly in the LSL: both loads
    // and stores check the replayed effective address.
    for bit in [0u32, 7, 21, 40, 63] {
        let r = run_one_fault(FaultSite::MemAddr, bit, 0xAD0 + bit as u64);
        assert_eq!(r.detections.len(), 1, "bit {bit} escaped");
        assert!(r.masked_faults.is_empty());
    }
}

#[test]
fn checkpoint_faults_detected_at_register_compare() {
    for bit in [3u32, 17, 33, 59] {
        let r = run_one_fault(FaultSite::RcpRegister, bit, 0x3C0 + bit as u64);
        assert_eq!(
            r.detections.len() + r.masked_faults.len(),
            1,
            "fault neither detected nor accounted"
        );
        assert!(r.masked_faults.is_empty(), "checkpoint corruption must not escape (bit {bit})");
    }
}

#[test]
fn detection_latency_is_microsecond_scale() {
    let r = run_one_fault(FaultSite::MemAddr, 11, 0x1A7);
    let d = &r.detections[0];
    // The paper: average < 1 us, worst case 2.7 us, FTTI is milliseconds.
    assert!(d.latency_ns > 0.0);
    assert!(
        d.latency_ns < 1_000_000.0,
        "latency {} ns is not within the millisecond FTTI story",
        d.latency_ns
    );
}

#[test]
fn campaign_has_high_coverage_and_sane_latencies() {
    let p = &parsec3()[0]; // blackscholes
    let insts = 80_000;
    let wl = Workload::build(p, 0xCA4);
    let mut rng = SmallRng::seed_from_u64(0xCA4);
    let r = Sim::builder(&wl, insts)
        .faults(random_fault_specs(40, insts, &mut rng))
        .build()
        .expect("valid")
        .run()
        .report;
    assert!(r.detections.len() >= 10, "campaign too small: {} detections", r.detections.len());
    // Data and checkpoint faults can land on architecturally dead
    // values (masked faults, standard AVF derating); unmasked coverage
    // must still dominate.
    let processed = r.detections.len() + r.masked_faults.len();
    assert!(
        r.detections.len() as f64 / processed as f64 > 0.5,
        "coverage too low: {} of {processed}",
        r.detections.len()
    );
    for d in &r.detections {
        assert!(d.detected_cycle > d.injected_cycle);
        assert!(d.latency_ns < 3_000_000.0);
    }
}

#[test]
fn clean_run_has_zero_detections() {
    let p = &parsec3()[5];
    let wl = Workload::build(p, 0xC1E);
    let r = Sim::builder(&wl, 10_000).build().expect("valid").run().report;
    assert!(r.detections.is_empty());
    assert_eq!(r.failed_segments, 0, "no false positives");
}

#[test]
fn store_data_faults_detected_in_lsl() {
    // Repeatedly inject data faults until one lands on a store (store
    // data is compared directly in the LSL and can never be dead).
    let mut found_store_detection = false;
    for seed in 0..6u64 {
        let r = run_one_fault(FaultSite::MemData, (seed * 11 % 30) as u32, 0x57 + seed);
        if !r.detections.is_empty() {
            found_store_detection = true;
            break;
        }
    }
    assert!(found_store_detection, "no data fault detected across seeds");
}
