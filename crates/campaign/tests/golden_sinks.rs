//! Golden-file tests for the campaign output: byte-exact CSV and
//! JSON-lines records, as [`ShardResult`] renders them, for a fixed,
//! synthetic stream of shards.
//!
//! Campaign output is consumed by offline tooling and compared across
//! runs by the determinism CI job; a formatting drift (column order, a
//! float precision change, a forgotten header) silently invalidates
//! both. These tests pin the exact bytes without simulating anything —
//! the record stream is synthesized from a fixed seed, so a rendering
//! regression is caught in milliseconds, not after a full campaign.

use meek_campaign::{CampaignRecord, ShardResult, ShardSummary};
use meek_core::fault::{DetectionRecord, FaultSite};
use meek_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GOLDEN_CSV: &str = include_str!("golden/records.csv");
const GOLDEN_JSONL: &str = include_str!("golden/records.jsonl");

/// A fixed synthetic campaign: three workloads, two shards each, a
/// handful of detections per shard — every field driven by one seeded
/// stream so the bytes are reproducible forever.
fn synthetic_stream() -> Vec<ShardResult> {
    let mut rng = SmallRng::seed_from_u64(0x60_1D);
    let mut shards = Vec::new();
    for workload in ["blackscholes", "mcf", "swaptions"] {
        for shard in 0..2u32 {
            let mut records = Vec::new();
            let detections = rng.gen_range(2..5usize);
            let mut recovered = 0u64;
            for _ in 0..detections {
                let injected_cycle = rng.gen_range(1_000..2_000_000u64);
                let delta = rng.gen_range(10..20_000u64);
                // Half the synthetic detections recovered, pinning both
                // states of the recovery-latency columns.
                let recovery_cycles = if rng.gen_bool(0.5) {
                    recovered += 1;
                    Some(rng.gen_range(500..80_000u64))
                } else {
                    None
                };
                records.push(CampaignRecord {
                    workload,
                    shard,
                    detection: DetectionRecord {
                        site: FaultSite::ALL[rng.gen_range(0..3)],
                        injected_cycle,
                        detected_cycle: injected_cycle + delta,
                        latency_ns: delta as f64 * 0.3125,
                        seg: rng.gen_range(1..400u32),
                        recovery_cycles,
                    },
                });
            }
            let summary = ShardSummary {
                workload,
                shard,
                faults: detections + 1,
                detected: detections,
                masked: 1,
                pending: 0,
                verified_segments: rng.gen_range(50..500u64),
                failed_segments: detections as u64,
                cycles: rng.gen_range(1_000_000..9_000_000u64),
                committed: rng.gen_range(100_000..900_000u64),
                rollbacks: recovered,
                recovered,
                unrecovered: 0,
                storage_bytes_hwm: rng.gen_range(10_000..200_000u64),
            };
            let (trace, samples, metrics) = (Vec::new(), Vec::new(), Registry::new());
            shards.push(ShardResult { records, summary, trace, samples, metrics });
        }
    }
    shards
}

/// The records CSV of the synthetic campaign, as `meek-campaign` writes it.
fn render_csv() -> Vec<u8> {
    let mut out = Vec::new();
    for shard in synthetic_stream() {
        let header = out.is_empty();
        shard.write_records_csv(&mut out, header).unwrap();
    }
    out
}

/// The records JSON lines of the synthetic campaign.
fn render_jsonl() -> Vec<u8> {
    let mut out = Vec::new();
    for shard in synthetic_stream() {
        shard.write_records_jsonl(&mut out).unwrap();
    }
    out
}

/// Regenerates the golden files after an *intentional* format change:
/// `MEEK_REGEN_GOLDEN=1 cargo test -p meek-campaign golden`.
#[test]
fn regenerate_golden_files_when_asked() {
    if std::env::var_os("MEEK_REGEN_GOLDEN").is_none() {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::write(format!("{dir}/records.csv"), render_csv()).unwrap();
    std::fs::write(format!("{dir}/records.jsonl"), render_jsonl()).unwrap();
}

#[test]
fn csv_sink_matches_golden_bytes() {
    let text = String::from_utf8(render_csv()).unwrap();
    assert_eq!(text, GOLDEN_CSV, "CSV byte format drifted from tests/golden/records.csv");
}

#[test]
fn jsonl_sink_matches_golden_bytes() {
    let text = String::from_utf8(render_jsonl()).unwrap();
    assert_eq!(text, GOLDEN_JSONL, "JSONL byte format drifted from tests/golden/records.jsonl");
}

#[test]
fn jsonl_lines_parse_as_flat_json_objects() {
    // Without a JSON dependency, check the invariants tooling relies
    // on: one object per line, no nesting, stable key order.
    const KEYS: [&str; 9] = [
        "workload",
        "shard",
        "site",
        "injected_cycle",
        "detected_cycle",
        "latency_ns",
        "seg",
        "recovered",
        "recovery_cycles",
    ];
    for line in GOLDEN_JSONL.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        assert_eq!(line.matches('{').count(), 1, "nested object: {line}");
        let mut at = 0;
        for key in KEYS {
            let needle = format!("\"{key}\":");
            let pos = line[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("key `{key}` missing or out of order: {line}"));
            at += pos + needle.len();
        }
    }
}

#[test]
fn shard_fold_tallies_the_synthetic_stream() {
    let shards = synthetic_stream();
    let mut total = ShardSummary::default();
    for shard in &shards {
        total.add(&shard.summary);
    }
    let records: usize = shards.iter().map(|s| s.records.len()).sum();
    assert_eq!(total.detected, records);
    assert_eq!(total.faults, records + shards.len(), "one masked fault per shard");
    assert_eq!(total.masked, shards.len() as u64);
    let peak = shards.iter().map(|s| s.summary.storage_bytes_hwm).max().unwrap();
    assert_eq!(total.storage_bytes_hwm, peak, "the storage high-water mark is a peak, not a sum");
    assert_eq!(total.cycles, shards.iter().map(|s| s.summary.cycles).sum::<u64>(), "cycles add up");
}
