//! `campaign-profiles`: campaigns over all 20 SPECint2006 and PARSEC3
//! profiles with the default sharding (25 faults and 100 k instructions
//! per shard), detect-only, through `run_shard` against a
//! `WorkloadCache` filled in set-up, as `meek-serve` runs them; records
//! stream through `CsvSink`.
//!
//! One long `Sim` serves 25 faults, so construction is a rounding error
//! and the time goes to `MeekSystem::tick`, most of it in the big core:
//! this is where big-core tick work must show, and where construction
//! and fork changes must show no change.
//!
//! A campaign synthesises one program per profile from its seed, and
//! detection latency depends on the program as much as on the faults.
//! So a run is several campaigns, each at its own seed derived from the
//! run's seed, with one shard per profile each: the latency figures then
//! rest on as many programs per profile as there are campaigns.

use crate::bench::{case_seed, duration_percentile, Bench};
use crate::metrics::Values;
use crate::probe;
use crate::tally::{check_shard, fnv1a, Tally, FNV_OFFSET};
use crate::trace::{Trace, Tracer};
use meek_campaign::spec::DEFAULT_FAULTS_PER_SHARD;
use meek_campaign::{
    resolve_suite, run_shard, CampaignSpec, CampaignWorkload, CsvSink, RecordSink, ShardSpec,
};
use meek_workloads::{BenchmarkProfile, WorkloadCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Shards per 10 s of `--seconds`: a 100 k-instruction shard takes about
/// 0.1 s of host time on a 2-vCPU x86-64 VM.
const SHARDS_PER_10S: u64 = 100;

/// Instruction budget of each profile's layer probes.
const PROBE_INSTS: u64 = 25_000;

pub struct CampaignProfiles;

/// The profile behind a workload of the `all` suite.
fn profile(w: &CampaignWorkload) -> &BenchmarkProfile {
    match w {
        CampaignWorkload::Profile(p) => p,
        _ => unreachable!("`all` is profiles only"),
    }
}

pub struct Setup {
    /// The campaigns, each over the whole suite at its own seed.
    campaigns: Vec<CampaignSpec>,
    /// `(campaign index, shard)`, in run order.
    shards: Vec<(usize, ShardSpec)>,
    cache: WorkloadCache,
    /// Host time synthesising each program.
    build_ns: Vec<u64>,
}

impl Bench for CampaignProfiles {
    type Setup = Setup;
    const SETUP_RUNS: usize = 4;

    fn setup(seed: u64, seconds: u64) -> Setup {
        let profiles = resolve_suite("all").expect("`all` is a built-in suite");
        let n = (seconds * SHARDS_PER_10S).div_ceil(10 * profiles.len() as u64);
        let campaigns: Vec<CampaignSpec> = (0..n)
            .map(|c| {
                CampaignSpec::new(profiles.clone(), DEFAULT_FAULTS_PER_SHARD, case_seed(seed, c))
            })
            .collect();
        let cache = WorkloadCache::new();
        let mut build_ns = Vec::new();
        let mut shards = Vec::new();
        for (c, spec) in campaigns.iter().enumerate() {
            for w in &spec.workloads {
                let t = Instant::now();
                cache.get(profile(w), spec.workload_seed(w.name()));
                build_ns.push(t.elapsed().as_nanos() as u64);
            }
            shards.extend(spec.shards().into_iter().map(|s| (c, s)));
        }
        Setup { campaigns, shards, cache, build_ns }
    }

    /// One campaign's shards: every profile once, as their costs differ
    /// widely.
    fn window_units(setup: &Setup) -> usize {
        setup.shards.len() / setup.campaigns.len()
    }

    fn run(setup: &Setup, tracer: &mut Tracer) -> Result<Tally, String> {
        let mut t = Tally::default();
        let mut sink = CsvSink::new(Vec::new());
        for (i, (c, shard)) in setup.shards.iter().enumerate() {
            tracer.unit(i as u64);
            let spec = &setup.campaigns[*c];
            let result = tracer.span("shard", || {
                catch_unwind(AssertUnwindSafe(|| run_shard(spec, &setup.cache, shard)))
            });
            t.attempted += 1;
            let Ok(r) = result else {
                t.fail(format!(
                    "shard {i} ({} #{}, seed {:#x}): did not drain",
                    shard.workload, shard.shard_in_workload, shard.rng_seed
                ));
                continue;
            };
            let s = &r.summary;
            check_shard(s.faults, s.detected, s.masked, s.pending)
                .map_err(|e| format!("shard {i} ({} #{}): {e}", s.workload, s.shard))?;
            t.injected += s.faults as u64;
            t.detected += s.detected as u64;
            t.masked += s.masked;
            t.pending += s.pending as u64;
            t.committed += s.committed;
            t.cycles += s.cycles;
            for rec in &r.records {
                t.latencies_ns.push(rec.detection.latency_ns);
                t.prefix_frac_sum += rec.detection.injected_cycle as f64 / s.cycles as f64;
            }
            tracer
                .span("sink", || {
                    r.records.iter().try_for_each(|rec| sink.on_record(rec))?;
                    sink.on_shard(s)
                })
                .map_err(|e| format!("CSV sink: {e}"))?;
        }
        t.digest = fnv1a(FNV_OFFSET, &sink.into_inner());
        Ok(t)
    }

    fn layers(setup: &Setup, tally: &Tally, trace: &Trace, phase_ns: u64) -> Values {
        let mut v = Values::from([
            ("campaign.sink_share", trace.total_ns("sink") as f64 / phase_ns as f64),
            ("core.sim_cycles", tally.cycles as f64),
        ]);
        for (name, p) in [("campaign.shard_ms_p50", 50), ("campaign.shard_ms_p90", 90)] {
            if let Some(ms) = duration_percentile(trace, "shard", p, 1e6) {
                v.insert(name, ms);
            }
        }
        if tally.detected > 0 {
            v.insert("core.fault_prefix_frac", tally.prefix_frac_sum / tally.detected as f64);
        }
        let build_ns: u64 = setup.build_ns.iter().sum();
        v.insert("workloads.build_ms", build_ns as f64 / setup.build_ns.len() as f64 / 1e6);
        let first = &setup.campaigns[0];
        let built: Vec<_> = first
            .workloads
            .iter()
            .map(|w| setup.cache.get(profile(w), first.workload_seed(w.name())))
            .collect();
        let programs: Vec<_> =
            built.iter().map(|wl| probe::Program { wl, cap: PROBE_INSTS, faults: None }).collect();
        v.extend(probe::run(&programs));
        v
    }
}
