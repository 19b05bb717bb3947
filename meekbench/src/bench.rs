//! What every workload provides, and the pieces they share.

use crate::metrics::Values;
use crate::stats::percentile;
use crate::tally::Tally;
use crate::trace::{Trace, Tracer};

/// Checker cores in every full-system run (the oracles' default).
pub const N_LITTLE: usize = 4;

/// Faults planned per co-simulated case (`meek-difftest --faults`).
pub const FAULTS_PER_CASE: usize = 3;

/// One benchmark workload. Its work is fixed by the seed and
/// `--seconds`, never by the clock, so its simulated results repeat
/// exactly for a seed.
pub trait Bench {
    /// Everything built before the first timed unit.
    type Setup;

    /// Set-up repetitions per run (even: half run before the timed
    /// loop, half after it); `setup_s` is their median.
    const SETUP_RUNS: usize;

    /// Generates every unit's input from `seed` and does the one-time
    /// builds, sized so the timed loop lasts about `seconds`.
    fn setup(seed: u64, seconds: u64) -> Self::Setup;

    /// Units per pace window: consecutive units of like mix (whole
    /// rotations, whole campaigns), short beside the stretches of
    /// seconds over which host speed drifts.
    fn window_units(setup: &Self::Setup) -> usize;

    /// The timed loop: every unit, in order, through the library's
    /// public entry points. `Err` is a benchmark error (broken books),
    /// not a failed operation.
    fn run(setup: &Self::Setup, tracer: &mut Tracer) -> Result<Tally, String>;

    /// Per-layer metrics of a traced loop that took `phase_ns`, plus the
    /// layer probes.
    fn layers(setup: &Self::Setup, tally: &Tally, trace: &Trace, phase_ns: u64) -> Values;
}

/// SplitMix64 finaliser.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of case `case` of a run seeded `seed`, derived exactly as
/// `meek-difftest` derives it, so a failing case can be replayed there.
pub fn case_seed(seed: u64, case: u64) -> u64 {
    splitmix(seed ^ case.wrapping_mul(0x9E37_79B9))
}

/// Nearest-rank percentile of span durations, in `per_ns` units
/// (1e3 for µs, 1e6 for ms); absent unless ten calls rank above it.
pub fn duration_percentile(trace: &Trace, name: &str, p: u32, per_ns: f64) -> Option<f64> {
    let mut d: Vec<f64> = trace.durations_ns(name).iter().map(|&ns| ns as f64 / per_ns).collect();
    d.sort_by(f64::total_cmp);
    percentile(&d, p)
}

/// Layer shares and rates of the co-simulation every case starts with
/// (`cosim::run_full` / `run_workload`): the benchmark's `cosim` span,
/// its self time split from the program's own `golden_run`,
/// `lockstep_replay` and `system_check` spans.
pub fn cosim_layers(tally: &Tally, trace: &Trace, phase_ns: u64) -> Values {
    let share = |ns: u64| ns as f64 / phase_ns as f64;
    let replay_ns = trace.total_ns("lockstep_replay");
    let mut v = Values::from([
        ("difftest.cosim_share", share(trace.self_ns("cosim"))),
        ("isa.golden_share", share(trace.total_ns("golden_run"))),
        ("littlecore.replay_share", share(replay_ns)),
        ("core.system_check_share", share(trace.total_ns("system_check"))),
        ("core.sim_cycles", tally.cycles as f64),
        ("difftest.masked_proved", tally.masked_proved as f64),
    ]);
    if replay_ns > 0 {
        // Every clean case replays its whole golden trace.
        v.insert("littlecore.replay_minsts_per_s", tally.committed as f64 / replay_ns as f64 * 1e3);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_match_meek_difftest() {
        // The known escape: `meek-difftest --seed 0`, case 2074.
        assert_eq!(case_seed(0, 2074), 0x9233_a501_04c9_79ab);
    }
}
