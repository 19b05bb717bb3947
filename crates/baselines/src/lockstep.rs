//! Equivalent-Area LockStep (EA-LockStep, paper §V-A).
//!
//! Simply duplicating the big core would cost 2× its area while running
//! at vanilla speed — an uninteresting comparison. The paper instead
//! scales the BOOM down, by linear interpolation on each configurable
//! component, until *two* such cores together match MEEK's total area
//! (one BOOM + four little cores + wrappers). Both lockstep cores run
//! the same program cycle-synchronised with pin-level comparison, so the
//! pair's performance equals one scaled core's.

use meek_area::ea_lockstep_scale;
use meek_bigcore::{BigCore, BigCoreConfig};
use meek_workloads::Workload;

/// The scaled-core configuration whose duplicated area matches a MEEK
/// system with `n_little` checker cores.
pub fn ea_lockstep_config(n_little: usize) -> BigCoreConfig {
    BigCoreConfig::scaled(ea_lockstep_scale(n_little))
}

/// Runs `workload` on the EA-LockStep pair and returns the cycle count.
/// (The comparator checks pins every cycle; detection latency is one
/// cycle and timing equals the scaled core's.)
pub fn run_ea_lockstep(n_little: usize, workload: &Workload, max_insts: u64) -> u64 {
    let mut big = BigCore::new(ea_lockstep_config(n_little));
    big.prewarm_icache(workload.entry(), 4 * workload.static_len as u64);
    let mut run = workload.run(max_insts);
    big.run_to_drain(&mut || run.next_retired())
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_workloads::parsec3;

    fn run_vanilla(wl: &Workload, max_insts: u64) -> u64 {
        let mut big = BigCore::new(BigCoreConfig::sonic_boom());
        big.prewarm_icache(wl.entry(), 4 * wl.static_len as u64);
        let mut run = wl.run(max_insts);
        big.run_to_drain(&mut || run.next_retired())
    }

    #[test]
    fn scaled_config_is_narrower() {
        let cfg = ea_lockstep_config(4);
        let full = BigCoreConfig::sonic_boom();
        assert!(cfg.width < full.width);
        assert!(cfg.rob < full.rob);
        assert!(cfg.iq < full.iq);
    }

    #[test]
    fn lockstep_slower_than_vanilla() {
        let wl = Workload::build(&parsec3()[0], 3);
        let vanilla = run_vanilla(&wl, 12_000);
        let lockstep = run_ea_lockstep(4, &wl, 12_000);
        assert!(
            lockstep > vanilla,
            "scaled lockstep core ({lockstep}) must be slower than vanilla ({vanilla})"
        );
        let slowdown = lockstep as f64 / vanilla as f64;
        assert!(slowdown < 3.0, "slowdown {slowdown:.2} implausibly high");
    }
}
