//! Thread-count invariance of the difftest pipeline on the pre-decoded
//! fast path: the same campaign fanned out over 1, 4, and 8 worker
//! threads must produce byte-identical per-case results. The CLI's
//! byte-identical-stdout guarantee rests on exactly this property (it
//! re-sequences results into case order), so it is pinned here at the
//! library level where a failure names the diverging case directly.

use meek_campaign::Executor;
use meek_difftest::{run_case, CosimConfig, FuzzConfig, Suite};
use std::fmt::Write as _;

const CASES: u64 = 10;
const RUN_SEED: u64 = 0x5EED;
const SUITE: Suite = Suite::Fuzz(FuzzConfig { static_len: 120 });

fn cfg(recover: bool) -> CosimConfig {
    CosimConfig { faults: 2, recover, ..CosimConfig::default() }
}

/// Runs the miniature campaign on `threads` workers and renders every
/// per-case result (co-sim verdict + fault outcomes) to one string.
fn campaign(threads: usize, recover: bool) -> String {
    let executor = Executor::new(threads);
    let case_ids: Vec<u64> = (0..CASES).collect();
    let cfg = cfg(recover);
    let mut out = String::new();
    executor.map_ordered(
        &case_ids,
        |_idx, &case| {
            let r = run_case(RUN_SEED, case, &SUITE, &cfg);
            let v = &r.verdict;
            let mut line = format!(
                "case {case}: executed {} segments {} cycles {} divergence {:?}\n",
                v.executed,
                v.segments,
                v.system_cycles,
                v.divergence.as_ref().map(|d| d.to_string()),
            );
            for (spec, o, recovery) in &r.faults {
                match recovery {
                    Some(r) => writeln!(line, "  {spec:?} -> {o} / {r}"),
                    None => writeln!(line, "  {spec:?} -> {o}"),
                }
                .expect("writing to a String");
            }
            line
        },
        |_idx, line: String| out.push_str(&line),
    );
    out
}

#[test]
fn difftest_results_are_thread_count_invariant() {
    let t1 = campaign(1, false);
    let t4 = campaign(4, false);
    let t8 = campaign(8, false);
    assert!(t1.contains("divergence None"), "campaign must co-simulate cleanly:\n{t1}");
    assert_eq!(t1, t4, "4-thread run diverged from single-threaded");
    assert_eq!(t1, t8, "8-thread run diverged from single-threaded");
}

#[test]
fn recovery_results_are_thread_count_invariant() {
    let t1 = campaign(1, true);
    let t4 = campaign(4, true);
    assert_eq!(t1, t4, "recovery-mode 4-thread run diverged from single-threaded");
}

/// The one tally folded in case order: the rendered `--stats` table and
/// serve's counters must be identical at any thread count, and its
/// counts must reconcile with a direct count of the same outcome stream.
#[test]
fn stats_table_is_thread_count_invariant_and_reconciles() {
    let run = |threads: usize| {
        let executor = Executor::new(threads);
        let case_ids: Vec<u64> = (0..CASES).collect();
        let cfg = cfg(false);
        let mut tally = meek_difftest::Tally::default();
        let mut detected = 0u64;
        let mut total = 0u64;
        executor.map_ordered(
            &case_ids,
            |_idx, &case| run_case(RUN_SEED, case, &SUITE, &cfg),
            |_idx, report| {
                for (_, outcome, _) in &report.faults {
                    total += 1;
                    if matches!(outcome, meek_difftest::FaultOutcome::Detected { .. }) {
                        detected += 1;
                    }
                }
                tally.add(&report);
            },
        );
        (tally, detected, total)
    };
    let (s1, detected, total) = run(1);
    let (s4, ..) = run(4);
    let (s8, ..) = run(8);
    assert_eq!(s1.render_table(), s4.render_table());
    assert_eq!(s1.render_table(), s8.render_table());
    assert_eq!(s1.counters(), s8.counters());
    assert_eq!(s1.faults, total, "every classified fault lands in the tally");
    assert_eq!(s1.detected, detected);
    assert_eq!(s1.latency_count(), detected, "one latency observation per detection");
    assert!(detected > 0, "this campaign must detect something for the table to mean anything");
}
