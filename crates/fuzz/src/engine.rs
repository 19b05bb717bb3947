//! The coverage-guided fuzz loop.
//!
//! The engine schedules *candidates* — fresh seed-fuzzer programs or
//! mutations of corpus entries — over the campaign
//! [`meek_campaign::Executor`] in deterministic rounds
//! (`Executor::map_rounds`): each round's candidates are generated from
//! the corpus state left by every previous round, evaluated in
//! parallel, and merged back in candidate order. Mutation parents are
//! drawn by *rarity weight* ([`parent_weight`]): every evaluation bumps
//! a global hit count per feature it produced, and an entry's weight is
//! the sum of inverse hit counts over the features it owns — so search
//! keeps digging at behaviour the rest of the corpus rarely reaches.
//! Because generation and merging are sequential and evaluation is a
//! pure function of the candidate, the whole run — corpus directory,
//! feature set, report — is byte-identical at any `--threads`.
//!
//! Evaluating a candidate reuses the difftest oracle end to end:
//! bounded golden pre-screen (mutated programs may legitimately trap or
//! diverge into a relink-manufactured loop — those are *rejected*, not
//! failures), three-way co-simulation (a divergence on a valid mutated
//! program is a real finding, shrunk under `--minimize`), then the
//! fault plan classified fault by fault with a [`CoverageMap`] observer
//! attached to the very runs the oracle judges.

use crate::corpus::{Corpus, CorpusEntry};
use crate::coverage::{bucket, golden_features, CoverageMap, FeatureSet};
use crate::dict::Dictionary;
use crate::mutate;
use crate::report::FuzzReport;
use meek_campaign::{splitmix, Executor};
use meek_core::{FabricKind, FaultSite, FaultSpec, RecoveryPolicy, RunError, Sim};
use meek_difftest::{
    arm_span, emit_test, fault_plan, fuzz_program, golden_run_in, minimize, shrink_insts, Case,
    CosimConfig, FaultOutcome, FuzzConfig, FuzzProgram, GoldenRun,
};
use meek_isa::{decodable, encode, writes_anchor, Inst};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Dynamic-instruction ceiling per candidate: splice can nest loops, so
/// mutated programs legitimately grow — past this they are rejected to
/// bound evaluation cost (like the shrinker's runaway pre-screen).
pub const EVAL_CAP: u64 = 60_000;

/// Fuzz-run settings (the `meek-fuzz` CLI surface).
#[derive(Debug, Clone)]
pub struct FuzzSettings {
    /// Candidates to evaluate.
    pub iters: u64,
    /// Master seed: candidates, mutations and fault plans all derive
    /// from it.
    pub seed: u64,
    /// Worker threads (0 = all hardware threads).
    pub threads: usize,
    /// Coverage-guided (`true`) or the purely-random difftest baseline
    /// (`false`, every candidate fresh).
    pub guided: bool,
    /// Classify faults under the recovery oracle (golden-equal final
    /// state) instead of detect-only coverage.
    pub recover: bool,
    /// Shrink discovering programs before corpus insertion (preserving
    /// the golden-derived subset of their new features).
    pub minimize: bool,
    /// Static body length of fresh programs.
    pub static_len: usize,
    /// Faults injected and classified per candidate.
    pub faults_per_case: usize,
    /// Checker cores in the full-system runs.
    pub n_little: usize,
    /// Corpus capacity (0 = default).
    pub corpus_cap: usize,
    /// Candidates per scheduling round (fixed, thread-independent).
    pub batch: usize,
}

impl Default for FuzzSettings {
    fn default() -> FuzzSettings {
        FuzzSettings {
            iters: 100,
            seed: 0,
            threads: 0,
            guided: true,
            recover: false,
            minimize: false,
            static_len: 220,
            faults_per_case: 2,
            n_little: 4,
            corpus_cap: 0,
            batch: 32,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandidateKind {
    Fresh,
    Mutated,
}

/// One scheduled unit of work: a fully materialised program plus the
/// seed its fault plan (and plan mutation) derives from, and the
/// interconnect the fault phase runs under — the fabric is part of the
/// candidate, so search explores the program × plan × fabric space.
struct Candidate {
    words: Vec<u32>,
    parent_plan: Option<Vec<FaultSpec>>,
    tweak: u64,
    kind: CandidateKind,
    fabric: FabricKind,
    /// The mutation operator that produced this candidate (`None` for
    /// fresh programs) — the report's per-op rate accounting.
    op: Option<mutate::MutationOp>,
}

/// What one evaluation produced, merged sequentially by the engine.
struct CaseEval {
    features: Vec<(u64, String)>,
    plan: Vec<FaultSpec>,
    faults: u64,
    escapes: Vec<String>,
    divergence: Option<String>,
    reproducer: Option<String>,
    rejected: bool,
}

impl CaseEval {
    fn rejected() -> CaseEval {
        CaseEval {
            features: Vec::new(),
            plan: Vec::new(),
            faults: 0,
            escapes: Vec::new(),
            divergence: None,
            reproducer: None,
            rejected: true,
        }
    }
}

/// Fixed-point scale of rarity weights (1/1 hit = one `WEIGHT_SCALE`).
const WEIGHT_SCALE: u64 = 1 << 16;

/// Rarity weight of a corpus entry: the sum of inverse global hit
/// counts over the features it owns. An entry whose features keep
/// re-appearing across evaluations decays toward the floor; an entry
/// owning behaviour almost nothing else reaches keeps a high weight, so
/// parent selection digs at the coverage tail instead of re-mutating
/// the crowd. Integer arithmetic, so scheduling stays byte-identical at
/// any thread count.
pub fn parent_weight(entry: &CorpusEntry, hits: &BTreeMap<u64, u64>) -> u64 {
    let w: u64 = entry
        .owned
        .iter()
        .map(|(id, _)| WEIGHT_SCALE / hits.get(id).copied().unwrap_or(1).max(1))
        .sum();
    w.max(1)
}

/// Draws a parent index by rarity weight from the candidate's RNG
/// stream.
fn pick_parent(corpus: &Corpus, hits: &BTreeMap<u64, u64>, rng: &mut SmallRng) -> usize {
    let weights: Vec<u64> = corpus.entries().iter().map(|e| parent_weight(e, hits)).collect();
    let total: u64 = weights.iter().sum();
    let mut r = rng.gen_range(0..total);
    for (i, w) in weights.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= w;
    }
    unreachable!("weights sum to total")
}

/// Derives candidate `g` from the current corpus: a mutation of a
/// corpus entry (parent drawn by rarity weight, donor uniformly), or a
/// fresh seed-fuzzer program (always fresh in random mode, on an empty
/// corpus, and for every 8th candidate so exploration never stops).
fn make_candidate(
    g: u64,
    s: &FuzzSettings,
    corpus: &Corpus,
    hits: &BTreeMap<u64, u64>,
    dict: &Dictionary,
) -> Candidate {
    let mut rng = SmallRng::seed_from_u64(splitmix(
        s.seed ^ g.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF0CC_5EED,
    ));
    let fresh = |rng: &mut SmallRng| {
        let seed = rng.gen::<u64>();
        Candidate {
            words: fuzz_program(seed, &FuzzConfig { static_len: s.static_len }).words,
            parent_plan: None,
            tweak: seed,
            kind: CandidateKind::Fresh,
            fabric: random_fabric(rng),
            op: None,
        }
    };
    if !s.guided || corpus.is_empty() || g.is_multiple_of(8) {
        return fresh(&mut rng);
    }
    let parent = &corpus.entries()[pick_parent(corpus, hits, &mut rng)];
    let donor = &corpus.entries()[rng.gen_range(0..corpus.len())];
    let subject: Vec<Inst> = FuzzProgram::from_words(&parent.words).insts();
    let donor_insts: Vec<Inst> = FuzzProgram::from_words(&donor.words).insts();
    for _ in 0..4 {
        let op = mutate::OPS[rng.gen_range(0..mutate::OPS.len())];
        if let Some(out) = mutate::mutate(&subject, &donor_insts, dict.fragments(), op, &mut rng) {
            // Inherit the parent's interconnect most of the time — its
            // features were discovered under it — but re-draw 1-in-4 so
            // search also moves along the fabric axis.
            let fabric =
                if rng.gen_range(0..4) == 0 { random_fabric(&mut rng) } else { parent.fabric };
            return Candidate {
                words: out.iter().map(encode).collect(),
                parent_plan: Some(parent.plan.clone()),
                tweak: rng.gen(),
                kind: CandidateKind::Mutated,
                fabric,
                op: Some(op),
            };
        }
    }
    fresh(&mut rng)
}

/// Draws one of the built-in fabric kinds from the candidate's RNG
/// stream — fresh candidates land on every interconnect in both guided
/// and random mode, so the `--compare-random` budgets stay comparable.
fn random_fabric(rng: &mut SmallRng) -> FabricKind {
    FabricKind::ALL[rng.gen_range(0..FabricKind::ALL.len())]
}

/// A fresh random fault spec inside `span` — the plan-mutation
/// operator's vocabulary (all five sites).
fn random_spec(rng: &mut SmallRng, span: u64) -> FaultSpec {
    let site = match rng.gen_range(0..5) {
        0 => FaultSite::RcpRegister,
        1 => FaultSite::MemData,
        2 => FaultSite::MemAddr,
        3 => FaultSite::LsqParity,
        _ => FaultSite::CacheData,
    };
    FaultSpec { arm_at_commit: rng.gen_range(0..span), site, bit: rng.gen_range(0..64) }
}

/// Stable name of a coverage outcome (feature-key vocabulary).
fn outcome_name(oc: &FaultOutcome) -> &'static str {
    match oc {
        FaultOutcome::Detected { .. } => "detected",
        FaultOutcome::MaskedProvenBenign => "masked",
        FaultOutcome::Pending => "pending",
        FaultOutcome::Escaped { .. } => "escaped",
    }
}

/// Evaluates one candidate — a pure function of the candidate and
/// settings, safe to run on any worker.
fn evaluate(cand: &Candidate, s: &FuzzSettings) -> CaseEval {
    let prog = FuzzProgram::from_words(&cand.words);
    let cfg = CosimConfig { n_little: s.n_little, ..CosimConfig::default() };
    // Static pre-screen: a trap forecast from the analyzer is a proof
    // the golden run below would return Err, so mutated candidates can
    // be rejected without paying for the interpreter. Fresh candidates
    // fall through — a trapping fresh program is a seed-fuzzer bug and
    // must surface as a divergence, keeping output byte-identical.
    if cand.kind == CandidateKind::Mutated {
        if let Some(forecast) = meek_analyze::static_reject(&cand.words, &FuzzProgram::spec()) {
            debug_assert!(
                golden_run_in(&prog.workload(), EVAL_CAP).is_err(),
                "static pre-screen claimed a trap the golden run does not raise: {forecast}"
            );
            return CaseEval::rejected();
        }
    }
    // One build of the image and pre-decode table serves the golden
    // pre-screen, the co-simulation and every fault run.
    let wl = prog.workload();
    // Bounded golden pre-screen. Mutated programs that trap or run away
    // are rejected (relinking manufactures both); a *fresh* program
    // doing either is a seed-fuzzer bug and counts as a divergence.
    let golden: GoldenRun = match golden_run_in(&wl, EVAL_CAP) {
        Ok(g) if (g.trace.len() as u64) < EVAL_CAP && !g.trace.is_empty() => g,
        Ok(_) if cand.kind == CandidateKind::Mutated => return CaseEval::rejected(),
        Ok(_) => {
            return CaseEval {
                divergence: Some(format!(
                    "fresh program {:#x} ran away past {EVAL_CAP} instructions",
                    cand.tweak
                )),
                ..CaseEval::rejected()
            }
        }
        Err(_) if cand.kind == CandidateKind::Mutated => return CaseEval::rejected(),
        Err(d) => {
            return CaseEval {
                divergence: Some(format!("fresh program {:#x}: {d}", cand.tweak)),
                ..CaseEval::rejected()
            }
        }
    };
    let executed = golden.trace.len() as u64;
    let span = arm_span(executed);

    // The fault plan: inherited from the parent (arms re-fitted to this
    // program's span, one spec re-drawn — the plan-mutation operator)
    // or the standard difftest plan.
    let mut rng = SmallRng::seed_from_u64(cand.tweak);
    let plan: Vec<FaultSpec> = match &cand.parent_plan {
        Some(p) if !p.is_empty() => {
            let mut p: Vec<FaultSpec> = p
                .iter()
                .map(|f| FaultSpec { arm_at_commit: f.arm_at_commit % span, ..*f })
                .collect();
            let k = rng.gen_range(0..p.len());
            p[k] = random_spec(&mut rng, span);
            p
        }
        _ => fault_plan(cand.tweak, s.faults_per_case, executed),
    };

    let mut map = CoverageMap::new();
    golden_features(&golden, &mut map);

    // Three-way co-simulation: any divergence on a valid program is a
    // real finding. An accepted candidate retires fewer than EVAL_CAP
    // instructions, under cosim::GOLDEN_CAP, so the pre-screen is the
    // very golden run the co-simulation would repeat.
    let case = Case::with_golden(&wl, golden, &cfg);
    let verdict = case.verdict();
    map.note(format!("segments:{}", bucket(verdict.segments as u64)));
    if let Some(d) = &verdict.divergence {
        map.note(format!("divergence:{}", d.kind_name()));
        let reproducer = s.minimize.then(|| {
            let min = minimize(&prog, &cfg);
            emit_test(
                &format!("fuzz_case_{:x}", cand.tweak),
                &min,
                &format!(
                    "Shrunk by meek-fuzz from a {} candidate ({} -> {} instructions).",
                    if cand.kind == CandidateKind::Fresh { "fresh" } else { "mutated" },
                    prog.words.len(),
                    min.words.len()
                ),
            )
        });
        return CaseEval {
            features: map.take_features(),
            plan,
            faults: 0,
            escapes: Vec::new(),
            divergence: Some(d.to_string()),
            reproducer,
            rejected: false,
        };
    }

    // Fault phase: every spec classified against the golden reference,
    // with the coverage observer attached to the very run the oracle
    // judges.
    let mut escapes = Vec::new();
    for &spec in &plan {
        let mut b = Sim::builder(&wl, executed)
            .little_cores(s.n_little)
            .fabric(cand.fabric)
            .faults(vec![spec])
            .observe(&mut map);
        if s.recover {
            b = b.recovery(RecoveryPolicy::enabled());
        }
        let run = match b.build().expect("fuzz oracle configuration is valid").try_run() {
            Ok(r) => r,
            Err(RunError::Livelock { .. }) => {
                // The aborted run never fired Observer::finished, so
                // clear the map's per-run scratch before the next
                // fault's run reuses the map.
                map.reset_scratch();
                map.note(format!("outcome:hang:{}", spec.site.name()));
                map.note(format!("fabric_outcome:hang:{}", cand.fabric.name()));
                escapes.push(format!("system failed to drain with fault {spec:?}"));
                continue;
            }
        };
        let (oc, rv) = case.judge(spec, &run);
        if let Some(rv) = rv.filter(|rv| rv.is_failure()) {
            escapes.push(format!("{spec:?}: {rv}"));
        }
        map.note(format!("outcome:{}:{}", outcome_name(&oc), spec.site.name()));
        // The verdict × fabric bucket: the same fault plan can resolve
        // differently under a different interconnect (latency shifts
        // which segment a detection lands in), and this feature makes
        // that divergence count as coverage.
        map.note(format!("fabric_outcome:{}:{}", outcome_name(&oc), cand.fabric.name()));
        if let FaultOutcome::Escaped { reason } = &oc {
            escapes.push(format!("{spec:?}: {reason}"));
        }
    }
    let faults = plan.len() as u64;
    CaseEval {
        features: map.take_features(),
        plan,
        faults,
        escapes,
        divergence: None,
        reproducer: None,
        rejected: false,
    }
}

/// Shrinks a discovering program before corpus insertion, preserving
/// the golden-derived subset of its newly discovered features (and the
/// anchor-register discipline). Returns the words unchanged when
/// nothing golden-derived is at stake.
fn minimize_entry(words: &[u32], fresh_ids: &[u64]) -> Vec<u32> {
    let prog = FuzzProgram::from_words(words);
    let Ok(g) = golden_run_in(&prog.workload(), EVAL_CAP) else { return words.to_vec() };
    let mut map = CoverageMap::new();
    golden_features(&g, &mut map);
    let golden_ids: BTreeSet<u64> = map.take_features().into_iter().map(|(id, _)| id).collect();
    let preserve: Vec<u64> =
        fresh_ids.iter().copied().filter(|id| golden_ids.contains(id)).collect();
    if preserve.is_empty() {
        return words.to_vec();
    }
    let insts = prog.insts();
    let anchors = insts.iter().filter(|i| writes_anchor(i)).count();
    let keeps = |cand: &[Inst]| {
        if cand.is_empty()
            || !decodable(cand)
            || cand.iter().filter(|i| writes_anchor(i)).count() != anchors
        {
            return false;
        }
        match golden_run_in(&FuzzProgram::from_insts(cand).workload(), EVAL_CAP) {
            Ok(g) if (g.trace.len() as u64) < EVAL_CAP && !g.trace.is_empty() => {
                let mut m = CoverageMap::new();
                golden_features(&g, &mut m);
                let ids: BTreeSet<u64> = m.take_features().into_iter().map(|(id, _)| id).collect();
                preserve.iter().all(|id| ids.contains(id))
            }
            _ => false,
        }
    };
    shrink_insts(insts, keeps).iter().map(encode).collect()
}

struct EngineState {
    corpus: Corpus,
    features: FeatureSet,
    /// Evaluations that produced each feature id, ever — the rarity
    /// denominator [`parent_weight`] divides by.
    hits: BTreeMap<u64, u64>,
    /// Splice fragments: seeded from the benchmark suite, extended from
    /// shrunk discovering programs during the run.
    dict: Dictionary,
    report: FuzzReport,
    generated: u64,
}

/// Runs one fuzz campaign from `initial` corpus state, returning the
/// report plus the final corpus and feature universe. Deterministic:
/// for fixed settings (threads excluded) and initial corpus, every
/// byte of all three results is identical at any thread count.
pub fn run_fuzz(s: &FuzzSettings, initial: Corpus) -> (FuzzReport, Corpus, FeatureSet) {
    let executor = Executor::new(s.threads);
    // A loaded corpus seeds the feature universe with everything its
    // entries already own — plus the persisted features.txt digest,
    // which survives entries whose first discoverer was since evicted —
    // so continued runs extend prior coverage instead of re-discovering
    // (and re-inserting) it, and persisted coverage never shrinks.
    let mut features = FeatureSet::new();
    features.merge(0, initial.digest());
    let mut hits: BTreeMap<u64, u64> = BTreeMap::new();
    for e in initial.entries() {
        features.merge(0, &e.owned);
        // A loaded entry's features were produced at least once.
        for (id, _) in &e.owned {
            *hits.entry(*id).or_insert(0) += 1;
        }
    }
    let state = RefCell::new(EngineState {
        corpus: initial,
        features,
        hits,
        dict: Dictionary::from_suite(),
        report: FuzzReport {
            iters: s.iters,
            seed: s.seed,
            guided: s.guided,
            recover: s.recover,
            ..FuzzReport::default()
        },
        generated: 0,
    });
    executor.map_rounds(
        |_round| {
            let mut st = state.borrow_mut();
            if st.generated >= s.iters {
                return Vec::new();
            }
            let n = (s.batch.max(1) as u64).min(s.iters - st.generated);
            let base = st.generated;
            let cands: Vec<Candidate> = (0..n)
                .map(|i| make_candidate(base + i, s, &st.corpus, &st.hits, &st.dict))
                .collect();
            st.generated += n;
            cands
        },
        |_g, cand| evaluate(cand, s),
        |g, cand, result: CaseEval| {
            let st = &mut *state.borrow_mut();
            st.report.evaluated += 1;
            match cand.kind {
                CandidateKind::Fresh => st.report.fresh += 1,
                CandidateKind::Mutated => st.report.mutated += 1,
            }
            st.report.faults += result.faults;
            if let Some(op) = cand.op {
                *st.report.mutation_ops.entry(op.name().to_string()).or_insert(0) += 1;
            }
            if result.rejected && result.divergence.is_none() {
                st.report.rejected += 1;
            }
            if let Some(d) = result.divergence {
                st.report.divergences.push(d);
                st.report.reproducers.extend(result.reproducer);
            }
            st.report.escapes.extend(result.escapes);
            // Rarity accounting: every feature this evaluation produced
            // — fresh or re-hit — bumps its global hit count.
            for (id, _) in &result.features {
                *st.hits.entry(*id).or_insert(0) += 1;
            }
            let fresh = st.features.merge(g as u64, &result.features);
            if !fresh.is_empty() {
                st.report.discovering += 1;
                if let Some(op) = cand.op {
                    *st.report.mutation_op_discoveries.entry(op.name().to_string()).or_insert(0) +=
                        1;
                }
                st.report.timeline.push((g as u64, st.features.len()));
                let fresh_set: BTreeSet<u64> = fresh.iter().copied().collect();
                let owned: Vec<(u64, String)> =
                    result.features.into_iter().filter(|(id, _)| fresh_set.contains(id)).collect();
                let mut words = cand.words.clone();
                if s.minimize {
                    let min = minimize_entry(&words, &fresh);
                    if min.len() < words.len() {
                        st.report.minimized += 1;
                        words = min;
                        // A shrunk discoverer is distilled interesting
                        // behaviour: feed its idioms to the dictionary.
                        st.dict.harvest_words(&words);
                    }
                }
                st.corpus.insert(CorpusEntry {
                    words,
                    plan: result.plan,
                    owned,
                    iter: g as u64,
                    fabric: cand.fabric,
                });
            }
        },
    );
    let EngineState { corpus, features, mut report, .. } = state.into_inner();
    report.features_total = features.len();
    report.features_after_iter0 = features.discovered_after(0);
    report.corpus_len = corpus.len();
    report.corpus_evicted = corpus.evicted();
    (report, corpus, features)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(iters: u64) -> FuzzSettings {
        FuzzSettings {
            iters,
            seed: 0x5EED,
            threads: 2,
            static_len: 70,
            faults_per_case: 1,
            batch: 8,
            ..FuzzSettings::default()
        }
    }

    #[test]
    fn a_short_run_discovers_features_and_stays_clean() {
        let (report, corpus, features) = run_fuzz(&tiny(12), Corpus::new(0));
        assert_eq!(report.evaluated, 12);
        assert!(report.clean(), "{report}");
        assert!(features.len() > 40, "a dozen cases cover plenty: {}", features.len());
        assert!(report.features_after_iter0 >= 1, "{report}");
        assert!(!corpus.is_empty());
        assert!(report.fresh >= 2, "the 1-in-8 fresh schedule must fire");
        assert!(report.mutated >= 1, "guidance must schedule mutations");
        assert_eq!(report.features_total, features.len());
        assert!(report.discovering >= 1, "discoveries must be counted: {report}");
        assert_eq!(
            report.mutation_ops.values().sum::<u64>(),
            report.mutated,
            "every mutated candidate is attributed to exactly one operator: {report}"
        );
        assert!(
            report.mutation_op_discoveries.values().sum::<u64>() <= report.discovering,
            "op discoveries are a subset of discovering candidates: {report}"
        );
        // Every corpus entry owns at least one feature and decodes.
        for e in corpus.entries() {
            assert!(!e.owned.is_empty());
            assert_eq!(FuzzProgram::from_words(&e.words).insts().len(), e.words.len());
        }
    }

    #[test]
    fn runs_are_thread_count_invariant_and_reproducible() {
        let run = |threads: usize| {
            let s = FuzzSettings { threads, ..tiny(10) };
            let (report, corpus, features) = run_fuzz(&s, Corpus::new(0));
            (report.to_string(), format!("{:?}", corpus.entries()), features.render_names())
        };
        let a = run(1);
        assert_eq!(a, run(4));
        assert_eq!(a, run(8));
        assert_eq!(a, run(1), "re-running reproduces the campaign");
    }

    #[test]
    fn rarity_weighting_prefers_entries_with_rare_features() {
        use crate::coverage::feature_id;
        let entry = |names: &[&str]| CorpusEntry {
            words: vec![0x13],
            plan: Vec::new(),
            owned: names.iter().map(|n| (feature_id(n), n.to_string())).collect(),
            iter: 0,
            fabric: FabricKind::F2,
        };
        let mut hits: BTreeMap<u64, u64> = BTreeMap::new();
        hits.insert(feature_id("common"), 100);
        hits.insert(feature_id("rare"), 1);
        let common = entry(&["common"]);
        let rare = entry(&["rare"]);
        assert!(parent_weight(&rare, &hits) > 50 * parent_weight(&common, &hits));
        // Unknown features count as one hit; weight never hits zero.
        assert!(parent_weight(&entry(&["unseen"]), &hits) >= parent_weight(&rare, &hits));
        assert!(parent_weight(&entry(&[]), &hits) >= 1);
        // Equal ownership under equal hits ties exactly.
        assert_eq!(parent_weight(&common, &hits), parent_weight(&entry(&["common"]), &hits));
    }

    #[test]
    fn the_dictionary_splice_operator_is_scheduled() {
        // With the suite-seeded dictionary present, a guided run that
        // mutates at all exercises DictSplice among its operators; the
        // run must stay clean and deterministic (covered above). Here,
        // assert the op actually produces candidates from corpus-shaped
        // subjects.
        let dict = Dictionary::from_suite();
        assert!(!dict.is_empty());
        let subject = fuzz_program(3, &FuzzConfig { static_len: 80 }).insts();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut produced = 0;
        for _ in 0..8 {
            if let Some(out) = mutate::mutate(
                &subject,
                &[],
                dict.fragments(),
                mutate::MutationOp::DictSplice,
                &mut rng,
            ) {
                assert!(out.len() > subject.len(), "dict splice inserts");
                produced += 1;
            }
        }
        assert!(produced > 0);
    }

    #[test]
    fn random_mode_never_mutates() {
        let s = FuzzSettings { guided: false, ..tiny(9) };
        let (report, _, _) = run_fuzz(&s, Corpus::new(0));
        assert_eq!(report.mutated, 0);
        assert_eq!(report.fresh + report.rejected, 9);
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn recovery_oracle_runs_clean() {
        let s = FuzzSettings { recover: true, ..tiny(6) };
        let (report, _, features) = run_fuzz(&s, Corpus::new(0));
        assert!(report.clean(), "{report}");
        assert!(report.faults > 0);
        assert!(features.rows().iter().any(|(_, n, _)| n.starts_with("outcome:")));
    }

    #[test]
    fn search_explores_the_fabric_axis() {
        // Enough candidates that the per-candidate fabric draw lands on
        // both built-in interconnects, and the verdict × fabric bucket
        // shows up in the universe.
        let (report, corpus, features) = run_fuzz(&tiny(24), Corpus::new(0));
        assert!(report.clean(), "{report}");
        let fabrics: BTreeSet<FabricKind> = corpus.entries().iter().map(|e| e.fabric).collect();
        assert!(fabrics.len() > 1, "candidates must land on both fabrics: {fabrics:?}");
        assert!(
            features.rows().iter().any(|(_, n, _)| n.starts_with("fabric_outcome:")),
            "verdict x fabric bucket missing"
        );
    }
}
