//! Behaviour-space coverage: hashes structured run behaviour into
//! named feature buckets.
//!
//! A *feature* is one point of the bounded behaviour space the fuzzer
//! explores: an instruction-class edge or triple in the retired stream,
//! a branch shape, a memory width × alignment combination, a CSR
//! transit edge, a trap context, a segment-geometry bucket, a fault
//! verdict × site pair, a fabric-depth or ROB-occupancy high-water
//! bucket, a rollback depth. Each feature has a stable human-readable
//! name and a stable 64-bit id (FNV-1a of the name), so corpora persist
//! across runs and machines.
//!
//! Two sources feed one [`CoverageMap`]:
//!
//! * the golden retired stream and oracle verdicts, folded in by the
//!   engine through [`CoverageMap::note`] / [`golden_features`];
//! * the full-system run itself: `CoverageMap` implements
//!   [`meek_core::Observer`], so attached to a `SimBuilder` it buckets
//!   the typed event stream (verdicts, detections, rollbacks, segment
//!   lifetimes) and the per-cycle occupancy samples as they happen.

use meek_core::{DetectionRecord, Observer, RunReport, SimEvent, TickSample};
use meek_difftest::GoldenRun;
use meek_isa::inst::Inst;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The stable 64-bit feature id of a feature name: its FNV-1a hash.
pub fn feature_id(name: &str) -> u64 {
    meek_campaign::fnv1a(name)
}

/// Integer log2 bucket: 0 for 0, otherwise the value's bit length.
/// Collapses unbounded counts (cycles, distances, depths) into a
/// handful of discoverable buckets.
pub fn bucket(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// The feature set one case discovered, plus an [`Observer`]
/// implementation that buckets the live event/sample stream of a
/// full-system run. A cheap cloneable handle (like `TraceLog`): keep
/// one clone, attach the other via `SimBuilder::observe`, then
/// [`CoverageMap::take_features`] after the run(s).
#[derive(Clone, Debug, Default)]
pub struct CoverageMap {
    inner: Arc<Mutex<MapState>>,
}

#[derive(Debug, Default)]
struct MapState {
    features: BTreeMap<u64, String>,
    /// Open-segment tracking: seg -> open cycle.
    open: BTreeMap<u32, u64>,
    max_open: usize,
    rollbacks: u64,
    max_rob: usize,
    max_fabric: usize,
}

impl MapState {
    fn note(&mut self, name: String) {
        self.features.entry(feature_id(&name)).or_insert(name);
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Adds a feature by name (external sources: golden-trace shapes,
    /// oracle verdicts).
    pub fn note(&self, name: impl Into<String>) {
        self.inner.lock().expect("coverage map lock").note(name.into());
    }

    /// Number of distinct features collected so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("coverage map lock").features.len()
    }

    /// Whether no feature has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the per-run scratch (open segments, occupancy/rollback
    /// watermarks) without touching the collected features. The
    /// [`Observer::finished`] hook does this after a completed run;
    /// call it explicitly after an *aborted* run (a `RunError::Livelock`),
    /// or the next run observed by the same handle inherits stale state.
    pub fn reset_scratch(&self) {
        let mut st = self.inner.lock().expect("coverage map lock");
        st.open.clear();
        st.max_open = 0;
        st.rollbacks = 0;
        st.max_rob = 0;
        st.max_fabric = 0;
    }

    /// Drains the collected `(id, name)` pairs, id-sorted, resetting
    /// the map for the next case.
    pub fn take_features(&self) -> Vec<(u64, String)> {
        let mut st = self.inner.lock().expect("coverage map lock");
        let features = std::mem::take(&mut st.features);
        *st = MapState::default();
        features.into_iter().collect()
    }
}

impl Observer for CoverageMap {
    fn event(&mut self, ev: &SimEvent) {
        let mut st = self.inner.lock().expect("coverage map lock");
        match *ev {
            SimEvent::SegmentOpened { seg, cycle, .. } => {
                st.open.insert(seg, cycle);
                st.max_open = st.max_open.max(st.open.len());
            }
            SimEvent::SegmentClosed { seg, pass, cycle } => {
                if let Some(opened) = st.open.remove(&seg) {
                    let b = bucket(cycle.saturating_sub(opened));
                    st.note(format!("seg_cycles:{b}"));
                }
                if !pass {
                    st.note("verdict:fail".to_string());
                }
            }
            SimEvent::FaultInjected { site, .. } => {
                st.note(format!("inject:{}", site.name()));
            }
            SimEvent::FaultDetected { ref record } => {
                let DetectionRecord { site, injected_cycle, detected_cycle, .. } = *record;
                let b = bucket(detected_cycle.saturating_sub(injected_cycle));
                st.note(format!("detect:{}:{b}", site.name()));
            }
            SimEvent::RollbackStarted { golden, .. } => {
                st.rollbacks += 1;
                if golden {
                    st.note("rollback:golden".to_string());
                }
            }
            SimEvent::RollbackCompleted { .. } => {}
        }
    }

    fn sample(&mut self, _cycle: u64, sample: TickSample) {
        let mut st = self.inner.lock().expect("coverage map lock");
        st.max_rob = st.max_rob.max(sample.rob_occupancy);
        st.max_fabric = st.max_fabric.max(sample.fabric_depth);
    }

    fn wants_sample_at(&self, _cycle: u64) -> bool {
        // The rob_max/fabric_max features are per-cycle maxima: skipping
        // any cycle could change the pinned feature universe.
        true
    }

    fn finished(&mut self, _report: &RunReport) {
        let mut st = self.inner.lock().expect("coverage map lock");
        let (max_open, rollbacks) = (st.max_open, st.rollbacks);
        let (max_rob, max_fabric) = (st.max_rob, st.max_fabric);
        if max_open > 0 {
            st.note(format!("open_segs:{max_open}"));
        }
        if rollbacks > 0 {
            st.note(format!("rollback_depth:{}", bucket(rollbacks)));
        }
        st.note(format!("rob_max:{}", bucket(max_rob as u64)));
        st.note(format!("fabric_max:{}", bucket(max_fabric as u64)));
        // Reset the per-run scratch so the same handle can observe the
        // next fault's run of this case.
        st.open.clear();
        st.max_open = 0;
        st.rollbacks = 0;
        st.max_rob = 0;
        st.max_fabric = 0;
    }
}

/// Folds the golden retired stream's behaviour shapes into `map`:
/// instruction-class edges and triples, branch shapes and distances,
/// memory width × alignment × overlap combinations, CSR accesses and
/// transit edges, and kernel-trap contexts (including trap → CSR
/// edges). These are the program-structure features mutation preserves
/// and extends — the signal that makes guided search beat random.
pub fn golden_features(golden: &GoldenRun, map: &CoverageMap) {
    map.note(format!("exec:{}", bucket(golden.trace.len() as u64)));
    let mut prev_class: Option<&'static str> = None;
    let mut prev2_class: Option<&'static str> = None;
    let mut prev_mem: Option<(u64, bool)> = None;
    let mut prev_csr: Option<u16> = None;
    let mut trap_countdown = 0u32;
    for r in &golden.trace {
        let class = class_name(r.class);
        if let Some(p) = prev_class {
            map.note(format!("edge:{p}>{class}"));
            if let Some(pp) = prev2_class {
                // Class triples carry real program structure but their
                // raw space (13³) is a diversity lottery any random
                // program wins tickets in; hashing them into a bounded
                // bucket set keeps the structural signal while letting
                // the space *saturate*, so accumulated coverage measures
                // tail-digging, not raw novelty.
                let h = feature_id(&format!("{pp}>{p}>{class}")) % 128;
                map.note(format!("tri:{h:02x}"));
            }
        }
        prev2_class = prev_class;
        prev_class = Some(class);
        if let Some(b) = r.branch {
            if b.is_conditional {
                let dir = if r.next_pc > r.pc { "fwd" } else { "back" };
                let t = if b.taken { "taken" } else { "fall" };
                map.note(format!("branch:{t}:{dir}"));
                if b.taken {
                    map.note(format!("brdist:{}", bucket(r.next_pc.abs_diff(r.pc) / 4)));
                }
            }
            if b.is_indirect {
                map.note(format!("indirect:{}", bucket(r.next_pc.abs_diff(r.pc) / 4)));
            }
        }
        if let Some(m) = r.mem {
            let kind = if m.is_store { "store" } else { "load" };
            let align = m.addr % (m.size as u64).clamp(1, 8);
            map.note(format!("mem:{kind}:{}:{align}", m.size));
            if let Some((pline, pstore)) = prev_mem {
                if pline == m.addr / 8 {
                    let pkind = if pstore { "store" } else { "load" };
                    map.note(format!("overlap:{pkind}>{kind}"));
                }
            }
            prev_mem = Some((m.addr / 8, m.is_store));
        }
        if let Some((addr, _)) = r.csr_read {
            map.note(format!("csr_r:{addr:#x}"));
            if let Some(p) = prev_csr {
                map.note(format!("csr_edge:{p:#x}>{addr:#x}"));
            }
            prev_csr = Some(addr);
            if trap_countdown > 0 {
                map.note(format!("trap_then_csr:{addr:#x}"));
            }
        }
        if let Some((addr, _)) = r.csr_write {
            map.note(format!("csr_w:{addr:#x}"));
        }
        if r.is_kernel_trap {
            let flavour = match r.inst {
                Inst::Ebreak => "ebreak",
                _ => "ecall",
            };
            map.note(format!("trap:{flavour}"));
            if let Some(pp) = prev2_class {
                map.note(format!("trap_after:{pp}"));
            }
            trap_countdown = 8;
        } else {
            trap_countdown = trap_countdown.saturating_sub(1);
        }
    }
}

/// Stable short name of an execution class (feature-key vocabulary).
fn class_name(c: meek_isa::inst::ExecClass) -> &'static str {
    use meek_isa::inst::ExecClass::*;
    match c {
        IntAlu => "alu",
        IntMul => "mul",
        IntDiv => "div",
        FpAdd => "fadd",
        FpMul => "fmul",
        FpDiv => "fdiv",
        Load => "ld",
        Store => "st",
        Branch => "br",
        Jump => "jmp",
        Csr => "csr",
        System => "sys",
        Meek => "meek",
    }
}

/// The fuzzer's accumulated feature universe: id → (name, discovering
/// global iteration).
#[derive(Debug, Clone, Default)]
pub struct FeatureSet {
    features: BTreeMap<u64, (String, u64)>,
}

impl FeatureSet {
    /// An empty universe.
    pub fn new() -> FeatureSet {
        FeatureSet::default()
    }

    /// Merges one case's features, discovered at global iteration
    /// `iter`; returns the ids that were new.
    pub fn merge(&mut self, iter: u64, features: &[(u64, String)]) -> Vec<u64> {
        let mut fresh = Vec::new();
        for (id, name) in features {
            if !self.features.contains_key(id) {
                self.features.insert(*id, (name.clone(), iter));
                fresh.push(*id);
            }
        }
        fresh
    }

    /// Whether every id in `ids` is already known.
    pub fn covers(&self, ids: &[u64]) -> bool {
        ids.iter().all(|id| self.features.contains_key(id))
    }

    /// Distinct features known.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Features discovered at a global iteration greater than `iter`.
    pub fn discovered_after(&self, iter: u64) -> usize {
        self.features.values().filter(|(_, at)| *at > iter).count()
    }

    /// The `(id, name, discovered_at)` rows, id-sorted.
    pub fn rows(&self) -> Vec<(u64, &str, u64)> {
        self.features.iter().map(|(id, (name, at))| (*id, name.as_str(), *at)).collect()
    }

    /// One name per line, sorted by name — the persisted
    /// `features.txt` digest of a corpus.
    pub fn render_names(&self) -> String {
        let mut names: Vec<&str> = self.features.values().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        let mut out = String::new();
        for n in names {
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_difftest::{cosim, fuzz_program, golden_run_in, FuzzConfig};

    #[test]
    fn feature_ids_are_stable_and_named() {
        assert_eq!(feature_id("edge:alu>ld"), feature_id("edge:alu>ld"));
        assert_ne!(feature_id("edge:alu>ld"), feature_id("edge:ld>alu"));
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(255), 8);
        assert_eq!(bucket(256), 9);
    }

    #[test]
    fn golden_features_cover_the_behaviour_vocabulary() {
        let map = CoverageMap::new();
        for seed in 0..6 {
            let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
            golden_features(&golden_run_in(&wl, cosim::GOLDEN_CAP).expect("clean"), &map);
        }
        let feats = map.take_features();
        assert!(map.is_empty(), "take_features drains");
        let names: Vec<&str> = feats.iter().map(|(_, n)| n.as_str()).collect();
        for prefix in
            ["exec:", "edge:", "tri:", "branch:taken", "brdist:", "mem:", "csr_r:", "trap:"]
        {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no `{prefix}` feature in {names:?}"
            );
        }
        // Ids are sorted and unique.
        assert!(feats.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn feature_set_tracks_discovery_iterations() {
        let mut set = FeatureSet::new();
        let a = (feature_id("a"), "a".to_string());
        let b = (feature_id("b"), "b".to_string());
        assert_eq!(set.merge(0, std::slice::from_ref(&a)), vec![a.0]);
        assert_eq!(set.merge(3, &[a.clone(), b.clone()]), vec![b.0]);
        assert!(set.covers(&[a.0, b.0]));
        assert_eq!(set.len(), 2);
        assert_eq!(set.discovered_after(0), 1);
        assert_eq!(set.render_names(), "a\nb\n");
    }
}
