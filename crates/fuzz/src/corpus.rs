//! The seed corpus: programs (plus their fault plans) that discovered
//! new coverage features, with deterministic on-disk persistence.
//!
//! An entry is kept because it was the *first discoverer* of at least
//! one feature; its `owned` list records which. The corpus is bounded:
//! past its capacity, the entry owning the fewest features
//! (oldest on a tie) is evicted — a deterministic replacement policy,
//! so the corpus directory is byte-identical for a given seed and
//! iteration count at any thread count.
//!
//! On disk a corpus is a directory of `corpus_NNNNN.seed` files (one
//! entry each, a line-oriented text format carrying the program words,
//! the fault plan, and the owned features) plus `features.txt` (the
//! sorted feature-name digest) and `report.txt` (the run's
//! [`FuzzReport`](crate::report::FuzzReport) rendering).

use meek_core::{FabricKind, FaultSite, FaultSpec};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// One corpus entry: a program that first discovered `owned` features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Encoded program words.
    pub words: Vec<u32>,
    /// The fault plan evaluated with the program.
    pub plan: Vec<FaultSpec>,
    /// Feature `(id, name)` pairs this entry discovered, id-sorted.
    pub owned: Vec<(u64, String)>,
    /// Global iteration that produced the entry.
    pub iter: u64,
    /// Interconnect the discovering evaluation ran under (part of the
    /// candidate; mutations mostly inherit it). Entries persisted
    /// before the fabric axis existed load as [`FabricKind::F2`], the
    /// kind every evaluation used then.
    pub fabric: FabricKind,
}

/// An in-memory corpus with the deterministic replacement policy.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    cap: usize,
    evicted: u64,
    digest: Vec<(u64, String)>,
}

/// Default corpus capacity.
pub const DEFAULT_CAP: usize = 1024;

impl Corpus {
    /// An empty corpus with capacity `cap` (0 = [`DEFAULT_CAP`]).
    pub fn new(cap: usize) -> Corpus {
        Corpus {
            entries: Vec::new(),
            cap: if cap == 0 { DEFAULT_CAP } else { cap },
            evicted: 0,
            digest: Vec::new(),
        }
    }

    /// Every feature name the corpus directory's `features.txt` digest
    /// recorded (with derived ids), loaded by [`Corpus::load`]. A
    /// superset of the live entries' `owned` lists whenever eviction
    /// has dropped a first discoverer — the engine seeds its universe
    /// from *both*, so persisted coverage can never shrink.
    pub fn digest(&self) -> &[(u64, String)] {
        &self.digest
    }

    /// The live entries, oldest first.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Inserts a discovering entry, evicting the weakest entry (fewest
    /// owned features, oldest on a tie) if the corpus is over capacity.
    pub fn insert(&mut self, entry: CorpusEntry) {
        self.entries.push(entry);
        if self.entries.len() > self.cap {
            let weakest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.owned.len(), *i))
                .map(|(i, _)| i)
                .expect("non-empty corpus");
            self.entries.remove(weakest);
            self.evicted += 1;
        }
    }

    /// Serialises one entry in the line-oriented `.seed` format.
    fn render_entry(e: &CorpusEntry) -> String {
        let mut out = String::new();
        out.push_str(&format!("iter {}\n", e.iter));
        out.push_str(&format!("fabric {}\n", e.fabric.name()));
        for w in &e.words {
            out.push_str(&format!("word {w:08x}\n"));
        }
        for f in &e.plan {
            out.push_str(&format!("fault {} {} {}\n", f.site.name(), f.bit, f.arm_at_commit));
        }
        for (id, name) in &e.owned {
            out.push_str(&format!("feature {id:016x} {name}\n"));
        }
        out
    }

    /// Parses the `.seed` format back into an entry.
    fn parse_entry(text: &str, path: &Path) -> io::Result<CorpusEntry> {
        let bad = |line: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: malformed corpus line `{line}`", path.display()),
            )
        };
        let mut e = CorpusEntry {
            words: Vec::new(),
            plan: Vec::new(),
            owned: Vec::new(),
            iter: 0,
            fabric: FabricKind::F2,
        };
        for line in text.lines() {
            let mut it = line.splitn(2, ' ');
            let (tag, rest) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            match tag {
                "iter" => e.iter = rest.parse().map_err(|_| bad(line))?,
                "fabric" => e.fabric = FabricKind::from_name(rest).ok_or_else(|| bad(line))?,
                "word" => {
                    e.words.push(u32::from_str_radix(rest, 16).map_err(|_| bad(line))?);
                }
                "fault" => {
                    let parts: Vec<&str> = rest.split(' ').collect();
                    let [site, bit, arm] = parts[..] else { return Err(bad(line)) };
                    e.plan.push(FaultSpec {
                        site: FaultSite::from_name(site).ok_or_else(|| bad(line))?,
                        bit: bit.parse().map_err(|_| bad(line))?,
                        arm_at_commit: arm.parse().map_err(|_| bad(line))?,
                    });
                }
                "feature" => {
                    let mut parts = rest.splitn(2, ' ');
                    let id = parts.next().ok_or_else(|| bad(line))?;
                    let name = parts.next().ok_or_else(|| bad(line))?;
                    e.owned.push((
                        u64::from_str_radix(id, 16).map_err(|_| bad(line))?,
                        name.to_string(),
                    ));
                }
                "" => {}
                _ => return Err(bad(line)),
            }
        }
        if e.words.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: corpus entry has no program words", path.display()),
            ));
        }
        Ok(e)
    }

    /// Writes the corpus to `dir` (created if missing): entry files in
    /// live order, replacing any previous `.seed` files — for a given
    /// engine state the directory contents are byte-identical.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for old in fs::read_dir(dir)? {
            let old = old?.path();
            if old.extension().is_some_and(|e| e == "seed") {
                fs::remove_file(old)?;
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            let mut f = fs::File::create(dir.join(format!("corpus_{i:05}.seed")))?;
            f.write_all(Corpus::render_entry(e).as_bytes())?;
        }
        Ok(())
    }

    /// Loads every `.seed` file of `dir` (sorted by file name) into a
    /// corpus; a missing directory loads as empty.
    pub fn load(dir: &Path, cap: usize) -> io::Result<Corpus> {
        let mut corpus = Corpus::new(cap);
        if !dir.exists() {
            return Ok(corpus);
        }
        let mut paths: Vec<_> = fs::read_dir(dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|d| d.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seed"))
            .collect();
        paths.sort();
        for p in paths {
            corpus.insert(Corpus::parse_entry(&fs::read_to_string(&p)?, &p)?);
        }
        let digest_path = dir.join("features.txt");
        if digest_path.exists() {
            corpus.digest = fs::read_to_string(&digest_path)?
                .lines()
                .filter(|l| !l.is_empty())
                .map(|name| (crate::coverage::feature_id(name), name.to_string()))
                .collect();
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::feature_id;

    fn entry(words: Vec<u32>, owned: &[&str], iter: u64) -> CorpusEntry {
        CorpusEntry {
            words,
            plan: vec![FaultSpec { site: FaultSite::MemData, bit: 3, arm_at_commit: 17 }],
            owned: owned.iter().map(|n| (feature_id(n), n.to_string())).collect(),
            iter,
            fabric: FabricKind::F2,
        }
    }

    #[test]
    fn entries_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join(format!("meek-fuzz-corpus-{}", std::process::id()));
        let mut corpus = Corpus::new(8);
        corpus.insert(entry(vec![0x13, 0x9302_0293], &["a", "b"], 0));
        let mut axi = entry(vec![0xDEAD_BEEF], &["mem:store:4:2"], 5);
        axi.fabric = FabricKind::Axi;
        corpus.insert(axi);
        corpus.save(&dir).unwrap();
        let loaded = Corpus::load(&dir, 8).unwrap();
        assert_eq!(loaded.entries(), corpus.entries());
        // Saving again reproduces the same bytes (stale files cleared).
        corpus.save(&dir).unwrap();
        let again = Corpus::load(&dir, 8).unwrap();
        assert_eq!(again.entries(), corpus.entries());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn feature_digest_survives_entry_eviction() {
        // An evicted entry's features live on in features.txt; load
        // must surface them through the digest so the engine's
        // universe (and the rewritten digest) can never shrink.
        let dir = std::env::temp_dir().join(format!("meek-fuzz-digest-{}", std::process::id()));
        let mut corpus = Corpus::new(8);
        corpus.insert(entry(vec![0x13], &["a"], 0));
        corpus.save(&dir).unwrap();
        fs::write(dir.join("features.txt"), "a\nevicted-owners-feature\n").unwrap();
        let loaded = Corpus::load(&dir, 8).unwrap();
        assert_eq!(loaded.entries(), corpus.entries());
        assert_eq!(
            loaded.digest(),
            &[
                (feature_id("a"), "a".to_string()),
                (feature_id("evicted-owners-feature"), "evicted-owners-feature".to_string()),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_loads_empty() {
        let corpus =
            Corpus::load(Path::new("/nonexistent/meek-fuzz-nowhere"), 0).expect("empty load");
        assert!(corpus.is_empty());
        assert_eq!(corpus.evicted(), 0);
    }

    #[test]
    fn eviction_drops_the_weakest_oldest_entry() {
        let mut corpus = Corpus::new(2);
        corpus.insert(entry(vec![1], &["a"], 0));
        corpus.insert(entry(vec![2], &["b", "c"], 1));
        corpus.insert(entry(vec![3], &["d"], 2)); // over cap: evict #0 (1 owned, oldest)
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.evicted(), 1);
        assert_eq!(corpus.entries()[0].words, vec![2]);
        assert_eq!(corpus.entries()[1].words, vec![3]);
    }

    #[test]
    fn malformed_entries_are_rejected() {
        let p = Path::new("x.seed");
        assert!(Corpus::parse_entry("word zz\n", p).is_err());
        assert!(Corpus::parse_entry("fault bogus_site 1 2\n", p).is_err());
        assert!(Corpus::parse_entry("", p).is_err(), "no words");
        assert!(Corpus::parse_entry("word 00000013\nnonsense 1\n", p).is_err());
        assert!(Corpus::parse_entry("word 00000013\nfabric warp\n", p).is_err());
    }

    #[test]
    fn entries_without_a_fabric_line_load_as_f2() {
        // Corpora persisted before the fabric axis carry no `fabric`
        // line; they must load under the kind they were evaluated with.
        let e = Corpus::parse_entry("iter 7\nword 00000013\n", Path::new("old.seed")).unwrap();
        assert_eq!(e.fabric, FabricKind::F2);
        let e = Corpus::parse_entry("iter 7\nfabric axi\nword 00000013\n", Path::new("new.seed"))
            .unwrap();
        assert_eq!(e.fabric, FabricKind::Axi);
    }
}
