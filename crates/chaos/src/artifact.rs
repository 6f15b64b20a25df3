//! Self-contained, replayable reproducer artifacts.
//!
//! A [`Reproducer`] bundles a minimized [`ChaosCase`] with the violation it
//! demonstrates. Serialized as a single JSON file it is the committed
//! corpus format (`crates/chaos/corpus/*.case.json`); [`Reproducer::verify`]
//! re-runs the case from scratch and checks the same oracle still fires
//! with the recorded verdict — what CI asserts for every committed
//! reproducer on every build.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::case::ChaosCase;
use crate::oracle::{evaluate, OracleConfig, Violation};

/// A minimized failing case plus the verdict it must keep reproducing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// Stable slug, also the artifact's file stem.
    pub slug: String,
    /// The oracle this case violates.
    pub oracle: String,
    /// Which run violates it (`"fcfs"`, `"das"`, `"pair"`).
    pub policy: String,
    /// Violation description recorded when the case was minimized.
    pub detail: String,
    /// The violating measure recorded at minimization.
    pub measure: f64,
    /// The minimized case itself.
    pub case: ChaosCase,
}

impl Reproducer {
    /// Re-runs the case and returns the live violation if the recorded
    /// oracle still fires, or an error describing the verdict drift.
    pub fn verify(&self, oracles: &OracleConfig) -> Result<Violation, String> {
        let paired = self.case.run_paired()?;
        let violations = evaluate(&self.case, &paired, oracles);
        violations
            .into_iter()
            .find(|v| v.oracle == self.oracle && v.policy == self.policy)
            .ok_or_else(|| {
                format!(
                    "reproducer {}: oracle {} ({}) no longer fires",
                    self.slug, self.oracle, self.policy
                )
            })
    }

    /// Reads a reproducer from a JSON file.
    pub fn read(path: &Path) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&raw).map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// Writes the reproducer as one line of compact JSON (byte-stable for
    /// a given value, so regenerating an unchanged corpus is a no-op diff;
    /// the two large cases are 2.5× smaller than pretty-printed).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let json =
            serde_json::to_string(self).map_err(|e| format!("serialize {}: {e}", self.slug))?;
        std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The committed corpus directory (`crates/chaos/corpus`), resolved
/// relative to this crate so tests and CI find it from any working
/// directory.
pub fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// All `*.case.json` reproducers under `dir`, sorted by file name for
/// deterministic iteration.
pub fn read_corpus(dir: &Path) -> Result<Vec<Reproducer>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".case.json"))
        })
        .collect();
    paths.sort();
    paths.iter().map(|p| Reproducer::read(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sim::rng::SeedFactory;

    use crate::space::SearchSpace;

    #[test]
    fn reproducer_roundtrips_through_disk() {
        let case = SearchSpace::default()
            .generate(&SeedFactory::new(3), 0)
            .unwrap();
        let r = Reproducer {
            slug: "case0000_test".into(),
            oracle: "das-regression".into(),
            policy: "pair".into(),
            detail: "test".into(),
            measure: 1.2,
            case,
        };
        let dir = std::env::temp_dir().join("das_chaos_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case0000_test.case.json");
        r.write(&path).unwrap();
        let back = Reproducer::read(&path).unwrap();
        assert_eq!(r, back);
        let corpus = read_corpus(&dir).unwrap();
        assert!(corpus.contains(&back));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_rejects_a_verdict_that_cannot_fire() {
        let case = SearchSpace::default()
            .generate(&SeedFactory::new(3), 1)
            .unwrap();
        let r = Reproducer {
            slug: "case0001_bogus".into(),
            // Physics oracles hold on ordinary cases, so this claimed
            // violation cannot reproduce.
            oracle: "exactly-once".into(),
            policy: "das".into(),
            detail: "bogus".into(),
            measure: 2.0,
            case,
        };
        let err = r.verify(&OracleConfig::default()).unwrap_err();
        assert!(err.contains("no longer fires"), "{err}");
    }
}
