//! Content-addressed bank persistence under `results/banks/`.
//!
//! Mirrors the `vab-svc` persistent result cache's crash discipline:
//! atomic temp-file + rename writes, quarantine (never delete) on
//! corruption, engine-version check on read. A bank's filename is its
//! content address, so a digest is either present and replayable or
//! absent and regenerated — there is no "stale" state.

use crate::bank::{generate, TvirBank};
use crate::spec::BankSpec;
use std::path::{Path, PathBuf};

/// Default bank directory, next to the result CSVs and the svc cache.
pub const DEFAULT_BANK_DIR: &str = "results/banks";

/// A directory of content-addressed bank files.
#[derive(Debug, Clone)]
pub struct BankStore {
    dir: PathBuf,
    engine_version: String,
}

impl BankStore {
    /// Opens (lazily — the directory is created on first save) a store at
    /// `dir` under the given engine version.
    pub fn new(dir: impl Into<PathBuf>, engine_version: &str) -> Self {
        Self { dir: dir.into(), engine_version: engine_version.to_string() }
    }

    /// Directory backing the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content-addressed id of `spec` under this store's engine version.
    pub fn id_for(&self, spec: &BankSpec) -> String {
        format!("{:016x}", spec.digest_with_version(&self.engine_version))
    }

    /// File path a spec's bank lives at.
    fn path_for(&self, spec: &BankSpec) -> PathBuf {
        self.dir.join(format!("{}.json", self.id_for(spec)))
    }

    /// Loads the bank for `spec` if present and valid. A corrupt or
    /// version-mismatched file is quarantined (renamed `*.corrupt`) and
    /// reported as a miss, so the caller regenerates.
    pub fn load(&self, spec: &BankSpec) -> Option<TvirBank> {
        let path = self.path_for(spec);
        let text = std::fs::read_to_string(&path).ok()?;
        match TvirBank::parse_with_version(&text, &self.engine_version) {
            Ok(bank) if bank.spec == *spec => Some(bank),
            _ => {
                let quarantine = path.with_extension("json.corrupt");
                let _ = std::fs::rename(&path, &quarantine);
                None
            }
        }
    }

    /// Persists `bank` atomically (temp file + rename), returning its
    /// final path.
    pub fn save(&self, bank: &TvirBank) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(&bank.spec);
        let tmp = self.dir.join(format!(".tmp-{}", self.id_for(&bank.spec)));
        std::fs::write(&tmp, bank.to_json_with_version(&self.engine_version))?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Fetches the bank for `spec`, generating and persisting it on a
    /// miss. Returns `(bank, was_cached)`.
    pub fn load_or_generate(&self, spec: &BankSpec) -> Result<(TvirBank, bool), String> {
        if let Some(bank) = self.load(spec) {
            return Ok((bank, true));
        }
        let bank = generate(spec)?;
        self.save(&bank).map_err(|e| format!("cannot persist bank: {e}"))?;
        Ok((bank, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WaterSpec;

    fn spec() -> BankSpec {
        BankSpec {
            water: WaterSpec::River,
            range_m: 45.0,
            carrier_hz: 18_500.0,
            fs: 1600.0,
            n_snapshots: 2,
            span_s: 1.0,
            seed: 99,
        }
    }

    fn temp_store(tag: &str) -> BankStore {
        let dir = std::env::temp_dir().join(format!("vab_banks_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        BankStore::new(dir, crate::ENGINE_VERSION)
    }

    #[test]
    fn miss_generates_then_hit_serves_identical_bank() {
        let store = temp_store("roundtrip");
        let (built, cached) = store.load_or_generate(&spec()).unwrap();
        assert!(!cached, "first fetch must generate");
        assert!(store.path_for(&spec()).is_file());
        let (served, cached) = store.load_or_generate(&spec()).unwrap();
        assert!(cached, "second fetch must come from disk");
        assert_eq!(served, built, "disk round trip must be exact");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_file_is_quarantined_and_regenerated() {
        let store = temp_store("corrupt");
        let (_, _) = store.load_or_generate(&spec()).unwrap();
        std::fs::write(store.path_for(&spec()), "{garbage").unwrap();
        assert!(store.load(&spec()).is_none(), "corrupt bank must read as a miss");
        let quarantined = store.path_for(&spec()).with_extension("json.corrupt");
        assert!(quarantined.is_file(), "corrupt bank must be kept for forensics");
        let (_, cached) = store.load_or_generate(&spec()).unwrap();
        assert!(!cached);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn engine_version_mismatch_is_a_miss() {
        let store = temp_store("version");
        store.load_or_generate(&spec()).unwrap();
        let old = BankStore::new(store.dir().to_path_buf(), "vab-engine/0");
        // Different engine version → different content address → miss.
        assert!(old.load(&spec()).is_none());
        assert_ne!(old.id_for(&spec()), store.id_for(&spec()));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
