//! Content-addressed result cache: an in-memory LRU layer with an
//! optional on-disk JSON spill.
//!
//! Keys are 128-bit values derived by [`cache_key`] from the *content*
//! of the request, never from file paths or timestamps: the archive's
//! byte digest ([`perfvar_trace::format::digest::digest_path`]), the
//! result-affecting configuration fields
//! ([`AnalysisConfig::result_key`], which excludes the thread count —
//! the pipeline is bit-identical at every parallelism), the recovery
//! mode, and the number of refinement steps. Two requests that would
//! produce the same bytes share one entry; flipping any input byte or
//! any result-affecting knob moves to a different key.
//!
//! The value is the *rendered* response body (plus one body per metric
//! channel), pinned at fill time so byte-identity with the CLI's
//! `--json` output never depends on re-serialisation. Warm `/v1/analyze`
//! hits splice those bytes into the envelope without re-encoding them.
//! Next to the body sits a lazily decoded [`Analysis`]: the first
//! `/v1/diagnose` or `/v1/compare` on an entry parses the body once
//! ([`CachedResult::analysis`]), every later hit shares that decode, and
//! entries that only ever serve `/v1/analyze` never pay for it.
//!
//! Spill files are written crash-safely (temp file, fsync, rename), so a
//! reader sees either the previous file or the complete new one; a spill
//! that fails to parse anyway is a miss, and the refill replaces it whole.

use crate::store::write_atomic;
use perfvar_analysis::{Analysis, AnalysisConfig, OutOfCoreAnalysis, RecoveryMode};
use perfvar_trace::format::digest::Fnv128;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Derives the content-addressed cache key of one analysis request.
pub fn cache_key(
    digest: u128,
    config: &AnalysisConfig,
    mode: RecoveryMode,
    refine_steps: usize,
) -> u128 {
    let mut h = Fnv128::new();
    h.write(&digest.to_le_bytes());
    let config_key = config.result_key();
    h.write_len(config_key.len() as u64);
    h.write(config_key.as_bytes());
    h.write(&[matches!(mode, RecoveryMode::Partial) as u8]);
    h.write(&(refine_steps as u64).to_le_bytes());
    h.finish()
}

/// One cached analysis: the rendered response bodies, plus the analysis
/// they encode once something has asked for it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CachedResult {
    /// The `/v1/analyze` `data` — pretty-printed [`Analysis`] JSON plus a
    /// trailing newline, byte-identical to `perfvar analyze --json`.
    pub body: String,
    /// One `(metric name, rendered CounterAnalysis JSON)` pair per
    /// metric channel of the trace, for `…&metric=NAME` requests.
    pub metrics: Vec<(String, String)>,
    /// Function names of the analysed trace, indexed by function id —
    /// `/compare` uses them to report named per-function deltas without
    /// re-reading the archive. Defaults to empty for spills written by
    /// older daemons (deltas then fall back to `fn#<id>` names).
    #[serde(default)]
    pub functions: Vec<String>,
    /// `body` decoded back into an [`Analysis`], filled on first use by
    /// [`CachedResult::analysis`]. Never spilled, never compared.
    #[serde(skip)]
    decoded: OnceLock<Arc<Analysis>>,
}

/// Equality of the rendered bodies; whether the analysis has been
/// decoded yet is not part of an entry's value.
impl PartialEq for CachedResult {
    fn eq(&self, other: &CachedResult) -> bool {
        self.body == other.body
            && self.metrics == other.metrics
            && self.functions == other.functions
    }
}

impl CachedResult {
    /// Renders an out-of-core analysis into its cacheable bodies,
    /// reproducing the CLI's `--json` composition
    /// (`to_string_pretty(to_value(analysis))` + `println!`) byte for
    /// byte.
    pub fn render(result: &OutOfCoreAnalysis) -> Result<CachedResult, String> {
        let doc = serde_json::to_value(&result.analysis);
        let mut body =
            serde_json::to_string_pretty(&doc).map_err(|e| format!("serialisation failed: {e}"))?;
        body.push('\n');
        let mut metrics = Vec::with_capacity(result.analysis.counters.len());
        for counter in &result.analysis.counters {
            let name = result.meta.registry.metric(counter.metric).name.clone();
            let mut rendered = serde_json::to_string_pretty(&serde_json::to_value(counter))
                .map_err(|e| format!("serialisation failed: {e}"))?;
            rendered.push('\n');
            metrics.push((name, rendered));
        }
        let functions = result
            .meta
            .registry
            .functions()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        Ok(CachedResult {
            body,
            metrics,
            functions,
            decoded: OnceLock::new(),
        })
    }

    /// The analysis `body` encodes, parsed on the first call and shared
    /// by every later one: repeated `/v1/diagnose` and `/v1/compare` hits
    /// on an entry decode its ~MB body once, not once per request.
    pub fn analysis(&self) -> Result<Arc<Analysis>, String> {
        if let Some(decoded) = self.decoded.get() {
            return Ok(decoded.clone());
        }
        let analysis: Analysis = serde_json::from_str(&self.body)
            .map_err(|e| format!("cached analysis failed to parse: {e}"))?;
        // Two first callers racing both parse; the first to finish wins
        // and the other's copy is dropped, so every caller shares one.
        Ok(self.decoded.get_or_init(|| Arc::new(analysis)).clone())
    }

    /// Whether [`CachedResult::analysis`] has decoded the body yet.
    #[cfg(test)]
    pub(crate) fn is_decoded(&self) -> bool {
        self.decoded.get().is_some()
    }
}

struct LruState {
    tick: u64,
    entries: HashMap<u128, (u64, Arc<CachedResult>)>,
}

/// The two-layer result cache: a bounded in-memory LRU map, spilled as
/// one JSON file per key into `disk_dir` when configured. Memory hits
/// never touch the filesystem; disk hits are promoted back into memory.
pub struct ResultCache {
    capacity: usize,
    disk_dir: Option<PathBuf>,
    state: Mutex<LruState>,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries in memory (a capacity
    /// of 0 is treated as 1), spilling to `disk_dir` if given.
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            disk_dir,
            state: Mutex::new(LruState {
                tick: 0,
                entries: HashMap::new(),
            }),
        }
    }

    fn spill_file(&self, key: u128) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key:032x}.json")))
    }

    /// Memory-layer lookup only: no filesystem access on any outcome.
    pub fn get_memory(&self, key: u128) -> Option<Arc<CachedResult>> {
        let mut state = self.state.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        let (stamp, entry) = state.entries.get_mut(&key)?;
        *stamp = tick;
        Some(entry.clone())
    }

    /// Full lookup: memory first, then the disk spill (promoting a disk
    /// hit back into the memory layer).
    pub fn get(&self, key: u128) -> Option<Arc<CachedResult>> {
        if let Some(entry) = self.get_memory(key) {
            return Some(entry);
        }
        let bytes = std::fs::read(self.spill_file(key)?).ok()?;
        let decoded: CachedResult = serde_json::from_slice(&bytes).ok()?;
        let entry = Arc::new(decoded);
        self.insert_memory(key, entry.clone());
        Some(entry)
    }

    /// Stores an entry in memory and, if configured, on disk. The spill
    /// file is replaced atomically, so a crash mid-write never leaves a
    /// torn file behind; disk-write failures are swallowed: the spill is
    /// an optimisation, not a durability promise.
    pub fn put(&self, key: u128, entry: Arc<CachedResult>) {
        if let Some(file) = self.spill_file(key) {
            if let Some(dir) = &self.disk_dir {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Ok(json) = serde_json::to_string(&*entry) {
                let _ = write_atomic(&file, json.as_bytes());
            }
        }
        self.insert_memory(key, entry);
    }

    fn insert_memory(&self, key: u128, entry: Arc<CachedResult>) {
        let mut state = self.state.lock().unwrap();
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(key, (tick, entry));
        while state.entries.len() > self.capacity {
            let oldest = state
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty above capacity");
            state.entries.remove(&oldest);
        }
    }

    /// Entries currently resident in the memory layer.
    pub fn len_memory(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            body: format!("{{\"tag\": \"{tag}\"}}\n"),
            metrics: vec![("CYC".to_string(), format!("{{\"m\": \"{tag}\"}}\n"))],
            functions: vec!["main".to_string()],
            decoded: OnceLock::new(),
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2, None);
        cache.put(1, entry("a"));
        cache.put(2, entry("b"));
        assert!(cache.get(1).is_some()); // touch 1 → 2 is now oldest
        cache.put(3, entry("c"));
        assert_eq!(cache.len_memory(), 2);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn disk_spill_survives_memory_eviction() {
        let dir = std::env::temp_dir()
            .join("perfvar-server-tests")
            .join("spill");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(1, Some(dir.clone()));
        cache.put(7, entry("spilled"));
        cache.put(8, entry("resident")); // evicts 7 from memory
        assert!(cache.get_memory(7).is_none());
        let back = cache.get(7).expect("reloaded from disk");
        assert_eq!(*back, *entry("spilled"));
        // The disk hit was promoted: now resident in memory again.
        assert!(cache.get_memory(7).is_some());
        // A fresh cache over the same directory sees the spilled entries.
        let fresh = ResultCache::new(4, Some(dir));
        assert_eq!(*fresh.get(8).expect("from disk"), *entry("resident"));
    }

    #[test]
    fn torn_spill_is_a_miss_and_is_replaced_whole() {
        let dir = std::env::temp_dir()
            .join("perfvar-server-tests")
            .join("torn-spill");
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::new(4, Some(dir.clone())).put(9, entry("whole"));
        let file = dir.join(format!("{:032x}.json", 9u128));
        let whole = std::fs::read(&file).unwrap();
        std::fs::write(&file, &whole[..whole.len() / 2]).unwrap();

        let cache = ResultCache::new(4, Some(dir.clone()));
        assert!(cache.get(9).is_none(), "a torn spill is a miss");
        cache.put(9, entry("whole"));
        assert_eq!(std::fs::read(&file).unwrap(), whole, "refill is whole");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, [file.file_name().unwrap()], "no temp files remain");
        let fresh = ResultCache::new(4, Some(dir));
        assert_eq!(*fresh.get(9).expect("from disk"), *entry("whole"));
    }

    #[test]
    fn cache_key_separates_inputs() {
        let config = AnalysisConfig::default();
        let base = cache_key(1, &config, RecoveryMode::Strict, 0);
        assert_eq!(base, cache_key(1, &config, RecoveryMode::Strict, 0));
        assert_ne!(base, cache_key(2, &config, RecoveryMode::Strict, 0));
        assert_ne!(base, cache_key(1, &config, RecoveryMode::Partial, 0));
        assert_ne!(base, cache_key(1, &config, RecoveryMode::Strict, 1));
        let threaded = AnalysisConfig {
            threads: 12,
            ..config.clone()
        };
        assert_eq!(base, cache_key(1, &threaded, RecoveryMode::Strict, 0));
    }
}
