//! Persistent run store: labelled, digest-keyed archive registrations.
//!
//! The result cache makes repeated analyses free but is anonymous — a
//! dashboard polling `/compare` needs *names* for runs. The store maps
//! a content digest (the same 128-bit FNV the cache keys on) to the
//! archive path it was registered from plus an optional human label
//! ("v1.3", "nightly-2026-08-07"). It is deliberately tiny: a mutex
//! around a record list, persisted as one pretty-printed JSON file
//! (`runs.json`) rewritten on every registration, so registrations
//! survive daemon restarts alongside the disk cache spill.
//!
//! Every write replaces `runs.json` atomically (temp file, fsync,
//! rename), so a crash mid-write leaves the previous store intact. A
//! store file that does not parse is never silently reset: opening it
//! fails, and the daemon refuses to start rather than overwrite the
//! registrations on its next write.
//!
//! Lookups resolve a *reference*: an exact label first, then an exact
//! 32-hex-digit digest. Anything else is not the store's business —
//! the server falls back to treating the reference as a filesystem
//! path, so `/compare?base=v1&cand=/tmp/new.pvta` mixes both worlds.

use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One registered run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Content digest of the archive, as 32 lowercase hex digits — the
    /// same value the result cache keys on.
    pub digest: String,
    /// Human-readable label; empty when registered without one. Labels
    /// are unique: re-using a label moves it to the new digest.
    #[serde(default)]
    pub label: String,
    /// The archive path the run was registered from, verbatim.
    pub path: String,
    /// Registration time, seconds since the Unix epoch (0 if the clock
    /// was unavailable).
    #[serde(default)]
    pub registered_unix: u64,
}

/// Formats a digest the way the store (and the cache's spill files)
/// write it: 32 lowercase hex digits.
pub fn digest_hex(digest: u128) -> String {
    format!("{digest:032x}")
}

/// Whether a reference is *shaped* like a digest (32 hex digits) — used
/// to distinguish "digest not in store" (404) from "treat as a path".
pub fn looks_like_digest(reference: &str) -> bool {
    reference.len() == 32 && reference.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Replaces `path` with `bytes` crash-safely: the bytes go to a fresh
/// temp file in the same directory, which is fsynced and then renamed
/// over `path`. A crash at any point leaves either the old file or the
/// complete new one, never a torn mix.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename itself durable (best effort: not every platform
    // can open a directory for syncing).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// The run store: an in-memory record list with an optional JSON file
/// behind it. Without a directory it still works for the daemon's
/// lifetime; with one, every mutation is persisted before returning.
pub struct RunStore {
    file: Option<PathBuf>,
    records: Mutex<Vec<RunRecord>>,
}

impl RunStore {
    /// Opens the store in `dir` (creating `dir/runs.json` on the first
    /// registration), loading any existing records. `None` keeps the
    /// store purely in memory. A store file that exists but cannot be
    /// read or parsed is an error naming the file, and is left untouched:
    /// starting empty would overwrite every registration on the next
    /// write.
    pub fn open(dir: Option<&Path>) -> std::io::Result<RunStore> {
        let file = dir.map(|d| d.join("runs.json"));
        let records = match &file {
            None => Vec::new(),
            Some(f) => match std::fs::read(f) {
                Ok(bytes) => serde_json::from_slice(&bytes).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("corrupt run store {}: {e}", f.display()),
                    )
                })?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("unreadable run store {}: {e}", f.display()),
                    ))
                }
            },
        };
        Ok(RunStore {
            file,
            records: Mutex::new(records),
        })
    }

    /// Registers (or re-registers) a run: upserts by digest, keeping
    /// registration order. A non-empty label is claimed exclusively —
    /// any other record holding it is relabelled to empty. Returns the
    /// stored record. Fails only when persisting to disk fails.
    pub fn register(
        &self,
        digest: u128,
        label: Option<&str>,
        path: &Path,
    ) -> Result<RunRecord, String> {
        let digest = digest_hex(digest);
        let label = label.unwrap_or("").to_string();
        let mut records = self.records.lock().unwrap();
        if !label.is_empty() {
            for r in records.iter_mut() {
                if r.label == label && r.digest != digest {
                    r.label = String::new();
                }
            }
        }
        let record = match records.iter_mut().find(|r| r.digest == digest) {
            Some(existing) => {
                if !label.is_empty() {
                    existing.label = label;
                }
                existing.path = path.display().to_string();
                existing.clone()
            }
            None => {
                let record = RunRecord {
                    digest,
                    label,
                    path: path.display().to_string(),
                    registered_unix: SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_secs())
                        .unwrap_or(0),
                };
                records.push(record.clone());
                record
            }
        };
        self.persist(&records)?;
        Ok(record)
    }

    fn persist(&self, records: &[RunRecord]) -> Result<(), String> {
        let Some(file) = &self.file else {
            return Ok(());
        };
        if let Some(dir) = file.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let json = serde_json::to_string_pretty(records)
            .map_err(|e| format!("run store serialisation failed: {e}"))?;
        write_atomic(file, json.as_bytes()).map_err(|e| format!("{}: {e}", file.display()))
    }

    /// All records, in registration order.
    pub fn list(&self) -> Vec<RunRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Number of registered runs.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// Whether the store has no registrations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a reference: exact label match first (labels are the
    /// human handle), then exact digest match.
    pub fn find(&self, reference: &str) -> Option<RunRecord> {
        let records = self.records.lock().unwrap();
        records
            .iter()
            .find(|r| !r.label.is_empty() && r.label == reference)
            .or_else(|| records.iter().find(|r| r.digest == reference))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfvar-server-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn register_list_find() {
        let store = RunStore::open(None).unwrap();
        assert!(store.is_empty());
        store
            .register(0xabc, Some("v1"), Path::new("/tmp/a.pvta"))
            .unwrap();
        store
            .register(0xdef, None, Path::new("/tmp/b.pvta"))
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.find("v1").unwrap().path, "/tmp/a.pvta");
        assert_eq!(store.find(&digest_hex(0xdef)).unwrap().path, "/tmp/b.pvta");
        assert!(store.find("v2").is_none());
        assert!(store.find(&digest_hex(0x123)).is_none());
    }

    #[test]
    fn register_upserts_by_digest_and_labels_stay_unique() {
        let store = RunStore::open(None).unwrap();
        store
            .register(1, Some("best"), Path::new("/tmp/a.pvta"))
            .unwrap();
        store
            .register(2, Some("best"), Path::new("/tmp/b.pvta"))
            .unwrap();
        // The label moved; the old record remains, unlabelled.
        assert_eq!(store.len(), 2);
        assert_eq!(store.find("best").unwrap().digest, digest_hex(2));
        assert_eq!(store.find(&digest_hex(1)).unwrap().label, "");
        // Re-registering the same digest updates in place.
        store
            .register(2, Some("renamed"), Path::new("/tmp/c.pvta"))
            .unwrap();
        assert_eq!(store.len(), 2);
        let r = store.find("renamed").unwrap();
        assert_eq!(r.digest, digest_hex(2));
        assert_eq!(r.path, "/tmp/c.pvta");
    }

    #[test]
    fn store_survives_reopen() {
        let dir = tmp_dir("store-reopen");
        {
            let store = RunStore::open(Some(&dir)).unwrap();
            store
                .register(0x77, Some("keep"), Path::new("/tmp/keep.pvta"))
                .unwrap();
        }
        let reopened = RunStore::open(Some(&dir)).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.find("keep").unwrap().path, "/tmp/keep.pvta");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["runs.json"], "no temp files remain");
    }

    #[test]
    fn torn_store_file_is_refused_and_left_intact() {
        let dir = tmp_dir("store-torn");
        {
            let store = RunStore::open(Some(&dir)).unwrap();
            store
                .register(0x77, Some("keep"), Path::new("/tmp/keep.pvta"))
                .unwrap();
        }
        let file = dir.join("runs.json");
        let whole = std::fs::read(&file).unwrap();
        let torn = &whole[..whole.len() / 2];
        std::fs::write(&file, torn).unwrap();
        let err = RunStore::open(Some(&dir))
            .err()
            .expect("a torn store must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("runs.json"), "{err}");
        assert_eq!(std::fs::read(&file).unwrap(), torn, "left byte-for-byte");
    }

    #[test]
    fn digest_shape_detection() {
        assert!(looks_like_digest(&digest_hex(0)));
        assert!(looks_like_digest(&digest_hex(u128::MAX)));
        assert!(!looks_like_digest("v1"));
        assert!(!looks_like_digest("/tmp/t.pvta"));
        assert!(!looks_like_digest("00112233445566778899aabbccddeeff0")); // 33
    }
}
