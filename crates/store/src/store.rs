//! The content-addressed store directory: crash-safe publishes, checked
//! loads, and the `ls`/`verify`/`gc` maintenance operations.

use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use lalr_chaos::{Fault, FaultInjector};

use crate::format::{self, ArtifactRecord};

/// Artifact file extension.
const EXT: &str = "lalr";

/// The largest file buffer a thread keeps between loads. A larger file
/// is still read, into a buffer that is freed afterwards.
const KEEP_FILE_BUF: usize = 1 << 20;

thread_local! {
    /// The calling thread's file buffer for [`Store::load`].
    static FILE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A directory of artifacts, one file per fingerprint
/// (`<fp as 16 hex digits>.lalr`).
///
/// Publishes are crash-safe: the record is written to a process-unique
/// temp file, fsynced, and atomically renamed over the final name — a
/// reader never observes a half-written artifact under the final name,
/// and concurrent publishes of one fingerprint are idempotent (both
/// writers produce complete files; the last rename wins). Loads verify
/// the header checksum before decoding, so torn or bit-rotted files
/// degrade to [`Loaded::Corrupt`] (and thence a recompile), never to
/// garbage tables.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    faults: FaultInjector,
    /// Per-process temp-name disambiguator for concurrent publishes.
    temp_seq: AtomicU64,
}

/// One load outcome.
#[derive(Debug)]
pub enum Loaded {
    /// Integrity-checked record whose key confirmed.
    Hit(Box<ArtifactRecord>),
    /// No file, or a valid file for a different key (fingerprint
    /// collision).
    Miss,
    /// A file exists but failed integrity or decode checks.
    Corrupt,
}

/// One `store ls` row.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// Fingerprint parsed from the file name.
    pub fingerprint: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Seconds since last modification (the LRU age `gc` uses).
    pub age: Duration,
    /// Full path.
    pub path: PathBuf,
}

/// `store verify` totals.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Files that passed checksum + decode.
    pub ok: usize,
    /// Files that failed, with the reason.
    pub corrupt: Vec<(PathBuf, String)>,
}

/// `store gc` totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcReport {
    /// Artifact files removed (older than the age limit).
    pub removed: usize,
    /// Artifact files kept.
    pub kept: usize,
    /// Stale temp files swept.
    pub temps: usize,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
}

impl Store {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        Store::with_faults(dir, FaultInjector::disabled())
    }

    /// [`Store::open`] with `store.write` / `store.read` failpoints
    /// armed.
    pub fn with_faults(dir: impl Into<PathBuf>, faults: FaultInjector) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            faults,
            temp_seq: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The final path for a fingerprint.
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.{EXT}"))
    }

    /// Publishes `record`, overwriting any previous artifact with the
    /// same fingerprint.
    ///
    /// The `store.write` failpoint models publish-path storage faults:
    /// `error` fails cleanly before any bytes land (a crash before the
    /// rename — the old artifact, if any, survives untouched);
    /// `truncate` and `partial` land a torn file under the final name;
    /// `garbage` lands a bit-flipped file. The torn/garbage outcomes
    /// are exactly what the load-path checksum must catch.
    pub fn publish(&self, record: &ArtifactRecord) -> io::Result<()> {
        let mut bytes = format::encode(record);
        match self.faults.at("store.write") {
            Some(Fault::Error) => {
                // Model a crash mid-publish: a stale temp file is left
                // behind (gc sweeps it) and the final name is untouched.
                let _ = self.write_temp(record.fingerprint, &bytes[..bytes.len() / 2]);
                return Err(lalr_chaos::injected_io_error("store.write"));
            }
            Some(Fault::Truncate) => bytes.truncate(bytes.len() / 2),
            Some(Fault::PartialWrite) => {
                let keep = bytes.len().saturating_sub(8);
                bytes.truncate(keep);
            }
            Some(Fault::Garbage) => {
                // Flip bits in the middle of the payload.
                let mid = bytes.len() / 2;
                for b in bytes.iter_mut().skip(mid).take(16) {
                    *b ^= 0xA5;
                }
            }
            Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        let temp = self.write_temp(record.fingerprint, &bytes)?;
        let final_path = self.path_for(record.fingerprint);
        fs::rename(&temp, &final_path)?;
        // Best effort: persist the directory entry too.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn write_temp(&self, fingerprint: u64, bytes: &[u8]) -> io::Result<PathBuf> {
        let seq = self.temp_seq.fetch_add(1, Ordering::Relaxed);
        let temp = self.dir.join(format!(
            ".{fingerprint:016x}.{}.{seq}.tmp",
            std::process::id()
        ));
        let mut f = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&temp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(temp)
    }

    /// Loads the artifact for `fingerprint`.
    ///
    /// With `expected_key` the stored key must match exactly
    /// (hash-then-confirm, like the in-memory cache); a valid file for
    /// a different key is a [`Loaded::Miss`]. The `store.read`
    /// failpoint corrupts the bytes read before they are checked, so an
    /// armed read behaves exactly like on-disk corruption; its `panic`
    /// fault panics inside the load instead.
    ///
    /// The file is read, not memory-mapped. A record is a few hundred KB
    /// at most, so the copy out of the page cache costs microseconds, while
    /// unmapping a file in a multi-threaded daemon makes every other CPU
    /// running it flush its TLB and waits for them all — an
    /// inter-processor round trip per load whose length, on a shared
    /// virtual machine, depends on how busy the host is. The bytes go
    /// into a buffer the calling thread keeps between loads, so a load
    /// does not allocate and free a record-sized buffer either: that
    /// would make its cost depend on whether the allocator happens to
    /// return the freed memory to the kernel.
    pub fn load(&self, fingerprint: u64, expected_key: Option<&str>) -> Loaded {
        FILE_BUF.with_borrow_mut(|buf| {
            let loaded = self.load_into(buf, fingerprint, expected_key);
            if buf.capacity() > KEEP_FILE_BUF {
                *buf = Vec::new();
            }
            loaded
        })
    }

    fn load_into(
        &self,
        bytes: &mut Vec<u8>,
        fingerprint: u64,
        expected_key: Option<&str>,
    ) -> Loaded {
        bytes.clear();
        let read = File::open(self.path_for(fingerprint)).and_then(|mut f| f.read_to_end(bytes));
        match read {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Loaded::Miss,
            Err(_) => return Loaded::Corrupt,
        }
        match self.faults.at("store.read") {
            Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::Panic) => panic!("injected fault at store.read"),
            // Any other armed fault models read-path corruption: flip a
            // byte of the header's fingerprint field, which the checksum
            // covers.
            Some(_) if bytes.len() > 24 => bytes[24] ^= 0xFF,
            _ => {}
        }
        let record = match format::decode(bytes) {
            Ok(r) => r,
            Err(_) => return Loaded::Corrupt,
        };
        if record.fingerprint != fingerprint {
            return Loaded::Corrupt;
        }
        if expected_key.is_some_and(|k| k != record.key) {
            return Loaded::Miss;
        }
        Loaded::Hit(Box::new(record))
    }

    /// Lists artifacts, sorted by fingerprint.
    pub fn ls(&self) -> io::Result<Vec<StoreEntry>> {
        let mut out = Vec::new();
        let now = SystemTime::now();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(fp) = parse_artifact_name(&entry.file_name().to_string_lossy()) else {
                continue;
            };
            let meta = entry.metadata()?;
            let age = meta
                .modified()
                .ok()
                .and_then(|m| now.duration_since(m).ok())
                .unwrap_or_default();
            out.push(StoreEntry {
                fingerprint: fp,
                bytes: meta.len(),
                age,
                path: entry.path(),
            });
        }
        out.sort_by_key(|e| e.fingerprint);
        Ok(out)
    }

    /// Integrity-checks every artifact file.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for entry in self.ls()? {
            let result = fs::read(&entry.path)
                .map_err(|e| e.to_string())
                .and_then(|b| format::decode(&b).map_err(|e| e.to_string()));
            match result {
                Ok(record) if record.fingerprint == entry.fingerprint => report.ok += 1,
                Ok(_) => report
                    .corrupt
                    .push((entry.path, "fingerprint/file-name mismatch".to_string())),
                Err(e) => report.corrupt.push((entry.path, e)),
            }
        }
        Ok(report)
    }

    /// Removes artifacts whose last use (mtime — refreshed on publish)
    /// is older than `max_age`, plus any stale temp files.
    pub fn gc(&self, max_age: Duration) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().to_string();
            if name.ends_with(".tmp") && name.starts_with('.') {
                let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                if fs::remove_file(entry.path()).is_ok() {
                    report.temps += 1;
                    report.reclaimed_bytes += bytes;
                }
                continue;
            }
            if parse_artifact_name(&name).is_none() {
                continue;
            }
            let meta = entry.metadata()?;
            let age = meta
                .modified()
                .ok()
                .and_then(|m| SystemTime::now().duration_since(m).ok())
                .unwrap_or_default();
            if age > max_age {
                if fs::remove_file(entry.path()).is_ok() {
                    report.removed += 1;
                    report.reclaimed_bytes += meta.len();
                }
            } else {
                report.kept += 1;
            }
        }
        Ok(report)
    }
}

/// Parses `<16 hex>.lalr` file names; anything else is ignored by
/// maintenance ops (dotfiles, temps, strangers).
fn parse_artifact_name(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(&format!(".{EXT}"))?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lalr_chaos::{FaultPlan, Trigger};

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lalr-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: &str, fp: u64) -> ArtifactRecord {
        crate::format::tests::sample_record("e : e \"+\" t | t ; t : \"x\" ;", key, fp)
    }

    #[test]
    fn publish_then_load_round_trips() {
        let dir = temp_store_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        let rec = record("%key native\ng1", 0xABCD);
        store.publish(&rec).unwrap();
        match store.load(0xABCD, Some("%key native\ng1")) {
            Loaded::Hit(back) => assert_eq!(*back, rec),
            other => panic!("expected hit, got {other:?}"),
        }
        // Wrong key (collision) is a miss, not a corrupt.
        assert!(matches!(
            store.load(0xABCD, Some("%key native\nother")),
            Loaded::Miss
        ));
        // Unknown fingerprint is a miss.
        assert!(matches!(store.load(0x1111, None), Loaded::Miss));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_publish_is_detected_and_old_artifact_survives_clean_failure() {
        let dir = temp_store_dir("torn");
        // First publish clean, second with an injected clean failure,
        // third with a torn write.
        let faults = FaultPlan::new(7)
            .rule("store.write", Fault::Error, Trigger::OnHits(vec![2]))
            .rule("store.write", Fault::Truncate, Trigger::OnHits(vec![3]))
            .build();
        let store = Store::with_faults(&dir, faults.clone()).unwrap();
        let rec = record("k", 0x42);
        store.publish(&rec).unwrap();

        // Clean failure: the old artifact still loads.
        assert!(store.publish(&rec).is_err());
        assert!(matches!(store.load(0x42, Some("k")), Loaded::Hit(_)));

        // Torn write lands under the final name: detected, never garbage.
        store.publish(&rec).unwrap();
        assert!(matches!(store.load(0x42, Some("k")), Loaded::Corrupt));
        assert_eq!(faults.injected_at("store.write"), 2);

        // Re-publish heals.
        store.publish(&rec).unwrap();
        assert!(matches!(store.load(0x42, Some("k")), Loaded::Hit(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_failpoint_behaves_like_disk_corruption() {
        let dir = temp_store_dir("readfault");
        let faults = FaultPlan::new(3)
            .rule("store.read", Fault::Garbage, Trigger::OnHits(vec![1]))
            .build();
        let store = Store::with_faults(&dir, faults).unwrap();
        let rec = record("k", 9);
        store.publish(&rec).unwrap();
        assert!(matches!(store.load(9, Some("k")), Loaded::Corrupt));
        // The file itself is fine: the next read succeeds.
        assert!(matches!(store.load(9, Some("k")), Loaded::Hit(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_load_buffer_is_kept_unless_a_file_outgrows_it() {
        let dir = temp_store_dir("loadbuf");
        let store = Store::open(&dir).unwrap();
        let rec = record("k", 5);
        store.publish(&rec).unwrap();
        assert!(matches!(store.load(5, Some("k")), Loaded::Hit(_)));
        let kept = FILE_BUF.with_borrow(Vec::capacity);
        assert!(kept > 0);
        // Loading again reuses the buffer, and still decodes the record.
        match store.load(5, Some("k")) {
            Loaded::Hit(back) => assert_eq!(*back, rec),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(FILE_BUF.with_borrow(Vec::capacity), kept);
        // A file past the cap reads as corrupt and its buffer is freed.
        fs::write(store.path_for(6), vec![0u8; KEEP_FILE_BUF + 1]).unwrap();
        assert!(matches!(store.load(6, None), Loaded::Corrupt));
        assert_eq!(FILE_BUF.with_borrow(Vec::capacity), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ls_verify_and_gc_cover_the_lifecycle() {
        let dir = temp_store_dir("lifecycle");
        let store = Store::open(&dir).unwrap();
        store.publish(&record("a", 1)).unwrap();
        store.publish(&record("b", 2)).unwrap();
        // A garbage file that looks like an artifact.
        fs::write(store.path_for(3), b"not an artifact").unwrap();
        // A stale temp from a crashed publish.
        fs::write(dir.join(".0000000000000001.999.0.tmp"), b"partial").unwrap();

        let ls = store.ls().unwrap();
        assert_eq!(
            ls.iter().map(|e| e.fingerprint).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );

        let verify = store.verify().unwrap();
        assert_eq!(verify.ok, 2);
        assert_eq!(verify.corrupt.len(), 1);

        // Nothing is old enough to collect, but temps always go.
        let gc = store.gc(Duration::from_secs(3600)).unwrap();
        assert_eq!((gc.removed, gc.temps), (0, 1));
        assert_eq!(gc.kept, 3);

        // Age limit zero: everything artifact-shaped goes.
        std::thread::sleep(Duration::from_millis(20));
        let gc = store.gc(Duration::ZERO).unwrap();
        assert_eq!(gc.removed, 3);
        assert!(store.ls().unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_publishes_of_one_fingerprint_are_idempotent() {
        let dir = temp_store_dir("concurrent");
        let store = std::sync::Arc::new(Store::open(&dir).unwrap());
        let rec = std::sync::Arc::new(record("k", 0x77));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let store = std::sync::Arc::clone(&store);
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || store.publish(&rec).unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Exactly one artifact file, fully valid.
        let ls = store.ls().unwrap();
        assert_eq!(ls.len(), 1);
        assert!(matches!(store.load(0x77, Some("k")), Loaded::Hit(_)));
        assert_eq!(store.verify().unwrap().ok, 1);
        // No temp leftovers.
        assert_eq!(store.gc(Duration::from_secs(3600)).unwrap().temps, 0);
        fs::remove_dir_all(&dir).ok();
    }
}
