//! The bundle store: **hot / durable** model residency.
//!
//! A registry serving many models cannot keep every decoded predictor on
//! the heap. [`BundleStore`] holds each named model either hot or durable
//! and moves it between the two on demand:
//!
//! ```text
//!            fetch (read + decode the file)      publish / load
//!   durable ─────────────────────────────► hot ◄──────────────── operator
//!      ▲                                    │
//!      └────────────────────────────────────┘
//!            LRU eviction over capacity (drop the decoded Arc)
//! ```
//!
//! - **durable** — an on-disk directory of `NFB1` files plus a small
//!   `index.nfbi` mapping names to filenames. Every write goes through a
//!   temp file followed by an atomic rename, so a crash mid-publish leaves
//!   either the old bundle or the new one, never a torn file. A file that
//!   fails to parse is moved to a `quarantine/` subdirectory and its entry
//!   dropped — corruption surfaces as a clean [`ServeError::Bundle`] chain,
//!   never a panic, and never a retry loop on the same bad bytes.
//! - **hot** — a fully decoded [`Arc<ModelBundle>`] ready to predict. The
//!   hot tier has a configurable capacity; exceeding it drops the decoded
//!   bundle of the least-recently-fetched *disk-backed* entry, leaving it
//!   durable. Because hot bundles are handed out as `Arc`s, eviction is
//!   **pin-safe**: a predict already holding the `Arc` keeps the decoded
//!   model alive until it finishes, and the later reload decodes the same
//!   bytes to a bit-identical model, so eviction can never change a result.
//!
//! Entries without disk backing (an in-memory store, or a memory-only
//! publish) are never evicted — dropping the only copy would lose the
//! model, so the capacity bound applies to what can be faulted back in.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nasflat_tensor::{ByteReader, ByteWriter};

use crate::bundle::{BundleError, ModelBundle};
use crate::error::ServeError;
use nasflat_core::ModelIoError;

/// Magic prefix of the store index ("NasFlat Bundle Index v1").
const INDEX_MAGIC: &[u8; 4] = b"NFBI";

/// Index version written by this build.
const INDEX_VERSION: u32 = 1;

/// Index filename inside a store directory.
const INDEX_FILE: &str = "index.nfbi";

/// Subdirectory corrupt bundle files are moved into.
const QUARANTINE_DIR: &str = "quarantine";

struct Entry {
    /// Process-unique version; bumped only by publish, never by tier moves,
    /// so cached results stay valid across evict/reload cycles.
    version: u64,
    /// Backing file, when the entry is durable.
    file: Option<PathBuf>,
    /// The decoded bundle while the entry is hot; `None` while it is only
    /// durable.
    hot: Option<Arc<ModelBundle>>,
    /// Recency stamp of the last fetch (hot entries only participate in
    /// LRU selection).
    touch: u64,
}

struct StoreState {
    entries: HashMap<String, Entry>,
    tick: u64,
    next_version: u64,
}

impl StoreState {
    fn next_touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn next_version(&mut self) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    fn hot_count(&self) -> usize {
        self.entries.values().filter(|e| e.hot.is_some()).count()
    }
}

/// Occupancy and movement counters of a [`BundleStore`], exported as the
/// `nasflat_store_*` families of the ingress `METRICS` exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Entries currently holding a decoded bundle.
    pub hot: usize,
    /// Entries with an on-disk backing file (hot or not).
    pub durable: usize,
    /// Hot-tier capacity (0 = unbounded).
    pub hot_capacity: usize,
    /// Hot→durable evictions forced by the capacity bound.
    pub evictions: u64,
    /// Full bundle decodes served from disk (durable → hot).
    pub cold_loads: u64,
    /// Bundle files moved to quarantine after failing to parse.
    pub quarantined: u64,
}

/// The result of publishing a bundle into a [`BundleStore`].
#[derive(Debug, Clone)]
pub struct StoreUpdate {
    /// Version assigned to the newly published bundle.
    pub version: u64,
    /// Version the publish replaced, when the name already existed.
    pub replaced: Option<u64>,
    /// The now-hot bundle.
    pub bundle: Arc<ModelBundle>,
}

/// A hot/durable home for named [`ModelBundle`]s.
///
/// All methods take `&self`: the store is internally synchronized, so a
/// registry can promote and evict behind a shared read lock. See the
/// [crate docs](crate) for the tier contracts.
pub struct BundleStore {
    dir: Option<PathBuf>,
    hot_capacity: usize,
    state: Mutex<StoreState>,
    evictions: AtomicU64,
    cold_loads: AtomicU64,
    quarantined: AtomicU64,
}

impl std::fmt::Debug for BundleStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BundleStore")
            .field("dir", &self.dir)
            .field("hot_capacity", &self.hot_capacity)
            .finish_non_exhaustive()
    }
}

impl BundleStore {
    /// A store without durable backing: every published bundle lives in the
    /// hot tier for the life of the process. Its hot capacity is 0
    /// (unbounded): demoting an entry with no backing file would lose the
    /// model, so nothing here can be evicted.
    pub fn in_memory() -> Self {
        BundleStore {
            dir: None,
            hot_capacity: 0,
            state: Mutex::new(StoreState {
                entries: HashMap::new(),
                tick: 0,
                next_version: 1,
            }),
            evictions: AtomicU64::new(0),
            cold_loads: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Opens (creating if necessary) a durable store rooted at `dir`.
    ///
    /// Existing bundles listed in the directory's index register in the
    /// **durable** tier — nothing is parsed or decoded until first use.
    /// Index entries whose backing file has vanished are dropped.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the directory cannot be created or the index
    /// cannot be read; [`ServeError::Bundle`] when the index file itself is
    /// malformed.
    pub fn open(dir: impl AsRef<Path>, hot_capacity: usize) -> Result<Self, ServeError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut entries = HashMap::new();
        let mut next_version = 1;
        for (name, filename) in read_index(&dir)? {
            let path = dir.join(&filename);
            if !path.is_file() {
                continue; // stale index row; rewritten on next mutation
            }
            entries.insert(
                name,
                Entry {
                    version: next_version,
                    file: Some(path),
                    hot: None,
                    touch: 0,
                },
            );
            next_version += 1;
        }
        Ok(BundleStore {
            dir: Some(dir),
            hot_capacity,
            state: Mutex::new(StoreState {
                entries,
                tick: 0,
                next_version,
            }),
            evictions: AtomicU64::new(0),
            cold_loads: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The durable directory, when the store has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The hot-tier capacity (0 = unbounded).
    pub fn hot_capacity(&self) -> usize {
        self.hot_capacity
    }

    /// Registered model names, unordered.
    pub fn names(&self) -> Vec<String> {
        self.state.lock().unwrap().entries.keys().cloned().collect()
    }

    /// Number of registered models across all tiers.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a model of this name is registered (in any tier).
    pub fn contains(&self, name: &str) -> bool {
        self.state.lock().unwrap().entries.contains_key(name)
    }

    /// Tier occupancy and movement counters.
    pub fn stats(&self) -> TierStats {
        let state = self.state.lock().unwrap();
        let durable = state.entries.values().filter(|e| e.file.is_some()).count();
        TierStats {
            hot: state.hot_count(),
            durable,
            hot_capacity: self.hot_capacity,
            evictions: self.evictions.load(Ordering::Relaxed),
            cold_loads: self.cold_loads.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Publishes a bundle under `name`, replacing any previous version.
    ///
    /// On a durable store the bundle is first written to disk through a
    /// temp-file + atomic-rename sequence and the index updated, then the
    /// decoded bundle enters the hot tier (publish implies imminent use).
    /// Exceeding the hot capacity evicts the least-recently-fetched
    /// disk-backed entry.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the write-through fails; the in-memory state
    /// is left unchanged in that case.
    pub fn publish(&self, name: &str, bundle: ModelBundle) -> Result<StoreUpdate, ServeError> {
        let mut state = self.state.lock().unwrap();
        let file = match &self.dir {
            None => None,
            Some(dir) => {
                let filename = self.choose_filename(&state, name);
                let path = dir.join(&filename);
                write_atomic(dir, &path, &bundle.to_bytes())?;
                Some(path)
            }
        };
        let version = state.next_version();
        let touch = state.next_touch();
        let arc = Arc::new(bundle);
        let replaced = state
            .entries
            .insert(
                name.to_string(),
                Entry {
                    version,
                    file,
                    hot: Some(Arc::clone(&arc)),
                    touch,
                },
            )
            .map(|old| old.version);
        if let Some(dir) = &self.dir {
            write_index(dir, &state)?;
        }
        self.evict_excess(&mut state);
        Ok(StoreUpdate {
            version,
            replaced,
            bundle: arc,
        })
    }

    /// Fetches the decoded bundle for `name`. A durable entry is read and
    /// decoded in one [`ModelBundle::load_path`] and becomes hot. The
    /// returned `Arc` pins the decoded model for as long as the caller
    /// holds it, independent of any later eviction.
    ///
    /// The read and decode run with the store unlocked, so lookups of
    /// other models (hot hits included) never wait on a cold load. If the
    /// entry is removed or republished meanwhile, the fetch starts over; if
    /// another fetch made it hot first, that bundle is returned and this
    /// decode is dropped, so concurrent cold fetches of one entry all get
    /// one `Arc` and count one cold load.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] for unregistered names;
    /// [`ServeError::Bundle`] when the backing file is corrupt (the file is
    /// quarantined and the entry dropped); [`ServeError::Io`] on filesystem
    /// failure (the entry is kept — the fault may be transient).
    pub fn fetch(&self, name: &str) -> Result<(u64, Arc<ModelBundle>), ServeError> {
        loop {
            let (version, path) = {
                let mut state = self.state.lock().unwrap();
                let touch = state.next_touch();
                let entry = state
                    .entries
                    .get_mut(name)
                    .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
                if let Some(bundle) = &entry.hot {
                    entry.touch = touch;
                    return Ok((entry.version, Arc::clone(bundle)));
                }
                let path = entry
                    .file
                    .clone()
                    .expect("entries that are not hot always have a backing file");
                (entry.version, path)
            };
            let loaded = ModelBundle::load_path(&path);
            let mut state = self.state.lock().unwrap();
            let touch = state.next_touch();
            match state.entries.get_mut(name) {
                Some(entry) if entry.version == version => {
                    if let Some(bundle) = &entry.hot {
                        // Another fetch made it hot first: share its decode.
                        entry.touch = touch;
                        return Ok((version, Arc::clone(bundle)));
                    }
                }
                _ => continue, // removed or republished while decoding
            }
            let bundle = match loaded {
                Ok(bundle) => Arc::new(bundle),
                Err(e) => return Err(self.reject_file(&mut state, name, e)),
            };
            self.cold_loads.fetch_add(1, Ordering::Relaxed);
            let entry = state.entries.get_mut(name).expect("present");
            entry.hot = Some(Arc::clone(&bundle));
            entry.touch = touch;
            self.evict_excess(&mut state);
            return Ok((version, bundle));
        }
    }

    /// The current version of `name`, when registered.
    pub fn version_of(&self, name: &str) -> Option<u64> {
        self.state
            .lock()
            .unwrap()
            .entries
            .get(name)
            .map(|e| e.version)
    }

    /// Removes `name` from the store, deleting its backing file and index
    /// row. Returns the removed version, or `None` if the name was not
    /// registered. In-flight predicts holding the bundle's `Arc` are
    /// unaffected.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the file or index cannot be updated; the
    /// entry is removed from memory regardless.
    pub fn remove(&self, name: &str) -> Result<Option<u64>, ServeError> {
        let mut state = self.state.lock().unwrap();
        let Some(entry) = state.entries.remove(name) else {
            return Ok(None);
        };
        if let Some(path) = &entry.file {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        if let Some(dir) = &self.dir {
            write_index(dir, &state)?;
        }
        Ok(Some(entry.version))
    }

    /// Evicts hot entries (LRU-first) until the hot tier fits its
    /// capacity. Only disk-backed entries are candidates: eviction drops the
    /// decoded bundle and leaves the entry durable, so it never touches the
    /// disk.
    fn evict_excess(&self, state: &mut StoreState) {
        if self.hot_capacity == 0 {
            return;
        }
        while state.hot_count() > self.hot_capacity {
            let victim = state
                .entries
                .iter()
                .filter(|(_, e)| e.hot.is_some() && e.file.is_some())
                .min_by_key(|(_, e)| e.touch)
                .map(|(name, _)| name.clone());
            let Some(name) = victim else {
                break; // nothing evictable (memory-only residents)
            };
            state.entries.get_mut(&name).expect("victim present").hot = None;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Handles a file that failed to parse: grammar-level failures move the
    /// file to quarantine and drop the entry (the bytes will never parse);
    /// I/O failures keep both (the fault may be transient). Returns the
    /// error to propagate.
    fn reject_file(&self, state: &mut StoreState, name: &str, err: ServeError) -> ServeError {
        if !matches!(err, ServeError::Bundle(_)) {
            return err;
        }
        let Some(entry) = state.entries.remove(name) else {
            return err;
        };
        if let (Some(dir), Some(path)) = (&self.dir, &entry.file) {
            let _ = quarantine_file(dir, path);
            let _ = write_index(dir, state);
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        err
    }

    /// A filename for `name` that no other entry uses: a sanitized prefix
    /// plus a hash suffix, so distinct names never fight over one file and
    /// republishes overwrite in place.
    fn choose_filename(&self, state: &StoreState, name: &str) -> String {
        if let Some(existing) = state.entries.get(name).and_then(|e| e.file.as_ref()) {
            if let Some(f) = existing.file_name().and_then(|f| f.to_str()) {
                return f.to_string();
            }
        }
        let sanitized: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .take(64)
            .collect();
        let taken: std::collections::HashSet<&str> = state
            .entries
            .values()
            .filter_map(|e| e.file.as_ref())
            .filter_map(|p| p.file_name().and_then(|f| f.to_str()))
            .collect();
        let base = format!("{sanitized}-{:08x}", fnv1a64(name.as_bytes()) as u32);
        let mut candidate = format!("{base}.nfb1");
        let mut bump = 1u32;
        while taken.contains(candidate.as_str()) {
            candidate = format!("{base}-{bump}.nfb1");
            bump += 1;
        }
        candidate
    }
}

/// 64-bit FNV-1a over `bytes` — a tiny stable hash for filename suffixes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `bytes` to `path` via a temp file in `dir` plus an atomic rename:
/// a crash leaves either the previous file or the complete new one.
fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    let tmp = dir.join(format!(
        ".tmp-{}",
        path.file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("bundle.nfb1")
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        ServeError::Io(e)
    })
}

/// Moves a corrupt bundle file into the quarantine subdirectory, bumping a
/// numeric suffix if a previous quarantine already claimed the name.
fn quarantine_file(dir: &Path, path: &Path) -> std::io::Result<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    let filename = path
        .file_name()
        .and_then(|f| f.to_str())
        .unwrap_or("bundle.nfb1")
        .to_string();
    let mut target = qdir.join(&filename);
    let mut bump = 1u32;
    while target.exists() {
        target = qdir.join(format!("{filename}.{bump}"));
        bump += 1;
    }
    std::fs::rename(path, target)
}

/// Reads the store index: `(name, filename)` rows in stored order. A
/// missing index is an empty store.
fn read_index(dir: &Path) -> Result<Vec<(String, String)>, ServeError> {
    let path = dir.join(INDEX_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |detail: String| {
        ServeError::Bundle(BundleError::Model(ModelIoError::Corrupt(format!(
            "store index: {detail}"
        ))))
    };
    let mut r = ByteReader::new(&bytes);
    if r.get_raw(4)
        .map_err(|_| corrupt("truncated magic".into()))?
        != INDEX_MAGIC
    {
        return Err(corrupt("bad magic".into()));
    }
    let version = r.get_u32().map_err(|e| corrupt(e.to_string()))?;
    if version != INDEX_VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let count = r.get_len().map_err(|e| corrupt(e.to_string()))?;
    if count > r.remaining() / 8 {
        return Err(corrupt("declared row count exceeds file size".into()));
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.get_str().map_err(|e| corrupt(e.to_string()))?.to_string();
        let file = r.get_str().map_err(|e| corrupt(e.to_string()))?.to_string();
        rows.push((name, file));
    }
    if !r.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }
    Ok(rows)
}

/// Atomically rewrites the index from the disk-backed entries, sorted by
/// name so the file is deterministic for a given store population.
fn write_index(dir: &Path, state: &StoreState) -> Result<(), ServeError> {
    let mut rows: Vec<(&String, &PathBuf)> = state
        .entries
        .iter()
        .filter_map(|(name, e)| e.file.as_ref().map(|f| (name, f)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    let mut w = ByteWriter::new();
    w.put_raw(INDEX_MAGIC);
    w.put_u32(INDEX_VERSION);
    w.put_len(rows.len());
    for (name, file) in rows {
        w.put_str(name);
        w.put_str(file.file_name().and_then(|f| f.to_str()).unwrap_or(""));
    }
    write_atomic(dir, &dir.join(INDEX_FILE), &w.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_core::{LatencyPredictor, PredictorConfig};
    use nasflat_space::{Arch, Space};

    fn bundle(seed: u64) -> ModelBundle {
        let mut cfg = PredictorConfig::quick().with_seed(seed);
        cfg.op_dim = 8;
        cfg.hw_dim = 8;
        cfg.node_dim = 8;
        cfg.ophw_gnn_dims = vec![12];
        cfg.ophw_mlp_dims = vec![12];
        cfg.gnn_dims = vec![12];
        cfg.head_dims = vec![16];
        let p = LatencyPredictor::new(Space::Nb201, vec!["a".into(), "b".into()], 0, cfg);
        ModelBundle::single(p).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nasflat_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_publishes_and_fetches() {
        let store = BundleStore::in_memory();
        let up = store.publish("m1", bundle(1)).unwrap();
        assert_eq!(up.version, 1);
        assert!(up.replaced.is_none());
        let up2 = store.publish("m2", bundle(2)).unwrap();
        assert_eq!(up2.version, 2);
        // Nothing is disk-backed: the hot tier is unbounded.
        let s = store.stats();
        assert_eq!(
            (s.hot, s.durable, s.evictions, s.hot_capacity),
            (2, 0, 0, 0)
        );
        let (v, b) = store.fetch("m1").unwrap();
        assert_eq!(v, 1);
        let arch = Arch::nb201_from_index(7);
        assert_eq!(
            b.predict_one(&arch, 0).to_bits(),
            up.bundle.predict_one(&arch, 0).to_bits()
        );
        assert!(matches!(
            store.fetch("absent"),
            Err(ServeError::UnknownModel(_))
        ));
    }

    #[test]
    fn durable_store_round_trips_through_reopen() {
        let dir = tmp_dir("reopen");
        let arch = Arch::nb201_from_index(77);
        let expect: Vec<u32> = {
            let store = BundleStore::open(&dir, 0).unwrap();
            (0..3u64)
                .map(|i| {
                    let up = store.publish(&format!("m{i}"), bundle(i)).unwrap();
                    up.bundle.predict_one(&arch, 0).to_bits()
                })
                .collect()
        };
        // A fresh store over the same dir sees every model, durable-only.
        let store = BundleStore::open(&dir, 0).unwrap();
        assert_eq!(store.len(), 3);
        let s = store.stats();
        assert_eq!((s.hot, s.durable), (0, 3));
        for (i, &bits) in expect.iter().enumerate() {
            let (_, b) = store.fetch(&format!("m{i}")).unwrap();
            assert_eq!(b.predict_one(&arch, 0).to_bits(), bits, "model {i}");
        }
        assert_eq!(store.stats().cold_loads, 3);
        // No temp files remain after atomic publishes.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_fetch_decodes_straight_to_hot() {
        let dir = tmp_dir("durable_fetch");
        {
            let store = BundleStore::open(&dir, 0).unwrap();
            store.publish("m", bundle(5)).unwrap();
        }
        let store = BundleStore::open(&dir, 0).unwrap();
        let s = store.stats();
        assert_eq!((s.hot, s.durable, s.cold_loads), (0, 1, 0));
        // One fetch reads and decodes the file; the next is served hot.
        store.fetch("m").unwrap();
        store.fetch("m").unwrap();
        let s = store.stats();
        assert_eq!((s.hot, s.durable, s.cold_loads), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_cold_fetches_share_one_decode() {
        let dir = tmp_dir("concurrent_fetch");
        {
            let store = BundleStore::open(&dir, 0).unwrap();
            store.publish("m", bundle(6)).unwrap();
        }
        let store = BundleStore::open(&dir, 0).unwrap();
        let start = std::sync::Barrier::new(8);
        let fetched: Vec<Arc<ModelBundle>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        store.fetch("m").unwrap().1
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(fetched.iter().all(|b| Arc::ptr_eq(b, &fetched[0])));
        let s = store.stats();
        assert_eq!((s.hot, s.cold_loads), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_demotes_lru_and_reload_is_bit_identical() {
        let dir = tmp_dir("evict");
        let store = BundleStore::open(&dir, 2).unwrap();
        let arch = Arch::nb201_from_index(123);
        let bits: Vec<u32> = (0..3u64)
            .map(|i| {
                store
                    .publish(&format!("m{i}"), bundle(10 + i))
                    .unwrap()
                    .bundle
                    .predict_one(&arch, 1)
                    .to_bits()
            })
            .collect();
        // Publishing three into capacity 2 evicted the LRU entry (m0): its
        // decoded bundle is gone and it stays durable.
        let s = store.stats();
        assert_eq!((s.hot, s.durable, s.evictions), (2, 3, 1));
        assert!(store.state.lock().unwrap().entries["m0"].hot.is_none());
        // Pin-during-predict: hold m1's Arc, force its eviction, and the
        // pinned instance still predicts.
        let (_, pinned) = store.fetch("m1").unwrap();
        let (_, b0) = store.fetch("m0").unwrap(); // cold reload, evicts m2
        assert_eq!(b0.predict_one(&arch, 1).to_bits(), bits[0]);
        let (_, b2) = store.fetch("m2").unwrap(); // evicts m1 (LRU after the m1 touch... m1 touched most recently before m0/m2)
        assert_eq!(b2.predict_one(&arch, 1).to_bits(), bits[2]);
        assert_eq!(pinned.predict_one(&arch, 1).to_bits(), bits[1]);
        // Reload of the evicted m1 is bit-identical.
        let (_, b1) = store.fetch("m1").unwrap();
        assert_eq!(b1.predict_one(&arch, 1).to_bits(), bits[1]);
        assert!(store.stats().evictions >= 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_quarantined_not_panicked() {
        let dir = tmp_dir("quarantine");
        let filename;
        {
            let store = BundleStore::open(&dir, 0).unwrap();
            store.publish("bad", bundle(9)).unwrap();
            let state = store.state.lock().unwrap();
            filename = state.entries["bad"]
                .file
                .clone()
                .unwrap()
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned();
        }
        // Truncate the file on disk.
        let path = dir.join(&filename);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let store = BundleStore::open(&dir, 0).unwrap();
        let err = store.fetch("bad").unwrap_err();
        assert!(matches!(err, ServeError::Bundle(_)), "{err}");
        // The file moved to quarantine and the entry is gone.
        assert!(!path.exists());
        assert!(dir.join(QUARANTINE_DIR).join(&filename).exists());
        assert_eq!(store.stats().quarantined, 1);
        assert!(matches!(
            store.fetch("bad"),
            Err(ServeError::UnknownModel(_))
        ));
        // A reopened store no longer lists it either.
        let store = BundleStore::open(&dir, 0).unwrap();
        assert!(!store.contains("bad"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_file_and_index_row() {
        let dir = tmp_dir("remove");
        let store = BundleStore::open(&dir, 0).unwrap();
        store.publish("gone", bundle(3)).unwrap();
        assert!(store.remove("gone").unwrap().is_some());
        assert!(store.remove("gone").unwrap().is_none());
        let store = BundleStore::open(&dir, 0).unwrap();
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_swap_reuses_the_backing_file() {
        let dir = tmp_dir("swap");
        let store = BundleStore::open(&dir, 0).unwrap();
        let up1 = store.publish("m", bundle(1)).unwrap();
        let up2 = store.publish("m", bundle(2)).unwrap();
        assert_eq!(up2.replaced, Some(up1.version));
        assert!(up2.version > up1.version);
        // One bundle file + the index: the swap overwrote in place.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".nfb1"))
            .collect();
        assert_eq!(files.len(), 1, "{files:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
