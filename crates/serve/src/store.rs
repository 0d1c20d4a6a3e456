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
//! - **durable** — an on-disk directory holding one `NFB1` file per model,
//!   named `enc(name).nfb1`. `enc` percent-encodes every byte outside
//!   `[A-Za-z0-9_-]` as `%XX`, so the mapping is reversible, two names
//!   never share a file, and the directory listing *is* the index. A
//!   publish writes a temp file and renames it into place, so a crash
//!   mid-publish leaves either the old bundle or the new one, never a torn
//!   file. A file that fails to parse is moved to a `quarantine/`
//!   subdirectory and its entry dropped — corruption surfaces as a clean
//!   [`ServeError::Bundle`] chain, never a panic, and never a retry loop on
//!   the same bad bytes.
//! - **hot** — a fully decoded [`Arc<ModelBundle>`] ready to predict. The
//!   hot tier has a configurable capacity; exceeding it drops the decoded
//!   bundle of the least-recently-fetched entry, leaving it durable.
//!   Because hot bundles are handed out as `Arc`s, eviction is
//!   **pin-safe**: a predict already holding the `Arc` keeps the decoded
//!   model alive until it finishes, and the later reload decodes the same
//!   bytes to a bit-identical model, so eviction can never change a result.
//!
//! An in-memory store has no directory: its entries are only hot and are
//! never evicted — dropping the only copy would lose the model.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::bundle::{BundleError, ModelBundle};
use crate::error::ServeError;
use nasflat_core::ModelIoError;

/// Suffix of every bundle file in a store directory.
const BUNDLE_SUFFIX: &str = ".nfb1";

/// Extension of the name-to-file index that older store layouts kept. A
/// directory holding one is refused: its bundle files carry made-up names.
const OLD_INDEX_EXT: &str = "nfbi";

/// Subdirectory corrupt bundle files are moved into.
const QUARANTINE_DIR: &str = "quarantine";

struct Entry {
    /// Process-unique version; bumped only by publish, never by tier moves,
    /// so cached results stay valid across evict/reload cycles.
    version: u64,
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
    /// The durable directory; `None` for an in-memory store. Every entry of
    /// a durable store has a backing file, `dir.join(file_name(name))`.
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
    /// Every `enc(name).nfb1` file in the directory registers in the
    /// **durable** tier — nothing is parsed or decoded until first use —
    /// with versions assigned in name order. Other files (`.tmp-*`
    /// leftovers of an interrupted publish, stems that are not a canonical
    /// encoding, anything else) are ignored and left in place.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the directory cannot be created or listed;
    /// [`ServeError::Bundle`] when it holds a `.nfbi` index of an older
    /// store layout, whose bundle files this layout cannot name.
    pub fn open(dir: impl AsRef<Path>, hot_capacity: usize) -> Result<Self, ServeError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut names = Vec::new();
        for item in std::fs::read_dir(&dir)? {
            let path = item?.path();
            if path.extension().is_some_and(|ext| ext == OLD_INDEX_EXT) {
                return Err(ServeError::Bundle(BundleError::Model(
                    ModelIoError::Corrupt(format!(
                        "{} is the index of an older store layout, which is not read; \
                         republish its models into an empty directory",
                        path.display()
                    )),
                )));
            }
            let name = path
                .file_name()
                .and_then(|f| f.to_str())
                .and_then(|f| f.strip_suffix(BUNDLE_SUFFIX))
                .and_then(decode_stem);
            match name {
                Some(name) if path.is_file() => names.push(name),
                _ => {}
            }
        }
        names.sort();
        let next_version = names.len() as u64 + 1;
        let entries = names.into_iter().zip(1..).map(|(name, version)| {
            let entry = Entry {
                version,
                hot: None,
                touch: 0,
            };
            (name, entry)
        });
        Ok(BundleStore {
            dir: Some(dir),
            hot_capacity,
            state: Mutex::new(StoreState {
                entries: entries.collect(),
                tick: 0,
                next_version,
            }),
            ..Self::in_memory()
        })
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

    /// Tier occupancy and movement counters.
    pub fn stats(&self) -> TierStats {
        let state = self.state.lock().unwrap();
        TierStats {
            hot: state.hot_count(),
            durable: if self.dir.is_some() {
                state.entries.len()
            } else {
                0
            },
            hot_capacity: self.hot_capacity,
            evictions: self.evictions.load(Ordering::Relaxed),
            cold_loads: self.cold_loads.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Publishes a bundle under `name`, replacing any previous version.
    ///
    /// On a durable store the bundle is first written to disk — a temp
    /// file renamed over `enc(name).nfb1` — then the decoded bundle enters
    /// the hot tier (publish implies imminent use). Exceeding the hot
    /// capacity evicts the least-recently-fetched entry.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the write-through fails (including a name
    /// whose encoding is too long for the filesystem); the in-memory state
    /// is left unchanged in that case.
    pub fn publish(&self, name: &str, bundle: ModelBundle) -> Result<StoreUpdate, ServeError> {
        let mut state = self.state.lock().unwrap();
        if let Some(dir) = &self.dir {
            write_atomic(dir, &file_name(name), &bundle.to_bytes())?;
        }
        let version = state.next_version();
        let touch = state.next_touch();
        let arc = Arc::new(bundle);
        let replaced = state
            .entries
            .insert(
                name.to_string(),
                Entry {
                    version,
                    hot: Some(Arc::clone(&arc)),
                    touch,
                },
            )
            .map(|old| old.version);
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
            let version = {
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
                entry.version
            };
            let dir = self
                .dir
                .as_ref()
                .expect("entries that are not hot always have a backing file");
            let loaded = ModelBundle::load_path(&dir.join(file_name(name)));
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

    /// Removes `name` from the store, deleting its backing file. Returns
    /// the removed version, or `None` if the name was not registered.
    /// In-flight predicts holding the bundle's `Arc` are unaffected.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the file cannot be deleted; the entry is
    /// removed from memory regardless.
    pub fn remove(&self, name: &str) -> Result<Option<u64>, ServeError> {
        let mut state = self.state.lock().unwrap();
        let Some(entry) = state.entries.remove(name) else {
            return Ok(None);
        };
        if let Some(dir) = &self.dir {
            match std::fs::remove_file(dir.join(file_name(name))) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(Some(entry.version))
    }

    /// Evicts hot entries (LRU-first) until the hot tier fits its
    /// capacity. A bounded store is always durable, so every entry is a
    /// candidate: eviction drops the decoded bundle and leaves the entry
    /// durable, so it never touches the disk.
    fn evict_excess(&self, state: &mut StoreState) {
        if self.hot_capacity == 0 {
            return;
        }
        while state.hot_count() > self.hot_capacity {
            let victim = state
                .entries
                .values_mut()
                .filter(|e| e.hot.is_some())
                .min_by_key(|e| e.touch)
                .expect("more hot entries than a nonzero capacity");
            victim.hot = None;
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
        if state.entries.remove(name).is_none() {
            return err;
        }
        if let Some(dir) = &self.dir {
            let _ = quarantine_file(dir, &file_name(name));
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        err
    }
}

/// The file that backs `name` in a store directory: `enc(name)` plus
/// [`BUNDLE_SUFFIX`], where `enc` keeps `[A-Za-z0-9_-]` and writes every
/// other byte as `%XX` (upper-case hex).
fn file_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + BUNDLE_SUFFIX.len());
    for &b in name.as_bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
            out.push(char::from(b));
        } else {
            let _ = write!(out, "%{b:02X}");
        }
    }
    out.push_str(BUNDLE_SUFFIX);
    out
}

/// The name whose file stem is `stem`, when `stem` is exactly the
/// canonical encoding [`file_name`] writes; `None` for anything else
/// (stray files, lower-case hex, bytes that should have been escaped).
fn decode_stem(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            out.push(u8::from_str_radix(stem.get(i + 1..i + 3)?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    let name = String::from_utf8(out).ok()?;
    (file_name(&name).strip_suffix(BUNDLE_SUFFIX) == Some(stem)).then_some(name)
}

/// Writes `bytes` to `dir/file` via a temp file in `dir` plus an atomic
/// rename: a crash leaves either the previous file or the complete new one.
fn write_atomic(dir: &Path, file: &str, bytes: &[u8]) -> Result<(), ServeError> {
    let tmp = dir.join(format!(".tmp-{file}"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, dir.join(file)).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        ServeError::Io(e)
    })
}

/// Moves the corrupt bundle `dir/file` into the quarantine subdirectory,
/// bumping a numeric suffix if a previous quarantine already claimed the
/// name.
fn quarantine_file(dir: &Path, file: &str) -> std::io::Result<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    let mut target = qdir.join(file);
    let mut bump = 1u32;
    while target.exists() {
        target = qdir.join(format!("{file}.{bump}"));
        bump += 1;
    }
    std::fs::rename(dir.join(file), target)
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
        {
            let store = BundleStore::open(&dir, 0).unwrap();
            store.publish("bad", bundle(9)).unwrap();
        }
        let filename = file_name("bad");
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
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_the_backing_file() {
        let dir = tmp_dir("remove");
        let store = BundleStore::open(&dir, 0).unwrap();
        store.publish("gone", bundle(3)).unwrap();
        assert!(dir.join(file_name("gone")).is_file());
        assert!(store.remove("gone").unwrap().is_some());
        assert!(!dir.join(file_name("gone")).exists());
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
        // One file and nothing else: the swap overwrote it in place.
        assert_eq!(listing(&dir), vec!["m.nfb1".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every entry of `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn file_names_escape_every_byte_outside_the_safe_set() {
        assert_eq!(file_name("nb201"), "nb201.nfb1");
        assert_eq!(file_name("fb_net-2"), "fb_net-2.nfb1");
        assert_eq!(file_name(""), ".nfb1");
        assert_eq!(file_name("a/b.c"), "a%2Fb%2Ec.nfb1");
        assert_eq!(file_name("50% off"), "50%25%20off.nfb1");
        assert_eq!(file_name("é"), "%C3%A9.nfb1");
        for stem in ["nb201", "", "a%2Fb%2Ec", "%C3%A9"] {
            let name = decode_stem(stem).unwrap();
            assert_eq!(file_name(&name), format!("{stem}{BUNDLE_SUFFIX}"));
        }
        // Anything but the exact encoding is not a store file.
        for stem in [
            "a%2fb", "%41", "a.b", "%2", "%zz", "%+1", "%FF", ".tmp-m", "a b",
        ] {
            assert_eq!(decode_stem(stem), None, "{stem:?}");
        }
    }

    #[test]
    fn awkward_names_round_trip_through_reopen_as_their_own_files() {
        let dir = tmp_dir("awkward");
        let names = [
            "a/b",
            "../up",
            "v1.2",
            "100%",
            "%41",
            "two words",
            "naïve-模型",
            ".tmp-m",
            "",
        ];
        let arch = Arch::nb201_from_index(321);
        let expect: Vec<u32> = {
            let store = BundleStore::open(&dir, 0).unwrap();
            names
                .iter()
                .zip(0..)
                .map(|(name, seed)| {
                    let up = store.publish(name, bundle(40 + seed)).unwrap();
                    up.bundle.predict_one(&arch, 1).to_bits()
                })
                .collect()
        };
        // One file per name, named by its encoding, and nothing else.
        let mut files: Vec<String> = names.iter().map(|n| file_name(n)).collect();
        files.sort();
        assert_eq!(listing(&dir), files);
        // Reopened, every name is back under itself and fetches bit-identically.
        let store = BundleStore::open(&dir, 0).unwrap();
        let mut listed = store.names();
        listed.sort();
        let mut sorted = names.map(String::from).to_vec();
        sorted.sort();
        assert_eq!(listed, sorted);
        for (name, &bits) in names.iter().zip(&expect) {
            let (_, b) = store.fetch(name).unwrap();
            assert_eq!(b.predict_one(&arch, 1).to_bits(), bits, "{name:?}");
        }
        // Versions follow name order, as the store assigns them on open.
        let state = store.state.lock().unwrap();
        let versions: Vec<u64> = sorted.iter().map(|n| state.entries[n].version).collect();
        assert_eq!(versions, (1..=names.len() as u64).collect::<Vec<_>>());
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_ignores_and_keeps_files_that_are_not_store_entries() {
        let dir = tmp_dir("strays");
        {
            let store = BundleStore::open(&dir, 0).unwrap();
            store.publish("m", bundle(4)).unwrap();
        }
        let strays = [".tmp-x.nfb1", "README", "a%2fb.nfb1"];
        for stray in strays {
            std::fs::write(dir.join(stray), b"not a bundle").unwrap();
        }
        let store = BundleStore::open(&dir, 0).unwrap();
        assert_eq!(store.names(), vec!["m".to_string()]);
        store.fetch("m").unwrap();
        for stray in strays {
            assert!(dir.join(stray).is_file(), "{stray} was touched");
        }
        assert_eq!(store.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_with_an_old_index_is_refused() {
        let dir = tmp_dir("old_layout");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("index.{OLD_INDEX_EXT}")), b"old index").unwrap();
        std::fs::write(dir.join("m-1a2b3c4d.nfb1"), bundle(5).to_bytes()).unwrap();
        let err = BundleStore::open(&dir, 0).unwrap_err();
        assert!(matches!(err, ServeError::Bundle(_)), "{err}");
        // Refused, not migrated: both files are as they were.
        assert_eq!(listing(&dir).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
