//! The predictor registry: named models over a bundle store plus an LRU
//! result cache.
//!
//! A serving process keeps every deployed model behind one name-indexed
//! registry. The registry sits on a [`BundleStore`], so a model may be
//! **hot** (decoded, ready to predict) or **durable** (only its bundle
//! file). Lookups transparently decode durable models,
//! [`PredictorRegistry::insert`] writes through to the store's disk
//! directory when it has one, and the hot tier's LRU eviction is invisible
//! to callers — evicted models reload bit-identically, and any in-flight
//! predict keeps its `Arc`-pinned instance alive.
//!
//! The registry also memoizes results: latency queries inside a NAS loop
//! are heavily repetitive (evolutionary search re-scores survivors every
//! generation), so an LRU cache keyed on **(model, architecture genotype,
//! device)** answers repeats without touching a tape. Keys embed the full
//! genotype — not a lossy digest — so a cache hit is *provably* the same
//! query, and the determinism contract (cached result ≡ recomputed result,
//! bit for bit) holds by construction. Replacing a model under a name
//! bumps the registry's model id, so stale entries can never serve for the
//! new version.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use nasflat_space::Space;

use crate::bundle::ModelBundle;
use crate::config::ServeConfig;
use crate::engine::{drain_slots, Slot};
use crate::error::ServeError;
use crate::request::{ServeRequest, ServeResponse};
use crate::store::{BundleStore, TierStats};
use crate::telemetry::Telemetry;

/// A registry behind the reader/writer lock the TCP ingress shares with
/// operators: request paths take read locks, hot-swaps take the write lock.
pub type SharedRegistry = Arc<RwLock<PredictorRegistry>>;

/// Exact cache key: which model version, which architecture, which device.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    model_id: u64,
    space: Space,
    genotype: Box<[u8]>,
    device: u32,
}

/// A classic LRU map: value lookup via `HashMap`, recency order via a
/// `BTreeMap` over a monotonically increasing touch stamp (oldest stamp =
/// least recently used). Both sides are updated together under the
/// registry's mutex; capacity 0 disables caching entirely.
#[derive(Debug, Default)]
struct LruCache {
    entries: HashMap<CacheKey, (f32, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    tick: u64,
}

impl LruCache {
    fn get(&mut self, key: &CacheKey) -> Option<f32> {
        let (value, stamp) = *self.entries.get(key)?;
        // Refresh recency.
        self.recency.remove(&stamp);
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        self.entries.get_mut(key).expect("present").1 = self.tick;
        Some(value)
    }

    fn insert(&mut self, key: CacheKey, value: f32, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if let Some((_, stamp)) = self.entries.remove(&key) {
            self.recency.remove(&stamp);
        }
        while self.entries.len() >= capacity {
            let (&oldest, _) = self.recency.iter().next().expect("non-empty");
            let evicted = self.recency.remove(&oldest).expect("present");
            self.entries.remove(&evicted);
        }
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        self.entries.insert(key, (value, self.tick));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops every entry of a retired model id. Hot-swapping or removing a
    /// model makes its entries permanently unreachable (lookups use the new
    /// id), so leaving them in place would waste the whole LRU capacity on
    /// dead results right when the new version needs it.
    fn purge_model(&mut self, model_id: u64) {
        self.entries.retain(|k, _| k.model_id != model_id);
        self.recency.retain(|_, k| k.model_id != model_id);
    }
}

/// Hit/miss counters of the registry's result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to run a forward pass.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Per-model serving counters, keyed by registry name. Counters are
/// cumulative for the process: they survive hot-swaps (the name keeps
/// serving) and removal (so the telemetry ledger still balances after a
/// model retires mid-session).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounters {
    /// Queries answered under this name (cached or evaluated).
    pub served: u64,
    /// [`PredictorRegistry::serve_one`] queries answered from the result
    /// cache.
    pub cache_hits: u64,
    /// [`PredictorRegistry::serve_one`] queries that ran a forward pass.
    pub cache_misses: u64,
}

/// Named models over a [`BundleStore`] with an LRU result cache —
/// the lookup layer of the serving subsystem.
pub struct PredictorRegistry {
    store: BundleStore,
    cache: Mutex<LruCache>,
    cache_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    model_counters: Mutex<BTreeMap<String, ModelCounters>>,
}

impl PredictorRegistry {
    /// An empty in-memory registry (no durable tier, unbounded hot tier)
    /// whose result cache holds up to `cache_capacity` entries (0 disables
    /// caching).
    pub fn new(cache_capacity: usize) -> Self {
        PredictorRegistry::with_store(BundleStore::in_memory(), cache_capacity)
    }

    /// A registry over an existing [`BundleStore`] — the way to get a
    /// disk-backed registry with a bounded hot tier:
    ///
    /// ```no_run
    /// use nasflat_serve::{BundleStore, PredictorRegistry};
    /// let store = BundleStore::open("models/", 2).unwrap();
    /// let registry = PredictorRegistry::with_store(store, 1024);
    /// ```
    pub fn with_store(store: BundleStore, cache_capacity: usize) -> Self {
        PredictorRegistry {
            store,
            cache: Mutex::new(LruCache::default()),
            cache_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            model_counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry configured from [`ServeConfig`]: durable when
    /// `cfg.store_dir` is set (hot capacity `cfg.hot_capacity`), in-memory
    /// and unbounded otherwise. The result cache holds up to `cache_capacity` entries.
    ///
    /// # Errors
    /// [`ServeError::Io`] / [`ServeError::Bundle`] when the store directory
    /// cannot be opened.
    pub fn from_config(cfg: &ServeConfig, cache_capacity: usize) -> Result<Self, ServeError> {
        let store = match &cfg.store_dir {
            Some(dir) => BundleStore::open(dir, cfg.hot_capacity)?,
            None => BundleStore::in_memory(),
        };
        Ok(PredictorRegistry::with_store(store, cache_capacity))
    }

    /// The underlying bundle store.
    pub fn store(&self) -> &BundleStore {
        &self.store
    }

    /// Registers (or hot-swaps) a bundle under `name`, **writing through**
    /// to the store's durable directory when it has one. Replacement
    /// assigns a fresh model version — so cached results of the previous
    /// version can never answer for the new one — and evicts the old
    /// version's cache entries outright, freeing the LRU capacity for the
    /// new version.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the durable write-through fails; the
    /// registry is left unchanged in that case.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        bundle: ModelBundle,
    ) -> Result<Arc<ModelBundle>, ServeError> {
        let update = self.store.publish(&name.into(), bundle)?;
        if let Some(old_id) = update.replaced {
            self.cache.lock().expect("cache lock").purge_model(old_id);
        }
        Ok(update.bundle)
    }

    /// Parses bundle bytes and registers them under `name`.
    ///
    /// # Errors
    /// Propagates bundle validation and write-through failures.
    pub fn load_bytes(
        &mut self,
        name: impl Into<String>,
        bytes: &[u8],
    ) -> Result<Arc<ModelBundle>, ServeError> {
        self.insert(name, ModelBundle::from_bytes(bytes)?)
    }

    /// Reads a bundle file and registers it under `name`.
    ///
    /// # Errors
    /// Filesystem, bundle validation, and write-through failures.
    pub fn load_file(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Arc<ModelBundle>, ServeError> {
        self.insert(name, ModelBundle::load_path(path.as_ref())?)
    }

    /// The bundle registered under `name`, decoded into the hot tier if it
    /// was only durable. `None` when the name is unregistered *or* its
    /// backing file failed to load (use [`PredictorRegistry::lookup_model`]
    /// for the error).
    pub fn get(&self, name: &str) -> Option<Arc<ModelBundle>> {
        self.store.fetch(name).ok().map(|(_, b)| b)
    }

    /// Unregisters a model (deleting its durable file),
    /// returning whether it existed. The model's cached results are
    /// evicted with it; in-flight predicts holding the bundle's `Arc` are
    /// unaffected.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the durable file or index cannot be updated.
    pub fn remove(&mut self, name: &str) -> Result<bool, ServeError> {
        match self.store.remove(name)? {
            Some(old_id) => {
                self.cache.lock().expect("cache lock").purge_model(old_id);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Registered model names (hot or durable), sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names = self.store.names();
        names.sort();
        names
    }

    /// Number of registered models (hot or durable).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Cache hit/miss/occupancy counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.cache.lock().expect("cache lock").len(),
        }
    }

    /// Tier occupancy and movement counters of the underlying store.
    pub fn tier_stats(&self) -> TierStats {
        self.store.stats()
    }

    /// The per-model serving counters, sorted by model name. Cumulative for
    /// the process (see [`ModelCounters`]); names that never served are
    /// absent.
    pub fn model_stats(&self) -> BTreeMap<String, ModelCounters> {
        self.model_counters
            .lock()
            .expect("model counters lock")
            .clone()
    }

    /// Credits `n` served queries to `name` — the hook the ingress
    /// scheduler and the streaming entry points use so the per-model
    /// ledger balances the global `queries_served` counter exactly.
    pub(crate) fn record_served(&self, name: &str, n: u64) {
        let mut counters = self.model_counters.lock().expect("model counters lock");
        counters.entry(name.to_string()).or_default().served += n;
    }

    /// Credits one [`PredictorRegistry::serve_one`] answer to `name`,
    /// split by whether the result cache answered it.
    fn record_one(&self, name: &str, cache_hit: bool) {
        let mut counters = self.model_counters.lock().expect("model counters lock");
        let entry = counters.entry(name.to_string()).or_default();
        entry.served += 1;
        if cache_hit {
            entry.cache_hits += 1;
        } else {
            entry.cache_misses += 1;
        }
    }

    /// Resolves `name` to its (version, bundle) pair, decoding a durable
    /// entry as needed — the public face of the hook the TCP ingress
    /// uses to pin a model version at admission time.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] for unregistered names, plus the
    /// store's corruption/I/O failures for broken durable entries.
    pub fn lookup_model(&self, name: &str) -> Result<(u64, Arc<ModelBundle>), ServeError> {
        self.store.fetch(name)
    }

    /// Wraps the registry for concurrent serving ([`SharedRegistry`]):
    /// request paths (the ingress, in-process readers) take read locks
    /// while operators hot-swap models under the write lock.
    pub fn into_shared(self) -> SharedRegistry {
        Arc::new(RwLock::new(self))
    }

    /// Answers one [`ServeRequest`], from the LRU result cache when the
    /// exact query was served before (bit-identical either way).
    ///
    /// Evaluation is immediate — nothing queues, so a
    /// [`ServeRequest::with_deadline_ms`] budget cannot expire here and is
    /// not consulted. Deadlines bite where requests *wait*: the
    /// [`PredictorRegistry::serve_requests`] drains and the TCP ingress
    /// queue.
    ///
    /// # Errors
    /// Unknown model name, or a query malformed for that model.
    pub fn serve_one(&self, req: &ServeRequest) -> Result<ServeResponse, ServeError> {
        let (model_id, bundle) = self.lookup_model(&req.model)?;
        bundle.check_query(&req.arch, req.device)?;
        let key = CacheKey {
            model_id,
            space: req.arch.space(),
            genotype: req.arch.genotype().into(),
            device: req.device as u32,
        };
        if self.cache_capacity > 0 {
            if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.record_one(&req.model, true);
                return Ok(ServeResponse::new(hit, model_id));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.record_one(&req.model, false);
        let value = bundle.predict_one(&req.arch, req.device);
        self.cache
            .lock()
            .expect("cache lock")
            .insert(key, value, self.cache_capacity);
        Ok(ServeResponse::new(value, model_id))
    }

    /// Serves a request stream spanning **any mix of models**, returning
    /// responses in input order, each bitwise identical to a sequential
    /// [`ModelBundle::predict_one`] on its model. The requests are ordered
    /// by model (first-appearance order) and answered in one pass of the
    /// engine's chunked loop, `batch` requests per chunk on up to `workers`
    /// workers, so same-model requests share multi-query tape passes. Deadline budgets are
    /// relative to the start of the call. Streams bypass the result cache
    /// — coalesced tape passes are already the batch-rate path, and
    /// flooding the LRU with a one-off sweep would evict the hot NAS
    /// working set. Only evaluated requests count toward
    /// [`ModelCounters::served`].
    ///
    /// # Errors
    /// Unknown model name or a query malformed for its model; the whole
    /// stream is resolved and validated before anything runs.
    /// [`ServeError::DeadlineExceeded`] when any deadline request expired.
    pub fn serve_requests(
        &self,
        reqs: &[ServeRequest],
        cfg: &ServeConfig,
    ) -> Result<Vec<ServeResponse>, ServeError> {
        // Pin every request to its model's (name, version, bundle), in
        // first-appearance order.
        let mut models: Vec<(&str, u64, Arc<ModelBundle>)> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut pinned = Vec::with_capacity(reqs.len());
        for r in reqs {
            if !index.contains_key(r.model.as_str()) {
                let (version, bundle) = self.lookup_model(&r.model)?;
                index.insert(&r.model, models.len());
                models.push((&r.model, version, bundle));
            }
            pinned.push(index[r.model.as_str()]);
        }
        for (r, &m) in reqs.iter().zip(&pinned) {
            models[m].2.check_query(&r.arch, r.device)?;
        }
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_by_key(|&i| pinned[i]);
        let slots: Vec<Slot<'_>> = order
            .into_iter()
            .map(|i| Slot {
                index: i,
                version: pinned[i] as u64,
                bundle: &models[pinned[i]].2,
                arch: &reqs[i].arch,
                device: reqs[i].device,
                deadline_ms: reqs[i].deadline_ms,
            })
            .collect();
        let results = drain_slots(cfg, &slots, &Telemetry::disabled(), |m, served| {
            self.record_served(models[m as usize].0, served);
        });
        results
            .into_iter()
            .zip(&pinned)
            .map(|(r, &m)| r.map(|score| ServeResponse::new(score, models[m].1)))
            .collect()
    }
}

impl core::fmt::Debug for PredictorRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PredictorRegistry")
            .field("models", &self.names())
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_stats", &self.cache_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_core::{LatencyPredictor, PredictorConfig};
    use nasflat_space::Arch;

    /// Point query through the unified entry point, scores only.
    fn predict(
        reg: &PredictorRegistry,
        name: &str,
        arch: &Arch,
        device: usize,
    ) -> Result<f32, ServeError> {
        reg.serve_one(&ServeRequest::new(name, arch.clone(), device))
            .map(|r| r.score)
    }

    fn bundle(seed: u64) -> ModelBundle {
        let mut cfg = PredictorConfig::quick().with_seed(seed);
        cfg.op_dim = 8;
        cfg.hw_dim = 8;
        cfg.node_dim = 8;
        cfg.ophw_gnn_dims = vec![12];
        cfg.ophw_mlp_dims = vec![12];
        cfg.gnn_dims = vec![12];
        cfg.head_dims = vec![16];
        ModelBundle::single(LatencyPredictor::new(
            Space::Nb201,
            vec!["a".into(), "b".into()],
            0,
            cfg,
        ))
        .unwrap()
    }

    #[test]
    fn lookup_and_errors() {
        let mut reg = PredictorRegistry::new(16);
        assert!(reg.is_empty());
        reg.insert("m", bundle(0)).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.names(), vec!["m".to_string()]);
        assert!(reg.get("m").is_some());
        assert!(matches!(
            predict(&reg, "nope", &Arch::nb201_from_index(0), 0),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            predict(&reg, "m", &Arch::nb201_from_index(0), 9),
            Err(ServeError::BadQuery(_))
        ));
        assert!(matches!(
            predict(&reg, "m", &Arch::new(Space::Fbnet, vec![4; 22]), 0),
            Err(ServeError::BadQuery(_))
        ));
        assert!(reg.remove("m").unwrap());
        assert!(!reg.remove("m").unwrap());
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let mut reg = PredictorRegistry::new(16);
        reg.insert("m", bundle(1)).unwrap();
        let arch = Arch::nb201_from_index(321);
        let cold = predict(&reg, "m", &arch, 0).unwrap();
        let warm = predict(&reg, "m", &arch, 0).unwrap();
        assert_eq!(cold.to_bits(), warm.to_bits());
        let stats = reg.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A different device is a different key.
        let _ = predict(&reg, "m", &arch, 1).unwrap();
        assert_eq!(reg.cache_stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut reg = PredictorRegistry::new(2);
        reg.insert("m", bundle(2)).unwrap();
        let a0 = Arch::nb201_from_index(10);
        let a1 = Arch::nb201_from_index(11);
        let a2 = Arch::nb201_from_index(12);
        let _ = predict(&reg, "m", &a0, 0).unwrap();
        let _ = predict(&reg, "m", &a1, 0).unwrap();
        // Touch a0 so a1 is the LRU entry, then insert a third.
        let _ = predict(&reg, "m", &a0, 0).unwrap();
        let _ = predict(&reg, "m", &a2, 0).unwrap();
        assert_eq!(reg.cache_stats().entries, 2);
        // a0 survived (hit), a1 was evicted (miss).
        let misses_before = reg.cache_stats().misses;
        let _ = predict(&reg, "m", &a0, 0).unwrap();
        assert_eq!(reg.cache_stats().misses, misses_before);
        let _ = predict(&reg, "m", &a1, 0).unwrap();
        assert_eq!(reg.cache_stats().misses, misses_before + 1);
    }

    #[test]
    fn hot_swap_invalidates_and_purges_cached_results() {
        let mut reg = PredictorRegistry::new(16);
        reg.insert("m", bundle(3)).unwrap();
        let arch = Arch::nb201_from_index(500);
        let old = predict(&reg, "m", &arch, 0).unwrap();
        let _ = predict(&reg, "m", &arch, 1).unwrap();
        assert_eq!(reg.cache_stats().entries, 2);
        reg.insert("m", bundle(4)).unwrap(); // new version under the same name
                                             // The old version's entries are evicted, not just orphaned.
        assert_eq!(reg.cache_stats().entries, 0);
        let new = predict(&reg, "m", &arch, 0).unwrap();
        assert_ne!(old.to_bits(), new.to_bits(), "stale cache served");
        // And the new result was a miss, not a hit on the old entry.
        assert_eq!(reg.cache_stats().hits, 0);
        assert_eq!(reg.cache_stats().entries, 1);
    }

    #[test]
    fn remove_purges_the_models_cache_entries() {
        let mut reg = PredictorRegistry::new(16);
        reg.insert("keep", bundle(7)).unwrap();
        reg.insert("drop", bundle(8)).unwrap();
        let arch = Arch::nb201_from_index(77);
        let _ = predict(&reg, "keep", &arch, 0).unwrap();
        let _ = predict(&reg, "drop", &arch, 0).unwrap();
        assert_eq!(reg.cache_stats().entries, 2);
        assert!(reg.remove("drop").unwrap());
        // Only the removed model's entry goes; the survivor still hits.
        assert_eq!(reg.cache_stats().entries, 1);
        let hits_before = reg.cache_stats().hits;
        let _ = predict(&reg, "keep", &arch, 0).unwrap();
        assert_eq!(reg.cache_stats().hits, hits_before + 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut reg = PredictorRegistry::new(0);
        reg.insert("m", bundle(5)).unwrap();
        let arch = Arch::nb201_from_index(42);
        let _ = predict(&reg, "m", &arch, 0).unwrap();
        let _ = predict(&reg, "m", &arch, 0).unwrap();
        let stats = reg.cache_stats();
        assert_eq!((stats.hits, stats.entries), (0, 0));
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn per_model_counters_are_cumulative_and_balance_served_totals() {
        let mut reg = PredictorRegistry::new(16);
        reg.insert("a", bundle(11)).unwrap();
        reg.insert("b", bundle(12)).unwrap();
        let arch = Arch::nb201_from_index(64);
        let _ = predict(&reg, "a", &arch, 0).unwrap(); // miss
        let _ = predict(&reg, "a", &arch, 0).unwrap(); // hit
        let _ = predict(&reg, "b", &arch, 1).unwrap(); // miss
        let stats = reg.model_stats();
        assert_eq!(stats["a"].served, 2);
        assert_eq!((stats["a"].cache_hits, stats["a"].cache_misses), (1, 1));
        assert_eq!(stats["b"].served, 1);
        // Per-model splits balance the global cache counters exactly.
        let global = reg.cache_stats();
        let (hits, misses): (u64, u64) = stats
            .values()
            .fold((0, 0), |(h, m), c| (h + c.cache_hits, m + c.cache_misses));
        assert_eq!((hits, misses), (global.hits, global.misses));
        // Counters survive a hot-swap (same name keeps accumulating) and
        // removal (the ledger must still balance afterwards).
        reg.insert("a", bundle(13)).unwrap();
        let _ = predict(&reg, "a", &arch, 0).unwrap();
        assert_eq!(reg.model_stats()["a"].served, 3);
        reg.remove("b").unwrap();
        assert_eq!(reg.model_stats()["b"].served, 1);
        // The streaming path credits whole groups.
        let reqs: Vec<ServeRequest> = (0..6)
            .map(|i| ServeRequest::new("a", Arch::nb201_from_index(i * 11), 0))
            .collect();
        let cfg = ServeConfig::builder().workers(1).batch(4).build();
        reg.serve_requests(&reqs, &cfg).unwrap();
        assert_eq!(reg.model_stats()["a"].served, 9);
    }

    #[test]
    fn malformed_queries_are_rejected_before_enqueue() {
        let mut reg = PredictorRegistry::new(0);
        reg.insert("m", bundle(15)).unwrap();
        let cfg = ServeConfig::builder().build();
        let good = ServeRequest::new("m", Arch::nb201_from_index(0), 1);
        let bad_device = ServeRequest::new("m", Arch::nb201_from_index(0), 99);
        assert!(matches!(
            reg.serve_requests(&[good.clone(), bad_device], &cfg).unwrap_err(),
            ServeError::BadQuery(d) if d.contains("device 99")
        ));
        let bad_space = ServeRequest::new("m", Arch::new(Space::Fbnet, vec![4; 22]), 0);
        assert!(matches!(
            reg.serve_requests(&[good, bad_space], &cfg).unwrap_err(),
            ServeError::BadQuery(d) if d.contains("Fbnet")
        ));
        // Validation runs before anything is evaluated or credited.
        assert!(reg.model_stats().is_empty());
    }

    #[test]
    fn expired_stream_requests_are_not_counted_as_served() {
        let mut reg = PredictorRegistry::new(0);
        reg.insert("m", bundle(14)).unwrap();
        let reqs: Vec<ServeRequest> = (0..5)
            .map(|i| ServeRequest::new("m", Arch::nb201_from_index(i * 13), 0).with_deadline_ms(0))
            .collect();
        let cfg = ServeConfig::builder().workers(2).batch(2).build();
        assert!(matches!(
            reg.serve_requests(&reqs, &cfg),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        // Budget 0 is due at the start of the call, so every request
        // expired before its chunk ran: nothing was evaluated or credited.
        assert_eq!(reg.model_stats().get("m").map_or(0, |c| c.served), 0);
    }

    #[test]
    fn serve_requests_spans_models_and_stays_bitwise_sequential() {
        let mut reg = PredictorRegistry::new(16);
        reg.insert("alpha", bundle(6)).unwrap();
        reg.insert("beta", bundle(9)).unwrap();
        // Interleave two models so grouping + input-order scatter are
        // genuinely exercised.
        let reqs: Vec<ServeRequest> = (0..20)
            .map(|i| {
                let name = if i % 3 == 0 { "beta" } else { "alpha" };
                ServeRequest::new(name, Arch::nb201_from_index(i * 9), (i % 2) as usize)
            })
            .collect();
        let cfg = ServeConfig::builder().workers(2).batch(4).build();
        let responses = reg.serve_requests(&reqs, &cfg).unwrap();
        for (r, resp) in reqs.iter().zip(&responses) {
            let bundle = reg.get(&r.model).unwrap();
            let (version, _) = reg.lookup_model(&r.model).unwrap();
            assert_eq!(
                resp.score.to_bits(),
                bundle.predict_one(&r.arch, r.device).to_bits()
            );
            assert_eq!(resp.model_version, version);
        }
        // An unknown model anywhere in the stream fails the whole stream
        // before anything runs.
        let mut bad = reqs.clone();
        bad.push(ServeRequest::new("ghost", Arch::nb201_from_index(0), 0));
        assert!(matches!(
            reg.serve_requests(&bad, &cfg),
            Err(ServeError::UnknownModel(_))
        ));
    }
}
