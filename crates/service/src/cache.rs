//! The content-addressed artifact cache.
//!
//! Keying: requests are normalized ([`crate::fingerprint::normalize`]),
//! FxHash-fingerprinted, and *confirmed* by full-text comparison — the
//! hash-then-confirm idiom of the LR(0) kernel interner, so a fingerprint
//! collision costs one string compare, never a wrong artifact.
//!
//! Concurrency: the cache is sharded by fingerprint and each shard has
//! its own mutex, so compiles of *different* grammars never serialize on
//! a cache lock. Duplicate in-flight compiles of the *same* grammar
//! coalesce: the first requester becomes the leader and runs the
//! pipeline (outside any lock); the rest block on a condvar and receive
//! the leader's `Arc` (or its error).
//!
//! Eviction: least-recently-used under a byte budget, split evenly
//! across shards. Each artifact is accounted at its
//! [`CompiledArtifact::approx_bytes`]; an artifact bigger than a whole
//! shard budget is returned to the caller but never inserted, so a
//! shard's resident bytes never exceed its budget.
//!
//! Persistence: with [`CacheConfig::store`] set, the cache grows a
//! read-through/write-through disk tier. A memory miss consults the
//! [`lalr_store::Store`] before compiling — a verified disk artifact is
//! deserialized and committed as if compiled ([`CacheOutcome::Loaded`]),
//! a corrupt file is counted and recompiled, and a fresh compile is
//! published back to disk (best-effort; publish failures never fail the
//! request). The store is keyed by the same normalized-text fingerprint
//! and confirmed by the full key text it carries, so the
//! hash-then-confirm discipline holds across restarts too.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use lalr_chaos::{Fault, FaultInjector};
use lalr_store::{Loaded, Store};
use rustc_hash::FxHashMap;

use crate::artifact::CompiledArtifact;
use crate::error::ServiceError;
use crate::fingerprint::{fx_fingerprint, normalize};

/// Hash function used to fingerprint normalized grammar texts.
///
/// Swappable (see [`CacheConfig::fingerprinter`]) so tests can force
/// collisions and exercise the full-text confirmation path.
pub type Fingerprinter = fn(&str) -> u64;

/// Cache tuning knobs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total byte budget across all shards.
    pub byte_budget: usize,
    /// Number of lock stripes (clamped to at least 1).
    pub shards: usize,
    /// The fingerprint hash; defaults to FxHash64.
    pub fingerprinter: Fingerprinter,
    /// Fault injector for the `cache.storm` failpoint (an eviction storm
    /// after a commit). `crate::Service::new` overwrites this with its
    /// own injector so one plan drives the whole stack; arm it directly
    /// only when exercising a bare cache.
    pub faults: FaultInjector,
    /// Optional persistent tier. `None` (the default) keeps the cache
    /// purely in-memory with pre-store counting semantics.
    pub store: Option<Arc<Store>>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            byte_budget: 64 << 20,
            shards: 8,
            fingerprinter: fx_fingerprint,
            faults: FaultInjector::disabled(),
            store: None,
        }
    }
}

impl CacheConfig {
    /// A budget in bytes with default sharding.
    pub fn with_budget(byte_budget: usize) -> Self {
        CacheConfig {
            byte_budget,
            ..CacheConfig::default()
        }
    }
}

/// Counter snapshot (all counters are cumulative since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a committed entry.
    pub hits: u64,
    /// Lookups that found nothing and became compile leaders.
    pub misses: u64,
    /// Lookups that joined an in-flight compile instead of starting one.
    pub coalesced: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Pipeline runs actually executed (`misses` minus compiles that
    /// failed before insertion equals committed entries over time).
    pub compiles: u64,
    /// Memory misses answered by a verified disk artifact instead of a
    /// compile (zero unless a store is configured).
    pub store_hits: u64,
    /// Memory misses the disk tier could not answer either.
    pub store_misses: u64,
    /// Fresh compiles published to the disk tier.
    pub store_writes: u64,
    /// Disk artifacts rejected (checksum/format failure, or a panic
    /// inside the load) and recompiled.
    pub store_corrupt: u64,
    /// Committed entries right now.
    pub entries: usize,
    /// Resident accounted bytes right now.
    pub bytes: usize,
}

impl CacheStats {
    /// Hit rate over all cache lookups (hits + misses + coalesced).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a committed entry.
    Hit,
    /// This call ran the compile pipeline.
    Compiled,
    /// Joined another thread's in-flight compile.
    Coalesced,
    /// Deserialized from the persistent store tier — no pipeline run.
    Loaded,
}

struct Entry {
    text: Arc<str>,
    artifact: Arc<CompiledArtifact>,
    bytes: usize,
    last_used: u64,
}

struct InFlight {
    text: Arc<str>,
    state: Mutex<Option<Result<Arc<CompiledArtifact>, ServiceError>>>,
    done: Condvar,
}

#[derive(Default)]
struct Shard {
    entries: FxHashMap<u64, Vec<Entry>>,
    in_flight: FxHashMap<u64, Vec<Arc<InFlight>>>,
    bytes: usize,
}

/// The content-addressed, lock-striped, coalescing LRU artifact cache.
pub struct ArtifactCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    fingerprinter: Fingerprinter,
    faults: FaultInjector,
    store: Option<Arc<Store>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    compiles: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_writes: AtomicU64,
    store_corrupt: AtomicU64,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ArtifactCache")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("stats", &s)
            .finish()
    }
}

impl ArtifactCache {
    /// Creates a cache from the configuration.
    pub fn new(config: CacheConfig) -> ArtifactCache {
        let shards = config.shards.max(1);
        ArtifactCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: config.byte_budget / shards,
            fingerprinter: config.fingerprinter,
            faults: config.faults,
            store: config.store,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            store_corrupt: AtomicU64::new(0),
        }
    }

    /// The persistent tier, if one is configured.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    fn shard_of(&self, fp: u64) -> &Mutex<Shard> {
        // The bucket key is the full fingerprint; routing on the high bits
        // keeps shard choice independent of any low-bit bucket structure.
        &self.shards[(fp >> 32) as usize % self.shards.len()]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `text` (normalizing first), compiling via `compile` on a
    /// miss. Concurrent calls with the same normalized text coalesce onto
    /// one `compile` run; its result (success or failure) is delivered to
    /// every caller.
    pub fn get_or_compile<F>(
        &self,
        text: &str,
        compile: F,
    ) -> (Result<Arc<CompiledArtifact>, ServiceError>, CacheOutcome)
    where
        F: FnOnce(&str, u64) -> Result<CompiledArtifact, ServiceError>,
    {
        let normalized = normalize(text);
        let fp = (self.fingerprinter)(&normalized);

        // Phase 1: under the shard lock, find a committed entry, join an
        // in-flight compile, or become the leader.
        let flight: Arc<InFlight>;
        {
            let mut shard = self.shard_of(fp).lock().expect("cache shard poisoned");
            if let Some(bucket) = shard.entries.get_mut(&fp) {
                // Confirm by full text: a colliding fingerprint must not
                // serve another grammar's artifact.
                let tick = self.next_tick();
                if let Some(e) = bucket.iter_mut().find(|e| *e.text == normalized) {
                    e.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(Arc::clone(&e.artifact)), CacheOutcome::Hit);
                }
            }
            if let Some(waiting) = shard.in_flight.get(&fp) {
                if let Some(f) = waiting.iter().find(|f| *f.text == normalized) {
                    let f = Arc::clone(f);
                    drop(shard);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return (Self::wait(&f), CacheOutcome::Coalesced);
                }
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            flight = Arc::new(InFlight {
                text: Arc::from(normalized.as_str()),
                state: Mutex::new(None),
                done: Condvar::new(),
            });
            shard
                .in_flight
                .entry(fp)
                .or_default()
                .push(Arc::clone(&flight));
        }

        // Phase 2: leader resolves the miss outside every lock — first
        // against the disk tier (a verified artifact skips the pipeline
        // entirely), then by compiling. The `catch_unwind` is
        // load-bearing: if `compile` panics (a pipeline bug, or the
        // `service.compile` failpoint's injected panic) and the panic
        // escaped here, Phase 3 would never run, the in-flight slot would
        // never resolve, and every coalesced waiter — plus all future
        // requests for this grammar, which would join the dead flight —
        // would block on the condvar forever. The store load is guarded
        // the same way: a panic there (a decoder bug, or the `store.read`
        // failpoint's injected panic) counts as a corrupt file and falls
        // through to a compile.
        let mut outcome = CacheOutcome::Compiled;
        let mut loaded = None;
        if let Some(store) = &self.store {
            let load = panic::catch_unwind(AssertUnwindSafe(|| store.load(fp, Some(&normalized))));
            match load.unwrap_or(Loaded::Corrupt) {
                Loaded::Hit(record) => {
                    self.store_hits.fetch_add(1, Ordering::Relaxed);
                    loaded = Some(Arc::new(CompiledArtifact::from_record(*record)));
                    outcome = CacheOutcome::Loaded;
                }
                Loaded::Corrupt => {
                    self.store_corrupt.fetch_add(1, Ordering::Relaxed);
                }
                Loaded::Miss => {
                    self.store_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let result = match loaded {
            Some(artifact) => Ok(artifact),
            None => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                let result = panic::catch_unwind(AssertUnwindSafe(|| compile(&normalized, fp)))
                    .unwrap_or_else(|payload| Err(ServiceError::from_panic(payload.as_ref())))
                    .map(Arc::new);
                // Write-through: persist the fresh compile so the next
                // process starts warm. A publish failure (disk full, the
                // `store.write` failpoint) costs only the persistence —
                // the request itself still succeeds.
                if let (Some(store), Ok(artifact)) = (&self.store, &result) {
                    if store.publish(&artifact.to_record(&normalized)).is_ok() {
                        self.store_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                result
            }
        };

        // Phase 3: commit, wake waiters, evict.
        {
            let mut shard = self.shard_of(fp).lock().expect("cache shard poisoned");
            if let Some(waiting) = shard.in_flight.get_mut(&fp) {
                waiting.retain(|f| !Arc::ptr_eq(f, &flight));
                if waiting.is_empty() {
                    shard.in_flight.remove(&fp);
                }
            }
            if let Ok(artifact) = &result {
                let bytes = artifact.approx_bytes();
                if bytes <= self.shard_budget {
                    let tick = self.next_tick();
                    shard.entries.entry(fp).or_default().push(Entry {
                        text: Arc::clone(&flight.text),
                        artifact: Arc::clone(artifact),
                        bytes,
                        last_used: tick,
                    });
                    shard.bytes += bytes;
                    self.evict(&mut shard, tick);
                }
            }
        }
        *flight.state.lock().expect("in-flight slot poisoned") = Some(result.clone());
        flight.done.notify_all();

        // The eviction-storm failpoint: drop every committed entry, as if
        // a budget collapse evicted the working set. Checked outside the
        // shard lock, after waiters were released.
        if let Some(Fault::EvictAll) = self.faults.at("cache.storm") {
            self.evict_all();
        }

        (result, outcome)
    }

    /// Evicts every committed entry (an eviction storm), counting each
    /// one in the `evictions` stat. In-flight compiles are unaffected.
    /// Returns the number of entries dropped.
    pub fn evict_all(&self) -> usize {
        let mut dropped = 0;
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard poisoned");
            let n = shard.entries.values().map(Vec::len).sum::<usize>();
            shard.entries.clear();
            shard.bytes = 0;
            dropped += n;
        }
        self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    fn wait(flight: &InFlight) -> Result<Arc<CompiledArtifact>, ServiceError> {
        let mut slot = flight.state.lock().expect("in-flight slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = flight.done.wait(slot).expect("in-flight slot poisoned");
        }
    }

    /// Evicts least-recently-used entries until the shard fits its
    /// budget; the entry stamped `keep_tick` (the one just inserted) is
    /// never evicted by its own insertion.
    fn evict(&self, shard: &mut Shard, keep_tick: u64) {
        while shard.bytes > self.shard_budget {
            let victim = shard
                .entries
                .iter()
                .flat_map(|(fp, bucket)| bucket.iter().map(move |e| (*fp, e.last_used)))
                .filter(|&(_, used)| used != keep_tick)
                .min_by_key(|&(_, used)| used);
            let Some((fp, used)) = victim else { break };
            let bucket = shard.entries.get_mut(&fp).expect("victim bucket exists");
            let idx = bucket
                .iter()
                .position(|e| e.last_used == used)
                .expect("victim entry exists");
            let entry = bucket.swap_remove(idx);
            if bucket.is_empty() {
                shard.entries.remove(&fp);
            }
            shard.bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up a committed artifact by its fingerprint alone — the
    /// fingerprint-addressed parse path, where the client names the
    /// artifact a prior compile reported instead of resending the text.
    ///
    /// Counts as a hit and refreshes the LRU stamp. On a (2⁻⁶⁴-rare)
    /// bucket collision the entry whose artifact actually carries `fp` is
    /// preferred; `None` means the artifact was never compiled here or
    /// has been evicted since.
    pub fn get_by_fingerprint(&self, fp: u64) -> Option<Arc<CompiledArtifact>> {
        {
            let mut shard = self.shard_of(fp).lock().expect("cache shard poisoned");
            let tick = self.next_tick();
            if let Some(bucket) = shard.entries.get_mut(&fp) {
                if let Some(entry) = bucket.iter_mut().find(|e| e.artifact.fingerprint() == fp) {
                    entry.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(&entry.artifact));
                }
            }
        }
        // Evicted (or never compiled here): the disk tier may still have
        // it. No key to confirm against — the fingerprint *is* the name
        // the client was handed — so `load` checks only the record's own
        // embedded fingerprint.
        let store = self.store.as_ref()?;
        match store.load(fp, None) {
            Loaded::Hit(record) => {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                let text: Arc<str> = Arc::from(record.key.as_str());
                let artifact = Arc::new(CompiledArtifact::from_record(*record));
                let bytes = artifact.approx_bytes();
                let mut shard = self.shard_of(fp).lock().expect("cache shard poisoned");
                let tick = self.next_tick();
                if let Some(bucket) = shard.entries.get_mut(&fp) {
                    // A racing commit (compile or load) beat us; serve it.
                    if let Some(entry) = bucket.iter_mut().find(|e| e.text == text) {
                        entry.last_used = tick;
                        return Some(Arc::clone(&entry.artifact));
                    }
                }
                if bytes <= self.shard_budget {
                    shard.entries.entry(fp).or_default().push(Entry {
                        text,
                        artifact: Arc::clone(&artifact),
                        bytes,
                        last_used: tick,
                    });
                    shard.bytes += bytes;
                    self.evict(&mut shard, tick);
                }
                Some(artifact)
            }
            Loaded::Corrupt => {
                self.store_corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
            Loaded::Miss => {
                self.store_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a committed entry exists for `text` (no use-stamp update).
    pub fn contains(&self, text: &str) -> bool {
        let normalized = normalize(text);
        let fp = (self.fingerprinter)(&normalized);
        let shard = self.shard_of(fp).lock().expect("cache shard poisoned");
        shard
            .entries
            .get(&fp)
            .is_some_and(|b| b.iter().any(|e| *e.text == normalized))
    }

    /// Committed entry count.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .entries
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// `true` when no entries are committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident accounted bytes.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// Drops every committed entry (in-flight compiles are unaffected).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard poisoned");
            shard.entries.clear();
            shard.bytes = 0;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            store_writes: self.store_writes.load(Ordering::Relaxed),
            store_corrupt: self.store_corrupt.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.bytes(),
        }
    }
}
