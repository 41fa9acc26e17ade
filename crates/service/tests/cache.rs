//! Unit-level tests of the artifact cache: hit identity, LRU byte
//! budget, fingerprint-collision confirmation, and in-flight coalescing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use lalr_core::Parallelism;
use lalr_service::{
    ArtifactCache, CacheConfig, CacheOutcome, CompiledArtifact, FaultPlan, GrammarFormat,
    ServiceError,
};

fn compile_native(text: &str, fp: u64) -> Result<CompiledArtifact, ServiceError> {
    CompiledArtifact::compile(text, GrammarFormat::Native, fp, &Parallelism::sequential())
}

const G1: &str = "e : e \"+\" t | t ; t : t \"*\" f | f ; f : \"(\" e \")\" | \"x\" ;";
const G2: &str = "s : \"a\" s \"b\" | ;";
const G3: &str = "l : l \",\" \"x\" | \"x\" ;";

#[test]
fn hit_returns_the_same_arc() {
    let cache = ArtifactCache::new(CacheConfig::default());
    let (a, first) = cache.get_or_compile(G1, compile_native);
    let (b, second) = cache.get_or_compile(G1, compile_native);
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(first, CacheOutcome::Compiled);
    assert_eq!(second, CacheOutcome::Hit);
    assert!(
        Arc::ptr_eq(&a, &b),
        "a hit must share the compiled artifact"
    );
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.compiles), (1, 1, 1));
}

#[test]
fn normalized_variants_share_one_entry() {
    let cache = ArtifactCache::new(CacheConfig::default());
    let (a, _) = cache.get_or_compile(G2, compile_native);
    // Leading/trailing whitespace per line and blank lines are ignored…
    let (b, outcome) = cache.get_or_compile(&format!("  {G2}  \n\n"), compile_native);
    assert_eq!(outcome, CacheOutcome::Hit);
    assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
    // …but interior spacing is part of the identity.
    let (_, outcome) = cache.get_or_compile(&G2.replace(" s ", "  s "), compile_native);
    assert_eq!(outcome, CacheOutcome::Compiled);
    assert_eq!(cache.len(), 2);
}

#[test]
fn lru_eviction_enforces_the_byte_budget() {
    let sizes: Vec<usize> = [G1, G2, G3]
        .iter()
        .map(|g| compile_native(g, 0).unwrap().approx_bytes())
        .collect();
    // Room for any two artifacts but never all three (single shard so
    // the budget is not split).
    let mut config = CacheConfig::with_budget(sizes.iter().sum::<usize>() - 1);
    config.shards = 1;
    let cache = ArtifactCache::new(config);

    cache.get_or_compile(G1, compile_native).0.unwrap();
    cache.get_or_compile(G2, compile_native).0.unwrap();
    assert_eq!(cache.stats().evictions, 0);
    // Touch G1 so G2 becomes the least recently used…
    assert_eq!(
        cache.get_or_compile(G1, compile_native).1,
        CacheOutcome::Hit
    );
    // …and inserting G3 must evict exactly G2.
    cache.get_or_compile(G3, compile_native).0.unwrap();
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.contains(G1), "recently used entry survives");
    assert!(!cache.contains(G2), "least recently used entry is evicted");
    assert!(cache.contains(G3), "new entry is resident");
    assert!(cache.bytes() < sizes.iter().sum::<usize>());
}

#[test]
fn oversized_artifacts_are_served_but_never_cached() {
    let mut config = CacheConfig::with_budget(16);
    config.shards = 1;
    let cache = ArtifactCache::new(config);
    let (a, outcome) = cache.get_or_compile(G1, compile_native);
    assert!(a.is_ok());
    assert_eq!(outcome, CacheOutcome::Compiled);
    assert!(
        cache.is_empty(),
        "an artifact above the budget is not inserted"
    );
    assert_eq!(cache.stats().evictions, 0);
}

#[test]
fn colliding_fingerprints_are_confirmed_by_full_text() {
    // Every text hashes to the same fingerprint, so correctness rests
    // entirely on the full-text confirmation step.
    let config = CacheConfig {
        fingerprinter: |_| 0xdead_beef,
        ..CacheConfig::default()
    };
    let cache = ArtifactCache::new(config);
    let (a, _) = cache.get_or_compile(G1, compile_native);
    let (b, outcome) = cache.get_or_compile(G2, compile_native);
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(outcome, CacheOutcome::Compiled, "collision must not hit");
    assert_ne!(
        a.production_count(),
        b.production_count(),
        "each text gets its own artifact despite equal fingerprints"
    );
    // Repeat lookups hit the right bucket entry.
    let (a2, o1) = cache.get_or_compile(G1, compile_native);
    let (b2, o2) = cache.get_or_compile(G2, compile_native);
    assert_eq!((o1, o2), (CacheOutcome::Hit, CacheOutcome::Hit));
    assert!(Arc::ptr_eq(&a, &a2.unwrap()));
    assert!(Arc::ptr_eq(&b, &b2.unwrap()));
    assert_eq!(cache.len(), 2);
}

#[test]
fn concurrent_compiles_of_one_grammar_coalesce_to_one_run() {
    const THREADS: usize = 8;
    let cache = Arc::new(ArtifactCache::new(CacheConfig::default()));
    let runs = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let runs = Arc::clone(&runs);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_compile(G1, |text, fp| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    // Widen the in-flight window so late arrivals join it.
                    std::thread::sleep(Duration::from_millis(50));
                    compile_native(text, fp)
                })
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one pipeline run");
    let artifacts: Vec<_> = results.iter().map(|(r, _)| r.clone().unwrap()).collect();
    assert!(
        artifacts.iter().all(|a| Arc::ptr_eq(a, &artifacts[0])),
        "every thread receives the leader's artifact"
    );
    let compiled = results
        .iter()
        .filter(|(_, o)| *o == CacheOutcome::Compiled)
        .count();
    assert_eq!(compiled, 1, "exactly one caller is the leader");
    let s = cache.stats();
    assert_eq!(s.compiles, 1);
    assert_eq!(s.hits + s.misses + s.coalesced, THREADS as u64);
}

#[test]
fn compile_errors_propagate_to_every_coalesced_waiter() {
    const THREADS: usize = 4;
    let cache = Arc::new(ArtifactCache::new(CacheConfig::default()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let bad = "e : unknown_symbol";

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache
                    .get_or_compile(bad, |text, fp| {
                        std::thread::sleep(Duration::from_millis(20));
                        compile_native(text, fp)
                    })
                    .0
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap().is_err(), "every waiter sees the failure");
    }
    assert!(cache.is_empty(), "failures are not cached");
    // The failed text stays retryable: a later call compiles again.
    let (r, outcome) = cache.get_or_compile(G1, compile_native);
    assert!(r.is_ok());
    assert_eq!(outcome, CacheOutcome::Compiled);
}

/// Fingerprint replay across a cache restart: the same grammars, by
/// the same fingerprints, replayed against a fresh cache over the same
/// store directory must resolve from the persistent tier — and the
/// store-tier counters must account for every lookup exactly.
#[test]
fn fingerprint_replay_over_a_reopened_cache_hits_the_store_tier() {
    let dir = std::env::temp_dir().join(format!(
        "lalr-cache-replay-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let with_store = || CacheConfig {
        store: Some(Arc::new(
            lalr_store::Store::open(&dir).expect("store opens"),
        )),
        ..CacheConfig::default()
    };

    let first = ArtifactCache::new(with_store());
    for g in [G1, G2, G3] {
        assert!(first.get_or_compile(g, compile_native).0.is_ok());
    }
    let s = first.stats();
    assert_eq!(s.compiles, 3, "{s:?}");
    assert_eq!(s.store_misses, 3, "cold lookups all miss the disk: {s:?}");
    assert_eq!(s.store_writes, 3, "every compile publishes: {s:?}");
    assert_eq!(s.store_hits, 0, "{s:?}");
    drop(first);

    // The replay: a brand-new cache (empty memory tier) sees the same
    // fingerprints and serves every one from disk without compiling.
    let second = ArtifactCache::new(with_store());
    for g in [G1, G2, G3] {
        let (artifact, outcome) = second.get_or_compile(g, compile_native);
        assert!(artifact.is_ok());
        assert_eq!(outcome, CacheOutcome::Loaded, "replay must come from disk");
    }
    // A second pass now hits the memory tier, not the store.
    for g in [G1, G2, G3] {
        let (_, outcome) = second.get_or_compile(g, compile_native);
        assert_eq!(outcome, CacheOutcome::Hit);
    }
    let s = second.stats();
    assert_eq!(s.compiles, 0, "{s:?}");
    assert_eq!(s.store_hits, 3, "{s:?}");
    assert_eq!(s.store_misses, 0, "{s:?}");
    assert_eq!(s.store_corrupt, 0, "{s:?}");
    assert_eq!(s.hits, 3, "memory-tier hits on the second pass: {s:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A panic inside the store load must not strand the in-flight slot:
/// the leader counts it as a corrupt file and compiles, and a second
/// request for the same text is answered instead of blocking on a
/// flight that never resolves. Each call runs on its own thread under
/// a `recv_timeout` deadline, so a regression fails instead of hanging.
#[test]
fn a_panicking_store_load_falls_through_to_a_compile() {
    let dir = std::env::temp_dir().join(format!(
        "lalr-cache-load-panic-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Populate the store, so the next cache's load reaches `store.read`.
    let seed = ArtifactCache::new(CacheConfig {
        store: Some(Arc::new(
            lalr_store::Store::open(&dir).expect("store opens"),
        )),
        ..CacheConfig::default()
    });
    assert!(seed.get_or_compile(G1, compile_native).0.is_ok());
    drop(seed);

    let faults = FaultPlan::parse("store.read:panic:@1", 7)
        .expect("valid spec")
        .build();
    let cache = Arc::new(ArtifactCache::new(CacheConfig {
        store: Some(Arc::new(
            lalr_store::Store::with_faults(&dir, faults).expect("store opens"),
        )),
        ..CacheConfig::default()
    }));
    let call = || {
        let cache = Arc::clone(&cache);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (result, outcome) = cache.get_or_compile(G1, compile_native);
            let _ = tx.send((result.is_ok(), outcome));
        });
        rx.recv_timeout(Duration::from_secs(10))
    };
    assert_eq!(call(), Ok((true, CacheOutcome::Compiled)));
    assert_eq!(call(), Ok((true, CacheOutcome::Hit)));
    let s = cache.stats();
    assert_eq!((s.store_corrupt, s.compiles, s.hits), (1, 1, 1), "{s:?}");
    std::fs::remove_dir_all(&dir).ok();
}
