//! Service-level tests of the persistent artifact store tier: two
//! services sharing one directory serve bit-identical responses,
//! concurrent publishes of the same fingerprint are idempotent, and a
//! torn publish (a process killed mid-write) is never served — the
//! reopened service either loads the old artifact or takes a clean
//! miss and recompiles.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lalr_core::Parallelism;
use lalr_service::protocol::response_to_line;
use lalr_service::{Fault, FaultPlan, GrammarFormat, Request, Service, ServiceConfig, Trigger};

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lalr-tier-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn with_store(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: Parallelism::sequential(),
        store_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

fn workload() -> Vec<Request> {
    let mut requests = Vec::new();
    for entry in lalr_corpus::all_entries().iter().take(6) {
        let grammar = entry.source.to_string();
        requests.push(Request::Compile {
            grammar: grammar.clone(),
            format: GrammarFormat::Native,
        });
        requests.push(Request::Classify {
            grammar: grammar.clone(),
            format: GrammarFormat::Native,
        });
        requests.push(Request::Table {
            grammar,
            format: GrammarFormat::Native,
            compressed: true,
        });
    }
    requests
}

/// Drops the provenance-dependent `cached` flag (a store load reports
/// `cached:true` where the original compile said `false`).
fn normalize(line: &str) -> String {
    line.replace("\"cached\":true", "\"cached\":false")
}

fn artifact_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".lalr"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn two_services_over_one_store_serve_bit_identical_responses() {
    let dir = temp_store_dir("shared");
    let requests = workload();

    // Both services are alive at once over the same directory.
    let a = Service::new(with_store(&dir));
    let b = Service::new(with_store(&dir));

    for (i, r) in requests.iter().enumerate() {
        let line_a = normalize(&response_to_line(&a.call(r.clone(), None)));
        let line_b = normalize(&response_to_line(&b.call(r.clone(), None)));
        assert_eq!(line_a, line_b, "request {i} diverged across services");
    }

    // A compiled everything; B served every artifact from A's publishes
    // without a single pipeline run of its own.
    let sa = a.stats().cache.expect("cache enabled");
    let sb = b.stats().cache.expect("cache enabled");
    assert!(sa.compiles >= 6, "{sa:?}");
    assert!(sa.store_writes >= 6, "{sa:?}");
    assert_eq!(sb.compiles, 0, "{sb:?}");
    assert!(sb.store_hits >= 6, "{sb:?}");
    assert_eq!(sb.store_corrupt, 0, "{sb:?}");

    a.shutdown();
    b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_publish_of_the_same_fingerprint_is_idempotent() {
    let dir = temp_store_dir("idem");
    const WRITERS: usize = 4;
    let grammar = "e : e \"+\" t | t ; t : \"x\" ;";

    // Four independent services race to compile-and-publish the same
    // grammar. Each uses its own cache, so every one really publishes.
    let services: Vec<Arc<Service>> = (0..WRITERS)
        .map(|_| Arc::new(Service::new(with_store(&dir))))
        .collect();
    let handles: Vec<_> = services
        .iter()
        .map(|s| {
            let s = Arc::clone(s);
            std::thread::spawn(move || {
                s.call(
                    Request::Compile {
                        grammar: grammar.to_string(),
                        format: GrammarFormat::Native,
                    },
                    None,
                )
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap().is_ok());
    }

    // Exactly one artifact file survives, and it is valid: a fresh
    // service takes a store hit, not a corrupt rejection.
    assert_eq!(artifact_files(&dir).len(), 1, "{:?}", artifact_files(&dir));
    let fresh = Service::new(with_store(&dir));
    assert!(fresh
        .call(
            Request::Compile {
                grammar: grammar.to_string(),
                format: GrammarFormat::Native,
            },
            None,
        )
        .is_ok());
    let stats = fresh.stats().cache.expect("cache enabled");
    assert_eq!(stats.store_hits, 1, "{stats:?}");
    assert_eq!(stats.store_corrupt, 0, "{stats:?}");
    assert_eq!(stats.compiles, 0, "{stats:?}");

    for s in services {
        s.shutdown();
    }
    fresh.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_publish_is_never_served_reopen_takes_a_clean_miss() {
    let dir = temp_store_dir("torn");
    // Every publish is truncated mid-file — the moral equivalent of the
    // process dying between write and rename on every artifact.
    let faults = FaultPlan::new(0xDEAD)
        .rule("store.write", Fault::Truncate, Trigger::Rate(1.0))
        .build();
    let torn = Service::new(ServiceConfig {
        faults,
        ..with_store(&dir)
    });
    let requests = workload();
    let reference: Vec<String> = requests
        .iter()
        .map(|r| normalize(&response_to_line(&torn.call(r.clone(), None))))
        .collect();
    torn.shutdown();

    // The reopened service must never decode a torn file as an
    // artifact: every load is a corrupt rejection or clean miss, every
    // response recompiles to the exact reference bytes.
    let reopened = Service::new(with_store(&dir));
    for (i, r) in requests.iter().enumerate() {
        let line = normalize(&response_to_line(&reopened.call(r.clone(), None)));
        assert_eq!(
            line, reference[i],
            "request {i} diverged after torn publish"
        );
    }
    let stats = reopened.stats().cache.expect("cache enabled");
    assert_eq!(
        stats.store_hits, 0,
        "torn artifacts must not load: {stats:?}"
    );
    assert!(
        stats.store_corrupt + stats.store_misses >= 6,
        "every lookup was rejected or missed: {stats:?}"
    );
    assert!(stats.compiles >= 6, "{stats:?}");
    reopened.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leftover_publish_temp_files_do_not_hide_the_committed_artifact() {
    let dir = temp_store_dir("tmpjunk");
    let grammar = "e : e \"+\" t | t ; t : \"x\" ;";
    let writer = Service::new(with_store(&dir));
    assert!(writer
        .call(
            Request::Compile {
                grammar: grammar.to_string(),
                format: GrammarFormat::Native,
            },
            None,
        )
        .is_ok());
    writer.shutdown();
    let committed = artifact_files(&dir);
    assert_eq!(committed.len(), 1);

    // Simulate a writer killed mid-publish: orphaned temp files left in
    // the directory next to the committed artifact.
    let stem = committed[0].trim_end_matches(".lalr");
    std::fs::write(dir.join(format!(".{stem}.99999.7.tmp")), b"half a hea").unwrap();
    std::fs::write(dir.join(".deadbeef00000000.99999.8.tmp"), b"").unwrap();

    let reopened = Service::new(with_store(&dir));
    assert!(reopened
        .call(
            Request::Compile {
                grammar: grammar.to_string(),
                format: GrammarFormat::Native,
            },
            None,
        )
        .is_ok());
    let stats = reopened.stats().cache.expect("cache enabled");
    assert_eq!(stats.store_hits, 1, "{stats:?}");
    assert_eq!(stats.store_corrupt, 0, "{stats:?}");
    reopened.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A store written by the previous release heals: its files carry an
/// older format version, so the first load counts them corrupt,
/// recompiles and republishes in the current format, and the next
/// service serves the text from disk with the same reply bytes — the
/// `table` reply's resolution count included.
#[test]
fn a_store_from_the_previous_format_version_heals_by_recompiling() {
    let dir = temp_store_dir("previous");
    // Dangling else: one shift/reduce conflict, resolved by yacc's default.
    let grammar = "s : \"if\" s \"else\" s | \"if\" s | \"x\" ;".to_string();
    let compile = Request::Compile {
        grammar: grammar.clone(),
        format: GrammarFormat::Native,
    };
    let table = Request::Table {
        grammar,
        format: GrammarFormat::Native,
        compressed: true,
    };
    let writer = Service::new(with_store(&dir));
    let reference = normalize(&response_to_line(&writer.call(compile.clone(), None)));
    let table_reference = response_to_line(&writer.call(table.clone(), None));
    assert!(
        table_reference.contains("\"resolutions\":1,"),
        "{table_reference}"
    );
    writer.shutdown();

    // Turn the artifact into a file of the previous format version.
    let files = artifact_files(&dir);
    assert_eq!(files.len(), 1);
    let path = dir.join(&files[0]);
    let version = |bytes: &[u8]| u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(version(&bytes), lalr_store::FORMAT_VERSION);
    bytes[8..12].copy_from_slice(&(lalr_store::FORMAT_VERSION - 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let healer = Service::new(with_store(&dir));
    let healed = normalize(&response_to_line(&healer.call(compile.clone(), None)));
    assert_eq!(healed, reference);
    let stats = healer.stats().cache.expect("cache enabled");
    assert_eq!(
        (stats.store_corrupt, stats.compiles, stats.store_writes),
        (1, 1, 1),
        "{stats:?}"
    );
    let table_healed = response_to_line(&healer.call(table.clone(), None));
    assert_eq!(table_healed, table_reference);
    healer.shutdown();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(version(&bytes), lalr_store::FORMAT_VERSION, "republished");

    let reader = Service::new(with_store(&dir));
    let served = normalize(&response_to_line(&reader.call(compile, None)));
    assert_eq!(served, healed);
    let table_served = response_to_line(&reader.call(table, None));
    assert_eq!(table_served, table_reference);
    let stats = reader.stats().cache.expect("cache enabled");
    assert_eq!((stats.store_hits, stats.compiles), (1, 0), "{stats:?}");
    reader.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A grammar whose table build makes hundreds of thousands of conflict
/// decisions stores their count, not the decisions: the 2.3 KB random
/// grammar below resolves 307,114 conflicts, and its record stays under
/// 1 MiB. A record that kept one 32-byte entry per decision was 10.3 MB.
#[test]
fn a_conflict_heavy_artifact_stores_a_resolution_count_not_a_log() {
    let dir = temp_store_dir("conflicts");
    let config = lalr_corpus::synthetic::RandomConfig {
        nonterminals: 10,
        terminals: 300,
        productions: 150,
        max_rhs: 4,
        epsilon_prob: 0.15,
    };
    let grammar = lalr_corpus::synthetic::random(9, config).to_string();
    let table = Request::Table {
        grammar,
        format: GrammarFormat::Native,
        compressed: false,
    };
    let writer = Service::new(with_store(&dir));
    let reply = response_to_line(&writer.call(table.clone(), None));
    let head: String = reply.chars().take(200).collect();
    assert!(reply.contains("\"resolutions\":307114,"), "{head}");
    writer.shutdown();

    let files = artifact_files(&dir);
    assert_eq!(files.len(), 1);
    let record = std::fs::metadata(dir.join(&files[0])).unwrap().len();
    assert!(record < 1 << 20, "the record takes {record} bytes");

    let reader = Service::new(with_store(&dir));
    assert_eq!(response_to_line(&reader.call(table, None)), reply);
    let stats = reader.stats().cache.expect("cache enabled");
    assert_eq!((stats.store_hits, stats.compiles), (1, 0), "{stats:?}");
    reader.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
