//! Loopback tests of the epoll event-loop daemon: protocol round trips,
//! error replies, stats, pipelining, deadlines, drain semantics, the
//! connection cap, warm restarts from the persistent store, and byte
//! parity with in-process `Service::call` under concurrent clients.
//!
//! Every test is gated on `lalr_net::supported()` so the suite stays
//! green on platforms without the raw epoll backend.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use lalr_core::Parallelism;
use lalr_service::client::{self, ClientReply};
use lalr_service::protocol::{request_to_line, response_to_line};
use lalr_service::{
    DaemonConfig, EventDaemon, Fault, FaultPlan, GrammarFormat, ParseTarget, Request, Service,
    ServiceConfig, Trigger,
};

use serde_json::Value;

const GRAMMAR: &str = "e : e \"+\" t | t ; t : \"x\" ;";

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lalr-eventd-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_event_daemon(shards: usize) -> EventDaemon {
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        ..DaemonConfig::default()
    };
    EventDaemon::start(config, shards).expect("bind loopback")
}

fn call(addr: &str, request: &Request) -> ClientReply {
    client::call(addr, request, None, Duration::from_secs(30)).expect("daemon reachable")
}

fn compile_request() -> Request {
    Request::Compile {
        grammar: GRAMMAR.to_string(),
        format: GrammarFormat::Native,
    }
}

#[test]
fn event_daemon_compiles_caches_reports_stats_and_shuts_down() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_event_daemon(1);
    let addr = daemon.addr().to_string();

    let cold = call(&addr, &compile_request());
    assert!(cold.is_ok(), "{}", cold.raw);
    assert_eq!(
        cold.value.get("cached").and_then(Value::as_bool),
        Some(false)
    );
    let fp = cold
        .value
        .get("fingerprint")
        .and_then(Value::as_str)
        .expect("fingerprint present")
        .to_string();

    let warm = call(&addr, &compile_request());
    assert_eq!(
        warm.value.get("cached").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        warm.value.get("fingerprint").and_then(Value::as_str),
        Some(fp.as_str())
    );

    let stats = call(&addr, &Request::Stats);
    assert!(stats.is_ok(), "{}", stats.raw);
    assert!(
        stats.value.get("requests").and_then(Value::as_u64) >= Some(2),
        "{}",
        stats.raw
    );
    let cache = stats.value.get("cache").expect("cache stats present");
    assert!(cache.get("hits").and_then(Value::as_u64) >= Some(1));
    // The persistent-store counters are always reported, and stay zero
    // when no store directory is configured.
    for key in [
        "store_hits",
        "store_misses",
        "store_writes",
        "store_corrupt",
    ] {
        assert_eq!(
            cache.get(key).and_then(Value::as_u64),
            Some(0),
            "{key}: {}",
            stats.raw
        );
    }

    let bye = call(&addr, &Request::Shutdown);
    assert!(bye.is_ok(), "{}", bye.raw);
    let summary = daemon.join();
    assert!(summary.connections >= 4, "{summary:?}");
    assert!(summary.requests >= 4, "{summary:?}");
}

#[test]
fn event_daemon_pipelined_requests_answer_in_order_on_one_connection() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_event_daemon(1);
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Three requests in a single write: the daemon must answer each in
    // order, one at a time, on the same connection.
    let batch = [
        request_to_line(&compile_request(), None),
        request_to_line(
            &Request::Classify {
                grammar: GRAMMAR.to_string(),
                format: GrammarFormat::Native,
            },
            None,
        ),
        request_to_line(&compile_request(), None),
    ];
    writer
        .write_all(format!("{}\n{}\n{}\n", batch[0], batch[1], batch[2]).as_bytes())
        .unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let first: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(first.get("op").and_then(Value::as_str), Some("compile"));
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));

    line.clear();
    reader.read_line(&mut line).unwrap();
    let second: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(second.get("op").and_then(Value::as_str), Some("classify"));

    line.clear();
    reader.read_line(&mut line).unwrap();
    let third: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(third.get("op").and_then(Value::as_str), Some("compile"));
    assert_eq!(third.get("cached").and_then(Value::as_bool), Some(true));

    drop(writer);
    drop(reader);
    daemon.stop();
    daemon.join();
}

#[test]
fn event_daemon_handles_malformed_lines_and_keeps_the_connection() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_event_daemon(1);
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writeln!(writer, "{{not json").unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));

    line.clear();
    writeln!(writer, "{{\"op\":\"frobnicate\"}}").unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    let msg = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap();
    assert!(msg.contains("available: compile"), "{msg}");

    // A bad grammar is an application error, not a transport one.
    line.clear();
    writeln!(writer, "{{\"op\":\"compile\",\"grammar\":\"e : oops\"}}").unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("bad_grammar"),
        "{line}"
    );

    // The same connection still serves a good request afterwards.
    line.clear();
    writeln!(writer, "{}", request_to_line(&compile_request(), None)).unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");

    drop(writer);
    drop(reader);
    daemon.stop();
    daemon.join();
}

#[test]
fn event_daemon_rejects_oversized_lines_with_too_large() {
    if !lalr_net::supported() {
        return;
    }
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        max_line_bytes: 256,
        ..DaemonConfig::default()
    };
    let daemon = EventDaemon::start(config, 1).unwrap();
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let huge = format!(
        "{{\"op\":\"compile\",\"grammar\":\"{}\"}}",
        "x".repeat(4096)
    );
    writeln!(writer, "{huge}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("too_large"),
        "{line}"
    );
    // The daemon closes the connection after an oversize line.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");

    drop(writer);
    drop(reader);
    daemon.stop();
    daemon.join();
}

#[test]
fn event_daemon_enforces_the_connection_cap() {
    if !lalr_net::supported() {
        return;
    }
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 1,
        ..DaemonConfig::default()
    };
    let daemon = EventDaemon::start(config, 1).unwrap();

    // First connection occupies the single slot.
    let holder = TcpStream::connect(daemon.addr()).unwrap();
    // Give the acceptor time to install it before the second arrives.
    std::thread::sleep(Duration::from_millis(100));

    let second = TcpStream::connect(daemon.addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(second);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("unavailable"),
        "{line}"
    );

    drop(holder);
    drop(reader);
    daemon.stop();
    daemon.join();
}

#[test]
fn event_daemon_drains_idle_connections_promptly() {
    if !lalr_net::supported() {
        return;
    }
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(30),
        drain_deadline: Duration::from_secs(5),
        ..DaemonConfig::default()
    };
    let daemon = EventDaemon::start(config, 2).unwrap();
    let addr = daemon.addr().to_string();

    let idle_a = TcpStream::connect(daemon.addr()).unwrap();
    let idle_b = TcpStream::connect(daemon.addr()).unwrap();
    let worked = call(&addr, &compile_request());
    assert!(worked.is_ok(), "{}", worked.raw);
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    daemon.stop();
    let summary = daemon.join();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "join took {:?} — idle connections were waited out, not drained",
        started.elapsed()
    );
    assert!(summary.drained >= 2, "{summary:?}");
    assert_eq!(summary.aborted, 0, "{summary:?}");
    drop(idle_a);
    drop(idle_b);
}

#[test]
fn drain_deadline_zero_aborts_a_connection_mid_request() {
    if !lalr_net::supported() {
        return;
    }
    // Every compile stalls 300 ms; with a zero drain deadline a stop()
    // mid-request must force-close rather than wait.
    let faults = FaultPlan::new(5)
        .rule("service.compile", Fault::Delay(300), Trigger::Rate(1.0))
        .build();
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_deadline: Duration::from_millis(0),
        faults: faults.clone(),
        service: ServiceConfig {
            faults,
            ..ServiceConfig::default()
        },
        ..DaemonConfig::default()
    };
    let daemon = EventDaemon::start(config, 1).unwrap();
    let addr = daemon.addr().to_string();
    let busy = std::thread::spawn(move || {
        // The response may be lost to the forced close; only the timing
        // contract matters here.
        let _ = client::call(&addr, &compile_request(), None, Duration::from_secs(10));
    });
    // Wait until the request is in flight, then stop under it.
    std::thread::sleep(Duration::from_millis(100));
    daemon.stop();
    let summary = daemon.join();
    assert!(
        summary.aborted >= 1,
        "a mid-request connection must be aborted at deadline 0: {summary:?}"
    );
    busy.join().unwrap();
}

#[test]
fn deadline_of_zero_is_reported_as_deadline_exceeded() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_event_daemon(1);
    let reply = client::call(
        &daemon.addr().to_string(),
        &compile_request(),
        Some(Duration::from_millis(0)),
        Duration::from_secs(30),
    )
    .unwrap();
    assert!(!reply.is_ok(), "{}", reply.raw);
    assert_eq!(
        reply
            .value
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("deadline"),
        "{}",
        reply.raw
    );
    daemon.stop();
    daemon.join();
}

#[test]
fn event_daemon_serves_warm_from_store_after_restart() {
    if !lalr_net::supported() {
        return;
    }
    let dir = temp_store_dir("restart");
    let config = || DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
        ..DaemonConfig::default()
    };

    // First daemon compiles cold and publishes the artifact to disk.
    let first = EventDaemon::start(config(), 1).unwrap();
    let addr = first.addr().to_string();
    let cold = call(&addr, &compile_request());
    assert!(cold.is_ok(), "{}", cold.raw);
    assert_eq!(
        cold.value.get("cached").and_then(Value::as_bool),
        Some(false)
    );
    let fp = cold
        .value
        .get("fingerprint")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let stats = call(&addr, &Request::Stats);
    let cache = stats.value.get("cache").expect("cache stats");
    assert_eq!(cache.get("store_writes").and_then(Value::as_u64), Some(1));
    call(&addr, &Request::Shutdown);
    first.join();

    // A fresh daemon over the same directory: the repeat request is a
    // warm hit served from disk, with no recompilation.
    let second = EventDaemon::start(config(), 1).unwrap();
    let addr = second.addr().to_string();
    let warm = call(&addr, &compile_request());
    assert!(warm.is_ok(), "{}", warm.raw);
    assert_eq!(
        warm.value.get("cached").and_then(Value::as_bool),
        Some(true),
        "warm restart must serve from the store: {}",
        warm.raw
    );
    assert_eq!(
        warm.value.get("fingerprint").and_then(Value::as_str),
        Some(fp.as_str())
    );
    let stats = call(&addr, &Request::Stats);
    let cache = stats.value.get("cache").expect("cache stats");
    assert!(
        cache.get("store_hits").and_then(Value::as_u64) >= Some(1),
        "{}",
        stats.raw
    );
    assert_eq!(
        cache.get("compiles").and_then(Value::as_u64),
        Some(0),
        "nothing recompiled: {}",
        stats.raw
    );
    call(&addr, &Request::Shutdown);
    second.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance differential: eight client threads over TCP against
/// a two-shard daemon must produce byte-identical response lines to a
/// sequential in-process `Service::call` reference answering the same
/// workload (modulo the scheduling-dependent `cached` flag).
#[test]
fn eight_thread_tcp_soak_matches_in_process_reference_byte_for_byte() {
    if !lalr_net::supported() {
        return;
    }
    const THREADS: usize = 8;

    fn workload() -> Vec<Request> {
        let mut requests = Vec::new();
        for entry in lalr_corpus::all_entries() {
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
                grammar: grammar.clone(),
                format: GrammarFormat::Native,
                compressed: true,
            });
            let parsed = entry.grammar();
            let documents: Vec<String> = lalr_corpus::sentences::generate_many(&parsed, 1, 2, 16)
                .iter()
                .map(|s| {
                    s.iter()
                        .map(|&t| parsed.terminal_name(t))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            if !documents.is_empty() {
                requests.push(Request::Parse {
                    target: ParseTarget::Text {
                        grammar: grammar.clone(),
                        format: GrammarFormat::Native,
                    },
                    documents,
                    recover: false,
                    sync: Vec::new(),
                });
            }
        }
        requests
    }

    fn normalize(line: &str) -> String {
        line.replace("\"cached\":true", "\"cached\":false")
    }

    let requests = std::sync::Arc::new(workload());
    assert!(requests.len() >= 40, "workload is non-trivial");

    // Reference: one worker, requests strictly in order, no socket.
    let reference = Service::new(ServiceConfig {
        workers: Parallelism::sequential(),
        ..ServiceConfig::default()
    });
    let expected: Vec<String> = requests
        .iter()
        .map(|r| normalize(&response_to_line(&reference.call(r.clone(), None))))
        .collect();
    drop(reference);

    // Subject: THREADS client threads, each on one persistent
    // connection, walking a strided slice of the same request list.
    let daemon = start_event_daemon(2);
    let addr = daemon.addr();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let requests = std::sync::Arc::clone(&requests);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut got = Vec::new();
                let mut line = String::new();
                for i in (t..requests.len()).step_by(THREADS) {
                    writeln!(writer, "{}", request_to_line(&requests[i], None)).unwrap();
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    got.push((i, normalize(line.trim_end())));
                }
                got
            })
        })
        .collect();
    let mut actual = vec![String::new(); requests.len()];
    for h in handles {
        for (i, line) in h.join().unwrap() {
            actual[i] = line;
        }
    }
    daemon.stop();
    let summary = daemon.join();
    assert_eq!(summary.aborted, 0, "{summary:?}");

    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(
            got,
            want,
            "request {i} ({:?}) diverged between the daemon and Service::call",
            requests[i].op()
        );
    }
}
