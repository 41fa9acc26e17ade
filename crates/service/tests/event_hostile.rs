//! Hostile-client hardening of the epoll event-loop daemon: abusive
//! connection patterns must be survived with *exact* admission-reject
//! accounting — every rejection is explicit (a structured error line or
//! a counted close), never a silent drop — and the daemon keeps serving
//! well-behaved traffic throughout.
//!
//! Every test is gated on `lalr_net::supported()` so the suite stays
//! green on platforms without the raw epoll backend.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lalr_service::client::{self, ClientReply};
use lalr_service::protocol::request_to_line;
use lalr_service::{
    call_with_retry, DaemonConfig, EventDaemon, Fault, FaultPlan, GrammarFormat, ParseTarget,
    Request, RetryPolicy, ServiceConfig, Trigger,
};

use serde_json::Value;

const GRAMMAR: &str = "e : e \"+\" t | t ; t : \"x\" ;";

fn compile_request() -> Request {
    Request::Compile {
        grammar: GRAMMAR.to_string(),
        format: GrammarFormat::Native,
    }
}

fn call(addr: &str, request: &Request) -> ClientReply {
    client::call(addr, request, None, Duration::from_secs(30)).expect("daemon reachable")
}

/// Fetches the `health` op's admission-reject counter `key`.
fn admission_reject(addr: &str, key: &str) -> u64 {
    let reply = call(addr, &Request::Health);
    assert!(reply.is_ok(), "{}", reply.raw);
    reply
        .value
        .get("admission_rejects")
        .and_then(|r| r.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no admission_rejects.{key} in {}", reply.raw))
}

fn error_kind(line: &str) -> String {
    let v: Value = serde_json::from_str(line.trim_end())
        .unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"));
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no error.kind in {line:?}"))
        .to_string()
}

#[test]
fn byte_at_a_time_writer_still_gets_its_answer() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            ..DaemonConfig::default()
        },
        1,
    )
    .unwrap();

    // The request dribbles in one byte at a time; the daemon must
    // assemble the line across dozens of tiny reads and answer it.
    let line = format!("{}\n", request_to_line(&compile_request(), None));
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for &b in line.as_bytes() {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let v: Value = serde_json::from_str(reply.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{reply}");

    drop(reader);
    daemon.stop();
    let summary = daemon.join();
    assert_eq!(summary.aborted, 0, "{summary:?}");
    assert_eq!(summary.restarts, 0, "{summary:?}");
}

#[test]
fn connect_and_never_write_is_idled_out_cleanly() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_millis(300),
            ..DaemonConfig::default()
        },
        1,
    )
    .unwrap();
    let addr = daemon.addr().to_string();

    // Three connections that never send a byte: each must be closed at
    // the idle timeout, observed here as EOF well before the test's
    // own read timeout.
    let started = Instant::now();
    let conns: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(daemon.addr()).unwrap())
        .collect();
    for mut c in conns {
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(c.read(&mut buf).unwrap(), 0, "expected idle-out EOF");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle connections lingered {:?}",
        started.elapsed()
    );

    // The daemon still serves real work afterwards.
    let reply = call(&addr, &compile_request());
    assert!(reply.is_ok(), "{}", reply.raw);
    daemon.stop();
    let summary = daemon.join();
    assert_eq!(summary.aborted, 0, "{summary:?}");
}

/// A grammar whose uncompressed table response is large, so a handful
/// of pipelined table requests overflow any kernel socket buffering.
fn chunky_grammar() -> String {
    let mut g = String::from("s :");
    for i in 0..80 {
        if i > 0 {
            g.push_str(" |");
        }
        g.push_str(&format!(" a{i}"));
    }
    g.push_str(" ;\n");
    for i in 0..80 {
        g.push_str(&format!("a{i} : \"t{i}\" s | \"t{i}\" ;\n"));
    }
    g
}

#[test]
fn stalled_reader_is_closed_by_the_write_budget() {
    if !lalr_net::supported() {
        return;
    }
    // A long read timeout isolates the mechanism under test: only the
    // slow-client write budget may close the stalled connection.
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(60),
            write_budget: Duration::from_millis(150),
            service: ServiceConfig {
                max_pending: 16384,
                ..ServiceConfig::default()
            },
            ..DaemonConfig::default()
        },
        1,
    )
    .unwrap();
    let addr = daemon.addr().to_string();

    // Size the pipeline off one real response so the queued bytes
    // comfortably exceed whatever the kernel will buffer unread.
    let table = Request::Table {
        grammar: chunky_grammar(),
        format: GrammarFormat::Native,
        compressed: false,
    };
    let probe = call(&addr, &table);
    assert!(probe.is_ok(), "{}", probe.raw);
    let n = ((12 << 20) / probe.raw.len() + 1).min(4000);
    let payload = format!("{}\n", request_to_line(&table, None)).repeat(n);

    let mut stalled = TcpStream::connect(daemon.addr()).unwrap();
    stalled.write_all(payload.as_bytes()).unwrap();
    // Never read a byte: the responses overflow what the kernel will
    // buffer unread, the daemon's write buffer backs up, and the budget
    // clock runs out. Wait for the counted close without draining —
    // reading here would relieve the very backpressure under test.
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    while admission_reject(&addr, "slow_client") == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the write budget never fired against a reader that stopped draining"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The cut is observable client-side: whatever the socket absorbed
    // drains, then EOF or a reset — never a silent wedge.
    let mut sink = [0u8; 1 << 16];
    let closed = loop {
        match stalled.read(&mut sink) {
            Ok(0) => break true,
            Ok(_) => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break false
            }
            Err(_) => break true,
        }
    };
    assert!(closed, "stalled reader was never closed");

    // Exact accounting: one stalled connection, one slow-client close.
    assert_eq!(admission_reject(&addr, "slow_client"), 1);
    daemon.stop();
    daemon.join();
}

#[test]
fn peer_quota_flood_is_rejected_with_exact_accounting() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections_per_peer: 2,
            ..DaemonConfig::default()
        },
        2,
    )
    .unwrap();
    let addr = daemon.addr().to_string();

    // Two holders occupy the whole quota for 127.0.0.1.
    let holders: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(daemon.addr()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // Every further connection gets a fast, explicit, retryable
    // rejection line — never a silent drop — followed by EOF.
    for i in 0..3 {
        let flood = TcpStream::connect(daemon.addr()).unwrap();
        flood
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(flood);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(error_kind(&line), "throttled", "flood conn {i}: {line}");
        assert!(line.contains("per-peer connection quota"), "{line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");
    }

    // Releasing a holder frees its slot: the next connection is served.
    drop(holders);
    let policy = RetryPolicy {
        retries: 20,
        backoff: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        seed: 7,
    };
    let reply = call_with_retry(
        &addr,
        &compile_request(),
        None,
        Duration::from_secs(30),
        &policy,
        &lalr_service::FaultInjector::disabled(),
    )
    .expect("slot freed after holder closed");
    assert!(reply.is_ok(), "{}", reply.raw);

    // Exactly the three flood connections were counted, plus one per
    // retried attempt: a compile that raced the holders' closes met a
    // full quota and was itself rejected. The quota echo in the health
    // report matches the configuration.
    assert_eq!(
        admission_reject(&addr, "peer_quota"),
        3 + u64::from(reply.attempts - 1),
        "{}",
        reply.raw
    );
    let health = call(&addr, &Request::Health);
    assert_eq!(
        health
            .value
            .get("max_connections_per_peer")
            .and_then(Value::as_u64),
        Some(2),
        "{}",
        health.raw
    );
    daemon.stop();
    let summary = daemon.join();
    assert_eq!(summary.aborted, 0, "{summary:?}");
}

#[test]
fn rate_limited_lines_are_throttled_with_exact_accounting() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            rate_limit_per_sec: 2,
            rate_limit_burst: 2,
            ..DaemonConfig::default()
        },
        1,
    )
    .unwrap();
    let addr = daemon.addr().to_string();

    // Five pipelined requests arrive in one write: the two burst tokens
    // admit two, the other three get retryable `throttled` lines (the
    // sub-millisecond pipeline outruns the 2/s refill).
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let line = format!("{}\n", request_to_line(&Request::Stats, None));
    writer.write_all(line.repeat(5).as_bytes()).unwrap();

    let mut throttled = 0;
    let mut ok = 0;
    let mut reply = String::new();
    for _ in 0..5 {
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        let v: Value = serde_json::from_str(reply.trim_end()).unwrap();
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            assert_eq!(error_kind(&reply), "throttled", "{reply}");
            assert!(reply.contains("request rate limit"), "{reply}");
            throttled += 1;
        }
    }
    assert_eq!((ok, throttled), (2, 3));
    drop(writer);
    drop(reader);

    // The bucket refills while we wait, so the health probe itself is
    // admitted and the counter equals exactly the observed rejections.
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(admission_reject(&addr, "rate_limit"), 3);
    daemon.stop();
    daemon.join();
}

#[test]
fn injected_shard_panic_restarts_the_shard_and_the_retry_converges() {
    if !lalr_net::supported() {
        return;
    }
    // The first request line trips the shard.panic failpoint: the whole
    // shard unwinds mid-pump. The supervisor must respawn it and the
    // client's retry — a fresh connection through the re-registered
    // listener — must get the real answer.
    let faults = FaultPlan::new(5)
        .rule("shard.panic", Fault::Panic, Trigger::OnHits(vec![1]))
        .build();
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            faults: faults.clone(),
            ..DaemonConfig::default()
        },
        1,
    )
    .unwrap();
    let addr = daemon.addr().to_string();

    let policy = RetryPolicy {
        retries: 20,
        backoff: Duration::from_millis(10),
        cap: Duration::from_millis(100),
        seed: 5,
    };
    let reply = call_with_retry(
        &addr,
        &compile_request(),
        None,
        Duration::from_secs(30),
        &policy,
        &lalr_service::FaultInjector::disabled(),
    )
    .expect("retry must converge across the shard restart");
    assert!(reply.is_ok(), "{}", reply.raw);
    assert!(reply.attempts >= 2, "the panic cost at least one attempt");
    assert_eq!(faults.injected_at("shard.panic"), 1);

    // The restart is visible over the protocol and in the summary.
    let health = call(&addr, &Request::Health);
    assert_eq!(
        health.value.get("shard_restarts").and_then(Value::as_u64),
        Some(1),
        "{}",
        health.raw
    );
    daemon.stop();
    let summary = daemon.join();
    assert_eq!(summary.restarts, 1, "{summary:?}");
}

#[test]
fn documents_as_deep_as_the_size_limit_allows_are_answered() {
    if !lalr_net::supported() {
        return;
    }
    // Each document's tree is as deep as the document is long: a
    // right-recursive list nests one level per `a` (~127k levels), a
    // left-recursive sum one per `+ x` (~63k). Rendering, counting and
    // dropping such a tree must not take native stack per level — one
    // of these documents would otherwise overflow a worker's stack and
    // abort the whole daemon.
    let limit = ServiceConfig::default().max_document_bytes;
    let right = vec!["a"; 127_000].join(" ");
    let left = format!("x{}", " + x".repeat(63_000));
    let cases = [
        ("s : \"a\" s | ;", right, 127_000u64),
        ("e : e \"+\" \"x\" | \"x\" ;", left, 126_001),
    ];
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            ..DaemonConfig::default()
        },
        1,
    )
    .unwrap();
    let addr = daemon.addr().to_string();

    for (grammar, document, tokens) in &cases {
        assert!(document.len() < limit, "{} bytes", document.len());
        assert!(
            document.len() > limit - (16 << 10),
            "{} bytes",
            document.len()
        );
        for recover in [false, true] {
            let request = Request::Parse {
                target: ParseTarget::Text {
                    grammar: grammar.to_string(),
                    format: GrammarFormat::Native,
                },
                documents: vec![document.clone()],
                recover,
                sync: Vec::new(),
            };
            let reply = call(&addr, &request);
            assert!(reply.is_ok(), "{grammar} recover={recover}: not ok");
            let docs = reply
                .value
                .get("docs")
                .and_then(Value::as_arr)
                .expect("a parse reply carries docs");
            assert_eq!(docs.len(), 1);
            let doc = &docs[0];
            assert_eq!(
                doc.get("accepted").and_then(Value::as_bool),
                Some(true),
                "{grammar} recover={recover}"
            );
            assert_eq!(
                doc.get("leaves").and_then(Value::as_u64),
                Some(*tokens),
                "{grammar} recover={recover}"
            );
        }
    }

    // A fresh connection still gets answers: no worker died.
    let stats = call(&addr, &Request::Stats);
    assert!(stats.is_ok(), "{}", stats.raw);
    daemon.stop();
    let summary = daemon.join();
    assert_eq!(summary.aborted, 0, "{summary:?}");
}
