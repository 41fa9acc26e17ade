//! Hostile-input hardening: malformed bytes, adversarial JSON, and
//! absurd field values must each get a structured error (or a dropped
//! connection) while the daemon keeps serving well-formed requests.
//!
//! Every test is gated on `lalr_net::supported()`: the daemon needs
//! the raw epoll backend.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use lalr_service::client::{self, ClientReply};
use lalr_service::{
    DaemonConfig, DocError, EventDaemon, Fault, FaultPlan, GrammarFormat, ParseTarget, Request,
    Response, Service, ServiceConfig, Trigger,
};

use serde_json::Value;

const GRAMMAR: &str = "e : e \"+\" t | t ; t : \"x\" ;";

fn start_daemon() -> EventDaemon {
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        ..DaemonConfig::default()
    };
    EventDaemon::start(config, 1).expect("bind loopback")
}

fn compile_request() -> Request {
    Request::Compile {
        grammar: GRAMMAR.to_string(),
        format: GrammarFormat::Native,
    }
}

fn call(daemon: &EventDaemon, request: &Request) -> ClientReply {
    client::call(
        &daemon.addr().to_string(),
        request,
        None,
        Duration::from_secs(30),
    )
    .expect("daemon reachable")
}

/// Opens a raw connection with a short read timeout for line exchanges.
fn raw_conn(daemon: &EventDaemon) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    (writer, BufReader::new(stream))
}

fn error_kind(line: &str) -> String {
    let v: Value = serde_json::from_str(line.trim_end())
        .unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{line}");
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no error.kind in {line:?}"))
        .to_string()
}

#[test]
fn invalid_utf8_drops_the_connection_and_the_daemon_survives() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_daemon();
    let (mut writer, mut reader) = raw_conn(&daemon);

    // A line that is not UTF-8: 0xFF can never appear in a valid
    // sequence. The server's line reader rejects it and the connection
    // is dropped without a reply — the client observes EOF.
    writer
        .write_all(&[0xFF, 0xFE, 0x80, b'{', b'}', b'\n'])
        .unwrap();
    writer.flush().unwrap();
    let mut buf = Vec::new();
    let n = reader.read_to_end(&mut buf).unwrap();
    assert_eq!(n, 0, "expected EOF, got {buf:?}");

    // The daemon itself is unharmed.
    let reply = call(&daemon, &compile_request());
    assert!(reply.is_ok(), "{}", reply.raw);
    daemon.stop();
    let summary = daemon.join();
    assert!(summary.connections >= 2, "{summary:?}");
}

#[test]
fn deeply_nested_json_hits_the_parser_depth_guard() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_daemon();
    let (mut writer, mut reader) = raw_conn(&daemon);

    // 200 levels of nesting — past the vendored parser's MAX_DEPTH of
    // 128 — must be refused by the recursion guard, not overflow the
    // shard thread's stack.
    let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
    writeln!(writer, "{deep}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(error_kind(&line), "bad_request", "{line}");

    // An *accepted* depth that is still not an object gets the shape
    // error, and the connection remains usable for real work.
    line.clear();
    writeln!(writer, "{}{}", "[".repeat(50), "]".repeat(50)).unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(error_kind(&line), "bad_request", "{line}");

    line.clear();
    writeln!(
        writer,
        "{}",
        lalr_service::protocol::request_to_line(&compile_request(), None)
    )
    .unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");

    drop(writer);
    drop(reader);
    daemon.stop();
    daemon.join();
}

#[test]
fn absurd_numeric_and_mistyped_fields_each_get_a_structured_error() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_daemon();
    let (mut writer, mut reader) = raw_conn(&daemon);
    let mut line = String::new();

    // Every hostile line is answered on the same connection; none of
    // them may wedge or crash the shard serving it.
    let cases: &[&str] = &[
        // deadline_ms beyond exact-integer range (numbers are f64).
        r#"{"op":"compile","grammar":"e : \"x\" ;","deadline_ms":99999999999999999999999}"#,
        // Negative and fractional deadlines.
        r#"{"op":"compile","grammar":"e : \"x\" ;","deadline_ms":-5}"#,
        r#"{"op":"compile","grammar":"e : \"x\" ;","deadline_ms":1.5}"#,
        // Exponent overflow inside the number literal itself.
        r#"{"op":"compile","grammar":"e : \"x\" ;","deadline_ms":1e999}"#,
        // op of the wrong type, null, and a non-object request.
        r#"{"op":42}"#,
        r#"{"op":null}"#,
        "null",
        "{}",
        r#"{"op":"compile","grammar":12345}"#,
    ];
    for case in cases {
        line.clear();
        writeln!(writer, "{case}").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            error_kind(&line),
            "bad_request",
            "for request {case}: {line}"
        );
    }

    // u64::MAX milliseconds is far-future but representable: the request
    // must simply succeed rather than trip an overflow.
    line.clear();
    writeln!(
        writer,
        r#"{{"op":"compile","grammar":"e : \"x\" ;","deadline_ms":9007199254740992}}"#
    )
    .unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");

    drop(writer);
    drop(reader);
    daemon.stop();
    daemon.join();
}

#[test]
fn empty_parse_batch_is_a_structured_bad_request() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = start_daemon();
    let (mut writer, mut reader) = raw_conn(&daemon);
    let mut line = String::new();

    // The codec accepts an empty "batch" array; the *service* refuses
    // it. Either way the caller gets a structured error, not a drop.
    writeln!(
        writer,
        r#"{{"op":"parse","grammar":"e : \"x\" ;","batch":[]}}"#
    )
    .unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(error_kind(&line), "bad_request", "{line}");
    assert!(line.contains("empty batch"), "{line}");

    // Mistyped batches are codec-level bad requests on the same
    // connection: not an array, and an array of non-strings.
    for case in [
        r#"{"op":"parse","grammar":"e : \"x\" ;","batch":"x"}"#,
        r#"{"op":"parse","grammar":"e : \"x\" ;","batch":[42]}"#,
        r#"{"op":"parse","grammar":"e : \"x\" ;"}"#,
        r#"{"op":"parse","batch":["x"],"fingerprint":"nope"}"#,
    ] {
        line.clear();
        writeln!(writer, "{case}").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(error_kind(&line), "bad_request", "for {case}: {line}");
    }

    // The connection still serves a well-formed batch afterwards.
    line.clear();
    writeln!(
        writer,
        r#"{{"op":"parse","grammar":"e : e \"+\" t | t ; t : \"x\" ;","batch":["x + x"]}}"#
    )
    .unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");

    drop(writer);
    drop(reader);
    daemon.stop();
    daemon.join();
}

#[test]
fn oversized_document_degrades_to_a_per_document_error() {
    if !lalr_net::supported() {
        return;
    }
    // One absurd document must not fail the batch, wedge the
    // connection, or starve its well-formed neighbours.
    let daemon = start_daemon();
    let huge = "x ".repeat(300 << 10); // ~600 KiB > the 256 KiB default
    let request = Request::Parse {
        target: lalr_service::ParseTarget::Text {
            grammar: "e : e \"+\" t | t ; t : \"x\" ;".to_string(),
            format: GrammarFormat::Native,
        },
        documents: vec!["x + x".to_string(), huge, "x".to_string()],
        recover: false,
        sync: Vec::new(),
    };
    let reply = call(&daemon, &request);
    assert!(reply.is_ok(), "{}", reply.raw);
    let docs = reply
        .value
        .get("docs")
        .and_then(Value::as_arr)
        .expect("docs array")
        .to_vec();
    assert_eq!(docs.len(), 3);
    let accepted =
        |d: &Value| -> bool { d.get("accepted").and_then(Value::as_bool).unwrap_or(false) };
    assert!(accepted(&docs[0]), "{}", reply.raw);
    assert!(!accepted(&docs[1]), "oversized doc must be rejected");
    assert!(accepted(&docs[2]), "{}", reply.raw);
    let message = docs[1]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .expect("per-document error");
    assert!(message.contains("byte limit"), "{message}");

    // The daemon keeps serving after the hostile batch.
    let reply = call(&daemon, &compile_request());
    assert!(reply.is_ok(), "{}", reply.raw);
    daemon.stop();
    daemon.join();
}

/// One in-process parse batch against corpus `expr`; the per-document
/// errors, or the request-level error.
fn expr_batch(documents: &[&str], sync: &[&str]) -> Result<Vec<Option<DocError>>, String> {
    let service = Service::new(ServiceConfig::default());
    let request = Request::Parse {
        target: ParseTarget::Text {
            grammar: lalr_corpus::by_name("expr")
                .expect("in corpus")
                .source
                .to_string(),
            format: GrammarFormat::Native,
        },
        documents: documents.iter().map(|d| d.to_string()).collect(),
        recover: !sync.is_empty(),
        sync: sync.iter().map(|s| s.to_string()).collect(),
    };
    match service.call(request, None) {
        Response::Parse(summary) => Ok(summary.docs.into_iter().map(|d| d.error).collect()),
        other => Err(format!("{other:?}")),
    }
}

#[test]
fn an_end_marker_word_is_an_unknown_terminal_not_an_early_end() {
    // `$` names terminal 0, the end marker. Looked up like any other
    // word it ended the document at the `$`: `NUM $ NUM` was accepted
    // with one leaf and the last `NUM` dropped.
    let errors = expr_batch(&["NUM $ NUM", "$", "NUM + NUM"], &[]).unwrap();
    let error = errors[0].as_ref().expect("NUM $ NUM is rejected");
    assert_eq!(error.offset, 1);
    assert_eq!(error.message, "unknown terminal \"$\"");
    assert_eq!(error.found.as_deref(), Some("$"));
    assert_eq!(errors[1].as_ref().map(|e| e.offset), Some(0));
    assert!(errors[2].is_none(), "{errors:?}");
    // A `$` recovery sync name is unknown too.
    let err = expr_batch(&["NUM"], &["$"]).unwrap_err();
    assert!(err.contains("unknown sync terminal"), "{err}");
}

#[test]
fn end_of_input_errors_point_past_the_last_word_by_its_length() {
    // Token offsets are word indices; at end of input the offset is the
    // last word's index plus that word's byte length.
    let errors = expr_batch(&["( NUM", "NUM * ( NUM", "NUM +"], &[]).unwrap();
    let offsets: Vec<Option<u64>> = errors
        .iter()
        .map(|e| e.as_ref().map(|e| e.offset))
        .collect();
    assert_eq!(offsets, [Some(4), Some(6), Some(2)]);
    for e in errors.iter().flatten() {
        assert_eq!(e.found, None, "{e:?}");
        assert!(
            e.message.starts_with("unexpected end of input at offset"),
            "{e:?}"
        );
    }
}

#[test]
fn injected_read_garbage_is_a_bad_request_and_the_connection_survives() {
    if !lalr_net::supported() {
        return;
    }
    // The daemon.read Garbage failpoint corrupts the *first* request
    // line as if the transport had scrambled it; the daemon answers
    // bad_request and the same connection then serves the clean retry.
    let faults = FaultPlan::new(11)
        .rule("daemon.read", Fault::Garbage, Trigger::OnHits(vec![1]))
        .build();
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        faults: faults.clone(),
        ..DaemonConfig::default()
    };
    let daemon = EventDaemon::start(config, 1).unwrap();
    let (mut writer, mut reader) = raw_conn(&daemon);
    let request_line = lalr_service::protocol::request_to_line(&compile_request(), None);

    let mut line = String::new();
    writeln!(writer, "{request_line}").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(error_kind(&line), "bad_request", "{line}");

    line.clear();
    writeln!(writer, "{request_line}").unwrap();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{line}");

    assert_eq!(faults.injected_at("daemon.read"), 1);
    drop(writer);
    drop(reader);
    daemon.stop();
    daemon.join();
}

/// Set in the child process that
/// `a_table_that_reduces_forever_is_refused_and_the_daemon_survives`
/// starts.
const REDUCE_LOOP_CHILD: &str = "LALR_HOSTILE_REDUCE_LOOP_CHILD";

/// A parse against a table the parser would reduce forever on gets a
/// structured error and the daemon keeps serving. The daemon runs in a
/// child process capped at 1.5 GB of address space, so a daemon that
/// did reduce forever would abort there, failing this test, rather than
/// take the host's memory.
#[test]
fn a_table_that_reduces_forever_is_refused_and_the_daemon_survives() {
    if !lalr_net::supported() {
        return;
    }
    if std::env::var_os(REDUCE_LOOP_CHILD).is_some() {
        return refuse_reduce_loops_in_a_daemon();
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 1500000 && exec \"$0\" --exact \"$1\" --nocapture --test-threads 1")
        .arg(exe)
        .arg("a_table_that_reduces_forever_is_refused_and_the_daemon_survives")
        .env(REDUCE_LOOP_CHILD, "1")
        .output()
        .expect("run the child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed: {stdout}\n{stderr}");
    assert!(stdout.contains("1 passed"), "{stdout}");
}

fn refuse_reduce_loops_in_a_daemon() {
    use lalr_corpus::synthetic::{random, RandomConfig};
    let daemon = start_daemon();
    // perfbench's random9: `n6 : n6 ;` reduces forever on `t33`.
    let random9 = random(
        9,
        RandomConfig {
            nonterminals: 10,
            terminals: 300,
            productions: 150,
            max_rhs: 4,
            epsilon_prob: 0.1,
        },
    )
    .to_string();
    // Cycle-free: precedence keeps the empty reduction over shifting "b".
    let kept_empty = "%left \"b\" %left HIGH s : a s \"c\" | \"b\" ; a : %prec HIGH ;";
    // Only recovery reaches the loop: "u v u t" errs at the second "u",
    // pops back to the state that shifted "v", skips to "t", and would
    // reduce `n : n` there forever.
    let recovery_only =
        "%start s0 n : n | \"u\" ; s0 : z \"t\" | w | y ; z : n ; w : n \"v\" ; y : \"u\" \"t\" ;";
    for (grammar, doc, sync) in [
        (random9.as_str(), "t33", &[][..]),
        (kept_empty, "b c", &[]),
        (recovery_only, "u v u t", &["v", "t"]),
    ] {
        let compile = Request::Compile {
            grammar: grammar.to_string(),
            format: GrammarFormat::Native,
        };
        let reply = call(&daemon, &compile);
        assert!(reply.is_ok(), "{}", reply.raw);
        for recover in [false, true] {
            let parse = Request::Parse {
                target: ParseTarget::Text {
                    grammar: grammar.to_string(),
                    format: GrammarFormat::Native,
                },
                documents: vec![doc.to_string()],
                recover,
                sync: sync.iter().map(|t| t.to_string()).collect(),
            };
            let reply = call(&daemon, &parse);
            assert_eq!(reply.error_kind(), Some("bad_grammar"), "{}", reply.raw);
            let message = reply.error_message().unwrap_or_default();
            assert!(message.contains("reduces forever"), "{}", reply.raw);
        }
    }
    // Still serving.
    let parse = Request::Parse {
        target: ParseTarget::Text {
            grammar: GRAMMAR.to_string(),
            format: GrammarFormat::Native,
        },
        documents: vec!["x + x".to_string()],
        recover: false,
        sync: Vec::new(),
    };
    let reply = call(&daemon, &parse);
    assert!(reply.is_ok(), "{}", reply.raw);
    daemon.stop();
    daemon.join();
}
