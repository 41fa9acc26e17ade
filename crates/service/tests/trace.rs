//! The `trace` op end to end: flight-recorder dumps over the wire,
//! per-stage breakdowns on slow requests, hostile filter handling, the
//! zero-observable-difference guarantee when tracing is armed, and the
//! stats/metrics consistency of the per-shard telemetry.
//!
//! Every daemon test is gated on `lalr_net::supported()`: the daemon
//! needs the raw epoll backend.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use lalr_chaos::{Fault, FaultPlan, Trigger};
use lalr_service::client::{self, ClientReply};
use lalr_service::{
    DaemonConfig, EventDaemon, GrammarFormat, ParseTarget, Request, TraceConfig, TraceFilter,
};

use serde_json::Value;

const GRAMMAR: &str = "e : e \"+\" t | t ; t : \"x\" ;";

fn compile_request() -> Request {
    Request::Compile {
        grammar: GRAMMAR.to_string(),
        format: GrammarFormat::Native,
    }
}

fn traced_config() -> DaemonConfig {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        ..DaemonConfig::default()
    };
    config.service.tracing = Some(TraceConfig::default());
    config
}

fn call(addr: &str, request: &Request) -> ClientReply {
    client::call(addr, request, None, Duration::from_secs(30)).expect("daemon reachable")
}

/// Sends raw request lines over one connection and returns the raw
/// response lines, exercising the strict per-connection serialization.
fn raw_lines(addr: &str, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        writeln!(stream, "{line}").expect("write request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        out.push(response.trim_end().to_string());
    }
    out
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

#[test]
fn slow_request_stage_breakdown_sums_to_its_total_latency() {
    if !lalr_net::supported() {
        return;
    }
    // A 40ms injected stall inside artifact resolution makes the
    // request decisively slower than any untraced bookkeeping, so the
    // recorded stages must account for (almost) all of the total.
    let mut config = traced_config();
    config.service.faults = FaultPlan::new(7)
        .rule("service.compile", Fault::Delay(40), Trigger::EveryNth(1))
        .build();
    let daemon = EventDaemon::start(config, 1).expect("bind loopback");
    let addr = daemon.addr().to_string();

    assert!(call(&addr, &compile_request()).is_ok());

    let reply = call(&addr, &Request::Trace(TraceFilter::default()));
    assert!(reply.is_ok(), "{}", reply.raw);
    assert_eq!(reply.value.get("enabled"), Some(&Value::Bool(true)));
    let traces = reply
        .value
        .get("traces")
        .and_then(Value::as_arr)
        .expect("traces array");
    let compile = traces
        .iter()
        .find(|t| t.get("op").and_then(Value::as_str) == Some("compile"))
        .expect("the compile was sampled");
    let total = u64_field(compile, "total_us");
    let sum = u64_field(compile, "stage_sum_us");
    assert!(total >= 40_000, "injected 40ms stall: total={total}us");
    assert!(
        sum as f64 >= total as f64 * 0.95 && sum <= total,
        "stage sum {sum}us must be within 5% of total {total}us"
    );
    // The stall sits inside resolution but outside the pipeline run, so
    // it lands in the cache stage; the write stage was measured too.
    let stages = compile.get("stages_us").expect("stages object");
    assert!(u64_field(stages, "cache") >= 40_000, "{stages:?}");

    // Filters compose over the same snapshot: an op filter that
    // matches nothing, and a slow_us bar above the request.
    let reply = call(
        &addr,
        &Request::Trace(TraceFilter {
            op: Some("parse".to_string()),
            ..TraceFilter::default()
        }),
    );
    assert_eq!(
        reply
            .value
            .get("traces")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(0)
    );
    let reply = call(
        &addr,
        &Request::Trace(TraceFilter {
            slow_us: Some(30_000),
            ..TraceFilter::default()
        }),
    );
    let slow = reply.value.get("traces").and_then(Value::as_arr).unwrap();
    assert!(
        slow.iter().all(|t| u64_field(t, "total_us") >= 30_000) && !slow.is_empty(),
        "{slow:?}"
    );

    call(&addr, &Request::Shutdown);
    daemon.join();
}

#[test]
fn hostile_trace_filters_get_structured_errors_over_the_wire() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = EventDaemon::start(traced_config(), 1).expect("bind loopback");
    let addr = daemon.addr().to_string();

    let responses = raw_lines(
        &addr,
        &[
            // Wrong types and negatives: structured errors, not closes.
            "{\"op\":\"trace\",\"op_filter\":42}",
            "{\"op\":\"trace\",\"errors_only\":\"yes\"}",
            "{\"op\":\"trace\",\"slow_us\":-5}",
            "{\"op\":\"trace\",\"limit\":\"all\"}",
            "{\"op\":\"trace\",\"op_filter\":\"frobnicate\"}",
            // u64::MAX overflows the wire format's exact-integer range
            // (2^53): a structured rejection, not a panic or a close.
            "{\"op\":\"trace\",\"slow_us\":18446744073709551615}",
            // The largest exactly-representable bar is accepted and
            // simply matches nothing.
            "{\"op\":\"trace\",\"slow_us\":4503599627370496}",
            // The connection survived all of the above.
            "{\"op\":\"stats\"}",
        ],
    );
    for bad in &responses[..6] {
        assert!(bad.contains("\"ok\":false"), "{responses:#?}");
        assert!(bad.contains("bad_request"), "{responses:#?}");
    }
    assert!(responses[4].contains("unknown op filter"), "{responses:#?}");
    assert!(responses[6].contains("\"ok\":true"), "{}", responses[6]);
    assert!(responses[6].contains("\"traces\":[]"), "{}", responses[6]);
    assert!(responses[7].contains("\"ok\":true"), "{}", responses[7]);

    call(&addr, &Request::Shutdown);
    daemon.join();
}

#[test]
fn trace_on_a_disabled_recorder_reports_disabled_not_error() {
    if !lalr_net::supported() {
        return;
    }
    // Library-default config: no tracing. The op still answers (so
    // `lalrgen trace` can explain itself) but validates filters first.
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            ..DaemonConfig::default()
        },
        1,
    )
    .expect("bind loopback");
    let addr = daemon.addr().to_string();

    let reply = call(&addr, &Request::Trace(TraceFilter::default()));
    assert!(reply.is_ok(), "{}", reply.raw);
    assert_eq!(reply.value.get("enabled"), Some(&Value::Bool(false)));
    assert_eq!(u64_field(&reply.value, "capacity"), 0);

    // Filter validation happens before the disabled check: a bogus op
    // name is a client mistake whether or not the recorder is armed.
    let reply = call(
        &addr,
        &Request::Trace(TraceFilter {
            op: Some("frobnicate".to_string()),
            ..TraceFilter::default()
        }),
    );
    assert!(!reply.is_ok());
    assert!(reply.raw.contains("unknown op filter"), "{}", reply.raw);

    call(&addr, &Request::Shutdown);
    daemon.join();
}

#[test]
fn traced_and_untraced_daemons_answer_byte_identically() {
    if !lalr_net::supported() {
        return;
    }
    // Arming the flight recorder must be invisible on the wire: every
    // response byte-identical to an untraced daemon's.
    let requests: Vec<String> = vec![
        lalr_service::protocol::request_to_line(&compile_request(), None),
        lalr_service::protocol::request_to_line(
            &Request::Classify {
                grammar: GRAMMAR.to_string(),
                format: GrammarFormat::Native,
            },
            None,
        ),
        lalr_service::protocol::request_to_line(
            &Request::Table {
                grammar: GRAMMAR.to_string(),
                format: GrammarFormat::Native,
                compressed: true,
            },
            None,
        ),
        lalr_service::protocol::request_to_line(
            &Request::Parse {
                target: ParseTarget::Text {
                    grammar: GRAMMAR.to_string(),
                    format: GrammarFormat::Native,
                },
                documents: vec!["x + x".to_string(), "x +".to_string()],
                recover: false,
                sync: Vec::new(),
            },
            None,
        ),
    ];
    let request_lines: Vec<&str> = requests.iter().map(String::as_str).collect();

    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for traced in [false, true] {
        let config = if traced {
            traced_config()
        } else {
            DaemonConfig {
                addr: "127.0.0.1:0".to_string(),
                ..DaemonConfig::default()
            }
        };
        let daemon = EventDaemon::start(config, 2).expect("bind loopback");
        let addr = daemon.addr().to_string();
        transcripts.push(raw_lines(&addr, &request_lines));
        call(&addr, &Request::Shutdown);
        daemon.join();
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "tracing must not change a single response byte"
    );
}

#[test]
fn shard_counters_in_stats_agree_with_the_metrics_exposition() {
    if !lalr_net::supported() {
        return;
    }
    let daemon = EventDaemon::start(traced_config(), 2).expect("bind loopback");
    let addr = daemon.addr().to_string();
    assert!(call(&addr, &compile_request()).is_ok());

    // Both snapshots over ONE connection, so no accept lands between
    // them and the per-shard counters must agree exactly.
    let responses = raw_lines(&addr, &["{\"op\":\"stats\"}", "{\"op\":\"metrics\"}"]);
    let stats: Value = serde_json::from_str(&responses[0]).expect("stats parses");
    let metrics: Value = serde_json::from_str(&responses[1]).expect("metrics parses");
    let text = metrics
        .get("text")
        .and_then(Value::as_str)
        .expect("exposition text");

    let shards = stats
        .get("shards")
        .and_then(Value::as_arr)
        .expect("shards section");
    assert_eq!(shards.len(), 2);
    let accepts_total: u64 = shards.iter().map(|s| u64_field(s, "accepts")).sum();
    let connections_total: u64 = shards.iter().map(|s| u64_field(s, "connections")).sum();
    // Two connections so far (the compile's and this one), one still
    // open — exact equality because accepts increment at install time,
    // strictly before any request on that connection executes.
    assert_eq!(accepts_total, 2, "{shards:?}");
    assert_eq!(connections_total, 1, "{shards:?}");

    for shard in shards {
        let idx = u64_field(shard, "shard");
        for (stat_key, family) in [
            ("accepts", "lalr_shard_accepts_total"),
            ("connections", "lalr_shard_connections"),
            ("timer_fires", "lalr_shard_timer_fires_total"),
        ] {
            let sample = format!("{family}{{shard=\"{idx}\"}} {}", u64_field(shard, stat_key));
            assert!(text.contains(&sample), "missing {sample:?} in:\n{text}");
        }
    }
    // Cumulative families only move forward between the two snapshots.
    for shard in shards {
        let idx = u64_field(shard, "shard");
        let prefix = format!("lalr_shard_epoll_waits_total{{shard=\"{idx}\"}} ");
        let exposed: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .expect("epoll_waits sample")
            .parse()
            .expect("integer sample");
        assert!(exposed >= u64_field(shard, "epoll_waits"), "{text}");
    }
    // The tracing families render because the recorder is armed.
    assert!(
        text.contains("lalr_stage_seconds_total{stage=\"compile\"}"),
        "{text}"
    );
    assert!(text.contains("lalr_traces_sampled_total"), "{text}");
    assert!(text.contains("lalr_build_info{"), "{text}");

    call(&addr, &Request::Shutdown);
    daemon.join();
}
