//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Requests are objects
//! with an `"op"` discriminator; responses carry `"ok"` plus either the
//! op's payload or an `"error"` object. Serialization is key-sorted
//! (see the vendored `serde_json` shim), so equal responses are equal
//! byte strings — the property the soak test's differential comparison
//! uses.
//!
//! ```text
//! → {"op":"compile","grammar":"e : \"x\" ;"}
//! ← {"class":"LR(0)","fingerprint":"…","ok":true,"op":"compile",…}
//! → {"op":"parse","grammar":"…","batch":["NUM + NUM","NUM +"],"deadline_ms":500}
//! ← {"cached":false,"docs":[{"accepted":true,…},{"accepted":false,…}],"fingerprint":"…","ok":true,"op":"parse"}
//! → {"op":"parse","fingerprint":"8f3a…","batch":["NUM"]}
//! ← {"cached":true,"docs":[{"accepted":true,…}],"fingerprint":"8f3a…","ok":true,"op":"parse"}
//! ```
//!
//! A parse request names its artifact by `"grammar"` text or by the
//! `"fingerprint"` a prior compile reported; `"batch"` carries the
//! documents (a lone `"input"` string is accepted as a batch of one).

use std::time::Duration;

use serde_json::{object, Value};

use crate::artifact::GrammarFormat;
use crate::error::ServiceError;
use crate::fingerprint::{format_fingerprint, parse_fingerprint};
use crate::service::{
    AdmissionRejects, DocVerdict, HealthReport, ParseBatchSummary, ParseTarget, Request, Response,
    StatsSnapshot, TraceDump, TraceFilter,
};

/// Encodes a request (plus optional per-request deadline) as one JSON
/// value.
pub fn request_to_value(request: &Request, deadline: Option<Duration>) -> Value {
    let mut pairs: Vec<(&'static str, Value)> = vec![("op", request.op().into())];
    let format_pair = |format: &GrammarFormat| -> Option<(&'static str, Value)> {
        matches!(format, GrammarFormat::Yacc).then_some(("yacc", Value::Bool(true)))
    };
    match request {
        Request::Compile { grammar, format } | Request::Classify { grammar, format } => {
            pairs.push(("grammar", grammar.as_str().into()));
            pairs.extend(format_pair(format));
        }
        Request::Table {
            grammar,
            format,
            compressed,
        } => {
            pairs.push(("grammar", grammar.as_str().into()));
            pairs.extend(format_pair(format));
            if *compressed {
                pairs.push(("compressed", Value::Bool(true)));
            }
        }
        Request::Parse {
            target,
            documents,
            recover,
            sync,
        } => {
            match target {
                ParseTarget::Text { grammar, format } => {
                    pairs.push(("grammar", grammar.as_str().into()));
                    pairs.extend(format_pair(format));
                }
                ParseTarget::Fingerprint(fp) => {
                    pairs.push(("fingerprint", format_fingerprint(*fp).into()));
                }
            }
            pairs.push((
                "batch",
                Value::Arr(documents.iter().map(|d| d.as_str().into()).collect()),
            ));
            if *recover {
                pairs.push(("recover", Value::Bool(true)));
                if !sync.is_empty() {
                    pairs.push((
                        "sync",
                        Value::Arr(sync.iter().map(|s| s.as_str().into()).collect()),
                    ));
                }
            }
        }
        Request::Trace(filter) => {
            if let Some(op) = &filter.op {
                pairs.push(("op_filter", op.as_str().into()));
            }
            if filter.errors_only {
                pairs.push(("errors_only", Value::Bool(true)));
            }
            if let Some(slow) = filter.slow_us {
                pairs.push(("slow_us", slow.into()));
            }
            if let Some(limit) = filter.limit {
                pairs.push(("limit", limit.into()));
            }
        }
        Request::Stats | Request::Metrics | Request::Health | Request::Shutdown => {}
    }
    if let Some(d) = deadline {
        pairs.push(("deadline_ms", (d.as_millis() as u64).into()));
    }
    object(pairs)
}

/// Decodes a request line.
pub fn request_from_value(value: &Value) -> Result<(Request, Option<Duration>), ServiceError> {
    let bad = |m: &str| ServiceError::BadRequest(m.to_string());
    let obj = value
        .as_obj()
        .ok_or_else(|| bad("request must be an object"))?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing string field \"op\""))?;
    let grammar = || -> Result<String, ServiceError> {
        Ok(value
            .get("grammar")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing string field \"grammar\""))?
            .to_string())
    };
    let format = if value.get("yacc").and_then(Value::as_bool).unwrap_or(false) {
        GrammarFormat::Yacc
    } else {
        GrammarFormat::Native
    };
    let request = match op {
        "compile" => Request::Compile {
            grammar: grammar()?,
            format,
        },
        "classify" => Request::Classify {
            grammar: grammar()?,
            format,
        },
        "table" => Request::Table {
            grammar: grammar()?,
            format,
            compressed: value
                .get("compressed")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        },
        "parse" => {
            let target = if value.get("grammar").is_some() {
                ParseTarget::Text {
                    grammar: grammar()?,
                    format,
                }
            } else if let Some(v) = value.get("fingerprint") {
                let hex = v
                    .as_str()
                    .ok_or_else(|| bad("\"fingerprint\" must be a hex string"))?;
                ParseTarget::Fingerprint(
                    parse_fingerprint(hex)
                        .ok_or_else(|| bad("\"fingerprint\" must be 16 lowercase hex digits"))?,
                )
            } else {
                return Err(bad("missing field \"grammar\" or \"fingerprint\""));
            };
            let documents = if let Some(batch) = value.get("batch") {
                let items = batch
                    .as_arr()
                    .ok_or_else(|| bad("\"batch\" must be an array of strings"))?;
                items
                    .iter()
                    .map(|d| {
                        d.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("\"batch\" must be an array of strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            } else if let Some(input) = value.get("input").and_then(Value::as_str) {
                // Back-compat: a single document travels as "input".
                vec![input.to_string()]
            } else {
                return Err(bad("missing field \"batch\" or \"input\""));
            };
            let recover = value
                .get("recover")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let sync = match value.get("sync") {
                None => Vec::new(),
                Some(v) => v
                    .as_arr()
                    .ok_or_else(|| bad("\"sync\" must be an array of terminal names"))?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("\"sync\" must be an array of terminal names"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            Request::Parse {
                target,
                documents,
                recover,
                sync,
            }
        }
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "trace" => {
            let op_filter = match value.get("op_filter") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| bad("\"op_filter\" must be an op name string"))?
                        .to_string(),
                ),
            };
            let errors_only = match value.get("errors_only") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| bad("\"errors_only\" must be a boolean"))?,
            };
            let slow_us = match value.get("slow_us") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| bad("\"slow_us\" must be a non-negative integer"))?,
                ),
            };
            let limit = match value.get("limit") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| bad("\"limit\" must be a non-negative integer"))?
                        as usize,
                ),
            };
            Request::Trace(TraceFilter {
                op: op_filter,
                errors_only,
                slow_us,
                limit,
            })
        }
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(ServiceError::BadRequest(format!(
                "unknown op {other:?} (available: compile, classify, table, parse, stats, \
                 metrics, trace, health, shutdown)"
            )))
        }
    };
    let deadline = match obj.get("deadline_ms") {
        None => None,
        Some(v) => {
            Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                bad("\"deadline_ms\" must be a non-negative integer")
            })?))
        }
    };
    Ok((request, deadline))
}

/// Encodes a response as one JSON value.
pub fn response_to_value(response: &Response) -> Value {
    match response {
        Response::Compile(c) => object([
            ("ok", Value::Bool(true)),
            ("op", "compile".into()),
            ("fingerprint", c.fingerprint.as_str().into()),
            ("cached", Value::Bool(c.cached)),
            ("states", c.states.into()),
            ("productions", c.productions.into()),
            ("terminals", c.terminals.into()),
            ("conflicts", c.conflicts.into()),
            ("class", c.class.as_str().into()),
            ("bytes", c.bytes.into()),
            (
                "relations",
                object([
                    ("nt_transitions", c.relations.nt_transitions.into()),
                    ("reads_edges", c.relations.reads_edges.into()),
                    ("includes_edges", c.relations.includes_edges.into()),
                    ("lookback_edges", c.relations.lookback_edges.into()),
                ]),
            ),
            (
                "reads",
                object([
                    ("sccs", c.reads.scc_count.into()),
                    ("nontrivial_sccs", c.reads.nontrivial_sccs.into()),
                    ("max_scc", c.reads.max_scc_size.into()),
                    ("cyclic_nodes", c.reads.cyclic_nodes.into()),
                ]),
            ),
            (
                "includes",
                object([
                    ("sccs", c.includes.scc_count.into()),
                    ("nontrivial_sccs", c.includes.nontrivial_sccs.into()),
                    ("max_scc", c.includes.max_scc_size.into()),
                    ("cyclic_nodes", c.includes.cyclic_nodes.into()),
                ]),
            ),
        ]),
        Response::Classify(c) => object([
            ("ok", Value::Bool(true)),
            ("op", "classify".into()),
            ("class", c.class.as_str().into()),
            ("lr0_conflicts", c.lr0_conflicts.into()),
            ("slr_conflicts", c.slr_conflicts.into()),
            ("nqlalr_conflicts", c.nqlalr_conflicts.into()),
            ("lalr_conflicts", c.lalr_conflicts.into()),
            ("lr1_conflicts", c.lr1_conflicts.into()),
            ("not_lr_k", Value::Bool(c.not_lr_k)),
        ]),
        Response::Table(t) => {
            let mut pairs = vec![
                ("ok", Value::Bool(true)),
                ("op", "table".into()),
                ("text", t.text.as_str().into()),
                ("resolutions", t.resolutions.into()),
                ("action_entries", t.action_entries.into()),
            ];
            if let Some(n) = t.compressed_entries {
                pairs.push(("compressed_entries", n.into()));
            }
            object(pairs)
        }
        Response::Parse(p) => parse_to_value(
            p,
            p.docs
                .iter()
                .map(|v| verdict_to_value(v, v.tree.as_deref().map(Value::from)))
                .collect(),
        ),
        Response::Stats(s) => stats_to_value(s),
        Response::Metrics(text) => object([
            ("ok", Value::Bool(true)),
            ("op", "metrics".into()),
            ("text", text.as_str().into()),
        ]),
        Response::Trace(dump) => trace_to_value(dump),
        Response::Health(h) => health_to_value(h),
        Response::Shutdown => object([("ok", Value::Bool(true)), ("op", "shutdown".into())]),
        Response::Error(e) => object([
            ("ok", Value::Bool(false)),
            ("op", "error".into()),
            (
                "error",
                object([("kind", e.kind().into()), ("message", e.to_string().into())]),
            ),
        ]),
    }
}

/// Encodes a parse reply around its already encoded verdicts.
fn parse_to_value(p: &ParseBatchSummary, docs: Vec<Value>) -> Value {
    object([
        ("ok", Value::Bool(true)),
        ("op", "parse".into()),
        ("fingerprint", p.fingerprint.as_str().into()),
        ("cached", Value::Bool(p.cached)),
        ("docs", Value::Arr(docs)),
    ])
}

/// Encodes one per-document verdict; `tree` is its tree, copied or moved
/// out of the verdict by the caller.
fn verdict_to_value(v: &DocVerdict, tree: Option<Value>) -> Value {
    let mut pairs = vec![
        ("accepted", Value::Bool(v.accepted)),
        ("leaves", v.leaves.into()),
        ("nodes", v.nodes.into()),
    ];
    if let Some(tree) = tree {
        pairs.push(("tree", tree));
    }
    if let Some(e) = &v.error {
        let mut err_pairs = vec![
            ("message", e.message.as_str().into()),
            ("offset", e.offset.into()),
            (
                "expected",
                Value::Arr(e.expected.iter().map(|t| t.as_str().into()).collect()),
            ),
        ];
        if let Some(found) = &e.found {
            err_pairs.push(("found", found.as_str().into()));
        }
        pairs.push(("error", object(err_pairs)));
    }
    if v.error_count > 0 {
        pairs.push(("errors", v.error_count.into()));
    }
    object(pairs)
}

/// Encodes a flight-recorder dump: recorder configuration plus one
/// object per trace, stages keyed by [`lalr_obs::STAGE_NAMES`].
fn trace_to_value(dump: &TraceDump) -> Value {
    let traces = dump
        .traces
        .iter()
        .map(|t| {
            let stages = Value::Obj(
                lalr_obs::STAGE_NAMES
                    .iter()
                    .zip(&t.stages_us)
                    .map(|(name, &us)| (name.to_string(), us.into()))
                    .collect(),
            );
            object([
                ("id", t.id.into()),
                (
                    "op",
                    crate::service::OPS
                        .get(t.op as usize)
                        .copied()
                        .unwrap_or("unknown")
                        .into(),
                ),
                ("shard", u64::from(t.shard).into()),
                ("error", Value::Bool(t.error)),
                ("total_us", t.total_us.into()),
                ("stage_sum_us", t.stage_sum_us().into()),
                ("stages_us", stages),
            ])
        })
        .collect();
    object([
        ("ok", Value::Bool(true)),
        ("op", "trace".into()),
        ("enabled", Value::Bool(dump.enabled)),
        ("capacity", dump.capacity.into()),
        ("sample_every", dump.sample_every.into()),
        ("recorded", dump.recorded.into()),
        ("traces", Value::Arr(traces)),
    ])
}

/// Encodes the per-reason admission-rejection counters.
fn rejects_to_value(r: &AdmissionRejects) -> Value {
    object([
        ("conn_cap", r.conn_cap.into()),
        ("peer_quota", r.peer_quota.into()),
        ("rate_limit", r.rate_limit.into()),
        ("slow_client", r.slow_client.into()),
        ("failpoint", r.failpoint.into()),
        ("total", r.total().into()),
    ])
}

/// Encodes the `health` op's answer.
fn health_to_value(h: &HealthReport) -> Value {
    object([
        ("ok", Value::Bool(true)),
        ("op", "health".into()),
        ("state", h.state.as_str().into()),
        ("queue_depth", h.queue_depth.into()),
        ("queue_limit", h.queue_limit.into()),
        ("shed", h.shed.into()),
        ("degraded_transitions", h.degraded_transitions.into()),
        ("shard_restarts", h.shard_restarts.into()),
        (
            "max_connections_per_peer",
            h.max_connections_per_peer.into(),
        ),
        ("rate_limit_per_sec", h.rate_limit_per_sec.into()),
        ("admission_rejects", rejects_to_value(&h.admission_rejects)),
    ])
}

fn stats_to_value(s: &StatsSnapshot) -> Value {
    let op_counts = |counts: &[u64; 9]| {
        Value::Obj(
            crate::service::OPS
                .iter()
                .zip(counts)
                .map(|(name, &n)| (name.to_string(), n.into()))
                .collect(),
        )
    };
    let latency = Value::Arr(s.latency_buckets.iter().map(|&n| n.into()).collect());
    let phases = Value::Obj(
        crate::service::PHASE_NAMES
            .iter()
            .zip(s.phase_calls.iter().zip(&s.phase_ns))
            .map(|(name, (&calls, &ns))| {
                (
                    name.to_string(),
                    object([("calls", calls.into()), ("total_us", (ns / 1_000).into())]),
                )
            })
            .collect(),
    );
    let mut pairs = vec![
        ("ok", Value::Bool(true)),
        ("op", "stats".into()),
        ("requests", s.requests.into()),
        ("errors", s.errors.into()),
        ("deadline_exceeded", s.deadline_exceeded.into()),
        ("by_op", op_counts(&s.by_op)),
        ("errors_by_op", op_counts(&s.errors_by_op)),
        ("latency_buckets", latency),
        ("phases", phases),
        (
            "parse_lane",
            object([
                ("batches", s.parse.batches.into()),
                ("documents", s.parse.documents.into()),
                ("accepted", s.parse.accepted.into()),
                ("rejected", s.parse.rejected.into()),
                ("resolutions", s.parse.resolutions.into()),
            ]),
        ),
        ("shed", s.shed.into()),
        ("queue_depth", s.queue_depth.into()),
        ("queue_limit", s.queue_limit.into()),
        ("workers", s.workers.into()),
        ("uptime_ms", s.uptime_ms.into()),
        (
            "health",
            object([
                ("state", s.health.state.as_str().into()),
                ("degraded_transitions", s.health.degraded_transitions.into()),
                ("shard_restarts", s.health.shard_restarts.into()),
                (
                    "max_connections_per_peer",
                    s.health.max_connections_per_peer.into(),
                ),
                ("rate_limit_per_sec", s.health.rate_limit_per_sec.into()),
                ("admission_rejects", rejects_to_value(&s.health.admission)),
            ]),
        ),
    ];
    if !s.shards.is_empty() {
        pairs.push((
            "shards",
            Value::Arr(
                s.shards
                    .iter()
                    .map(|sh| {
                        object([
                            ("shard", sh.shard.into()),
                            ("epoll_waits", sh.epoll_waits.into()),
                            ("epoll_wait_us", sh.epoll_wait_us.into()),
                            ("events", sh.events.into()),
                            ("accepts", sh.accepts.into()),
                            ("inbox_items", sh.inbox_items.into()),
                            ("timer_fires", sh.timer_fires.into()),
                            ("connections", sh.connections.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if s.tracing.enabled {
        let stages = Value::Obj(
            lalr_obs::STAGE_NAMES
                .iter()
                .zip(&s.tracing.stage_ns)
                .map(|(name, &ns)| (name.to_string(), (ns / 1_000).into()))
                .collect(),
        );
        pairs.push((
            "tracing",
            object([
                ("enabled", Value::Bool(true)),
                ("capacity", s.tracing.capacity.into()),
                ("sample_every", s.tracing.sample_every.into()),
                ("sampled", s.tracing.sampled.into()),
                ("stage_us", stages),
            ]),
        ));
    }
    if !s.faults.is_empty() {
        pairs.push((
            "faults",
            Value::Arr(
                s.faults
                    .iter()
                    .map(|f| {
                        object([
                            ("point", f.point.as_str().into()),
                            ("fault", f.fault.as_str().into()),
                            ("hits", f.hits.into()),
                            ("injected", f.injected.into()),
                            ("expected", f.expected.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(c) = &s.cache {
        pairs.push((
            "cache",
            object([
                ("hits", c.hits.into()),
                ("misses", c.misses.into()),
                ("coalesced", c.coalesced.into()),
                ("evictions", c.evictions.into()),
                ("compiles", c.compiles.into()),
                ("store_hits", c.store_hits.into()),
                ("store_misses", c.store_misses.into()),
                ("store_writes", c.store_writes.into()),
                ("store_corrupt", c.store_corrupt.into()),
                ("entries", c.entries.into()),
                ("bytes", c.bytes.into()),
                ("hit_rate", c.hit_rate().into()),
            ]),
        ));
    }
    object(pairs)
}

/// Encodes a response as one protocol line (no trailing newline).
pub fn response_to_line(response: &Response) -> String {
    response_to_value(response).to_string()
}

/// Encodes a response as one protocol line, byte-identical to
/// [`response_to_line`], consuming it. A parse reply is written straight
/// into one `String` sized up front, with room left for the framing
/// newline, and each verdict's tree is dropped as soon as it is copied;
/// no [`Value`] tree is built. Other replies go through
/// [`response_to_line`].
pub fn response_into_line(response: Response) -> String {
    match response {
        Response::Parse(p) => parse_into_line(p),
        other => response_to_line(&other),
    }
}

/// The direct writer behind [`response_into_line`] for parse replies.
/// Keys are written in the sorted order the shim's objects serialize in.
fn parse_into_line(p: ParseBatchSummary) -> String {
    let mut out = String::with_capacity(parse_line_capacity(&p));
    out.push_str("{\"cached\":");
    out.push_str(if p.cached { "true" } else { "false" });
    out.push_str(",\"docs\":[");
    for (i, v) in p.docs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"accepted\":");
        out.push_str(if v.accepted { "true" } else { "false" });
        if let Some(e) = &v.error {
            out.push_str(",\"error\":{\"expected\":[");
            for (j, name) in e.expected.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_escaped(&mut out, name);
            }
            out.push(']');
            if let Some(found) = &e.found {
                out.push_str(",\"found\":");
                push_escaped(&mut out, found);
            }
            out.push_str(",\"message\":");
            push_escaped(&mut out, &e.message);
            out.push_str(",\"offset\":");
            push_u64(&mut out, e.offset);
            out.push('}');
        }
        if v.error_count > 0 {
            out.push_str(",\"errors\":");
            push_u64(&mut out, v.error_count);
        }
        out.push_str(",\"leaves\":");
        push_u64(&mut out, v.leaves);
        out.push_str(",\"nodes\":");
        push_u64(&mut out, v.nodes);
        if let Some(tree) = v.tree {
            out.push_str(",\"tree\":");
            push_escaped(&mut out, &tree);
        }
        out.push('}');
    }
    out.push_str("],\"fingerprint\":");
    push_escaped(&mut out, &p.fingerprint);
    out.push_str(",\"ok\":true,\"op\":\"parse\"}");
    out
}

/// The bytes a parse reply needs when none of its strings has a byte to
/// escape, plus one for the framing newline. Counts are budgeted at their
/// widest, 20 digits.
fn parse_line_capacity(p: &ParseBatchSummary) -> usize {
    // `{"cached":false,"docs":[` … `],"fingerprint":"",` … `}` and `\n`.
    const REPLY: usize = 64;
    // `{"accepted":false,"leaves":,"nodes":,"tree":""},` and two counts.
    const VERDICT: usize = 48 + 2 * 20;
    // `,"error":{"expected":[],"found":"","message":"","offset":}` and
    // `,"errors":` with their counts.
    const ERROR: usize = 72 + 2 * 20;
    p.docs.iter().fold(REPLY + p.fingerprint.len(), |n, v| {
        let tree = v.tree.as_ref().map_or(0, String::len);
        let error = v.error.as_ref().map_or(0, |e| {
            let expected: usize = e.expected.iter().map(|t| t.len() + 3).sum();
            ERROR + expected + e.found.as_ref().map_or(0, String::len) + e.message.len()
        });
        n + VERDICT + tree + error
    })
}

/// Appends `n` as the shim writes a `u64` it holds as `f64`: rounded to
/// `f64`, then digits up to 2^53 and exponent form past it.
fn push_u64(out: &mut String, n: u64) {
    use std::fmt::Write;
    let f = n as f64;
    if f <= (1u64 << 53) as f64 {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = f as u64;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
    } else {
        let _ = write!(out, "{f:e}");
    }
}

/// Appends `s` as a JSON string literal, byte-identical to the shim's
/// escaper: each run of bytes that needs no escape is copied whole.
/// Every byte that needs one is ASCII, so the runs split `s` on char
/// boundaries.
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run..at]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Encodes a request as one protocol line (no trailing newline).
pub fn request_to_line(request: &Request, deadline: Option<Duration>) -> String {
    request_to_value(request, deadline).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(request: Request, deadline: Option<Duration>) {
        let line = request_to_line(&request, deadline);
        let value = serde_json::from_str(&line).unwrap();
        let (back, d) = request_from_value(&value).unwrap();
        assert_eq!(back, request, "{line}");
        assert_eq!(d, deadline, "{line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip(
            Request::Compile {
                grammar: "e : \"x\" ;\n// comment with \"quotes\"".to_string(),
                format: GrammarFormat::Native,
            },
            None,
        );
        round_trip(
            Request::Classify {
                grammar: "%token A\n%%\ns : A ;".to_string(),
                format: GrammarFormat::Yacc,
            },
            Some(Duration::from_millis(250)),
        );
        round_trip(
            Request::Table {
                grammar: "s : \"a\" ;".to_string(),
                format: GrammarFormat::Native,
                compressed: true,
            },
            None,
        );
        round_trip(
            Request::Parse {
                target: ParseTarget::Text {
                    grammar: "s : \"a\" ;".to_string(),
                    format: GrammarFormat::Native,
                },
                documents: vec!["a".to_string(), "a a".to_string(), String::new()],
                recover: false,
                sync: Vec::new(),
            },
            None,
        );
        round_trip(
            Request::Parse {
                target: ParseTarget::Fingerprint(0xdead_beef_0123_4567),
                documents: vec!["a".to_string()],
                recover: true,
                sync: vec![";".to_string()],
            },
            Some(Duration::from_millis(75)),
        );
        round_trip(
            Request::Parse {
                target: ParseTarget::Text {
                    grammar: "%token A\n%%\ns : A ;".to_string(),
                    format: GrammarFormat::Yacc,
                },
                documents: vec!["A \"quoted\" doc \\ with escapes".to_string()],
                recover: true,
                sync: Vec::new(),
            },
            None,
        );
        round_trip(Request::Stats, None);
        round_trip(Request::Metrics, None);
        round_trip(Request::Trace(TraceFilter::default()), None);
        round_trip(
            Request::Trace(TraceFilter {
                op: Some("compile".to_string()),
                errors_only: true,
                slow_us: Some(5_000),
                limit: Some(10),
            }),
            Some(Duration::from_millis(100)),
        );
        round_trip(Request::Health, None);
        round_trip(Request::Shutdown, None);
    }

    #[test]
    fn health_responses_render_state_quotas_and_rejects() {
        let r = Response::Health(HealthReport {
            state: "degraded".to_string(),
            queue_depth: 3,
            queue_limit: 4,
            shed: 9,
            degraded_transitions: 1,
            shard_restarts: 2,
            max_connections_per_peer: 8,
            rate_limit_per_sec: 100,
            admission_rejects: AdmissionRejects {
                conn_cap: 1,
                peer_quota: 2,
                rate_limit: 3,
                slow_client: 4,
                failpoint: 5,
            },
        });
        let line = response_to_line(&r);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("op").and_then(Value::as_str), Some("health"));
        assert_eq!(v.get("state").and_then(Value::as_str), Some("degraded"));
        assert_eq!(v.get("shard_restarts").and_then(Value::as_u64), Some(2));
        assert_eq!(
            v.get("max_connections_per_peer").and_then(Value::as_u64),
            Some(8)
        );
        let rejects = v.get("admission_rejects").unwrap();
        assert_eq!(rejects.get("peer_quota").and_then(Value::as_u64), Some(2));
        assert_eq!(rejects.get("total").and_then(Value::as_u64), Some(15));
    }

    #[test]
    fn malformed_trace_filters_are_structured_errors() {
        for line in [
            r#"{"op":"trace","op_filter":7}"#,
            r#"{"op":"trace","errors_only":"yes"}"#,
            r#"{"op":"trace","slow_us":"fast"}"#,
            r#"{"op":"trace","slow_us":-5}"#,
            r#"{"op":"trace","limit":[1]}"#,
        ] {
            let v = serde_json::from_str(line).unwrap();
            let err = request_from_value(&v).unwrap_err();
            assert!(
                matches!(err, ServiceError::BadRequest(_)),
                "{line} → {err:?}"
            );
        }
    }

    #[test]
    fn trace_responses_render_stage_breakdowns() {
        use lalr_obs::RequestTrace;
        let r = Response::Trace(Box::new(TraceDump {
            enabled: true,
            capacity: 256,
            sample_every: 1,
            recorded: 3,
            traces: vec![RequestTrace {
                id: 3,
                op: 0,
                shard: 1,
                error: false,
                total_us: 1_200,
                stages_us: [100, 50, 1_000, 0, 40],
            }],
        }));
        let line = response_to_line(&r);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("enabled").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("recorded").and_then(Value::as_u64), Some(3));
        let traces = v.get("traces").and_then(Value::as_arr).unwrap();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.get("op").and_then(Value::as_str), Some("compile"));
        assert_eq!(t.get("total_us").and_then(Value::as_u64), Some(1_200));
        assert_eq!(t.get("stage_sum_us").and_then(Value::as_u64), Some(1_190));
        let stages = t.get("stages_us").unwrap();
        assert_eq!(stages.get("compile").and_then(Value::as_u64), Some(1_000));
        assert_eq!(stages.get("write").and_then(Value::as_u64), Some(40));
    }

    #[test]
    fn unknown_op_lists_available_ops() {
        let v = serde_json::from_str(r#"{"op":"frobnicate"}"#).unwrap();
        let err = request_from_value(&v).unwrap_err();
        assert!(err.to_string().contains("available: compile"), "{err}");
    }

    #[test]
    fn missing_fields_are_structured_errors() {
        for line in [
            r#"{"grammar":"x"}"#,
            r#"{"op":"compile"}"#,
            r#"{"op":"parse","grammar":"s : \"a\" ;"}"#,
            r#"{"op":"parse","batch":["a"]}"#,
            r#"{"op":"parse","fingerprint":"xyz","batch":["a"]}"#,
            r#"{"op":"parse","fingerprint":42,"batch":["a"]}"#,
            r#"{"op":"parse","grammar":"s : \"a\" ;","batch":"a"}"#,
            r#"{"op":"parse","grammar":"s : \"a\" ;","batch":[1]}"#,
            r#"{"op":"parse","grammar":"s : \"a\" ;","batch":["a"],"sync":[1]}"#,
            r#"{"op":"compile","grammar":"x","deadline_ms":-1}"#,
            r#"[1,2]"#,
        ] {
            let v = serde_json::from_str(line).unwrap();
            assert!(request_from_value(&v).is_err(), "{line}");
        }
    }

    #[test]
    fn lone_input_decodes_as_a_batch_of_one() {
        let v = serde_json::from_str(r#"{"op":"parse","grammar":"s : \"a\" ;","input":"a a"}"#)
            .unwrap();
        let (req, _) = request_from_value(&v).unwrap();
        match req {
            Request::Parse {
                documents, recover, ..
            } => {
                assert_eq!(documents, vec!["a a".to_string()]);
                assert!(!recover);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_batch_decodes_and_is_rejected_by_the_service_not_the_codec() {
        // The codec passes the empty batch through; the service layer
        // answers with a structured bad_request (see the hostile tests).
        let v =
            serde_json::from_str(r#"{"op":"parse","grammar":"s : \"a\" ;","batch":[]}"#).unwrap();
        let (req, _) = request_from_value(&v).unwrap();
        match req {
            Request::Parse { documents, .. } => assert!(documents.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_responses_render_per_document_verdicts() {
        use crate::service::DocError;
        let r = Response::Parse(ParseBatchSummary {
            fingerprint: "00000000000000ff".to_string(),
            cached: true,
            docs: vec![
                DocVerdict {
                    accepted: true,
                    leaves: 3,
                    nodes: 2,
                    tree: Some("(e x)".to_string()),
                    error: None,
                    error_count: 0,
                },
                DocVerdict {
                    accepted: false,
                    leaves: 0,
                    nodes: 0,
                    tree: None,
                    error: Some(DocError {
                        message: "unexpected end of input at offset 2".to_string(),
                        offset: 2,
                        found: None,
                        expected: vec!["NUM".to_string()],
                    }),
                    error_count: 1,
                },
            ],
        });
        let line = response_to_line(&r);
        assert_eq!(
            response_into_line(r),
            line,
            "moving the trees changes no byte"
        );
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("cached").and_then(Value::as_bool), Some(true));
        let docs = v.get("docs").and_then(Value::as_arr).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("accepted").and_then(Value::as_bool), Some(true));
        assert_eq!(docs[0].get("leaves").and_then(Value::as_u64), Some(3));
        assert_eq!(docs[0].get("tree").and_then(Value::as_str), Some("(e x)"));
        assert!(docs[0].get("error").is_none());
        let err = docs[1].get("error").unwrap();
        assert_eq!(err.get("offset").and_then(Value::as_u64), Some(2));
        assert!(err.get("found").is_none(), "EOF error has no found token");
        assert_eq!(
            err.get("expected")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(1)
        );
    }

    /// A seeded xorshift generator for the property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Pieces that strings under test are made of: every byte the
    /// escaper rewrites, plain ASCII, and one- to four-byte UTF-8.
    fn piece(rng: &mut Rng) -> String {
        match rng.below(6) {
            0 => char::from(rng.below(0x20) as u8).to_string(),
            1 => "\"".to_string(),
            2 => "\\".to_string(),
            3 => ["é", "€", "😀", "\u{7f}", "\u{80}", "\u{7ff}", "\u{ffff}"][rng.below(7)]
                .to_string(),
            _ => "abcdefghijklmnopqrstuvwxyz (NUM)"[..1 + rng.below(31)].to_string(),
        }
    }

    /// A string of `rng`-chosen pieces, usually clean, sometimes long.
    fn text(rng: &mut Rng, max_pieces: usize) -> String {
        let n = rng.below(max_pieces + 1);
        let dirty = rng.below(4) == 0;
        (0..n)
            .map(|_| {
                if dirty {
                    piece(rng)
                } else {
                    "(expr term NUM) "[..1 + rng.below(16)].to_string()
                }
            })
            .collect()
    }

    fn count(rng: &mut Rng) -> u64 {
        match rng.below(8) {
            0 => (1 << 53) + rng.next() % 1_000,
            1 => u64::MAX - rng.next() % 1_000,
            _ => rng.next() % 100_000,
        }
    }

    fn verdict(rng: &mut Rng) -> DocVerdict {
        use crate::service::DocError;
        let error = |rng: &mut Rng| DocError {
            message: text(rng, 4),
            offset: count(rng),
            found: (rng.below(2) == 0).then(|| text(rng, 2)),
            expected: (0..rng.below(6)).map(|_| text(rng, 2)).collect(),
        };
        match rng.below(4) {
            // Accepted, with its tree.
            0 => DocVerdict {
                accepted: true,
                leaves: count(rng),
                nodes: count(rng),
                tree: Some(text(rng, 200)),
                error: None,
                error_count: 0,
            },
            // Rejected, with an `expected` list.
            1 => DocVerdict {
                accepted: false,
                leaves: 0,
                nodes: 0,
                tree: None,
                error: Some(error(rng)),
                error_count: 1,
            },
            // A recovery verdict: a tree and several errors, or neither.
            2 => DocVerdict {
                accepted: false,
                leaves: count(rng),
                nodes: count(rng),
                tree: (rng.below(2) == 0).then(|| text(rng, 50)),
                error: Some(error(rng)),
                error_count: count(rng).max(1),
            },
            // No tree and no error.
            _ => DocVerdict {
                accepted: rng.below(2) == 0,
                leaves: count(rng),
                nodes: count(rng),
                tree: None,
                error: None,
                error_count: 0,
            },
        }
    }

    #[test]
    fn direct_parse_writer_matches_the_value_encoder() {
        for seed in 1..=2_000u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let docs = (0..rng.below(9)).map(|_| verdict(&mut rng)).collect();
            let r = Response::Parse(ParseBatchSummary {
                fingerprint: text(&mut rng, 2),
                cached: rng.below(2) == 0,
                docs,
            });
            let expected = response_to_line(&r);
            let line = response_into_line(r);
            assert_eq!(line, expected, "seed {seed}");
            if !line.contains('\\') {
                assert!(
                    line.capacity() > line.len(),
                    "seed {seed}: room for the newline"
                );
            }
        }
    }

    #[test]
    fn escape_matches_the_shim_escaper() {
        let shim = |s: &str| Value::Str(s.to_string()).to_string();
        let direct = |s: &str| {
            let mut out = String::new();
            push_escaped(&mut out, s);
            out
        };
        let mut specials: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        specials.extend(["\"", "\\", "é", "€", "😀", "\u{7f}"].map(String::from));
        // Each special byte or char after clean runs of every length up
        // to 15, alone, before a clean run, and next to another special.
        for special in &specials {
            for offset in 0..16 {
                let pad = "x".repeat(offset);
                for s in [
                    format!("{pad}{special}"),
                    format!("{pad}{special}tail-of-the-word"),
                    format!("{pad}{special}{special}\"{pad}"),
                ] {
                    assert_eq!(direct(&s), shim(&s), "{s:?}");
                }
            }
        }
        for seed in 1..=4_000u64 {
            let mut rng = Rng(seed.wrapping_mul(0xd134_2543_de82_ef95) | 1);
            let s: String = (0..rng.below(40)).map(|_| piece(&mut rng)).collect();
            assert_eq!(direct(&s), shim(&s), "seed {seed}: {s:?}");
        }
    }

    #[test]
    fn error_responses_carry_kind_and_message() {
        let r = Response::Error(ServiceError::TooLarge {
            size: 100,
            limit: 10,
        });
        let line = response_to_line(&r);
        assert_eq!(response_into_line(r), line);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Value::as_str), Some("too_large"));
    }
}
