//! Load generator for the `lalr-service` compilation service
//! (EXPERIMENTS.md Table 8).
//!
//! Drives N client threads against an in-process [`Service`] with a
//! mixed compile/classify/table/parse workload over the grammar corpus,
//! and reports throughput plus latency percentiles for two arms:
//!
//! * **cold** — caching disabled, so every request pays the full
//!   grammar → LR(0) → Read/Follow → tables pipeline;
//! * **warm** — the default cache, pre-warmed with one pass over the
//!   corpus, so steady-state requests are fingerprint lookups.
//!
//! With `--chaos` (EXPERIMENTS.md Table 10) the harness instead drives
//! a real TCP daemon through the retrying client at increasing fault
//! rates — injected read/write failures, partial responses, and compile
//! panics — and reports how throughput and tail latency degrade while
//! the retry layer keeps the error column at zero.
//!
//! With `--parse` (EXPERIMENTS.md Table 11) the harness runs a
//! parse-heavy sweep: corpus sentences chunked into batches of 1, 8,
//! and 64 documents, each batch size measured cold (no cache, every
//! batch recompiles its grammar) and warm (cached artifacts, one
//! resolution amortized over the whole batch). The headline number is
//! documents/second; docs-per-resolution shows the amortization.
//!
//! With `--restart` (EXPERIMENTS.md Table 13) the harness measures the
//! warm-restart story: a daemon compiles the corpus cold over TCP,
//! answers repeats from the in-memory cache, is stopped, and a fresh
//! daemon over the same configuration answers the same fingerprints
//! again. Without a persistent store the restarted daemon recompiles
//! everything; with `--store` semantics it serves every repeat from
//! disk. Reported per phase: latency percentiles plus the
//! restart-to-first-warm-reply wall time.
//!
//! With `--hostile` (EXPERIMENTS.md Table 15) the harness points abusive
//! clients at the event-loop daemon — connection floods past the
//! per-peer quota, byte-at-a-time request writers, and stalled readers
//! that pipeline requests and never drain the responses — while
//! well-behaved clients keep issuing the normal mix through the
//! circuit-breaking retry layer. The run fails unless every
//! well-behaved request succeeds, the flood is visibly rejected, the
//! stalled connections are closed by the daemon, and the daemon ends
//! back in the `ok` health state with a clean drain. (The request rate
//! limit is configured generously here so the abusive pipelines reach
//! the write path; exact rate-limit accounting lives in the
//! `event_hostile` integration tests.) `--no-degrade` is the A/B
//! control arm: the same mix against a daemon whose health state
//! machine never enters `degraded`, so Table 15 can compare goodput
//! and tail latency with graceful degradation on versus off.
//!
//! ```text
//! cargo run --release -p lalr-bench --bin loadgen              # 8 threads × 40 requests
//! cargo run --release -p lalr-bench --bin loadgen -- 4 100     # 4 threads × 100 requests
//! cargo run --release -p lalr-bench --bin loadgen -- --chaos   # fault-rate sweep over TCP
//! cargo run --release -p lalr-bench --bin loadgen -- --parse   # batched-parse sweep
//! cargo run --release -p lalr-bench --bin loadgen -- --restart # warm-restart latency
//! cargo run --release -p lalr-bench --bin loadgen -- --hostile # abusive-client survival
//! cargo run --release -p lalr-bench --bin loadgen -- --hostile --no-degrade  # Table 15 control arm
//! cargo run --release -p lalr-bench --bin loadgen -- --trace   # mixed mode, recorder armed
//! ```
//!
//! `--trace` arms the flight recorder (sampling every request) on the
//! mixed-mode services, so running the same mix with and without it
//! prices the tracing overhead (EXPERIMENTS.md Table 14).
//!
//! Every mode also accepts `--json OUT`: alongside the human-readable
//! table, the run's results (throughput, per-percentile latency, error
//! and fault accounting) are written to `OUT` as one JSON object, so CI
//! and scripts can assert on numbers without scraping markdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lalr_chaos::{Fault, FaultPlan, Trigger};
use lalr_core::Parallelism;
use lalr_service::client::{call_with_retry, RetryPolicy};
use lalr_service::{
    call_with_breaker, CircuitBreaker, DaemonConfig, EventDaemon, GrammarFormat, ParseTarget,
    Request, Service, ServiceConfig,
};

/// The request mix: for every corpus grammar one compile, one classify,
/// one table, and (where sentences exist) one small parse batch.
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
        let documents: Vec<String> = lalr_corpus::sentences::generate_many(&parsed, 7, 3, 20)
            .iter()
            .map(|s| to_document(&parsed, s))
            .collect();
        if !documents.is_empty() {
            requests.push(Request::Parse {
                target: ParseTarget::Text {
                    grammar,
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

/// Renders a generated sentence as a whitespace-separated document.
fn to_document(grammar: &lalr_grammar::Grammar, sentence: &[lalr_grammar::Terminal]) -> String {
    sentence
        .iter()
        .map(|&t| grammar.terminal_name(t))
        .collect::<Vec<_>>()
        .join(" ")
}

struct ArmResult {
    name: &'static str,
    requests: usize,
    errors: u64,
    elapsed: Duration,
    p50: Duration,
    p90: Duration,
    p99: Duration,
}

impl ArmResult {
    fn throughput(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Runs one arm: `threads` clients, each issuing `per_thread` requests
/// drawn round-robin (with a per-thread offset) from the workload.
fn run_arm(
    name: &'static str,
    service: &Arc<Service>,
    requests: &Arc<Vec<Request>>,
    threads: usize,
    per_thread: usize,
) -> ArmResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(service);
            let requests = Arc::clone(requests);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_thread);
                let mut errors = 0u64;
                for k in 0..per_thread {
                    // Offset by thread so the arms exercise concurrent
                    // requests for *different* grammars, not a convoy.
                    let request = &requests[(t * 7 + k) % requests.len()];
                    let call_start = Instant::now();
                    let response = service.call(request.clone(), None);
                    latencies.push(call_start.elapsed());
                    if !response.is_ok() {
                        errors += 1;
                    }
                }
                (latencies, errors)
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(threads * per_thread);
    let mut errors = 0;
    for h in handles {
        let (l, e) = h.join().expect("client thread");
        latencies.extend(l);
        errors += e;
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    ArmResult {
        name,
        requests: latencies.len(),
        errors,
        elapsed,
        p50: percentile(&latencies, 0.50),
        p90: percentile(&latencies, 0.90),
        p99: percentile(&latencies, 0.99),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes the machine-readable results file requested with `--json`.
fn write_json(path: &str, body: String) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("loadgen: cannot write {path:?}: {e}");
        std::process::exit(1);
    }
    eprintln!("loadgen: json results -> {path}");
}

/// The Table 10 fault mix at a given base rate: transport faults on
/// both directions of the daemon socket plus worker panics and slow
/// compiles. Every fault here is one the retrying client recovers from.
fn chaos_plan(rate: f64, seed: u64) -> lalr_service::FaultInjector {
    FaultPlan::new(seed)
        .rule("daemon.read", Fault::Error, Trigger::Rate(rate))
        .rule("daemon.write", Fault::PartialWrite, Trigger::Rate(rate))
        .rule("service.compile", Fault::Panic, Trigger::Rate(rate))
        .rule("service.compile", Fault::Delay(2), Trigger::Rate(rate))
        .build()
}

struct ChaosArm {
    rate: f64,
    requests: usize,
    errors: u64,
    retries: u64,
    injected: u64,
    accounted: bool,
    elapsed: Duration,
    p50: Duration,
    p99: Duration,
}

/// One sweep point: a fresh daemon armed with `chaos_plan(rate)`, hit by
/// `threads` retrying TCP clients. Returns per-arm totals; panics if the
/// daemon loses a connection tracking invariant (aborted drains).
fn run_chaos_arm(
    rate: f64,
    requests: &Arc<Vec<Request>>,
    threads: usize,
    per_thread: usize,
) -> ChaosArm {
    let faults = chaos_plan(rate, 0xC4A05);
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            drain_deadline: Duration::from_secs(5),
            faults: faults.clone(),
            service: ServiceConfig {
                workers: Parallelism::new(threads),
                faults: faults.clone(),
                ..ServiceConfig::default()
            },
            ..DaemonConfig::default()
        },
        1,
    )
    .expect("bind loopback");
    let addr = daemon.addr().to_string();

    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let requests = Arc::clone(requests);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    retries: 40,
                    backoff: Duration::from_millis(1),
                    cap: Duration::from_millis(16),
                    seed: 0xC4A05 ^ t as u64,
                };
                let mut latencies = Vec::with_capacity(per_thread);
                let mut errors = 0u64;
                let mut attempts = 0u64;
                let none = lalr_service::FaultInjector::disabled();
                for k in 0..per_thread {
                    let request = &requests[(t * 7 + k) % requests.len()];
                    let call_start = Instant::now();
                    let reply = call_with_retry(
                        &addr,
                        request,
                        None,
                        Duration::from_secs(10),
                        &policy,
                        &none,
                    );
                    latencies.push(call_start.elapsed());
                    match reply {
                        Ok(r) => {
                            attempts += u64::from(r.attempts);
                            if !r.is_ok() {
                                errors += 1;
                            }
                        }
                        Err(_) => {
                            attempts += u64::from(policy.retries) + 1;
                            errors += 1;
                        }
                    }
                }
                (latencies, errors, attempts)
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(threads * per_thread);
    let mut errors = 0;
    let mut attempts = 0;
    for h in handles {
        let (l, e, a) = h.join().expect("client thread");
        latencies.extend(l);
        errors += e;
        attempts += a;
    }
    let elapsed = started.elapsed();
    daemon.stop();
    let summary = daemon.join();
    assert_eq!(
        summary.aborted, 0,
        "chaos arm aborted connections: {summary:?}"
    );

    latencies.sort_unstable();
    let stats = faults.stats();
    ChaosArm {
        rate,
        requests: latencies.len(),
        errors,
        retries: attempts - latencies.len() as u64,
        injected: stats.iter().map(|s| s.injected).sum(),
        accounted: stats.iter().all(|s| s.injected == s.expected),
        elapsed,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

fn chaos_main(threads: usize, per_thread: usize, json_out: Option<&str>) {
    let requests = Arc::new(workload());
    eprintln!(
        "loadgen --chaos: {threads} threads x {per_thread} requests over TCP, \
         {} distinct requests in the mix",
        requests.len()
    );

    let arms: Vec<ChaosArm> = [0.0, 0.01, 0.05, 0.20]
        .iter()
        .map(|&rate| run_chaos_arm(rate, &requests, threads, per_thread))
        .collect();

    println!("| fault rate | requests | errors | retries | injected | accounted | req/s | p50 (ms) | p99 (ms) |");
    println!("|-----------:|---------:|-------:|--------:|---------:|:---------:|------:|---------:|---------:|");
    let mut failed = false;
    for arm in &arms {
        println!(
            "| {:.0}% | {} | {} | {} | {} | {} | {:.0} | {:.3} | {:.3} |",
            arm.rate * 100.0,
            arm.requests,
            arm.errors,
            arm.retries,
            arm.injected,
            if arm.accounted { "yes" } else { "NO" },
            arm.requests as f64 / arm.elapsed.as_secs_f64(),
            ms(arm.p50),
            ms(arm.p99),
        );
        failed |= arm.errors > 0 || !arm.accounted;
    }
    if let Some(path) = json_out {
        let rows: Vec<String> = arms
            .iter()
            .map(|arm| {
                format!(
                    "{{\"accounted\":{},\"errors\":{},\"injected\":{},\"p50_ms\":{:.3},\
                     \"p99_ms\":{:.3},\"rate\":{},\"req_per_s\":{:.1},\"requests\":{},\
                     \"retries\":{}}}",
                    arm.accounted,
                    arm.errors,
                    arm.injected,
                    ms(arm.p50),
                    ms(arm.p99),
                    arm.rate,
                    arm.requests as f64 / arm.elapsed.as_secs_f64(),
                    arm.requests,
                    arm.retries,
                )
            })
            .collect();
        write_json(
            path,
            format!(
                "{{\"arms\":[{}],\"mode\":\"chaos\",\"per_thread\":{per_thread},\
                 \"threads\":{threads}}}\n",
                rows.join(",")
            ),
        );
    }
    if failed {
        eprintln!("loadgen --chaos: requests failed or fault accounting drifted");
        std::process::exit(1);
    }
}

/// The Table 11 workload: every corpus grammar's sentence pool (64
/// generated sentences per grammar) chunked into parse batches of
/// `batch` documents. Returns the requests plus the total document
/// count per full pass.
fn parse_workload(batch: usize) -> Vec<Request> {
    let mut requests = Vec::new();
    for entry in lalr_corpus::all_entries() {
        let parsed = entry.grammar();
        let documents: Vec<String> = lalr_corpus::sentences::generate_many(&parsed, 11, 64, 20)
            .iter()
            .map(|s| to_document(&parsed, s))
            .collect();
        for chunk in documents.chunks(batch) {
            requests.push(Request::Parse {
                target: ParseTarget::Text {
                    grammar: entry.source.to_string(),
                    format: GrammarFormat::Native,
                },
                documents: chunk.to_vec(),
                recover: false,
                sync: Vec::new(),
            });
        }
    }
    requests
}

/// Runs one Table 11 arm and returns (documents parsed, errors, wall
/// time). Each thread walks a strided slice of the request list for
/// `passes` full passes, so every arm — whatever the batch size —
/// parses exactly the same documents the same number of times.
fn run_parse_arm(
    service: &Arc<Service>,
    requests: &Arc<Vec<Request>>,
    threads: usize,
    passes: usize,
) -> (u64, u64, Duration) {
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(service);
            let requests = Arc::clone(requests);
            std::thread::spawn(move || {
                let mut docs = 0u64;
                let mut errors = 0u64;
                for _ in 0..passes {
                    for i in (t..requests.len()).step_by(threads) {
                        let request = &requests[i];
                        if let Request::Parse { documents, .. } = request {
                            docs += documents.len() as u64;
                        }
                        let response = service.call(request.clone(), None);
                        if !response.is_ok() {
                            errors += 1;
                        }
                    }
                }
                (docs, errors)
            })
        })
        .collect();
    let mut docs = 0;
    let mut errors = 0;
    for h in handles {
        let (d, e) = h.join().expect("client thread");
        docs += d;
        errors += e;
    }
    (docs, errors, started.elapsed())
}

fn parse_main(threads: usize, passes: usize, json_out: Option<&str>) {
    eprintln!("loadgen --parse: {threads} threads x {passes} full corpus passes per arm");
    println!("| batch | arm  | batches | docs | errors | docs/s | resolutions | docs/resolution |");
    println!("|------:|------|--------:|-----:|-------:|-------:|------------:|----------------:|");
    let mut failed = false;
    let mut rows: Vec<String> = Vec::new();
    for batch in [1usize, 8, 64] {
        let requests = Arc::new(parse_workload(batch));
        for warm in [false, true] {
            let service = Arc::new(Service::new(ServiceConfig {
                workers: Parallelism::new(threads),
                cache: if warm {
                    ServiceConfig::default().cache
                } else {
                    None
                },
                ..ServiceConfig::default()
            }));
            if warm {
                // One sequential pass so steady-state batches resolve
                // their artifact from the cache.
                for request in requests.iter() {
                    let response = service.call(request.clone(), None);
                    assert!(response.is_ok(), "warm-up request failed: {response:?}");
                }
            }
            let before = service.stats().parse;
            let (docs, errors, elapsed) = run_parse_arm(&service, &requests, threads, passes);
            let after = service.stats().parse;
            service.shutdown();
            let resolutions = after.resolutions - before.resolutions;
            println!(
                "| {} | {} | {} | {} | {} | {:.0} | {} | {:.1} |",
                batch,
                if warm { "warm" } else { "cold" },
                requests.len() * passes,
                docs,
                errors,
                docs as f64 / elapsed.as_secs_f64(),
                resolutions,
                docs as f64 / resolutions.max(1) as f64,
            );
            rows.push(format!(
                "{{\"arm\":\"{}\",\"batch\":{batch},\"batches\":{},\"docs\":{docs},\
                 \"docs_per_s\":{:.1},\"errors\":{errors},\"resolutions\":{resolutions}}}",
                if warm { "warm" } else { "cold" },
                requests.len() * passes,
                docs as f64 / elapsed.as_secs_f64(),
            ));
            failed |= errors > 0;
        }
    }
    if let Some(path) = json_out {
        write_json(
            path,
            format!(
                "{{\"mode\":\"parse\",\"passes\":{passes},\"rows\":[{}],\"threads\":{threads}}}\n",
                rows.join(",")
            ),
        );
    }
    if failed {
        eprintln!("loadgen --parse: some batches failed");
        std::process::exit(1);
    }
}

/// One daemon lifetime for the `--restart` harness.
fn start_daemon(workers: usize, store_dir: Option<std::path::PathBuf>) -> EventDaemon {
    let config = DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers: Parallelism::new(workers),
            store_dir,
            ..ServiceConfig::default()
        },
        ..DaemonConfig::default()
    };
    EventDaemon::start(config, 1).expect("bind loopback")
}

/// Pulls an integer counter (`"key":N`) out of a raw response line.
fn counter(raw: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    raw.split(&pattern)
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// Issues `requests` sequentially over TCP and returns sorted
/// latencies; counts error replies into `errors`.
fn timed_pass(addr: &str, requests: &[Request], errors: &mut u64) -> Vec<Duration> {
    let timeout = Duration::from_secs(30);
    let mut latencies = Vec::with_capacity(requests.len());
    for request in requests {
        let started = Instant::now();
        match lalr_service::client::call(addr, request, None, timeout) {
            Ok(reply) if reply.is_ok() => latencies.push(started.elapsed()),
            _ => *errors += 1,
        }
    }
    latencies.sort_unstable();
    latencies
}

/// The Table 13 harness. A single sequential client keeps the latency
/// numbers clean (no queueing); `workers` only sizes the daemon's pool.
fn restart_main(workers: usize, json_out: Option<&str>) {
    let requests: Vec<Request> = lalr_corpus::all_entries()
        .iter()
        .map(|entry| Request::Compile {
            grammar: entry.source.to_string(),
            format: GrammarFormat::Native,
        })
        .collect();
    eprintln!(
        "loadgen --restart: {} corpus compiles per phase",
        requests.len()
    );

    println!("| arm | phase | requests | p50 (ms) | p99 (ms) |");
    println!("|------|-------|---------:|---------:|---------:|");
    let mut failed = false;
    let mut arms_json: Vec<String> = Vec::new();
    for with_store in [false, true] {
        let arm = if with_store { "store" } else { "no-store" };
        let dir =
            std::env::temp_dir().join(format!("lalr-loadgen-restart-{}-{arm}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store_dir = with_store.then(|| dir.clone());
        let mut errors = 0u64;

        let first = start_daemon(workers, store_dir.clone());
        let addr = first.addr().to_string();
        let cold = timed_pass(&addr, &requests, &mut errors);
        let hits = timed_pass(&addr, &requests, &mut errors);
        first.stop();
        first.join();

        // The restart clock starts before the bind: time-to-first-warm
        // reply includes daemon startup, connect, and the disk load (or
        // recompile) of the first repeated fingerprint.
        let restart_started = Instant::now();
        let second = start_daemon(workers, store_dir);
        let addr = second.addr().to_string();
        let first_reply = timed_pass(&addr, &requests[..1], &mut errors);
        let time_to_first = restart_started.elapsed();
        let rest = timed_pass(&addr, &requests[1..], &mut errors);
        let mut post_restart: Vec<Duration> = first_reply.iter().chain(&rest).copied().collect();
        post_restart.sort_unstable();

        let stats_raw =
            lalr_service::client::call(&addr, &Request::Stats, None, Duration::from_secs(10))
                .map(|r| r.raw)
                .unwrap_or_default();
        second.stop();
        second.join();

        let mut phases_json: Vec<String> = Vec::new();
        for (phase, latencies) in [
            ("cold compile", &cold),
            ("in-memory hit", &hits),
            ("post-restart", &post_restart),
        ] {
            println!(
                "| {arm} | {phase} | {} | {:.3} | {:.3} |",
                latencies.len(),
                ms(percentile(latencies, 0.50)),
                ms(percentile(latencies, 0.99)),
            );
            phases_json.push(format!(
                "{{\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"phase\":\"{phase}\",\"requests\":{}}}",
                ms(percentile(latencies, 0.50)),
                ms(percentile(latencies, 0.99)),
                latencies.len(),
            ));
        }
        let compiles = counter(&stats_raw, "compiles");
        let store_hits = counter(&stats_raw, "store_hits");
        println!(
            "| {arm} | restart→first reply | 1 | {:.3} | — |",
            time_to_first.as_secs_f64() * 1e3
        );
        eprintln!(
            "{arm}: restarted daemon ran {compiles} compiles, {store_hits} store hits, \
             {errors} errors"
        );
        arms_json.push(format!(
            "{{\"arm\":\"{arm}\",\"compiles\":{compiles},\"errors\":{errors},\"phases\":[{}],\
             \"store_hits\":{store_hits},\"time_to_first_ms\":{:.3}}}",
            phases_json.join(","),
            time_to_first.as_secs_f64() * 1e3,
        ));

        failed |= errors > 0;
        // The whole point of the store arm: the restarted daemon must
        // answer every repeated fingerprint from disk, not recompile.
        if with_store && (compiles != 0 || store_hits < requests.len() as u64) {
            eprintln!("loadgen --restart: store arm recompiled after restart");
            failed = true;
        }
        if !with_store && compiles != requests.len() as u64 {
            eprintln!("loadgen --restart: no-store arm should recompile everything");
            failed = true;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    if let Some(path) = json_out {
        write_json(
            path,
            format!(
                "{{\"arms\":[{}],\"mode\":\"restart\",\"workers\":{workers}}}\n",
                arms_json.join(",")
            ),
        );
    }
    if failed {
        eprintln!("loadgen --restart: failed");
        std::process::exit(1);
    }
}

/// Reads one response line from a raw hostile-client socket, bounded by
/// `timeout`. Returns `None` on timeout, EOF, or a transport error.
fn read_line_timeout(stream: &mut TcpStream, timeout: Duration) -> Option<String> {
    stream.set_read_timeout(Some(timeout)).ok()?;
    let mut line = String::new();
    let mut reader = BufReader::new(stream);
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(line),
    }
}

/// The well-behaved side of the `--hostile` run: the standard mixed
/// workload through the circuit-breaking retry client, sharing the
/// daemon with the abusive phases. Returns (sorted latencies, errors,
/// retries).
fn hostile_good_clients(
    addr: &str,
    requests: &Arc<Vec<Request>>,
    breaker: &Arc<CircuitBreaker>,
    threads: usize,
    per_thread: usize,
) -> (Vec<Duration>, u64, u64) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let requests = Arc::clone(requests);
            let breaker = Arc::clone(breaker);
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    retries: 80,
                    backoff: Duration::from_millis(1),
                    cap: Duration::from_millis(16),
                    seed: 0x5711E ^ t as u64,
                };
                let none = lalr_service::FaultInjector::disabled();
                let mut latencies = Vec::with_capacity(per_thread);
                let mut errors = 0u64;
                let mut attempts = 0u64;
                for k in 0..per_thread {
                    let request = &requests[(t * 7 + k) % requests.len()];
                    let call_start = Instant::now();
                    let reply = call_with_breaker(
                        &addr,
                        request,
                        None,
                        Duration::from_secs(10),
                        &policy,
                        &breaker,
                        &none,
                    );
                    latencies.push(call_start.elapsed());
                    match reply {
                        Ok(r) => {
                            attempts += u64::from(r.attempts);
                            if !r.is_ok() {
                                errors += 1;
                            }
                        }
                        Err(_) => {
                            attempts += u64::from(policy.retries) + 1;
                            errors += 1;
                        }
                    }
                }
                (latencies, errors, attempts)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(threads * per_thread);
    let mut errors = 0;
    let mut attempts = 0;
    for h in handles {
        let (l, e, a) = h.join().expect("well-behaved client thread");
        latencies.extend(l);
        errors += e;
        attempts += a;
    }
    let retries = attempts - latencies.len() as u64;
    latencies.sort_unstable();
    (latencies, errors, retries)
}

/// Connection flood: waves of simultaneous connects from one peer, well
/// past the per-peer quota. Over-quota connections must be answered
/// with a fast explicit rejection line, never silently dropped. Returns
/// (attempted, rejected).
fn hostile_flood(addr: &str, wave: usize, waves: usize) -> (u64, u64) {
    let mut attempted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..waves {
        let conns: Vec<TcpStream> = (0..wave)
            .filter_map(|_| TcpStream::connect(addr).ok())
            .collect();
        attempted += conns.len() as u64;
        for mut c in conns {
            // Rejected connections carry their error line immediately;
            // admitted ones (we never send a request) just time out
            // here and are dropped, which the daemon sees as EOF.
            if let Some(line) = read_line_timeout(&mut c, Duration::from_millis(50)) {
                if line.contains("\"throttled\"") || line.contains("\"unavailable\"") {
                    rejected += 1;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    (attempted, rejected)
}

/// Byte-at-a-time writers: each request line dribbles in one byte per
/// millisecond. The daemon must still assemble and answer it. Each
/// attempt retries a few times so a transient quota/throttle rejection
/// during the concurrent flood does not count against the daemon.
fn hostile_trickle(addr: &str, attempts: usize) -> (u64, u64) {
    let line = lalr_service::protocol::request_to_line(
        &Request::Classify {
            grammar: "e : e \"+\" t | t ; t : \"x\" ;".to_string(),
            format: GrammarFormat::Native,
        },
        None,
    ) + "\n";
    let mut succeeded = 0u64;
    for _ in 0..attempts {
        for _retry in 0..20 {
            let Ok(mut c) = TcpStream::connect(addr) else {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            };
            c.set_nodelay(true).ok();
            let mut wrote_all = true;
            for &b in line.as_bytes() {
                if c.write_all(&[b]).is_err() {
                    wrote_all = false;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let reply = read_line_timeout(&mut c, Duration::from_secs(10));
            if wrote_all && reply.is_some_and(|l| l.contains("\"ok\":true")) {
                succeeded += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    (attempts as u64, succeeded)
}

/// Stalled readers: pipeline a burst of requests and never read the
/// responses, so the daemon's write buffers back up. Liveness demands
/// the daemon eventually close every such connection — via the
/// slow-client write budget when the buffered bytes overflow the
/// socket, or the idle read timeout otherwise. Every line is a *cold*
/// compile of a distinct chain grammar, so the admitted part of the
/// burst is real pipeline work that overflows the worker queue — the
/// pressure the Table 15 degradation A/B measures. Returns
/// (opened, closed).
fn hostile_stalled(addr: &str, conns: usize, pipeline: usize) -> (u64, u64) {
    let chain = |salt: String| {
        let mut g = String::from("s : p0 ; ");
        for i in 0..300 {
            if i + 1 < 300 {
                g.push_str(&format!("p{i} : \"t{i}_{salt}\" p{} | \"t{i}\" ; ", i + 1));
            } else {
                g.push_str(&format!("p{i} : \"t{i}_{salt}\" ; "));
            }
        }
        g
    };
    let mut streams = Vec::new();
    for conn in 0..conns {
        let payload: String = (0..pipeline)
            .map(|k| {
                lalr_service::protocol::request_to_line(
                    &Request::Compile {
                        grammar: chain(format!("c{conn}k{k}")),
                        format: GrammarFormat::Native,
                    },
                    None,
                ) + "\n"
            })
            .collect();
        if let Ok(mut c) = TcpStream::connect(addr) {
            let _ = c.write_all(payload.as_bytes());
            streams.push(c);
        }
    }
    let opened = streams.len() as u64;
    // Hold past the write budget without reading a byte.
    std::thread::sleep(Duration::from_millis(800));
    let mut closed = 0u64;
    let mut sink = [0u8; 16384];
    for mut c in streams {
        c.set_read_timeout(Some(Duration::from_secs(5))).ok();
        loop {
            match c.read(&mut sink) {
                // EOF or a reset: the daemon dropped us. Draining data
                // first is fine — a not-yet-closed connection empties
                // its backlog and is then closed at the idle timeout.
                Ok(0) => {
                    closed += 1;
                    break;
                }
                Ok(_) => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(_) => {
                    closed += 1;
                    break;
                }
            }
        }
    }
    (opened, closed)
}

/// The Table 15 harness: hostile clients and well-behaved clients share
/// one event-loop daemon configured with a tight per-peer quota and a
/// slow-client write budget. Exits 1 unless the daemon survives —
/// zero well-behaved errors, visible flood rejection, stalled readers
/// closed, final health `ok`, clean drain.
fn hostile_main(threads: usize, per_thread: usize, json_out: Option<&str>, degrade: bool) {
    let quota = threads + 6;
    // A deliberately small worker pool and queue. The event loop admits
    // at most one in-flight request per connection, so pipelining alone
    // can never overflow the queue — overload is connections × work:
    // the stalled readers' cold chain compiles plus the well-behaved
    // mix outnumber workers + queue slots, the service sheds, and the
    // `--no-degrade` A/B arm (Table 15) measures a daemon that actually
    // degrades, not one hiding behind a deep queue.
    let workers = 2;
    let max_pending = 2;
    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            max_connections_per_peer: quota,
            rate_limit_per_sec: 2000,
            rate_limit_burst: 1000,
            write_budget: Duration::from_millis(200),
            service: ServiceConfig {
                workers: Parallelism::new(workers),
                max_pending,
                health: if degrade {
                    lalr_service::HealthConfig::default()
                } else {
                    lalr_service::HealthConfig {
                        degrade_after_sheds: 0,
                        ..lalr_service::HealthConfig::default()
                    }
                },
                ..ServiceConfig::default()
            },
            ..DaemonConfig::default()
        },
        2,
    )
    .expect("bind loopback");
    let addr = daemon.addr().to_string();
    let requests = Arc::new(workload());
    eprintln!(
        "loadgen --hostile: {threads} well-behaved threads x {per_thread} requests, \
         per-peer quota {quota}, 2000/s rate limit (burst 1000), 200ms write budget, \
         queue {max_pending}, degradation {}",
        if degrade { "on" } else { "off" }
    );

    let breaker = Arc::new(CircuitBreaker::new(8, Duration::from_millis(25)));
    let flood = {
        let addr = addr.clone();
        std::thread::spawn(move || hostile_flood(&addr, quota + 12, 6))
    };
    let trickle = {
        let addr = addr.clone();
        std::thread::spawn(move || hostile_trickle(&addr, 6))
    };
    let stalled = {
        let addr = addr.clone();
        std::thread::spawn(move || hostile_stalled(&addr, 4, 300))
    };
    let (latencies, errors, retries) =
        hostile_good_clients(&addr, &requests, &breaker, threads, per_thread);
    let (flood_attempted, flood_rejected) = flood.join().expect("flood thread");
    let (trickle_attempted, trickle_ok) = trickle.join().expect("trickle thread");
    let (stalled_opened, stalled_closed) = stalled.join().expect("stalled thread");

    // Calm traffic until the health state machine recovers to `ok` —
    // the stalled-reader burst usually sheds enough to reach degraded.
    let mut state = "unknown".to_string();
    let mut health_raw = String::new();
    for _ in 0..600 {
        let _ = lalr_service::client::call(&addr, &requests[0], None, Duration::from_secs(5));
        if let Ok(reply) =
            lalr_service::client::call(&addr, &Request::Health, None, Duration::from_secs(5))
        {
            health_raw = reply.raw;
            for s in ["ok", "degraded", "draining"] {
                if health_raw.contains(&format!("\"state\":\"{s}\"")) {
                    state = s.to_string();
                }
            }
            if state == "ok" {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.stop();
    let summary = daemon.join();

    let peer_quota_rejects = counter(&health_raw, "peer_quota");
    let rate_limit_rejects = counter(&health_raw, "rate_limit");
    let slow_client_rejects = counter(&health_raw, "slow_client");
    let degraded_transitions = counter(&health_raw, "degraded_transitions");
    let shard_restarts = counter(&health_raw, "shard_restarts");

    println!("| arm | attempted | succeeded | rejected | closed |");
    println!("|------|----------:|----------:|---------:|-------:|");
    println!(
        "| well-behaved | {} | {} | — | — |",
        latencies.len(),
        latencies.len() as u64 - errors,
    );
    println!("| conn-flood | {flood_attempted} | — | {flood_rejected} | — |");
    println!("| byte-at-a-time | {trickle_attempted} | {trickle_ok} | — | — |");
    println!("| stalled-reader | {stalled_opened} | — | — | {stalled_closed} |");
    eprintln!(
        "well-behaved: {retries} retries, {} breaker opens, p50 {:.3}ms p99 {:.3}ms",
        breaker.opens(),
        ms(percentile(&latencies, 0.50)),
        ms(percentile(&latencies, 0.99)),
    );
    eprintln!(
        "daemon: final health {state}, rejects peer-quota {peer_quota_rejects} \
         rate-limit {rate_limit_rejects} slow-client {slow_client_rejects}, \
         {degraded_transitions} degraded transitions, {shard_restarts} shard restarts, \
         drained {} aborted {}",
        summary.drained, summary.aborted,
    );

    let mut failures: Vec<&str> = Vec::new();
    if errors > 0 {
        failures.push("well-behaved requests failed");
    }
    if flood_rejected == 0 {
        failures.push("connection flood was never rejected");
    }
    if trickle_ok < trickle_attempted {
        failures.push("byte-at-a-time requests went unanswered");
    }
    if stalled_closed < stalled_opened {
        failures.push("stalled readers were not closed");
    }
    if state != "ok" {
        failures.push("daemon did not recover to the ok health state");
    }
    if summary.aborted > 0 {
        failures.push("drain aborted connections");
    }
    if let Some(path) = json_out {
        write_json(
            path,
            format!(
                "{{\"breaker_opens\":{},\"degrade\":{degrade},\"errors\":{errors},\"flood\":{{\"attempted\":\
                 {flood_attempted},\"rejected\":{flood_rejected}}},\"health\":{{\
                 \"degraded_transitions\":{degraded_transitions},\"peer_quota_rejects\":\
                 {peer_quota_rejects},\"rate_limit_rejects\":{rate_limit_rejects},\
                 \"shard_restarts\":{shard_restarts},\"slow_client_rejects\":\
                 {slow_client_rejects},\"state\":\"{state}\"}},\"mode\":\"hostile\",\
                 \"p50_ms\":{:.3},\"p99_ms\":{:.3},\"per_thread\":{per_thread},\"requests\":{},\
                 \"retries\":{retries},\"stalled\":{{\"closed\":{stalled_closed},\"opened\":\
                 {stalled_opened}}},\"summary\":{{\"aborted\":{},\"drained\":{}}},\"threads\":\
                 {threads},\"trickle\":{{\"attempted\":{trickle_attempted},\"ok\":{trickle_ok}}}}}\n",
                breaker.opens(),
                ms(percentile(&latencies, 0.50)),
                ms(percentile(&latencies, 0.99)),
                latencies.len(),
                summary.aborted,
                summary.drained,
            ),
        );
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("loadgen --hostile: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let chaos = args.iter().any(|a| a == "--chaos");
    let parse = args.iter().any(|a| a == "--parse");
    let restart = args.iter().any(|a| a == "--restart");
    let hostile = args.iter().any(|a| a == "--hostile");
    // `--no-degrade` is the Table 15 control arm: same hostile mix, but
    // the health state machine never enters `degraded`.
    let no_degrade = args.iter().any(|a| a == "--no-degrade");
    // `--trace` arms the flight recorder (sample-every-request) on the
    // mixed-mode services, for the Table 14 armed-vs-disabled overhead
    // comparison.
    let trace = args.iter().any(|a| a == "--trace");
    args.retain(|a| {
        a != "--chaos"
            && a != "--parse"
            && a != "--restart"
            && a != "--hostile"
            && a != "--no-degrade"
            && a != "--trace"
    });
    // `--json OUT` is a value flag: pull it (and its value) out before
    // the remaining words are read as positionals.
    let mut json_out: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if pos + 1 >= args.len() {
            eprintln!("loadgen: --json needs an output path");
            std::process::exit(2);
        }
        json_out = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let json_out = json_out.as_deref();
    let threads: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(8);
    let per_thread: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(40);
    if (restart || chaos || hostile) && !lalr_net::supported() {
        eprintln!("loadgen: the daemon modes need the epoll backend (x86-64 Linux); skipping");
        return;
    }
    if restart {
        restart_main(threads.min(4), json_out);
        return;
    }
    if chaos {
        chaos_main(threads, per_thread, json_out);
        return;
    }
    if hostile {
        hostile_main(threads, per_thread, json_out, !no_degrade);
        return;
    }
    if parse {
        // The second positional is *passes* here, not requests per
        // thread: every pass covers the whole corpus workload.
        let passes = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
        parse_main(threads, passes, json_out);
        return;
    }

    let requests = Arc::new(workload());
    let tracing = trace.then(lalr_service::TraceConfig::default);
    eprintln!(
        "loadgen: {threads} threads x {per_thread} requests, {} distinct requests in the mix{}",
        requests.len(),
        if trace { ", tracing armed" } else { "" }
    );

    // Cold arm: no cache, every request compiles.
    let cold_service = Arc::new(Service::new(ServiceConfig {
        workers: Parallelism::new(threads),
        cache: None,
        tracing,
        ..ServiceConfig::default()
    }));
    let cold = run_arm("cold", &cold_service, &requests, threads, per_thread);
    cold_service.shutdown();

    // Warm arm: default cache, pre-warmed with one sequential pass.
    let warm_service = Arc::new(Service::new(ServiceConfig {
        workers: Parallelism::new(threads),
        tracing,
        ..ServiceConfig::default()
    }));
    for request in requests.iter() {
        let response = warm_service.call(request.clone(), None);
        assert!(response.is_ok(), "warm-up request failed: {response:?}");
    }
    let warm = run_arm("warm", &warm_service, &requests, threads, per_thread);
    let stats = warm_service.stats();
    warm_service.shutdown();

    println!("| arm  | requests | errors | req/s | p50 (ms) | p90 (ms) | p99 (ms) |");
    println!("|------|---------:|-------:|------:|---------:|---------:|---------:|");
    for arm in [&cold, &warm] {
        println!(
            "| {} | {} | {} | {:.0} | {:.3} | {:.3} | {:.3} |",
            arm.name,
            arm.requests,
            arm.errors,
            arm.throughput(),
            ms(arm.p50),
            ms(arm.p90),
            ms(arm.p99),
        );
    }
    let speedup = warm.throughput() / cold.throughput();
    println!();
    println!("warm/cold throughput: {speedup:.1}x");
    if let Some(cache) = &stats.cache {
        println!(
            "warm-arm cache: {:.1}% hit rate ({} hits, {} misses, {} coalesced)",
            cache.hit_rate() * 100.0,
            cache.hits,
            cache.misses,
            cache.coalesced
        );
    }
    if let Some(path) = json_out {
        let rows: Vec<String> = [&cold, &warm]
            .iter()
            .map(|arm| {
                format!(
                    "{{\"errors\":{},\"name\":\"{}\",\"p50_ms\":{:.3},\"p90_ms\":{:.3},\
                     \"p99_ms\":{:.3},\"req_per_s\":{:.1},\"requests\":{}}}",
                    arm.errors,
                    arm.name,
                    ms(arm.p50),
                    ms(arm.p90),
                    ms(arm.p99),
                    arm.throughput(),
                    arm.requests,
                )
            })
            .collect();
        let cache_json = stats.cache.as_ref().map_or_else(
            || "null".to_string(),
            |c| {
                format!(
                    "{{\"coalesced\":{},\"hits\":{},\"misses\":{}}}",
                    c.coalesced, c.hits, c.misses
                )
            },
        );
        write_json(
            path,
            format!(
                "{{\"arms\":[{}],\"mode\":\"mixed\",\"per_thread\":{per_thread},\
                 \"threads\":{threads},\"warm_cache\":{cache_json},\
                 \"warm_cold_speedup\":{speedup:.2}}}\n",
                rows.join(",")
            ),
        );
    }
    if cold.errors + warm.errors > 0 {
        eprintln!("loadgen: some requests failed");
        std::process::exit(1);
    }
}
