//! Idle-connection soak for the event-loop daemon.
//!
//! Opens thousands of connections against an in-process [`EventDaemon`]
//! and holds them idle, proving three things: per-connection memory
//! stays flat (a connection owns buffers, not a thread stack), the loop
//! still serves real requests while holding them all, and a graceful
//! drain closes every one cleanly (no aborts).
//!
//! ```text
//! cargo run --release -p lalr-bench --bin idlesoak            # 10,000 connections
//! cargo run --release -p lalr-bench --bin idlesoak -- 2000    # smaller soak
//! ```
//!
//! Both ends live in one process, so the fd budget is two descriptors
//! per connection; the harness raises `RLIMIT_NOFILE` toward what the
//! requested count needs and caps the count to what the hard limit
//! allows, reporting the cap. Exit status is nonzero if liveness,
//! memory flatness (< 32 KiB/connection), or the clean drain fails.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use lalr_core::Parallelism;
use lalr_service::protocol::request_to_line;
use lalr_service::{DaemonConfig, EventDaemon, GrammarFormat, Request, ServiceConfig};

/// Resident set size of this process in bytes, per `/proc/self/status`.
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Sends one request over an already-open connection and reads the
/// response line — the liveness probe for held sockets.
fn call_over(stream: &mut TcpStream, request: &Request) -> std::io::Result<String> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(format!("{}\n", request_to_line(request, None)).as_bytes())?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte)? {
            0 => break,
            _ if byte[0] == b'\n' => break,
            _ => line.push(byte[0]),
        }
    }
    Ok(String::from_utf8_lossy(&line).into_owned())
}

fn main() {
    if !lalr_net::supported() {
        eprintln!("idlesoak: event loop unsupported on this target, skipping");
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let requested: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(10_000);

    // Two fds per connection (client + server end) plus slack for the
    // listener, epoll fds, stdio, and the store-less service itself.
    let want = (requested as u64) * 2 + 512;
    let soft = lalr_net::sys::raise_nofile_limit(want).unwrap_or(1024);
    let conns = requested.min(((soft.saturating_sub(512)) / 2) as usize);
    if conns < requested {
        eprintln!("idlesoak: fd limit {soft} caps the soak at {conns} connections");
    }

    let daemon = EventDaemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: conns + 16,
            // Far above the soak's lifetime so held connections idle
            // without tripping the timeout.
            read_timeout: Duration::from_secs(300),
            service: ServiceConfig {
                workers: Parallelism::new(2),
                ..ServiceConfig::default()
            },
            ..DaemonConfig::default()
        },
        2,
    )
    .expect("bind loopback");
    let addr = daemon.addr().to_string();
    eprintln!("idlesoak: holding {conns} idle connections against {addr}");

    let rss_start = vm_rss_bytes();
    let mut held: Vec<TcpStream> = Vec::with_capacity(conns);
    for i in 0..conns {
        match TcpStream::connect(&addr) {
            Ok(s) => held.push(s),
            Err(e) => {
                eprintln!("idlesoak: connect {i} failed: {e}");
                std::process::exit(1);
            }
        }
        if (i + 1) % 2000 == 0 {
            eprintln!("idlesoak: {} connected", i + 1);
        }
    }
    let rss_held = vm_rss_bytes();

    // Liveness while saturated: a few of the held connections do real
    // work and every other socket stays open.
    let compile = Request::Compile {
        grammar: "e : e \"+\" t | t ; t : \"x\" ;".to_string(),
        format: GrammarFormat::Native,
    };
    let mut live_errors = 0usize;
    for idx in [0, conns / 2, conns - 1] {
        match call_over(&mut held[idx], &compile) {
            Ok(line) if line.contains("\"ok\":true") => {}
            Ok(line) => {
                eprintln!("idlesoak: probe on connection {idx} answered an error: {line}");
                live_errors += 1;
            }
            Err(e) => {
                eprintln!("idlesoak: probe on connection {idx} failed: {e}");
                live_errors += 1;
            }
        }
    }
    let rss_worked = vm_rss_bytes();

    // Graceful drain: every held connection must see a clean EOF.
    daemon.stop();
    let mut eofs = 0usize;
    let mut byte = [0u8; 1];
    for stream in &mut held {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        match stream.read(&mut byte) {
            Ok(0) => eofs += 1,
            Ok(_) => {}
            Err(e) => eprintln!("idlesoak: drain read failed: {e}"),
        }
    }
    let summary = daemon.join();

    let per_conn = rss_held.saturating_sub(rss_start) / conns.max(1) as u64;
    println!("| connections | rss start | rss held | rss worked | bytes/conn | eofs | drained | aborted |");
    println!("|------------:|----------:|---------:|-----------:|-----------:|-----:|--------:|--------:|");
    println!(
        "| {conns} | {:.1} MiB | {:.1} MiB | {:.1} MiB | {per_conn} | {eofs} | {} | {} |",
        rss_start as f64 / (1 << 20) as f64,
        rss_held as f64 / (1 << 20) as f64,
        rss_worked as f64 / (1 << 20) as f64,
        summary.drained,
        summary.aborted,
    );

    let mut failed = false;
    if live_errors > 0 {
        eprintln!("idlesoak: {live_errors} liveness probes failed");
        failed = true;
    }
    if per_conn > 32 * 1024 {
        eprintln!("idlesoak: {per_conn} bytes/connection exceeds the 32 KiB flatness budget");
        failed = true;
    }
    if eofs != conns || summary.aborted != 0 || summary.drained != conns as u64 {
        eprintln!(
            "idlesoak: drain was not clean ({eofs}/{conns} EOFs, {} drained, {} aborted)",
            summary.drained, summary.aborted
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("idlesoak: ok");
}
