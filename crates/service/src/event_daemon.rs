//! The TCP daemon: epoll event-loop shards over the service.
//!
//! Framing is newline-delimited JSON (one request line in, one response
//! line out; see [`crate::protocol`]). Connections multiplex onto N
//! event-loop shards built on [`lalr_net`]'s edge-triggered epoll
//! wrapper, which exists only on x86-64 Linux; elsewhere
//! [`EventDaemon::start`] fails with `Unsupported`. Compute happens on
//! the service's worker pool — a request is submitted with
//! [`Service::submit`] and its response comes back, already encoded by
//! the worker, through a per-shard completion queue plus an eventfd
//! wake — so a shard thread never blocks on a compile or spends time
//! encoding a reply, and the pool bounds concurrent compiles regardless
//! of connection count. Requests on one connection stay
//! strictly serialized (a pipelined second line waits for the first
//! response), so each response line is the serialization of what
//! [`Service::call`] returns for the same request.
//!
//! Shard 0 owns the listener and deals accepted connections round-robin
//! across shards; connections beyond [`DaemonConfig::max_connections`]
//! get an `unavailable` error line and are closed. Per-connection read
//! timeouts ride a hashed timer wheel. Shutdown (in-band `shutdown` op
//! or [`EventDaemon::stop`]) drains: idle connections close at once,
//! busy ones get [`DaemonConfig::drain_deadline`] to finish and are
//! then force-closed, and [`EventDaemon::join`] reports drained versus
//! aborted.
//!
//! # Self-healing and admission control
//!
//! Each shard's event loop runs inside a supervisor: a panic on the
//! shard thread (including the `shard.panic` failpoint) is caught with
//! `catch_unwind`, the incarnation's connections are closed as its
//! state unwinds (admission slots are released by RAII guards, so a
//! crash can never leak the connection gauge or a peer's quota), and
//! the shard is respawned with a fresh poller after a capped,
//! exponential backoff. The listener lives in shared state so a
//! respawned shard 0 re-registers it and keeps accepting. Restarts are
//! counted in [`crate::DaemonCounters`] and surface as
//! `lalr_shard_restarts_total` and in the shutdown summary.
//!
//! Admission control rejects overload *explicitly* instead of letting
//! it fester: a per-peer connection quota answers over-quota accepts
//! with a retryable `throttled` line; a token-bucket request rate limit
//! does the same per request line; and a slow-client write budget
//! closes connections that cannot drain their queued responses within
//! a deadline (write-side slowloris defense). Every rejection is
//! counted by reason in `lalr_admission_rejects_total`.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lalr_chaos::{Fault, FaultInjector};
use lalr_net::{
    Event, Interest, LineEvent, LineReader, Poller, TimerWheel, TokenBucket, Waker, WriteBuf,
};
use lalr_obs::ActiveTrace;
use rustc_hash::FxHashMap;

use crate::protocol::{request_from_value, response_into_line, response_to_line};
use crate::service::{Request, Response, Service, ServiceConfig, STAGE_WRITE};
use crate::telemetry::{DaemonCounters, ShardCounters};
use crate::ServiceError;

/// Reserved poller token for the shard's waker.
const TOKEN_WAKER: u64 = 0;
/// Reserved poller token for the listener (shard 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First connection token; also the smallest valid timer-wheel token.
const FIRST_CONN_TOKEN: u64 = 2;

/// Initial supervisor backoff after a shard panic.
const RESTART_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Backoff cap for a shard that keeps crashing.
const RESTART_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Poison-tolerant lock: a shard that panicked while holding a lock
/// must not cascade the failure into its supervisor or peer shards.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind (e.g. `127.0.0.1:4077`; port 0 picks one).
    pub addr: String,
    /// Maximum concurrently open connections.
    pub max_connections: usize,
    /// Per-connection read timeout; an idle connection is closed.
    pub read_timeout: Duration,
    /// Maximum request line length in bytes.
    pub max_line_bytes: usize,
    /// How long a shutting-down daemon waits for in-flight requests
    /// before force-closing their connections.
    pub drain_deadline: Duration,
    /// Write timeout for admission-rejection lines (over-cap, over-quota)
    /// written to a connection that is about to be closed — a slow or
    /// hostile peer must not stall the accept path. Zero disables the
    /// timeout.
    pub reject_write_timeout: Duration,
    /// Per-peer (per source IP) concurrent-connection quota enforced at
    /// accept time; over-quota connections get a fast retryable
    /// `throttled` rejection. 0 disables the quota.
    pub max_connections_per_peer: usize,
    /// Token-bucket request rate limit (request lines per second across
    /// all connections) enforced at line-parse time; over-rate lines get
    /// a retryable `throttled` rejection. 0 disables the limit.
    pub rate_limit_per_sec: u64,
    /// Token-bucket burst capacity. 0 means "same as
    /// [`DaemonConfig::rate_limit_per_sec`]".
    pub rate_limit_burst: u64,
    /// Slow-client write budget: a connection whose queued response
    /// bytes do not drain within this deadline is closed (write-side
    /// slowloris defense). Zero disables the budget.
    pub write_budget: Duration,
    /// Fault injector for the daemon's I/O failpoints (`daemon.read`,
    /// `daemon.write`, `daemon.admit`, `shard.panic`). Usually the same
    /// injector as [`ServiceConfig::faults`]; disabled by default.
    pub faults: FaultInjector,
    /// The underlying service configuration.
    pub service: ServiceConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:4077".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            max_line_bytes: 4 << 20,
            drain_deadline: Duration::from_secs(5),
            reject_write_timeout: Duration::from_secs(1),
            max_connections_per_peer: 0,
            rate_limit_per_sec: 0,
            rate_limit_burst: 0,
            write_budget: Duration::ZERO,
            faults: FaultInjector::disabled(),
            service: ServiceConfig::default(),
        }
    }
}

/// What a daemon did, reported by [`EventDaemon::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Connections accepted (including over-cap rejections).
    pub connections: u64,
    /// Requests the service handled.
    pub requests: u64,
    /// Connections open at shutdown that finished cleanly within the
    /// drain deadline (idle ones close immediately and count here).
    pub drained: u64,
    /// Connections force-closed because they were still mid-request when
    /// the drain deadline expired.
    pub aborted: u64,
    /// Event-loop shards respawned by the supervisor after a panic.
    pub restarts: u64,
}

/// A running daemon: newline-delimited JSON over TCP, served by epoll
/// event-loop shards in front of a [`Service`] worker pool.
pub struct EventDaemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<ShardTotals>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct ShardTotals {
    drained: u64,
    aborted: u64,
}

/// Work handed to a shard from outside its thread: freshly accepted
/// connections (from shard 0's acceptor, with their admission guards)
/// and encoded replies (from service workers). Paired with the shard's
/// waker. The inbox lives in [`Shared`], so work queued while a crashed
/// shard respawns is picked up by the next incarnation.
#[derive(Default)]
struct Inbox {
    conns: Vec<(TcpStream, PeerGuard)>,
    completions: Vec<(u64, Completion)>,
}

/// A reply as the worker that produced it hands it back: already
/// encoded, so the shard only moves bytes.
struct Completion {
    /// The reply line, framing newline included.
    line: String,
    /// The reply is not an error (the trace's error flag).
    ok: bool,
    /// When the worker began encoding: the trace's write stage starts
    /// here, so it covers the encode as well as the write-back.
    encode_started: Instant,
}

/// Encodes a reply as one framed line.
fn wire_line(response: Response) -> String {
    let mut line = response_into_line(response);
    line.push('\n');
    line
}

struct Shared {
    service: Arc<Service>,
    /// Daemon-wide counters (shard restarts, admission rejects), shared
    /// with the service for the `health`/`stats` ops and metrics.
    daemon: Arc<DaemonCounters>,
    shutdown: AtomicBool,
    /// Open connections across all shards (the connection cap's gauge).
    active: AtomicUsize,
    /// Connections accepted, including admission rejections.
    connections: AtomicU64,
    wakers: Vec<Waker>,
    inboxes: Vec<Mutex<Inbox>>,
    /// Per-shard event-loop telemetry, shared with the service so the
    /// `stats` op and metrics exposition can render `lalr_shard_*`.
    counters: Vec<Arc<ShardCounters>>,
    /// The listening socket. Held here (not by shard 0's stack) so a
    /// respawned shard 0 can re-register it after a panic; taken and
    /// closed when drain begins.
    listener: Mutex<Option<TcpListener>>,
    /// Live connection count per source IP, for the per-peer quota.
    /// Only populated when [`DaemonConfig::max_connections_per_peer`]
    /// is non-zero.
    per_peer: Mutex<FxHashMap<IpAddr, usize>>,
    /// Token bucket for the global request rate limit; `None` when
    /// [`DaemonConfig::rate_limit_per_sec`] is 0.
    rate: Option<Mutex<TokenBucket>>,
    /// Per-shard next connection token. Lives here so tokens stay
    /// monotonic across shard incarnations — a completion in flight for
    /// a connection that died in a crash must never alias a connection
    /// accepted by the respawned shard.
    next_tokens: Vec<AtomicU64>,
    config: DaemonConfig,
}

impl Shared {
    /// Claims a per-peer quota slot; `false` means the peer is at its
    /// quota and the connection must be rejected.
    fn try_admit_peer(&self, ip: IpAddr, quota: usize) -> bool {
        let mut map = lock(&self.per_peer);
        let n = map.entry(ip).or_insert(0);
        if *n >= quota {
            false
        } else {
            *n += 1;
            true
        }
    }

    fn release_peer(&self, ip: IpAddr) {
        let mut map = lock(&self.per_peer);
        if let Some(n) = map.get_mut(&ip) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(&ip);
            }
        }
    }
}

/// RAII receipt for one admitted connection: releases the global
/// connection gauge and (when quotas are armed) the peer's quota slot
/// on drop. Connections own their guard, so the drop also runs when a
/// panicking shard's connection map unwinds — a crash can never leak
/// admission slots.
struct PeerGuard {
    shared: Arc<Shared>,
    peer: Option<IpAddr>,
}

impl Drop for PeerGuard {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        if let Some(ip) = self.peer {
            self.shared.release_peer(ip);
        }
    }
}

impl EventDaemon {
    /// Binds the address and starts `shards` supervised event-loop
    /// threads (clamped to at least 1). Fails with `Unsupported` where
    /// the raw epoll shim has no backend (anything but x86-64 Linux).
    pub fn start(config: DaemonConfig, shards: usize) -> io::Result<EventDaemon> {
        if !lalr_net::supported() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the daemon requires the epoll backend, which exists only on x86-64 Linux",
            ));
        }
        let shards = shards.max(1);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let service = Arc::new(Service::new(config.service.clone()));
        let counters: Vec<Arc<ShardCounters>> = (0..shards)
            .map(|_| Arc::new(ShardCounters::default()))
            .collect();
        service.register_shards(counters.clone());
        let daemon = Arc::new(DaemonCounters::with_quotas(
            config.max_connections_per_peer as u64,
            config.rate_limit_per_sec,
        ));
        service.register_daemon(Arc::clone(&daemon));
        let rate = (config.rate_limit_per_sec > 0).then(|| {
            let burst = if config.rate_limit_burst == 0 {
                config.rate_limit_per_sec
            } else {
                config.rate_limit_burst
            };
            Mutex::new(TokenBucket::new(
                config.rate_limit_per_sec,
                burst,
                Instant::now(),
            ))
        });
        let wakers = (0..shards)
            .map(|_| Waker::new())
            .collect::<io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            service,
            daemon,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            wakers,
            inboxes: (0..shards).map(|_| Mutex::new(Inbox::default())).collect(),
            counters,
            listener: Mutex::new(Some(listener)),
            per_peer: Mutex::new(FxHashMap::default()),
            rate,
            next_tokens: (0..shards)
                .map(|_| AtomicU64::new(FIRST_CONN_TOKEN))
                .collect(),
            config,
        });
        let handles = (0..shards)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lalr-event-shard-{idx}"))
                    .spawn(move || Shard::run(idx, shards, shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(EventDaemon {
            addr,
            shared,
            handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown from outside the protocol. Idempotent; the
    /// in-band `shutdown` op does the same.
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.service.set_draining();
        for w in &self.shared.wakers {
            let _ = w.wake();
        }
    }

    /// Waits for every shard to finish draining and returns the
    /// summary.
    pub fn join(self) -> DaemonSummary {
        let mut drained = 0;
        let mut aborted = 0;
        for h in self.handles {
            // The supervisor catches shard panics, so a join error
            // means the thread died outside its catch_unwind loop; its
            // totals are lost but the daemon still reports the rest.
            if let Ok(t) = h.join() {
                drained += t.drained;
                aborted += t.aborted;
            }
        }
        let requests = self.shared.service.stats().requests;
        self.shared.service.shutdown();
        DaemonSummary {
            connections: self.shared.connections.load(Ordering::Relaxed),
            requests,
            drained,
            aborted,
            restarts: self.shared.daemon.shard_restarts.load(Ordering::Relaxed),
        }
    }
}

/// One live connection's event-loop state.
struct Conn {
    stream: TcpStream,
    reader: LineReader,
    out: WriteBuf,
    /// Decoded lines not yet processed (pipelined requests queue here —
    /// one request executes at a time).
    pending: VecDeque<LineEvent>,
    /// A request is executing on the worker pool.
    busy: bool,
    /// The in-flight request is a `shutdown` op.
    in_flight_shutdown: bool,
    /// The `daemon.read` Truncate failpoint fired for the in-flight
    /// request: execute it but close without responding.
    suppress_response: bool,
    /// Write out everything queued, then close.
    close_after_flush: bool,
    /// An oversize line was answered; close once its remainder has been
    /// skipped and the error response flushed.
    oversize_close: bool,
    /// Currently registered for writable readiness too.
    wants_write: bool,
    /// A slow-client write deadline is armed on the write wheel.
    write_armed: bool,
    /// The in-flight request's flight-recorder trace, when sampled.
    /// One slot suffices: requests on a connection are strictly
    /// serialized.
    trace: Option<ConnTrace>,
    /// Admission receipt; dropping the connection releases its slots.
    _guard: PeerGuard,
}

/// A sampled request's trace as it rides a connection: the shared
/// accumulator, when the request line was parsed (the trace's epoch),
/// and — once the response is queued — when write-back began.
struct ConnTrace {
    active: Arc<ActiveTrace>,
    started: Instant,
    write_started: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, max_line: usize, guard: PeerGuard) -> Conn {
        Conn {
            stream,
            reader: LineReader::new(max_line),
            out: WriteBuf::new(),
            pending: VecDeque::new(),
            busy: false,
            in_flight_shutdown: false,
            suppress_response: false,
            close_after_flush: false,
            oversize_close: false,
            wants_write: false,
            write_armed: false,
            trace: None,
            _guard: guard,
        }
    }
}

struct Shard {
    idx: usize,
    shard_count: usize,
    shared: Arc<Shared>,
    poller: Poller,
    /// Read-side timers: per-connection idle timeouts.
    wheel: TimerWheel,
    /// Write-side timers: the slow-client write budget.
    write_wheel: TimerWheel,
    conns: FxHashMap<u64, Conn>,
    round_robin: usize,
    draining: Option<Instant>,
    totals: ShardTotals,
    counters: Arc<ShardCounters>,
}

impl Shard {
    /// The shard supervisor: runs incarnations of the event loop,
    /// catching panics (including the `shard.panic` failpoint) and
    /// respawning with capped exponential backoff. A panicking
    /// incarnation's connections are closed as its state unwinds; their
    /// admission guards release the connection gauge and peer quotas.
    fn run(idx: usize, shard_count: usize, shared: Arc<Shared>) -> ShardTotals {
        let mut totals = ShardTotals::default();
        let mut backoff = RESTART_BACKOFF_MIN;
        loop {
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Shard::run_incarnation(idx, shard_count, &shared)
            }));
            match outcome {
                Ok(t) => {
                    // Clean exit (drained): the daemon is shutting down.
                    totals.drained += t.drained;
                    totals.aborted += t.aborted;
                    return totals;
                }
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        // Crashed mid-drain: nothing left to supervise.
                        return totals;
                    }
                    shared.daemon.shard_restarts.fetch_add(1, Ordering::Relaxed);
                    // A long-lived incarnation earns a fresh backoff;
                    // a crash loop keeps doubling toward the cap.
                    if started.elapsed() > Duration::from_secs(1) {
                        backoff = RESTART_BACKOFF_MIN;
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(RESTART_BACKOFF_MAX);
                }
            }
        }
    }

    /// One incarnation of the shard: fresh poller and timer wheels,
    /// re-registered waker and (shard 0) listener, then the event loop
    /// until drain completes or a panic unwinds back to the supervisor.
    fn run_incarnation(idx: usize, shard_count: usize, shared: &Arc<Shared>) -> ShardTotals {
        let Ok(poller) = Poller::new() else {
            return ShardTotals::default();
        };
        if shared.wakers[idx].register(&poller, TOKEN_WAKER).is_err() {
            return ShardTotals::default();
        }
        if idx == 0 {
            let guard = lock(&shared.listener);
            if let Some(l) = guard.as_ref() {
                if poller
                    .register(l, TOKEN_LISTENER, Interest::READABLE)
                    .is_err()
                {
                    return ShardTotals::default();
                }
            }
        }
        let granularity = (shared.config.read_timeout / 8)
            .clamp(Duration::from_millis(5), Duration::from_secs(1));
        let wheel = TimerWheel::new(Instant::now(), 64, granularity);
        let budget = shared.config.write_budget;
        let write_granularity = if budget.is_zero() {
            granularity
        } else {
            (budget / 8).clamp(Duration::from_millis(1), Duration::from_secs(1))
        };
        let write_wheel = TimerWheel::new(Instant::now(), 64, write_granularity);
        let counters = Arc::clone(&shared.counters[idx]);
        // A fresh incarnation starts with zero live connections; the
        // previous one's orphans were closed as its state unwound.
        counters.connections.store(0, Ordering::Relaxed);
        let mut shard = Shard {
            idx,
            shard_count,
            shared: Arc::clone(shared),
            poller,
            wheel,
            write_wheel,
            conns: FxHashMap::default(),
            round_robin: 0,
            draining: None,
            totals: ShardTotals::default(),
            counters,
        };
        // Catch up on work queued while the slot was empty: the
        // eventfd edge and listener readiness may predate this poller.
        shard.drain_inbox();
        if shard.idx == 0 {
            shard.accept_burst();
        }
        shard.event_loop();
        shard.totals
    }

    fn event_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut expired = Vec::new();
        loop {
            // Enter drain mode: stop accepting, close idle connections
            // immediately, give busy ones until the deadline.
            if self.draining.is_none() && self.shared.shutdown.load(Ordering::SeqCst) {
                self.draining = Some(Instant::now());
                if self.idx == 0 {
                    // Stop accepting for good: deregister and close the
                    // listening socket.
                    if let Some(l) = lock(&self.shared.listener).take() {
                        let _ = self.poller.deregister(&l);
                    }
                }
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.busy && c.out.is_empty())
                    .map(|(t, _)| *t)
                    .collect();
                for t in idle {
                    self.close(t);
                }
            }
            if let Some(started) = self.draining {
                if self.conns.is_empty() {
                    return;
                }
                if started.elapsed() >= self.shared.config.drain_deadline {
                    // Force-close stragglers still mid-request.
                    let stuck: Vec<u64> = self.conns.keys().copied().collect();
                    for t in stuck {
                        self.close_raw(t);
                        self.totals.aborted += 1;
                    }
                    return;
                }
            }
            let now = Instant::now();
            let mut timeout = self.wheel.next_timeout(now);
            if let Some(wt) = self.write_wheel.next_timeout(now) {
                timeout = Some(timeout.map_or(wt, |t| t.min(wt)));
            }
            if let Some(started) = self.draining {
                let left = self
                    .shared
                    .config
                    .drain_deadline
                    .saturating_sub(started.elapsed());
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
            events.clear();
            let wait_failed = self.poller.wait(&mut events, timeout).is_err();
            // Publish cumulative poll accounting (single writer per
            // shard; readers are the stats/metrics ops).
            let ps = self.poller.stats();
            self.counters.epoll_waits.store(ps.waits, Ordering::Relaxed);
            self.counters
                .epoll_wait_ns
                .store(ps.wait_ns, Ordering::Relaxed);
            self.counters.events.store(ps.events, Ordering::Relaxed);
            if wait_failed {
                continue;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => {
                        self.shared.wakers[self.idx].drain();
                        self.drain_inbox();
                    }
                    TOKEN_LISTENER => self.accept_burst(),
                    token => {
                        if ev.readable {
                            self.on_readable(token);
                        }
                        if ev.writable {
                            self.flush(token);
                        }
                    }
                }
            }
            expired.clear();
            self.wheel.advance(Instant::now(), &mut expired);
            for e in &expired {
                let Some(conn) = self.conns.get(&e.token) else {
                    continue;
                };
                self.counters.timer_fires.fetch_add(1, Ordering::Relaxed);
                if conn.busy {
                    // Never time out a request in flight; re-arm so the
                    // idle clock restarts after the response.
                    self.wheel
                        .arm(e.token, Instant::now() + self.shared.config.read_timeout);
                } else {
                    // Idle timeout.
                    self.close(e.token);
                }
            }
            expired.clear();
            self.write_wheel.advance(Instant::now(), &mut expired);
            for e in &expired {
                let Some(conn) = self.conns.get(&e.token) else {
                    continue;
                };
                if conn.out.is_empty() {
                    // Drained after the deadline armed; lazy cancel.
                    continue;
                }
                // Slow-client budget blown: the peer is not draining
                // its responses — cut it loose rather than let queued
                // bytes pin memory indefinitely.
                self.counters.timer_fires.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .daemon
                    .rejects_slow_client
                    .fetch_add(1, Ordering::Relaxed);
                if self.draining.is_some() {
                    self.close_raw(e.token);
                    self.totals.aborted += 1;
                } else {
                    self.close(e.token);
                }
            }
        }
    }

    /// Accepts until the listener would block (shard 0 only), applying
    /// the connection cap and per-peer quota, then dealing admitted
    /// connections round-robin across shards.
    fn accept_burst(&mut self) {
        loop {
            let accepted = {
                let guard = lock(&self.shared.listener);
                let Some(l) = guard.as_ref() else { return };
                match l.accept() {
                    Ok(pair) => pair,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    // Transient accept failures (ECONNABORTED, EMFILE…):
                    // stop the burst; the next readable edge retries.
                    Err(_) => return,
                }
            };
            let (stream, peer) = accepted;
            self.shared.connections.fetch_add(1, Ordering::Relaxed);
            if self.shared.active.load(Ordering::SeqCst) >= self.shared.config.max_connections {
                self.shared
                    .daemon
                    .rejects_conn_cap
                    .fetch_add(1, Ordering::Relaxed);
                reject_conn(
                    stream,
                    ServiceError::Unavailable("connection limit reached".to_string()),
                    self.shared.config.reject_write_timeout,
                );
                continue;
            }
            let quota = self.shared.config.max_connections_per_peer;
            let peer_ip = (quota > 0).then(|| peer.ip());
            if let Some(ip) = peer_ip {
                if !self.shared.try_admit_peer(ip, quota) {
                    self.shared
                        .daemon
                        .rejects_peer_quota
                        .fetch_add(1, Ordering::Relaxed);
                    reject_conn(
                        stream,
                        ServiceError::Throttled(format!(
                            "per-peer connection quota ({quota}) exceeded; retry after backoff"
                        )),
                        self.shared.config.reject_write_timeout,
                    );
                    continue;
                }
            }
            self.shared.active.fetch_add(1, Ordering::SeqCst);
            let guard = PeerGuard {
                shared: Arc::clone(&self.shared),
                peer: peer_ip,
            };
            let target = self.round_robin % self.shard_count;
            self.round_robin += 1;
            if target == self.idx {
                self.install(stream, guard);
            } else {
                lock(&self.shared.inboxes[target])
                    .conns
                    .push((stream, guard));
                let _ = self.shared.wakers[target].wake();
            }
        }
    }

    fn drain_inbox(&mut self) {
        let (new_conns, completions) = {
            let mut inbox = lock(&self.shared.inboxes[self.idx]);
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.completions),
            )
        };
        self.counters.inbox_items.fetch_add(
            (new_conns.len() + completions.len()) as u64,
            Ordering::Relaxed,
        );
        for (stream, guard) in new_conns {
            self.install(stream, guard);
        }
        for (token, completion) in completions {
            self.on_completion(token, completion);
        }
    }

    fn install(&mut self, stream: TcpStream, guard: PeerGuard) {
        // Early-return paths drop `guard`, releasing admission slots.
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Tokens come from shared state so they stay monotonic across
        // incarnations (a stale completion must never alias a new conn).
        let token = self.shared.next_tokens[self.idx].fetch_add(1, Ordering::Relaxed);
        if self
            .poller
            .register(&stream, token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.wheel
            .arm(token, Instant::now() + self.shared.config.read_timeout);
        self.conns.insert(
            token,
            Conn::new(stream, self.shared.config.max_line_bytes, guard),
        );
        self.counters.accepts.fetch_add(1, Ordering::Relaxed);
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        if self.draining.is_some() {
            // Accepted just before shutdown: close like any idle conn.
            self.close(token);
        } else {
            // Bytes may have arrived before registration; ET only
            // reports future edges, so poll the socket once by hand.
            self.on_readable(token);
        }
    }

    fn on_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if self.draining.is_none() {
            self.wheel
                .arm(token, Instant::now() + self.shared.config.read_timeout);
        }
        match conn.reader.fill(&mut &conn.stream) {
            Ok(events) => conn.pending.extend(events),
            Err(_) => {
                self.close(token);
                return;
            }
        }
        self.pump(token);
        self.maybe_finish(token);
    }

    /// Processes queued lines until a request goes in flight, the
    /// connection turns terminal, or the queue runs dry.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || conn.close_after_flush || conn.oversize_close {
                return;
            }
            if self.draining.is_some() {
                // A draining daemon stops reading between requests.
                if conn.out.is_empty() {
                    self.close(token);
                }
                return;
            }
            let Some(item) = conn.pending.pop_front() else {
                if conn.reader.at_eof() {
                    if conn.out.is_empty() {
                        self.close(token);
                    } else {
                        conn.close_after_flush = true;
                    }
                }
                return;
            };
            match item {
                // Invalid UTF-8 drops the connection without a
                // response.
                LineEvent::InvalidUtf8 => {
                    self.close(token);
                    return;
                }
                LineEvent::Oversize => {
                    let limit = self.shared.config.max_line_bytes;
                    let ok = self.queue_error(
                        token,
                        ServiceError::TooLarge {
                            size: limit + 1,
                            limit,
                        },
                    );
                    if let Some(conn) = self.conns.get_mut(&token) {
                        // Close, but only after the remainder of the
                        // oversized line has been read past (closing
                        // with unread bytes queued sends an RST that
                        // can tear the error response away).
                        if ok {
                            conn.oversize_close = true;
                        } else {
                            conn.close_after_flush = true;
                        }
                    }
                    self.flush(token);
                    return;
                }
                LineEvent::Line(mut line) => {
                    let mut suppress = false;
                    // The read-side failpoint, applied to a complete
                    // request line as if the transport had failed
                    // underneath it.
                    match self.shared.config.faults.at("daemon.read") {
                        Some(Fault::Error) => {
                            self.close(token);
                            return;
                        }
                        Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                        Some(Fault::Garbage) => {
                            line = format!("\u{1b}corrupt\u{0000}{line}");
                        }
                        Some(Fault::Truncate) => suppress = true,
                        _ => {}
                    }
                    if line.trim().is_empty() {
                        continue;
                    }
                    // Admission control, per complete request line and
                    // before parsing: over-rate lines get a fast
                    // retryable `throttled` rejection, never a silent
                    // drop.
                    if let Some(bucket) = &self.shared.rate {
                        let admitted = lock(bucket).try_take(Instant::now());
                        if !admitted {
                            self.shared
                                .daemon
                                .rejects_rate_limit
                                .fetch_add(1, Ordering::Relaxed);
                            let rate = self.shared.config.rate_limit_per_sec;
                            let ok = self.queue_error(
                                token,
                                ServiceError::Throttled(format!(
                                    "request rate limit ({rate}/s) exceeded; retry after backoff"
                                )),
                            );
                            self.flush(token);
                            if !ok {
                                return;
                            }
                            continue;
                        }
                    }
                    // The admission failpoint: a deterministic stand-in
                    // for quota pressure under chaos schedules.
                    match self.shared.config.faults.at("daemon.admit") {
                        Some(Fault::Error) => {
                            self.shared
                                .daemon
                                .rejects_failpoint
                                .fetch_add(1, Ordering::Relaxed);
                            let ok = self.queue_error(
                                token,
                                ServiceError::Throttled(
                                    "injected fault at daemon.admit".to_string(),
                                ),
                            );
                            self.flush(token);
                            if !ok {
                                return;
                            }
                            continue;
                        }
                        Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                        _ => {}
                    }
                    if let Some(Fault::Panic) = self.shared.config.faults.at("shard.panic") {
                        // The supervisor catches this, the incarnation's
                        // connections close as its state unwinds, and
                        // the shard respawns with backoff.
                        panic!("injected fault at shard.panic");
                    }
                    let parsed = serde_json::from_str(line.trim_end())
                        .map_err(|e| ServiceError::BadRequest(e.to_string()))
                        .and_then(|v| request_from_value(&v));
                    let (request, deadline) = match parsed {
                        Ok(p) => p,
                        Err(e) => {
                            let ok = self.queue_error(token, e);
                            self.flush(token);
                            if !ok {
                                return;
                            }
                            continue;
                        }
                    };
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return;
                    };
                    conn.busy = true;
                    conn.in_flight_shutdown = matches!(request, Request::Shutdown);
                    conn.suppress_response = suppress;
                    let trace = self
                        .shared
                        .service
                        .begin_trace(request.op(), self.idx as u16);
                    conn.trace = trace.as_ref().map(|t| ConnTrace {
                        active: Arc::clone(t),
                        started: Instant::now(),
                        write_started: None,
                    });
                    let shared = Arc::clone(&self.shared);
                    let shard = self.idx;
                    self.shared
                        .service
                        .submit_traced(request, deadline, trace, move |response| {
                            // Runs on the worker: the reply leaves it as
                            // wire bytes.
                            let encode_started = Instant::now();
                            let ok = response.is_ok();
                            let line = wire_line(response);
                            let completion = Completion {
                                line,
                                ok,
                                encode_started,
                            };
                            lock(&shared.inboxes[shard])
                                .completions
                                .push((token, completion));
                            let _ = shared.wakers[shard].wake();
                        });
                    return;
                }
            }
        }
    }

    fn on_completion(&mut self, token: u64, completion: Completion) {
        let Some(conn) = self.conns.get_mut(&token) else {
            // The connection died while its request executed (close,
            // timeout, or a shard crash); the response has nowhere to
            // go.
            return;
        };
        conn.busy = false;
        let is_shutdown = std::mem::take(&mut conn.in_flight_shutdown);
        let suppressed = std::mem::take(&mut conn.suppress_response);
        if let Some(tr) = conn.trace.as_mut() {
            if !completion.ok {
                tr.active.set_error();
            }
            // The write stage began when the worker began encoding;
            // `flush` stamps it when the buffer drains.
            tr.write_started = Some(completion.encode_started);
        }
        if suppressed {
            // Injected truncation: the request executed but the client
            // never hears back — it must treat the silence as retryable.
            if is_shutdown {
                self.trigger_shutdown();
            }
            self.close(token);
            return;
        }
        let ok = self.queue_line(token, completion.line);
        if is_shutdown {
            self.trigger_shutdown();
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after_flush = true;
            }
        } else if !ok {
            // Write-side fault: whatever was already queued flushes,
            // then the connection closes (handled by close_after_flush
            // set inside queue_response).
        }
        self.flush(token);
        if !is_shutdown && ok {
            self.pump(token);
            self.maybe_finish(token);
        }
    }

    /// Encodes and queues an error the shard answers itself (see
    /// [`Shard::queue_line`]).
    fn queue_error(&mut self, token: u64, error: ServiceError) -> bool {
        self.queue_line(token, wire_line(Response::Error(error)))
    }

    /// Queues one framed reply line, applying the `daemon.write`
    /// failpoint. The line's buffer is adopted, not copied, when nothing
    /// else is pending. Returns `false` when the fault consumed or cut
    /// the response (the connection is then marked to close after
    /// flushing).
    fn queue_line(&mut self, token: u64, line: String) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match self.shared.config.faults.at("daemon.write") {
            Some(Fault::Error) => {
                // Response eaten whole.
                conn.close_after_flush = true;
                return false;
            }
            Some(Fault::PartialWrite) => {
                // Half the line's bytes, no newline: the client sees a
                // line cut mid-way and must report a distinct `closed`
                // error.
                let bytes = line.as_bytes();
                conn.out.queue(&bytes[..(bytes.len() - 1) / 2]);
                conn.close_after_flush = true;
                return false;
            }
            Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        conn.out.queue_owned(line.into_bytes());
        true
    }

    /// Flushes as far as the socket allows, maintaining writable
    /// interest, the slow-client write budget, and terminal-close
    /// states.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.out.flush(&mut &conn.stream) {
            Ok(true) => {
                // The response (if one was in flight) is fully on the
                // wire: stamp the write stage and file the trace.
                if let Some(tr) = conn.trace.take_if(|t| t.write_started.is_some()) {
                    let ws = tr.write_started.expect("checked by take_if");
                    tr.active
                        .add_stage(STAGE_WRITE, ws.elapsed().as_nanos() as u64);
                    self.shared
                        .service
                        .finish_trace(&tr.active, tr.started.elapsed());
                }
                if conn.wants_write {
                    conn.wants_write = false;
                    let _ = self
                        .poller
                        .reregister(&conn.stream, token, Interest::READABLE);
                }
                if conn.write_armed {
                    conn.write_armed = false;
                    self.write_wheel.cancel(token);
                }
                self.maybe_finish(token);
            }
            Ok(false) => {
                if !conn.wants_write {
                    conn.wants_write = true;
                    let _ = self.poller.reregister(&conn.stream, token, Interest::BOTH);
                }
                // Start the slow-client clock when bytes first stall;
                // re-arming on every partial flush would let a
                // byte-at-a-time reader extend the budget forever.
                let budget = self.shared.config.write_budget;
                if !budget.is_zero() && !conn.write_armed {
                    conn.write_armed = true;
                    self.write_wheel.arm(token, Instant::now() + budget);
                }
            }
            Err(_) => self.close(token),
        }
    }

    /// Closes a connection whose terminal condition has been reached:
    /// everything flushed and either marked close-after-flush, done
    /// skipping an oversize line, or at EOF with nothing left to do.
    fn maybe_finish(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if !conn.out.is_empty() {
            return;
        }
        let skipped_oversize = conn.oversize_close && !conn.reader.is_skipping();
        let idle_at_eof = conn.reader.at_eof() && !conn.busy && conn.pending.is_empty();
        if conn.close_after_flush || skipped_oversize || idle_at_eof {
            self.close(token);
        }
    }

    fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.service.set_draining();
        for w in &self.shared.wakers {
            let _ = w.wake();
        }
    }

    /// Removes a connection; during drain this counts it as cleanly
    /// drained (force-closes at the deadline use [`Shard::close_raw`]
    /// and count as aborted).
    fn close(&mut self, token: u64) {
        self.close_raw(token);
        if self.draining.is_some() {
            self.totals.drained += 1;
        }
    }

    fn close_raw(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.wheel.cancel(token);
            self.write_wheel.cancel(token);
            let _ = self.poller.deregister(&conn.stream);
            self.counters.connections.fetch_sub(1, Ordering::Relaxed);
            // A trace orphaned by the close still gets recorded: stamp
            // whatever write time accrued and finish at the close.
            if let Some(tr) = conn.trace {
                if let Some(ws) = tr.write_started {
                    tr.active
                        .add_stage(STAGE_WRITE, ws.elapsed().as_nanos() as u64);
                }
                self.shared
                    .service
                    .finish_trace(&tr.active, tr.started.elapsed());
            }
            // `conn` (and its PeerGuard) drops here, releasing the
            // connection gauge and the peer's quota slot.
        }
    }
}

/// Writes one admission-rejection line and drops the connection. The
/// bounded write timeout keeps a hostile peer from stalling the accept
/// path.
fn reject_conn(mut stream: TcpStream, error: ServiceError, write_timeout: Duration) {
    let line = response_to_line(&Response::Error(error));
    if !write_timeout.is_zero() {
        let _ = stream.set_write_timeout(Some(write_timeout));
    }
    let _ = writeln!(stream, "{line}");
}
