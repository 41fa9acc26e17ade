//! The request engine: a worker pool over the cache.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lalr_chaos::{Fault, FaultInjector, FaultPointStats};
use lalr_core::{DigraphStats, Parallelism, RelationStats};
use lalr_obs::{ActiveTrace, CollectingRecorder, FlightRecorder, RequestTrace, STAGE_COUNT};
use lalr_runtime::{terminal_index, Parser, Token};

use crate::artifact::{CompiledArtifact, GrammarFormat};
use crate::cache::{ArtifactCache, CacheConfig, CacheOutcome, CacheStats};
use crate::error::ServiceError;
use crate::fingerprint::format_fingerprint;
use crate::telemetry::{DaemonCounters, ShardCounters, ShardStatsSnapshot};

/// Stage indices into [`lalr_obs::STAGE_NAMES`] / an [`ActiveTrace`].
pub(crate) const STAGE_QUEUE: usize = 0;
pub(crate) const STAGE_CACHE: usize = 1;
pub(crate) const STAGE_COMPILE: usize = 2;
pub(crate) const STAGE_PARSE: usize = 3;
pub(crate) const STAGE_WRITE: usize = 4;

/// Upper bounds (µs) of the fixed latency histogram buckets; the sixth
/// bucket is overflow.
pub const LATENCY_BOUNDS_US: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Every protocol op, in wire/stats order (the index into the per-op
/// counter arrays).
pub const OPS: [&str; 9] = [
    "compile", "classify", "table", "parse", "stats", "metrics", "trace", "health", "shutdown",
];

/// The compile-pipeline phases the service aggregates per request
/// (top-level spans of [`CompiledArtifact::compile_recorded`]).
pub const PHASE_NAMES: [&str; 8] = [
    "parse",
    "lr0.build",
    "relations.build",
    "digraph.reads",
    "digraph.includes",
    "la.union",
    "classify",
    "tables.build",
];

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Size of the worker pool: one worker per configured thread. Each
    /// compile runs sequentially on its worker; concurrency comes from
    /// the pool.
    pub workers: Parallelism,
    /// Artifact cache configuration; `None` disables caching entirely
    /// (every request compiles — the load generator's cold arm).
    pub cache: Option<CacheConfig>,
    /// Maximum grammar/input payload size in bytes.
    pub max_request_bytes: usize,
    /// Maximum size of a *single document* in a parse batch. An oversized
    /// document gets a per-document error verdict; the rest of the batch
    /// still parses (unlike `max_request_bytes`, which fails the whole
    /// request).
    pub max_document_bytes: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Option<Duration>,
    /// Bound on requests queued but not yet picked up by a worker.
    /// [`Service::call`] never blocks on a full queue: the request is
    /// shed with an [`ServiceError::Overloaded`] response instead, so a
    /// saturated service degrades into fast, explicit rejections rather
    /// than unbounded memory growth and client hangs.
    pub max_pending: usize,
    /// Fault injector threaded through the whole stack ([`Service::new`]
    /// hands this same injector to the [`ArtifactCache`], so one plan
    /// covers both the `service.compile` and `cache.storm` failpoints).
    /// Disabled by default — and free when disabled.
    pub faults: FaultInjector,
    /// Directory for the persistent artifact store. When set (and
    /// caching is enabled), [`Service::new`] opens a
    /// [`lalr_store::Store`] there — sharing this config's fault
    /// injector, so one chaos plan arms `store.write`/`store.read` along
    /// with the in-process failpoints — and hands it to the cache as its
    /// disk tier.
    pub store_dir: Option<std::path::PathBuf>,
    /// Graceful-degradation hysteresis: when the pending queue sheds
    /// this many requests in a row the service flips to `degraded` and
    /// rejects cold compiles (cache and store hits still serve) until
    /// pressure subsides. See [`HealthConfig`].
    pub health: HealthConfig,
    /// Request-scoped tracing. `None` (the default) disables the flight
    /// recorder entirely: no trace IDs are assigned, no stages are
    /// stamped, and the hot path is allocation-identical to a build
    /// without tracing (pinned by the `trace_overhead` regression
    /// test). `Some` arms a [`FlightRecorder`] with the given capacity
    /// and sampling period.
    pub tracing: Option<TraceConfig>,
}

/// Flight-recorder knobs ([`ServiceConfig::tracing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity: how many recent [`RequestTrace`]s are kept
    /// (rounded up to a power of two, minimum 8).
    pub capacity: usize,
    /// Sampling period: one request in `sample_every` is traced
    /// (clamped to at least 1; 1 traces every request).
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 256,
            sample_every: 1,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: Parallelism::available(),
            cache: Some(CacheConfig::default()),
            max_request_bytes: 1 << 20,
            max_document_bytes: 256 << 10,
            default_deadline: None,
            max_pending: 1024,
            faults: FaultInjector::disabled(),
            store_dir: None,
            health: HealthConfig::default(),
            tracing: None,
        }
    }
}

/// Hysteresis thresholds for the `ok → degraded → ok` health state
/// machine ([`ServiceConfig::health`]).
///
/// Degradation trips on *consecutive* queue sheds — one burst that
/// sheds a single request does not flip the state — and recovery
/// requires the queue to stay calm (at most half full) across
/// `recover_after_ok` consecutive accepted requests, so the state does
/// not flap at the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive queue sheds that flip the service to `degraded`.
    /// 0 disables degradation entirely (the binary shed behavior).
    pub degrade_after_sheds: u64,
    /// Consecutive calm accepted requests (queue at most half full)
    /// that flip a degraded service back to `ok` (clamped to ≥ 1).
    pub recover_after_ok: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            degrade_after_sheds: 3,
            recover_after_ok: 8,
        }
    }
}

/// The daemon health state reported by the `health` op and the
/// `lalr_health_state` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Serving everything.
    #[default]
    Ok,
    /// Under sustained overload: cache/store hits and
    /// fingerprint-addressed parses still serve, cold compiles are
    /// rejected with a retryable `degraded` error.
    Degraded,
    /// Shutting down: no new connections, in-flight work drains.
    Draining,
}

impl HealthState {
    /// Stable wire name (`ok`, `degraded`, `draining`).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }

    /// Numeric gauge value for the metrics exposition (0/1/2).
    pub fn code(&self) -> u8 {
        match self {
            HealthState::Ok => 0,
            HealthState::Degraded => 1,
            HealthState::Draining => 2,
        }
    }

    fn from_code(code: u8) -> HealthState {
        match code {
            1 => HealthState::Degraded,
            2 => HealthState::Draining,
            _ => HealthState::Ok,
        }
    }
}

/// Per-reason admission-rejection counters (the label set of
/// `lalr_admission_rejects_total`). All zero unless a daemon front end
/// registered its [`DaemonCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionRejects {
    /// Connections rejected at the global connection cap.
    pub conn_cap: u64,
    /// Connections rejected by the per-peer connection quota.
    pub peer_quota: u64,
    /// Request lines rejected by the token-bucket rate limit.
    pub rate_limit: u64,
    /// Connections closed for failing the write-drain budget.
    pub slow_client: u64,
    /// Request lines rejected by the `daemon.admit` failpoint.
    pub failpoint: u64,
}

impl AdmissionRejects {
    /// Sum over every rejection reason.
    pub fn total(&self) -> u64 {
        self.conn_cap + self.peer_quota + self.rate_limit + self.slow_client + self.failpoint
    }
}

/// Self-healing telemetry in a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthStats {
    /// Current health state.
    pub state: HealthState,
    /// `ok → degraded` transitions since start.
    pub degraded_transitions: u64,
    /// Event-loop shards respawned after a panic.
    pub shard_restarts: u64,
    /// Per-reason admission rejections.
    pub admission: AdmissionRejects,
    /// Configured per-peer connection quota (0 = unlimited).
    pub max_connections_per_peer: u64,
    /// Configured request-rate limit per second (0 = unlimited).
    pub rate_limit_per_sec: u64,
}

/// The `health` op's response payload: state, quotas, and restart
/// counts, cheap enough to poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Current health state (`ok`, `degraded`, `draining`).
    pub state: String,
    /// Requests waiting in the queue right now.
    pub queue_depth: usize,
    /// The configured pending-queue bound.
    pub queue_limit: usize,
    /// Requests shed at the queue bound since start.
    pub shed: u64,
    /// `ok → degraded` transitions since start.
    pub degraded_transitions: u64,
    /// Event-loop shards respawned after a panic.
    pub shard_restarts: u64,
    /// Configured per-peer connection quota (0 = unlimited).
    pub max_connections_per_peer: u64,
    /// Configured request-rate limit per second (0 = unlimited).
    pub rate_limit_per_sec: u64,
    /// Per-reason admission rejections.
    pub admission_rejects: AdmissionRejects,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile a grammar (and cache the artifact).
    Compile {
        /// Grammar source text.
        grammar: String,
        /// How to read the text.
        format: GrammarFormat,
    },
    /// Compile (or fetch) and report the adequacy classification.
    Classify {
        /// Grammar source text.
        grammar: String,
        /// How to read the text.
        format: GrammarFormat,
    },
    /// Compile (or fetch) and render the ACTION/GOTO table.
    Table {
        /// Grammar source text.
        grammar: String,
        /// How to read the text.
        format: GrammarFormat,
        /// Also report default-reduction compression statistics.
        compressed: bool,
    },
    /// Resolve an artifact once and parse a **batch** of documents
    /// against it (each document is a whitespace-separated sequence of
    /// terminal names).
    Parse {
        /// Which artifact to parse against.
        target: ParseTarget,
        /// The documents, parsed in order against the one resolved
        /// artifact.
        documents: Vec<String>,
        /// Collect multiple diagnostics per document with panic-mode
        /// recovery ([`Parser::parse_with_recovery`]) instead of stopping
        /// at the first error.
        recover: bool,
        /// Terminal names used as synchronization tokens in recovery
        /// mode (ignored unless `recover`).
        sync: Vec<String>,
    },
    /// Service statistics snapshot.
    Stats,
    /// Prometheus-style text exposition of the service metrics.
    Metrics,
    /// Dump the flight recorder: recent request traces, filtered.
    Trace(TraceFilter),
    /// Health probe: state machine position, quotas, restart counts.
    Health,
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown,
}

/// Which flight-recorder entries a `trace` request asks for. All
/// filters compose with AND; the default selects everything.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceFilter {
    /// Keep only traces of this op (an [`OPS`] name).
    pub op: Option<String>,
    /// Keep only traces of requests that answered with an error.
    pub errors_only: bool,
    /// Keep only traces at least this slow (total latency, µs).
    pub slow_us: Option<u64>,
    /// Return at most this many traces (newest first).
    pub limit: Option<usize>,
}

impl Request {
    /// Stable op name (wire format and stats key).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Compile { .. } => "compile",
            Request::Classify { .. } => "classify",
            Request::Table { .. } => "table",
            Request::Parse { .. } => "parse",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Trace(_) => "trace",
            Request::Health => "health",
            Request::Shutdown => "shutdown",
        }
    }

    fn payload_len(&self) -> usize {
        match self {
            Request::Compile { grammar, .. } | Request::Classify { grammar, .. } => grammar.len(),
            Request::Table { grammar, .. } => grammar.len(),
            // Documents are bounded individually (`max_document_bytes`),
            // so an oversized document degrades to a per-document error
            // verdict instead of failing the whole batch.
            Request::Parse { target, .. } => match target {
                ParseTarget::Text { grammar, .. } => grammar.len(),
                ParseTarget::Fingerprint(_) => 0,
            },
            Request::Stats
            | Request::Metrics
            | Request::Trace(_)
            | Request::Health
            | Request::Shutdown => 0,
        }
    }
}

/// How a parse request names its artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTarget {
    /// Grammar source text, compiled (or fetched) like the other ops.
    Text {
        /// Grammar source text.
        grammar: String,
        /// How to read the text.
        format: GrammarFormat,
    },
    /// The fingerprint a prior compile reported; resolved straight from
    /// the cache with no text transfer. `not_found` when the artifact was
    /// never compiled here or has been evicted.
    Fingerprint(u64),
}

/// Index of an op name in [`OPS`] (unknown names map to the last slot).
fn op_index(op: &str) -> usize {
    OPS.iter().position(|&o| o == op).unwrap_or(OPS.len() - 1)
}

/// Compile response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileSummary {
    /// Hex fingerprint of the normalized grammar (the cache key).
    pub fingerprint: String,
    /// Whether this response was served from the cache.
    pub cached: bool,
    /// LR(0) state count.
    pub states: usize,
    /// Production count (including the augmented start).
    pub productions: usize,
    /// Terminal count (including `$`).
    pub terminals: usize,
    /// Unresolved LALR(1) conflicts.
    pub conflicts: usize,
    /// Grammar class string (`LR(0)`, `SLR(1)`, …).
    pub class: String,
    /// Estimated artifact size in bytes (cache accounting unit).
    pub bytes: usize,
    /// Sizes of the four look-ahead relations.
    pub relations: RelationStats,
    /// SCC structure of the `reads` traversal.
    pub reads: DigraphStats,
    /// SCC structure of the `includes` traversal.
    pub includes: DigraphStats,
}

/// Classify response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifySummary {
    /// Grammar class string.
    pub class: String,
    /// Conflicts under no look-ahead.
    pub lr0_conflicts: usize,
    /// Conflicts under SLR(1) look-aheads.
    pub slr_conflicts: usize,
    /// Conflicts under NQLALR(1) look-aheads.
    pub nqlalr_conflicts: usize,
    /// Conflicts under LALR(1) look-aheads.
    pub lalr_conflicts: usize,
    /// Conflicts in the canonical LR(1) machine.
    pub lr1_conflicts: usize,
    /// `reads`-cycle detected (not LR(k) for any k).
    pub not_lr_k: bool,
}

/// Table response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSummary {
    /// The rendered dense ACTION/GOTO matrix.
    pub text: String,
    /// Number of precedence/default conflict resolutions applied.
    pub resolutions: usize,
    /// Dense non-error ACTION entries.
    pub action_entries: usize,
    /// Explicit entries in the compressed table (when requested).
    pub compressed_entries: Option<usize>,
}

/// Parse response payload: one verdict per document, all served from a
/// single artifact resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBatchSummary {
    /// Hex fingerprint of the artifact the batch was parsed against.
    pub fingerprint: String,
    /// Whether the artifact came from the cache (always `true` for
    /// fingerprint-addressed requests).
    pub cached: bool,
    /// Per-document verdicts, in request order.
    pub docs: Vec<DocVerdict>,
}

/// The verdict for one document of a parse batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocVerdict {
    /// Whether the document is a sentence of the grammar.
    pub accepted: bool,
    /// Leaf count of the parse tree (0 when rejected).
    pub leaves: u64,
    /// Interior node count of the parse tree (0 when rejected).
    pub nodes: u64,
    /// S-expression rendering of the parse tree (accepted only).
    pub tree: Option<String>,
    /// The first (or only) error (rejected only).
    pub error: Option<DocError>,
    /// Total diagnostics; exceeds 1 only in recovery mode.
    pub error_count: u64,
}

/// A positioned per-document parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocError {
    /// Human-readable message.
    pub message: String,
    /// Where the error points. A document's token offsets are token
    /// indices, so a mid-input error points at the offending token's
    /// index. At end of input it is the last consumed token's index plus
    /// the byte length of its text, as the runtime computes it for lexed
    /// input: `( NUM` → 4, `NUM +` → 2.
    pub offset: u64,
    /// The offending token text, absent at end of input.
    pub found: Option<String>,
    /// Terminal names that would have been accepted.
    pub expected: Vec<String>,
}

impl DocVerdict {
    fn rejected(error: DocError) -> DocVerdict {
        DocVerdict {
            accepted: false,
            leaves: 0,
            nodes: 0,
            tree: None,
            error: Some(error),
            error_count: 1,
        }
    }
}

/// Aggregate service statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Total requests handled (all ops).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Per-op request counts, indexed like [`OPS`].
    pub by_op: [u64; 9],
    /// Per-op *error* response counts, indexed like [`OPS`].
    pub errors_by_op: [u64; 9],
    /// Fixed-bucket latency histogram over all ops (bounds
    /// [`LATENCY_BOUNDS_US`], last bucket is overflow).
    pub latency_buckets: [u64; 6],
    /// Per-op latency histograms (same buckets), indexed like [`OPS`].
    pub latency_by_op: [[u64; 6]; 9],
    /// Per-op total latency in microseconds (the histogram `_sum`).
    pub latency_sum_us: [u64; 9],
    /// Per-phase compile-pipeline call counts, indexed like
    /// [`PHASE_NAMES`].
    pub phase_calls: [u64; 8],
    /// Per-phase compile-pipeline wall time in nanoseconds, indexed like
    /// [`PHASE_NAMES`].
    pub phase_ns: [u64; 8],
    /// Parse-lane counters (batches, documents, cache amortization).
    pub parse: ParseLaneStats,
    /// Cache counters (absent when caching is disabled).
    pub cache: Option<CacheStats>,
    /// Worker pool size.
    pub workers: usize,
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Requests shed because the pending queue was at its bound.
    pub shed: u64,
    /// Requests waiting in the queue right now (a gauge, not cumulative).
    pub queue_depth: usize,
    /// The configured pending-queue bound ([`ServiceConfig::max_pending`]).
    pub queue_limit: usize,
    /// Per-rule fault-injection counters (empty unless a chaos plan is
    /// armed; see `lalr_chaos`).
    pub faults: Vec<FaultPointStats>,
    /// Per-shard event-loop telemetry (empty for in-process callers,
    /// one entry per epoll shard under the daemon).
    pub shards: Vec<ShardStatsSnapshot>,
    /// Health state machine and admission-control telemetry.
    pub health: HealthStats,
    /// Flight-recorder counters ([`TracingStats::enabled`] is `false`
    /// when [`ServiceConfig::tracing`] is `None`).
    pub tracing: TracingStats,
}

/// Flight-recorder counters in a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TracingStats {
    /// Whether a flight recorder is armed.
    pub enabled: bool,
    /// Ring capacity (0 when disabled).
    pub capacity: usize,
    /// Sampling period (0 when disabled).
    pub sample_every: u64,
    /// Traces recorded since start (may exceed capacity).
    pub sampled: u64,
    /// Cumulative per-stage nanoseconds across sampled requests,
    /// indexed like [`lalr_obs::STAGE_NAMES`].
    pub stage_ns: [u64; STAGE_COUNT],
}

/// The `trace` op's response payload: a filtered flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// Whether a flight recorder is armed (when `false` the dump is
    /// empty but the response is still `ok`).
    pub enabled: bool,
    /// Ring capacity (0 when disabled).
    pub capacity: usize,
    /// Sampling period (0 when disabled).
    pub sample_every: u64,
    /// Traces recorded since start (before filtering; may exceed
    /// capacity).
    pub recorded: u64,
    /// The matching traces, newest first.
    pub traces: Vec<RequestTrace>,
}

/// Parse-lane counters: how many documents rode on how few artifact
/// resolutions (the cache-amortization figure the batch op exists for).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParseLaneStats {
    /// Parse batches that resolved an artifact.
    pub batches: u64,
    /// Documents parsed across all batches.
    pub documents: u64,
    /// Documents accepted.
    pub accepted: u64,
    /// Documents rejected (syntax error, unknown terminal, oversized).
    pub rejected: u64,
    /// Artifact resolutions performed for parse batches (one per batch;
    /// `documents / resolutions` is the amortization ratio).
    pub resolutions: u64,
}

/// One protocol response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful compile.
    Compile(CompileSummary),
    /// Successful classification.
    Classify(ClassifySummary),
    /// Rendered table.
    Table(TableSummary),
    /// Parse verdicts, one per document in the batch.
    Parse(ParseBatchSummary),
    /// Statistics snapshot.
    Stats(Box<StatsSnapshot>),
    /// Prometheus-style text exposition.
    Metrics(String),
    /// Flight-recorder dump.
    Trace(Box<TraceDump>),
    /// Health probe answer.
    Health(HealthReport),
    /// Shutdown acknowledged.
    Shutdown,
    /// Structured failure.
    Error(ServiceError),
}

impl Response {
    /// `true` for non-error responses.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error(_))
    }
}

/// How a finished job hands its response back: a blocking caller parks
/// on a channel ([`Service::call`]), an event loop registers a callback
/// that runs on the worker thread ([`Service::submit`]).
enum Reply {
    Sync(SyncReply),
    Callback(Box<dyn FnOnce(Response) + Send>),
}

/// The sending half of a [`Service::call`]: the reply channel and the
/// caller to wake. The caller polls the channel and parks between polls
/// rather than blocking in `recv`, because a blocking receive allocates a
/// waker entry whenever the reply is not there yet — a call's allocation
/// count would then depend on thread timing, and the allocation tests
/// (`trace_overhead.rs`) compare it exactly.
struct SyncReply {
    tx: Option<mpsc::Sender<Response>>,
    caller: std::thread::Thread,
}

impl Drop for SyncReply {
    /// Sent, or never coming because the job was dropped: either way the
    /// caller wakes to look.
    fn drop(&mut self) {
        drop(self.tx.take());
        self.caller.unpark();
    }
}

impl Reply {
    fn deliver(self, response: Response) {
        match self {
            // A dropped receiver (caller gave up) is not an error.
            Reply::Sync(mut reply) => {
                if let Some(tx) = reply.tx.take() {
                    drop(tx.send(response));
                }
            }
            Reply::Callback(f) => f(response),
        }
    }
}

struct Job {
    request: Request,
    deadline: Option<Instant>,
    accepted_at: Instant,
    reply: Reply,
    /// The flight-recorder accumulator when this request was sampled.
    /// The worker stamps the queue stage and the pipeline stamps
    /// cache/compile/parse; whoever began the trace finishes it.
    trace: Option<Arc<ActiveTrace>>,
}

struct Inner {
    config: ServiceConfig,
    cache: Option<ArtifactCache>,
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    deadline_exceeded: AtomicU64,
    shed: AtomicU64,
    queue_depth: AtomicUsize,
    by_op: [AtomicU64; 9],
    errors_by_op: [AtomicU64; 9],
    latency: [AtomicU64; 6],
    latency_by_op: [[AtomicU64; 6]; 9],
    latency_sum_us: [AtomicU64; 9],
    phase_calls: [AtomicU64; 8],
    phase_ns: [AtomicU64; 8],
    parse_batches: AtomicU64,
    parse_documents: AtomicU64,
    parse_accepted: AtomicU64,
    parse_rejected: AtomicU64,
    parse_resolutions: AtomicU64,
    /// The flight recorder; `None` when tracing is disabled (the
    /// zero-cost path: every trace hook starts with this check). Boxed
    /// so its per-request atomics, written by the event-loop thread,
    /// never share a cache line with this struct's counters, which the
    /// workers write.
    tracer: Option<Box<FlightRecorder>>,
    /// Cumulative per-stage nanoseconds across sampled requests.
    stage_ns: [AtomicU64; STAGE_COUNT],
    /// Per-shard event-loop counters, registered once by the daemon
    /// (empty for in-process callers).
    shards: std::sync::OnceLock<Vec<Arc<ShardCounters>>>,
    /// Daemon self-healing counters (shard restarts, admission
    /// rejections), registered once by the daemon serving this service.
    /// Absent for in-process callers.
    daemon: std::sync::OnceLock<Arc<DaemonCounters>>,
    /// Health state machine position ([`HealthState::code`] values).
    health: AtomicU8,
    /// Consecutive queue sheds (degradation trigger).
    shed_streak: AtomicU64,
    /// Consecutive calm accepted requests while degraded (recovery
    /// trigger).
    calm_streak: AtomicU64,
    /// `ok → degraded` transitions since start.
    degraded_transitions: AtomicU64,
}

/// The compilation service: a worker pool executing [`Request`]s against
/// the shared [`ArtifactCache`].
///
/// # Examples
///
/// ```
/// use lalr_service::{Request, Response, Service, ServiceConfig, GrammarFormat};
///
/// let service = Service::new(ServiceConfig::default());
/// let r = service.call(
///     Request::Compile {
///         grammar: "e : e \"+\" t | t ; t : \"x\" ;".to_string(),
///         format: GrammarFormat::Native,
///     },
///     None,
/// );
/// match r {
///     Response::Compile(c) => assert_eq!(c.conflicts, 0),
///     other => panic!("{other:?}"),
/// }
/// ```
pub struct Service {
    inner: Arc<Inner>,
    tx: Mutex<Option<mpsc::SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.inner.config.workers.threads())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Service {
    /// Starts the worker pool.
    pub fn new(config: ServiceConfig) -> Service {
        // One injector per stack: the cache shares the service's plan so
        // a single spec arms `service.compile` and `cache.storm` alike —
        // and, when a store directory is configured, `store.write` and
        // `store.read` too.
        let cache = config.cache.clone().map(|mut c| {
            c.faults = config.faults.clone();
            if let Some(dir) = &config.store_dir {
                let store = lalr_store::Store::with_faults(dir, config.faults.clone())
                    .expect("open artifact store directory");
                c.store = Some(Arc::new(store));
            }
            ArtifactCache::new(c)
        });
        let inner = Arc::new(Inner {
            cache,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            by_op: Default::default(),
            errors_by_op: Default::default(),
            latency: Default::default(),
            latency_by_op: std::array::from_fn(|_| Default::default()),
            latency_sum_us: Default::default(),
            phase_calls: Default::default(),
            phase_ns: Default::default(),
            parse_batches: AtomicU64::new(0),
            parse_documents: AtomicU64::new(0),
            parse_accepted: AtomicU64::new(0),
            parse_rejected: AtomicU64::new(0),
            parse_resolutions: AtomicU64::new(0),
            tracer: config
                .tracing
                .map(|t| Box::new(FlightRecorder::new(t.capacity, t.sample_every))),
            stage_ns: Default::default(),
            shards: std::sync::OnceLock::new(),
            daemon: std::sync::OnceLock::new(),
            health: AtomicU8::new(0),
            shed_streak: AtomicU64::new(0),
            calm_streak: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
            config,
        });
        // A rendezvous queue bounded at `max_pending`: `try_send` makes
        // overload visible (shed + explicit error) instead of unbounded.
        let (tx, rx) = mpsc::sync_channel::<Job>(inner.config.max_pending.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..inner.config.workers.threads())
            .map(|i| {
                let rx = Arc::clone(&rx);
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("lalr-service-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            inner,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
        }
    }

    /// Submits a request and blocks for the response. `deadline` bounds
    /// queueing plus execution; `None` falls back to the configured
    /// default. A missed deadline yields a `deadline` error response
    /// (checked when the request is dequeued and again after execution —
    /// a compile in progress is not interrupted). When the pending queue
    /// is at [`ServiceConfig::max_pending`] the request is **shed**
    /// immediately with an `overloaded` error rather than queued.
    pub fn call(&self, request: Request, deadline: Option<Duration>) -> Response {
        let accepted_at = Instant::now();
        let op = request.op();
        let trace = self.begin_trace(op, 0);
        let (reply_tx, reply_rx) = mpsc::channel();
        let reply = Reply::Sync(SyncReply {
            tx: Some(reply_tx),
            caller: std::thread::current(),
        });
        if let Err(e) = self.enqueue(request, deadline, accepted_at, reply, trace.clone()) {
            // Failed requests are observations too: a shed, rejected, or
            // orphaned call still lands in the histogram and error
            // counters.
            let response = Response::Error(e);
            self.inner.record(op, &response, accepted_at.elapsed());
            if let Some(trace) = &trace {
                trace.set_error();
                self.finish_trace(trace, accepted_at.elapsed());
            }
            return response;
        }
        let received = loop {
            match reply_rx.try_recv() {
                Err(mpsc::TryRecvError::Empty) => std::thread::park(),
                received => break received,
            }
        };
        let response = received.unwrap_or_else(|_| {
            let response = Response::Error(ServiceError::Unavailable(
                "worker terminated before replying".to_string(),
            ));
            self.inner.record(op, &response, accepted_at.elapsed());
            response
        });
        if let Some(trace) = &trace {
            if !response.is_ok() {
                trace.set_error();
            }
            self.finish_trace(trace, accepted_at.elapsed());
        }
        response
    }

    /// Submits a request without blocking: `on_done` receives the
    /// response **exactly once** — on a worker thread for executed
    /// requests, or inline on this thread when the request is shed,
    /// rejected, or orphaned by shutdown. The same deadline and shedding
    /// semantics as [`Service::call`] apply; the callback must not block
    /// for long (it runs on a pool worker) — the event-loop front end
    /// uses it to park the response on a completion queue and wake its
    /// poller.
    pub fn submit<F>(&self, request: Request, deadline: Option<Duration>, on_done: F)
    where
        F: FnOnce(Response) + Send + 'static,
    {
        self.submit_traced(request, deadline, None, on_done)
    }

    /// [`Service::submit`] with an externally owned trace accumulator:
    /// the event front end begins the trace at read-completion (so the
    /// shard and write-back stages can be stamped outside the pool) and
    /// finishes it when the response drains to the socket. Pass `None`
    /// when the request was not sampled.
    pub fn submit_traced<F>(
        &self,
        request: Request,
        deadline: Option<Duration>,
        trace: Option<Arc<ActiveTrace>>,
        on_done: F,
    ) where
        F: FnOnce(Response) + Send + 'static,
    {
        let accepted_at = Instant::now();
        let op = request.op();
        if let Err(e) = self.enqueue(
            request,
            deadline,
            accepted_at,
            Reply::Callback(Box::new(on_done)),
            trace,
        ) {
            // `enqueue` already delivered the error through the callback;
            // this side only records the observation.
            self.inner
                .record(op, &Response::Error(e), accepted_at.elapsed());
        }
    }

    /// Samples the flight recorder for a new request: `Some` with a
    /// fresh [`ActiveTrace`] when tracing is armed and this request won
    /// the sampling draw, `None` otherwise. The disabled path is a
    /// single branch on a `None` — no IDs, no allocation.
    pub fn begin_trace(&self, op: &str, shard: u16) -> Option<Arc<ActiveTrace>> {
        let tracer = self.inner.tracer.as_ref()?;
        if !tracer.should_sample() {
            return None;
        }
        Some(Arc::new(ActiveTrace::new(
            tracer.next_id(),
            op_index(op) as u8,
            shard,
        )))
    }

    /// Freezes a sampled request's trace with its end-to-end latency,
    /// publishes it to the flight recorder, and folds its stage times
    /// into the service-wide `lalr_stage_seconds` accumulators.
    pub fn finish_trace(&self, trace: &ActiveTrace, total: Duration) {
        let Some(tracer) = self.inner.tracer.as_ref() else {
            return;
        };
        let done = trace.finish(total.as_nanos() as u64);
        for (acc, &us) in self.inner.stage_ns.iter().zip(&done.stages_us) {
            acc.fetch_add(us * 1_000, Ordering::Relaxed);
        }
        tracer.push(&done);
    }

    /// Registers the event front end's per-shard counters so they show
    /// up in [`Service::stats`] and the metrics exposition. Called once
    /// at daemon start; later calls are ignored.
    pub(crate) fn register_shards(&self, shards: Vec<Arc<ShardCounters>>) {
        let _ = self.inner.shards.set(shards);
    }

    /// Registers the daemon's self-healing counters (shard restarts,
    /// admission rejections) so the `health`/`stats` ops and the
    /// metrics exposition can report them. Called once at daemon start;
    /// later calls are ignored.
    pub(crate) fn register_daemon(&self, counters: Arc<DaemonCounters>) {
        let _ = self.inner.daemon.set(counters);
    }

    /// Current health state machine position.
    pub fn health_state(&self) -> HealthState {
        HealthState::from_code(self.inner.health.load(Ordering::Relaxed))
    }

    /// Moves the health state to `draining` (daemon shutdown has begun:
    /// no new connections, in-flight work is draining). Terminal — the
    /// recovery path never leaves `draining`.
    pub fn set_draining(&self) {
        self.inner
            .health
            .store(HealthState::Draining.code(), Ordering::Relaxed);
    }

    /// The `health` op's payload, also callable in process.
    pub fn health_report(&self) -> HealthReport {
        self.inner.health_report()
    }

    /// Queues a job, or explains why it cannot be queued. On failure the
    /// reply has already been consumed: shed/unavailable errors are
    /// delivered through it before returning, so every reply — sync or
    /// callback — fires exactly once.
    fn enqueue(
        &self,
        request: Request,
        deadline: Option<Duration>,
        accepted_at: Instant,
        reply: Reply,
        trace: Option<Arc<ActiveTrace>>,
    ) -> Result<(), ServiceError> {
        let deadline = deadline
            .or(self.inner.config.default_deadline)
            .map(|d| accepted_at + d);
        let job = Job {
            request,
            deadline,
            accepted_at,
            reply,
            trace,
        };
        match &*self.tx.lock().expect("service sender poisoned") {
            Some(tx) => {
                // Count the job *before* it becomes visible to the
                // workers: a worker may dequeue and decrement between
                // try_send and a post-send increment, and the gauge
                // would underflow. Rolled back on the error arms.
                self.inner.queue_depth.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(job) {
                    Ok(()) => {
                        self.inner.note_accept();
                        Ok(())
                    }
                    Err(mpsc::TrySendError::Full(job)) => {
                        self.inner.queue_depth.fetch_sub(1, Ordering::SeqCst);
                        self.inner.shed.fetch_add(1, Ordering::Relaxed);
                        self.inner.note_shed();
                        Err(ServiceError::Overloaded {
                            pending: self.inner.queue_depth.load(Ordering::SeqCst),
                            limit: self.inner.config.max_pending.max(1),
                        })
                        .inspect_err(|e| job.reply.deliver(Response::Error(e.clone())))
                    }
                    Err(mpsc::TrySendError::Disconnected(job)) => {
                        self.inner.queue_depth.fetch_sub(1, Ordering::SeqCst);
                        Err(ServiceError::Unavailable(
                            "service is shut down".to_string(),
                        ))
                        .inspect_err(|e| job.reply.deliver(Response::Error(e.clone())))
                    }
                }
            }
            None => {
                let e = ServiceError::Unavailable("service is shut down".to_string());
                job.reply.deliver(Response::Error(e.clone()));
                Err(e)
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// Prometheus-style text exposition of the current statistics (what
    /// the `metrics` protocol op returns).
    pub fn metrics_text(&self) -> String {
        crate::metrics::render(&self.stats())
    }

    /// Direct cache access (for differential tests and the load
    /// generator); `None` when caching is disabled.
    pub fn cache(&self) -> Option<&ArtifactCache> {
        self.inner.cache.as_ref()
    }

    /// Stops accepting new requests and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        drop(self.tx.lock().expect("service sender poisoned").take());
        let mut workers = self.workers.lock().expect("worker list poisoned");
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner, rx: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        let job = {
            let rx = rx.lock().expect("job queue poisoned");
            rx.recv()
        };
        let Ok(job) = job else { return };
        inner.queue_depth.fetch_sub(1, Ordering::SeqCst);
        if let Some(trace) = &job.trace {
            // Queue stage: accepted (or read off the socket) → dequeued.
            trace.add_stage(STAGE_QUEUE, job.accepted_at.elapsed().as_nanos() as u64);
        }
        // The compile pipeline has its own `catch_unwind`; this one covers
        // everything else a request executes (table rendering, parsing,
        // snapshotting), so a panic records an error response instead of
        // silently killing the worker.
        let response = panic::catch_unwind(AssertUnwindSafe(|| inner.execute(&job)))
            .unwrap_or_else(|payload| Response::Error(ServiceError::from_panic(payload.as_ref())));
        let elapsed = job.accepted_at.elapsed();
        inner.record(job.request.op(), &response, elapsed);
        if let Some(trace) = &job.trace {
            if !response.is_ok() {
                trace.set_error();
            }
        }
        job.reply.deliver(response);
    }
}

impl Inner {
    /// Health transition on an accepted enqueue: any accept breaks a
    /// shed streak, and — while degraded — a calm queue (at most half
    /// full at accept time) counts toward recovery. Every op arrives
    /// through this path, so even a health poll drives recovery.
    fn note_accept(&self) {
        self.shed_streak.store(0, Ordering::Relaxed);
        if self.health.load(Ordering::Relaxed) != HealthState::Degraded.code() {
            return;
        }
        let depth = self.queue_depth.load(Ordering::SeqCst);
        let limit = self.config.max_pending.max(1);
        if depth * 2 <= limit {
            let calm = self.calm_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if calm >= self.config.health.recover_after_ok.max(1) {
                // compare_exchange: recovery must never resurrect a
                // draining service.
                let _ = self.health.compare_exchange(
                    HealthState::Degraded.code(),
                    HealthState::Ok.code(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                self.calm_streak.store(0, Ordering::Relaxed);
            }
        } else {
            self.calm_streak.store(0, Ordering::Relaxed);
        }
    }

    /// Health transition on a queue shed: consecutive sheds past the
    /// configured threshold flip `ok` to `degraded`.
    fn note_shed(&self) {
        self.calm_streak.store(0, Ordering::Relaxed);
        let threshold = self.config.health.degrade_after_sheds;
        if threshold == 0 {
            return;
        }
        let streak = self.shed_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= threshold
            && self
                .health
                .compare_exchange(
                    HealthState::Ok.code(),
                    HealthState::Degraded.code(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            self.degraded_transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn health_stats(&self) -> HealthStats {
        let daemon = self.daemon.get();
        HealthStats {
            state: HealthState::from_code(self.health.load(Ordering::Relaxed)),
            degraded_transitions: self.degraded_transitions.load(Ordering::Relaxed),
            shard_restarts: daemon
                .map(|d| d.shard_restarts.load(Ordering::Relaxed))
                .unwrap_or(0),
            admission: daemon.map(|d| d.rejects()).unwrap_or_default(),
            max_connections_per_peer: daemon.map(|d| d.max_connections_per_peer).unwrap_or(0),
            rate_limit_per_sec: daemon.map(|d| d.rate_limit_per_sec).unwrap_or(0),
        }
    }

    fn health_report(&self) -> HealthReport {
        let h = self.health_stats();
        HealthReport {
            state: h.state.as_str().to_string(),
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            queue_limit: self.config.max_pending.max(1),
            shed: self.shed.load(Ordering::Relaxed),
            degraded_transitions: h.degraded_transitions,
            shard_restarts: h.shard_restarts,
            max_connections_per_peer: h.max_connections_per_peer,
            rate_limit_per_sec: h.rate_limit_per_sec,
            admission_rejects: h.admission,
        }
    }

    fn execute(&self, job: &Job) -> Response {
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                return Response::Error(ServiceError::DeadlineExceeded {
                    elapsed_ms: job.accepted_at.elapsed().as_millis() as u64,
                });
            }
        }
        let response = self.handle(&job.request, job.trace.as_deref());
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                return Response::Error(ServiceError::DeadlineExceeded {
                    elapsed_ms: job.accepted_at.elapsed().as_millis() as u64,
                });
            }
        }
        response
    }

    fn handle(&self, request: &Request, trace: Option<&ActiveTrace>) -> Response {
        let limit = self.config.max_request_bytes;
        let size = request.payload_len();
        if size > limit {
            return Response::Error(ServiceError::TooLarge { size, limit });
        }
        match request {
            Request::Compile { grammar, format } => match self.artifact(grammar, *format, trace) {
                Ok((artifact, outcome)) => Response::Compile(CompileSummary {
                    fingerprint: format_fingerprint(artifact.fingerprint()),
                    cached: matches!(outcome, CacheOutcome::Hit | CacheOutcome::Loaded),
                    states: artifact.state_count(),
                    productions: artifact.production_count(),
                    terminals: artifact.terminal_count(),
                    conflicts: artifact.adequacy().lalr_conflicts,
                    class: artifact.adequacy().class.to_string(),
                    bytes: artifact.approx_bytes(),
                    relations: artifact.relation_stats().clone(),
                    reads: artifact.reads_traversal().clone(),
                    includes: artifact.includes_traversal().clone(),
                }),
                Err(e) => Response::Error(e),
            },
            Request::Classify { grammar, format } => match self.artifact(grammar, *format, trace) {
                Ok((artifact, _)) => {
                    let a = artifact.adequacy();
                    Response::Classify(ClassifySummary {
                        class: a.class.to_string(),
                        lr0_conflicts: a.lr0_conflicts,
                        slr_conflicts: a.slr_conflicts,
                        nqlalr_conflicts: a.nqlalr_conflicts,
                        lalr_conflicts: a.lalr_conflicts,
                        lr1_conflicts: a.lr1_conflicts,
                        not_lr_k: a.not_lr_k,
                    })
                }
                Err(e) => Response::Error(e),
            },
            Request::Table {
                grammar,
                format,
                compressed,
            } => match self.artifact(grammar, *format, trace) {
                Ok((artifact, _)) => Response::Table(TableSummary {
                    text: artifact.table().to_string(),
                    resolutions: artifact.table().resolution_count(),
                    action_entries: artifact.table().stats().action_entries,
                    compressed_entries: compressed
                        .then(|| artifact.compressed().explicit_entries()),
                }),
                Err(e) => Response::Error(e),
            },
            Request::Parse {
                target,
                documents,
                recover,
                sync,
            } => match self.parse_batch(target, documents, *recover, sync, trace) {
                Ok(summary) => Response::Parse(summary),
                Err(e) => Response::Error(e),
            },
            Request::Stats => Response::Stats(Box::new(self.snapshot())),
            Request::Metrics => Response::Metrics(crate::metrics::render(&self.snapshot())),
            Request::Trace(filter) => match self.trace_dump(filter) {
                Ok(dump) => Response::Trace(Box::new(dump)),
                Err(e) => Response::Error(e),
            },
            Request::Health => Response::Health(self.health_report()),
            Request::Shutdown => Response::Shutdown,
        }
    }

    /// The `trace` op: snapshot the flight recorder and filter. A
    /// disabled recorder answers `ok` with `enabled: false` and no
    /// traces; an unknown op filter is a structured `bad_request`.
    fn trace_dump(&self, filter: &TraceFilter) -> Result<TraceDump, ServiceError> {
        let op_filter = match &filter.op {
            Some(name) => match OPS.iter().position(|&o| o == name.as_str()) {
                Some(i) => Some(i as u8),
                None => {
                    return Err(ServiceError::BadRequest(format!(
                        "unknown op filter {name:?} (available: {})",
                        OPS.join(", ")
                    )))
                }
            },
            None => None,
        };
        let Some(tracer) = self.tracer.as_ref() else {
            return Ok(TraceDump {
                enabled: false,
                capacity: 0,
                sample_every: 0,
                recorded: 0,
                traces: Vec::new(),
            });
        };
        let recorded = tracer.recorded();
        let mut traces = tracer.snapshot();
        traces.retain(|t| {
            op_filter.is_none_or(|op| t.op == op)
                && (!filter.errors_only || t.error)
                && filter.slow_us.is_none_or(|slow| t.total_us >= slow)
        });
        traces.truncate(filter.limit.unwrap_or(usize::MAX));
        Ok(TraceDump {
            enabled: true,
            capacity: tracer.capacity(),
            sample_every: tracer.sample_every(),
            recorded,
            traces,
        })
    }

    /// The batched parse op: resolve the artifact **once**, then drive
    /// the LR driver over every document.
    fn parse_batch(
        &self,
        target: &ParseTarget,
        documents: &[String],
        recover: bool,
        sync: &[String],
        trace: Option<&ActiveTrace>,
    ) -> Result<ParseBatchSummary, ServiceError> {
        // The parse-worker failpoint: same contract as `service.compile` —
        // a panic unwinds into the worker's `catch_unwind` and surfaces
        // as a retryable `panicked` response.
        match self.config.faults.at("service.parse") {
            Some(Fault::Panic) => panic!("injected fault at service.parse"),
            Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::Error) => {
                return Err(ServiceError::Panicked(
                    "injected fault at service.parse".to_string(),
                ))
            }
            _ => {}
        }
        if documents.is_empty() {
            return Err(ServiceError::BadRequest(
                "empty batch: \"batch\" must contain at least one document".to_string(),
            ));
        }
        // One artifact resolution per batch — the amortization the op
        // exists for.
        let (artifact, cached) = match target {
            ParseTarget::Text { grammar, format } => {
                let (artifact, outcome) = self.artifact(grammar, *format, trace)?;
                (
                    artifact,
                    matches!(outcome, CacheOutcome::Hit | CacheOutcome::Loaded),
                )
            }
            ParseTarget::Fingerprint(fp) => {
                let lookup_started = trace.map(|_| Instant::now());
                let hex = format_fingerprint(*fp);
                let artifact = self
                    .cache
                    .as_ref()
                    .ok_or_else(|| {
                        ServiceError::NotFound(format!(
                            "artifact {hex}: caching is disabled, send the grammar text"
                        ))
                    })?
                    .get_by_fingerprint(*fp)
                    .ok_or_else(|| {
                        ServiceError::NotFound(format!(
                            "artifact {hex}: not in cache (never compiled or evicted)"
                        ))
                    })?;
                if let (Some(trace), Some(t0)) = (trace, lookup_started) {
                    trace.add_stage(STAGE_CACHE, t0.elapsed().as_nanos() as u64);
                }
                (artifact, true)
            }
        };
        // A table the parser would reduce forever on is refused whole:
        // one document could otherwise take the process's memory.
        if let Some(found) = artifact.reduce_loop() {
            return Err(ServiceError::BadGrammar(found.message(artifact.table())));
        }
        let parse_started = trace.map(|_| Instant::now());
        self.parse_resolutions.fetch_add(1, Ordering::Relaxed);
        self.parse_batches.fetch_add(1, Ordering::Relaxed);
        let table = artifact.table();
        // One name map per batch serves every word of every document.
        let names = terminal_index(table);
        // Resolve recovery sync tokens up front: a bad name fails the
        // request, not one document.
        let mut sync_ids = Vec::with_capacity(sync.len());
        for name in sync {
            match names.get(name.as_str()) {
                Some(&t) => sync_ids.push(t),
                None => {
                    return Err(ServiceError::BadRequest(format!(
                        "unknown sync terminal {name:?}"
                    )))
                }
            }
        }
        let mut docs = Vec::with_capacity(documents.len());
        for doc in documents {
            // The batch-boundary failpoint: checked between documents, so
            // a fault mid-batch aborts the remainder (the client sees one
            // structured error, never a half-written response).
            match self.config.faults.at("service.parse.doc") {
                Some(Fault::Panic) => panic!("injected fault at service.parse.doc"),
                Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                Some(Fault::Error) => {
                    return Err(ServiceError::Panicked(
                        "injected fault at service.parse.doc".to_string(),
                    ))
                }
                _ => {}
            }
            docs.push(self.parse_document(table, &names, doc, recover, &sync_ids));
        }
        if let (Some(trace), Some(t0)) = (trace, parse_started) {
            trace.add_stage(STAGE_PARSE, t0.elapsed().as_nanos() as u64);
        }
        let accepted = docs.iter().filter(|d| d.accepted).count() as u64;
        self.parse_documents
            .fetch_add(docs.len() as u64, Ordering::Relaxed);
        self.parse_accepted.fetch_add(accepted, Ordering::Relaxed);
        self.parse_rejected
            .fetch_add(docs.len() as u64 - accepted, Ordering::Relaxed);
        Ok(ParseBatchSummary {
            fingerprint: format_fingerprint(artifact.fingerprint()),
            cached,
            docs,
        })
    }

    /// Parses one document (whitespace-separated terminal names, looked
    /// up in `names`; token offsets are token indices) to a verdict.
    /// Never fails the batch: oversized documents and unknown terminals
    /// degrade to per-document error verdicts.
    fn parse_document(
        &self,
        table: &lalr_tables::ParseTable,
        names: &HashMap<&str, u32>,
        doc: &str,
        recover: bool,
        sync: &[u32],
    ) -> DocVerdict {
        let limit = self.config.max_document_bytes;
        if doc.len() > limit {
            return DocVerdict::rejected(DocError {
                message: format!(
                    "document of {} bytes exceeds the {limit}-byte limit",
                    doc.len()
                ),
                offset: 0,
                found: None,
                expected: Vec::new(),
            });
        }
        let mut tokens = Vec::new();
        for (i, word) in doc.split_whitespace().enumerate() {
            match names.get(word) {
                Some(&t) => tokens.push(Token::new(t, word, i)),
                None => {
                    return DocVerdict::rejected(DocError {
                        message: format!("unknown terminal {word:?}"),
                        offset: i as u64,
                        found: Some(word.to_string()),
                        expected: Vec::new(),
                    })
                }
            }
        }
        let doc_error = |e: &lalr_runtime::ParseError| DocError {
            message: e.to_string(),
            offset: e.offset as u64,
            found: e.found.as_ref().map(|t| t.text().to_string()),
            expected: e.expected.clone(),
        };
        if recover {
            let (tree, errors) = Parser::new(table).parse_with_recovery(tokens, sync, 8);
            let (leaves, nodes, sexpr) = match &tree {
                Some(t) => (
                    t.leaf_count() as u64,
                    t.node_count() as u64,
                    Some(t.to_sexpr(table)),
                ),
                None => (0, 0, None),
            };
            DocVerdict {
                accepted: errors.is_empty() && tree.is_some(),
                leaves,
                nodes,
                tree: sexpr,
                error: errors.first().map(doc_error),
                error_count: errors.len() as u64,
            }
        } else {
            match Parser::new(table).parse(tokens) {
                Ok(tree) => DocVerdict {
                    accepted: true,
                    leaves: tree.leaf_count() as u64,
                    nodes: tree.node_count() as u64,
                    tree: Some(tree.to_sexpr(table)),
                    error: None,
                    error_count: 0,
                },
                Err(e) => DocVerdict::rejected(doc_error(&e)),
            }
        }
    }

    fn artifact(
        &self,
        grammar: &str,
        format: GrammarFormat,
        trace: Option<&ActiveTrace>,
    ) -> Result<(Arc<CompiledArtifact>, CacheOutcome), ServiceError> {
        // The format is part of the identity: the same bytes read as yacc
        // and as native text are different grammars, so prefix the cache
        // key (the prefix survives normalization — it is its own line).
        let key = match format {
            GrammarFormat::Native => format!("%key native\n{grammar}"),
            GrammarFormat::Yacc => format!("%key yacc\n{grammar}"),
        };
        // Stage attribution: the whole resolution is timed here, the
        // compile closure stamps its own share, and the remainder —
        // key hashing, map probes, store I/O, waiting out another
        // thread's in-flight compile — is the cache stage.
        let resolve_started = trace.map(|_| Instant::now());
        // Graceful degradation gates the *pipeline*, not the lookup: a
        // degraded service still answers memory hits and verified store
        // loads (the closure never runs for those), and only a request
        // that would actually run a cold compile is shed with a
        // retryable `degraded` error.
        let degraded = self.health.load(Ordering::Relaxed) == HealthState::Degraded.code();
        let result = match &self.cache {
            Some(cache) => {
                let (result, outcome) = cache.get_or_compile(&key, |_, fp| {
                    if degraded {
                        return Err(ServiceError::Degraded(
                            "cold compile shed while degraded; retry after backoff".to_string(),
                        ));
                    }
                    self.compile_observed(grammar, format, fp, trace)
                });
                result.map(|a| (a, outcome))
            }
            None if degraded => Err(ServiceError::Degraded(
                "cold compile shed while degraded; retry after backoff".to_string(),
            )),
            None => {
                let fp = crate::fingerprint::fx_fingerprint(&crate::fingerprint::normalize(&key));
                self.compile_observed(grammar, format, fp, trace)
                    .map(|a| (Arc::new(a), CacheOutcome::Compiled))
            }
        };
        if let (Some(trace), Some(t0)) = (trace, resolve_started) {
            let total_ns = t0.elapsed().as_nanos() as u64;
            let compile_ns = trace.stage_ns(STAGE_COMPILE);
            trace.add_stage(STAGE_CACHE, total_ns.saturating_sub(compile_ns));
        }
        result
    }

    /// Runs one compile under a [`CollectingRecorder`] and folds its
    /// top-level phase timings into the service-wide counters.
    fn compile_observed(
        &self,
        grammar: &str,
        format: GrammarFormat,
        fp: u64,
        trace: Option<&ActiveTrace>,
    ) -> Result<CompiledArtifact, ServiceError> {
        // The compile-worker failpoint: a `panic` here unwinds into the
        // cache's `catch_unwind` (or the worker's, on the cache-less
        // path) and must surface as a `panicked` error response, never a
        // hang or a poisoned cache slot.
        match self.config.faults.at("service.compile") {
            Some(Fault::Panic) => panic!("injected fault at service.compile"),
            Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::Error) => {
                return Err(ServiceError::Panicked(
                    "injected fault at service.compile".to_string(),
                ))
            }
            _ => {}
        }
        let compile_started = trace.map(|_| Instant::now());
        let rec = CollectingRecorder::new();
        let compiled = CompiledArtifact::compile_recorded(
            grammar,
            format,
            fp,
            &Parallelism::sequential(),
            &rec,
        );
        for phase in &rec.report().phases {
            if let Some(i) = PHASE_NAMES.iter().position(|&n| n == phase.name) {
                self.phase_calls[i].fetch_add(phase.calls, Ordering::Relaxed);
                self.phase_ns[i].fetch_add(phase.total_ns, Ordering::Relaxed);
            }
        }
        if let (Some(trace), Some(t0)) = (trace, compile_started) {
            trace.add_stage(STAGE_COMPILE, t0.elapsed().as_nanos() as u64);
        }
        compiled
    }

    fn record(&self, op: &str, response: &Response, elapsed: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let op_idx = op_index(op);
        self.by_op[op_idx].fetch_add(1, Ordering::Relaxed);
        if let Response::Error(e) = response {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.errors_by_op[op_idx].fetch_add(1, Ordering::Relaxed);
            if matches!(e, ServiceError::DeadlineExceeded { .. }) {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
        }
        let us = elapsed.as_micros() as u64;
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_by_op[op_idx][bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us[op_idx].fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            by_op: std::array::from_fn(|i| self.by_op[i].load(Ordering::Relaxed)),
            errors_by_op: std::array::from_fn(|i| self.errors_by_op[i].load(Ordering::Relaxed)),
            latency_buckets: std::array::from_fn(|i| self.latency[i].load(Ordering::Relaxed)),
            latency_by_op: std::array::from_fn(|op| {
                std::array::from_fn(|i| self.latency_by_op[op][i].load(Ordering::Relaxed))
            }),
            latency_sum_us: std::array::from_fn(|i| self.latency_sum_us[i].load(Ordering::Relaxed)),
            phase_calls: std::array::from_fn(|i| self.phase_calls[i].load(Ordering::Relaxed)),
            phase_ns: std::array::from_fn(|i| self.phase_ns[i].load(Ordering::Relaxed)),
            parse: ParseLaneStats {
                batches: self.parse_batches.load(Ordering::Relaxed),
                documents: self.parse_documents.load(Ordering::Relaxed),
                accepted: self.parse_accepted.load(Ordering::Relaxed),
                rejected: self.parse_rejected.load(Ordering::Relaxed),
                resolutions: self.parse_resolutions.load(Ordering::Relaxed),
            },
            cache: self.cache.as_ref().map(ArtifactCache::stats),
            workers: self.config.workers.threads(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            shed: self.shed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            queue_limit: self.config.max_pending.max(1),
            faults: self.config.faults.stats(),
            shards: self
                .shards
                .get()
                .map(|shards| {
                    shards
                        .iter()
                        .enumerate()
                        .map(|(i, c)| c.snapshot(i))
                        .collect()
                })
                .unwrap_or_default(),
            health: self.health_stats(),
            tracing: match &self.tracer {
                Some(tracer) => TracingStats {
                    enabled: true,
                    capacity: tracer.capacity(),
                    sample_every: tracer.sample_every(),
                    sampled: tracer.recorded(),
                    stage_ns: std::array::from_fn(|i| self.stage_ns[i].load(Ordering::Relaxed)),
                },
                None => TracingStats::default(),
            },
        }
    }
}
