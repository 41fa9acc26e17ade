//! `lalr-service` — a cached, concurrent grammar-compilation service.
//!
//! As a one-shot library/CLI call, the DeRemer–Pennello engine makes every
//! caller pay the full cold grammar → LR(0) → Read/Follow → tables
//! pipeline. This crate amortizes compilation across requests, the way
//! production generators and tabular-parsing servers do, in three layers:
//!
//! * [`ArtifactCache`] — content-addressed storage of
//!   [`CompiledArtifact`]s keyed by a fingerprint of the normalized
//!   grammar text (FxHash-then-confirm, the LR(0) interner's idiom).
//!   Lock-striped shards keep compiles of different grammars from
//!   serializing; duplicate in-flight compiles of the same grammar
//!   coalesce onto one pipeline run; LRU eviction enforces a byte
//!   budget.
//! * [`Service`] — a worker pool (sized by a [`lalr_core::Parallelism`],
//!   one sequential compile per worker) executing `compile`, `classify`,
//!   `table` and `parse` requests with per-request deadlines, a request
//!   size guard, `catch_unwind` around the pipeline, and a [`StatsSnapshot`]
//!   (request counts, cache hit rate, fixed-bucket latency histogram).
//! * [`EventDaemon`] + [`client`] — epoll event-loop shards speaking
//!   newline-delimited JSON (the vendored `serde_json` shim), with
//!   per-connection read timeouts, a concurrent-connection cap,
//!   admission control, and graceful in-band shutdown; the CLI's
//!   `lalrgen serve` / `client` / `stats` commands and the `loadgen`
//!   benchmark drive it.
//!
//! # Examples
//!
//! ```
//! use lalr_service::{GrammarFormat, Request, Response, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig::default());
//! let compile = |g: &str| Request::Compile {
//!     grammar: g.to_string(),
//!     format: GrammarFormat::Native,
//! };
//! // First call compiles; the second is a cache hit on the same Arc.
//! let cold = service.call(compile("e : e \"+\" t | t ; t : \"x\" ;"), None);
//! let warm = service.call(compile("e : e \"+\" t | t ; t : \"x\" ;"), None);
//! match (cold, warm) {
//!     (Response::Compile(a), Response::Compile(b)) => {
//!         assert!(!a.cached && b.cached);
//!         assert_eq!(a.fingerprint, b.fingerprint);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod cache;
pub mod client;
mod error;
mod event_daemon;
pub mod fingerprint;
mod metrics;
pub mod protocol;
mod service;
mod telemetry;

pub use artifact::{CompiledArtifact, GrammarFormat};
pub use cache::{ArtifactCache, CacheConfig, CacheOutcome, CacheStats, Fingerprinter};
pub use client::{call_with_breaker, call_with_retry, CircuitBreaker, ClientReply, RetryPolicy};
pub use error::ServiceError;
pub use event_daemon::{DaemonConfig, DaemonSummary, EventDaemon};
pub use lalr_chaos::{Fault, FaultInjector, FaultPlan, FaultPointStats, Trigger};
pub use lalr_obs::{ActiveTrace, RequestTrace, STAGE_NAMES};
pub use service::{
    AdmissionRejects, ClassifySummary, CompileSummary, DocError, DocVerdict, HealthConfig,
    HealthReport, HealthState, HealthStats, ParseBatchSummary, ParseLaneStats, ParseTarget,
    Request, Response, Service, ServiceConfig, StatsSnapshot, TableSummary, TraceConfig, TraceDump,
    TraceFilter, TracingStats, LATENCY_BOUNDS_US, OPS, PHASE_NAMES,
};
pub use telemetry::{DaemonCounters, ShardCounters, ShardStatsSnapshot};
