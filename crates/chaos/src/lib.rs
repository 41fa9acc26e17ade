//! `lalr-chaos` — deterministic fault injection for the service stack.
//!
//! A **failpoint** is a named place in the code (`"daemon.read"`,
//! `"service.compile"`, …) that asks a shared [`FaultInjector`] whether a
//! fault should fire *this time*. The injector answers from a
//! [`FaultPlan`]: a set of [`FaultRule`]s, each binding a point to a
//! [`Fault`] and a [`Trigger`]. Trigger decisions are **stateless
//! functions of the seed, the rule, and the per-rule hit index** — never
//! of a shared PRNG stream — so the set of firing hit indices is fully
//! determined by the plan no matter how threads interleave. That is what
//! lets a chaos test assert, after the fact, that the number of injected
//! faults equals the number the schedule demanded ([`FaultPointStats`]
//! carries both `injected` and the recomputed `expected`).
//!
//! The disabled injector is free: [`FaultInjector::disabled`] holds no
//! allocation, and [`FaultInjector::at`] on it is a `None` check — the
//! same gating discipline as `lalr_obs::NULL`, enforced by an
//! allocation-equality test in `lalr-bench` (`chaos_overhead.rs`). Even
//! the *enabled* hot path allocates nothing: rule matching walks a fixed
//! slice and bumps atomics.
//!
//! # Failpoint catalog (the service stack's boundaries)
//!
//! | point             | faults that make sense there                     |
//! |-------------------|--------------------------------------------------|
//! | `client.connect`  | `Error` (refused), `Delay`                       |
//! | `client.write`    | `Error`, `PartialWrite`, `Delay`                 |
//! | `client.read`     | `Error`, `Delay`                                 |
//! | `daemon.read`     | `Error` (drop conn), `Delay`, `Garbage`, `Truncate` |
//! | `daemon.write`    | `Error` (eat response), `PartialWrite`, `Delay`  |
//! | `daemon.admit`    | `Error` (force an admission rejection: the request line gets a retryable `throttled` reply) |
//! | `shard.panic`     | `Panic` (crash the event-loop shard mid-request; the supervisor restarts it) |
//! | `service.compile` | `Panic`, `Delay`, `Error`                        |
//! | `service.parse`   | `Panic`, `Delay`, `Error`                        |
//! | `service.parse.doc` | `Error` (abort the whole batch at a document boundary) |
//! | `cache.storm`     | `EvictAll`                                       |
//! | `store.write`     | `Error` (publish fails), `Truncate` (torn file), `PartialWrite`, `Garbage`, `Delay` |
//! | `store.read`      | `Garbage` (corrupt bytes, checksum-rejected), `Panic` (the cache counts it as corrupt and recompiles), `Delay` |
//!
//! # Examples
//!
//! ```
//! use lalr_chaos::{Fault, FaultPlan, Trigger};
//!
//! // Panic the first compile, delay every 3rd daemon read by 2 ms.
//! let faults = FaultPlan::new(42)
//!     .rule("service.compile", Fault::Panic, Trigger::OnHits(vec![1]))
//!     .rule("daemon.read", Fault::Delay(2), Trigger::EveryNth(3))
//!     .build();
//! assert_eq!(faults.at("service.compile"), Some(Fault::Panic));
//! assert_eq!(faults.at("service.compile"), None); // only hit #1 fires
//! for stat in faults.stats() {
//!     assert_eq!(stat.injected, stat.expected);
//! }
//! // The same plan parses from the CLI spec syntax.
//! let parsed = FaultPlan::parse("service.compile:panic:@1,daemon.read:delay-2:%3", 42).unwrap();
//! assert_eq!(parsed.build().at("service.compile"), Some(Fault::Panic));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected error (I/O boundaries return
    /// [`injected_io_error`]; the compile worker returns a structured
    /// failure).
    Error,
    /// Write only a prefix of the payload, then fail — the peer sees a
    /// line truncated mid-way.
    PartialWrite,
    /// Sleep this many milliseconds, then proceed normally.
    Delay(u64),
    /// Corrupt the payload into protocol garbage before processing it.
    Garbage,
    /// Process the input but drop the connection before responding.
    Truncate,
    /// Panic with a recognizable `"injected fault"` message.
    Panic,
    /// Evict every committed cache entry (an eviction storm).
    EvictAll,
}

impl Fault {
    /// Stable label used in metrics and the spec syntax
    /// (`delay-N` carries its argument).
    pub fn label(&self) -> String {
        match self {
            Fault::Error => "error".to_string(),
            Fault::PartialWrite => "partial".to_string(),
            Fault::Delay(ms) => format!("delay-{ms}"),
            Fault::Garbage => "garbage".to_string(),
            Fault::Truncate => "truncate".to_string(),
            Fault::Panic => "panic".to_string(),
            Fault::EvictAll => "evict".to_string(),
        }
    }

    fn parse(s: &str) -> Result<Fault, String> {
        if let Some(ms) = s.strip_prefix("delay-") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad delay milliseconds in {s:?}"))?;
            return Ok(Fault::Delay(ms));
        }
        match s {
            "error" => Ok(Fault::Error),
            "partial" => Ok(Fault::PartialWrite),
            "garbage" => Ok(Fault::Garbage),
            "truncate" => Ok(Fault::Truncate),
            "panic" => Ok(Fault::Panic),
            "evict" => Ok(Fault::EvictAll),
            other => Err(format!(
                "unknown fault {other:?} (available: error, partial, delay-N, garbage, \
                 truncate, panic, evict)"
            )),
        }
    }
}

/// When an armed failpoint fires, as a pure function of the hit index.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Fire with this probability, decided per hit by a stateless hash of
    /// `(seed, rule, hit index)` — deterministic, but pattern-free.
    Rate(f64),
    /// Fire on every `n`-th hit (hit indices are 1-based).
    EveryNth(u64),
    /// Fire exactly on these 1-based hit indices (kept sorted).
    OnHits(Vec<u64>),
}

impl Trigger {
    fn parse(s: &str) -> Result<Trigger, String> {
        if let Some(n) = s.strip_prefix('%') {
            let n: u64 = n.parse().map_err(|_| format!("bad %N trigger {s:?}"))?;
            if n == 0 {
                return Err("%0 would never fire; use %1 for every hit".to_string());
            }
            return Ok(Trigger::EveryNth(n));
        }
        if let Some(list) = s.strip_prefix('@') {
            let mut hits = Vec::new();
            for part in list.split('+') {
                let n: u64 = part
                    .parse()
                    .map_err(|_| format!("bad hit index {part:?} in trigger {s:?}"))?;
                hits.push(n);
            }
            hits.sort_unstable();
            hits.dedup();
            return Ok(Trigger::OnHits(hits));
        }
        let p: f64 = s.parse().map_err(|_| format!("bad rate {s:?}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("rate {p} is outside [0, 1]"));
        }
        Ok(Trigger::Rate(p))
    }
}

/// One armed failpoint: fire `fault` at `point` whenever `trigger` says.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The failpoint name (see the catalog in the crate docs).
    pub point: String,
    /// What to do when the rule fires.
    pub fault: Fault,
    /// Which hit indices fire.
    pub trigger: Trigger,
}

/// A seeded set of [`FaultRule`]s; build one, then [`FaultPlan::build`]
/// the shared [`FaultInjector`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the stateless [`Trigger::Rate`] decisions.
    pub seed: u64,
    /// The armed rules, in declaration order (earlier rules win when two
    /// fire on the same hit).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn rule(mut self, point: &str, fault: Fault, trigger: Trigger) -> FaultPlan {
        self.rules.push(FaultRule {
            point: point.to_string(),
            fault,
            trigger,
        });
        self
    }

    /// Parses the CLI spec syntax: comma-separated
    /// `point:fault:trigger` entries, where `fault` is one of
    /// `error | partial | delay-N | garbage | truncate | panic | evict`
    /// and `trigger` is a rate (`0.05`), every-nth (`%3`), or an explicit
    /// 1-based hit list (`@1+4+9`).
    ///
    /// ```
    /// let plan = lalr_chaos::FaultPlan::parse(
    ///     "daemon.write:partial:0.05,service.compile:panic:@1",
    ///     7,
    /// ).unwrap();
    /// assert_eq!(plan.rules.len(), 2);
    /// ```
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut parts = entry.splitn(3, ':');
            let (point, fault, trigger) = match (parts.next(), parts.next(), parts.next()) {
                (Some(p), Some(f), Some(t)) if !p.is_empty() => (p, f, t),
                _ => {
                    return Err(format!(
                        "bad fault spec entry {entry:?} (want point:fault:trigger)"
                    ))
                }
            };
            plan.rules.push(FaultRule {
                point: point.to_string(),
                fault: Fault::parse(fault)?,
                trigger: Trigger::parse(trigger)?,
            });
        }
        Ok(plan)
    }

    /// Arms the plan into a shareable injector.
    pub fn build(self) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(Inner {
                hits: (0..self.rules.len()).map(|_| AtomicU64::new(0)).collect(),
                injected: (0..self.rules.len()).map(|_| AtomicU64::new(0)).collect(),
                seed: self.seed,
                rules: self.rules,
            })),
        }
    }
}

/// Counter snapshot for one rule, with the deterministic recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPointStats {
    /// The failpoint name.
    pub point: String,
    /// The fault's [`Fault::label`].
    pub fault: String,
    /// Times the point was evaluated against this rule.
    pub hits: u64,
    /// Times the rule actually fired.
    pub injected: u64,
    /// Times the rule *must* have fired for this many hits — recomputed
    /// from the trigger, independent of the live counters. A correct
    /// injector always reports `injected == expected`.
    pub expected: u64,
}

struct Inner {
    seed: u64,
    rules: Vec<FaultRule>,
    hits: Vec<AtomicU64>,
    injected: Vec<AtomicU64>,
}

impl Inner {
    /// Stateless decision: does rule `idx` fire on (1-based) hit `n`?
    fn fires(&self, idx: usize, n: u64) -> bool {
        match &self.rules[idx].trigger {
            Trigger::Rate(p) => {
                let salt = fnv1a(&self.rules[idx].point)
                    ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let r = mix64(self.seed ^ salt ^ n);
                // 53 high bits → a uniform fraction in [0, 1).
                ((r >> 11) as f64) * (1.0 / 9_007_199_254_740_992.0) < *p
            }
            Trigger::EveryNth(k) => n.is_multiple_of(*k),
            Trigger::OnHits(list) => list.binary_search(&n).is_ok(),
        }
    }

    fn check(&self, point: &str) -> Option<Fault> {
        let mut fired: Option<Fault> = None;
        for (idx, rule) in self.rules.iter().enumerate() {
            if rule.point != point {
                continue;
            }
            // Every matching rule consumes a hit even after another rule
            // already fired, so per-rule hit sequences — and therefore
            // the deterministic recompute — do not depend on sibling
            // rules' decisions.
            let n = self.hits[idx].fetch_add(1, Ordering::Relaxed) + 1;
            if self.fires(idx, n) {
                self.injected[idx].fetch_add(1, Ordering::Relaxed);
                if fired.is_none() {
                    fired = Some(rule.fault);
                }
            }
        }
        fired
    }
}

/// The shared failpoint evaluator. Cheap to clone (an `Arc` handle); the
/// default/[`disabled`](FaultInjector::disabled) injector holds nothing
/// and answers every [`at`](FaultInjector::at) with `None`.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FaultInjector(disabled)"),
            Some(inner) => f
                .debug_struct("FaultInjector")
                .field("seed", &inner.seed)
                .field("rules", &inner.rules.len())
                .field("injected", &self.total_injected())
                .finish(),
        }
    }
}

impl FaultInjector {
    /// The inert injector: no rules, no allocation, `at` is a `None`
    /// check.
    pub const fn disabled() -> FaultInjector {
        FaultInjector { inner: None }
    }

    /// Whether any rules are armed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Evaluates the named failpoint: counts one hit against every
    /// matching rule and returns the fault to apply, if any fired.
    /// Allocation-free on both the disabled and the armed path.
    #[inline]
    pub fn at(&self, point: &str) -> Option<Fault> {
        let inner = self.inner.as_ref()?;
        inner.check(point)
    }

    /// Per-rule counters plus the deterministic `expected` recompute
    /// (empty when disabled).
    pub fn stats(&self) -> Vec<FaultPointStats> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .rules
            .iter()
            .enumerate()
            .map(|(idx, rule)| {
                let hits = inner.hits[idx].load(Ordering::Relaxed);
                let expected = (1..=hits).filter(|&n| inner.fires(idx, n)).count() as u64;
                FaultPointStats {
                    point: rule.point.clone(),
                    fault: rule.fault.label(),
                    hits,
                    injected: inner.injected[idx].load(Ordering::Relaxed),
                    expected,
                }
            })
            .collect()
    }

    /// Total faults fired across all rules.
    pub fn total_injected(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .injected
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Total injected at one point (summed over that point's rules).
    pub fn injected_at(&self, point: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| r.point == point)
                .map(|(idx, _)| inner.injected[idx].load(Ordering::Relaxed))
                .sum(),
        }
    }
}

/// The `io::Error` injected at I/O failpoints — recognizable by its
/// message so tests can tell an injected failure from a real one.
pub fn injected_io_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {point}"))
}

/// The SplitMix64 finalizer behind [`Trigger::Rate`] decisions — public
/// so the client's retry jitter can be derived from the same stateless
/// primitive (hash of `(seed, attempt)`) instead of a stateful PRNG.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn disabled_injector_is_inert() {
        let faults = FaultInjector::disabled();
        assert!(!faults.is_enabled());
        for _ in 0..100 {
            assert_eq!(faults.at("daemon.read"), None);
        }
        assert!(faults.stats().is_empty());
        assert_eq!(faults.total_injected(), 0);
        assert_eq!(FaultInjector::default().at("x"), None);
    }

    #[test]
    fn on_hits_and_every_nth_fire_exactly_as_scheduled() {
        let faults = FaultPlan::new(0)
            .rule("a", Fault::Error, Trigger::OnHits(vec![2, 5]))
            .rule("b", Fault::Panic, Trigger::EveryNth(3))
            .build();
        let a: Vec<bool> = (1..=6).map(|_| faults.at("a").is_some()).collect();
        assert_eq!(a, [false, true, false, false, true, false]);
        let b: Vec<bool> = (1..=7).map(|_| faults.at("b").is_some()).collect();
        assert_eq!(b, [false, false, true, false, false, true, false]);
        for s in faults.stats() {
            assert_eq!(s.injected, s.expected, "{s:?}");
        }
        assert_eq!(faults.injected_at("a"), 2);
        assert_eq!(faults.injected_at("b"), 2);
    }

    #[test]
    fn rate_schedule_is_deterministic_in_the_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let faults = FaultPlan::new(seed)
                .rule("p", Fault::Error, Trigger::Rate(0.3))
                .build();
            (0..200).map(|_| faults.at("p").is_some()).collect()
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same schedule");
        assert_ne!(schedule(7), schedule(8), "different seeds diverge");
        let fired = schedule(7).iter().filter(|&&f| f).count();
        assert!((20..=100).contains(&fired), "rate 0.3 over 200: {fired}");
    }

    #[test]
    fn concurrent_hits_keep_injected_equal_to_expected() {
        let faults = StdArc::new(
            FaultPlan::new(99)
                .rule("p", Fault::Error, Trigger::Rate(0.25))
                .rule("p", Fault::Delay(1), Trigger::EveryNth(7))
                .build(),
        );
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let faults = StdArc::clone(&faults);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    for _ in 0..500 {
                        if faults.at("p").is_some() {
                            seen += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        let observed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let stats = faults.stats();
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert_eq!(s.hits, 8 * 500);
            assert_eq!(
                s.injected, s.expected,
                "hit-indexed decisions must be interleaving-independent: {s:?}"
            );
        }
        // `at` reports the first firing rule only, so the observed count
        // is bounded by the sum and at least the max of the two rules.
        let total: u64 = stats.iter().map(|s| s.injected).sum();
        let max = stats.iter().map(|s| s.injected).max().unwrap();
        assert!(
            observed <= total && observed >= max,
            "{observed} vs {stats:?}"
        );
    }

    #[test]
    fn spec_syntax_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse(
            "daemon.read:delay-5:%3, daemon.write:partial:0.05,service.compile:panic:@1+4",
            3,
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].fault, Fault::Delay(5));
        assert_eq!(plan.rules[0].trigger, Trigger::EveryNth(3));
        assert_eq!(plan.rules[1].fault, Fault::PartialWrite);
        assert_eq!(plan.rules[1].trigger, Trigger::Rate(0.05));
        assert_eq!(plan.rules[2].trigger, Trigger::OnHits(vec![1, 4]));

        for bad in [
            "daemon.read",
            "daemon.read:error",
            "daemon.read:frobnicate:0.1",
            "daemon.read:error:1.5",
            "daemon.read:error:%0",
            "daemon.read:delay-x:%2",
            ":error:0.1",
            "p:error:@x",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?} must not parse");
        }
        // Empty entries (trailing commas) are tolerated.
        assert!(FaultPlan::parse("a:error:0.1,,", 0).is_ok());
        assert!(FaultPlan::parse("", 0).unwrap().rules.is_empty());
    }

    #[test]
    fn labels_and_io_error_are_recognizable() {
        assert_eq!(Fault::Delay(250).label(), "delay-250");
        assert_eq!(Fault::parse("delay-250").unwrap(), Fault::Delay(250));
        assert_eq!(Fault::EvictAll.label(), "evict");
        let e = injected_io_error("daemon.write");
        assert!(e.to_string().contains("injected fault at daemon.write"));
    }
}
