//! Flight recorder: a fixed-capacity, lock-free ring of recent
//! [`RequestTrace`]s.
//!
//! The daemon stamps one trace per *sampled* request — stage-by-stage
//! durations from shard accept to response write-back — and pushes the
//! finished record here. The ring keeps the most recent `capacity`
//! records; the `trace` protocol op snapshots them without stopping
//! writers.
//!
//! Concurrency model (no `unsafe`, this crate forbids it): each slot is
//! a seqlock-style group of `AtomicU64` fields guarded by a sequence
//! word. A writer claims a slot by ticket (`head.fetch_add(1)`), parks
//! the sequence at 0 (in-progress), stores the fields, then publishes
//! `ticket + 1` with `Release`. A reader loads the sequence with
//! `Acquire`, copies the fields, re-reads the sequence, and keeps the
//! copy only if both reads agree on a nonzero value — a torn read
//! (writer wrapped the ring mid-copy) is simply dropped. That is the
//! right trade for a flight recorder: writers never block, readers
//! never block, and the worst case under pathological wrap races is a
//! missing record, never a corrupt one.

use std::sync::atomic::{AtomicU64, Ordering};

/// Stage names, indexing [`RequestTrace::stages_us`].
///
/// The stages are disjoint code regions on the request path:
///
/// * `queue` — accepted (or read off the socket) until a worker
///   dequeues the job;
/// * `cache` — artifact-cache and store lookup, excluding compilation;
/// * `compile` — grammar → LALR(1) artifact construction;
/// * `parse` — running documents through the compiled tables;
/// * `write` — response serialization until the connection's output
///   buffer drains (event front end only; zero for in-process calls).
pub const STAGE_NAMES: [&str; 5] = ["queue", "cache", "compile", "parse", "write"];

/// Number of stages in [`STAGE_NAMES`].
pub const STAGE_COUNT: usize = STAGE_NAMES.len();

/// One completed request's life, in microseconds per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrace {
    /// Monotonic trace ID (1-based; assigned at sampling time).
    pub id: u64,
    /// Index into the service's op table (`OPS` in `lalr-service`).
    pub op: u8,
    /// Shard that accepted the connection (0 for in-process calls).
    pub shard: u16,
    /// True when the response was an error.
    pub error: bool,
    /// End-to-end latency in microseconds (accept → reply delivered).
    pub total_us: u64,
    /// Per-stage durations in microseconds, indexed by [`STAGE_NAMES`].
    pub stages_us: [u64; STAGE_COUNT],
}

impl RequestTrace {
    /// Sum of the per-stage durations in microseconds.
    pub fn stage_sum_us(&self) -> u64 {
        self.stages_us.iter().sum()
    }
}

/// In-flight accumulator for one sampled request.
///
/// Owned by the request while it flows through the pipeline; stages are
/// accumulated with plain stores (one owner at a time) and the record
/// is pushed to the [`FlightRecorder`] when the reply is delivered.
#[derive(Debug)]
pub struct ActiveTrace {
    /// Trace ID assigned by [`FlightRecorder::next_id`].
    pub id: u64,
    /// Op index (see `OPS` in `lalr-service`).
    pub op: u8,
    /// Accepting shard (0 outside the event front end).
    pub shard: u16,
    error: AtomicU64,
    stages_ns: [AtomicU64; STAGE_COUNT],
}

impl ActiveTrace {
    /// Starts an empty trace for `op` on `shard`.
    pub fn new(id: u64, op: u8, shard: u16) -> ActiveTrace {
        ActiveTrace {
            id,
            op,
            shard,
            error: AtomicU64::new(0),
            stages_ns: Default::default(),
        }
    }

    /// Adds `ns` nanoseconds to stage `index` (see [`STAGE_NAMES`]).
    pub fn add_stage(&self, index: usize, ns: u64) {
        self.stages_ns[index].fetch_add(ns, Ordering::Relaxed);
    }

    /// Nanoseconds accumulated so far for stage `index` (used to
    /// subtract an inner stage out of an enclosing measurement).
    pub fn stage_ns(&self, index: usize) -> u64 {
        self.stages_ns[index].load(Ordering::Relaxed)
    }

    /// Marks the traced request as having produced an error response.
    pub fn set_error(&self) {
        self.error.store(1, Ordering::Relaxed);
    }

    /// Freezes the accumulator into a [`RequestTrace`] with the given
    /// end-to-end latency.
    pub fn finish(&self, total_ns: u64) -> RequestTrace {
        let mut stages_us = [0u64; STAGE_COUNT];
        for (us, ns) in stages_us.iter_mut().zip(&self.stages_ns) {
            *us = ns.load(Ordering::Relaxed) / 1_000;
        }
        RequestTrace {
            id: self.id,
            op: self.op,
            shard: self.shard,
            error: self.error.load(Ordering::Relaxed) != 0,
            total_us: total_ns / 1_000,
            stages_us,
        }
    }
}

/// A slot's field group. `seq == 0` means empty or mid-write; a
/// published slot holds `ticket + 1` so slot 0's first record is
/// distinguishable from "never written".
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    id: AtomicU64,
    meta: AtomicU64, // op | shard<<8 | error<<24
    total_us: AtomicU64,
    stages_us: [AtomicU64; STAGE_COUNT],
}

/// Fixed-capacity, lock-free ring buffer of recent [`RequestTrace`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Slot>,
    mask: u64,
    head: AtomicU64,
    next_id: AtomicU64,
    sample_tick: AtomicU64,
    sample_every: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding the most recent `capacity` traces
    /// (rounded up to a power of two, minimum 8), sampling one request
    /// in `sample_every` (clamped to at least 1).
    pub fn new(capacity: usize, sample_every: u64) -> FlightRecorder {
        let cap = capacity.max(8).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            mask: (cap as u64) - 1,
            head: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            sample_tick: AtomicU64::new(0),
            sample_every: sample_every.max(1),
        }
    }

    /// Ring capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The sampling period: one request in `sample_every` is traced.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Returns true if the next request should be traced, advancing the
    /// sampling counter. With `sample_every == 1` every request
    /// samples.
    pub fn should_sample(&self) -> bool {
        self.sample_tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample_every)
    }

    /// Allocates the next trace ID (1-based, monotonic).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of traces pushed since creation (may exceed capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Publishes a finished trace, overwriting the oldest slot.
    pub fn push(&self, trace: &RequestTrace) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Park the sequence so concurrent readers discard the slot.
        slot.seq.store(0, Ordering::Release);
        slot.id.store(trace.id, Ordering::Relaxed);
        let meta =
            u64::from(trace.op) | (u64::from(trace.shard) << 8) | (u64::from(trace.error) << 24);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.total_us.store(trace.total_us, Ordering::Relaxed);
        for (cell, &us) in slot.stages_us.iter().zip(&trace.stages_us) {
            cell.store(us, Ordering::Relaxed);
        }
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Copies out the current contents, newest first. Slots that are
    /// mid-write (or torn by a concurrent wrap) are skipped.
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let newest = head;
        let oldest = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((newest - oldest) as usize);
        // Walk tickets newest → oldest so the dump leads with recency.
        let mut ticket = newest;
        while ticket > oldest {
            ticket -= 1;
            let slot = &self.slots[(ticket & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let id = slot.id.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let total_us = slot.total_us.load(Ordering::Relaxed);
            let mut stages_us = [0u64; STAGE_COUNT];
            for (us, cell) in stages_us.iter_mut().zip(&slot.stages_us) {
                *us = cell.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // torn by a concurrent overwrite
            }
            out.push(RequestTrace {
                id,
                op: (meta & 0xff) as u8,
                shard: ((meta >> 8) & 0xffff) as u16,
                error: (meta >> 24) & 1 == 1,
                total_us,
                stages_us,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> RequestTrace {
        RequestTrace {
            id,
            op: (id % 7) as u8,
            shard: (id % 3) as u16,
            error: id.is_multiple_of(5),
            total_us: id * 10,
            stages_us: [id, 0, id * 4, 0, id * 5],
        }
    }

    #[test]
    fn push_and_snapshot_round_trip_newest_first() {
        let rec = FlightRecorder::new(8, 1);
        for id in 1..=5 {
            rec.push(&trace(id));
        }
        let got = rec.snapshot();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], trace(5));
        assert_eq!(got[4], trace(1));
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn ring_overwrites_oldest_on_wrap() {
        let rec = FlightRecorder::new(8, 1);
        for id in 1..=20 {
            rec.push(&trace(id));
        }
        let got = rec.snapshot();
        assert_eq!(got.len(), 8);
        assert_eq!(got[0].id, 20);
        assert_eq!(got[7].id, 13);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FlightRecorder::new(0, 1).capacity(), 8);
        assert_eq!(FlightRecorder::new(100, 1).capacity(), 128);
    }

    #[test]
    fn sampling_period_admits_one_in_n() {
        let rec = FlightRecorder::new(8, 4);
        let admitted = (0..16).filter(|_| rec.should_sample()).count();
        assert_eq!(admitted, 4);
        let every = FlightRecorder::new(8, 0); // clamps to 1
        assert!((0..4).all(|_| every.should_sample()));
    }

    #[test]
    fn active_trace_accumulates_and_finishes() {
        let active = ActiveTrace::new(7, 3, 1);
        active.add_stage(0, 1_500);
        active.add_stage(0, 500);
        active.add_stage(2, 3_000_000);
        active.set_error();
        let done = active.finish(3_010_000);
        assert_eq!(done.id, 7);
        assert_eq!(done.op, 3);
        assert_eq!(done.shard, 1);
        assert!(done.error);
        assert_eq!(done.total_us, 3_010);
        assert_eq!(done.stages_us, [2, 0, 3_000, 0, 0]);
        assert_eq!(done.stage_sum_us(), 3_002);
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_snapshot() {
        use std::sync::Arc;
        let rec = Arc::new(FlightRecorder::new(16, 1));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        rec.push(&trace(w * 1_000 + i + 1));
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for t in rec.snapshot() {
                // Every surviving record must be internally consistent
                // with the generator above.
                assert_eq!(t.op, (t.id % 7) as u8, "torn record {t:?}");
                assert_eq!(t.total_us, t.id * 10, "torn record {t:?}");
                assert_eq!(t.stages_us[0], t.id, "torn record {t:?}");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(rec.recorded(), 2_000);
    }
}
