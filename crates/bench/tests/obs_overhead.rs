//! The observability overhead contract, in two halves.
//!
//! * Driving the recorded pipeline entry points with [`lalr_obs::NULL`]
//!   must execute *exactly* the plain pipeline — same allocation count,
//!   byte for byte. Every counter in the instrumentation is gated on
//!   `Recorder::is_enabled`, so the NULL path compiles down to the
//!   pre-instrumentation code; if someone adds an ungated `format!`,
//!   `Vec` tally, or clone on the hot path, this catches it as an
//!   allocation delta before any benchmark notices.
//! * An enabled recorder cannot change the algorithm. A recorded compile
//!   allocates what the plain one does plus the recorder's own
//!   bookkeeping, which is the same for every grammar (the same spans and
//!   counter names). A delta that grows with the grammar means the
//!   recorder switched on extra work.
//!
//! This file is its own test binary with one test, so the process-global
//! allocation counters see only the measured pipeline.

use lalr_automata::Lr0Automaton;
use lalr_bench::alloc_counter::measure;
use lalr_core::LalrAnalysis;
use lalr_grammar::Grammar;
use lalr_obs::CollectingRecorder;

fn cold_allocations(recorded: bool) -> usize {
    let entry = lalr_corpus::by_name("c_subset").expect("corpus entry exists");
    let ((), stats) = measure(|| {
        let grammar = entry.grammar();
        let (lr0, analysis) = if recorded {
            let lr0 = Lr0Automaton::build_recorded(&grammar, &lalr_obs::NULL);
            let a = LalrAnalysis::compute_recorded(&grammar, &lr0, &lalr_obs::NULL);
            (lr0, a)
        } else {
            let lr0 = Lr0Automaton::build(&grammar);
            let a = LalrAnalysis::compute(&grammar, &lr0);
            (lr0, a)
        };
        std::hint::black_box((lr0.state_count(), analysis.lookaheads().reduction_count()));
    });
    stats.allocations
}

/// Allocations of `compute_recorded` under a fresh collecting recorder,
/// minus those of plain `compute`, on one prebuilt automaton.
fn recorder_allocation_delta(grammar: &Grammar, lr0: &Lr0Automaton) -> usize {
    let ((), plain) = measure(|| {
        std::hint::black_box(LalrAnalysis::compute(grammar, lr0));
    });
    let ((), recorded) = measure(|| {
        let rec = CollectingRecorder::new();
        std::hint::black_box(LalrAnalysis::compute_recorded(grammar, lr0, &rec));
    });
    recorded.allocations - plain.allocations
}

#[test]
fn recorders_observe_without_changing_the_pipeline() {
    // One warm-up round each, so lazily initialized state (thread-local
    // buffers, allocator metadata) is attributed to neither arm.
    let _ = cold_allocations(false);
    let _ = cold_allocations(true);

    let plain = cold_allocations(false);
    let nulled = cold_allocations(true);
    assert_eq!(
        nulled, plain,
        "the NULL-recorder pipeline allocated {nulled} times vs {plain} plain — \
         an instrumentation tally is not gated on Recorder::is_enabled"
    );

    let grammars: Vec<(&str, Grammar)> = lalr_corpus::realistic::all()
        .iter()
        .map(|e| (e.name, e.grammar()))
        .collect();
    let automata: Vec<Lr0Automaton> = grammars
        .iter()
        .map(|(_, g)| Lr0Automaton::build(g))
        .collect();
    // Warm up the collecting recorder's path the same way.
    let _ = recorder_allocation_delta(&grammars[0].1, &automata[0]);
    let deltas: Vec<(&str, usize)> = grammars
        .iter()
        .zip(&automata)
        .map(|((name, g), lr0)| (*name, recorder_allocation_delta(g, lr0)))
        .collect();
    assert!(
        deltas.iter().all(|&(_, d)| d == deltas[0].1),
        "recorded minus plain allocations differ across grammars: {deltas:?} — \
         an enabled recorder runs extra, grammar-sized work"
    );
}
