//! The observability contract: two recorded runs of the pipeline on the
//! same grammar report *identical* counter values and span call counts.
//! Timings are explicitly excluded — they are the only nondeterministic
//! part of a [`lalr_obs::PhaseReport`].

use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_obs::{CollectingRecorder, PhaseReport};

/// Everything deterministic in a report: counters, and (name, calls)
/// per phase bucket.
fn fingerprint(report: &PhaseReport) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = report
        .counters
        .iter()
        .map(|&(k, v)| (format!("counter:{k}"), v))
        .collect();
    out.extend(
        report
            .phases
            .iter()
            .map(|p| (format!("phase:{}", p.name), p.calls)),
    );
    out.extend(
        report
            .nested
            .iter()
            .map(|p| (format!("nested:{}", p.name), p.calls)),
    );
    out
}

fn recorded_run(src: &str) -> PhaseReport {
    let grammar = lalr_grammar::parse_grammar(src).unwrap();
    let rec = CollectingRecorder::new();
    let lr0 = Lr0Automaton::build_recorded(&grammar, &rec);
    let analysis = LalrAnalysis::compute_recorded(&grammar, &lr0, &rec);
    assert!(analysis.lookaheads().reduction_count() > 0);
    rec.report()
}

#[test]
fn two_recorded_runs_report_identical_counters() {
    for entry in lalr_corpus::all_entries() {
        let a = recorded_run(entry.source);
        let b = recorded_run(entry.source);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "nondeterministic counters on {}",
            entry.name
        );
        assert!(
            a.counter("lr0.states").unwrap_or(0) > 0,
            "{}: lr0 counters must be populated",
            entry.name
        );
        assert!(
            a.phase("digraph.reads").is_some() && a.phase("digraph.includes").is_some(),
            "{}: both traversal phases must be spanned",
            entry.name
        );
    }
}

#[test]
fn recorded_pipeline_matches_unrecorded_results() {
    // Recording must be observation only: the look-ahead sets computed
    // under a collecting recorder are identical to the plain pipeline's.
    for entry in lalr_corpus::all_entries().iter().take(4) {
        let grammar = entry.grammar();
        let rec = CollectingRecorder::new();
        let lr0 = Lr0Automaton::build_recorded(&grammar, &rec);
        let recorded = LalrAnalysis::compute_recorded(&grammar, &lr0, &rec);
        let plain = LalrAnalysis::compute(&grammar, &lr0);
        assert_eq!(
            recorded.lookaheads(),
            plain.lookaheads(),
            "recording changed the result on {}",
            entry.name
        );
    }
}
