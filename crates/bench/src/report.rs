//! Paper-style table/figure rendering (the `report` binary's engine).

use std::fmt::Write as _;

use lalr_automata::{Lr0Automaton, Lr1Automaton};
use lalr_core::{classify, LalrAnalysis, Relations};
use lalr_corpus::synthetic;
use lalr_grammar::GrammarStats;

use crate::methods::{median_time, Method};

/// Table 1 — grammar and relation characteristics per corpus grammar.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: grammar characteristics and DeRemer-Pennello relation sizes"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>4} {:>5} {:>5} {:>7} {:>8} {:>7} {:>9} {:>9} {:>7}",
        "grammar",
        "|T|",
        "|N|",
        "|P|",
        "|G|",
        "states",
        "nttrans",
        "reads",
        "includes",
        "lookback",
        "|R|"
    );
    for entry in lalr_corpus::all_entries() {
        let g = entry.grammar();
        let stats = GrammarStats::compute(&g);
        let lr0 = Lr0Automaton::build(&g);
        let rel = Relations::build(&g, &lr0);
        let rs = rel.stats();
        let _ = writeln!(
            out,
            "{:<16} {:>4} {:>4} {:>5} {:>5} {:>7} {:>8} {:>7} {:>9} {:>9} {:>7}",
            entry.name,
            stats.terminals,
            stats.nonterminals,
            stats.productions,
            stats.size,
            lr0.state_count(),
            rs.nt_transitions,
            rs.reads_edges,
            rs.includes_edges,
            rs.lookback_edges,
            rs.size(),
        );
    }
    out
}

/// Table 2 — look-ahead computation time per method (medians over `runs`),
/// plus the LR(1) state explosion column.
pub fn table2(runs: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: look-ahead computation time (median of {runs} runs; LR(0) machine prebuilt)"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>11} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "grammar", "DP", "yacc-prop", "LR1-merge", "SLR", "NQLALR", "lr0-st", "lr1-st"
    );
    for entry in lalr_corpus::all_entries() {
        let g = entry.grammar();
        let lr0 = Lr0Automaton::build(&g);
        let lr1_states = Lr1Automaton::build(&g).state_count();
        let mut cells: Vec<String> = Vec::new();
        for m in Method::ALL {
            let d = median_time(m, &g, &lr0, runs);
            cells.push(format!("{:.1}us", d.as_secs_f64() * 1e6));
        }
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>11} {:>11} {:>11} {:>11} {:>9} {:>9}",
            entry.name,
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            lr0.state_count(),
            lr1_states,
        );
    }
    let _ = writeln!(
        out,
        "(expected shape: DP < yacc-prop << LR1-merge; SLR cheapest but inadequate below)"
    );
    out
}

/// Table 3 — the adequacy hierarchy: conflicts per method and the
/// resulting classification.
pub fn table3() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: conflicts per method and grammar class");
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>6} {:>8} {:>6} {:>6} {:>8} {:<10}",
        "grammar", "LR(0)", "SLR", "NQLALR", "LALR", "LR(1)", "reads-cy", "class"
    );
    for entry in lalr_corpus::all_entries() {
        let g = entry.grammar();
        let m = classify(&g);
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>8} {:>6} {:>6} {:>8} {:<10}",
            entry.name,
            m.lr0_conflicts,
            m.slr_conflicts,
            m.nqlalr_conflicts,
            m.lalr_conflicts,
            m.lr1_conflicts,
            if m.not_lr_k { "yes" } else { "-" },
            m.class.to_string(),
        );
    }
    let _ = writeln!(
        out,
        "(NQLALR > LALR on nqlalr_witness is the paper's unsoundness warning)"
    );
    out
}

/// Figure 1 — scaling sweep: method time and state counts vs grammar size
/// over the `expr_ladder` family, with the relation size `|R|` and DP's
/// time per element of it (flat if DP is linear in `|R|`).
pub fn figure1(runs: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: scaling over expr_ladder(n) (median of {runs} runs)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>8} {:>10} {:>12} {:>12} {:>9} {:>7} {:>9}",
        "n", "prods", "lr0-st", "DP", "yacc-prop", "LR1-merge", "lr1-st", "|R|", "DP ns/|R|"
    );
    for n in [2usize, 5, 10, 20, 40, 80] {
        let g = synthetic::expr_ladder(n);
        let lr0 = Lr0Automaton::build(&g);
        let lr1_states = Lr1Automaton::build(&g).state_count();
        let dp = median_time(Method::DeRemerPennello, &g, &lr0, runs);
        let prop = median_time(Method::Propagation, &g, &lr0, runs);
        let merge = median_time(Method::Lr1Merge, &g, &lr0, runs);
        let r = Relations::build(&g, &lr0).stats().size();
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>8} {:>9.1}us {:>11.1}us {:>11.1}us {:>9} {:>7} {:>9.1}",
            n,
            g.production_count() - 1,
            lr0.state_count(),
            dp.as_secs_f64() * 1e6,
            prop.as_secs_f64() * 1e6,
            merge.as_secs_f64() * 1e6,
            lr1_states,
            r,
            dp.as_secs_f64() * 1e9 / r as f64,
        );
    }
    out
}

/// Figure 2 — structure of the `reads`/`includes` relations across the
/// corpus (SCC counts, the non-LR(k) cycle detector).
pub fn figure2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 2: relation structure (Digraph SCC statistics)");
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "grammar", "nttrans", "reads-scc", "incl-scc>1", "incl-maxscc", "not-LR(k)"
    );
    for entry in lalr_corpus::all_entries() {
        let g = entry.grammar();
        let lr0 = Lr0Automaton::build(&g);
        let a = LalrAnalysis::compute(&g, &lr0);
        let rs = a.relation_stats();
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:>12} {:>12} {:>10}",
            entry.name,
            rs.nt_transitions,
            rs.reads_nontrivial_sccs,
            rs.includes_nontrivial_sccs,
            rs.includes_max_scc,
            if a.grammar_not_lr_k() { "yes" } else { "-" },
        );
    }
    out
}

/// Table 4 — ablation summary (E6/E7/E8): Digraph vs naive closure,
/// bit-set vs hash-set store, full vs selective traversal.
pub fn table4(runs: usize) -> String {
    use lalr_digraph::{digraph, digraph_from_on, naive_closure, UnionSets};
    use std::collections::HashSet;
    use std::time::Instant;

    struct HashStore {
        sets: Vec<HashSet<usize>>,
    }
    impl UnionSets for HashStore {
        fn union(&mut self, dst: usize, src: usize) {
            if dst == src {
                return;
            }
            let (a, b) = if dst < src {
                let (lo, hi) = self.sets.split_at_mut(src);
                (&mut lo[dst], &hi[0])
            } else {
                let (lo, hi) = self.sets.split_at_mut(dst);
                (&mut hi[0], &lo[src])
            };
            a.extend(b.iter().copied());
        }
        fn assign(&mut self, dst: usize, src: usize) {
            if dst == src {
                return;
            }
            let copied = self.sets[src].clone();
            self.sets[dst] = copied;
        }
    }

    fn median<F: FnMut() -> std::time::Duration>(runs: usize, mut f: F) -> f64 {
        let mut v: Vec<_> = (0..runs.max(1)).map(|_| f()).collect();
        v.sort_unstable();
        v[v.len() / 2].as_secs_f64() * 1e6
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: ablations on the Follow computation (median of {runs} runs, us)"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "grammar", "digraph", "naive", "hashset", "full-LA", "select-LA", "skip%"
    );
    for name in [
        "expr",
        "json",
        "lua_subset",
        "pascal",
        "ada_subset",
        "sql_subset",
        "c_subset",
    ] {
        let g = lalr_corpus::by_name(name).expect("exists").grammar();
        let lr0 = Lr0Automaton::build(&g);
        let rel = Relations::build(&g, &lr0);
        let mut read = rel.dr().clone();
        digraph(rel.reads(), &mut read);

        let t_digraph = median(runs, || {
            let mut sets = read.clone();
            let t0 = Instant::now();
            digraph(rel.includes(), &mut sets);
            let d = t0.elapsed();
            std::hint::black_box(sets);
            d
        });
        let t_naive = median(runs, || {
            let mut sets = read.clone();
            let t0 = Instant::now();
            naive_closure(rel.includes(), &mut sets);
            let d = t0.elapsed();
            std::hint::black_box(sets);
            d
        });
        let t_hash = median(runs, || {
            let mut store = HashStore {
                sets: (0..read.rows())
                    .map(|r| read.iter_row(r).collect())
                    .collect(),
            };
            let t0 = Instant::now();
            digraph_from_on(rel.includes(), &mut store, 0..read.rows());
            let d = t0.elapsed();
            std::hint::black_box(store.sets.len());
            d
        });
        let t_full = median(runs, || {
            let t0 = Instant::now();
            let la = lalr_core::LalrAnalysis::compute(&g, &lr0).into_lookaheads();
            let d = t0.elapsed();
            std::hint::black_box(la);
            d
        });
        let sel = lalr_core::selective_lookaheads(&g, &lr0);
        let skip = sel.skipped_fraction() * 100.0;
        let t_sel = median(runs, || {
            let t0 = Instant::now();
            let la = lalr_core::selective_lookaheads(&g, &lr0).into_lookaheads();
            let d = t0.elapsed();
            std::hint::black_box(la);
            d
        });
        let _ = writeln!(
            out,
            "{:<16} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>10.1} {:>7.0}%",
            name, t_digraph, t_naive, t_hash, t_full, t_sel, skip
        );
    }
    out
}

/// Table 5 — parse table sizes: dense occupancy vs default-reduction
/// compression (the classic yacc space argument).
pub fn table5() -> String {
    use lalr_tables::{build_table, CompressedTable, TableOptions};

    let mut out = String::new();
    let _ = writeln!(out, "Table 5: ACTION table size, dense vs compressed");
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>7} {:>10} {:>11} {:>7}",
        "grammar", "states", "terms", "dense-ent", "compressed", "ratio"
    );
    for entry in lalr_corpus::all_entries() {
        let g = entry.grammar();
        let lr0 = Lr0Automaton::build(&g);
        let la = lalr_core::LalrAnalysis::compute(&g, &lr0).into_lookaheads();
        let table = build_table(&g, &lr0, &la, TableOptions::default());
        let stats = table.stats();
        let compressed = CompressedTable::from_dense(&table);
        let ratio = if stats.action_entries > 0 {
            compressed.explicit_entries() as f64 / stats.action_entries as f64
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>7} {:>10} {:>11} {:>6.2}x",
            entry.name,
            stats.states,
            stats.terminals,
            stats.action_entries,
            compressed.explicit_entries(),
            ratio
        );
    }
    out
}

/// Allocation counts of the cold DP pipeline *before* the dense-layout
/// overhaul (hash-keyed `LookaheadSets`, map-backed lookback, cloning
/// LR(0) interner), recorded with `alloc_probe` on this corpus at the
/// commit preceding the overhaul. Kept as constants so Table 7 can print
/// an honest before/after column without rebuilding old code.
const TABLE7_BASELINE: &[(&str, usize, usize)] = &[
    // (grammar, allocations, bytes) — cold `grammar → LA sets`, DP method.
    ("expr", 265, 14_291),
    ("json", 524, 35_415),
    ("lua_subset", 6_424, 538_608),
    ("pascal", 4_398, 348_413),
    ("algol60", 4_976, 411_727),
    ("ada_subset", 7_702, 726_667),
    ("tiny_java", 6_818, 551_484),
    ("sql_subset", 6_318, 552_785),
    ("c_subset", 12_838, 1_215_140),
];

/// Table 7 — memory behaviour of the cold pipeline (E11): allocation
/// count/bytes of `grammar → LR(0) → LA` per corpus grammar, the DP
/// method measured live against the recorded pre-overhaul baseline, plus
/// live per-method allocation counts and wall-clock.
pub fn table7() -> String {
    use crate::alloc_counter::measure;
    use lalr_automata::Lr0Automaton;
    use std::time::Instant;

    let cold = |name: &str, method: Method| {
        let entry = lalr_corpus::by_name(name).expect("corpus entry exists");
        let t0 = Instant::now();
        let ((), stats) = measure(|| {
            let g = entry.grammar();
            let lr0 = Lr0Automaton::build(&g);
            let la = method.run(&g, &lr0);
            std::hint::black_box(la.total_bits());
        });
        (stats, t0.elapsed())
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 7: cold-pipeline allocations (grammar -> LA sets), dense-layout overhaul"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>7} {:>11} {:>11} {:>7}",
        "grammar (DP)", "alloc-pre", "alloc-now", "d%", "bytes-pre", "bytes-now", "d%"
    );
    for &(name, pre_allocs, pre_bytes) in TABLE7_BASELINE {
        let (stats, _) = cold(name, Method::DeRemerPennello);
        let da = 100.0 * (1.0 - stats.allocations as f64 / pre_allocs as f64);
        let db = 100.0 * (1.0 - stats.bytes as f64 / pre_bytes as f64);
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>6.0}% {:>11} {:>11} {:>6.0}%",
            name, pre_allocs, stats.allocations, da, pre_bytes, stats.bytes, db
        );
    }
    let _ = writeln!(
        out,
        "(alloc-pre/bytes-pre: recorded before the overhaul; now: measured live)"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "per-method cold pipeline, this build:");
    let _ = writeln!(
        out,
        "{:<16} {:>16} {:>12} {:>14} {:>10}",
        "grammar", "method", "allocations", "bytes", "time"
    );
    for name in ["expr", "json", "pascal", "ada_subset", "c_subset"] {
        for method in Method::ALL {
            let (stats, elapsed) = cold(name, method);
            let _ = writeln!(
                out,
                "{:<16} {:>16} {:>12} {:>14} {:>8.1}us",
                name,
                method.label(),
                stats.allocations,
                stats.bytes,
                elapsed.as_secs_f64() * 1e6
            );
        }
    }
    out
}

/// Table 9 — per-phase time breakdown of the three LALR(1)-exact methods
/// (E13): each cell is one cold run under a [`lalr_obs::CollectingRecorder`],
/// with the phase spans the pipeline emits (DP and propagation) or the
/// harness wraps around the two LR(1)-merge stages.
pub fn table9() -> String {
    use lalr_automata::merge_lr1;
    use lalr_core::{propagation_recorded, LookaheadSets};
    use lalr_obs::{CollectingRecorder, PhaseReport};
    use std::time::{Duration, Instant};

    fn row(out: &mut String, grammar: &str, method: &str, total: Duration, report: &PhaseReport) {
        let phases: Vec<String> = report
            .phases
            .iter()
            .map(|p| format!("{}={:.1}", p.name, p.total_ns as f64 / 1e3))
            .collect();
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>8.1}  {}",
            grammar,
            method,
            total.as_secs_f64() * 1e6,
            phases.join(" ")
        );
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 9: per-phase time breakdown (one cold run per method; all times us)"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>8}  phase=us ...",
        "grammar", "method", "total"
    );
    for entry in lalr_corpus::all_entries() {
        let g = entry.grammar();
        let lr0 = Lr0Automaton::build(&g);

        let rec = CollectingRecorder::new();
        let t0 = Instant::now();
        let la = LalrAnalysis::compute_recorded(&g, &lr0, &rec).into_lookaheads();
        let total = t0.elapsed();
        std::hint::black_box(la);
        row(&mut out, entry.name, "DP", total, &rec.report());

        let rec = CollectingRecorder::new();
        let t0 = Instant::now();
        let la = propagation_recorded(&g, &lr0, &rec);
        let total = t0.elapsed();
        std::hint::black_box(la);
        row(&mut out, entry.name, "yacc-prop", total, &rec.report());

        let rec = CollectingRecorder::new();
        let t0 = Instant::now();
        let lr1 = {
            let _span = lalr_obs::span(&rec, "lr1.build");
            Lr1Automaton::build(&g)
        };
        let la = {
            let _span = lalr_obs::span(&rec, "lr1.merge");
            LookaheadSets::from(&merge_lr1(&g, &lr1, &lr0))
        };
        let total = t0.elapsed();
        std::hint::black_box(la);
        row(&mut out, entry.name, "LR1-merge", total, &rec.report());
    }
    let _ = writeln!(
        out,
        "(DP phases: relation construction, two Digraph traversals, LA union; \
         propagation: closures, fixpoint, emission; LR1-merge: machine build, merge)"
    );
    out
}

/// Cold c_subset DP pipeline wall-clock (grammar → LR(0) → LA sets), in
/// microseconds, recorded immediately before the bitset kernel substrate
/// landed: four cold runs on the project's 1-vCPU reference host. Kept as
/// constants so Table 12 can print an honest before/after column without
/// rebuilding old code.
const TABLE12_COLD_BASELINE_US: [f64; 4] = [1102.9, 1174.9, 1196.2, 1258.4];

/// Rows per kernel timing loop; sized so a w=8 working set (2 × 2048 × 64 B
/// = 256 KiB) spills L2 the way real LA matrices do.
const TABLE12_ROWS: usize = 2048;

/// Passes over the working set per kernel measurement.
const TABLE12_REPS: usize = 16;

/// Estimates the CPU clock by timing a latency-bound dependent
/// rotate-xor chain: `rol` and `xor` each have single-cycle latency on
/// every x86-64 and aarch64 core this project targets, and the chain is
/// a GF(2) recurrence no compiler folds, so one iteration is two cycles.
/// Clamped to a sane range so a preempted calibration run cannot produce
/// absurd cycles/row figures.
fn estimated_ghz() -> f64 {
    use std::time::Instant;
    const ITERS: u64 = 8_000_000;
    const CHAIN_LATENCY_CYCLES: f64 = 2.0;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        x = x.rotate_left(1) ^ 0x2545_f491_4f6c_dd1d;
    }
    let ns = t0.elapsed().as_nanos().max(1) as f64;
    std::hint::black_box(x);
    (ITERS as f64 * CHAIN_LATENCY_CYCLES / ns).clamp(0.5, 6.0)
}

/// Times one kernel over a randomized row working set; returns ns/row.
fn bench_kernel_rows<F>(words: usize, mut op: F) -> f64
where
    F: FnMut(&mut [usize], &[usize]),
{
    use std::time::Instant;
    // Deterministic xorshift so reruns time identical bit patterns.
    let mut state: u64 = 0x1234_5678_9abc_def0 ^ (words as u64).wrapping_mul(0xff51_afd7);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let srcs: Vec<Vec<usize>> = (0..TABLE12_ROWS)
        .map(|_| (0..words).map(|_| next()).collect())
        .collect();
    let mut dsts: Vec<Vec<usize>> = (0..TABLE12_ROWS)
        .map(|_| (0..words).map(|_| next()).collect())
        .collect();
    // Best of three passes: on the project's 1-vCPU reference host a
    // single pass is one scheduler preemption away from a 10x outlier
    // cell; the minimum is the least-disturbed estimate of the kernel.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..TABLE12_REPS {
            for (dst, src) in dsts.iter_mut().zip(&srcs) {
                op(dst, src);
            }
        }
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(&dsts);
    best / (TABLE12_ROWS * TABLE12_REPS) as f64
}

/// Table 12 — the bitset kernel substrate (E16): per-kernel ns/row and
/// estimated cycles/row at the row widths the corpus actually selects
/// (w=1 fixed-64, w=2 fixed-128) plus wider multi-word rows, the wide
/// lane, and the cold c_subset DP pipeline measured live against the
/// recorded pre-substrate baseline.
pub fn table12() -> String {
    use crate::alloc_counter::measure;
    use lalr_automata::Lr0Automaton;
    use lalr_bitset::kernels;
    use std::time::Instant;

    let ghz = estimated_ghz();
    let mut out = String::new();
    let _ = writeln!(out, "Table 12: bitset kernel cycles/row (E16)");
    let _ = writeln!(
        out,
        "wide lane: {}; est. clock {:.2} GHz (rotate-xor chain calibration)",
        lalr_core::kernel_dispatch_name(),
        ghz,
    );
    let _ = writeln!(
        out,
        "{:<14} {:>15} {:>15} {:>15} {:>15}",
        "kernel", "w=1", "w=2", "w=4", "w=8"
    );
    type KernelRow = (&'static str, fn(usize) -> f64);
    let kernel_rows: &[KernelRow] = &[
        ("or", |w| {
            bench_kernel_rows(w, |d, s| {
                std::hint::black_box(kernels::or_into(d, s));
            })
        }),
        ("copy", |w| bench_kernel_rows(w, kernels::copy)),
        ("popcount", |w| {
            bench_kernel_rows(w, |d, s| {
                std::hint::black_box(kernels::popcount(d) + kernels::popcount(s));
            })
        }),
    ];
    for (name, run) in kernel_rows {
        let mut cells: Vec<String> = Vec::new();
        for w in [1usize, 2, 4, 8] {
            let ns = run(w);
            cells.push(format!("{:>6.2}ns {:>4.1}cy", ns, ns * ghz));
        }
        let _ = writeln!(
            out,
            "{:<14} {:>15} {:>15} {:>15} {:>15}",
            name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    let _ = writeln!(
        out,
        "(popcount row times two rows per call: both operand rows are counted)"
    );

    let _ = writeln!(out);
    let _ = writeln!(out, "cold c_subset DP pipeline (grammar -> LA sets):");
    let entry = lalr_corpus::by_name("c_subset").expect("corpus entry exists");
    let cold_run = || {
        let t0 = Instant::now();
        let ((), _stats) = measure(|| {
            let g = entry.grammar();
            let lr0 = Lr0Automaton::build(&g);
            let la = Method::DeRemerPennello.run(&g, &lr0);
            std::hint::black_box(la.total_bits());
        });
        t0.elapsed().as_secs_f64() * 1e6
    };
    cold_run(); // warm-up: fault in code and corpus text
    let mut live_us: Vec<f64> = (0..9).map(|_| cold_run()).collect();
    live_us.sort_by(f64::total_cmp);
    let live = live_us[live_us.len() / 2];
    let base = TABLE12_COLD_BASELINE_US[TABLE12_COLD_BASELINE_US.len() / 2];
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>7}",
        "", "pre-kernel", "this build", "delta"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10.1}us {:>10.1}us {:>6.1}%",
        "median of runs",
        base,
        live,
        100.0 * (1.0 - live / base),
    );
    let _ = writeln!(
        out,
        "(baseline recorded pre-substrate on the same 1-vCPU host; single-vCPU \
         wall-clock is noisy -- treat deltas within ~10% as noise)"
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_has_a_row_per_corpus_entry() {
        let t = super::table1();
        for e in lalr_corpus::all_entries() {
            assert!(t.contains(e.name), "{} missing", e.name);
        }
    }

    #[test]
    fn table1_relation_size_sums_the_relation_columns() {
        let t = super::table1();
        assert!(t.lines().nth(1).unwrap().trim_end().ends_with("|R|"));
        for row in t.lines().skip(2) {
            let cells: Vec<usize> = row
                .split_whitespace()
                .skip(1)
                .map(|c| c.parse().expect("numeric cell"))
                .collect();
            assert_eq!(cells.len(), 10, "{row}");
            // nttrans + reads + includes + lookback.
            assert_eq!(cells[9], cells[5..9].iter().sum::<usize>(), "{row}");
        }
    }

    #[test]
    fn table3_flags_the_witness_and_the_cycle() {
        let t = super::table3();
        let witness_row = t
            .lines()
            .find(|l| l.starts_with("nqlalr_witness"))
            .expect("witness row");
        assert!(witness_row.contains("LALR(1)"));
        let cycle_row = t
            .lines()
            .find(|l| l.starts_with("reads_cycle"))
            .expect("cycle row");
        assert!(cycle_row.contains("yes"));
    }

    #[test]
    fn figure1_is_well_formed() {
        // One warm-up-free run to keep tests fast.
        let f = super::figure1(1);
        assert_eq!(f.lines().count(), 2 + 6);
        assert!(f.lines().nth(1).unwrap().ends_with("|R| DP ns/|R|"));
        let mut last_r = 0;
        for row in f.lines().skip(2) {
            let cells: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(cells.len(), 9, "{row}");
            let r: usize = cells[7].parse().expect("|R| is a count");
            let per: f64 = cells[8].parse().expect("ns/|R| is a number");
            assert!(r > last_r, "|R| grows with n: {row}");
            assert!(per > 0.0, "{row}");
            last_r = r;
        }
    }

    #[test]
    fn figure2_marks_only_the_cyclic_grammar() {
        let f = super::figure2();
        let yes_rows: Vec<&str> = f
            .lines()
            .filter(|l| l.trim_end().ends_with("yes"))
            .collect();
        assert_eq!(yes_rows.len(), 1);
        assert!(yes_rows[0].starts_with("reads_cycle"));
    }

    #[test]
    fn table4_reports_skip_percentages() {
        let t = super::table4(1);
        assert!(t.contains("skip%"));
        assert!(t.lines().count() >= 8);
    }

    #[test]
    fn table7_reports_every_baseline_grammar_and_method() {
        let t = super::table7();
        for &(name, _, _) in super::TABLE7_BASELINE {
            assert!(t.contains(name), "{name} missing from table 7");
        }
        for m in super::Method::ALL {
            assert!(t.contains(m.label()), "{} missing from table 7", m.label());
        }
    }

    #[test]
    fn table9_reports_phases_for_every_method_and_grammar() {
        let t = super::table9();
        for e in lalr_corpus::all_entries() {
            assert!(t.contains(e.name), "{} missing from table 9", e.name);
        }
        for phase in [
            "relations.build=",
            "digraph.reads=",
            "digraph.includes=",
            "la.union=",
            "prop.closure=",
            "prop.fixpoint=",
            "prop.emit=",
            "lr1.build=",
            "lr1.merge=",
        ] {
            assert!(t.contains(phase), "{phase} missing from table 9");
        }
    }

    #[test]
    fn table12_reports_every_kernel_and_the_cold_pipeline() {
        let t = super::table12();
        for kernel in ["or", "copy", "popcount"] {
            assert!(t.contains(kernel), "{kernel} missing from table 12");
        }
        assert!(t.contains("wide lane:"), "dispatch line missing");
        assert!(
            t.contains("cold c_subset DP pipeline"),
            "cold section missing"
        );
        assert!(t.contains("pre-kernel"), "baseline column missing");
        assert!(t.contains("wide lane: scalar-unrolled"));
    }

    #[test]
    fn table5_compression_never_grows() {
        let t = super::table5();
        for line in t.lines().skip(2) {
            let ratio: f64 = line
                .split_whitespace()
                .last()
                .and_then(|s| s.trim_end_matches('x').parse().ok())
                .expect("ratio column");
            assert!(ratio <= 1.0, "{line}");
        }
    }
}
