//! The table layer of the pipeline: `build_table` (ACTION rows a word at
//! a time, conflicts counted), `resolutions` (the same rows with every
//! decision logged) and `CompressedTable::from_dense` (one scan per row),
//! on a realistic grammar, the widest synthetic family the benchmark
//! draws, and its two conflict-heavy random grammars.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lalr_automata::Lr0Automaton;
use lalr_core::LalrAnalysis;
use lalr_tables::{build_table, resolutions, CompressedTable, TableOptions};

fn bench_table_build(c: &mut Criterion) {
    let grammars = lalr_bench::layer_grammars();
    let options = TableOptions::default();

    let mut group = c.benchmark_group("table_build");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (name, g) in &grammars {
        let lr0 = Lr0Automaton::build(g);
        let la = LalrAnalysis::compute(g, &lr0).into_lookaheads();
        let table = build_table(g, &lr0, &la, options);
        let compressed = CompressedTable::from_dense(&table);
        println!(
            "table_build/{name}: {} states x {} terminals, {} resolutions, \
             {} action entries, {} compressed entries",
            table.state_count(),
            table.terminal_count(),
            table.resolution_count(),
            table.stats().action_entries,
            compressed.explicit_entries(),
        );

        group.bench_with_input(BenchmarkId::new("build_table", name), &la, |b, la| {
            b.iter(|| build_table(g, &lr0, la, options).resolution_count())
        });
        group.bench_with_input(BenchmarkId::new("resolutions", name), &la, |b, la| {
            b.iter(|| resolutions(g, &lr0, la, options).len())
        });
        group.bench_with_input(BenchmarkId::new("from_dense", name), &table, |b, t| {
            b.iter(|| CompressedTable::from_dense(t).explicit_entries())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table_build);
criterion_main!(benches);
