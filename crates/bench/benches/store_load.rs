//! The disk-warm load path of the artifact store: `format::encode`,
//! `format::decode` and `Store::load` (open, read, checksum, decode,
//! key confirmation) per record, for a realistic grammar and the two
//! largest synthetic families the store sees.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lalr_core::Parallelism;
use lalr_service::{CompiledArtifact, GrammarFormat};
use lalr_store::{format, Loaded, Store};

fn bench_store_load(c: &mut Criterion) {
    let grammars = [
        (
            "c_subset",
            lalr_corpus::by_name("c_subset")
                .expect("corpus entry exists")
                .source
                .to_string(),
        ),
        (
            "expr_ladder_80",
            lalr_corpus::synthetic::expr_ladder(80).to_string(),
        ),
        (
            "wide_forest_100",
            lalr_corpus::synthetic::wide_forest(100).to_string(),
        ),
    ];
    let dir = std::env::temp_dir().join(format!("lalr-bench-store-load-{}", std::process::id()));
    let store = Store::open(&dir).expect("store opens");

    let mut group = c.benchmark_group("store_load");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (fp, (name, text)) in (1u64..).zip(&grammars) {
        let artifact =
            CompiledArtifact::compile(text, GrammarFormat::Native, fp, &Parallelism::sequential())
                .expect("grammar compiles");
        let record = artifact.to_record(text);
        let bytes = format::encode(&record);
        println!("store_load/{name}: record {} bytes", bytes.len());
        store.publish(&record).expect("publish");

        group.bench_with_input(BenchmarkId::new("encode", name), &record, |b, r| {
            b.iter(|| format::encode(r).len())
        });
        group.bench_with_input(BenchmarkId::new("decode", name), &bytes, |b, bytes| {
            b.iter(|| format::decode(bytes).expect("decodes").states)
        });
        group.bench_with_input(BenchmarkId::new("Store::load", name), text, |b, text| {
            b.iter(|| match store.load(fp, Some(text)) {
                Loaded::Hit(r) => r.states,
                other => panic!("expected a hit, got {other:?}"),
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_store_load);
criterion_main!(benches);
