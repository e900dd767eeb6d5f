//! Ablation: the cache-aware batch engine (§3.2.1) vs the Faiss-style
//! thread-per-query engine (DESIGN.md ablations #1/#2, Figure 11's kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use milvus_baselines::faiss_style_search;
use milvus_datagen as datagen;
use milvus_exec::Executor;
use milvus_index::batch::{cache_aware_search_exec, BatchOptions};
use milvus_index::Metric;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let pool = Executor::new("bench_batch_engine", 4);
    let queries = datagen::sift_like(64, 1);
    for n in [10_000usize, 50_000] {
        let data = datagen::sift_like(n, 2);
        let ids: Vec<i64> = (0..n as i64).collect();
        let opts = BatchOptions {
            k: 50,
            metric: Metric::L2,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            l3_cache_bytes: 32 << 20,
        };
        group.bench_with_input(BenchmarkId::new("faiss_style", n), &n, |b, _| {
            b.iter(|| black_box(faiss_style_search(&data, &ids, &queries, &opts)))
        });
        group.bench_with_input(BenchmarkId::new("cache_aware_exec", n), &n, |b, _| {
            b.iter(|| black_box(cache_aware_search_exec(&pool, &data, &ids, &queries, &opts)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
