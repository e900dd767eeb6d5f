//! Attribute-filtering strategy benchmarks (ablation #3: partition-based E
//! vs planned D, plus the fixed strategies).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use milvus_datagen as datagen;
use milvus_index::registry::IndexRegistry;
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::Metric;
use milvus_query::filtering::{FilterDataset, PartitionedDataset, RangePredicate, Strategy};
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("filtering");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let n = 30_000;
    let data = datagen::sift_like(n, 31);
    let ids: Vec<i64> = (0..n as i64).collect();
    let values = datagen::attributes_uniform(n, 0.0, 10_000.0, 32);
    let registry = IndexRegistry::with_builtins();
    let params = BuildParams { nlist: 128, kmeans_iters: 4, ..Default::default() };
    let dataset = FilterDataset::build(
        Metric::L2,
        data.clone(),
        ids.clone(),
        values.clone(),
        "a",
        "IVF_FLAT",
        &registry,
        &params,
    )
    .expect("dataset");
    let part = PartitionedDataset::build(
        Metric::L2, &data, &ids, &values, "a", 10, "IVF_FLAT", &registry, &params,
    )
    .expect("partitioned");
    let queries = datagen::queries_from(&data, 8, 2.0, 33);
    let sp = SearchParams { k: 50, nprobe: 16, ..Default::default() };

    for (sel_name, hi) in [("sel_0.5", 5_000.0), ("sel_0.99", 100.0)] {
        let pred = RangePredicate::new(0.0, hi);
        for strat in [Strategy::A, Strategy::B, Strategy::C, Strategy::D] {
            group.bench_with_input(
                BenchmarkId::new(format!("{strat:?}"), sel_name),
                &pred,
                |b, &pred| {
                    let mut qi = 0usize;
                    b.iter(|| {
                        let q = queries.get(qi % queries.len());
                        qi += 1;
                        black_box(dataset.search(q, pred, &sp, strat).expect("search"))
                    })
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("E", sel_name), &pred, |b, &pred| {
            let mut qi = 0usize;
            b.iter(|| {
                let q = queries.get(qi % queries.len());
                qi += 1;
                black_box(part.search(q, pred, &sp).expect("search"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
