//! Heterogeneous-computing integration (§3): SQ8H correctness across modes,
//! big-k round-by-round search, multi-GPU scheduling, and agreement between
//! the batch engines and per-query search.

use std::sync::Arc;

use milvus_datagen as datagen;
use milvus_gpu::{bigk, ExecMode, GpuDevice, GpuSpec, MultiGpuScheduler, Sq8hIndex};
use milvus_baselines::faiss_style_search;
use milvus_index::batch::{cache_aware_search_exec, BatchOptions};
use milvus_index::ivf::{IvfIndex, IvfVariant};
use milvus_index::traits::{BuildParams, SearchParams};
use milvus_index::{Metric, VectorIndex};

#[test]
fn sq8h_modes_agree_with_cpu_ivf_sq8() {
    let n = 2_000;
    let data = datagen::sift_like(n, 91);
    let ids: Vec<i64> = (0..n as i64).collect();
    let params = BuildParams { nlist: 64, kmeans_iters: 5, ..Default::default() };

    let cpu_ivf = IvfIndex::build(IvfVariant::Sq8, &data, &ids, &params).unwrap();
    let device = Arc::new(GpuDevice::new(0, GpuSpec::default()));
    let sq8h = Sq8hIndex::build(&data, &ids, &params, device).unwrap();

    let queries = datagen::queries_from(&data, 10, 2.0, 92);
    let sp = SearchParams { k: 10, nprobe: 16, ..Default::default() };
    for mode in [ExecMode::PureCpu, ExecMode::PureGpu, ExecMode::Sq8h] {
        let (results, _) = sq8h.search_batch_mode(&queries, &sp, mode);
        for (qi, res) in results.iter().enumerate() {
            let expect = cpu_ivf.search(queries.get(qi), &sp).unwrap();
            assert_eq!(res, &expect, "mode {mode:?} query {qi}");
        }
    }
}

#[test]
fn bigk_supports_k_beyond_kernel_limit() {
    let n = 3_000;
    let data = datagen::sift_like(n, 93);
    let ids: Vec<i64> = (0..n as i64).collect();
    let device = GpuDevice::new(0, GpuSpec::default()); // kernel limit 1024
    let queries = datagen::queries_from(&data, 2, 2.0, 94);

    let (results, _) = bigk::search(&device, Metric::L2, &data, &ids, &queries, 2500);
    for res in &results {
        assert_eq!(res.len(), 2500);
        // Sorted, unique.
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let mut ids: Vec<i64> = res.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2500, "duplicates across rounds");
    }
}

#[test]
fn multi_gpu_segment_scheduling_balances() {
    let sched = MultiGpuScheduler::with_devices(3, GpuSpec::default());
    // 30 equal segment tasks: each device should take 10.
    let tasks: Vec<usize> = (0..30).collect();
    let assigned = sched
        .schedule(tasks, |_, dev| {
            dev.run_kernel(1_000_000_000);
            dev.ordinal
        })
        .unwrap();
    let mut counts = [0usize; 3];
    for o in assigned {
        counts[o] += 1;
    }
    assert_eq!(counts, [10, 10, 10]);

    // Elastic add: the idle newcomer takes the next task.
    sched.add_device(Arc::new(GpuDevice::new(7, GpuSpec::default())));
    assert_eq!(sched.assign().unwrap().ordinal, 7);
}

#[test]
fn batch_engines_agree_with_flat_index() {
    let n = 1_500;
    let data = datagen::deep_like(n, 95);
    let ids: Vec<i64> = (0..n as i64).collect();
    let queries = datagen::queries_from(&data, 12, 0.02, 96);
    let flat =
        milvus_index::flat::FlatIndex::build(Metric::L2, data.clone(), ids.clone()).unwrap();

    let opts = BatchOptions { k: 10, metric: Metric::L2, threads: 3, l3_cache_bytes: 1 << 20 };
    let a = faiss_style_search(&data, &ids, &queries, &opts);
    let pool = milvus_exec::Executor::new("t_hetero_batch", 3);
    let b = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
    for qi in 0..queries.len() {
        let expect = flat.search(queries.get(qi), &SearchParams::top_k(10)).unwrap();
        assert_eq!(a[qi], expect, "faiss-style q{qi}");
        assert_eq!(b[qi], expect, "cache-aware q{qi}");
    }
}

#[test]
fn gpu_memory_pressure_evicts_and_recovers() {
    let n = 4_000;
    let data = datagen::sift_like(n, 97);
    let ids: Vec<i64> = (0..n as i64).collect();
    let params = BuildParams { nlist: 64, kmeans_iters: 4, ..Default::default() };
    // Device memory ~1/10 of encoded data.
    let device = Arc::new(GpuDevice::new(
        0,
        GpuSpec { global_memory_bytes: n * 128 / 10, ..Default::default() },
    ));
    let sq8h = Sq8hIndex::build(&data, &ids, &params, Arc::clone(&device)).unwrap();
    let queries = datagen::queries_from(&data, 8, 2.0, 98);
    let sp = SearchParams { k: 5, nprobe: 32, ..Default::default() };

    let (r1, rep1) = sq8h.search_batch_mode(&queries, &sp, ExecMode::PureGpu);
    let (r2, rep2) = sq8h.search_batch_mode(&queries, &sp, ExecMode::PureGpu);
    assert_eq!(r1, r2);
    assert!(rep1.transferred_bytes > 0);
    // Under pressure, the second batch must stream again (evictions).
    assert!(rep2.transferred_bytes > 0);
    assert!(device.stats().evictions > 0);
    // And residency never exceeds the configured device memory.
    assert!(device.resident_bytes() <= n * 128 / 10);
}

#[test]
fn simd_dispatch_is_consistent_under_forcing() {
    use milvus_index::distance::l2_sq;
    let data = datagen::sift_like(2, 99);
    let a = data.get(0);
    let b = data.get(1);
    let auto = l2_sq(a, b);
    for level in milvus_index::SimdLevel::ALL {
        if level.supported() {
            milvus_index::simd::force_level(level).unwrap();
            let forced = l2_sq(a, b);
            assert!(
                (auto - forced).abs() <= 1e-2 * auto.abs().max(1.0),
                "{level}: {forced} vs {auto}"
            );
        }
    }
    milvus_index::simd::reset_level();
}
