//! Figure 11: the cache-aware design vs the original (Faiss-style)
//! implementation — execution time of a 1000-query batch as the data size
//! grows, under two assumed L3 sizes (12 MB and 35.75 MB, the paper's two
//! CPUs). The cache-blocking benefit is a single-thread memory-locality
//! effect, so it reproduces on any core count.

use milvus_baselines::faiss_style_search;
use milvus_datagen as datagen;
use milvus_exec::Executor;
use milvus_index::batch::{cache_aware_search_exec, query_block_size, BatchOptions};
use milvus_index::Metric;
use serde_json::json;

use crate::util::{banner, Scale, Timer};

/// Run Figure 11 at `scale`.
pub fn run(scale: Scale) -> serde_json::Value {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 10_000, 50_000],
        Scale::Standard => vec![1_000, 10_000, 100_000, 300_000],
    };
    let m = match scale {
        Scale::Quick => 200,
        Scale::Standard => 1000,
    };
    let k = 50;
    let dim = 128;
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let pool = Executor::new("fig11", threads);
    let caches: &[(&str, usize)] = &[("12MB", 12 << 20), ("35.75MB", 35_750_000)];

    let queries = datagen::sift_like(m, 111);
    let mut rows = Vec::new();
    for &(cache_name, l3) in caches {
        banner(&format!(
            "Figure 11 ({cache_name} L3): cache-aware vs original, batch={m}"
        ));
        println!(
            "{:>10} {:>6} {:>14} {:>14} {:>9}",
            "data size", "s", "original (s)", "cache-aware", "speedup"
        );
        for &n in &sizes {
            let data = datagen::sift_like(n, 112);
            let ids: Vec<i64> = (0..n as i64).collect();
            let opts = BatchOptions { k, metric: Metric::L2, threads, l3_cache_bytes: l3 };
            let s = query_block_size(l3, dim, threads, k).min(m);

            let t = Timer::start();
            let original = faiss_style_search(&data, &ids, &queries, &opts);
            let orig_s = t.secs();

            let t = Timer::start();
            let aware = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
            let aware_s = t.secs();

            assert_eq!(original, aware, "engines disagree");
            let speedup = orig_s / aware_s.max(1e-12);
            println!("{n:>10} {s:>6} {orig_s:>14.3} {aware_s:>14.3} {speedup:>8.2}x");
            rows.push(json!({
                "l3": cache_name, "n": n, "block_s": s,
                "original_s": orig_s, "cache_aware_s": aware_s, "speedup": speedup,
            }));
        }
    }
    json!(rows)
}
