//! Batch query execution: the cache-aware, fine-grained-parallel design of
//! §3.2.1 (Figure 3).
//!
//! The fundamental operation: given `m` queries and `n` data rows, find each
//! query's top-k. Worker tasks are assigned *data ranges* (fine-grained
//! parallelism) and queries are processed in blocks of `s` chosen by Eq. (1)
//! so that a block plus its heaps fits in L3. Each loaded row is compared
//! against all `s` resident queries, and every (range, query) pair gets its
//! own heap (`H[r][j]` in Figure 3) to avoid synchronization; per-query heaps
//! are merged at the end. Each task touches the data `m/(s·t)` times — `s`×
//! fewer than the thread-per-query design it replaces (kept as
//! `milvus_baselines::faiss_style_search` for Figure 11).
//!
//! There is one engine, [`cache_aware_scan`]: scheduled on a persistent
//! [`milvus_exec::Executor`], scoring rows in register-tiled ×4 groups, with
//! one `k` per query and a trace argument. What a row *is* — an `f32` vector
//! or an SQ8 code — is the [`Rows`] argument; the metric's kernel (or the
//! per-query fused SQ8 state) is resolved once per call, so the hot loop
//! never re-matches the `Metric` enum or re-reads the SIMD level.

use std::ops::Range;

use milvus_exec::Executor;
use milvus_obs as obs;

use crate::distance::quant::PreparedSq8;
use crate::distance::{self, PairKernel, Tile4Kernel};
use crate::ivf::sq8::ScalarQuantizer;
use crate::mask::{in_tiles, RowMask};
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};
use crate::vectors::VectorSet;

/// Kernel dispatch hoisted out of the scan loops: resolved once per search
/// call from the metric + active SIMD level.
enum BlockKernel {
    /// Register-tiled path: score 4 queries per data-vector pass, with a
    /// per-pair kernel for the ragged tail of a query block.
    Tiled(Tile4Kernel, PairKernel),
    /// Metrics without a tiled form (cosine, SSE-only levels).
    Single(PairKernel),
}

fn block_kernel(metric: Metric) -> BlockKernel {
    match distance::tile4_kernel(metric) {
        Some(tile) => BlockKernel::Tiled(tile, distance::pair_kernel(metric)),
        None => BlockKernel::Single(distance::pair_kernel(metric)),
    }
}

/// The rows of `range` a scan may score: all of them, or those set in `mask`.
fn visible(range: Range<usize>, mask: Option<&RowMask>) -> impl Iterator<Item = usize> + '_ {
    range.filter(move |&row| mask.is_none_or(|m| m.get(row)))
}

/// Score data `rows` (ascending) against the resident `queries` block,
/// pushing into one heap per resident query. Heap `j` always sees per-pair
/// results in row order, so the outcome is bit-identical whether the kernel
/// is tiled or not, and whichever rows a mask left to share a tile.
///
/// The tiled path registers-tiles over *data rows*: four rows are scored
/// against each resident query per kernel call, so every streamed query
/// vector is loaded once per four rows instead of once per row — a 4×
/// reduction of the loop's dominant memory traffic (the query block is far
/// larger than one data vector). L2² and IP are symmetric bit-for-bit
/// (`(a-b)² == (b-a)²`, `a·b == b·a` in IEEE), so calling the ×4 kernel
/// with rows in the "queries" slot yields exactly the per-pair results.
fn scan_vectors_into_heaps(
    kern: &BlockKernel,
    data: &VectorSet,
    ids: &[i64],
    rows: impl Iterator<Item = usize>,
    queries: &VectorSet,
    block: Range<usize>,
    heaps: &mut [TopK],
) {
    // The loaded vector is reused for the entire resident query block — the
    // cache win.
    let one_row = |pair: &PairKernel, row: usize, heaps: &mut [TopK]| {
        let v = data.get(row);
        for (j, heap) in heaps.iter_mut().enumerate() {
            heap.push(ids[row], pair(queries.get(block.start + j), v));
        }
    };
    match kern {
        BlockKernel::Tiled(tile, pair) => in_tiles(rows, |g| match *g {
            [a, b, c, d] => {
                let vs = [data.get(a), data.get(b), data.get(c), data.get(d)];
                for (j, heap) in heaps.iter_mut().enumerate() {
                    let dist = tile(vs, queries.get(block.start + j));
                    for (&row, dist) in g.iter().zip(dist) {
                        heap.push(ids[row], dist);
                    }
                }
            }
            _ => g.iter().for_each(|&row| one_row(pair, row, heaps)),
        }),
        BlockKernel::Single(pair) => rows.for_each(|row| one_row(pair, row, heaps)),
    }
}

/// [`scan_vectors_into_heaps`] over SQ8 codes: stream the raw `dim`-byte
/// codes of `rows` in ×4-row register tiles against the block's fused
/// per-query state, so each 4-row group's bytes are loaded once per resident
/// query with zero per-row allocation and no decoded vector ever
/// materialized.
fn scan_codes_into_heaps(
    prepared: &[PreparedSq8<'_>],
    codes: &[u8],
    dim: usize,
    ids: &[i64],
    rows: impl Iterator<Item = usize>,
    heaps: &mut [TopK],
) {
    let code = |r: usize| &codes[r * dim..(r + 1) * dim];
    in_tiles(rows, |g| match *g {
        [a, b, c, d] => {
            let tile = [code(a), code(b), code(c), code(d)];
            for (p, heap) in prepared.iter().zip(heaps.iter_mut()) {
                for (&row, dist) in g.iter().zip(p.distance_x4(tile)) {
                    heap.push(ids[row], dist);
                }
            }
        }
        _ => {
            for &row in g {
                for (p, heap) in prepared.iter().zip(heaps.iter_mut()) {
                    heap.push(ids[row], p.distance(code(row)));
                }
            }
        }
    });
}

/// Tuning knobs for the batch engine.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Results per query (the 5-argument [`cache_aware_search_exec`] only;
    /// [`cache_aware_scan`] takes one `k` per query instead).
    pub k: usize,
    /// Similarity function.
    pub metric: Metric,
    /// Worker tasks (`t`). The data is split into `t` contiguous ranges.
    pub threads: usize,
    /// Assumed L3 cache size in bytes, the numerator of Eq. (1).
    pub l3_cache_bytes: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            k: 50,
            metric: Metric::L2,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            l3_cache_bytes: 32 * 1024 * 1024,
        }
    }
}

/// Equation (1): query-block size `s` such that `s` queries plus their
/// per-thread heaps fit in L3.
///
/// `s = L3 / (d·sizeof(f32) + t·k·(sizeof(i64)+sizeof(f32)))`
pub fn query_block_size(l3_bytes: usize, dim: usize, threads: usize, k: usize) -> usize {
    let per_query = dim * std::mem::size_of::<f32>()
        + threads * k * (std::mem::size_of::<i64>() + std::mem::size_of::<f32>());
    (l3_bytes / per_query.max(1)).max(1)
}

/// The row matrix a batch is scored against: what the engine's scorer reads.
#[derive(Clone, Copy)]
pub enum Rows<'a> {
    /// `n × dim` float vectors, scored with the metric's (×4 tiled) kernel.
    F32(&'a VectorSet),
    /// A flat `n × dim` u8 SQ8 code matrix, scored through per-query fused
    /// state ([`PreparedSq8`]). Supports L2 and inner product (the metrics
    /// the SQ8 folding exists for); cosine callers normalize and pass IP, as
    /// the IVF layer does.
    Sq8 {
        /// Row-major codes, `dim` bytes per row.
        codes: &'a [u8],
        /// The quantizer the codes were encoded with.
        sq: &'a ScalarQuantizer,
    },
}

/// The cache-aware engine (§3.2.1, Figure 3) at one uniform `opts.k`, no
/// trace: [`cache_aware_scan`] over float rows.
pub fn cache_aware_search_exec(
    exec: &Executor,
    data: &VectorSet,
    ids: &[i64],
    queries: &VectorSet,
    opts: &BatchOptions,
) -> Vec<Vec<Neighbor>> {
    let ks = vec![opts.k; queries.len()];
    let off = &mut obs::Trace::disabled();
    cache_aware_scan(exec, Rows::F32(data), ids, queries, &ks, None, opts, off)
}

/// The cache-aware batch engine: top-`ks[j]` of `rows` — of those set in
/// `mask`, when there is one — for every query `j`, one sorted list per query
/// in input order.
///
/// The whole batch runs once at `max(ks)` and each query's sorted list is
/// truncated to its own `k` (`opts.k` is ignored). Exact, because the scan is
/// exhaustive: the sorted top-`j` is a prefix of the sorted top-`k` for
/// `j <= k` (same total order on `(distance, id)`, same candidate set), so
/// every truncated list is bit-identical to a run at that query's own `k`.
///
/// Block sizing follows Eq. (1); SQ8's prepared state is one `dim`-float
/// vector per query, the same footprint the formula already charges. A live
/// `trace` gets one [`obs::SpanKind::BatchScan`] span per query block, one
/// `QueueWait` span for the block's worst-queued range task, and one
/// `HeapMerge` span per block merge, recorded on the calling thread after
/// the join; a disabled trace records nothing and never reads the clock.
#[allow(clippy::too_many_arguments)]
pub fn cache_aware_scan(
    exec: &Executor,
    rows: Rows<'_>,
    ids: &[i64],
    queries: &VectorSet,
    ks: &[usize],
    mask: Option<&RowMask>,
    opts: &BatchOptions,
    trace: &mut obs::Trace,
) -> Vec<Vec<Neighbor>> {
    assert_eq!(queries.len(), ks.len(), "one k per query");
    assert!(mask.is_none_or(|m| m.rows() == ids.len()), "mask must cover the data rows");
    let dim = queries.dim();
    match rows {
        Rows::F32(data) => {
            assert_eq!(data.len(), ids.len(), "ids must match data rows");
            assert_eq!(data.dim(), dim, "query dimension mismatch");
            let kern = block_kernel(opts.metric);
            let scan = |block: Range<usize>, range: Range<usize>, heaps: &mut [TopK]| {
                scan_vectors_into_heaps(&kern, data, ids, visible(range, mask), queries, block, heaps)
            };
            blocked_scan(exec, "cache_aware_exec", ids.len(), dim, ks, opts, trace, scan)
        }
        Rows::Sq8 { codes, sq } => {
            assert_eq!(codes.len(), ids.len() * sq.dim(), "codes must be n×dim bytes");
            assert_eq!(sq.dim(), dim, "query dimension mismatch");
            // Every query is folded once into its fused state; a block's
            // slice of it is what stays cache-resident.
            let prepared: Vec<PreparedSq8<'_>> =
                queries.iter().map(|q| sq.prepare(q, opts.metric)).collect();
            let scan = |block: Range<usize>, range: Range<usize>, heaps: &mut [TopK]| {
                scan_codes_into_heaps(&prepared[block], codes, dim, ids, visible(range, mask), heaps)
            };
            blocked_scan(exec, "sq8_cache_aware_exec", ids.len(), dim, ks, opts, trace, scan)
        }
    }
}

/// The engine's blocking/fan-out/merge skeleton, generic over the row
/// scorer: `scan(block, range, heaps)` scores data rows `range` against the
/// resident query block `block`, pushing into `heaps[j]` for query
/// `block.start + j`.
#[allow(clippy::too_many_arguments)]
fn blocked_scan(
    exec: &Executor,
    label: &'static str,
    n: usize,
    dim: usize,
    ks: &[usize],
    opts: &BatchOptions,
    trace: &mut obs::Trace,
    scan: impl Fn(Range<usize>, Range<usize>, &mut [TopK]) + Sync,
) -> Vec<Vec<Neighbor>> {
    let m = ks.len();
    if m == 0 || n == 0 {
        return vec![Vec::new(); m];
    }
    obs::counter(obs::BATCH_QUERIES, label).add(m as u64);
    let _span = obs::span(obs::BATCH_LATENCY, label);
    let k = ks.iter().copied().max().unwrap_or(1).max(1);
    let t = opts.threads.max(1).min(n);
    let s = query_block_size(opts.l3_cache_bytes, dim, t, k).min(m);

    // Task r owns data rows [bounds[r], bounds[r+1]).
    let chunk = n.div_ceil(t);
    let bounds: Vec<usize> = (0..=t).map(|i| (i * chunk).min(n)).collect();

    let mut results: Vec<Vec<Neighbor>> = Vec::with_capacity(m);
    for block_start in (0..m).step_by(s) {
        let block = block_start..(block_start + s).min(m);
        let t_block = trace.begin();

        // One heap per (range task, query-in-block): H[r][j] in Figure 3.
        let range_scan = |r: usize| {
            let mut heaps: Vec<TopK> = block.clone().map(|_| TopK::new(k)).collect();
            scan(block.clone(), bounds[r]..bounds[r + 1], &mut heaps);
            heaps
        };
        // When traced, the timed fan-out exposes how long the block's range
        // tasks sat queued; the worst wait becomes one QueueWait span so the
        // profiler separates executor saturation from scan time without
        // recording `t` spans per block. The untraced path stays clock-free.
        let per_task: Vec<Vec<TopK>> = if trace.enabled() {
            let timed = exec.scoped_map_timed(t, range_scan);
            let wait = timed.iter().map(|(_, timing)| *timing).max_by_key(|w| w.queue_wait());
            if let Some(wait) = wait {
                trace.record_window(obs::SpanKind::QueueWait, wait.enqueued, wait.started, |_| {});
            }
            timed.into_iter().map(|(heaps, _)| heaps).collect()
        } else {
            exec.scoped_map(t, range_scan)
        };
        trace.record_with(obs::SpanKind::BatchScan, t_block, |sp| {
            sp.rows_scanned = (block.len() as u64) * (n as u64);
        });

        // Merge the `t` per-task heaps of each query, consuming them (no
        // heap clones), and cut each sorted list to its query's own `k`.
        let t_merge = trace.begin();
        let mut merged: Vec<TopK> = block.clone().map(|_| TopK::new(k)).collect();
        for task_heaps in per_task {
            for (acc, heap) in merged.iter_mut().zip(task_heaps) {
                acc.merge(heap);
            }
        }
        results.extend(merged.into_iter().zip(&ks[block]).map(|(heap, &k)| {
            let mut list = heap.into_sorted();
            list.truncate(k.max(1));
            list
        }));
        trace.record(obs::SpanKind::HeapMerge, t_merge);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vs = VectorSet::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vs.push(&v);
        }
        vs
    }

    fn sq8_codes(data: &VectorSet) -> (ScalarQuantizer, Vec<u8>) {
        let sq = ScalarQuantizer::train(data);
        let mut codes = Vec::with_capacity(data.len() * data.dim());
        for row in data.iter() {
            sq.encode_into(row, &mut codes);
        }
        (sq, codes)
    }

    #[test]
    fn eq1_block_size() {
        // 32 MB L3, d=128, t=16, k=50: s = 32MiB / (512 + 16*50*12) = ~3355.
        let s = query_block_size(32 * 1024 * 1024, 128, 16, 50);
        assert_eq!(s, 32 * 1024 * 1024 / (128 * 4 + 16 * 50 * 12));
        // Tiny cache never yields zero.
        assert_eq!(query_block_size(1, 128, 16, 50), 1);
    }

    #[test]
    fn agrees_with_single_query_flat_scan() {
        let pool = Executor::new("t_batch_flat", 3);
        let data = random_set(100, 8, 3);
        let ids: Vec<i64> = (0..100).collect();
        let queries = random_set(5, 8, 4);
        let opts = BatchOptions { k: 5, metric: Metric::L2, threads: 3, ..Default::default() };
        let res = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
        for (qi, q) in queries.iter().enumerate() {
            let mut heap = TopK::new(5);
            for (row, v) in data.iter().enumerate() {
                heap.push(row as i64, distance::l2_sq(q, v));
            }
            assert_eq!(res[qi], heap.into_sorted());
        }
    }

    #[test]
    fn block_smaller_than_batch_still_covers_all_queries() {
        let pool = Executor::new("t_batch_blocks", 2);
        let data = random_set(50, 32, 7);
        let ids: Vec<i64> = (0..50).collect();
        let queries = random_set(40, 32, 8);
        // Force s = 1 via a tiny cache: every query is its own block.
        let opts =
            BatchOptions { k: 3, metric: Metric::L2, threads: 2, l3_cache_bytes: 1 };
        let res = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
        assert_eq!(res.len(), 40);
        assert!(res.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn more_threads_than_rows() {
        let pool = Executor::new("t_batch_rows", 2);
        let data = random_set(3, 4, 9);
        let ids: Vec<i64> = (0..3).collect();
        let queries = random_set(2, 4, 10);
        let opts = BatchOptions { k: 2, threads: 16, ..Default::default() };
        let res = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].len(), 2);
    }

    #[test]
    fn tiled_engine_is_bit_identical_to_the_untiled_serial_scan() {
        let pool = Executor::new("t_batch", 3);
        let data = random_set(257, 24, 21);
        let ids: Vec<i64> = (0..257).map(|i| i * 3 + 1).collect();
        // 23 queries: exercises both full ×4 tiles and a ragged tail.
        let queries = random_set(23, 24, 22);
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let opts = BatchOptions { k: 9, metric, threads: 4, l3_cache_bytes: 8192 };
            let pooled = cache_aware_search_exec(&pool, &data, &ids, &queries, &opts);
            let kern = distance::pair_kernel(metric);
            for (qi, q) in queries.iter().enumerate() {
                let mut heap = TopK::new(9);
                for (&id, v) in ids.iter().zip(data.iter()) {
                    heap.push(id, kern(q, v));
                }
                assert_eq!(pooled[qi], heap.into_sorted(), "engine diverged under {metric} q={qi}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let pool = Executor::new("t_batch_empty", 2);
        let data = random_set(10, 4, 23);
        let ids: Vec<i64> = (0..10).collect();
        let empty_q = VectorSet::new(4);
        let opts = BatchOptions::default();
        assert!(cache_aware_search_exec(&pool, &data, &ids, &empty_q, &opts).is_empty());
        let empty_d = VectorSet::new(4);
        let q = random_set(3, 4, 24);
        let res = cache_aware_search_exec(&pool, &empty_d, &[], &q, &opts);
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(Vec::is_empty));
    }

    #[test]
    fn sq8_rows_match_serial_fused_reference() {
        let pool = Executor::new("t_sq8_batch", 3);
        let data = random_set(257, 24, 31);
        let (sq, codes) = sq8_codes(&data);
        let ids: Vec<i64> = (0..257).map(|i| i * 2 + 5).collect();
        let queries = random_set(23, 24, 32);
        for metric in [Metric::L2, Metric::InnerProduct] {
            // Tiny cache forces multiple query blocks; 3 threads force range
            // splits and heap merges.
            let opts = BatchOptions { k: 9, metric, threads: 3, l3_cache_bytes: 4096 };
            let rows = Rows::Sq8 { codes: &codes, sq: &sq };
            let off = &mut obs::Trace::disabled();
            let got = cache_aware_scan(&pool, rows, &ids, &queries, &[9; 23], None, &opts, off);
            assert_eq!(got.len(), 23);
            for (qi, res) in got.iter().enumerate() {
                let p = sq.prepare(queries.get(qi), metric);
                let mut heap = TopK::new(9);
                for (row, &id) in ids.iter().enumerate() {
                    heap.push(id, p.distance(&codes[row * 24..(row + 1) * 24]));
                }
                assert_eq!(*res, heap.into_sorted(), "sq8 batch diverged {metric} q={qi}");
            }
        }
    }

    /// Under a mask the engine returns exactly the scalar scan of the visible
    /// rows, whatever tiles the gaps leave (every row, every second, every
    /// fifth, a single one; float rows and SQ8 codes).
    #[test]
    fn masked_rows_match_the_serial_scan_of_the_visible_rows() {
        let pool = Executor::new("t_masked_batch", 3);
        let data = random_set(257, 24, 51);
        let (sq, codes) = sq8_codes(&data);
        let ids: Vec<i64> = (0..257).map(|i| i * 3 + 1).collect();
        let queries = random_set(7, 24, 52);
        let off = &mut obs::Trace::disabled();
        for keep in [1usize, 2, 5, 300] {
            let allowed: Vec<u32> = (0..257u32).filter(|r| *r as usize % keep == 1 % keep).collect();
            let mask = RowMask::from_positions(257, &allowed);
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let opts = BatchOptions { k: 9, metric, threads: 3, l3_cache_bytes: 4096 };
                let got =
                    cache_aware_scan(&pool, Rows::F32(&data), &ids, &queries, &[9; 7], Some(&mask), &opts, off);
                let kern = distance::pair_kernel(metric);
                for (q, got) in queries.iter().zip(&got) {
                    let mut heap = TopK::new(9);
                    mask.iter().for_each(|r| {
                        heap.push(ids[r], kern(q, data.get(r)));
                    });
                    assert_eq!(*got, heap.into_sorted(), "f32 {metric} keep 1/{keep}");
                }
                if metric == Metric::Cosine {
                    continue;
                }
                let rows = Rows::Sq8 { codes: &codes, sq: &sq };
                let got = cache_aware_scan(&pool, rows, &ids, &queries, &[9; 7], Some(&mask), &opts, off);
                for (q, got) in queries.iter().zip(&got) {
                    let p = sq.prepare(q, metric);
                    let mut heap = TopK::new(9);
                    mask.iter().for_each(|r| {
                        heap.push(ids[r], p.distance(&codes[r * 24..(r + 1) * 24]));
                    });
                    assert_eq!(*got, heap.into_sorted(), "sq8 {metric} keep 1/{keep}");
                }
            }
        }
    }

    #[test]
    fn sq8_rows_empty_inputs() {
        let pool = Executor::new("t_sq8_empty", 2);
        let data = random_set(10, 4, 33);
        let (sq, codes) = sq8_codes(&data);
        let ids: Vec<i64> = (0..10).collect();
        let opts = BatchOptions::default();
        let off = &mut obs::Trace::disabled();
        let rows = Rows::Sq8 { codes: &codes, sq: &sq };
        let no_queries = VectorSet::new(4);
        assert!(cache_aware_scan(&pool, rows, &ids, &no_queries, &[], None, &opts, off).is_empty());
        let q = random_set(3, 4, 34);
        let rows = Rows::Sq8 { codes: &[], sq: &sq };
        let res = cache_aware_scan(&pool, rows, &[], &q, &[50; 3], None, &opts, off);
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(Vec::is_empty));
    }

    #[test]
    fn per_query_ks_match_per_query_runs_at_each_own_k() {
        let pool = Executor::new("t_hetk", 3);
        let data = random_set(157, 24, 41);
        let ids: Vec<i64> = (0..157).map(|i| i * 7 + 2).collect();
        let queries = random_set(6, 24, 42);
        let ks = [1usize, 3, 9, 2, 9, 5];
        let (sq, codes) = sq8_codes(&data);
        let off = &mut obs::Trace::disabled();
        for metric in [Metric::L2, Metric::InnerProduct] {
            let opts = BatchOptions { k: 999, metric, threads: 3, l3_cache_bytes: 4096 };
            for (name, rows) in
                [("flat", Rows::F32(&data)), ("sq8", Rows::Sq8 { codes: &codes, sq: &sq })]
            {
                let got = cache_aware_scan(&pool, rows, &ids, &queries, &ks, None, &opts, off);
                for (qi, &k) in ks.iter().enumerate() {
                    let one = queries.gather(&[qi]);
                    let solo = cache_aware_scan(&pool, rows, &ids, &one, &[k], None, &opts, off);
                    assert_eq!(got[qi], solo[0], "{name} het-k diverged {metric} q={qi} k={k}");
                }
            }
        }
    }
}
